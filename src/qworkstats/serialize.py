"""CSV and JSON artifact writers.

Every file carries the schema version and a header block echoing the fully
resolved configuration that produced it, so any number in a report can be
recomputed from the dumped raw artifacts. JSON output is key-sorted and
float-formatted by ``repr``, which makes identical runs byte-identical except
for the ``generated_at`` stamp (excluded from determinism comparisons).

Writers stream: a CSV file is formatted and written ``_ROW_BLOCK`` rows at a
time and a JSON file in chunks, so no file is held whole. Inside an
:class:`ArtifactText` block each 1-D int or float array is formatted once (by
the CSV writer, if it prints the array), and every file that prints it (CSV,
JSON, ``report.json``) reuses that text; outside one, each writer formats its
arrays itself. Spectral-term rows are printed from the folded terms: a mirror
row repeats the text of its term, with the sign of ``weight_im`` flipped.
"""

from __future__ import annotations

import json
from contextvars import ContextVar
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fcs import CharacteristicSamples, QuasiDistribution, SpectralExpansion
from .open_system import HeatLedger
from .paths import PathEnsemble
from .tmp import TmpDistribution

__all__ = [
    "SCHEMA_VERSION",
    "ArtifactText",
    "flatten_config",
    "write_characteristic",
    "write_quasi_distribution",
    "write_tmp_distribution",
    "write_spectral_terms",
    "write_ledger",
    "write_report",
    "write_table",
    "write_paths_csv",
]

SCHEMA_VERSION = 1


def _stamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def flatten_config(config: Mapping, prefix: str = "") -> dict[str, object]:
    """Flatten nested config dicts to dotted keys for CSV headers."""
    out: dict[str, object] = {}
    for key, value in config.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.update(flatten_config(value, prefix=f"{dotted}."))
        else:
            out[dotted] = value
    return out


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return str(x)


def _is_column(obj) -> bool:
    """A 1-D int or float array, written from one newline-joined text."""
    return isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "iuf"


class ArtifactText:
    """Formats each 1-D int or float array once while the block is open.

    ``with ArtifactText(keep):`` around a run's writes makes every writer take
    an array's text, the ``repr`` of its elements joined by ``"\\n"``, from
    here, or leaves the text it formats. Entries are keyed by array identity
    and hold their array, so no id is reused while its entry lives; the arrays
    must not change inside the block. Each artifact's entries are dropped once
    its files are written, except those of arrays held by ``keep`` (a nested
    dict or list, such as the report), which stay until the block ends.
    """

    def __init__(self, keep=()):
        self._keep = {id(a): a for a in _columns_in(keep)}
        self._text: dict[int, tuple[np.ndarray, str]] = {}

    def __enter__(self) -> "ArtifactText":
        self._token = _OPEN_TEXT.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _OPEN_TEXT.reset(self._token)
        self._text.clear()

    def text(self, values: np.ndarray) -> str:
        entry = self._text.get(id(values))
        if entry is None:
            entry = self._text[id(values)] = (values, "\n".join(_format_cells(values)))
        return entry[1]

    def add(self, values: np.ndarray, text: str) -> None:
        """Keep ``text``, already formatted, as the text of ``values`` unless it has one."""
        self._text.setdefault(id(values), (values, text))

    def release(self) -> None:
        """Drop the text of every array not held by ``keep``."""
        self._text = {key: entry for key, entry in self._text.items() if key in self._keep}


_OPEN_TEXT: ContextVar[ArtifactText | None] = ContextVar("open_artifact_text", default=None)


def _columns_in(obj):
    if _is_column(obj):
        yield obj
    elif isinstance(obj, Mapping):
        for value in obj.values():
            yield from _columns_in(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _columns_in(value)


def _format_cells(values: np.ndarray) -> list[str]:
    fmt = float.__repr__ if values.dtype.kind == "f" else int.__repr__
    return list(map(fmt, values.tolist()))


def _column_text(values) -> str:
    """Cells of a 1-D int or float array, or of a text column, joined by
    newlines; an array's text comes from the open ``ArtifactText``, if any."""
    if isinstance(values, _TextColumn):
        return "\n".join(values.texts[values.index].tolist())
    store = _OPEN_TEXT.get()
    return "\n".join(_format_cells(values)) if store is None else store.text(values)


# Rows that _write_csv formats and writes at a time; keeps a block's cells
# near 1 MiB for any artifact.
_ROW_BLOCK = 1 << 12


@dataclass(frozen=True)
class _TextColumn:
    """A column whose cells are ``texts[index]``: one text serves many rows."""

    texts: np.ndarray  # 1-D object array of str
    index: np.ndarray

    def __len__(self) -> int:
        return self.index.size


def _cells(column, start: int, stop: int) -> list[str]:
    """Cells of rows ``start:stop`` of one column, as ``_fmt`` writes them."""
    if isinstance(column, _TextColumn):
        return column.texts[column.index[start:stop]].tolist()
    part = column[start:stop]
    return _format_cells(part) if _is_column(part) else [_fmt(x) for x in part]


def _write_csv(
    path: Path,
    names: Sequence[str],
    columns: Sequence[Sequence],
    header: Mapping[str, object],
) -> None:
    """Rows in blocks of ``_ROW_BLOCK``, as many as the shortest column has; the
    text of a numeric column written whole goes to the open ``ArtifactText``."""
    lines = [f"# schema_version: {SCHEMA_VERSION}", f"# generated_at: {_stamp()}"]
    lines += [f"# {key}: {_fmt(value)}" for key, value in header.items()]
    lines.append(",".join(names))
    store, rows = _OPEN_TEXT.get(), min(map(len, columns), default=0)
    texts = {n: [] for n, c in enumerate(columns) if store is not None and _is_column(c) and len(c) == rows}
    with path.open("w") as out:
        out.write("\n".join(lines) + "\n")
        for start in range(0, rows, _ROW_BLOCK):
            cells = [_cells(column, start, start + _ROW_BLOCK) for column in columns]
            for n, parts in texts.items():
                parts.append("\n".join(cells[n]))
            out.write("\n".join(map(",".join, zip(*cells))) + "\n")
    for n, parts in texts.items():
        store.add(columns[n], "\n".join(parts))


def _json_chunks(obj, indent: str = ""):
    """Chunks of ``json.dumps(obj, sort_keys=True, indent=2)`` at nesting
    ``indent``, with keys converted by ``str``, NumPy scalars as Python
    scalars, ``complex`` as ``{"re", "im"}``, and arrays that are not 1-D int
    or float as ``tolist()``.

    A 1-D int or float array, or a text column, is one chunk joined in one
    pass instead of going through the pure-Python encoder that ``indent``
    selects; every other value is still written by ``json`` itself.
    """
    if isinstance(obj, np.ndarray) and not (_is_column(obj) and obj.size):
        obj = obj.tolist()
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    inner = indent + "  "
    if isinstance(obj, (Mapping, list, tuple)) and obj:
        mapping = isinstance(obj, Mapping)
        items = sorted({str(key): value for key, value in obj.items()}.items()) if mapping else enumerate(obj)
        sep = ("{" if mapping else "[") + "\n" + inner
        for key, value in items:
            yield sep + (f"{json.dumps(key)}: " if mapping else "")
            yield from _json_chunks(value, inner)
            sep = ",\n" + inner
        yield "\n" + indent + ("}" if mapping else "]")
    elif isinstance(obj, (np.ndarray, _TextColumn)):
        text = _column_text(obj)
        if "n" in text:  # nan or inf, which json spells NaN and Infinity
            text = "\n".join(json.dumps(float(cell)) if "n" in cell else cell for cell in text.split("\n"))
        text = text.replace("\n", ",\n" + inner)
        yield from ("[\n" + inner, text, "\n" + indent + "]")
    else:
        yield json.dumps(obj.item() if isinstance(obj, np.generic) else obj)


def _write_json(path: Path, payload: Mapping) -> None:
    body = {"schema_version": SCHEMA_VERSION, "generated_at": _stamp(), **payload}
    with path.open("w") as out:
        out.writelines(_json_chunks(body))
        out.write("\n")


def _write_artifact(
    directory: Path,
    stem: str,
    formats: Sequence[str],
    header: Mapping[str, object],
    config: Mapping,
    csv_columns: Mapping[str, Sequence],
    json_fields: Mapping,
) -> list[Path]:
    """``stem.csv`` (``csv_columns`` under ``header`` and the flattened
    config) and ``stem.json`` (``header``, ``config`` and ``json_fields``),
    each if ``formats`` names it."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        written.append(directory / f"{stem}.csv")
        names, columns = list(csv_columns), list(csv_columns.values())
        _write_csv(written[-1], names, columns, {**header, **flatten_config(config)})
    if "json" in formats:
        written.append(directory / f"{stem}.json")
        _write_json(written[-1], {**header, "config": config, **json_fields})
    store = _OPEN_TEXT.get()
    if store is not None:
        store.release()
    return written


def write_characteristic(
    directory: Path,
    stem: str,
    samples: CharacteristicSamples,
    config: Mapping,
    formats: Sequence[str],
    protocol: str = "fcs",
) -> list[Path]:
    header = {"kind": "characteristic_function", "protocol": protocol}
    columns = {"lambda": samples.grid.lambdas, "re": samples.values.real, "im": samples.values.imag}
    return _write_artifact(directory, stem, formats, header, config, columns, columns)


def write_quasi_distribution(
    directory: Path,
    stem: str,
    dist: QuasiDistribution,
    config: Mapping,
    formats: Sequence[str],
) -> list[Path]:
    header = {"kind": "quasi_distribution", "protocol": "fcs"}
    columns = {"support": dist.support, "weight": dist.weights}
    return _write_artifact(directory, stem, formats, header, config, columns, columns)


def write_tmp_distribution(
    directory: Path,
    stem: str,
    outcomes: TmpDistribution,
    config: Mapping,
    formats: Sequence[str],
) -> list[Path]:
    """Two-measurement work distribution, same shape with a protocol tag."""
    header = {"kind": "quasi_distribution", "protocol": "tmp"}
    columns = {"support": outcomes.work, "weight": outcomes.probability}
    fields = {**columns, "initial_index": outcomes.i, "final_index": outcomes.k}
    return _write_artifact(directory, stem, formats, header, config, columns, fields)


def _flip_sign(text: str) -> str:
    """``repr(-x)`` from ``repr(x)``: ``0.0`` and ``-0.0`` swap, ``nan`` stays."""
    return text[1:] if text[0] == "-" else text if text == "nan" else "-" + text


def write_spectral_terms(
    directory: Path,
    stem: str,
    terms: SpectralExpansion,
    config: Mapping,
    formats: Sequence[str],
) -> list[Path]:
    """Unfolded rows ``(i, j, k)`` in ``k, i, j`` order; a term with ``i < j``
    adds the conjugate ``(j, i, k)`` row, printed with the text of its term
    and the sign of ``weight_im`` flipped. Each folded number is formatted once."""
    d, n, mirror = terms.eps0.size, len(terms), np.flatnonzero(terms.i != terms.j)
    slot = np.full(d**3, -1)  # slot (k, i, j) of the d^3 cube holds the row that fills it
    slot[(terms.k * d + terms.i) * d + terms.j] = np.arange(n)
    slot[((terms.k * d + terms.j) * d + terms.i)[mirror]] = np.arange(n, n + mirror.size)
    k, i, j = np.unravel_index(np.flatnonzero(slot >= 0), (d, d, d))
    rows = slot[slot >= 0]
    im = _format_cells(terms.pair_weight.imag)
    im = np.array(im + [_flip_sign(im[t]) for t in mirror.tolist()], dtype=object)
    levels = np.array(list(map(str, range(d))), dtype=object)
    support, weight_re = (np.array(_format_cells(x), dtype=object) for x in (terms.support, terms.pair_weight.real))
    term = np.concatenate((np.arange(n), mirror))[rows]
    columns = {"i": _TextColumn(levels, i), "j": _TextColumn(levels, j), "k": _TextColumn(levels, k)}
    columns.update(support=_TextColumn(support, term), weight_re=_TextColumn(weight_re, term))
    columns["weight_im"] = _TextColumn(im, rows)
    del slot  # the d^3 cube is not held while the files are written
    return _write_artifact(directory, stem, formats, {"kind": "spectral_terms"}, config, columns, columns)


def write_ledger(
    directory: Path,
    stem: str,
    ledger: HeatLedger,
    config: Mapping,
    formats: Sequence[str],
) -> list[Path]:
    k, t, heat, entropy_change = ledger.k, ledger.time, ledger.heat_increments, ledger.entropy_increments
    cum = np.cumsum(heat)
    columns = {"k": k, "t_k": t, "Q_k": heat, "dS_k": entropy_change, "cumQ": cum}
    fields = {
        "per_step": {"k": k, "t": t, "heat": heat, "entropy_change": entropy_change, "cumulative_heat": cum},
        "totals": {
            "heat": ledger.heat,
            "internal_energy_change": ledger.internal_energy_change,
            "work": ledger.work,
        },
    }
    return _write_artifact(directory, stem, formats, {"kind": "heat_ledger"}, config, columns, fields)


def write_report(directory: Path, stem: str, report: Mapping) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / f"{stem}.json"
    _write_json(target, report)
    return target


def write_table(
    directory: Path,
    stem: str,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    header: Mapping[str, object],
) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / f"{stem}.csv"
    _write_csv(target, columns, list(zip(*rows)), header)
    return target


def write_paths_csv(
    directory: Path,
    stem: str,
    paths: PathEnsemble,
    config: Mapping,
    max_rows: int = 10000,
) -> list[Path]:
    """The first ``max_rows`` paths: indices joined by ``-``, amplitude, functional."""
    indices = ["-".join(map(str, row)) for row in paths.indices(max_rows).tolist()]
    amplitude = paths.amplitude[:max_rows]
    columns = {
        "indices": indices,
        "amp_re": amplitude.real,
        "amp_im": amplitude.imag,
        "functional": paths.functional[:max_rows],
    }
    return _write_artifact(directory, stem, ("csv",), {"kind": "path_records"}, config, columns, {})
