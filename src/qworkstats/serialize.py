"""CSV and JSON artifact writers.

Every file carries the schema version and a header block echoing the fully
resolved configuration that produced it, so any number in a report can be
recomputed from the dumped raw artifacts. JSON output is key-sorted and
float-formatted by ``repr``, which makes identical runs byte-identical except
for the ``generated_at`` stamp (excluded from determinism comparisons).

Inside an :class:`ArtifactText` block each 1-D int or float array is formatted
once, and every file that prints it (CSV, JSON, ``report.json``) reuses that
text; outside one, each writer formats its arrays itself.
"""

from __future__ import annotations

import json
from contextvars import ContextVar
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
    here. Entries are keyed by array identity and hold their array, so no id
    is reused while its entry lives; the arrays must not change inside the
    block. Each artifact's entries are dropped once its files are written,
    except those of arrays held by ``keep`` (a nested dict or list, such as
    the report), which stay until the block ends.
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
            entry = self._text[id(values)] = (values, _format_column(values))
        return entry[1]

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


def _format_column(values: np.ndarray) -> str:
    fmt = float.__repr__ if values.dtype.kind == "f" else int.__repr__
    return "\n".join(map(fmt, values.tolist()))


def _array_text(values: np.ndarray) -> str:
    """Text of a 1-D int or float array: from the open ``ArtifactText``, if any."""
    store = _OPEN_TEXT.get()
    return _format_column(values) if store is None else store.text(values)


def _release_text() -> None:
    store = _OPEN_TEXT.get()
    if store is not None:
        store.release()


def _column_text(values) -> list[str]:
    """Cells of one column, as ``_fmt`` writes them."""
    if _is_column(values):
        return _array_text(values).split("\n") if len(values) else []
    if isinstance(values, np.ndarray) and values.dtype.kind == "b":
        return list(map(str, values.tolist()))
    return [_fmt(x) for x in values]


def _write_csv(
    path: Path,
    names: Sequence[str],
    columns: Sequence[Sequence],
    header: Mapping[str, object],
) -> None:
    lines = [f"# schema_version: {SCHEMA_VERSION}", f"# generated_at: {_stamp()}"]
    for key, value in header.items():
        lines.append(f"# {key}: {_fmt(value)}")
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*map(_column_text, columns))))
    path.write_text("\n".join(lines) + "\n")


def _json_text(obj, indent: str) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` at nesting ``indent``, with
    keys converted by ``str``, NumPy scalars as Python scalars, ``complex`` as
    ``{"re", "im"}``, and arrays that are not 1-D int or float as ``tolist()``.

    1-D int or float arrays are joined in one pass instead of going through
    the pure-Python encoder that ``indent`` selects; every other value and
    every non-finite float is still written by ``json`` itself.
    """
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = {str(key): value for key, value in obj.items()}
        text = (f"{json.dumps(key)}: {_json_text(items[key], inner)}" for key in sorted(items))
        return "{\n" + inner + (",\n" + inner).join(text) + "\n" + indent + "}"
    if isinstance(obj, np.ndarray) and not _is_column(obj):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            return "[]"
        inner = indent + "  "
        if isinstance(obj, np.ndarray):
            text = _array_text(obj)
            if "n" in text:  # nan or inf, which json spells NaN and Infinity
                text = "\n".join(map(json.dumps, obj.tolist()))
            text = text.replace("\n", ",\n" + inner)
        else:
            text = (",\n" + inner).join(_json_text(v, inner) for v in obj)
        return "[\n" + inner + text + "\n" + indent + "]"
    if isinstance(obj, complex):
        return _json_text({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, np.floating):
        obj = float(obj)
    elif isinstance(obj, np.integer):
        obj = int(obj)
    return json.dumps(obj)


def _write_json(path: Path, payload: Mapping) -> None:
    body = {"schema_version": SCHEMA_VERSION, "generated_at": _stamp(), **payload}
    path.write_text(_json_text(body, "") + "\n")


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
    _release_text()
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


def _unfolded_columns(terms: SpectralExpansion) -> dict[str, np.ndarray]:
    """Rows ``(i, j, k)`` in ``k, i, j`` order; a term with ``i < j`` adds the conjugate ``(j, i)`` row."""
    d, mirror = terms.eps0.size, terms.i != terms.j
    i, j, k = (np.concatenate((a, b[mirror])) for a, b in ((terms.i, terms.j), (terms.j, terms.i), (terms.k, terms.k)))
    slot = np.full(d**3, -1)  # slot (k, i, j) of the d^3 cube holds the row that fills it
    slot[(k * d + i) * d + j] = np.arange(k.size)
    rows = slot[slot >= 0]
    w = np.concatenate((terms.pair_weight, terms.pair_weight[mirror].conj()))[rows]
    u = np.concatenate((terms.support, terms.support[mirror]))[rows]
    return {"i": i[rows], "j": j[rows], "k": k[rows], "support": u, "weight_re": w.real, "weight_im": w.imag}


def write_spectral_terms(
    directory: Path,
    stem: str,
    terms: SpectralExpansion,
    config: Mapping,
    formats: Sequence[str],
) -> list[Path]:
    columns = _unfolded_columns(terms)
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
