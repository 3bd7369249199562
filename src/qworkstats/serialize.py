"""CSV and JSON artifact writers.

Every file carries the schema version and a header block echoing the fully
resolved configuration that produced it, so any number in a report can be
recomputed from the dumped raw artifacts. JSON output is key-sorted and
float-formatted by ``repr``, which makes identical runs byte-identical except
for the ``generated_at`` stamp (excluded from determinism comparisons).
"""

from __future__ import annotations

import json
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


def _column_text(values) -> list[str]:
    """Cells of one column, as ``_fmt`` writes them."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return list(map(repr, values.tolist()))
    if isinstance(values, np.ndarray) and values.dtype.kind in "biu":
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


def _sanitize(obj):
    if isinstance(obj, Mapping):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":
            return obj.tolist()
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _json_text(obj, indent: str) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` at nesting ``indent``.

    Lists of only ``int`` or only ``float`` are joined in one pass instead of
    going through the pure-Python encoder that ``indent`` selects; every
    scalar, string and non-finite float is still written by ``json`` itself.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = (f"{json.dumps(key)}: {_json_text(obj[key], inner)}" for key in sorted(obj))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        kinds = set(map(type, obj))
        if kinds == {float}:
            text = sep.join(map(float.__repr__, obj))
            if "n" in text:  # nan or inf, which json spells NaN and Infinity
                text = sep.join(map(json.dumps, obj))
        elif kinds == {int}:
            text = sep.join(map(int.__repr__, obj))
        else:
            text = sep.join(_json_text(v, inner) for v in obj)
        return "[\n" + inner + text + "\n" + indent + "]"
    return json.dumps(obj)


def _write_json(path: Path, payload: Mapping) -> None:
    body = {"schema_version": SCHEMA_VERSION, "generated_at": _stamp()}
    body.update(_sanitize(payload))
    path.write_text(_json_text(body, "") + "\n")


def _targets(directory: Path, stem: str, formats: Sequence[str]) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    return {fmt: directory / f"{stem}.{fmt}" for fmt in formats}


def write_characteristic(
    directory: Path,
    stem: str,
    samples: CharacteristicSamples,
    config: Mapping,
    formats: Sequence[str],
    protocol: str = "fcs",
) -> list[Path]:
    written = []
    targets = _targets(directory, stem, formats)
    header = {"kind": "characteristic_function", "protocol": protocol}
    header.update(flatten_config(config))
    if "csv" in targets:
        columns = (samples.grid.lambdas, samples.values.real, samples.values.imag)
        _write_csv(targets["csv"], ["lambda", "re", "im"], columns, header)
        written.append(targets["csv"])
    if "json" in targets:
        _write_json(
            targets["json"],
            {
                "kind": "characteristic_function",
                "protocol": protocol,
                "config": config,
                "lambda": samples.grid.lambdas,
                "re": samples.values.real,
                "im": samples.values.imag,
            },
        )
        written.append(targets["json"])
    return written


def write_quasi_distribution(
    directory: Path,
    stem: str,
    dist: QuasiDistribution,
    config: Mapping,
    formats: Sequence[str],
    protocol: str = "fcs",
) -> list[Path]:
    written = []
    targets = _targets(directory, stem, formats)
    header = {"kind": "quasi_distribution", "protocol": protocol}
    header.update(flatten_config(config))
    if "csv" in targets:
        _write_csv(targets["csv"], ["support", "weight"], (dist.support, dist.weights), header)
        written.append(targets["csv"])
    if "json" in targets:
        _write_json(
            targets["json"],
            {
                "kind": "quasi_distribution",
                "protocol": protocol,
                "config": config,
                "support": dist.support,
                "weight": dist.weights,
            },
        )
        written.append(targets["json"])
    return written


def write_tmp_distribution(
    directory: Path,
    stem: str,
    outcomes: TmpDistribution,
    config: Mapping,
    formats: Sequence[str],
) -> list[Path]:
    """Two-measurement work distribution, same shape with a protocol tag."""
    written = []
    targets = _targets(directory, stem, formats)
    header = {"kind": "quasi_distribution", "protocol": "tmp"}
    header.update(flatten_config(config))
    if "csv" in targets:
        columns = (outcomes.work, outcomes.probability)
        _write_csv(targets["csv"], ["support", "weight"], columns, header)
        written.append(targets["csv"])
    if "json" in targets:
        _write_json(
            targets["json"],
            {
                "kind": "quasi_distribution",
                "protocol": "tmp",
                "config": config,
                "support": outcomes.work,
                "weight": outcomes.probability,
                "initial_index": outcomes.i,
                "final_index": outcomes.k,
            },
        )
        written.append(targets["json"])
    return written


def write_spectral_terms(
    directory: Path,
    stem: str,
    terms: SpectralExpansion,
    config: Mapping,
    formats: Sequence[str],
) -> list[Path]:
    """The exact phase terms of G: per-term indices, support and weight."""
    written = []
    targets = _targets(directory, stem, formats)
    header = {"kind": "spectral_terms"}
    header.update(flatten_config(config))
    if "csv" in targets:
        columns = (terms.i, terms.j, terms.k, terms.support, terms.weight.real, terms.weight.imag)
        _write_csv(
            targets["csv"],
            ["i", "j", "k", "support", "weight_re", "weight_im"],
            columns,
            header,
        )
        written.append(targets["csv"])
    if "json" in targets:
        _write_json(
            targets["json"],
            {
                "kind": "spectral_terms",
                "config": config,
                "i": terms.i,
                "j": terms.j,
                "k": terms.k,
                "support": terms.support,
                "weight_re": terms.weight.real,
                "weight_im": terms.weight.imag,
            },
        )
        written.append(targets["json"])
    return written


def write_ledger(
    directory: Path,
    stem: str,
    ledger: HeatLedger,
    config: Mapping,
    formats: Sequence[str],
) -> list[Path]:
    written = []
    targets = _targets(directory, stem, formats)
    header = {"kind": "heat_ledger"}
    header.update(flatten_config(config))
    cum = np.cumsum(ledger.heat_increments)
    if "csv" in targets:
        columns = [*zip(*ledger.rows), cum]
        _write_csv(targets["csv"], ["k", "t_k", "Q_k", "dS_k", "cumQ"], columns, header)
        written.append(targets["csv"])
    if "json" in targets:
        _write_json(
            targets["json"],
            {
                "kind": "heat_ledger",
                "config": config,
                "per_step": {
                    "k": [r.k for r in ledger.rows],
                    "t": [r.time for r in ledger.rows],
                    "heat": [r.heat for r in ledger.rows],
                    "entropy_change": [r.entropy_change for r in ledger.rows],
                    "cumulative_heat": cum,
                },
                "totals": {
                    "heat": ledger.heat,
                    "internal_energy_change": ledger.internal_energy_change,
                    "work": ledger.work,
                },
            },
        )
        written.append(targets["json"])
    return written


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
) -> Path:
    """The first ``max_rows`` paths: indices joined by ``-``, amplitude, functional."""
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / f"{stem}.csv"
    header = {"kind": "path_records"}
    header.update(flatten_config(config))
    indices = ["-".join(map(str, row)) for row in paths.indices(max_rows).tolist()]
    amplitude = paths.amplitude[:max_rows]
    columns = (indices, amplitude.real, amplitude.imag, paths.functional[:max_rows])
    _write_csv(target, ["indices", "amp_re", "amp_im", "functional"], columns, header)
    return target
