import json
from itertools import product

import numpy as np

from qworkstats import (
    discretize,
    enumerate_paths,
    fast_decoherence_run,
    gap_ramp_protocol,
    linear_ramp_protocol,
    quasi_distribution,
    spectral_decomposition,
    symmetric_grid,
    tmp_distribution,
)
from qworkstats.serialize import (
    SCHEMA_VERSION,
    _fmt,
    _write_csv,
    _write_json,
    flatten_config,
    write_characteristic,
    write_ledger,
    write_paths_csv,
    write_quasi_distribution,
    write_tmp_distribution,
)

from conftest import PAULI_X, PAULI_Z, cyclic_fixture


def ramp_drive(n_steps):
    return discretize(linear_ramp_protocol(-0.5 * PAULI_Z, PAULI_X, 1.0), n_steps)


CONFIG = {"kind": "cyclic-example", "cyclic": {"alpha": 0.5, "xi": 0.25}}


def parse_csv(path):
    header = {}
    columns = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


def test_flatten_config():
    flat = flatten_config(CONFIG)
    assert flat == {"kind": "cyclic-example", "cyclic.alpha": 0.5, "cyclic.xi": 0.25}


def test_characteristic_round_trip(tmp_path):
    drive, rho = cyclic_fixture(0.5, 0.25)
    from qworkstats import characteristic_function

    samples = characteristic_function(rho, drive, symmetric_grid(2.0, 9))
    files = write_characteristic(tmp_path, "char", samples, CONFIG, ("csv", "json"))
    header, columns, rows = parse_csv(files[0])
    assert header["schema_version"] == str(SCHEMA_VERSION)
    assert header["cyclic.alpha"] == "0.5"
    assert columns == ["lambda", "re", "im"]
    assert len(rows) == 9
    # CSV floats round-trip through repr
    lam = np.array([float(r[0]) for r in rows])
    re = np.array([float(r[1]) for r in rows])
    assert np.array_equal(lam, samples.grid.lambdas)
    assert np.array_equal(re, samples.values.real)
    payload = json.loads(files[1].read_text())
    assert payload["protocol"] == "fcs"
    assert np.array_equal(np.array(payload["re"]), samples.values.real)


def test_quasi_and_tmp_round_trip(tmp_path):
    drive, rho = cyclic_fixture(np.pi / 3, np.pi / 4)
    dist = quasi_distribution(spectral_decomposition(rho, drive))
    files = write_quasi_distribution(tmp_path, "quasi", dist, CONFIG, ("csv", "json"))
    _, columns, rows = parse_csv(files[0])
    assert columns == ["support", "weight"]
    weights = np.array([float(r[1]) for r in rows])
    assert np.array_equal(weights, dist.weights)

    outcomes = tmp_distribution(rho, drive)
    files = write_tmp_distribution(tmp_path, "tmp", outcomes, CONFIG, ("csv", "json"))
    header, columns, _ = parse_csv(files[0])
    assert header["protocol"] == "tmp"
    assert columns == ["support", "weight"]
    payload = json.loads(files[1].read_text())
    assert payload["protocol"] == "tmp"
    assert len(payload["support"]) == len(outcomes)


def test_ledger_round_trip(tmp_path):
    ledger = fast_decoherence_run(gap_ramp_protocol(1.0, 1.5, 1.0), 1.0, 16)
    files = write_ledger(tmp_path, "ledger", ledger, CONFIG, ("csv", "json"))
    _, columns, rows = parse_csv(files[0])
    assert columns == ["k", "t_k", "Q_k", "dS_k", "cumQ"]
    cum = np.array([float(r[4]) for r in rows])
    assert cum[-1] == float(np.cumsum(ledger.heat_increments)[-1])
    payload = json.loads(files[1].read_text())
    totals = payload["totals"]
    assert abs(totals["work"] - (totals["internal_energy_change"] - totals["heat"])) <= 1e-12


def written_stamp(path):
    return next(
        line.split(": ", 1)[1].strip().strip('",')
        for line in path.read_text().splitlines()
        if "generated_at" in line
    )


def reference_sanitize(obj):
    """Element-by-element sanitizer, the reference for ``_sanitize``."""
    if isinstance(obj, dict):
        return {str(k): reference_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [reference_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def test_json_writer_is_json_dumps(tmp_path):
    payload = {
        "label": "1.5",
        "kind": "NaN",
        "note": "[1, 2], \"Infinity\" é",
        "config": {"seed": 3, "flag": True, "nothing": None, "empty": {}, "10": "a", "9": "b"},
        "ints": np.arange(4),
        "floats": np.array([0.1, -0.0, 1e-300, 2.5e17]),
        "nonfinite": np.array([1.0, np.nan, np.inf, -np.inf]),
        "bools": np.array([True, False]),
        "matrix": np.eye(2),
        "complex": np.array([1.0 + 2.0j, -0.5j]),
        "complex_scalar": 1j,
        "numpy_scalars": [np.float64(0.25), np.int64(7)],
        "mixed": [1, 2.5, True, None, "x", (3, 4)],
        "empty_list": [],
        "empty_array": np.zeros(0),
        "nested": [[], [1.0], [[2]]],
    }
    target = tmp_path / "payload.json"
    _write_json(target, payload)
    body = {"schema_version": SCHEMA_VERSION, "generated_at": written_stamp(target)}
    body.update(reference_sanitize(payload))
    assert target.read_text() == json.dumps(body, sort_keys=True, indent=2) + "\n"


def test_csv_writer_matches_per_cell_format(tmp_path):
    columns = [
        np.array([0.1, 1e-300, -2.5, np.nan, np.inf]),
        np.arange(5),
        np.array([True, False, True, True, False]),
        [1, 2.5, "x", np.float64(0.3), np.int64(4)],
    ]
    header = {"kind": "test", "alpha": 0.5, "steps": 4}
    target = tmp_path / "table.csv"
    _write_csv(target, ["f", "i", "b", "mixed"], columns, header)
    expected = [f"# schema_version: {SCHEMA_VERSION}", f"# generated_at: {written_stamp(target)}"]
    expected += [f"# {key}: {_fmt(value)}" for key, value in header.items()]
    expected.append("f,i,b,mixed")
    expected += [",".join(_fmt(x) for x in row) for row in zip(*columns)]
    assert target.read_text() == "\n".join(expected) + "\n"


def test_path_records_index_column_is_product_order(tmp_path):
    from qworkstats.cli import main

    assert main(["run", "paths-check", "--set", "dump_paths=true", "--out", str(tmp_path)]) == 0
    _, columns, rows = parse_csv(tmp_path / "path_records.csv")
    assert columns == ["indices", "amp_re", "amp_im", "functional"]
    assert [r[0] for r in rows] == ["-".join(map(str, t)) for t in product(range(2), repeat=5)]
    # a truncated dump keeps the leading paths
    paths = enumerate_paths(ramp_drive(8), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    write_paths_csv(tmp_path, "head", paths, CONFIG, max_rows=7)
    _, _, rows = parse_csv(tmp_path / "head.csv")
    assert [r[0] for r in rows] == ["-".join(map(str, t)) for t in list(product(range(2), repeat=9))[:7]]
    assert [complex(float(r[1]), float(r[2])) for r in rows] == paths.amplitude[:7].tolist()
