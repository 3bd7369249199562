import contextlib
import dataclasses
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from qworkstats import (
    DensityOperator,
    discretize,
    enumerate_paths,
    fast_decoherence_run,
    gap_ramp_protocol,
    linear_ramp_protocol,
    quasi_distribution,
    random_ramp_protocol,
    serialize,
    spectral_decomposition,
    symmetric_grid,
    tmp_distribution,
)
import qworkstats
from qworkstats.runner import run_scenario
from qworkstats.scenario import Scenario, build_discretized_drive, build_initial_state
from qworkstats.serialize import (
    SCHEMA_VERSION,
    ArtifactText,
    _flip_sign,
    _fmt,
    _write_csv,
    _write_json,
    flatten_config,
    write_characteristic,
    write_ledger,
    write_paths_csv,
    write_quasi_distribution,
    write_report,
    write_spectral_terms,
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

    samples = characteristic_function(spectral_decomposition(rho, drive), symmetric_grid(2.0, 9))
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
    terms = spectral_decomposition(rho, drive)
    dist = quasi_distribution(terms)
    files = write_quasi_distribution(tmp_path, "quasi", dist, CONFIG, ("csv", "json"))
    _, columns, rows = parse_csv(files[0])
    assert columns == ["support", "weight"]
    weights = np.array([float(r[1]) for r in rows])
    assert np.array_equal(weights, dist.weights)

    outcomes = tmp_distribution(terms)
    files = write_tmp_distribution(tmp_path, "tmp", outcomes, CONFIG, ("csv", "json"))
    header, columns, _ = parse_csv(files[0])
    assert header["protocol"] == "tmp"
    assert columns == ["support", "weight"]
    payload = json.loads(files[1].read_text())
    assert payload["protocol"] == "tmp"
    assert len(payload["support"]) == len(outcomes)


def test_ledger_round_trip(tmp_path):
    ledger = fast_decoherence_run(discretize(gap_ramp_protocol(1.0, 1.5, 1.0), 16), 1.0)
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
        "float64": np.float64(-0.0),
        "int64": np.int64(2**40),
        "complex128": np.complex128(1e-300 - 2.5j),
        "int_keyed": {2: "two", 10: np.float64(0.1), 1: {3: np.int64(-3), 20: [1j]}},
        7: "int key at the top",
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


def write_and_check_csv(tmp_path):
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


def test_csv_writer_matches_per_cell_format(tmp_path):
    write_and_check_csv(tmp_path)


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


# ---------------------------------------------------------------------------
# each array formatted once per run


def json_tokens(text):
    """Parse JSON keeping every number (and NaN/Infinity) as its exact text."""
    return json.loads(text, parse_float=str, parse_int=str, parse_constant=str)


def random_tmp_overrides(dim, seed):
    rng = np.random.default_rng(seed)
    return {
        "seed": seed,
        "drive.protocol": "random",
        "drive.steps": 16,
        "drive.params.dim": dim,
        "initial_state.kind": "superposition",
        "initial_state.amplitudes": [float(x) for x in rng.uniform(0.5, 1.5, dim)],
        "initial_state.phases": [float(x) for x in rng.uniform(0.0, 2.0 * np.pi, dim)],
    }


def random_tmp_compare(dim, seed):
    return Scenario.from_kind("tmp-compare").with_overrides(random_tmp_overrides(dim, seed))


def stripped_files(directory):
    return {
        path.name: "\n".join(line for line in path.read_text().splitlines() if "generated_at" not in line)
        for path in sorted(directory.iterdir())
    }


def test_report_prints_quasi_arrays_as_the_quasi_artifact(tmp_path):
    run_scenario(random_tmp_compare(8, 3), out_dir=tmp_path)
    report = json_tokens((tmp_path / "report.json").read_text())["results"]["quasi"]
    artifact = json_tokens((tmp_path / "quasi_distribution.json").read_text())
    assert len(artifact["support"]) > 8
    assert report["support"] == artifact["support"]
    assert report["weights"] == artifact["weight"]
    _, _, rows = parse_csv(tmp_path / "quasi_distribution.csv")
    assert [list(row) for row in zip(artifact["support"], artifact["weight"])] == rows


def test_spectral_terms_csv_cells_are_json_elements(tmp_path):
    run_scenario(random_tmp_compare(4, 5), out_dir=tmp_path)
    _, columns, rows = parse_csv(tmp_path / "spectral_terms.csv")
    payload = json_tokens((tmp_path / "spectral_terms.json").read_text())
    assert len(rows) == 4**3
    for name, cells in zip(columns, zip(*rows)):
        assert list(cells) == payload[name], name


def test_runs_in_one_process_write_what_each_run_writes_alone(tmp_path):
    """No text outlives its run: a later run whose arrays reuse freed ids
    writes the bytes of the same run in a fresh interpreter."""
    sequence = [(8, 11), (32, 12), (8, 11)]
    for n, (dim, seed) in enumerate(sequence):
        run_scenario(random_tmp_compare(dim, seed), out_dir=tmp_path / f"in_process_{n}")
    env = dict(os.environ, PYTHONPATH=str(Path(qworkstats.__file__).resolve().parents[1]))
    script = (
        "import json, sys\n"
        "from qworkstats.runner import run_scenario\n"
        "from qworkstats.scenario import Scenario\n"
        "scenario = Scenario.from_kind('tmp-compare').with_overrides(json.loads(sys.argv[1]))\n"
        "run_scenario(scenario, out_dir=sys.argv[2])\n"
    )
    for dim, seed in sorted(set(sequence)):
        overrides = json.dumps(random_tmp_overrides(dim, seed))
        alone = str(tmp_path / f"alone_{dim}")
        subprocess.run([sys.executable, "-c", script, overrides, alone], check=True, env=env)
    for n, (dim, _) in enumerate(sequence):
        assert stripped_files(tmp_path / f"in_process_{n}") == stripped_files(tmp_path / f"alone_{dim}")


def test_writers_inside_and_outside_a_run_write_the_same_bytes(tmp_path):
    drive, rho = cyclic_fixture(np.pi / 3, np.pi / 4)
    terms = spectral_decomposition(rho, drive)
    dist = quasi_distribution(terms)
    report = {"results": {"quasi": {"support": dist.support, "weights": dist.weights}}}

    def write_all(directory):
        write_quasi_distribution(directory, "quasi", dist, CONFIG, ("csv", "json"))
        write_spectral_terms(directory, "terms", terms, CONFIG, ("csv", "json"))
        write_report(directory, "report", report)

    write_all(tmp_path / "outside")
    with ArtifactText(keep=report):
        write_all(tmp_path / "inside")
    assert stripped_files(tmp_path / "inside") == stripped_files(tmp_path / "outside")


EDGE_ARRAYS = {
    "nonfinite": np.array([np.nan, np.inf, -np.inf, 1.5]),
    "signed_zero": np.array([-0.0, 0.0, 1e-300, -2.5e17]),
    "empty": np.zeros(0),
    "empty_int": np.zeros(0, dtype=np.int64),
    "ints": np.array([-3, 0, 2**40]),
    "unsigned": np.arange(3, dtype=np.uint8),
    "single": np.arange(3, dtype=np.float32) / 3,
    "matrix": np.arange(6.0).reshape(2, 3),
    "bools": np.array([True, False]),
}


def write_and_check_edge_arrays(tmp_path, inside):
    payload = {
        **EDGE_ARRAYS,
        "again": {"nonfinite": EDGE_ARRAYS["nonfinite"]},
        "scalars": [np.float64(np.nan), np.float64(-0.0), np.int64(-7), 2.5 - 1j, np.complex128(np.inf)],
        "int_keyed": {2: EDGE_ARRAYS["ints"], 10: np.float64(1e-300), 1: {0: np.int64(3)}},
    }
    columns = [EDGE_ARRAYS[name] for name in ("nonfinite", "signed_zero", "ints", "single")]
    single = [np.array([0.5]), np.array([-1])]
    # the CSV writes come first, as in a run: inside a block JSON reuses their text
    with ArtifactText(keep=payload) if inside else contextlib.nullcontext():
        _write_csv(tmp_path / "edge.csv", ["a", "b", "c", "d"], columns, {})
        _write_csv(tmp_path / "empty.csv", ["e"], [EDGE_ARRAYS["empty"]], {})
        _write_csv(tmp_path / "single.csv", ["f", "g"], single, {})
        _write_json(tmp_path / "edge.json", payload)
        _write_csv(tmp_path / "again.csv", ["a", "b", "c", "d"], columns, {})
    body = {"schema_version": SCHEMA_VERSION, "generated_at": written_stamp(tmp_path / "edge.json")}
    body.update(reference_sanitize(payload))
    assert (tmp_path / "edge.json").read_text() == json.dumps(body, sort_keys=True, indent=2) + "\n"
    _, _, rows = parse_csv(tmp_path / "edge.csv")
    assert rows == [[_fmt(x) for x in row] for row in zip(*columns)]
    assert rows[0][:2] == ["nan", "-0.0"] and rows[1][0] == "inf"
    assert parse_csv(tmp_path / "again.csv") == parse_csv(tmp_path / "edge.csv")
    _, names, rows = parse_csv(tmp_path / "empty.csv")
    assert names == ["e"] and rows == []
    _, names, rows = parse_csv(tmp_path / "single.csv")
    assert names == ["f", "g"] and rows == [["0.5", "-1"]]


@pytest.mark.parametrize("inside", [False, True], ids=["outside", "inside"])
def test_edge_arrays_match_json_dumps_and_fmt(tmp_path, inside):
    write_and_check_edge_arrays(tmp_path, inside)


@pytest.mark.parametrize("inside", [False, True], ids=["outside", "inside"])
@pytest.mark.parametrize("block", [1, 2, 3])
def test_row_blocks_write_the_same_bytes(tmp_path, monkeypatch, block, inside):
    """Blocks of 1, 2 and 3 rows write the bytes of one block. The 3-element
    arrays fill whole blocks of 1 and 3 rows, the 4-row CSV whole blocks of 1
    and 2; the other sizes end in a partial block."""
    monkeypatch.setattr(serialize, "_ROW_BLOCK", block)
    write_and_check_csv(tmp_path)
    write_and_check_edge_arrays(tmp_path, inside)


def test_csv_text_is_reused_by_json_and_report(tmp_path, monkeypatch):
    """Inside a block each element of a written array is formatted once, by
    the CSV writer, whatever the block size."""
    drive, rho = cyclic_fixture(np.pi / 3, np.pi / 4)
    dist = quasi_distribution(spectral_decomposition(rho, drive))
    report = {"results": {"quasi": {"support": dist.support, "weights": dist.weights}}}
    formatted = []
    format_cells = serialize._format_cells

    def counted(values):
        formatted.append(values.size)
        return format_cells(values)

    monkeypatch.setattr(serialize, "_format_cells", counted)
    monkeypatch.setattr(serialize, "_ROW_BLOCK", 2)
    with ArtifactText(keep=report):
        write_quasi_distribution(tmp_path, "quasi", dist, CONFIG, ("csv", "json"))
        write_report(tmp_path, "report", report)
    assert dist.support.size > 2  # more than one block
    assert sum(formatted) == dist.support.size + dist.weights.size
    report_text = json_tokens((tmp_path / "report.json").read_text())["results"]["quasi"]
    assert report_text["support"] == json_tokens((tmp_path / "quasi.json").read_text())["support"]


# ---------------------------------------------------------------------------
# spectral terms printed from the folded terms


def reference_unfold(terms):
    """Rows ``(i, j, k)`` in ``k, i, j`` order; a term with ``i < j`` adds the
    conjugate ``(j, i)`` row. The numeric unfold that ``write_spectral_terms``
    does by text."""
    d, mirror = terms.eps0.size, terms.i != terms.j
    i, j, k = (np.concatenate((a, b[mirror])) for a, b in ((terms.i, terms.j), (terms.j, terms.i), (terms.k, terms.k)))
    slot = np.full(d**3, -1)  # slot (k, i, j) of the d^3 cube holds the row that fills it
    slot[(k * d + i) * d + j] = np.arange(k.size)
    rows = slot[slot >= 0]
    w = np.concatenate((terms.pair_weight, terms.pair_weight[mirror].conj()))[rows]
    u = np.concatenate((terms.support, terms.support[mirror]))[rows]
    return {"i": i[rows], "j": j[rows], "k": k[rows], "support": u, "weight_re": w.real, "weight_im": w.imag}


def pruned_mixture_terms(seed):
    """A d=5 mixture of two states in the span of H(0) levels 0, 2 and 3:
    every pair with level 1 or 4 is pruned."""
    rng = np.random.default_rng(seed)
    drive = discretize(random_ramp_protocol(5, 1.0, rng), 12)
    levels = drive.boundary_eigensystems[1][:, [0, 2, 3]]
    psi = levels @ (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    psi /= np.linalg.norm(psi, axis=0)
    rho = 0.6 * np.outer(psi[:, 0], psi[:, 0].conj()) + 0.4 * np.outer(psi[:, 1], psi[:, 1].conj())
    terms = spectral_decomposition(DensityOperator(rho), drive)
    assert not np.isin(np.concatenate((terms.i, terms.j)), [1, 4]).any()
    return terms


def superposition_terms(dim, seed, steps=16):
    scenario = random_tmp_compare(dim, seed).with_overrides({"drive.steps": steps})
    drive = build_discretized_drive(scenario)
    rho = build_initial_state(scenario.config["initial_state"], drive.boundary_eigensystems[:2])
    return spectral_decomposition(rho, drive)


def cyclic_terms():
    drive, rho = cyclic_fixture(np.pi / 3, np.pi / 4)
    return spectral_decomposition(rho, drive)


def signed_zero_terms(seed):
    """Superposition terms whose imaginary weights are 0.0 and -0.0 in turn."""
    terms = superposition_terms(4, seed)
    weight = terms.pair_weight.copy()
    weight.imag = np.where(np.arange(len(terms)) % 2, -0.0, 0.0)
    assert np.signbit(weight.imag).any() and not np.signbit(weight.imag).all()
    return dataclasses.replace(terms, pair_weight=weight)


SPECTRAL_CASES = {
    **{f"superposition-d{dim}-{seed}": (superposition_terms, dim, seed) for dim, seed in ((3, 1), (5, 2), (8, 3))},
    "pruned-mixture": (pruned_mixture_terms, 7),
    "degenerate-cyclic": (cyclic_terms,),
    "signed-zero-imag": (signed_zero_terms, 9),
}


@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_spectral_terms_print_the_reference_unfold(tmp_path, case):
    make, *args = SPECTRAL_CASES[case]
    terms = make(*args)
    reference = {name: [_fmt(x) for x in values] for name, values in reference_unfold(terms).items()}
    assert len(reference["i"]) == 2 * len(terms) - np.count_nonzero(terms.i == terms.j)
    write_spectral_terms(tmp_path, "terms", terms, CONFIG, ("csv", "json"))
    _, columns, rows = parse_csv(tmp_path / "terms.csv")
    assert columns == list(reference)
    assert dict(zip(columns, map(list, zip(*rows)))) == reference
    payload = json_tokens((tmp_path / "terms.json").read_text())
    assert {name: payload[name] for name in reference} == reference


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324, 1.5, np.inf, -np.inf, np.nan])
def test_flip_sign_is_repr_of_the_negation(x):
    assert _flip_sign(repr(x)) == repr(-x)


def test_spectral_terms_write_memory_is_bounded(tmp_path):
    # d = 32, 64 steps: the folded texts and one JSON column peak near 8 MiB;
    # unfolding the d^3 terms before formatting each cell peaked at 19.2 MiB
    import tracemalloc

    terms = superposition_terms(32, 13, steps=64)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        write_spectral_terms(tmp_path, "terms", terms, CONFIG, ("csv", "json"))
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20
