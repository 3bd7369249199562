"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Ops of cli-artifacts that take well under a second each.
QUICK_CLI_OPS = {
    "cli-run-tmp-compare-d8",
    "cli-run-fast-decoherence",
    "cli-run-cyclic",
    "cli-run-cyclic-physical",
    "cli-sweep-cyclic",
}


def _op(workload, name, workdir, seed=3):
    return next(op for op in workloads.build_ops(workload, seed, 0, workdir) if op.name == name)


@pytest.fixture
def cli_d8(tmp_path):
    op = _op("cli-artifacts", "cli-run-tmp-compare-d8", tmp_path)
    return op, op.run()


def _edit_report(result, edit):
    path = result.out_dir / "report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_gate_accepts_clean_output(cli_d8):
    op, result = cli_d8
    assert op.check(result) == []


def test_gate_rejects_failed_check(cli_d8):
    op, result = cli_d8

    def fail(report):
        report["checks"][0]["pass"] = False

    _edit_report(result, fail)
    assert any("failed" in f for f in op.check(result))


def test_gate_rejects_missing_artifact(cli_d8):
    op, result = cli_d8
    (result.out_dir / "spectral_terms.json").unlink()
    assert any("missing" in f for f in op.check(result))


def test_gate_rejects_moment_off_by_1e_6(cli_d8):
    op, result = cli_d8

    def shift(report):
        report["results"]["moments"]["1"] += 1e-6

    _edit_report(result, shift)
    assert any("moment 1 recomputed" in f for f in op.check(result))


def test_gate_rejects_nonzero_exit(cli_d8):
    op, result = cli_d8
    result.code = 3
    assert op.check(result) == ["exit code 3"]


def test_paths_gate_checks_reference_not_window(tmp_path):
    """At this seed 4, 8 and 16 steps are not yet first order (ratio 3.19), yet
    the output is correct; a deviation off by one part in 1e6 is not."""
    seed = 1503031433
    op = workloads._cli_op(
        "paths",
        ["run", "paths-check", "--seed", str(seed)],
        tmp_path / "out",
        lambda r: workloads.check_paths_check(r, workloads.paths_check_reference(seed)),
    )
    result = op.run()
    assert op.check(result) == []

    def shift(report):
        report["results"]["weighted_vs_two_kick"]["16"] *= 1 + 1e-6

    _edit_report(result, shift)
    assert any("deviation at 16 steps" in f for f in op.check(result))


def test_api_gate_rejects_shifted_classical_part(tmp_path):
    op = _op("dense-spectral", "tmp-compare-d8", tmp_path)
    result = op.run()
    assert op.check(result) == []
    result.report["results"]["classical_part"] += 1e-6
    assert any("classical part" in f for f in op.check(result))


def test_qubit_reference_rejects_coarse_steps():
    """The fixed-step reference catches a step count far below what auto picks."""
    scenario = workloads.Scenario.from_kind("closed").with_overrides(
        {
            "drive.duration": 0.25,
            "drive.steps": 1024,
            "initial_state.kind": "superposition",
            "initial_state.amplitudes": [0.8, 0.6],
            "initial_state.phases": [0.0, 1.0],
        }
    )
    result = workloads.runner.run_scenario(scenario, tol_report=True)
    reference = workloads.rabi_reference_moments(scenario.config)
    assert any("fixed-step reference" in f for f in workloads.check_closed(result, reference))


def test_raising_op_counts_as_failed(tmp_path, monkeypatch):
    def boom():
        raise RuntimeError("broken")

    monkeypatch.setattr(
        workloads, "build_ops", lambda *args: [workloads.Op("boom", boom, lambda r: [])]
    )
    rows = run.run_pass(workloads, "qubit-auto", 0, 0, tmp_path)
    _, attempted, failed = run._report_ops(rows)
    assert (attempted, failed) == (1, 1)
    assert list(tmp_path.iterdir()) == []


def test_counts_repeat_exactly(tmp_path, monkeypatch):
    build = workloads.build_ops
    monkeypatch.setattr(
        workloads,
        "build_ops",
        lambda *args: [op for op in build(*args) if op.name in QUICK_CLI_OPS],
    )
    original = workloads.cli.run_scenario
    tracer = tracing.Tracer()
    passes = []
    for _ in range(2):
        tracer.install()
        tracer.reset()
        try:
            rows = run.run_pass(workloads, "cli-artifacts", 5, 0, tmp_path, tracer)
        finally:
            tracer.uninstall()
        assert all(not failures for *_, failures in rows)
        passes.append(tracer.metrics())
    counts = [{k: v for k, v in m.items() if not k.endswith(".self_s")} for m in passes]
    assert counts[0] == counts[1]
    assert counts[0]["fcs.spectral_terms"] >= 8**3
    assert counts[0]["serialize.files_written"] > 0
    assert counts[0]["cli.calls"] == len(QUICK_CLI_OPS)
    assert counts[0]["open_system.cache_builds"] == 0
    # calls made inside the library are seen: every closed run reuses its drive
    assert counts[0]["drive.evolution_operator.useful_ratio"] < 1.0
    assert workloads.cli.run_scenario is original


def test_setup_probe_runs_in_fresh_process(tmp_path):
    probe = run.setup_probe("qubit-auto", 1, tmp_path / "probe")
    assert probe["pid"] != os.getpid()
    assert probe["preloaded"] == []
    assert probe["cpu_s"] > 0
    assert probe["ops"] == 2
    assert not (tmp_path / "probe").exists()


def test_fails_without_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qubit-auto", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(tracing.Tracer().metrics()) | {"trace.cpu_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced
