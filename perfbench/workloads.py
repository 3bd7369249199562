"""Workloads: ops built fresh from (seed, pass), and the correctness gate.

Each workload is a closed loop: one client issues its ops in order, each op
only after the previous one finished. Every pass builds its inputs anew from
the pair ``(seed, pass)``. Only draws that leave an op's cost unchanged vary
between passes: initial states, and random drives at fixed dimension and
step count. The Rabi drives of ``qubit-auto`` stay fixed, because the
automatic step count scales with them.

``build_ops`` returns :class:`Op` objects; ``Op.run`` is the timed call into
the library and ``Op.check`` is the gate for its output (a list of failure
messages, empty when the output is correct). The gate uses references
computed here with plain NumPy where the library could get a number wrong
without breaking its own tolerance checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Library entry points are looked up on their modules at call time, so the
# tracer's rebinding sees the benchmark's own calls too.
from qworkstats import cli, runner
from qworkstats.scenario import Scenario, build_protocol

WORKLOADS = ("qubit-auto", "dense-spectral", "open-duality", "cli-artifacts")

# Self-convergence tolerance that ``steps: auto`` asks of the evolution operator.
AUTO_TOL = 1e-6
# Midpoint (second-order) steps of the fixed-step qubit reference; its own
# error is about 1e-9 here, far below AUTO_TOL.
REFERENCE_STEPS = 4096
# Window for first-order halving ratios, as pinned in tests/test_acceptance.py.
HALVING_WINDOW = (1.5, 2.5)
DUALITY_COUPLINGS = (0.1, 0.05, 0.025)
CYCLIC_SWEEP_POINTS = 17

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


# ---------------------------------------------------------------------------
# independent references


def _fixed_phase_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs with the documented convention: largest component real positive."""
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    for col in range(v.shape[1]):
        pivot = v[int(np.argmax(np.abs(v[:, col]))), col]
        v[:, col] *= np.conj(pivot) / abs(pivot)
    return w, v


def _superposition(h0: np.ndarray, amplitudes, phases) -> np.ndarray:
    _, v = _fixed_phase_eigh(h0)
    psi = v @ (np.asarray(amplitudes) * np.exp(1j * np.asarray(phases)))
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _step_product(hams: np.ndarray, dt: float) -> np.ndarray:
    """``exp(-i dt H_{N-1}) ... exp(-i dt H_0)`` for a stack of step Hamiltonians."""
    w, v = np.linalg.eigh(hams)
    factors = (v * np.exp(-1j * dt * w)[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    u = np.eye(hams.shape[-1], dtype=complex)
    for f in factors:
        u = f @ u
    return u


def _rabi(params: dict, t) -> np.ndarray:
    """``s sz + a (cos(f t) sx + sin(f t) sy)`` for an array of times."""
    t = np.asarray(t, dtype=float)[..., None, None]
    f = params["frequency"]
    return params["splitting"] * SIGMA_Z + params["amplitude"] * (
        np.cos(f * t) * SIGMA_X + np.sin(f * t) * SIGMA_Y
    )


def _spectral_moments(rho, u, h0, h1, orders=(1, 2, 3, 4)):
    """Moments ``sum_ijk rho_ij M_ki M*_kj u_ijk^n`` and the support radius."""
    e0, v0 = _fixed_phase_eigh(h0)
    e1, v1 = _fixed_phase_eigh(h1)
    m = v1.conj().T @ u @ v0
    r = v0.conj().T @ rho @ v0
    weights = r[None, :, :] * m[:, :, None] * m.conj()[:, None, :]
    support = e1[:, None, None] - 0.5 * (e0[None, :, None] + e0[None, None, :])
    moments = {n: float(np.sum(weights * support**n).real) for n in orders}
    return moments, float(np.max(np.abs(support)))


def rabi_reference_moments(config: dict) -> tuple[dict, float]:
    """Moments of the Rabi run from a fine fixed-step midpoint product."""
    drive = config["drive"]
    params, duration = drive["params"], drive["duration"]
    dt = duration / REFERENCE_STEPS
    u = _step_product(_rabi(params, (np.arange(REFERENCE_STEPS) + 0.5) * dt), dt)
    h0, h1 = _rabi(params, 0.0), _rabi(params, duration)
    state = config["initial_state"]
    rho = _superposition(h0, state["amplitudes"], state["phases"])
    return _spectral_moments(rho, u, h0, h1)


def mixture_tmp_average(config: dict) -> float:
    """Two-measurement average for a mixture, from an independent step product."""
    drive = config["drive"]
    protocol = build_protocol(drive, config["seed"])
    n = drive["steps"]
    dt = protocol.duration / n
    hams = np.stack([protocol(k * dt).matrix for k in range(n)])
    u = _step_product(hams, dt)
    e0, v0 = _fixed_phase_eigh(protocol(0.0).matrix)
    e1, v1 = _fixed_phase_eigh(protocol(protocol.duration).matrix)
    pops = np.asarray(config["initial_state"]["populations"])
    pops = pops / pops.sum()
    transition = np.abs(v1.conj().T @ u @ v0) ** 2  # [k, i]
    return float(np.sum(pops[None, :] * transition * (e1[:, None] - e0[None, :])))


def paths_check_reference(seed: int) -> dict[str, float]:
    """Deviation of the weighted path sum from the two-kick form, per step count.

    With the boundary weight profile only gridpoints 0 and N-1 carry weight,
    so the counting-weighted sum over all paths is, in closed form,
    ``<psi1| S_{N-1} e^{i lam H_{N-1}} S_{N-2} ... S_0 e^{-i lam H_0} |psi0>``
    with ``S_k = exp(-i dt H_k)`` and ``H_k`` sampled at left endpoints; the
    two-kick form is ``<psi1| e^{i lam H(T)} U e^{-i lam H(0)} |psi0>``. The
    states are the scenario's seeded draws (real then imaginary parts, psi0
    first).
    """
    config = Scenario.from_kind("paths-check").with_overrides({"seed": seed}).config
    protocol = build_protocol(config["drive"], seed)
    lam = config["counting_field"]
    d = protocol(0.0).matrix.shape[0]
    rng = np.random.default_rng(seed)
    psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi0 /= np.linalg.norm(psi0)
    psi1 = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi1 /= np.linalg.norm(psi1)

    def kick(h: np.ndarray, angle: float) -> np.ndarray:
        w, v = np.linalg.eigh(h)
        return (v * np.exp(1j * angle * w)) @ v.conj().T

    deviations = {}
    n = config["drive"]["steps"]
    for _ in range(config["doublings"] + 1):
        dt = protocol.duration / n
        hams = [protocol(k * dt).matrix for k in range(n)]
        state = kick(hams[0], -lam) @ psi0
        for k, h in enumerate(hams):
            if k == n - 1:
                state = kick(h, lam) @ state
            state = kick(h, -dt) @ state
        two_kick = kick(protocol(protocol.duration).matrix, lam) @ _step_product(np.stack(hams), dt)
        two_kick = two_kick @ kick(hams[0], -lam)
        deviations[str(n)] = abs(np.vdot(psi1, state) - np.vdot(psi1, two_kick @ psi0))
        n *= 2
    return deviations


# ---------------------------------------------------------------------------
# gate pieces


def _close(value: float, expected: float, tol: float, what: str) -> list[str]:
    if not math.isfinite(value) or abs(value - expected) > tol:
        return [f"{what}: {value!r} vs {expected!r} (tol {tol:.1e})"]
    return []


def _report_checks(report: dict) -> list[str]:
    checks = report.get("checks")
    if not checks:
        return ["report has no tolerance checks"]
    return [f"check {c['name']} failed: {c['value']:.3e}" for c in checks if not c["pass"]]


def _weights_sum(results: dict) -> list[str]:
    fails = _close(float(np.sum(results["quasi"]["weights"])), 1.0, 1e-10, "quasi weights sum")
    if "tmp" in results:
        fails += _close(float(np.sum(results["tmp"]["weights"])), 1.0, 1e-10, "TMP weights sum")
    return fails


def _ledger_identity(work: float, du: float, heat: float) -> list[str]:
    return _close(work, du - heat, 1e-10, "ledger W = dU - Q")


def _ratios_in_window(ratios, what: str) -> list[str]:
    lo, hi = HALVING_WINDOW
    if not ratios or not all(lo <= r <= hi for r in ratios):
        return [f"{what}: halving ratios {ratios} outside [{lo}, {hi}]"]
    return []


def check_closed(result, reference=None) -> list[str]:
    """Gate for an API ``closed``/``tmp-compare`` run."""
    report = result.report
    results = report["results"]
    fails = _report_checks(report) + _weights_sum(results)
    scale = max(1.0, float(np.max(np.abs(results["quasi"]["support"]))))
    if "tmp" in results:
        fails += _close(
            results["classical_part"], results["tmp"]["average"], 1e-10 * scale,
            "classical part vs TMP average",
        )
    if reference is not None:
        moments, radius = reference
        for n, value in moments.items():
            tol = 2.0 * AUTO_TOL * max(1.0, radius) ** n
            fails += _close(results["moments"][str(n)], value, tol, f"moment {n} vs fixed-step reference")
    return fails


def check_mixture(result, tmp_average: float) -> list[str]:
    results = result.report["results"]
    fails = check_closed(result)
    scale = max(1.0, float(np.max(np.abs(results["quasi"]["support"]))))
    fails += _close(results["classical_part"], tmp_average, 1e-9 * scale, "mixture classical part vs TMP")
    fails += _close(results["moments"]["1"], tmp_average, 1e-9 * scale, "mixture first moment vs TMP")
    if results["quasi"]["min_weight"] < -1e-12:
        fails.append(f"mixture has negative quasi-weight {results['quasi']['min_weight']:.3e}")
    return fails


def check_open(result) -> list[str]:
    report = result.report
    ledger = report["results"]["ledger"]
    return _report_checks(report) + _ledger_identity(
        ledger["work"], ledger["internal_energy_change"], ledger["heat"]
    )


def check_duality_sweep(result) -> list[str]:
    rows = result.report["rows"]
    if [row["value"] for row in rows] != list(DUALITY_COUPLINGS):
        return ["duality sweep rows do not match the couplings"]
    devs = [row["duality_deviation"] for row in rows]
    return _ratios_in_window([devs[n] / devs[n + 1] for n in range(len(devs) - 1)], "duality deviation")


@dataclass
class CliResult:
    code: int
    stdout: str
    out_dir: Path

    @property
    def files(self) -> list[Path]:
        return [Path(line[6:]) for line in self.stdout.splitlines() if line.startswith("wrote ")]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def check_cli(result: CliResult, expect_report: bool = True) -> list[str]:
    """Exit 0, every reported file present and non-empty, report checks pass,
    moments recomputable from the written spectral terms."""
    if result.code != 0:
        return [f"exit code {result.code}"]
    files = result.files
    if not files:
        return ["no files reported"]
    fails = [f"missing or empty artifact {f}" for f in files if not f.is_file() or f.stat().st_size == 0]
    if fails or not expect_report:
        return fails
    report = _read_json(result.out_dir / "report.json")
    fails += _report_checks(report)
    results = report["results"]
    if "quasi" in results:
        fails += _weights_sum(results)
    terms_path = result.out_dir / "spectral_terms.json"
    if terms_path in files:
        terms = _read_json(terms_path)
        weights = np.array(terms["weight_re"]) + 1j * np.array(terms["weight_im"])
        support = np.array(terms["support"])
        moments = results["moments"]
        for n in (1, 2, 3, 4):
            tol = 1e-10 * float(np.sum(np.abs(weights) * np.abs(support) ** n)) + 1e-15
            fails += _close(
                float(np.sum(weights * support**n).real), moments[str(n)], tol,
                f"moment {n} recomputed from spectral_terms",
            )
    if "ledger" in results:
        ledger = results["ledger"]
        fails += _ledger_identity(ledger["work"], ledger["internal_energy_change"], ledger["heat"])
    elif "heat" in results:
        fails += _ledger_identity(results["work"], results["internal_energy_change"], results["heat"])
    return fails


def check_paths_check(result: CliResult, reference: dict[str, float]) -> list[str]:
    """``check_cli`` plus each weighted-vs-two-kick deviation and halving ratio
    against :func:`paths_check_reference`.

    The ratios are compared with the reference, not with the [1.5, 2.5]
    window: at 4, 8 and 16 steps about one seed in 200 is not yet in the
    first-order regime (ratios 3.19 and 1.50 at seed 1503031433, which reach
    1.98 by 512 steps).
    """
    fails = check_cli(result)
    if fails:
        return fails
    results = _read_json(result.out_dir / "report.json")["results"]
    deviations = results["weighted_vs_two_kick"]
    if sorted(deviations) != sorted(reference):
        return [f"path sum step counts {sorted(deviations)} vs {sorted(reference)}"]
    for steps, value in reference.items():
        fails += _close(deviations[steps], value, 1e-9 * value + 1e-13, f"path sum deviation at {steps} steps")
    ladder = sorted(reference, key=int)
    expected = [reference[a] / reference[b] for a, b in zip(ladder, ladder[1:])]
    ratios = results["halving_ratios"]
    if len(ratios) != len(expected):
        return fails + [f"path sum has {len(ratios)} halving ratios, expected {len(expected)}"]
    for ratio, value in zip(ratios, expected):
        fails += _close(ratio, value, 1e-8 * value, "path sum halving ratio")
    return fails


def check_cyclic_sweep(result: CliResult) -> list[str]:
    fails = check_cli(result, expect_report=False)
    if fails:
        return fails
    table = _read_json(result.out_dir / "sweep.json")
    if len(table["rows"]) != CYCLIC_SWEEP_POINTS:
        return [f"cyclic sweep has {len(table['rows'])} rows"]
    return [
        f"counting first moment {row['moment1']:.3e} at alpha {row['value']}"
        for row in table["rows"]
        if abs(row["moment1"]) > 1e-10
    ]


# ---------------------------------------------------------------------------
# input draws


def _rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index])


def _qubit_state(rng) -> dict:
    theta = rng.uniform(0.2, 0.5 * np.pi - 0.2)
    return {
        "initial_state.kind": "superposition",
        "initial_state.amplitudes": [float(np.cos(theta)), float(np.sin(theta))],
        "initial_state.phases": [0.0, float(rng.uniform(0.0, 2.0 * np.pi))],
    }


def _duality_state(rng) -> dict:
    """Real amplitudes only: for some relative phases (near 2 pi / 3) the O(g)
    term of the duality deviation nearly vanishes and O(g^2) terms move the
    halving ratio out of the window, so those states do not test the scaling."""
    theta = rng.uniform(0.4, 1.0)
    return {
        "initial_state.kind": "superposition",
        "initial_state.amplitudes": [float(np.cos(theta)), float(np.sin(theta))],
    }


def _random_drive(rng, dim: int, state: str) -> dict:
    """Seeded random ramp at fixed ``dim`` and 64 steps, state away from zero."""
    overrides = {
        "seed": int(rng.integers(2**31)),
        "drive.protocol": "random",
        "drive.steps": 64,
        "drive.params.dim": dim,
    }
    values = [float(x) for x in rng.uniform(0.5, 1.5, dim)]
    if state == "mixture":
        overrides.update({"initial_state.kind": "mixture", "initial_state.populations": values})
    else:
        overrides.update(
            {
                "initial_state.kind": "superposition",
                "initial_state.amplitudes": values,
                "initial_state.phases": [float(x) for x in rng.uniform(0.0, 2.0 * np.pi, dim)],
            }
        )
    return overrides


def _api_op(name: str, scenario: Scenario, check) -> Op:
    return Op(name, lambda: runner.run_scenario(scenario, tol_report=True), check)


def _qubit_auto(rng, workdir) -> list[Op]:
    ops = []
    for name, kind, duration in (("closed-auto", "closed", 0.25), ("tmp-compare-auto", "tmp-compare", 0.3)):
        scenario = Scenario.from_kind(kind).with_overrides({"drive.duration": duration, **_qubit_state(rng)})
        ops.append(
            _api_op(name, scenario, lambda r, c=scenario.config: check_closed(r, rabi_reference_moments(c)))
        )
    return ops


def _dense_spectral(rng, workdir) -> list[Op]:
    ops = []
    for dim in (8, 32, 64):
        scenario = Scenario.from_kind("tmp-compare").with_overrides(
            _random_drive(rng, dim, "superposition")
        )
        ops.append(_api_op(f"tmp-compare-d{dim}", scenario, check_closed))
    mixture = Scenario.from_kind("closed").with_overrides(_random_drive(rng, 32, "mixture"))
    ops.append(
        Op(
            "closed-mixture-d32",
            lambda: runner.run_scenario(mixture, tol_report=True),
            lambda r: check_mixture(r, mixture_tmp_average(mixture.config)),
        )
    )
    return ops


def _open_duality(rng, workdir) -> list[Op]:
    ops = []
    for preset, extra in (
        ("qubit-exchange", {}),
        ("two-qubit-exchange", {}),
        ("oscillator", {"environment.levels": 8}),
    ):
        scenario = Scenario.from_kind("open").with_overrides(
            {"environment.preset": preset, **extra, **_qubit_state(rng)}
        )
        ops.append(_api_op(f"open-{preset}", scenario, check_open))
    sweep = Scenario.from_kind("open").with_overrides(
        {
            "drive.protocol": "constant",
            "drive.duration": 3.0,
            "drive.steps": 48,
            "environment.gap": 1.8,
            "environment.state": "coherent",
            "lambda_grid.max": 3.0,
            "lambda_grid.points": 21,
            "duality": True,
            **_duality_state(rng),
        }
    )
    ops.append(
        Op(
            "duality-sweep",
            lambda: runner.sweep_scenario(sweep, "environment.coupling", list(DUALITY_COUPLINGS)),
            check_duality_sweep,
        )
    )
    return ops


def _scenario_text(config: dict) -> str:
    """Render a resolved config in the scenario file grammar."""
    lines = []

    def emit(node: dict, indent: str) -> None:
        for key, value in node.items():
            if isinstance(value, dict):
                if value:
                    lines.append(f"{indent}{key}:")
                    emit(value, indent + "  ")
            elif value is None:
                continue
            elif isinstance(value, list):
                lines.append(f"{indent}{key}: {','.join(v if isinstance(v, str) else repr(v) for v in value)}")
            elif isinstance(value, bool):
                lines.append(f"{indent}{key}: {'true' if value else 'false'}")
            elif isinstance(value, str):
                if value:
                    lines.append(f"{indent}{key}: {value}")
            else:
                lines.append(f"{indent}{key}: {value!r}")

    emit(config, "")
    return "\n".join(lines) + "\n"


def _cli_op(name: str, argv: list[str], out_dir: Path, check) -> Op:
    def run() -> CliResult:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv + ["--out", str(out_dir), "--tol-report"])
        return CliResult(code, buffer.getvalue(), out_dir)

    return Op(name, run, check)


def _cli_artifacts(rng, workdir: Path) -> list[Op]:
    ops = []
    for dim in (8, 32):
        scenario = Scenario.from_kind("tmp-compare").with_overrides(
            _random_drive(rng, dim, "superposition")
        )
        path = workdir / f"tmp_compare_d{dim}.scn"
        path.write_text(_scenario_text(scenario.config))
        if Scenario.from_file(path) != scenario:
            raise RuntimeError(f"scenario file {path} does not round-trip")
        ops.append(_cli_op(f"cli-run-tmp-compare-d{dim}", ["run", str(path)], workdir / path.stem, check_cli))
    temperature = repr(float(rng.uniform(0.5, 2.0)))
    ops.append(
        _cli_op(
            "cli-run-fast-decoherence",
            ["run", "fast-decoherence", "--T", temperature],
            workdir / "fast_decoherence",
            check_cli,
        )
    )
    cyclic = ["--alpha", repr(float(rng.uniform(0.1, 1.4))), "--xi", repr(float(rng.uniform(0.3, 1.2)))]
    ops.append(_cli_op("cli-run-cyclic", ["run", "cyclic-example", *cyclic], workdir / "cyclic", check_cli))
    ops.append(
        _cli_op(
            "cli-run-cyclic-physical",
            ["run", "cyclic-example", *cyclic, "--physical"],
            workdir / "cyclic_physical",
            check_cli,
        )
    )
    paths_seed = int(rng.integers(2**31))
    ops.append(
        _cli_op(
            "cli-run-paths-check",
            ["run", "paths-check", "--seed", str(paths_seed)],
            workdir / "paths_check",
            lambda r: check_paths_check(r, paths_check_reference(paths_seed)),
        )
    )
    ops.append(
        _cli_op(
            "cli-sweep-cyclic",
            [
                "sweep", "cyclic-example", "--parameter", "cyclic.alpha",
                "--values-linspace", f"0:1.5707963:{CYCLIC_SWEEP_POINTS}",
                "--xi", repr(float(rng.uniform(0.3, 1.2))),
            ],
            workdir / "sweep_cyclic",
            check_cyclic_sweep,
        )
    )
    return ops


_BUILDERS = {
    "qubit-auto": _qubit_auto,
    "dense-spectral": _dense_spectral,
    "open-duality": _open_duality,
    "cli-artifacts": _cli_artifacts,
}


def build_ops(workload: str, seed: int, pass_index: int, workdir: Path) -> list[Op]:
    """Build and validate every scenario of one pass; ``workdir`` must exist."""
    return _BUILDERS[workload](_rng(seed, pass_index), Path(workdir))
