"""Scenario execution: compute results and write artifact files.

Each scenario kind has one runner that returns its results, its tolerance
checks, its raw artifacts (characteristic samples, distributions, ledgers)
keyed by file stem, that every number in the report can be recomputed from,
its stdout headline lines and its sweep-row values. The CLI prints the lines
as they come and a sweep takes the row as it comes; neither branches on the
kind. Passing ``out_dir=None`` skips file writing, which is how sweep rows are
evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fcs, open_system, paths, serialize, tmp
from .drive import cyclic_qubit_unitary, discretize
from .linalg import mat, max_abs
from .scenario import (
    Scenario,
    build_composite,
    build_discretized_drive,
    build_grid,
    build_initial_state,
    build_protocol,
)

__all__ = ["RunResult", "run_scenario", "sweep_scenario", "HEADLINE_COLUMNS"]

# Columns of every sweep table, empty where a kind has no value; a kind may add
# its own (``cyclic-example`` adds ``tmp_average``).
HEADLINE_COLUMNS = (
    "moment1",
    "moment2",
    "heat",
    "work",
    "min_quasi_weight",
    "duality_deviation",
)


@dataclass
class RunResult:
    """``report.json`` content, the files written, and for one run its stdout
    headline lines and its sweep-row values by column (a sweep leaves both empty)."""

    report: dict
    files: list[Path] = field(default_factory=list)
    headlines: list[str] = field(default_factory=list)
    row: dict = field(default_factory=dict)


# Orders of the finite-difference moments a closed run reports.
FD_ORDERS = (1, 2)

# What a kind runner returns: results, checks, artifacts by stem, headline lines, sweep row
_KindRun = tuple[dict, list, dict, list, dict]

# Artifact stem -> its writer's name in ``serialize`` and keyword arguments
# (``None``: CSV only, no formats), in file order. Writers are looked up by
# name at call time, so a wrapper bound on the module sees every write.
_WRITERS = {
    "characteristic": ("write_characteristic", {}),
    "tmp_characteristic": ("write_characteristic", {"protocol": "tmp"}),
    "quasi_distribution": ("write_quasi_distribution", {}),
    "spectral_terms": ("write_spectral_terms", {}),
    "tmp_distribution": ("write_tmp_distribution", {}),
    "ledger": ("write_ledger", {}),
    "path_records": ("write_paths_csv", None),
}


def _fd_first_moments(rho0, drive, terms):
    """Finite-difference moments on a dedicated stencil grid."""
    h = fcs.default_fd_step(terms.support)
    grid = fcs.fd_stencil_grid(h, order=max(FD_ORDERS), richardson=True)
    samples = fcs.characteristic_function(rho0, drive, grid)
    return {n: fcs.moment_fd(samples, n, h=h, richardson=True) for n in FD_ORDERS}


def _energy_balance_first_moment(rho0, drive) -> float:
    """Independent first moment: final minus initial energy expectation."""
    u = drive.propagator.matrix
    rho_t = u @ rho0.matrix @ u.conj().T
    return float(
        (np.trace(mat(drive.h_end) @ rho_t) - np.trace(mat(drive.h_start) @ rho0.matrix)).real
    )


def _check(name, value, tol):
    return {"name": name, "value": float(value), "tolerance": float(tol), "pass": bool(abs(value) <= tol)}


def _spectral_statistics(rho0, drive, grid) -> tuple[dict, dict, dict]:
    """Moments, split and bins of the spectral expansion; ``G`` and the terms and
    bins as artifacts; the first two moments and the least bin weight as sweep values."""
    terms = fcs.spectral_decomposition(rho0, drive)
    dist = fcs.quasi_distribution(terms)
    classical, coherent = fcs.coherent_classical_split(terms)
    results = {
        "moments": {str(n): fcs.moment(terms, n) for n in (1, 2, 3, 4)},
        "classical_part": classical,
        "coherent_part": coherent,
        "quasi": {"support": dist.support, "weights": dist.weights, "min_weight": dist.min_weight},
    }
    samples = fcs.characteristic_function(rho0, drive, grid)
    moments = results["moments"]
    row = {"moment1": moments["1"], "moment2": moments["2"], "min_quasi_weight": dist.min_weight}
    return results, {"characteristic": samples, "quasi_distribution": dist, "spectral_terms": terms}, row


def _run_closed(scenario: Scenario) -> _KindRun:
    """``closed`` and ``tmp-compare``; the latter adds the TMP comparison."""
    cfg = scenario.config
    drive = build_discretized_drive(scenario)
    rho0 = build_initial_state(cfg["initial_state"], drive.boundary_eigensystems[:2])
    grid = build_grid(scenario)
    results, artifacts, row = _spectral_statistics(rho0, drive, grid)
    m1 = row["moment1"]
    fd = _fd_first_moments(rho0, drive, artifacts["spectral_terms"])
    balance = _energy_balance_first_moment(rho0, drive)
    results["n_steps"] = drive.n_steps
    results["fd_moments"] = {str(n): v for n, v in fd.items()}
    results["first_moment_energy_balance"] = balance
    checks = [
        _check("first_moment_identity", m1 - balance, 1e-10),
        _check("fd_vs_spectral_first_moment", (fd[1] - m1) / max(abs(m1), 1e-9), 1e-6),
    ]
    lines = [
        f"first moment:         {m1: .6f}",
        f"second moment:        {row['moment2']: .6f}",
        f"min quasi weight:     {row['min_quasi_weight']: .6f}",
    ]
    if scenario.kind == "tmp-compare":
        dist = artifacts["quasi_distribution"]
        outcomes = tmp.tmp_distribution(rho0, drive)
        average = tmp.tmp_average(outcomes)
        tmp_support, tmp_weights = fcs.merge_support_points(
            outcomes.work,
            outcomes.probability,
            bin_tol=1e-9 * max(1.0, float(np.max(np.abs(outcomes.work)))),
        )
        # nearest quasi bin of each TMP bin (ascending supports; ties go low)
        u = dist.support
        hi = np.minimum(np.searchsorted(u, tmp_support), u.size - 1)
        lo = np.maximum(hi - 1, 0)
        idx = np.where(np.abs(tmp_support - u[lo]) <= np.abs(u[hi] - tmp_support), lo, hi)
        results["tmp"] = {
            "average": average,
            "moments": {str(n): tmp.tmp_moment(outcomes, n) for n in (1, 2, 3, 4)},
            "support": tmp_support,
            "weights": tmp_weights,
        }
        results["comparison"] = {
            "max_support_distance": float(np.max(np.abs(dist.support[idx] - tmp_support))),
            "max_weight_difference": float(np.max(np.abs(dist.weights[idx] - tmp_weights))),
            "first_moment_difference": m1 - average,
        }
        artifacts["tmp_characteristic"] = tmp.tmp_characteristic(outcomes, grid)
        artifacts["tmp_distribution"] = outcomes
        lines.append(f"TMP average:          {average: .6f}")
    return results, checks, artifacts, lines, row


def _cyclic_average_from_unitary(alpha: float, xi: float, gap: float) -> float:
    """Brute-force two-measurement average from the printed period unitary."""
    u = cyclic_qubit_unitary(alpha, xi).matrix
    w = np.abs(u) ** 2
    eps = np.array([-0.5 * gap, +0.5 * gap])
    populations = np.array([np.cos(alpha) ** 2, np.sin(alpha) ** 2])
    return float(sum(populations[i] * w[k, i] * (eps[k] - eps[i]) for i in range(2) for k in range(2)))


def _run_cyclic(scenario: Scenario) -> _KindRun:
    cfg = scenario.config
    cyc = cfg["cyclic"]
    alpha, xi, gap = cyc["alpha"], cyc["xi"], cyc["gap"]
    drive = build_discretized_drive(scenario)
    rho0 = build_initial_state(
        {"kind": "superposition", "amplitudes": [np.cos(alpha), np.sin(alpha)], "phases": None},
        drive.boundary_eigensystems[:2],
    )
    results, artifacts, row = _spectral_statistics(rho0, drive, build_grid(scenario))
    m1 = row["moment1"]
    outcomes = tmp.tmp_distribution(rho0, drive)
    average = tmp.tmp_average(outcomes)
    oracle = _cyclic_average_from_unitary(alpha, xi, gap)
    closed_form = gap * np.cos(2 * alpha) * np.sin(2 * alpha) ** 2 * np.sin(xi) ** 2
    printed_form = gap * np.cos(2 * alpha) * np.sin(2 * alpha) ** 2 * np.sin(2 * xi) ** 2
    results.update(
        {
            "alpha": alpha,
            "xi": xi,
            "gap": gap,
            "physical_realization": cyc["physical"],
            "fcs_first_moment": m1,
            "tmp_average": average,
            "oracle_average": oracle,
            "closed_form_sin_xi_sq": float(closed_form),
            "printed_form_sin_2xi_sq": float(printed_form),
            "oracle_vs_closed_form": float(abs(oracle - closed_form)),
            "oracle_vs_printed_form": float(abs(oracle - printed_form)),
        }
    )
    checks = [
        _check("fcs_first_moment_zero", m1, 1e-10),
        _check("tmp_matches_oracle", average - oracle, 1e-12),
    ]
    artifacts["tmp_distribution"] = outcomes
    lines = [
        f"FCS first moment:     {m1: .3e}",
        f"TMP average:          {average: .6f}",
        f"oracle average:       {oracle: .6f}",
        f"min quasi weight:     {row['min_quasi_weight']: .6f}",
    ]
    if results["oracle_vs_printed_form"] > 1e-9 >= results["oracle_vs_closed_form"]:
        lines.append(
            "note: oracle matches the sin^2(xi) closed form; the sin^2(2 xi) "
            f"variant differs by {results['oracle_vs_printed_form']:.3e}"
        )
    return results, checks, artifacts, lines, {**row, "tmp_average": average}


def _run_open(scenario: Scenario) -> _KindRun:
    cfg = scenario.config
    composite, rho_s, rho_e = build_composite(scenario)
    n_steps = cfg["drive"]["steps"]
    grid = build_grid(scenario)
    ledger, increments = composite.trajectory(
        rho_s, rho_e, refresh_every=cfg["environment"]["refresh_every"]
    )
    samples = composite.characteristic_function(rho_s, rho_e, grid)
    scale = max(max_abs(composite.drive.h_start), max_abs(composite.drive.h_end), 1e-6)
    h = 1e-3 / scale
    fd_grid = fcs.fd_stencil_grid(h, order=1, richardson=True)
    fd_samples = composite.characteristic_function(rho_s, rho_e, fd_grid)
    fd_work = fcs.moment_fd(fd_samples, 1, h=h, richardson=True)
    fd_deviation = float(abs(fd_work - ledger.work))
    results = {
        "n_steps": n_steps,
        "coupling": cfg["environment"]["coupling"],
        "temperature": cfg["environment"]["temperature"],
        "ledger": {
            "work": ledger.work,
            "heat": ledger.heat,
            "internal_energy_change": ledger.internal_energy_change,
            "max_step_heat": float(np.max(np.abs(ledger.heat_increments))),
        },
        "work_via_increments": increments,
        "fd_first_moment": fd_work,
        "fd_vs_ledger_work": fd_deviation,
    }
    checks = [
        _check("ledger_identity", ledger.work - (ledger.internal_energy_change - ledger.heat), 1e-10),
        _check("increment_regrouping", increments - ledger.work, 1e-10),
        _check("fd_vs_ledger_work", fd_deviation, 1e-7),
    ]
    lines = [
        f"work W:               {ledger.work: .6f}",
        f"heat Q:               {ledger.heat: .6f}",
        f"energy change dU:     {ledger.internal_energy_change: .6f}",
        f"FD first moment:      {fd_work: .6f}",
    ]
    row = {"heat": ledger.heat, "work": ledger.work}
    if cfg["duality"]:
        deviation = composite.duality_deviation(rho_s, rho_e, grid)
        results["duality_deviation"] = row["duality_deviation"] = deviation
        lines.append(f"duality deviation:    {deviation: .3e}")
    return results, checks, {"characteristic": samples, "ledger": ledger}, lines, row


def _run_fast_decoherence(scenario: Scenario) -> _KindRun:
    cfg = scenario.config
    protocol = build_protocol(cfg["drive"], cfg["seed"])
    temperature = cfg["temperature"]
    n_steps = cfg["drive"]["steps"]
    ledger = open_system.fast_decoherence_run(protocol, temperature, n_steps)
    q = ledger.heat_increments
    ds = ledger.entropy_increments
    mismatch = float((np.abs(q - temperature * ds) / np.maximum(np.abs(q), 1e-12)).max())
    results = {
        "n_steps": n_steps,
        "temperature": temperature,
        "work": ledger.work,
        "heat": ledger.heat,
        "internal_energy_change": ledger.internal_energy_change,
        "entropy_change": float(ds.sum()),
        "max_entropy_heat_mismatch": mismatch,
    }
    lines = [
        f"work W:               {ledger.work: .6f}",
        f"heat Q:               {ledger.heat: .6f}",
        f"max |Q_k - T dS_k| (rel): {mismatch: .3e}",
    ]
    row = {"heat": ledger.heat, "work": ledger.work}
    return results, [_check("entropy_heat_relation", mismatch, 1e-3)], {"ledger": ledger}, lines, row


def _run_paths_check(scenario: Scenario) -> _KindRun:
    cfg = scenario.config
    protocol = build_protocol(cfg["drive"], cfg["seed"])
    lam = cfg["counting_field"]
    base_steps = cfg["drive"]["steps"]
    drive = discretize(protocol, base_steps)
    d = drive.dim
    u = drive.propagator.matrix
    basis = np.eye(d, dtype=complex)
    residual = 0.0
    artifacts = {}
    for col in range(d):
        for row in range(d):
            ensemble = paths.enumerate_paths(drive, basis[:, col], basis[:, row])
            if cfg["dump_paths"]:
                artifacts.setdefault("path_records", ensemble)
            residual = max(residual, abs(paths.path_sum(ensemble) - u[row, col]))
    rng = np.random.default_rng(cfg["seed"])
    psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi0 /= np.linalg.norm(psi0)
    psi1 = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi1 /= np.linalg.norm(psi1)
    # With the observable equal to the step Hamiltonian the combined
    # exponentials split exactly; report that residual, then run the O(dt)
    # convergence against the boundary-kick (two-kick) form.
    ensemble = paths.enumerate_paths(drive, psi0, psi1)
    kicked = paths.kicked_product(drive, lam)
    commuting_residual = abs(
        paths.counting_weighted_sum(ensemble, lam) - complex(np.conj(psi1) @ kicked @ psi0)
    )
    deviations = {}
    steps = base_steps
    for _ in range(cfg["doublings"] + 1):
        fine = discretize(protocol, steps)
        ensemble = paths.enumerate_paths(fine, psi0, psi1)
        weighted = paths.counting_weighted_sum(ensemble, lam)
        two_kick = fcs.two_kick_propagator(fine, 2.0 * lam).matrix
        element = complex(np.conj(psi1) @ two_kick @ psi0)
        deviations[steps] = abs(weighted - element)
        steps *= 2
    step_list = sorted(deviations)
    ratios = [
        deviations[step_list[n]] / max(deviations[step_list[n + 1]], 1e-300)
        for n in range(len(step_list) - 1)
    ]
    results = {
        "n_steps": base_steps,
        "counting_field": lam,
        "path_count": d ** (base_steps + 1),
        "max_matrix_element_residual": residual,
        "commuting_kicked_residual": commuting_residual,
        "weighted_vs_two_kick": {str(k): v for k, v in deviations.items()},
        "halving_ratios": ratios,
    }
    lines = [
        f"paths:                {results['path_count']}",
        f"max element residual: {residual: .3e}",
        f"halving ratios:       {', '.join(f'{r:.2f}' for r in ratios)}",
    ]
    return results, [_check("path_sum_residual", residual, 1e-10)], artifacts, lines, {}


_RUNNERS = {
    "closed": _run_closed,
    "tmp-compare": _run_closed,
    "cyclic-example": _run_cyclic,
    "open": _run_open,
    "fast-decoherence": _run_fast_decoherence,
    "paths-check": _run_paths_check,
}


def run_scenario(
    scenario: Scenario,
    out_dir: Path | None = None,
    formats: Sequence[str] = ("csv", "json"),
    tol_report: bool = False,
) -> RunResult:
    """Execute one scenario; write artifacts when ``out_dir`` is given."""
    results, checks, artifacts, headlines, row = _RUNNERS[scenario.kind](scenario)
    report = {"kind": scenario.kind, "scenario": scenario.config, "results": results}
    if tol_report:
        report["checks"] = checks
    files: list[Path] = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        # report.json prints the quasi-distribution again: keep its text to the end
        with serialize.ArtifactText(keep=report):
            for stem, (writer, options) in _WRITERS.items():
                if stem in artifacts:
                    write = getattr(serialize, writer)
                    if options is None:
                        files += write(out_dir, stem, artifacts[stem], scenario.config)
                    else:
                        files += write(out_dir, stem, artifacts[stem], scenario.config, formats, **options)
            files.append(serialize.write_report(out_dir, "report", report))
    return RunResult(report=report, files=files, headlines=headlines, row=row)


def sweep_scenario(
    scenario: Scenario,
    parameter: str,
    values: Sequence,
    out_dir: Path | None = None,
    formats: Sequence[str] = ("csv", "json"),
) -> RunResult:
    """Run the scenario once per parameter value; rows are independent.

    ``parameter`` is a dotted path addressing a scalar scenario field.
    """
    rows = []
    for value in values:
        row = run_scenario(scenario.with_override(parameter, value), out_dir=None).row
        rows.append({"value": value, **dict.fromkeys(HEADLINE_COLUMNS), **row})
    columns = ["value"] + sorted({k for row in rows for k in row if k != "value"})
    table = {
        "kind": "sweep",
        "parameter": parameter,
        "scenario": scenario.config,
        "columns": columns,
        "rows": rows,
    }
    files: list[Path] = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        header = {"kind": "sweep", "parameter": parameter}
        header.update(serialize.flatten_config(scenario.config))
        csv_rows = [
            [("" if row.get(c) is None else row.get(c)) for c in columns] for row in rows
        ]
        if "csv" in formats:
            files.append(serialize.write_table(out_dir, "sweep", columns, csv_rows, header))
        if "json" in formats:
            files.append(serialize.write_report(out_dir, "sweep", table))
    return RunResult(report=table, files=files)
