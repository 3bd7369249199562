"""Scenario execution: compute results and write artifact files.

Each scenario kind produces a report dict (written as ``report.json``) plus
raw artifacts (characteristic samples, distributions, ledgers) that every
number in the report can be recomputed from. Passing ``out_dir=None`` skips
file writing, which is how sweep rows are evaluated.
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

__all__ = ["RunResult", "run_scenario", "sweep_scenario", "headline_row", "HEADLINE_COLUMNS"]

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
    report: dict
    files: list[Path] = field(default_factory=list)


def _fd_first_moments(rho0, drive, terms, orders=(1, 2)):
    """Finite-difference moments on a dedicated stencil grid."""
    h = fcs.default_fd_step(terms.support)
    grid = fcs.fd_stencil_grid(h, order=max(orders), richardson=True)
    samples = fcs.characteristic_function(rho0, drive, grid)
    return {n: fcs.moment_fd(samples, n, h=h, richardson=True) for n in orders}


def _energy_balance_first_moment(rho0, drive) -> float:
    """Independent first moment: final minus initial energy expectation."""
    u = drive.propagator.matrix
    rho_t = u @ rho0.matrix @ u.conj().T
    return float(
        (np.trace(mat(drive.h_end) @ rho_t) - np.trace(mat(drive.h_start) @ rho0.matrix)).real
    )


def _check(name, value, tol):
    return {"name": name, "value": float(value), "tolerance": float(tol), "pass": bool(abs(value) <= tol)}


def _spectral_statistics(rho0, drive, grid) -> tuple[dict, dict]:
    """``G`` on the grid, and the moments, split and bins of the spectral expansion."""
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
    return results, {"samples": samples, "quasi": dist, "terms": terms, "rho0": rho0, "drive": drive}


def _run_closed(scenario: Scenario, compare_tmp: bool) -> tuple[dict, dict]:
    cfg = scenario.config
    drive = build_discretized_drive(scenario)
    rho0 = build_initial_state(cfg["initial_state"], drive.h_start)
    grid = build_grid(scenario)
    results, artifacts = _spectral_statistics(rho0, drive, grid)
    dist = artifacts["quasi"]
    fd = _fd_first_moments(rho0, drive, artifacts["terms"])
    results["n_steps"] = drive.n_steps
    results["fd_moments"] = {str(n): v for n, v in fd.items()}
    results["first_moment_energy_balance"] = _energy_balance_first_moment(rho0, drive)
    if compare_tmp:
        outcomes = tmp.tmp_distribution(rho0, drive)
        tmp_samples = tmp.tmp_characteristic(outcomes, grid)
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
            "average": tmp.tmp_average(outcomes),
            "moments": {str(n): tmp.tmp_moment(outcomes, n) for n in (1, 2, 3, 4)},
            "support": tmp_support,
            "weights": tmp_weights,
        }
        results["comparison"] = {
            "max_support_distance": float(np.max(np.abs(dist.support[idx] - tmp_support))),
            "max_weight_difference": float(np.max(np.abs(dist.weights[idx] - tmp_weights))),
            "first_moment_difference": results["moments"]["1"] - tmp.tmp_average(outcomes),
        }
        artifacts["tmp_outcomes"] = outcomes
        artifacts["tmp_samples"] = tmp_samples
    return results, artifacts


def _cyclic_average_from_unitary(alpha: float, xi: float, gap: float) -> float:
    """Brute-force two-measurement average from the printed period unitary."""
    u = cyclic_qubit_unitary(alpha, xi).matrix
    w = np.abs(u) ** 2
    eps = np.array([-0.5 * gap, +0.5 * gap])
    populations = np.array([np.cos(alpha) ** 2, np.sin(alpha) ** 2])
    return float(sum(populations[i] * w[k, i] * (eps[k] - eps[i]) for i in range(2) for k in range(2)))


def _run_cyclic(scenario: Scenario) -> tuple[dict, dict]:
    cfg = scenario.config
    cyc = cfg["cyclic"]
    alpha, xi, gap = cyc["alpha"], cyc["xi"], cyc["gap"]
    drive = build_discretized_drive(scenario)
    rho0 = build_initial_state(
        {"kind": "superposition", "amplitudes": [np.cos(alpha), np.sin(alpha)], "phases": None},
        drive.h_start,
    )
    results, artifacts = _spectral_statistics(rho0, drive, build_grid(scenario))
    outcomes = tmp.tmp_distribution(rho0, drive)
    oracle = _cyclic_average_from_unitary(alpha, xi, gap)
    closed_form = gap * np.cos(2 * alpha) * np.sin(2 * alpha) ** 2 * np.sin(xi) ** 2
    printed_form = gap * np.cos(2 * alpha) * np.sin(2 * alpha) ** 2 * np.sin(2 * xi) ** 2
    results.update(
        {
            "alpha": alpha,
            "xi": xi,
            "gap": gap,
            "physical_realization": cyc["physical"],
            "fcs_first_moment": results["moments"]["1"],
            "tmp_average": tmp.tmp_average(outcomes),
            "oracle_average": oracle,
            "closed_form_sin_xi_sq": float(closed_form),
            "printed_form_sin_2xi_sq": float(printed_form),
            "oracle_vs_closed_form": float(abs(oracle - closed_form)),
            "oracle_vs_printed_form": float(abs(oracle - printed_form)),
        }
    )
    artifacts["tmp_outcomes"] = outcomes
    return results, artifacts


def _run_open(scenario: Scenario) -> tuple[dict, dict]:
    cfg = scenario.config
    model, rho_s, rho_e = build_composite(scenario)
    n_steps = cfg["drive"]["steps"]
    grid = build_grid(scenario)
    composite = model.discretize(n_steps)
    ledger, increments = composite.trajectory(
        rho_s, rho_e, refresh_every=cfg["environment"]["refresh_every"]
    )
    samples = composite.characteristic_function(rho_s, rho_e, grid)
    scale = max(max_abs(composite.drive.h_start), max_abs(composite.drive.h_end), 1e-6)
    h = 1e-3 / scale
    fd_grid = fcs.fd_stencil_grid(h, order=1, richardson=True)
    fd_samples = composite.characteristic_function(rho_s, rho_e, fd_grid)
    fd_work = fcs.moment_fd(fd_samples, 1, h=h, richardson=True)
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
        "fd_vs_ledger_work": float(abs(fd_work - ledger.work)),
    }
    if cfg["duality"]:
        results["duality_deviation"] = composite.duality_deviation(rho_s, rho_e, grid)
    artifacts = {"ledger": ledger, "samples": samples}
    return results, artifacts


def _run_fast_decoherence(scenario: Scenario) -> tuple[dict, dict]:
    cfg = scenario.config
    protocol = build_protocol(cfg["drive"], cfg["seed"])
    temperature = cfg["temperature"]
    n_steps = cfg["drive"]["steps"]
    ledger = open_system.fast_decoherence_run(protocol, temperature, n_steps)
    q = ledger.heat_increments
    ds = ledger.entropy_increments
    rel = np.abs(q - temperature * ds) / np.maximum(np.abs(q), 1e-12)
    results = {
        "n_steps": n_steps,
        "temperature": temperature,
        "work": ledger.work,
        "heat": ledger.heat,
        "internal_energy_change": ledger.internal_energy_change,
        "entropy_change": float(ds.sum()),
        "max_entropy_heat_mismatch": float(rel.max()),
    }
    return results, {"ledger": ledger}


def _run_paths_check(scenario: Scenario) -> tuple[dict, dict]:
    cfg = scenario.config
    protocol = build_protocol(cfg["drive"], cfg["seed"])
    lam = cfg["counting_field"]
    base_steps = cfg["drive"]["steps"]
    drive = discretize(protocol, base_steps)
    d = drive.dim
    u = drive.propagator.matrix
    basis = np.eye(d, dtype=complex)
    residual = 0.0
    ensemble_for_dump = None
    for col in range(d):
        for row in range(d):
            ensemble = paths.enumerate_paths(drive, basis[:, col], basis[:, row])
            if ensemble_for_dump is None:
                ensemble_for_dump = ensemble
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
    return results, {"paths": ensemble_for_dump}


def _checks_for(kind: str, results: dict) -> list[dict]:
    checks = []
    if kind in ("closed", "tmp-compare", "cyclic-example"):
        m1 = results["moments"]["1"] if "moments" in results else results["fcs_first_moment"]
        if "first_moment_energy_balance" in results:
            checks.append(
                _check("first_moment_identity", m1 - results["first_moment_energy_balance"], 1e-10)
            )
        if "fd_moments" in results:
            checks.append(
                _check(
                    "fd_vs_spectral_first_moment",
                    (results["fd_moments"]["1"] - results["moments"]["1"])
                    / max(abs(results["moments"]["1"]), 1e-9),
                    1e-6,
                )
            )
    if kind == "cyclic-example":
        checks.append(_check("fcs_first_moment_zero", results["fcs_first_moment"], 1e-10))
        checks.append(_check("tmp_matches_oracle", results["tmp_average"] - results["oracle_average"], 1e-12))
    if kind == "open":
        ledger = results["ledger"]
        checks.append(
            _check(
                "ledger_identity",
                ledger["work"] - (ledger["internal_energy_change"] - ledger["heat"]),
                1e-10,
            )
        )
        checks.append(_check("increment_regrouping", results["work_via_increments"] - ledger["work"], 1e-10))
        checks.append(_check("fd_vs_ledger_work", results["fd_vs_ledger_work"], 1e-7))
    if kind == "fast-decoherence":
        checks.append(_check("entropy_heat_relation", results["max_entropy_heat_mismatch"], 1e-3))
    if kind == "paths-check":
        checks.append(_check("path_sum_residual", results["max_matrix_element_residual"], 1e-10))
    return checks


def run_scenario(
    scenario: Scenario,
    out_dir: Path | None = None,
    formats: Sequence[str] = ("csv", "json"),
    tol_report: bool = False,
) -> RunResult:
    """Execute one scenario; write artifacts when ``out_dir`` is given."""
    kind = scenario.kind
    if kind in ("closed", "tmp-compare"):
        results, artifacts = _run_closed(scenario, compare_tmp=(kind == "tmp-compare"))
    elif kind == "cyclic-example":
        results, artifacts = _run_cyclic(scenario)
    elif kind == "open":
        results, artifacts = _run_open(scenario)
    elif kind == "fast-decoherence":
        results, artifacts = _run_fast_decoherence(scenario)
    elif kind == "paths-check":
        results, artifacts = _run_paths_check(scenario)
    else:  # pragma: no cover - scenario validation guards this
        raise ValueError(f"unhandled scenario kind {kind}")
    report = {"kind": kind, "scenario": scenario.config, "results": results}
    if tol_report:
        report["checks"] = _checks_for(kind, results)
    files: list[Path] = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        cfg = scenario.config
        if "samples" in artifacts:
            files += serialize.write_characteristic(
                out_dir, "characteristic", artifacts["samples"], cfg, formats
            )
        if "tmp_samples" in artifacts:
            files += serialize.write_characteristic(
                out_dir, "tmp_characteristic", artifacts["tmp_samples"], cfg, formats, protocol="tmp"
            )
        if "quasi" in artifacts:
            files += serialize.write_quasi_distribution(
                out_dir, "quasi_distribution", artifacts["quasi"], cfg, formats
            )
        if "terms" in artifacts:
            files += serialize.write_spectral_terms(
                out_dir, "spectral_terms", artifacts["terms"], cfg, formats
            )
        if "tmp_outcomes" in artifacts:
            files += serialize.write_tmp_distribution(
                out_dir, "tmp_distribution", artifacts["tmp_outcomes"], cfg, formats
            )
        if "ledger" in artifacts:
            files += serialize.write_ledger(out_dir, "ledger", artifacts["ledger"], cfg, formats)
        if kind == "paths-check" and scenario.config.get("dump_paths"):
            files.append(serialize.write_paths_csv(out_dir, "path_records", artifacts["paths"], cfg))
        files.append(serialize.write_report(out_dir, "report", report))
    return RunResult(report=report, files=files)


def headline_row(report: dict) -> dict:
    """Stable headline columns for sweep tables."""
    results = report["results"]
    row = dict.fromkeys(HEADLINE_COLUMNS)
    if "moments" in results:
        row["moment1"] = results["moments"]["1"]
        row["moment2"] = results["moments"]["2"]
    elif "fcs_first_moment" in results:
        row["moment1"] = results["fcs_first_moment"]
    if "quasi" in results:
        row["min_quasi_weight"] = results["quasi"]["min_weight"]
    if "ledger" in results:
        row["heat"] = results["ledger"]["heat"]
        row["work"] = results["ledger"]["work"]
    elif "heat" in results:
        row["heat"] = results["heat"]
        row["work"] = results["work"]
    if report["kind"] == "cyclic-example":
        row["tmp_average"] = results["tmp_average"]
    if "duality_deviation" in results:
        row["duality_deviation"] = results["duality_deviation"]
    return row


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
        varied = scenario.with_override(parameter, value)
        report = run_scenario(varied, out_dir=None).report
        row = {"value": value}
        row.update(headline_row(report))
        rows.append(row)
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
