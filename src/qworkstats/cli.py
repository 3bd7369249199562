"""Command-line front end.

Verbs:

* ``run SCENARIO``      - execute one scenario (a file path or a kind name)
* ``sweep SCENARIO``    - vary one scalar scenario field, emit a table
* ``validate FILE...``  - check scenario files without running them
* ``presets``           - list scenario kinds, drive protocols, environments

Exit codes: 0 success, 2 scenario validation failure, 3 numerical failure.
The default output directory is ``$QWORKSTATS_OUT`` or ``./qworkstats-out``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .linalg import NumericalError
from .runner import run_scenario, sweep_scenario
from .scenario import (
    DRIVE_PROTOCOLS,
    ENVIRONMENT_PRESETS,
    SCENARIO_KINDS,
    Scenario,
    ScenarioError,
    _parse_scalar,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

OUTPUT_ENV_VAR = "QWORKSTATS_OUT"


def _default_out() -> str:
    return os.environ.get(OUTPUT_ENV_VAR, "qworkstats-out")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--format", choices=("csv", "json", "both"), help="artifact formats (default: output.formats)"
    )
    parser.add_argument("--lambda-max", type=float, default=None, help="counting-field grid extent")
    parser.add_argument("--lambda-points", type=int, default=None, help="counting-field grid points (odd)")
    parser.add_argument("--steps", type=int, default=None, help="drive step count N")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized fixtures")
    parser.add_argument("--tol-report", action="store_true", help="include tolerance checks in the report")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any scenario field by dotted path (repeatable)",
    )
    # convenience flags for the worked examples
    parser.add_argument("--alpha", type=float, default=None, help="cyclic example: mixing angle (rad)")
    parser.add_argument("--xi", type=float, default=None, help="cyclic example: cyclic phase (rad)")
    parser.add_argument("--dE", type=float, default=None, help="cyclic example: level splitting")
    parser.add_argument("--physical", action="store_true", help="cyclic example: use the periodic realization")
    parser.add_argument("--preset", default=None, choices=ENVIRONMENT_PRESETS, help="open: environment preset")
    parser.add_argument("--g", type=float, default=None, help="open: coupling scale")
    parser.add_argument("--T", type=float, default=None, help="temperature")
    parser.add_argument("--duality", action="store_true", help="open: report the environment-counting deviation")


def _flag_overrides(args, kind: str) -> dict:
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.lambda_max is not None:
        overrides["lambda_grid.max"] = args.lambda_max
    if args.lambda_points is not None:
        overrides["lambda_grid.points"] = args.lambda_points
    if args.steps is not None:
        overrides["cyclic.steps" if kind == "cyclic-example" else "drive.steps"] = args.steps
    if args.alpha is not None:
        overrides["cyclic.alpha"] = args.alpha
    if args.xi is not None:
        overrides["cyclic.xi"] = args.xi
    if args.dE is not None:
        overrides["cyclic.gap"] = args.dE
    if args.physical:
        overrides["cyclic.physical"] = True
    if args.preset is not None:
        overrides["environment.preset"] = args.preset
    if args.g is not None:
        overrides["environment.coupling"] = args.g
    if args.T is not None:
        overrides["temperature" if kind == "fast-decoherence" else "environment.temperature"] = args.T
    if args.duality:
        overrides["duality"] = True
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ScenarioError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = _parse_scalar(value)
    return overrides


def _load_scenario(token: str, args) -> Scenario:
    path = Path(token)
    if token in SCENARIO_KINDS:
        base = Scenario.from_kind(token)
    elif path.exists():
        base = Scenario.from_file(path)
    else:
        raise ScenarioError(
            f"{token!r} is neither a scenario kind ({', '.join(SCENARIO_KINDS)}) nor an existing file"
        )
    return base.with_overrides(_flag_overrides(args, base.kind))


def _out_dir(args, scenario: Scenario) -> Path:
    """The output directory, checked before any computation: its nearest
    existing ancestor (or itself) must be a directory."""
    out_dir = Path(args.out or scenario.config["output"]["directory"] or _default_out())
    existing = next((p for p in (out_dir, *out_dir.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ScenarioError(
            f"output directory {str(out_dir)!r} cannot be created: {str(existing)!r} is not a directory"
        )
    return out_dir


def _formats(args, scenario: Scenario) -> tuple[str, ...]:
    """``--format``, else the scenario's ``output.formats``, as ``--out`` precedes ``output.directory``."""
    if args.format is None:
        return tuple(scenario.config["output"]["formats"])
    return ("csv", "json") if args.format == "both" else (args.format,)


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario, args)
    out_dir = _out_dir(args, scenario)
    formats = _formats(args, scenario)
    result = run_scenario(scenario, out_dir=out_dir, formats=formats, tol_report=args.tol_report)
    checks = result.report.get("checks", [])
    for line in result.headlines:
        print(line)
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"[{status}] {check['name']}: |{check['value']:.3e}| <= {check['tolerance']:.0e}")
    for f in result.files:
        print(f"wrote {f}")
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_NUMERICAL


def _sweep_values(args) -> list:
    if args.values is not None:
        parsed = _parse_scalar(args.values)
        return parsed if isinstance(parsed, list) else [parsed]
    if args.values_linspace is not None:
        try:
            start, stop, count = args.values_linspace.split(":")
            return [float(x) for x in np.linspace(float(start), float(stop), int(count))]
        except ValueError as exc:
            raise ScenarioError(f"--values-linspace expects START:STOP:COUNT, got {args.values_linspace!r}") from exc
    raise ScenarioError("sweep needs --values or --values-linspace")


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args.scenario, args)
    values = _sweep_values(args)
    out_dir = _out_dir(args, scenario)
    result = sweep_scenario(scenario, args.parameter, values, out_dir=out_dir, formats=_formats(args, scenario))
    print(f"swept {args.parameter} over {len(values)} values")
    for f in result.files:
        print(f"wrote {f}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    status = EXIT_OK
    for token in args.files:
        try:
            scenario = Scenario.from_file(token)
        except FileNotFoundError:
            print(f"{token}: no such file")
            status = EXIT_VALIDATION
        except ScenarioError as exc:
            print(f"{token}: INVALID: {exc}")
            status = EXIT_VALIDATION
        else:
            print(f"{token}: OK ({scenario.kind})")
    return status


def _cmd_presets(_args) -> int:
    print("scenario kinds:")
    for kind in SCENARIO_KINDS:
        print(f"  {kind}")
    print("drive protocols:")
    for name in DRIVE_PROTOCOLS:
        print(f"  {name}")
    print("environment presets:")
    for name in ENVIRONMENT_PRESETS:
        print(f"  {name}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qworkstats",
        description="Work, heat and internal-energy statistics of driven quantum systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario", help="scenario file or kind name")
    _add_common_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one scalar scenario field")
    p_sweep.add_argument("scenario", help="scenario file or kind name")
    p_sweep.add_argument("--parameter", required=True, help="dotted field path, e.g. cyclic.alpha")
    p_sweep.add_argument("--values", default=None, help="comma-separated values")
    p_sweep.add_argument("--values-linspace", default=None, metavar="START:STOP:COUNT")
    _add_common_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="validate scenario files")
    p_val.add_argument("files", nargs="+")
    p_val.set_defaults(func=_cmd_validate)

    p_presets = sub.add_parser("presets", help="list kinds, protocols and presets")
    p_presets.set_defaults(func=_cmd_presets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
