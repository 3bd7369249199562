"""Declarative scenario files: grammar, validation, and object builders.

Scenario format
---------------
A scenario is a nested key-value text file:

* one ``key: value`` pair per line; a bare ``key:`` opens a nested block,
* nesting by two-space indentation (tabs are rejected),
* ``#`` starts a comment (whole line, or inline after a space),
* scalars are parsed as int, float, ``true``/``false``, ``null`` or string;
  comma-separated scalars form a list,
* duplicate keys and unknown keys are errors (no silent typo absorption).

Example::

    kind: cyclic-example
    seed: 7
    cyclic:
      alpha: 1.0472   # mixing angle (rad)
      xi: 0.6283      # cyclic phase (rad)
      gap: 1.0        # level splitting dE
    lambda_grid:
      max: 6.0
      points: 81

Every field has a default; :func:`resolve_scenario` returns the fully
resolved configuration that is echoed into every output artifact.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .drive import (
    DiscretizedDrive,
    DriveProtocol,
    SIGMA_X,
    SIGMA_Z,
    constant_protocol,
    cyclic_qubit_drive,
    cyclic_qubit_protocol,
    discretize,
    discretize_to_tolerance,
    gap_ramp_protocol,
    linear_ramp_protocol,
    rabi_protocol,
    random_ramp_protocol,
)
from .fcs import CountingGrid, symmetric_grid
from .linalg import DensityOperator, gibbs_weights, mat, pure_state_density
from .open_system import (
    DiscretizedComposite,
    oscillator_environment,
    qubit_exchange_environment,
    two_qubit_exchange_environment,
)
from .paths import PATH_ENUMERATION_LIMIT

__all__ = [
    "ScenarioError",
    "Scenario",
    "SCENARIO_KINDS",
    "DRIVE_PROTOCOLS",
    "ENVIRONMENT_PRESETS",
    "parse_scenario_text",
    "resolve_scenario",
    "set_by_path",
    "scalar_parameter_paths",
    "build_protocol",
    "build_discretized_drive",
    "build_initial_state",
    "build_composite",
    "build_grid",
]

SCENARIO_KINDS = (
    "closed",
    "tmp-compare",
    "open",
    "fast-decoherence",
    "cyclic-example",
    "paths-check",
)

class ScenarioError(ValueError):
    """Invalid scenario input; the message names the offending field."""


# ---------------------------------------------------------------------------
# parsing


def _parse_scalar(token: str):
    token = token.strip()
    if "," in token:
        return [_parse_scalar(part) for part in token.split(",")]
    low = token.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("null", "none"):
        return None
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_scenario_text(text: str) -> dict:
    """Parse the scenario grammar into a nested dict (no validation)."""
    root: dict = {}
    stack: list[tuple[int, dict]] = [(0, root)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw:
            raise ScenarioError(f"line {lineno}: tabs are not allowed")
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        line = raw.split(" #", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        if indent % 2:
            raise ScenarioError(f"line {lineno}: indent by two spaces per level")
        while len(stack) > 1 and indent < stack[-1][0]:
            stack.pop()
        if indent != stack[-1][0]:
            raise ScenarioError(f"line {lineno}: unexpected indentation")
        body = line.strip()
        key, sep, value = body.partition(":")
        if not sep:
            raise ScenarioError(f"line {lineno}: expected 'key: value'")
        key = key.strip()
        container = stack[-1][1]
        if key in container:
            raise ScenarioError(f"line {lineno}: duplicate key '{key}'")
        value = value.strip()
        if value == "":
            child: dict = {}
            container[key] = child
            stack.append((indent + 2, child))
        else:
            container[key] = _parse_scalar(value)
    return root


# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class _Field:
    """A scalar field: its type, its default, the strings it allows, its
    numeric bounds (``low <= x <= high``, and ``x > 0`` when ``positive``)
    and one literal it accepts besides its type, such as ``"auto"``."""

    type: str
    default: object = None
    choices: tuple = ()
    low: float = -math.inf
    high: float = math.inf
    positive: bool = False
    special: object = None


# Largest magnitude whose double is still finite
_HALF_MAX = sys.float_info.max / 2


# Drive protocol -> its parameter schema and its builder ``(params, duration, seed)``
_PROTOCOLS = {
    "constant": (
        {"gap": _Field("float", 1.0)},
        lambda p, t, seed: constant_protocol(-0.5 * p["gap"] * SIGMA_Z, t),
    ),
    "gap-ramp": (
        {"gap_start": _Field("float", 1.0), "gap_end": _Field("float", 1.5)},
        lambda p, t, seed: gap_ramp_protocol(p["gap_start"], p["gap_end"], t),
    ),
    "linear": (
        {"gap": _Field("float", 1.0), "transverse": _Field("float", 1.0)},
        lambda p, t, seed: linear_ramp_protocol(-0.5 * p["gap"] * SIGMA_Z, p["transverse"] * SIGMA_X, t),
    ),
    "rabi": (
        {
            "splitting": _Field("float", 1.0),
            "amplitude": _Field("float", 0.5),
            "frequency": _Field("float", 1.0),
        },
        lambda p, t, seed: rabi_protocol(p["splitting"], p["amplitude"], p["frequency"], t),
    ),
    "random": (
        {"dim": _Field("int", 2, low=1), "scale": _Field("float", 1.0)},
        lambda p, t, seed: random_ramp_protocol(p["dim"], t, np.random.default_rng(seed), p["scale"]),
    ),
}

# Environment preset -> the ``environment`` fields it reads, in order, and its
# ``(H_E, H_SE)`` builder; ``gap`` is read after ``resonant`` is resolved.
_PRESETS = {
    "qubit-exchange": (("gap",), qubit_exchange_environment),
    "two-qubit-exchange": (("gap",), two_qubit_exchange_environment),
    "oscillator": (("frequency", "levels"), oscillator_environment),
}

# Bytes the largest ``(N, d, d)`` complex step stack of a run may take: 128 MiB,
# a d = 64 drive at 2,048 steps. A larger request is a validation error.
STEP_STACK_BYTES = 1 << 27

DRIVE_PROTOCOLS = tuple(_PROTOCOLS)

ENVIRONMENT_PRESETS = tuple(_PRESETS)


def _drive_schema(protocol: str, duration: float, steps: _Field) -> dict:
    return {
        "protocol": _Field("str", protocol, DRIVE_PROTOCOLS),
        "duration": _Field("float", duration, positive=True),
        "steps": steps,
        "params": dict,  # resolved against the schema of the protocol read before it
    }


_STATE_SCHEMA = {
    "kind": _Field("str", "eigenstate", ("eigenstate", "superposition", "mixture", "gibbs")),
    "index": _Field("int", 0),
    "amplitudes": _Field("number_list", None),
    "phases": _Field("number_list", None),
    "populations": _Field("number_list", None),
    "temperature": _Field("float", 1.0),
}

_GRID_SCHEMA = {"max": _Field("float", 4.0, positive=True), "points": _Field("int", 41, low=3)}

_OUTPUT_SCHEMA = {"directory": _Field("str", None), "formats": _Field("str_list", ["csv", "json"], ("csv", "json"))}

_ENV_SCHEMA = {
    "preset": _Field("str", "qubit-exchange", ENVIRONMENT_PRESETS),
    "coupling": _Field("float", 0.05, low=0.0),
    "temperature": _Field("float", 1.0, positive=True),
    "gap": _Field("float", "resonant", special="resonant"),
    "state": _Field("str", "gibbs", ("gibbs", "coherent")),
    "frequency": _Field("float", 1.0),
    "levels": _Field("int", 4, low=2, high=8),
    "refresh_every": _Field("int", None, low=1),
}


def _kind_schema(kind: str, **fields) -> dict:
    """Schema of one kind: the common ``kind``, ``seed``, ``label`` and
    ``output`` fields around the kind's own, in artifact order."""
    return {
        "kind": _Field("str", kind, SCENARIO_KINDS),
        "seed": _Field("int", 0, low=0),
        "label": _Field("str", ""),
        **fields,
        "output": _OUTPUT_SCHEMA,
    }


_CLOSED_FIELDS = {
    "drive": _drive_schema("rabi", 1.0, _Field("int", "auto", low=1, special="auto")),
    "initial_state": _STATE_SCHEMA,
    "lambda_grid": _GRID_SCHEMA,
}

_SCHEMAS: dict[str, dict] = {
    "closed": _kind_schema("closed", **_CLOSED_FIELDS),
    "tmp-compare": _kind_schema("tmp-compare", **_CLOSED_FIELDS),
    "open": _kind_schema(
        "open",
        drive=_drive_schema("gap-ramp", 6.0, _Field("int", 96, low=1)),
        initial_state=_STATE_SCHEMA,
        environment=_ENV_SCHEMA,
        duality=_Field("bool", False),
        lambda_grid=_GRID_SCHEMA,
    ),
    "fast-decoherence": _kind_schema(
        "fast-decoherence",
        drive=_drive_schema("gap-ramp", 1.0, _Field("int", 512, low=1)),
        temperature=_Field("float", 1.0, positive=True),
    ),
    "cyclic-example": _kind_schema(
        "cyclic-example",
        cyclic={
            # the drive and the closed forms double both angles
            "alpha": _Field("float", float(np.pi / 3), low=-_HALF_MAX, high=_HALF_MAX),
            "xi": _Field("float", float(np.pi / 4), low=-_HALF_MAX, high=_HALF_MAX),
            "gap": _Field("float", 1.0, positive=True),
            "physical": _Field("bool", False),
            "steps": _Field("int", 64, low=4),
        },
        lambda_grid=_GRID_SCHEMA,
    ),
    "paths-check": _kind_schema(
        "paths-check",
        # two steps at least: the boundary weight profile needs both ends
        drive=_drive_schema("linear", 1.0, _Field("int", 4, low=2)),
        counting_field=_Field("float", 0.6),
        doublings=_Field("int", 2, low=1),
        dump_paths=_Field("bool", False),
    ),
}


def _finite_number(value, path: str, expected: str) -> float:
    """``value`` as a finite float; NaN and +-inf are rejected like non-numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"'{path}' must be {expected}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"'{path}' must be finite, got {value!r}")
    return number


def _within_bounds(number, field: _Field, path: str):
    if field.positive and not number > 0:
        raise ScenarioError(f"'{path}' must be positive, got {number!r}")
    if not field.low <= number <= field.high:
        bound = f">= {field.low}" if field.high == math.inf else f"between {field.low} and {field.high}"
        raise ScenarioError(f"'{path}' must be {bound}, got {number!r}")
    return number


def _coerce(value, field: _Field, path: str):
    if value is None:
        if field.default is None:
            return None
        raise ScenarioError(f"'{path}' must not be null")
    if value == field.special:
        return value
    t = field.type
    if t == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            or_special = "" if field.special is None else f" or {field.special!r}"
            raise ScenarioError(f"'{path}' must be an integer{or_special}, got {value!r}")
        return _within_bounds(value, field, path)
    if t == "float":
        expected = "a number" if field.special is None else f"a number or {field.special!r}"
        return _within_bounds(_finite_number(value, path, expected), field, path)
    if t == "bool":
        if not isinstance(value, bool):
            raise ScenarioError(f"'{path}' must be true or false, got {value!r}")
        return value
    if t == "str":
        if not isinstance(value, str):
            raise ScenarioError(f"'{path}' must be a string, got {value!r}")
        if field.choices and value not in field.choices:
            raise ScenarioError(f"'{path}' must be one of {', '.join(field.choices)}; got {value!r}")
        return value
    if t == "number_list":
        items = value if isinstance(value, list) else [value]
        return [_finite_number(item, path, "a list of numbers") for item in items]
    if t == "str_list":
        items = value if isinstance(value, list) else [value]
        for item in items:
            if item not in field.choices:
                raise ScenarioError(f"'{path}' must list only {', '.join(field.choices)}; got {item!r}")
        return list(items)
    raise AssertionError(f"unhandled field type {t}")


def _resolve_section(schema: Mapping, data: Mapping, path: str) -> dict:
    if not isinstance(data, Mapping):
        raise ScenarioError(f"'{path.rstrip('.')}' must be a nested block")
    for key in data:
        if key not in schema:
            raise ScenarioError(f"unknown key '{path}{key}'")
    out: dict = {}
    for key, spec in schema.items():
        dotted = f"{path}{key}"
        if spec is dict:  # protocol params, resolved against the protocol read before them
            spec = _PROTOCOLS[out["protocol"]][0]
        if isinstance(spec, Mapping):
            out[key] = _resolve_section(spec, data.get(key, {}), f"{dotted}.")
        else:
            out[key] = _coerce(data.get(key, spec.default), spec, dotted)
    return out


def resolve_scenario(data: Mapping) -> dict:
    """Validate a parsed scenario and fill in every default.

    Raises :class:`ScenarioError` naming the offending field.
    """
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario must be a key-value mapping")
    kind = data.get("kind")
    if kind is None:
        raise ScenarioError("missing required key 'kind'")
    if kind not in SCENARIO_KINDS:
        raise ScenarioError(f"'kind' must be one of {', '.join(SCENARIO_KINDS)}; got {kind!r}")
    out = _resolve_section(_SCHEMAS[kind], data, "")
    _check_semantics(out)
    return out


def _check_semantics(cfg: dict) -> None:
    """The rules a field's own schema entry cannot state; its bounds are checked there."""
    if "lambda_grid" in cfg and cfg["lambda_grid"]["points"] % 2 == 0:
        raise ScenarioError("'lambda_grid.points' must be an odd number >= 3")
    if "initial_state" in cfg:
        state = cfg["initial_state"]
        # normalizing the state must neither overflow nor underflow to zero
        if state["kind"] == "superposition":
            if not state["amplitudes"]:
                raise ScenarioError("'initial_state.amplitudes' is required for a superposition")
            if not any(state["amplitudes"]):
                raise ScenarioError("'initial_state.amplitudes' must not all be zero")
            if not 0 < sum(x * x for x in map(float, state["amplitudes"])) < math.inf:
                raise ScenarioError("'initial_state.amplitudes' must have a finite, positive squared norm")
        if state["kind"] == "mixture":
            if not state["populations"]:
                raise ScenarioError("'initial_state.populations' is required for a mixture")
            if not 0 < sum(map(float, state["populations"])) < math.inf:
                raise ScenarioError("'initial_state.populations' must have a finite, positive sum")
        if state["kind"] == "gibbs" and state["temperature"] <= 0:
            raise ScenarioError("'initial_state.temperature' must be positive")
    if cfg["kind"] == "open" and cfg["drive"]["params"].get("dim", 2) != 2:
        raise ScenarioError("environment presets require a qubit system drive: 'drive.params.dim' must be 2")
    if cfg.get("duality") and cfg["drive"]["protocol"] != "constant":
        raise ScenarioError("'duality' requires 'drive.protocol: constant'")
    if "cyclic" in cfg and cfg["cyclic"]["steps"] % 4:
        raise ScenarioError("'cyclic.steps' must be a positive multiple of 4")
    if cfg["kind"] == "paths-check":
        # Every protocol but 'random' is a qubit. The exponent is capped before
        # the power is formed: at dim >= 2 twenty gridpoints already pass the limit.
        steps = cfg["drive"]["steps"]
        dim = cfg["drive"]["params"].get("dim", 2)
        finest = steps * 2 ** min(cfg["doublings"], 20)
        if dim ** min(finest + 1, 64) > PATH_ENUMERATION_LIMIT:
            raise ScenarioError(
                f"paths-check would enumerate more than {PATH_ENUMERATION_LIMIT} paths at "
                f"{steps} x 2^{cfg['doublings']} steps (dimension {dim}); "
                "lower 'drive.steps' or 'doublings'"
            )
    _check_step_budget(cfg)


def _check_step_budget(cfg: dict) -> None:
    """The largest step stack, ``N d^2`` complex numbers of 16 bytes, within :data:`STEP_STACK_BYTES`
    before anything is allocated; ``d`` is ``drive.params.dim`` for a ``random`` drive, 2 for
    the other drives, and ``2 dim_E`` for the composite of an ``open`` run's qubit drive."""
    if cfg["kind"] == "cyclic-example":
        field, steps, dim = "cyclic.steps", cfg["cyclic"]["steps"] if cfg["cyclic"]["physical"] else 0, 2
    else:
        field, steps, dim = "drive.steps", cfg["drive"]["steps"], cfg["drive"]["params"].get("dim", 2)
    if cfg["kind"] == "open":
        env = cfg["environment"]
        dim = 2 * {"qubit-exchange": 2, "two-qubit-exchange": 4}.get(env["preset"], env["levels"])
    if steps != "auto" and steps * dim * dim * 16 > STEP_STACK_BYTES:
        mib = steps * dim * dim * 16 / 2**20
        raise ScenarioError(
            f"'{field}' = {steps} needs {mib:.4g} MiB of steps at dimension {dim}, above {STEP_STACK_BYTES >> 20} MiB"
        )


def set_by_path(config: dict, dotted: str, value) -> dict:
    """Return a copy of ``config`` with the dotted scalar field replaced.

    Intermediate sections must exist; a missing leaf is created and left for
    schema validation to accept or reject, so protocol-specific keys can be
    introduced by overrides.
    """
    out = copy.deepcopy(config)
    *parents, leaf = dotted.split(".")
    node = out
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ScenarioError(f"unknown parameter path '{dotted}'")
    if isinstance(node.get(leaf), dict):
        raise ScenarioError(f"'{dotted}' is not a scalar field")
    node[leaf] = value
    return out


def scalar_parameter_paths(config: dict, prefix: str = "") -> list[str]:
    """All dotted paths addressing scalar fields, for sweep discovery."""
    paths = []
    for key, value in config.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            paths.extend(scalar_parameter_paths(value, f"{dotted}."))
        elif not isinstance(value, list):
            paths.append(dotted)
    return paths


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: kind plus the fully resolved configuration."""

    config: dict

    @property
    def kind(self) -> str:
        return self.config["kind"]

    @property
    def seed(self) -> int:
        return self.config["seed"]

    @classmethod
    def from_text(cls, text: str) -> "Scenario":
        return cls(resolve_scenario(parse_scenario_text(text)))

    @classmethod
    def from_file(cls, path) -> "Scenario":
        path = Path(path)
        if path.is_dir():
            raise ScenarioError(f"{path} is a directory, not a scenario file")
        try:
            text = path.read_text()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path} is not a UTF-8 text file: {exc.reason}") from exc
        return cls.from_text(text)

    @classmethod
    def from_kind(cls, kind: str, overrides: Mapping | None = None) -> "Scenario":
        return cls(resolve_scenario({"kind": kind})).with_overrides(overrides or {})

    def with_overrides(self, overrides: Mapping) -> "Scenario":
        """Apply several dotted overrides, validating once at the end.

        Changing the drive protocol resets its parameter block, since the
        allowed keys are protocol-specific.
        """
        cfg = self.config
        protocol = overrides.get("drive.protocol")
        if protocol is not None and "drive" in cfg and protocol != cfg["drive"]["protocol"]:
            cfg = {**cfg, "drive": {**cfg["drive"], "params": {}}}
        for dotted, value in overrides.items():
            cfg = set_by_path(cfg, dotted, value)
        return Scenario(resolve_scenario(cfg))


# ---------------------------------------------------------------------------
# builders


def build_protocol(drive_cfg: Mapping, seed: int = 0) -> DriveProtocol:
    build = _PROTOCOLS[drive_cfg["protocol"]][1]
    return build(drive_cfg["params"], drive_cfg["duration"], seed)


def build_discretized_drive(scenario: Scenario) -> DiscretizedDrive:
    cfg = scenario.config
    if scenario.kind == "cyclic-example":
        cyc = cfg["cyclic"]
        if cyc["physical"]:
            protocol = cyclic_qubit_protocol(cyc["alpha"], cyc["xi"], cyc["gap"])
            return discretize(protocol, cyc["steps"])
        return cyclic_qubit_drive(cyc["alpha"], cyc["xi"], cyc["gap"])
    protocol = build_protocol(cfg["drive"], cfg["seed"])
    steps = cfg["drive"]["steps"]
    if steps == "auto":
        return discretize_to_tolerance(protocol, rule="magnus4")
    return discretize(protocol, steps)


def build_initial_state(state_cfg: Mapping, eigensystem: tuple) -> DensityOperator:
    """The state ``state_cfg`` in the eigenbasis ``(values, vectors)`` of a Hamiltonian, such
    as ``H(0)`` from half of :attr:`DiscretizedDrive.boundary_eigensystems`."""
    kind = state_cfg["kind"]
    values, vectors = eigensystem
    v = mat(vectors)
    d = v.shape[0]
    if kind == "eigenstate":
        if not 0 <= state_cfg["index"] < d:
            raise ScenarioError(f"'initial_state.index' must be in 0..{d - 1}, got {state_cfg['index']}")
        return pure_state_density(v[:, state_cfg["index"]])
    if kind == "superposition":
        amps = np.asarray(state_cfg["amplitudes"], dtype=complex)
        if amps.size != d:
            raise ScenarioError(f"'initial_state.amplitudes' needs {d} entries, got {amps.size}")
        if state_cfg["phases"]:
            phases = np.asarray(state_cfg["phases"], dtype=float)
            if phases.size != amps.size:
                raise ScenarioError("'initial_state.phases' length must match amplitudes")
            amps = amps * np.exp(1j * phases)
        return pure_state_density(v @ amps)
    if kind == "mixture":
        pops = np.asarray(state_cfg["populations"], dtype=float)
        if pops.size != d:
            raise ScenarioError(f"'initial_state.populations' needs {d} entries, got {pops.size}")
        if np.any(pops < 0) or pops.sum() <= 0:
            raise ScenarioError("'initial_state.populations' must be nonnegative")
        pops = pops / pops.sum()
    else:  # gibbs
        pops = gibbs_weights(values, state_cfg["temperature"])
    return DensityOperator((v * pops) @ v.conj().T)


def build_composite(scenario: Scenario) -> tuple[DiscretizedComposite, DensityOperator, DensityOperator]:
    """The engine of an open scenario plus its initial system and environment states.

    The resonant gap and the system state come from the drive's boundary
    eigensystems, which the work counting reads again, and the environment state
    from the engine's eigensystem of ``H_E``: each is diagonalized once.
    """
    cfg = scenario.config
    drive = build_discretized_drive(scenario)
    env = cfg["environment"]
    eps0, v0 = drive.boundary_eigensystems[:2]
    args = {**env, "gap": float(eps0[-1] - eps0[0]) if env["gap"] == "resonant" else env["gap"]}
    fields, build = _PRESETS[env["preset"]]
    try:
        h_env, h_se = build(*(args[name] for name in fields))
    except ValueError as exc:
        names = ", ".join(f"'environment.{name}'" for name in fields)
        raise ScenarioError(f"{names} cannot build the {env['preset']} environment: {exc}") from exc
    rho_s = build_initial_state(cfg["initial_state"], (eps0, v0))
    composite = DiscretizedComposite(drive, h_env, h_se, env["coupling"])
    state = {"kind": "gibbs", "temperature": env["temperature"]}
    if env["state"] == "coherent":  # equal superposition of the environment energy eigenstates
        state = {"kind": "superposition", "amplitudes": [1 / np.sqrt(h_env.dim)] * h_env.dim, "phases": None}
    return composite, rho_s, build_initial_state(state, composite.env_eigensystem)


def build_grid(scenario: Scenario) -> CountingGrid:
    grid = scenario.config["lambda_grid"]
    return symmetric_grid(grid["max"], grid["points"])
