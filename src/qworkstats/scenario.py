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

import math
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
from .linalg import (
    DensityOperator,
    HermitianOperator,
    eig_hermitian,
    eigenstate_density,
    gibbs_state,
    pure_state_density,
)
from .open_system import (
    CompositeModel,
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

DRIVE_PROTOCOLS = ("constant", "gap-ramp", "linear", "rabi", "random")

ENVIRONMENT_PRESETS = ("qubit-exchange", "two-qubit-exchange", "oscillator")


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
    type: str
    default: object = None
    choices: tuple = ()


_PROTOCOL_PARAMS: dict[str, dict[str, _Field]] = {
    "constant": {"gap": _Field("float", 1.0)},
    "gap-ramp": {"gap_start": _Field("float", 1.0), "gap_end": _Field("float", 1.5)},
    "linear": {"gap": _Field("float", 1.0), "transverse": _Field("float", 1.0)},
    "rabi": {
        "splitting": _Field("float", 1.0),
        "amplitude": _Field("float", 0.5),
        "frequency": _Field("float", 1.0),
    },
    "random": {"dim": _Field("int", 2), "scale": _Field("float", 1.0)},
}


def _drive_schema(default_protocol: str, default_duration: float, default_steps) -> dict:
    return {
        "protocol": _Field("str", default_protocol, DRIVE_PROTOCOLS),
        "duration": _Field("float", default_duration),
        "steps": _Field("int_or_auto", default_steps),
        "params": dict,  # filled against _PROTOCOL_PARAMS after protocol is known
    }


_STATE_SCHEMA = {
    "kind": _Field("str", "eigenstate", ("eigenstate", "superposition", "mixture", "gibbs")),
    "index": _Field("int", 0),
    "amplitudes": _Field("number_list", None),
    "phases": _Field("number_list", None),
    "populations": _Field("number_list", None),
    "temperature": _Field("float", 1.0),
}

_GRID_SCHEMA = {"max": _Field("float", 4.0), "points": _Field("int", 41)}

_OUTPUT_SCHEMA = {
    "directory": _Field("str", None),
    "formats": _Field("str_list", ["csv", "json"]),
}

_ENV_SCHEMA = {
    "preset": _Field("str", "qubit-exchange", ENVIRONMENT_PRESETS),
    "coupling": _Field("float", 0.05),
    "temperature": _Field("float", 1.0),
    "gap": _Field("float_or_resonant", "resonant"),
    "state": _Field("str", "gibbs", ("gibbs", "coherent")),
    "frequency": _Field("float", 1.0),
    "levels": _Field("int", 4),
    "refresh_every": _Field("optional_int", None),
}

def _kind_schema(kind: str, **fields) -> dict:
    """Schema of one kind: the common ``kind``, ``seed``, ``label`` and
    ``output`` fields around the kind's own, in artifact order."""
    return {
        "kind": _Field("str", kind, SCENARIO_KINDS),
        "seed": _Field("int", 0),
        "label": _Field("str", ""),
        **fields,
        "output": _OUTPUT_SCHEMA,
    }


_CLOSED_FIELDS = {
    "drive": _drive_schema("rabi", 1.0, "auto"),
    "initial_state": _STATE_SCHEMA,
    "lambda_grid": _GRID_SCHEMA,
}

_SCHEMAS: dict[str, dict] = {
    "closed": _kind_schema("closed", **_CLOSED_FIELDS),
    "tmp-compare": _kind_schema("tmp-compare", **_CLOSED_FIELDS),
    "open": _kind_schema(
        "open",
        drive=_drive_schema("gap-ramp", 6.0, 96),
        initial_state=_STATE_SCHEMA,
        environment=_ENV_SCHEMA,
        duality=_Field("bool", False),
        lambda_grid=_GRID_SCHEMA,
    ),
    "fast-decoherence": _kind_schema(
        "fast-decoherence",
        drive=_drive_schema("gap-ramp", 1.0, 512),
        temperature=_Field("float", 1.0),
    ),
    "cyclic-example": _kind_schema(
        "cyclic-example",
        cyclic={
            "alpha": _Field("float", float(np.pi / 3)),
            "xi": _Field("float", float(np.pi / 4)),
            "gap": _Field("float", 1.0),
            "physical": _Field("bool", False),
            "steps": _Field("int", 64),
        },
        lambda_grid=_GRID_SCHEMA,
    ),
    "paths-check": _kind_schema(
        "paths-check",
        drive=_drive_schema("linear", 1.0, 4),
        counting_field=_Field("float", 0.6),
        doublings=_Field("int", 2),
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


def _coerce(value, field: _Field, path: str):
    if value is None:
        if field.type == "optional_int" or field.default is None:
            return None
        raise ScenarioError(f"'{path}' must not be null")
    t = field.type
    if t == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"'{path}' must be an integer, got {value!r}")
        return value
    if t == "float":
        return _finite_number(value, path, "a number")
    if t == "bool":
        if not isinstance(value, bool):
            raise ScenarioError(f"'{path}' must be true or false, got {value!r}")
        return value
    if t == "str":
        if not isinstance(value, str):
            raise ScenarioError(f"'{path}' must be a string, got {value!r}")
        if field.choices and value not in field.choices:
            raise ScenarioError(
                f"'{path}' must be one of {', '.join(field.choices)}; got {value!r}"
            )
        return value
    if t == "number_list":
        items = value if isinstance(value, list) else [value]
        return [_finite_number(item, path, "a list of numbers") for item in items]
    if t == "str_list":
        items = value if isinstance(value, list) else [value]
        for item in items:
            if not isinstance(item, str):
                raise ScenarioError(f"'{path}' must be a list of strings, got {item!r}")
        return list(items)
    if t == "int_or_auto":
        if value == "auto":
            return "auto"
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"'{path}' must be an integer or 'auto', got {value!r}")
        return value
    if t == "optional_int":
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"'{path}' must be an integer or null, got {value!r}")
        return value
    if t == "float_or_resonant":
        if value == "resonant":
            return "resonant"
        return _finite_number(value, path, "a number or 'resonant'")
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
        if spec is dict:
            continue  # handled by the caller (protocol params)
        if isinstance(spec, Mapping):
            out[key] = _resolve_section(spec, data.get(key, {}), f"{dotted}.")
        else:
            out[key] = _coerce(data.get(key, spec.default), spec, dotted)
    return out


def _resolve_drive(data: Mapping, schema: Mapping, path: str) -> dict:
    out = _resolve_section(schema, data, path)
    protocol = out["protocol"]
    params_schema = _PROTOCOL_PARAMS[protocol]
    raw_params = data.get("params", {})
    out["params"] = _resolve_section(params_schema, raw_params, f"{path}params.")
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
    schema = _SCHEMAS[kind]
    out: dict = {}
    for key in data:
        if key not in schema:
            raise ScenarioError(f"unknown key '{key}'")
    for key, spec in schema.items():
        if key == "drive":
            out[key] = _resolve_drive(data.get(key, {}), spec, "drive.")
        elif isinstance(spec, Mapping):
            out[key] = _resolve_section(spec, data.get(key, {}), f"{key}.")
        else:
            out[key] = _coerce(data.get(key, spec.default), spec, key)
    _check_semantics(out)
    return out


def _check_semantics(cfg: dict) -> None:
    kind = cfg["kind"]
    if "lambda_grid" in cfg:
        grid = cfg["lambda_grid"]
        if grid["max"] <= 0:
            raise ScenarioError("'lambda_grid.max' must be positive")
        if grid["points"] < 3 or grid["points"] % 2 == 0:
            raise ScenarioError("'lambda_grid.points' must be an odd number >= 3")
    if "drive" in cfg:
        drive = cfg["drive"]
        if drive["duration"] <= 0:
            raise ScenarioError("'drive.duration' must be positive")
        if drive["steps"] != "auto" and drive["steps"] < 1:
            raise ScenarioError("'drive.steps' must be >= 1 or 'auto'")
        if drive["protocol"] == "random" and drive["params"]["dim"] < 1:
            raise ScenarioError("'drive.params.dim' must be >= 1")
    if "initial_state" in cfg:
        state = cfg["initial_state"]
        if state["kind"] == "superposition" and not state["amplitudes"]:
            raise ScenarioError("'initial_state.amplitudes' is required for a superposition")
        if state["kind"] == "superposition" and not any(state["amplitudes"]):
            raise ScenarioError("'initial_state.amplitudes' must not all be zero")
        if state["kind"] == "mixture" and not state["populations"]:
            raise ScenarioError("'initial_state.populations' is required for a mixture")
        if state["kind"] == "gibbs" and state["temperature"] <= 0:
            raise ScenarioError("'initial_state.temperature' must be positive")
    if kind == "open":
        env = cfg["environment"]
        if env["coupling"] < 0:
            raise ScenarioError("'environment.coupling' must be nonnegative")
        if env["temperature"] <= 0:
            raise ScenarioError("'environment.temperature' must be positive")
        if not 2 <= env["levels"] <= 8:
            raise ScenarioError("'environment.levels' must be between 2 and 8")
        if env["refresh_every"] is not None and env["refresh_every"] < 1:
            raise ScenarioError("'environment.refresh_every' must be >= 1 or null")
        if cfg["duality"] and cfg["drive"]["protocol"] != "constant":
            raise ScenarioError("'duality' requires 'drive.protocol: constant'")
        if cfg["drive"]["steps"] == "auto":
            raise ScenarioError("'drive.steps' must be explicit for open scenarios")
    if kind == "fast-decoherence":
        if cfg["temperature"] <= 0:
            raise ScenarioError("'temperature' must be positive")
        if cfg["drive"]["steps"] == "auto":
            raise ScenarioError("'drive.steps' must be explicit for fast-decoherence")
    if kind == "cyclic-example":
        cyc = cfg["cyclic"]
        if cyc["gap"] <= 0:
            raise ScenarioError("'cyclic.gap' must be positive")
        if cyc["steps"] < 4 or cyc["steps"] % 4:
            raise ScenarioError("'cyclic.steps' must be a positive multiple of 4")
    if kind == "paths-check":
        if cfg["drive"]["steps"] == "auto":
            raise ScenarioError("'drive.steps' must be explicit for paths-check")
        if cfg["doublings"] < 1:
            raise ScenarioError("'doublings' must be >= 1")
        steps = cfg["drive"]["steps"]
        if steps < 2:
            raise ScenarioError("'drive.steps' must be >= 2 for paths-check (boundary weight profile)")
        # Every protocol but 'random' is a qubit. The exponent is capped before
        # the power is formed: at dim >= 2 twenty gridpoints already pass the limit.
        dim = cfg["drive"]["params"].get("dim", 2)
        finest = steps * 2 ** min(cfg["doublings"], 20)
        if dim ** min(finest + 1, 64) > PATH_ENUMERATION_LIMIT:
            raise ScenarioError(
                f"paths-check would enumerate more than {PATH_ENUMERATION_LIMIT} paths at "
                f"{steps} x 2^{cfg['doublings']} steps (dimension {dim}); "
                "lower 'drive.steps' or 'doublings'"
            )


def set_by_path(config: dict, dotted: str, value) -> dict:
    """Return a copy of ``config`` with the dotted scalar field replaced.

    Intermediate sections must exist; a missing leaf is created and left for
    schema validation to accept or reject, so protocol-specific keys can be
    introduced by overrides.
    """
    import copy

    out = copy.deepcopy(config)
    parts = dotted.split(".")
    node = out
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ScenarioError(f"unknown parameter path '{dotted}'")
        node = node[part]
    leaf = parts[-1]
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
        return cls.from_text(Path(path).read_text())

    @classmethod
    def from_kind(cls, kind: str, overrides: Mapping | None = None) -> "Scenario":
        cfg = resolve_scenario({"kind": kind})
        for dotted, value in (overrides or {}).items():
            cfg = set_by_path(cfg, dotted, value)
        return cls(resolve_scenario(cfg))

    def with_override(self, dotted: str, value) -> "Scenario":
        return self.with_overrides({dotted: value})

    def with_overrides(self, overrides: Mapping) -> "Scenario":
        """Apply several dotted overrides, validating once at the end.

        Changing the drive protocol resets its parameter block, since the
        allowed keys are protocol-specific.
        """
        cfg = self.config
        new_protocol = overrides.get("drive.protocol")
        if new_protocol is not None and new_protocol != cfg.get("drive", {}).get("protocol"):
            cfg = set_by_path(cfg, "drive.protocol", new_protocol)
            node = dict(cfg["drive"])
            node["params"] = {}
            cfg = dict(cfg)
            cfg["drive"] = node
        for dotted, value in overrides.items():
            if dotted == "drive.protocol":
                continue
            cfg = set_by_path(cfg, dotted, value)
        return Scenario(resolve_scenario(cfg))


# ---------------------------------------------------------------------------
# builders


def build_protocol(drive_cfg: Mapping, seed: int = 0) -> DriveProtocol:
    name = drive_cfg["protocol"]
    duration = drive_cfg["duration"]
    p = drive_cfg["params"]
    if name == "constant":
        return constant_protocol(
            HermitianOperator(-0.5 * p["gap"] * SIGMA_Z), duration, label="constant"
        )
    if name == "gap-ramp":
        return gap_ramp_protocol(p["gap_start"], p["gap_end"], duration)
    if name == "linear":
        return linear_ramp_protocol(
            -0.5 * p["gap"] * SIGMA_Z, p["transverse"] * SIGMA_X, duration, label="linear"
        )
    if name == "rabi":
        return rabi_protocol(p["splitting"], p["amplitude"], p["frequency"], duration)
    if name == "random":
        rng = np.random.default_rng(seed)
        return random_ramp_protocol(p["dim"], duration, rng, p["scale"])
    raise ScenarioError(f"unknown drive protocol {name!r}")


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


def build_initial_state(state_cfg: Mapping, h_start: HermitianOperator) -> DensityOperator:
    kind = state_cfg["kind"]
    values, vectors = eig_hermitian(h_start)
    v = vectors.matrix
    if kind == "eigenstate":
        return eigenstate_density(h_start, state_cfg["index"])
    if kind == "superposition":
        amps = np.asarray(state_cfg["amplitudes"], dtype=complex)
        if amps.size != v.shape[0]:
            raise ScenarioError(
                f"'initial_state.amplitudes' needs {v.shape[0]} entries, got {amps.size}"
            )
        if state_cfg["phases"]:
            phases = np.asarray(state_cfg["phases"], dtype=float)
            if phases.size != amps.size:
                raise ScenarioError("'initial_state.phases' length must match amplitudes")
            amps = amps * np.exp(1j * phases)
        return pure_state_density(v @ amps)
    if kind == "mixture":
        pops = np.asarray(state_cfg["populations"], dtype=float)
        if pops.size != v.shape[0]:
            raise ScenarioError(
                f"'initial_state.populations' needs {v.shape[0]} entries, got {pops.size}"
            )
        if np.any(pops < 0) or pops.sum() <= 0:
            raise ScenarioError("'initial_state.populations' must be nonnegative")
        pops = pops / pops.sum()
        return DensityOperator((v * pops) @ v.conj().T)
    if kind == "gibbs":
        return gibbs_state(h_start, state_cfg["temperature"])
    raise ScenarioError(f"unknown initial state kind {kind!r}")


def build_composite(scenario: Scenario) -> tuple[CompositeModel, DensityOperator, DensityOperator]:
    """Model plus initial system and environment states for an open scenario."""
    cfg = scenario.config
    protocol = build_protocol(cfg["drive"], cfg["seed"])
    if protocol.dim != 2:
        raise ScenarioError("environment presets require a qubit system drive")
    env = cfg["environment"]
    h_start = protocol(0.0)
    gap = env["gap"]
    if gap == "resonant":
        values, _ = eig_hermitian(h_start)
        gap = float(values[-1] - values[0])
    preset = env["preset"]
    if preset == "qubit-exchange":
        h_env, h_se = qubit_exchange_environment(gap)
    elif preset == "two-qubit-exchange":
        h_env, h_se = two_qubit_exchange_environment(gap)
    elif preset == "oscillator":
        h_env, h_se = oscillator_environment(env["frequency"], env["levels"])
    else:  # pragma: no cover - guarded by schema choices
        raise ScenarioError(f"unknown environment preset {preset!r}")
    model = CompositeModel(protocol, h_env, h_se, coupling_scale=env["coupling"])
    rho_s = build_initial_state(cfg["initial_state"], h_start)
    if env["state"] == "coherent":
        # equal superposition of the environment energy eigenstates
        _, vectors = eig_hermitian(h_env)
        amp = np.ones(h_env.dim) / np.sqrt(h_env.dim)
        rho_e = pure_state_density(vectors.matrix @ amp)
    else:
        rho_e = gibbs_state(h_env, env["temperature"])
    return model, rho_s, rho_e


def build_grid(scenario: Scenario) -> CountingGrid:
    grid = scenario.config["lambda_grid"]
    return symmetric_grid(grid["max"], grid["points"])
