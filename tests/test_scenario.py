import numpy as np
import pytest

from qworkstats import DensityOperator, Scenario, ScenarioError, eig_hermitian
from qworkstats.scenario import (
    build_composite,
    build_discretized_drive,
    build_grid,
    build_initial_state,
    build_protocol,
    parse_scenario_text,
    resolve_scenario,
    scalar_parameter_paths,
    set_by_path,
)


class TestParser:
    def test_nested_blocks_and_scalars(self):
        text = """
kind: closed
seed: 7
drive:
  protocol: rabi
  duration: 2.0
  params:
    splitting: 1.5
lambda_grid:
  max: 3.0
  points: 21
"""
        data = parse_scenario_text(text)
        assert data["seed"] == 7
        assert data["drive"]["params"]["splitting"] == 1.5
        assert data["lambda_grid"]["points"] == 21

    def test_comments_and_inline_comments(self):
        data = parse_scenario_text("# header\nkind: closed  # trailing\nseed: 2\n")
        assert data == {"kind": "closed", "seed": 2}

    def test_lists_booleans_null(self):
        data = parse_scenario_text(
            "kind: open\nduality: true\nenvironment:\n  refresh_every: null\nvalues: 1,2.5,x\n"
        )
        assert data["duality"] is True
        assert data["environment"]["refresh_every"] is None
        assert data["values"] == [1, 2.5, "x"]

    def test_tabs_rejected(self):
        with pytest.raises(ScenarioError, match="tabs"):
            parse_scenario_text("kind: closed\n\tseed: 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario_text("kind: closed\nkind: open\n")

    def test_bad_indent_rejected(self):
        with pytest.raises(ScenarioError, match="indent"):
            parse_scenario_text("kind: closed\n   seed: 1\n")

    def test_dangling_indent_rejected(self):
        with pytest.raises(ScenarioError, match="indentation"):
            parse_scenario_text("kind: closed\n  seed: 1\n")

    def test_missing_colon_rejected(self):
        with pytest.raises(ScenarioError, match="key: value"):
            parse_scenario_text("kind closed\n")


class TestResolve:
    def test_defaults_filled(self):
        cfg = resolve_scenario({"kind": "closed"})
        assert cfg["drive"]["protocol"] == "rabi"
        assert cfg["drive"]["steps"] == "auto"
        assert cfg["lambda_grid"]["points"] == 41
        assert cfg["initial_state"]["kind"] == "eigenstate"

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key 'bogus'"):
            resolve_scenario({"kind": "closed", "bogus": 1})

    def test_unknown_nested_key_names_path(self):
        with pytest.raises(ScenarioError, match="cyclic.alpa"):
            resolve_scenario({"kind": "cyclic-example", "cyclic": {"alpa": 0.1}})

    def test_unknown_protocol_param_names_path(self):
        with pytest.raises(ScenarioError, match="drive.params.gap_start"):
            resolve_scenario(
                {"kind": "closed", "drive": {"protocol": "rabi", "params": {"gap_start": 1.0}}}
            )

    def test_missing_kind(self):
        with pytest.raises(ScenarioError, match="kind"):
            resolve_scenario({})

    def test_bad_kind(self):
        with pytest.raises(ScenarioError, match="'kind' must be one of"):
            resolve_scenario({"kind": "weird"})

    def test_type_errors_name_field(self):
        with pytest.raises(ScenarioError, match="'seed' must be an integer"):
            resolve_scenario({"kind": "closed", "seed": "x"})
        with pytest.raises(ScenarioError, match="lambda_grid.points"):
            resolve_scenario({"kind": "closed", "lambda_grid": {"points": 2.5}})

    def test_semantic_checks(self):
        with pytest.raises(ScenarioError, match="odd"):
            resolve_scenario({"kind": "closed", "lambda_grid": {"points": 10}})
        with pytest.raises(ScenarioError, match="duality"):
            resolve_scenario({"kind": "open", "duality": True, "drive": {"steps": 8}})
        with pytest.raises(ScenarioError, match="multiple of 4"):
            resolve_scenario({"kind": "cyclic-example", "cyclic": {"steps": 6}})

    def test_step_stack_budget(self):
        # N d^2 16 bytes within 128 MiB: a d = 64 drive fits 2,048 steps
        random = {"drive.protocol": "random", "drive.params.dim": 64}
        Scenario.from_kind("closed", {**random, "drive.steps": 2048})
        with pytest.raises(ScenarioError, match="'drive.steps' = 2049 .* dimension 64"):
            Scenario.from_kind("closed", {**random, "drive.steps": 2049})
        # the open composite of a two-qubit environment has D = 8
        two_qubit = {"environment.preset": "two-qubit-exchange", "drive.steps": 2**17}
        Scenario.from_kind("open", two_qubit)
        with pytest.raises(ScenarioError, match="dimension 8"):
            Scenario.from_kind("open", {**two_qubit, "drive.steps": 2**17 + 1})
        # the synthetic cyclic drive takes one step whatever 'cyclic.steps' says
        huge = {"cyclic.steps": 4 * 10**12}
        Scenario.from_kind("cyclic-example", huge)
        with pytest.raises(ScenarioError, match="'cyclic.steps'"):
            Scenario.from_kind("cyclic-example", {**huge, "cyclic.physical": True})

    def test_resolution_idempotent(self):
        cfg = resolve_scenario({"kind": "open", "drive": {"steps": 16}})
        assert resolve_scenario(cfg) == cfg

    def test_enum_choices_reported(self):
        with pytest.raises(ScenarioError, match="drive.protocol"):
            resolve_scenario({"kind": "closed", "drive": {"protocol": "sawtooth"}})


class TestOverrides:
    def test_set_by_path_and_revalidate(self):
        s = Scenario.from_kind("cyclic-example", {"cyclic.alpha": 0.3})
        assert s.config["cyclic"]["alpha"] == 0.3

    def test_unknown_path(self):
        with pytest.raises(ScenarioError, match="unknown parameter path"):
            set_by_path(resolve_scenario({"kind": "closed"}), "drive.bogus.x", 1)

    def test_non_scalar_target(self):
        cfg = resolve_scenario({"kind": "closed"})
        with pytest.raises(ScenarioError, match="not a scalar"):
            set_by_path(cfg, "drive", 1)

    def test_created_leaf_must_validate(self):
        s = Scenario.from_kind("closed")
        with pytest.raises(ScenarioError, match="unknown key"):
            s.with_overrides({"drive.nonsense": 1})

    def test_protocol_switch_resets_params(self):
        s = Scenario.from_kind("open", {"drive.steps": 8})
        switched = s.with_overrides(
            {"drive.protocol": "constant", "drive.params.gap": 2.0}
        )
        assert switched.config["drive"]["params"] == {"gap": 2.0}

    @pytest.mark.parametrize(
        "overrides",
        [{"drive.protocol": "random"}, {"drive.protocol": "random", "drive.params.dim": 3}],
        ids=["defaults", "with-params"],
    )
    def test_from_kind_overrides_like_with_overrides(self, overrides):
        # one override path: a protocol change resets the parameter block either way
        direct = Scenario.from_kind("closed", overrides)
        chained = Scenario.from_kind("closed").with_overrides(overrides)
        assert direct.config == chained.config
        assert direct.config["drive"]["params"] == {"dim": overrides.get("drive.params.dim", 2), "scale": 1.0}

    def test_scalar_paths_enumeration(self):
        paths = scalar_parameter_paths(resolve_scenario({"kind": "cyclic-example"}))
        assert "cyclic.alpha" in paths
        assert "lambda_grid.max" in paths


class TestBuilders:
    def test_protocol_shapes(self):
        for name, params in (
            ("constant", {}),
            ("gap-ramp", {}),
            ("linear", {}),
            ("rabi", {}),
            ("random", {"dim": 3}),
        ):
            cfg = resolve_scenario(
                {"kind": "closed", "drive": {"protocol": name, "steps": 4, "params": params}}
            )
            protocol = build_protocol(cfg["drive"], seed=5)
            assert protocol.dim == params.get("dim", 2)

    def test_random_protocol_seeded(self):
        cfg = resolve_scenario({"kind": "closed", "drive": {"protocol": "random", "steps": 4}})
        a = build_protocol(cfg["drive"], seed=9)(0.4).matrix
        b = build_protocol(cfg["drive"], seed=9)(0.4).matrix
        assert np.array_equal(a, b)

    def test_initial_state_superposition_normalizes(self):
        cfg = resolve_scenario(
            {
                "kind": "closed",
                "drive": {"steps": 4},
                "initial_state": {"kind": "superposition", "amplitudes": [3.0, 4.0]},
            }
        )
        drive = build_discretized_drive(Scenario(cfg))
        rho = build_initial_state(cfg["initial_state"], drive.boundary_eigensystems[:2])
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_initial_state_amplitude_length_checked(self):
        cfg = resolve_scenario(
            {
                "kind": "closed",
                "drive": {"steps": 4},
                "initial_state": {"kind": "superposition", "amplitudes": [1.0, 1.0, 1.0]},
            }
        )
        drive = build_discretized_drive(Scenario(cfg))
        with pytest.raises(ScenarioError, match="amplitudes"):
            build_initial_state(cfg["initial_state"], drive.boundary_eigensystems[:2])

    def test_mixture_state_diagonal_in_eigenbasis(self):
        cfg = resolve_scenario(
            {
                "kind": "closed",
                "drive": {"steps": 4},
                "initial_state": {"kind": "mixture", "populations": [1.0, 3.0]},
            }
        )
        drive = build_discretized_drive(Scenario(cfg))
        rho = build_initial_state(cfg["initial_state"], drive.boundary_eigensystems[:2])
        _, vectors = eig_hermitian(drive.h_start)
        in_basis = vectors.matrix.conj().T @ rho.matrix @ vectors.matrix
        assert abs(in_basis[0, 1]) <= 1e-12
        assert in_basis[0, 0].real == pytest.approx(0.25, abs=1e-12)

    def test_composite_resonant_gap(self):
        scenario = Scenario.from_kind("open", {"drive.steps": 8})
        composite, rho_s, rho_e = build_composite(scenario)
        assert composite.drive.n_steps == 8
        values, _ = eig_hermitian(composite.h_env)
        # resonant default matches the initial system gap (1.0 for the ramp)
        assert values[-1] - values[0] == pytest.approx(1.0, abs=1e-12)
        assert isinstance(rho_e, DensityOperator)

    def test_coherent_environment_state(self):
        scenario = Scenario.from_kind(
            "open", {"drive.steps": 8, "environment.state": "coherent"}
        )
        _, _, rho_e = build_composite(scenario)
        assert np.linalg.eigvalsh(rho_e.matrix)[-1] == pytest.approx(1.0, abs=1e-12)

    def test_grid_builder(self):
        scenario = Scenario.from_kind("closed", {"lambda_grid.max": 2.0, "lambda_grid.points": 5})
        grid = build_grid(scenario)
        assert grid.size == 5
        assert grid.lambdas[-1] == pytest.approx(2.0)

    def test_cyclic_drive_kinds(self):
        synthetic = Scenario.from_kind("cyclic-example")
        drive = build_discretized_drive(synthetic)
        assert drive.n_steps == 1
        physical = Scenario.from_kind("cyclic-example", {"cyclic.physical": True})
        drive_p = build_discretized_drive(physical)
        assert drive_p.n_steps == 64
