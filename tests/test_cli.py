import json

import numpy as np
import pytest

from qworkstats.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from qworkstats.linalg import NumericalError


def read_json(path):
    return json.loads(path.read_text())


def strip_timestamps(text):
    return "\n".join(line for line in text.splitlines() if "generated_at" not in line)


class TestRun:
    def test_cyclic_equal_superposition_exception(self, tmp_path, capsys):
        # alpha = pi/4: both protocols predict zero average energy change
        code = main(
            [
                "run",
                "cyclic-example",
                "--alpha",
                "0.7853981633974483",
                "--xi",
                "0.6",
                "--dE",
                "1.0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        report = read_json(tmp_path / "report.json")
        assert abs(report["results"]["fcs_first_moment"]) <= 1e-10
        assert abs(report["results"]["tmp_average"]) <= 1e-10

    def test_cyclic_generic_angles(self, tmp_path):
        code = main(
            [
                "run",
                "cyclic-example",
                "--alpha",
                "1.0472",
                "--xi",
                "0.6283",
                "--dE",
                "1.0",
                "--out",
                str(tmp_path),
                "--tol-report",
            ]
        )
        assert code == EXIT_OK
        report = read_json(tmp_path / "report.json")
        results = report["results"]
        assert abs(results["fcs_first_moment"]) <= 1e-10
        assert abs(results["tmp_average"] - results["oracle_average"]) <= 1e-12
        assert results["quasi"]["min_weight"] < -1e-3
        assert all(check["pass"] for check in report["checks"])

    def test_cyclic_physical_realization_matches(self, tmp_path):
        main(["run", "cyclic-example", "--alpha", "0.9", "--xi", "0.7", "--out", str(tmp_path / "a")])
        main(
            [
                "run",
                "cyclic-example",
                "--alpha",
                "0.9",
                "--xi",
                "0.7",
                "--physical",
                "--out",
                str(tmp_path / "b"),
            ]
        )
        a = read_json(tmp_path / "a" / "report.json")["results"]
        b = read_json(tmp_path / "b" / "report.json")["results"]
        assert abs(a["tmp_average"] - b["tmp_average"]) <= 1e-10
        assert abs(a["quasi"]["min_weight"] - b["quasi"]["min_weight"]) <= 1e-10

    def test_open_run_ledger_identity(self, tmp_path):
        code = main(
            [
                "run",
                "open",
                "--preset",
                "qubit-exchange",
                "--g",
                "0.05",
                "--T",
                "1.0",
                "--steps",
                "64",
                "--out",
                str(tmp_path),
                "--tol-report",
            ]
        )
        assert code == EXIT_OK
        report = read_json(tmp_path / "report.json")
        ledger = report["results"]["ledger"]
        assert abs(ledger["work"] - (ledger["internal_energy_change"] - ledger["heat"])) <= 1e-10
        assert (tmp_path / "ledger.csv").exists()
        header = (tmp_path / "ledger.csv").read_text().splitlines()
        column_line = next(line for line in header if not line.startswith("#"))
        assert column_line == "k,t_k,Q_k,dS_k,cumQ"

    def test_closed_run_writes_characteristic_and_quasi(self, tmp_path):
        code = main(["run", "closed", "--steps", "64", "--out", str(tmp_path)])
        assert code == EXIT_OK
        for stem in ("characteristic", "quasi_distribution", "spectral_terms", "report"):
            assert (tmp_path / f"{stem}.json").exists()
        lines = (tmp_path / "characteristic.csv").read_text().splitlines()
        column_line = next(line for line in lines if not line.startswith("#"))
        assert column_line == "lambda,re,im"

    def test_report_moments_recomputable_from_dumped_terms(self, tmp_path):
        main(["run", "closed", "--steps", "64", "--out", str(tmp_path)])
        report = read_json(tmp_path / "report.json")
        terms = read_json(tmp_path / "spectral_terms.json")
        weights = np.array(terms["weight_re"]) + 1j * np.array(terms["weight_im"])
        supports = np.array(terms["support"])
        for n in (1, 2, 3, 4):
            recomputed = float(np.sum(weights * supports**n).real)
            assert abs(recomputed - report["results"]["moments"][str(n)]) <= 1e-12

    def test_tmp_compare_run(self, tmp_path):
        code = main(
            [
                "run",
                "tmp-compare",
                "--steps",
                "64",
                "--set",
                "initial_state.kind=mixture",
                "--set",
                "initial_state.populations=0.3,0.7",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        report = read_json(tmp_path / "report.json")
        comparison = report["results"]["comparison"]
        assert comparison["max_weight_difference"] <= 1e-10
        assert comparison["max_support_distance"] <= 1e-9
        tmp_file = read_json(tmp_path / "tmp_distribution.json")
        assert tmp_file["protocol"] == "tmp"

    def test_fast_decoherence_run(self, tmp_path):
        code = main(
            ["run", "fast-decoherence", "--steps", "512", "--T", "1.0", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = read_json(tmp_path / "report.json")
        assert report["results"]["max_entropy_heat_mismatch"] <= 1e-3

    def test_paths_check_run(self, tmp_path):
        code = main(
            ["run", "paths-check", "--steps", "4", "--set", "dump_paths=true", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = read_json(tmp_path / "report.json")
        results = report["results"]
        assert results["max_matrix_element_residual"] <= 1e-10
        assert results["commuting_kicked_residual"] <= 1e-12
        for ratio in results["halving_ratios"]:
            assert 1.5 <= ratio <= 2.5
        assert (tmp_path / "path_records.csv").exists()

    def test_determinism_modulo_timestamp(self, tmp_path):
        for sub in ("x", "y"):
            main(["run", "closed", "--steps", "32", "--seed", "4", "--out", str(tmp_path / sub), "--format", "json"])
        for stem in ("report", "characteristic", "quasi_distribution"):
            a = strip_timestamps((tmp_path / "x" / f"{stem}.json").read_text())
            b = strip_timestamps((tmp_path / "y" / f"{stem}.json").read_text())
            assert a == b

    def test_unknown_scenario_token(self, tmp_path, capsys):
        assert main(["run", "not-a-kind", "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "neither a scenario kind" in capsys.readouterr().err

    def test_invalid_set_syntax(self, tmp_path):
        assert main(["run", "closed", "--set", "oops", "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_invalid_override_value(self, tmp_path, capsys):
        code = main(["run", "closed", "--lambda-points", "10", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "lambda_grid.points" in capsys.readouterr().err

    def test_single_point_lambda_grid_rejected(self, tmp_path, capsys):
        code = main(["run", "closed", "--set", "lambda_grid.points=1", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "lambda_grid.points" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (["initial_state.kind=superposition", "initial_state.amplitudes=0,0"], "initial_state.amplitudes"),
            (["environment.preset=oscillator", "environment.levels=9"], "environment.levels"),
        ],
        ids=["zero-amplitudes", "oscillator-levels"],
    )
    def test_unbuildable_state_or_environment_rejected(self, tmp_path, capsys, overrides, field):
        argv = ["run", "open", "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "override,field",
        [
            ("drive.duration=inf", "drive.duration"),
            ("drive.params.amplitude=nan", "drive.params.amplitude"),
            ("lambda_grid.max=nan", "lambda_grid.max"),
            ("initial_state.temperature=nan", "initial_state.temperature"),
            ("initial_state.populations=1,-inf", "initial_state.populations"),
            ("drive.duration=1" + "0" * 400, "drive.duration"),
        ],
        ids=["inf-duration", "nan-amplitude", "nan-lambda-max", "nan-temperature", "inf-in-list", "huge-int"],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, override, field):
        argv = ["run", "closed", "--set", "drive.steps=16", "--set", override, "--tol-report"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert field in err and "finite" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize("steps", ["16", "auto"])
    def test_overflowing_step_stack_is_numerical_error(self, tmp_path, capsys, steps):
        argv = ["run", "closed", "--set", f"drive.steps={steps}", "--set", "drive.params.splitting=1e308"]
        assert main(argv + ["--tol-report", "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import qworkstats.cli as cli_module

        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli_module, "run_scenario", boom)
        assert main(["run", "closed", "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert "synthetic failure" in capsys.readouterr().err

    def test_enumeration_guard_maps_to_numerical_exit(self, tmp_path, monkeypatch):
        # scenario validation keeps oversized runs from reaching the guard, so
        # lower the limit the enumeration itself reads
        import qworkstats.paths as paths_module

        monkeypatch.setattr(paths_module, "PATH_ENUMERATION_LIMIT", 16)
        code = main(["run", "paths-check", "--steps", "4", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (["drive.steps=1"], "drive.steps"),
            (["doublings=3"], "doublings"),
            (["drive.protocol=random", "drive.params.dim=0"], "drive.params.dim"),
        ],
        ids=["single-step", "over-path-limit", "zero-dim"],
    )
    def test_paths_check_bad_size_rejected_before_enumeration(
        self, tmp_path, capsys, monkeypatch, overrides, field
    ):
        import qworkstats.paths as paths_module

        calls = []
        monkeypatch.setattr(paths_module, "enumerate_paths", lambda *a, **k: calls.append(a))
        argv = ["run", "paths-check", "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err
        assert calls == []

    def test_output_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QWORKSTATS_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "closed", "--steps", "16"]) == EXIT_OK
        assert (tmp_path / "envout" / "report.json").exists()


class TestSweep:
    def test_alpha_sweep_exception_set(self, tmp_path):
        code = main(
            [
                "sweep",
                "cyclic-example",
                "--parameter",
                "cyclic.alpha",
                "--values-linspace",
                "0:1.5707963267948966:17",
                "--xi",
                "0.6",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        table = read_json(tmp_path / "sweep.json")
        rows = table["rows"]
        assert len(rows) == 17
        by_value = {row["value"]: row for row in rows}
        for special in (0.0, np.pi / 4, np.pi / 2):
            match = min(by_value, key=lambda v: abs(v - special))
            assert abs(by_value[match]["tmp_average"]) <= 1e-10
        generic = [r for r in rows if min(abs(r["value"] - s) for s in (0.0, np.pi / 4, np.pi / 2)) > 0.05]
        assert all(abs(r["tmp_average"]) > 1e-6 for r in generic)

    def test_xi_sweep_vanishes_at_zero(self, tmp_path):
        code = main(
            [
                "sweep",
                "cyclic-example",
                "--parameter",
                "cyclic.xi",
                "--values",
                "0,0.3,0.6",
                "--alpha",
                "0.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_json(tmp_path / "sweep.json")["rows"]
        assert abs(rows[0]["tmp_average"]) <= 1e-10
        assert abs(rows[1]["tmp_average"]) > 1e-6

    def test_duality_sweep_halves_deviation(self, tmp_path):
        code = main(
            [
                "sweep",
                "open",
                "--parameter",
                "environment.coupling",
                "--values",
                "0.1,0.05,0.025",
                "--set",
                "drive.protocol=constant",
                "--set",
                "drive.duration=3.0",
                "--set",
                "environment.gap=1.8",
                "--set",
                "environment.state=coherent",
                "--set",
                "initial_state.kind=superposition",
                "--set",
                "initial_state.amplitudes=0.70710678,0.70710678",
                "--set",
                "lambda_grid.max=3.0",
                "--set",
                "lambda_grid.points=21",
                "--steps",
                "48",
                "--duality",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_json(tmp_path / "sweep.json")["rows"]
        devs = [row["duality_deviation"] for row in rows]
        assert devs[0] > devs[1] > devs[2]
        for a, b in zip(devs, devs[1:]):
            assert 1.5 <= a / b <= 2.5

    def test_sweep_requires_values(self, tmp_path):
        assert (
            main(["sweep", "closed", "--parameter", "seed", "--out", str(tmp_path)])
            == EXIT_VALIDATION
        )

    def test_sweep_rejects_non_scalar_parameter(self, tmp_path):
        code = main(
            ["sweep", "closed", "--parameter", "drive", "--values", "1,2", "--out", str(tmp_path)]
        )
        assert code == EXIT_VALIDATION


class TestValidateAndPresets:
    def test_validate_good_and_bad_files(self, tmp_path, capsys):
        good = tmp_path / "good.scn"
        good.write_text("kind: cyclic-example\ncyclic:\n  alpha: 0.5\n")
        bad = tmp_path / "bad.scn"
        bad.write_text("kind: cyclic-example\ncyclic:\n  alpa: 0.5\n")
        assert main(["validate", str(good)]) == EXIT_OK
        assert main(["validate", str(good), str(bad)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "OK (cyclic-example)" in out
        assert "cyclic.alpa" in out

    def test_validate_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.scn")]) == EXIT_VALIDATION

    def test_presets_lists_everything(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        for token in ("cyclic-example", "qubit-exchange", "rabi", "oscillator"):
            assert token in out

    def test_scenario_file_with_flag_overrides(self, tmp_path):
        scn = tmp_path / "s.scn"
        scn.write_text("kind: cyclic-example\ncyclic:\n  alpha: 1.0471975511965976\n  xi: 0.7853981633974483\n")
        out_dir = tmp_path / "out"
        assert main(["run", str(scn), "--xi", "0.3", "--out", str(out_dir)]) == EXIT_OK
        report = read_json(out_dir / "report.json")
        assert report["results"]["xi"] == pytest.approx(0.3)
