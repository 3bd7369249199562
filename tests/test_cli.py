import json
from pathlib import Path

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
            (["initial_state.kind=mixture", "initial_state.populations=1e308,1e308"], "initial_state.populations"),
            (
                ["initial_state.kind=superposition", "initial_state.amplitudes=1e308,1e308"],
                "initial_state.amplitudes",
            ),
            (["initial_state.kind=superposition", "initial_state.amplitudes=1e-320,0"], "initial_state.amplitudes"),
            (["environment.preset=oscillator", "environment.frequency=1e308"], "environment.frequency"),
        ],
        ids=[
            "zero-amplitudes",
            "oscillator-levels",
            "overflowing-populations",
            "overflowing-amplitudes",
            "underflowing-amplitudes",
            "overflowing-oscillator",
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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

    @pytest.mark.parametrize("duration", ["1e30", "1e308"])
    def test_huge_step_phase_is_numerical_error(self, tmp_path, capsys, duration):
        # dt*||H|| near 1e28 and 1e306: squaring the step exponentials overflows
        argv = ["run", "closed", "--set", f"drive.duration={duration}", "--set", "drive.steps=64"]
        assert main(argv + ["--tol-report", "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "dt*||H||_1" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["closed", "--set", "lambda_grid.max=1e308", "--tol-report"],
            ["open", "--set", "environment.coupling=1e308"],
            ["paths-check", "--set", "counting_field=1e308"],
        ],
        ids=["overflowing-lambda-grid", "overflowing-coupling", "overflowing-counting-field"],
    )
    def test_overflowing_input_is_numerical_error(self, tmp_path, capsys, argv):
        # each used to exit 0 with NaN samples or 1 with a traceback
        assert main(["run", *argv, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_naming_a_file_rejected_before_running(self, tmp_path, capsys, monkeypatch, verb, below):
        import qworkstats.cli as cli_module

        calls = []
        monkeypatch.setattr(cli_module, f"{verb}_scenario", lambda *a, **k: calls.append(a))
        target = tmp_path / "taken"
        target.write_text("keep me\n")
        out = target / "sub" if below else target
        argv = [verb, "cyclic-example", "--out", str(out)]
        if verb == "sweep":
            argv += ["--parameter", "cyclic.alpha", "--values", "0.1,0.2"]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "not a directory" in err and str(target) in err
        assert "Traceback" not in err
        assert calls == []
        assert target.read_text() == "keep me\n"

    @pytest.mark.parametrize("bad", ["directory", "binary"])
    def test_scenario_path_that_is_not_a_text_file(self, tmp_path, capsys, bad):
        path = tmp_path / "scenario.scn"
        path.mkdir() if bad == "directory" else path.write_bytes(b"kind: \xff\xfe\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert ("is a directory" if bad == "directory" else "not a UTF-8 text file") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("bad", ["directory", "binary"])
    def test_validate_reports_a_non_text_path_and_continues(self, tmp_path, capsys, bad):
        good = tmp_path / "good.scn"
        good.write_text("kind: cyclic-example\n")
        path = tmp_path / "bad.scn"
        path.mkdir() if bad == "directory" else path.write_bytes(b"kind: \xff\xfe\n")
        assert main(["validate", str(path), str(good)]) == EXIT_VALIDATION
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"{path}: INVALID: ")
        assert ("is a directory" if bad == "directory" else "not a UTF-8 text file") in out[0]
        assert out[1] == f"{good}: OK (cyclic-example)"

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


# kind, field, the value just outside its bound, the value just inside, other overrides
FIELD_BOUNDS = [
    # both seed runs reach NumPy's generator, which raises on a negative seed
    ("closed", "seed", "-1", "0", ["drive.protocol=random"]),
    ("paths-check", "seed", "-1", "0", []),
    ("closed", "lambda_grid.max", "0.0", "1e-300", []),
    ("closed", "lambda_grid.points", "1", "3", []),
    ("closed", "drive.duration", "0.0", "1e-9", []),
    ("closed", "drive.steps", "0", "1", []),
    ("closed", "drive.params.dim", "0", "1", ["drive.protocol=random"]),
    ("open", "drive.steps", "auto", "1", []),
    ("open", "environment.coupling", "-1e-300", "0.0", []),
    ("open", "environment.temperature", "0.0", "1e-9", []),
    ("open", "environment.levels", "1", "2", []),
    ("open", "environment.levels", "9", "8", []),
    ("open", "environment.refresh_every", "0", "1", []),
    # the environment presets couple to a qubit; checked before the drive is built
    ("open", "drive.params.dim", "3", "2", ["drive.protocol=random"]),
    ("fast-decoherence", "drive.steps", "auto", "1", []),
    ("fast-decoherence", "temperature", "0.0", "1e-9", []),
    ("cyclic-example", "cyclic.gap", "0.0", "1e-9", []),
    ("cyclic-example", "cyclic.steps", "0", "4", []),
    # the drive doubles both angles: 2 * 1e308 overflows
    ("cyclic-example", "cyclic.alpha", "1e308", "-8.9e307", []),
    ("cyclic-example", "cyclic.xi", "1e308", "8.9e307", []),
    ("paths-check", "drive.steps", "1", "2", []),
    ("paths-check", "drive.steps", "auto", "2", []),
    ("paths-check", "doublings", "0", "1", []),
    # the step stack budget, 2^27 bytes: N d^2 16 B with d = 2 for a qubit drive
    # and 2 dim_E for the open composite (dim_E = 2, and 4 for the default oscillator)
    ("closed", "drive.steps", str(2**21 + 1), str(2**21), []),
    ("tmp-compare", "drive.steps", "9223372036854775808", str(2**21), []),
    ("fast-decoherence", "drive.steps", "10000000000000", str(2**21), []),
    ("open", "drive.steps", str(2**19 + 1), str(2**19), []),
    ("open", "drive.steps", str(2**17 + 1), str(2**17), ["environment.preset=oscillator"]),
]


@pytest.mark.parametrize(
    "kind,field,outside,inside,extra", FIELD_BOUNDS, ids=[f"{k}-{f}={o}" for k, f, o, _, _ in FIELD_BOUNDS]
)
def test_field_bound(tmp_path, capsys, kind, field, outside, inside, extra):
    from qworkstats.scenario import Scenario, _parse_scalar

    argv = ["run", kind, "--out", str(tmp_path)]
    for item in extra:
        argv += ["--set", item]
    assert main(argv + ["--set", f"{field}={outside}"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"'{field}'" in err and "Traceback" not in err
    overrides = dict(item.split("=") for item in extra)
    Scenario.from_kind(kind).with_overrides({**overrides, field: _parse_scalar(inside)})


@pytest.mark.parametrize("value", ["5", "-1"])
@pytest.mark.parametrize("kind", ["closed", "open"])
def test_state_index_out_of_range_is_validation_error(tmp_path, capsys, kind, value):
    argv = ["run", kind, "--set", f"initial_state.index={value}", "--out", str(tmp_path)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "initial_state.index" in err and "0..1" in err
    assert "Traceback" not in err


def artifact_names(*stems, formats=("csv", "json")):
    return [f"{stem}.{ext}" for stem in stems for ext in formats] + ["report.json"]


CLOSED_CHECKS = ["first_moment_identity", "fd_vs_spectral_first_moment"]
OPEN_CHECKS = ["ledger_identity", "increment_regrouping", "fd_vs_ledger_work"]
OPEN_FILES = artifact_names("characteristic", "ledger")
CLOSED_LABELS = ["first moment:", "second moment:", "min quasi weight:"]
OPEN_LABELS = ["work W:", "heat Q:", "energy change dU:", "FD first moment:"]
PATHS_LABELS = ["paths:", "max element residual:", "halving ratios:"]


@pytest.mark.parametrize(
    "argv,checks,files,labels",
    [
        (
            ["closed"],
            CLOSED_CHECKS,
            artifact_names("characteristic", "quasi_distribution", "spectral_terms"),
            CLOSED_LABELS,
        ),
        (
            ["tmp-compare"],
            CLOSED_CHECKS,
            artifact_names(
                "characteristic", "tmp_characteristic", "quasi_distribution", "spectral_terms", "tmp_distribution"
            ),
            CLOSED_LABELS + ["TMP average:"],
        ),
        (
            ["cyclic-example"],
            ["fcs_first_moment_zero", "tmp_matches_oracle"],
            artifact_names("characteristic", "quasi_distribution", "spectral_terms", "tmp_distribution"),
            ["FCS first moment:", "TMP average:", "oracle average:", "min quasi weight:", "note:"],
        ),
        (["open"], OPEN_CHECKS, OPEN_FILES, OPEN_LABELS),
        (
            ["open", "--duality", "--set", "drive.protocol=constant"],
            OPEN_CHECKS,
            OPEN_FILES,
            OPEN_LABELS + ["duality deviation:"],
        ),
        (
            ["fast-decoherence"],
            ["entropy_heat_relation"],
            artifact_names("ledger"),
            ["work W:", "heat Q:", "max |Q_k - T dS_k| (rel):"],
        ),
        (["paths-check"], ["path_sum_residual"], ["report.json"], PATHS_LABELS),
        (
            ["paths-check", "--set", "dump_paths=true"],
            ["path_sum_residual"],
            ["path_records.csv", "report.json"],
            PATHS_LABELS,
        ),
    ],
    ids=[
        "closed",
        "tmp-compare",
        "cyclic-example",
        "open",
        "open-duality",
        "fast-decoherence",
        "paths-check",
        "paths-check-dump",
    ],
)
def test_each_kind_reports_its_checks_and_files_in_order(tmp_path, capsys, argv, checks, files, labels):
    main(["run", *argv, "--tol-report", "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    written = [line.split(" ", 1)[1] for line in lines if line.startswith("wrote ")]
    assert [Path(path).name for path in written] == files
    assert [Path(path).parent for path in written] == [tmp_path] * len(files)
    assert [check["name"] for check in read_json(tmp_path / "report.json")["checks"]] == checks
    # headline lines first, then one line per check, then the written files
    sections = [
        2 if line.startswith("wrote ") else 1 if line.startswith(("[PASS] ", "[FAIL] ")) else 0 for line in lines
    ]
    assert sections == sorted(sections) and sections.count(1) == len(checks)
    assert [line.split(":", 1)[0] + ":" for line, section in zip(lines, sections) if section == 0] == labels


SWEEP_COLUMNS = ["value", "duality_deviation", "heat", "min_quasi_weight", "moment1", "moment2", "work"]
SPECTRAL_CELLS = {"moment1", "moment2", "min_quasi_weight"}


@pytest.mark.parametrize(
    "kind,columns,filled",
    [
        ("closed", SWEEP_COLUMNS, SPECTRAL_CELLS),
        ("tmp-compare", SWEEP_COLUMNS, SPECTRAL_CELLS),
        ("cyclic-example", SWEEP_COLUMNS[:-1] + ["tmp_average", "work"], SPECTRAL_CELLS | {"tmp_average"}),
        ("open", SWEEP_COLUMNS, {"heat", "work"}),
        ("fast-decoherence", SWEEP_COLUMNS, {"heat", "work"}),
        ("paths-check", SWEEP_COLUMNS, set()),
    ],
)
def test_each_kind_fills_its_sweep_columns(tmp_path, kind, columns, filled):
    assert main(["sweep", kind, "--parameter", "seed", "--values", "1,2", "--out", str(tmp_path)]) == EXIT_OK
    table = read_json(tmp_path / "sweep.json")
    assert table["columns"] == columns
    assert [row["value"] for row in table["rows"]] == [1, 2]
    for row in table["rows"]:
        assert set(row) == set(columns)
        assert {c for c in columns[1:] if row[c] is not None} == filled


def test_characteristic_files_carry_their_protocol(tmp_path):
    assert main(["run", "tmp-compare", "--out", str(tmp_path)]) == EXIT_OK
    assert read_json(tmp_path / "characteristic.json")["protocol"] == "fcs"
    assert read_json(tmp_path / "tmp_characteristic.json")["protocol"] == "tmp"
    assert "# protocol: tmp" in (tmp_path / "tmp_characteristic.csv").read_text().splitlines()


@pytest.mark.parametrize("kind,readers", [("tmp-compare", 3), ("cyclic-example", 2)])
def test_closed_run_reads_one_spectral_expansion(monkeypatch, kind, readers):
    # G on the grid, G on the FD stencil and the TMP outcomes all take the
    # one expansion the run builds
    from qworkstats import fcs, runner, tmp
    from qworkstats.scenario import Scenario

    made, seen = [], []
    decompose = fcs.spectral_decomposition

    def counted(rho0, drive):
        made.append(decompose(rho0, drive))
        return made[-1]

    def reader(fn):
        return lambda terms, *args, **kwargs: seen.append(terms) or fn(terms, *args, **kwargs)

    monkeypatch.setattr(fcs, "spectral_decomposition", counted)
    monkeypatch.setattr(fcs, "characteristic_function", reader(fcs.characteristic_function))
    monkeypatch.setattr(tmp, "tmp_distribution", reader(tmp.tmp_distribution))
    runner.run_scenario(Scenario.from_kind(kind))
    assert len(made) == 1
    assert len(seen) == readers and all(terms is made[0] for terms in seen)


def test_paths_check_discretizes_each_rung_once(monkeypatch):
    from qworkstats import runner
    from qworkstats.scenario import Scenario

    steps = []
    discretize = runner.discretize
    monkeypatch.setattr(runner, "discretize", lambda protocol, n: steps.append(n) or discretize(protocol, n))
    scenario = Scenario.from_kind("paths-check")
    runner.run_scenario(scenario)
    base, doublings = scenario.config["drive"]["steps"], scenario.config["doublings"]
    assert steps == [base << rung for rung in range(doublings + 1)]


def test_paths_check_diagonalizes_each_gridpoint_stack_once(monkeypatch):
    # the enumerations and the kicked product of a rung read its drive's one
    # batched eigendecomposition of the gridpoint Hamiltonians
    from qworkstats import runner
    from qworkstats.linalg import dagger
    from qworkstats.scenario import Scenario, build_protocol

    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: seen.append(m) or eigh(m))
    scenario = Scenario.from_kind("paths-check")
    runner.run_scenario(scenario)
    protocol = build_protocol(scenario.config["drive"], scenario.seed)
    base = scenario.config["drive"]["steps"]
    for rung in range(scenario.config["doublings"] + 1):
        h = runner.discretize(protocol, base << rung).gridpoint_hamiltonians[1:-1]
        assert sum(m.shape == h.shape and np.array_equal(m, 0.5 * (h + dagger(h))) for m in seen) == 1
    # 3 + 7 + 15 interior gridpoints, H(0) and H(T) of each rung, which its two-kick
    # form reads too, and 4 combined steps of the kicked product; 105 when each call
    # diagonalized its own, 41 when the gridpoint stack diagonalized H(0) and H(T) again
    assert sum(len(m.reshape(-1, 2, 2)) for m in seen) == 35


@pytest.mark.parametrize(
    "argv",
    [
        ["closed", "--set", "lambda_grid.max=1e308", "--tol-report"],
        ["open", "--set", "environment.coupling=1e308"],
        ["open", "--set", "environment.preset=oscillator", "--set", "environment.frequency=1e308"],
        ["paths-check", "--set", "counting_field=1e308"],
        ["open", "--set", "lambda_grid.max=1e308"],
        ["closed", "--set", "drive.params.splitting=1e308"],
        ["closed", "--set", "drive.duration=1e308"],
        ["open", "--set", "drive.params.gap_start=1e308"],
        ["cyclic-example", "--set", "cyclic.gap=1e308"],
        ["paths-check", "--set", "drive.duration=1e-308"],
        ["closed", "--set", "drive.steps=9223372036854775808"],
        ["open", "--set", "drive.steps=10000000000000"],
        ["cyclic-example", "--set", "cyclic.physical=true", "--set", "cyclic.steps=10000000000000"],
    ],
    ids=[
        "lambda-grid",
        "coupling",
        "oscillator-frequency",
        "counting-field",
        "open-lambda-grid",
        "magnus4-overflow",
        "step-phase-overflow",
        "protocol-endpoint-overflow",
        "moment-overflow",
        "boundary-weight-overflow",
        "steps-2^63",
        "steps-1e13",
        "cyclic-steps-1e13",
    ],
)
def test_extreme_input_exits_without_warnings(tmp_path, argv):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", *argv, "--out", str(tmp_path)]) in (EXIT_VALIDATION, EXIT_NUMERICAL)


@pytest.mark.parametrize(
    "argv",
    [
        ["closed", "--set", "initial_state.kind=gibbs", "--set", "initial_state.temperature=1e-308"],
        ["open", "--set", "environment.temperature=1e-308", "--set", "environment.gap=3"],
        ["open", "--set", "environment.preset=oscillator", "--set", "environment.temperature=1e-308"],
        ["fast-decoherence", "--set", "temperature=1e-308", "--set", "drive.params.gap_start=3"],
    ],
    ids=["closed-gibbs", "open", "open-oscillator", "fast-decoherence"],
)
def test_zero_temperature_limit_runs_without_warnings(tmp_path, argv):
    # gaps over T overflow to inf in the Gibbs exponent; exp(-inf) = 0 is the exact limit
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", *argv, "--tol-report", "--out", str(tmp_path)]) == EXIT_OK


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_output_formats_choose_the_files(tmp_path, verb):
    # the scenario's output.formats applies unless --format is given
    scenario = tmp_path / "closed.txt"
    scenario.write_text("kind: closed\noutput:\n  formats: csv\n")
    sweep = ["--parameter", "seed", "--values", "1,2"] if verb == "sweep" else []
    assert main([verb, str(scenario), *sweep, "--out", str(tmp_path / "csv")]) == EXIT_OK
    files = sorted(p.name for p in (tmp_path / "csv").iterdir())
    if verb == "sweep":
        assert files == ["sweep.csv"]
    else:
        assert files == sorted(artifact_names("characteristic", "quasi_distribution", "spectral_terms", formats=("csv",)))
    assert main([verb, str(scenario), *sweep, "--format", "json", "--out", str(tmp_path / "json")]) == EXIT_OK
    assert all(p.suffix == ".json" for p in (tmp_path / "json").iterdir())


def test_unknown_output_format_rejected(tmp_path, capsys):
    scenario = tmp_path / "closed.txt"
    scenario.write_text("kind: closed\noutput:\n  formats: csv, xml\n")
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "output.formats" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["validate", str(scenario)]) == EXIT_VALIDATION
