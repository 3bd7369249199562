import numpy as np
import pytest

from qworkstats import (
    CompositeModel,
    DensityOperator,
    DiscretizedComposite,
    HeatLedger,
    HermitianOperator,
    characteristic_function,
    constant_protocol,
    cyclic_qubit_hamiltonian,
    discretize,
    eigenstate_density,
    expm_unitary,
    fast_decoherence_run,
    gap_ramp_protocol,
    gibbs_state,
    linear_ramp_protocol,
    oscillator_environment,
    partial_trace_env,
    pure_state_density,
    qubit_exchange_environment,
    random_hermitian,
    random_ramp_protocol,
    symmetric_grid,
    tensor,
    two_qubit_exchange_environment,
    von_neumann_entropy,
)
from qworkstats.fcs import fd_stencil_grid, moment_fd
from qworkstats.linalg import NumericalError, mat, max_abs

from conftest import PAULI_X, PAULI_Z


def exchange_model(coupling, env_gap=1.0, protocol=None):
    protocol = protocol or gap_ramp_protocol(0.8, 1.2, 6.0)
    h_env, h_se = qubit_exchange_environment(env_gap)
    return CompositeModel(protocol, h_env, h_se, coupling_scale=coupling)


def thermal_pair(model, temperature=1.0, excited=True):
    rho_s = eigenstate_density(model.drive(0.0), 1 if excited else 0)
    rho_e = gibbs_state(model.h_env, temperature)
    return rho_s, rho_e


PLUS = pure_state_density(np.array([1.0, 1.0]) / np.sqrt(2.0))


class TestMeasurementBlock:
    def test_zero_counting_field_is_step_propagator(self):
        model = exchange_model(0.3)
        n, k = 8, 2
        drive = discretize(model.drive, n)
        block = model.discretize(n).block(k, 0.0).matrix
        step = expm_unitary(model.step_hamiltonian(drive.hamiltonians[k]), drive.dt).matrix
        assert max_abs(block - step) <= 1e-12

    def test_decoupled_kicks_commute_away(self):
        model = exchange_model(0.0)
        n, k = 6, 4
        drive = discretize(model.drive, n)
        step = expm_unitary(model.step_hamiltonian(drive.hamiltonians[k]), drive.dt).matrix
        for lam in (0.4, -1.3):
            assert max_abs(model.discretize(n).block(k, lam).matrix - step) <= 1e-12

    def test_derivative_is_half_commutator(self, rng):
        # finite-difference oracle for -i dB/dlam at 0; analytically (1/2)[E, A]
        model = CompositeModel(
            linear_ramp_protocol(PAULI_Z, PAULI_X, 1.0),
            random_hermitian(2, rng),
            random_hermitian(4, rng),
            coupling_scale=0.7,
        )
        n, k, h = 8, 3, 1e-5
        drive = discretize(model.drive, n)
        composite = model.discretize(n)
        fd = -1j * (composite.block(k, +h).matrix - composite.block(k, -h).matrix) / (2 * h)
        e = expm_unitary(model.step_hamiltonian(drive.hamiltonians[k]), drive.dt).matrix
        a = tensor(drive.hamiltonians[k], np.eye(2))
        assert max_abs(fd - 0.5 * (e @ a - a @ e)) <= 1e-7

    def test_step_index_validated(self):
        model = exchange_model(0.1)
        with pytest.raises(ValueError, match="step index"):
            model.discretize(4).block(4, 0.1)


class TestCountingOperators:
    def test_full_operator_at_zero_is_plain_product(self):
        model = exchange_model(0.4)
        n = 6
        drive = discretize(model.drive, n)
        u = np.eye(4, dtype=complex)
        for h_s in drive.hamiltonians:
            u = expm_unitary(model.step_hamiltonian(h_s), drive.dt).matrix @ u
        assert max_abs(model.discretize(n).counting_operator(0.0, "work").matrix - u) <= 1e-12

    def test_single_block_constant_system_collapses(self):
        # boundary kicks cancel the block kicks exactly for a constant drive
        model = exchange_model(0.5, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 0.7))
        u = model.discretize(1).counting_operator(0.9, "work").matrix
        step = expm_unitary(model.step_hamiltonian(model.drive(0.0)), 0.7).matrix
        assert max_abs(u - step) <= 1e-12

    def test_decoupled_reduction_to_closed_system(self):
        model = exchange_model(0.0)
        n = 24
        grid = symmetric_grid(3.0, 15)
        rho_s, rho_e = thermal_pair(model)
        g_open = model.discretize(n).characteristic_function(rho_s, rho_e, grid)
        g_closed = characteristic_function(rho_s, discretize(model.drive, n), grid)
        assert np.max(np.abs(g_open.values - g_closed.values)) <= 1e-10

    def test_environment_counting_requires_constant_system(self):
        model = exchange_model(0.1)
        with pytest.raises(ValueError, match="constant"):
            model.discretize(8).counting_operator(0.3, "environment")

    def test_environment_counting_trivial_when_decoupled(self):
        model = exchange_model(0.0, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 2.0))
        grid = symmetric_grid(2.0, 11)
        rho_s, rho_e = thermal_pair(model)
        g_env = model.discretize(16).characteristic_function(rho_s, rho_e, grid, counting="environment")
        assert np.max(np.abs(g_env.values - 1.0)) <= 1e-12

    def test_unknown_counting_mode(self):
        model = exchange_model(0.1, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 1.0))
        rho_s, rho_e = thermal_pair(model)
        with pytest.raises(ValueError, match="counting"):
            model.discretize(4).characteristic_function(
                rho_s, rho_e, symmetric_grid(1.0, 3), counting="bogus"
            )


class TestHeatLedger:
    def test_decoupled_steps_dissipate_nothing(self):
        model = exchange_model(0.0)
        rho_s, rho_e = thermal_pair(model)
        ledger = model.discretize(32).trajectory(rho_s, rho_e)[0]
        assert np.max(np.abs(ledger.heat_increments)) <= 1e-12
        assert ledger.work == pytest.approx(ledger.internal_energy_change, abs=1e-12)

    def test_constant_hamiltonian_all_change_is_heat(self):
        model = exchange_model(0.2, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 3.0))
        rho_s, rho_e = thermal_pair(model, temperature=0.5)
        ledger = model.discretize(48).trajectory(rho_s, rho_e)[0]
        assert abs(ledger.work) <= 1e-10
        assert ledger.heat == pytest.approx(ledger.internal_energy_change, abs=1e-10)
        assert abs(ledger.heat) > 1e-3  # something actually flows

    def test_broken_identity_is_numerical_error(self):
        ledger, _ = exchange_model(0.05).discretize(16).trajectory(*thermal_pair(exchange_model(0.05)))
        with pytest.raises(NumericalError, match="W = dU - Q"):
            HeatLedger(
                ledger.k,
                ledger.time,
                ledger.heat_increments,
                ledger.entropy_increments,
                ledger.heat,
                ledger.internal_energy_change,
                ledger.work + 1e-9,
            )

    def test_ledger_identity(self):
        model = exchange_model(0.05)
        rho_s, rho_e = thermal_pair(model)
        ledger = model.discretize(96).trajectory(rho_s, rho_e)[0]
        assert ledger.work == pytest.approx(ledger.internal_energy_change - ledger.heat, abs=1e-12)

    def test_work_matches_fd_moment_of_counting_function(self):
        model = exchange_model(0.05)
        rho_s, rho_e = thermal_pair(model)
        n = 96
        composite = model.discretize(n)
        ledger, _ = composite.trajectory(rho_s, rho_e)
        h = 1e-3
        samples = composite.characteristic_function(
            rho_s, rho_e, fd_stencil_grid(h, order=1, richardson=True)
        )
        assert moment_fd(samples, 1, h=h) == pytest.approx(ledger.work, abs=1e-7)

    def test_heat_cgf_first_moment_is_minus_heat(self):
        model = exchange_model(0.2, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 3.0))
        rho_s, rho_e = thermal_pair(model, temperature=0.5)
        n = 48
        composite = model.discretize(n)
        ledger, _ = composite.trajectory(rho_s, rho_e)
        h = 1e-3
        samples = composite.characteristic_function(
            rho_s, rho_e, fd_stencil_grid(h, order=1, richardson=True), counting="heat"
        )
        assert moment_fd(samples, 1, h=h) == pytest.approx(-ledger.heat, abs=1e-7)

    def test_work_counting_function_trivial_for_constant_system(self):
        model = exchange_model(0.2, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 3.0))
        rho_s, rho_e = thermal_pair(model)
        samples = model.discretize(24).characteristic_function(rho_s, rho_e, symmetric_grid(3.0, 13))
        assert np.max(np.abs(samples.values - 1.0)) <= 1e-12

    def test_refresh_keeps_identity_and_changes_flow(self):
        model = exchange_model(0.3)
        rho_s, rho_e = thermal_pair(model)
        plain, _ = model.discretize(64).trajectory(rho_s, rho_e)
        refreshed, _ = model.discretize(64).trajectory(rho_s, rho_e, refresh_every=1)
        assert refreshed.work == pytest.approx(
            refreshed.internal_energy_change - refreshed.heat, abs=1e-12
        )
        assert abs(refreshed.heat - plain.heat) > 1e-6

    def test_entropy_changes_match_per_state_entropy(self):
        # reference: evolve the product state and take each reduced state's
        # entropy on its own
        model = exchange_model(0.3)
        rho_s, rho_e = thermal_pair(model)
        composite = model.discretize(24)
        ledger, _ = composite.trajectory(rho_s, rho_e)
        rho = tensor(rho_s.matrix, rho_e.matrix)
        entropies = [von_neumann_entropy(rho_s)]
        for e in composite.propagators:
            rho = e @ rho @ e.conj().T
            entropies.append(von_neumann_entropy(DensityOperator(partial_trace_env(rho, 2, 2), psd_tol=1e-8)))
        assert np.max(np.abs(ledger.entropy_increments - np.diff(entropies))) <= 1e-14
        assert np.max(np.abs(ledger.entropy_increments)) > 1e-3

    def test_unphysical_reduced_state_is_numerical_error(self, monkeypatch):
        import qworkstats.open_system as open_module

        model = exchange_model(0.1)
        rho_s, rho_e = thermal_pair(model)
        composite = model.discretize(8)
        monkeypatch.setattr(open_module, "partial_trace_env", lambda *a: np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(NumericalError, match="reduced state 1 .*smallest eigenvalue -5"):
            composite.trajectory(rho_s, rho_e)

    def test_refresh_every_validated(self):
        model = exchange_model(0.1)
        rho_s, rho_e = thermal_pair(model)
        with pytest.raises(ValueError, match="refresh_every"):
            model.discretize(8).trajectory(rho_s, rho_e, refresh_every=0)

    def test_unitary_step_on_entangled_state_dissipates_nothing(self, rng):
        # a decoupled step contributes exactly zero heat even when the prior
        # state is system-environment entangled
        h_s = random_hermitian(2, rng)
        h_e = random_hermitian(2, rng)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = pure_state_density(psi).matrix
        step = tensor(expm_unitary(h_s, 0.3).matrix, expm_unitary(h_e, 0.3).matrix)
        rho_after = step @ rho @ step.conj().T
        q_step = np.trace(
            h_s.matrix @ (partial_trace_env(rho_after, 2, 2) - partial_trace_env(rho, 2, 2))
        )
        assert abs(q_step) <= 1e-13


class TestIncrementForm:
    def test_constant_drive_zero_work(self):
        model = exchange_model(0.3, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 2.0))
        rho_s, rho_e = thermal_pair(model)
        assert model.discretize(32).trajectory(rho_s, rho_e)[1] == 0.0

    def test_decoupled_ramp_gives_energy_balance(self):
        model = exchange_model(0.0)
        rho_s, rho_e = thermal_pair(model)
        n = 64
        ledger, increments = model.discretize(n).trajectory(rho_s, rho_e)
        assert increments == pytest.approx(ledger.internal_energy_change, abs=1e-10)

    def test_regrouping_identity(self):
        model = exchange_model(0.07)
        rho_s, rho_e = thermal_pair(model)
        for n in (16, 96):
            ledger, increments = model.discretize(n).trajectory(rho_s, rho_e)
            assert increments == pytest.approx(ledger.work, abs=1e-12)


class TestEnvironmentDuality:
    def test_system_energy_counting_equals_mirrored_heat_counting(self):
        # exact identity for constant system Hamiltonians, any coupling:
        # boundary kicks at +lam equal block kicks at -lam
        model = exchange_model(0.4, env_gap=1.7, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 2.0))
        n = 24
        composite = model.discretize(n)
        for lam in (0.5, 1.1):
            boundary = (
                tensor(expm_unitary(model.drive(0.0), -0.5 * lam).matrix, np.eye(2))
                @ composite.counting_operator(0.0, "heat").matrix
                @ tensor(expm_unitary(model.drive(0.0), 0.5 * lam).matrix, np.eye(2))
            )
            assert max_abs(boundary - composite.counting_operator(-lam, "heat").matrix) <= 1e-12

    def test_deviation_shrinks_linearly_with_coupling(self):
        protocol = constant_protocol(cyclic_qubit_hamiltonian(1.0), 3.0)
        grid = symmetric_grid(3.0, 21)
        devs = []
        for g in (0.1, 0.05, 0.025):
            model = exchange_model(g, env_gap=1.8, protocol=protocol)
            devs.append(model.discretize(48).duality_deviation(PLUS, PLUS, grid))
        assert devs[0] > devs[1] > devs[2]
        for a, b in zip(devs, devs[1:]):
            assert 1.5 <= a / b <= 2.5

    def test_deviation_second_order_for_diagonal_states(self):
        # with bare-energy-diagonal initial states the first-order term
        # vanishes and the duality is even tighter (quartering per halving)
        protocol = constant_protocol(cyclic_qubit_hamiltonian(1.0), 3.0)
        grid = symmetric_grid(3.0, 21)
        devs = []
        for g in (0.1, 0.05):
            model = exchange_model(g, env_gap=1.8, protocol=protocol)
            rho_s, rho_e = thermal_pair(model)
            devs.append(model.discretize(48).duality_deviation(rho_s, rho_e, grid))
        assert 3.0 <= devs[0] / devs[1] <= 5.0


class TestFastDecoherence:
    def test_constant_hamiltonian_flat_ledger(self):
        ledger = fast_decoherence_run(constant_protocol(cyclic_qubit_hamiltonian(1.0), 1.0), 1.0, 32)
        assert np.max(np.abs(ledger.heat_increments)) <= 1e-14
        assert np.max(np.abs(ledger.entropy_increments)) <= 1e-14

    def test_quasi_static_entropy_heat_relation(self):
        protocol = gap_ramp_protocol(1.0, 1.5, 1.0)
        temperature = 1.0
        ledger = fast_decoherence_run(protocol, temperature, 512)
        q = ledger.heat_increments
        ds = ledger.entropy_increments
        rel = np.abs(q - temperature * ds) / np.maximum(np.abs(q), 1e-12)
        assert rel.max() <= 1e-3

    def test_relation_degrades_as_steps_shrink(self):
        protocol = gap_ramp_protocol(1.0, 1.5, 1.0)
        temperature = 1.0
        errors = []
        for n in (512, 128, 32):
            ledger = fast_decoherence_run(protocol, temperature, n)
            q = ledger.heat_increments
            ds = ledger.entropy_increments
            errors.append(float(np.max(np.abs(q - temperature * ds) / np.maximum(np.abs(q), 1e-12))))
        assert errors[0] < errors[1] < errors[2]

    def test_heat_tracks_total_entropy(self):
        protocol = gap_ramp_protocol(1.0, 1.5, 1.0)
        ledger = fast_decoherence_run(protocol, 0.8, 512)
        assert ledger.heat == pytest.approx(0.8 * ledger.entropy_increments.sum(), rel=1e-3)

    def test_temperature_validated(self):
        with pytest.raises(ValueError, match="temperature"):
            fast_decoherence_run(gap_ramp_protocol(1.0, 1.5, 1.0), -1.0, 8)

    @pytest.mark.parametrize("dim,temperature", [(2, 1.0), (3, 0.7), (5, 0.05)])
    def test_batched_ledger_matches_per_state_loop(self, dim, temperature):
        # the per-step gibbs_state / von_neumann_entropy loop the batched
        # eigendecomposition replaced, kept as its reference
        protocol = random_ramp_protocol(dim, 1.0, np.random.default_rng(40 + dim), scale=3.0)
        n = 64
        ledger = fast_decoherence_run(protocol, temperature, n)
        drive = discretize(protocol, n)
        hams = [drive.h_start.matrix, *drive.hamiltonians[1:], drive.h_end.matrix]
        states = [gibbs_state(h, temperature).matrix for h in hams]
        entropies = [von_neumann_entropy(rho) for rho in states]
        # summation order differs: allow 64 ulps at the Hamiltonian's scale
        tol = 64 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(hams))))
        rows = zip(ledger.k, ledger.time, ledger.heat_increments, ledger.entropy_increments)
        for k, (row_k, time, row_heat, row_entropy_change) in enumerate(rows, start=1):
            assert row_k == k and time == k * drive.dt
            heat = float(np.trace(hams[k] @ (states[k] - states[k - 1])).real)
            assert abs(row_heat - heat) <= tol
            assert abs(row_entropy_change - (entropies[k] - entropies[k - 1])) <= tol
        du = float(np.trace(hams[-1] @ states[-1]).real - np.trace(hams[0] @ states[0]).real)
        assert abs(ledger.internal_energy_change - du) <= tol

    def test_large_gap_does_not_overflow(self):
        ledger = fast_decoherence_run(gap_ramp_protocol(2000.0, 2100.0, 1.0), 1.0, 16)
        assert np.all(np.isfinite(ledger.heat_increments))
        assert np.max(np.abs(ledger.entropy_increments)) <= 1e-12


class TestStepRule:
    def test_composite_needs_left_samples(self):
        model = exchange_model(0.1)
        drive = discretize(model.drive, 8, rule="magnus4")
        with pytest.raises(ValueError, match="left"):
            DiscretizedComposite(model, drive)


class TestEnvironmentPresets:
    def test_qubit_exchange_shapes(self):
        h_env, h_se = qubit_exchange_environment(1.0)
        assert h_env.dim == 2 and h_se.dim == 4
        # exchange conserves total excitation number
        number = tensor(np.diag([0.0, 1.0]), np.eye(2)) + tensor(np.eye(2), np.diag([0.0, 1.0]))
        assert max_abs(number @ h_se.matrix - h_se.matrix @ number) <= 1e-14

    def test_two_qubit_environment_shapes(self):
        h_env, h_se = two_qubit_exchange_environment(1.0)
        assert h_env.dim == 4 and h_se.dim == 8

    def test_oscillator_environment(self):
        h_env, h_se = oscillator_environment(1.0, 4)
        assert h_env.dim == 4 and h_se.dim == 8
        assert np.allclose(np.diag(h_env.matrix).real, [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="truncation"):
            oscillator_environment(1.0, 12)

    def test_oscillator_model_ledger_identity(self):
        protocol = gap_ramp_protocol(0.9, 1.1, 4.0)
        h_env, h_se = oscillator_environment(1.0, 4)
        model = CompositeModel(protocol, h_env, h_se, coupling_scale=0.05)
        rho_s = eigenstate_density(protocol(0.0), 1)
        rho_e = gibbs_state(h_env, 1.0)
        ledger, increments = model.discretize(48).trajectory(rho_s, rho_e)
        assert ledger.work == pytest.approx(ledger.internal_energy_change - ledger.heat, abs=1e-12)
        assert increments == pytest.approx(ledger.work, abs=1e-12)

    def test_coupling_dimension_validated(self):
        with pytest.raises(ValueError, match="coupling dim"):
            CompositeModel(
                gap_ramp_protocol(1.0, 1.2, 1.0),
                HermitianOperator(np.eye(2)),
                HermitianOperator(np.eye(2)),
            )


class TestOpenRun:
    @pytest.mark.parametrize("duality", [False, True])
    def test_open_run_discretizes_composite_once(self, monkeypatch, duality):
        from qworkstats import Scenario
        from qworkstats.runner import run_scenario

        calls = []
        original = DiscretizedComposite.__init__
        monkeypatch.setattr(
            DiscretizedComposite, "__init__", lambda c, m, d: calls.append(d.n_steps) or original(c, m, d)
        )
        overrides = {"drive.protocol": "constant", "duality": True} if duality else {}
        scenario = Scenario.from_kind("open").with_overrides({"drive.steps": 16, **overrides})
        report = run_scenario(scenario, tol_report=True).report
        assert ("duality_deviation" in report["results"]) == duality
        assert calls == [16]

    def test_open_run_diagonalizes_initial_hamiltonian_once(self, monkeypatch):
        # the resonant gap, the system state and the work kicks share one eigensystem of H(0)
        import qworkstats.drive as drive_module
        import qworkstats.linalg as linalg_module
        import qworkstats.scenario as scenario_module
        from qworkstats import Scenario
        from qworkstats.runner import run_scenario

        # a Rabi H(0) is not diagonal, so it differs from the resonant H_E
        scenario = Scenario.from_kind("open").with_overrides({"drive.protocol": "rabi", "drive.steps": 16})
        h0 = scenario_module.build_protocol(scenario.config["drive"])(0.0).matrix
        calls = []
        original = linalg_module.eig_hermitian
        for module in (drive_module, linalg_module, scenario_module):
            monkeypatch.setattr(module, "eig_hermitian", lambda h: calls.append(mat(h)) or original(h))
        run_scenario(scenario, tol_report=True)
        assert sum(m.shape == h0.shape and np.array_equal(m, h0) for m in calls) == 1

    def test_refresh_keeps_increment_regrouping(self):
        # ledger and increment form read the same refreshed trajectory
        from qworkstats import Scenario
        from qworkstats.runner import run_scenario

        scenario = Scenario.from_kind("open", {"environment.refresh_every": 4})
        checks = {c["name"]: c for c in run_scenario(scenario, tol_report=True).report["checks"]}
        assert checks["increment_regrouping"]["pass"]
        assert checks["ledger_identity"]["pass"]

    def test_batched_engine_memory_is_bounded(self):
        # the 8-level oscillator (D = 16) is the widest preset; batching all
        # 96 steps x 41 counting fields at once would take about 16 MB
        import tracemalloc

        from qworkstats import Scenario
        from qworkstats.scenario import build_composite, build_grid

        scenario = Scenario.from_kind("open").with_overrides(
            {"environment.preset": "oscillator", "environment.levels": 8}
        )
        grid = build_grid(scenario)
        tracemalloc.start()
        try:
            composite, rho_s, rho_e = build_composite(scenario)
            discretize_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracemalloc.start()
            composite.characteristic_function(rho_s, rho_e, grid)
            characteristic_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (composite.dim, composite.drive.n_steps, grid.size) == (16, 96, 41)
        assert discretize_peak <= 1.5 * 2**20
        assert characteristic_peak <= 1.5 * 2**20
