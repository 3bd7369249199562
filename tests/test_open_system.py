import numpy as np
import pytest

from qworkstats import (
    DensityOperator,
    DiscretizedComposite,
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
    spectral_decomposition,
    symmetric_grid,
    tensor,
    two_qubit_exchange_environment,
    von_neumann_entropy,
)
from qworkstats.fcs import fd_stencil_grid, moment_fd
from qworkstats.linalg import NumericalError, max_abs

from conftest import PAULI_X, PAULI_Z, assert_unitary, composite_hamiltonian, step_slice


def exchange_composite(coupling, n_steps, env_gap=1.0, protocol=None):
    drive = discretize(protocol or gap_ramp_protocol(0.8, 1.2, 6.0), n_steps)
    h_env, h_se = qubit_exchange_environment(env_gap)
    return DiscretizedComposite(drive, h_env, h_se, coupling_scale=coupling)


def thermal_pair(composite, temperature=1.0, excited=True):
    rho_s = eigenstate_density(composite.drive.h_start, 1 if excited else 0)
    rho_e = gibbs_state(composite.h_env, temperature)
    return rho_s, rho_e


PLUS = pure_state_density(np.array([1.0, 1.0]) / np.sqrt(2.0))


class TestMeasurementBlock:
    # the step-k block is heat counting on the one-step slice of step k
    def test_zero_counting_field_is_step_propagator(self):
        composite, k = exchange_composite(0.3, 8), 2
        drive = composite.drive
        step = expm_unitary(composite_hamiltonian(composite, drive.hamiltonians[k]), drive.dt).matrix
        assert max_abs(composite.propagators[k] - step) <= 1e-12
        block = step_slice(composite, k).counting_operators(np.array([0.0]), "heat")
        assert max_abs(block - step) <= 1e-12

    def test_decoupled_kicks_commute_away(self):
        composite, k = exchange_composite(0.0, 6), 4
        drive = composite.drive
        step = expm_unitary(composite_hamiltonian(composite, drive.hamiltonians[k]), drive.dt).matrix
        blocks = step_slice(composite, k).counting_operators(np.array([0.4, -1.3]), "heat")
        assert_unitary(blocks)
        assert max_abs(blocks - step) <= 1e-12

    def test_derivative_is_half_commutator(self, rng):
        # finite-difference oracle for -i dB/dlam at 0; analytically (1/2)[E, A]
        composite = DiscretizedComposite(
            discretize(linear_ramp_protocol(PAULI_Z, PAULI_X, 1.0), 8),
            random_hermitian(2, rng),
            random_hermitian(4, rng),
            coupling_scale=0.7,
        )
        k, h = 3, 1e-5
        drive = composite.drive
        plus, minus = step_slice(composite, k).counting_operators(np.array([h, -h]), "heat")
        fd = -1j * (plus - minus) / (2 * h)
        e = expm_unitary(composite_hamiltonian(composite, drive.hamiltonians[k]), drive.dt).matrix
        a = tensor(drive.hamiltonians[k], np.eye(2))
        assert max_abs(fd - 0.5 * (e @ a - a @ e)) <= 1e-7


class TestCountingOperators:
    def test_full_operator_at_zero_is_plain_product(self):
        composite = exchange_composite(0.4, 6)
        drive = composite.drive
        u = np.eye(4, dtype=complex)
        for h_s in drive.hamiltonians:
            u = expm_unitary(composite_hamiltonian(composite, h_s), drive.dt).matrix @ u
        work = composite.counting_operators(np.array([0.0]), "work")
        assert_unitary(work)
        assert max_abs(work[0] - u) <= 1e-12

    def test_single_block_constant_system_collapses(self):
        # boundary kicks cancel the block kicks exactly for a constant drive
        composite = exchange_composite(0.5, 1, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 0.7))
        u = composite.counting_operators(np.array([0.9, -0.4]), "work")
        step = expm_unitary(composite_hamiltonian(composite, composite.drive.h_start), 0.7).matrix
        assert_unitary(u)
        assert max_abs(u - step) <= 1e-12

    def test_decoupled_reduction_to_closed_system(self):
        composite = exchange_composite(0.0, 24)
        grid = symmetric_grid(3.0, 15)
        rho_s, rho_e = thermal_pair(composite)
        g_open = composite.characteristic_function(rho_s, rho_e, grid)
        g_closed = characteristic_function(spectral_decomposition(rho_s, composite.drive), grid)
        assert np.max(np.abs(g_open.values - g_closed.values)) <= 1e-10

    def test_environment_counting_requires_constant_system(self):
        with pytest.raises(ValueError, match="constant"):
            exchange_composite(0.1, 8).counting_operators(np.array([0.3]), "environment")

    def test_environment_counting_trivial_when_decoupled(self):
        composite = exchange_composite(0.0, 16, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 2.0))
        grid = symmetric_grid(2.0, 11)
        rho_s, rho_e = thermal_pair(composite)
        g_env = composite.characteristic_function(rho_s, rho_e, grid, counting="environment")
        assert np.max(np.abs(g_env.values - 1.0)) <= 1e-12

    def test_environment_counting_matches_kronecker_product(self):
        # oracle exp(+i lam/2 H_E) E_{N-1} ... E_0 exp(-i lam/2 H_E) from explicit
        # Kronecker products; the 8-level oscillator (D = 16) spans three step blocks
        from qworkstats.open_system import _STEP_BLOCK

        h_env, h_se = oscillator_environment(1.3, 8)
        drive = discretize(constant_protocol(cyclic_qubit_hamiltonian(1.0), 3.0), 96)
        composite = DiscretizedComposite(drive, h_env, h_se, coupling_scale=0.3)
        assert drive.n_steps > 2 * (_STEP_BLOCK // composite.dim**2)
        product = np.eye(composite.dim, dtype=complex)
        for h_s in drive.hamiltonians:
            product = expm_unitary(composite_hamiltonian(composite, h_s), drive.dt).matrix @ product
        lams = np.array([0.0, 0.7, -1.3])
        for lam, operator in zip(lams, composite.counting_operators(lams, "environment")):
            kick = tensor(np.eye(2), expm_unitary(h_env, 0.5 * lam).matrix)  # exp(-i lam/2 H_E)
            assert max_abs(operator - kick.conj().T @ product @ kick) <= 1e-12

    def test_unknown_counting_mode(self):
        composite = exchange_composite(0.1, 4, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 1.0))
        rho_s, rho_e = thermal_pair(composite)
        with pytest.raises(ValueError, match="counting"):
            composite.characteristic_function(
                rho_s, rho_e, symmetric_grid(1.0, 3), counting="bogus"
            )


class TestHeatLedger:
    def test_decoupled_steps_dissipate_nothing(self):
        composite = exchange_composite(0.0, 32)
        rho_s, rho_e = thermal_pair(composite)
        ledger = composite.trajectory(rho_s, rho_e)[0]
        assert np.max(np.abs(ledger.heat_increments)) <= 1e-12
        assert ledger.work == pytest.approx(ledger.internal_energy_change, abs=1e-12)

    def test_constant_hamiltonian_all_change_is_heat(self):
        composite = exchange_composite(0.2, 48, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 3.0))
        rho_s, rho_e = thermal_pair(composite, temperature=0.5)
        ledger = composite.trajectory(rho_s, rho_e)[0]
        assert abs(ledger.work) <= 1e-10
        assert ledger.heat == pytest.approx(ledger.internal_energy_change, abs=1e-10)
        assert abs(ledger.heat) > 1e-3  # something actually flows

    def test_ledger_identity(self):
        composite = exchange_composite(0.05, 96)
        rho_s, rho_e = thermal_pair(composite)
        ledger = composite.trajectory(rho_s, rho_e)[0]
        assert ledger.work == pytest.approx(ledger.internal_energy_change - ledger.heat, abs=1e-12)

    def test_work_matches_fd_moment_of_counting_function(self):
        composite = exchange_composite(0.05, 96)
        rho_s, rho_e = thermal_pair(composite)
        ledger, _ = composite.trajectory(rho_s, rho_e)
        h = 1e-3
        samples = composite.characteristic_function(
            rho_s, rho_e, fd_stencil_grid(h, order=1)
        )
        assert moment_fd(samples, 1, h=h) == pytest.approx(ledger.work, abs=1e-7)

    def test_heat_cgf_first_moment_is_minus_heat(self):
        composite = exchange_composite(0.2, 48, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 3.0))
        rho_s, rho_e = thermal_pair(composite, temperature=0.5)
        ledger, _ = composite.trajectory(rho_s, rho_e)
        h = 1e-3
        samples = composite.characteristic_function(
            rho_s, rho_e, fd_stencil_grid(h, order=1), counting="heat"
        )
        assert moment_fd(samples, 1, h=h) == pytest.approx(-ledger.heat, abs=1e-7)

    def test_work_counting_function_trivial_for_constant_system(self):
        composite = exchange_composite(0.2, 24, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 3.0))
        rho_s, rho_e = thermal_pair(composite)
        samples = composite.characteristic_function(rho_s, rho_e, symmetric_grid(3.0, 13))
        assert np.max(np.abs(samples.values - 1.0)) <= 1e-12

    def test_refresh_keeps_identity_and_changes_flow(self):
        composite = exchange_composite(0.3, 64)
        rho_s, rho_e = thermal_pair(composite)
        plain, _ = composite.trajectory(rho_s, rho_e)
        refreshed, _ = composite.trajectory(rho_s, rho_e, refresh_every=1)
        assert refreshed.work == pytest.approx(
            refreshed.internal_energy_change - refreshed.heat, abs=1e-12
        )
        assert abs(refreshed.heat - plain.heat) > 1e-6

    def test_entropy_changes_match_per_state_entropy(self):
        # reference: evolve the product state and take each reduced state's
        # entropy on its own
        composite = exchange_composite(0.3, 24)
        rho_s, rho_e = thermal_pair(composite)
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

        composite = exchange_composite(0.1, 8)
        rho_s, rho_e = thermal_pair(composite)
        monkeypatch.setattr(open_module, "partial_trace_env", lambda *a: np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(NumericalError, match="reduced state 1 .*smallest eigenvalue -5"):
            composite.trajectory(rho_s, rho_e)

    def test_refresh_every_validated(self):
        composite = exchange_composite(0.1, 8)
        rho_s, rho_e = thermal_pair(composite)
        with pytest.raises(ValueError, match="refresh_every"):
            composite.trajectory(rho_s, rho_e, refresh_every=0)

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
        composite = exchange_composite(0.3, 32, protocol=constant_protocol(cyclic_qubit_hamiltonian(1.0), 2.0))
        rho_s, rho_e = thermal_pair(composite)
        assert composite.trajectory(rho_s, rho_e)[1] == 0.0

    def test_decoupled_ramp_gives_energy_balance(self):
        composite = exchange_composite(0.0, 64)
        rho_s, rho_e = thermal_pair(composite)
        ledger, increments = composite.trajectory(rho_s, rho_e)
        assert increments == pytest.approx(ledger.internal_energy_change, abs=1e-10)

    def test_regrouping_identity(self):
        for n in (16, 96):
            composite = exchange_composite(0.07, n)
            ledger, increments = composite.trajectory(*thermal_pair(composite))
            assert increments == pytest.approx(ledger.work, abs=1e-12)


class TestEnvironmentDuality:
    def test_system_energy_counting_equals_mirrored_heat_counting(self):
        # exact identity for constant system Hamiltonians, any coupling:
        # boundary kicks at +lam equal block kicks at -lam
        protocol = constant_protocol(cyclic_qubit_hamiltonian(1.0), 2.0)
        composite = exchange_composite(0.4, 24, env_gap=1.7, protocol=protocol)
        operators = composite.counting_operators(np.array([0.0, -0.5, -1.1]), "heat")
        assert_unitary(operators)
        h0 = composite.drive.h_start
        for lam, operator in zip((0.5, 1.1), operators[1:]):
            boundary = (
                tensor(expm_unitary(h0, -0.5 * lam).matrix, np.eye(2))
                @ operators[0]
                @ tensor(expm_unitary(h0, 0.5 * lam).matrix, np.eye(2))
            )
            assert max_abs(boundary - operator) <= 1e-12

    def test_deviation_shrinks_linearly_with_coupling(self):
        protocol = constant_protocol(cyclic_qubit_hamiltonian(1.0), 3.0)
        grid = symmetric_grid(3.0, 21)
        devs = []
        for g in (0.1, 0.05, 0.025):
            devs.append(exchange_composite(g, 48, env_gap=1.8, protocol=protocol).duality_deviation(PLUS, PLUS, grid))
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
            composite = exchange_composite(g, 48, env_gap=1.8, protocol=protocol)
            devs.append(composite.duality_deviation(*thermal_pair(composite), grid))
        assert 3.0 <= devs[0] / devs[1] <= 5.0


class TestFastDecoherence:
    def test_constant_hamiltonian_flat_ledger(self):
        ledger = fast_decoherence_run(discretize(constant_protocol(cyclic_qubit_hamiltonian(1.0), 1.0), 32), 1.0)
        assert np.max(np.abs(ledger.heat_increments)) <= 1e-14
        assert np.max(np.abs(ledger.entropy_increments)) <= 1e-14

    def test_quasi_static_entropy_heat_relation(self):
        protocol = gap_ramp_protocol(1.0, 1.5, 1.0)
        temperature = 1.0
        ledger = fast_decoherence_run(discretize(protocol, 512), temperature)
        q = ledger.heat_increments
        ds = ledger.entropy_increments
        rel = np.abs(q - temperature * ds) / np.maximum(np.abs(q), 1e-12)
        assert rel.max() <= 1e-3

    def test_relation_degrades_as_steps_shrink(self):
        protocol = gap_ramp_protocol(1.0, 1.5, 1.0)
        temperature = 1.0
        errors = []
        for n in (512, 128, 32):
            ledger = fast_decoherence_run(discretize(protocol, n), temperature)
            q = ledger.heat_increments
            ds = ledger.entropy_increments
            errors.append(float(np.max(np.abs(q - temperature * ds) / np.maximum(np.abs(q), 1e-12))))
        assert errors[0] < errors[1] < errors[2]

    def test_heat_tracks_total_entropy(self):
        protocol = gap_ramp_protocol(1.0, 1.5, 1.0)
        ledger = fast_decoherence_run(discretize(protocol, 512), 0.8)
        assert ledger.heat == pytest.approx(0.8 * ledger.entropy_increments.sum(), rel=1e-3)

    def test_temperature_validated(self):
        with pytest.raises(ValueError, match="temperature"):
            fast_decoherence_run(discretize(gap_ramp_protocol(1.0, 1.5, 1.0), 8), -1.0)

    @pytest.mark.parametrize("dim,temperature", [(2, 1.0), (3, 0.7), (5, 0.05)])
    def test_batched_ledger_matches_per_state_loop(self, dim, temperature):
        # the per-step gibbs_state / von_neumann_entropy loop the batched
        # eigendecomposition replaced, kept as its reference
        protocol = random_ramp_protocol(dim, 1.0, np.random.default_rng(40 + dim), scale=3.0)
        n = 64
        drive = discretize(protocol, n)
        ledger = fast_decoherence_run(drive, temperature)
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
        ledger = fast_decoherence_run(discretize(gap_ramp_protocol(2000.0, 2100.0, 1.0), 16), 1.0)
        assert np.all(np.isfinite(ledger.heat_increments))
        assert np.max(np.abs(ledger.entropy_increments)) <= 1e-12


class TestStepRule:
    def test_composite_needs_left_samples(self):
        h_env, h_se = qubit_exchange_environment(1.0)
        drive = discretize(gap_ramp_protocol(0.8, 1.2, 6.0), 8, rule="magnus4")
        with pytest.raises(ValueError, match="left"):
            DiscretizedComposite(drive, h_env, h_se, coupling_scale=0.1)


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
        composite = DiscretizedComposite(discretize(protocol, 48), h_env, h_se, coupling_scale=0.05)
        rho_s = eigenstate_density(protocol(0.0), 1)
        rho_e = gibbs_state(h_env, 1.0)
        ledger, increments = composite.trajectory(rho_s, rho_e)
        assert ledger.work == pytest.approx(ledger.internal_energy_change - ledger.heat, abs=1e-12)
        assert increments == pytest.approx(ledger.work, abs=1e-12)

    def test_coupling_dimension_validated(self):
        with pytest.raises(ValueError, match="coupling dim"):
            DiscretizedComposite(
                discretize(gap_ramp_protocol(1.0, 1.2, 1.0), 4),
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
            DiscretizedComposite, "__init__", lambda c, d, *args: calls.append(d.n_steps) or original(c, d, *args)
        )
        overrides = {"drive.protocol": "constant", "duality": True} if duality else {}
        scenario = Scenario.from_kind("open").with_overrides({"drive.steps": 16, **overrides})
        report = run_scenario(scenario, tol_report=True).report
        assert ("duality_deviation" in report["results"]) == duality
        assert calls == [16]

    def test_open_run_diagonalizes_initial_hamiltonian_once(self, monkeypatch):
        # the resonant gap, the system state, the work kicks and the gridpoint
        # eigensystems share one eigensystem each of H(0) and H(T); the environment
        # state and the environment counting share one of H_E
        from qworkstats import Scenario
        from qworkstats.runner import run_scenario
        from qworkstats.scenario import build_composite

        # a Rabi H(0) is not diagonal, so it differs from the resonant H_E
        scenario = Scenario.from_kind("open").with_overrides({"drive.protocol": "rabi", "drive.steps": 16})
        composite = build_composite(scenario)[0]
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: seen.append(m) or eigh(m))
        run_scenario(scenario, tol_report=True)
        qubits = [h for m in seen if m.shape[-2:] == (2, 2) for h in m.reshape(-1, 2, 2)]
        for h in (composite.drive.h_start, composite.drive.h_end, composite.h_env):
            assert sum(np.array_equal(m, h.matrix) for m in qubits) == 1
        # N step propagators, the N - 1 interior gridpoints, H(0), H(T) and H_E
        assert sum(len(m.reshape(-1, *m.shape[-2:])) for m in seen) == 2 * 16 + 2

    @pytest.mark.parametrize("coupling", [1e6, 1e10])
    @pytest.mark.parametrize(
        "environment",
        [{}, {"environment.preset": "oscillator", "environment.levels": 8}],
        ids=["qubit-exchange", "oscillator-8"],
    )
    def test_large_step_phases_pass_every_check(self, coupling, environment):
        # dt*||H|| up to about 1e9: every step propagator must stay unitary, or
        # the reduced states drift off unit trace within a few steps
        from qworkstats import Scenario
        from qworkstats.runner import run_scenario

        scenario = Scenario.from_kind("open").with_overrides({"environment.coupling": coupling, **environment})
        checks = run_scenario(scenario, tol_report=True).report["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == []

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
