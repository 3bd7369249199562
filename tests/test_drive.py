import numpy as np
import pytest

from qworkstats import (
    DriveProtocol,
    HermitianOperator,
    constant_protocol,
    cyclic_qubit_drive,
    cyclic_qubit_hamiltonian,
    cyclic_qubit_protocol,
    cyclic_qubit_state,
    cyclic_qubit_unitary,
    discretize,
    discretize_to_tolerance,
    evolution_operator,
    expm_unitary,
    linear_ramp_protocol,
    piecewise_constant_protocol,
    rabi_protocol,
    reversed_protocol,
)
from qworkstats.linalg import max_abs

from conftest import PAULI_X, PAULI_Z


def rabi_fixture():
    return rabi_protocol(splitting=1.0, amplitude=0.5, frequency=1.0, duration=1.0)


class TestDiscretize:
    def test_constant_four_steps(self):
        drive = discretize(constant_protocol(PAULI_Z, 2.0), 4)
        assert drive.n_steps == 4
        assert drive.dt == pytest.approx(0.5)
        for _, h in drive.steps:
            assert max_abs(h.matrix - PAULI_Z) == 0.0

    def test_linear_ramp_two_steps(self):
        protocol = linear_ramp_protocol(PAULI_Z, PAULI_X, 1.0)
        drive = discretize(protocol, 2)
        times = [t for t, _ in drive.steps]
        assert times == [0.0, 0.5]
        assert max_abs(drive.steps[0][1].matrix - PAULI_Z) <= 1e-15
        assert max_abs(drive.steps[1][1].matrix - 0.5 * (PAULI_Z + PAULI_X)) <= 1e-15
        assert max_abs(drive.h_end.matrix - PAULI_X) <= 1e-15

    def test_grid_nesting(self):
        protocol = rabi_fixture()
        coarse = discretize(protocol, 8)
        fine = discretize(protocol, 16)
        for k in range(8):
            assert max_abs(coarse.steps[k][1].matrix - fine.steps[2 * k][1].matrix) <= 1e-15

    def test_rejects_bad_step_count(self):
        with pytest.raises(ValueError, match="n_steps"):
            discretize(constant_protocol(PAULI_Z, 1.0), 0)

    def test_protocol_rejects_out_of_window_time(self):
        protocol = constant_protocol(PAULI_Z, 1.0)
        with pytest.raises(ValueError, match="window"):
            protocol(1.5)


class TestEvolutionOperator:
    def test_constant_drive_any_step_count(self):
        protocol = constant_protocol(PAULI_Z + 0.3 * PAULI_X, 0.9)
        exact = expm_unitary(HermitianOperator(PAULI_Z + 0.3 * PAULI_X), 0.9).matrix
        for n in (1, 3, 7):
            u = evolution_operator(discretize(protocol, n)).matrix
            assert max_abs(u - exact) <= 1e-12

    def test_two_step_anticommuting_by_hand(self):
        protocol = piecewise_constant_protocol([PAULI_Z, PAULI_X], 1.0)
        u = evolution_operator(discretize(protocol, 2)).matrix
        by_hand = (
            expm_unitary(HermitianOperator(PAULI_X), 0.5).matrix
            @ expm_unitary(HermitianOperator(PAULI_Z), 0.5).matrix
        )
        assert max_abs(u - by_hand) <= 1e-13

    def test_first_order_convergence_ratio(self):
        protocol = rabi_fixture()
        devs = {}
        for n in (256, 512, 1024):
            u1 = evolution_operator(discretize(protocol, n)).matrix
            u2 = evolution_operator(discretize(protocol, 2 * n)).matrix
            devs[n] = max_abs(u1 - u2)
        assert devs[256] > devs[512] > devs[1024]
        for n in (256, 512):
            assert 1.7 <= devs[n] / devs[2 * n] <= 2.3

    def test_reversed_protocol_transposes_for_real_symmetric(self):
        # real-symmetric drives: the reversed protocol converges to U^T
        protocol = linear_ramp_protocol(PAULI_Z, PAULI_X, 1.0)
        errs = []
        for n in (64, 128, 256):
            u = evolution_operator(discretize(protocol, n)).matrix
            u_rev = evolution_operator(discretize(reversed_protocol(protocol), n)).matrix
            errs.append(max_abs(u_rev - u.T))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 2.2 * errs[0] / 4

    def test_negated_reversed_protocol_inverts(self):
        # running the negated, time-reversed drive undoes the evolution
        protocol = rabi_fixture()
        undo = DriveProtocol(
            protocol.duration,
            lambda t: HermitianOperator(-protocol(protocol.duration - t).matrix),
        )
        errs = []
        for n in (64, 128, 256):
            u = evolution_operator(discretize(protocol, n)).matrix
            u_undo = evolution_operator(discretize(undo, n)).matrix
            errs.append(max_abs(u_undo - u.conj().T))
        assert errs[0] > errs[1] > errs[2]

    def test_discretize_to_tolerance(self):
        drive = discretize_to_tolerance(rabi_fixture(), tol=1e-6)
        finer = discretize(rabi_fixture(), 2 * drive.n_steps)
        dev = max_abs(evolution_operator(drive).matrix - evolution_operator(finer).matrix)
        assert dev <= 1e-6

    def test_discretize_to_tolerance_constant_is_cheap(self):
        drive = discretize_to_tolerance(constant_protocol(PAULI_Z, 1.0), tol=1e-9)
        assert drive.n_steps <= 64

    def test_propagator_is_cached_evolution_operator(self):
        drive = discretize(rabi_fixture(), 32)
        assert drive.propagator is drive.propagator
        assert np.array_equal(drive.propagator.matrix, evolution_operator(drive).matrix)

    def test_closed_run_computes_propagator_once(self, monkeypatch):
        import qworkstats.drive as drive_module
        from qworkstats import Scenario
        from qworkstats.runner import run_scenario

        calls = []
        original = drive_module.evolution_operator
        monkeypatch.setattr(drive_module, "evolution_operator", lambda d: calls.append(d) or original(d))
        run_scenario(Scenario.from_kind("tmp-compare", {"drive.steps": 16}), tol_report=True)
        assert len(calls) == 1


class TestCyclicQubit:
    @pytest.mark.parametrize("alpha,xi", [(np.pi / 3, np.pi / 4), (0.3, 1.1), (1.2, 2.7)])
    def test_printed_unitary_matches_drive(self, alpha, xi):
        drive = cyclic_qubit_drive(alpha, xi, gap=1.0)
        u = evolution_operator(drive).matrix
        assert max_abs(u - cyclic_qubit_unitary(alpha, xi).matrix) <= 1e-12

    def test_cyclic_state_is_fixed_up_to_phase(self):
        alpha, xi = 0.9, 0.6
        u = cyclic_qubit_unitary(alpha, xi).matrix
        psi = cyclic_qubit_state(alpha)
        assert np.abs(np.vdot(psi, u @ psi)) == pytest.approx(1.0, abs=1e-12)
        assert np.angle(np.vdot(psi, u @ psi)) == pytest.approx(xi, abs=1e-12)

    def test_boundary_hamiltonian_ordering(self):
        h = cyclic_qubit_hamiltonian(2.0)
        assert np.allclose(h.matrix, np.diag([-1.0, 1.0]))

    def test_physical_protocol_reproduces_unitary(self):
        alpha, xi, gap = 1.0472, 0.6283, 1.0
        protocol = cyclic_qubit_protocol(alpha, xi, gap)
        assert max_abs(protocol(0.0).matrix - cyclic_qubit_hamiltonian(gap).matrix) <= 1e-15
        assert max_abs(protocol(protocol.duration).matrix - cyclic_qubit_hamiltonian(gap).matrix) <= 1e-15
        u = evolution_operator(discretize(protocol, 64)).matrix
        assert max_abs(u - cyclic_qubit_unitary(alpha, xi).matrix) <= 1e-12

    def test_physical_protocol_converges_at_odd_step_counts(self):
        alpha, xi, gap = 0.8, 0.5, 1.0
        protocol = cyclic_qubit_protocol(alpha, xi, gap)
        target = cyclic_qubit_unitary(alpha, xi).matrix
        errs = [
            max_abs(evolution_operator(discretize(protocol, n)).matrix - target)
            for n in (30, 60, 120)
        ]
        assert errs[0] > errs[1] > errs[2]
