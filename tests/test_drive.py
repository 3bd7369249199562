import numpy as np
import pytest

from qworkstats import (
    DiscretizedComposite,
    DiscretizedDrive,
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
    eig_hermitian,
    evolution_operator,
    expm_unitary,
    gap_ramp_protocol,
    linear_ramp_protocol,
    piecewise_constant_protocol,
    qubit_exchange_environment,
    rabi_protocol,
    random_ramp_protocol,
    reversed_protocol,
)
from qworkstats.linalg import NumericalError, dagger, max_abs
from qworkstats.scenario import DRIVE_PROTOCOLS, Scenario, build_protocol

from conftest import PAULI_X, PAULI_Z


def rabi_fixture():
    return rabi_protocol(splitting=1.0, amplitude=0.5, frequency=1.0, duration=1.0)


# every protocol of the library, then every protocol a scenario builds
PROTOCOLS = [
    constant_protocol(PAULI_Z, 2.0),
    linear_ramp_protocol(PAULI_Z, PAULI_X, 1.0),
    rabi_protocol(duration=1.3),
    gap_ramp_protocol(0.8, 1.4, 2.0),
    piecewise_constant_protocol([PAULI_Z, PAULI_X, PAULI_Z + PAULI_X], 1.5),
    reversed_protocol(rabi_protocol(duration=0.7)),
    random_ramp_protocol(3, 1.0, np.random.default_rng(3)),
    cyclic_qubit_protocol(0.8, 0.5, 1.0),
]
PROTOCOL_IDS = ["constant", "linear", "rabi", "gap", "piecewise", "reversed", "random", "cyclic"]
SCENARIO_PROTOCOLS = [
    build_protocol(Scenario.from_kind("closed", {"drive.protocol": p}).config["drive"]) for p in DRIVE_PROTOCOLS
]


class TestDiscretize:
    def test_constant_four_steps(self):
        drive = discretize(constant_protocol(PAULI_Z, 2.0), 4)
        assert drive.n_steps == 4
        assert drive.dt == pytest.approx(0.5)
        for h in drive.hamiltonians:
            assert max_abs(h - PAULI_Z) == 0.0

    def test_linear_ramp_two_steps(self):
        protocol = linear_ramp_protocol(PAULI_Z, PAULI_X, 1.0)
        drive = discretize(protocol, 2)
        times = drive.times.tolist()
        assert times == [0.0, 0.5]
        assert max_abs(drive.hamiltonians[0] - PAULI_Z) <= 1e-15
        assert max_abs(drive.hamiltonians[1] - 0.5 * (PAULI_Z + PAULI_X)) <= 1e-15
        assert max_abs(drive.h_end.matrix - PAULI_X) <= 1e-15

    def test_grid_nesting(self):
        protocol = rabi_fixture()
        coarse = discretize(protocol, 8)
        fine = discretize(protocol, 16)
        for k in range(8):
            assert max_abs(coarse.hamiltonians[k] - fine.hamiltonians[2 * k]) <= 1e-15

    def test_rejects_bad_step_count(self):
        with pytest.raises(ValueError, match="n_steps"):
            discretize(constant_protocol(PAULI_Z, 1.0), 0)

    def test_protocol_rejects_out_of_window_time(self):
        protocol = constant_protocol(PAULI_Z, 1.0)
        with pytest.raises(ValueError, match="window"):
            protocol(1.5)
        with pytest.raises(ValueError, match="window"):
            protocol.sample([0.0, 0.5, -0.1])

    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=PROTOCOL_IDS)
    def test_sampled_stack_equals_scalar_calls(self, protocol):
        times = np.linspace(0.0, protocol.duration, 13)
        stack = protocol.sample(times)
        assert stack.shape == (13, protocol.dim, protocol.dim)
        for t, h in zip(times, stack):
            assert np.array_equal(h, protocol(t).matrix)

    def test_magnus4_generator_by_hand(self):
        protocol = rabi_fixture()
        drive = discretize(protocol, 3, rule="magnus4")
        assert drive.rule == "magnus4" and drive.n_steps == 3
        dt = protocol.duration / 3
        for k in range(3):
            h1 = protocol(k * dt + (0.5 - np.sqrt(3) / 6) * dt).matrix
            h2 = protocol(k * dt + (0.5 + np.sqrt(3) / 6) * dt).matrix
            by_hand = 0.5 * (h1 + h2) + 1j * np.sqrt(3) / 12 * dt * (h1 @ h2 - h2 @ h1)
            assert max_abs(drive.hamiltonians[k] - by_hand) <= 1e-15
        assert max_abs(drive.h_start.matrix - protocol(0.0).matrix) == 0.0
        assert max_abs(drive.h_end.matrix - protocol(1.0).matrix) == 0.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_magnus_stack_is_numerical_error(self):
        with pytest.raises(NumericalError, match="overflow"):
            discretize(rabi_protocol(splitting=1e308), 4, rule="magnus4")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_left_stack_is_numerical_error(self):
        with pytest.raises(NumericalError, match="overflow"):
            evolution_operator(discretize(rabi_protocol(splitting=1e308), 4))


def stack_drive(**changes):
    fields = dict(
        hamiltonians=np.stack([PAULI_Z, PAULI_X, PAULI_Z + PAULI_X]),
        dt=0.5,
        h_start=HermitianOperator(PAULI_Z),
        h_end=HermitianOperator(PAULI_X),
    )
    fields.update(changes)
    return DiscretizedDrive(**fields)


class TestDiscretizedDrive:
    def test_fields_are_read_only_views(self):
        hams = np.stack([PAULI_Z, PAULI_X, PAULI_Z + PAULI_X])
        drive = stack_drive(hamiltonians=hams)
        assert drive.rule == "left" and drive.n_steps == 3 and drive.dim == 2
        assert drive.duration == pytest.approx(1.5)
        with pytest.raises(ValueError):
            drive.hamiltonians[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            drive.times[0] = 1.0
        assert hams.flags.writeable

    @pytest.mark.parametrize(
        "changes,match",
        [
            ({"hamiltonians": np.stack([PAULI_Z, PAULI_X, [[0, 1], [0, 0]]])}, "not Hermitian"),
            ({"hamiltonians": np.stack([PAULI_Z, PAULI_X, np.full((2, 2), np.nan)])}, "non-finite"),
            ({"hamiltonians": np.zeros((0, 2, 2))}, "stack"),
            ({"hamiltonians": np.zeros((3, 2, 3))}, "stack"),
            ({"h_end": HermitianOperator(np.eye(3))}, "boundary"),
            ({"dt": 0.0}, "dt"),
            ({"rule": "midpoint"}, "step rule"),
        ],
        ids=["hermitian", "finite", "empty", "square", "boundary", "dt", "rule"],
    )
    def test_stack_checks(self, changes, match):
        with pytest.raises(ValueError, match=match):
            stack_drive(**changes)

    def test_samples_need_left_rule(self):
        drive = stack_drive()
        stack = drive.gridpoint_hamiltonians
        assert np.array_equal(stack, np.stack([PAULI_Z, PAULI_X, PAULI_Z + PAULI_X, PAULI_X]))
        assert not stack.flags.writeable and drive.gridpoint_hamiltonians is stack
        w, v = drive.gridpoint_eigensystems
        assert w.shape == (4, 2) and v.shape == (4, 2, 2)
        assert max_abs(v @ (w[..., None] * dagger(v)) - stack) <= 1e-14
        for name in ("gridpoint_hamiltonians", "gridpoint_eigensystems"):
            with pytest.raises(ValueError, match="left"):
                getattr(stack_drive(rule="magnus4"), name)

    @pytest.mark.parametrize(
        "protocol", PROTOCOLS + SCENARIO_PROTOCOLS, ids=PROTOCOL_IDS + [f"scenario-{p}" for p in DRIVE_PROTOCOLS]
    )
    def test_discretized_protocols_have_gridpoints(self, protocol):
        # H(0) is the first left sample bit for bit, so the gridpoint guard passes
        drive = discretize(protocol, 7)
        stack = drive.gridpoint_hamiltonians
        assert np.array_equal(stack[0], drive.h_start.matrix) and np.array_equal(stack[-1], drive.h_end.matrix)

    def test_synthetic_drive_has_no_gridpoints(self):
        # the cyclic drive's one step is a generator, not H(0): no gridpoint stack, no open engine
        drive = cyclic_qubit_drive(0.8, 0.5, gap=1.0)
        for name in ("gridpoint_hamiltonians", "gridpoint_eigensystems"):
            with pytest.raises(ValueError, match="first step"):
                getattr(drive, name)
        with pytest.raises(ValueError, match="first step"):
            DiscretizedComposite(drive, *qubit_exchange_environment(1.0))

    @pytest.mark.parametrize(
        "protocol", [rabi_fixture(), random_ramp_protocol(5, 1.0, np.random.default_rng(8))], ids=["rabi", "random-5"]
    )
    def test_gridpoint_eigensystems_are_eig_hermitian_bit_for_bit(self, protocol):
        # rows 0 and N are the boundary eigensystems; each interior row is what
        # eig_hermitian gives for its Hamiltonian alone, phases included
        drive = discretize(protocol, 6)
        w, v = drive.gridpoint_eigensystems
        eps0, v0, epst, vt = drive.boundary_eigensystems
        assert np.array_equal(w[0], eps0) and np.array_equal(v[0], v0)
        assert np.array_equal(w[-1], epst) and np.array_equal(v[-1], vt)
        for h, values, vectors in zip(drive.gridpoint_hamiltonians[1:-1], w[1:-1], v[1:-1]):
            own_values, own_vectors = eig_hermitian(h)
            assert np.array_equal(own_values, values) and np.array_equal(own_vectors.matrix, vectors)


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
        undo = DriveProtocol(protocol.duration, lambda t: -protocol.sample(protocol.duration - t))
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

    def test_discretize_to_tolerance_magnus4(self):
        drive = discretize_to_tolerance(rabi_fixture(), tol=1e-6, rule="magnus4")
        assert drive.rule == "magnus4"
        finer = discretize(rabi_fixture(), 2 * drive.n_steps, rule="magnus4")
        assert max_abs(drive.propagator.matrix - finer.propagator.matrix) <= 1e-6
        # against the fourth-order product at many more steps
        reference = discretize(rabi_fixture(), 4096, rule="magnus4").propagator.matrix
        assert max_abs(drive.propagator.matrix - reference) <= 1e-6
        # a tight tolerance is reached by predicting N from the fourth order
        tight = discretize_to_tolerance(rabi_fixture(), tol=1e-11, rule="magnus4")
        assert tight.n_steps <= 1024
        assert max_abs(tight.propagator.matrix - reference) <= 1e-11

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

    def test_long_drive_memory_is_bounded(self):
        # the steps go through evolution_operator in capped blocks; the whole
        # (2048, 64, 64) stack at once took several times its own 128 MiB
        import tracemalloc

        drive = discretize(random_ramp_protocol(64, 5.0, np.random.default_rng(4)), 2048)
        tracemalloc.start()
        try:
            evolution_operator(drive)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20


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
        # step counts divisible by 4 make the left product exact (see
        # cyclic_qubit_protocol), so only odd counts show first-order convergence
        errs = [
            max_abs(evolution_operator(discretize(protocol, n)).matrix - target)
            for n in (31, 61, 121)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert all(1.5 <= a / b <= 2.5 for a, b in zip(errs, errs[1:])), errs
