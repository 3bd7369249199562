from dataclasses import replace

import numpy as np
import pytest

from qworkstats import (
    DensityOperator,
    DiscretizedDrive,
    HermitianOperator,
    characteristic_function,
    cyclic_qubit_unitary,
    dephase,
    discretize,
    pure_state_density,
    random_density,
    random_hermitian,
    random_ramp_protocol,
    random_unitary,
    spectral_decomposition,
    symmetric_grid,
    tmp_characteristic,
    tmp_distribution,
    tmp_moment,
)
from qworkstats import moment as fcs_moment
from qworkstats.fcs import moment_fd, fd_stencil_grid, default_fd_step
from qworkstats.linalg import NumericalError

from conftest import PAULI_Z, cyclic_fixture, make_static_drive, random_diagonal_state


class TestDistribution:
    def test_identity_drive_eigenstate_single_outcome(self):
        drive = make_static_drive(PAULI_Z, generator=np.zeros((2, 2)))
        rho = pure_state_density(np.array([0.0, 1.0]))
        outcomes = tmp_distribution(spectral_decomposition(rho, drive))
        assert len(outcomes) == 1
        assert outcomes.probability[0] == pytest.approx(1.0, abs=1e-12)
        assert outcomes.work[0] == pytest.approx(0.0, abs=1e-12)

    def test_probabilities_nonnegative_and_normalized(self, rng):
        for dim in (2, 3, 5):
            drive = discretize(random_ramp_protocol(dim, 1.0, rng), 12)
            outcomes = tmp_distribution(spectral_decomposition(random_density(dim, rng), drive))
            assert np.all(outcomes.probability >= 0.0)
            assert np.sum(outcomes.probability) == pytest.approx(1.0, abs=1e-12)

    def test_cyclic_example_against_printed_matrix(self):
        alpha, xi, gap = np.pi / 3, np.pi / 4, 1.0
        drive, rho = cyclic_fixture(alpha, xi, gap)
        outcomes = tmp_distribution(spectral_decomposition(rho, drive))
        assert len(outcomes) == 4
        u = cyclic_qubit_unitary(alpha, xi).matrix
        w_up = abs(u[1, 0]) ** 2  # ground -> excited
        w_down = abs(u[0, 1]) ** 2
        expected = gap * (np.cos(alpha) ** 2 * w_up - np.sin(alpha) ** 2 * w_down)
        assert tmp_moment(outcomes, 1) == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed_average(self, rng):
        drive = discretize(random_ramp_protocol(2, 1.0, rng), 16)
        rho = DensityOperator(np.eye(2) / 2)
        expected = 0.5 * np.trace(drive.h_end.matrix - drive.h_start.matrix).real
        outcomes = tmp_distribution(spectral_decomposition(rho, drive))
        assert tmp_moment(outcomes, 1) == pytest.approx(expected, abs=1e-12)

    def test_dephasing_invariance(self, rng, random_qubit_drive):
        rho = random_density(2, rng)
        rho_dephased = dephase(rho, random_qubit_drive.h_start)
        a = tmp_distribution(spectral_decomposition(rho, random_qubit_drive))
        b = tmp_distribution(spectral_decomposition(rho_dephased, random_qubit_drive))
        assert len(a) == len(b)
        assert np.max(np.abs(a.probability - b.probability)) <= 1e-12
        assert np.max(np.abs(a.work - b.work)) <= 1e-12

    def test_probability_sum_failure_is_numerical_error(self, random_qubit_drive):
        # a state whose trace is off by 1e-9 passes a loosened constructor
        # but cannot give spectral weights or outcome probabilities summing to one
        corrupted = DensityOperator(np.diag([0.5, 0.5 + 1e-9]), trace_tol=1e-6)
        with pytest.raises(NumericalError, match="sum to"):
            spectral_decomposition(corrupted, random_qubit_drive)
        terms = spectral_decomposition(DensityOperator(np.eye(2) / 2), random_qubit_drive)
        with pytest.raises(NumericalError, match="outcome probabilities sum to"):
            tmp_distribution(replace(terms, rho=corrupted.matrix.astype(complex)))

    def test_degenerate_initial_levels_grouped(self, rng):
        h0 = HermitianOperator(np.diag([1.0, 1.0, 2.0]).astype(complex))
        drive = make_static_drive(h0, generator=np.zeros((3, 3)))
        rho = random_density(3, rng)
        outcomes = tmp_distribution(spectral_decomposition(rho, drive))
        # two distinct initial eigenvalues, identity evolution keeps them
        assert set(outcomes.i) == {0, 1}
        assert np.all(outcomes.i == outcomes.k)
        p_low = np.sum(outcomes.probability[outcomes.i == 0])
        assert p_low == pytest.approx(rho.matrix[0, 0].real + rho.matrix[1, 1].real, abs=1e-12)


class TestAverages:
    @pytest.mark.parametrize("alpha,xi", [(0.0, 0.8), (np.pi / 2, 0.8), (np.pi / 4, 0.8), (0.7, 0.0)])
    def test_exception_set_vanishes(self, alpha, xi):
        drive, rho = cyclic_fixture(alpha, xi)
        assert abs(tmp_moment(tmp_distribution(spectral_decomposition(rho, drive)), 1)) <= 1e-12

    def test_generic_angles_nonzero(self):
        alpha, xi, gap = np.pi / 3, np.pi / 5, 1.0
        drive, rho = cyclic_fixture(alpha, xi, gap)
        value = tmp_moment(tmp_distribution(spectral_decomposition(rho, drive)), 1)
        expected = gap * np.cos(2 * alpha) * np.sin(2 * alpha) ** 2 * np.sin(xi) ** 2
        assert value == pytest.approx(expected, abs=1e-12)
        assert abs(value) > 1e-3

    def test_moments_match_fcs_for_diagonal_states(self, rng):
        for dim in (2, 4):
            drive = discretize(random_ramp_protocol(dim, 1.0, rng), 12)
            rho = random_diagonal_state(drive.h_start, rng)
            terms = spectral_decomposition(rho, drive)
            outcomes = tmp_distribution(terms)
            for n in range(1, 5):
                assert tmp_moment(outcomes, n) == pytest.approx(fcs_moment(terms, n), abs=1e-9)


class TestCharacteristic:
    def test_single_outcome_pure_phase(self):
        drive = make_static_drive(PAULI_Z, generator=np.zeros((2, 2)))
        rho = pure_state_density(np.array([1.0, 0.0]))
        grid = symmetric_grid(2.0, 11)
        samples = tmp_characteristic(tmp_distribution(spectral_decomposition(rho, drive)), grid)
        assert np.max(np.abs(samples.values - 1.0)) <= 1e-12

    def test_matches_per_lambda_sum(self, rng):
        drive = discretize(random_ramp_protocol(6, 1.0, rng), 16)
        outcomes = tmp_distribution(spectral_decomposition(random_density(6, rng), drive))
        grid = symmetric_grid(5.0, 41)
        reference = [np.exp(1j * lam * outcomes.work) @ outcomes.probability for lam in grid.lambdas]
        assert np.max(np.abs(tmp_characteristic(outcomes, grid).values - reference)) <= 1e-15

    def test_memory_is_bounded_for_long_grids(self):
        # 4,096 outcomes (64 x 64 level groups, as at d = 64) on 2,001 points:
        # one phase per outcome and point would be 125 MiB
        import tracemalloc

        from qworkstats.tmp import TmpDistribution

        n = 4096
        levels = np.linspace(-1.5, 1.5, 64)
        i, k = np.repeat(np.arange(64), 64), np.tile(np.arange(64), 64)
        work = levels[k] - levels[i]
        outcomes = TmpDistribution(i, k, np.full(n, 1.0 / n), work, levels, levels)
        grid = symmetric_grid(2.0, 2001)
        tracemalloc.start()
        try:
            tmp_characteristic(outcomes, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_factored_form_matches_per_outcome_sum_on_degenerate_levels(self):
        rng = np.random.default_rng(11)
        dim = 8

        def degenerate_hamiltonian():
            levels = np.repeat(np.sort(rng.normal(size=dim // 2)), 2)
            v = random_unitary(dim, rng).matrix
            return HermitianOperator((v * levels) @ v.conj().T, tol=1e-10)

        steps = np.stack([random_hermitian(dim, rng).matrix for _ in range(4)])
        drive = DiscretizedDrive(steps, 0.25, degenerate_hamiltonian(), degenerate_hamiltonian())
        outcomes = tmp_distribution(spectral_decomposition(random_density(dim, rng), drive))
        assert outcomes.energy0.size == outcomes.energyt.size == dim // 2
        grid = symmetric_grid(5.0, 2001)
        reference = np.exp(1j * np.outer(grid.lambdas, outcomes.work)) @ outcomes.probability
        assert np.max(np.abs(tmp_characteristic(outcomes, grid).values - reference)) <= 1e-14

    def test_matches_fcs_for_diagonal_state(self, rng, random_qubit_drive):
        rho = random_diagonal_state(random_qubit_drive.h_start, rng)
        grid = symmetric_grid(4.0, 25)
        terms = spectral_decomposition(rho, random_qubit_drive)
        a = tmp_characteristic(tmp_distribution(terms), grid)
        b = characteristic_function(terms, grid)
        assert np.max(np.abs(a.values - b.values)) <= 1e-10

    def test_coherent_state_differs_at_first_order(self):
        # minimal counting-field window: the slopes at lam = 0 disagree by
        # the coherent part of the first moment
        drive, rho = cyclic_fixture(np.pi / 3, np.pi / 4)
        terms = spectral_decomposition(rho, drive)
        h = default_fd_step(terms.support)
        grid = fd_stencil_grid(h, order=1)
        fcs_samples = characteristic_function(terms, grid)
        tmp_samples = tmp_characteristic(tmp_distribution(terms), grid)
        fcs_slope = moment_fd(fcs_samples, 1, h=h)
        tmp_slope = moment_fd(tmp_samples, 1, h=h)
        assert abs(fcs_slope - tmp_slope) > 0.1
        assert fcs_slope == pytest.approx(0.0, abs=1e-8)
        assert tmp_slope == pytest.approx(-0.1875, abs=1e-8)
