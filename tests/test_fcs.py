import numpy as np
import pytest

from qworkstats import (
    DiscretizedDrive,
    HermitianOperator,
    characteristic_function,
    coherent_classical_split,
    constant_protocol,
    discretize,
    eig_hermitian,
    evolution_operator,
    expm_unitary,
    moment,
    moment_fd,
    pure_state_density,
    quasi_distribution,
    random_density,
    random_ramp_protocol,
    spectral_decomposition,
    symmetric_grid,
    tmp_characteristic,
    tmp_distribution,
    tmp_moment,
    two_kick_propagator,
)
from qworkstats.fcs import (
    CharacteristicSamples,
    CountingGrid,
    SpectralExpansion,
    default_fd_step,
    fd_stencil_grid,
    fourier_grid_for_supports,
    fourier_quasi_weights,
)
from qworkstats.linalg import HERMITICITY_TOL, DensityOperator, NumericalError, max_abs

from conftest import PAULI_X, PAULI_Z, cyclic_fixture, make_static_drive, random_diagonal_state


def synthetic_expansion(supports, weights, i, j):
    """Spectral expansion with the given pair weights (real parts as folded
    weights) and placeholder initial levels."""
    pair_weight = np.asarray(weights, dtype=complex)
    return SpectralExpansion(
        i=np.asarray(i),
        j=np.asarray(j),
        k=np.zeros(len(supports), dtype=int),
        support=np.asarray(supports, dtype=float),
        weight=pair_weight.real,
        pair_weight=pair_weight,
        eps0=np.zeros(2),
        epst=np.zeros(1),
        m=np.zeros((1, 2), dtype=complex),
        rho=np.zeros((2, 2), dtype=complex),
    )


def tmp_brute_force(rho0, drive):
    """Independent two-measurement oracle: explicit eigenbasis sums."""
    eps0, v0 = eig_hermitian(drive.h_start)
    epst, vt = eig_hermitian(drive.h_end)
    u = evolution_operator(drive).matrix
    m = vt.matrix.conj().T @ u @ v0.matrix
    w = np.abs(m) ** 2
    pops = np.real(np.diag(v0.matrix.conj().T @ rho0.matrix @ v0.matrix))
    return eps0, epst, w, pops


def tmp_brute_moment(rho0, drive, n):
    eps0, epst, w, pops = tmp_brute_force(rho0, drive)
    return sum(
        pops[i] * w[k, i] * (epst[k] - eps0[i]) ** n
        for i in range(len(eps0))
        for k in range(len(epst))
    )


class TestCountingGrid:
    def test_requires_zero(self):
        with pytest.raises(ValueError, match="lam = 0"):
            CountingGrid(np.array([1.0, 2.0, -1.0, -2.0]))

    def test_requires_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            CountingGrid(np.array([-1.0, 0.0, 2.0]))

    def test_even_point_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            symmetric_grid(1.0, 10)

    def test_spacing_uniform(self):
        assert symmetric_grid(2.0, 5).spacing == pytest.approx(1.0)

    def test_spacing_nonuniform_raises(self):
        grid = fd_stencil_grid(0.1, order=3)
        with pytest.raises(ValueError, match="uniform"):
            grid.spacing


class TestTwoKickPropagator:
    def test_zero_counting_field_is_evolution(self, random_qubit_drive):
        u = two_kick_propagator(random_qubit_drive, 0.0)
        assert max_abs(u.matrix - evolution_operator(random_qubit_drive).matrix) <= 1e-12

    def test_constant_drive_commutes(self):
        drive = discretize(constant_protocol(PAULI_Z + 0.4 * PAULI_X, 1.3), 8)
        u = evolution_operator(drive).matrix
        for lam in (0.3, -1.7):
            assert max_abs(two_kick_propagator(drive, lam).matrix - u) <= 1e-12

    def test_kick_structure(self, random_qubit_drive):
        lam = 0.7
        d = random_qubit_drive
        expected = (
            expm_unitary(d.h_end, -0.5 * lam).matrix
            @ evolution_operator(d).matrix
            @ expm_unitary(d.h_start, 0.5 * lam).matrix
        )
        assert max_abs(two_kick_propagator(d, lam).matrix - expected) <= 1e-12

    def test_matches_interleaved_kick_product(self, rng):
        # building the kicks into the step product at the boundaries, outside
        # all evolution factors, reproduces the two-kick form identically
        protocol = random_ramp_protocol(2, 1.0, rng)
        drive = discretize(protocol, 64)
        lam = 0.7
        interleaved = (
            expm_unitary(drive.h_end, -0.5 * lam).matrix
            @ evolution_operator(drive).matrix
            @ expm_unitary(drive.h_start, 0.5 * lam).matrix
        )
        assert max_abs(two_kick_propagator(drive, lam).matrix - interleaved) <= 1e-12


class TestCharacteristicFunction:
    def test_eigenstate_constant_drive_trivial(self):
        h = HermitianOperator(PAULI_Z)
        drive = discretize(constant_protocol(PAULI_Z, 1.0), 4)
        rho = pure_state_density(np.array([0.0, 1.0]))
        samples = characteristic_function(spectral_decomposition(rho, drive), symmetric_grid(4.0, 21))
        assert np.max(np.abs(samples.values - 1.0)) <= 1e-12

    def test_eigenstate_matches_tmp_sum(self, rng, random_qubit_drive):
        _, v0 = eig_hermitian(random_qubit_drive.h_start)
        rho = pure_state_density(v0.matrix[:, 1])
        grid = symmetric_grid(5.0, 31)
        samples = characteristic_function(spectral_decomposition(rho, random_qubit_drive), grid)
        eps0, epst, w, pops = tmp_brute_force(rho, random_qubit_drive)
        expected = np.array(
            [sum(w[k, 1] * np.exp(1j * lam * (epst[k] - eps0[1])) for k in range(2)) for lam in grid.lambdas]
        )
        assert np.max(np.abs(samples.values - expected)) <= 1e-10

    def test_mixture_matches_tmp_characteristic(self, rng):
        for dim in (2, 3, 5):
            drive = discretize(random_ramp_protocol(dim, 1.0, rng), 16)
            rho = random_diagonal_state(drive.h_start, rng)
            grid = symmetric_grid(3.0, 21)
            terms = spectral_decomposition(rho, drive)
            fcs_samples = characteristic_function(terms, grid)
            tmp_samples = tmp_characteristic(tmp_distribution(terms), grid)
            assert np.max(np.abs(fcs_samples.values - tmp_samples.values)) <= 1e-10

    def test_dimension_mismatch(self, rng, random_qubit_drive):
        with pytest.raises(ValueError, match="dim"):
            spectral_decomposition(random_density(3, rng), random_qubit_drive)

    def test_normalization_and_symmetry_enforced(self, rng, random_qubit_drive):
        rho = random_density(2, rng)
        samples = characteristic_function(
            spectral_decomposition(rho, random_qubit_drive), symmetric_grid(6.0, 41)
        )
        assert abs(samples.value_at(0.0) - 1.0) <= 1e-12
        assert np.max(np.abs(samples.values[::-1] - np.conj(samples.values))) <= 1e-10

    def test_invalid_samples_rejected(self):
        grid = symmetric_grid(1.0, 3)
        with pytest.raises(NumericalError, match="G\\(0\\)"):
            CharacteristicSamples(grid, np.array([1.0, 0.9, 1.0]))
        with pytest.raises(NumericalError, match="conj"):
            CharacteristicSamples(grid, np.array([1.0 + 0.5j, 1.0, 1.0 + 0.5j]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_samples_rejected(self, bad):
        # NaN compares False with every tolerance, so it must be caught on its own
        grid = symmetric_grid(1.0, 3)
        with pytest.raises(NumericalError, match="not finite"):
            CharacteristicSamples(grid, np.array([bad, 1.0, np.conj(bad)]))


class TestSpectralDecomposition:
    def test_diagonal_state_keeps_only_diagonal_terms(self, rng, random_qubit_drive):
        rho = random_diagonal_state(random_qubit_drive.h_start, rng)
        terms = spectral_decomposition(rho, random_qubit_drive)
        assert np.all(terms.i == terms.j)
        assert np.all(np.abs(terms.weight.imag) <= 1e-14)
        assert np.all(terms.weight.real >= -1e-14)

    def test_trivial_drive_with_sigma_z_kicks(self):
        # zero generator with sigma_z boundary kicks: the kicks cancel and
        # the plus state sees no energy change at all
        drive = make_static_drive(PAULI_Z, generator=np.zeros((2, 2)))
        rho = pure_state_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
        terms = spectral_decomposition(rho, drive)
        grid = symmetric_grid(4.0, 17)
        samples = characteristic_function(terms, grid)
        recon = np.array([np.sum(terms.weight * np.exp(1j * lam * terms.support)) for lam in grid.lambdas])
        assert np.max(np.abs(recon - samples.values)) <= 1e-12

    def test_coherent_state_off_diagonal_support_pattern(self):
        # quarter-period sigma_x rotation between sigma_z kicks: coherence
        # terms sit at the half-sum supports +-(eps2 - eps1)/2
        drive = make_static_drive(PAULI_Z, generator=(np.pi / 4) * PAULI_X)
        rho = pure_state_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
        terms = spectral_decomposition(rho, drive)
        off_diag = terms.i != terms.j
        assert np.any(off_diag)
        assert set(np.round(terms.support[off_diag], 12)) <= {-1.0, 0.0, 1.0}
        grid = symmetric_grid(4.0, 17)
        samples = characteristic_function(terms, grid)
        recon = np.array([np.sum(terms.weight * np.exp(1j * lam * terms.support)) for lam in grid.lambdas])
        assert np.max(np.abs(recon - samples.values)) <= 1e-12

    def test_reconstruction_random(self, rng):
        for dim in (2, 4):
            drive = discretize(random_ramp_protocol(dim, 1.0, rng), 12)
            rho = random_density(dim, rng)
            terms = spectral_decomposition(rho, drive)
            grid = symmetric_grid(3.0, 13)
            samples = characteristic_function(terms, grid)
            recon = np.array(
                [np.sum(terms.weight * np.exp(1j * lam * terms.support)) for lam in grid.lambdas]
            )
            assert np.max(np.abs(recon - samples.values)) <= 1e-10

    def test_cyclic_first_moment_vanishes(self):
        drive, rho = cyclic_fixture(np.pi / 3, np.pi / 5)
        terms = spectral_decomposition(rho, drive)
        assert abs(np.sum((terms.weight * terms.support).real)) <= 1e-10

    def test_weight_sum_is_one(self, rng, random_qubit_drive):
        terms = spectral_decomposition(random_density(2, rng), random_qubit_drive)
        assert abs(np.sum(terms.weight) - 1.0) <= 1e-10

    def test_memory_of_terms_and_bins_at_d64(self):
        # the folded terms and their bins at d = 64 peak near 17.5 MiB; the
        # unfolded d^3 complex terms peaked at 27.2 MiB
        import tracemalloc

        rng = np.random.default_rng(64)
        drive = discretize(random_ramp_protocol(64, 1.0, rng), 8)
        rho = random_density(64, rng)
        drive.propagator, drive.boundary_eigensystems  # cached before tracing
        tracemalloc.start()
        try:
            quasi_distribution(spectral_decomposition(rho, drive))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20

    def test_non_hermitian_state_raises(self, random_qubit_drive):
        # the fold pairs w_kij with conj(w_kji), which holds only for a
        # Hermitian rho; bypass DensityOperator's own check to feed one that is not
        matrix = np.array([[0.5, 0.5 + 1e-6j], [0.5 + 1e-6j, 0.5]])
        broken = object.__new__(DensityOperator)
        broken.matrix = matrix
        with pytest.raises(NumericalError, match="not Hermitian"):
            spectral_decomposition(broken, random_qubit_drive)

    def test_admissible_hermiticity_deviation_passes(self, rng):
        # DensityOperator admits max|rho - rho^dag| up to HERMITICITY_TOL; the
        # change to the H(0) eigenbasis may grow it, by at most a factor d
        dim = 8
        drive = discretize(random_ramp_protocol(dim, 1.0, rng), 8)
        base = random_density(dim, rng).matrix
        skew = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        skew = 0.5 * (skew - skew.conj().T)
        skew *= 0.9 * HERMITICITY_TOL / max_abs(skew - skew.conj().T)
        rho = DensityOperator(base + skew - np.diag(np.diag(skew)))
        assert max_abs(rho.matrix - rho.matrix.conj().T) > 0.5 * HERMITICITY_TOL
        terms = spectral_decomposition(rho, drive)
        assert abs(np.sum(terms.weight) - 1.0) <= 1e-10


class TestMoments:
    def test_identity_drive_all_moments_vanish(self):
        drive = make_static_drive(PAULI_Z, generator=np.zeros((2, 2)))
        rho = pure_state_density(np.array([0.6, 0.8]))
        terms = spectral_decomposition(rho, drive)
        for n in range(1, 5):
            assert abs(moment(terms, n)) <= 1e-12

    def test_eigenstate_matches_tmp_moments(self, rng, random_qubit_drive):
        _, v0 = eig_hermitian(random_qubit_drive.h_start)
        rho = pure_state_density(v0.matrix[:, 0])
        terms = spectral_decomposition(rho, random_qubit_drive)
        for n in range(1, 5):
            assert moment(terms, n) == pytest.approx(
                tmp_brute_moment(rho, random_qubit_drive, n), abs=1e-10
            )

    def test_first_moment_is_energy_balance(self, rng):
        for dim in (2, 3, 4):
            drive = discretize(random_ramp_protocol(dim, 1.0, rng), 16)
            rho = random_density(dim, rng)
            terms = spectral_decomposition(rho, drive)
            u = evolution_operator(drive).matrix
            rho_t = u @ rho.matrix @ u.conj().T
            balance = np.trace(drive.h_end.matrix @ rho_t) - np.trace(drive.h_start.matrix @ rho.matrix)
            assert moment(terms, 1) == pytest.approx(balance.real, abs=1e-10)

    def test_moment_order_validated(self, random_qubit_drive, rng):
        terms = spectral_decomposition(random_density(2, rng), random_qubit_drive)
        with pytest.raises(ValueError, match="order"):
            moment(terms, 0)

class TestMomentFd:
    def synthetic_samples(self, omega, h):
        grid = fd_stencil_grid(h, order=4)
        return CharacteristicSamples(grid, np.exp(1j * omega * grid.lambdas))

    def test_first_and_second_moment_of_pure_phase(self):
        omega, h = 1.7, 1e-3
        samples = self.synthetic_samples(omega, h)
        assert moment_fd(samples, 1, h=h) == pytest.approx(omega, rel=1e-10)
        assert moment_fd(samples, 2, h=h) == pytest.approx(omega**2, rel=1e-8)

    def test_richardson_improves_plain_stencil(self):
        omega, h = 1.7, 1e-2
        samples = self.synthetic_samples(omega, h)
        # the plain central difference on step h, without the 2h extrapolation
        plain = abs((-0.5j * (samples.value_at(h) - samples.value_at(-h)) / h).real - omega)
        improved = abs(moment_fd(samples, 1, h=h) - omega)
        assert improved < plain / 100

    def test_missing_stencil_point(self):
        samples = self.synthetic_samples(1.0, 1e-3)
        with pytest.raises(KeyError, match="no point"):
            moment_fd(samples, 1, h=3e-3)

    def test_cyclic_example_agrees_with_spectral(self):
        drive, rho = cyclic_fixture(np.pi / 3, np.pi / 5)
        terms = spectral_decomposition(rho, drive)
        h = default_fd_step(terms.support)
        samples = characteristic_function(terms, fd_stencil_grid(h, order=2))
        assert moment_fd(samples, 1, h=h) == pytest.approx(moment(terms, 1), abs=1e-6)

    def test_random_scenarios_relative_agreement(self, rng):
        for _ in range(5):
            dim = int(rng.integers(2, 6))
            drive = discretize(random_ramp_protocol(dim, 1.0, rng), 12)
            rho = random_density(dim, rng)
            terms = spectral_decomposition(rho, drive)
            h = default_fd_step(terms.support)
            samples = characteristic_function(terms, fd_stencil_grid(h, order=2))
            for n in (1, 2):
                spectral = moment(terms, n)
                assert abs(moment_fd(samples, n, h=h) - spectral) <= 1e-6 * max(abs(spectral), 1e-3)


class TestQuasiDistribution:
    def test_diagonal_state_matches_tmp(self, rng):
        for dim in (2, 3, 4):
            drive = discretize(random_ramp_protocol(dim, 1.0, rng), 12)
            rho = random_diagonal_state(drive.h_start, rng)
            terms = spectral_decomposition(rho, drive)
            dist = quasi_distribution(terms)
            outcomes = tmp_distribution(terms)
            from qworkstats.fcs import merge_support_points

            tmp_u, tmp_w = merge_support_points(outcomes.work, outcomes.probability, 1e-9)
            assert len(tmp_u) == len(dist.support)
            assert np.max(np.abs(dist.support - tmp_u)) <= 1e-9
            assert np.max(np.abs(dist.weights - tmp_w.real)) <= 1e-10
            assert dist.min_weight >= -1e-12

    def test_cyclic_example_negativity(self):
        drive, rho = cyclic_fixture(np.pi / 3, np.pi / 4)
        dist = quasi_distribution(spectral_decomposition(rho, drive))
        assert dist.min_weight == pytest.approx(-0.1875, abs=1e-12)
        assert abs(dist.weights.sum() - 1.0) <= 1e-10

    def test_eigenstate_energy_conserving_drive(self):
        drive = discretize(constant_protocol(PAULI_Z, 1.0), 4)
        rho = pure_state_density(np.array([0.0, 1.0]))
        dist = quasi_distribution(spectral_decomposition(rho, drive))
        assert len(dist.support) == 1
        assert dist.support[0] == pytest.approx(0.0, abs=1e-12)
        assert dist.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_binning_merges_close_supports(self):
        terms = synthetic_expansion([0.0, 1e-12], [0.5 + 0.0j, 0.5 + 0.0j], i=[0, 1], j=[0, 1])
        dist = quasi_distribution(terms, bin_tol=1e-9)
        assert len(dist.support) == 1

    def test_gauge_shift_invariance(self, rng):
        drive = discretize(random_ramp_protocol(2, 1.0, rng), 8)
        rho = random_density(2, rng)
        shift = 0.73
        shifted = DiscretizedDrive(
            hamiltonians=drive.hamiltonians + shift * np.eye(2),
            dt=drive.dt,
            h_start=HermitianOperator(drive.h_start.matrix + shift * np.eye(2)),
            h_end=HermitianOperator(drive.h_end.matrix + shift * np.eye(2)),
        )
        base = quasi_distribution(spectral_decomposition(rho, drive))
        moved = quasi_distribution(spectral_decomposition(rho, shifted))
        assert np.max(np.abs(base.support - moved.support)) <= 1e-10
        assert np.max(np.abs(base.weights - moved.weights)) <= 1e-10


class TestCoherentClassicalSplit:
    def test_diagonal_state_has_no_coherent_part(self, rng, random_qubit_drive):
        rho = random_diagonal_state(random_qubit_drive.h_start, rng)
        classical, coherent = coherent_classical_split(spectral_decomposition(rho, random_qubit_drive))
        assert abs(coherent) <= 1e-10
        assert classical == pytest.approx(tmp_brute_moment(rho, random_qubit_drive, 1), abs=1e-10)

    def test_cyclic_example_split(self):
        alpha, xi, gap = np.pi / 3, np.pi / 5, 1.0
        drive, rho = cyclic_fixture(alpha, xi, gap)
        classical, coherent = coherent_classical_split(spectral_decomposition(rho, drive))
        oracle = tmp_brute_moment(rho, drive, 1)
        assert classical == pytest.approx(oracle, abs=1e-10)
        assert classical == pytest.approx(
            gap * np.cos(2 * alpha) * np.sin(2 * alpha) ** 2 * np.sin(xi) ** 2, abs=1e-12
        )
        assert coherent == pytest.approx(-classical, abs=1e-10)

    def test_classical_part_is_tmp_average_at_same_degeneracy_tol(self, rng):
        # initial levels 1e-6 apart: separate groups at the default tolerance,
        # one group at 1e-3
        drive = discretize(random_ramp_protocol(3, 1.0, rng), 8)
        values, vectors = eig_hermitian(drive.h_start)
        v = vectors.matrix
        levels = np.array([values[0], values[0] + 1e-6, values[2]])
        drive = DiscretizedDrive(
            hamiltonians=drive.hamiltonians,
            dt=drive.dt,
            h_start=HermitianOperator((v * levels) @ v.conj().T),
            h_end=drive.h_end,
        )
        rho = random_density(3, rng)
        terms = spectral_decomposition(rho, drive)
        parts = {}
        # TMP assigns a group its mean level: agreement to within the 1e-6 spread
        for tol, agree in ((1e-9, 1e-10), (1e-3, 1e-6)):
            classical, coherent = coherent_classical_split(terms, degeneracy_tol=tol)
            average = tmp_moment(tmp_distribution(terms, degeneracy_tol=tol), 1)
            assert classical == pytest.approx(average, abs=agree)
            assert classical + coherent == pytest.approx(moment(terms, 1), abs=1e-12)
            parts[tol] = classical
        assert abs(parts[1e-9] - parts[1e-3]) > 1e-3

    def test_equal_superposition_both_parts_vanish(self):
        drive, rho = cyclic_fixture(np.pi / 4, 0.9)
        classical, coherent = coherent_classical_split(spectral_decomposition(rho, drive))
        assert abs(classical) <= 1e-12
        assert abs(coherent) <= 1e-12


class TestFourierValidationPath:
    def test_recovers_cyclic_weights(self):
        drive, rho = cyclic_fixture(np.pi / 3, np.pi / 4)
        terms = spectral_decomposition(rho, drive)
        dist = quasi_distribution(terms)
        lam_max, points, sigma_u = fourier_grid_for_supports(dist.support)
        samples = characteristic_function(terms, symmetric_grid(lam_max, points))
        recovered = fourier_quasi_weights(samples, dist.support, sigma_u)
        assert np.max(np.abs(recovered - dist.weights)) <= 1e-3

    def test_recovers_random_mixture_weights(self, rng):
        drive = discretize(random_ramp_protocol(2, 1.0, rng), 12)
        rho = random_diagonal_state(drive.h_start, rng)
        terms = spectral_decomposition(rho, drive)
        dist = quasi_distribution(terms)
        lam_max, points, sigma_u = fourier_grid_for_supports(dist.support)
        samples = characteristic_function(terms, symmetric_grid(lam_max, points))
        recovered = fourier_quasi_weights(samples, dist.support, sigma_u)
        assert np.max(np.abs(recovered - dist.weights)) <= 1e-3
