import numpy as np
import pytest

from qworkstats import (
    DensityOperator,
    HermitianOperator,
    UnitaryOperator,
    eig_hermitian,
    eigenstate_density,
    expm_unitary,
    gibbs_state,
    partial_trace_env,
    pure_state_density,
    random_density,
    random_hermitian,
    random_unitary,
    tensor,
    von_neumann_entropy,
)
from qworkstats.linalg import _fix_phases, gibbs_weights, max_abs

from conftest import PAULI_X, PAULI_Z


def taylor_expm(m, order=40):
    """Truncated power series oracle for exp(m)."""
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ m / k
        out = out + term
    return out


class TestConstructors:
    def test_hermitian_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            UnitaryOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_matrices_frozen(self):
        h = HermitianOperator(PAULI_Z)
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0


def column_loop_phases(vectors):
    """The phase convention one column at a time: the reference for ``_fix_phases``."""
    v = np.array(vectors, copy=True)
    for col in range(v.shape[1]):
        pivot = v[int(np.argmax(np.abs(v[:, col]))), col]
        if abs(pivot) > 0:
            v[:, col] *= np.conj(pivot) / abs(pivot)
    return v


class TestEig:
    def test_pauli_z(self):
        values, vectors = eig_hermitian(HermitianOperator(PAULI_Z))
        assert np.allclose(values, [-1.0, 1.0])
        # ascending order puts (0, 1) first; phase convention makes entries real
        assert np.allclose(vectors.matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_pauli_x(self):
        values, vectors = eig_hermitian(HermitianOperator(PAULI_X))
        assert np.allclose(values, [-1.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(vectors.matrix[:, 0], [s, -s])
        assert np.allclose(vectors.matrix[:, 1], [s, s])

    def test_reconstruction_residual(self, rng):
        h = random_hermitian(8, rng)
        values, vectors = eig_hermitian(h)
        v = vectors.matrix
        assert max_abs((v * values) @ v.conj().T - h.matrix) <= 1e-10

    def test_values_sorted_ascending(self, rng):
        values, _ = eig_hermitian(random_hermitian(6, rng))
        assert np.all(np.diff(values) >= 0)

    def test_phase_convention_largest_component_real_positive(self, rng):
        _, vectors = eig_hermitian(random_hermitian(7, rng))
        for col in vectors.matrix.T:
            pivot = col[np.argmax(np.abs(col))]
            assert abs(pivot.imag) <= 1e-12
            assert pivot.real > 0

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    def test_phase_fix_of_a_stack_is_the_fix_of_each_matrix(self, rng, dim):
        # eigenvectors as LAPACK returns them of random and degenerate (identity and
        # two-fold) matrices, one with a zero column and one all zero: one batched
        # pass gives every bit of the matrices' own passes and of the column loop
        a = rng.normal(size=(6, dim, dim)) + 1j * rng.normal(size=(6, dim, dim))
        h = a + np.conj(np.swapaxes(a, -1, -2))
        h[1] = np.eye(dim)
        h[2] = np.kron(np.eye((dim + 1) // 2), np.ones((2, 2)))[:dim, :dim]
        vectors = np.linalg.eigh(h)[1]
        vectors[3, :, 0] = 0.0
        vectors[4] = 0.0
        fixed = _fix_phases(vectors)
        for v, f in zip(vectors, fixed):
            assert _fix_phases(v).tobytes() == column_loop_phases(v).tobytes() == f.tobytes()
        assert np.array_equal(fixed[4], vectors[4])
        pivots = np.take_along_axis(fixed, np.argmax(np.abs(fixed), axis=-2)[..., None, :], axis=-2)
        assert np.all(np.abs(pivots.imag) <= 1e-15) and np.all(pivots.real >= 0.0)

    def test_deterministic(self, rng):
        h = random_hermitian(5, rng)
        v1 = eig_hermitian(h)[1].matrix
        v2 = eig_hermitian(h)[1].matrix
        assert np.array_equal(v1, v2)

    def test_spectrum_invariant_under_conjugation(self, rng):
        h = random_hermitian(6, rng)
        u = random_unitary(6, rng).matrix
        values, _ = eig_hermitian(h)
        rotated, _ = eig_hermitian(HermitianOperator(u @ h.matrix @ u.conj().T, tol=1e-10))
        assert np.max(np.abs(values - rotated)) <= 1e-10


class TestExpm:
    def test_zero_hamiltonian(self):
        for t in (0.0, 0.7, -3.2):
            u = expm_unitary(HermitianOperator(np.zeros((3, 3))), t)
            assert max_abs(u.matrix - np.eye(3)) <= 1e-14

    def test_pauli_x_half_pi(self):
        u = expm_unitary(HermitianOperator(PAULI_X), np.pi / 2)
        assert max_abs(u.matrix - (-1j) * PAULI_X) <= 1e-12

    def test_against_taylor_series(self, rng):
        h = random_hermitian(4, rng)
        t = 0.3
        u = expm_unitary(h, t)
        assert max_abs(u.matrix - taylor_expm(-1j * t * h.matrix)) <= 1e-10

    def test_group_property(self, rng):
        h = random_hermitian(5, rng)
        for s, t in ((0.2, 0.5), (-1.1, 0.4)):
            left = expm_unitary(h, s).matrix @ expm_unitary(h, t).matrix
            assert max_abs(left - expm_unitary(h, s + t).matrix) <= 1e-10


class TestTensorAndPartialTrace:
    def test_identity_tensor(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_tensor_identity(self):
        assert np.allclose(tensor(PAULI_Z, np.eye(2)), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_mixed_product_identity(self, rng):
        a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
        lhs = tensor(a, b) @ tensor(c, d)
        rhs = tensor(a @ c, b @ d)
        assert max_abs(lhs - rhs) <= 1e-12

    def test_partial_trace_product_state(self, rng):
        rho_s = random_density(3, rng).matrix
        rho_e = random_density(2, rng).matrix
        assert max_abs(partial_trace_env(tensor(rho_s, rho_e), 3, 2) - rho_s) <= 1e-12

    def test_partial_trace_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(bell, bell.conj())
        assert max_abs(partial_trace_env(rho, 2, 2) - np.eye(2) / 2) <= 1e-12

    def test_trace_chain(self, rng):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for ds, de in ((2, 4), (4, 2)):
            assert abs(np.trace(partial_trace_env(m, ds, de)) - np.trace(m)) <= 1e-12

    def test_partial_trace_linear(self, rng):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        lhs = partial_trace_env(0.3 * a + 1.7 * b, 2, 3)
        rhs = 0.3 * partial_trace_env(a, 2, 3) + 1.7 * partial_trace_env(b, 2, 3)
        assert max_abs(lhs - rhs) <= 1e-12

    def test_partial_trace_of_a_stack_traces_each_matrix(self, rng):
        m = rng.normal(size=(3, 4, 6, 6)) + 1j * rng.normal(size=(3, 4, 6, 6))
        traced = partial_trace_env(m, 2, 3)
        assert traced.shape == (3, 4, 2, 2)
        for index in np.ndindex(3, 4):
            assert np.array_equal(traced[index], partial_trace_env(m[index], 2, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim_s"):
            partial_trace_env(np.eye(6), 2, 2)
        with pytest.raises(ValueError, match="dim_s"):
            partial_trace_env(np.zeros((5, 6, 6)), 2, 2)


class TestStates:
    def test_entropy_pure_state(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert von_neumann_entropy(pure_state_density(psi)) <= 1e-12

    def test_entropy_maximally_mixed(self):
        assert abs(von_neumann_entropy(DensityOperator(np.eye(2) / 2)) - np.log(2)) <= 1e-12

    def test_entropy_gibbs_qubit_closed_form(self):
        gap, temperature = 1.3, 0.7
        rho = gibbs_state(HermitianOperator(np.diag([0.0, gap])), temperature)
        p = 1.0 / (1.0 + np.exp(-gap / temperature))
        expected = -(p * np.log(p) + (1 - p) * np.log(1 - p))
        assert abs(von_neumann_entropy(rho) - expected) <= 1e-12

    def test_gibbs_populations(self):
        gap, temperature = 2.0, 0.5
        rho = gibbs_state(HermitianOperator(-0.5 * gap * PAULI_Z), temperature)
        z = np.exp(gap / (2 * temperature)) + np.exp(-gap / (2 * temperature))
        assert abs(rho.matrix[0, 0].real - np.exp(gap / (2 * temperature)) / z) <= 1e-12

    def test_gibbs_weights_zero_temperature_limit(self):
        # a gap over T overflows to inf; exp(-inf) = 0 is the exact limit, without a warning
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = gibbs_weights(np.array([[3.0, 0.0, 1.0], [-2.0, -2.0, 5.0]]), 1e-308)
        assert np.array_equal(p, [[0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])

    def test_gibbs_requires_positive_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            gibbs_state(HermitianOperator(PAULI_Z), 0.0)

    def test_eigenstate_density(self):
        rho = eigenstate_density(HermitianOperator(PAULI_Z), 0)
        assert np.allclose(rho.matrix, np.diag([0.0, 1.0]))  # ground state of sigma_z

    def test_eigenstate_index_range(self):
        with pytest.raises(ValueError, match="index"):
            eigenstate_density(HermitianOperator(PAULI_Z), 2)
