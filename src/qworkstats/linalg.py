"""Dense complex linear algebra for small Hilbert spaces.

Everything in this package works on explicit matrices at desk scale
(dimension <~ 64): Hermitian eigendecompositions, unitary exponentials
computed in spectral form, Kronecker products with the fixed
``system (x) environment`` index convention, and partial traces over the
environment factor.

Units: ``hbar = k_B = 1`` throughout, so energies, times, temperatures and
counting fields are dimensionless.

All operator wrappers are immutable after construction (the wrapped arrays
are marked read-only) and every function here is pure, so the layer is safe
to use from concurrent workers without synchronization.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumericalError",
    "HermitianOperator",
    "UnitaryOperator",
    "DensityOperator",
    "mat",
    "max_abs",
    "dagger",
    "eig_hermitian",
    "expm_unitary",
    "tensor",
    "partial_trace_env",
    "von_neumann_entropy",
    "gibbs_weights",
    "gibbs_state",
    "pure_state_density",
    "eigenstate_density",
    "random_hermitian",
    "random_unitary",
    "random_density",
    "HERMITICITY_TOL",
    "UNITARITY_TOL",
    "TRACE_TOL",
    "POSITIVITY_TOL",
]

# Default construction tolerances; every constructor accepts an override.
HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10


class NumericalError(RuntimeError):
    """A numerical guarantee failed (invariant violation, non-convergence)."""


def mat(a) -> np.ndarray:
    """Return the complex ndarray behind ``a`` (wrapper or array-like)."""
    m = getattr(a, "matrix", a)
    return np.asarray(m, dtype=complex)


def max_abs(a) -> float:
    """Entrywise max norm ``max_ij |a_ij|``."""
    m = mat(a)
    return float(np.max(np.abs(m))) if m.size else 0.0


def dagger(a) -> np.ndarray:
    """Conjugate transpose; of each matrix, for an ``(..., d, d)`` stack."""
    return np.conj(np.swapaxes(np.asarray(getattr(a, "matrix", a)), -1, -2))


def _frozen_copy(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def _check_square_finite(m: np.ndarray, what: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError(f"{what} must have dimension >= 1")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} contains non-finite entries")


class _Operator:
    """What the checked operator types share: a frozen ``matrix``."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class HermitianOperator(_Operator):
    """A Hermitian matrix, checked at construction.

    Requires ``max|M - M^dag| <= tol * max(1, max|M|)``; the matrix is stored
    as given (not symmetrized) and frozen.
    """

    def __init__(self, matrix, *, tol: float | None = None):
        m = mat(matrix)
        _check_square_finite(m, "HermitianOperator")
        tol = HERMITICITY_TOL if tol is None else tol
        dev = max_abs(m - m.conj().T)
        if dev > tol * max(1.0, max_abs(m)):
            raise ValueError(f"matrix is not Hermitian: max|M - M^dag| = {dev:.3e}")
        self.matrix = _frozen_copy(m)


class UnitaryOperator(_Operator):
    """A unitary matrix, checked at construction: ``max|U^dag U - 1| <= tol``."""

    def __init__(self, matrix, *, tol: float | None = None):
        m = mat(matrix)
        _check_square_finite(m, "UnitaryOperator")
        tol = UNITARITY_TOL if tol is None else tol
        dev = max_abs(m.conj().T @ m - np.eye(m.shape[0]))
        if dev > tol:
            raise ValueError(f"matrix is not unitary: max|U^dag U - 1| = {dev:.3e}")
        self.matrix = _frozen_copy(m)


class DensityOperator(_Operator):
    """A density matrix: Hermitian, unit trace, positive semidefinite.

    Construction enforces ``max|rho - rho^dag| <= HERMITICITY_TOL`` (relative
    to ``max|rho|`` above one),
    ``|Tr rho - 1| <= trace_tol`` and smallest eigenvalue ``>= -psd_tol``.
    """

    def __init__(
        self,
        matrix,
        *,
        trace_tol: float | None = None,
        psd_tol: float | None = None,
    ):
        m = mat(matrix)
        _check_square_finite(m, "DensityOperator")
        trace_tol = TRACE_TOL if trace_tol is None else trace_tol
        psd_tol = POSITIVITY_TOL if psd_tol is None else psd_tol
        dev = max_abs(m - m.conj().T)
        if dev > HERMITICITY_TOL * max(1.0, max_abs(m)):
            raise ValueError(f"density matrix not Hermitian: deviation {dev:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"density matrix trace {tr} differs from 1")
        lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
        if lo < -psd_tol:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        self.matrix = _frozen_copy(m)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive.

    Ties on magnitude resolve to the lowest index, which makes the convention
    deterministic and reproducible across runs.
    """
    v = np.array(vectors, copy=True)
    for col in range(v.shape[1]):
        idx = int(np.argmax(np.abs(v[:, col])))
        pivot = v[idx, col]
        if abs(pivot) > 0:
            v[:, col] *= np.conj(pivot) / abs(pivot)
    return v


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a (stack of) Hermitian matrices, symmetrized first;
    :class:`NumericalError` when the symmetrized matrix overflows or LAPACK fails."""
    m = 0.5 * (h + dagger(h))
    if not np.isfinite(m).all():
        raise NumericalError(f"Hermitian matrix is not finite when symmetrized: max|H| = {max_abs(h):.3e}")
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"Hermitian eigendecomposition failed: {exc}") from exc


def eig_hermitian(h) -> tuple[np.ndarray, UnitaryOperator]:
    """Eigendecomposition ``H = V diag(eps) V^dag`` of a Hermitian operator.

    Returns eigenvalues sorted ascending and the eigenvector matrix as a
    :class:`UnitaryOperator` with a fixed phase convention (largest component
    of each column real positive).

    Raises
    ------
    NumericalError
        If the symmetrized matrix overflows or the LAPACK eigensolver fails
        to converge.
    """
    values, vectors = _eigh(mat(h))
    return values.real, UnitaryOperator(_fix_phases(vectors))


def expm_unitary(h, t: float) -> UnitaryOperator:
    """``exp(-i t H)`` for Hermitian ``H`` via the spectral form.

    The spectral form is exact for Hermitian generators and unitary by
    construction; at the dimensions this package targets the O(d^3) cost per
    call is irrelevant.
    """
    values, vectors = eig_hermitian(h)
    v = vectors.matrix
    phases = np.exp(-1j * values * float(t))
    return UnitaryOperator((v * phases) @ v.conj().T)


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the ``system (x) environment`` convention.

    Row-major block layout: composite index ``(i_s, i_e) -> i_s * dim_e + i_e``.
    """
    return np.kron(mat(a), mat(b))


def partial_trace_env(m, dim_s: int, dim_e: int) -> np.ndarray:
    """Trace out the environment factor of a composite-space matrix.

    ``m`` must be ``(dim_s * dim_e)`` square with the same index convention as
    :func:`tensor`. The full trace is preserved exactly up to rounding.
    """
    a = mat(m)
    d = dim_s * dim_e
    if a.shape != (d, d):
        raise ValueError(
            f"matrix shape {a.shape} does not match dim_s*dim_e = {dim_s}*{dim_e}"
        )
    return np.einsum("iaja->ij", a.reshape(dim_s, dim_e, dim_s, dim_e))


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy ``S = -Tr[rho log rho]`` (natural log, k_B = 1).

    Zero eigenvalues contribute nothing (``0 log 0 = 0``); small negative
    eigenvalues from rounding are clipped.
    """
    p = np.linalg.eigvalsh(0.5 * (mat(rho) + dagger(rho)))
    p = np.clip(p.real, 0.0, None)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def gibbs_weights(values: np.ndarray, temperature: float) -> np.ndarray:
    """Thermal populations ``exp(-eps/T)/Z`` of the spectra along the last
    axis at ``T > 0``, each shifted by its minimum so large gaps cannot overflow."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    p = np.exp(-(values - values.min(axis=-1, keepdims=True)) / float(temperature))
    p /= p.sum(axis=-1, keepdims=True)
    return p


def gibbs_state(h, temperature: float) -> DensityOperator:
    """Thermal state ``exp(-H/T)/Z`` at temperature ``T > 0``, built in the
    eigenbasis from :func:`gibbs_weights`."""
    values, vectors = eig_hermitian(h)
    v = vectors.matrix
    return DensityOperator((v * gibbs_weights(values, temperature)) @ v.conj().T)


def pure_state_density(psi) -> DensityOperator:
    """Projector ``|psi><psi|`` onto a normalized state vector."""
    v = np.asarray(psi, dtype=complex).ravel()
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("state vector must be nonzero")
    v = v / n
    return DensityOperator(np.outer(v, v.conj()))


def eigenstate_density(h, index: int) -> DensityOperator:
    """Projector onto the ``index``-th eigenstate (ascending order) of ``H``."""
    values, vectors = eig_hermitian(h)
    if not 0 <= index < len(values):
        raise ValueError(f"eigenstate index {index} out of range 0..{len(values) - 1}")
    return pure_state_density(vectors.matrix[:, index])


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianOperator:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(0.5 * scale * (a + a.conj().T))


def random_unitary(dim: int, rng: np.random.Generator) -> UnitaryOperator:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return UnitaryOperator(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho))
