"""Closed-system work statistics from the detector-phase counting field.

The central object is the characteristic function

    ``G(lam) = Tr[ K(lam) rho0 K(-lam)^dag ]``,

where ``K(lam) = exp(+i lam/2 H(T)) U(T) exp(-i lam/2 H(0))`` is the two-kick
propagator: the drive propagator sandwiched between detector kicks on the
boundary Hamiltonians. The API takes the physical counting field ``lam`` and
applies the halving internally.

``G`` is a moment generating function: the n-th moment of the internal-energy
change is ``(-i)^n d^n G / d lam^n`` at ``lam = 0``. Expanding ``G`` in the
initial and final eigenbases gives an exact finite sum of phases,

    ``G(lam) = sum_{ijk} w_ijk exp(i lam u_ijk)``,
    ``u_ijk = eps_k(T) - (eps_i(0) + eps_j(0)) / 2``,
    ``w_ijk = rho_ij <k|U|i> <k|U|j>*``,

from which moments are computed exactly and the quasi-probability
distribution of the energy change is obtained by merging equal support
values. As ``rho`` is Hermitian, terms ``(i, j, k)`` and ``(j, i, k)`` share
a support and carry conjugate weights: the ``d^3`` complex terms fold into
``d^2 (d + 1) / 2`` real ones. Merged weights may be negative when the
initial state carries coherences between energy eigenstates; a dephased
(diagonal) initial state reproduces the nonnegative two-measurement result.

:class:`SpectralExpansion` holds the folded terms as arrays with the
eigendata they came from; moments, binning, the classical/coherent split,
``G`` on a grid and the two-measurement distribution are array expressions.

A windowed Fourier inversion of ``G`` sampled on a wide counting-field grid
is provided as an independent validation path for the binned distribution;
it carries the usual windowing artifacts and is not used in production.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .drive import DiscretizedDrive
from .linalg import HERMITICITY_TOL, DensityOperator, NumericalError, UnitaryOperator

__all__ = [
    "CountingGrid",
    "CharacteristicSamples",
    "SpectralExpansion",
    "QuasiDistribution",
    "symmetric_grid",
    "fd_stencil_grid",
    "two_kick_propagator",
    "characteristic_function",
    "spectral_decomposition",
    "moment",
    "moment_fd",
    "default_fd_step",
    "quasi_distribution",
    "coherent_classical_split",
    "fourier_quasi_weights",
    "fourier_grid_for_supports",
    "merge_support_points",
]


@dataclass(frozen=True)
class CountingGrid:
    """Symmetric grid of counting-field values containing ``lam = 0``."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.sort(np.asarray(self.lambdas, dtype=float).ravel())
        if lam.size == 0:
            raise ValueError("counting grid is empty")
        if np.min(np.abs(lam)) > 1e-15:
            raise ValueError("counting grid must contain lam = 0")
        rev = -lam[::-1]
        if np.max(np.abs(lam - rev)) > 1e-12 * max(1.0, float(np.max(np.abs(lam)))):
            raise ValueError("counting grid must be symmetric about 0")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

    @property
    def size(self) -> int:
        return self.lambdas.size

    @property
    def spacing(self) -> float:
        """Grid spacing; raises for non-uniform grids."""
        diffs = np.diff(self.lambdas)
        if diffs.size == 0:
            raise ValueError("single-point grid has no spacing")
        if np.max(diffs) - np.min(diffs) > 1e-9 * np.max(diffs):
            raise ValueError("grid is not uniform")
        return float(diffs[0])

    def index_of(self, lam: float) -> int:
        """Index of the grid point equal to ``lam`` within rounding."""
        i = int(np.argmin(np.abs(self.lambdas - lam)))
        if abs(self.lambdas[i] - lam) > 1e-9 * max(1.0, abs(lam)):
            raise KeyError(f"counting grid has no point at lam = {lam}")
        return i


def symmetric_grid(lambda_max: float, points: int) -> CountingGrid:
    """Uniform symmetric grid; ``points`` must be odd so 0 is included."""
    if lambda_max <= 0:
        raise ValueError("lambda_max must be positive")
    if points < 3 or points % 2 == 0:
        raise ValueError("points must be an odd number >= 3")
    with np.errstate(over="ignore", invalid="ignore"):  # G on an overflowed grid is not finite
        return CountingGrid(np.linspace(-lambda_max, lambda_max, points))


def fd_stencil_grid(h: float, order: int = 2) -> CountingGrid:
    """Grid holding every point the order-``order`` central stencil needs on
    steps ``h`` and ``2h`` (the Richardson pair of :func:`moment_fd`)."""
    if h <= 0:
        raise ValueError("stencil step must be positive")
    m = (order + 1) // 2
    offsets = {0}
    for j in range(1, m + 1):
        offsets.update({j, -j, 2 * j, -2 * j})
    return CountingGrid(np.array(sorted(offsets), dtype=float) * h)


# Tolerances of the ``G(0) = 1`` and ``G(-lam) = conj(G(lam))`` checks.
NORMALIZATION_TOL = 1e-12
SYMMETRY_TOL = 1e-10


class CharacteristicSamples:
    """``G`` sampled on a counting grid.

    Construction enforces finite values, normalization ``G(0) = 1`` (to
    ``NORMALIZATION_TOL``) and the symmetry ``G(-lam) = conj(G(lam))`` (to
    ``SYMMETRY_TOL``) that guarantees a real quasi-distribution.
    """

    def __init__(self, grid: CountingGrid, values):
        v = np.asarray(values, dtype=complex).ravel()
        if v.size != grid.size:
            raise ValueError("sample count does not match grid size")
        if not np.isfinite(v).all():
            raise NumericalError(f"G is not finite at lam = {grid.lambdas[~np.isfinite(v)][0]}")
        g0 = v[grid.index_of(0.0)]
        if abs(g0 - 1.0) > NORMALIZATION_TOL:
            raise NumericalError(f"G(0) = {g0} deviates from 1 by {abs(g0 - 1.0):.3e}")
        dev = float(np.max(np.abs(v[::-1] - np.conj(v))))
        if dev > SYMMETRY_TOL:
            raise NumericalError(f"G(-lam) != conj(G(lam)): deviation {dev:.3e}")
        v.setflags(write=False)
        self.grid = grid
        self.values = v

    def value_at(self, lam: float) -> complex:
        return complex(self.values[self.grid.index_of(lam)])

    def __len__(self) -> int:
        return self.grid.size


@dataclass(frozen=True, eq=False)
class SpectralExpansion:
    """The exact phase terms of ``G``, folded: ``G = sum_t weight_t exp(i lam support_t)``.

    Term ``t`` stands for the conjugate pair ``(i, j, k)``, ``(j, i, k)`` with
    ``i[t] <= j[t]``; terms are ordered by ``k``, ``i``, ``j`` after pruning.
    ``pair_weight`` is the complex ``w_kij = rho_ij M_ki M*_kj`` and ``weight``
    the real folded one, ``2 Re w`` for ``i < j`` and ``Re w`` for ``i == j``:
    the nonnegative two-measurement part; ``i != j`` encodes coherences.

    The unpruned eigendata the terms came from rides along: ``eps0`` and
    ``epst`` are the eigenvalues of ``H(0)`` and ``H(T)``, ``m[k, i] =
    <eps_k(T)|U|eps_i(0)>`` and ``rho`` is the initial state in the ``H(0)``
    eigenbasis. ``G`` on a grid and the two-measurement outcomes read these.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    support: np.ndarray
    weight: np.ndarray
    pair_weight: np.ndarray
    eps0: np.ndarray
    epst: np.ndarray
    m: np.ndarray
    rho: np.ndarray

    def __len__(self) -> int:
        return self.support.size


@dataclass(frozen=True)
class QuasiDistribution:
    """Support points and real weights of the energy-change quasi-probability.

    Weights sum to one but individual weights may be negative; negativity is
    the signature of initial-state coherence surviving the counting protocol.
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.support, dtype=float).ravel()
        w = np.asarray(self.weights, dtype=float).ravel()
        if u.size != w.size:
            raise ValueError("support and weights differ in length")
        if u.size == 0:
            raise ValueError("empty distribution")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-10:
            raise NumericalError(f"quasi-distribution weights sum to {total}, not 1")
        u.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "support", u)
        object.__setattr__(self, "weights", w)

    @property
    def min_weight(self) -> float:
        return float(self.weights.min())


def two_kick_propagator(drive: DiscretizedDrive, lam: float) -> UnitaryOperator:
    """``exp(+i lam/2 H(T)) U(T) exp(-i lam/2 H(0))`` as three unitary factors."""
    eps0, v0, epst, vt = drive.boundary_eigensystems
    kick_end = (vt * np.exp(0.5j * lam * epst)) @ vt.conj().T
    kick_start = (v0 * np.exp(-0.5j * lam * eps0)) @ v0.conj().T
    return UnitaryOperator(kick_end @ drive.propagator.matrix @ kick_start)


# Complex elements per block of grid points in characteristic_function and
# tmp_characteristic; keeps their temporaries near 1 MiB for any grid size.
_G_BLOCK = 1 << 16


def characteristic_function(terms: SpectralExpansion, grid: CountingGrid) -> CharacteristicSamples:
    """Evaluate ``G(lam) = Tr[K(lam) rho0 K(-lam)^dag]`` on the grid.

    In the boundary eigenbases ``G(lam) = sum_k e^{i lam eps_k(T)} sum_ij
    A_ki rho_ij B_kj`` with ``A = m e^{-i lam eps(0)/2}`` and ``B = m^*
    e^{-i lam eps(0)/2}``: one batched matmul per block of grid points, each
    point evaluated independently from the unpruned eigendata of ``terms``.
    """
    eps0, epst, m, rho = terms.eps0, terms.epst, terms.m, terms.rho
    lambdas = grid.lambdas
    values = np.empty(lambdas.size, dtype=complex)
    block = max(1, _G_BLOCK // m.size)
    for start in range(0, lambdas.size, block):
        lam = lambdas[start : start + block, None]
        with np.errstate(over="ignore", invalid="ignore"):  # CharacteristicSamples checks
            half = np.exp(-0.5j * lam * eps0)[:, None, :]
            a, b = m * half, m.conj() * half
            inner = np.sum((a @ rho) * b, axis=2)
            values[start : start + block] = np.sum(np.exp(1j * lam * epst) * inner, axis=1)
    return CharacteristicSamples(grid, values)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise complex product by the plain four-multiply formula.

    NumPy's vectorized complex multiply may fuse multiply-adds, depending on
    the CPU's SIMD path; this form rounds like its scalar complex product,
    signed zeros included, so written spectral terms and path amplitudes do
    not depend on the SIMD path.
    """
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


# Spectral terms and TMP outcomes of smaller weight are dropped.
PRUNE_TOL = 1e-14


@lru_cache(maxsize=8)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs ``i <= j`` in row-major order and their fold factors."""
    i, j = np.triu_indices(d)
    return i, j, np.where(i == j, 1.0, 2.0)


def spectral_decomposition(rho0: DensityOperator, drive: DiscretizedDrive) -> SpectralExpansion:
    """Exact folded expansion of ``G`` in the initial and final eigenbases.

    Pairs with ``|w_kij| = |w_kji| < PRUNE_TOL`` are dropped. The fold needs
    ``rho = rho^dag``: a deviation above ``HERMITICITY_TOL * d`` (the most a
    change of basis grows an admissible ``rho0``'s) raises NumericalError.
    Eigenvectors inside degenerate subspaces are taken as returned by the
    eigensolver; only the bins of :func:`quasi_distribution` are
    basis-independent. This is the only function that forms ``m`` and ``rho``.
    """
    if rho0.dim != drive.dim:
        raise ValueError(f"state dim {rho0.dim} != drive dim {drive.dim}")
    eps0, v0, epst, vt = drive.boundary_eigensystems
    m = vt.conj().T @ drive.propagator.matrix @ v0
    rho = v0.conj().T @ rho0.matrix @ v0
    dev = np.abs(rho - rho.conj().T).max()
    if dev > HERMITICITY_TOL * len(rho):
        raise NumericalError(f"initial state is not Hermitian: max|rho - rho^dag| = {dev:.3e}")
    iu, ju, fold = _pairs(len(m))
    # axes (k, p) over pairs p = (i <= j): w = (rho_ij M_ki) M*_kj in real
    # parts, rounded as by two _cmul, in reused buffers
    rr, ri = rho.real[iu, ju], rho.imag[iu, ju]
    ar, ai, br, bi = (np.take(part, index, axis=1) for index in (iu, ju) for part in (m.real, m.imag))
    pr, t = rr * ar, ri * ai
    pr -= t
    pi = np.multiply(rr, ai, out=ai)
    pi += np.multiply(ri, ar, out=t)
    wr = np.multiply(pr, br, out=ar)
    wr += np.multiply(pi, bi, out=t)
    wi = np.multiply(pi, br, out=br)
    wi -= np.multiply(pr, bi, out=t)
    weight = np.empty(wr.shape, dtype=complex)
    weight.real, weight.imag = wr, wi
    support = np.subtract(epst[:, None], 0.5 * (eps0[iu] + eps0[ju]), out=t)
    keep = np.flatnonzero(np.abs(weight, out=pr) >= PRUNE_TOL)
    k, p = np.divmod(keep, iu.size)
    folded = np.multiply(wr, fold, out=wr).ravel()[keep]
    total = folded.sum()
    if abs(total - 1.0) > 1e-10:
        raise NumericalError(f"spectral weights sum to {total}, not 1")
    return SpectralExpansion(iu[p], ju[p], k, support.ravel()[keep], folded, weight.ravel()[keep], eps0, epst, m, rho)


def moment(terms: SpectralExpansion, n: int) -> float:
    """n-th moment ``sum_t w_t u_t^n`` over the folded spectral terms;
    :class:`NumericalError` when it overflows."""
    if n < 1:
        raise ValueError("moment order must be >= 1")
    power = terms.support
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        for _ in range(n - 1):  # repeated products; ``**`` calls libm pow for n > 2
            power = power * terms.support
        value = float(np.sum(terms.weight * power))
    if not math.isfinite(value):
        raise NumericalError(f"moment {n} overflows: max|u| = {np.abs(terms.support).max():.3e}")
    return value


def _central_weights(n: int, m: int) -> np.ndarray:
    """Stencil weights on offsets ``-m..m`` for the n-th derivative.

    Solves the Vandermonde moment conditions; the symmetric stencil is
    accurate to ``O(h^2)`` at minimal ``m = ceil(n/2)``.
    """
    offsets = np.arange(-m, m + 1, dtype=float)
    a = np.vander(offsets, 2 * m + 1, increasing=True).T
    b = np.zeros(2 * m + 1)
    b[n] = float(math.factorial(n))
    return np.linalg.solve(a, b)


def moment_fd(samples: CharacteristicSamples, n: int, h: float) -> float:
    """Finite-difference estimate of the n-th moment at ``lam = 0``.

    Central differences of minimal symmetric width on step ``h``,
    Richardson-extrapolated once against the doubled step. Raises
    ``KeyError`` if the sample grid is missing a stencil point.
    """
    if n < 1:
        raise ValueError("moment order must be >= 1")
    m = (n + 1) // 2
    weights = _central_weights(n, m)

    def estimate(step: float) -> complex:
        parts = (w * samples.value_at(j * step) for j, w in zip(range(-m, m + 1), weights) if w)
        return sum(parts, 0j) / step**n

    d = (4.0 * estimate(h) - estimate(2.0 * h)) / 3.0
    out = (-1j) ** n * d
    return float(out.real)


def default_fd_step(support: np.ndarray) -> float:
    """Default stencil step ``1e-3 / max|support|`` for the spectral scale."""
    radius = float(np.max(np.abs(support), initial=0.0))
    return 1e-3 / max(radius, 1e-12)


def merge_support_points(
    supports: np.ndarray, weights: np.ndarray, bin_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Merge support points closer than ``bin_tol``; weights add.

    Sorted neighbours at most ``bin_tol`` apart share a bin. Merged positions
    are magnitude-weighted means, so dominant contributions anchor the bin;
    a bin of zero mass takes the plain mean.
    """
    order = np.argsort(supports)
    u = supports[order]
    w = weights[order]
    starts = np.flatnonzero(np.diff(u, prepend=-np.inf) > bin_tol)
    if starts.size == 0:
        return u, w
    magnitude = np.abs(w)
    mass = np.add.reduceat(magnitude, starts)
    plain_mean = None if (mass > 0).all() else np.add.reduceat(u, starts) / np.diff(starts, append=u.size)
    centers = np.divide(np.add.reduceat(u * magnitude, starts), mass, out=plain_mean, where=mass > 0)
    return centers, np.add.reduceat(w, starts)


def quasi_distribution(
    terms: SpectralExpansion, bin_tol: float | None = None
) -> QuasiDistribution:
    """Bin the spectral terms into the energy-change quasi-probability.

    ``bin_tol`` defaults to ``1e-9`` times the support scale. Bins merge the
    real folded weights, so a bin centre is weighted by ``|2 Re w|`` per pair.
    """
    if len(terms) == 0:
        raise ValueError("no spectral terms to bin")
    if bin_tol is None:
        bin_tol = 1e-9 * max(1.0, float(np.max(np.abs(terms.support))))
    if bin_tol <= 0:
        raise ValueError("bin_tol must be positive")
    return QuasiDistribution(*merge_support_points(terms.support, terms.weight, bin_tol))


# Relative eigenvalue gap below which levels form one degenerate group.
DEGENERACY_TOL = 1e-9


def _level_groups(values: np.ndarray, tol: float) -> np.ndarray:
    """Group label of each sorted eigenvalue; a gap above ``tol`` (relative to
    the spectral scale) starts a new degenerate group."""
    scale = max(1.0, float(np.max(np.abs(values))))
    return np.concatenate(([0], np.cumsum(np.diff(values) > tol * scale)))


def coherent_classical_split(
    terms: SpectralExpansion, degeneracy_tol: float = DEGENERACY_TOL
) -> tuple[float, float]:
    """Split the first moment into its two-measurement and coherence parts.

    The classical part sums the terms whose initial levels ``i, j`` share one
    degenerate group and equals the two-measurement average at the same
    ``degeneracy_tol``, to within the level spread inside a group; the
    coherent part, the remainder, is carried by the coherences between
    distinct energies that a projective first measurement destroys.
    """
    labels = _level_groups(terms.eps0, degeneracy_tol)
    diagonal = labels[terms.i] == labels[terms.j]
    classical = float(np.sum(terms.weight[diagonal] * terms.support[diagonal]))
    return classical, moment(terms, 1) - classical


# ---------------------------------------------------------------------------
# grid Fourier inversion (validation path only)


def fourier_grid_for_supports(supports: np.ndarray) -> tuple[float, int, float]:
    """Counting-grid parameters for :func:`fourier_quasi_weights`.

    Returns ``(lambda_max, points, sigma_u)`` where ``sigma_u`` is the energy
    resolution of the Gaussian window (an eighth of the smallest support
    gap). The grid is wide enough for the window to decay and dense enough
    that aliasing images stay clear of the support range.
    """
    u = np.sort(np.asarray(supports, dtype=float))
    if u.size < 2:
        gap = 1.0
    else:
        gap = float(np.min(np.diff(u)))
        if gap <= 0:
            raise ValueError("supports must be distinct")
    sigma_u = gap / 8.0
    sigma_l = 1.0 / sigma_u
    lambda_max = 8.0 * sigma_l
    u_extent = float(np.max(np.abs(u))) if u.size else 1.0
    spacing = 2.0 * np.pi / (2.0 * u_extent + 16.0 * sigma_u + 4.0)
    half = int(np.ceil(lambda_max / spacing))
    return lambda_max, 2 * half + 1, sigma_u


def fourier_quasi_weights(
    samples: CharacteristicSamples, supports: np.ndarray, sigma_u: float
) -> np.ndarray:
    """Recover quasi-weights by Gaussian-windowed Fourier inversion of ``G``.

    The window turns each support point into a Gaussian of width ``sigma_u``
    in energy; evaluating the smeared density at the support points and
    undoing the peak normalization returns the weights up to window leakage.
    Validation-only: accuracy depends on the support gaps and the grid
    extent, and the spectral binning path is exact.
    """
    lam = samples.grid.lambdas
    spacing = samples.grid.spacing
    window = np.exp(-0.5 * (lam * sigma_u) ** 2)
    weighted = samples.values * window
    out = np.empty(len(supports))
    for n, u in enumerate(supports):
        f = np.sum(weighted * np.exp(-1j * lam * u)) * spacing / (2.0 * np.pi)
        out[n] = f.real * np.sqrt(2.0 * np.pi) * sigma_u
    return out
