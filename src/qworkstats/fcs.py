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
values. The weights are real after merging but may be negative when the
initial state carries coherences between energy eigenstates; a dephased
(diagonal) initial state reproduces the nonnegative two-measurement result.

:class:`SpectralExpansion` holds the terms as arrays with the eigendata
they came from; moments, binning, the classical/coherent split, ``G`` on a
grid and the two-measurement distribution are array expressions over it.

A windowed Fourier inversion of ``G`` sampled on a wide counting-field grid
is provided as an independent validation path for the binned distribution;
it carries the usual windowing artifacts and is not used in production.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drive import DiscretizedDrive
from .linalg import DensityOperator, NumericalError, UnitaryOperator

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
    return CountingGrid(np.linspace(-lambda_max, lambda_max, points))


def fd_stencil_grid(h: float, order: int = 2, richardson: bool = True) -> CountingGrid:
    """Grid holding every point the order-``order`` central stencil needs.

    With ``richardson`` the doubled-step stencil points are included as well.
    """
    if h <= 0:
        raise ValueError("stencil step must be positive")
    m = (order + 1) // 2
    offsets = {0}
    for j in range(1, m + 1):
        offsets.update({j, -j})
        if richardson:
            offsets.update({2 * j, -2 * j})
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
    """The exact phase terms of ``G`` as arrays: ``G = sum_t weight_t exp(i lam support_t)``.

    Term ``t`` has initial eigenbasis indices ``i[t], j[t]`` and final index
    ``k[t]``; terms are ordered by ``k``, then ``i``, then ``j``, after pruning.
    Terms with ``i == j`` carry the coherence-free (two-measurement) part and
    have real nonnegative weight; ``i != j`` terms encode initial coherences.

    ``eps0`` holds the eigenvalues of ``H(0)`` that ``i`` and ``j`` index.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    support: np.ndarray
    weight: np.ndarray
    eps0: np.ndarray

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


def _eigendata(rho0: DensityOperator, drive: DiscretizedDrive) -> tuple:
    """``(eps0, epst, m, rho)`` from the drive's cached ``U`` and eigensystems:
    ``m[k, i] = <eps_k(T)|U|eps_i(0)>`` and ``rho = v0^dag rho0 v0``."""
    if rho0.dim != drive.dim:
        raise ValueError(f"state dim {rho0.dim} != drive dim {drive.dim}")
    eps0, v0, epst, vt = drive.boundary_eigensystems
    m = vt.conj().T @ drive.propagator.matrix @ v0
    rho = v0.conj().T @ rho0.matrix @ v0
    return eps0, epst, m, rho


# Complex elements per (lambda, d, d) block in characteristic_function; keeps
# its temporaries at a few MB for any grid size.
_G_BLOCK = 1 << 18


def characteristic_function(
    rho0: DensityOperator, drive: DiscretizedDrive, grid: CountingGrid
) -> CharacteristicSamples:
    """Evaluate ``G(lam) = Tr[K(lam) rho0 K(-lam)^dag]`` on the grid.

    In the boundary eigenbases ``G(lam) = sum_k e^{i lam eps_k(T)} sum_ij
    A_ki rho_ij B_kj`` with ``A = m e^{-i lam eps(0)/2}`` and ``B = m^*
    e^{-i lam eps(0)/2}``: one batched matmul per block of grid points, each
    point evaluated independently.
    """
    eps0, epst, m, rho = _eigendata(rho0, drive)
    lambdas = grid.lambdas
    values = np.empty(lambdas.size, dtype=complex)
    block = max(1, _G_BLOCK // m.size)
    for start in range(0, lambdas.size, block):
        lam = lambdas[start : start + block, None]
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


def spectral_decomposition(rho0: DensityOperator, drive: DiscretizedDrive) -> SpectralExpansion:
    """Exact expansion of ``G`` in the initial and final eigenbases.

    Terms with ``|weight| < PRUNE_TOL`` are dropped. Eigenvectors inside
    degenerate subspaces are taken as returned by the eigensolver; only
    binned support/weight pairs are basis-independent, which is what
    :func:`quasi_distribution` exposes.
    """
    eps0, epst, m, rho = _eigendata(rho0, drive)
    # axes (k, i, j): w = rho_ij M_ki M*_kj, u = eps_k(T) - (eps_i(0) + eps_j(0)) / 2;
    # w = (rho_ij M_ki) M*_kj in place in real parts, rounded as by two _cmul
    mr, mi = m.real[:, :, None], m.imag[:, :, None]
    pr, pi = rho.real * mr, rho.real * mi
    pr -= rho.imag * mi
    pi += rho.imag * mr
    weight = np.empty(pr.shape, dtype=complex)
    wr, wi, mr, mi = weight.real, weight.imag, m.real[:, None, :], m.imag[:, None, :]
    np.multiply(pr, mr, out=wr)
    wr += pi * mi
    np.multiply(pi, mr, out=wi)
    wi -= pr * mi
    support = epst[:, None, None] - 0.5 * (eps0[:, None] + eps0[None, :])
    keep = np.flatnonzero(np.abs(weight) >= PRUNE_TOL)
    k, ij = np.divmod(keep, m.size)
    i, j = np.divmod(ij, len(m))
    weight = weight.ravel()[keep]
    total = weight.sum()
    if abs(total - 1.0) > 1e-10:
        raise NumericalError(f"spectral weights sum to {total}, not 1")
    return SpectralExpansion(i, j, k, support.ravel()[keep], weight, eps0)


def moment(terms: SpectralExpansion, n: int) -> float:
    """n-th moment ``Re sum_t w_t u_t^n`` from the exact spectral terms.

    The imaginary residue of the sum cancels pairwise between ``(i, j)`` and
    ``(j, i)`` terms; a residue above 1e-10 signals a broken decomposition.
    """
    if n < 1:
        raise ValueError("moment order must be >= 1")
    power = terms.support
    for _ in range(n - 1):  # repeated products; ``**`` calls libm pow for n > 2
        power = power * terms.support
    total = np.sum(terms.weight * power)
    if abs(total.imag) > 1e-10:
        raise NumericalError(f"moment has imaginary residue {total.imag:.3e}")
    return float(total.real)


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


def moment_fd(
    samples: CharacteristicSamples,
    n: int,
    h: float | None = None,
    richardson: bool = True,
) -> float:
    """Finite-difference estimate of the n-th moment at ``lam = 0``.

    Central differences of minimal symmetric width on step ``h`` (default:
    the smallest positive grid value), optionally Richardson-extrapolated
    once against the doubled step. Raises ``KeyError`` if the sample grid is
    missing a stencil point.
    """
    if n < 1:
        raise ValueError("moment order must be >= 1")
    if h is None:
        positive = samples.grid.lambdas[samples.grid.lambdas > 0]
        if positive.size == 0:
            raise ValueError("grid has no positive points to infer the step from")
        h = float(positive.min())
    m = (n + 1) // 2
    weights = _central_weights(n, m)

    def estimate(step: float) -> complex:
        acc = 0.0 + 0.0j
        for j, w in zip(range(-m, m + 1), weights):
            if w == 0.0:
                continue
            acc += w * samples.value_at(j * step)
        return acc / step**n

    d = estimate(h)
    if richardson:
        d = (4.0 * d - estimate(2.0 * h)) / 3.0
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

    ``bin_tol`` defaults to ``1e-9`` times the support scale. Imaginary parts
    of the merged weights must cancel pairwise; a residue above 1e-10 raises.
    """
    if len(terms) == 0:
        raise ValueError("no spectral terms to bin")
    if bin_tol is None:
        bin_tol = 1e-9 * max(1.0, float(np.max(np.abs(terms.support))))
    if bin_tol <= 0:
        raise ValueError("bin_tol must be positive")
    u, w = merge_support_points(terms.support, terms.weight, bin_tol)
    residue = float(np.max(np.abs(w.imag)))
    if residue > 1e-10:
        raise NumericalError(f"imaginary weight residue {residue:.3e} after binning")
    return QuasiDistribution(u, w.real)


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
    degenerate group (``i == j`` on a nondegenerate spectrum) and equals the
    two-measurement average of :func:`qworkstats.tmp.tmp_distribution` at the
    same ``degeneracy_tol`` (to within the level spread inside a group, as
    the two-measurement work takes each group's mean level); the coherent part is the remainder, carried by
    the coherences between distinct energies that a projective first
    measurement destroys.
    """
    labels = _level_groups(terms.eps0, degeneracy_tol)
    diagonal = labels[terms.i] == labels[terms.j]
    classical = float(np.sum(terms.weight.real[diagonal] * terms.support[diagonal]))
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
