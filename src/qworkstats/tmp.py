"""Two-measurement protocol: projective energy measurements at t = 0 and t = T.

The first measurement projects onto the eigenspaces of the initial
Hamiltonian, destroying coherences; the system then evolves under the drive
and a second projective measurement of the final Hamiltonian is made. The
outcome statistics are classical conditional probabilities

    ``p(i, k) = rho_ii * |<eps_k(T)|U|eps_i(0)>|^2``

(with spectral projectors replacing rank-one projectors on degenerate
eigenvalues, since a projective energy measurement cannot resolve a
degenerate subspace), and the work of outcome ``(i, k)`` is the eigenvalue
difference. This is the classical baseline the counting-field statistics are
contrasted with: the two agree exactly whenever the initial state is diagonal
in the initial eigenbasis, and generally disagree from the first moment
onward when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fcs import _G_BLOCK, DEGENERACY_TOL, PRUNE_TOL, CharacteristicSamples, CountingGrid, SpectralExpansion, _level_groups
from .linalg import DensityOperator, HermitianOperator, NumericalError, eig_hermitian

__all__ = [
    "TmpDistribution",
    "tmp_distribution",
    "tmp_moment",
    "tmp_characteristic",
    "dephase",
]


@dataclass(frozen=True, eq=False)
class TmpDistribution:
    """Joint outcomes as arrays: outcome ``n`` pairs initial level group ``i[n]``
    with final level group ``k[n]``, has ``probability[n]`` and work
    ``work[n] = energyt[k[n]] - energy0[i[n]]``, ordered by ``i``, then ``k``;
    ``energy0`` and ``energyt`` are the mean levels of the groups."""

    i: np.ndarray
    k: np.ndarray
    probability: np.ndarray
    work: np.ndarray
    energy0: np.ndarray
    energyt: np.ndarray

    def __len__(self) -> int:
        return self.probability.size


def _group_energies(values: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index and mean eigenvalue of each group."""
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    return starts, np.add.reduceat(values, starts) / np.bincount(labels)


def tmp_distribution(
    terms: SpectralExpansion, *, degeneracy_tol: float = DEGENERACY_TOL
) -> TmpDistribution:
    """Joint outcome distribution of the two projective energy measurements.

    Outcomes are labeled by distinct eigenvalues of the boundary
    Hamiltonians; joint probabilities below ``PRUNE_TOL`` are dropped. The
    remaining probabilities are nonnegative and sum to one. In the boundary
    eigenbases this is the spectral tensor of ``terms`` (its unpruned ``m``
    and ``rho``) restricted to pairs inside one initial group,
    ``p(g, h) = sum_{k in h} sum_{i, j in g} rho_ij M_ki M*_kj``.
    """
    eps0, epst, m, rho = terms.eps0, terms.epst, terms.m, terms.rho
    labels0 = _level_groups(eps0, degeneracy_tol)
    starts0, energies0 = _group_energies(eps0, labels0)
    startst, energiest = _group_energies(epst, _level_groups(epst, degeneracy_tol))
    within = np.where(labels0[:, None] == labels0[None, :], rho, 0.0)
    # q[k, j] = sum_{i in g(j)} M_ki rho_ij M*_kj, summed over j in g and k in h
    q = ((m @ within) * m.conj()).real
    p = np.add.reduceat(np.add.reduceat(q, startst, axis=0), starts0, axis=1).T
    keep = np.flatnonzero(p >= PRUNE_TOL)
    i, k = np.unravel_index(keep, p.shape)
    probability = p.ravel()[keep]
    total = probability.sum()
    if abs(total - 1.0) > 1e-12:
        raise NumericalError(f"outcome probabilities sum to {total}, not 1")
    return TmpDistribution(i, k, probability, energiest[k] - energies0[i], energies0, energiest)


def tmp_moment(outcomes: TmpDistribution, n: int) -> float:
    """n-th work moment ``sum_o p_o w_o^n``; ``n = 1`` is the average work."""
    return float(np.sum(outcomes.probability * outcomes.work**n))


def tmp_characteristic(outcomes: TmpDistribution, grid: CountingGrid) -> CharacteristicSamples:
    """Characteristic function ``sum_o p_o exp(i lam w_o)`` on the grid, as
    ``sum_h e^{i lam E_h(T)} sum_g p_gh e^{-i lam E_g(0)}``: exponentials of
    the group energies and one matrix product per block of grid points."""
    g = outcomes.energy0.size
    p = np.zeros((g, outcomes.energyt.size))
    p[outcomes.i, outcomes.k] = outcomes.probability
    energies = np.concatenate((-outcomes.energy0, outcomes.energyt))
    lambdas = grid.lambdas
    values = np.empty(lambdas.size, dtype=complex)
    block = max(1, _G_BLOCK // energies.size)
    for start in range(0, lambdas.size, block):
        phases = np.exp(1j * lambdas[start : start + block, None] * energies)
        values[start : start + block] = ((phases[:, :g] @ p) * phases[:, g:]).sum(axis=1)
    return CharacteristicSamples(grid, values)


def dephase(
    rho0: DensityOperator, h: HermitianOperator, degeneracy_tol: float = DEGENERACY_TOL
) -> DensityOperator:
    """Erase coherences of ``rho0`` between eigenspaces of ``h``.

    Returns ``sum_g P_g rho P_g``: what the first projective measurement
    leaves behind on average.
    """
    values, vectors = eig_hermitian(h)
    v = vectors.matrix
    labels = _level_groups(values, degeneracy_tol)
    rho = v.conj().T @ rho0.matrix @ v
    return DensityOperator(v @ np.where(labels[:, None] == labels[None, :], rho, 0.0) @ v.conj().T)
