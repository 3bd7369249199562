"""Brute-force path enumeration on small instances.

The drive propagator matrix element between two states can be expanded by
inserting, at every time gridpoint ``t_k = k dt`` (``k = 0..N``), the
eigenbasis of a chosen observable ``A(t_k)``. Each index tuple is a path; its
amplitude is the product of step matrix elements and the sum over all
``d^(N+1)`` paths reproduces the matrix element exactly, at any ``N``.

Weighting each path by ``exp(i lam F)`` with the path functional
``F = dt * sum_k beta_k a_k`` turns the sum into the matrix element of a
counting-field evolution. With the boundary weight profile (``beta`` a
discretized delta of strength ``-1/dt`` at the first gridpoint and ``+1/dt``
on the last step's left endpoint) the functional is the difference of the
observable's eigenvalues at the ends, and the weighted sum converges at first
order in ``dt`` to the two-kick form ``exp(i lam A(T)) U exp(-i lam A(0))``.
The same weighted sum is compared against the product of combined
exponentials ``exp(-i dt (H^k - lam beta_k A_k))``, which differs by the
usual O(dt) splitting error unless ``[H, A] = 0``.

This module is a test oracle, not a production path: enumeration is capped
at 10^6 paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .drive import DiscretizedDrive
from .fcs import _cmul
from .linalg import (
    HermitianOperator,
    NumericalError,
    UnitaryOperator,
    eig_hermitian,
    expm_unitary,
    mat,
)

__all__ = [
    "PathEnsemble",
    "PATH_ENUMERATION_LIMIT",
    "boundary_beta",
    "enumerate_paths",
    "path_sum",
    "counting_weighted_sum",
    "kicked_product",
]

PATH_ENUMERATION_LIMIT = 10**6


@dataclass(frozen=True)
class PathEnsemble:
    """All ``dim^n_gridpoints`` paths of one matrix element as flat arrays.

    Path ``p`` is the index tuple ``(i_0, ..., i_N)`` at position ``p`` of
    ``itertools.product(range(dim), repeat=n_gridpoints)`` (``i_N`` varies
    fastest); ``amplitude[p]`` is its product of step matrix elements and
    ``functional[p]`` its value of ``F = dt * sum_k beta_k a_k``.
    """

    amplitude: np.ndarray
    functional: np.ndarray
    dim: int
    n_gridpoints: int

    def __len__(self) -> int:
        return self.amplitude.size

    def indices(self, rows: int) -> np.ndarray:
        """Index tuples of the first ``rows`` paths, shape ``(rows, n_gridpoints)``."""
        flat = np.arange(min(rows, len(self)))
        return np.stack(np.unravel_index(flat, (self.dim,) * self.n_gridpoints), axis=1)


def boundary_beta(n_steps: int, dt: float) -> np.ndarray:
    """Discretized ``delta(T - t) - delta(t)`` weight profile.

    Each delta carries ``1/dt`` on one gridpoint: the initial one, and the
    left endpoint of the last step (the final gridpoint carries no evolution
    interval). Needs at least two steps so the two deltas do not collide;
    :class:`NumericalError` when ``1/dt`` overflows.
    """
    if n_steps < 2:
        raise ValueError("boundary profile needs at least two steps")
    if not math.isfinite(1.0 / dt):
        raise NumericalError(f"boundary weight 1/dt overflows at dt = {dt:.3e}")
    beta = np.zeros(n_steps + 1)
    beta[0] = -1.0 / dt
    beta[n_steps - 1] = +1.0 / dt
    return beta


def _gridpoint_profile(drive: DiscretizedDrive, observables, beta) -> tuple:
    """``(observables, beta)``, one entry each per gridpoint of a ``"left"`` drive,
    defaulting to its gridpoint Hamiltonians and :func:`boundary_beta`;
    ``ValueError`` naming the count when either has another length."""
    n = drive.n_steps
    observables = drive.gridpoint_hamiltonians if observables is None else observables
    if len(observables) != n + 1:
        raise ValueError(f"need {n + 1} observables (one per gridpoint), got {len(observables)}")
    beta = boundary_beta(n, drive.dt) if beta is None else np.asarray(beta, dtype=float)
    if beta.size != n + 1:
        raise ValueError(f"beta must have {n + 1} entries, got {beta.size}")
    return observables, beta


def enumerate_paths(
    drive: DiscretizedDrive,
    psi_initial,
    psi_final,
    observables: Sequence[HermitianOperator] | np.ndarray | None = None,
    beta: np.ndarray | None = None,
) -> PathEnsemble:
    """All basis paths contributing to ``<psi_final|U|psi_initial>``.

    One entry per index tuple ``(i_0, ..., i_N)``; amplitudes sum to the
    exact matrix element. The drive must be a ``"left"`` drive, whose step
    generators are the Hamiltonian's samples (``ValueError`` otherwise); its
    step exponentials, and by default the bases, come from its gridpoint
    eigensystems. Raises :class:`NumericalError` when the path count would
    exceed ``PATH_ENUMERATION_LIMIT``.
    """
    default = observables is None
    observables, beta = _gridpoint_profile(drive, observables, beta)
    n, d = drive.n_steps, drive.dim
    count = d ** (n + 1)
    if count > PATH_ENUMERATION_LIMIT:
        raise NumericalError(
            f"path enumeration would need {count} paths, above the limit {PATH_ENUMERATION_LIMIT}"
        )
    # The drive's bases, in eig_hermitian's phase convention, and steps as expm_unitary
    # forms them, each checked unitary as those check theirs.
    values, vectors = drive.gridpoint_eigensystems
    bases = [UnitaryOperator(v).matrix for v in vectors]
    steps = [
        UnitaryOperator((b * np.exp(-1j * w * drive.dt)) @ b.conj().T).matrix for w, b in zip(values[:-1], bases)
    ]
    if not default:
        values, bases = zip(*((w, v.matrix) for w, v in map(eig_hermitian, observables)))
    # Transfer matrices between consecutive eigenbases; boundary overlaps.
    transfer = [bases[k + 1].conj().T @ steps[k] @ bases[k] for k in range(n)]
    start = bases[0].conj().T @ np.asarray(psi_initial, dtype=complex).ravel()
    end = bases[n].conj().T @ np.asarray(psi_final, dtype=complex).ravel()
    # Axis k of the running arrays is the index i_k, so appending one axis
    # per step keeps the paths in itertools.product order.
    amp = start
    f = drive.dt * beta[0] * values[0]
    for k in range(n):
        amp = _cmul(amp[..., None], transfer[k].T)
        f = f[..., None] + drive.dt * beta[k + 1] * values[k + 1]
    amp = _cmul(amp, np.conj(end))
    return PathEnsemble(amp.ravel(), f.ravel(), d, n + 1)


# Both sums run in path order (a cumulative sum, not NumPy's pairwise
# reduction), so they round exactly as a loop over the paths adds them.


def path_sum(paths: PathEnsemble) -> complex:
    """Plain sum of path amplitudes (the unconstrained matrix element)."""
    return complex(np.cumsum(paths.amplitude)[-1])


def counting_weighted_sum(paths: PathEnsemble, lam: float) -> complex:
    """``sum_P exp(i lam F[P]) * amplitude(P)``."""
    return complex(np.cumsum(_cmul(np.exp(1j * lam * paths.functional), paths.amplitude))[-1])


def kicked_product(
    drive: DiscretizedDrive,
    lam: float,
    observables: Sequence[HermitianOperator] | np.ndarray | None = None,
    beta: np.ndarray | None = None,
) -> np.ndarray:
    """Product of combined exponentials ``exp(-i dt (H^k - lam beta_k A_k))``.

    The final gridpoint has no evolution interval, so its weight enters as a
    pure kick ``exp(+i lam dt beta_N A_N)`` on the left. Agrees with the
    counting-weighted path sum up to O(dt) splitting error, exactly when all
    ``[H^k, A_k] = 0``. Needs a ``"left"`` drive, like :func:`enumerate_paths`.
    """
    observables, beta = _gridpoint_profile(drive, observables, beta)
    n, h = drive.n_steps, drive.gridpoint_hamiltonians
    u = np.eye(drive.dim, dtype=complex)
    for k in range(n):
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            generator = h[k] - lam * beta[k] * mat(observables[k])
        if not np.isfinite(generator).all():
            raise NumericalError(f"combined generator of step {k} overflows at lam = {lam}")
        u = expm_unitary(HermitianOperator(generator), drive.dt).matrix @ u
    if beta[n] != 0.0:
        u = expm_unitary(observables[n], -lam * drive.dt * beta[n]).matrix @ u
    return u
