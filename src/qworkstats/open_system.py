"""Composite system+environment evolution with sequential detector couplings.

The environment is a small Hilbert space (a few qubits or a truncated
oscillator) evolved exactly and unitarily together with the system; no master
equation approximation is made anywhere, so the bookkeeping identities below
hold to rounding.

Per drive step ``k`` the composite Hamiltonian is
``H^k = H_S^k (x) 1 + 1 (x) H_E + g H_SE`` and one measurement block reads

    ``B_k(lam) = exp(-i lam/2 H_S^k) exp(-i dt H^k) exp(+i lam/2 H_S^k)``

with ``H_S^k`` lifted to the composite space. The kick signs are opposite to
the closed-system boundary kicks: the block counts energy leaving the system
into the environment (heat) with the sign convention that heat flowing INTO
the system is positive. The full work-counting operator adds closed-style
boundary kicks on the initial and final system Hamiltonians,

    ``K(lam) = exp(+i lam/2 H_S(T)) B_{N-1} ... B_0 exp(-i lam/2 H_S(0))``,

whose first moment is the average work ``W``. Evolving at ``lam = 0`` and
reading the reduced system state after every block gives the heat ledger

    ``Q_k = Tr_S[H_S^k (rho_{S,k} - rho_{S,k-1})]``,  ``W = dU - Q``,

and regrouping the same telescoping sum yields the Hamiltonian-increment form
``W = sum_k Tr_S[(H_S^{k+1} - H_S^k) rho_{S,k}]``, implemented independently
as a cross-check.

Counting on the environment energy instead of the system reproduces the
system-side heat statistics to first order in the coupling ``g``
(``Gbar(lam) = G(-lam)`` in the boundary-kick sign convention, which equals
the block-kick ``G`` at ``+lam``); :meth:`DiscretizedComposite.duality_deviation`
measures the residual, which shrinks linearly with ``g``.

All of these are methods of one :class:`DiscretizedComposite`, built once per
run from the run's discretized drive; it holds the step propagators and
eigensystems they share and works on capped blocks of steps, not step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .drive import DiscretizedDrive, ordered_product
from .fcs import CharacteristicSamples, CountingGrid
from .linalg import (
    HERMITICITY_TOL,
    TRACE_TOL,
    DensityOperator,
    HermitianOperator,
    NumericalError,
    _eigh,
    dagger,
    eig_hermitian,
    gibbs_weights,
    max_abs,
    mat,
    partial_trace_env,
    tensor,
)

__all__ = [
    "DiscretizedComposite",
    "HeatLedger",
    "fast_decoherence_run",
    "qubit_exchange_environment",
    "two_qubit_exchange_environment",
    "oscillator_environment",
]

_SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # raises index 0 -> 1
_SIGMA_MINUS = _SIGMA_PLUS.T.copy()


@dataclass(frozen=True, eq=False)
class HeatLedger:
    """Per-step heat/entropy increments and the internal-energy change ``dU``.

    ``k``, ``time``, ``heat_increments`` and ``entropy_increments`` are equal-
    length arrays, one entry per drive step. Sign convention: positive heat
    flows into the system. The totals are derived: ``heat`` sums the
    increments and ``work`` is ``dU - Q`` by definition.
    """

    k: np.ndarray
    time: np.ndarray
    heat_increments: np.ndarray
    entropy_increments: np.ndarray
    internal_energy_change: float

    @cached_property
    def heat(self) -> float:
        """Total heat ``Q``: the increments summed left to right."""
        return float(sum(self.heat_increments))

    @property
    def work(self) -> float:
        """``W = dU - Q``."""
        return self.internal_energy_change - self.heat


# Complex elements per batched temporary of the step axis (128 KiB; a block of
# steps holds at most this many, or one step) and per chunk of work kicks (1 MiB).
_STEP_BLOCK, _KICK_BLOCK = 1 << 13, 1 << 16


def _reduced_state_spectra(states: np.ndarray) -> np.ndarray:
    """Eigenvalues of a ``(K, d, d)`` stack of reduced states, one per row.

    Each state must pass the :class:`DensityOperator` checks (finite,
    Hermitian, unit trace) with the positivity tolerance widened to ``1e-8``
    for the rounding of the evolution and partial trace; the first that
    fails raises :class:`NumericalError` naming its index.
    """
    finite = np.isfinite(states).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(f"reduced state {int(np.argmin(finite))} has non-finite entries")
    herm = np.abs(states - dagger(states)).max(axis=(1, 2))
    trace = np.trace(states, axis1=1, axis2=2)
    spectra = np.linalg.eigvalsh(0.5 * (states + dagger(states)))
    bad = np.flatnonzero(
        (herm > HERMITICITY_TOL * np.maximum(1.0, np.abs(states).max(axis=(1, 2))))
        | (np.abs(trace - 1.0) > TRACE_TOL)
        | (spectra[:, 0] < -1e-8)
    )
    if bad.size:
        k = int(bad[0])
        raise NumericalError(
            f"reduced state {k} is not a density matrix: Hermiticity deviation {herm[k]:.3e}, "
            f"trace {complex(trace[k])}, smallest eigenvalue {spectra[k, 0]:.3e}"
        )
    return spectra


def _kicks(w: np.ndarray, v: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """``exp(+i lam/2 s_{j+1}) exp(-i lam/2 s_j)`` for the ``J`` Hamiltonians
    ``s_j`` with eigensystems ``(w[j], v[j])``, each for every ``lam``: shape
    ``(J - 1, L, d, d)``.

    Each kick is ``sum_bc exp(i lam/2 (w_{j+1,b} - w_{j,c})) T_bc
    v_{j+1,b} v_{j,c}^dag`` with ``T = v_{j+1}^dag v_j``: one batched product
    of the grid's phases with lambda-independent terms.
    """
    d = w.shape[-1]
    freqs = (w[1:, :, None] - w[:-1, None, :]).reshape(-1, 1, d * d)
    terms = np.einsum("jbc,jab,jec->jbcae", dagger(v[1:]) @ v[:-1], v[1:], v[:-1].conj())
    with np.errstate(over="ignore", invalid="ignore"):  # G of these kicks is checked finite
        kicks = np.exp(0.5j * (lams[:, None] * freqs)) @ terms.reshape(-1, d * d, d * d)
    return kicks.reshape(len(freqs), lams.size, d, d)


class DiscretizedComposite:
    """The open-system engine of one run: a drive on its step grid, a static environment, their coupling.

    ``coupling`` acts on the composite space with the ``system (x) environment``
    index convention; ``coupling_scale`` multiplies it, so weak coupling sweeps
    vary a single number. ``drive`` must have gridpoint Hamiltonians
    (``ValueError`` otherwise): its steps are the samples ``H_S^k``. Holds the
    step propagators ``E_k = exp(-i dt H^k)`` and the eigensystem of ``H_E``
    from :func:`eig_hermitian`, reads those of the ``H_S^k`` and the boundary
    eigensystems from the drive, all in one phase convention, and evaluates
    every open-system quantity from them. Kicks are formed on their own factor
    and applied to ``(dim_s, dim_e)``-reshaped blocks, so no Kronecker product
    is formed per step or per counting field. Steps are batched in blocks of at
    most ``_STEP_BLOCK`` complex elements (or one step): one eigendecomposition
    per block, and one pairwise :func:`ordered_product` per block of kicked
    steps. One work chain serves every counting family.
    """

    def __init__(
        self, drive: DiscretizedDrive, h_env: HermitianOperator, coupling: HermitianOperator, coupling_scale: float = 1.0
    ):
        self.dim_s, self.dim_e = drive.dim, h_env.dim
        self.dim = self.dim_s * self.dim_e
        if coupling.dim != self.dim:
            raise ValueError(f"coupling dim {coupling.dim} != system*environment = {self.dim}")
        self.drive, self.h_env, self.coupling, self.coupling_scale = drive, h_env, coupling, coupling_scale
        eye = np.eye(self.dim)
        static = self._on_factor(h_env.matrix, eye, env=True) + coupling_scale * coupling.matrix
        steps = drive.gridpoint_hamiltonians[:-1]  # H_S^0 ... H_S^{N-1}
        self.propagators = np.empty((drive.n_steps, self.dim, self.dim), dtype=complex)
        size = max(1, _STEP_BLOCK // self.dim**2)
        for a in range(0, drive.n_steps, size):
            w, v = _eigh(self._on_factor(steps[a : a + size], eye) + static, phases=False)
            self.propagators[a : a + size] = (v * np.exp(-1j * drive.dt * w)[:, None, :]) @ dagger(v)
        values, vectors = eig_hermitian(h_env)
        self.env_eigensystem = values, vectors.matrix

    def _on_factor(self, a: np.ndarray, m: np.ndarray, env: bool = False) -> np.ndarray:
        """``(a (x) 1) m``, or ``(1 (x) a) m`` with ``env``, on reshaped blocks.

        ``a`` acts on one factor, ``m`` on the composite space; stack axes broadcast.
        A system ``a`` may stack ``r`` operators as ``(r d_s, d_s)`` rows: ``r`` results on the rows.
        """
        d = m.shape[-1]
        if env:
            out = a[..., None, :, :] @ m.reshape(*m.shape[:-2], -1, self.dim_e, d)
            return out.reshape(*out.shape[:-3], d, d)
        out = a @ m.reshape(*m.shape[:-2], a.shape[-1], -1)
        return out.reshape(*out.shape[:-2], -1, d)

    def _product_state(self, rho_s, rho_e) -> np.ndarray:
        """``rho_S (x) rho_E`` on the composite space."""
        a, b = mat(rho_s), mat(rho_e)
        if a.shape[0] != self.dim_s or b.shape[0] != self.dim_e:
            raise ValueError(
                f"state dims ({a.shape[0]}, {b.shape[0]}) != factor dims ({self.dim_s}, {self.dim_e})"
            )
        return self._on_factor(a, self._on_factor(b, np.eye(self.dim), env=True))

    def _chain(self, lams: np.ndarray) -> np.ndarray:
        """Work counting operators ``k_N E_{N-1} ... k_1 E_0`` for every ``lam``, shape
        ``(L, D, D)``: ``k_j`` kicks from ``H_S^{j-1}`` to ``H_S^j`` (``H_S^N = H(T)``),
        and the kick from ``H(0)`` to ``H_S^0 = H(0)`` is the identity. Kicks are formed
        per chunk of ``_KICK_BLOCK`` elements; each block of steps folds ``k_{j+1} E_j``
        in one product (a step's L kicks on the rows), then reduces."""
        w, v = self.drive.gridpoint_eigensystems
        u = np.eye(self.dim, dtype=complex)
        size = max(1, _STEP_BLOCK // (lams.size * self.dim**2))
        chunk = size * max(1, _KICK_BLOCK // (size * lams.size * self.dim_s**2))
        for c in range(0, self.drive.n_steps, chunk):
            kicks = _kicks(w[c : c + chunk + 1], v[c : c + chunk + 1], lams)
            for a in range(0, len(kicks), size):
                k = kicks[a : a + size]
                block = self._on_factor(k.reshape(len(k), -1, self.dim_s), self.propagators[c + a : c + a + size])
                u = ordered_product(block.reshape(len(k), -1, self.dim, self.dim)) @ u
        return u

    def _sandwich(self, k: np.ndarray, lams: np.ndarray, first, last, env: bool = False) -> np.ndarray:
        """``exp(+i lam/2 s_1) k exp(-i lam/2 s_0)`` on the system (or ``env``) factor
        for the eigensystems ``first`` of ``s_0`` and ``last`` of ``s_1``."""
        (w0, v0), (w1, v1) = first, last
        k0, k1 = _kicks(np.stack([w0, 0.0 * w0, w1]), np.stack([v0, np.eye(w0.size), v1]), lams)
        return self._on_factor(k1, k @ self._on_factor(k0, np.eye(self.dim), env=env), env=env)

    def _families(self, lams: np.ndarray, counting) -> dict[str, np.ndarray]:
        """Counting operators of each family in ``counting`` for every ``lam`` from one
        work chain: ``K_heat = exp(-i lam/2 H(T)) K_work exp(+i lam/2 H(0))`` on the
        system factor, ``K_env = exp(+i lam/2 H_E) K_work(0) exp(-i lam/2 H_E)`` on the
        environment factor (the chain gains ``lam = 0`` if needed, or runs at it alone)."""
        if unknown := set(counting) - {"work", "heat", "environment"}:
            raise ValueError(f"unknown counting mode {min(unknown)!r}")
        chained = lams if set(counting) - {"environment"} else lams[:0]
        if "environment" in counting:
            h0 = self.drive.h_start.matrix
            if max_abs(self.drive.gridpoint_hamiltonians - h0) > 1e-12 * max(1.0, max_abs(h0)):
                raise ValueError("environment counting requires a constant system Hamiltonian")
            chained = chained if (chained == 0.0).any() else np.append(chained, 0.0)
        k, env = self._chain(chained), self.env_eigensystem
        eps0, v0, epst, vt = self.drive.boundary_eigensystems
        derive = {
            "work": lambda: k[: lams.size],
            "heat": lambda: self._sandwich(k[: lams.size], -lams, (eps0, v0), (epst, vt)),
            "environment": lambda: self._sandwich(k[np.argmax(chained == 0.0)], lams, env, env, env=True),
        }
        return {family: derive[family]() for family in counting}

    def counting_operators(self, lams: np.ndarray, counting: str) -> np.ndarray:
        """Counting operators ``K(lam)`` of one family for every ``lam``: shape ``(L, D, D)``.
        ``"work"``: boundary kicks on ``H_S(0)`` and ``H_S(T)`` around the block product
        ``B_{N-1} ... B_0``; ``"heat"``: the block product; ``"environment"``: kicks on
        ``H_E`` around the plain product, for a constant system Hamiltonian only."""
        return self._families(np.asarray(lams, dtype=float), (counting,))[counting]

    def characteristic_functions(
        self, rho_s: DensityOperator, rho_e: DensityOperator, grid: CountingGrid, counting=("work",), stencil=None
    ) -> tuple[dict[str, CharacteristicSamples], CharacteristicSamples | None]:
        """:meth:`characteristic_function` of each family in ``counting`` on ``grid``, by
        name, and the work ``G`` on ``stencil`` (or ``None``), from one work chain over
        the grid followed by the stencil points it lacks."""
        lams, rho = grid.lambdas, self._product_state(rho_s, rho_e)
        points = () if stencil is None else stencil.lambdas
        lams = np.concatenate([lams, [x for x in points if np.abs(lams - x).min() > 1e-9 * max(1.0, abs(x))]])
        ops = self._families(lams, counting if stencil is None else (*counting, "work"))

        def samples(g, k):  # K(-lam) is the operator at the mirrored index of the symmetric grid g
            k_rho = k @ rho
            return CharacteristicSamples(g, np.einsum("lij,lij->l", k_rho, np.conjugate(k, out=k)[::-1]))

        # the stencil rows are copied out before the grid's samples conjugate the work stack in place
        fd = None if stencil is None else ops["work"][[np.abs(lams - x).argmin() for x in points]]
        on_grid = {family: samples(grid, ops[family][: grid.size]) for family in counting}
        return on_grid, None if fd is None else samples(stencil, fd)

    def characteristic_function(
        self, rho_s: DensityOperator, rho_e: DensityOperator, grid: CountingGrid, counting: str = "work"
    ) -> CharacteristicSamples:
        """``G(lam) = Tr_{S+E}[K(lam) (rho_S (x) rho_E) K(-lam)^dag]`` on ``grid`` for the
        family ``counting`` of :meth:`counting_operators`: ``"work"`` has first moment W,
        ``"heat"`` first moment -Q."""
        return self.characteristic_functions(rho_s, rho_e, grid, (counting,))[0][counting]

    def duality_deviation(self, rho_s: DensityOperator, rho_e: DensityOperator, grid: CountingGrid) -> float:
        """``max_lam |Gbar(lam) - G(-lam)|`` between environment- and system-side counting.
        ``G(-lam)`` in the boundary-kick sign convention equals the block-kick heat
        CGF at ``+lam`` (exactly, for constant system Hamiltonians), so both are read
        on ``grid``. It vanishes linearly as the coupling is switched off."""
        g = self.characteristic_functions(rho_s, rho_e, grid, ("environment", "heat"))[0]
        return float(np.max(np.abs(g["environment"].values - g["heat"].values)))

    def trajectory(
        self, rho_s: DensityOperator, rho_e: DensityOperator, refresh_every: int | None = None
    ) -> tuple[HeatLedger, float]:
        """Evolve the composite state at ``lam = 0`` once; return the heat
        ledger and the Hamiltonian-increment work of the same reduced states.

        The ledger accounts ``Q_k = Tr_S[H_S^k (rho_{S,k} - rho_{S,k-1})]``;
        the increment form is ``W = sum_k Tr_S[(H_S^{k+1} - H_S^k) rho_{S,k}]``
        with the final increment taken to the boundary Hamiltonian at
        ``t = T``. The two agree by pure algebra (Abel summation of the same
        telescoping sum) and are computed separately as a cross-check. A block's
        states come from its prefix products ``U = E_k ... E_a`` (a work-efficient
        log-depth scan), one batched ``U rho_a U^dag`` and one partial trace.

        ``refresh_every = m`` resets the environment to ``rho_e`` after every m
        steps (a collision-style refresh that drops system-environment
        correlations; no block crosses one), so long runs do not saturate a small
        environment. Off by default; it is not unitary on the composite space, so
        the counting-operator cross-checks no longer apply.
        """
        if refresh_every is not None and refresh_every < 1:
            raise ValueError("refresh_every must be a positive integer")
        rho, n = self._product_state(rho_s, rho_e), self.drive.n_steps
        size, m = max(1, _STEP_BLOCK // self.dim**2), refresh_every or n
        states = np.empty((n + 1, self.dim_s, self.dim_s), dtype=complex)
        states[0] = rho_s.matrix
        for a in [r + i for r in range(0, n, m) for i in range(0, min(m, n - r), size)]:
            b = min(a + size, (a // m + 1) * m, n)
            u, levels = self.propagators[a:b].copy(), [1 << k for k in range((b - a).bit_length() - 1)]
            for first, s in [(2 * s - 1, s) for s in levels] + [(3 * s - 1, s) for s in levels[::-1]]:
                t = u[first :: 2 * s]  # up-sweep, then down-sweep: u[k] = E_{a+k} ... E_a
                t[:] = t @ u[first - s :: 2 * s][: len(t)]
            rhos = (u @ rho) @ np.conjugate(u, out=u).swapaxes(1, 2)  # U rho U^dag without a copy of U^dag
            states[a + 1 : b + 1] = partial_trace_env(rhos, self.dim_s, self.dim_e)
            rho = self._product_state(states[b], rho_e) if refresh_every and b % m == 0 else rhos[-1]
        h = self.drive.gridpoint_hamiltonians
        heat = np.trace(h[:-1] @ (states[1:] - states[:-1]), axis1=1, axis2=2).real
        increments = sum(np.trace((h[1:] - h[:-1]) @ states[1:], axis1=1, axis2=2).real.tolist())
        p = np.clip(_reduced_state_spectra(states), 0.0, None)
        entropy = -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=1)
        du = float(np.trace(h[-1] @ states[-1]).real)
        du -= float(np.trace(mat(self.drive.h_start) @ rho_s.matrix).real)
        return HeatLedger(np.arange(n), self.drive.times, heat, np.diff(entropy), du), increments


def fast_decoherence_run(drive: DiscretizedDrive, temperature: float) -> HeatLedger:
    """Ledger in the fast-decoherence limit: the state is pinned to the
    instantaneous thermal state after every step of ``drive``.

    Relaxation is modeled as a hard re-thermalization map (the state is
    exactly Gibbs at all times), not a rate equation. In the quasi-static
    limit each heat increment approaches ``T`` times the entropy increment.
    The states and entropies of all ``N + 1`` gridpoint Hamiltonians ``H(0),
    H(t_1), ..., H(t_{N-1}), H(T)`` come from the drive's
    :attr:`~DiscretizedDrive.gridpoint_eigensystems` and :func:`gibbs_weights`.
    """
    h = drive.gridpoint_hamiltonians
    w, v = drive.gridpoint_eigensystems
    p = gibbs_weights(w, temperature)
    states = (v * p[:, None, :]) @ dagger(v)
    entropy = -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=1)
    energy = np.einsum("kij,kji->k", h, states).real
    heat = np.einsum("kij,kji->k", h[1:], states[1:] - states[:-1]).real
    k = np.arange(1, drive.n_steps + 1)
    return HeatLedger(k, k * drive.dt, heat, np.diff(entropy), float(energy[-1] - energy[0]))


# ---------------------------------------------------------------------------
# environment presets


def qubit_exchange_environment(gap: float) -> tuple[HermitianOperator, HermitianOperator]:
    """Single environment qubit with excitation-exchange coupling.

    Returns ``(H_E, H_SE)`` for a system qubit: ``H_E = -gap/2 sz`` (ground
    state at index 0) and ``H_SE = s- (x) s+ + s+ (x) s-``.
    """
    h_env = HermitianOperator(-0.5 * gap * np.array([[1, 0], [0, -1]], dtype=complex))
    h_se = tensor(_SIGMA_MINUS, _SIGMA_PLUS) + tensor(_SIGMA_PLUS, _SIGMA_MINUS)
    return h_env, HermitianOperator(h_se)


def two_qubit_exchange_environment(gap: float) -> tuple[HermitianOperator, HermitianOperator]:
    """Two environment qubits, each exchange-coupled to the system qubit."""
    hz = -0.5 * gap * np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2)
    h_env = HermitianOperator(np.kron(hz, eye) + np.kron(eye, hz))
    raise_env = (np.kron(_SIGMA_PLUS, eye) + np.kron(eye, _SIGMA_PLUS)) / np.sqrt(2.0)
    h_se = tensor(_SIGMA_MINUS, raise_env) + tensor(_SIGMA_PLUS, raise_env.conj().T)
    return h_env, HermitianOperator(h_se)


def oscillator_environment(frequency: float, levels: int) -> tuple[HermitianOperator, HermitianOperator]:
    """Truncated harmonic oscillator with a Jaynes-Cummings-style coupling."""
    if not 2 <= levels <= 8:
        raise ValueError("oscillator truncation must be between 2 and 8 levels")
    n = np.arange(levels)
    with np.errstate(over="ignore"):  # HermitianOperator rejects an overflow
        h_env = HermitianOperator(np.diag(frequency * n).astype(complex))
    lower = np.diag(np.sqrt(np.arange(1, levels)), 1).astype(complex)
    h_se = tensor(_SIGMA_MINUS, lower.conj().T) + tensor(_SIGMA_PLUS, lower)
    return h_env, HermitianOperator(h_se)
