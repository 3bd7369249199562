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
run by :meth:`CompositeModel.discretize`; it holds the step propagators and
eigensystems they share and works on capped blocks of steps, not step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drive import DiscretizedDrive, DriveProtocol, discretize, ordered_product
from .fcs import CharacteristicSamples, CountingGrid
from .linalg import (
    HERMITICITY_TOL,
    TRACE_TOL,
    DensityOperator,
    HermitianOperator,
    NumericalError,
    UnitaryOperator,
    _eigh,
    dagger,
    gibbs_weights,
    max_abs,
    mat,
    partial_trace_env,
    tensor,
)

__all__ = [
    "CompositeModel",
    "DiscretizedComposite",
    "HeatLedger",
    "fast_decoherence_run",
    "qubit_exchange_environment",
    "two_qubit_exchange_environment",
    "oscillator_environment",
]

_SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # raises index 0 -> 1
_SIGMA_MINUS = _SIGMA_PLUS.T.copy()


@dataclass(frozen=True)
class CompositeModel:
    """System drive plus a static environment and coupling.

    ``coupling`` acts on the composite space with the ``system (x)
    environment`` index convention; ``coupling_scale`` multiplies it, so weak
    coupling sweeps vary a single number.
    """

    drive: DriveProtocol
    h_env: HermitianOperator
    coupling: HermitianOperator
    coupling_scale: float = 1.0

    def __post_init__(self):
        expected = self.drive.dim * self.h_env.dim
        if self.coupling.dim != expected:
            raise ValueError(
                f"coupling dim {self.coupling.dim} != system*environment = {expected}"
            )

    @property
    def dim_s(self) -> int:
        return self.drive.dim

    @property
    def dim_e(self) -> int:
        return self.h_env.dim

    @property
    def dim(self) -> int:
        return self.dim_s * self.dim_e

    def step_hamiltonian(self, h_s: HermitianOperator) -> HermitianOperator:
        full = (
            tensor(h_s, np.eye(self.dim_e))
            + tensor(np.eye(self.dim_s), self.h_env)
            + self.coupling_scale * self.coupling.matrix
        )
        return HermitianOperator(full)

    def discretize(self, n_steps: int) -> DiscretizedComposite:
        """The model on ``n_steps`` left-endpoint steps of its drive."""
        return DiscretizedComposite(self, discretize(self.drive, n_steps))


@dataclass(frozen=True, eq=False)
class HeatLedger:
    """Per-step heat/entropy increments with totals obeying ``W = dU - Q``.

    ``k``, ``time``, ``heat_increments`` and ``entropy_increments`` are equal-
    length arrays, one entry per drive step. Sign convention: positive heat
    flows into the system.
    """

    k: np.ndarray
    time: np.ndarray
    heat_increments: np.ndarray
    entropy_increments: np.ndarray
    heat: float
    internal_energy_change: float
    work: float
    temperature: float | None = None

    def __post_init__(self):
        if abs(self.work - (self.internal_energy_change - self.heat)) > 1e-10:
            raise NumericalError("ledger identity W = dU - Q violated")


# Complex elements per batched temporary of the step axis (128 KiB); a block
# of steps holds at most this many, or one step.
_STEP_BLOCK = 1 << 13


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


def _kicks(first, steps, last, lams: np.ndarray) -> np.ndarray:
    """``exp(+i lam/2 s_{j+1}) exp(-i lam/2 s_j)`` for the ``J`` Hamiltonians
    ``s_j`` with eigensystems ``first``, the stacked ``steps`` and ``last``,
    each for every ``lam``: shape ``(J - 1, L, d, d)``.

    Each kick is ``sum_bc exp(i lam/2 (w_{j+1,b} - w_{j,c})) T_bc
    v_{j+1,b} v_{j,c}^dag`` with ``T = v_{j+1}^dag v_j``: one batched product
    of the grid's phases with lambda-independent terms.
    """
    w, v = (np.concatenate([a[None], b, c[None]]) for a, b, c in zip(first, steps, last))
    d = w.shape[-1]
    freqs = (w[1:, :, None] - w[:-1, None, :]).reshape(-1, 1, d * d)
    terms = np.einsum("jbc,jab,jec->jbcae", dagger(v[1:]) @ v[:-1], v[1:], v[:-1].conj())
    kicks = np.exp(0.5j * (lams[:, None] * freqs)) @ terms.reshape(-1, d * d, d * d)
    return kicks.reshape(len(freqs), lams.size, d, d)


class DiscretizedComposite:
    """A composite model on a fixed step grid; one per open-system run.

    Built by :meth:`CompositeModel.discretize`. Holds the step propagators
    ``E_k = exp(-i dt H^k)``, the eigensystems of the step Hamiltonians
    ``H_S^k`` and of ``H_E`` and, through the drive, the boundary
    eigensystems, and evaluates every open-system quantity from them. Kicks
    are formed on their own factor and applied to ``(dim_s, dim_e)``-reshaped
    blocks, so no Kronecker product is formed per step or per counting field.
    Steps are batched in blocks of at most ``_STEP_BLOCK`` complex elements
    (or one step): one eigendecomposition per block, and one pairwise
    :func:`ordered_product` per block of kicked steps. Only the state
    evolution of :meth:`trajectory` runs step by step.
    """

    def __init__(self, model: CompositeModel, drive: DiscretizedDrive):
        self.model, self.drive = model, drive
        self.dim_s, self.dim_e, self.dim = model.dim_s, model.dim_e, model.dim
        eye = np.eye(self.dim)
        # H_S^0 ... H_S^{N-1}, then H_S(T)
        self.hamiltonians = np.concatenate([drive.samples, drive.h_end.matrix[None]])
        static = self._on_factor(model.h_env.matrix, eye, env=True)
        static = static + model.coupling_scale * model.coupling.matrix
        self.propagators = np.empty((drive.n_steps, self.dim, self.dim), dtype=complex)
        size = max(1, _STEP_BLOCK // self.dim**2)
        for a in range(0, drive.n_steps, size):
            w, v = _eigh(self._on_factor(drive.samples[a : a + size], eye) + static)
            self.propagators[a : a + size] = (v * np.exp(-1j * drive.dt * w)[:, None, :]) @ dagger(v)
        self.step_eigensystems = _eigh(self.hamiltonians[:-1])
        self.env_eigensystem = _eigh(model.h_env.matrix)

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
                f"state dims ({a.shape[0]}, {b.shape[0]}) != model dims ({self.dim_s}, {self.dim_e})"
            )
        return self._on_factor(a, self._on_factor(b, np.eye(self.dim), env=True))

    def _chain(self, kicks: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """``k_n F_{n-1} ... k_1 F_0 k_0`` for an ``(n + 1, L, d_s, d_s)`` stack of
        system kicks ``k_j`` and ``n`` factors: shape ``(L, D, D)``. Each block of
        steps folds ``k_{j+1} F_j`` in one product (a step's L kicks on the rows), then reduces."""
        u = self._on_factor(kicks[0], np.eye(self.dim, dtype=complex))
        size = max(1, _STEP_BLOCK // (kicks.shape[1] * self.dim**2))
        for a in range(0, len(factors), size):
            k = kicks[a + 1 : a + size + 1]
            block = self._on_factor(k.reshape(len(k), -1, self.dim_s), factors[a : a + size])
            u = ordered_product(block.reshape(len(k), -1, self.dim, self.dim)) @ u
        return u

    def _operators(self, lams: np.ndarray, counting: str) -> np.ndarray:
        """Counting operators ``K(lam)`` for every ``lam``: shape ``(L, D, D)``.

        Each is ``k_N E_{N-1} ... E_0 k_0``, where the kicks ``k_j`` merge the
        kicks of neighbouring blocks (``B_k = exp(-i lam/2 H_S^k) E_k
        exp(+i lam/2 H_S^k)``) and, for work counting, the boundary kicks.
        """
        lams = np.asarray(lams, dtype=float)
        if counting == "environment":
            h0 = self.drive.h_start.matrix
            if max_abs(self.hamiltonians - h0) > 1e-12 * max(1.0, max_abs(h0)):
                raise ValueError("environment counting requires a constant system Hamiltonian")
            product = np.eye(self.dim, dtype=complex)
            size = max(1, _STEP_BLOCK // self.dim**2)
            for a in range(0, self.drive.n_steps, size):
                product = ordered_product(self.propagators[a : a + size]) @ product
            none = np.zeros((1, self.dim_e)), np.eye(self.dim_e)[None]  # H = 0: identity kicks
            k0, k1 = _kicks(self.env_eigensystem, none, self.env_eigensystem, lams)
            return self._on_factor(k1, product @ self._on_factor(k0, np.eye(self.dim), env=True), env=True)
        if counting == "work":
            eps0, v0, epst, vt = self.drive.boundary_eigensystems
            first, last = (eps0, v0), (epst, vt)
        elif counting == "heat":
            first = last = np.zeros(self.dim_s), np.eye(self.dim_s)  # H = 0: identity kicks
        else:
            raise ValueError(f"unknown counting mode {counting!r}")
        return self._chain(_kicks(first, self.step_eigensystems, last, lams), self.propagators)

    def block(self, k: int, lam: float) -> UnitaryOperator:
        """The step-``k`` measurement block ``exp(-i lam/2 H_S^k) E_k exp(+i lam/2 H_S^k)``.

        Negative kick first (leftmost), opposite in sign to the closed-system
        boundary kicks: the block tracks the heat exchanged during the step.
        """
        if not 0 <= k < self.drive.n_steps:
            raise ValueError(f"step index {k} outside 0..{self.drive.n_steps - 1}")
        none = np.zeros(self.dim_s), np.eye(self.dim_s)  # H = 0: identity kicks
        kicks = _kicks(none, [e[k : k + 1] for e in self.step_eigensystems], none, np.array([float(lam)]))
        return UnitaryOperator(self._chain(kicks, self.propagators[k : k + 1])[0])

    def counting_operator(self, lam: float, counting: str) -> UnitaryOperator:
        """``K(lam)`` of one counting family.

        ``"work"``: boundary kicks on ``H_S(0)`` and ``H_S(T)`` around the
        block product; at zero coupling the closed-system two-kick propagator
        tensored with the environment's free evolution. ``"heat"``: the block
        product alone. ``"environment"``: kicks on ``H_E`` around the plain
        product; requires a constant system Hamiltonian over the window.
        """
        return UnitaryOperator(self._operators(np.array([float(lam)]), counting)[0])

    def characteristic_function(
        self,
        rho_s: DensityOperator,
        rho_e: DensityOperator,
        grid: CountingGrid,
        counting: str = "work",
    ) -> CharacteristicSamples:
        """``G(lam) = Tr_{S+E}[K(lam) (rho_S (x) rho_E) K(-lam)^dag]`` on ``grid``.

        ``counting`` selects the operator family of :meth:`counting_operator`;
        ``"work"`` has first moment W, ``"heat"`` first moment -Q. Counting
        grids are symmetric, so ``K(-lam)`` is the operator at the mirrored
        grid index.
        """
        k = self._operators(grid.lambdas, counting)
        k_rho = k @ self._product_state(rho_s, rho_e)
        np.conjugate(k, out=k)
        return CharacteristicSamples(grid, np.einsum("lij,lij->l", k_rho, k[::-1]))

    def duality_deviation(self, rho_s: DensityOperator, rho_e: DensityOperator, grid: CountingGrid) -> float:
        """``max_lam |Gbar(lam) - G(-lam)|`` between environment- and system-side counting.

        ``G(-lam)`` in the boundary-kick sign convention equals the block-kick
        heat CGF at ``+lam`` (an exact identity for constant system
        Hamiltonians), so the deviation is evaluated pointwise on the same
        grid. It vanishes linearly as the coupling is switched off.
        """
        g_env = self.characteristic_function(rho_s, rho_e, grid, counting="environment")
        g_sys = self.characteristic_function(rho_s, rho_e, grid, counting="heat")
        return float(np.max(np.abs(g_env.values - g_sys.values)))

    def trajectory(
        self,
        rho_s: DensityOperator,
        rho_e: DensityOperator,
        refresh_every: int | None = None,
    ) -> tuple[HeatLedger, float]:
        """Evolve the composite state at ``lam = 0`` once; return the heat
        ledger and the Hamiltonian-increment work of the same reduced states.

        The ledger accounts ``Q_k = Tr_S[H_S^k (rho_{S,k} - rho_{S,k-1})]``;
        the increment form is ``W = sum_k Tr_S[(H_S^{k+1} - H_S^k) rho_{S,k}]``
        with the final increment taken to the boundary Hamiltonian at
        ``t = T``. The two agree by pure algebra (Abel summation of the same
        telescoping sum) and are computed separately as a cross-check.

        ``refresh_every = m`` resets the environment to ``rho_e`` after every m
        blocks (a collision-style refresh, discarding system-environment
        correlations) so long evolutions do not saturate a small environment.
        Off by default; when enabled the counting-operator cross-checks no
        longer apply since the refresh is not unitary on the composite space.
        """
        if refresh_every is not None and refresh_every < 1:
            raise ValueError("refresh_every must be a positive integer")
        rho = self._product_state(rho_s, rho_e)
        n = self.drive.n_steps
        states = np.empty((n + 1, self.dim_s, self.dim_s), dtype=complex)
        states[0] = rho_s.matrix
        for k, e in enumerate(self.propagators, start=1):
            rho = e @ rho @ e.conj().T
            states[k] = partial_trace_env(rho, self.dim_s, self.dim_e)
            if refresh_every is not None and k % refresh_every == 0:
                rho = self._product_state(states[k], rho_e)
        h = self.hamiltonians
        heat = np.trace(h[:-1] @ (states[1:] - states[:-1]), axis1=1, axis2=2).real
        increments = sum(np.trace((h[1:] - h[:-1]) @ states[1:], axis1=1, axis2=2).real.tolist())
        p = np.clip(_reduced_state_spectra(states), 0.0, None)
        entropy = -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=1)
        du = float(np.trace(h[-1] @ states[-1]).real)
        du -= float(np.trace(mat(self.drive.h_start) @ rho_s.matrix).real)
        q = float(sum(heat))
        ledger = HeatLedger(np.arange(n), self.drive.times, heat, np.diff(entropy), q, du, du - q)
        return ledger, increments


def fast_decoherence_run(
    protocol: DriveProtocol, temperature: float, n_steps: int
) -> HeatLedger:
    """Ledger in the fast-decoherence limit: the state is pinned to the
    instantaneous thermal state after every step.

    Relaxation is modeled as a hard re-thermalization map (the state is
    exactly Gibbs at all times), not a rate equation. In the quasi-static
    limit each heat increment approaches ``T`` times the entropy increment.
    The states and entropies of all ``N + 1`` Hamiltonians ``H(0), H(t_1),
    ..., H(t_{N-1}), H(T)`` come from one batched eigendecomposition and
    :func:`gibbs_weights`.
    """
    drive = discretize(protocol, n_steps)
    h = np.concatenate([drive.h_start.matrix[None], drive.samples[1:], drive.h_end.matrix[None]])
    w, v = _eigh(h)
    p = gibbs_weights(w, temperature)
    states = (v * p[:, None, :]) @ dagger(v)
    entropy = -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=1)
    energy = np.einsum("kij,kji->k", h, states).real
    heat = np.einsum("kij,kji->k", h[1:], states[1:] - states[:-1]).real
    k = np.arange(1, n_steps + 1)
    du = float(energy[-1] - energy[0])
    q = float(sum(heat))
    return HeatLedger(k, k * drive.dt, heat, np.diff(entropy), q, du, du - q, temperature=temperature)


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
    h_env = HermitianOperator(np.diag(frequency * n).astype(complex))
    lower = np.diag(np.sqrt(np.arange(1, levels)), 1).astype(complex)
    h_se = tensor(_SIGMA_MINUS, lower.conj().T) + tensor(_SIGMA_PLUS, lower)
    return h_env, HermitianOperator(h_se)
