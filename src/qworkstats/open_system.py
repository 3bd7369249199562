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
the block-kick ``G`` at ``+lam``); :func:`duality_deviation` measures the
residual, which shrinks linearly with ``g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .drive import DriveProtocol, discretize
from .fcs import CharacteristicSamples, CountingGrid
from .linalg import (
    DensityOperator,
    HermitianOperator,
    NumericalError,
    UnitaryOperator,
    eig_hermitian,
    gibbs_state,
    max_abs,
    mat,
    partial_trace_env,
    tensor,
    von_neumann_entropy,
)

__all__ = [
    "CompositeModel",
    "LedgerRow",
    "HeatLedger",
    "measurement_block",
    "full_counting_operator",
    "heat_counting_operator",
    "environment_counting_operator",
    "open_characteristic_function",
    "heat_ledger",
    "work_via_increments",
    "fast_decoherence_run",
    "duality_deviation",
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


class _StepCache:
    """Per-step composite propagators and system-kick eigensystems."""

    def __init__(self, model: CompositeModel, n_steps: int):
        self.model = model
        self.drive = discretize(model.drive, n_steps)
        self.dim_s = model.dim_s
        self.dim_e = model.dim_e
        self.eye_e = np.eye(model.dim_e)
        self.propagators: list[np.ndarray] = []
        self.kick_eigs: list[tuple[np.ndarray, np.ndarray]] = []
        for _, h_s in self.drive.steps:
            full = model.step_hamiltonian(h_s)
            w, v = eig_hermitian(full)
            self.propagators.append((v.matrix * np.exp(-1j * w * self.drive.dt)) @ v.matrix.conj().T)
            ws, vs = eig_hermitian(h_s)
            self.kick_eigs.append((ws, vs.matrix))
        self.w_start, v = eig_hermitian(self.drive.h_start)
        self.v_start = v.matrix
        self.w_end, v = eig_hermitian(self.drive.h_end)
        self.v_end = v.matrix
        self.w_env, v = eig_hermitian(model.h_env)
        self.v_env = v.matrix

    def system_kick(self, w, v, angle: float) -> np.ndarray:
        """``exp(+i angle H_S) (x) 1`` on the composite space."""
        small = (v * np.exp(1j * angle * w)) @ v.conj().T
        return np.kron(small, self.eye_e)

    def env_kick(self, angle: float) -> np.ndarray:
        """``1 (x) exp(+i angle H_E)`` on the composite space."""
        small = (self.v_env * np.exp(1j * angle * self.w_env)) @ self.v_env.conj().T
        return np.kron(np.eye(self.dim_s), small)

    def block(self, k: int, lam: float) -> np.ndarray:
        w, v = self.kick_eigs[k]
        return (
            self.system_kick(w, v, -0.5 * lam)
            @ self.propagators[k]
            @ self.system_kick(w, v, +0.5 * lam)
        )

    def block_product(self, lam: float) -> np.ndarray:
        u = np.eye(self.model.dim, dtype=complex)
        for k in range(len(self.propagators)):
            u = self.block(k, lam) @ u
        return u

    def counting_operator(self, lam: float, counting: str) -> np.ndarray:
        if counting == "heat":
            return self.block_product(lam)
        if counting == "work":
            return (
                self.system_kick(self.w_end, self.v_end, +0.5 * lam)
                @ self.block_product(lam)
                @ self.system_kick(self.w_start, self.v_start, -0.5 * lam)
            )
        if counting == "environment":
            self._require_constant_system()
            u = np.eye(self.model.dim, dtype=complex)
            for e in self.propagators:
                u = e @ u
            return self.env_kick(+0.5 * lam) @ u @ self.env_kick(-0.5 * lam)
        raise ValueError(f"unknown counting mode {counting!r}")

    def _require_constant_system(self) -> None:
        h0 = self.drive.h_start.matrix
        scale = max(1.0, max_abs(h0))
        for _, h in self.drive.steps:
            if max_abs(h.matrix - h0) > 1e-12 * scale:
                raise ValueError("environment counting requires a constant system Hamiltonian")
        if max_abs(self.drive.h_end.matrix - h0) > 1e-12 * scale:
            raise ValueError("environment counting requires a constant system Hamiltonian")


def measurement_block(model: CompositeModel, n_steps: int, k: int, lam: float) -> UnitaryOperator:
    """The step-``k`` measurement block on the composite space.

    Negative kick first (leftmost), opposite in sign to the closed-system
    boundary kicks: the block tracks the heat exchanged during the step.
    """
    if not 0 <= k < n_steps:
        raise ValueError(f"step index {k} outside 0..{n_steps - 1}")
    return UnitaryOperator(_StepCache(model, n_steps).block(k, lam))


def full_counting_operator(model: CompositeModel, n_steps: int, lam: float) -> UnitaryOperator:
    """Work-counting operator: boundary kicks around the block product.

    At zero coupling it reduces to the closed-system two-kick propagator
    tensored with the environment's free evolution.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return UnitaryOperator(_StepCache(model, n_steps).counting_operator(lam, "work"))


def heat_counting_operator(model: CompositeModel, n_steps: int, lam: float) -> UnitaryOperator:
    """Block product alone: counts dissipated heat, no boundary kicks."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return UnitaryOperator(_StepCache(model, n_steps).counting_operator(lam, "heat"))


def environment_counting_operator(model: CompositeModel, n_steps: int, lam: float) -> UnitaryOperator:
    """Counting operator with kicks on the environment Hamiltonian instead.

    Requires a constant system Hamiltonian over the window. Used to probe the
    weak-coupling duality between environment- and system-side counting.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return UnitaryOperator(_StepCache(model, n_steps).counting_operator(lam, "environment"))


def open_characteristic_function(
    model: CompositeModel,
    rho_s: DensityOperator,
    rho_e: DensityOperator,
    n_steps: int,
    grid: CountingGrid,
    counting: str = "work",
) -> CharacteristicSamples:
    """``G(lam) = Tr_{S+E}[K(lam) (rho_S (x) rho_E) K(-lam)^dag]``.

    ``counting`` selects the operator family: ``"work"`` (boundary kicks plus
    blocks, first moment W), ``"heat"`` (blocks only, first moment -Q) or
    ``"environment"`` (kicks on H_E, constant system Hamiltonian only).
    """
    if rho_s.dim != model.dim_s or rho_e.dim != model.dim_e:
        raise ValueError(
            f"state dims ({rho_s.dim}, {rho_e.dim}) != model dims "
            f"({model.dim_s}, {model.dim_e})"
        )
    cache = _StepCache(model, n_steps)
    rho = tensor(rho_s, rho_e)
    values = np.empty(grid.size, dtype=complex)
    for n, lam in enumerate(grid.lambdas):
        k_plus = cache.counting_operator(float(lam), counting)
        k_minus = cache.counting_operator(-float(lam), counting)
        values[n] = np.trace(k_plus @ rho @ k_minus.conj().T)
    return CharacteristicSamples(grid, values)


class LedgerRow(NamedTuple):
    """Heat and entropy increments for one drive step."""

    k: int
    time: float
    heat: float
    entropy_change: float


@dataclass(frozen=True)
class HeatLedger:
    """Per-step heat/entropy increments with totals obeying ``W = dU - Q``.

    Sign convention: positive heat flows into the system.
    """

    rows: tuple[LedgerRow, ...]
    heat: float
    internal_energy_change: float
    work: float
    temperature: float | None = None

    def __post_init__(self):
        if abs(self.work - (self.internal_energy_change - self.heat)) > 1e-10:
            raise NumericalError("ledger identity W = dU - Q violated")

    @property
    def heat_increments(self) -> np.ndarray:
        return np.array([r.heat for r in self.rows])

    @property
    def entropy_increments(self) -> np.ndarray:
        return np.array([r.entropy_change for r in self.rows])


def _expect(h, rho) -> float:
    return float(np.trace(mat(h) @ mat(rho)).real)


def heat_ledger(
    model: CompositeModel,
    rho_s: DensityOperator,
    rho_e: DensityOperator,
    n_steps: int,
    refresh_every: int | None = None,
) -> HeatLedger:
    """Evolve the composite state at ``lam = 0`` and account heat per step.

    ``refresh_every = m`` resets the environment to ``rho_e`` after every m
    blocks (a collision-style refresh, discarding system-environment
    correlations) so long evolutions do not saturate a small environment.
    Off by default; when enabled the counting-operator cross-checks no longer
    apply since the refresh is not unitary on the composite space.
    """
    if rho_s.dim != model.dim_s or rho_e.dim != model.dim_e:
        raise ValueError("state dimensions do not match the model")
    if refresh_every is not None and refresh_every < 1:
        raise ValueError("refresh_every must be a positive integer")
    cache = _StepCache(model, n_steps)
    drive = cache.drive
    rho = tensor(rho_s, rho_e)
    rho_s_prev = rho_s.matrix
    entropy_prev = von_neumann_entropy(rho_s)
    u_initial = _expect(drive.h_start, rho_s_prev)
    rows = []
    for k, (t_k, h_s) in enumerate(drive.steps):
        rho = cache.propagators[k] @ rho @ cache.propagators[k].conj().T
        if refresh_every is not None and (k + 1) % refresh_every == 0:
            rho = tensor(partial_trace_env(rho, model.dim_s, model.dim_e), rho_e)
        rho_s_now = partial_trace_env(rho, model.dim_s, model.dim_e)
        heat_k = _expect(h_s, rho_s_now - rho_s_prev)
        entropy_now = von_neumann_entropy(DensityOperator(rho_s_now, psd_tol=1e-8))
        rows.append(LedgerRow(k, t_k, heat_k, entropy_now - entropy_prev))
        rho_s_prev = rho_s_now
        entropy_prev = entropy_now
    du = _expect(drive.h_end, rho_s_prev) - u_initial
    q = float(sum(r.heat for r in rows))
    return HeatLedger(tuple(rows), q, du, du - q)


def work_via_increments(
    model: CompositeModel,
    rho_s: DensityOperator,
    rho_e: DensityOperator,
    n_steps: int,
) -> float:
    """Average work from the Hamiltonian increments.

    ``W = sum_k Tr_S[(H_S^{k+1} - H_S^k) rho_{S,k}]`` with the final increment
    taken to the boundary Hamiltonian at ``t = T``; equal to the ledger work
    by pure algebra (Abel summation of the same telescoping sum).
    """
    cache = _StepCache(model, n_steps)
    drive = cache.drive
    rho = tensor(rho_s, rho_e)
    work = 0.0
    for k in range(n_steps):
        rho = cache.propagators[k] @ rho @ cache.propagators[k].conj().T
        rho_s_now = partial_trace_env(rho, model.dim_s, model.dim_e)
        h_now = drive.steps[k][1].matrix
        h_next = drive.steps[k + 1][1].matrix if k + 1 < n_steps else drive.h_end.matrix
        work += _expect(h_next - h_now, rho_s_now)
    return work


def fast_decoherence_run(
    protocol: DriveProtocol, temperature: float, n_steps: int
) -> HeatLedger:
    """Ledger in the fast-decoherence limit: the state is pinned to the
    instantaneous thermal state after every step.

    Relaxation is modeled as a hard re-thermalization map (the state is
    exactly Gibbs at all times), not a rate equation. In the quasi-static
    limit each heat increment approaches ``T`` times the entropy increment.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    drive = discretize(protocol, n_steps)
    hams = [h for _, h in drive.steps[1:]] + [drive.h_end]
    state_prev = gibbs_state(drive.h_start, temperature)
    entropy_prev = von_neumann_entropy(state_prev)
    u_initial = _expect(drive.h_start, state_prev)
    rows = []
    for k, h in enumerate(hams, start=1):
        state_now = gibbs_state(h, temperature)
        entropy_now = von_neumann_entropy(state_now)
        heat_k = _expect(h, state_now.matrix - state_prev.matrix)
        rows.append(LedgerRow(k, k * drive.dt, heat_k, entropy_now - entropy_prev))
        state_prev = state_now
        entropy_prev = entropy_now
    du = _expect(drive.h_end, state_prev) - u_initial
    q = float(sum(r.heat for r in rows))
    return HeatLedger(tuple(rows), q, du, du - q, temperature=temperature)


def duality_deviation(
    model: CompositeModel,
    rho_s: DensityOperator,
    rho_e: DensityOperator,
    n_steps: int,
    grid: CountingGrid,
) -> float:
    """``max_lam |Gbar(lam) - G(-lam)|`` between environment- and system-side counting.

    ``G(-lam)`` in the boundary-kick sign convention equals the block-kick
    heat CGF at ``+lam`` (an exact identity for constant system Hamiltonians),
    so the deviation is evaluated pointwise on the same grid. It vanishes
    linearly as the coupling is switched off.
    """
    g_env = open_characteristic_function(model, rho_s, rho_e, n_steps, grid, counting="environment")
    g_sys = open_characteristic_function(model, rho_s, rho_e, n_steps, grid, counting="heat")
    return float(np.max(np.abs(g_env.values - g_sys.values)))


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
    lower = np.zeros((levels, levels), dtype=complex)
    for m in range(1, levels):
        lower[m - 1, m] = np.sqrt(m)
    h_se = tensor(_SIGMA_MINUS, lower.conj().T) + tensor(_SIGMA_PLUS, lower)
    return h_env, HermitianOperator(h_se)
