"""Time-dependent drive protocols and their step discretization.

A :class:`DriveProtocol` is a deterministic map ``t -> H_S(t)`` on ``[0, T]``.
:func:`discretize` samples it at the left endpoints ``t_k = k dt`` of ``N``
equal steps and :func:`evolution_operator` forms the ordered product

    ``U = exp(-i dt H^{N-1}) ... exp(-i dt H^1) exp(-i dt H^0)``

(latest step leftmost), which converges to the time-ordered exponential at
first order in ``dt``.

The protocol values at the exact boundaries ``t = 0`` and ``t = T`` are kept
on the discretized drive separately from the step samples: they are the
Hamiltonians the detector kicks couple to, immediately before and after the
drive window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    HermitianOperator,
    NumericalError,
    UnitaryOperator,
    eig_hermitian,
    max_abs,
    mat,
)

__all__ = [
    "DriveProtocol",
    "DiscretizedDrive",
    "discretize",
    "discretize_to_tolerance",
    "evolution_operator",
    "constant_protocol",
    "linear_ramp_protocol",
    "rabi_protocol",
    "gap_ramp_protocol",
    "piecewise_constant_protocol",
    "reversed_protocol",
    "random_ramp_protocol",
    "cyclic_qubit_unitary",
    "cyclic_qubit_hamiltonian",
    "cyclic_qubit_state",
    "cyclic_qubit_drive",
    "cyclic_qubit_protocol",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class DriveProtocol:
    """A drive ``H_S(t)`` on ``[0, duration]``.

    ``hamiltonian_at`` must be a deterministic function of ``t`` returning a
    :class:`HermitianOperator` of fixed dimension; both endpoints must be
    well-defined since they serve as the measurement-kick Hamiltonians.
    """

    duration: float
    hamiltonian_at: Callable[[float], HermitianOperator]
    label: str = ""

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("drive duration must be positive")
        h0 = self.hamiltonian_at(0.0)
        h1 = self.hamiltonian_at(self.duration)
        if h0.dim != h1.dim:
            raise ValueError("hamiltonian_at returns inconsistent dimensions")

    @property
    def dim(self) -> int:
        return self.hamiltonian_at(0.0).dim

    def __call__(self, t: float) -> HermitianOperator:
        if t < -1e-12 or t > self.duration * (1 + 1e-12):
            raise ValueError(f"time {t} outside drive window [0, {self.duration}]")
        return self.hamiltonian_at(min(max(t, 0.0), self.duration))


@dataclass(frozen=True)
class DiscretizedDrive:
    """Step sequence ``(t_k, H^k)`` with ``t_k = k dt`` plus boundary kicks.

    ``h_start``/``h_end`` are the protocol values at ``t = 0`` and ``t = T``;
    ``h_start`` coincides with the first step sample for protocol-derived
    drives but is stored explicitly so synthetic drives can carry boundary
    Hamiltonians that differ from the step generator.
    """

    steps: tuple[tuple[float, HermitianOperator], ...]
    dt: float
    h_start: HermitianOperator
    h_end: HermitianOperator
    label: str = ""

    def __post_init__(self):
        if not self.steps:
            raise ValueError("discretized drive needs at least one step")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        d = self.steps[0][1].dim
        for _, h in self.steps:
            if h.dim != d:
                raise ValueError("step Hamiltonians have mixed dimensions")
        if self.h_start.dim != d or self.h_end.dim != d:
            raise ValueError("boundary Hamiltonians do not match step dimension")
        for k, (t, _) in enumerate(self.steps):
            if abs(t - k * self.dt) > 1e-12 * max(1.0, abs(t)):
                raise ValueError(f"step {k} time {t} is not k*dt")

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    @property
    def dim(self) -> int:
        return self.steps[0][1].dim

    @cached_property
    def propagator(self) -> UnitaryOperator:
        """``U(T)`` from :func:`evolution_operator`, computed once per drive."""
        return evolution_operator(self)

    @cached_property
    def boundary_eigensystems(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(eps0, v0, epst, vt)`` from :func:`eig_hermitian` of ``h_start`` and
        ``h_end``, eigenvectors as plain arrays; computed once per drive."""
        (eps0, v0), (epst, vt) = eig_hermitian(self.h_start), eig_hermitian(self.h_end)
        return eps0, v0.matrix, epst, vt.matrix


def discretize(protocol: DriveProtocol, n_steps: int) -> DiscretizedDrive:
    """Sample ``protocol`` at the left endpoints of ``n_steps`` equal steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dt = protocol.duration / n_steps
    steps = tuple((k * dt, protocol(k * dt)) for k in range(n_steps))
    return DiscretizedDrive(
        steps=steps,
        dt=dt,
        h_start=protocol(0.0),
        h_end=protocol(protocol.duration),
        label=protocol.label,
    )


def evolution_operator(drive: DiscretizedDrive) -> UnitaryOperator:
    """Ordered product of the step exponentials, latest step leftmost.

    Step exponentials come from a batched eigendecomposition and the product
    is reduced over a fixed pairwise tree, so large step counts stay cheap
    and the result is deterministic.
    """
    mats = np.stack([h.matrix for _, h in drive.steps])
    mats = 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))
    w, v = np.linalg.eigh(mats)
    phases = np.exp(-1j * w * drive.dt)
    factors = np.matmul(v * phases[:, None, :], np.conj(np.swapaxes(v, -1, -2)))
    # pairwise reduction preserving order: result = F_{N-1} ... F_1 F_0
    while factors.shape[0] > 1:
        n = factors.shape[0]
        paired = np.matmul(factors[1 : 2 * (n // 2) : 2], factors[0 : 2 * (n // 2) : 2])
        if n % 2:
            paired = np.concatenate([paired, factors[-1:]], axis=0)
        factors = paired
    u = factors[0]
    # rounding accumulates over very long products; project back to the
    # unitary manifold (nearest unitary = polar factor) when it shows
    if max_abs(u.conj().T @ u - np.eye(drive.dim)) > 1e-12:
        left, _, right = np.linalg.svd(u)
        u = left @ right
    return UnitaryOperator(u)


def _coarse_view(fine: DiscretizedDrive) -> DiscretizedDrive:
    """The drive on every other sample of an even-count discretization."""
    return DiscretizedDrive(
        steps=fine.steps[::2],
        dt=2 * fine.dt,
        h_start=fine.h_start,
        h_end=fine.h_end,
        label=fine.label,
    )


def discretize_to_tolerance(
    protocol: DriveProtocol,
    tol: float = 1e-6,
    n_start: int = 16,
    n_max: int = 1 << 18,
) -> DiscretizedDrive:
    """Pick the step count by self-convergence of the evolution operator.

    Requires ``max|U_N - U_2N| <= tol`` and returns the finer discretization.
    The deviation tracks the first-order product error ``c / (2N)``, so after
    each failed check the required ``N`` is predicted from the measured
    constant (with a safety margin) instead of doubling blindly; the
    prediction is always verified before returning.
    """
    n = max(1, n_start)
    while True:
        fine = discretize(protocol, 2 * n)
        dev = max_abs(
            evolution_operator(_coarse_view(fine)).matrix - fine.propagator.matrix
        )
        if dev <= tol:
            return fine
        if n >= n_max:
            raise NumericalError(
                f"evolution operator did not self-converge to {tol} below N = {2 * n_max}"
            )
        predicted = int(np.ceil(1.25 * dev * n / tol))
        n = min(max(2 * n, predicted), n_max)


# ---------------------------------------------------------------------------
# protocol library


def constant_protocol(h, duration: float, label: str = "constant") -> DriveProtocol:
    ham = h if isinstance(h, HermitianOperator) else HermitianOperator(h)
    return DriveProtocol(duration, lambda t: ham, label)


def linear_ramp_protocol(h_initial, h_final, duration: float, label: str = "linear-ramp") -> DriveProtocol:
    """Linear interpolation ``H(t) = (1 - t/T) H0 + (t/T) H1``."""
    h0 = mat(h_initial)
    h1 = mat(h_final)
    if h0.shape != h1.shape:
        raise ValueError("ramp endpoints have different dimensions")

    def at(t: float) -> HermitianOperator:
        s = t / duration
        return HermitianOperator._trusted((1.0 - s) * h0 + s * h1)

    return DriveProtocol(duration, at, label)


def rabi_protocol(
    splitting: float = 1.0,
    amplitude: float = 0.5,
    frequency: float = 1.0,
    duration: float = 1.0,
    label: str = "rabi",
) -> DriveProtocol:
    """Rotating qubit drive ``H(t) = s*sz + a*(cos(ft) sx + sin(ft) sy)``."""

    def at(t: float) -> HermitianOperator:
        h = splitting * SIGMA_Z + amplitude * (
            np.cos(frequency * t) * SIGMA_X + np.sin(frequency * t) * SIGMA_Y
        )
        return HermitianOperator._trusted(h)

    return DriveProtocol(duration, at, label)


def gap_ramp_protocol(
    gap_initial: float,
    gap_final: float,
    duration: float,
    label: str = "gap-ramp",
) -> DriveProtocol:
    """Qubit with a linearly ramped gap, ``H(t) = -gap(t)/2 * sz``.

    The minus sign keeps the ground state at basis index 0 so that ascending
    eigenvalue order matches the computational basis.
    """

    def at(t: float) -> HermitianOperator:
        gap = gap_initial + (gap_final - gap_initial) * t / duration
        return HermitianOperator._trusted(-0.5 * gap * SIGMA_Z)

    return DriveProtocol(duration, at, label)


def piecewise_constant_protocol(
    segments: Sequence, duration: float, label: str = "piecewise"
) -> DriveProtocol:
    """Equal-length constant segments; ``H(T)`` is the last segment's value."""
    hams = [h if isinstance(h, HermitianOperator) else HermitianOperator(h) for h in segments]
    if not hams:
        raise ValueError("piecewise protocol needs at least one segment")
    seg = duration / len(hams)

    def at(t: float) -> HermitianOperator:
        return hams[min(int(t / seg), len(hams) - 1)]

    return DriveProtocol(duration, at, label)


def reversed_protocol(protocol: DriveProtocol) -> DriveProtocol:
    """The drive run backwards in time, ``H_rev(t) = H(T - t)``."""
    return DriveProtocol(
        protocol.duration,
        lambda t: protocol(protocol.duration - t),
        label=f"{protocol.label}-reversed" if protocol.label else "reversed",
    )


def random_ramp_protocol(
    dim: int, duration: float, rng: np.random.Generator, scale: float = 1.0
) -> DriveProtocol:
    """Linear ramp between two random Hermitian endpoints, for fixtures."""
    from .linalg import random_hermitian

    h0 = random_hermitian(dim, rng, scale)
    h1 = random_hermitian(dim, rng, scale)
    return linear_ramp_protocol(h0, h1, duration, label="random-ramp")


# ---------------------------------------------------------------------------
# cyclic qubit fixture
#
# A periodically driven two-level system with H(T) = H(0) and a prescribed
# cyclic state cos(a)|e1> + sin(a)|e2> that returns to itself up to the phase
# exp(i xi). Demanding those two properties fixes the period unitary to
#
#     U = cos(xi) 1 + i sin(xi) (cos(2a) sz + sin(2a) sx)
#
# written in the ordered eigenbasis {|e1>, |e2>} of H(0).


def cyclic_qubit_hamiltonian(gap: float) -> HermitianOperator:
    """Boundary Hamiltonian ``-gap/2 * sz``: eigenvalues ``-gap/2, +gap/2``
    with the ordered eigenbasis equal to the computational basis."""
    return HermitianOperator(-0.5 * gap * SIGMA_Z)


def cyclic_qubit_unitary(alpha: float, xi: float) -> UnitaryOperator:
    """Period unitary with cyclic state at mixing angle ``alpha``, phase ``xi``."""
    c, s = np.cos(xi), np.sin(xi)
    u = np.array(
        [
            [c + 1j * np.cos(2 * alpha) * s, 1j * np.sin(2 * alpha) * s],
            [1j * np.sin(2 * alpha) * s, c - 1j * np.cos(2 * alpha) * s],
        ],
        dtype=complex,
    )
    return UnitaryOperator(u)


def cyclic_qubit_state(alpha: float) -> np.ndarray:
    """The cyclic state ``cos(a)|e1> + sin(a)|e2>`` in the ordered eigenbasis."""
    return np.array([np.cos(alpha), np.sin(alpha)], dtype=complex)


def cyclic_qubit_drive(alpha: float, xi: float, gap: float, duration: float = 1.0) -> DiscretizedDrive:
    """Single-step drive realizing the cyclic-qubit period unitary exactly.

    The interior generator is ``-(xi/T) (cos(2a) sz + sin(2a) sx)``, whose
    single exponential reproduces the period unitary with no discretization
    error; the boundary kick Hamiltonians are the static ``-gap/2 sz``.
    """
    axis = np.cos(2 * alpha) * SIGMA_Z + np.sin(2 * alpha) * SIGMA_X
    generator = HermitianOperator(-(xi / duration) * axis)
    h0 = cyclic_qubit_hamiltonian(gap)
    return DiscretizedDrive(
        steps=((0.0, generator),),
        dt=duration,
        h_start=h0,
        h_end=h0,
        label="cyclic-qubit",
    )


def cyclic_qubit_protocol(alpha: float, xi: float, gap: float) -> DriveProtocol:
    """A genuine periodic protocol realizing the same period unitary.

    Three constant segments over ``T = 8 pi / gap``: the static Hamiltonian
    for a quarter period (a full ``2 pi`` rotation contributing ``-1``), the
    cyclic generator for half a period, the static Hamiltonian again. With a
    step count divisible by 4 the left-endpoint product is exact.
    """
    if gap <= 0:
        raise ValueError("gap must be positive")
    duration = 8.0 * np.pi / gap
    h0 = cyclic_qubit_hamiltonian(gap)
    axis = np.cos(2 * alpha) * SIGMA_Z + np.sin(2 * alpha) * SIGMA_X
    h_mid = HermitianOperator(-(2.0 * xi / duration) * axis)
    return piecewise_constant_protocol(
        [h0, h_mid, h_mid, h0], duration, label="cyclic-qubit-periodic"
    )
