"""Time-dependent drive protocols and their step discretization.

A :class:`DriveProtocol` is a deterministic map ``t -> H_S(t)`` on ``[0, T]``
that samples a whole array of times in one call. :func:`discretize` cuts the
window into ``N`` equal steps with one generator ``H^k`` each, and
:func:`evolution_operator` forms the ordered product

    ``U = exp(-i dt H^{N-1}) ... exp(-i dt H^1) exp(-i dt H^0)``

(latest step leftmost). Two step rules give the generators:

* ``"left"``, the paper's rule and the default: ``H^k = H(t_k)`` at the left
  endpoints ``t_k = k dt``; the product converges at first order in ``dt``.
* ``"magnus4"``, the two-point Gauss-Legendre Magnus rule:
  ``H^k = (H_1 + H_2)/2 + i (sqrt(3)/12) dt [H_1, H_2]`` with
  ``H_{1,2} = H(t_k + (1/2 -+ sqrt(3)/6) dt)``; fourth order in ``dt``.

The protocol values at the exact boundaries ``t = 0`` and ``t = T`` are kept
on the discretized drive separately from the step generators: they are the
Hamiltonians the detector kicks couple to, immediately before and after the
drive window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    HermitianOperator,
    NumericalError,
    UnitaryOperator,
    dagger,
    eig_hermitian,
    max_abs,
    mat,
)

__all__ = [
    "DriveProtocol",
    "DiscretizedDrive",
    "STEP_RULES",
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

# step rule -> order p of its product error, dev ~ N^-p
STEP_RULES = {"left": 1, "magnus4": 4}


@dataclass(frozen=True)
class DriveProtocol:
    """A drive ``H_S(t)`` on ``[0, duration]``.

    ``hamiltonians_at`` must be a deterministic function mapping an ``(N,)``
    array of times to the ``(N, d, d)`` stack of Hamiltonians at those times,
    with ``d`` fixed; both endpoints must be well-defined since they serve as
    the measurement-kick Hamiltonians.
    """

    duration: float
    hamiltonians_at: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("drive duration must be positive")
        self.sample([0.0, self.duration])

    @cached_property
    def dim(self) -> int:
        return self.sample([0.0]).shape[-1]

    def sample(self, times) -> np.ndarray:
        """The ``(N, d, d)`` stack ``H(t)`` for an ``(N,)`` array of times in
        the window; times within rounding of an endpoint are clamped to it."""
        t = np.asarray(times, dtype=float).reshape(-1)
        outside = t[(t < -1e-12) | (t > self.duration * (1 + 1e-12))]
        if outside.size:
            raise ValueError(f"time {outside[0]} outside drive window [0, {self.duration}]")
        return np.asarray(self.hamiltonians_at(np.clip(t, 0.0, self.duration)), dtype=complex)

    def __call__(self, t: float) -> HermitianOperator:
        """``H(t)`` at one time, checked Hermitian."""
        return HermitianOperator(self.sample([t])[0])


# Complex elements per block of the step checks; keeps their temporaries in cache.
_CHECK_BLOCK = 1 << 14


def _check_hermitian_steps(h: np.ndarray) -> None:
    """Finite entries and ``max|H^k - H^k^dag| <= HERMITICITY_TOL * max(1, max|H^k|)``
    for every step of an ``(N, d, d)`` stack; ``ValueError`` names the first failure."""
    size = max(1, _CHECK_BLOCK // h[0].size)
    for start in range(0, len(h), size):
        block = h[start : start + size]
        scale = np.abs(block).max(axis=(1, 2))
        if not np.isfinite(scale).all():
            raise ValueError("step Hamiltonians contain non-finite entries")
        dev = np.abs(block - dagger(block)).max(axis=(1, 2))
        bad = np.flatnonzero(dev > HERMITICITY_TOL * np.maximum(1.0, scale))
        if bad.size:
            k = bad[0]
            raise ValueError(f"step {start + k} is not Hermitian: max|M - M^dag| = {dev[k]:.3e}")


@dataclass(frozen=True, eq=False)
class DiscretizedDrive:
    """``N`` equal steps of a drive plus its boundary kick Hamiltonians.

    ``times`` holds the ``(N,)`` left endpoints ``t_k = k dt`` and
    ``hamiltonians`` the ``(N, d, d)`` stack of step generators ``H^k``: the
    samples ``H(t_k)`` under ``rule="left"``, the Magnus-4 generators under
    ``rule="magnus4"``. Both are kept as read-only views. ``h_start``/``h_end``
    are the protocol values at ``t = 0`` and ``t = T``; ``h_start`` coincides
    with the first left sample for protocol-derived drives but is stored
    explicitly so synthetic drives can carry boundary Hamiltonians that differ
    from the step generator. Construction checks the whole stack at once:
    ``t_k = k dt``, finite entries, and each ``H^k`` Hermitian to
    ``HERMITICITY_TOL * max(1, max|H^k|)``.
    """

    times: np.ndarray
    hamiltonians: np.ndarray
    dt: float
    h_start: HermitianOperator
    h_end: HermitianOperator
    label: str = ""
    rule: str = "left"

    def __post_init__(self):
        for name, dtype in (("times", float), ("hamiltonians", complex)):
            view = np.asarray(getattr(self, name), dtype=dtype).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        t, h = self.times, self.hamiltonians
        if self.rule not in STEP_RULES:
            raise ValueError(f"unknown step rule {self.rule!r}; expected one of {', '.join(STEP_RULES)}")
        if h.ndim != 3 or h.shape[1] != h.shape[2] or 0 in h.shape or t.shape != h.shape[:1]:
            raise ValueError(f"need an (N, d, d) stack of N >= 1 steps and N times, got {h.shape}, {t.shape}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.h_start.dim != self.dim or self.h_end.dim != self.dim:
            raise ValueError("boundary Hamiltonians do not match step dimension")
        off = np.flatnonzero(np.abs(t - np.arange(t.size) * self.dt) > 1e-12 * np.maximum(1.0, np.abs(t)))
        if off.size:
            raise ValueError(f"step {off[0]} time {t[off[0]]} is not k*dt")
        _check_hermitian_steps(h)

    @property
    def n_steps(self) -> int:
        return self.times.size

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    @property
    def dim(self) -> int:
        return self.hamiltonians.shape[1]

    @property
    def samples(self) -> np.ndarray:
        """The stack ``H(t_k)`` itself, for readers that need the Hamiltonian
        at each gridpoint; ``ValueError`` unless ``rule == "left"``, since a
        Magnus-4 generator is not a value of ``H``."""
        if self.rule != "left":
            raise ValueError(f"needs the samples H(t_k) of a 'left' drive, not {self.rule} generators")
        return self.hamiltonians

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


# Gauss-Legendre nodes of one step, as fractions of dt
_GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)


def discretize(protocol: DriveProtocol, n_steps: int, rule: str = "left") -> DiscretizedDrive:
    """``n_steps`` equal steps of ``protocol`` with generators from ``rule``.

    ``"left"`` samples the left endpoints; ``"magnus4"`` samples the two
    Gauss-Legendre nodes of every step and forms the Magnus-4 generator.
    Raises :class:`NumericalError` when the generators overflow.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dt = protocol.duration / n_steps
    times = np.arange(n_steps) * dt
    if rule == "magnus4":
        h1, h2 = (protocol.sample(times + node * dt) for node in _GAUSS_NODES)
        hams = 0.5 * (h1 + h2) + (1j * np.sqrt(3.0) / 12.0 * dt) * (h1 @ h2 - h2 @ h1)
    else:
        hams = protocol.sample(times)
    if not np.isfinite(hams).all():
        raise NumericalError(f"{rule} step Hamiltonians overflow at {n_steps} steps")
    return DiscretizedDrive(
        times=times,
        hamiltonians=hams,
        dt=dt,
        h_start=protocol(0.0),
        h_end=protocol(protocol.duration),
        label=protocol.label,
        rule=rule,
    )


def evolution_operator(drive: DiscretizedDrive) -> UnitaryOperator:
    """Ordered product of the step exponentials, latest step leftmost.

    Step exponentials come from a batched eigendecomposition of the drive's
    generator stack and the product is reduced over a fixed pairwise tree,
    so large step counts stay cheap and the result is deterministic.
    """
    mats = drive.hamiltonians + dagger(drive.hamiltonians)
    mats *= 0.5
    if not np.isfinite(mats).all():
        raise NumericalError("step Hamiltonians overflow when symmetrized")
    w, v = np.linalg.eigh(mats)
    phases = np.exp(-1j * w * drive.dt)
    factors = np.matmul(v * phases[:, None, :], dagger(v))
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


def discretize_to_tolerance(
    protocol: DriveProtocol,
    tol: float = 1e-6,
    n_start: int = 16,
    n_max: int = 1 << 18,
    rule: str = "left",
) -> DiscretizedDrive:
    """Pick the step count by self-convergence of the evolution operator.

    Requires ``max|U_N - U_2N| <= tol``, both products under ``rule``, and
    returns the finer discretization. The deviation tracks the rule's product
    error ``c / N^p`` (``p`` from :data:`STEP_RULES`), so after each failed
    check the required ``N`` is predicted from the measured constant (with a
    safety margin) instead of doubling blindly; the prediction is always
    verified before returning.
    """
    n = max(1, n_start)
    coarse = discretize(protocol, n, rule)
    order = STEP_RULES[rule]
    while True:
        fine = discretize(protocol, 2 * n, rule)
        dev = max_abs(coarse.propagator.matrix - fine.propagator.matrix)
        if dev <= tol:
            return fine
        if n >= n_max:
            raise NumericalError(
                f"evolution operator did not self-converge to {tol} below N = {2 * n_max}"
            )
        predicted = int(np.ceil(n * (1.25 * dev / tol) ** (1.0 / order)))
        n_next = min(max(2 * n, predicted), n_max)
        coarse = fine if n_next == 2 * n else discretize(protocol, n_next, rule)
        n = n_next


# ---------------------------------------------------------------------------
# protocol library


def constant_protocol(h, duration: float, label: str = "constant") -> DriveProtocol:
    ham = HermitianOperator(h).matrix
    return DriveProtocol(duration, lambda t: np.broadcast_to(ham, (t.size, *ham.shape)), label)


def linear_ramp_protocol(h_initial, h_final, duration: float, label: str = "linear-ramp") -> DriveProtocol:
    """Linear interpolation ``H(t) = (1 - t/T) H0 + (t/T) H1``."""
    # real views: scaling a complex array by real weights as float * complex
    # would run NumPy's much slower mixed-type broadcast loop
    h0 = np.ascontiguousarray(mat(h_initial)).view(float)
    h1 = np.ascontiguousarray(mat(h_final)).view(float)
    if h0.shape != h1.shape:
        raise ValueError("ramp endpoints have different dimensions")

    def at(t: np.ndarray) -> np.ndarray:
        s = (t / duration)[:, None, None]
        out = (1.0 - s) * h0
        out += s * h1
        return out.view(complex)

    return DriveProtocol(duration, at, label)


def rabi_protocol(
    splitting: float = 1.0,
    amplitude: float = 0.5,
    frequency: float = 1.0,
    duration: float = 1.0,
    label: str = "rabi",
) -> DriveProtocol:
    """Rotating qubit drive ``H(t) = s*sz + a*(cos(ft) sx + sin(ft) sy)``."""

    def at(t: np.ndarray) -> np.ndarray:
        ft = (frequency * t)[:, None, None]
        return splitting * SIGMA_Z + amplitude * (np.cos(ft) * SIGMA_X + np.sin(ft) * SIGMA_Y)

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

    def at(t: np.ndarray) -> np.ndarray:
        gap = gap_initial + (gap_final - gap_initial) * t / duration
        return (-0.5 * gap)[:, None, None] * SIGMA_Z

    return DriveProtocol(duration, at, label)


def piecewise_constant_protocol(
    segments: Sequence, duration: float, label: str = "piecewise"
) -> DriveProtocol:
    """Equal-length constant segments; ``H(T)`` is the last segment's value."""
    if not len(segments):
        raise ValueError("piecewise protocol needs at least one segment")
    hams = np.stack([HermitianOperator(h).matrix for h in segments])
    seg = duration / len(hams)

    def at(t: np.ndarray) -> np.ndarray:
        return hams[np.minimum((t / seg).astype(int), len(hams) - 1)]

    return DriveProtocol(duration, at, label)


def reversed_protocol(protocol: DriveProtocol) -> DriveProtocol:
    """The drive run backwards in time, ``H_rev(t) = H(T - t)``."""
    return DriveProtocol(
        protocol.duration,
        lambda t: protocol.sample(protocol.duration - t),
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
        times=np.zeros(1),
        hamiltonians=generator.matrix[None],
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
