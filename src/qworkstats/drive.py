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
drive window. Every eigensystem a drive keeps is diagonalized once, in the phase
convention of :func:`~qworkstats.linalg.eig_hermitian`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    HermitianOperator,
    NumericalError,
    UnitaryOperator,
    _eigh,
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
    the measurement-kick Hamiltonians, and finite (:class:`NumericalError`
    otherwise).
    """

    duration: float
    hamiltonians_at: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("drive duration must be positive")
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            ends = self.sample([0.0, self.duration])
        if not np.isfinite(ends).all():
            raise NumericalError(f"H(0) or H(T) overflows on the drive window [0, {self.duration}]")

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


# Complex elements per block of steps, in the step checks and in
# evolution_operator; keeps the temporaries of each block in cache.
_STEP_BLOCK = 1 << 15


def _check_hermitian_steps(h: np.ndarray) -> None:
    """Finite entries and ``max|H^k - H^k^dag| <= HERMITICITY_TOL * max(1, max|H^k|)``
    for every step of an ``(N, d, d)`` stack; ``ValueError`` names the first failure."""
    size = max(1, _STEP_BLOCK // h[0].size)
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

    ``hamiltonians`` is the ``(N, d, d)`` stack of step generators ``H^k``,
    kept as a read-only view: the samples ``H(t_k)`` at the left endpoints
    ``t_k = k dt`` under ``rule="left"``, the Magnus-4 generators under
    ``rule="magnus4"``. ``h_start``/``h_end`` are the protocol values at ``t =
    0`` and ``t = T``; ``h_start`` is the first left sample for protocol-derived
    drives but is stored explicitly so synthetic drives can carry boundary
    Hamiltonians that differ from the step generator. Construction checks the
    whole stack at once: finite entries, and each ``H^k`` Hermitian to
    ``HERMITICITY_TOL * max(1, max|H^k|)``.
    """

    hamiltonians: np.ndarray
    dt: float
    h_start: HermitianOperator
    h_end: HermitianOperator
    rule: str = "left"

    def __post_init__(self):
        h = np.asarray(self.hamiltonians, dtype=complex).view()
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonians", h)
        if self.rule not in STEP_RULES:
            raise ValueError(f"unknown step rule {self.rule!r}; expected one of {', '.join(STEP_RULES)}")
        if h.ndim != 3 or h.shape[1] != h.shape[2] or 0 in h.shape:
            raise ValueError(f"need an (N, d, d) stack of N >= 1 steps, got shape {h.shape}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.h_start.dim != self.dim or self.h_end.dim != self.dim:
            raise ValueError("boundary Hamiltonians do not match step dimension")
        _check_hermitian_steps(h)

    @property
    def n_steps(self) -> int:
        return len(self.hamiltonians)

    @property
    def times(self) -> np.ndarray:
        """The read-only ``(N,)`` left endpoints ``t_k = k dt``."""
        t = np.arange(self.n_steps) * self.dt
        t.setflags(write=False)
        return t

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    @property
    def dim(self) -> int:
        return self.hamiltonians.shape[1]

    @cached_property
    def gridpoint_hamiltonians(self) -> np.ndarray:
        """The read-only ``(N + 1, d, d)`` stack ``H(0) = H(t_0), H(t_1) ... H(t_{N-1}), H(T)``.

        ``ValueError`` unless the steps are the samples of ``H``: ``rule ==
        "left"`` (a Magnus-4 generator is not a value of ``H``) and ``h_start``
        equal to the first step bit for bit (a synthetic drive's is not).
        """
        if self.rule != "left":
            raise ValueError(f"needs the samples H(t_k) of a 'left' drive, not {self.rule} generators")
        if not np.array_equal(self.h_start.matrix, self.hamiltonians[0]):
            raise ValueError("needs the samples H(t_k) of a drive whose first step is H(0) = h_start")
        stack = np.concatenate([self.hamiltonians, self.h_end.matrix[None]])
        stack.setflags(write=False)
        return stack

    @cached_property
    def gridpoint_eigensystems(self) -> tuple[np.ndarray, np.ndarray]:
        """``(w, v)`` of :attr:`gridpoint_hamiltonians`, computed once per drive: rows 0 and
        ``N`` are :attr:`boundary_eigensystems`, the interior rows one batched :func:`_eigh`
        in the phase convention of :func:`~qworkstats.linalg.eig_hermitian`."""
        w, v = _eigh(self.gridpoint_hamiltonians[1:-1])
        eps0, v0, epst, vt = self.boundary_eigensystems
        return np.concatenate([eps0[None], w, epst[None]]), np.concatenate([v0[None], v, vt[None]])

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
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        if rule == "magnus4":
            h1, h2 = (protocol.sample(times + node * dt) for node in _GAUSS_NODES)
            hams = 0.5 * (h1 + h2) + (1j * np.sqrt(3.0) / 12.0 * dt) * (h1 @ h2 - h2 @ h1)
        else:
            hams = protocol.sample(times)
    if not np.isfinite(hams).all():
        raise NumericalError(f"{rule} step Hamiltonians overflow at {n_steps} steps")
    return DiscretizedDrive(hams, dt, protocol(0.0), protocol(protocol.duration), rule)


def ordered_product(factors: np.ndarray) -> np.ndarray:
    """``F_{n-1} ... F_1 F_0`` of an ``(n, ..., d, d)`` stack over a fixed pairwise
    tree: ``log2 n`` batched products, the same rounding for the same stack."""
    while len(factors) > 1:
        paired = factors[1::2] @ factors[:-1:2]
        factors = np.concatenate([paired, factors[-1:]]) if len(factors) % 2 else paired
    return factors[0]


# Taylor degree of the step exponentials, and THETA with sum_{k>12} THETA^k / k! <= 2^-53.
_TAYLOR_DEGREE, _THETA = 12, 0.335
# Paterson-Stockmeyer: p(x) = 1 + C_0 + x^4 (C_1 + x^4 C_2), C_j = sum_{m=1..4}
# x^m / (4j+m)!; the powers 4j+m by rows in Horner order C_2, C_1, C_0.
_CHUNK_POWERS = np.arange(1, _TAYLOR_DEGREE + 1).reshape(3, 4)[::-1]
_CHUNK_COEFFS = np.array([[1.0 / math.factorial(k) for k in row] for row in _CHUNK_POWERS.tolist()])


def _step_exponentials(h: np.ndarray, dt: float) -> np.ndarray:
    """``exp(A)``, ``A = -i dt (H + H^dag)/2``, for each step of an ``(n, d, d)`` stack by
    scaling and squaring around the degree-12 Taylor polynomial (Paterson-Stockmeyer, 5
    products). ``A`` is normal, so ``alpha = ||A^4||_1^(1/4)`` bounds its spectral radius,
    and ``alpha / 2^s <= THETA`` keeps the truncation error of ``A / 2^s`` below ``2^-53``."""
    n, d = len(h), h.shape[-1]
    a, a2, _, a4 = powers = np.empty((4, n, d, d), dtype=complex)
    top = float(np.abs(np.add(h, dagger(h), out=a)).max())
    if not math.isfinite(top):
        raise NumericalError("step Hamiltonians overflow when symmetrized")
    # ||A||_1 <= dt d top / 2, so a = A 2^-e has ||a||_1 < 2^59 and a^4 stays finite
    e = max(0, math.frexp(dt)[1] + math.frexp(top)[1] + math.frexp(d)[1] - 60)
    a *= -0.5j * math.ldexp(dt, -e)
    np.matmul(a, a, out=a2)
    np.matmul(a2, powers[:2], out=powers[2:])  # a^3, a^4
    # alpha 2^e >= rho(A), needed only when the cheaper bound ||A||_1 exceeds THETA
    alpha = np.abs(a4).sum(axis=-2).max() ** 0.25 if dt * d * top > 2 * _THETA else 0.0
    s = max(0, e + math.ceil(math.log2(alpha / _THETA))) if alpha > 0 else 0
    # x = A / 2^s = a 2^(e - s), so the term x^k / k! is a^k 2^(k (e - s)) / k!
    coeffs = np.ldexp(_CHUNK_COEFFS, (e - s) * _CHUNK_POWERS) if e != s else _CHUNK_COEFFS
    x, *chunks = (coeffs @ powers.reshape(4, -1)).reshape(3, n, d, d)
    for chunk in chunks:
        x = a4 @ x
        x += chunk
    x.reshape(n, -1)[:, :: d + 1] += 1.0
    for _ in range(s):
        with np.errstate(over="ignore", invalid="ignore"):  # evolution_operator checks
            x = x @ x
    return x


def evolution_operator(drive: DiscretizedDrive) -> UnitaryOperator:
    """Ordered product of the step exponentials, latest step leftmost.

    The step exponentials come from matrix products alone
    (:func:`_step_exponentials`), in blocks of a power-of-two number of steps
    of at most ``_STEP_BLOCK`` complex elements; the fixed pairwise tree of
    :func:`ordered_product` reduces each block, then the block products.
    Overflow raises :class:`NumericalError` naming ``dt*||H||_1``.
    """
    h, d = drive.hamiltonians, drive.dim
    size = 1 << max(0, (_STEP_BLOCK // (d * d)).bit_length() - 1)
    products = np.empty((-(-len(h) // size), d, d), dtype=complex)
    for b in range(len(products)):
        products[b] = ordered_product(_step_exponentials(h[b * size : (b + 1) * size], drive.dt))
    u = ordered_product(products)
    drift = max_abs(u.conj().T @ u - np.eye(d))
    if not np.isfinite(drift):
        phase = drive.dt * float(np.abs(h).sum(axis=-2).max())
        raise NumericalError(f"step exponentials overflow at dt*||H||_1 = {phase:.3e}")
    # rounding accumulates over very long products; project back to the
    # unitary manifold (nearest unitary = polar factor) when it shows
    if drift > 1e-12:
        left, _, right = np.linalg.svd(u)
        u = left @ right
    return UnitaryOperator(u)


# First and largest coarse step count of :func:`discretize_to_tolerance`.
AUTO_N_START = 16
AUTO_N_MAX = 1 << 18


def discretize_to_tolerance(
    protocol: DriveProtocol, tol: float = 1e-6, rule: str = "left"
) -> DiscretizedDrive:
    """Pick the step count by self-convergence of the evolution operator.

    Requires ``max|U_N - U_2N| <= tol``, both products under ``rule``, and
    returns the finer discretization, starting from ``N = AUTO_N_START`` and
    giving up at ``AUTO_N_MAX``. The deviation tracks the rule's product
    error ``c / N^p`` (``p`` from :data:`STEP_RULES`), so after each failed
    check the required ``N`` is predicted from the measured constant (with a
    safety margin) instead of doubling blindly; the prediction is always
    verified before returning.
    """
    n = AUTO_N_START
    coarse = discretize(protocol, n, rule)
    order = STEP_RULES[rule]
    while True:
        fine = discretize(protocol, 2 * n, rule)
        dev = max_abs(coarse.propagator.matrix - fine.propagator.matrix)
        if dev <= tol:
            return fine
        if n >= AUTO_N_MAX:
            raise NumericalError(
                f"evolution operator did not self-converge to {tol} below N = {2 * AUTO_N_MAX}"
            )
        predicted = int(np.ceil(n * (1.25 * dev / tol) ** (1.0 / order)))
        n_next = min(max(2 * n, predicted), AUTO_N_MAX)
        coarse = fine if n_next == 2 * n else discretize(protocol, n_next, rule)
        n = n_next


# ---------------------------------------------------------------------------
# protocol library


def constant_protocol(h, duration: float) -> DriveProtocol:
    ham = HermitianOperator(h).matrix
    return DriveProtocol(duration, lambda t: np.broadcast_to(ham, (t.size, *ham.shape)))


def linear_ramp_protocol(h_initial, h_final, duration: float) -> DriveProtocol:
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

    return DriveProtocol(duration, at)


def rabi_protocol(
    splitting: float = 1.0,
    amplitude: float = 0.5,
    frequency: float = 1.0,
    duration: float = 1.0,
) -> DriveProtocol:
    """Rotating qubit drive ``H(t) = s*sz + a*(cos(ft) sx + sin(ft) sy)``."""

    def at(t: np.ndarray) -> np.ndarray:
        ft = (frequency * t)[:, None, None]
        return splitting * SIGMA_Z + amplitude * (np.cos(ft) * SIGMA_X + np.sin(ft) * SIGMA_Y)

    return DriveProtocol(duration, at)


def gap_ramp_protocol(gap_initial: float, gap_final: float, duration: float) -> DriveProtocol:
    """Qubit with a linearly ramped gap, ``H(t) = -gap(t)/2 * sz``.

    The minus sign keeps the ground state at basis index 0 so that ascending
    eigenvalue order matches the computational basis.
    """

    def at(t: np.ndarray) -> np.ndarray:
        gap = gap_initial + (gap_final - gap_initial) * t / duration
        return (-0.5 * gap)[:, None, None] * SIGMA_Z

    return DriveProtocol(duration, at)


def piecewise_constant_protocol(segments: Sequence, duration: float) -> DriveProtocol:
    """Equal-length constant segments; ``H(T)`` is the last segment's value."""
    if not len(segments):
        raise ValueError("piecewise protocol needs at least one segment")
    hams = np.stack([HermitianOperator(h).matrix for h in segments])
    seg = duration / len(hams)

    def at(t: np.ndarray) -> np.ndarray:
        return hams[np.minimum((t / seg).astype(int), len(hams) - 1)]

    return DriveProtocol(duration, at)


def reversed_protocol(protocol: DriveProtocol) -> DriveProtocol:
    """The drive run backwards in time, ``H_rev(t) = H(T - t)``."""
    return DriveProtocol(protocol.duration, lambda t: protocol.sample(protocol.duration - t))


def random_ramp_protocol(
    dim: int, duration: float, rng: np.random.Generator, scale: float = 1.0
) -> DriveProtocol:
    """Linear ramp between two random Hermitian endpoints, for fixtures."""
    from .linalg import random_hermitian

    h0 = random_hermitian(dim, rng, scale)
    h1 = random_hermitian(dim, rng, scale)
    return linear_ramp_protocol(h0, h1, duration)


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
    error; the boundary kick Hamiltonians are the static ``-gap/2 sz``. Its
    step is not a value of ``H``, so it has no gridpoint Hamiltonians.
    """
    axis = np.cos(2 * alpha) * SIGMA_Z + np.sin(2 * alpha) * SIGMA_X
    generator = HermitianOperator(-(xi / duration) * axis)
    h0 = cyclic_qubit_hamiltonian(gap)
    return DiscretizedDrive(generator.matrix[None], duration, h0, h0)


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
    return piecewise_constant_protocol([h0, h_mid, h_mid, h0], duration)
