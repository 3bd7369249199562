#!/usr/bin/env python3
"""Brute-force path enumeration behind the counting-field protocol.

Inserting an eigenbasis at every time gridpoint decomposes a propagator
matrix element into a finite sum over index paths -- exactly, at any step
count. Weighting each path by exp(i lam F) with the boundary-delta functional
F = (final eigenvalue) - (initial eigenvalue) turns the sum into a
counting-field matrix element that converges at first order in dt to the
two-kick propagator.
"""

import numpy as np

from qworkstats import (
    counting_weighted_sum,
    discretize,
    enumerate_paths,
    evolution_operator,
    linear_ramp_protocol,
    path_sum,
    two_kick_propagator,
)

protocol = linear_ramp_protocol(
    -0.5 * np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    1.0,
)

print("=== path-sum completeness (exact at any step count) ===")
drive = discretize(protocol, 4)
u = evolution_operator(drive).matrix
basis = np.eye(2, dtype=complex)
ground = enumerate_paths(drive, basis[:, 0], basis[:, 0])
print(f"4 steps, qubit: {len(ground)} paths per matrix element")
print(f"{'element':>8} {'path sum':>24} {'direct':>24}")
for col in range(2):
    for row in range(2):
        s = path_sum(enumerate_paths(drive, basis[:, col], basis[:, row]))
        print(f"  U[{row},{col}]  {s.real:+.6f}{s.imag:+.6f}i   {u[row, col].real:+.6f}{u[row, col].imag:+.6f}i")

print("\n=== a few individual paths (ground -> ground element) ===")
print(f"{'indices':>12} {'amplitude':>26} {'functional F':>14}")
top = np.argsort(-np.abs(ground.amplitude), kind="stable")[:6]
indices = ground.indices(len(ground))
for p in top:
    amp = ground.amplitude[p]
    print(f"{str(tuple(indices[p].tolist())):>12} {amp.real:+12.6f}{amp.imag:+.6f}i {ground.functional[p]:>+14.4f}")

print("\n=== counting-weighted sum -> two-kick propagator, O(dt) ===")
rng = np.random.default_rng(7)
psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
psi0 /= np.linalg.norm(psi0)
psi1 = rng.normal(size=2) + 1j * rng.normal(size=2)
psi1 /= np.linalg.norm(psi1)
lam = 0.6
print(f"{'steps':>6} {'paths':>8} {'|weighted sum - two-kick element|':>36}")
previous = None
for n in (4, 8, 16):
    d = discretize(protocol, n)
    weighted = counting_weighted_sum(enumerate_paths(d, psi0, psi1), lam)
    element = complex(np.conj(psi1) @ two_kick_propagator(d, 2.0 * lam).matrix @ psi0)
    dev = abs(weighted - element)
    note = "" if previous is None else f"   (ratio {previous / dev:.2f})"
    print(f"{n:>6} {2 ** (n + 1):>8} {dev:>36.3e}{note}")
    previous = dev
print("-> the deviation halves with each doubling of the step count")
