#!/usr/bin/env python3
"""Closed-system work statistics for a driven qubit.

Builds a rotating drive, samples the counting-field characteristic function,
extracts moments three independent ways (exact spectral sum, finite
differences of G, direct energy balance) and prints the quasi-probability of
the internal-energy change.
"""

import numpy as np

from qworkstats import (
    characteristic_function,
    discretize,
    eig_hermitian,
    evolution_operator,
    moment,
    pure_state_density,
    quasi_distribution,
    rabi_protocol,
    spectral_decomposition,
    symmetric_grid,
)
from qworkstats.fcs import default_fd_step, fd_stencil_grid, moment_fd

# a qubit driven by a rotating transverse field for one time unit
protocol = rabi_protocol(splitting=1.0, amplitude=0.5, frequency=1.0, duration=1.0)
drive = discretize(protocol, 512)

# start in an equal superposition of the initial energy eigenstates
_, vectors = eig_hermitian(drive.h_start)
psi0 = (vectors.matrix[:, 0] + vectors.matrix[:, 1]) / np.sqrt(2.0)
rho0 = pure_state_density(psi0)

print("=== characteristic function ===")
grid = symmetric_grid(4.0, 9)
terms = spectral_decomposition(rho0, drive)
samples = characteristic_function(terms, grid)
for lam, g in zip(grid.lambdas, samples.values):
    print(f"  G({lam:+.1f}) = {g.real:+.6f} {g.imag:+.6f}i")

print("\n=== moments of the internal-energy change ===")
h = default_fd_step(terms.support)
fd_samples = characteristic_function(terms, fd_stencil_grid(h, order=2))
u = evolution_operator(drive).matrix
balance = np.trace(drive.h_end.matrix @ u @ rho0.matrix @ u.conj().T) - np.trace(
    drive.h_start.matrix @ rho0.matrix
)
print(f"  spectral first moment   : {moment(terms, 1):+.10f}")
print(f"  finite-difference check : {moment_fd(fd_samples, 1, h=h):+.10f}")
print(f"  energy balance          : {balance.real:+.10f}")
print(f"  spectral second moment  : {moment(terms, 2):+.10f}")
print(f"  finite-difference check : {moment_fd(fd_samples, 2, h=h):+.10f}")

print("\n=== quasi-probability of the energy change ===")
dist = quasi_distribution(terms)
for support, weight in zip(dist.support, dist.weights):
    bar = "#" * int(round(60 * abs(weight)))
    sign = " " if weight >= 0 else "-"
    print(f"  dU = {support:+.4f}   w = {weight:+.6f}  {sign}{bar}")
print(f"  weights sum to {dist.weights.sum():.12f}; most negative = {dist.min_weight:+.6f}")
