#!/usr/bin/env python3
"""Negativity of the energy-change quasi-probability.

For a coherent initial superposition the Fourier transform of the counting
characteristic function is not a probability: one of its weights is negative.
Dephasing the same state in the energy basis removes the negativity and
reproduces the projective two-measurement distribution. A windowed Fourier
inversion of G sampled on a wide counting grid cross-checks the binned
weights.
"""

import numpy as np

from qworkstats import (
    characteristic_function,
    cyclic_qubit_drive,
    cyclic_qubit_state,
    dephase,
    pure_state_density,
    quasi_distribution,
    spectral_decomposition,
    symmetric_grid,
)
from qworkstats.fcs import fourier_grid_for_supports, fourier_quasi_weights

ALPHA, XI, GAP = np.pi / 3, np.pi / 4, 1.0

drive = cyclic_qubit_drive(ALPHA, XI, GAP)
rho = pure_state_density(cyclic_qubit_state(ALPHA))


def show(dist, label):
    print(f"--- {label} ---")
    for support, weight in zip(dist.support, dist.weights):
        marker = "  <-- negative" if weight < -1e-12 else ""
        print(f"  dU = {support:+.3f}   w = {weight:+.6f}{marker}")
    print(f"  sum = {dist.weights.sum():.12f}\n")


terms = spectral_decomposition(rho, drive)
dist = quasi_distribution(terms)
show(dist, f"coherent initial state, alpha = pi/3, xi = pi/4")

dist_dephased = quasi_distribution(spectral_decomposition(dephase(rho, drive.h_start), drive))
show(dist_dephased, "same state dephased in the energy basis (projective limit)")

print("windowed Fourier inversion of G as an independent cross-check:")
lam_max, points, sigma_u = fourier_grid_for_supports(dist.support)
samples = characteristic_function(terms, symmetric_grid(lam_max, points))
recovered = fourier_quasi_weights(samples, dist.support, sigma_u)
print(f"  grid extent {lam_max:.0f}, {points} points, energy resolution {sigma_u:.3f}")
for support, exact, estimate in zip(dist.support, dist.weights, recovered):
    print(f"  dU = {support:+.3f}   spectral {exact:+.6f}   inversion {estimate:+.6f}")
print(f"  max difference = {np.max(np.abs(recovered - dist.weights)):.2e}")
