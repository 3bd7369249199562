#!/usr/bin/env python3
"""Heat ledger of a driven qubit exchanging energy with a thermal qubit.

The composite system+environment pair evolves exactly and unitarily; the
ledger reads the reduced system state after every step and accounts the heat
dissipated per step. The work obeys W = dU - Q, equals the Hamiltonian
increment form, and equals the first moment of the work-counting
characteristic function.
"""

import numpy as np

from qworkstats import (
    DiscretizedComposite,
    discretize,
    eigenstate_density,
    gap_ramp_protocol,
    gibbs_state,
    qubit_exchange_environment,
)
from qworkstats.fcs import fd_stencil_grid, moment_fd

N = 96
protocol = gap_ramp_protocol(0.8, 1.2, 6.0)
h_env, h_se = qubit_exchange_environment(0.8)  # resonant with the initial gap
drive = discretize(protocol, N)
# step propagators, formed once for every quantity below
composite = DiscretizedComposite(drive, h_env, h_se, coupling_scale=0.05)
rho_s = eigenstate_density(protocol(0.0), 1)  # excited system
rho_e = gibbs_state(h_env, 1.0)

ledger, increments = composite.trajectory(rho_s, rho_e)

print("per-step heat (every 8th step):")
print(f"{'k':>4} {'t_k':>8} {'Q_k':>14} {'cumulative Q':>14}")
shown = ledger.k % 8 == 0
cumulative = np.cumsum(ledger.heat_increments)
for k, t, q, cum in zip(ledger.k[shown], ledger.time[shown], ledger.heat_increments[shown], cumulative[shown]):
    print(f"{k:>4} {t:>8.3f} {q:>+14.3e} {cum:>+14.6f}")

print("\ntotals:")
print(f"  dU                 = {ledger.internal_energy_change:+.10f}")
print(f"  Q (into system)    = {ledger.heat:+.10f}")
print(f"  W = dU - Q         = {ledger.work:+.10f}")

print(f"  Hamiltonian-increment form of W = {increments:+.10f}")
print(f"  |difference| = {abs(increments - ledger.work):.2e}")

h = 1e-3
samples = composite.characteristic_function(
    rho_s, rho_e, fd_stencil_grid(h, order=1)
)
fd_work = moment_fd(samples, 1, h=h)
print(f"  first moment of the counting function = {fd_work:+.10f}")
print(f"  |difference from ledger W| = {abs(fd_work - ledger.work):.2e}")

print("\nsanity limits:")
decoupled = DiscretizedComposite(drive, h_env, h_se, coupling_scale=0.0)
led0, _ = decoupled.trajectory(rho_s, rho_e)
print(f"  g = 0: max |Q_k| = {np.max(np.abs(led0.heat_increments)):.2e} (no dissipation)")
from qworkstats import constant_protocol, cyclic_qubit_hamiltonian

static = DiscretizedComposite(
    discretize(constant_protocol(cyclic_qubit_hamiltonian(0.8), 6.0), N), h_env, h_se, coupling_scale=0.05
)
led_c, _ = static.trajectory(rho_s, rho_e)
print(f"  constant drive: W = {led_c.work:+.2e}, dU - Q = {led_c.internal_energy_change - led_c.heat:+.2e}")
