#!/usr/bin/env python3
"""Heat and entropy in the fast-decoherence limit.

When relaxation outpaces the drive the system tracks the instantaneous
thermal state, and each step's dissipated heat equals the temperature times
the entropy increment. The relation is exact in the quasi-static limit and
degrades linearly with the step size.
"""

import numpy as np

from qworkstats import discretize, fast_decoherence_run, gap_ramp_protocol

protocol = gap_ramp_protocol(1.0, 1.5, 1.0)
temperature = 1.0

print("qubit gap ramp 1.0 -> 1.5 at temperature T = 1, pinned to the thermal state\n")
ledger = fast_decoherence_run(discretize(protocol, 512), temperature)
print("every 64th step:")
print(f"{'k':>5} {'Q_k':>14} {'T dS_k':>14} {'relative gap':>14}")
shown = ledger.k % 64 == 0
q = ledger.heat_increments[shown]
t_ds = temperature * ledger.entropy_increments[shown]
for k, q_k, t_ds_k in zip(ledger.k[shown], q, t_ds):
    rel = abs(q_k - t_ds_k) / max(abs(q_k), 1e-12)
    print(f"{k:>5} {q_k:>+14.6e} {t_ds_k:>+14.6e} {rel:>14.2e}")

print("\ntotals:")
print(f"  dU = {ledger.internal_energy_change:+.8f}")
print(f"  Q  = {ledger.heat:+.8f}   T dS = {temperature * ledger.entropy_increments.sum():+.8f}")
print(f"  W  = {ledger.work:+.8f}  (quasi-static work done by the ramp)")

print("\nconvergence of max_k |Q_k - T dS_k| / |Q_k| as the grid refines:")
print(f"{'steps':>8} {'max relative gap':>18}")
for n in (32, 128, 512, 2048):
    led = fast_decoherence_run(discretize(protocol, n), temperature)
    q = led.heat_increments
    ds = led.entropy_increments
    rel = np.max(np.abs(q - temperature * ds) / np.maximum(np.abs(q), 1e-12))
    print(f"{n:>8} {rel:>18.3e}")
print("-> the per-step heat-entropy relation is exact only in the quasi-static limit")
