#!/usr/bin/env python3
"""Embed a standard normal into Brownian motion by a stopping barrier.

The start law is a point mass at zero and the target is N(0,1).  The
stopped-process potential solves a parabolic obstacle problem; its contact
set starts exactly at the barrier, which for a normal target is a constant
time (here 1.0, the target variance).  We solve the obstacle problem,
extract the barrier, and verify the embedding by simulating a hundred
thousand stopped paths.

Run:  python demos/01_barrier_for_a_normal_target.py
"""

import numpy as np

from rootbarrier import (
    SolverConfig, assemble, brownian, solve,
    extract_barrier, point_mass, normal, potential, empirical,
    simulate_stopped, ks_statistic, ks_critical_value,
)

nu = point_mass(0.0)
mu = normal(0.0, 1.0)

# The domain must carry all but ~1e-9 of the target mass: +-6.2 suffices.
cfg = SolverConfig(x_lo=-6.2, x_hi=6.2, nx=801, horizon=2.0, nt=1600)
sol = solve(assemble(brownian(), nu, mu, cfg))
print(f"obstacle solve: {len(sol.x)} nodes, {len(sol.t) - 1} of {cfg.nt} steps marched "
      f"before the barrier carried mu, max complementarity residual {sol.max_residual:.2e}")

bar = extract_barrier(sol)
central = np.abs(bar.x) <= 1.96
print(f"extracted stopping boundary on the central 95% mass region: "
      f"R in [{bar.R[central].min():.4f}, {bar.R[central].max():.4f}] (expect 1.0)")

# Simulate the stopped diffusion and compare the stopped law with the target.
batch = simulate_stopped(brownian(), nu, bar, n=100_000, dt=1e-3, seed=7)
ks = ks_statistic(batch.stopped_values, mu.cdf)
print(f"re-embedding: KS statistic {ks:.5f} vs 1% critical value "
      f"{ks_critical_value(batch.n, 0.01):.5f}")
print(f"mean stopping time {batch.stop_times.mean():.4f} (target variance 1.0)")

# The empirical potential of the stopped sample should hug the target's.
grid = np.linspace(-4, 4, 161)
emp = potential(empirical(batch.stopped_values), grid)
tgt = potential(mu, grid)
print(f"empirical vs target potential, sup gap "
      f"{np.max(np.abs(emp - tgt)):.5f} "
      f"(3/sqrt(n) = {3/np.sqrt(batch.n):.5f})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4))
    ax1.plot(bar.x, bar.R)
    ax1.set(xlabel="x", ylabel="R(x)", title="stopping boundary (constant = variance)")
    ax1.set_ylim(0, 2)
    ax2.plot(grid, emp, label="empirical stopped law")
    ax2.plot(grid, tgt, "--", label="target")
    ax2.set(xlabel="x", ylabel="potential", title="potential match")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("demo01_normal_barrier.png", dpi=120)
    print("wrote demo01_normal_barrier.png")
except ImportError:
    pass
