"""Independent cross-check of the obstacle solve: optimal stopping on a trinomial tree.

Test-only: acceptance 6 and the oracle tests of test_obstacle.py compare
`obstacle.solve` against this value surface, which no library path uses.
"""

from __future__ import annotations

import math

import numpy as np

from rootbarrier import measures
from rootbarrier.measures import Measure
from rootbarrier.obstacle import DiffusionSpec, GridFunction, SolverConfig, SolverError


def optimal_stopping_oracle(
    diff: DiffusionSpec,
    nu: Measure,
    mu: Measure,
    cfg: SolverConfig,
) -> GridFunction:
    """Value surface from backward dynamic programming on a trinomial tree.

    The same surface as `solve` arises as the value of stopping for the
    obstacle reward before the horizon versus the start-law potential at
    the horizon; with time-homogeneous rewards the whole (x, t) surface
    comes out of a single recursion over the number of remaining steps.
    """
    report = measures.check_embeddable(nu, mu)
    if not report.passed:
        raise SolverError("nu cannot be embedded into mu (oracle)")
    if diff.geometric:
        lo, hi = math.log(cfg.x_lo), math.log(cfg.x_hi)
    else:
        lo, hi = cfg.x_lo, cfg.x_hi
    grid = np.linspace(lo, hi, cfg.nx)
    h = grid[1] - grid[0]
    state = np.exp(grid) if diff.geometric else grid

    # unit diffusion and drift -1/2 in log space
    sig2, drift = (1.0, -0.5) if diff.geometric else (diff.sigma(grid) ** 2, 0.0)
    sig2 = np.broadcast_to(sig2, grid.shape)
    # steps of 0.8 times the explicit stability limit, or finer to reach nt
    dt_stab = 0.8 * h * h / float(np.max(sig2))
    n_steps = max(int(math.ceil(cfg.horizon / dt_stab)), cfg.nt)
    dt = cfg.horizon / n_steps

    p_up = sig2 * dt / (2 * h * h) + drift * dt / (2 * h)
    p_dn = sig2 * dt / (2 * h * h) - drift * dt / (2 * h)
    if np.any(p_up < 0) or np.any(p_dn < 0) or np.any(p_up + p_dn > 1.0):
        raise SolverError("trinomial probabilities out of range; refine the grid")

    psi = measures.potential(mu, state)
    value = measures.potential(nu, state)
    value = np.maximum(value, psi)

    # record the surface on the configured time grid
    t_out = np.linspace(0.0, cfg.horizon, cfg.nt + 1)
    out = np.empty((cfg.nt + 1, cfg.nx))
    out[0] = value
    next_record = 1
    p_mid = 1.0 - p_up - p_dn
    for k in range(1, n_steps + 1):
        cont = p_mid * value
        cont[1:-1] += p_up[1:-1] * value[2:] + p_dn[1:-1] * value[:-2]
        cont[0] = psi[0]
        cont[-1] = psi[-1]
        value = np.maximum(psi, cont)
        while next_record <= cfg.nt and next_record * (n_steps / cfg.nt) <= k + 1e-12:
            out[next_record] = value
            next_record += 1
    while next_record <= cfg.nt:
        out[next_record] = value
        next_record += 1
    return GridFunction(x=grid, t=t_out, values=out)
