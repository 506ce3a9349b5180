"""Independent cross-checks that no library path uses.

`optimal_stopping_oracle` is the obstacle solve as optimal stopping on a
trinomial tree; acceptance 6 and the oracle tests of test_obstacle.py
compare `obstacle.solve` against its value surface.

`hedge_reference` is the hedge build in its plainest form: the M march,
`march_reference`, rebuilds every step's rows with np.where over all
nodes, and the surfaces come from np.cumsum, np.trapezoid and np.diff
over whole-surface temporaries.  test_optimality.py asserts that
`optimality.build_hedge` gives its bytes, and that its M is within
round-off of the march over every step from T_M.
"""

from __future__ import annotations

import math

import numpy as np

from rootbarrier import measures
from rootbarrier import optimality as opt
from rootbarrier.barrier import Barrier
from rootbarrier.measures import Measure
from rootbarrier.obstacle import (DiffusionSpec, GridFunction, SolverConfig, SolverError,
                                  _stencil, _tridiag_solve)


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


def cumtrapz_reference(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral along axis 0, by np.cumsum over the whole array."""
    d = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    s = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate((np.zeros((1,) + s.shape[1:]), s))


def march_reference(
    diff: DiffusionSpec,
    barrier: Barrier,
    payoff: opt.PayoffSpec,
    x_grid: np.ndarray,
    nt: int,
    t_max: float,
    start: int,
) -> tuple[np.ndarray, float]:
    """M and its clip by compute_M's march, each step built afresh, from row `start` down.

    The crossing rows are those of compute_M; rows start..nt are f, and
    every step below them pins the nodes with t >= R by np.where over all
    nodes and writes its crossing rows in.  start = nt is the march from
    T_M over every step.
    """
    x = np.asarray(x_grid, dtype=float)
    r = barrier.value_at(x)
    t = np.linspace(0.0, float(t_max), nt + 1)
    dt = t[1] - t[0]
    f_t = payoff.f(t)
    a = 0.5 * np.broadcast_to(diff.sigma(x), x.shape) ** 2
    n = len(x)

    h = np.diff(x)
    lower, diag, upper = np.zeros(n), np.ones(n), np.zeros(n)
    lo, di, up = _stencil(h[:-1], h[1:], a[1:-1])
    lower[1:-1], diag[1:-1], upper[1:-1] = dt * lo, 1.0 + dt * di, dt * up
    upper[0] = lower[-1] = -1.0

    first = np.searchsorted(t[:-1], r)
    k_left = opt._steps_between(first[:-2], first[1:-1], n)
    k_right = opt._steps_between(first[2:], first[1:-1], n)
    keys = np.union1d(k_left, k_right)
    step, i = np.divmod(keys, n)
    left, right = np.isin(keys, k_left), np.isin(keys, k_right)
    hm, hp = h[i - 1], h[i]
    hm[left] = opt._cut(hm[left], r[i[left]], r[i[left] - 1], t[step[left]])
    hp[right] = opt._cut(hp[right], r[i[right]], r[i[right] + 1], t[step[right]])
    lo, di, up = _stencil(hm, hp, a[i])
    lo, up, f_c = dt * lo, dt * up, f_t[step]
    c_lower, c_diag, c_upper = np.where(left, 0.0, lo), 1.0 + dt * di, np.where(right, 0.0, up)
    c_left_f, c_right_f = np.where(left, lo * f_c, 0.0), np.where(right, up * f_c, 0.0)
    rows = np.searchsorted(step, np.arange(nt + 1))

    M = np.empty((nt + 1, n))
    M[start:] = f_t[start:, None]
    clip = 0.0
    for j in range(start - 1, -1, -1):
        fv = f_t[j]
        pinned = t[j] >= r
        c = slice(rows[j], rows[j + 1])
        i_j = i[c]
        m_lower = np.where(pinned, 0.0, lower)
        m_diag = np.where(pinned, 1.0, diag)
        m_upper = np.where(pinned, 0.0, upper)
        m_lower[i_j], m_diag[i_j], m_upper[i_j] = c_lower[c], c_diag[c], c_upper[c]
        rhs = np.where(pinned, fv, M[j + 1])
        rhs[[0, -1]] = np.where(pinned[[0, -1]], fv, 0.0)
        rhs[i_j] -= c_left_f[c]
        rhs[i_j] -= c_right_f[c]
        sol = _tridiag_solve(m_lower, m_diag, m_upper, rhs)
        clip = max(clip, fv - float(sol.min()))
        M[j] = np.maximum(sol, fv)
    return M, clip


def hedge_reference(
    diff: DiffusionSpec,
    barrier: Barrier,
    payoff: opt.PayoffSpec,
    x_grid: np.ndarray,
    nt: int,
    base_point: float,
    t_max: float,
) -> dict:
    """M, its clip, Z, G, H, delta and F_grid of build_hedge, each step built afresh.

    M is march_reference's from the first node at or past the payoff's
    cap_time, where build_hedge's march starts.
    """
    x = np.asarray(x_grid, dtype=float)
    t = np.linspace(0.0, float(t_max), nt + 1)
    f_t = payoff.f(t)
    start = min(int(np.searchsorted(t, payoff.cap_time)), nt)
    M, clip = march_reference(diff, barrier, payoff, x, nt, t_max, start)

    inner = cumtrapz_reference(2.0 * M[0] / diff.sigma(x) ** 2, x)
    inner = inner - np.interp(base_point, x, inner)
    z = cumtrapz_reference(inner, x)
    z = z - np.interp(base_point, x, z)
    G = cumtrapz_reference(M, t) - z[None, :]
    H = z + np.trapezoid(f_t[:, None] - M, t, axis=0)
    delta = np.empty_like(G)
    sl = np.diff(G, axis=1) / np.diff(x)[None, :]
    delta[:, 1:-1] = 0.5 * (sl[:, :-1] + sl[:, 1:])
    delta[:, 0] = sl[:, 0]
    delta[:, -1] = sl[:, -1]
    return {"M": M, "clip": clip, "Z": z, "G": G, "H": H, "delta": delta,
            "F_grid": cumtrapz_reference(f_t, t)}
