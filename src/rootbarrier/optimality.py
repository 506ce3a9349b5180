"""Hedge functions certifying that barrier stopping minimizes E F(tau).

For a convex increasing payoff F of the stopping time with bounded right
derivative f, the construction tabulates

  M(x,t)  expected f(tau) for the diffusion restarted at (x,t);
  Z(x)    convex second antiderivative of 2 M(.,0)/sigma^2;
  G(x,t)  = int_0^t M(x,s) ds - Z(x), a submartingale along the diffusion
           and a martingale up to the stopping time;
  H(x)    = int_0^{R(x)} (f - M)(x,s) ds + Z(x), a static payoff,

with the pathwise inequality G(x,t) + H(x) <= F(t) everywhere and equality
on the barrier.  Taking expectations at any competing stopping time that
embeds the same law gives E F(tau_barrier) <= E F(tau): the optimality
certificate, and in discounted-price coordinates the subhedge.

All t-integrals share one trapezoid rule, so the discrete G + H - F equals
minus the remaining integral of (M - f) and the inequality holds exactly
at the nodes once M >= f is enforced (a property the continuum M has; the
numerical M is clipped onto it, and HedgeFunctions.M_clip says by how
much).  M is tabulated up to the latest finite barrier time or the time
f becomes constant, whichever is later; beyond that slab M = f
identically and G extends analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import simulate as sim
from .barrier import Barrier, GridIndex
from .measures import Measure
from .obstacle import DiffusionSpec, GridFunction, SolverError, _stencil, _tridiag_solve

__all__ = [
    "PayoffSpec",
    "HedgeFunctions",
    "variance_call",
    "variance_swap",
    "power_payoff",
    "custom_payoff",
    "compute_M",
    "build_hedge",
    "verify_pathwise",
    "verify_martingale",
    "optimality_gap",
]


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of y along axis 0 over the nodes x, from 0.

    The terms d (y[1:] + y[:-1]) / 2 are formed in the output and summed in
    place: a vector by np.cumsum, a surface row by row, since a cumsum down
    the columns of a C-ordered surface strides through memory.  Both add in
    np.cumsum's order, so the bits are its own.
    """
    out = np.zeros(y.shape)
    s = out[1:]
    np.add(y[1:], y[:-1], out=s)
    s *= np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    s /= 2.0
    if y.ndim == 1:
        np.cumsum(s, out=s)
    else:
        for j in range(2, len(out)):
            np.add(out[j - 1], out[j], out=out[j])
    return out


@dataclass(frozen=True)
class PayoffSpec:
    """Convex increasing payoff F of realized variance with F(0) = 0.

    f is the right derivative (bounded by f_bound and constant beyond
    cap_time); payoffs with unbounded derivative must be capped before
    entering the construction, which truncates the certificate exactly the
    way the optimality proof does.
    """

    F: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    kind: str
    f_bound: float
    cap_time: float
    label: str = ""

    def validate(self, t_max: float) -> None:
        """Check F(0) = 0, f non-decreasing in [0, f_bound] and constant from cap_time, and F = int f.

        The first four hold to 1e-8; the integral to 1e-4 of max |F| plus
        the half cell that derivative jumps cost the trapezoid rule.
        """
        tol = 1e-8
        ts = np.linspace(0.0, max(t_max, self.cap_time if np.isfinite(self.cap_time) else t_max), 2001)
        fv = self.f(ts)
        if abs(float(self.F(np.array([0.0]))[0])) > tol:
            raise ValueError("payoff must satisfy F(0) = 0")
        if np.any(np.diff(fv) < -tol):
            raise ValueError("payoff derivative must be non-decreasing")
        if np.any(fv < -tol) or np.any(fv > self.f_bound + tol):
            raise ValueError("payoff derivative out of [0, f_bound]")
        flat = fv[ts >= self.cap_time]
        if len(flat) and np.ptp(flat) > tol:
            raise ValueError(f"payoff derivative moves after cap_time {self.cap_time:.6g}")
        quad = _cumtrapz(fv, ts)
        gap = np.max(np.abs(quad - self.F(ts)))
        scale = max(1.0, float(np.max(np.abs(self.F(ts)))))
        # derivative jumps cost half a cell under the trapezoid rule
        jump_slack = 0.5 * (ts[1] - ts[0]) * float(np.max(np.abs(np.diff(fv))) if len(fv) > 1 else 0.0)
        if gap > 1e-4 * scale + jump_slack:
            raise ValueError(f"F and f are inconsistent: integral gap {gap:.3e}")


def variance_call(strike: float) -> PayoffSpec:
    k = float(strike)
    return PayoffSpec(
        F=lambda t: np.maximum(np.asarray(t, dtype=float) - k, 0.0),
        f=lambda t: (np.asarray(t, dtype=float) >= k).astype(float),
        kind="variance-call",
        f_bound=1.0,
        cap_time=k,
        label=f"variance call K={k}",
    )


def variance_swap() -> PayoffSpec:
    return PayoffSpec(
        F=lambda t: np.asarray(t, dtype=float),
        f=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        kind="variance-swap",
        f_bound=1.0,
        cap_time=0.0,
        label="variance swap",
    )


def power_payoff(p: float, cap: float) -> PayoffSpec:
    """F(t) = t^p / p with derivative f = t^{p-1} capped at the value cap."""
    if p <= 1:
        raise ValueError("power payoff needs p > 1")
    t_cap = cap ** (1.0 / (p - 1.0))

    def f(t):
        t = np.asarray(t, dtype=float)
        return np.minimum(np.maximum(t, 0.0) ** (p - 1.0), cap)

    def F(t):
        t = np.asarray(t, dtype=float)
        below = np.minimum(t, t_cap)
        return below ** p / p + cap * np.maximum(t - t_cap, 0.0)

    return PayoffSpec(F=F, f=f, kind=f"power({p})", f_bound=float(cap),
                      cap_time=t_cap, label=f"power payoff p={p}, cap {cap}")


def custom_payoff(F, f, f_bound, cap_time=np.inf, label="custom") -> PayoffSpec:
    return PayoffSpec(F=F, f=f, kind="custom-table", f_bound=float(f_bound),
                      cap_time=float(cap_time), label=label)


# -- hedge function container -------------------------------------------------

@dataclass(frozen=True)
class HedgeFunctions:
    """The hedge functions on M's grid and their lookups at any (x, t).

    build_hedge fills M, Z, H and F_grid.  G and its slope delta are built
    on first read and kept: the bound reads only G(x, 0) = -Z(x), and
    delta is read only where a subhedge is marked along paths.
    """

    x: np.ndarray
    t: np.ndarray
    M: np.ndarray            # (nt, nx)
    Z: np.ndarray            # (nx,)
    H: np.ndarray            # (nx,)
    F_grid: np.ndarray       # shared trapezoid cumulative of f
    base_point: float
    payoff: PayoffSpec
    barrier: Barrier
    M_clip: float            # largest amount the clip M >= f raised M by

    def __post_init__(self):
        for name, value in (("_x_index", GridIndex(self.x)), ("_t_index", GridIndex(self.t)),
                            # per searchsorted result: the cell to interpolate in, the lower row to blend from
                            ("_cell", np.clip(np.arange(len(self.x) + 1) - 1, 0, len(self.x) - 2)),
                            ("_row", np.clip(np.arange(len(self.t) + 1), 1, len(self.t) - 1) - 1),
                            ("_dx", np.diff(self.x)), ("_dt", np.diff(self.t))):
            object.__setattr__(self, name, value)

    @cached_property
    def G(self) -> np.ndarray:
        """int_0^t M ds - Z(x), (nt, nx), formed in the array of its running sums."""
        G = _cumtrapz(self.M, self.t)
        G -= self.Z
        return G

    @cached_property
    def delta(self) -> np.ndarray:
        """dG/dx, the midpoint of the one-sided slopes, formed a block of rows at a time.

        G is not built: each block of its rows is formed from the running
        row of int_0^t M ds, by _cumtrapz's arithmetic, so the slopes have
        the bits of G's.
        """
        M, rows = self.M, 64        # the scratch of 64 rows, not of the surface
        dt, delta = self._dt, np.empty_like(M)
        run, block = np.zeros(M.shape[1]), np.empty((rows, M.shape[1]))
        for a in range(0, len(M), rows):
            g, d = block[:len(M) - a], delta[a:a + rows]
            for j in range(a, a + len(d)):
                if j:
                    term = np.add(M[j], M[j - 1])
                    term *= dt[j - 1]
                    term /= 2.0
                    run = term if j == 1 else np.add(run, term, out=run)
                np.subtract(run, self.Z, out=g[j - a])
            sl = np.subtract(g[:, 1:], g[:, :-1])
            sl /= self._dx
            np.add(sl[:, :-1], sl[:, 1:], out=d[:, 1:-1])
            d[:, 1:-1] *= 0.5
            d[:, 0], d[:, -1] = sl[:, 0], sl[:, -1]
        return delta

    @property
    def T_M(self) -> float:
        return float(self.t[-1])

    def _surface_at(self, surf: np.ndarray, x: np.ndarray, t=None) -> np.ndarray:
        """Bilinear lookup of surf at (x, t) per point; a column in x when t is None.

        t is clamped to [0, T_M] and may be one time per point.  Rows are
        blended in t first and the blend is interpolated in x, with the
        linear continuation of the end cells off the tabulated x range.
        The four corners are gathered at one flat index k, the lower-left
        one, from views of the flattened surface shifted by 0, 1, nx and
        nx + 1 elements.
        """
        x = np.asarray(x, dtype=float)
        i = self._x_index(x)
        c = self._cell.take(i)
        flat, n = surf.ravel(), len(self.x)
        if t is None:
            lo, hi = flat.take(c), flat[1:].take(c)
        else:
            tt = np.minimum(np.maximum(t, 0.0), self.T_M)
            row = self._row.take(self._t_index(tt))
            w = tt - self.t.take(row)
            w /= self._dt.take(row)
            k = row * n + c
            u = 1.0 - w
            lo, hi = flat.take(k), flat[1:].take(k)
            lo *= u
            hi *= u
            lo += w * flat[n:].take(k)
            hi += w * flat[n + 1:].take(k)
        slope = hi - lo
        slope /= self._dx.take(c)
        # off the range the end cell's line continues; past the top it starts at the last node
        top = i == len(self.x)
        if top.any():
            c, lo = c + top, np.where(top, hi, lo)
        out = x - self.x.take(c)
        out *= slope
        out += lo
        return out

    def H_at(self, x: np.ndarray) -> np.ndarray:
        # beyond the tabulated range the barrier is immediate and H = Z,
        # whose continuation is linear (M(.,0) = f(0) there)
        return self._surface_at(self.H, x)

    def Z_at(self, x: np.ndarray) -> np.ndarray:
        return self._surface_at(self.Z, x)

    def G_at(self, x: np.ndarray, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        g = self._surface_at(self.G, x, t)
        # past the slab every point is absorbed: M = f, G grows by F
        past = self.F_grid[-1] + self.payoff.F(t) - self.payoff.F(np.array([self.T_M]))[0]
        return np.where(t > self.T_M, g + past - self.F_grid[-1], g)

    def M_at(self, x: np.ndarray, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t > self.T_M, self.payoff.f(t), self._surface_at(self.M, x, t))

    def delta_at(self, x: np.ndarray, t) -> np.ndarray:
        return self._surface_at(self.delta, x, t)


# -- construction ---------------------------------------------------------------

def compute_M(
    diff: DiffusionSpec,
    barrier: Barrier,
    payoff: PayoffSpec,
    x_grid: np.ndarray,
    nt: int,
    t_max: Optional[float] = None,
) -> GridFunction:
    """Expected stopped payoff derivative by the backward heat equation.

    M solves dM/dt + (sigma^2/2) M_xx = 0 in the continuation region with
    M(x,t) = f(t) on the barrier and on the terminal slab.  The horizon
    must dominate both the last finite barrier time and the time at which
    f becomes constant; otherwise the free region touches the terminal
    slab and the tabulation cannot close (raised with guidance).

    Inside each time level the Dirichlet condition is imposed at the exact
    level crossing of the barrier (irregular stencils), which keeps the
    scheme second order in space; kinks of the barrier (support edges,
    atoms) should be grid nodes for full accuracy, which the solver grids
    arrange by construction.  Free edge nodes (a barrier positive at the
    truncated boundary) take zero-slope rows, exact when the barrier
    flattens in the tails.

    Each step is implicit Euler on the obstacle's operator: the rows of
    I + dt A come from the same three-point stencil formula as the
    obstacle problem's (`obstacle._stencil`) and go through the same
    LAPACK gtsv solve.  The regular rows are built once, and so are the
    rows of every step's free nodes next to a crossing, whose spacing to
    that neighbour is cut back to the crossing (found per node by a
    binary search of the time grid).  Going back in time the pinned set
    {t >= R} only shrinks, so the march keeps one set of rows with the
    pinned ones written in and each step restores the regular rows of the
    nodes it frees.  A step copies those rows, writes in its crossing
    rows, if it has any, and solves.  The solution is clipped onto
    M >= f; `clip` on the result is the largest amount that clip raised M
    by.

    The march starts at the payoff's cap.  M(x, t) is E f(tau) for tau >= t,
    so from the first node t[j0] >= cap_time, where f is a constant c, M = c
    everywhere; it is also the exact solution of the discrete rows there
    (I + dt A maps a constant to itself, the crossing and edge rows take
    f = c).  Rows j0..nt are f(t_j) exactly, the regular rows of every
    node those steps would have freed are restored, and the march runs
    j0 - 1 down to 0: none for a swap (cap 0), all nt when the cap is at
    or past the horizon.  The payoff is first checked by
    PayoffSpec.validate up to the horizon, which refuses an f that moves
    after cap_time.  A payoff it refuses, a NaN or inf in the march
    (sigma, the barrier or f) and nt < 1 raise ValueError.
    """
    if nt < 1:
        raise ValueError(f"nt must be at least 1 time step, got {nt!r}")
    x = np.asarray(x_grid, dtype=float)
    r = barrier.value_at(x)
    r_finite = r[np.isfinite(r)]
    r_max = float(np.max(r_finite)) if len(r_finite) else 0.0
    cap = payoff.cap_time
    if t_max is None:
        if not np.isfinite(cap) and np.any(np.isinf(r)):
            raise SolverError(
                "barrier never closes and f never flattens: cap the payoff "
                "derivative or supply a finite horizon t_max"
            )
        t_max = max(r_max, cap if np.isfinite(cap) else 0.0, 1e-6)
    if np.any(np.isinf(r)) and (not np.isfinite(cap) or cap > t_max + 1e-12):
        raise SolverError(
            f"free region still open at the terminal slab t={t_max:.6g}: "
            "increase the horizon or cap the payoff derivative earlier"
        )
    if t_max < r_max - 1e-12:
        raise SolverError(
            f"horizon {t_max:.6g} is below the last barrier time {r_max:.6g}: "
            "increase the horizon"
        )

    payoff.validate(float(t_max))

    t = np.linspace(0.0, float(t_max), nt + 1)
    dt = t[1] - t[0]
    f_t = payoff.f(t)
    a = 0.5 * np.broadcast_to(diff.sigma(x), x.shape) ** 2
    n = len(x)

    # regular rows of I + dt A, A = -a d2/dx2; an edge node is pinned
    # (R <= t) or free, and a free edge is a zero-slope row
    h = np.diff(x)
    lower, diag, upper = np.zeros(n), np.ones(n), np.zeros(n)
    lo, di, up = _stencil(h[:-1], h[1:], a[1:-1])
    lower[1:-1], diag[1:-1], upper[1:-1] = dt * lo, 1.0 + dt * di, dt * up
    upper[0] = lower[-1] = -1.0

    # crossing rows of every step, before the march: interior node i is a
    # left crossing at the steps with R[i-1] <= t_j < R[i] and a right one
    # at those with R[i+1] <= t_j < R[i]; R crosses t_j in that cell, at the
    # root of R's linear interpolant, and the stencil reaches only to the
    # crossing, where M = f(t_j) is known
    first = np.searchsorted(t[:-1], r)          # node i is pinned from step first[i]
    k_left = _steps_between(first[:-2], first[1:-1], n)
    k_right = _steps_between(first[2:], first[1:-1], n)
    keys = np.union1d(k_left, k_right)          # j n + i, by step then node
    step, i = np.divmod(keys, n)
    left, right = np.isin(keys, k_left), np.isin(keys, k_right)
    hm, hp = h[i - 1], h[i]
    hm[left] = _cut(hm[left], r[i[left]], r[i[left] - 1], t[step[left]])
    hp[right] = _cut(hp[right], r[i[right]], r[i[right] + 1], t[step[right]])
    lo, di, up = _stencil(hm, hp, a[i])
    lo, up, f_c = dt * lo, dt * up, f_t[step]
    c_lower, c_diag, c_upper = np.where(left, 0.0, lo), 1.0 + dt * di, np.where(right, 0.0, up)
    # the known boundary value enters the right-hand side
    c_left_f, c_right_f = np.where(left, lo * f_c, 0.0), np.where(right, up * f_c, 0.0)
    rows = np.searchsorted(step, np.arange(nt + 1))

    # every row starts pinned; step j frees the nodes with first[i] == j + 1,
    # order[freed[j + 1]:freed[j + 2]], and restores their regular rows
    pinned, b_lower, b_diag, b_upper = np.ones(n, dtype=bool), np.zeros(n), np.ones(n), np.zeros(n)
    order = np.argsort(first, kind="stable")
    freed = np.searchsorted(first, np.arange(nt + 2), sorter=order)

    # rows j0.. are f, a constant; the march starts below them with the
    # pinned set that steps nt - 1 .. j0 would have left
    j0 = min(int(np.searchsorted(t, cap)), nt)
    M = np.empty((nt + 1, n))
    M[j0:] = f_t[j0:, None]
    k = order[freed[j0]:]
    pinned[k] = False
    b_lower[k], b_diag[k], b_upper[k] = lower[k], diag[k], upper[k]
    clip = 0.0
    for j in range(j0 - 1, -1, -1):
        fv = f_t[j]
        k = order[freed[j + 1]:freed[j + 2]]
        if len(k):
            pinned[k] = False
            b_lower[k], b_diag[k], b_upper[k] = lower[k], diag[k], upper[k]
        m_lower, m_diag, m_upper = b_lower.copy(), b_diag.copy(), b_upper.copy()
        rhs = np.where(pinned, fv, M[j + 1])
        rhs[0], rhs[-1] = (fv if pinned[0] else 0.0), (fv if pinned[-1] else 0.0)
        if rows[j] < rows[j + 1]:
            c = slice(rows[j], rows[j + 1])
            i_j = i[c]
            m_lower[i_j], m_diag[i_j], m_upper[i_j] = c_lower[c], c_diag[c], c_upper[c]
            rhs[i_j] -= c_left_f[c]
            rhs[i_j] -= c_right_f[c]
        sol = _tridiag_solve(m_lower, m_diag, m_upper, rhs)
        clip = max(clip, fv - float(sol.min()))
        np.maximum(sol, fv, out=M[j])
    if not np.all(np.isfinite(M)):
        raise ValueError("M is not finite: sigma, the barrier or f is NaN or inf "
                         "in the continuation region")
    return GridFunction(x=x, t=t, values=M, clip=clip)


def _steps_between(first, stop, n):
    """Keys j n + i for every interior node i = k + 1 and step first[k] <= j < stop[k]."""
    count = np.maximum(stop - first, 0)
    k = np.repeat(np.arange(len(count)), count)
    j = first[k] + np.arange(len(k)) - np.repeat(np.cumsum(count) - count, count)
    return j * n + k + 1


def _cut(h, r_free, r_pinned, level):
    """Spacing from a free node to where R, linear across the cell, crosses level."""
    frac = np.where(np.isfinite(r_free), (level - r_pinned) / np.maximum(r_free - r_pinned, 1e-300), 0.0)
    return np.maximum((1.0 - np.clip(frac, 0.0, 1.0)) * h, 1e-3 * h)


def build_hedge(
    diff: DiffusionSpec,
    barrier: Barrier,
    payoff: PayoffSpec,
    x_grid: np.ndarray,
    nt: int,
    base_point: float = 0.0,
    t_max: Optional[float] = None,
) -> HedgeFunctions:
    """M, then Z, H and the payoff quadrature on M's grid; G and delta on first read.

    compute_M checks the payoff by PayoffSpec.validate up to the tabulated
    horizon; a payoff it refuses raises ValueError.  Z(x) = 2 int int
    M(.,0)/sigma^2 by nested trapezoid quadrature, with value and slope
    zero at the base point; the anchoring interpolates the cumulative
    integrals, so a base between nodes still gets both zero there.  The
    same cumulative trapezoid rule is used for G, H and F, which makes the
    discrete identity G + H - F = -int_t^{T} (M - f) exact at the nodes:
    the pathwise inequality then holds by construction wherever the
    tabulated M dominates f, and vanishes identically on the contact set.
    H takes np.trapezoid's arithmetic a row at a time, with no scratch
    surface.  G and the trading delta are HedgeFunctions properties, built
    when first read.
    """
    m = compute_M(diff, barrier, payoff, x_grid, nt, t_max=t_max)
    M, x, t = m.values, m.x, m.t
    inner = _cumtrapz(2.0 * M[0] / diff.sigma(x) ** 2, x)
    inner = inner - np.interp(base_point, x, inner)
    z = _cumtrapz(inner, x)
    z = z - np.interp(base_point, x, z)

    f_t = payoff.f(t)
    F_grid = _cumtrapz(f_t, t)

    # H = z + np.trapezoid(f_t[:, None] - M, t, axis=0), by its arithmetic a
    # row at a time: pair sums of f - M times d / 2, added in np.sum's order down axis 0
    d, H, prev = np.diff(t), None, np.subtract(f_t[0], M[0])
    for j in range(1, len(t)):
        cur = np.subtract(f_t[j], M[j])
        term = np.add(cur, prev)
        term *= d[j - 1]
        term /= 2.0
        H = term if H is None else np.add(H, term, out=H)
        prev = cur
    H += z

    return HedgeFunctions(
        x=x, t=t, M=M, Z=z, H=H, F_grid=F_grid,
        base_point=base_point, payoff=payoff, barrier=barrier, M_clip=m.clip,
    )


# -- verification ---------------------------------------------------------------

def verify_pathwise(hf: HedgeFunctions) -> dict:
    """Grid check of G + H - F <= 0 and of equality on the contact set, to 1e-6.

    The gap is formed 64 rows at a time, so the check needs the scratch
    of a block, not of the surface.
    """
    tol, rows = 1e-6, 64
    r = hf.barrier.value_at(hf.x)
    highs, contact_highs = [], []
    for a in range(0, len(hf.t), rows):
        gap = np.add(hf.G[a:a + rows], hf.H)
        gap -= hf.F_grid[a:a + rows, None]
        highs.append(gap.max())
        on = np.where(hf.t[a:a + rows, None] >= r, gap, 0.0)
        contact_highs.append(np.abs(on, out=on).max())
    max_violation, contact_gap = float(np.max(highs)), float(np.max(contact_highs))
    return {
        "max_violation": max_violation,
        "max_contact_gap": contact_gap,
        "passed": bool(max_violation <= tol and contact_gap <= tol),
        "tolerance": tol,
    }


class _LadderSnapshots:
    """Path observer: free states, stopped states and stopped clocks at the ladder times.

    Every path keeps running; its stopping time is the one the stopping
    rule of simulate_stopped, simulate._TimeBarrier with the paths' sigma,
    would give it.
    """

    def __init__(self, barrier: Barrier, sigma, ladder: list):
        self.rule, self.ladder, self.snaps = sim._TimeBarrier(barrier, sigma), ladder, {}

    def start(self, x0, n_steps, dt):
        self.targets = {int(round(tv / dt)): tv for tv in self.ladder}
        self.tau = np.where(self.rule.start(x0), np.inf, 0.0)
        self.val = x0.copy()

    def __call__(self, s) -> None:
        x, t_k = s.x_new, s.k * s.dt
        hit = ~(self.tau <= t_k) & self.rule(s)
        self.tau[hit] = t_k
        self.val[hit] = x[hit]
        if s.k in self.targets:
            t_now = self.targets[s.k]
            self.snaps[t_now] = (x.copy(), np.where(self.tau <= t_now, self.val, x),
                                 np.minimum(self.tau, t_now))


def verify_martingale(
    hf: HedgeFunctions,
    diff: DiffusionSpec,
    nu: Measure,
    n: int = 100_000,
    seed: int = 0,
    ladder: Optional[list] = None,
    dt: float = 1e-3,
) -> dict:
    """Monte Carlo check of the martingale / submartingale structure of G.

    Along stopped paths the mean of G(X_{t ^ tau}, t ^ tau) must be flat
    across the time ladder (within 3 standard errors); along unstopped
    paths the mean of G(X_t, t) must be non-decreasing.
    """
    if ladder is None:
        ladder = [0.5, 1.0, 2.0, 4.0]
    ladder_obs = _LadderSnapshots(hf.barrier, diff.sigma, ladder)
    sim._walk(n, dt, seed, lambda dt: int(round(float(max(ladder)) / dt)), lambda g: nu.sample(n, g),
              sim._diffusion_move(diff), observers=[ladder_obs])
    rungs = []                  # per rung: mean and SE of G stopped, then of G free
    for tv in ladder:
        x_t, x_stop, t_stop = ladder_obs.snaps[tv]
        rungs.append(sim._mean_se(hf.G_at(x_stop, t_stop)) + sim._mean_se(hf.G_at(x_t, tv)))
    sm, se, fm, fe = np.array(rungs).T
    mart_ok = bool(np.all(np.abs(sm - sm[0]) <= 3.0 * (se + se[0] + 1e-15)))
    sub_ok = bool(np.all(np.diff(fm) >= -3.0 * (fe[1:] + fe[:-1])))
    return {
        "ladder": list(ladder),
        "stopped_means": sm.tolist(),
        "stopped_ses": se.tolist(),
        "unstopped_means": fm.tolist(),
        "unstopped_ses": fe.tolist(),
        "martingale_ok": mart_ok,
        "submartingale_ok": sub_ok,
        "passed": mart_ok and sub_ok,
    }


def optimality_gap(
    hf: HedgeFunctions,
    payoff: PayoffSpec,
    root_batch: sim.PathBatch,
    competitor_batch: sim.PathBatch,
    mu: Measure,
) -> dict:
    """Compare E F(tau) for the barrier time against a competitor embedding.

    The competitor batch must itself embed the target law (verified by a
    KS test at the 1% level, otherwise the comparison is refused); the report
    carries both payoff means, the hedging decomposition E[G + H] of the
    competitor, and the inequality margin in combined standard errors.
    """
    ks = sim.ks_statistic(competitor_batch.stopped_values, mu.cdf)
    crit = sim.ks_critical_value(competitor_batch.n, 0.01)
    if ks > crit:
        raise ValueError(
            f"competitor batch does not embed the target law: KS {ks:.4f} > {crit:.4f}"
        )
    e_root, se_root = sim._mean_se(payoff.F(root_batch.stop_times))
    e_comp, se_comp = sim._mean_se(payoff.F(competitor_batch.stop_times))
    vals = competitor_batch.stopped_values
    e_gh, se_gh = sim._mean_se(hf.G_at(vals, competitor_batch.stop_times) + hf.H_at(vals))
    margin = 3.0 * (se_root + se_comp)
    return {
        "EF_root": e_root,
        "EF_competitor": e_comp,
        "E_GH_competitor": e_gh,
        "se_root": se_root,
        "se_competitor": se_comp,
        "se_GH": se_gh,
        "ks": ks,
        "ks_critical": crit,
        "optimal": bool(e_root <= e_comp + margin),
        "chain_ok": bool(e_gh <= e_comp + 3.0 * (se_gh + se_comp)
                         and e_root <= e_gh + 3.0 * (se_root + se_gh)),
    }
