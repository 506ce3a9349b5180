"""Finite-difference solver for the parabolic obstacle problem.

The stopped-diffusion potential u(x,t) = -E|x - X_{t ^ tau}| solves a
variational inequality: it starts at the potential of the start law,
decreases under the heat flow of the diffusion, never drops below the
obstacle psi = potential of the target law, and satisfies complementarity
(the parabolic operator vanishes wherever the obstacle is not active).
The contact set of the discrete solution carries the stopping barrier.

Discretization: implicit Euler (or Crank-Nicolson) in time on a grid whose
nodes are snapped to the atoms of the target law.  Each step is a
tridiagonal M-matrix linear complementarity problem, solved by a
primal-dual active-set iteration (Hintermueller, Ito & Kunisch 2003;
policy iteration in Reisinger & Witte 2012): one tridiagonal solve with the
contact rows pinned to the obstacle per iteration, warm-started from the
previous step's contact set, so most steps take a single solve and end at
round-off.  Dirichlet rows pin the solution to the obstacle at the
truncated edges.

For the geometric case sigma(x) = x the problem is solved in log-price
coordinates, where the operator becomes -1/2 d2/dy2 + 1/2 d/dy with
constant coefficients; the exponential-weight parameter lambda of the
underlying function-space formulation enters the assembled drift and
cancels, so solutions do not depend on it (they must not: the weight only
controls behaviour at infinity, which domain truncation handles).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import measures
from .measures import Measure

__all__ = [
    "DiffusionSpec",
    "SolverConfig",
    "DiscreteProblem",
    "ObstacleSolution",
    "GridFunction",
    "SolverError",
    "brownian",
    "geometric_brownian",
    "assemble",
    "solve",
    "optimal_stopping_oracle",
    "save_solution",
]


class SolverError(RuntimeError):
    """Solver failure; carries the worst residual and its node when known."""

    def __init__(self, msg, residual=None, node=None):
        super().__init__(msg)
        self.residual = residual
        self.node = node


@dataclass(frozen=True)
class DiffusionSpec:
    """Diffusion coefficient of dX = sigma(X) dW.

    sigma and its closed-form derivative are callables on arrays.  bounds
    report the ellipticity window (lo, hi) on the truncated domain; for the
    geometric flag the solver works in log coordinates instead, where no
    lower ellipticity bound on sigma itself is needed.
    """

    sigma: Callable[[np.ndarray], np.ndarray]
    dsigma: Callable[[np.ndarray], np.ndarray]
    lipschitz: float = 1.0
    bounds: tuple[float, float] = (1e-8, 1e8)
    geometric: bool = False

    def validate_on(self, x: np.ndarray) -> None:
        if self.geometric:
            return
        s = self.sigma(x)
        lo, hi = self.bounds
        if np.any(s < lo) or np.any(s > hi):
            raise SolverError("sigma violates its ellipticity bounds on the domain")
        if np.any(s <= 0):
            raise SolverError("sigma must be positive on the domain")


def brownian() -> DiffusionSpec:
    return DiffusionSpec(
        sigma=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        dsigma=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lipschitz=0.0,
        bounds=(0.5, 2.0),
    )


def geometric_brownian() -> DiffusionSpec:
    return DiffusionSpec(
        sigma=lambda x: np.asarray(x, dtype=float),
        dsigma=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        lipschitz=1.0,
        geometric=True,
    )


@dataclass(frozen=True)
class SolverConfig:
    x_lo: float
    x_hi: float
    nx: int
    horizon: float
    nt: int
    lam: float = 1.0
    scheme: str = "implicit-projected"   # or "crank-nicolson-projected"
    lcp_tol: float = 1e-8
    tail_mass_tol: float = 1e-7

    def __post_init__(self):
        if self.nx < 3 or self.nt < 1:
            raise ValueError("nx >= 3 and nt >= 1 required")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.lcp_tol <= 0:
            raise ValueError("lcp tolerance must be positive")
        if not (self.x_lo < self.x_hi) or self.horizon <= 0:
            raise ValueError("bad domain")
        if self.scheme not in ("implicit-projected", "crank-nicolson-projected"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class DiscreteProblem:
    """Assembled discrete obstacle problem (operator rows, data, grids)."""

    x: np.ndarray            # solver grid (log-price in the geometric case)
    t: np.ndarray
    psi: np.ndarray          # obstacle
    v0: np.ndarray           # initial values (start-law potential)
    lower: np.ndarray        # tridiagonal rows of the spatial operator A
    diag: np.ndarray
    upper: np.ndarray
    cfg: SolverConfig
    diff: DiffusionSpec
    nu: Measure
    mu: Measure

    @property
    def price_x(self) -> np.ndarray:
        """Grid in state (price) coordinates."""
        return np.exp(self.x) if self.diff.geometric else self.x


@dataclass(frozen=True)
class ObstacleSolution:
    x: np.ndarray
    t: np.ndarray
    v: np.ndarray            # (nt+1, nx)
    psi: np.ndarray
    residuals: np.ndarray    # (nt+1, nx) complementarity residuals, float32
    cfg: SolverConfig
    diff: DiffusionSpec
    nu: Measure
    mu: Measure
    iterations: int = 0      # tridiagonal solves over all steps

    @property
    def price_x(self) -> np.ndarray:
        return np.exp(self.x) if self.diff.geometric else self.x

    @property
    def max_residual(self) -> float:
        # two reductions instead of a full-size np.abs temporary
        res = self.residuals
        return float(max(res.max(), -res.min()))

    def scheme_tolerance(self) -> float:
        """Nominal accuracy budget of the marching scheme (sup norm).

        First order in dt, second order in h, measured against closed-form
        cases; the constants are deliberately generous.
        """
        h = float(np.max(np.diff(self.x)))
        dt = float(self.t[1] - self.t[0])
        if self.diff.geometric:
            a_max = 0.5
        else:
            a_max = float(np.max(self.diff.sigma(self.x) ** 2)) / 2.0
        return 2.0 * dt * a_max + 2.0 * h * h * a_max + 10.0 * self.cfg.lcp_tol


@dataclass(frozen=True)
class GridFunction:
    """Values on an (x, t) product grid."""

    x: np.ndarray
    t: np.ndarray
    values: np.ndarray       # (nt, nx)


# -- grid and operator assembly ----------------------------------------------

def _snap_grid(lo: float, hi: float, nx: int, snap_points: np.ndarray) -> np.ndarray:
    """Uniform grid with the nearest nodes moved onto the snap points.

    Snapping keeps obstacle kinks (atoms of the target law) on nodes so the
    contact set is not smeared across cells.  Endpoints are never moved.
    """
    grid = np.linspace(lo, hi, nx)
    pts = np.asarray(snap_points, dtype=float)
    pts = pts[(pts > lo) & (pts < hi)]
    if len(pts) == 0:
        return grid
    h = (hi - lo) / (nx - 1)
    for p in np.sort(pts):
        k = int(round((p - lo) / h))
        if 0 < k < nx - 1:
            grid[k] = p
    grid = np.unique(grid)
    if np.any(np.diff(grid) <= 1e-14 * max(1.0, hi - lo)):
        grid = grid[np.concatenate(([True], np.diff(grid) > 1e-14 * max(1.0, hi - lo)))]
    return grid


def _operator_rows(x, a, c):
    """Tridiagonal rows of A u = -a u_xx + c u_x on a non-uniform grid."""
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    ai = a[1:-1]
    ci = c[1:-1]
    lower = np.zeros_like(x)
    diag = np.zeros_like(x)
    upper = np.zeros_like(x)
    lower[1:-1] = -(2.0 * ai + ci * hp) / (hm * (hm + hp))
    upper[1:-1] = -(2.0 * ai - ci * hm) / (hp * (hm + hp))
    diag[1:-1] = (2.0 * ai + ci * (hp - hm)) / (hm * hp)
    # Dirichlet rows at the edges
    diag[0] = diag[-1] = 1.0
    if np.any(lower[1:-1] > 0) or np.any(upper[1:-1] > 0):
        raise SolverError("operator stencil not monotone; refine the grid")
    return lower, diag, upper


def assemble(diff: DiffusionSpec, nu: Measure, mu: Measure, cfg: SolverConfig) -> DiscreteProblem:
    """Build the discrete obstacle problem for the pair (nu, mu).

    Refuses to assemble when the ordered-potential condition fails or when
    the domain truncates more than tail_mass_tol of either law.  In the
    geometric case the state variable is log price, both supports must lie
    in (0, inf), and lambda must exceed 1/2.
    """
    report = measures.check_embeddable(nu, mu)
    if not report.passed:
        raise SolverError(
            f"nu cannot be embedded into mu: max potential violation "
            f"{report.max_violation:.3e} at x={report.argmax:.6g}, "
            f"mean gap {report.mean_gap:.3e}"
        )
    if diff.geometric:
        if cfg.lam <= 0.5:
            raise ValueError("geometric case requires lambda > 1/2")
        for m, name in ((nu, "nu"), (mu, "mu")):
            if m.support[0] < 0 or float(m.cdf(np.array([0.0]))[0]) > 0:
                raise SolverError(f"geometric case requires supp({name}) in (0, inf)")
        if cfg.x_lo <= 0:
            raise ValueError("geometric case requires a positive price domain")

    # tail mass outside the truncated domain must be negligible
    for m, name in ((nu, "nu"), (mu, "mu")):
        tail = 1.0 - float(m.cdf(np.array([cfg.x_hi]))[0] - m.cdf(np.array([cfg.x_lo - 1e-300]))[0])
        if tail > cfg.tail_mass_tol:
            raise SolverError(
                f"domain [{cfg.x_lo}, {cfg.x_hi}] truncates mass {tail:.3e} of {name}; "
                "enlarge the domain"
            )

    snap = []
    for m in (mu, nu):
        if m.kind == "atoms" and len(m.locations) <= cfg.nx // 4:
            snap.append(m.locations)
    snap = np.concatenate(snap) if snap else np.array([])

    if diff.geometric:
        grid = _snap_grid(math.log(cfg.x_lo), math.log(cfg.x_hi), cfg.nx,
                          np.log(snap) if len(snap) else snap)
        state = np.exp(grid)
        a = np.full_like(grid, 0.5)
        # paper-form coefficients: b = 1/2 - lam*sgn, weight term +2*lam*a*sgn
        sg = np.sign(grid)
        b = 0.5 - cfg.lam * sg
        c = b + 2.0 * cfg.lam * a * sg   # = 1/2 after cancellation
    else:
        grid = _snap_grid(cfg.x_lo, cfg.x_hi, cfg.nx, snap)
        state = grid
        diff.validate_on(grid)
        s = diff.sigma(grid)
        ds = diff.dsigma(grid)
        a = 0.5 * s * s
        sg = np.sign(grid)
        b = s * ds - cfg.lam * s * s * sg
        c = b + 2.0 * cfg.lam * a * sg - s * ds  # = 0 after cancellation

    psi = measures.potential(mu, state).values
    v0 = measures.potential(nu, state).values
    # the initial data must dominate the obstacle; clip fp-level violations
    if np.any(v0 - psi < -1e-9 * max(1.0, float(np.max(np.abs(psi))))):
        raise SolverError("initial potential drops below the obstacle on the grid")
    v0 = np.maximum(v0, psi)

    lower, diag, upper = _operator_rows(grid, a, c)
    t = np.linspace(0.0, cfg.horizon, cfg.nt + 1)
    return DiscreteProblem(
        x=grid, t=t, psi=psi, v0=v0,
        lower=lower, diag=diag, upper=upper,
        cfg=cfg, diff=diff, nu=nu, mu=mu,
    )


# -- LCP kernels --------------------------------------------------------------

def _lcp_residual(lower, diag, upper, rhs, psi, v, scale):
    mv = diag * v
    mv[1:] += lower[1:] * v[:-1]
    mv[:-1] += upper[:-1] * v[1:]
    op = (mv - rhs) / scale
    return np.minimum(v - psi, op)


def _active_set_lcp(lower, diag, upper, rhs, psi, active, tol, scale):
    """Primal-dual active-set solve; returns (v, active, solves, residual).

    Each iteration pins the rows of `active` to psi, solves the tridiagonal
    system once, and moves to the set of active nodes whose multiplier
    M v - rhs is nonnegative plus inactive nodes where v < psi.  For an
    M-matrix this terminates from any starting set.  The loop ends when the
    set repeats or when the residual reaches round-off (1e-3 * tol): on
    flat obstacles round-off alone flips nodes in and out of the set, so a
    repeat may never come.  At most len(rhs) solves.
    """
    n = len(rhs)
    for solves in range(1, n + 1):
        # all four arguments are fresh temporaries, so LAPACK may overwrite them
        *_, v, info = dgtsv(np.where(active[1:], 0.0, lower[1:]),
                            np.where(active, 1.0, diag),
                            np.where(active[:-1], 0.0, upper[:-1]),
                            np.where(active, psi, rhs), 1, 1, 1, 1)
        if info != 0:
            raise SolverError(f"singular LCP system (LAPACK info {info})")
        np.copyto(v, psi, where=active)
        r = _lcp_residual(lower, diag, upper, rhs, psi, v, scale)
        r[0] = r[-1] = 0.0
        worst = max(r.max(), -r.min())
        if worst <= 1e-3 * tol:
            break
        # on active rows v == psi, so r == 0 exactly when the multiplier is >= 0
        new = np.where(active, r == 0.0, v < psi)
        new[0] = new[-1] = False
        if np.array_equal(new, active):
            break
        active = new
    if worst > tol:
        k = int(np.argmax(np.abs(r)))
        raise SolverError(
            f"LCP iteration did not converge: residual {r[k]:.3e} at node {k}",
            residual=float(r[k]), node=k,
        )
    return v, active, solves, r


def solve(problem: DiscreteProblem) -> ObstacleSolution:
    """Time-march the projected scheme and return the full solution surface.

    Each step solves min(v - psi, M v - rhs) = 0 componentwise, to
    round-off as a rule and never worse than the configured relative
    tolerance (else SolverError); the per-node residuals of every step are
    retained so complementarity can be audited after the fact.
    """
    cfg = problem.cfg
    x, t, psi = problem.x, problem.t, problem.psi
    n = len(x)
    dt = t[1] - t[0]
    theta = 1.0 if cfg.scheme == "implicit-projected" else 0.5

    m_lower = dt * theta * problem.lower
    m_diag = 1.0 + dt * theta * problem.diag
    m_upper = dt * theta * problem.upper
    # Dirichlet rows stay pure identity
    m_lower[0] = m_lower[-1] = 0.0
    m_diag[0] = m_diag[-1] = 1.0
    m_upper[0] = m_upper[-1] = 0.0

    v = np.empty((cfg.nt + 1, n))
    # the per-node audit is kept in single precision: half the memory of the
    # surface; each step is checked against lcp_tol in double precision
    res = np.zeros((cfg.nt + 1, n), dtype=np.float32)
    v[0] = problem.v0
    cur = problem.v0.copy()
    scale = max(1.0, float(np.max(np.abs(problem.v0))))
    # warm start: the contact set of the initial data
    active = problem.v0 <= psi
    active[0] = active[-1] = False
    total_solves = 0
    for j in range(1, cfg.nt + 1):
        if theta == 1.0:
            rhs = cur.copy()
        else:
            av = problem.diag * cur
            av[1:] += problem.lower[1:] * cur[:-1]
            av[:-1] += problem.upper[:-1] * cur[1:]
            rhs = cur - dt * (1.0 - theta) * av
        rhs[0] = psi[0]
        rhs[-1] = psi[-1]
        cur, active, solves, res[j] = _active_set_lcp(
            m_lower, m_diag, m_upper, rhs, psi, active, cfg.lcp_tol, scale,
        )
        total_solves += solves
        v[j] = cur
    return ObstacleSolution(
        x=x, t=t, v=v, psi=psi, residuals=res,
        cfg=cfg, diff=problem.diff, nu=problem.nu, mu=problem.mu,
        iterations=total_solves,
    )


# -- independent cross-check: optimal stopping by dynamic programming ---------

def optimal_stopping_oracle(
    diff: DiffusionSpec,
    nu: Measure,
    mu: Measure,
    cfg: SolverConfig,
    cfl: float = 0.8,
) -> GridFunction:
    """Value surface from backward dynamic programming on a trinomial tree.

    The same surface as `solve` arises as the value of stopping for the
    obstacle reward before the horizon versus the start-law potential at
    the horizon; with time-homogeneous rewards the whole (x, t) surface
    comes out of a single recursion over the number of remaining steps.
    Used only as an independent cross-check of the PDE path.
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

    if diff.geometric:
        sig2 = np.ones_like(grid)   # unit diffusion, drift -1/2 in log space
        drift = -0.5
    else:
        sig2 = diff.sigma(grid) ** 2
        drift = 0.0
    dt_stab = cfl * h * h / float(np.max(sig2))
    n_steps = max(int(math.ceil(cfg.horizon / dt_stab)), cfg.nt)
    dt = cfg.horizon / n_steps

    p_up = sig2 * dt / (2 * h * h) + drift * dt / (2 * h)
    p_dn = sig2 * dt / (2 * h * h) - drift * dt / (2 * h)
    if np.any(p_up < 0) or np.any(p_dn < 0) or np.any(p_up + p_dn > 1.0):
        raise SolverError("trinomial probabilities out of range; refine the grid")

    psi = measures.potential(mu, state).values
    value = measures.potential(nu, state).values.copy()
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


# -- artifacts ----------------------------------------------------------------

def save_solution(sol: ObstacleSolution, prefix: str) -> None:
    """CSV matrix of v plus JSON metadata (grid, config, residual summary)."""
    header = "t\\x," + ",".join(f"{xi:.12g}" for xi in sol.x)
    rows = np.column_stack([sol.t, sol.v])
    np.savetxt(prefix + "_v.csv", rows, delimiter=",", header=header, comments="")
    meta = {
        "grid": {
            "x_lo": float(sol.x[0]), "x_hi": float(sol.x[-1]), "nx": len(sol.x),
            "t_hi": float(sol.t[-1]), "nt": len(sol.t) - 1,
            "geometric": sol.diff.geometric,
        },
        "config": {
            "scheme": sol.cfg.scheme, "lcp_tol": sol.cfg.lcp_tol,
            "lambda": sol.cfg.lam,
        },
        "residual_summary": {
            "max_abs": sol.max_residual,
            "lcp_iterations": sol.iterations,
        },
    }
    with open(prefix + "_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
