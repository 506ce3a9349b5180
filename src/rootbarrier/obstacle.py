"""Finite-difference solver for the parabolic obstacle problem.

The stopped-diffusion potential u(x,t) = -E|x - X_{t ^ tau}| solves a
variational inequality: it starts at the potential of the start law,
decreases under the heat flow of the diffusion, never drops below the
obstacle psi = potential of the target law, and satisfies complementarity
(the parabolic operator vanishes wherever the obstacle is not active).
The contact set of the discrete solution carries the stopping barrier.

Discretization: Crank-Nicolson in time, started with two implicit half
steps (Rannacher 1984) that damp the kinks of the start data, on a grid
whose nodes are snapped to the atoms of the target law.  Each step is a
tridiagonal M-matrix linear complementarity problem, solved by a
primal-dual active-set iteration (Hintermueller, Ito & Kunisch 2003;
policy iteration in Reisinger & Witte 2012): one tridiagonal solve with the
contact rows pinned to the obstacle per iteration, warm-started from the
previous step's contact set, so most steps take a single solve and end at
round-off.  Dirichlet rows pin the solution to the obstacle at the
truncated edges.  The march records, per node, the first step at which v
comes within CONTACT_REL * lcp_tol (relative) of the obstacle: that
contact set carries the barrier, so the surface is never scanned again.
The march ends once the closed nodes carry the target law: from then on
every path has stopped and the solution no longer changes.

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
    "save_solution",
]

# contact tolerance in units of lcp_tol: a node is in contact once
# v - psi <= CONTACT_REL * lcp_tol * max(1, |psi|)
CONTACT_REL = 10.0
# largest mass of either law that the truncated domain may leave outside
TAIL_MASS_TOL = 1e-7


class SolverError(RuntimeError):
    """Solver failure; carries the worst residual and its node when known."""

    def __init__(self, msg, residual=None, node=None):
        super().__init__(msg)
        self.residual = residual
        self.node = node


@dataclass(frozen=True)
class DiffusionSpec:
    """Diffusion coefficient of dX = sigma(X) dW.

    sigma and its closed-form derivative are callables on arrays; a
    constant sigma may return a scalar, which broadcasts against x.
    `assemble` refuses a sigma that is not positive and finite on the
    grid; for the geometric flag the solver works in log coordinates
    instead, where sigma itself is not evaluated.
    """

    sigma: Callable[[np.ndarray], np.ndarray]
    dsigma: Callable[[np.ndarray], np.ndarray]
    geometric: bool = False


def brownian() -> DiffusionSpec:
    return DiffusionSpec(
        sigma=lambda x: 1.0,
        dsigma=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def geometric_brownian() -> DiffusionSpec:
    return DiffusionSpec(
        sigma=lambda x: np.asarray(x, dtype=float),
        dsigma=lambda x: np.ones_like(np.asarray(x, dtype=float)),
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
    lcp_tol: float = 1e-8

    def __post_init__(self):
        values = (self.x_lo, self.x_hi, self.horizon, self.lam, self.lcp_tol)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("x_lo, x_hi, horizon, lam and lcp_tol must be finite")
        if self.nx < 3 or self.nt < 1:
            raise ValueError("nx >= 3 and nt >= 1 required")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.lcp_tol <= 0:
            raise ValueError("lcp tolerance must be positive")
        if not (self.x_lo < self.x_hi) or self.horizon <= 0:
            raise ValueError("bad domain")


@dataclass(frozen=True)
class DiscreteProblem:
    """Assembled discrete obstacle problem (operator rows, data, grids)."""

    x: np.ndarray            # solver grid (log-price in the geometric case)
    t: np.ndarray
    psi: np.ndarray          # obstacle
    v0: np.ndarray           # initial values (start-law potential)
    lower: np.ndarray        # tridiagonal rows of the spatial operator A, zero at the edges
    diag: np.ndarray
    upper: np.ndarray
    cfg: SolverConfig
    diff: DiffusionSpec
    nu: Measure
    mu: Measure


@dataclass(frozen=True)
class ObstacleSolution:
    x: np.ndarray
    t: np.ndarray            # the marched times, a prefix of the problem's nt + 1
    v: np.ndarray            # (steps marched + 1, nx): the rows up to where the march stopped
    psi: np.ndarray
    contact_step: np.ndarray  # (nx,) first step in contact with psi, -1 if none
    max_residual: float       # worst complementarity residual over all steps
    cfg: SolverConfig
    diff: DiffusionSpec
    nu: Measure
    mu: Measure
    iterations: int = 0      # tridiagonal solves over all steps

    @property
    def price_x(self) -> np.ndarray:
        return np.exp(self.x) if self.diff.geometric else self.x

    def scheme_tolerance(self) -> float:
        """Nominal accuracy budget of the marching scheme (sup norm).

        First order in dt and second order in h, measured against
        closed-form cases; the constants are deliberately generous and are
        never raised.  The budget holds from step 2 on.  Step 1, where the
        kink of the start data is not yet resolved, can exceed it.  On the
        solve of delta_0 -> N(0, 1) over [-6.2, 6.2] to t = 2:
        - 801 x 1600: budget 1.49e-3; step 1 is 2.62e-3 off the closed
          form, the worst row from step 2 on 7.7e-4 (step 2), and every
          row from t = 0.2 on within 5.4e-5;
        - 401 x 400: budget 5.96e-3; step 1 is 5.24e-3 off, the worst row
          from step 2 on 1.53e-3 (step 2).
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
    clip: float = 0.0        # largest amount a lower clip raised a value by


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
    """Tridiagonal rows of A u = -a u_xx + c u_x on a non-uniform grid.

    The edge rows are zero, so M = I + dt/2 A is the identity there: the
    Dirichlet rows, whose right-hand side `solve` sets to the obstacle.
    """
    h = np.diff(x)
    lower = np.zeros_like(x)
    diag = np.zeros_like(x)
    upper = np.zeros_like(x)
    lower[1:-1], diag[1:-1], upper[1:-1] = _stencil(h[:-1], h[1:], a[1:-1], c[1:-1])
    if np.any(lower[1:-1] > 0) or np.any(upper[1:-1] > 0):
        raise SolverError("operator stencil not monotone; refine the grid")
    return lower, diag, upper


def assemble(diff: DiffusionSpec, nu: Measure, mu: Measure, cfg: SolverConfig) -> DiscreteProblem:
    """Build the discrete obstacle problem for the pair (nu, mu).

    Refuses to assemble when the ordered-potential condition fails, when
    the domain truncates more than TAIL_MASS_TOL of either law, or when
    sigma is not positive and finite at every grid node.  In the
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

    # tail mass outside the truncated domain must be negligible; the mass
    # below x_lo is the cdf's left limit there, read one ulp below
    for m, name in ((nu, "nu"), (mu, "mu")):
        below = m.cdf(np.array([np.nextafter(cfg.x_lo, -np.inf)]))[0]
        tail = 1.0 - float(m.cdf(np.array([cfg.x_hi]))[0] - below)
        if tail > TAIL_MASS_TOL:
            raise SolverError(
                f"domain [{cfg.x_lo}, {cfg.x_hi}] truncates mass {tail:.3e} of {name}; "
                "enlarge the domain"
            )

    # a law with at most nx/4 atoms (a tabulated density counts by its
    # nodes) has its kinks snapped onto grid nodes
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
        s = np.broadcast_to(diff.sigma(grid), grid.shape)
        if not np.all((s > 0) & (s < np.inf)):
            raise SolverError("sigma must be positive and finite on the domain")
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


# -- the tridiagonal kernel shared by the obstacle and the M march -------------

def _stencil(hm, hp, a, c=0.0):
    """Rows (lower, diag, upper) of -a u_xx + c u_x from three points.

    hm and hp are the spacings to the left and right neighbour; the M
    march shortens them in the cells where the barrier crosses a level.
    """
    lower = -(2.0 * a + c * hp) / (hm * (hm + hp))
    upper = -(2.0 * a - c * hm) / (hp * (hm + hp))
    diag = (2.0 * a + c * (hp - hm)) / (hm * hp)
    return lower, diag, upper


def _tridiag_solve(lower, diag, upper, rhs):
    """Solve the system whose row i is lower[i], diag[i], upper[i] (LAPACK gtsv).

    lower[0] and upper[-1] are not read.  LAPACK may overwrite all four
    arguments, so pass temporaries.
    """
    *_, v, info = dgtsv(lower[1:], diag, upper[:-1], rhs, 1, 1, 1, 1)
    if info != 0:
        raise SolverError(f"singular tridiagonal system (LAPACK info {info})")
    return v


def _tridiag_mul(lower, diag, upper, v):
    """The tridiagonal rows (lower, diag, upper) applied to v."""
    mv = diag * v
    mv[1:] += lower[1:] * v[:-1]
    mv[:-1] += upper[:-1] * v[1:]
    return mv


def _active_set_lcp(lower, diag, upper, rhs, psi, active, tol, scale):
    """Primal-dual active-set solve; returns (v, M v, active, solves, worst residual).

    Each iteration pins the rows of `active` to psi, solves the tridiagonal
    system once, and moves to the set of active nodes whose multiplier
    M v - rhs is nonnegative plus inactive nodes where v < psi.  For an
    M-matrix this terminates from any starting set.  The loop ends when the
    residual reaches round-off (1e-3 * tol), or when the next set is one
    this call has already solved with: on flat obstacles round-off alone
    flips nodes in and out of the set, and the sets may then cycle, with
    periods of 2 to 10 seen, rather than repeat at once.  The bytes of
    every set seen are kept for that check.  At most len(rhs) solves; a
    stop with a residual above tol raises SolverError.  The product M v
    that the residual check formed is returned for the next right-hand
    side.
    """
    n = len(rhs)
    seen = {active.tobytes()}
    for solves in range(1, n + 1):
        v = _tridiag_solve(np.where(active, 0.0, lower), np.where(active, 1.0, diag),
                           np.where(active, 0.0, upper), np.where(active, psi, rhs))
        np.copyto(v, psi, where=active)
        mv = _tridiag_mul(lower, diag, upper, v)
        r = np.minimum(v - psi, (mv - rhs) / scale)
        r[0] = r[-1] = 0.0
        worst = max(r.max(), -r.min())
        if worst <= 1e-3 * tol:
            break
        # on active rows v == psi, so r == 0 exactly when the multiplier is >= 0
        new = np.where(active, r == 0.0, v < psi)
        new[0] = new[-1] = False
        key = new.tobytes()
        if key in seen:
            break
        seen.add(key)
        active = new
    if worst > tol:
        k = int(np.argmax(np.abs(r)))
        raise SolverError(
            f"LCP iteration did not converge: residual {r[k]:.3e} at node {k}",
            residual=float(r[k]), node=k,
        )
    return v, mv, active, solves, float(worst)


def solve(problem: DiscreteProblem) -> ObstacleSolution:
    """Time-march the projected Crank-Nicolson scheme until the barrier carries mu.

    With M = I + dt/2 A, step j solves min(v - psi, M v - rhs) = 0
    componentwise for rhs = (I - dt/2 A) v_{j-1} = 2 v_{j-1} - M v_{j-1}.
    Step 1 is instead two implicit half steps with the same M, with
    right-hand sides v_0 and then the half-step value (Rannacher 1984): they
    damp the kinks of the start data, which plain Crank-Nicolson carries on
    as a rise of v in time.  Each solve ends at round-off as a rule and
    never worse than the configured relative tolerance (else SolverError);
    max_residual is the worst residual over all solves and iterations
    counts their tridiagonal solves.  contact_step[i] is the first step j
    (step 0 included) with v[j, i] - psi[i] <= CONTACT_REL * lcp_tol *
    max(1, |psi[i]|), or -1 if node i never touches the obstacle before the
    march stops.

    The march stops at the horizon, or earlier: after the first step j >= 1
    at which the nodes still open carry at most TAIL_MASS_TOL of mu's
    discrete mass, m_i = max(0, -1/2 the change of psi's slope at node i)
    in price coordinates.  Every path has stopped by then, so v would not
    change on the steps after.  The solution's t and v hold the marched
    rows only, as views of the march buffer.
    """
    cfg = problem.cfg
    x, t, psi = problem.x, problem.t, problem.psi
    n = len(x)
    half_dt = 0.5 * (t[1] - t[0])

    m_lower = half_dt * problem.lower
    m_diag = 1.0 + half_dt * problem.diag
    m_upper = half_dt * problem.upper

    v = np.empty((cfg.nt + 1, n))
    v[0] = problem.v0
    # first step at which each node is in contact with the obstacle, -1 if none
    band = (CONTACT_REL * cfg.lcp_tol) * np.maximum(1.0, np.abs(psi))
    first = np.where(problem.v0 - psi <= band, 0, -1)
    open_ = first < 0
    # mu's discrete mass per interior node, -1/2 the slope change of psi in
    # price coordinates: the march ends once the closed nodes carry it
    slope = np.diff(psi) / np.diff(np.exp(x) if problem.diff.geometric else x)
    mass = np.zeros(n)
    mass[1:-1] = np.maximum(0.0, -0.5 * np.diff(slope))
    open_mass, open_mass_tol = float(mass[open_].sum()), TAIL_MASS_TOL * float(mass.sum())
    max_residual = 0.0
    cur = problem.v0
    scale = max(1.0, float(np.max(np.abs(problem.v0))))
    # warm start: the contact set of the initial data
    active = problem.v0 <= psi
    active[0] = active[-1] = False
    total_solves = 0
    for j in range(1, cfg.nt + 1):
        for _ in range(2 if j == 1 else 1):
            if j == 1:
                # implicit half steps, from v_0 and then the half-step value
                rhs = cur.copy()
            else:
                # 2 v - M v, with M v from the last residual check; v + v is
                # 2 v exactly and cheaper than a scalar multiply
                rhs = cur + cur
                rhs -= mv
            rhs[0] = psi[0]
            rhs[-1] = psi[-1]
            cur, mv, active, solves, worst = _active_set_lcp(
                m_lower, m_diag, m_upper, rhs, psi, active, cfg.lcp_tol, scale,
            )
            total_solves += solves
            max_residual = max(max_residual, worst)
        v[j] = cur
        hit = (cur - psi <= band) & open_
        if hit.any():
            first[hit] = j
            open_ &= ~hit
            open_mass = float(mass[open_].sum())
        if open_mass <= open_mass_tol:
            break
    return ObstacleSolution(
        x=x, t=t[:j + 1], v=v[:j + 1], psi=psi, contact_step=first, max_residual=max_residual,
        cfg=cfg, diff=problem.diff, nu=problem.nu, mu=problem.mu,
        iterations=total_solves,
    )


# -- artifacts ----------------------------------------------------------------

def save_solution(sol: ObstacleSolution, prefix: str) -> None:
    """CSV matrix of v plus JSON metadata (grid, config, residual summary)."""
    header = "t\\x," + ",".join(f"{xi:.12g}" for xi in sol.x)
    rows = np.column_stack([sol.t, sol.v])
    np.savetxt(prefix + "_v.csv", rows, delimiter=",", header=header, comments="")
    meta = {
        "grid": {
            "x_lo": float(sol.x[0]), "x_hi": float(sol.x[-1]), "nx": len(sol.x),
            "t_hi": float(sol.t[-1]), "nt": sol.cfg.nt, "steps_marched": len(sol.t) - 1,
            "geometric": sol.diff.geometric,
        },
        "config": {
            "lcp_tol": sol.cfg.lcp_tol, "lambda": sol.cfg.lam,
        },
        "residual_summary": {
            "max_abs": sol.max_residual,
            "lcp_iterations": sol.iterations,
        },
    }
    with open(prefix + "_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
