import dataclasses
import math

import numpy as np
import pytest

from rootbarrier import measures as ms
from rootbarrier import obstacle as ob
from rootbarrier import pricing as pr

from oracle import optimal_stopping_oracle


def closed_form_gaussian(x, t, t0=1.0):
    """-E|x - W_{t ^ t0}| for Brownian motion from 0: the N(0, t^t0) potential."""
    s = min(t, t0)
    if s == 0:
        return -np.abs(x)
    return -ms.normal(0.0, s).mean_abs_dev(x)


def marched_row(sol, j):
    """v at step j of the configured time grid: past the stop it no longer changes."""
    return sol.v[min(j, len(sol.t) - 1)]


def sup_error_vs_closed_form(sol, rows=None):
    """Worst step of |v - closed form| over the given steps (default: every step from 2)."""
    t = np.linspace(0.0, sol.cfg.horizon, sol.cfg.nt + 1)
    if rows is None:
        rows = range(2, len(t))
    return max(np.max(np.abs(marched_row(sol, j) - closed_form_gaussian(sol.x, t[j]))) for j in rows)


def test_gaussian_closed_form(gaussian_solution, coarse_gaussian_solution):
    # scheme_tolerance holds from step 2 on, at every row
    for sol, bound in ((gaussian_solution, 1.5e-3), (coarse_gaussian_solution, 2e-3)):
        err = sup_error_vs_closed_form(sol)
        assert err < sol.scheme_tolerance()
        assert err < bound
        assert sol.max_residual <= sol.cfg.lcp_tol


def test_refinement_order():
    # halving h and dt should show at least first-order convergence
    errs = {}
    for nx, nt in [(401, 400), (801, 800)]:
        cfg = ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=nx, horizon=2.0, nt=nt)
        sol = ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0), ms.normal(0.0, 1.0), cfg))
        errs[nx] = sup_error_vs_closed_form(sol, range(0, nt + 1, max(nt // 10, 1)))
    order = np.log2(errs[401] / errs[801])
    assert order >= 0.9


def _price_atomic_solution(market, nx=201, nt=400):
    """The log-price obstacle solve that pricing.lower_bound runs on these quotes."""
    mu = ms.implied_measure_from_calls(market)
    lo, hi = float(mu.locations.min()), float(mu.locations.max())
    cfg = ob.SolverConfig(x_lo=lo * math.exp(-pr.DOMAIN_PAD), x_hi=hi * math.exp(pr.DOMAIN_PAD),
                          nx=nx, nt=nt,
                          horizon=max(pr.HORIZON_SWAPS * pr.swap_value(market, mu), 1e-4))
    return ob.solve(ob.assemble(ob.geometric_brownian(), ms.point_mass(market.spot), mu, cfg))


def test_solution_invariants(gaussian_solution, two_atom_market):
    sol = gaussian_solution
    scale = max(1.0, np.abs(sol.psi).max())
    tol = ob.CONTACT_REL * sol.cfg.lcp_tol * scale
    assert np.min(sol.v - sol.psi[None, :]) >= -tol
    u_nu = ms.potential(ms.point_mass(0.0), sol.x)
    assert np.array_equal(sol.v[0], np.maximum(u_nu, sol.psi))
    assert np.max(np.diff(sol.v, axis=0)) <= tol
    assert np.max(sol.v - np.maximum(u_nu, sol.psi)[None, :]) <= tol
    assert sol.max_residual <= sol.cfg.lcp_tol
    # v does not rise in time on the kinked data of two quoted atoms either;
    # Crank-Nicolson without its implicit start rises there by 3e-5
    atomic = _price_atomic_solution(two_atom_market)
    tol = ob.CONTACT_REL * atomic.cfg.lcp_tol * max(1.0, np.abs(atomic.psi).max())
    assert np.max(np.diff(atomic.v, axis=0)) <= tol


def test_complementarity_residual_reported(gaussian_solution):
    # recompute min(v - psi, M v - rhs) of every step from the stored
    # surface and the assembled operator, M = I + dt/2 A; the reported
    # figure is the worst of them
    sol = gaussian_solution
    prob = ob.assemble(sol.diff, sol.nu, sol.mu, sol.cfg)
    half_dt = 0.5 * (sol.t[1] - sol.t[0])
    # the edge rows of A are zero, so those of M are the identity
    lower, diag, upper = half_dt * prob.lower, 1.0 + half_dt * prob.diag, half_dt * prob.upper
    scale = max(1.0, float(np.max(np.abs(prob.v0))))
    # step 1: two implicit half steps from v[0], warm-started from its contact set
    active = prob.v0 <= sol.psi
    active[[0, -1]] = False
    cur, worst = sol.v[0], 0.0
    for _ in range(2):
        rhs = cur.copy()
        rhs[[0, -1]] = sol.psi[[0, -1]]
        cur, _, active, _, r = ob._active_set_lcp(lower, diag, upper, rhs, sol.psi, active,
                                                   sol.cfg.lcp_tol, scale)
        worst = max(worst, r)
    assert np.array_equal(cur, sol.v[1])
    # steps j >= 2: the Crank-Nicolson right-hand side (I - dt/2 A) v[j-1]
    for j in range(2, len(sol.t)):
        rhs = 2.0 * sol.v[j - 1] - ob._tridiag_mul(lower, diag, upper, sol.v[j - 1])
        rhs[[0, -1]] = sol.psi[[0, -1]]
        mv = ob._tridiag_mul(lower, diag, upper, sol.v[j])
        r = np.minimum(sol.v[j] - sol.psi, (mv - rhs) / scale)[1:-1]
        worst = max(worst, float(np.max(np.abs(r))))
    assert sol.max_residual == worst
    assert sol.max_residual <= sol.cfg.lcp_tol


def test_active_set_stops_at_round_off():
    # outside the support of a many-atom empirical law the obstacle is
    # linear and stays in contact; there round-off alone flips nodes in and
    # out of the active set, so a solve that waits for the set to repeat
    # runs to its cap of nx solves per step.  The round-off stop keeps the
    # warm-started iteration near one solve per step, as on a two-atom target.
    emp = ms.empirical(np.random.default_rng(1).normal(size=100_000), recenter_to=0.0)
    cases = [
        (ob.brownian(), ms.point_mass(0.0), emp,
         ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=401, horizon=1.0, nt=100)),
        (ob.geometric_brownian(), ms.point_mass(1.0), ms.atoms([0.7, 1.4], [4 / 7, 3 / 7]),
         ob.SolverConfig(x_lo=0.3, x_hi=3.0, nx=201, horizon=1.0, nt=400)),
    ]
    for diff, nu, mu, cfg in cases:
        sol = ob.solve(ob.assemble(diff, nu, mu, cfg))
        assert sol.max_residual <= 1e-3 * cfg.lcp_tol
        assert sol.iterations <= 2 * cfg.nt


@pytest.mark.parametrize("eps, converged", [(1e-10, True), (1e-6, False)])
def test_active_set_stops_on_a_cycle(monkeypatch, eps, converged):
    # M = I on 5 nodes, psi = 0 and rhs = 1e-10 inside: the stubbed solve
    # puts v below psi at one node only, so the active set runs {1} ->
    # {2} -> {3} -> {1}, and the residual eps + 1e-10 stays above the
    # round-off stop.  Waiting for the set to repeat at once would run to
    # the cap of 5 solves.
    n, tol = 5, 1e-8
    zeros, psi = np.zeros(n), np.zeros(n)
    rhs = np.full(n, 1e-10)
    rhs[[0, -1]] = 0.0
    calls = []

    def cycling_solve(lower, diag, upper, b):
        v = b.copy()
        v[(1, 2, 3)[(len(calls) + 1) % 3]] = -eps
        calls.append(1)
        return v

    monkeypatch.setattr(ob, "_tridiag_solve", cycling_solve)
    active = np.array([False, True, False, False, False])
    if converged:
        v, mv, active, solves, worst = ob._active_set_lcp(zeros, np.ones(n), zeros, rhs, psi, active,
                                                           tol, 1.0)
        assert solves == 3 < n and worst == pytest.approx(eps + 1e-10)
        assert 1e-3 * tol < worst <= tol
    else:
        with pytest.raises(ob.SolverError, match="did not converge"):
            ob._active_set_lcp(zeros, np.ones(n), zeros, rhs, psi, active, tol, 1.0)
    assert len(calls) == 3


def test_unreachable_tolerance_raises_with_node():
    # a tolerance below round-off cannot be met: the error names the worst node
    cfg = ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=41, horizon=1.0, nt=5, lcp_tol=1e-20)
    with pytest.raises(ob.SolverError, match="residual") as err:
        ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0), ms.normal(0.0, 1.0), cfg))
    assert abs(err.value.residual) > cfg.lcp_tol
    assert 0 < err.value.node < 40


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_assemble_refuses_sigma_not_positive_and_finite(bad):
    # sigma is 1 except on the right of x = 1, where it takes the bad value
    diff = ob.DiffusionSpec(sigma=lambda x: np.where(x > 1.0, bad, 1.0),
                            dsigma=lambda x: np.zeros_like(x))
    cfg = ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=101, horizon=1.0, nt=10)
    with pytest.raises(ob.SolverError, match="sigma must be positive and finite"):
        ob.assemble(diff, ms.point_mass(0.0), ms.normal(0.0, 1.0), cfg)


def test_oracle_agrees_with_the_geometric_solve():
    # the trinomial oracle in log price against the geometric solve of
    # acceptance 5, every 40th row, within acceptance 6's combined budget
    cfg = ob.SolverConfig(x_lo=0.3, x_hi=3.0, nx=401, horizon=0.25, nt=400)
    gbm, nu, mu = ob.geometric_brownian(), ms.point_mass(1.0), ms.lognormal(-0.02, 0.04)
    sol = ob.solve(ob.assemble(gbm, nu, mu, cfg))
    oracle = optimal_stopping_oracle(gbm, nu, mu, cfg)
    assert oracle.x[0] == math.log(0.3) and oracle.x[-1] == math.log(3.0)
    h_dp = oracle.x[1] - oracle.x[0]
    tol_dp = 2.0 * (0.8 * h_dp * h_dp) * 0.5 + 2.0 * h_dp * h_dp * 0.5
    err = max(float(np.max(np.abs(np.interp(oracle.x, sol.x, marched_row(sol, j)) - oracle.values[j])))
              for j in range(0, len(oracle.t), 40))
    assert err <= 2.0 * (sol.scheme_tolerance() + tol_dp)


def test_target_equals_start_gives_obstacle():
    m = ms.atoms([-1.0, 1.0], [0.5, 0.5])
    cfg = ob.SolverConfig(x_lo=-6, x_hi=6, nx=301, horizon=1.0, nt=200)
    sol = ob.solve(ob.assemble(ob.brownian(), m, m, cfg))
    assert np.max(np.abs(sol.v - sol.psi[None, :])) < 1e-10


def test_unit_diffusion_stencil():
    # interior second-difference stencil has off-diagonals -1/(2 h^2)
    cfg = ob.SolverConfig(x_lo=-2.0, x_hi=2.0, nx=41, horizon=0.5, nt=10)
    prob = ob.assemble(ob.brownian(), ms.point_mass(0.0), ms.normal(0.0, 0.06), cfg)
    h = prob.x[1] - prob.x[0]
    assert np.allclose(prob.lower[2:-2], -1.0 / (2 * h * h))
    assert np.allclose(prob.upper[2:-2], -1.0 / (2 * h * h))
    assert np.allclose(prob.diag[2:-2], 1.0 / (h * h))


def test_geometric_drift_coefficient_and_lambda_cancellation():
    # transformed drift is 1/2 - lam*sgn plus the weight term lam*sgn: net 1/2,
    # so solutions cannot depend on the weight parameter
    nu = ms.point_mass(1.0)
    mu = ms.lognormal(-0.02, 0.04)
    sols = {}
    for lam in (0.75, 1.5):
        cfg = ob.SolverConfig(x_lo=0.3, x_hi=3.0, nx=301, horizon=0.2, nt=200, lam=lam)
        sols[lam] = ob.solve(ob.assemble(ob.geometric_brownian(), nu, mu, cfg))
    assert np.max(np.abs(sols[0.75].v - sols[1.5].v)) < 1e-12


def test_geometric_requires_lambda_above_half():
    with pytest.raises(ValueError, match="lambda"):
        cfg = ob.SolverConfig(x_lo=0.3, x_hi=3.0, nx=101, horizon=0.1, nt=10, lam=0.4)
        ob.assemble(ob.geometric_brownian(), ms.point_mass(1.0), ms.lognormal(-0.02, 0.04), cfg)


def test_geometric_requires_positive_support():
    cfg = ob.SolverConfig(x_lo=0.3, x_hi=3.0, nx=101, horizon=0.1, nt=10)
    with pytest.raises(ob.SolverError, match="supp"):
        ob.assemble(ob.geometric_brownian(), ms.point_mass(1.0), ms.normal(1.0, 0.1), cfg)


def test_assemble_refuses_non_embeddable():
    cfg = ob.SolverConfig(x_lo=-6, x_hi=6, nx=101, horizon=1.0, nt=10)
    with pytest.raises(ob.SolverError, match="embedded"):
        ob.assemble(ob.brownian(), ms.atoms([-1, 1], [0.5, 0.5]), ms.point_mass(0.0), cfg)


@pytest.mark.parametrize("field, value", [
    ("x_lo", -np.inf), ("x_lo", np.nan), ("x_hi", np.inf), ("x_hi", np.nan),
    ("horizon", np.inf), ("horizon", np.nan), ("lam", np.inf), ("lam", np.nan),
    ("lcp_tol", np.inf), ("lcp_tol", np.nan),
])
def test_config_refuses_non_finite_values(field, value):
    # nan slips through every ordered comparison: a nan horizon or an
    # infinite domain edge would give a non-finite v with residual 0 and
    # R = 0, and a nan tolerance would never reach contact
    kw = dict(x_lo=-6.0, x_hi=6.0, nx=101, horizon=1.0, nt=10, lam=1.0, lcp_tol=1e-8)
    kw[field] = value
    with pytest.raises(ValueError, match="finite"):
        ob.SolverConfig(**kw)


@pytest.mark.parametrize("field, value, message", [
    ("nx", 2, "nx >= 3"), ("nt", 0, "nt >= 1"), ("lam", 0.0, "lambda must be positive"),
    ("lcp_tol", 0.0, "tolerance must be positive"), ("x_hi", -6.0, "bad domain"), ("horizon", 0.0, "bad domain"),
])
def test_config_refuses_out_of_range_values(field, value, message):
    kw = dict(x_lo=-6.0, x_hi=6.0, nx=101, horizon=1.0, nt=10, lam=1.0, lcp_tol=1e-8)
    kw[field] = value
    with pytest.raises(ValueError, match=message):
        ob.SolverConfig(**kw)


@pytest.mark.parametrize("points, nodes", [
    # nothing inside (lo, hi): the uniform grid
    ([], np.linspace(0.0, 1.0, 11)),
    ([0.0, 1.0, 2.0], np.linspace(0.0, 1.0, 11)),
    # two points a rounding apart snap to neighbouring nodes: one of them stays
    ([0.15 - 1e-16, 0.15 + 1e-16], np.delete(np.where(np.arange(11) == 1, 0.15 - 1e-16, np.linspace(0.0, 1.0, 11)), 2)),
], ids=["none", "outside", "near-coincident"])
def test_snap_grid(points, nodes):
    assert np.array_equal(ob._snap_grid(0.0, 1.0, 11, np.array(points)), nodes)


def test_assemble_refuses_a_geometric_grid_coarser_than_the_drift():
    # log-price cells of width 6.9 > 2 make the drift stencil's upper entry positive
    cfg = ob.SolverConfig(x_lo=1e-3, x_hi=1e3, nx=3, horizon=0.1, nt=10)
    with pytest.raises(ob.SolverError, match="not monotone"):
        ob.assemble(ob.geometric_brownian(), ms.point_mass(1.0), ms.lognormal(-0.02, 0.04), cfg)


def test_geometric_requires_a_positive_price_domain():
    cfg = ob.SolverConfig(x_lo=0.0, x_hi=3.0, nx=101, horizon=0.1, nt=10)
    with pytest.raises(ValueError, match="positive price domain"):
        ob.assemble(ob.geometric_brownian(), ms.point_mass(1.0), ms.lognormal(-0.02, 0.04), cfg)


def test_grid_potentials_back_up_the_embedding_check(monkeypatch):
    # with the ordered-potential test passed by force, the grid comparison
    # still refuses start data below the obstacle
    real = ms.check_embeddable
    monkeypatch.setattr(ob.measures, "check_embeddable",
                        lambda nu, mu: dataclasses.replace(real(nu, mu), passed=True))
    cfg = ob.SolverConfig(x_lo=-6, x_hi=6, nx=101, horizon=1.0, nt=10)
    with pytest.raises(ob.SolverError, match="drops below the obstacle"):
        ob.assemble(ob.brownian(), ms.atoms([-1, 1], [0.5, 0.5]), ms.point_mass(0.0), cfg)


def test_singular_tridiagonal_system_raises():
    zeros = np.zeros(4)
    with pytest.raises(ob.SolverError, match="singular"):
        ob._tridiag_solve(zeros.copy(), zeros.copy(), zeros.copy(), np.ones(4))


def test_domain_truncation_guard():
    cfg = ob.SolverConfig(x_lo=-1.5, x_hi=1.5, nx=101, horizon=1.0, nt=10)
    with pytest.raises(ob.SolverError, match="truncates"):
        ob.assemble(ob.brownian(), ms.point_mass(0.0), ms.normal(0.0, 1.0), cfg)


def test_oracle_target_equals_start():
    m = ms.atoms([-1.0, 1.0], [0.5, 0.5])
    cfg = ob.SolverConfig(x_lo=-6, x_hi=6, nx=201, horizon=0.5, nt=50)
    val = optimal_stopping_oracle(ob.brownian(), m, m, cfg)
    psi = ms.potential(m, val.x)
    assert np.max(np.abs(val.values - psi[None, :])) < 1e-10


def test_oracle_gaussian_closed_form():
    cfg = ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=401, horizon=2.0, nt=400)
    val = optimal_stopping_oracle(ob.brownian(), ms.point_mass(0.0), ms.normal(0.0, 1.0), cfg)
    errs = [np.max(np.abs(val.values[j] - closed_form_gaussian(val.x, val.t[j])))
            for j in range(0, len(val.t), 20)]
    assert max(errs) < 2e-3


def test_oracle_agrees_with_solver_on_random_pair():
    # self-consistency on a coarse grid for an arbitrary embeddable pair
    rng = np.random.default_rng(7)
    locs = np.sort(rng.normal(0.0, 1.0, 4))
    w = rng.random(4)
    w = w / w.sum()
    locs = locs - np.dot(w, locs)
    nu = ms.point_mass(0.0)
    mu = ms.atoms(locs, w)
    cfg = ob.SolverConfig(x_lo=-8, x_hi=8, nx=321, horizon=1.5, nt=300)
    sol = ob.solve(ob.assemble(ob.brownian(), nu, mu, cfg))
    val = optimal_stopping_oracle(ob.brownian(), nu, mu, cfg)
    worst = 0.0
    for j in range(0, len(val.t), 30):
        vi = np.interp(val.x, sol.x, marched_row(sol, j))
        worst = max(worst, np.max(np.abs(vi - val.values[j])))
    assert worst < sol.scheme_tolerance() + 4e-3


def test_solution_dump(tmp_path, gaussian_solution):
    prefix = str(tmp_path / "sol")
    ob.save_solution(gaussian_solution, prefix)
    import json
    meta = json.loads((tmp_path / "sol_meta.json").read_text())
    assert meta["residual_summary"]["max_abs"] <= 1e-8
    assert meta["residual_summary"]["lcp_iterations"] == gaussian_solution.iterations
    assert set(meta["config"]) == {"lcp_tol", "lambda"}
    data = np.genfromtxt(tmp_path / "sol_v.csv", delimiter=",", skip_header=1)
    assert data.shape == (len(gaussian_solution.t), len(gaussian_solution.x) + 1)
    # R = 1 closes one step after t = 1, of the horizon 2
    assert meta["grid"]["nt"] == gaussian_solution.cfg.nt == 1600
    assert meta["grid"]["steps_marched"] == len(gaussian_solution.t) - 1 == 801


def test_march_stops_once_the_closed_nodes_carry_mu(gaussian_solution, two_atom_market):
    # the first step after which the open nodes carry at most TAIL_MASS_TOL
    # of mu's discrete mass, -1/2 the slope change of psi in price units
    atomic = _price_atomic_solution(two_atom_market)
    for sol in (gaussian_solution, atomic):
        slope = np.diff(sol.psi) / np.diff(sol.price_x)
        mass = np.concatenate(([0.0], np.maximum(0.0, -0.5 * np.diff(slope)), [0.0]))
        last = len(sol.t) - 1
        assert 1 <= last < sol.cfg.nt
        assert np.array_equal(sol.t, np.linspace(0.0, sol.cfg.horizon, sol.cfg.nt + 1)[:last + 1])
        step = np.where(sol.contact_step < 0, last + 1, sol.contact_step)
        assert mass[step > last].sum() <= ob.TAIL_MASS_TOL * mass.sum()
        if last > 1:
            assert mass[step > last - 1].sum() > ob.TAIL_MASS_TOL * mass.sum()
    # both quoted atoms touch at step 0: the march ends after step 1
    assert len(atomic.t) == 2


def test_fine_dense_solve_takes_few_solves_per_step(dense_market):
    # at nx = 3601 the active sets of the dense 301-quote problem cycle
    # with periods of 2 to 10 on steps after the barrier has closed; a
    # march to the horizon ran 437,863 tridiagonal solves there
    sol = _price_atomic_solution(dense_market, nx=3601, nt=pr.PricingConfig().nt)
    assert sol.iterations <= 2 * (len(sol.t) - 1)
    assert sol.max_residual <= sol.cfg.lcp_tol


def test_geometric_solve_matches_lognormal_closed_form():
    # from a unit point mass, the time-t0 law of the driftless exponential
    # diffusion is lognormal(-t0/2, t0); its barrier is the constant t0 and
    # the solution is the potential of the law at min(t, t0).  This pins
    # the sign of the transformed drift end to end.
    t0 = 0.16
    nu = ms.point_mass(1.0)
    mu = ms.lognormal(-t0 / 2.0, t0)
    cfg = ob.SolverConfig(x_lo=0.03, x_hi=25.0, nx=1201, horizon=0.4, nt=1600, lam=1.0)
    sol = ob.solve(ob.assemble(ob.geometric_brownian(), nu, mu, cfg))
    prices = sol.price_x
    worst = 0.0
    t = np.linspace(0.0, cfg.horizon, cfg.nt + 1)
    for j in range(0, len(t), 160):
        s = min(t[j], t0)
        if s == 0:
            cf = -np.abs(prices - 1.0)
        else:
            cf = -ms.lognormal(-s / 2.0, s).mean_abs_dev(prices)
        worst = max(worst, np.max(np.abs(marched_row(sol, j) - cf)))
    assert worst < 2e-3
    from rootbarrier import barrier as br
    bar = br.extract_barrier(sol)
    central = (prices > 0.5) & (prices < 2.0)
    assert np.max(np.abs(bar.R[central] - t0)) < 6 * (sol.t[1] - sol.t[0])


def test_solution_matches_stopped_path_monte_carlo():
    # the surface is -E|x - X_{t ^ tau}|: check three time slices against
    # an independent stopped-path sample (horizon sentinel keeps running
    # paths at their current state, which is exactly the stopped process)
    from rootbarrier import barrier as br
    from rootbarrier import parabola as pb
    from rootbarrier import simulate as sim

    nu = ms.point_mass(0.0)
    x = np.linspace(-2.5, 3.5, 601)
    b_true = br.from_function(pb.barrier_fn, x, horizon=4.0)
    batch_full = sim.simulate_stopped(ob.brownian(), nu, b_true, n=150_000, dt=2e-3, seed=3)
    mu_hat = ms.empirical(batch_full.stopped_values, recenter_to=0.0)
    cfg = ob.SolverConfig(x_lo=-2.6, x_hi=3.6, nx=311, horizon=3.5, nt=700)
    sol = ob.solve(ob.assemble(ob.brownian(), nu, mu_hat, cfg))
    grid = np.linspace(-2.0, 3.0, 51)
    n = 40_000
    for t_probe in (0.5, 1.5, 3.0):
        probe = sim.simulate_stopped(ob.brownian(), nu, b_true, n=n, dt=1e-3,
                                     seed=17, horizon=t_probe)
        emp = ms.potential(ms.empirical(probe.stopped_values), grid)
        j = int(round(t_probe / (sol.t[1] - sol.t[0])))
        row = np.interp(grid, sol.x, sol.v[j])
        band = 3.0 * 1.6 / np.sqrt(n) + 3e-2
        assert np.max(np.abs(emp - row)) < band, t_probe


def test_atom_on_the_domain_edge_is_not_truncated():
    # the atom at x_lo = -1 lies inside the domain: no mass is truncated
    cfg = ob.SolverConfig(x_lo=-1.0, x_hi=3.0, nx=201, horizon=2.0, nt=200)
    sol = ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0), ms.atoms([-1.0, 1.0], [0.5, 0.5]), cfg))
    assert sol.max_residual <= cfg.lcp_tol
    with pytest.raises(ob.SolverError, match="truncates mass 5.000e-01"):
        ob.assemble(ob.brownian(), ms.point_mass(0.0), ms.atoms([-1.0, 1.0], [0.5, 0.5]),
                    ob.SolverConfig(x_lo=-0.99, x_hi=3.0, nx=201, horizon=2.0, nt=200))
