import numpy as np
import pytest

from rootbarrier import measures as ms
from rootbarrier import obstacle as ob


def closed_form_gaussian(x, t, t0=1.0):
    """-E|x - W_{t ^ t0}| for Brownian motion from 0: the N(0, t^t0) potential."""
    s = min(t, t0)
    if s == 0:
        return -np.abs(x)
    return -ms.normal(0.0, s).mean_abs_dev(x)


def sup_error_vs_closed_form(sol, stride=40):
    errs = []
    for j in range(0, len(sol.t), stride):
        errs.append(np.max(np.abs(sol.v[j] - closed_form_gaussian(sol.x, sol.t[j]))))
    return max(errs)


def test_gaussian_closed_form(gaussian_solution):
    sol = gaussian_solution
    assert sup_error_vs_closed_form(sol) < sol.scheme_tolerance()
    assert sup_error_vs_closed_form(sol) < 1.5e-3


def test_refinement_order():
    # halving h and dt should show at least first-order convergence
    errs = {}
    for nx, nt in [(401, 400), (801, 800)]:
        cfg = ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=nx, horizon=2.0, nt=nt)
        sol = ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0), ms.normal(0.0, 1.0), cfg))
        errs[nx] = sup_error_vs_closed_form(sol, stride=max(nt // 10, 1))
    order = np.log2(errs[401] / errs[801])
    assert order >= 0.9


def test_solution_invariants(gaussian_solution):
    sol = gaussian_solution
    scale = max(1.0, np.abs(sol.psi).max())
    tol = 10 * sol.cfg.lcp_tol * scale
    assert np.min(sol.v - sol.psi[None, :]) >= -tol
    u_nu = ms.potential(ms.point_mass(0.0), sol.x).values
    assert np.array_equal(sol.v[0], np.maximum(u_nu, sol.psi))
    assert np.max(np.diff(sol.v, axis=0)) <= tol
    assert np.max(sol.v - np.maximum(u_nu, sol.psi)[None, :]) <= tol
    assert sol.max_residual <= sol.cfg.lcp_tol


def test_complementarity_residual_reported(gaussian_solution):
    res = gaussian_solution.residuals
    assert res.shape == gaussian_solution.v.shape
    assert np.max(np.abs(res)) <= gaussian_solution.cfg.lcp_tol
    assert gaussian_solution.max_residual == np.max(np.abs(res))


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


def test_unreachable_tolerance_raises_with_node():
    # a tolerance below round-off cannot be met: the error names the worst node
    cfg = ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=41, horizon=1.0, nt=5, lcp_tol=1e-20)
    with pytest.raises(ob.SolverError, match="residual") as err:
        ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0), ms.normal(0.0, 1.0), cfg))
    assert abs(err.value.residual) > cfg.lcp_tol
    assert 0 < err.value.node < 40


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


def test_domain_truncation_guard():
    cfg = ob.SolverConfig(x_lo=-1.5, x_hi=1.5, nx=101, horizon=1.0, nt=10)
    with pytest.raises(ob.SolverError, match="truncates"):
        ob.assemble(ob.brownian(), ms.point_mass(0.0), ms.normal(0.0, 1.0), cfg)


def test_oracle_target_equals_start():
    m = ms.atoms([-1.0, 1.0], [0.5, 0.5])
    cfg = ob.SolverConfig(x_lo=-6, x_hi=6, nx=201, horizon=0.5, nt=50)
    val = ob.optimal_stopping_oracle(ob.brownian(), m, m, cfg)
    psi = ms.potential(m, val.x).values
    assert np.max(np.abs(val.values - psi[None, :])) < 1e-10


def test_oracle_gaussian_closed_form():
    cfg = ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=401, horizon=2.0, nt=400)
    val = ob.optimal_stopping_oracle(ob.brownian(), ms.point_mass(0.0), ms.normal(0.0, 1.0), cfg)
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
    val = ob.optimal_stopping_oracle(ob.brownian(), nu, mu, cfg)
    worst = 0.0
    for j in range(0, len(sol.t), 30):
        vi = np.interp(val.x, sol.x, sol.v[j])
        worst = max(worst, np.max(np.abs(vi - val.values[j])))
    assert worst < sol.scheme_tolerance() + 4e-3


def test_solution_dump(tmp_path, gaussian_solution):
    prefix = str(tmp_path / "sol")
    ob.save_solution(gaussian_solution, prefix)
    import json
    meta = json.loads((tmp_path / "sol_meta.json").read_text())
    assert meta["residual_summary"]["max_abs"] <= 1e-8
    assert meta["residual_summary"]["lcp_iterations"] == gaussian_solution.iterations
    data = np.genfromtxt(tmp_path / "sol_v.csv", delimiter=",", skip_header=1)
    assert data.shape == (len(gaussian_solution.t), len(gaussian_solution.x) + 1)


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
    for j in range(0, len(sol.t), 160):
        s = min(sol.t[j], t0)
        if s == 0:
            cf = -np.abs(prices - 1.0)
        else:
            cf = -ms.lognormal(-s / 2.0, s).mean_abs_dev(prices)
        worst = max(worst, np.max(np.abs(sol.v[j] - cf)))
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
        emp = sim.empirical_potential(probe, grid)
        j = int(round(t_probe / (sol.t[1] - sol.t[0])))
        row = np.interp(grid, sol.x, sol.v[j])
        band = 3.0 * 1.6 / np.sqrt(n) + 3e-2
        assert np.max(np.abs(emp.values - row)) < band, t_probe
