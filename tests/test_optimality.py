import numpy as np
import pytest

from rootbarrier import barrier as br
from rootbarrier import measures as ms
from rootbarrier import obstacle as ob
from rootbarrier import optimality as opt
from rootbarrier import parabola as pb
from rootbarrier import simulate as sim


def test_payoff_specs_validate():
    for p in (opt.variance_call(0.04), opt.variance_swap(), opt.power_payoff(2.0, cap=5.0)):
        p.validate(t_max=8.0)
    assert opt.variance_call(0.04).f(np.array([0.05]))[0] == 1.0
    assert opt.power_payoff(2.0, cap=5.0).F(np.array([2.0]))[0] == pytest.approx(2.0)
    assert opt.power_payoff(2.0, cap=5.0).F(np.array([7.0]))[0] == pytest.approx(12.5 + 5.0 * 2.0)


def test_payoff_rejects_nonzero_start():
    bad = opt.custom_payoff(lambda t: np.asarray(t) + 1.0,
                            lambda t: np.ones_like(np.asarray(t)), 1.0, 0.0)
    with pytest.raises(ValueError, match="F"):
        bad.validate(1.0)


def test_payoff_rejects_decreasing_derivative():
    bad = opt.custom_payoff(lambda t: 1.0 - np.exp(-np.asarray(t, dtype=float)),
                            lambda t: np.exp(-np.asarray(t, dtype=float)),
                            1.0, np.inf)
    with pytest.raises(ValueError, match="non-decreasing"):
        bad.validate(1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: opt.custom_payoff(lambda t: 2.0 * np.asarray(t), lambda t: np.full(np.shape(t), 2.0), 1.0),
     "out of"),
    (lambda: opt.custom_payoff(lambda t: np.asarray(t), lambda t: np.full(np.shape(t), 2.0), 2.0),
     "inconsistent"),
    (lambda: opt.power_payoff(1.0, cap=1.0), "p > 1"),
], ids=["derivative-above-bound", "F-not-the-integral", "power-not-above-1"])
def test_payoff_refusals(make, message):
    with pytest.raises(ValueError, match=message):
        make().validate(1.0)


def test_parabola_closed_forms(parabola_hedge):
    hf, bar, payoff = parabola_hedge
    window = (hf.x >= -1.9) & (hf.x <= 2.9)
    xs = hf.x[window]
    worst = {"M": 0.0, "G": 0.0, "gap": 0.0}
    for j, tv in enumerate(hf.t):
        worst["M"] = max(worst["M"], np.max(np.abs(hf.M[j][window] - pb.M_exact(xs, tv))))
        worst["G"] = max(worst["G"], np.max(np.abs(hf.G[j][window] - pb.G_exact(xs, tv))))
        num_gap = hf.G[j][window] + hf.H[window] - hf.F_grid[j]
        worst["gap"] = max(worst["gap"], np.max(np.abs(num_gap - pb.gap_exact(xs, tv))))
    assert worst["M"] < 1e-3
    assert worst["G"] < 1e-3
    assert worst["gap"] < 1e-3
    assert np.max(np.abs(hf.Z[window] - pb.Z_exact(xs))) < 1e-3
    assert np.max(np.abs(hf.H[window] - pb.H_exact(xs))) < 1e-3


def test_parabola_point_values(parabola_hedge):
    hf, _, _ = parabola_hedge
    # arithmetic on the closed forms at alpha=2, beta=3, lam=1/2
    assert hf.M_at(np.array([0.0]), 0.0)[0] == pytest.approx(2.0, abs=2e-3)
    # f(s) = s here below the cap, so M(0, 0) is E tau = lam alpha beta / (1 + lam)
    assert pb.mean_stop_time() == pytest.approx(2.0) == float(pb.M_exact(0.0, 0.0))
    assert hf.Z_at(np.array([1.0]))[0] == pytest.approx(37.0 / 18.0, abs=1e-3)
    assert hf.Z_at(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
    gh = hf.G_at(np.array([0.0]), 0.0)[0] + hf.H_at(np.array([0.0]))[0]
    assert gh == pytest.approx(-3.0, abs=1e-3)


def test_flat_barrier_reference_values():
    # constant barrier at t0 = 1: M = 1 below, Z = x^2, H = x^2 - 1/2
    x = np.linspace(-6.5, 6.5, 1301)
    bar = br.from_function(lambda s: np.ones_like(s), x, horizon=2.0)
    payoff = opt.power_payoff(2.0, cap=4.0)
    hf = opt.build_hedge(ob.brownian(), bar, payoff, x, nt=800, base_point=0.0)
    assert hf.M_at(np.array([0.3]), 0.5)[0] == pytest.approx(1.0, abs=1e-10)
    assert hf.Z_at(np.array([2.0]))[0] == pytest.approx(4.0, abs=1e-9)
    assert hf.H_at(np.array([2.0]))[0] == pytest.approx(3.5, abs=1e-9)
    gh = hf.G_at(np.array([0.0]), 0.0)[0] + hf.H_at(np.array([0.0]))[0]
    assert gh == pytest.approx(-0.5, abs=1e-9)


def test_M_dominates_f_and_Z_convex(parabola_hedge):
    hf, _, payoff = parabola_hedge
    f_rows = payoff.f(hf.t)[:, None]
    assert np.min(hf.M - f_rows) >= 0.0
    d2 = np.diff(hf.Z, 2)
    assert np.min(d2) >= -1e-10


def test_M_matches_monte_carlo_probes(parabola_hedge):
    hf, bar, payoff = parabola_hedge
    rng_probes = [(-1.0, 0.5), (0.5, 1.0), (1.5, 2.0), (0.0, 0.0), (2.0, 0.25)]
    n = 20_000
    for x0, t0 in rng_probes:
        if t0 >= pb.barrier_fn(np.array([x0]))[0]:
            continue
        shifted = br.Barrier(x=bar.x, R=np.maximum(bar.R - t0, 0.0), horizon=bar.horizon)
        batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(x0), shifted,
                                     n=n, dt=1e-3, seed=101)
        mc = np.mean(payoff.f(batch.stop_times + t0))
        se = np.std(payoff.f(batch.stop_times + t0)) / np.sqrt(n)
        val = hf.M_at(np.array([x0]), t0)[0]
        assert abs(val - mc) <= 3 * se + 0.05 * np.sqrt(batch.dt) + 2e-3


def test_pathwise_inequality(parabola_hedge):
    hf, _, _ = parabola_hedge
    rep = opt.verify_pathwise(hf)
    assert rep["passed"]
    assert rep["max_violation"] <= 1e-6
    assert rep["max_contact_gap"] <= 1e-6


def test_martingale_structure(parabola_hedge):
    hf, _, _ = parabola_hedge
    rep = opt.verify_martingale(hf, ob.brownian(), ms.point_mass(0.0),
                                n=20_000, seed=5, ladder=[0.5, 1.0, 2.0, 4.0], dt=2e-3)
    assert rep["martingale_ok"]
    assert rep["submartingale_ok"]


def test_degenerate_start_makes_G_constant():
    # immediate barrier: the stopped process never moves, G is frozen
    x = np.linspace(-2.0, 2.0, 201)
    bar = br.Barrier(x=x, R=np.zeros_like(x), horizon=1.0)
    payoff = opt.variance_swap()
    hf = opt.build_hedge(ob.brownian(), bar, payoff, x, nt=100, t_max=1.0)
    rep = opt.verify_martingale(hf, ob.brownian(), ms.point_mass(0.0),
                                n=2000, seed=1, ladder=[0.25, 0.5], dt=1e-3)
    assert rep["martingale_ok"]


def test_optimality_gap_normal_target():
    # deterministic-time embedding of N(0,1) versus the interval-exit one
    mu = ms.normal(0.0, 1.0)
    x = np.linspace(-6.5, 6.5, 1301)
    bar_t = br.from_function(lambda s: np.ones_like(s), x, horizon=2.0)
    payoff = opt.power_payoff(2.0, cap=4.0)
    hf = opt.build_hedge(ob.brownian(), bar_t, payoff, x, nt=800, base_point=0.0)
    bar = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([1.0, 1.0]), horizon=2.0)
    root = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), bar,
                                n=20_000, dt=1 / 100, seed=1)
    comp = sim.hall_competitor(mu, n=20_000, dt=1e-3, seed=2)
    rep = opt.optimality_gap(hf, payoff, root, comp, mu)
    assert rep["EF_root"] == pytest.approx(0.5)
    assert rep["optimal"]
    assert rep["chain_ok"]
    assert rep["EF_competitor"] >= rep["E_GH_competitor"] - 3 * (rep["se_competitor"] + rep["se_GH"])


def test_optimality_gap_refuses_bad_competitor():
    mu = ms.normal(0.0, 1.0)
    x = np.linspace(-6.5, 6.5, 301)
    bar_t = br.from_function(lambda s: np.ones_like(s), x, horizon=2.0)
    payoff = opt.power_payoff(2.0, cap=4.0)
    hf = opt.build_hedge(ob.brownian(), bar_t, payoff, x, nt=200, base_point=0.0)
    bar = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([1.0, 1.0]), horizon=2.0)
    root = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), bar, n=2000, dt=0.01, seed=1)
    fake = sim.PathBatch(n=2000, dt=0.01, horizon=1.0, seed=0,
                         stop_times=np.full(2000, 0.5),
                         stopped_values=np.full(2000, 0.3))
    with pytest.raises(ValueError, match="embed"):
        opt.optimality_gap(hf, payoff, root, fake, mu)


def test_compute_M_horizon_guard():
    x = np.linspace(-2.0, 2.0, 101)
    R = np.where(np.abs(x) < 1.0, np.inf, 0.0)
    bar = br.Barrier(x=x, R=R, horizon=1.0)
    unbounded = opt.custom_payoff(lambda t: np.asarray(t, dtype=float) ** 2 / 2,
                                  lambda t: np.asarray(t, dtype=float),
                                  f_bound=np.inf, cap_time=np.inf)
    with pytest.raises(ob.SolverError, match="cap|flatten"):
        opt.compute_M(ob.brownian(), bar, unbounded, x, nt=50)


def test_compute_M_rejects_a_short_horizon():
    # a given horizon must close the free region and pass the last barrier time
    x = np.linspace(-2.0, 2.0, 101)
    open_bar = br.Barrier(x=x, R=np.where(np.abs(x) < 1.0, np.inf, 0.0), horizon=1.0)
    with pytest.raises(ob.SolverError, match="free region still open at the terminal slab"):
        opt.compute_M(ob.brownian(), open_bar, opt.variance_call(0.3), x, nt=50, t_max=0.2)
    closed_bar = br.Barrier(x=x, R=np.where(np.abs(x) < 1.0, 1.0, 0.0), horizon=1.0)
    with pytest.raises(ob.SolverError, match="below the last barrier time"):
        opt.compute_M(ob.brownian(), closed_bar, opt.variance_call(0.3), x, nt=50, t_max=0.5)


def test_compute_M_open_region_with_capped_payoff():
    # spikes at the ends, open middle: fine once f flattens
    x = np.linspace(-2.0, 2.0, 201)
    R = np.where(np.abs(x) < 1.0 - 1e-9, np.inf, 0.0)
    bar = br.Barrier(x=x, R=R, horizon=1.0)
    payoff = opt.variance_call(0.3)
    m = opt.compute_M(ob.brownian(), bar, payoff, x, nt=300)
    # M(x, 0) is the probability of surviving past the strike date
    i0 = np.argmin(np.abs(m.x))
    assert 0.0 < m.values[0][i0] < 1.0
    assert np.max(m.values) <= 1.0 + 1e-9


def _irregular_stencil_reference(x, r, f_t, t, a):
    """M by one dense solve per step of the irregular-stencil system, built row by row."""
    n, dt = len(x), t[1] - t[0]
    M = np.empty((len(t), n))
    M[-1] = f_t[-1]
    for j in range(len(t) - 2, -1, -1):
        A, b = np.zeros((n, n)), np.zeros(n)
        for i in range(n):
            if t[j] >= r[i]:                       # stopped: M = f
                A[i, i], b[i] = 1.0, f_t[j]
            elif i in (0, n - 1):                  # free edge: zero slope
                A[i, i], A[i, 1 if i == 0 else n - 2] = 1.0, -1.0
            else:
                # reach of the stencil towards each neighbour: the whole cell,
                # or up to where R (linear across the cell) crosses t_j, and
                # at least 1e-3 of the cell
                reach = {}
                for k in (i - 1, i + 1):
                    cell = abs(x[k] - x[i])
                    if t[j] >= r[k]:
                        s = 1.0 if np.isinf(r[i]) else (r[i] - t[j]) / (r[i] - r[k])
                        reach[k] = max(s, 1e-3) * cell
                    else:
                        reach[k] = cell
                hm, hp = reach[i - 1], reach[i + 1]
                weight = {i - 1: 2.0 * a[i] / (hm * (hm + hp)), i + 1: 2.0 * a[i] / (hp * (hm + hp))}
                A[i, i], b[i] = 1.0 + dt * 2.0 * a[i] / (hm * hp), M[j + 1, i]
                for k in (i - 1, i + 1):
                    if t[j] >= r[k]:               # known value f(t_j) at the crossing
                        b[i] += dt * weight[k] * f_t[j]
                    else:
                        A[i, k] = -dt * weight[k]
        M[j] = np.maximum(np.linalg.solve(A, b), f_t[j])
    return M


def test_compute_M_matches_a_dense_irregular_stencil_solve():
    # 41 uneven nodes and a varying sigma.  R is positive at both edges
    # (zero-slope rows until they stop), has a hump that stops from both
    # sides, an open stretch with a spike in it, and a ramp; f = min(t, 1)
    x = np.linspace(-2.0, 2.0, 41)
    x[1:-1] += 0.02 * np.sin(7.0 * x[1:-1])
    R = np.where(x < -0.4, 1.2 - 0.5 * np.abs(x + 1.2), 0.4 + 0.6 * (x - 0.6))
    R[(x > -0.4) & (x < 0.6)] = np.inf
    R[np.argmin(np.abs(x - 0.1))] = 0.5
    bar = br.Barrier(x=x, R=R, horizon=2.0)
    diff = ob.DiffusionSpec(sigma=lambda s: 1.0 + 0.3 * np.cos(s), dsigma=lambda s: -0.3 * np.sin(s))
    payoff = opt.power_payoff(2.0, cap=1.0)
    m = opt.compute_M(diff, bar, payoff, x, nt=60)
    ref = _irregular_stencil_reference(x, R, payoff.f(m.t), m.t, 0.5 * diff.sigma(x) ** 2)
    assert np.max(np.abs(m.values - ref)) <= 1e-12
    assert 0.0 <= m.clip <= 1e-12


def test_compute_M_crossings_on_grid_times():
    # every R is a grid time t_j, so the tie t_j >= R decides when a node
    # stops; a hump, a spike whose node is a left and a right crossing at
    # the same steps, a plateau with no crossing inside and a free left edge
    nt, t_max = 48, 1.2
    t = np.linspace(0.0, t_max, nt + 1)
    x = np.linspace(-1.5, 1.5, 31)
    k = np.clip(np.round(40.0 - 30.0 * x * x), 0, None).astype(int)
    k[0], k[24], k[27], k[28] = 5, 44, 18, 18          # edge, spike, plateau
    R = t[k]
    bar = br.Barrier(x=x, R=R, horizon=t_max)
    spike = (R[1:-1] > R[:-2]) & (R[1:-1] > R[2:])
    assert np.any(spike & (R[:-2] > 0.0) & (R[2:] > 0.0)) and np.any(R[1:-1] == R[2:])
    diff = ob.DiffusionSpec(sigma=lambda s: 1.0 + 0.3 * np.cos(s), dsigma=lambda s: -0.3 * np.sin(s))
    payoff = opt.power_payoff(2.0, cap=1.0)
    m = opt.compute_M(diff, bar, payoff, x, nt=nt, t_max=t_max)
    assert np.array_equal(m.t, t)
    ref = _irregular_stencil_reference(x, R, payoff.f(t), t, 0.5 * diff.sigma(x) ** 2)
    assert np.max(np.abs(m.values - ref)) <= 1e-12


def _bilinear_reference(surf, xg, tg, x, t=None):
    """surf at (x, t) by np.searchsorted: rows blended in t, then the blend in x.

    Off the x range the end cell's line continues (from the last node past
    the top); t is clamped to the tabulated times.
    """
    i = np.searchsorted(xg, x, side="right")
    c = np.clip(i - 1, 0, len(xg) - 2)
    top = i == len(xg)
    if t is None:
        lo, hi = surf[c], surf[c + 1]
    else:
        tt = np.minimum(np.maximum(t, 0.0), tg[-1])
        j = np.clip(np.searchsorted(tg, tt, side="right"), 1, len(tg) - 1)
        w = (tt - tg[j - 1]) / (tg[j] - tg[j - 1])
        lo = (1.0 - w) * surf[j - 1, c] + w * surf[j, c]
        hi = (1.0 - w) * surf[j - 1, c + 1] + w * surf[j, c + 1]
    slope = (hi - lo) / (xg[c + 1] - xg[c])
    return slope * (x - xg[c + top]) + np.where(top, hi, lo)


def test_lookups_match_a_searchsorted_reference(parabola_hedge, dense_call_report):
    for hf in (parabola_hedge[0], dense_call_report.hedge):
        xg, tg, T = hf.x, hf.t, hf.T_M
        span = xg[-1] - xg[0]
        # off both ends (the last node first), interior nodes, between nodes
        x = np.concatenate(([xg[0] - 0.2 * span], xg[-1] + span * np.linspace(0.0, 0.5, 25),
                            xg[1:-1:53], 0.5 * (xg[3:-1:71] + xg[4::71])))
        # t < 0, grid times, between them, past T_M
        t = np.concatenate(([-0.5], tg[::97], 0.61 * tg[1:][::89], [T, 1.5 * T]))
        x, t = np.resize(x, max(len(x), len(t))), np.resize(t, max(len(x), len(t)))
        assert np.any(t < 0) and np.any(t > T) and np.any(np.isin(t[t > 0], tg))
        for ts in (t, 0.43 * T):                         # one t per point, and a scalar t
            g = _bilinear_reference(hf.G, xg, tg, x, ts)
            past = hf.F_grid[-1] + hf.payoff.F(ts) - hf.payoff.F(np.array([T]))[0]
            g = np.where(ts > T, g + past - hf.F_grid[-1], g)
            m = np.where(ts > T, hf.payoff.f(ts), _bilinear_reference(hf.M, xg, tg, x, ts))
            for got, want in ((hf.G_at(x, ts), g), (hf.M_at(x, ts), m),
                              (hf.delta_at(x, ts), _bilinear_reference(hf.delta, xg, tg, x, ts))):
                assert np.array_equal(got, want)
        for got, surf in ((hf.H_at(x), hf.H), (hf.Z_at(x), hf.Z)):
            assert np.array_equal(got, _bilinear_reference(surf, xg, tg, x))


def test_compute_M_rejects_a_nan_sigma():
    # sigma is NaN at x = 0, inside the continuation region (R(0) = 1)
    x = np.linspace(-2.0, 2.0, 81)
    bar = br.Barrier(x=x, R=np.maximum(1.0 - x * x, 0.0), horizon=2.0)
    diff = ob.DiffusionSpec(sigma=lambda s: np.where(np.abs(s) < 1e-12, np.nan, 1.0),
                            dsigma=lambda s: np.zeros_like(s))
    with pytest.raises(ValueError):
        opt.compute_M(diff, bar, opt.variance_call(0.5), x, nt=50)


def test_M_clip_is_reported(dense_swap_report, dense_call_report, parabola_hedge):
    # the clip M >= f only mends round-off on these inputs
    for rep in (dense_swap_report, dense_call_report):
        assert rep.diagnostics["M_clip"] == rep.hedge.M_clip
        assert 0.0 <= rep.hedge.M_clip <= 1e-12
    assert 0.0 <= parabola_hedge[0].M_clip <= 1e-12
