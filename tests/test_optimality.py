import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from rootbarrier import barrier as br
from rootbarrier import measures as ms
from rootbarrier import obstacle as ob
from rootbarrier import optimality as opt
from rootbarrier import parabola as pb
from rootbarrier import pricing as pr
from rootbarrier import simulate as sim
from oracle import hedge_reference, march_reference


@pytest.mark.parametrize("shape", [(301,), (301, 7), (1,), (2,), (2, 5)], ids=["1-D", "2-D", "1", "2", "2x5"])
@pytest.mark.parametrize("nodes", ["uniform", "uneven"])
def test_cumulative_trapezoid_is_scipys(shape, nodes):
    # the running trapezoid on every shape, its rows stacked; _cumtrapz on vectors only
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 2.5, shape[0])
    if nodes == "uneven":
        x = np.cumsum(rng.exponential(0.01, shape[0]))
    y = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
    want = cumulative_trapezoid(y, x, axis=0, initial=0.0)
    running = np.array([run.copy() for run in opt._running_trapezoid(y, np.diff(x))])
    assert running.tobytes() == want.tobytes()
    if len(shape) == 1:
        assert np.array_equal(opt._cumtrapz(y, x), want)
    else:       # np.trapezoid sums a surface's rows in order (a vector's pairwise)
        assert running[-1].tobytes() == np.trapezoid(y, x, axis=0).tobytes()
        with pytest.raises(ValueError):
            opt._cumtrapz(y, x)


def _flat_hedge():
    xg = np.linspace(-6.5, 6.5, 1301)
    bar = br.from_function(lambda s: np.ones_like(s), xg, 2.0)
    return opt.build_hedge(ob.brownian(), bar, opt.power_payoff(2.0, cap=4.0), xg, nt=800, base_point=0.0)


def _open_capped_hedge():
    x = np.linspace(-2.0, 2.0, 201)
    bar = br.Barrier(x=x, R=np.where(np.abs(x) < 1.0 - 1e-9, np.inf, 0.0), horizon=1.0)
    return opt.build_hedge(ob.brownian(), bar, opt.variance_call(0.3), x, nt=300)


@pytest.mark.parametrize("case", ["dense-call", "dense-swap", "parabola", "flat", "two-atom-500", "open-capped"])
def test_hedge_build_gives_the_reference_bytes(case, request):
    """build_hedge's M, clip and surfaces are those of the per-step np.where march, byte for byte."""
    hf, diff = {
        "dense-call": lambda: (request.getfixturevalue("dense_call_report").hedge, ob.geometric_brownian()),
        "dense-swap": lambda: (request.getfixturevalue("dense_swap_report").hedge, ob.geometric_brownian()),
        "parabola": lambda: (request.getfixturevalue("parabola_hedge")[0], ob.brownian()),
        "flat": lambda: (_flat_hedge(), ob.brownian()),
        "two-atom-500": lambda: (pr.lower_bound(request.getfixturevalue("two_atom_market"), opt.variance_call(0.05),
                                                pr.PricingConfig(nx=201, nt=400, nt_hedge=500)).hedge,
                                 ob.geometric_brownian()),
        "open-capped": lambda: (_open_capped_hedge(), ob.brownian()),
    }[case]()
    ref = hedge_reference(diff, hf.barrier, hf.payoff, hf.x, len(hf.t) - 1, hf.base_point, hf.T_M)
    assert np.float64(hf.M_clip).tobytes() == np.float64(ref["clip"]).tobytes()
    for name in ("M", "Z", "G", "H", "delta", "F_grid"):
        assert getattr(hf, name).tobytes() == ref[name].tobytes(), name
    if case == "dense-swap":            # f = 1 from its cap at 0: no step is marched
        assert np.all(hf.M == 1.0) and hf.M_clip == 0.0


@pytest.mark.parametrize("report", ["dense_swap_report", "dense_call_report"])
def test_M_march_starts_at_the_cap(report, request, monkeypatch):
    """compute_M solves only the steps below the first node at or past cap_time."""
    hf = request.getfixturevalue(report).hedge
    nt = len(hf.t) - 1
    j0 = int(np.searchsorted(hf.t, hf.payoff.cap_time))
    assert j0 == {"dense_swap_report": 0, "dense_call_report": 995}[report] and j0 < nt
    solves = []

    def counted(*rows):
        solves.append(1)
        return solve(*rows)

    solve = opt._tridiag_solve
    monkeypatch.setattr(opt, "_tridiag_solve", counted)
    m = opt.compute_M(ob.geometric_brownian(), hf.barrier, hf.payoff, hf.x, nt, t_max=hf.T_M)
    assert len(solves) == j0
    assert np.array_equal(m.values, hf.M)
    # the march over every step from T_M differs only by round-off
    full, _ = march_reference(ob.geometric_brownian(), hf.barrier, hf.payoff, hf.x, nt, hf.T_M, nt)
    assert 0.0 < np.max(np.abs(hf.M - full)) <= 1e-14


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
    (lambda: opt.custom_payoff(lambda t: np.where(np.asarray(t) < 1.0, np.asarray(t) ** 2 / 2, np.asarray(t) - 0.5),
                               lambda t: np.minimum(np.asarray(t, dtype=float), 1.0), 1.0, cap_time=0.5),
     "after cap_time"),
], ids=["derivative-above-bound", "F-not-the-integral", "power-not-above-1", "moves-after-cap"])
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


def test_pathwise_check_needs_no_surface_of_scratch(parabola_hedge):
    hf = parabola_hedge[0]
    hf.G                                    # built before the check, as its first reader would
    tracemalloc.start()
    try:
        opt.verify_pathwise(hf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hf.M.shape == (2401, 601) and peak < 0.5 * hf.M.nbytes


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


def _martingale_figures(request, monkeypatch):
    hf, seen, G_at = request.getfixturevalue("parabola_hedge")[0], [], opt.HedgeFunctions.G_at
    monkeypatch.setattr(opt.HedgeFunctions, "G_at", lambda self, x, t: seen.append(G_at(self, x, t)) or seen[-1])
    rep = opt.verify_martingale(hf, ob.brownian(), ms.point_mass(0.0),
                                n=2000, seed=5, ladder=[0.5, 1.0, 2.0], dt=1e-2)
    # G is read per rung, at the stopped paths and then at the free ones
    return rep, [(rep[f"{kind}_means"][k], rep[f"{kind}_ses"][k], seen[2 * k + (kind == "unstopped")])
                 for kind in ("stopped", "unstopped") for k in range(3)]


def _gap_figures(request, monkeypatch):
    mu, x, payoff = ms.normal(0.0, 1.0), np.linspace(-6.5, 6.5, 301), opt.power_payoff(2.0, cap=4.0)
    hf = opt.build_hedge(ob.brownian(), br.from_function(lambda s: np.ones_like(s), x, horizon=2.0),
                         payoff, x, nt=200, base_point=0.0)
    bar = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([1.0, 1.0]), horizon=2.0)
    root = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), bar, n=2000, dt=0.01, seed=1)
    comp = sim.hall_competitor(mu, n=3000, dt=1e-3, seed=2)
    rep = opt.optimality_gap(hf, payoff, root, comp, mu)
    vals = comp.stopped_values
    return rep, [(rep["EF_root"], rep["se_root"], payoff.F(root.stop_times)),
                 (rep["EF_competitor"], rep["se_competitor"], payoff.F(comp.stop_times)),
                 (rep["E_GH_competitor"], rep["se_GH"], hf.G_at(vals, comp.stop_times) + hf.H_at(vals))]


def _subhedge_figures(request, monkeypatch):
    rep, legs, accounts = request.getfixturevalue("dense_call_report"), [], []
    static_value = pr._static_value
    monkeypatch.setattr(pr, "_static_value", lambda r, x: legs.append(static_value(r, x)) or legs[-1])

    class Account(pr._HedgeAccount):
        def start(self, x0, n_steps, dt):
            accounts.append(self)
            super().start(x0, n_steps, dt)
    monkeypatch.setattr(pr, "_HedgeAccount", Account)
    model = sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.2, rate=0.0)
    out = pr.verify_subhedge(rep, model, n=500, seed=3, dt=1e-2)
    portfolio = float(0.0 - rep.hedge.Z_at([1.0])[0]) + accounts[0].values + legs[0]
    assert rep.market.growth == 1.0
    return out, [(out["mean_portfolio_discounted"], out["se_portfolio"], portfolio)]


@pytest.mark.parametrize("figures", [_martingale_figures, _gap_figures, _subhedge_figures],
                         ids=["verify_martingale", "optimality_gap", "verify_subhedge"])
def test_monte_carlo_reports_give_each_mean_and_standard_error_as_plain_floats(figures, request, monkeypatch):
    rep, named = figures(request, monkeypatch)
    for mean, se, samples in named:
        assert (mean, se) == (float(np.mean(samples)), float(np.std(samples) / math.sqrt(len(samples))))
    values = [v for v in rep.values() if not isinstance(v, list)]
    values += [v for lst in rep.values() if isinstance(lst, list) for v in lst]
    floats = [v for v in values if isinstance(v, float)]
    assert len(floats) >= 2 * len(named) and all(type(v) is float for v in floats)
    assert json.loads(json.dumps(rep)) == rep


def test_compute_M_horizon_guard():
    # open nodes need f constant by the horizon: with f never flattening no horizon helps
    x = np.linspace(-2.0, 2.0, 101)
    R = np.where(np.abs(x) < 1.0, np.inf, 0.0)
    bar = br.Barrier(x=x, R=R, horizon=1.0)
    unbounded = opt.custom_payoff(lambda t: np.asarray(t, dtype=float) ** 2 / 2,
                                  lambda t: np.asarray(t, dtype=float),
                                  f_bound=np.inf, cap_time=np.inf)
    for t_max in (None, 5.0, 500.0):
        with pytest.raises(ob.SolverError, match="cap the payoff derivative") as err:
            opt.compute_M(ob.brownian(), bar, unbounded, x, nt=50, t_max=t_max)
        assert "horizon" not in str(err.value)
    # f flattens at 0.3, past the given horizon: a longer one closes the region
    with pytest.raises(ob.SolverError, match=r"t=0\.2: increase the horizon to the payoff's cap time 0\.3 "):
        opt.compute_M(ob.brownian(), bar, opt.variance_call(0.3), x, nt=50, t_max=0.2)


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


def test_G_and_delta_are_built_on_first_read(dense_market, monkeypatch):
    hf = _open_capped_hedge()
    assert "G" not in vars(hf) and "delta" not in vars(hf)
    rep = pr.lower_bound(dense_market, opt.variance_swap())
    assert "G" not in vars(rep.hedge) and "delta" not in vars(rep.hedge)
    built, build = [], opt.HedgeFunctions.G.func

    def counted(self):
        G = build(self)
        built.append(G.shape)
        return G

    monkeypatch.setattr(opt.HedgeFunctions.G, "func", counted)
    tracemalloc.start()
    try:
        delta = hf.delta
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # delta builds no G, and holds no second surface while it forms its own
    assert built == [] and "G" not in vars(hf) and peak < 2 * hf.M.nbytes
    G = hf.G
    assert built == [hf.M.shape] and hf.G is G and hf.delta is delta
    assert built == [hf.M.shape]


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
