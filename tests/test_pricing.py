import json
from types import SimpleNamespace

import numpy as np
import pytest

from rootbarrier import measures as ms
from rootbarrier import optimality as opt
from rootbarrier import pricing as pr
from rootbarrier import simulate as sim


def test_swap_bound_matches_log_contract(dense_swap_report, dense_market):
    sv = pr.swap_value(dense_market)
    # at B_T = 1 and S0 = 1 the swap is -2 E ln X, twice the log contract's short
    assert sv == pytest.approx(-2.0 * pr.log_contract_value(dense_market), rel=1e-12)
    rel = abs(dense_swap_report.lower_bound - sv) / sv
    assert rel < 1e-4
    # and the Black-Scholes reference sigma^2 T up to quote discretization
    assert dense_swap_report.lower_bound == pytest.approx(0.04, rel=2e-3)


def test_swap_bound_at_a_nonzero_rate():
    # the quotes discount at 3%: B_T = e^{rT}, and the swap pays
    # sigma^2 T at T, so it costs e^{-rT} sigma^2 T today
    market = pr.synthetic_lognormal_quotes(spot=1.0, vol=0.2, maturity=1.0, rate=0.03, n_strikes=301)
    rep = pr.lower_bound(market, opt.variance_swap())
    sv = pr.swap_value(market)
    assert abs(rep.lower_bound - sv) / sv < 1e-4
    assert rep.lower_bound == pytest.approx(np.exp(-0.03) * 0.04, rel=2e-3)


def test_static_portfolio_absolute_value_kink():
    # |x - S0| decomposes into one unit of call plus one of put at the spot
    nodes = np.array([0.5, 1.0, 1.5])
    h = np.abs(nodes - 1.0)
    cash, fwd, weights = pr.static_portfolio(nodes, h, spot=1.0, growth=1.0)
    assert cash == pytest.approx(-1.0)      # forward leg rebate
    assert fwd == pytest.approx(1.0)
    assert len(weights) == 1
    k, w = weights[0]
    assert k == pytest.approx(1.0)
    assert w == pytest.approx(2.0)


def test_static_portfolio_quadratic():
    nodes = np.linspace(0.5, 1.5, 11)
    h = nodes ** 2
    cash, fwd, weights = pr.static_portfolio(nodes, h, spot=1.0, growth=1.0)
    dk = nodes[1] - nodes[0]
    assert np.allclose([w for _, w in weights], 2.0 * dk)


@pytest.mark.parametrize("nodes, h, message", [
    ([0.5, 1.2, 1.5], [0.5, 0.2, 0.5], "spot must be one of the portfolio nodes"),
    ([0.5, 1.0, 1.0 + 1e-12, 1.5], [0.0, 0.0, 1.0, 1.0], "finite cost"),
], ids=["spot-off-the-nodes", "unbounded-weights"])
def test_static_portfolio_refusals(nodes, h, message):
    with pytest.raises(ValueError, match=message):
        pr.static_portfolio(np.array(nodes), np.array(h), spot=1.0, growth=1.0)


def test_black_scholes_call_at_zero_vol_is_discounted_intrinsic():
    c = pr.black_scholes_call(1.0, np.array([0.9, 1.0, 1.2]), vol=0.0, maturity=1.0, rate=0.05)
    assert np.allclose(c, np.exp(-0.05) * np.maximum(np.exp(0.05) - np.array([0.9, 1.0, 1.2]), 0.0),
                       rtol=0.0, atol=1e-15)


def test_replication_identity_at_nodes(dense_swap_report):
    rep = dense_swap_report
    mu = rep.implied_measure
    vals = pr._static_value(rep, mu.locations)
    target = rep.hedge.H_at(mu.locations)
    assert np.max(np.abs(vals - target)) < 1e-10


def test_degenerate_quotes_give_zero_bound():
    ks = np.round(np.arange(0.1, 2.0001, 0.05), 10)
    mkt = pr.MarketData(spot=1.0, discount=1.0, maturity=1.0,
                        strikes=ks, prices=np.maximum(1.0 - ks, 0.0))
    rep = pr.lower_bound(mkt, opt.variance_call(0.01))
    assert rep.lower_bound == pytest.approx(0.0, abs=1e-12)


def test_lower_bound_rejects_an_uncapped_payoff_on_open_nodes(two_atom_market):
    # between the two atoms the barrier never closes; a payoff whose
    # derivative never flattens has no finite hedge there
    unbounded = opt.custom_payoff(lambda t: np.asarray(t, dtype=float) ** 2 / 2,
                                  lambda t: np.asarray(t, dtype=float),
                                  f_bound=np.inf, cap_time=np.inf)
    with pytest.raises(ms.MeasureError, match="grid nodes never reach the obstacle"):
        pr.lower_bound(two_atom_market, unbounded, pr.PricingConfig(nx=201, nt=200))


def test_lower_bound_refuses_a_payoff_that_is_not_convex(two_atom_market, falling_payoff):
    with pytest.raises(ValueError, match="payoff derivative must be non-decreasing"):
        pr.lower_bound(two_atom_market, falling_payoff, pr.PricingConfig(nx=201, nt=200))


def test_variance_call_bounds_sandwich_and_monotone(dense_market):
    sv = pr.swap_value(dense_market)
    bounds = {}
    for k in (0.01, 0.04, 0.08):
        rep = pr.lower_bound(dense_market, opt.variance_call(k))
        bounds[k] = rep.lower_bound
        # Jensen: E tau = B_T sv for every UI embedding, so the bound of a
        # convex F is at least F(B_T sv) / B_T; reported, not clamped
        d = rep.diagnostics
        assert d["jensen_floor"] == max(sv - k, 0.0)
        assert d["below_jensen_floor"] == (bounds[k] < d["jensen_floor"])
        if k == 0.04:
            # K sits at the flat barrier time, where R is read a step late
            # on the default grid: the bound 1.26e-5 reads below the floor
            assert d["jensen_floor"] == pytest.approx(1.828e-5, rel=1e-3)
            assert d["below_jensen_floor"]
    # under the generating model realized variance is deterministic 0.04
    assert bounds[0.04] <= 1e-4
    assert bounds[0.08] <= bounds[0.04] + 1e-12
    assert bounds[0.04] <= bounds[0.01] + 1e-12
    # K = 0.01 is forced near swap - K by the same sandwich
    assert bounds[0.01] == pytest.approx(sv - 0.01, abs=2e-4)
    assert all(b >= -1e-12 for b in bounds.values())


def test_subhedge_under_admissible_models(dense_call_report):
    models = [
        sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.2, rate=0.0),
        sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.35, rate=0.02),
        sim.PriceModel(kind="piecewise", s0=1.0, maturity=1.0,
                       vol=(np.array([0.5]), np.array([0.15, 0.3])), rate=0.0),
    ]
    for m in models:
        out = pr.verify_subhedge(dense_call_report, m, n=2000, seed=77, dt=1e-3)
        assert out["fraction_subhedged"] >= 0.99, m.kind


def test_subhedge_zero_vol_model(dense_call_report):
    m = sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.0, rate=0.0)
    out = pr.verify_subhedge(dense_call_report, m, n=500, seed=3, dt=1e-2)
    assert out["fraction_subhedged"] == 1.0
    # zero realized variance: portfolio cannot exceed F(0) = 0
    assert out["mean_portfolio_discounted"] <= out["allowance"]


def _exit_time_call(a, b, y0, drift, k, terms=100_000):
    """E (tau - k)^+ for the exit time of (a, b) by Y = y0 + W + drift t.

    The eigenfunction series of the killed process: P(tau > t) is a sum of
    c_n exp(-lam_n t), lam_n = (drift^2 + (n pi / L)^2) / 2 with L = b - a,
    so the call is the sum of c_n exp(-lam_n k) / lam_n.
    """
    n = np.arange(1, terms + 1)
    length = b - a
    kn = n * np.pi / length
    lam = 0.5 * (drift ** 2 + kn ** 2)
    c = (2.0 / length) * np.exp(drift * (a - y0)) * np.sin(kn * (y0 - a)) \
        * kn * (1.0 - (-1.0) ** n * np.exp(drift * length)) / (drift ** 2 + kn ** 2)
    return float(np.sum(c * np.exp(-lam * k) / lam))


def test_two_atom_bound_matches_the_exit_time_series(two_atom_market):
    # delta_1 -> {0.7, 1.4} has one UI embedding, the exit from (0.7, 1.4),
    # so the bound is exact: E (tau - 0.05)^+ for Y = ln X, dY = dW - dt/2.
    # The default grid reads +6.0e-5 relative; a march that runs on past
    # the barrier's closure to the horizon read +8.8e-4
    a, b = np.log(0.7), np.log(1.4)
    exact = _exit_time_call(a, b, 0.0, -0.5, 0.05)
    assert exact == pytest.approx(0.0732499592, rel=1e-9)
    rep = pr.lower_bound(two_atom_market, opt.variance_call(0.05))
    # E tau from the same series is the swap value
    assert _exit_time_call(a, b, 0.0, -0.5, 0.0) == pytest.approx(
        rep.diagnostics["swap_value"], rel=1e-9)
    assert abs(rep.lower_bound / exact - 1.0) <= 1e-4


def test_attaining_model_is_tight(two_atom_market):
    rep = pr.lower_bound(two_atom_market, opt.variance_call(0.05))
    out = pr.verify_subhedge(rep, rep.attaining_model(), n=10_000, seed=9, dt=1e-4)
    assert out["tight"], (out["tightness_gap"], out["se_portfolio"])
    batch = sim.simulate_price_model(rep.attaining_model(), n=20_000, dt=1e-4, seed=3)
    ks = sim.ks_statistic(batch.stopped_values, rep.implied_measure)
    assert ks <= sim.ks_critical_value(batch.n, 0.01)


def test_attaining_model_terminal_law_dense(dense_call_report):
    tc = dense_call_report.attaining_model()
    batch = sim.simulate_price_model(tc, n=20_000, dt=1e-4, seed=3)
    ks = sim.ks_statistic(batch.stopped_values, dense_call_report.implied_measure)
    # dense atomic targets are matched at grid resolution, not exactly
    assert ks <= 3 * sim.ks_critical_value(batch.n, 0.01)
    sv = dense_call_report.diagnostics["swap_value"]
    assert np.mean(batch.realized_variance) == pytest.approx(sv, rel=2e-2)


@pytest.mark.parametrize("kind", ["attaining", "piecewise"])
def test_subhedge_marks_the_models_own_paths(two_atom_market, monkeypatch, kind):
    # the static leg is paid on exactly the terminal states simulate_price_model returns
    rep = pr.lower_bound(two_atom_market, opt.variance_call(0.05),
                         pr.PricingConfig(nx=201, nt=400, nt_hedge=500))
    model = rep.attaining_model() if kind == "attaining" else sim.PriceModel(
        kind="piecewise", s0=1.0, maturity=1.0, vol=(np.array([0.5]), np.array([0.15, 0.3])))
    seen = []
    static_value = pr._static_value
    monkeypatch.setattr(pr, "_static_value", lambda report, x: seen.append(x.copy()) or static_value(report, x))
    pr.verify_subhedge(rep, model, n=400, seed=5, dt=1e-3)
    batch = sim.simulate_price_model(model, n=400, dt=1e-3, seed=5)
    assert len(seen) == 1 and np.array_equal(seen[0], batch.stopped_values)


def test_time_change_model_needs_a_barrier(dense_call_report):
    model = sim.PriceModel(kind="time-change-to-barrier", s0=1.0, maturity=1.0)
    with pytest.raises(ValueError, match="time-change model needs a barrier"):
        sim.simulate_price_model(model, n=10, dt=1e-2, seed=0)
    with pytest.raises(ValueError, match="time-change model needs a barrier"):
        pr.verify_subhedge(dense_call_report, model, n=10, dt=1e-2)


def test_upper_bound_concave_constant_derivative(dense_market):
    # f == 1: the concave complement has zero payoff and zero upper bound
    L = pr.ConcavePayoff(L=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                         l=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                         l_zero_time=0.0, label="null")
    out = pr.upper_bound_concave(dense_market, f_bound=1.0, payoff_L=L)
    assert out["upper_bound"] == pytest.approx(0.0, abs=2e-5)
    assert out["identity_sum"] == pytest.approx(out["swap_value"], abs=1e-12)


def test_upper_bound_concave_capped_identity(dense_market):
    # L(t) = min(t, N): complement of the variance call at N
    N = 0.03
    L = pr.ConcavePayoff(
        L=lambda t: np.minimum(np.asarray(t, dtype=float), N),
        l=lambda t: (np.asarray(t, dtype=float) < N).astype(float),
        l_zero_time=N, label=f"capped swap {N}")
    out = pr.upper_bound_concave(dense_market, f_bound=1.0, payoff_L=L)
    lower_call = pr.lower_bound(dense_market, opt.variance_call(N)).lower_bound
    assert out["lower_bound_complement"] == pytest.approx(lower_call, abs=1e-10)
    assert out["upper_bound"] == pytest.approx(out["swap_value"] - lower_call, abs=1e-12)
    # under the generating model L pays min(0.04, 0.03) = 0.03 exactly, and
    # the sandwich pins the upper bound onto it
    assert out["upper_bound"] == pytest.approx(0.03, abs=1e-3)


def test_market_data_files_round_trip(tmp_path, dense_market):
    csv = tmp_path / "quotes.csv"
    with open(csv, "w") as fh:
        fh.write("strike,price\n")
        for k, c in zip(dense_market.strikes, dense_market.prices):
            fh.write(f"{k},{c}\n")
    side = tmp_path / "market.json"
    side.write_text(json.dumps({"spot": 1.0, "discount_factor": 1.0, "maturity": 1.0}))
    mkt = ms.load_quotes(str(csv), str(side))
    assert np.allclose(mkt.strikes, dense_market.strikes)
    assert np.allclose(mkt.prices, dense_market.prices)


def test_hedge_report_serializes(dense_swap_report):
    doc = dense_swap_report.to_json_dict()
    blob = json.dumps(doc)
    assert "lower_bound" in doc and "strike_weights" in doc
    assert len(blob) > 100
    # the march stops once the barrier carries the implied law, near the
    # swap value 0.04 of a horizon of 8 swap values
    steps = doc["diagnostics"]["obstacle_steps"]
    assert 0 < steps < pr.PricingConfig().nt // 4
    assert dense_swap_report.barrier.horizon == doc["diagnostics"]["variance_horizon"]


def test_delta_handle_scaling(dense_call_report):
    x = np.array([0.95, 1.0, 1.05])
    d_report = dense_call_report.delta(x, 0.01)
    d_hedge = dense_call_report.hedge.delta_at(x, 0.01)
    assert np.allclose(d_report, d_hedge / dense_call_report.market.growth)


def test_delta_read_at_each_paths_own_variance(dense_call_report):
    # the hedge account reads delta at every path's own accrued variance,
    # also past the tabulated slab T_M
    hf = dense_call_report.hedge
    rng = np.random.default_rng(2)
    x_old = rng.uniform(hf.x[0] - 0.1, hf.x[-1] + 0.1, 400)
    x_new = x_old * np.exp(0.01 * rng.standard_normal(400))
    rv = sim._RealizedVariance()
    rv.values = np.concatenate((rng.uniform(0.0, hf.T_M, 300), hf.T_M + rng.uniform(0.0, 0.05, 100)))
    account = pr._HedgeAccount(hf, rv)
    account.start(x_old, 1, 1e-3)
    account(SimpleNamespace(x_old=x_old, x_new=x_new, ids=np.arange(400)))
    for i in range(400):
        phi = hf.delta_at(x_old[i:i + 1], rv.values[i])[0]
        assert account.values[i] == phi * (x_new[i] - x_old[i])
