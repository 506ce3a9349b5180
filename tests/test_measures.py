import json
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from rootbarrier import measures as ms
from rootbarrier import simulate as sim

# high-resolution quadrature of -int |y| phi(y) dy, frozen
U_N01_AT_ZERO = -0.7978845608028654


def quad_potential(pdf, x, lo, hi):
    return -quad(lambda y: abs(y - x) * pdf(y), lo, hi, limit=400)[0]


def test_point_mass_potential():
    u = ms.potential(ms.point_mass(0.0), np.array([-1.0, 0.0, 1.0]))
    assert np.allclose(u.values, [-1.0, 0.0, -1.0])


def test_potential_refuses_a_grid_that_is_not_increasing():
    with pytest.raises(ValueError, match="strictly increasing"):
        ms.potential(ms.point_mass(0.0), np.array([1.0, 0.0]))


def test_two_atom_potential_at_origin():
    m = ms.atoms([-1.0, 1.0], [0.5, 0.5])
    assert ms.potential(m, np.array([0.0])).values[0] == pytest.approx(-1.0)


def test_normal_potential_matches_quadrature():
    m = ms.normal(0.0, 1.0)
    assert ms.potential(m, np.array([0.0])).values[0] == pytest.approx(U_N01_AT_ZERO, abs=1e-12)
    xs = np.linspace(-4.0, 4.0, 9)
    oracle = np.array([quad_potential(norm.pdf, x, -14, 14) for x in xs])
    assert np.max(np.abs(ms.potential(m, xs).values - oracle)) < 1e-9


def test_lognormal_potential_matches_quadrature():
    a, b2 = -0.02, 0.04
    m = ms.lognormal(a, b2)
    assert m.mean == pytest.approx(1.0)

    def pdf(y):
        return np.exp(-((np.log(y) - a) ** 2) / (2 * b2)) / (y * np.sqrt(2 * np.pi * b2))

    xs = np.linspace(0.2, 3.0, 8)
    oracle = np.array([quad_potential(pdf, x, 1e-9, 60) for x in xs])
    assert np.max(np.abs(ms.potential(m, xs).values - oracle)) < 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_potential_shape_properties(seed):
    # concave, 1-Lipschitz, tails hug -|x - mean|
    rng = np.random.default_rng(seed)
    locs = np.sort(rng.normal(0.0, 2.0, 12))
    w = rng.random(12)
    m = ms.atoms(locs, w / w.sum())
    grid = np.linspace(locs.min() - 6, locs.max() + 6, 400)
    u = ms.potential(m, grid).values
    slopes = np.diff(u) / np.diff(grid)
    assert np.all(slopes <= 1.0 + 1e-12) and np.all(slopes >= -1.0 - 1e-12)
    assert np.max(np.diff(slopes)) <= 1e-10
    assert abs(u[0] + abs(grid[0] - m.mean)) < 1e-9
    assert abs(u[-1] + abs(grid[-1] - m.mean)) < 1e-9


def test_embeddable_dilation_passes():
    r = ms.check_embeddable(ms.point_mass(0.0), ms.atoms([-1, 1], [0.5, 0.5]))
    assert r.passed and r.max_violation <= 0.0


def test_embeddable_reverse_fails_at_origin():
    r = ms.check_embeddable(ms.atoms([-1, 1], [0.5, 0.5]), ms.point_mass(0.0))
    assert not r.passed
    assert r.max_violation == pytest.approx(1.0)
    assert r.argmax == pytest.approx(0.0)


def test_embeddable_geometric_pair():
    r = ms.check_embeddable(ms.point_mass(1.0), ms.lognormal(-0.02, 0.04))
    assert r.passed


@pytest.mark.parametrize("seed", [3, 4])
def test_convex_order_monotone_potentials(seed):
    # split every atom into a centered pair: a martingale dilation, so the
    # ordered-potential test must pass and potentials must be ordered
    rng = np.random.default_rng(seed)
    locs = np.sort(rng.normal(0.0, 1.0, 6))
    w = rng.random(6)
    w = w / w.sum()
    nu = ms.atoms(locs, w)
    spread = rng.random(6)
    mu = ms.atoms(
        np.concatenate([locs - spread, locs + spread]),
        np.concatenate([w / 2, w / 2]),
    )
    rep = ms.check_embeddable(nu, mu)
    assert rep.passed
    grid = np.linspace(-8, 8, 500)
    assert np.all(ms.potential(nu, grid).values >= ms.potential(mu, grid).values - 1e-12)


def _dense_reference(nu, mu):
    """Max of U_mu - U_nu on a fine grid through every atom, and its verdict."""
    lo = min(nu.support[0], mu.support[0]) - 1.0
    hi = max(nu.support[1], mu.support[1]) + 1.0
    grid = np.union1d(np.linspace(lo, hi, 4001), np.concatenate((nu.locations, mu.locations)))
    u_mu = ms.potential(mu, grid).values
    diff = u_mu - ms.potential(nu, grid).values
    scale = max(1.0, float(np.max(np.abs(u_mu))))
    passed = (diff.max() <= ms.EMBED_TOL * scale
              and abs(nu.mean - mu.mean) <= 1e-7 * max(1.0, abs(mu.mean)))
    return float(diff.max()), passed, scale


def _random_pair(rng, case):
    k = int(rng.integers(1, 8))
    locs = rng.normal(0.0, 1.0, k)
    w = rng.random(k) + 0.05
    w = w / w.sum()
    if case == "independent":
        # same mean, otherwise unrelated: either verdict can come out
        other = rng.normal(0.0, 1.5, k + 2)
        ow = rng.random(k + 2) + 0.05
        ow = ow / ow.sum()
        other = other - np.dot(ow, other) + np.dot(w, locs)
        return ms.atoms(locs, w), ms.atoms(other, ow)
    if case == "tied":
        # repeated locations in both laws, and atoms shared between them
        locs = np.round(locs, 1)
        locs = np.concatenate((locs, locs[:1]))
        w = np.concatenate((w * 0.8, [0.2]))
    spread = rng.random(len(locs))
    nu = ms.atoms(locs, w)
    mu = ms.atoms(np.concatenate((locs - spread, locs, locs + spread)),
                  np.concatenate((w / 4, w / 2, w / 4)))
    return (mu, nu) if case == "reversed" else (nu, mu)


@pytest.mark.parametrize("case", ["dilation", "reversed", "tied", "independent"])
def test_union_of_atoms_check_matches_dense_reference(case):
    rng = np.random.default_rng(["dilation", "reversed", "tied", "independent"].index(case))
    verdicts = set()
    for _ in range(40):
        nu, mu = _random_pair(rng, case)
        rep = ms.check_embeddable(nu, mu)
        ref_max, ref_passed, scale = _dense_reference(nu, mu)
        assert rep.passed == ref_passed
        assert abs(rep.max_violation - ref_max) <= 1e-12 * scale
        verdicts.add(rep.passed)
    if case in ("dilation", "tied"):
        assert verdicts == {True}
    if case == "reversed":
        assert verdicts == {False}


def test_embeddable_check_memory_on_a_large_empirical_law():
    # the union of atoms costs a handful of arrays of the atom count
    law = ms.empirical(np.random.default_rng(1).standard_normal(600_000), recenter_to=0.0)
    tracemalloc.start()
    try:
        rep = ms.check_embeddable(ms.point_mass(0.0), law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert rep.argmax == law.locations[0]
    assert peak <= 25 * 2**20


@pytest.mark.parametrize("make", [
    lambda: ms.atoms([0.0, 1.0], [np.nan, 1.0]),
    lambda: ms.atoms([0.0, 1.0], [0.5, 0.5, 0.0]),
    lambda: ms.atoms([0.0, 1.0, 2.0], [1.0]),
    lambda: ms.atoms([], []),
    lambda: ms.atoms([[0.0, 1.0]], [[0.5, 0.5]]),
    lambda: ms.tabulated_density([0.0, 1.0, 2.0], [1.0, 1.0]),
    lambda: ms.atoms([0.0, 1.0], [0.5, 0.6]),
    lambda: ms.atoms([0.0, 1.0, 2.0], [0.5, 0.6, -0.1]),
    lambda: ms.atoms([0.0, np.inf], [0.5, 0.5]),
    lambda: ms.tabulated_density([0.0, 2.0, 1.0], [0.5, 0.5, 0.5]),
    lambda: ms.tabulated_density([0.0, 1.0, 2.0], [1.0, -0.5, 1.0]),
    lambda: ms.tabulated_density([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
    lambda: ms.normal(0.0, -1.0),
    lambda: ms.Measure(kind="normal", params={"mean": 0.0, "variance": 0.0}),
    lambda: ms.Measure(kind="lognormal", params={"log_mean": 0.0, "log_variance": 0.0}),
    lambda: ms.Measure(kind="cauchy"),
], ids=["nan-mass", "extra-mass", "missing-mass", "empty", "not-1d", "density-lengths",
        "total-mass", "negative-mass", "infinite-location", "density-unsorted", "density-negative",
        "density-mass", "normal-negative-variance", "normal-zero-variance",
        "lognormal-zero-variance", "unknown-kind"])
def test_malformed_discrete_law_is_a_measure_error(make):
    with pytest.raises(ms.MeasureError):
        make()


@pytest.mark.parametrize("table", [
    [[0.0], [1.0]],
    [0.0, 1.0],
    [[-1.0, 0.5, 9.0], [1.0, 0.5, 9.0]],
    [[-1.0, 0.5], [1.0]],
    "atoms",
], ids=["one-column", "flat", "three-columns", "ragged", "string"])
def test_malformed_atoms_file_is_a_measure_error(tmp_path, table):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "atoms", "atoms": table}))
    with pytest.raises(ms.MeasureError):
        ms.load_measure(str(path))


def bs_call(s0, k, vol, t):
    sd = vol * np.sqrt(t)
    d1 = (np.log(s0 / k) + 0.5 * sd * sd) / sd
    return s0 * norm.cdf(d1) - k * norm.cdf(d1 - sd)


def test_implied_measure_black_scholes_round_trip():
    # at r = 3% the quotes are discounted by df = e^{-rT} = 1/B_T; the law
    # of the discounted price X_T = S_T df is the same lognormal at any rate
    ks = np.linspace(0.2, 3.2, 301)
    for df in (1.0, np.exp(-0.03)):
        q = ms.CallQuotes(strikes=ks, prices=df * bs_call(1.0 / df, ks, 0.2, 1.0),
                          spot=1.0, discount=df, maturity=1.0)
        mu = ms.implied_measure_from_calls(q)
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert mu.mean == pytest.approx(1.0, abs=1e-8)
        # repricing the quotes against the implied law reproduces them
        assert np.max(np.abs(ms.call_prices(mu, ks, df) - q.prices)) < 1e-6
        # and the law is the lognormal one up to quote discretization
        grid = np.linspace(0.05, 4.0, 401)
        gap = np.abs(ms.potential(mu, grid).values
                     - ms.potential(ms.lognormal(-0.02, 0.04), grid).values)
        assert np.max(gap) < 1e-4


def test_implied_measure_two_point_curve():
    # piecewise-linear curve of a binary law: kinks recover the two atoms
    strikes = np.array([0.7, 1.05, 1.4])
    prices = np.array([0.3, 3.0 / 7.0 * 0.35, 0.0])
    q = ms.CallQuotes(strikes=strikes, prices=prices, spot=1.0, discount=1.0, maturity=1.0)
    mu = ms.implied_measure_from_calls(q)
    assert np.allclose(mu.locations, [0.7, 1.4])
    assert np.allclose(mu.weights, [4.0 / 7.0, 3.0 / 7.0])


def test_implied_measure_degenerate_curve():
    ks = np.round(np.arange(0.1, 2.0001, 0.05), 10)
    q = ms.CallQuotes(strikes=ks, prices=np.maximum(1.0 - ks, 0.0),
                      spot=1.0, discount=1.0, maturity=1.0)
    mu = ms.implied_measure_from_calls(q)
    big = mu.weights > 1e-12
    assert np.allclose(mu.locations[big], [1.0])
    assert mu.weights[big].sum() == pytest.approx(1.0)


def test_implied_measure_rejects_non_convex():
    ks = np.array([0.5, 1.0, 1.5])
    q = ms.CallQuotes(strikes=ks, prices=np.array([0.6, 0.5, 0.1]),
                      spot=1.0, discount=1.0, maturity=1.0)
    with pytest.raises(ms.ArbitrageError, match="convex"):
        ms.implied_measure_from_calls(q)


def test_implied_measure_rejects_increasing():
    # convex, but the curve ends rising
    ks = np.array([0.5, 1.0, 1.5])
    q = ms.CallQuotes(strikes=ks, prices=np.array([0.5, 0.3, 0.4]),
                      spot=1.0, discount=1.0, maturity=1.0)
    with pytest.raises(ms.ArbitrageError, match="not decreasing"):
        ms.implied_measure_from_calls(q)


@pytest.mark.parametrize("strikes, prices, spot, discount, message", [
    ([0.5, 1.0], [0.5, 0.1], 0.0, 1.0, "spot and discount"),
    ([0.5, 1.0], [0.5, 0.1], 1.0, np.inf, "spot and discount"),
    ([1.0, 0.5], [0.1, 0.5], 1.0, 1.0, "strictly increasing"),
    ([0.5, 1.0], [0.5, -0.1], 1.0, 1.0, "negative price"),
    ([0.5, 1.0], [0.3, 0.0], 1.0, 1.0, "slope below"),
], ids=["spot", "discount", "unsorted", "negative", "steep-at-zero"])
def test_implied_measure_rejects_bad_quotes(strikes, prices, spot, discount, message):
    q = ms.CallQuotes(strikes=np.array(strikes), prices=np.array(prices),
                      spot=spot, discount=discount, maturity=1.0)
    with pytest.raises(ms.ArbitrageError, match=message):
        ms.implied_measure_from_calls(q)


def test_implied_measure_rejects_atom_at_zero():
    # shallow slope at the origin leaves mass at zero: rejected, not repaired
    ks = np.array([1.0, 2.0])
    q = ms.CallQuotes(strikes=ks, prices=np.array([0.5, 0.0]),
                      spot=1.0, discount=1.0, maturity=1.0)
    with pytest.raises(ms.ArbitrageError, match="atom"):
        ms.implied_measure_from_calls(q)


def test_measure_json_round_trip(tmp_path):
    m = ms.atoms([-1.0, 0.5, 2.0], [0.25, 0.5, 0.25])
    path = tmp_path / "m.json"
    ms.save_measure(m, str(path))
    back = ms.load_measure(str(path))
    assert np.allclose(back.locations, m.locations)
    assert np.allclose(back.weights, m.weights)
    for maker in (lambda: ms.normal(0.1, 2.0), lambda: ms.lognormal(-0.1, 0.2)):
        ms.save_measure(maker(), str(path))
        assert ms.load_measure(str(path)).params == maker().params


def test_zero_variance_laws_are_point_masses(tmp_path):
    # normal(m, 0) and lognormal(a, 0) are the point masses at m and e^a,
    # from the constructors and from a measure file alike
    path = tmp_path / "m.json"
    for kind, params, at in (("normal", {"mean": 0.3, "variance": 0.0}, 0.3),
                             ("lognormal", {"log_mean": -0.2, "log_variance": 0.0}, np.exp(-0.2))):
        path.write_text(json.dumps({"kind": kind, "params": params}))
        for m in (ms.load_measure(str(path)), getattr(ms, kind)(*params.values())):
            assert m.kind == "atoms" and m.locations.tolist() == [at] and m.weights.tolist() == [1.0]


@pytest.mark.parametrize("law", [ms.normal(0.4, 2.0), ms.lognormal(-0.08, 0.16)], ids=["normal", "lognormal"])
def test_samples_match_the_mean_and_law(law):
    x = law.sample(40_000, np.random.default_rng(5))
    assert abs(x.mean() - law.mean) <= 4.0 * x.std() / np.sqrt(len(x))
    assert sim.ks_statistic(x, law) <= sim.ks_critical_value(len(x), 0.01)


def test_tabulated_density_file_loads_and_saves_as_atoms(tmp_path):
    x = np.linspace(-1.0, 1.0, 5)
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"kind": "tabulated-density",
                                "density_table": [[xi, 0.5] for xi in x]}))
    m = ms.load_measure(str(path))
    assert m.kind == "atoms"
    assert np.array_equal(m.locations, ms.tabulated_density(x, np.full(5, 0.5)).locations)
    ms.save_measure(m, str(path))
    assert json.loads(path.read_text())["kind"] == "atoms"
    path.write_text(json.dumps({"kind": "tabulated-density", "atoms": [[1.0, 0.5], [-1.0, 0.5]]}))
    back = ms.load_measure(str(path))
    assert back.kind == "atoms" and np.array_equal(back.locations, [-1.0, 1.0])


def test_quote_csv_round_trip(tmp_path):
    csv = tmp_path / "q.csv"
    csv.write_text("strike,price\n0.8,0.25\n1.2,0.05\n")
    side = tmp_path / "q.json"
    side.write_text(json.dumps({"spot": 1.0, "discount_factor": 0.99, "maturity": 0.5}))
    q = ms.load_quotes(str(csv), str(side))
    assert np.allclose(q.strikes, [0.8, 1.2])
    assert q.discount == pytest.approx(0.99)


def test_implied_measure_closes_a_curve_still_positive_at_its_last_quote():
    # law 0.25 / 0.5 / 0.25 at 0.5 / 1.0 / 1.5 of the discounted price,
    # quoted up to 1.25 only: the curve is continued at its last slope to
    # zero, and the kink there is the top atom.  With the discount factor
    # df = 1/B_T, the atom at x sits at the strike x / df.
    df = 0.95
    strikes = np.array([0.5, 1.0, 1.25]) / df
    law = ms.atoms([0.5, 1.0, 1.5], [0.25, 0.5, 0.25])
    prices = ms.call_prices(law, strikes, df)
    q = ms.CallQuotes(strikes=strikes, prices=prices, spot=1.0, discount=df, maturity=1.0)
    mu = ms.implied_measure_from_calls(q)
    s_last = (prices[-1] - prices[-2]) / (strikes[-1] - strikes[-2])
    k_star = strikes[-1] - prices[-1] / s_last
    assert prices[-1] > 0.06
    assert mu.locations[-1] == pytest.approx(k_star * df, rel=1e-12)
    assert mu.weights[-1] == pytest.approx(-s_last / df, rel=1e-12)
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert mu.mean == pytest.approx(q.spot, abs=1e-12)
    assert np.allclose(mu.locations, law.locations) and np.allclose(mu.weights, law.weights)


def test_implied_measure_rejects_a_curve_flat_at_a_positive_last_quote():
    ks = np.array([0.5, 1.0, 1.5])
    q = ms.CallQuotes(strikes=ks, prices=np.array([0.5, 0.25, 0.25]),
                      spot=1.0, discount=1.0, maturity=1.0)
    with pytest.raises(ms.ArbitrageError, match="does not decay"):
        ms.implied_measure_from_calls(q)
