import numpy as np
import pytest
from scipy.stats import norm

from rootbarrier import barrier as br
from rootbarrier import measures as ms
from rootbarrier import obstacle as ob
from rootbarrier import optimality as opt
from rootbarrier import parabola as pb
from rootbarrier import pricing as pr
from rootbarrier import simulate as sim

N_PATHS = 50_000


@pytest.fixture(scope="module")
def unit_time_batch():
    b = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([1.0, 1.0]), horizon=2.0)
    return sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b,
                                n=N_PATHS, dt=1 / 500, seed=7)


def test_unit_barrier_embeds_standard_normal(unit_time_batch):
    batch = unit_time_batch
    assert np.all(batch.stop_times == 1.0)
    ks = sim.ks_statistic(batch.stopped_values, lambda s: norm.cdf(s))
    assert ks <= sim.ks_critical_value(batch.n, 0.01)


UNIT_BARRIER = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([1.0, 1.0]), horizon=2.0)
CONSTANT_VOL = sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.2, rate=0.0)


def spiked_time_change():
    """Time change to a barrier open between two spikes armed at time 0."""
    x = np.exp(np.linspace(-0.5, 0.5, 101))
    b = br.Barrier(x=x, R=np.where((x > 0.8) & (x < 1.25), np.inf, 0.0), horizon=1.0)
    return sim.PriceModel(kind="time-change-to-barrier", s0=1.0, maturity=1.0, barrier=b,
                          spikes=(np.array([0.8, 1.25]), np.array([0.0, 0.0])))


SEEDED_BATCHES = {
    "stopped": lambda: sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), UNIT_BARRIER,
                                            n=2000, dt=1 / 200, seed=11),
    "spiked-time-change": lambda: sim.simulate_price_model(spiked_time_change(), n=2000, dt=1e-3, seed=11),
    "hall": lambda: sim.hall_competitor(ms.atoms([-1.0, 0.0, 2.0], [0.5, 0.25, 0.25]),
                                        n=2000, dt=1e-3, seed=11),
}


@pytest.mark.parametrize("make", SEEDED_BATCHES.values(), ids=SEEDED_BATCHES.keys())
def test_seeded_determinism(make):
    b1, b2 = make(), make()
    assert np.array_equal(b1.stop_times, b2.stop_times)
    assert np.array_equal(b1.stopped_values, b2.stopped_values)
    assert (b1.realized_variance is None) == (b2.realized_variance is None)
    if b1.realized_variance is not None:
        assert np.array_equal(b1.realized_variance, b2.realized_variance)


PATH_ENTRY_POINTS = {
    "simulate_stopped": lambda req, n, dt: sim.simulate_stopped(
        ob.brownian(), ms.point_mass(0.0), UNIT_BARRIER, n=n, dt=dt, seed=1),
    "simulate_price_model[constant]": lambda req, n, dt: sim.simulate_price_model(
        CONSTANT_VOL, n=n, dt=dt, seed=1),
    "simulate_price_model[time-change]": lambda req, n, dt: sim.simulate_price_model(
        spiked_time_change(), n=n, dt=dt, seed=1),
    "hall_competitor": lambda req, n, dt: sim.hall_competitor(ms.normal(0.0, 1.0), n=n, dt=dt, seed=1),
    "verify_martingale": lambda req, n, dt: opt.verify_martingale(
        req.getfixturevalue("parabola_hedge")[0], ob.brownian(), ms.point_mass(0.0), n=n, dt=dt),
    "verify_subhedge": lambda req, n, dt: pr.verify_subhedge(
        req.getfixturevalue("dense_call_report"), CONSTANT_VOL, n=n, dt=dt),
}


@pytest.mark.parametrize("entry", PATH_ENTRY_POINTS)
@pytest.mark.parametrize("n, dt, name", [(10, 0.0, "dt"), (10, -1e-3, "dt"), (10, np.nan, "dt"),
                                         (0, 1e-2, "n"), (-5, 1e-2, "n")])
def test_bad_step_or_path_count_is_a_value_error(request, entry, n, dt, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        PATH_ENTRY_POINTS[entry](request, n, dt)


def test_zero_barrier_stops_at_start():
    b = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([0.0, 0.0]), horizon=1.0)
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b, n=100, dt=0.01, seed=1)
    assert np.all(batch.stop_times == 0.0)
    assert np.all(batch.stopped_values == 0.0)
    ep = sim.empirical_potential(batch, np.array([-1.0, 0.0, 1.0]))
    assert np.allclose(ep.values, [-1.0, 0.0, -1.0])


def test_empirical_potential_band(unit_time_batch):
    grid = np.linspace(-4, 4, 81)
    emp = sim.empirical_potential(unit_time_batch, grid)
    target = ms.potential(ms.normal(0.0, 1.0), grid)
    assert np.max(np.abs(emp.values - target.values)) < 3.0 / np.sqrt(unit_time_batch.n)
    # concavity up to noise
    slopes = np.diff(emp.values) / np.diff(grid)
    assert np.max(np.diff(slopes)) < 1e-2


def test_two_atom_barrier_exit_values():
    cfg = ob.SolverConfig(x_lo=-6, x_hi=6, nx=301, horizon=1.0, nt=200)
    mu = ms.atoms([-1.0, 1.0], [0.5, 0.5])
    sol = ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0), mu, cfg))
    b = br.extract_barrier(sol)
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b,
                                 n=5000, dt=1e-3, seed=3, horizon=30.0)
    h = np.max(np.diff(sol.x))
    near = (np.abs(np.abs(batch.stopped_values) - 1.0) <= h + 4 * np.sqrt(batch.dt))
    assert np.mean(near) > 0.995


def test_parabola_stop_time_identity():
    # tau = R(X_tau) pathwise; the discrete overshoot bias scales like sqrt(dt)
    x = np.linspace(-2.5, 3.5, 601)
    b = br.from_function(pb.barrier_fn, x, horizon=4.0)
    dt = 2.5e-4
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b,
                                 n=30_000, dt=dt, seed=42)
    diff = batch.stop_times - pb.barrier_fn(batch.stopped_values)
    se = np.std(diff) / np.sqrt(batch.n)
    slope_scale = pb.DEFAULT_LAM * (pb.DEFAULT_ALPHA + pb.DEFAULT_BETA)
    assert abs(np.mean(diff)) <= 3 * se + 1.2 * slope_scale * np.sqrt(dt)
    assert batch.horizon_mass == 0.0


def test_uniform_integrability_proxy(unit_time_batch):
    # E X_{t ^ tau} stays at the target mean for every checkpoint
    b = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([1.0, 1.0]), horizon=2.0)
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b,
                                 n=N_PATHS, dt=1 / 500, seed=7, store_paths=True)
    for t_check in (0.25, 0.5, 0.75, 1.0):
        k = int(round(t_check / batch.dt))
        m = np.mean(batch.states[k])
        se = np.std(batch.states[k]) / np.sqrt(batch.n)
        assert abs(m - np.mean(batch.stopped_values)) <= 3 * (se + np.std(batch.stopped_values) / np.sqrt(batch.n))


def test_horizon_sentinel_reported():
    b = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([5.0, 5.0]), horizon=1.0)
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b, n=500, dt=0.01, seed=2)
    assert batch.horizon_mass == 1.0
    assert batch.diagnostics["horizon-warning"]
    assert np.all(batch.stop_times == batch.horizon)


def test_constant_vol_realized_variance():
    pm = sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.2, rate=0.0)
    batch = sim.simulate_price_model(pm, n=20_000, dt=1 / 2000, seed=3)
    target = 0.04
    assert abs(np.mean(batch.realized_variance) - target) < 5 * batch.dt * target + 3e-4
    # discounted price is a martingale
    se = np.std(batch.stopped_values) / np.sqrt(batch.n)
    assert abs(np.mean(batch.stopped_values) - 1.0) <= 3 * se


def test_nonzero_rate_keeps_discounted_price_driftless():
    pm = sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.25, rate=0.03)
    batch = sim.simulate_price_model(pm, n=20_000, dt=1 / 500, seed=5)
    se = np.std(batch.stopped_values) / np.sqrt(batch.n)
    assert abs(np.mean(batch.stopped_values) - 1.0) <= 3 * se
    assert pm.discount(1.0) == pytest.approx(np.exp(0.03))


def test_piecewise_vol_realized_variance():
    pm = sim.PriceModel(kind="piecewise", s0=1.0, maturity=1.0,
                        vol=(np.array([0.5]), np.array([0.1, 0.3])), rate=0.0)
    batch = sim.simulate_price_model(pm, n=20_000, dt=1 / 1000, seed=8)
    target = 0.5 * 0.01 + 0.5 * 0.09
    assert abs(np.mean(batch.realized_variance) - target) < 1e-3


@pytest.mark.parametrize("dt, ok", [(0.3, False), (1e-4, True), (1e-3, True), (2e-3, True), (4e-4, True)])
def test_fixed_maturity_step_must_divide_the_maturity(dt, ok):
    if ok:
        batch = sim.simulate_price_model(CONSTANT_VOL, n=10, dt=dt, seed=1)
        assert batch.stop_times[0] == 1.0
    else:
        with pytest.raises(ValueError, match="does not divide the maturity"):
            sim.simulate_price_model(CONSTANT_VOL, n=10, dt=dt, seed=1)


def test_hall_competitor_embeds_standard_normal():
    mu = ms.normal(0.0, 1.0)
    batch = sim.hall_competitor(mu, n=N_PATHS, dt=1e-3, seed=11)
    ks = sim.ks_statistic(batch.stopped_values, mu.cdf)
    assert ks <= sim.ks_critical_value(batch.n, 0.01)
    se = np.std(batch.stop_times) / np.sqrt(batch.n)
    assert abs(np.mean(batch.stop_times) - 1.0) <= 3 * se + 2e-2
    # strictly suboptimal for the squared payoff
    assert np.mean(batch.stop_times ** 2) > 1.5


def test_hall_competitor_atomic_target():
    mu = ms.atoms([-1.0, 0.0, 2.0], [0.5, 0.25, 0.25])
    assert mu.mean == pytest.approx(0.0)
    batch = sim.hall_competitor(mu, n=20_000, dt=5e-4, seed=13)
    ks = sim.ks_statistic(batch.stopped_values, mu)
    assert ks <= sim.ks_critical_value(batch.n, 0.01)


def test_ks_statistic_handles_atomic_ties():
    rng = np.random.default_rng(1)
    m = ms.atoms([-1.0, 1.0], [0.5, 0.5])
    samples = rng.choice([-1.0, 1.0], size=10_000)
    assert sim.ks_statistic(samples, m.cdf) < sim.ks_critical_value(10_000, 0.01)
    # a genuinely wrong law is still flagged
    bad = rng.choice([-1.0, 1.0], size=10_000, p=[0.6, 0.4])
    assert sim.ks_statistic(bad, m.cdf) > 0.05


def test_full_chain_empirical_potential_band(gaussian_solution):
    # solve -> extract -> simulate -> empirical potential hugs the target's
    from rootbarrier import barrier as br

    b = br.extract_barrier(gaussian_solution)
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b,
                                 n=50_000, dt=1e-3, seed=19)
    grid = np.linspace(-4.0, 4.0, 81)
    emp = sim.empirical_potential(batch, grid)
    target = ms.potential(ms.normal(0.0, 1.0), grid)
    band = 3.0 * 1.2 / np.sqrt(batch.n) + 0.01   # MC plus grid/step bias
    assert np.max(np.abs(emp.values - target.values)) < band
