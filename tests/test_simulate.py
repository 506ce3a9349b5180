import threading
import time

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
    ep = ms.potential(ms.empirical(batch.stopped_values), np.array([-1.0, 0.0, 1.0]))
    assert np.allclose(ep, [-1.0, 0.0, -1.0])


def test_empirical_potential_band(unit_time_batch):
    grid = np.linspace(-4, 4, 81)
    emp = ms.potential(ms.empirical(unit_time_batch.stopped_values), grid)
    target = ms.potential(ms.normal(0.0, 1.0), grid)
    assert np.max(np.abs(emp - target)) < 3.0 / np.sqrt(unit_time_batch.n)
    # concavity up to noise
    slopes = np.diff(emp) / np.diff(grid)
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


def test_continuity_correction_removes_the_lateness_of_sampled_stops():
    # E tau = lam alpha beta / (1 + lam) = 2 for the parabola from delta_0.
    # Checked only at the samples, paths stop late by O(sqrt(dt)): +0.052
    # at dt 1e-2 without the edge shift; with it the bias is below 0.01
    x = np.linspace(-2.5, 3.5, 601)
    b = br.from_function(pb.barrier_fn, x, horizon=4.0)
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b, n=100_000, dt=1e-2, seed=3)
    mean, se = sim._mean_se(batch.stop_times)
    assert pb.mean_stop_time() == 2.0
    assert abs(mean - 2.0) <= 0.01 + 3 * se
    assert batch.horizon_mass == 0.0


def test_plain_batch_stops_at_an_interior_atom():
    # delta_0 -> atoms at -1, 0.5 and 2: R is +inf between the atoms, so the
    # barrier at 0.5 is one closed node between two free cells, a level
    # that a path stops on only by crossing it between samples
    mu = ms.atoms([-1.0, 0.5, 2.0], [5 / 12, 1 / 2, 1 / 12])
    cfg = ob.SolverConfig(x_lo=-3, x_hi=4, nx=401, horizon=2.0, nt=400)
    b = br.extract_barrier(ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0), mu, cfg)))
    inner = (b.x > -1 + 1e-9) & (b.x < 2 - 1e-9)
    assert np.count_nonzero(np.isfinite(b.R[inner])) == 1 and 0 < b.value_at(np.array([0.5]))[0] < 1
    n, dt = 20_000, 2e-3
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b, n=n, dt=dt, seed=1, horizon=30.0)
    assert batch.horizon_mass == 0.0
    for atom, w in zip(mu.locations, mu.weights):
        share = np.mean(np.abs(batch.stopped_values - atom) <= 4 * np.sqrt(dt))
        assert abs(share - w) <= 3 * np.sqrt(w * (1 - w) / n) + 0.005, atom
    # E tau = E X_tau^2 = 7 / 8; stopping anywhere in the two cells around
    # the atom once it closed read 0.907
    mean, se = sim._mean_se(batch.stop_times)
    assert abs(mean - 7 / 8) <= 0.01 + 3 * se


def test_uniform_integrability_proxy(unit_time_batch):
    # E X_{t ^ tau} stays at the target mean for every checkpoint
    b = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([1.0, 1.0]), horizon=2.0)
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b,
                                 n=N_PATHS, dt=1 / 500, seed=7)
    for t_check in (0.25, 0.5, 0.75, 1.0):
        # the batch stopped at the horizon t_check holds X_{t ^ tau}
        x_t = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b,
                                   n=N_PATHS, dt=1 / 500, seed=7, horizon=t_check).stopped_values
        m = np.mean(x_t)
        se = np.std(x_t) / np.sqrt(batch.n)
        assert abs(m - np.mean(batch.stopped_values)) <= 3 * (se + np.std(batch.stopped_values) / np.sqrt(batch.n))


def test_horizon_sentinel_reported():
    b = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([5.0, 5.0]), horizon=1.0)
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b, n=500, dt=0.01, seed=2)
    assert batch.horizon_mass == 1.0
    assert batch.diagnostics["horizon-warning"]
    assert np.all(batch.stop_times == batch.horizon)


@pytest.mark.parametrize("horizon", [-1.0, np.nan, np.inf])
def test_bad_horizon_is_a_value_error(horizon):
    with pytest.raises(ValueError, match="^horizon must be finite and nonnegative"):
        sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), UNIT_BARRIER, n=10, dt=0.01,
                             seed=1, horizon=horizon)


# -- the next two steps' normals drawn ahead on worker threads -------------------

PREFETCH_N = 70_000     # above simulate._PREFETCH_MIN running paths at step 1


class _ThreadLog:
    """step_rng replaced by one that records the threads that build and draw generators."""

    def __init__(self, monkeypatch):
        self.built, self.drawn = [], []
        make, log = sim.step_rng, self

        class Logged(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                log.drawn.append(threading.current_thread())
                return super().standard_normal(*args, **kwargs)

        def step_rng(seed, step):
            log.built.append(threading.current_thread())
            return Logged(make(seed, step).bit_generator)

        monkeypatch.setattr(sim, "step_rng", step_rng)

    def off_main(self, threads) -> int:
        return sum(t is not threading.main_thread() for t in threads)


def fills_ahead(batch) -> int:
    """Steps whose normals a batch draws ahead: k + 1 and k + 2 for each step k with enough running paths.

    Reads the running paths of step k off the stopping times: a path runs
    step k if it stops at k dt or later.
    """
    n_steps = round(batch.horizon / batch.dt)
    running = [np.sum(batch.stop_times > (k - 0.5) * batch.dt) for k in range(1, n_steps + 1)]
    last = sum(m >= sim._PREFETCH_MIN for m in running)     # running paths never grow
    return min(n_steps, last + 2) - 1 if last else 0


PREFETCH_CASES = {
    # the running paths fall below the threshold as they stop at the parabola
    "stopped-crossing": lambda: sim.simulate_stopped(
        ob.brownian(), ms.point_mass(0.0), br.from_function(pb.barrier_fn, np.linspace(-2.5, 3.5, 601), 4.0),
        n=PREFETCH_N, dt=1e-2, seed=5),
    "constant-vol": lambda: sim.simulate_price_model(CONSTANT_VOL, n=PREFETCH_N, dt=1e-2, seed=5),
    # every path stops at step 1, so the draws for steps 2 and 3 are never read
    "all-stop-at-step-1": lambda: sim.simulate_stopped(
        ob.brownian(), ms.point_mass(0.0), br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([0.01, 0.01]),
                                                      horizon=1.0),
        n=PREFETCH_N, dt=1e-2, seed=5),
    # a smaller batch, above the threshold all the way: every path runs all 100 steps and stops at R = 1
    "flat-20k": lambda: sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), UNIT_BARRIER,
                                             n=20_000, dt=1e-2, seed=5),
    # stopping rules that draw uniforms after the normals are never drawn ahead
    "spiked-time-change": lambda: sim.simulate_price_model(spiked_time_change(), n=PREFETCH_N, dt=1e-2, seed=5),
}
DRAWS_AFTER_NORMALS = {"spiked-time-change"}


@pytest.mark.parametrize("case", PREFETCH_CASES)
def test_prefetch_is_bit_identical(monkeypatch, case):
    log, threshold = _ThreadLog(monkeypatch), sim._PREFETCH_MIN
    threads = set(threading.enumerate())
    ahead = PREFETCH_CASES[case]()
    assert set(threading.enumerate()) == threads     # the walk joins its workers before it returns
    expected = 0 if case in DRAWS_AFTER_NORMALS else fills_ahead(ahead)
    assert log.off_main(log.drawn) == expected
    assert (expected > 0) == (case not in DRAWS_AFTER_NORMALS)
    monkeypatch.setattr(sim, "_PREFETCH_MIN", 1 << 62)
    log.drawn.clear()
    plain = PREFETCH_CASES[case]()
    assert log.off_main(log.drawn) == 0
    for name in ("stop_times", "stopped_values", "realized_variance"):
        a, b = getattr(ahead, name), getattr(plain, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert ahead.horizon_mass == plain.horizon_mass
    if case == "stopped-crossing":
        # the running paths cross the threshold midway, so the last fills are drawn inline
        assert ahead.horizon_mass * PREFETCH_N < threshold <= np.sum(ahead.stop_times > 0)
        assert 2 <= expected < round(ahead.horizon / ahead.dt) - 1
    if case == "all-stop-at-step-1":
        assert np.all(ahead.stop_times == 0.01) and expected == 2
    if case == "flat-20k":
        assert np.all(ahead.stop_times == 1.0) and expected == 101    # steps 2 to 102 of 200


def test_draw_ahead_leaves_the_moving_step_alone(monkeypatch):
    # a slow move gives both pending fills time to finish before z is read
    def slow_move(x, z, k, dt):
        time.sleep(0.02)
        return x + z, None

    def walk():
        return sim._walk(PREFETCH_N, 0.1, 5, lambda dt: 6, lambda g: np.zeros(PREFETCH_N), slow_move)

    ahead = walk()
    monkeypatch.setattr(sim, "_PREFETCH_MIN", 1 << 62)
    assert ahead.stopped_values.tobytes() == walk().stopped_values.tobytes()


def test_observers_read_the_running_paths_through_ids():
    # a basic slice while every path runs, the running paths' indices once one stops
    class StopPathZeroAtStep3:
        draws = False

        def start(self, x0):
            return np.ones(len(x0), dtype=bool)

        def __call__(self, s):
            return (s.k == 3) & (np.arange(len(s.x_new)) == 0)

    class Record:
        def start(self, x0, n_steps, dt):
            self.ids = []

        def __call__(self, s):
            self.ids.append(s.ids)

    obs = Record()
    sim._walk(8, 0.1, 5, lambda dt: 6, lambda g: np.zeros(8), lambda x, z, k, dt: (x + z, None),
              StopPathZeroAtStep3(), [obs])
    assert obs.ids[:3] == [slice(None)] * 3
    assert all(np.array_equal(ids, np.arange(1, 8)) for ids in obs.ids[3:]) and len(obs.ids) == 6


def test_step_rng_runs_on_the_calling_thread(monkeypatch):
    # perfbench times step_rng through a wrapper that is not thread-safe
    log = _ThreadLog(monkeypatch)
    sim.simulate_price_model(CONSTANT_VOL, n=PREFETCH_N, dt=0.05, seed=5)
    assert len(log.built) == 21 and log.off_main(log.built) == 0
    assert log.off_main(log.drawn) == 19    # steps 2 to 20 are drawn ahead


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


@pytest.mark.parametrize("horizon, steps", [(0.07, 7), (0.075, 8), (0.0, 0)])
def test_barrier_walks_take_the_same_steps(horizon, steps):
    # 0.07 / 0.01 reads 7.000000000000001, yet 7 steps of 0.01 end at 0.07
    b = br.Barrier(x=np.array([0.01, 100.0]), R=np.array([np.inf, np.inf]), horizon=horizon)
    model = sim.PriceModel(kind="time-change-to-barrier", s0=1.0, maturity=1.0, barrier=b)
    changed = sim.simulate_price_model(model, n=10, dt=0.01, seed=1)
    stopped = sim.simulate_stopped(ob.geometric_brownian(), ms.point_mass(1.0), b, n=10, dt=0.01, seed=1)
    assert changed.horizon == stopped.horizon == steps * 0.01
    assert np.all(changed.stop_times == changed.horizon)


def test_hall_competitor_embeds_standard_normal():
    mu = ms.normal(0.0, 1.0)
    batch = sim.hall_competitor(mu, n=N_PATHS, dt=1e-3, seed=11)
    ks = sim.ks_statistic(batch.stopped_values, mu.cdf)
    assert ks <= sim.ks_critical_value(batch.n, 0.01)
    se = np.std(batch.stop_times) / np.sqrt(batch.n)
    assert abs(np.mean(batch.stop_times) - 1.0) <= 3 * se
    # strictly suboptimal for the squared payoff
    assert np.mean(batch.stop_times ** 2) > 1.5


def test_hall_competitor_refuses_a_lognormal_target():
    with pytest.raises(ValueError, match="normal or atomic"):
        sim.hall_competitor(ms.lognormal(0.0, 0.04), n=10, dt=1e-3, seed=0)


def test_hall_competitor_atomic_target():
    mu = ms.atoms([-1.0, 0.0, 2.0], [0.5, 0.25, 0.25])
    assert mu.mean == pytest.approx(0.0)
    batch = sim.hall_competitor(mu, n=20_000, dt=5e-4, seed=13)
    ks = sim.ks_statistic(batch.stopped_values, mu)
    assert ks <= sim.ks_critical_value(batch.n, 0.01)
    se = np.std(batch.stop_times) / np.sqrt(batch.n)
    assert abs(np.mean(batch.stop_times) - 1.5) <= 3 * se     # Var mu = 1.5
    # the atom at the mean has an empty interval: those paths stop at once, at 0
    at_mean = batch.stopped_values == 0.0
    assert np.all(batch.stop_times[at_mean] == 0.0) and np.all(batch.stop_times[~at_mean] > 0.0)
    assert abs(np.mean(at_mean) - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / batch.n)


def test_hall_competitor_from_the_midpoint_stops_in_one_round():
    # every interval is (-1, 1) and the walk starts at its midpoint 0
    batch = sim.hall_competitor(ms.atoms([-1.0, 1.0], [0.5, 0.5]), n=1000, dt=1e-3, seed=3)
    assert batch.diagnostics["rounds"] == 1
    assert set(np.unique(batch.stopped_values)) == {-1.0, 1.0}
    assert np.all(batch.stop_times > 0.0) and batch.dt == 1e-3


@pytest.mark.parametrize("mu", [ms.point_mass(0.3), ms.normal(0.3, 0.0)], ids=["atom", "normal"])
def test_hall_competitor_of_a_point_mass_stops_at_once(mu):
    batch = sim.hall_competitor(mu, n=100, dt=1e-3, seed=3)
    assert np.all(batch.stop_times == 0.0) and np.all(batch.stopped_values == 0.3)
    assert batch.diagnostics["rounds"] == 0


def test_exit_time_inverse_is_exact():
    # dense in the middle, down to 1e-300 and up to the largest double below 1
    u = np.concatenate([np.linspace(0.0, 1.0, 100_001)[:-1], np.logspace(-300, -1, 600),
                        1.0 - np.logspace(-16, -1, 300), [np.nextafter(1.0, 0.0)]])
    t, err = sim._exit_time(u)
    F, Q, _ = sim._exit_law(t)
    worst = np.max(np.where(u < 0.5, np.abs(F - u), np.abs(Q - (1.0 - u))))
    assert worst <= 1e-12 and err == worst
    assert np.array_equal(sim._exit_time(u)[0], t)
    # the image and the eigenfunction series meet at t = 1/2
    F, Q, f = sim._exit_law(np.array([np.nextafter(0.5, 0.0), 0.5]))
    assert abs(F[1] - F[0]) <= 1e-15 and abs(f[1] - f[0]) <= 1e-15
    # E T = 1 and E T^2 = 5/3, by trapezoid quadrature in the log-odds s (u = expit(s))
    s = np.linspace(-50.0, 36.0, 86_001)
    u = 1.0 / (1.0 + np.exp(-s))
    t, w = sim._exit_time(u)[0], u * (1.0 - u)
    assert abs(np.trapezoid(t * w, s) - 1.0) <= 1e-10
    assert abs(np.trapezoid(t * t * w, s) - 5.0 / 3.0) <= 1e-10


def test_unknown_price_model_kind_is_refused():
    with pytest.raises(ValueError, match="unknown price model kind 'jump'"):
        sim.simulate_price_model(sim.PriceModel(kind="jump", s0=1.0, maturity=1.0), n=10, dt=0.1, seed=0)


def test_ks_critical_value_between_the_tabulated_levels():
    # off the table the asymptotic formula sqrt(-ln(level / 2) / 2) applies
    tab = [sim.ks_critical_value(100, lv) for lv in (0.10, 0.05, 0.01)]
    assert tab == pytest.approx([0.122, 0.136, 0.163])
    assert tab[1] < sim.ks_critical_value(100, 0.02) < tab[2]
    assert sim.ks_critical_value(100, 0.02) == pytest.approx(np.sqrt(-0.5 * np.log(0.01)) / 10.0)


def test_ks_statistic_handles_atomic_ties():
    rng = np.random.default_rng(1)
    m = ms.atoms([-1.0, 1.0], [0.5, 0.5])
    samples = rng.choice([-1.0, 1.0], size=10_000)
    assert sim.ks_statistic(samples, m.cdf) < sim.ks_critical_value(10_000, 0.01)
    # a genuinely wrong law is still flagged
    bad = rng.choice([-1.0, 1.0], size=10_000, p=[0.6, 0.4])
    assert sim.ks_statistic(bad, m.cdf) > 0.05


@pytest.mark.parametrize("locations, weights", [
    ([1.0, 0.0], [0.3, 0.7]),               # unsorted input
    ([1.0, 0.0, 0.0], [0.3, 0.35, 0.35]),   # unsorted, with a tied atom
])
def test_ks_statistic_reads_the_sorted_atoms(locations, weights):
    # the law {0: 0.7, 1: 0.3} matches seven 0s and three 1s exactly
    m = ms.Measure(kind="atoms", locations=np.array(locations), weights=np.array(weights))
    samples = np.array([0.0] * 7 + [1.0] * 3)
    assert sim.ks_statistic(samples, m) == pytest.approx(0.0, abs=1e-15)
    assert sim.ks_statistic(samples, m.cdf) == pytest.approx(0.0, abs=1e-15)


def test_full_chain_empirical_potential_band(gaussian_solution):
    # solve -> extract -> simulate -> empirical potential hugs the target's
    from rootbarrier import barrier as br

    b = br.extract_barrier(gaussian_solution)
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b,
                                 n=50_000, dt=1e-3, seed=19)
    grid = np.linspace(-4.0, 4.0, 81)
    emp = ms.potential(ms.empirical(batch.stopped_values), grid)
    target = ms.potential(ms.normal(0.0, 1.0), grid)
    band = 3.0 * 1.2 / np.sqrt(batch.n) + 0.01   # MC plus grid/step bias
    assert np.max(np.abs(emp - target)) < band


# -- the bridge test only for paths near an armed spike ---------------------------

OPEN_BARRIER = br.Barrier(x=np.array([1e-6, 1e6]), R=np.array([np.inf, np.inf]), horizon=1.0)


def spike_inputs(at, dt, n=4000, seed=0):
    """Random steps around and beyond the spikes at, with straddles, NaN new states and zero uniforms.

    The uniforms are drawn as U^4, so that crossings of small probability
    show up; every 97th is 0.
    """
    rng = np.random.default_rng(seed)
    l_at = np.log(at)
    l_old = rng.uniform(l_at[0] - 0.3, l_at[-1] + 0.3, n)
    l_new = l_old + 3.0 * np.sqrt(dt) * rng.standard_normal(n)
    jump = rng.random(n) < 0.05     # straddles of one spike or more
    l_new[jump] += rng.choice([-1.0, 1.0], jump.sum()) * rng.uniform(0.0, 0.3, jump.sum())
    l_new[rng.random(n) < 0.02] = np.nan
    u = rng.random(n) ** 4
    u[::97] = 0.0
    return np.exp(l_old), l_old, l_new, u


def near_and_full(at, arm, t, dt, seed):
    """_TimeBarrier's near set for spike_inputs, and spike_crossings over every path and over that set."""
    x_old, l_old, l_new, u = spike_inputs(at, dt, seed=seed)
    tb = sim._TimeBarrier(OPEN_BARRIER, ob.geometric_brownian().sigma, (at, arm))
    assert tb.start(x_old).all()
    near = tb._near(t, dt, l_new, u)
    full = sim.spike_crossings(x_old, l_old, l_new, t, dt, at, tb.l_spike, tb.arm, u)
    sub = sim.spike_crossings(x_old[near], l_old[near], l_new[near], t, dt, at, tb.l_spike, tb.arm, u[near])
    return near, full, sub, u, tb.zones


SPIKE_SETS = {
    # some armed, some armed later, some never; the armed spikes 0.9 and 1.0 share a zone
    "mixed": (np.array([0.6, 0.9, 1.0, 1.2, 1.5]), np.array([0.0, 0.05, 0.1, 0.3, np.inf]), 0.2, 1e-3),
    # 301 spikes 0.0055 apart, armed by turns: the zones merge across unarmed ones
    "dense-merged": (0.2 + 0.0055 * np.arange(301), np.resize([0.0, 0.5, np.inf], 301), 0.1, 1e-4),
    "none-armed": (np.array([0.8, 1.25]), np.array([0.3, np.inf]), 0.2, 1e-3),
    # m = 5 in log price: every path is in a zone
    "all-near": (np.array([0.8, 1.25]), np.array([0.0, 0.0]), 0.2, 1.0),
}


@pytest.mark.parametrize("case", SPIKE_SETS)
@pytest.mark.parametrize("seed", [0, 1])
def test_spike_cull_sends_every_possible_hit(case, seed):
    at, arm, t, dt = SPIKE_SETS[case]
    near, (hit, which), (sub_hit, sub_which), u, zones = near_and_full(at, arm, t, dt, seed=seed)
    culled = np.ones(len(u), dtype=bool)
    culled[near] = False
    assert not hit[culled].any()
    assert np.array_equal(hit[near], sub_hit) and np.array_equal(which[near], sub_which)
    assert np.all(np.isin(np.flatnonzero(u == 0.0), near))
    if case == "none-armed":
        assert not hit.any() and np.array_equal(near, np.flatnonzero(u == 0.0))
    elif case == "all-near":
        assert len(near) == len(u) and hit.any()
    elif case == "dense-merged":
        # one zone over all 301 spikes: only paths beyond it are left out
        assert len(zones) == 2 and hit.any() and np.any(hit & (u > 0.0)) and len(near) < 0.9 * len(u)
    else:
        # the cull leaves out most paths, and some near paths are hit with u > 0
        assert hit.any() and np.any(hit & (u > 0.0)) and len(near) < 0.8 * len(u)


def test_spike_zones_are_rebuilt_as_spikes_arm():
    at, arm, t, dt = SPIKE_SETS["mixed"]
    tb = sim._TimeBarrier(OPEN_BARRIER, ob.geometric_brownian().sigma, (at, arm))
    tb.start(np.ones(3))
    m = np.sqrt(sim._SPIKE_ZONE * dt)
    l_at, step = np.log(at), (np.zeros(3), np.full(3, 0.5))     # new log states and uniforms
    tb._near(0.06, dt, *step)
    # 0.6 alone (0.41 from 0.9 in log, above 2 m = 0.32), then 0.9 and 1.0
    # (0.105 apart) in one zone; 1.2 arms only after t
    assert np.allclose(tb.zones, [l_at[0] - m, l_at[0] + m, l_at[1] - m, l_at[1] + m])
    tb._near(0.1, dt, *step)
    assert np.allclose(tb.zones, [l_at[0] - m, l_at[0] + m, l_at[1] - m, l_at[2] + m])
    tb._near(t, dt, *step)
    assert len(tb.zones) == 4 and tb.n_armed == 3


@pytest.fixture(scope="module")
def two_atom_call(two_atom_market):
    """The price-atomic benchmark's bound: a variance call at K = 0.05 on a 201-node grid."""
    return pr.lower_bound(two_atom_market, opt.variance_call(0.05),
                          pr.PricingConfig(nx=201, nt=400, nt_hedge=500))


# report fixture, dt, path steps sent to the bridge test, all path steps
SPIKED_BATCHES = {
    "dense": ("dense_call_report", 1e-4, 10_553, 4_010_544),
    "two-atom": ("two_atom_call", 4e-4, 294_664, 2_973_291),
}


@pytest.mark.parametrize("case", SPIKED_BATCHES)
def test_spike_cull_is_bit_identical(request, monkeypatch, case):
    fixture, dt, near_steps, all_steps = SPIKED_BATCHES[case]
    model = request.getfixturevalue(fixture).attaining_model()
    culled = sim.simulate_price_model(model, n=10_000, dt=dt, seed=9)
    assert culled.diagnostics["spike_path_steps"] == near_steps
    monkeypatch.setattr(sim._TimeBarrier, "_near", lambda self, t, dt, l_new, u: np.arange(len(u)))
    full = sim.simulate_price_model(model, n=10_000, dt=dt, seed=9)
    assert full.diagnostics["spike_path_steps"] == all_steps
    for name in ("stop_times", "stopped_values", "realized_variance"):
        assert getattr(culled, name).tobytes() == getattr(full, name).tobytes()
    assert culled.horizon_mass == full.horizon_mass
