import numpy as np
import pytest

from rootbarrier import barrier as br
from rootbarrier import measures as ms
from rootbarrier import obstacle as ob
from rootbarrier import parabola as pb


def test_gaussian_barrier_constant(gaussian_solution):
    b = br.extract_barrier(gaussian_solution)
    central = np.abs(b.x) <= 1.96
    h = np.max(np.diff(gaussian_solution.x))
    assert np.max(np.abs(b.R[central] - 1.0)) <= 2 * h
    assert b.origin_time_positive


def test_two_atom_barrier_structure():
    cfg = ob.SolverConfig(x_lo=-6, x_hi=6, nx=301, horizon=1.0, nt=200)
    mu = ms.atoms([-1.0, 1.0], [0.5, 0.5])
    sol = ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0), mu, cfg))
    b = br.extract_barrier(sol)
    inside = (b.x > -1 + 1e-9) & (b.x < 1 - 1e-9)
    outside = (b.x < -1 - 1e-9) | (b.x > 1 + 1e-9)
    assert np.all(np.isinf(b.R[inside]))
    assert np.all(b.R[outside] == 0.0)
    assert np.all(b.value_at(np.array([-1.0, 1.0])) == 0.0)


def test_immediate_barrier_when_target_equals_start():
    m = ms.atoms([-1.0, 1.0], [0.5, 0.5])
    cfg = ob.SolverConfig(x_lo=-6, x_hi=6, nx=301, horizon=1.0, nt=200)
    sol = ob.solve(ob.assemble(ob.brownian(), m, m, cfg))
    b = br.extract_barrier(sol)
    assert np.all(b.R == 0.0)


def test_contact_indicator_monotone(gaussian_solution):
    sol = gaussian_solution
    tol = 10 * sol.cfg.lcp_tol * np.maximum(1.0, np.abs(sol.psi))
    contact = (sol.v - sol.psi[None, :]) <= tol[None, :]
    assert np.all(np.diff(contact.astype(int), axis=0) >= 0)


def test_extract_barrier_matches_full_matrix(gaussian_solution):
    # the block scan must reproduce the whole-surface formula bit for bit;
    # the two-atom solve adds never-stopping nodes (R = inf)
    cfg = ob.SolverConfig(x_lo=-6, x_hi=6, nx=301, horizon=1.0, nt=200)
    two_atom = ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0),
                                    ms.atoms([-1.0, 1.0], [0.5, 0.5]), cfg))
    for sol in (gaussian_solution, two_atom):
        tol = 10 * sol.cfg.lcp_tol * np.maximum(1.0, np.abs(sol.psi))
        contact = (sol.v - sol.psi[None, :]) <= tol[None, :]
        R = np.where(contact.any(axis=0), sol.t[contact.argmax(axis=0)], np.inf)
        b = br.extract_barrier(sol, support=(-np.inf, np.inf))
        assert np.array_equal(b.R, R)


def test_value_at_conventions():
    b = br.Barrier(x=np.array([0.0, 1.0, 2.0]), R=np.array([3.0, 1.0, 2.0]), horizon=4.0)
    # nodes exact
    assert np.allclose(b.value_at(np.array([0.0, 1.0, 2.0])), [3.0, 1.0, 2.0])
    # between nodes: min of neighbours (lower semi-continuous, stops earlier)
    assert np.allclose(b.value_at(np.array([0.5, 1.5])), [1.0, 1.0])
    # anti-conservative variant takes the max
    assert np.allclose(b.value_at(np.array([0.5, 1.5]), conservative=False), [3.0, 2.0])
    # off the grid the barrier is immediate
    assert np.allclose(b.value_at(np.array([-1.0, 5.0])), [0.0, 0.0])


GRIDS = {
    "linspace": np.linspace(-2.5, 3.5, 601),
    "snapped-geometric": np.exp(ob._snap_grid(np.log(0.5), np.log(2.0), 901,
                                              np.log(np.linspace(0.6, 1.8, 301)))),
    "two-node": np.array([-10.0, 10.0]),
    "one-node": np.array([0.3]),
}


@pytest.mark.parametrize("grid", GRIDS)
def test_grid_index_matches_searchsorted(grid):
    x = GRIDS[grid]
    idx = br.GridIndex(x)
    rng = np.random.default_rng(5)
    states = np.concatenate((
        x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
        [np.inf, -np.inf, np.nan, 1e300, -1e300, 0.0, -0.0],
        rng.uniform(x[0] - 1.0, x[-1] + 1.0, 20_000),
        x[0] + (x[-1] - x[0]) * rng.random(20_000),
    ))
    assert np.array_equal(idx(states), np.searchsorted(x, states, side="right"))
    assert len(idx.table) <= (1 << 16) + 2
    b = br.Barrier(x=x, R=np.linspace(1.0, 2.0, len(x)), horizon=3.0)
    assert np.array_equal(b._index(states), idx(states))


def test_hit_time_constant_barrier():
    t = np.linspace(0, 2, 21)
    path = np.zeros(21)
    b = br.Barrier(x=np.array([-1.0, 1.0]), R=np.array([0.7, 0.7]), horizon=2.0)
    assert br.hit_time(b, t, path) == int(np.argmax(t >= 0.7))


def test_hit_time_parabola_frozen_path():
    # frozen at x = 1 the parabolic boundary is reached at time R(1) = 3
    x = np.linspace(-2.5, 3.5, 601)
    b = br.from_function(pb.barrier_fn, x, horizon=4.0)
    t = np.linspace(0.0, 4.0, 4001)
    path = np.ones_like(t)
    k = br.hit_time(b, t, path)
    assert t[k] == pytest.approx(3.0, abs=t[1] - t[0])


def test_hit_time_zero_barrier_excludes_start():
    t = np.linspace(0, 1, 11)
    b = br.Barrier(x=np.array([-1.0, 1.0]), R=np.array([0.0, 0.0]), horizon=1.0)
    assert br.hit_time(b, t, np.zeros(11)) == 1


def test_hit_time_never_hits():
    t = np.linspace(0, 1, 11)
    b = br.Barrier(x=np.array([-1.0, 1.0]), R=np.array([5.0, 5.0]), horizon=1.0)
    assert br.hit_time(b, t, np.zeros(11)) == 11


def test_barrier_io_round_trip(tmp_path):
    b = br.Barrier(x=np.array([-1.0, 0.0, 1.0]),
                   R=np.array([0.0, np.inf, 2.0]), horizon=3.0, contact_tol=1e-7)
    csv = tmp_path / "b.csv"
    meta = tmp_path / "b.json"
    br.save_barrier(b, str(csv), str(meta))
    text = csv.read_text()
    assert "inf" in text
    back = br.load_barrier(str(csv), horizon=3.0)
    assert np.array_equal(back.x, b.x)
    assert np.array_equal(back.R, b.R)


def test_negative_barrier_rejected():
    with pytest.raises(ValueError):
        br.Barrier(x=np.array([0.0, 1.0]), R=np.array([-0.1, 1.0]), horizon=1.0)


def test_resolution_independent_stopping_distribution():
    # two solver resolutions embed the same law: coupled stopped paths give
    # stopping-time samples whose two-sample KS stays within the combined
    # barrier-discretization tolerance
    from rootbarrier import simulate as sim
    from rootbarrier import parabola as pb

    nu = ms.point_mass(0.0)
    taus = {}
    for nx, nt in [(311, 700), (621, 1400)]:
        x = np.linspace(-2.5, 3.5, 601)
        b_true = br.from_function(pb.barrier_fn, x, horizon=4.0)
        batch = sim.simulate_stopped(ob.brownian(), nu, b_true, n=150_000, dt=2e-3, seed=9)
        mu_hat = ms.empirical(batch.stopped_values, recenter_to=0.0)
        cfg = ob.SolverConfig(x_lo=-2.6, x_hi=3.6, nx=nx, horizon=3.5, nt=nt)
        b_hat = br.extract_barrier(ob.solve(ob.assemble(ob.brownian(), nu, mu_hat, cfg)))
        out = sim.simulate_stopped(ob.brownian(), nu, b_hat, n=50_000, dt=2e-3, seed=5)
        taus[nx] = np.sort(out.stop_times)
    grid = np.unique(np.concatenate(list(taus.values())))
    cdfs = [np.searchsorted(t, grid, side="right") / len(t) for t in taus.values()]
    ks12 = float(np.max(np.abs(cdfs[0] - cdfs[1])))
    assert ks12 <= 0.05


def test_crank_nicolson_scheme_matches():
    cfg = ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=401, horizon=2.0, nt=400,
                          scheme="crank-nicolson-projected")
    sol = ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0), ms.normal(0.0, 1.0), cfg))
    errs = []
    for j in range(0, len(sol.t), 40):
        s = min(sol.t[j], 1.0)
        cf = -np.abs(sol.x) if s == 0 else -ms.normal(0.0, s).mean_abs_dev(sol.x)
        errs.append(np.max(np.abs(sol.v[j] - cf)))
    assert max(errs) < 2e-3
    assert sol.max_residual <= cfg.lcp_tol
