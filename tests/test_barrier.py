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
    # no tilt: R stays within one time step of 1 out to |x| = 3, where a
    # first-order (implicit Euler) march is two steps off
    dt = gaussian_solution.t[1] - gaussian_solution.t[0]
    assert np.max(np.abs(b.R[np.abs(b.x) <= 3] - 1.0)) <= 1.5 * dt


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
    tol = ob.CONTACT_REL * sol.cfg.lcp_tol * np.maximum(1.0, np.abs(sol.psi))
    contact = (sol.v - sol.psi[None, :]) <= tol[None, :]
    assert np.all(np.diff(contact.astype(int), axis=0) >= 0)


def test_extract_barrier_matches_full_matrix(gaussian_solution, coarse_gaussian_solution):
    # the contact steps recorded during the march must reproduce the
    # whole-surface formula bit for bit; the two-atom solve adds
    # never-stopping nodes (R = inf), the lognormal solve the geometric
    # (log-price) grid and the 401 x 400 solve a coarser time step
    cfg = ob.SolverConfig(x_lo=-6, x_hi=6, nx=301, horizon=1.0, nt=200)
    two_atom = ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0),
                                    ms.atoms([-1.0, 1.0], [0.5, 0.5]), cfg))
    cfg = ob.SolverConfig(x_lo=0.3, x_hi=3.0, nx=401, horizon=0.25, nt=400)
    lognormal = ob.solve(ob.assemble(ob.geometric_brownian(), ms.point_mass(1.0),
                                     ms.lognormal(-0.02, 0.04), cfg))
    for sol in (gaussian_solution, two_atom, lognormal, coarse_gaussian_solution):
        tol = ob.CONTACT_REL * sol.cfg.lcp_tol * np.maximum(1.0, np.abs(sol.psi))
        contact = (sol.v - sol.psi[None, :]) <= tol[None, :]
        first = np.where(contact.any(axis=0), contact.argmax(axis=0), -1)
        assert np.array_equal(sol.contact_step, first)
        R = np.where(contact.any(axis=0), sol.t[contact.argmax(axis=0)], np.inf)
        b = br.extract_barrier(sol)
        lo, hi = sol.mu.support
        on = (b.x >= lo) & (b.x <= hi)
        assert np.array_equal(b.R[on], R[on])
        assert np.all(b.R[~on] == 0.0)
        assert b.horizon == sol.cfg.horizon


def test_value_at_conventions():
    b = br.Barrier(x=np.array([0.0, 1.0, 2.0]), R=np.array([3.0, 1.0, 2.0]), horizon=4.0)
    # nodes exact
    assert np.array_equal(b.value_at(np.array([0.0, 1.0, 2.0])), [3.0, 1.0, 2.0])
    # between nodes: the max of the two neighbours, a cell closes with its last node
    assert np.array_equal(b.value_at(np.array([0.5, 1.5])), [3.0, 2.0])
    # off the grid the barrier is immediate
    assert np.array_equal(b.value_at(np.array([-1.0, 5.0])), [0.0, 0.0])


LSC_BARRIERS = {
    "dip": np.array([3.0, 1.0, 2.0]),
    "inf-nodes": np.array([0.0, np.inf, 1.0, np.inf, np.inf, 2.0, 0.5, np.inf, 0.0]),
    "spike": np.array([np.inf, 0.3, np.inf, np.inf, 0.0, np.inf]),
}


@pytest.mark.parametrize("name", sorted(LSC_BARRIERS))
def test_value_at_is_lower_semicontinuous_on_the_grid(name):
    # {t >= R} is closed: no node reads above the cells next to it on the
    # grid (off the grid R = 0, so an end node is checked on its inner side)
    R = LSC_BARRIERS[name]
    x = np.linspace(0.0, 1.0, len(R))
    b = br.Barrier(x=x, R=R, horizon=4.0)
    at = b.value_at(x)
    assert np.array_equal(at, R)
    assert np.all(at[1:] <= b.value_at(np.nextafter(x[1:], -np.inf)))
    assert np.all(at[:-1] <= b.value_at(np.nextafter(x[:-1], np.inf)))


FREE_SECTION_BARRIERS = {
    # never-stopping nodes in the middle: one interval, two edges
    "open-middle": np.where(np.abs(np.linspace(-1.0, 1.0, 11)) < 0.5, np.inf,
                            1.0 - np.abs(np.linspace(-1.0, 1.0, 11))),
    # stops everywhere at once: no edges at any t > 0
    "all-zero": np.zeros(11),
    # three bumps (and an inf node): up to three intervals, six edges; the
    # dips at R = 0 are closed nodes between free cells until t = 0.5
    "three-bumps": np.array([0.0, 1.0, 2.0, 0.0, 0.5, np.inf, 0.5, 0.0, 3.0, 1.5, 0.0]),
}


@pytest.mark.parametrize("name", sorted(FREE_SECTION_BARRIERS))
def test_free_section_matches_the_cell_lookup(name):
    # the per-step free-section test makes exactly the decision of a lookup
    # of the cell a state falls in, each cell at the max of its two nodes;
    # a closed node between two free cells is an edge twice
    x = np.linspace(-1.0, 1.0, 11)
    R = FREE_SECTION_BARRIERS[name]
    b = br.Barrier(x=x, R=R, horizon=4.0)
    rng = np.random.default_rng(3)
    states = np.concatenate((rng.uniform(-1.5, 1.5, 2000), x, np.nextafter(x, np.inf), [-3.0, 3.0],
                             np.nextafter(x, -np.inf), [-np.inf, np.inf, np.nan]))
    cells = np.concatenate(([0.0], np.maximum(R[:-1], R[1:]), [0.0]))
    finite = cells[np.isfinite(cells) & (cells > 0)]
    most = 0
    for t in np.unique(np.concatenate((finite, finite + 0.25, [1e-3, 10.0]))):
        edges = b.free_edges(t)
        assert len(edges) % 2 == 0 and np.all(np.diff(edges) >= 0)
        hole = (R <= t) & (cells[:-1] > t) & (cells[1:] > t)
        assert np.array_equal(edges[1:][np.diff(edges) == 0], x[hole]), t
        most = max(most, len(edges))
        ref = t >= cells[np.searchsorted(x, states, side="right")]
        assert np.array_equal(b.stops(states, t), ref), t
        assert np.array_equal(br.outside(edges, states), ref), t
        # off the nodes, the value_at of one reading
        assert np.array_equal(ref[:2000], t >= b.value_at(states[:2000])), t
    assert most == {"open-middle": 2, "all-zero": 0, "three-bumps": 6}[name]


GRIDS = {
    "linspace": np.linspace(-2.5, 3.5, 601),
    "geometric": np.exp(np.linspace(np.log(0.5), np.log(2.0), 901)),
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
    assert idx.passes == 1      # no bin holds two nodes
    b = br.Barrier(x=x, R=np.linspace(1.0, 2.0, len(x)), horizon=3.0)
    assert np.array_equal(b._index(states), idx(states))


def test_barrier_io_round_trip(tmp_path):
    b = br.Barrier(x=np.array([-1.0, 0.0, 1.25]),
                   R=np.array([-0.0, np.inf, 2.5e-7]), horizon=3.0)
    csv = tmp_path / "b.csv"
    meta = tmp_path / "b.json"
    br.save_barrier(b, str(csv), str(meta))
    text = csv.read_text()
    assert text == "x,R\n" + "".join(f"{xi:.12g},{'inf' if np.isinf(ri) else format(ri, '.12g')}\n"
                                     for xi, ri in zip(b.x, b.R))
    assert "inf" in text
    back = br.load_barrier(str(csv), horizon=3.0)
    assert np.array_equal(back.x, b.x)
    assert np.array_equal(back.R, b.R)


def test_negative_barrier_rejected():
    with pytest.raises(ValueError):
        br.Barrier(x=np.array([0.0, 1.0]), R=np.array([-0.1, 1.0]), horizon=1.0)


@pytest.mark.parametrize("x, R, message", [
    # one value short: value_at([0.5, 1.5]) would read [1, 0] and a path
    # started at 1.5 would stop at t = 0
    ([0.0, 1.0, 2.0], [1.0, 1.0], "one value R per node"),
    ([[0.0, 1.0]], [[1.0, 1.0]], "one value R per node"),
    ([], [], "at least one node"),
    ([0.0, np.inf], [1.0, 1.0], "finite"),
    ([0.0, 2.0, 1.0], [1.0, 1.0, 1.0], "strictly increasing"),
], ids=["short-R", "not-1d", "empty", "infinite-node", "unsorted"])
def test_malformed_barrier_rejected(x, R, message):
    with pytest.raises(ValueError, match=message):
        br.Barrier(x=np.array(x), R=np.array(R), horizon=1.0)


def test_grid_index_refuses_non_finite_nodes():
    with pytest.raises(ValueError, match="finite"):
        br.GridIndex(np.array([0.0, np.inf]))


@pytest.mark.parametrize("horizon", [-1.0, np.nan, np.inf])
def test_bad_horizon_rejected(horizon):
    with pytest.raises(ValueError, match="^barrier horizon must be finite and nonnegative"):
        br.Barrier(x=np.array([0.0, 1.0]), R=np.array([1.0, 1.0]), horizon=horizon)


def test_resolution_independent_stopping_distribution():
    # two solver resolutions embed the same law: coupled stopped paths give
    # stopping-time samples whose two-sample KS stays within the combined
    # barrier-discretization tolerance
    from rootbarrier import simulate as sim
    from rootbarrier import parabola as pb

    nu = ms.point_mass(0.0)
    x = np.linspace(-2.5, 3.5, 601)
    b_true = br.from_function(pb.barrier_fn, x, horizon=4.0)
    batch = sim.simulate_stopped(ob.brownian(), nu, b_true, n=150_000, dt=2e-3, seed=9)
    mu_hat = ms.empirical(batch.stopped_values, recenter_to=0.0)
    taus = {}
    for nx, nt in [(311, 700), (621, 1400)]:
        cfg = ob.SolverConfig(x_lo=-2.6, x_hi=3.6, nx=nx, horizon=3.5, nt=nt)
        b_hat = br.extract_barrier(ob.solve(ob.assemble(ob.brownian(), nu, mu_hat, cfg)))
        out = sim.simulate_stopped(ob.brownian(), nu, b_hat, n=50_000, dt=2e-3, seed=5)
        taus[nx] = np.sort(out.stop_times)
    grid = np.unique(np.concatenate(list(taus.values())))
    cdfs = [np.searchsorted(t, grid, side="right") / len(t) for t in taus.values()]
    ks12 = float(np.max(np.abs(cdfs[0] - cdfs[1])))
    assert ks12 <= 0.05
