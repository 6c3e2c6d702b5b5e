import inspect
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varcalc import bilevel as B
from varcalc import cli
from varcalc import convgeom as G
from varcalc import corpus as C
from varcalc import expr as E
from varcalc import subdiff as S
from varcalc import valuefn as V
from varcalc.problemfile import ProblemFile, parse_problem_file

from tests.brute import (
    boundary_layer_size,
    dense_normal_cone_oracle,
    reference_accepts,
    reference_cluster,
    reference_extremal_solve,
)

ROOT = Path(__file__).resolve().parent.parent
XS = E.VarSpace.of("x")
XY = E.VarSpace.of("x", "y")
XYZ = E.VarSpace.of("x", "y", "z")

FAST = S.SampleParams(dirs_per_radius=64)
WEDGE = [E.parse_function(t, XYZ) for t in ("(- 0 (+ x y))", "(- 0 (+ x z))")]


def f(text, space=XS):
    return E.parse_function(text, space)


def interval(lo, hi):
    return G.Polytope.create([[lo], [hi]])


# ---------------------------------------------------------------------------
# regular subdifferential


def test_regular_abs_at_zero():
    out = S.regular_subdifferential(f("(abs x)"), [0.0], FAST)
    assert G.polytopes_equal(out, interval(-1.0, 1.0))


def test_regular_neg_abs_empty():
    assert S.regular_subdifferential(f("(- (abs x))"), [0.0], FAST) is None


def test_regular_max_two_slopes():
    out = S.regular_subdifferential(f("(max x (* 2 x))"), [0.0], FAST)
    assert G.polytopes_equal(out, interval(1.0, 2.0))


def test_regular_min_kink_empty():
    assert S.regular_subdifferential(f("(min 0 x)"), [0.0], FAST) is None


def test_regular_smooth_case():
    out = S.regular_subdifferential(f("(* x x)"), [1.0], FAST)
    assert G.polytopes_equal(out, G.Polytope.singleton([2.0]))


def test_regular_satisfies_defining_inequality_on_samples():
    from tests.brute import regular_subgradient_halfspace_check

    cases = [
        (f("(abs x)"), np.array([0.0])),
        (f("(max (* x x) x)"), np.array([0.0])),
        (f("(+ (max x y) (min x y))", XY), np.array([0.0, 0.0])),
    ]
    dirs1 = np.array([[1.0], [-1.0]])
    dirs2 = G.directions(2, 16)
    for fn, p in cases:
        out = S.regular_subdifferential(fn, p, FAST)
        assert out is not None
        dirs = dirs1 if fn.space.dim == 1 else dirs2
        for v in out.vertices:
            assert regular_subgradient_halfspace_check(
                fn, p, v, [1e-5, 1e-6], dirs, lambda r: 1e-3
            )


# ---------------------------------------------------------------------------
# basic subdifferential


def test_basic_abs_convex_case():
    out = S.basic_subdifferential(f("(abs x)"), [0.0], FAST)
    assert len(out.parts) == 1
    assert G.polytopes_equal(out.parts[0], interval(-1.0, 1.0))


def test_basic_neg_abs_two_singletons():
    out = S.basic_subdifferential(f("(- (abs x))"), [0.0], FAST)
    assert len(out.parts) == 2
    assert G.polytopes_equal(out.parts[0], G.Polytope.singleton([-1.0]))
    assert G.polytopes_equal(out.parts[1], G.Polytope.singleton([1.0]))


def test_basic_min_zero_x():
    out = S.basic_subdifferential(f("(min 0 x)"), [0.0], FAST)
    assert len(out.parts) == 2
    assert G.polytopes_equal(out.parts[0], G.Polytope.singleton([0.0]))
    assert G.polytopes_equal(out.parts[1], G.Polytope.singleton([1.0]))


def test_basic_max_xy_segment():
    out = S.basic_subdifferential(f("(max x y)", XY), [0.0, 0.0], FAST)
    assert len(out.parts) == 1
    assert G.polytopes_equal(out.parts[0], G.Polytope.create([[0, 1], [1, 0]]))


def test_basic_smooth_equals_gradient():
    # wherever the pattern is a singleton the set is exactly the gradient
    g = f("(+ (* x x) (abs x))")
    out = S.basic_subdifferential(g, [0.5], FAST)
    assert len(out.parts) == 1
    assert out.parts[0].num_vertices == 1
    assert out.parts[0].vertices[0] == pytest.approx([2.0], abs=1e-9)


def test_regular_contained_in_hull_of_basic():
    for text, space, pt in [
        ("(abs x)", XS, [0.0]),
        ("(max (* x x) x)", XS, [0.0]),
        ("(+ (max x y) (min x y))", XY, [0.0, 0.0]),
    ]:
        g = f(text, space)
        reg = S.regular_subdifferential(g, pt, FAST)
        hull = S.basic_subdifferential(g, pt, FAST).hull()
        if reg is not None:
            for v in reg.vertices:
                assert G.point_to_polytope_distance(v, hull) <= 1e-6


def test_singular_is_zero_cone():
    assert S.singular_subdifferential(f("(abs x)"), [0.0]).is_zero()
    assert S.singular_subdifferential(f("(max x y)", XY), [0.0, 0.0]).is_zero()


@pytest.mark.parametrize("text,method", [("(abs x)", "symbolic"), ("(min 0 x)", "sampled")])
def test_full_subdifferential_builds_its_branch_table_once(text, method, monkeypatch):
    g = f(text)
    own = []
    original = S._combo_data

    def counting(fn, x, pattern):
        own.append(fn is g)
        return original(fn, x, pattern)

    monkeypatch.setattr(S, "_combo_data", counting)
    result = S.full_subdifferential(g, [0.0], FAST)
    assert own.count(True) == 1
    assert result.method == method
    regular = S.regular_subdifferential(g, [0.0], FAST)
    assert (result.regular is None) == (regular is None)
    assert regular is None or G.polytopes_equal(result.regular, regular)


# ---------------------------------------------------------------------------
# sampled oracle


def test_oracle_abs_covers_interval():
    cloud = S.sampled_subdiff_oracle(f("(abs x)"), [0.0], FAST)
    sym = G.PolytopeUnion.single(interval(-1.0, 1.0))
    assert G.hausdorff_distance(sym, cloud.as_singletons()) <= 0.05


def test_oracle_smooth_single_cluster():
    cloud = S.sampled_subdiff_oracle(f("(* x x)"), [1.0], FAST)
    assert np.all(np.abs(cloud.cluster_centers - 2.0) <= 1e-3)


def test_oracle_min_kink_no_midpoints():
    cloud = S.sampled_subdiff_oracle(f("(min 0 x)"), [0.0], FAST)
    centers = cloud.cluster_centers.ravel()
    assert np.any(np.abs(centers - 0.0) <= 1e-6)
    assert np.any(np.abs(centers - 1.0) <= 1e-6)
    assert not np.any(np.abs(centers - 0.5) <= 0.25)


def test_oracle_deterministic_given_seed():
    a = S.sampled_subdiff_oracle(f("(abs x)"), [0.0], FAST)
    b = S.sampled_subdiff_oracle(f("(abs x)"), [0.0], FAST)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.cluster_centers, b.cluster_centers)


def test_oracle_without_candidates_refuses_the_hausdorff_check():
    empty = S.OracleCloud(points=np.zeros((0, 1)), cluster_centers=np.zeros((0, 1)))
    with pytest.raises(S.SubdiffError, match="accepted no subgradient"):
        empty.as_singletons()


@st.composite
def _clouds(draw):
    """Clouds on and around the cell lattice of tol: multiples of tol / 2
    (cell boundaries, and points exactly tol apart across them), -0.0,
    floats near and far, with some rows repeated."""
    dim = draw(st.integers(1, 3))
    tol = draw(st.sampled_from([1e-8, 0.02]))
    coord = st.one_of(
        st.integers(-8, 8).map(lambda k: k * tol / 2),
        st.just(-0.0),
        st.floats(-4 * tol, 4 * tol),
        st.floats(-40 * tol, 40 * tol),
    )
    rows = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), max_size=60))
    repeats = draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=10)) if rows else []
    pts = np.array(rows + [rows[i] for i in repeats], dtype=float).reshape(-1, dim)
    return pts, tol


@settings(max_examples=300, deadline=None)
@given(_clouds())
@example((np.array([[0.0], [-0.0], [0.0], [-0.0]]), 0.02))
@example((np.array([[0.01, -0.0], [0.03, 0.0], [0.03, -0.0], [-0.01, 0.0]]), 0.02))
@example((np.array([[1e-8, 0.0, -0.0], [2e-8, 0.0, 0.0], [3e-8, 1e-8, -0.0]]), 1e-8))
# pairs at distance tol where math.dist and np.linalg.norm fall on either side of it
@example((np.array([[-0.06291361663541686, -0.017875635694664802],
                    [-0.043914996330340225, -0.011626441626344491]]), 0.02))
@example((np.array([[-2.194105201671051e-08, 1.9027209800176897e-08],
                    [-2.1730633449082022e-08, 2.9024995756397264e-08]]), 1e-8))
def test_cluster_equals_the_per_point_loop(cloud):
    pts, tol = cloud
    assert S._cluster(pts, tol).tobytes() == reference_cluster(pts, tol).tobytes()


def test_cluster_codes_past_int64_stay_exact():
    # 7-D cells ranked over 600 points need codes beyond int64
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, (600, 7))
    pts[::3] = pts[1::3] + 0.2 * S.CLUSTER_TOL
    codes, _ = S._cell_codes(np.floor(pts / S.CLUSTER_TOL).astype(np.int64))
    assert codes.dtype == object
    got = S._cluster(pts, S.CLUSTER_TOL)
    assert got.shape[0] == 400
    assert got.tobytes() == reference_cluster(pts, S.CLUSTER_TOL).tobytes()


@pytest.mark.filterwarnings("error")
def test_cluster_takes_cell_keys_past_int64(monkeypatch):
    # at radii 1e100 the oracle's candidates lie about 1e108 cells of
    # CLUSTER_TOL from the origin, past what an int64 key holds
    largest = []
    cluster = S._cluster

    def checked_cluster(pts, tol):
        got = cluster(pts, tol)
        assert got.tobytes() == reference_cluster(pts, tol).tobytes()
        largest.append(np.abs(pts).max() / tol)
        return got

    monkeypatch.setattr(S, "_cluster", checked_cluster)
    params = S.SampleParams(radii=(1e100,), dirs_per_radius=32)
    S.sampled_subdiff_oracle(f("(* x y)", XY), [0.0, 1.0], params)
    assert largest[0] > 2.0**63


def test_cluster_centers_need_not_be_separated():
    # 1.5 moves the first center to 1.0, which stays filed under the cell
    # of 0.5, so 2.0 at distance tol from it starts a center of its own
    pts = np.array([[0.5], [1.5], [2.0]])
    assert S._cluster(pts, 1.0).tolist() == [[1.0], [2.0]]
    assert reference_cluster(pts, 1.0).tolist() == [[1.0], [2.0]]


@pytest.mark.parametrize("seed", [0, 7])
def test_oracle_acceptance_and_clusters_equal_the_loops_on_the_corpus(seed, monkeypatch):
    from varcalc.corpus import CORPUS

    params = S.SampleParams(seed=seed)
    calls = {"_accepts": 0, "_cluster": 0}
    accepts, cluster = S._accepts, S._cluster

    def checked_accepts(*args):
        calls["_accepts"] += 1
        got = accepts(*args)
        assert np.array_equal(got, reference_accepts(*args))
        return got

    def checked_cluster(pts, tol):
        calls["_cluster"] += 1
        got = cluster(pts, tol)
        assert got.tobytes() == reference_cluster(pts, tol).tobytes()
        return got

    monkeypatch.setattr(S, "_accepts", checked_accepts)
    monkeypatch.setattr(S, "_cluster", checked_cluster)
    for entry in CORPUS:
        S.sampled_subdiff_oracle(entry.function(), np.asarray(entry.point), params)
    # one acceptance test per radius and one for the fill, per entry
    assert calls == {"_accepts": len(CORPUS) * (len(params.radii) + 1), "_cluster": len(CORPUS)}


# ---------------------------------------------------------------------------
# normal cones


def test_normal_cone_halfline():
    spec = S.SetSpec.sublevel([f("x")])
    nc = S.normal_cone(spec, [0.0], FAST)
    assert len(nc.parts) == 1
    assert G.cones_equal(nc.parts[0], G.ConeSpec.from_generators(1, [[1.0]]))


def test_normal_cone_parabola_sublevel():
    spec = S.SetSpec.sublevel([f("(- (* x x) y)", XY)])
    nc = S.normal_cone(spec, [0.0, 0.0], FAST)
    assert len(nc.parts) == 1
    assert G.cones_equal(nc.parts[0], G.ConeSpec.from_generators(2, [[0.0, -1.0]]))


def test_normal_cone_interior_point_zero():
    spec = S.SetSpec.sublevel([f("(- x 10)")])
    nc = S.normal_cone(spec, [0.0], FAST)
    assert nc.parts[0].is_zero()


def test_normal_cone_outside_point_rejected():
    spec = S.SetSpec.sublevel([f("x")])
    with pytest.raises(S.SubdiffError):
        S.normal_cone(spec, [1.0], FAST)


def test_normal_cone_graph_abs_refuses():
    # graph of |x| carries opposite normals, the qualification fails
    fns = [f("(- (abs x) y)", XY), f("(- y (abs x))", XY)]
    spec = S.SetSpec.graph(fns, 1, 1)
    with pytest.raises(S.QualificationError) as err:
        S.normal_cone(spec, [0.0, 0.0], FAST)
    assert "multipliers" in err.value.witness


def test_normal_cone_singleton_full_space():
    spec = S.SetSpec.singleton([0.0])
    nc = S.normal_cone(spec, [0.0], FAST)
    assert nc.parts[0].contains([5.0]) and nc.parts[0].contains([-5.0])


def test_projection_oracle_halfline():
    spec = S.SetSpec.sublevel([f("x")])
    cloud = S.sampled_normal_cone_oracle(spec, [0.0], S.SampleParams(dirs_per_radius=16))
    assert cloud.points.shape[0] > 0
    assert np.all(cloud.points > 0.9)


def test_projection_oracle_disk_boundary():
    disk = S.SetSpec.sublevel([f("(- (+ (* x x) (* y y)) 1)", XY)])
    cloud = S.sampled_normal_cone_oracle(
        disk, [1.0, 0.0], S.SampleParams(radii=(1e-2, 1e-3), dirs_per_radius=32)
    )
    assert cloud.points.shape[0] > 0
    # all accumulated directions cluster at the outward normal (1, 0)
    angles = np.arccos(np.clip(cloud.points @ np.array([1.0, 0.0]), -1, 1))
    assert float(angles.max()) <= 0.05


def test_projection_oracle_graph_abs_covers_both_branches():
    fns = [f("(- (abs x) y)", XY), f("(- y (abs x))", XY)]
    spec = S.SetSpec.graph(fns, 1, 1)
    cloud = S.sampled_normal_cone_oracle(
        spec, [0.0, 0.0], S.SampleParams(radii=(1e-2, 1e-3), dirs_per_radius=64)
    )

    def angle_to_true_cone(d):
        # true normal cone: {(v,w): w <= -|v|} union {w = |v|}
        v, w = d
        best = math.inf
        if w <= -abs(v):
            return 0.0
        for s in (1.0, -1.0):
            ray = np.array([s, 1.0]) / math.sqrt(2)
            cosang = np.clip(d @ ray, -1, 1)
            best = min(best, math.acos(cosang))
        down = np.array([s * math.sqrt(0.5), -math.sqrt(0.5)])
        for s in (1.0, -1.0):
            ray = np.array([s, -1.0]) / math.sqrt(2)
            cosang = np.clip(d @ ray, -1, 1)
            best = min(best, math.acos(cosang))
        return best

    assert cloud.points.shape[0] > 20
    worst = max(angle_to_true_cone(d) for d in cloud.points)
    assert worst <= 0.05
    # coverage of the graph branch w = |v|
    for target in (np.array([1.0, 1.0]) / math.sqrt(2), np.array([-1.0, 1.0]) / math.sqrt(2)):
        angles = [math.acos(np.clip(d @ target, -1, 1)) for d in cloud.points]
        assert min(angles) <= 0.05


def test_projection_oracle_3d_halfspace():
    spec = S.SetSpec.sublevel([f("z", XYZ)])
    cloud = S.sampled_normal_cone_oracle(spec, [0.0, 0.0, 0.0])
    assert cloud.points.shape[0] > 0
    angles = np.arccos(np.clip(cloud.points @ np.array([0.0, 0.0, 1.0]), -1, 1))
    assert float(angles.max()) <= 0.15


def _plane(normal, point, space):
    """The constraint normal . (z - point) <= 0 in the space's variables."""
    terms = " ".join(f"(* {float(a)!r} {v})" for a, v in zip(normal, space.names))
    return f(f"(- (+ {terms}) {float(np.dot(normal, point))!r})", space)


def _ball(center, radius, space):
    """The constraint |z - center|^2 <= radius^2."""
    terms = " ".join(f"(* (- {v} {float(c)!r}) (- {v} {float(c)!r}))" for c, v in zip(center, space.names))
    return f(f"(- (+ {terms}) {float(radius) ** 2!r})", space)


def _random_cases() -> dict:
    """Halfplanes, wedges and disks through seeded random points, in two
    and three dimensions."""
    rng = np.random.default_rng(20260)
    cases = {}
    for space in (XY, XYZ):
        dim = space.dim
        params = S.SampleParams(radii=(1e-2, 1e-3), dirs_per_radius=48 if dim == 2 else 24)

        def unit():
            v = rng.normal(size=dim)
            return v / np.linalg.norm(v)

        x = rng.uniform(-1, 1, dim)
        cases[f"random-halfplane-{dim}d"] = (S.SetSpec.sublevel([_plane(unit(), x, space)]), x.tolist(), params)
        x = rng.uniform(-1, 1, dim)
        wedge = [_plane(unit(), x, space) for _ in range(2)]
        cases[f"random-wedge-{dim}d"] = (S.SetSpec.sublevel(wedge), x.tolist(), params)
        center, radius = rng.uniform(-1, 1, dim), rng.uniform(0.5, 2.0)
        x = center + radius * unit()
        cases[f"random-disk-{dim}d"] = (S.SetSpec.sublevel([_ball(center, radius, space)]), x.tolist(), params)
    return cases


PROJECTION_CASES = {
    "halfline": (S.SetSpec.sublevel([f("x")]), [0.0], S.SampleParams(dirs_per_radius=16)),
    "disk": (
        S.SetSpec.sublevel([f("(- (+ (* x x) (* y y)) 1)", XY)]),
        [1.0, 0.0],
        S.SampleParams(radii=(1e-2, 1e-3), dirs_per_radius=32),
    ),
    "abs-graph": (
        S.SetSpec.graph([f("(- (abs x) y)", XY), f("(- y (abs x))", XY)], 1, 1),
        [0.0, 0.0],
        S.SampleParams(radii=(1e-2, 1e-3), dirs_per_radius=64),
    ),
    "max-corner": (
        S.SetSpec.sublevel([f("(max x y)", XY)]),
        [0.0, 0.0],
        S.SampleParams(radii=(1e-2, 1e-3), dirs_per_radius=64),
    ),
    "halfspace-3d": (
        S.SetSpec.sublevel([f("z", XYZ)]),
        [0.0, 0.0, 0.0],
        S.SampleParams(radii=(1e-2, 1e-3), dirs_per_radius=32),
    ),
    # the lower graph of the two-variable worked family
    "wedge-3d": (
        S.SetSpec.sublevel(WEDGE),
        [0.0, 0.0, 0.0],
        S.SampleParams(radii=(1e-2, 1e-3), dirs_per_radius=32),
    ),
    "corner-off-origin": (
        S.SetSpec.sublevel([f("(- (+ x (* 2 y)) 1.5)", XY), f("(- (- x y) 0.3)", XY)]),
        [0.7, 0.4],
        S.SampleParams(radii=(1e-2, 1e-3), dirs_per_radius=64),
    ),
    # the line y = 3e-10 holds the point but no lattice point; the nearest
    # feasible lattice points are those of the halfplane x >= 0.02
    "thin-line": (
        S.SetSpec.sublevel([f("(min (abs (- y 3e-10)) (- 0.02 x))", XY)]),
        [0.0, 0.0],
        S.SampleParams(radii=(1e-2,), dirs_per_radius=64),
    ),
    # as above with the halfplane y >= 0.024, which the lattice (half
    # width 0.025) cuts: the reachable ball crosses the lattice's edge
    "window-edge": (
        S.SetSpec.sublevel([f("(min (abs (- x 3e-10)) (- 0.024 y))", XY)]),
        [0.0, 0.0],
        S.SampleParams(radii=(1e-2,), dirs_per_radius=64),
    ),
    # the box [-0.3, 0.3] x [-0.2, 0.2] at its corner, times the halfline z <= 0
    "product": (
        S.SetSpec.product(
            [
                S.SetSpec.sublevel([f("(- (abs x) 0.3)")]),
                S.SetSpec.sublevel([f("(- (* x x) 0.04)")]),
                S.SetSpec.sublevel([f("x")]),
            ]
        ),
        [0.3, 0.2, 0.0],
        S.SampleParams(radii=(1e-2, 1e-3), dirs_per_radius=32),
    ),
    # the lattice's middle column lies within 1e-17 of the point's 0
    "product-singleton": (
        S.SetSpec.product([S.SetSpec.singleton([0.0]), S.SetSpec.sublevel([f("x")])]),
        [0.0, 0.0],
        S.SampleParams(radii=(1e-2, 1e-3), dirs_per_radius=32),
    ),
    **_random_cases(),
}


def _constraints(spec) -> int:
    if spec.kind == "product":
        return sum(_constraints(g) for g in spec.factors)
    return len(spec.functions)


@pytest.fixture
def oracle_work(monkeypatch):
    """Record the oracle's constraint evaluations and the size of each
    boundary layer it searches."""
    work = {"eval_open": 0, "eval_batch": 0, "layers": []}
    for name in ("eval_open", "eval_batch"):
        fn = getattr(E, name)

        def counted(*a, _fn=fn, _name=name):
            work[_name] += 1
            return _fn(*a)

        monkeypatch.setattr(E, name, counted)
    grid = S._projection_grid

    def sized_grid(*a):
        out = grid(*a)
        work["layers"].append(out[0].shape[0])
        return out

    monkeypatch.setattr(S, "_projection_grid", sized_grid)
    return work


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", sorted(PROJECTION_CASES))
def test_projection_oracle_equals_dense_scan(case, seed, monkeypatch, oracle_work):
    spec, x, params = PROJECTION_CASES[case]
    params = S.SampleParams(params.radii, params.dirs_per_radius, seed=seed)
    got = S.sampled_normal_cone_oracle(spec, x, params)
    monkeypatch.undo()
    # one feasibility evaluation per radius, on the lattice axes, and a
    # scan of no more than the lattice's boundary layer
    assert oracle_work["eval_open"] == len(params.radii) * _constraints(spec)
    assert oracle_work["eval_batch"] == 0
    grid_tol = 1e-13 * (1.0 + float(np.linalg.norm(x)))
    layers = [boundary_layer_size(spec, np.asarray(x, dtype=float), r, grid_tol) for r in params.radii]
    assert len(oracle_work["layers"]) == len(params.radii)
    assert all(n <= max(layers) for n in oracle_work["layers"])
    ref = dense_normal_cone_oracle(spec, x, params)
    assert got.points.shape[0] > 0
    assert np.array_equal(got.points, ref.points)
    assert np.array_equal(got.cluster_centers, ref.cluster_centers)


@pytest.mark.parametrize("path, limit", [("problems/worked.vp", 1000), ("problems/worked2.vp", 8000)])
def test_projection_oracle_scans_the_boundary_layer(path, limit, oracle_work):
    # the whole feasible lattice within reach held 25 831 points for
    # worked.vp at r = 1e-2 and 47 225 for worked2.vp
    pf = parse_problem_file((ROOT / path).read_text())
    spec = S.SetSpec.graph(list(pf.lower_constraints), pf.x_dim, pf.y_dim)
    params = S.SampleParams(radii=(1e-2,), dirs_per_radius=64)
    S.sampled_normal_cone_oracle(spec, pf.candidate("origin"), params)
    assert len(oracle_work["layers"]) == 1
    assert oracle_work["layers"][0] <= limit


def test_feasible_open_equals_set_membership():
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.uniform(-1, 1, (500, 3)), [[0.25, -0.5, 0.0]]])
    specs = [
        S.SetSpec.sublevel(WEDGE),
        S.SetSpec.singleton([0.25, -0.5, 0.0]),
        S.SetSpec.product([S.SetSpec.singleton([0.25]), S.SetSpec.sublevel([f("(- (+ (* x x) (* y y)) 0.5)", XY)])]),
    ]
    # on the columns of the points, and on an open grid against its lattice
    axes = [np.linspace(-1, 1, 9), np.linspace(-1, 1, 7), np.linspace(-1, 1, 5)]
    cols = [a.reshape((1,) * k + (-1,) + (1,) * (2 - k)) for k, a in enumerate(axes)]
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    for spec in specs:
        want = [S.set_membership(spec, q) for q in pts]
        assert any(want)
        got = np.broadcast_to(S.feasible_open(spec, list(pts.T)), (len(pts),))
        assert got.tolist() == want
        got = np.broadcast_to(S.feasible_open(spec, cols), (9, 7, 5)).ravel()
        assert got.tolist() == [S.set_membership(spec, q) for q in grid]


def test_projection_oracle_refuses_a_lattice_without_feasible_points():
    # the line y = 3e-10 holds the point, within TOL_GEOM, but no lattice point
    spec = S.SetSpec.sublevel([f("(abs (- y 3e-10))", XY)])
    with pytest.raises(S.SubdiffError, match="no feasible points"):
        S.sampled_normal_cone_oracle(spec, [0.0, 0.0], S.SampleParams(radii=(1e-2,), dirs_per_radius=16))


def test_oracle_3d_memory_is_bounded():
    # tracemalloc peak of this call: 3.1 MB with feasibility on the
    # lattice axes and a distance scan of the boundary layer; 6.6 MB with a
    # k-d tree on that layer, 15.3 MB searching the reachable ball, 37.0 MB
    # when the whole 81^3 lattice was stacked as a (points, 3) array
    spec = S.SetSpec.sublevel(WEDGE)
    params = S.SampleParams(radii=(1e-2,), dirs_per_radius=64)
    tracemalloc.start()
    try:
        out = S.sampled_normal_cone_oracle(spec, [0.0, 0.0, 0.0], params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.points.shape[0] > 0
    assert peak < 24 << 20


def test_oracle_memory_is_bounded_on_a_long_boundary_layer():
    # the union of seven slabs 16 z / r in [a, b]: one ends at the origin,
    # six lie between 1.5 r and 2 r from it.  At r = 1e-2 (step r / 16)
    # their boundary layer holds 17 238 lattice points, scanned from 217
    # samples; tracemalloc peak 5.3 MB in row blocks, 33.5 MB as one matrix
    far = ((24.5, 26.5), (27.5, 29.5), (30.5, 32.5))
    flats = [(-2.5, 0.0)] + [(s * a, s * b) for a, b in far for s in (1, -1)]
    roots = sorted(e / 16 for flat in flats for e in flat)
    spec = S.SetSpec.sublevel([f("(* " + " ".join(f"(- (* 100 z) {c!r})" for c in roots) + ")", XYZ)])
    params = S.SampleParams(radii=(1e-2,), dirs_per_radius=256)
    tracemalloc.start()
    try:
        out = S.sampled_normal_cone_oracle(spec, [0.0, 0.0, 0.0], params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20
    ref = dense_normal_cone_oracle(spec, [0.0, 0.0, 0.0], params)
    assert out.cluster_centers.shape[0] > 0
    assert np.array_equal(out.cluster_centers, ref.cluster_centers)
    assert np.array_equal(out.points, ref.points)


# ---------------------------------------------------------------------------
# coderivatives and the Lipschitz-like criterion


def graph_of(texts, x_dim=1, y_dim=1, space=XY):
    return S.SetSpec.graph([f(t, space) for t in texts], x_dim, y_dim)


def test_coderivative_parabola_constraint():
    spec = graph_of(["(- (* x x) y)"])
    out = S.coderivative(spec, [0.0, 0.0], [1.0], FAST)
    assert len(out) == 1
    assert out[0].is_zero_only()
    # opposite direction is empty
    assert S.coderivative(spec, [0.0, 0.0], [-1.0], FAST) == ()


def test_coderivative_linear_map_adjoint():
    spec = graph_of(["(- (* 2 x) y)", "(- y (* 2 x))"])
    for w in (1.0, -2.5):
        out = S.coderivative(spec, [0.0, 0.0], [w], FAST)
        assert len(out) == 1
        assert out[0].recession.is_zero()
        assert out[0].base.vertices[0] == pytest.approx([2.0 * w], abs=1e-9)


def test_lipschitz_like_abs_graph_true():
    spec = graph_of(["(- (abs x) y)"])
    report = S.lipschitz_like_check(spec, [0.0, 0.0], FAST)
    assert report.verdict is True


def test_lipschitz_like_sqrt_graph_false():
    spec = graph_of(["(- (* y y) x)"])
    report = S.lipschitz_like_check(spec, [0.0, 0.0], FAST)
    assert report.verdict is False
    # the coderivative at zero is the nonpositive half-line
    part = report.at_zero[0]
    cone = G.ConeSpec(
        1, np.vstack([part.recession.generators, part.base.vertices]), part.recession.lineality
    ).canonicalize()
    assert G.cones_equal(cone, G.ConeSpec.from_generators(1, [[-1.0]]))


def test_lipschitz_like_constant_graph_true():
    spec = graph_of(["y", "(- y)"])
    assert S.lipschitz_like_check(spec, [0.0, 0.0], FAST).verdict is True


def test_sampled_lipschitz_like_matches_criterion():
    spec_true = graph_of(["(- (abs x) y)"])
    ok, modulus = S.sampled_lipschitz_like_test(spec_true, [0.0, 0.0], FAST)
    assert ok and modulus <= 2.0
    spec_false = graph_of(["(- (* y y) x)"])
    ok, _ = S.sampled_lipschitz_like_test(spec_false, [0.0, 0.0], FAST)
    assert not ok


# ---------------------------------------------------------------------------
# calculus rules


def test_sum_rule_abs_plus_linear():
    report = S.verify_sum_rule([f("(abs x)"), f("x")], [0.0], FAST)
    assert report.holds
    assert report.margin <= 1e-6
    assert report.detail["equality_margin"] <= 1e-6


def test_sum_rule_indicator_case():
    omega = S.SetSpec.sublevel([f("x")])  # the nonpositive half-line
    report = S.verify_sum_rule([omega, f("x")], [0.0], FAST)
    assert report.holds
    assert report.detail["singular_sides_equal"]


def test_intersection_rule_opposite_halflines_refused():
    s1 = S.SetSpec.sublevel([f("x")])
    s2 = S.SetSpec.sublevel([f("(- x)")])
    report = S.verify_intersection_rule([s1, s2], [0.0], FAST)
    assert not report.holds
    assert report.detail["qualification_violated"]
    assert report.detail["witness_multipliers"] == pytest.approx([1.0, 1.0], abs=1e-7)


def test_intersection_rule_qualification_lp_breakdown_raises(monkeypatch):
    # a broken-down qualification LP must not read as "the condition holds"
    s1 = S.SetSpec.sublevel([f("(- y x)", XY)])
    s2 = S.SetSpec.sublevel([f("(- y)", XY)])
    monkeypatch.setattr(G, "lp_feasible", lambda *lp: G.LPBreakdown("stalled"))
    with pytest.raises(G.GeometryError, match="LP breakdown in the qualification check"):
        S.verify_intersection_rule([s1, s2], [0.0, 0.0], FAST)


def test_intersection_rule_wedge():
    s1 = S.SetSpec.sublevel([f("(- y x)", XY)])
    s2 = S.SetSpec.sublevel([f("(- y)", XY)])
    report = S.verify_intersection_rule([s1, s2], [0.0, 0.0], FAST)
    assert report.holds
    assert report.margin <= 1e-6


def test_intersection_rule_single_set_degenerate():
    report = S.verify_intersection_rule([S.SetSpec.sublevel([f("x")])], [0.0], FAST)
    assert report.holds


def test_difference_rule_abs_minus_linear():
    report = S.verify_difference_rule(f("(abs x)"), f("x"), [0.0], params=FAST)
    assert report.holds and report.margin <= 1e-6


def test_difference_rule_identity_minimizer():
    report = S.verify_difference_rule(
        f("(* x x)"), f("(* x x)"), [0.0], claimed_local_minimizer=True, params=FAST
    )
    assert report.holds
    assert report.detail["minimizer_condition_holds"]


def test_difference_rule_refutes_false_minimizer_claim():
    report = S.verify_difference_rule(
        f("(abs x)"), f("(* 2 x)"), [0.0], claimed_local_minimizer=True, params=FAST
    )
    assert report.detail["claim_refuted"]


def test_difference_rule_vacuous_when_second_empty():
    report = S.verify_difference_rule(f("x"), f("(- (abs x))"), [0.0], params=FAST)
    assert report.holds
    assert "vacuous" in report.detail


# ---------------------------------------------------------------------------
# extremal principle


def halfplanes_system():
    upper = S.SetSpec.sublevel([f("y", XY)])  # y <= 0
    lower = S.SetSpec.sublevel([f("(- y)", XY)])  # y >= 0
    return [upper, lower], [0.0, 0.0], [np.array([0.0, 1.0]), np.array([0.0, 0.0])]


def boundary_system():
    omega = S.SetSpec.sublevel([f("x")])
    point = S.SetSpec.singleton([0.0])
    return [omega, point], [0.0], [np.array([1.0]), np.array([0.0])]


def nonextremal_system():
    whole = S.SetSpec.sublevel([f("-1.0", XY)])
    return [whole, whole], [0.0, 0.0], [np.array([0.1, 0.1]), np.array([0.0, 0.0])]


def test_project_onto_rejects_a_nearer_infeasible_face():
    # the projection onto x + y = 0, (-7e-12, 7e-12), is nearer but violates
    # y <= 0 by 7e-12, which an absolute 1e-9 feasibility tolerance admitted
    spec = S.SetSpec.sublevel([f("y", XY), f("(+ x y)", XY)])
    assert S.project_onto(spec, [1.1e-16, 1.4e-11]).tolist() == [1.1e-16, 0.0]


def test_project_onto_rejects_a_face_with_negative_multipliers():
    # a narrow cone at the origin: projections onto its edges lie within the
    # feasibility tolerance at this scale, and only the multiplier signs
    # single out the true one (the reference is exact rational arithmetic)
    spec = S.SetSpec.sublevel(
        [f(t, XY) for t in ("(- (* 0.23 x) (* 0.66 y))", "(- (* 1.95 y) (* 0.37 x))", "(- (* 0.96 x) (* 0.51 y))")]
    )
    got = S.project_onto(spec, [1.8395642322645864e-12, -6.185118137112988e-12])
    assert np.allclose(got, [-2.8165149158505157e-13, -9.815127737054827e-14], rtol=1e-9, atol=0)


def test_extremal_halfplanes():
    trace = S.extremal_principle_solve(*halfplanes_system())
    assert max(trace.normalization_errors) <= 1e-9
    assert trace.euler_residuals[-1] <= 1e-3
    v1, v2 = trace.normals[-1]
    root2 = math.sqrt(0.5)
    assert v1 == pytest.approx([0.0, root2], abs=1e-2)
    assert v2 == pytest.approx([0.0, -root2], abs=1e-2)
    # euler residual decreases monotonically at the tail
    tail = [r for k, r in zip(trace.ks, trace.euler_residuals) if k >= 100]
    assert all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
    assert max(trace.stationarity_residuals) <= 1e-12


def test_extremal_boundary_point_system():
    trace = S.extremal_principle_solve(*boundary_system())
    root2 = math.sqrt(0.5)
    v1, v2 = trace.normals[-1]
    assert v1 == pytest.approx([root2], abs=1e-2)
    assert v2 == pytest.approx([-root2], abs=1e-2)
    assert max(trace.stationarity_residuals) <= 1e-12


def test_extremal_non_extremal_diagnostic():
    with pytest.raises(S.ExtremalityNotWitnessed):
        S.extremal_principle_solve(*nonextremal_system())


def test_extremal_projection_calls_bounded(monkeypatch):
    """One projection per set and face combination at each k: a search
    that evaluates the objective more often fails this count."""
    sets, point, shifts = halfplanes_system()
    ks = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
    calls = []
    project = S.project_onto
    monkeypatch.setattr(S, "project_onto", lambda spec, p: calls.append(1) or project(spec, p))
    S.extremal_principle_solve(sets, point, shifts, ks)
    combos = math.prod(S._face_count(s) for s in sets)
    assert 0 < len(calls) <= len(ks) * combos * len(sets)


def test_extremal_face_combination_cap():
    """Two sets of 16 halfspaces in 3-D have 1 + 16 + 120 + 560 = 697 faces
    each: the 485 809 combinations are refused up front, in well under a
    second and without memory growing with their number."""
    dirs = G.directions(3, 16, 3)
    halfspace = "(+ (* {} x) (* {} y) (* {} z) -1.0)"
    sets = [
        S.SetSpec.sublevel([f(halfspace.format(*(sign * d)), XYZ) for d in dirs])
        for sign in (1.0, -1.0)
    ]
    shifts = [np.array([0.0, 0.0, 1.0]), np.zeros(3)]
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(S.SubdiffError) as err:
            S.extremal_principle_solve(sets, [0.0, 0.0, 0.0], shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1 << 20
    assert "697 x 697 = 485809" in str(err.value)
    assert str(S.MAX_BRANCH_COMBOS) in str(err.value)


def _extremal_objective(sets, shifts, point, k, z):
    a = [S._shift_at(sh, k) for sh in shifts]
    d2 = sum(float(np.sum((z + ai - S.project_onto(s, z + ai)) ** 2)) for s, ai in zip(sets, a))
    return math.sqrt(d2) + float(np.dot(z - point, z - point))


def _assert_matches_reference(sets, point, shifts, ks):
    """At every k the exact solve is at least as good as SciPy's multi-start
    descent with a simplex polish and lands on the same iterate and normals;
    where it finds no distance left, the reference's is (nearly) gone too."""
    point = np.asarray(point, dtype=float)
    for k in ks:
        try:
            ref = reference_extremal_solve(sets, point, shifts, (k,))
        except S.ExtremalityNotWitnessed:
            ref = None
        try:
            new = S.extremal_principle_solve(sets, point, shifts, (k,))
        except S.ExtremalityNotWitnessed:
            assert ref is None or ref.gammas[0] <= 1e-6
            continue
        assert ref is not None, f"only the reference lost the distance term at k={k}"
        z_new, z_ref = new.iterates[0], ref.iterates[0]
        assert _extremal_objective(sets, shifts, point, k, z_new) <= (
            _extremal_objective(sets, shifts, point, k, z_ref) + 1e-12
        )
        assert np.max(np.abs(z_new - z_ref)) <= 1e-6
        for v_new, v_ref in zip(new.normals[0], ref.normals[0]):
            assert np.max(np.abs(v_new - v_ref)) <= 1e-6
        assert new.stationarity_residuals[0] <= 1e-12


@pytest.mark.parametrize("system", [halfplanes_system, boundary_system, nonextremal_system])
def test_extremal_matches_reference_on_builtins(system):
    _assert_matches_reference(*system(), ks=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))


def test_extremal_vanishing_distance_at_tangency():
    """At k = 1 the minimizer (0, -1/2) lies on the vertex of
    {y <= 0, x + y <= 0}, where the distance term stops paying exactly, so
    the vertex face's least residual and the slope of its secular function
    at 0 are both zero up to rounding: the exact solve must still find
    that the distance vanished, as the reference does."""
    corner = S.SetSpec.sublevel([f("(* 0.25 y)", XY), f("(+ (* 0.25 x) (* 0.25 y))", XY)])
    lower = S.SetSpec.sublevel([f("(* 0.25 y)", XY)])
    shifts = [np.array([0.0, 0.5]), np.array([0.0, 0.0])]
    _assert_matches_reference([corner, lower], [0.0, 0.0], shifts, ks=(1,))


SPACES = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


@st.composite
def _polyhedron(draw, names, center):
    """1-3 halfspaces row . (x - center) <= offset with offset >= 0."""
    d = len(names)
    rows = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=d, max_size=d).filter(any),
            min_size=1,
            max_size=3,
        )
    )
    fns = []
    for row in rows:
        offset = draw(st.sampled_from([0.0, 0.0, 0.5]))
        terms = " ".join(f"(* {c / 4} {n})" for c, n in zip(row, names))
        const = -(float(np.dot(row, center)) / 4 + offset)
        fns.append(E.parse_function(f"(+ {terms} {const!r})", E.VarSpace.of(*names)))
    return S.SetSpec.sublevel(fns)


@st.composite
def _set_containing(draw, names, center):
    kinds = ["polyhedron", "singleton"] + (["product"] if len(names) > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "singleton":
        return S.SetSpec.singleton(center)
    if kind == "polyhedron":
        return draw(_polyhedron(names, center))
    cut = draw(st.integers(1, len(names) - 1))
    return S.SetSpec.product(
        [
            draw(_set_containing(names[:cut], center[:cut])),
            draw(_set_containing(names[cut:], center[cut:])),
        ]
    )


@st.composite
def extremal_systems(draw):
    dim = draw(st.integers(1, 3))
    quarter = st.integers(-4, 4).map(lambda i: i / 4)
    point = np.array(draw(st.lists(quarter, min_size=dim, max_size=dim)))
    n = draw(st.integers(2, 3))
    sets = [draw(_set_containing(SPACES[dim], point)) for _ in range(n)]
    shifts = [np.array(draw(st.lists(quarter, min_size=dim, max_size=dim))) for _ in range(n)]
    return sets, point, shifts


@settings(max_examples=12, deadline=None)
@given(extremal_systems())
def test_extremal_matches_reference_on_random_systems(system):
    _assert_matches_reference(*system, ks=(1, 16))


# ---------------------------------------------------------------------------
# epigraph consistency


@pytest.mark.parametrize("text", ["(abs x)", "x", "(min 0 x)"])
def test_epigraph_consistency(text):
    report = S.epigraph_consistency_check(f(text), [0.0], FAST)
    assert report.basic_discrepancy <= 1e-7
    assert report.singular_consistent


# ---------------------------------------------------------------------------
# analysis options

# options that became constants, with the functions that took them
REMOVED_OPTIONS = [
    *((fn, "tau_act") for fn in (
        S.regular_subdifferential,
        S.basic_subdifferential,
        S.basic_subdifferential_with_census,
        S._realizable_patterns,
        S.full_subdifferential,
        S.sampled_subdiff_oracle,
        S.normal_cone,
        ProblemFile,
    )),
    (V.value_subdiff_estimate, "accept_lipschitz_like_as_isc"),
    (V.lipschitz_verdict, "accept_lipschitz_like_as_isc"),
    (V._isc_gate, "accept_lipschitz_like_as_isc"),
    (S.normal_cone, "tol"),
    (S.set_membership, "tol"),
    (S.sampled_subdiff_oracle, "fill_spacing"),
    (S._barycentric_fill, "budget"),
    (S.sampled_lipschitz_like_test, "ell_max"),
    (S.sampled_lipschitz_like_test, "v_radius"),
    (S.sampled_lipschitz_like_test, "y_resolution"),
    (S.SampleParams.directions, "extra_seed"),
    (S.SampleParams, "eps_sequence"),
    (S.SlicedCone.is_zero_only, "tol"),
    (G.hausdorff_distance, "n_dirs"),
    (G.Polytope.sample_points, "per_edge"),
    (G.clip_polytope, "tol"),
    (G.polytopes_equal, "tol"),
    (G.ConeSpec.is_zero, "tol"),
    (G.ConeSpec.contains, "tol"),
    (G._as_vertex_array, "dim"),
    (E.to_text, "space"),
]


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            if not issubclass(obj, BaseException):
                yield f"{module.__name__}.{name}", obj
            for attr in dir(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_sample_params_is_the_one_place_tau_act_is_set():
    modules = (S, V, B, C, cli)
    callables = dict(c for m in modules for c in _public_callables(m))
    assert "varcalc.subdiff.full_subdifferential" in callables
    assert "varcalc.cli.main" in callables
    takers = {
        name for name, obj in callables.items() if "tau_act" in inspect.signature(obj).parameters
    }
    assert takers == {"varcalc.subdiff.SampleParams"}
    for fn, option in REMOVED_OPTIONS:
        assert option not in inspect.signature(fn).parameters, (fn.__qualname__, option)
    assert "tol" in inspect.signature(S.feasible_open).parameters


@pytest.mark.parametrize("radii", [(1e300,), (1e-300,), (math.nan,), (math.inf,), (1e-2, math.nan), (1e-2, 0.0)])
def test_sample_params_bound_the_radii(radii):
    # a radius of 1e300 made the oracle's lattice bound step**2 / r overflow
    with pytest.raises(S.SubdiffError, match=r"radii must lie in \[1e-100, 1e\+100\]"):
        S.SampleParams(radii=radii)
    lo, hi = S.RADIUS_RANGE
    assert S.SampleParams(radii=(hi, lo)).radii == (1e100, 1e-100)


@pytest.mark.parametrize("seed", [-1, -1000000, 1.5, "7", None])
def test_sample_params_seed_is_a_nonnegative_integer(seed):
    with pytest.raises(S.SubdiffError, match="seed must be an integer >= 0"):
        S.SampleParams(seed=seed)
    assert S.SampleParams(seed=np.int64(3)).seed == 3
