import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varcalc import convgeom as G
from varcalc import expr as E
from varcalc import subdiff as S

from tests.brute import dense_normal_cone_oracle, reference_extremal_solve

XS = E.VarSpace.of("x")
XY = E.VarSpace.of("x", "y")
XYZ = E.VarSpace.of("x", "y", "z")

FAST = S.SampleParams(dirs_per_radius=64)


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


# ---------------------------------------------------------------------------
# sampled oracle


def test_oracle_abs_covers_interval():
    cloud = S.sampled_subdiff_oracle(f("(abs x)"), [0.0], FAST)
    union = cloud.as_union()
    sym = G.PolytopeUnion.single(interval(-1.0, 1.0))
    assert G.hausdorff_distance(sym, union) <= 0.05


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
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", sorted(PROJECTION_CASES))
def test_projection_oracle_equals_dense_scan(case, seed):
    spec, x, params = PROJECTION_CASES[case]
    params = S.SampleParams(params.radii, params.dirs_per_radius, seed=seed)
    got = S.sampled_normal_cone_oracle(spec, x, params)
    ref = dense_normal_cone_oracle(spec, x, params)
    assert got.points.shape[0] > 0
    assert np.array_equal(got.points, ref.points)
    assert np.array_equal(got.cluster_centers, ref.cluster_centers)


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
