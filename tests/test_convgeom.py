import ast
import inspect
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import brute as B
from varcalc import convgeom as G


# ---------------------------------------------------------------------------
# convex hull


def test_hull_interval():
    p = G.convex_hull([[-1.0], [1.0], [0.0]])
    assert p.vertices.tolist() == [[-1.0], [1.0]]


def test_hull_removes_interior_point():
    p = G.convex_hull([[0, 0], [1, 0], [0, 1], [0.25, 0.25]])
    assert p.num_vertices == 3
    assert not any(np.allclose(v, [0.25, 0.25]) for v in p.vertices)


def test_hull_single_point():
    p = G.convex_hull([[2.0, 3.0]])
    assert p.vertices.tolist() == [[2.0, 3.0]]


def test_hull_rejects_high_dim():
    with pytest.raises(G.DimensionError):
        G.convex_hull(np.zeros((2, 5)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
            lambda t: [float(t[0]) / 2, float(t[1]) / 2]
        ),
        min_size=1,
        max_size=8,
    )
)
def test_hull_idempotent(points):
    h1 = G.convex_hull(points)
    h2 = G.convex_hull(h1.vertices)
    assert B.polytopes_equal(h1, h2)


@st.composite
def point_sets(draw):
    """1 to 8 points in 1-4 dimensions, on a half-integer lattice (ties,
    collinear and coplanar points) or anywhere in [-4, 4]."""
    dim = draw(st.integers(1, 4))
    coord = st.one_of(st.integers(-8, 8).map(lambda k: k / 2), st.floats(-4, 4))
    return draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=8))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(point_sets())
def test_polytopes_and_cones_are_canonical_once_built(points):
    P = G.Polytope(points)
    assert G.Polytope(P.vertices).vertices.tobytes() == P.vertices.tobytes()
    Q = G.Polytope(-P.vertices)
    filtered = []
    real = G._dedupe_rows

    def spy(V, tol):
        filtered.append(tol)
        return real(V, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(G, "_dedupe_rows", spy)
        union = G.PolytopeUnion([P, Q])
    # the union keeps the very parts it was given and runs no hull filter
    assert filtered == []
    assert all(part is P or part is Q for part in union.parts)
    c = G.ConeSpec(P.dim, points)
    again = G.ConeSpec(c.dim, c.generators)
    assert again.generators.shape == c.generators.shape
    assert np.abs(again.generators - c.generators).max(initial=0.0) <= 1e-15


def test_a_cone_of_two_close_generators_keeps_both():
    # 1e-3 apart in angle: with cone weights capped at 1e6 the cap entered
    # the acceptance bound 1e-8 * (1 + max|b|), phase 1 accepted a margin
    # of about 1e-3, and the assignment check refused with an LP breakdown
    c = G.ConeSpec(2, [[1.0, 0.0], [1.0, 0.001]])
    assert c.generators.shape == (2, 2)
    assert c.contains([1.0, 0.0005])
    assert not c.contains([1.0, -0.0001])
    assert not c.contains([1.0, 0.0011])


# the LP loop broke down on these with "assignment violates variable
# bounds" and "assignment violates constraint by 9.015e-07"
BROKE_1D = [
    [-75.61408369948632], [-75.61408363044313], [-75.61408363808074], [-75.5530326896063],
    [-84.88687012905365],
]
BROKE_POLYTOPE = [
    [-0.003466274121739971, 0.08691487958335836, -0.036248770969103665],
    [-0.0034662700418916954, 0.08691480123023305, -0.03624870120986087],
]


def test_hull_of_a_1d_set_the_lp_broke_down_on_is_its_min_and_max():
    assert G.convex_hull(BROKE_1D).vertices.tolist() == [[-84.88687012905365], [-75.5530326896063]]


def test_vertex_of_a_polytope_the_lp_broke_down_on_is_inside():
    poly = G.Polytope(np.array(BROKE_POLYTOPE))
    assert all(poly.contains(v) for v in BROKE_POLYTOPE)


def _no_lp(*lp):
    raise AssertionError("an LP ran")


def test_clear_hulls_and_vertex_memberships_run_no_lp(monkeypatch):
    # below three dimensions neither hulls nor memberships run an LP
    square = G.Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    monkeypatch.setattr(G, "lp_feasible", _no_lp)
    assert G.convex_hull([[3.0], [-1.0], [0.5], [2.0], [-1.0]]).vertices.tolist() == [[-1.0], [3.0]]
    assert G.convex_hull([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]).num_vertices == 2
    # the LP loop broke down on this one (a residual of 5e-5)
    assert G.convex_hull([[1e6 + 50.0], [1e6]]).vertices.tolist() == [[1e6], [1e6 + 50.0]]
    assert all(square.contains(v) for v in square.vertices)
    # the parts' vertices are vertices of the larger part
    union = G.PolytopeUnion([G.Polytope.singleton([1.0]), G.Polytope(np.array([[0.0], [1.0]]))])
    assert union.canonical_key() == (((0.0,), (1.0,)),)
    # planar hulls, and memberships of points that are no stored vertex
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [1.0, 1.0], [1.0, 0.5], [0.25, 0.0]]
    assert sorted(G.convex_hull(pts).vertices.tolist()) == sorted(square.vertices.tolist())
    assert G.convex_hull([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]]).vertices.tolist() == [[0.0, 0.0], [2.0, 2.0]]
    inside = ([0.5, 0.5], [1.0, 0.3], [1.0 + 5e-9, 0.3], [1.0 + 5e-9, 1.0 + 5e-9], [0.0, 1.0 - 1e-12])
    outside = ([1.0 + 2e-8, 0.5], [1.0 + 1e-8, 1.0 + 1e-8], [-0.5, 0.5], [2.0, 2.0])
    assert all(square.contains(q) for q in inside)
    assert not any(square.contains(q) for q in outside)
    segment = G.Polytope(np.array([[0.0, 0.0], [2.0, 1.0]]))
    assert segment.contains([1.0, 0.5]) and segment.contains([1.0, 0.5 + 1e-8])
    assert not segment.contains([1.0, 0.5 + 3e-8]) and not segment.contains([2.0 + 2e-8, 1.0 + 1e-8])
    interval = G.Polytope(np.array([[-1.0], [2.0]]))
    assert interval.contains([0.5]) and interval.contains([2.0 + 1e-8])
    assert not interval.contains([2.0 + 2e-8]) and not interval.contains([-1.5])


def test_found_hulls_keep_their_exact_extreme_points():
    # the LP accepted 5 as inside the hull of 5 + 3e-8 and dropped 1000 (a
    # gap of 1000 * TOL_GEOM), and it broke down on the 1-D set below
    assert G.convex_hull([[5.0], [5.0 + 3e-8]]).vertices.tolist() == [[5.0], [5.0 + 3e-8]]
    assert G.convex_hull([[1000.0], [1000.00001]]).vertices.tolist() == [[1000.0], [1000.00001]]
    broke = [[-431.9219048421882], [-431.9218782432394], [-431.9216093728141]]
    assert G.convex_hull(broke).vertices.tolist() == [[-431.9219048421882], [-431.9216093728141]]
    # a point within TOL_GEOM of another is one point, at any magnitude
    assert G.convex_hull([[1000.0], [1000.0 + 5e-9]]).vertices.tolist() == [[1000.0]]


def test_hull_drops_the_meeting_point_of_its_chains_when_it_is_flat():
    # the lexicographically first point lies 1e-9 off the segment between
    # the two others; no chord of the monotone chain tests it
    flat = [[0.5, 0.0], [0.5 + 1e-9, -1.0], [0.5 + 1e-9, 1.0]]
    assert G.convex_hull(flat).vertices.tolist() == [[0.5 + 1e-9, -1.0], [0.5 + 1e-9, 1.0]]
    # off by 1e-7 it is a corner
    corner = [[0.5, 0.0], [0.5 + 1e-7, -1.0], [0.5 + 1e-7, 1.0]]
    assert G.convex_hull(corner).num_vertices == 3


@st.composite
def band_sets(draw):
    """Sets of two to six points in one or two dimensions at magnitudes
    1e-3 to 1e6.  A new point sits off an earlier one, at a gap of 1e-9 to
    1e-5 relative to the magnitude (so that gaps fall on both sides of
    TOL_GEOM at every scale) or at one of the order of the magnitude."""
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(2, 6))
    mag = 10.0 ** draw(st.floats(-3.0, 6.0))
    unit = st.floats(-1.0, 1.0)
    pts = [mag * np.array([draw(unit) for _ in range(dim)])]
    for _ in range(n - 1):
        ref = pts[draw(st.integers(0, len(pts) - 1))]
        if draw(st.booleans()):
            gap = 10.0 ** draw(st.floats(-9.0, -5.0)) * max(1.0, mag)
        else:
            gap = mag * draw(st.floats(0.0, 2.0))
        step = np.array([draw(unit) for _ in range(dim)])
        step = step / np.abs(step).sum() if np.any(step) else np.eye(dim)[0]
        pts.append(ref + gap * step)
    return np.array(pts)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(band_sets())
def test_planar_hulls_cover_their_points_and_keep_only_corners(pts):
    # with no LP: every input point lies within TOL_GEOM per dropped point
    # of the hull (each drop, of a duplicate or of a point within
    # TOL_GEOM of a chord, moves the hull by at most TOL_GEOM), every kept
    # vertex lies farther than TOL_GEOM from the hull of the other kept
    # vertices, and the hull contains every input point that lies within
    # TOL_GEOM of it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(G, "lp_feasible", _no_lp)
        hull = G.convex_hull(pts)
        dist = [B.planar_hull_distance(q, hull.vertices) for q in pts]
        assert max(dist) <= (len(pts) - hull.num_vertices) * G.TOL_GEOM
        assert all(hull.contains(q) for q, d in zip(pts, dist) if d <= G.TOL_GEOM)
    V = hull.vertices
    for i in range(len(V) if len(V) > 1 else 0):
        assert B.planar_hull_distance(V[i], np.delete(V, i, axis=0)) > G.TOL_GEOM


DRIFTED_ARC = [
    [0.0, 0.0], [10.270236526699865, -2.86821224332799e-08], [12.687103777056191, -2.4236405555306892e-08],
    [14.455863759067809, -1.8279803315615305e-08], [16.269278493293982, -9.801071426332047e-09],
    [17.919266482691793, 0.0],
]


@st.composite
def gentle_arcs(draw):
    """Three to twelve points on a parabolic arc, chord length 1 to 20,
    that bows 0.5 to 8 TOL_GEOM below its chord, turned by an angle: each
    point lies near the chord of its neighbours, the middle ones far from
    the whole chord."""
    n = draw(st.integers(3, 12))
    length = draw(st.floats(1.0, 20.0))
    depth = draw(st.floats(0.5, 8.0)) * G.TOL_GEOM
    xs = np.sort([0.0, length, *(draw(st.floats(0.0, length)) for _ in range(n - 2))])
    arc = np.c_[xs, -4 * depth * xs * (length - xs) / length**2]
    angle = draw(st.one_of(st.just(0.0), st.floats(0.0, 2 * np.pi)))
    c, s = np.cos(angle), np.sin(angle)
    return arc @ np.array([[c, s], [-s, c]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gentle_arcs())
def test_planar_hulls_of_gentle_arcs_do_not_drift(pts):
    # drops within TOL_GEOM of a chord added up: the hull of DRIFTED_ARC
    # was the bare chord, 2.87 TOL_GEOM from its second point
    hull = G.convex_hull(pts)
    for q in pts:
        assert hull.contains(q)
        assert B.planar_hull_distance(q, hull.vertices) <= G.TOL_GEOM + 1e-14
    assert G.convex_hull(hull.vertices).vertices.tobytes() == hull.vertices.tobytes()


def test_the_drifted_arc_keeps_the_points_its_chord_left_out():
    hull = G.convex_hull(DRIFTED_ARC)
    assert all(hull.contains(q) for q in DRIFTED_ARC)
    assert hull.num_vertices > 2
    assert G.convex_hull(hull.vertices).vertices.tobytes() == hull.vertices.tobytes()


def test_hull_collinear_degenerate():
    p = G.convex_hull([[0, 0], [1, 1], [2, 2], [0.5, 0.5]])
    assert p.num_vertices == 2


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("seed", range(6))
def test_hull_matches_qhull(dim, seed):
    # full-dimensional points in general position, in a box or on a
    # sphere, plus strictly interior convex combinations of them
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(100 * dim + seed)
    n = int(rng.integers(dim + 2, 4 * dim + 7))
    pts = rng.uniform(-1, 1, (n, dim))
    if seed % 2:
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts = np.vstack([pts, rng.dirichlet(np.ones(n), size=4) @ pts])
    pts = pts[rng.permutation(pts.shape[0])]
    want = pts[ConvexHull(pts).vertices]
    got = G.convex_hull(pts).vertices
    assert sorted(map(tuple, got)) == sorted(map(tuple, want))


def _qhull_extreme_points(pts: np.ndarray) -> set:
    """Qhull's extreme points of pts, found in the coordinates of their
    affine hull: Qhull needs a full-dimensional input, so a flat set is
    first written in an orthonormal basis of the directions it spans."""
    from scipy.spatial import ConvexHull

    centred = pts - pts.mean(axis=0)
    _, s, vt = np.linalg.svd(centred)
    rank = int(np.sum(s > 1e-9 * s[0])) if s[0] > 0 else 0
    coords = centred @ vt[:rank].T
    if rank == 0:
        idx = [0]
    elif rank == 1:
        idx = [int(np.argmin(coords[:, 0])), int(np.argmax(coords[:, 0]))]
    else:
        idx = ConvexHull(coords).vertices
    return {tuple(pts[i]) for i in idx}


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("seed", range(6))
def test_hull_matches_qhull_with_points_on_faces_and_duplicates(dim, seed):
    # points on Qhull's facets and on edges of its facet simplices, and
    # exact copies of input points, none of which is an extreme point
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(700 + 10 * dim + seed)
    pts = rng.uniform(-1, 1, (int(rng.integers(dim + 2, 3 * dim + 5)), dim))
    facets = pts[ConvexHull(pts).simplices]  # (F, dim, dim)
    on_facets = np.einsum("fk,fkd->fd", rng.dirichlet(np.ones(dim), len(facets)), facets)
    on_edges = (facets[:, 0] + facets[:, 1]) / 2
    copies = pts[rng.integers(0, len(pts), 3)]
    pts = np.vstack([pts, on_facets, on_edges, copies])
    pts = pts[rng.permutation(len(pts))]
    got = G.convex_hull(pts).vertices
    assert len(got) == len({tuple(v) for v in got})
    assert {tuple(v) for v in got} == _qhull_extreme_points(pts)


@pytest.mark.parametrize("dim, flat", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
@pytest.mark.parametrize("seed", range(4))
def test_hull_matches_qhull_on_flat_sets(dim, flat, seed):
    # points on a random affine subspace of dimension flat < dim, interior
    # combinations of them and a duplicate; Qhull sees them in the
    # subspace's own coordinates
    rng = np.random.default_rng(900 + 100 * dim + 10 * flat + seed)
    basis = np.linalg.qr(rng.standard_normal((dim, flat)))[0].T  # (flat, dim) orthonormal rows
    local = rng.uniform(-1, 1, (int(rng.integers(flat + 2, 3 * flat + 6)), flat))
    local = np.vstack([local, rng.dirichlet(np.ones(len(local)), size=3) @ local, local[:1]])
    pts = rng.uniform(-1, 1, dim) + local @ basis
    pts = pts[rng.permutation(len(pts))]
    got = G.convex_hull(pts).vertices
    assert {tuple(v) for v in got} == _qhull_extreme_points(pts)


# ---------------------------------------------------------------------------
# LP


def _standard_form(rows, senses, rhs, upper):
    """A z = b, z >= 0 for rows with senses "<=", ">=", "==" and the
    variables' bounds z_j <= upper_j: each finite bound is a "<=" row after
    the given ones, and each inequality gets a slack column (+1) or a
    surplus column (-1) after the variables."""
    rows = np.array(rows, dtype=float)
    capped = np.flatnonzero(np.isfinite(upper))
    rows = np.vstack([rows, np.eye(len(upper))[capped]])
    senses = list(senses) + ["<="] * capped.size
    rhs = np.concatenate([np.asarray(rhs, dtype=float), np.asarray(upper, dtype=float)[capped]])
    sign = {"<=": 1.0, ">=": -1.0}
    ineq = [i for i, s in enumerate(senses) if s != "=="]
    slacks = np.zeros((len(senses), len(ineq)))
    for k, i in enumerate(ineq):
        slacks[i, k] = sign[senses[i]]
    return np.hstack([rows, slacks]), rhs


def _random_rows(rng, n, count, rhs_hi):
    senses = [["<=", ">=", "=="][int(rng.integers(0, 3))] for _ in range(count)]
    rows = rng.integers(-3, 4, (count, n)).astype(float)
    return rows, senses, rng.integers(-rhs_hi, rhs_hi + 1, count).astype(float)


def test_lp_feasible_simplex_edge():
    out = G.lp_feasible([[1.0, 1.0]], [1.0])
    assert isinstance(out, G.LPFeasible)
    x = out.assignment
    assert x[0] + x[1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(x >= -1e-9)


def test_lp_membership_halfway():
    # 0.5 = 0.25 * (-1) + 0.75 * 1
    base = G.Polytope([[-1.0], [1.0]])
    out = G.minkowski_membership([0.5], base)
    assert isinstance(out, G.Membership)
    assert out.base_weights == pytest.approx([0.25, 0.75], abs=1e-8)


def test_lp_certificates_verify():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        rows, senses, rhs = _random_rows(rng, n, int(rng.integers(1, 4)), 3)
        A, b = _standard_form(rows, senses, rhs, np.full(n, 10.0))
        out = G.lp_feasible(A, b)
        assert not isinstance(out, G.LPBreakdown)
        if isinstance(out, G.LPFeasible):
            z = out.assignment
            assert A @ z == pytest.approx(b, abs=1e-7)
            assert np.all(z >= -1e-7) and np.all(z[:n] <= 10.0 + 1e-7)


def test_a_needle_cone_builds():
    # rounding left a reduced cost of -1.00000008e-9 on a column whose one
    # positive entry is 1e-9, below the ratio test's TOL_LP: phase 1 took
    # that column and refused with "unbounded pivot column in phase 1"
    c = G.ConeSpec(2, [[0, -1], [1, 0], [-1, 0], [1e-9, 1]])
    assert c.generators.shape == (4, 2)
    assert c.contains([1.0, 0.0])


def test_cone_lps_with_tiny_entries_never_break_down_unbounded():
    # 2-D cones of integer generators, one entry 1e-10..1e-8: each
    # generator against the cone of the others, as ConeSpec tests it
    rng = np.random.default_rng(7)
    feasible = 0
    for _ in range(300):
        gens = rng.integers(-1, 2, (int(rng.integers(3, 6)), 2)).astype(float)
        gens[rng.integers(len(gens)), rng.integers(2)] = rng.choice([-1, 1]) * 10 ** rng.uniform(-10, -8)
        for i, g in enumerate(gens):
            if np.linalg.norm(g) > 1e-7:
                A, b = np.delete(gens, i, axis=0).T, g / np.linalg.norm(g)
                out = G.lp_feasible(A, b)
                assert not (isinstance(out, G.LPBreakdown) and "unbounded" in out.reason)
                if isinstance(out, G.LPFeasible):
                    feasible += 1
                    assert np.abs(A @ out.assignment - b).max() <= G.TOL_ASSIGN
                    assert out.assignment.min() >= -G.TOL_ASSIGN
    assert feasible > 400


@pytest.mark.parametrize(
    "A, b",
    [
        ([[1.0, np.nan]], [1.0]),
        ([[1.0, 1.0]], [np.inf]),
        (np.ones((1, G.MAX_LP_VARS + 1)), [1.0]),
        (np.ones((1, 0)), [1.0]),
    ],
)
def test_lp_rejects_non_finite_or_oversized_data(A, b):
    with pytest.raises(G.GeometryError):
        G.lp_feasible(A, b)


def _random_lp(rng, n):
    rows, senses, rhs = _random_rows(rng, n, int(rng.integers(1, 6)), 5)
    return _standard_form(rows, senses, rhs, rng.choice([np.inf, 3.0, 1e6], n))


def _degenerate_lp(rng, n):
    # every row tight at one integer vertex, with repeated, scaled and
    # all-zero rows
    x0 = rng.integers(0, 3, n).astype(float)
    rows, senses, cut = [], [], []
    for _ in range(int(rng.integers(n, 2 * n + 3))):
        a = rng.integers(-2, 3, n).astype(float)
        rows += [a, 2.0 * a]
        senses += [["<=", ">=", "=="][int(rng.integers(0, 3))]] * 2
        cut += [0.0, 0.0]
    rows.append(np.zeros(n))
    senses.append("<=")
    cut.append(0.0)
    if rng.random() < 0.5:
        # cut the vertex off: infeasible by a margin of one
        a = rng.integers(1, 3, n).astype(float)
        rows += [a, a]
        senses += [">=", "<="]
        cut += [1.0, 0.0]
    return _standard_form(rows, senses, np.array(rows) @ x0 + cut, np.full(n, 10.0))


def _cap_bound_lp(rng, n):
    # weights capped at 1e6 by explicit bound rows: a target at
    # scale * 1e6 along a positive combination of generators, just inside
    # or just past the caps
    gens = rng.integers(0, 4, (2, n)).astype(float)
    gens[:, 0] = 1.0
    w = rng.integers(1, 4, n).astype(float)
    scale = rng.choice([0.5, 0.999, 1.001, 2.0])
    target = scale * 1e6 * (gens @ w) / w.max()
    return _standard_form(gens, ["=="] * 2, target, np.full(n, 1e6))


@pytest.mark.parametrize("make", [_random_lp, _degenerate_lp, _cap_bound_lp])
def test_lp_verdicts_match_highs(make):
    from scipy.optimize import linprog

    rng = np.random.default_rng(23)
    verdicts = set()
    for _ in range(120):
        A, b = make(rng, int(rng.integers(1, 6)))
        out = G.lp_feasible(A, b)
        assert not isinstance(out, G.LPBreakdown), out
        ref = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status in (0, 2), ref.message
        assert isinstance(out, G.LPFeasible) == (ref.status == 0)
        verdicts.add(ref.status)
    assert verdicts == {0, 2}


def _random_blocks(rng):
    """Blocks of small integer rows mixing the two kinds, and a target:
    a combination of the blocks with valid weights, free weights up to 5
    or up to 1e6, or random integers."""
    dim = int(rng.integers(1, 4))
    kinds = rng.choice(["convex", "free"], int(rng.integers(1, 5)))
    blocks = [(rng.integers(-3, 4, (int(rng.integers(1, 4)), dim)).astype(float), str(k)) for k in kinds]
    how = rng.integers(0, 3)
    if how == 2:
        return blocks, rng.integers(-4, 5, dim).astype(float)
    target = np.zeros(dim)
    for V, kind in blocks:
        if kind == "convex":
            w = rng.dirichlet(np.ones(len(V)))
        else:
            w = rng.uniform(0, 1e6 if how == 1 else 5, len(V))
        target += V.T @ w
    return blocks, target


def test_lp_weights_match_highs_on_block_systems():
    from scipy.optimize import linprog

    rng = np.random.default_rng(31)
    verdicts = set()
    for _ in range(300):
        blocks, target = _random_blocks(rng)
        out = G.lp_weights(target, blocks, "a test")
        # the reference LP: one column per block row, equalities, then a
        # sum-to-one row per convex block; no column bounded above
        n = sum(len(V) for V, _ in blocks)
        A_eq, b_eq, col = [np.hstack([V.T for V, _ in blocks])], [target], 0
        for V, kind in blocks:
            if kind == "convex":
                row = np.zeros((1, n))
                row[0, col : col + len(V)] = 1.0
                A_eq.append(row)
                b_eq.append([1.0])
            col += len(V)
        ref = linprog(
            np.zeros(n), A_eq=np.vstack(A_eq), b_eq=np.concatenate(b_eq), bounds=(0, None), method="highs"
        )
        assert ref.status in (0, 2), ref.message
        assert isinstance(out, float) == (ref.status == 2), (blocks, target)
        verdicts.add(ref.status)
        if isinstance(out, float):
            assert out > 0
            continue
        assert [w.shape for w in out] == [(len(V),) for V, _ in blocks]
        assert sum(V.T @ w for (V, _), w in zip(blocks, out)) == pytest.approx(target, abs=1e-7)
        for (_, kind), w in zip(blocks, out):
            assert np.all(w >= -1e-7)
            if kind == "convex":
                assert w.sum() == pytest.approx(1.0, abs=1e-7)
    assert verdicts == {0, 2}


def test_lp_weights_rejects_an_unknown_block_kind():
    # "cone" was a third kind, with weights capped at 1e6; cone weights
    # are free weights now
    for kind in ("bounded", "cone"):
        with pytest.raises(ValueError, match="block kinds are convex or free"):
            G.lp_weights([1.0], [(np.ones((1, 1)), "convex"), (np.ones((1, 1)), kind)], "a test")


def _names(tree) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }


def test_lp_weights_is_the_one_lp_assembler():
    # only lp_weights calls the simplex, no module outside convgeom
    # names it, the package root only re-exports it, and the cone cap
    # is gone
    src = Path(G.__file__).parent
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    callers = [
        fn.name
        for fn in ast.walk(trees["convgeom.py"])
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and "lp_feasible" in _names(call.func)
    ]
    assert callers == ["lp_weights"]
    for name, tree in trees.items():
        if name in ("convgeom.py", "__init__.py"):
            continue
        assert "lp_feasible" not in _names(tree), name
    assert not hasattr(G, "R_CONE")
    assert list(inspect.signature(G.lp_feasible).parameters) == ["A", "b"]


def test_hull_lps_run_two_frames_below_in_hull_lp(monkeypatch):
    # the frame depth lp_feasible <- lp_weights <- _in_hull_lp, which
    # tests that tell hull LPs from others by frame name rely on
    frames = []
    real = G.lp_feasible

    def spy(*lp):
        frames.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
        return real(*lp)

    monkeypatch.setattr(G, "lp_feasible", spy)
    G.convex_hull([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.2, 0.2, 0.2]])
    assert frames and set(frames) == {("lp_weights", "_in_hull_lp")}


# ---------------------------------------------------------------------------
# minkowski membership


def test_membership_midpoint_trivial():
    base = G.Polytope([[-1.0], [1.0]])
    assert isinstance(G.minkowski_membership([0.0], base), G.Membership)


def test_membership_scaled_term():
    # (0,1) + lambda * (-1,-1) = (-1,0) at lambda = 1
    base = G.Polytope.singleton([0.0, 1.0])
    term = G.Polytope.singleton([-1.0, -1.0])
    out = G.minkowski_membership([-1.0, 0.0], base, scaled_terms=[term])
    assert isinstance(out, G.Membership)
    assert out.scales == pytest.approx([1.0], abs=1e-8)


def test_membership_scaled_term_wrong_side():
    base = G.Polytope.singleton([0.0])
    term = G.Polytope.singleton([-1.0])
    out = G.minkowski_membership([2.0], base, scaled_terms=[term])
    assert isinstance(out, G.NotMember)
    assert out.margin > 0


def test_membership_with_cone():
    base = G.Polytope.singleton([1.0])
    cone = G.ConeSpec(1, [[1.0]])
    assert isinstance(G.minkowski_membership([5.0], base, cones=[cone]), G.Membership)
    assert isinstance(G.minkowski_membership([0.5], base, cones=[cone]), G.NotMember)


def test_membership_agrees_with_brute_force_small():
    # randomized instances on a lattice so the dense weight grid can
    # reproduce any member exactly; see test_acceptance for the full run
    from tests.brute import brute_force_membership, random_instance

    rng = np.random.default_rng(99)
    for i in range(40):
        inst = random_instance(rng)
        lp = G.minkowski_membership(inst.target, inst.base, scaled_terms=inst.scaled)
        brute = brute_force_membership(inst)
        assert isinstance(lp, (G.Membership, G.NotMember))
        assert isinstance(lp, G.Membership) == inst.is_member
        assert brute == inst.is_member


# ---------------------------------------------------------------------------
# clipping and distances


def test_clip_interval():
    p = G.Polytope([[-1.0], [1.0]])
    out = G.clip_polytope(p, np.array([[1.0]]), np.array([0.25]))
    assert B.polytopes_equal(out, G.Polytope([[-1.0], [0.25]]))


def test_clip_to_empty():
    p = G.Polytope([[-1.0], [1.0]])
    out = G.clip_polytope(p, np.array([[1.0], [-1.0]]), np.array([-0.5, -0.5]))
    assert out is None


def test_clip_triangle_to_point():
    tri = G.Polytope([[2, 0], [1, 1], [0, 2]])
    dirs = G.directions(2, 16)
    offsets = np.array([float(d @ np.array([1.0, 1.0])) for d in dirs])
    out = G.clip_polytope(tri, dirs, offsets)
    assert out is not None
    assert np.all(np.linalg.norm(out.vertices - np.array([1.0, 1.0]), axis=1) < 1e-9)


def test_point_distance_exact():
    sq = G.Polytope([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert G.point_to_polytope_distance([2.0, 0.5], sq) == pytest.approx(1.0)
    assert G.point_to_polytope_distance([0.5, 0.5], sq) == pytest.approx(0.0)
    assert G.point_to_polytope_distance([2.0, 2.0], sq) == pytest.approx(np.sqrt(2.0))


def test_thin_simplex_distance_sees_a_point_just_outside():
    # the point lies 5e-8 below the edge y = 0; a weight slack of 1e-9 that
    # ignored the triangle's height of 100 read it as inside (2.9e-14)
    thin = G.Polytope(np.array([[0.0, 0.0], [0.0, 100.0], [1e-3, 0.0]]))
    assert G.point_to_polytope_distance([5e-8, -5e-8], thin) == pytest.approx(5e-8, rel=1e-6)


def _distance_case(rng, dim, nv, kind, n_points):
    """Vertices of one shape (general, rounded to 0.1, with a duplicate or
    with a collinear vertex) and points on its vertices, on its faces,
    inside, near and far away."""
    V = rng.standard_normal((nv, dim))
    if kind == "rounded":
        V = np.round(V, 1)
    elif kind == "duplicate" and nv > 1:
        V[-1] = V[0]
    elif kind == "collinear" and nv > 2:
        V[-1] = 0.3 * V[0] + 0.7 * V[1]
    pts = [V]
    while sum(len(p) for p in pts) < n_points:
        k = int(rng.integers(1, min(nv, dim + 1) + 1))
        W = np.zeros((8, nv))
        W[:, rng.choice(nv, size=k, replace=False)] = rng.dirichlet(np.ones(k), size=8)
        pts.append(W @ V)  # on a face (or inside when k = dim+1)
        pts.append(np.round(W @ V, 1))
        pts.append(V[rng.integers(nv, size=4)] + 1e-3 * rng.standard_normal((4, dim)))
        pts.append(100.0 * rng.standard_normal((4, dim)))
    return G.Polytope(V), np.vstack(pts)[:n_points]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_distance_equals_reference_bitwise(dim):
    # margins enter the JSON at full precision, so the batched kernel must
    # produce the one-point routine's floats exactly, in small batches,
    # single rows and batches of more than 1000 rows
    from tests.brute import reference_point_to_polytope_distance as ref

    rng = np.random.default_rng(dim)
    for nv in range(1, 7):
        for kind in ("general", "rounded", "duplicate", "collinear"):
            poly, P = _distance_case(rng, dim, nv, kind, 40)
            want = np.array([ref(p, poly) for p in P])
            assert np.array_equal(G.point_to_polytope_distances(P, poly), want)
            for i in range(0, len(P), 8):
                one = G.point_to_polytope_distances(P[i : i + 1], poly)
                assert np.array_equal(one, want[i : i + 1])
                assert G.point_to_polytope_distance(P[i], poly) == want[i]
    poly, P = _distance_case(rng, dim, 6, "duplicate", 1200)
    want = np.array([ref(p, poly) for p in P])
    assert np.array_equal(G.point_to_polytope_distances(P, poly), want)


def test_distance_matches_slsqp_qp():
    # independent check: min ||V^T w - p|| over simplex weights w by SciPy
    from scipy.optimize import minimize

    rng = np.random.default_rng(11)
    simplex = {"type": "eq", "fun": lambda w: w.sum() - 1.0, "jac": lambda w: np.ones(w.size)}
    for dim in (1, 2, 3):
        for nv in range(1, 7):
            V = rng.standard_normal((nv, dim))
            poly = G.Polytope(V)
            P = 1.5 * rng.standard_normal((6, dim))
            got = G.point_to_polytope_distances(P, poly)
            for p, d in zip(P, got):
                res = minimize(
                    lambda w: float((V.T @ w - p) @ (V.T @ w - p)),
                    np.full(nv, 1.0 / nv),
                    jac=lambda w: 2.0 * V @ (V.T @ w - p),
                    method="SLSQP",
                    bounds=[(0.0, 1.0)] * nv,
                    constraints=[simplex],
                    options={"ftol": 1e-14, "maxiter": 500},
                )
                # SLSQP's weights are feasible, so its distance bounds the
                # true one from above whether or not it reports success
                assert res.x.min() >= -1e-9 and abs(res.x.sum() - 1.0) <= 1e-9
                assert abs(np.linalg.norm(V.T @ res.x - p) - d) <= 1e-7


def test_contains_segment_and_singleton():
    seg = G.Polytope([[0.0], [1.0]])
    assert seg.contains([1.0]) and seg.contains([0.25])
    assert not seg.contains([1.1]) and not seg.contains([-1e-3])
    point = G.Polytope.singleton([0.0])
    assert point.contains([5e-8]) and not point.contains([2e-7])
    union = G.PolytopeUnion([point, G.Polytope([[2.0], [3.0]])])
    assert union.contains([-5e-8]) and union.contains([2.5])
    assert not union.contains([1.0])
    # membership has one fixed tolerance: 1e-7 for a singleton, the LP's for a hull
    with pytest.raises(TypeError):
        seg.contains([1.1], tol=0.5)


# ---------------------------------------------------------------------------
# hausdorff


def test_hausdorff_identity():
    p = G.PolytopeUnion([G.Polytope([[-1.0], [1.0]])])
    assert G.hausdorff_distance(p, p) == pytest.approx(0.0, abs=1e-12)


def test_hausdorff_two_points():
    a = G.PolytopeUnion([G.Polytope.singleton([0.0])])
    b = G.PolytopeUnion([G.Polytope.singleton([1.0])])
    assert G.hausdorff_distance(a, b) == pytest.approx(1.0)


def test_hausdorff_union_vs_hull():
    union = G.PolytopeUnion([G.Polytope.singleton([-1.0]), G.Polytope.singleton([1.0])])
    interval = G.PolytopeUnion([G.Polytope([[-1.0], [1.0]])])
    assert G.hausdorff_distance(union, interval) == pytest.approx(1.0, abs=1e-9)
    # the union's points lie in the interval, whose midpoint is 1 from both
    assert G.directed_distance(union, interval) == 0.0
    assert G.directed_distance(interval, union) == pytest.approx(1.0, abs=1e-9)


def test_hausdorff_symmetric_convex():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = G.PolytopeUnion([G.Polytope(rng.uniform(-2, 2, (4, 2)))])
        b = G.PolytopeUnion([G.Polytope(rng.uniform(-2, 2, (4, 2)))])
        assert G.hausdorff_distance(a, b) == pytest.approx(G.hausdorff_distance(b, a), abs=1e-12)


def test_hausdorff_zero_iff_equal_canonical():
    a = G.PolytopeUnion([G.Polytope([[0, 0], [1, 0], [0, 1]])])
    b = G.PolytopeUnion([G.Polytope([[0, 0], [1, 0], [0, 1], [0.2, 0.2]])])
    assert G.hausdorff_distance(a, b) == pytest.approx(0.0, abs=1e-12)
    assert a.canonical_key() == b.canonical_key()
    c = G.PolytopeUnion([G.Polytope([[0, 0], [1, 0], [0, 1.5]])])
    assert G.hausdorff_distance(a, c) > 1e-6
    assert a.canonical_key() != c.canonical_key()


def test_hausdorff_reads_an_array_as_singletons():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        hull = G.Polytope(rng.uniform(-1, 1, (dim + 1, dim)))
        sym = G.PolytopeUnion([hull, G.Polytope.singleton(rng.uniform(-1, 1, dim))])
        cloud = rng.uniform(-1.2, 1.2, (200, dim))
        cloud[7] = -0.0
        parts = G.PolytopeUnion(tuple(G.Polytope(c.reshape(1, -1)) for c in cloud))
        assert G.hausdorff_distance(sym, cloud) == G.hausdorff_distance(sym, parts)
        assert G.hausdorff_distance(cloud, sym) == G.hausdorff_distance(parts, sym)
        assert G.hausdorff_distance(cloud, cloud[::-1]) == 0.0


def test_hausdorff_rejects_an_empty_or_non_finite_array():
    sym = G.PolytopeUnion([G.Polytope.singleton([0.0, 0.0])])
    with pytest.raises(G.GeometryError, match="at least one part"):
        G.hausdorff_distance(sym, np.zeros((0, 2)))
    with pytest.raises(G.GeometryError, match="finite"):
        G.hausdorff_distance(sym, np.array([[0.0, np.nan]]))
    with pytest.raises(G.DimensionError):
        G.hausdorff_distance(sym, np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# unions and cones


def test_union_absorbs_contained_parts():
    u = G.PolytopeUnion(
        [
            G.Polytope([[-1.0], [1.0]]),
            G.Polytope.singleton([0.5]),
            G.Polytope.singleton([-1.0]),
        ]
    )
    assert len(u.parts) == 1


def test_union_keeps_distinct_parts():
    u = G.PolytopeUnion([G.Polytope.singleton([0.0]), G.Polytope.singleton([1.0])])
    assert len(u.parts) == 2


@st.composite
def polytope_lists(draw):
    """1 to 4 polytopes of 1 to 5 points each, in one dimension of 1-3, on
    a half-integer lattice so that parts meet, nest and repeat."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-4, 4).map(lambda k: k / 2)
    point = st.lists(coord, min_size=dim, max_size=dim)
    return draw(st.lists(st.lists(point, min_size=1, max_size=5), min_size=1, max_size=4))


def _inside(p, q):
    return all(q.contains(v) for v in p.vertices)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polytope_lists())
def test_a_union_is_canonical_once_built(point_lists):
    given_parts = [G.Polytope(points) for points in point_lists]
    u = G.PolytopeUnion(given_parts)
    again = G.PolytopeUnion(u.parts)
    assert [p.vertices.tobytes() for p in again.parts] == [p.vertices.tobytes() for p in u.parts]
    for p, q in itertools.permutations(u.parts, 2):
        assert not _inside(p, q)
    for p in given_parts:
        assert any(_inside(p, q) for q in u.parts)


def test_a_union_drops_a_part_inside_a_part_with_fewer_vertices():
    # a square kept first is inside the triangle that comes after it
    square = G.Polytope([[0.1, 0.1], [0.2, 0.1], [0.1, 0.2], [0.2, 0.2]])
    triangle = G.Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    inner, outer = G.Polytope([[0.0], [1.0]]), G.Polytope([[-1.0], [2.0]])
    for parts, kept in [([square, triangle], triangle), ([inner, outer], outer)]:
        u = G.PolytopeUnion(parts)
        assert len(u.parts) == 1 and u.parts[0] is kept
    assert not hasattr(G.PolytopeUnion, "create") and not hasattr(G, "_absorb_parts")


def test_minkowski_sum_intervals():
    a = G.Polytope([[-1.0], [1.0]])
    b = G.Polytope.singleton([1.0])
    assert G.minkowski_sum(a, b).vertices.tolist() == [[0.0], [2.0]]


def test_cone_contains():
    c = G.ConeSpec(2, [[-1.0, -1.0], [1.0, -1.0]])
    assert c.contains([0.0, -5.0])
    assert c.contains([0.0, 0.0])
    assert not c.contains([0.0, 1.0])
    assert not c.contains([2.0, 0.1])


def test_cone_full_space_and_zero():
    # a line is a generator pair +/-g, so the plane is the cone of +/-e1, +/-e2
    full = G.ConeSpec(2, np.vstack([np.eye(2), -np.eye(2)]))
    assert full.contains([3.0, -7.0])
    zero = G.ConeSpec.zero(2)
    assert zero.is_zero()
    assert not full.is_zero()


def test_cones_equal_modulo_generators():
    a = G.ConeSpec(2, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = G.ConeSpec(2, [[0.0, 2.0], [3.0, 0.0]])
    assert G.cones_equal(a, b)
    c = G.ConeSpec(2, [[1.0, 0.0]])
    assert not G.cones_equal(a, c)


def test_directions_equal_the_per_vector_loop():
    for dim in range(1, 9):
        for seed in range(40):
            for n in (1, 2 * dim, 16, 64, 256):
                got, want = G.directions(dim, n, seed), B.reference_directions(dim, n, seed)
                assert got.shape == want.shape == (n, dim)
                assert got.tobytes() == want.tobytes()
