import ast
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
    assert G.polytopes_equal(h1, h2)


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
    """A z = b, 0 <= z <= upper for rows with senses "<=", ">=", "==": one
    slack column (+1) or surplus column (-1) per inequality, after the
    variables, with no upper bound."""
    rows = np.array(rows, dtype=float)
    sign = {"<=": 1.0, ">=": -1.0}
    ineq = [i for i, s in enumerate(senses) if s != "=="]
    slacks = np.zeros((len(senses), len(ineq)))
    for k, i in enumerate(ineq):
        slacks[i, k] = sign[senses[i]]
    A = np.hstack([rows, slacks])
    return A, np.array(rhs, dtype=float), np.concatenate([upper, np.full(len(ineq), np.inf)])


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
    base = G.Polytope.create([[-1.0], [1.0]])
    out = G.minkowski_membership([0.5], base)
    assert isinstance(out, G.Membership)
    assert out.base_weights == pytest.approx([0.25, 0.75], abs=1e-8)


def test_lp_certificates_verify():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        rows, senses, rhs = _random_rows(rng, n, int(rng.integers(1, 4)), 3)
        A, b, upper = _standard_form(rows, senses, rhs, np.full(n, 10.0))
        out = G.lp_feasible(A, b, upper)
        assert not isinstance(out, G.LPBreakdown)
        if isinstance(out, G.LPFeasible):
            z = out.assignment
            assert A @ z == pytest.approx(b, abs=1e-7)
            assert np.all(z >= -1e-7) and np.all(z <= upper + 1e-7)


@pytest.mark.parametrize(
    "A, b, upper",
    [
        ([[1.0, np.nan]], [1.0], None),
        ([[1.0, 1.0]], [np.inf], None),
        ([[1.0, 1.0]], [1.0], [1.0, np.nan]),
        ([[1.0, 1.0]], [1.0], [1.0, -np.inf]),
        (np.ones((1, G.MAX_LP_VARS + 1)), [1.0], None),
        (np.ones((1, 0)), [1.0], None),
    ],
)
def test_lp_rejects_non_finite_or_oversized_data(A, b, upper):
    with pytest.raises(G.GeometryError):
        G.lp_feasible(A, b, upper)


def _random_lp(rng, n):
    rows, senses, rhs = _random_rows(rng, n, int(rng.integers(1, 6)), 5)
    return _standard_form(rows, senses, rhs, rng.choice([np.inf, 3.0, G.R_CONE], n))


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
    # cone weights capped at R_CONE, the way membership LPs cap them: a
    # target at scale * R_CONE along a positive combination of generators
    gens = rng.integers(0, 4, (2, n)).astype(float)
    gens[:, 0] = 1.0
    w = rng.integers(1, 4, n).astype(float)
    scale = rng.choice([0.5, 0.999, 1.001, 2.0])
    target = scale * G.R_CONE * (gens @ w) / w.max()
    return gens, target, np.full(n, G.R_CONE)


@pytest.mark.parametrize("make", [_random_lp, _degenerate_lp, _cap_bound_lp])
def test_lp_verdicts_match_highs(make):
    from scipy.optimize import linprog

    rng = np.random.default_rng(23)
    verdicts = set()
    for _ in range(120):
        A, b, upper = make(rng, int(rng.integers(1, 6)))
        out = G.lp_feasible(A, b, upper)
        assert not isinstance(out, G.LPBreakdown), out
        ref = linprog(
            np.zeros(A.shape[1]),
            A_eq=A,
            b_eq=b,
            bounds=np.column_stack([np.zeros(A.shape[1]), upper]),
            method="highs",
        )
        assert ref.status in (0, 2), ref.message
        assert isinstance(out, G.LPFeasible) == (ref.status == 0)
        verdicts.add(ref.status)
    assert verdicts == {0, 2}


def _random_blocks(rng):
    """Blocks of small integer rows mixing the three kinds, and a target:
    a combination of the blocks with valid weights, the same with a cone
    block pushed past its cap, or random integers."""
    dim = int(rng.integers(1, 4))
    kinds = rng.choice(["convex", "cone", "free"], int(rng.integers(1, 5)))
    blocks = [(rng.integers(-3, 4, (int(rng.integers(1, 4)), dim)).astype(float), str(k)) for k in kinds]
    how = rng.integers(0, 3)
    if how == 2:
        return blocks, rng.integers(-4, 5, dim).astype(float)
    target = np.zeros(dim)
    for V, kind in blocks:
        if kind == "convex":
            w = rng.dirichlet(np.ones(len(V)))
        elif kind == "cone":
            w = rng.uniform(0, 1, len(V)) * G.R_CONE * (2.0 if how == 1 else 0.5)
        else:
            w = rng.uniform(0, 5, len(V))
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
        # sum-to-one row per convex block; cone columns bounded by R_CONE
        n = sum(len(V) for V, _ in blocks)
        A_eq, b_eq, bounds, col = [np.hstack([V.T for V, _ in blocks])], [target], [], 0
        for V, kind in blocks:
            if kind == "convex":
                row = np.zeros((1, n))
                row[0, col : col + len(V)] = 1.0
                A_eq.append(row)
                b_eq.append([1.0])
            bounds += [(0.0, G.R_CONE if kind == "cone" else None)] * len(V)
            col += len(V)
        ref = linprog(
            np.zeros(n), A_eq=np.vstack(A_eq), b_eq=np.concatenate(b_eq), bounds=bounds, method="highs"
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
            if kind == "cone":
                assert np.all(w <= G.R_CONE + 1e-7)
    assert verdicts == {0, 2}


def test_lp_weights_rejects_an_unknown_block_kind():
    with pytest.raises(ValueError, match="block kinds"):
        G.lp_weights([1.0], [(np.ones((1, 1)), "convex"), (np.ones((1, 1)), "bounded")], "a test")


def _names(tree) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }


def test_lp_weights_is_the_one_lp_assembler():
    # only lp_weights calls the simplex, and no module outside convgeom
    # names it or the cone cap; the package root only re-exports it
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
        assert not {"lp_feasible", "R_CONE"} & _names(tree), name
    assert "R_CONE" not in _names(trees["__init__.py"])


def test_hull_lps_run_two_frames_below_in_hull_lp(monkeypatch):
    # the frame depth lp_feasible <- lp_weights <- _in_hull_lp, which
    # tests that tell hull LPs from others by frame name rely on
    frames = []
    real = G.lp_feasible

    def spy(*lp):
        frames.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
        return real(*lp)

    monkeypatch.setattr(G, "lp_feasible", spy)
    G.convex_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]])
    assert frames and set(frames) == {("lp_weights", "_in_hull_lp")}


# ---------------------------------------------------------------------------
# minkowski membership


def test_membership_midpoint_trivial():
    base = G.Polytope.create([[-1.0], [1.0]])
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
    cone = G.ConeSpec.from_generators(1, [[1.0]])
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
    p = G.Polytope.create([[-1.0], [1.0]])
    out = G.clip_polytope(p, np.array([[1.0]]), np.array([0.25]))
    assert G.polytopes_equal(out, G.Polytope.create([[-1.0], [0.25]]))


def test_clip_to_empty():
    p = G.Polytope.create([[-1.0], [1.0]])
    out = G.clip_polytope(p, np.array([[1.0], [-1.0]]), np.array([-0.5, -0.5]))
    assert out is None


def test_clip_triangle_to_point():
    tri = G.Polytope.create([[2, 0], [1, 1], [0, 2]])
    dirs = G.directions(2, 16)
    offsets = np.array([float(d @ np.array([1.0, 1.0])) for d in dirs])
    out = G.clip_polytope(tri, dirs, offsets)
    assert out is not None
    assert np.all(np.linalg.norm(out.vertices - np.array([1.0, 1.0]), axis=1) < 1e-9)


def test_point_distance_exact():
    sq = G.Polytope.create([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert G.point_to_polytope_distance([2.0, 0.5], sq) == pytest.approx(1.0)
    assert G.point_to_polytope_distance([0.5, 0.5], sq) == pytest.approx(0.0)
    assert G.point_to_polytope_distance([2.0, 2.0], sq) == pytest.approx(np.sqrt(2.0))


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
    return G.Polytope.create(V, canonicalize=False), np.vstack(pts)[:n_points]


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
            poly = G.Polytope.create(V, canonicalize=False)
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
    seg = G.Polytope.create([[0.0], [1.0]])
    assert seg.contains([1.0]) and seg.contains([0.25])
    assert not seg.contains([1.1]) and not seg.contains([-1e-3])
    point = G.Polytope.singleton([0.0])
    assert point.contains([5e-8]) and not point.contains([2e-7])
    union = G.PolytopeUnion.create([point, G.Polytope.create([[2.0], [3.0]])])
    assert union.contains([-5e-8]) and union.contains([2.5])
    assert not union.contains([1.0])
    # membership has one fixed tolerance: 1e-7 for a singleton, the LP's for a hull
    with pytest.raises(TypeError):
        seg.contains([1.1], tol=0.5)


# ---------------------------------------------------------------------------
# hausdorff


def test_hausdorff_identity():
    p = G.PolytopeUnion.single(G.Polytope.create([[-1.0], [1.0]]))
    assert G.hausdorff_distance(p, p) == pytest.approx(0.0, abs=1e-12)


def test_hausdorff_two_points():
    a = G.PolytopeUnion.single(G.Polytope.singleton([0.0]))
    b = G.PolytopeUnion.single(G.Polytope.singleton([1.0]))
    assert G.hausdorff_distance(a, b) == pytest.approx(1.0)


def test_hausdorff_union_vs_hull():
    union = G.PolytopeUnion.create([G.Polytope.singleton([-1.0]), G.Polytope.singleton([1.0])])
    interval = G.PolytopeUnion.single(G.Polytope.create([[-1.0], [1.0]]))
    assert G.hausdorff_distance(union, interval) == pytest.approx(1.0, abs=1e-9)


def test_hausdorff_symmetric_convex():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = G.PolytopeUnion.single(G.Polytope.create(rng.uniform(-2, 2, (4, 2))))
        b = G.PolytopeUnion.single(G.Polytope.create(rng.uniform(-2, 2, (4, 2))))
        assert G.hausdorff_distance(a, b) == pytest.approx(G.hausdorff_distance(b, a), abs=1e-12)


def test_hausdorff_zero_iff_equal_canonical():
    a = G.PolytopeUnion.single(G.Polytope.create([[0, 0], [1, 0], [0, 1]]))
    b = G.PolytopeUnion.single(G.Polytope.create([[0, 0], [1, 0], [0, 1], [0.2, 0.2]]))
    assert G.hausdorff_distance(a, b) == pytest.approx(0.0, abs=1e-12)
    assert a.canonical_key() == b.canonical_key()
    c = G.PolytopeUnion.single(G.Polytope.create([[0, 0], [1, 0], [0, 1.5]]))
    assert G.hausdorff_distance(a, c) > 1e-6
    assert a.canonical_key() != c.canonical_key()


def test_hausdorff_reads_an_array_as_singletons():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        hull = G.Polytope.create(rng.uniform(-1, 1, (dim + 1, dim)))
        sym = G.PolytopeUnion.create([hull, G.Polytope.singleton(rng.uniform(-1, 1, dim))])
        cloud = rng.uniform(-1.2, 1.2, (200, dim))
        cloud[7] = -0.0
        parts = G.PolytopeUnion(tuple(G.Polytope(c.reshape(1, -1)) for c in cloud))
        assert G.hausdorff_distance(sym, cloud) == G.hausdorff_distance(sym, parts)
        assert G.hausdorff_distance(cloud, sym) == G.hausdorff_distance(parts, sym)
        assert G.hausdorff_distance(cloud, cloud[::-1]) == 0.0


def test_hausdorff_rejects_an_empty_or_non_finite_array():
    sym = G.PolytopeUnion.single(G.Polytope.singleton([0.0, 0.0]))
    with pytest.raises(G.GeometryError, match="at least one part"):
        G.hausdorff_distance(sym, np.zeros((0, 2)))
    with pytest.raises(G.GeometryError, match="finite"):
        G.hausdorff_distance(sym, np.array([[0.0, np.nan]]))
    with pytest.raises(G.DimensionError):
        G.hausdorff_distance(sym, np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# unions and cones


def test_union_absorbs_contained_parts():
    u = G.PolytopeUnion.create(
        [
            G.Polytope.create([[-1.0], [1.0]]),
            G.Polytope.singleton([0.5]),
            G.Polytope.singleton([-1.0]),
        ]
    )
    assert len(u.parts) == 1


def test_union_keeps_distinct_parts():
    u = G.PolytopeUnion.create([G.Polytope.singleton([0.0]), G.Polytope.singleton([1.0])])
    assert len(u.parts) == 2


def test_minkowski_sum_intervals():
    a = G.Polytope.create([[-1.0], [1.0]])
    b = G.Polytope.singleton([1.0])
    assert G.minkowski_sum(a, b).vertices.tolist() == [[0.0], [2.0]]


def test_cone_contains():
    c = G.ConeSpec.from_generators(2, [[-1.0, -1.0], [1.0, -1.0]])
    assert c.contains([0.0, -5.0])
    assert c.contains([0.0, 0.0])
    assert not c.contains([0.0, 1.0])
    assert not c.contains([2.0, 0.1])


def test_cone_full_space_and_zero():
    full = G.ConeSpec.full_space(2)
    assert full.contains([3.0, -7.0])
    zero = G.ConeSpec.zero(2)
    assert zero.is_zero()
    assert not full.is_zero()


def test_cones_equal_modulo_generators():
    a = G.ConeSpec.from_generators(2, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = G.ConeSpec.from_generators(2, [[0.0, 2.0], [3.0, 0.0]])
    assert G.cones_equal(a, b)
    c = G.ConeSpec.from_generators(2, [[1.0, 0.0]])
    assert not G.cones_equal(a, c)


def test_directions_equal_the_per_vector_loop():
    for dim in range(1, 9):
        for seed in range(40):
            for n in (1, 2 * dim, 16, 64, 256):
                got, want = G.directions(dim, n, seed), B.reference_directions(dim, n, seed)
                assert got.shape == want.shape == (n, dim)
                assert got.tobytes() == want.tobytes()
