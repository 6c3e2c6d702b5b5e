"""Brute-force oracles shared by the module tests and the acceptance suite.

These deliberately avoid the library's LP machinery: membership is decided
by dense enumeration over lattice weight grids, so they can cross-check
the simplex-based decisions independently.  The sampled normal-cone
oracle's nearest-point search is checked against a dense scan over every
grid point, the expression layer's tape passes against a recursive
interpreter over the expression tree, its degrees against a recursive
degree, and its branch-restricted passes against the tree rebuilt with
the left-out branches pruned, the corpus's convex flags against a
values-only midpoint-convexity probe, the batched point-to-polytope
distance against a one-point-at-a-time face enumeration, the planar
hulls against a distance over every triple and pair of points, the batched
value-function search against a one-parameter-at-a-time grid loop, the
batched argmin slope bound and the seeded direction fill against their
per-sample and per-vector loops, the grid pass's slope bound against
every quotient divided out, the screened polytope clip against the exact
step for every halfspace, the oracles' batched acceptance test and
cell-skipping clustering against their per-direction and per-point loops,
the one-pass pattern census against one active-pattern call per radius,
the sampled Lipschitz-like test's nearest-slice search against the full
distance matrix, and the exact extremal-principle solver against SciPy's
multi-start quasi-Newton descent with a simplex polish.

The last section holds helpers that only tests call: vertex-wise polytope
equality, the distance from a point to a union, the corpus entries
flagged convex and an exhaustive grid search of a penalized program.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize as sciopt
from scipy.spatial import cKDTree

from varcalc import bilevel
from varcalc import corpus
from varcalc import expr as E
from varcalc import subdiff as S
from varcalc import valuefn as V
from varcalc.convgeom import (
    TOL_GEOM,
    Polytope,
    PolytopeUnion,
    convex_hull,
    directions,
    point_to_polytope_distance,
)

WEIGHT_STEP = 1e-2
TARGET_TOL = 1e-6


@dataclass
class Instance:
    target: np.ndarray
    base: Polytope
    scaled: list[Polytope]
    is_member: bool  # constructed ground truth


def _lattice(rng, shape):
    return rng.integers(-8, 9, size=shape).astype(float) / 4.0


def random_instance(rng: np.random.Generator) -> Instance:
    """Random small instance with constructed ground truth.

    Members are exact grid-weight combinations, so the dense weight grid
    can reproduce them; non-members are separated from the reachable set
    by a hyperplane with margin well above TARGET_TOL, so neither the LP
    nor the grid search can reach them.
    """
    dim = int(rng.integers(1, 3))
    base = Polytope(_lattice(rng, (int(rng.integers(1, 4)), dim)))
    scaled = []
    if rng.random() < 0.6:
        scaled.append(
            Polytope(_lattice(rng, (int(rng.integers(1, 3)), dim)))
        )
    if rng.random() < 0.5:
        # certain member from grid weights
        bw = rng.integers(0, 101, size=base.num_vertices).astype(float)
        bw = bw / bw.sum() if bw.sum() else np.ones(base.num_vertices) / base.num_vertices
        bw = np.round(bw / WEIGHT_STEP) * WEIGHT_STEP
        bw[0] += 1.0 - bw.sum()
        target = base.vertices.T @ bw
        for q in scaled:
            gw = rng.integers(0, 51, size=q.num_vertices).astype(float) * WEIGHT_STEP
            target = target + q.vertices.T @ gw
        return Instance(np.asarray(target, dtype=float), base, scaled, True)
    # certain non-member: separate along a direction the scaled term
    # cannot advance in
    for _ in range(64):
        d = rng.standard_normal(dim)
        nd = np.linalg.norm(d)
        if nd < 1e-9:
            continue
        d = d / nd
        if scaled and np.any(scaled[0].vertices @ d > 1e-9):
            continue
        margin = float(rng.uniform(0.3, 1.5))
        top = base.vertices[int(np.argmax(base.vertices @ d))]
        target = top + margin * d
        return Instance(np.asarray(target, dtype=float), base, scaled, False)
    # no separating direction found quickly: drop the scaled term
    d = np.zeros(dim)
    d[0] = 1.0
    top = base.vertices[int(np.argmax(base.vertices @ d))]
    return Instance(top + 0.5 * d, base, [], False)


def _simplex_grid(k: int, steps: int) -> np.ndarray:
    """All weight vectors of length k with entries i/steps summing to 1."""
    if k == 1:
        return np.array([[1.0]])
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for i in range(remaining + 1):
            rec(prefix + [i], remaining - i, slots - 1)

    rec([], steps, k)
    return np.array(out, dtype=float) / steps


def brute_force_membership(inst: Instance) -> bool:
    """Dense grid search over convex base weights and nonnegative scaled
    weights at resolution WEIGHT_STEP; member iff some combination hits
    the target within TARGET_TOL."""
    steps = int(round(1.0 / WEIGHT_STEP))
    base_combos = _simplex_grid(inst.base.num_vertices, steps) @ inst.base.vertices
    residuals = inst.target[None, :] - base_combos
    if not inst.scaled:
        return bool(np.any(np.linalg.norm(residuals, axis=1) <= TARGET_TOL))

    q = inst.scaled[0]
    grids = [np.arange(0.0, 3.0 + WEIGHT_STEP / 2, WEIGHT_STEP)] * q.num_vertices
    mesh = np.meshgrid(*grids, indexing="ij")
    gw = np.stack([m.ravel() for m in mesh], axis=1)
    contribs = gw @ q.vertices
    # member iff some scaled-term contribution lies within TARGET_TOL of
    # some residual: one nearest-residual query per contribution
    nearest, _ = cKDTree(residuals).query(contribs)
    return bool(np.any(nearest <= TARGET_TOL))


def regular_subgradient_halfspace_check(
    fn, point: np.ndarray, candidate: np.ndarray, radii, dirs, eps_of_radius
) -> bool:
    """Direct check of the defining inequality of a regular subgradient,
    relaxed by eps per radius: f(x + r d) - f(x) >= r (<v, d> - eps)."""
    from varcalc.expr import evaluate

    fx = evaluate(fn, point)
    for r in radii:
        eps = eps_of_radius(r)
        for d in dirs:
            if evaluate(fn, point + r * d) - fx < r * (float(candidate @ d) - eps):
                return False
    return True


def full_projection_grid(spec, p: np.ndarray, r: float, tol: float):
    """Every lattice point around p at radius r (half width 2.5 r) in
    lattice order, its feasibility, the lattice's shape and its step:
    r / 64 up to two dimensions, r / 16 in three."""
    step = r / 64 if p.shape[0] <= 2 else r / 16
    half = 2.5 * r
    axes = [np.arange(c - half, c + half + step / 2, step) for c in p]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    ok = np.broadcast_to(S.feasible_open(spec, list(pts.T), tol), (len(pts),))
    return pts, ok, mesh[0].shape, step


def boundary_layer_size(spec, p: np.ndarray, r: float, tol: float) -> int:
    """How many feasible points of the lattice around p at radius r have
    an axis neighbour that is infeasible or off the lattice."""
    _, ok, shape, _ = full_projection_grid(spec, p, r, tol)
    ok = ok.reshape(shape)
    layer = np.zeros(shape, dtype=bool)
    for k in range(len(shape)):
        for s in (1, -1):
            nb = np.roll(ok, s, axis=k)
            edge = [slice(None)] * len(shape)
            edge[k] = 0 if s == 1 else -1
            nb[tuple(edge)] = False  # the wrapped-in row lies off the lattice
            layer |= ok & ~nb
    return int(layer.sum())


def dense_normal_cone_oracle(spec, x, params) -> S.OracleCloud:
    """The projection oracle with a dense nearest-point scan: every sample
    point's distance to every feasible point of the whole lattice."""
    p = np.asarray(x, dtype=float)
    collected = []
    grid_tol = 1e-13 * (1.0 + float(np.linalg.norm(p)))
    for r in params.radii:
        pts, ok, _, step = full_projection_grid(spec, p, r, grid_tol)
        feas = pts[ok]
        if feas.shape[0] == 0:
            raise S.SubdiffError(f"projection grid found no feasible points at radius {r}")
        for d in params.directions(spec.dim):
            q = p + r * d
            dists = np.linalg.norm(feas - q[None, :], axis=1)
            dmin = float(dists.min())
            if dmin <= r / 2:
                continue
            near = feas[dists <= dmin + step**2 / (2 * dmin)]
            for w in near:
                v = q - w
                collected.append(v / np.linalg.norm(v))
    cloud = np.array(collected) if collected else np.zeros((0, spec.dim))
    return S.OracleCloud(points=cloud, cluster_centers=reference_cluster(cloud, 0.02))


def reference_cluster(points: np.ndarray, tol: float) -> np.ndarray:
    """Greedy clustering at the given tolerance via a spatial hash (cells
    of size tol, neighbor cells checked); returns cluster centroids in a
    canonical lexicographic order."""
    if points.shape[0] == 0:
        return points
    dim = points.shape[1]
    order = np.lexsort(tuple(points[:, k] for k in range(dim - 1, -1, -1)))
    pts = points[order]
    cells: dict[tuple, list[int]] = {}
    centers: list[np.ndarray] = []
    counts: list[int] = []
    neighbor = list(itertools.product(*([(-1, 0, 1)] * dim)))
    for q in pts:
        key = tuple(int(k) for k in np.floor(q / tol))
        hit = -1
        for off in neighbor:
            cell = tuple(k + o for k, o in zip(key, off))
            for idx in cells.get(cell, ()):
                if np.linalg.norm(q - centers[idx]) <= tol:
                    hit = idx
                    break
            if hit >= 0:
                break
        if hit >= 0:
            counts[hit] += 1
            centers[hit] = centers[hit] + (q - centers[hit]) / counts[hit]
        else:
            centers.append(q.copy())
            counts.append(1)
            cells.setdefault(key, []).append(len(centers) - 1)
    out = np.array(centers)
    order = np.lexsort(tuple(out[:, k] for k in range(dim - 1, -1, -1)))
    return out[order]


def reference_accepts_one(
    u: np.ndarray,
    fu: float,
    candidates: np.ndarray,
    stencil: np.ndarray,
    f_stencil: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Vectorized epsilon-relaxed regular-subgradient test at u: keep v
    with f(w) - f(u) >= <v, w-u> - eps*|w-u| on every stencil point w,
    given fu = f(u) and f_stencil = f over the stencil."""
    gains = f_stencil - fu  # (S,)
    offs = stencil - u[None, :]  # (S, dim)
    norms = np.linalg.norm(offs, axis=1)
    lhs = candidates @ offs.T  # (C, S)
    ok = lhs <= gains[None, :] + eps * norms[None, :] + 1e-14
    return np.all(ok, axis=1)


def reference_accepts(us, fus, candidates, stencils, f_stencils, eps) -> np.ndarray:
    """The acceptance test one base point at a time, with the arguments of
    the batched ``subdiff._accepts``."""
    out = np.zeros(candidates.shape[:2], dtype=bool)
    for d in range(us.shape[0]):
        out[d] = reference_accepts_one(us[d], fus[d], candidates[d], stencils[d], f_stencils[d], eps)
    return out


def reference_realizable_patterns(f, p: np.ndarray, params) -> tuple[list, list[dict]]:
    """The pattern census one active_patterns call per radius, after a
    one-point call at p, as ``subdiff._realizable_patterns`` returns it."""
    census: dict[tuple, dict] = {}
    chosen: dict[tuple, E.Branches] = {}
    own = E.active_pattern(f, p, params.tau_act)
    census[tuple(own.items())] = {"count": 1, "smallest": True}
    chosen[tuple(own.items())] = own
    dirs = params.directions(f.space.dim)
    for level, r in enumerate(params.radii):
        smallest = level == len(params.radii) - 1
        patterns, inverse = E.active_patterns(f, p + r * dirs, params.tau_act)
        for pat, count in zip(patterns, np.bincount(inverse).tolist()):
            info = census.setdefault(tuple(pat.items()), {"count": 0, "smallest": False})
            info["count"] += count
            if smallest:
                info["smallest"] = True
                chosen.setdefault(tuple(pat.items()), pat)
    entries = sorted(census.items(), key=lambda kv: repr(kv[0]))
    return list(chosen.values()), [
        {"pattern": repr(key), "count": info["count"], "at_smallest_radius": info["smallest"]}
        for key, info in entries
    ]


def reference_sampled_lipschitz_like_test(spec, point, params) -> tuple[bool, float]:
    """``subdiff.sampled_lipschitz_like_test`` over every pair of sampled
    parameters, each max-min distance taken over the full distance
    matrix between the two slices."""
    n, m = spec.block_dims
    p = np.asarray(point, dtype=float)
    xb, yb = p[:n], p[n:]
    v_radius = 0.5
    ys = np.linspace(yb[0] - 4 * v_radius, yb[0] + 4 * v_radius, 2001)
    step = ys[1] - ys[0]

    def feasible_ys(xv: np.ndarray) -> np.ndarray:
        return ys[np.broadcast_to(S.feasible_open(spec, [*xv, ys]), ys.shape)]

    dirs = directions(n, max(4, 2 * n), params.seed)
    worst = 0.0
    for r in params.radii:
        for d1 in dirs:
            for d2 in dirs:
                xa = xb + r * d1
                xu = xb + 0.5 * r * d2
                gap = float(np.linalg.norm(xa - xu))
                if gap < 1e-12:
                    continue
                fa = feasible_ys(xa)
                fa = fa[np.abs(fa - yb[0]) <= v_radius]
                if fa.size == 0:
                    continue
                fu = feasible_ys(xu)
                if fu.size == 0:
                    return False, math.inf
                dist = float(np.max(np.min(np.abs(fa[:, None] - fu[None, :]), axis=1)))
                worst = max(worst, max(0.0, dist - step) / gap)
    return worst <= 1e3, worst


class NonFinite(ArithmeticError):
    """A value of the reference interpreter overflowed."""


def _power(a: float, k: int) -> float:
    # numpy's power, which the expression layer uses; it can differ from
    # Python's float ** int in the last bit
    return float(np.power(np.array([a]), k)[0])


def reference_forward(f, point, tau_act=E.TAU_ACT_DEFAULT, selection=None):
    """(value, active pattern, value of every node by path) of f at the
    point, by a recursive walk over the tree in Python floats: sums and
    products left to right, piecewise nodes taking the selected branch's
    value when a selection (one branch per node, in the expression
    layer's Branches form) is given.  Raises NonFinite on any non-finite
    node value."""
    values = {}
    sels = []

    def ev(n, path):
        if n.kind == "const":
            v = n.payload
        elif n.kind == "var":
            v = float(point[n.payload])
        else:
            vals = [ev(c, path + (i,)) for i, c in enumerate(n.children)]
            if n.kind in ("add", "mul"):
                v = vals[0]
                for x in vals[1:]:
                    v = v + x if n.kind == "add" else v * x
            elif n.kind == "sub":
                v = -vals[0] if len(vals) == 1 else vals[0] - vals[1]
            elif n.kind == "intpow":
                v = _power(vals[0], n.payload)
            elif n.kind == "abs":
                a = vals[0]
                v = abs(a)
                sels.append((path, (0, 1) if abs(a) <= tau_act else (0,) if a > 0 else (1,)))
            elif n.kind == "max":
                v = max(vals)
                sels.append((path, tuple(i for i, x in enumerate(vals) if x >= v - tau_act)))
            else:
                v = min(vals)
                sels.append((path, tuple(i for i, x in enumerate(vals) if x <= v + tau_act)))
            if selection is not None and n.kind in E.PIECEWISE_KINDS:
                (b,) = selection[path]
                v = (-vals[0] if b else vals[0]) if n.kind == "abs" else vals[b]
        if not math.isfinite(v):
            raise NonFinite(path)
        values[path] = v
        return v

    value = ev(f.root, ())
    return value, dict(sorted(sels)), values


def reference_gradient(f, point, selection):
    """(gradient, adjoint of each reached piecewise node) of the smooth
    composition fixed by the selection: a recursive reverse pass, each
    gradient entry summed over the variable's leaves left to right."""
    _, _, values = reference_forward(f, point, selection=selection)
    grad = np.zeros(f.space.dim)
    contexts = {}

    def back(n, path, adj):
        if n.kind in E.PIECEWISE_KINDS:
            contexts[path] = adj
            (b,) = selection[path]
            i = 0 if n.kind == "abs" else b
            back(n.children[i], path + (i,), -adj if n.kind == "abs" and b else adj)
        elif n.kind == "var":
            grad[n.payload] += adj
        elif n.kind == "add":
            for i, c in enumerate(n.children):
                back(c, path + (i,), adj)
        elif n.kind == "sub":
            back(n.children[0], path + (0,), adj if len(n.children) == 2 else -adj)
            if len(n.children) == 2:
                back(n.children[1], path + (1,), -adj)
        elif n.kind == "mul":
            for i, c in enumerate(n.children):
                others = 1.0
                for j in range(len(n.children)):
                    if j != i:
                        others *= values[path + (j,)]
                back(c, path + (i,), adj * others)
        elif n.kind == "intpow" and n.payload:
            base = values[path + (0,)]
            back(n.children[0], path + (0,), adj * n.payload * _power(base, n.payload - 1))

    back(f.root, (), 1.0)
    if not np.all(np.isfinite(grad)):
        raise NonFinite("gradient")
    return grad, contexts


def reference_degree(n) -> int:
    """The polynomial degree of a tree with no piecewise node, by a
    recursive walk: the sum over a product's factors, the base's degree
    times the exponent for a power, else the largest child's."""
    ds = [reference_degree(c) for c in n.children]
    if n.kind == "mul":
        return sum(ds)
    if n.kind == "intpow":
        return ds[0] * n.payload
    return max(ds, default=int(n.kind == "var"))


def midpoint_convexity_gap(
    f, center, rng: np.random.Generator, radius: float = 2.0, segments: int = 512
) -> float:
    """The largest f(m) - (f(a) + f(b)) / 2 over seeded random segments
    [a, b] in the box of the given radius around center, m the midpoint,
    from eval_batch values alone: at most rounding where f is convex on
    the box, and a violation is a witness that it is not."""
    a, b = np.asarray(center, dtype=float) + radius * rng.uniform(-1.0, 1.0, (2, segments, len(center)))
    fa, fb, fm = (E.eval_batch(f, pts) for pts in (a, b, (a + b) / 2))
    return float(np.max(fm - (fa + fb) / 2))


def restrict_to_pattern(f, pattern):
    """f rebuilt with each piecewise node pruned to the branches active in
    the pattern: the reference for the expression layer's restricted
    passes.  A node kept to one branch collapses to that branch (negated
    for the negative abs branch); max/min keep their kind over the
    surviving children."""
    def rebuild(n, path):
        if n.kind in ("const", "var"):
            return n
        if n.kind not in E.PIECEWISE_KINDS:
            return E.ExprNode(n.kind, tuple(rebuild(c, path + (i,)) for i, c in enumerate(n.children)), n.payload)
        act = pattern[path]
        if n.kind == "abs":
            child = rebuild(n.children[0], path + (0,))
            if act == (0, 1):
                return E.ExprNode("abs", (child,))
            return child if act == (0,) else E.ExprNode("sub", (child,))
        kept = [rebuild(n.children[i], path + (i,)) for i in act]
        return kept[0] if len(kept) == 1 else E.ExprNode(n.kind, tuple(kept))

    return E.FunctionDef(f.space, rebuild(f.root, ()))


def _project_affine_subset(p: np.ndarray, S: np.ndarray) -> tuple[float, np.ndarray]:
    """Projection of p onto aff(S) with barycentric weights summing to one,
    as unconstrained least squares on the sum-to-one affine subspace."""
    k = S.shape[0]
    w0 = np.full(k, 1.0 / k)
    # nullspace basis of the all-ones row
    _, _, vt = np.linalg.svd(np.ones((1, k)))
    N = vt[1:].T  # k x (k-1)
    A = S.T @ N  # dim x (k-1)
    rhs = p - S.T @ w0
    z, _, _, _ = np.linalg.lstsq(A, rhs, rcond=None)
    w = w0 + N @ z
    q = S.T @ w
    return float(np.linalg.norm(p - q)), w


def reference_point_to_polytope_distance(p, poly: Polytope) -> float:
    """Distance from one point to conv(vertices) by enumerating vertex
    subsets of size <= dim+1, one point and one subset at a time."""
    p = np.asarray(p, dtype=float)
    V = poly.vertices
    best = math.inf
    for size in range(1, min(V.shape[0], poly.dim + 1) + 1):
        for subset in itertools.combinations(range(V.shape[0]), size):
            S = V[list(subset)]
            if size == 1:
                best = min(best, float(np.linalg.norm(p - S[0])))
                continue
            d, w = _project_affine_subset(p, S)
            if np.all(w >= -1e-9 / max(1.0, float(np.ptp(S, axis=0).max()))):
                best = min(best, d)
    return best


def reference_clip_polytope(poly: Polytope, normals: np.ndarray, offsets: np.ndarray) -> Polytope | None:
    """convgeom.clip_polytope with no screen: the exact step for every
    halfspace in turn."""
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    V = poly.vertices
    for a, beta in zip(normals, offsets):
        vals = V @ a
        inside = vals <= beta + TOL_GEOM
        if np.all(inside):
            continue
        if not np.any(inside):
            return None
        new_pts = [V[inside]]
        ins = np.where(inside)[0]
        outs = np.where(~inside)[0]
        for i in ins:
            for j in outs:
                denom = vals[j] - vals[i]
                if abs(denom) < 1e-15:
                    continue
                t = (beta - vals[i]) / denom
                t = min(max(t, 0.0), 1.0)
                new_pts.append(((1 - t) * V[i] + t * V[j]).reshape(1, -1))
        V = np.vstack(new_pts)
        if V.shape[0] > 4 * (poly.dim + 1):
            V = convex_hull(V).vertices
    return convex_hull(V)


def planar_hull_distance(q, S) -> float:
    """Distance from a 1-D or 2-D point q to the hull of the rows of S by
    brute force over the rows' triples, pairs and singles: 0 inside a
    nondegenerate triangle of three rows (by the signs of three areas),
    else the least distance to a segment between two rows or to a row."""
    def plane(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.hstack([X, np.zeros((X.shape[0], 2 - X.shape[1]))])

    def area(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    P, q = plane(S), plane(q)[0]
    for a, b, c in itertools.combinations(P, 3):
        signs = np.sign([area(a, b, q), area(b, c, q), area(c, a, q)])
        if area(a, b, c) != 0 and (np.all(signs >= 0) or np.all(signs <= 0)):
            return 0.0
    best = min(float(np.linalg.norm(q - a)) for a in P)
    for a, c in itertools.combinations(P, 2):
        u = c - a
        t = min(max(float(np.dot(q - a, u) / np.dot(u, u)), 0.0), 1.0) if np.any(u) else 0.0
        best = min(best, float(np.linalg.norm(q - a - t * u)))
    return best


def _grid_points(box, resolution: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def reference_evaluate_value(prob, x, grid, refine: int = 0):
    """Exhaustive grid minimization of the lower-level cost at one
    parameter x, one refine pass at a time (argmins as a list of rows);
    raises InfeasibleOnBox when no grid point is feasible."""
    xv = np.asarray(x, dtype=float)
    if xv.shape != (prob.x_dim,):
        raise V.ValueFnError(f"parameter must have dimension {prob.x_dim}")
    if len(grid.y_box) != prob.y_dim:
        raise V.ValueFnError("grid box must match the decision dimension")

    box = list(grid.y_box)
    result = None
    for _ in range(refine + 1):
        ys = _grid_points(box, grid.resolution)
        pts = np.hstack([np.tile(xv, (ys.shape[0], 1)), ys])
        step = max((hi - lo) / (grid.resolution - 1) for lo, hi in box)
        mask = np.ones(ys.shape[0], dtype=bool)
        worst = np.full(ys.shape[0], -np.inf)
        for f in prob.constraints:
            vals = E.eval_batch(f, pts)
            mask &= vals <= TOL_GEOM
            worst = np.maximum(worst, vals)
        if not np.any(mask):
            slope = _slope_bound(worst, box, grid.resolution)
            raise V.InfeasibleOnBox(float(worst.min()), step, slope)
        costs = E.eval_batch(prob.cost, pts)
        costs_feasible = np.where(mask, costs, np.inf)
        theta = float(costs_feasible.min())
        near = costs_feasible <= theta + V.TOL_ARG
        argmins = [ys[i].copy() for i in np.nonzero(near)[0]]
        result = V.ValueSample(x=xv.copy(), theta=theta, argmins=argmins, step=step)
        # shrink the box around cells that could still hide the minimum
        cost_slope = _slope_bound(costs, box, grid.resolution)
        margin = 2.0 * (cost_slope + 1.0) * step
        candidates = np.nonzero(costs_feasible <= theta + margin)[0]
        new_box = []
        shrunk = False
        for a in range(prob.y_dim):
            lo = float(ys[candidates, a].min()) - 2 * step
            hi = float(ys[candidates, a].max()) + 2 * step
            lo = max(lo, box[a][0])
            hi = min(hi, box[a][1])
            if hi - lo < (box[a][1] - box[a][0]) * 0.75:
                shrunk = True
            new_box.append((lo, hi))
        if not shrunk or any((hi - lo) / (grid.resolution - 1) == 0 for lo, hi in new_box):
            break
        box = new_box
    return result


def _slope_bound(values: np.ndarray, box, resolution: int) -> float:
    shape = (resolution,) * len(box)
    arr = values.reshape(shape)
    worst = 0.0
    for a, (lo, hi) in enumerate(box):
        h = (hi - lo) / (resolution - 1)
        d = np.abs(np.diff(arr, axis=a)) / h
        finite = d[np.isfinite(d)]
        if finite.size:
            worst = max(worst, float(finite.max()))
    return worst


def reference_slope_bounds(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, resolution: int):
    """valuefn._slope_bounds with every quotient divided out and the
    non-finite ones masked: per row, the largest finite |difference
    quotient| of the row's grid values along any axis of its box, 0 when
    there is none."""
    k, d = lo.shape
    arr = values.reshape((k,) + (resolution,) * d)
    worst = np.zeros(k)
    for a in range(d):
        h = (hi[:, a] - lo[:, a]) / (resolution - 1)
        # inf - inf, overflow and a zero step give non-finite quotients,
        # which are discarded
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            q = np.abs(np.diff(arr, axis=a + 1)) / h.reshape((k,) + (1,) * d)
        q[~np.isfinite(q)] = -np.inf
        worst = np.maximum(worst, q.reshape(k, -1).max(axis=1))
    return worst


def reference_argmin_cost_slopes(prob, samples) -> list[float]:
    """valuefn._argmin_cost_slopes one sample at a time: central
    differences at up to eight argmins, the largest quotient by Python's
    max behind a 0.0 (a NaN quotient never wins)."""
    dim = prob.x_dim + prob.y_dim
    out = []
    for sample in samples:
        h = max(sample.step, 1e-7)
        steps = np.zeros((prob.y_dim, dim))
        steps[:, prob.x_dim :] = h * np.eye(prob.y_dim)
        ys = sample.argmins[:8]
        ps = np.hstack([np.tile(sample.x, (len(ys), 1)), ys])
        signed = np.array([1.0, -1.0])[:, None] * steps[:, None, :]
        v = E.eval_batch(prob.cost, (ps[:, None, None, :] + signed).reshape(-1, dim))
        out.append(max([0.0, *(np.abs(v[0::2] - v[1::2]) / (2 * h)).tolist()]))
    return out


def reference_directions(dim: int, n: int, seed: int = 0) -> np.ndarray:
    """convgeom.directions with the seeded fill drawn one vector at a time,
    a vector of norm at most 1e-12 rejected."""
    structured = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        structured.append(e.copy())
        structured.append(-e)
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    v = np.zeros(dim)
                    v[i], v[j] = si, sj
                    structured.append(v / np.linalg.norm(v))
    out = structured[:n]
    rng = np.random.default_rng(seed + 774321)
    while len(out) < n:
        v = rng.standard_normal(dim)
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            out.append(v / nv)
    return np.array(out)


def reference_extremal_solve(
    sets,
    x,
    shifts,
    ks=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
) -> S.ExtremalTrace:
    """Extremal-principle scheme with the k-th objective minimized by
    multi-start L-BFGS-B (the library's exact projection gradient) and a
    Nelder-Mead polish: the SciPy reference for the exact face-enumeration
    solver ``subdiff.extremal_principle_solve``, with the same checks,
    diagnostic and trace fields.
    """
    if len(sets) < 2:
        raise S.SubdiffError("extremal systems need at least two sets")
    if len(shifts) != len(sets):
        raise S.SubdiffError("one shift sequence per set required")
    x_ref = np.asarray(x, dtype=float)
    dim = x_ref.shape[0]
    for s in sets:
        if not S.set_membership(s, x_ref):
            raise S.SubdiffError("reference point must lie in every set")

    trace = S.ExtremalTrace([], [], [], [], [], [], [])
    for k in ks:
        a = [S._shift_at(sh, k) for sh in shifts]

        def gamma_and_projections(pt: np.ndarray):
            ws = [S.project_onto(s, pt + ai) for s, ai in zip(sets, a)]
            gamma = math.sqrt(
                sum(float(np.dot(pt + ai - w, pt + ai - w)) for ai, w in zip(a, ws))
            )
            return gamma, ws

        def objective(pt: np.ndarray) -> float:
            gamma, _ = gamma_and_projections(pt)
            return gamma + float(np.dot(pt - x_ref, pt - x_ref))

        def value_and_grad(pt: np.ndarray) -> tuple[float, np.ndarray]:
            # one projection per set and iterate: L-BFGS-B wants both at every point
            gamma, ws = gamma_and_projections(pt)
            value = gamma + float(np.dot(pt - x_ref, pt - x_ref))
            g = 2 * (pt - x_ref)
            if gamma < 1e-14:
                return value, g
            for ai, w in zip(a, ws):
                g = g + (pt + ai - w) / gamma
            return value, g

        scale = max(np.linalg.norm(ai) for ai in a)
        starts = [x_ref.copy(), x_ref - np.mean(a, axis=0)]
        starts += [x_ref - ai for ai in a]
        if scale > 0:
            for d in directions(dim, 2 * dim):
                starts.append(x_ref + 0.5 * scale * d)
        best_x, best_val = None, math.inf
        for s0 in starts:
            res = sciopt.minimize(
                value_and_grad,
                s0,
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": 500, "ftol": 1e-18, "gtol": 1e-12},
            )
            if res.fun < best_val:
                best_val, best_x = res.fun, res.x
        # polish: simplex refinement removes the last quasi-Newton slack
        res = sciopt.minimize(
            objective,
            best_x,
            method="Nelder-Mead",
            options={"xatol": 1e-14, "fatol": 1e-16, "maxiter": 4000},
        )
        if res.fun < best_val:
            best_x = res.x
        xk = best_x

        gamma, ws = gamma_and_projections(xk)
        if gamma <= 1e-12 * (1 + scale):
            raise S.ExtremalityNotWitnessed(k)
        vs = [(xk + ai - w) / gamma for ai, w in zip(a, ws)]
        n_err = abs(sum(float(np.dot(v, v)) for v in vs) - 1.0)
        euler = float(np.linalg.norm(sum(vs)))
        stationarity = float(np.linalg.norm(sum(vs) + 2 * (xk - x_ref)))

        trace.ks.append(int(k))
        trace.iterates.append(xk)
        trace.gammas.append(gamma)
        trace.normals.append(vs)
        trace.euler_residuals.append(euler)
        trace.stationarity_residuals.append(stationarity)
        trace.normalization_errors.append(n_err)
    return trace


# ---------------------------------------------------------------------------
# Helpers only tests call


def polytopes_equal(a: Polytope, b: Polytope) -> bool:
    if a.dim != b.dim or a.num_vertices != b.num_vertices:
        return False
    return bool(np.all(np.linalg.norm(a.vertices - b.vertices, axis=1) <= TOL_GEOM))


def point_to_union_distance(p, u: PolytopeUnion) -> float:
    return min(point_to_polytope_distance(p, part) for part in u.parts)


def convex_entries() -> list[corpus.CorpusEntry]:
    return [c for c in corpus.CORPUS if c.convex]


def penalized_grid_search(
    bp: bilevel.BilevelProblem, kappa: float, box: tuple[float, float], step: float
) -> tuple[np.ndarray, float]:
    """Exhaustive grid minimizer of the penalized objective over a square
    (x, y) box; supports one parameter and one decision variable."""
    if bp.x_dim != 1 or bp.y_dim != 1:
        raise bilevel.BilevelError("grid search supports x_dim = y_dim = 1")
    lo, hi = box
    n = int(round((hi - lo) / step)) + 1
    xs = np.linspace(lo, hi, n)
    ys = np.linspace(lo, hi, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    mask = np.ones(pts.shape[0], dtype=bool)
    for f in bp.lower_constraints:
        mask &= E.eval_batch(f, pts) <= TOL_GEOM
    for g in bp.upper_constraints:
        mask &= E.eval_batch(g, pts[:, :1]) <= TOL_GEOM
    phi = E.eval_batch(bp.lower_cost, pts).reshape(n, n)
    psi = E.eval_batch(bp.upper_cost, pts).reshape(n, n)
    feas = mask.reshape(n, n)
    phi_masked = np.where(feas, phi, np.inf)
    theta = phi_masked.min(axis=1)  # per x row
    objective = np.where(feas, psi + kappa * (phi - theta[:, None]), np.inf)
    idx = int(np.argmin(objective))
    i, j = divmod(idx, n)
    return np.array([xs[i], ys[j]]), float(objective[i, j])
