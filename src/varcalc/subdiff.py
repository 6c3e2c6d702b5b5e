"""Generalized-differentiation objects for the expression class.

Symbolic route: at a candidate point the active piecewise branches are
enumerated; pure max-type kinks give the hull of active branch gradients,
concave-type kinks fall back to clipping the candidate hull with sampled
difference-quotient halfspaces.  Limiting (basic) subdifferentials union
the contributions of every branch pattern realizable on the sample grid
near the point.

Numeric route: sampling oracles built directly from the limiting
definitions (epsilon-enlarged regular subgradients, projection residual
directions).  Both routes are deterministic for a fixed seed, so symbolic
results are cross-checkable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from varcalc import expr as ex
from varcalc.convgeom import (
    ConeSpec,
    DimensionError,
    Membership,
    NotMember,
    Polytope,
    PolytopeUnion,
    TOL_GEOM,
    cones_equal,
    convex_hull,
    clip_polytope,
    directions,
    hausdorff_distance,
    lp_weights,
    minkowski_membership,
    point_to_polytope_distances,
    union_minkowski_sum,
)

MAX_BRANCH_COMBOS = 4096
CLUSTER_TOL = 10 * TOL_GEOM
# eigenvalues of a sum of face projectors at or below this count as zero
EIG_TOL = 1e-10
# relative size below which a face combination's least residual counts as zero
RESIDUAL_TOL = 1e-14
MAX_ROOT_STEPS = 100
# lattice spacing and point budget of the oracle's fill of the hull at the point
FILL_SPACING = 0.025
FILL_BUDGET = 5000
# radii the samplers accept: squares of lengths of order r, such as the
# projection oracle's squared distances, are then normal floats
RADIUS_RANGE = (1e-100, 1e100)
# (samples x layer) matrix elements per row block of the normal-cone
# oracle's distance scan: 2 MB of float64 and a 256 KB mask
SCAN_BLOCK = 1 << 18


def __getattr__(name: str):
    # subdiff.sciopt, loaded on first read, serves only bench/tracer.py's SCIOPT:
    # delete both together at the next change to bench/
    if name == "sciopt":
        from scipy import optimize

        globals()["sciopt"] = optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SubdiffError(ValueError):
    pass


class QualificationError(SubdiffError):
    """Raised when a normal-cone qualification condition fails; carries a
    witness so callers can report the refusal instead of guessing."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


class CombinatorialOverflow(SubdiffError):
    pass


class ExtremalityNotWitnessed(SubdiffError):
    def __init__(self, k: int):
        super().__init__(
            f"distance term vanished at k={k}: the shifts do not witness "
            "extremality at this resolution"
        )
        self.k = k


# ---------------------------------------------------------------------------
# Sampling parameters


@dataclass(frozen=True)
class SampleParams:
    radii: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    dirs_per_radius: int = 256
    seed: int = 0
    # absolute activity tolerance of piecewise branches, read by every
    # active-pattern computation
    tau_act: float = ex.TAU_ACT_DEFAULT

    def __post_init__(self):
        r = self.radii
        lo, hi = RADIUS_RANGE
        if not r or not all(lo <= a <= hi for a in r):
            raise SubdiffError(f"radii must lie in [{lo:g}, {hi:g}]")
        if any(r[i + 1] >= r[i] for i in range(len(r) - 1)):
            raise SubdiffError("radii must be strictly decreasing")
        if self.dirs_per_radius < 2:
            raise SubdiffError("dirs_per_radius must be at least 2")
        if not (math.isfinite(self.tau_act) and self.tau_act > 0):
            raise SubdiffError("tau_act must be finite and positive")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise SubdiffError(f"seed must be an integer >= 0, got {self.seed!r}")

    def directions(self, dim: int) -> np.ndarray:
        return directions(dim, self.dirs_per_radius, self.seed)


DEFAULT_PARAMS = SampleParams()


# ---------------------------------------------------------------------------
# Set specifications


@dataclass(frozen=True)
class SetSpec:
    """A set given as inequalities, a graph, an epigraph, a singleton or a
    product.  Graph and epigraph specs carry the (x-block, y-block) split
    of their product space."""

    kind: str  # sublevel | graph | epigraph | singleton | product
    functions: tuple[ex.FunctionDef, ...] = ()
    point: np.ndarray | None = None
    factors: tuple["SetSpec", ...] = ()
    block_dims: tuple[int, int] | None = None

    @property
    def dim(self) -> int:
        if self.kind == "singleton":
            return self.point.shape[0]
        if self.kind == "product":
            return sum(f.dim for f in self.factors)
        return self.functions[0].space.dim

    @staticmethod
    def sublevel(functions: Sequence[ex.FunctionDef]) -> "SetSpec":
        fns = tuple(functions)
        if not fns:
            raise SubdiffError("sublevel spec needs at least one constraint")
        space = fns[0].space
        for f in fns:
            if f.space != space:
                raise DimensionError("sublevel constraints live in different spaces")
        return SetSpec("sublevel", fns)

    @staticmethod
    def graph(functions: Sequence[ex.FunctionDef], x_dim: int, y_dim: int) -> "SetSpec":
        fns = tuple(functions)
        if fns[0].space.dim != x_dim + y_dim:
            raise DimensionError("graph constraints must live in the product space")
        return SetSpec("graph", fns, block_dims=(x_dim, y_dim))

    @staticmethod
    def epigraph(f: ex.FunctionDef) -> "SetSpec":
        names = f.space.names + ("_epi",)
        product = ex.VarSpace(names)
        lifted = ex.lift_to_product(f, product, 0)
        t = ex.FunctionDef(product, ex.var(f.space.dim))
        constraint = ex.fsub(lifted, t)  # f(x) - t <= 0
        return SetSpec("epigraph", (constraint,), block_dims=(f.space.dim, 1))

    @staticmethod
    def singleton(point: Sequence[float]) -> "SetSpec":
        return SetSpec("singleton", point=np.asarray(point, dtype=float))

    @staticmethod
    def product(factors: Sequence["SetSpec"]) -> "SetSpec":
        return SetSpec("product", factors=tuple(factors))

    def constraint_functions(self) -> tuple[ex.FunctionDef, ...]:
        if self.kind in ("sublevel", "graph", "epigraph"):
            return self.functions
        raise SubdiffError(f"{self.kind} spec has no constraint functions")

    @cached_property
    def faces(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(M, c) for every face, in a fixed order, such that p - (M p - c)
        projects p onto the face's affine hull.  A polyhedron {Ax <= b} has
        its interior (0, 0) first, then for each subset As of at most dim
        rows M = pinv(As) @ As, the projector onto their span, and
        c = pinv(As) @ bs; a singleton has the one face (I, point); a
        product has the block-diagonal combinations of its factors' faces.
        Raises ProjectionUnavailable for non-affine constraints."""
        if self.kind == "singleton":
            return [(np.eye(self.dim), self.point)]
        if self.kind == "product":
            out = []
            for parts in itertools.product(*(f.faces for f in self.factors)):
                M = np.zeros((self.dim, self.dim))
                off = 0
                for Mf, _ in parts:
                    n = Mf.shape[0]
                    M[off : off + n, off : off + n] = Mf
                    off += n
                out.append((M, np.concatenate([c for _, c in parts])))
            return out
        dim = self.dim
        return [(np.zeros((dim, dim)), np.zeros(dim))] + [
            (M, c) for M, c, _ in self._boundary_faces
        ]

    @cached_property
    def _boundary_faces(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(M, c, L) for every face of a polyhedron {Ax <= b} but its
        interior, in the order of ``faces``: for each subset As of at most
        dim rows M = pinv(As) @ As, c = pinv(As) @ bs and L = pinv(As)^T,
        which takes the residual M p - c to the multipliers of As."""
        A, b = _polyhedron(self)
        m, dim = A.shape
        out = []
        for size in range(1, min(m, dim) + 1):
            for subset in itertools.combinations(range(m), size):
                rows = list(subset)
                P = np.linalg.pinv(A[rows])
                out.append((P @ A[rows], P @ b[rows], P.T))
        return out


def set_membership(spec: SetSpec, point: Sequence[float]) -> bool:
    p = np.asarray(point, dtype=float)
    if spec.kind == "singleton":
        return bool(np.linalg.norm(p - spec.point) <= TOL_GEOM)
    if spec.kind == "product":
        off = 0
        for f in spec.factors:
            if not set_membership(f, p[off : off + f.dim]):
                return False
            off += f.dim
        return True
    return all(ex.evaluate(f, p) <= TOL_GEOM for f in spec.functions)


def feasible_open(spec: SetSpec, cols: Sequence[np.ndarray], tol: float = TOL_GEOM) -> np.ndarray:
    """Set membership, at tolerance tol, of the points given as one
    broadcastable array per coordinate, such as an open grid (see
    ``ex.eval_open``) or the columns of a (points, dim) array.  The mask
    has the broadcast shape of the arrays the set's functions read."""
    if spec.kind == "singleton":
        # the sum and square root np.linalg.norm takes along a row
        return np.sqrt(sum((c - v) ** 2 for c, v in zip(cols, spec.point))) <= tol
    mask = np.True_
    if spec.kind == "product":
        off = 0
        for f in spec.factors:
            mask = mask & feasible_open(f, cols[off : off + f.dim], tol)
            off += f.dim
        return mask
    for f in spec.functions:
        mask = mask & (ex.eval_open(f, cols) <= tol)
    return mask


class ProjectionUnavailable(SubdiffError):
    pass


def _affine_system(spec: SetSpec) -> tuple[np.ndarray, np.ndarray] | None:
    """(A, b) with the set equal to {x : Ax <= b}, or None."""
    if spec.kind not in ("sublevel", "graph", "epigraph"):
        return None
    rows, rhs = [], []
    for f in spec.functions:
        parts = ex.affine_parts(f)
        if parts is None:
            return None
        w, b = parts
        rows.append(w)
        rhs.append(-b)
    return np.array(rows), np.array(rhs)


def _polyhedron(spec: SetSpec) -> tuple[np.ndarray, np.ndarray]:
    system = _affine_system(spec)
    if system is None:
        raise ProjectionUnavailable(
            "exact projection needs affine constraints; use the sampled oracle"
        )
    return system


def _face_count(spec: SetSpec) -> int:
    """len(spec.faces), without building any face."""
    if spec.kind == "singleton":
        return 1
    if spec.kind == "product":
        return math.prod(_face_count(f) for f in spec.factors)
    m, dim = _polyhedron(spec)[0].shape
    return sum(math.comb(m, size) for size in range(min(m, dim) + 1))


def project_onto(spec: SetSpec, point: Sequence[float]) -> np.ndarray:
    """Exact Euclidean projection for polyhedral specs, singletons and
    products of those: the nearest projection onto a face's affine hull
    that satisfies the KKT conditions, that is lies in the set and has
    nonnegative multipliers, both up to a tolerance relative to the size of
    the data.  Non-polyhedral sets have no closed-form projector here;
    callers needing one should use the grid-based oracle."""
    p = np.asarray(point, dtype=float)
    if spec.kind == "singleton":
        return spec.point.copy()
    if spec.kind == "product":
        out = np.empty_like(p)
        off = 0
        for f in spec.factors:
            out[off : off + f.dim] = project_onto(f, p[off : off + f.dim])
            off += f.dim
        return out
    A, b = _polyhedron(spec)
    tol = 1e-12 * max(1.0, float(np.abs(b).max()), float(np.abs(A).max() * np.abs(p).max()))
    if np.all(A @ p <= b + tol):
        return p.copy()
    best = None
    best_d = math.inf
    for M, c, L in spec._boundary_faces:
        res = M @ p - c
        x = p - res
        if np.all(A @ x <= b + tol) and np.all(L @ res >= -tol):
            d = float(np.linalg.norm(x - p))
            if d < best_d:
                best, best_d = x, d
    if best is None:
        raise ProjectionUnavailable("no feasible active-set projection found")
    return best


# ---------------------------------------------------------------------------
# Regular subdifferential


def _combo_data(f: ex.FunctionDef, x: np.ndarray, pattern: ex.ActivePattern):
    # counted before any combination is built: the product can be huge
    count = pattern.num_combinations()
    if count > MAX_BRANCH_COMBOS:
        raise CombinatorialOverflow(
            f"{count} branch combinations exceed the cap {MAX_BRANCH_COMBOS}"
        )
    combos = ex.branch_combinations(pattern)
    grads = []
    contexts = []
    for sel in combos:
        g, ctx = ex.gradient_and_contexts(f, x, sel)
        grads.append(g)
        contexts.append(ctx)
    return combos, np.array(grads), contexts


def _pattern_is_max_like(pattern: ex.ActivePattern, f: ex.FunctionDef, contexts) -> bool:
    """True when every tied piecewise node carries a sign making the kink
    convex: max nodes with nonnegative sensitivity, min nodes with
    nonpositive sensitivity (zero sensitivity is neutral)."""
    tol = 1e-9
    for path, act in pattern.selections:
        if len(act) < 2:
            continue
        kind = f.tape[f.piecewise[path]].kind
        vals = [ctx.get(path, 0.0) for ctx in contexts]
        if all(abs(v) <= tol for v in vals):
            continue
        if kind in ("max", "abs"):
            if any(v < -tol for v in vals):
                return False
        else:
            if any(v > tol for v in vals):
                return False
    return True


def _curvature_estimate(f: ex.FunctionDef, x: np.ndarray, pattern: ex.ActivePattern) -> float:
    """Rough bound on branch-composition curvature near x via central
    second differences of the branch-restricted functions."""
    dim = f.space.dim
    r = 1e-3
    probes = directions(dim, 2 * dim)
    worst = 0.0
    for sel_pattern in _singleton_subpatterns(pattern)[:8]:
        restricted = ex.restrict_to_pattern(f, sel_pattern)
        pts = np.vstack([x + r * probes, x - r * probes, x[None, :]])
        vals = ex.eval_batch(restricted, pts)
        k = probes.shape[0]
        second = np.abs(vals[:k] + vals[k : 2 * k] - 2 * vals[-1]) / r**2
        worst = max(worst, float(second.max(initial=0.0)))
    return worst


def _singleton_subpatterns(pattern: ex.ActivePattern) -> list[ex.ActivePattern]:
    out = []
    for sel in ex.branch_combinations(pattern):
        out.append(
            ex.ActivePattern(tuple(sorted((p, (b,)) for p, b in sel.items())))
        )
    if not out:
        out.append(pattern)
    return out


def _regular(
    f: ex.FunctionDef, p: np.ndarray, params: SampleParams
) -> tuple[Polytope | None, bool]:
    """``regular_subdifferential`` at the point p, and whether p's
    pattern is max-like (the hull of active branch gradients is then the
    answer, unclipped)."""
    pattern = ex.active_pattern(f, p, params.tau_act)
    _, grads, contexts = _combo_data(f, p, pattern)
    candidate = convex_hull(grads)
    if _pattern_is_max_like(pattern, f, contexts):
        return candidate, True
    r = params.radii[-1]
    eps = r / 10 + _curvature_estimate(f, p, pattern) * r
    dirs = params.directions(f.space.dim)
    quotients = (ex.eval_batch(f, p[None, :] + r * dirs) - ex.evaluate(f, p)) / r
    return clip_polytope(candidate, dirs, quotients + eps), False


def regular_subdifferential(
    f: ex.FunctionDef,
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> Polytope | None:
    """Regular subdifferential at x; None encodes the empty set.

    Pure max-type patterns give the hull of active branch gradients
    directly.  Patterns with concave-type ties clip that candidate hull
    with difference-quotient halfspaces sampled at the smallest radius,
    relaxed by a tenth of that radius plus a curvature allowance, so the
    result satisfies the defining inequality on all drawn samples.
    """
    return _regular(f, ex.as_point(f.space, x), params)[0]


# ---------------------------------------------------------------------------
# Basic (limiting) subdifferential


@dataclass
class PatternCensus:
    entries: dict[tuple, dict]

    def as_json(self) -> list[dict]:
        out = []
        for key, info in sorted(self.entries.items(), key=lambda kv: repr(kv[0])):
            out.append(
                {
                    "pattern": repr(key),
                    "count": info["count"],
                    "at_smallest_radius": info["smallest"],
                }
            )
        return out


def _realizable_patterns(
    f: ex.FunctionDef, p: np.ndarray, params: SampleParams
) -> tuple[list[ex.ActivePattern], PatternCensus]:
    """Patterns seen on the sample grid around p, plus p's own pattern.

    Only patterns realized at the smallest radius (or at p itself) feed
    the limiting union; the full census is kept for audit.  Thin patterns
    that no sampled ray enters can be missed, which is why results carry
    the census.
    """
    census: dict[tuple, dict] = {}
    chosen: dict[tuple, ex.ActivePattern] = {}
    own = ex.active_pattern(f, p, params.tau_act)
    census[own.key()] = {"count": 1, "smallest": True}
    chosen[own.key()] = own
    dirs = params.directions(f.space.dim)
    for level, r in enumerate(params.radii):
        smallest = level == len(params.radii) - 1
        patterns, inverse = ex.active_patterns(f, p + r * dirs, params.tau_act)
        for pat, count in zip(patterns, np.bincount(inverse).tolist()):
            info = census.setdefault(pat.key(), {"count": 0, "smallest": False})
            info["count"] += count
            if smallest:
                info["smallest"] = True
                chosen.setdefault(pat.key(), pat)
    return list(chosen.values()), PatternCensus(census)


def basic_subdifferential(
    f: ex.FunctionDef,
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> PolytopeUnion:
    union, _ = basic_subdifferential_with_census(f, x, params)
    return union


def basic_subdifferential_with_census(
    f: ex.FunctionDef,
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> tuple[PolytopeUnion, PatternCensus]:
    p = ex.as_point(f.space, x)
    patterns, census = _realizable_patterns(f, p, params)
    parts: list[Polytope] = []
    for pat in patterns:
        restricted = ex.restrict_to_pattern(f, pat)
        piece = regular_subdifferential(restricted, p, params)
        if piece is not None:
            parts.append(piece)
    if not parts:
        raise SubdiffError("no realizable pattern produced a subgradient set")
    return PolytopeUnion.create(parts), census


def singular_subdifferential(f: ex.FunctionDef, x: Sequence[float]) -> ConeSpec:
    """The expression class is locally Lipschitz by construction, so the
    singular subdifferential is always {0}."""
    ex.as_point(f.space, x)
    return ConeSpec.zero(f.space.dim)


@dataclass
class SubdiffResult:
    regular: Polytope | None
    basic: PolytopeUnion
    singular: ConeSpec
    method: str  # symbolic | sampled
    witnesses: dict


def full_subdifferential(
    f: ex.FunctionDef,
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> SubdiffResult:
    p = ex.as_point(f.space, x)
    regular, max_like = _regular(f, p, params)
    basic, census = basic_subdifferential_with_census(f, p, params)
    return SubdiffResult(
        regular=regular,
        basic=basic,
        singular=singular_subdifferential(f, p),
        method="symbolic" if max_like else "sampled",
        witnesses={"pattern_census": census.as_json()},
    )


# ---------------------------------------------------------------------------
# Sampled subdifferential oracle


@dataclass
class OracleCloud:
    points: np.ndarray
    cluster_centers: np.ndarray

    def as_singletons(self) -> np.ndarray:
        """The cluster centers, as the (N, dim) array of singletons that
        hausdorff_distance takes.  Centers need not be pairwise separated
        (see ``_cluster``), but no distance needs them to be."""
        if self.cluster_centers.shape[0] == 0:
            raise SubdiffError("oracle accepted no subgradient candidates")
        return self.cluster_centers


def _cell_codes(keys: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """One integer per row of integral cell keys, and the offset that turns
    a code into the code of each of the 3^dim neighbour cells, in
    ``itertools.product((-1, 0, 1), repeat=dim)`` order.

    Each column's keys are ranked so that equal keys get equal ranks and
    keys one apart ranks one apart, all others at least two; the ranks
    are packed in mixed radix with a free digit on either side.  So
    code + offset is the code of a cell holding a point exactly when the
    neighbour cell holds that point, and never wraps.
    """
    ranks, radix = [], []
    for col in keys.T:
        u, inv = np.unique(col, return_inverse=True)
        rank = np.concatenate([[1], 1 + np.cumsum(np.where(np.diff(u) == 1, 1, 2))])
        ranks.append(rank[inv])
        radix.append(int(rank[-1]) + 2)
    strides = [math.prod(radix[:k]) for k in range(len(radix))]
    # Python integers in an object array keep codes past int64 exact
    dtype = np.int64 if math.prod(radix) < 2**62 else object
    codes = sum(r.astype(dtype) * s for r, s in zip(ranks, strides))
    offsets = [
        sum(o * s for o, s in zip(off, strides))
        for off in itertools.product((-1, 0, 1), repeat=len(radix))
    ]
    return codes, offsets


def _cluster(points: np.ndarray, tol: float) -> np.ndarray:
    """Greedy clustering at the given tolerance via a spatial hash; returns
    cluster centroids in a canonical lexicographic order.

    Points are taken in lexicographic order.  Each one joins the first
    center within tol of it, searching the 3^dim cells of size tol around
    its own cell in ``itertools.product`` order and each cell's centers in
    the order they were made, and moves that center to the running mean
    ``c + (q - c) / n``; otherwise it makes a new center, filed under its
    own cell.  A center stays filed under the cell of the point that made
    it while its mean drifts, so centers are not pairwise separated: two
    can end up within tol of each other.

    A point with no other point in its 3^dim block of cells makes its own
    center and is never joined: a point that searched its cell would lie
    in its block, and the block relation is symmetric.  Nor does it change
    any other point's search.  Such points are emitted as they are, and
    the greedy pass runs on the rest alone, which gives the same centers
    as a pass over all points.

    Distances are taken with ``math.dist``.  It and ``np.linalg.norm``
    can fall on different sides of tol only within a relative 1e-9 of it
    (for tol far from the float range's ends); there ``np.linalg.norm(q -
    c) <= tol`` decides.
    """
    if points.shape[0] == 0:
        return points
    dim = points.shape[1]
    order = np.lexsort(tuple(points[:, k] for k in range(dim - 1, -1, -1)))
    pts = points[order]
    # float keys: past 2**63 an int64 cast would overflow, and ranking is exact
    codes, offsets = _cell_codes(np.floor(pts / tol))
    occupied, inverse, counts = np.unique(codes, return_inverse=True, return_counts=True)
    alone = counts[inverse] == 1
    for off in offsets:
        if off:
            nb = codes + off
            alone &= occupied[np.minimum(np.searchsorted(occupied, nb), occupied.size - 1)] != nb

    lo, hi = tol * (1 - 1e-9), tol * (1 + 1e-9)

    def near(q: list[float], c: list[float]) -> bool:
        d = math.dist(q, c)
        return d < lo or (d <= hi and bool(np.linalg.norm(np.subtract(q, c)) <= tol))

    rest = np.flatnonzero(~alone)
    cells: dict[int, list[int]] = {}
    centers: list[list[float]] = []
    sizes: list[int] = []
    made_by: list[int] = []
    for i, q, code in zip(rest.tolist(), pts[rest].tolist(), codes[rest].tolist()):
        hit = next(
            (idx for off in offsets for idx in cells.get(code + off, ()) if near(q, centers[idx])),
            -1,
        )
        if hit >= 0:
            sizes[hit] += 1
            centers[hit] = [c + (a - c) / sizes[hit] for a, c in zip(q, centers[hit])]
        else:
            cells.setdefault(code, []).append(len(centers))
            centers.append(q)
            sizes.append(1)
            made_by.append(i)
    lone = np.flatnonzero(alone)
    out = np.concatenate([pts[lone], np.array(centers).reshape(-1, dim)])
    # the order a pass over all points makes centers in, so that rows the
    # sort below ties (0.0 and -0.0) come out in the same order
    out = out[np.argsort(np.concatenate([lone, np.array(made_by, dtype=np.intp)]))]
    order = np.lexsort(tuple(out[:, k] for k in range(dim - 1, -1, -1)))
    return out[order]


def _accepts(
    us: np.ndarray,
    fus: np.ndarray,
    candidates: np.ndarray,
    stencils: np.ndarray,
    f_stencils: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Vectorized epsilon-relaxed regular-subgradient test at D base
    points: keep candidate v of u with f(w) - f(u) >= <v, w-u> - eps*|w-u|
    on every stencil point w of u, given fus = f(u) and f_stencils = f
    over the stencils.  Shapes: us (D, dim), fus (D,), candidates
    (D, C, dim), stencils (D, S, dim), f_stencils (D, S); returns (D, C).
    A row's verdicts do not depend on the other rows."""
    gains = f_stencils - fus[:, None]  # (D, S)
    offs = stencils - us[:, None, :]  # (D, S, dim)
    norms = np.linalg.norm(offs, axis=2)
    lhs = np.matmul(candidates, offs.transpose(0, 2, 1))  # (D, C, S)
    ok = lhs <= (gains + eps * norms + 1e-14)[:, None, :]
    return np.all(ok, axis=2)


def sampled_subdiff_oracle(
    f: ex.FunctionDef,
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> OracleCloud:
    """Point cloud of limiting subgradient candidates.

    Branch gradients at nearby singleton-pattern points are screened by
    the epsilon-enlarged defining inequality over a local stencil; the
    surviving values from the two smallest accepting radii are linearly
    extrapolated to radius zero.  Candidates drawn from the hull of the
    active branch gradients at x itself are screened the same way, which
    fills convex faces (and rejects midpoints of genuinely nonconvex
    unions).  Deterministic for a fixed seed.
    """
    p = ex.as_point(f.space, x)
    dim = f.space.dim
    dirs = params.directions(dim)
    stencil_dirs = directions(dim, max(8, min(32, params.dirs_per_radius // 8)), params.seed + 1)

    accepted: dict[int, dict[int, np.ndarray]] = {}
    raw: list[np.ndarray] = []
    for level, r in enumerate(params.radii):
        eps = r / 10
        rho = np.array([r / 32, r / 64])
        us = p + r * dirs
        patterns, inverse = ex.active_patterns(f, us, params.tau_act)
        smooth = [pat.is_smooth() for pat in patterns]
        grads = np.zeros_like(us)
        for k, pat in enumerate(patterns):
            if smooth[k]:
                sel = {path: act[0] for path, act in pat.selections}
                grads[inverse == k] = ex.branch_gradients(f, us[inverse == k], sel)[0]
        # stencils[di] = [u + rr * s for rr in rho for s in stencil_dirs], u = us[di]
        stencils = us[:, None, :] + (rho[:, None, None] * stencil_dirs).reshape(1, -1, dim)
        values = ex.eval_batch(f, np.vstack([us, stencils.reshape(-1, dim)]))
        f_stencils = values[len(us) :].reshape(len(us), -1)
        tried = np.flatnonzero(np.asarray(smooth)[inverse])
        ok = _accepts(
            us[tried], values[tried], grads[tried, None, :], stencils[tried], f_stencils[tried], eps
        )[:, 0]
        for di in tried[ok].tolist():
            accepted.setdefault(di, {})[level] = grads[di]
            raw.append(grads[di])

    limits: list[np.ndarray] = []
    last = len(params.radii) - 1
    for di, levels in accepted.items():
        if last in levels:
            v1 = levels[last]
            if last - 1 in levels:
                v0 = levels[last - 1]
                r1, r0 = params.radii[last], params.radii[last - 1]
                limits.append(v1 + (v1 - v0) * (r1 / (r0 - r1)))
            else:
                limits.append(v1)

    # fill candidates at x itself
    pattern = ex.active_pattern(f, p, params.tau_act)
    _, grads, _ = _combo_data(f, p, pattern)
    hull = convex_hull(grads)
    fill = _barycentric_fill(hull, FILL_SPACING)
    stencil = np.vstack(
        [p[None, :] + r * stencil_dirs for r in params.radii]
    )
    f_fill = ex.eval_batch(f, np.vstack([p[None, :], stencil]))
    eps_fill = params.radii[0] / 10
    keep = _accepts(p[None], f_fill[:1], fill[None], stencil[None], f_fill[None, 1:], eps_fill)[0]
    fill_accepted = fill[keep]
    raw.extend(fill_accepted)

    cloud = np.array(limits + list(fill_accepted)) if (limits or len(fill_accepted)) else np.zeros((0, dim))
    centers = _cluster(cloud, CLUSTER_TOL)
    points = np.array(raw) if raw else np.zeros((0, dim))
    return OracleCloud(points=points, cluster_centers=centers)


def _barycentric_fill(poly: Polytope, spacing: float) -> np.ndarray:
    """Deterministic covering of a polytope at the given spacing: segment
    lattices in 1D, a clipped box lattice in 2D, a barycentric lattice of
    at most FILL_BUDGET points above that."""
    V = poly.vertices
    if V.shape[0] == 1:
        return V.copy()
    diameter = max(
        float(np.linalg.norm(V[i] - V[j]))
        for i in range(V.shape[0])
        for j in range(i + 1, V.shape[0])
    )
    m = int(max(1, math.ceil(diameter / spacing)))
    k = V.shape[0]
    if k == 2:
        ts = np.linspace(0.0, 1.0, min(m, FILL_BUDGET) + 1)
        return np.outer(1 - ts, V[0]) + np.outer(ts, V[1])
    if poly.dim == 2:
        return _polygon_lattice(V, spacing)
    while m > 1 and math.comb(m + k - 1, k - 1) > FILL_BUDGET:
        m -= 1
    weights = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            weights.append(prefix + [remaining])
            return
        for i in range(remaining + 1):
            rec(prefix + [i], remaining - i, slots - 1)

    rec([], m, k)
    W = np.array(weights, dtype=float) / m
    return W @ V


def _polygon_lattice(V: np.ndarray, spacing: float) -> np.ndarray:
    """Box lattice restricted to a 2D convex hull (vertices included)."""
    center = V.mean(axis=0)
    order = np.argsort(np.arctan2(V[:, 1] - center[1], V[:, 0] - center[0]))
    ring = V[order]
    lo, hi = V.min(axis=0), V.max(axis=0)
    nx = max(2, int(math.ceil((hi[0] - lo[0]) / spacing)) + 1)
    ny = max(2, int(math.ceil((hi[1] - lo[1]) / spacing)) + 1)
    gx = np.linspace(lo[0], hi[0], nx)
    gy = np.linspace(lo[1], hi[1], ny)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    inside = np.ones(pts.shape[0], dtype=bool)
    for i in range(ring.shape[0]):
        a, b = ring[i], ring[(i + 1) % ring.shape[0]]
        edge = b - a
        rel = pts - a
        inside &= edge[0] * rel[:, 1] - edge[1] * rel[:, 0] >= -1e-12
    return np.vstack([V, pts[inside]])


# ---------------------------------------------------------------------------
# Normal cones


@dataclass
class NormalCone:
    parts: tuple[ConeSpec, ...]
    qualification: str  # "polyhedral-exact" | "verified" | "trivial"
    active: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.parts[0].dim


def zero_combination(parts: Sequence[Polytope]) -> tuple[np.ndarray, list[np.ndarray]] | float:
    """Solve 0 in sum_i lambda_i conv(P_i) with lambda >= 0 summing to 1.

    Returns (multipliers, chosen vectors) on success or the infeasibility
    margin on failure; an LP breakdown raises GeometryError."""
    dim = parts[0].dim
    V = np.vstack([P.vertices for P in parts])
    z = lp_weights(np.zeros(dim), [(V, "convex")], "the zero-combination check")
    if isinstance(z, float):
        return z
    lams, vecs = [], []
    for P, w in zip(parts, np.split(z[0], np.cumsum([P.num_vertices for P in parts])[:-1])):
        lam = float(w.sum())
        lams.append(lam)
        vecs.append((P.vertices.T @ w) / lam if lam > 1e-9 else np.zeros(dim))
    return np.array(lams), vecs


def check_combinations(counts: Iterable[int], search: str) -> None:
    """Refuse a search over one branch per factor, given each factor's
    branch count, before it enumerates anything: more than
    MAX_BRANCH_COMBOS combinations overflow."""
    if math.prod(counts) > MAX_BRANCH_COMBOS:
        raise CombinatorialOverflow(f"too many branch combinations in {search}")


def qualification_witness(unions: Sequence[PolytopeUnion]) -> dict | None:
    """A vanishing nonzero nonnegative combination of one part per union
    (multipliers scaled to a largest entry of 1, and the chosen vectors),
    or None when the positive-combination qualification condition holds.
    One zero-combination LP per branch combination, in order."""
    if not unions:
        return None
    check_combinations((len(u.parts) for u in unions), "the qualification check")
    for combo in itertools.product(*(u.parts for u in unions)):
        out = zero_combination(list(combo))
        if not isinstance(out, float):
            lams, vecs = out
            return {
                "multipliers": (lams / float(lams.max())).tolist(),
                "vectors": [v.tolist() for v in vecs],
            }
    return None


def active_constraints(functions: Sequence[ex.FunctionDef], point: np.ndarray) -> tuple[int, ...]:
    """The indices of the functions that vanish at the point, within TOL_GEOM."""
    return tuple(j for j, f in enumerate(functions) if abs(ex.evaluate(f, point)) <= TOL_GEOM)


def normal_cone(
    spec: SetSpec,
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> NormalCone:
    """Normal cone computed from the active-constraint subdifferentials.

    Affine constraint systems take the exact polyhedral route.  Otherwise
    the cone is the nonnegative span of the active constraints' basic
    subdifferentials, one ConeSpec per branch choice of the nonconvex
    parts, valid under the positive-combination qualification condition;
    when that condition fails the operation refuses with a witness.
    """
    p = np.asarray(x, dtype=float)
    if spec.kind == "singleton":
        if not set_membership(spec, p):
            raise SubdiffError("point not in the set")
        return NormalCone((ConeSpec.full_space(spec.dim),), "trivial", ())
    if spec.kind == "product":
        offs = []
        off = 0
        factor_cones = []
        for f in spec.factors:
            factor_cones.append(normal_cone(f, p[off : off + f.dim], params))
            offs.append(off)
            off += f.dim
        dim = spec.dim
        parts = []
        for combo in itertools.product(*(nc.parts for nc in factor_cones)):
            gens, lins = [], []
            for cone, off_, f in zip(combo, offs, spec.factors):
                G = np.zeros((cone.generators.shape[0], dim))
                G[:, off_ : off_ + f.dim] = cone.generators
                gens.append(G)
                L = np.zeros((cone.lineality.shape[0], dim))
                L[:, off_ : off_ + f.dim] = cone.lineality
                lins.append(L)
            parts.append(
                ConeSpec(dim, np.vstack(gens), np.vstack(lins)).canonicalize()
            )
        return NormalCone(tuple(parts), "trivial", ())

    if not set_membership(spec, p):
        raise SubdiffError("point not in the set")
    fns = spec.constraint_functions()
    dim = spec.dim
    active = active_constraints(fns, p)
    if not active:
        return NormalCone((ConeSpec.zero(dim),), "trivial", ())

    system = _affine_system(spec)
    if system is not None:
        A, _ = system
        gens = A[list(active)]
        return NormalCone(
            (ConeSpec.from_generators(dim, gens),), "polyhedral-exact", active
        )

    subdiffs = [basic_subdifferential(fns[j], p, params) for j in active]
    witness = qualification_witness(subdiffs)
    if witness is not None:
        raise QualificationError(
            "qualification condition fails: a nonzero nonnegative combination "
            "of active constraint subgradients vanishes",
            {
                "multipliers": witness["multipliers"],
                "active_constraints": list(active),
            },
        )
    parts = []
    for choice in itertools.product(*(u.parts for u in subdiffs)):
        gens = np.vstack([P.vertices for P in choice])
        parts.append(ConeSpec.from_generators(dim, gens))
    # distinct parts only
    uniq: list[ConeSpec] = []
    for c in parts:
        if not any(cones_equal(c, q) for q in uniq):
            uniq.append(c)
    return NormalCone(tuple(uniq), "verified", active)


def _projection_grid(
    spec: SetSpec, p: np.ndarray, r: float, Q: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """The boundary layer of the feasible lattice around p at radius r
    that a projection from the samples Q can reach, in lattice order; a
    mask of the samples that lie within 2 step sqrt(dim) of a feasible
    lattice point; and the lattice step.  The lattice has half width
    2.5 r and step r / 64 up to two dimensions, r / 16 in three, so that
    r / 2 is at least 8 steps; the samples lie on the sphere |q - p| = r.

    Feasibility is evaluated once per constraint on the lattice axes
    (``feasible_open``); no (points, dim) array of the lattice is built.

    Reachable ball: let B be the distance from p to its nearest feasible
    lattice point.  The nearest one to q then lies within r + B of q, and
    ``sampled_normal_cone_oracle`` opens a ball of radius at most
    dmin + step^2 / r around q (it skips dmin <= r/2), so every point it
    can use lies within R(B) = (2 r + B + step^2 / r)(1 + 1e-6) of p; the
    relative margin covers rounding.

    B is the least distance over the edge (the feasible points with an
    axis neighbour that is infeasible or off the lattice) and, when it is
    feasible, the centre (the lattice point at p up to rounding).  A
    feasible centre is the nearest point; otherwise the nearest feasible
    point has a neighbour one step towards p along its largest offset,
    closer to p and so infeasible, which puts it on the edge.

    Layer: the feasible points within R(B) with an axis neighbour that is
    infeasible or off the lattice.  Let q have dmin > r/2 >= 8 steps to
    the feasible lattice, and let w be a feasible point with |q - w| at
    most dmin + step^2 / (2 dmin) (plus the oracle's 1e-9 margin).  One
    step from w along its largest offset towards q comes at least
    step / sqrt(dim) - O(step^2 / dmin) closer to q, so under dmin: that
    neighbour is infeasible or off the lattice, and w lies on the layer.
    So is the nearest feasible point of any q farther than
    step sqrt(dim) / 2 from the lattice's feasible points.  A sample with
    no feasible lattice point among the 4^dim around its own cell is that
    far, and a sample with one lies within 2 step sqrt(dim) < r/2; the
    oracle skips it, as a scan of the whole lattice would.  Every other
    nearest-point and ball query gives the same points, in the same
    order, on the layer as on the whole lattice.
    """
    dim = p.shape[0]
    step = r / 64 if dim <= 2 else r / 16
    half = 2.5 * r
    axes = [np.arange(c - half, c + half + step / 2, step) for c in p]
    shape = tuple(a.size for a in axes)
    cols = [a.reshape((1,) * k + (-1,) + (1,) * (dim - k - 1)) for k, a in enumerate(axes)]
    ok = np.broadcast_to(feasible_open(spec, cols, tol), shape)
    if not ok.any():
        raise SubdiffError(f"projection grid found no feasible points at radius {r}")
    pad = np.pad(ok, 1)  # False off the lattice
    inner = tuple(slice(1, n + 1) for n in shape)
    interior = np.ones(shape, dtype=bool)
    for k, n in enumerate(shape):
        for lo in (0, 2):
            interior &= pad[inner[:k] + (slice(lo, lo + n),) + inner[k + 1 :]]
    edge = np.unravel_index(np.flatnonzero(ok & ~interior), shape)
    d2 = sum((a[i] - v) ** 2 for a, i, v in zip(axes, edge, p))
    b2 = d2.min()
    if ok[tuple(n // 2 for n in shape)]:
        b2 = min(b2, sum((a[n // 2] - v) ** 2 for a, n, v in zip(axes, shape, p)))
    bound = (2 * r + math.sqrt(b2) + step**2 / r) * (1 + 1e-6)
    layer = [i[d2 <= bound**2] for i in edge]
    cell = np.floor((Q - [a[0] for a in axes]) / step).astype(np.intp)
    close = np.zeros(Q.shape[0], dtype=bool)
    for off in itertools.product(range(-1, 3), repeat=dim):
        close |= ok[tuple((cell + off).T)]
    return np.stack([a[i] for a, i in zip(axes, layer)], axis=1), close, step


def _layer_balls(
    Q: np.ndarray, layer: np.ndarray, p: np.ndarray, r: float, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row and layer indices, in row-major order, of the layer points
    within reach of each sample Q[i] that lies farther than about r/2 from
    the layer: reach is dmin + step^2 / (2 dmin) with a 1e-9 relative
    margin, dmin the distance from Q[i] to its nearest layer point.

    The scan works in units of r about p, where every sample has norm 1
    and every layer point norm at most 2.5 sqrt(3): no square overflows
    or underflows, whatever r.  One matrix product per block of
    SCAN_BLOCK elements gives |l|^2 - 2 q.l for each sample q and layer
    point l, and |q|^2 is added to the row minimum and to the bound, not
    to the matrix.  Centring, scaling and the product move each squared
    distance by less than 1e-13 in these units, so for a sample at least
    r/2 from the layer the scanned distance is within 1e-12 of the exact
    one, relative.
    """
    Qs = (Q - p) / r
    Ls = (layer - p) / r
    n = Ls.shape[0]
    s2 = (step / r) ** 2
    A = np.hstack([Qs, np.ones((Qs.shape[0], 1))])
    B = np.vstack([-2 * Ls.T, np.vecdot(Ls, Ls)])
    q2 = np.vecdot(Qs, Qs)
    rows = max(1, SCAN_BLOCK // n)
    owners, cols = [], []
    for lo in range(0, Qs.shape[0], rows):
        m, q = A[lo : lo + rows] @ B, q2[lo : lo + rows]
        # every sample here is at least a step from the layer, so dmin > 0
        dmin = np.sqrt(m.min(axis=1) + q)
        reach = (dmin + s2 / (2 * dmin)) * (1 + 1e-9)
        bound = np.where(dmin > 0.5 * (1 - 1e-9), reach * reach - q, -np.inf)
        # flat indices in np.nonzero's row-major order, found faster
        i, j = np.divmod(np.flatnonzero(m <= bound[:, None]), n)
        owners.append(i + lo)
        cols.append(j)
    return np.concatenate(owners), np.concatenate(cols)


def sampled_normal_cone_oracle(
    spec: SetSpec,
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> OracleCloud:
    """Normal directions accumulated from Euclidean projections onto a
    dense local feasible grid: directions (x_k - w_k)/|x_k - w_k| for
    sampled x_k = x + r d near the point, where w_k ranges over the grid
    points within dmin + step^2/(2 dmin) of x_k (dmin the distance to the
    nearest one).  Deterministic for a fixed seed.

    Only the boundary layer of the feasible lattice, within
    2 r + B + step^2 / r of x (B the distance from x to the nearest
    feasible lattice point), is searched: every point a kept sample can
    use lies there, and every sample whose nearest point may not is
    skipped (see ``_projection_grid``), so the result equals a scan of
    the whole lattice.

    The layer is searched by a blocked scan of the (samples x layer)
    squared distances (``_layer_balls``).  Its distances only choose
    candidates: the skip test and the acceptance are decided on
    ``np.linalg.norm`` of the correctly rounded differences
    cand - Q[owner], as a dense scan decides them.  Scan and numpy
    distances agree to within about 1e-12 relative, far inside the 1e-9
    margins of the scan's skip test and reach.  Since t + step^2 / (2 t)
    grows for t > r/2, the scan's candidates therefore hold every point
    the numpy rule accepts, and the numpy-nearest point, so dmin and the
    accepted points, in lattice order, are those of the dense scan bit
    for bit.

    Sample points closer than r/2 to the grid are skipped: their
    directions are dominated by grid error.  The rest give normals
    accurate to a few hundredths of a radian in one and two dimensions
    (step r/64) and to about 0.15 rad in three (step r/16: every direction
    for the halfspace z <= 0 at the origin lies within 0.122 rad of
    (0, 0, 1), every cluster center for the wedge y >= -x, z >= -x within
    0.143 rad of its cone).

    The grid uses a near-machine feasibility tolerance: a loose tolerance
    admits a sliver of width sqrt(tol) along curved boundaries, which
    would tilt projection directions by far more than the grid step.
    """
    p = np.asarray(x, dtype=float)
    dim = spec.dim
    if dim > 3:
        raise SubdiffError("projection oracle supports dim <= 3")
    if not set_membership(spec, p):
        raise SubdiffError("point not in the set")
    dirs = params.directions(dim)
    collected: list[np.ndarray] = []
    grid_tol = 1e-13 * (1.0 + float(np.linalg.norm(p)))
    for r in params.radii:
        Q = p + r * dirs
        layer, close, step = _projection_grid(spec, p, r, Q, grid_tol)
        far = np.flatnonzero(~close)
        if far.size == 0:
            continue
        rows, cols = _layer_balls(Q[far], layer, p, r, step)
        owner, cand = far[rows], layer[cols]
        sizes = np.bincount(rows)
        sizes = sizes[sizes > 0]
        dists = np.linalg.norm(cand - Q[owner], axis=1)
        dmin = np.repeat(np.minimum.reduceat(dists, np.cumsum(sizes) - sizes), sizes)
        near = (dmin > r / 2) & (dists <= dmin + step**2 / (2 * dmin))
        v = Q[owner[near]] - cand[near]
        # vecdot is the dot product np.linalg.norm takes of one vector, so
        # the directions equal a per-vector v / norm(v) bit for bit
        collected.append(v / np.sqrt(np.vecdot(v, v))[:, None])
    cloud = np.concatenate(collected) if collected else np.zeros((0, dim))
    centers = _cluster(cloud, 0.02)
    return OracleCloud(points=cloud, cluster_centers=centers)


# ---------------------------------------------------------------------------
# Coderivatives


@dataclass
class SlicedCone:
    """Affine slice of a cone mapped to the x-block: polytope base plus a
    recession cone (empty base encodes an infeasible slice)."""

    base: Polytope | None
    recession: ConeSpec

    def is_zero_only(self) -> bool:
        if self.base is None:
            return False
        return (
            self.base.num_vertices == 1
            and float(np.linalg.norm(self.base.vertices[0])) <= TOL_GEOM
            and self.recession.is_zero()
        )


def _nonneg_solutions(B: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V-representation of {z >= 0 : Bz = c}: vertices and extreme rays,
    by basic-solution enumeration (the set is pointed since z >= 0)."""
    m, K = B.shape
    scale = 1.0 + max(float(np.abs(B).max(initial=0.0)), float(np.abs(c).max(initial=0.0)))
    tol = 1e-9 * scale

    def basic_points(M: np.ndarray, rhs: np.ndarray) -> list[np.ndarray]:
        rank = int(np.linalg.matrix_rank(M, tol=1e-10)) if M.size else 0
        out = []
        if rank == 0:
            if np.linalg.norm(rhs) <= tol:
                out.append(np.zeros(M.shape[1]))
            return out
        for subset in itertools.combinations(range(M.shape[1]), rank):
            Ms = M[:, list(subset)]
            zs, _, _, _ = np.linalg.lstsq(Ms, rhs, rcond=None)
            if np.linalg.norm(Ms @ zs - rhs) > tol:
                continue
            if np.any(zs < -1e-9):
                continue
            z = np.zeros(M.shape[1])
            for idx, val in zip(subset, zs):
                z[idx] = max(val, 0.0)
            out.append(z)
        return out

    vertices = basic_points(B, c)
    ray_system = np.vstack([B, np.ones((1, K))])
    ray_rhs = np.concatenate([np.zeros(m), [1.0]])
    rays = basic_points(ray_system, ray_rhs)
    return (
        np.array(vertices) if vertices else np.zeros((0, K)),
        np.array(rays) if rays else np.zeros((0, K)),
    )


def coderivative(
    spec: SetSpec,
    point: Sequence[float],
    w: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> tuple[SlicedCone, ...]:
    """Coderivative value {v : (v, -w) in N(point; gph F)} as a union of
    sliced cones; an empty tuple encodes the empty set."""
    if spec.block_dims is None:
        raise SubdiffError("coderivative needs a graph or epigraph spec")
    n, m = spec.block_dims
    w = np.asarray(w, dtype=float)
    if w.shape != (m,):
        raise DimensionError("coderivative argument has wrong dimension")
    cone_parts = normal_cone(spec, point, params).parts
    out: list[SlicedCone] = []
    for cone in cone_parts:
        cols = cone.translate_columns()  # (K, n+m), nonneg coefficients
        if cols.shape[0] == 0:
            if np.linalg.norm(w) <= TOL_GEOM:
                out.append(SlicedCone(Polytope.singleton(np.zeros(n)), ConeSpec.zero(n)))
            continue
        B = cols[:, n:].T  # (m, K)
        A = cols[:, :n].T  # (n, K)
        vertices, rays = _nonneg_solutions(B, -w)
        if vertices.shape[0] == 0:
            continue
        base = convex_hull(vertices @ A.T)
        ray_vecs = rays @ A.T if rays.shape[0] else np.zeros((0, n))
        ray_vecs = ray_vecs[np.linalg.norm(ray_vecs, axis=1) > TOL_GEOM]
        recession = (
            ConeSpec.from_generators(n, ray_vecs) if ray_vecs.shape[0] else ConeSpec.zero(n)
        )
        out.append(SlicedCone(base, recession))
    return tuple(out)


@dataclass
class LipschitzLikeReport:
    verdict: bool
    at_zero: tuple[SlicedCone, ...]


def lipschitz_like_check(
    spec: SetSpec, point: Sequence[float], params: SampleParams = DEFAULT_PARAMS
) -> LipschitzLikeReport:
    """Coderivative criterion: the mapping is Lipschitz-like at the point
    iff the coderivative at 0 collapses to {0}."""
    n, m = spec.block_dims
    parts = coderivative(spec, point, np.zeros(m), params)
    verdict = len(parts) > 0 and all(c.is_zero_only() for c in parts)
    return LipschitzLikeReport(verdict=verdict, at_zero=parts)


def sampled_lipschitz_like_test(
    spec: SetSpec,
    point: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> tuple[bool, float]:
    """Direct sampled test of the Lipschitz-like inclusion
    F(x) cap V subset F(u) + ell |x - u| B on parameter pairs near the
    point, with V the decisions within 0.5 of the point's, on 2001
    decision values; the verdict holds when the empirical modulus is at
    most 1e3.  Returns (verdict, empirical modulus)."""
    n, m = spec.block_dims
    if m != 1:
        raise SubdiffError("sampled Lipschitz-like test supports one decision variable")
    p = np.asarray(point, dtype=float)
    xb, yb = p[:n], p[n:]
    v_radius = 0.5
    ys = np.linspace(yb[0] - 4 * v_radius, yb[0] + 4 * v_radius, 2001)
    step = ys[1] - ys[0]

    def feasible_ys(xv: np.ndarray) -> np.ndarray:
        return ys[np.broadcast_to(feasible_open(spec, [*xv, ys]), ys.shape)]

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


# ---------------------------------------------------------------------------
# Calculus-rule verifiers


@dataclass
class RuleReport:
    rule: str
    holds: bool
    margin: float
    detail: dict


def _directed_union_margin(a: PolytopeUnion, b: PolytopeUnion) -> float:
    pts = np.vstack([part.sample_points() for part in a.parts])
    dists = np.min([point_to_polytope_distances(pts, q) for q in b.parts], axis=0)
    return float(dists.max(initial=0.0))


def verify_sum_rule(
    summands: Sequence[ex.FunctionDef | SetSpec],
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> RuleReport:
    """Check the basic and singular subdifferential sum rules.

    The first summand may be an indicator (SetSpec); the rest must be
    functions of the class (automatically Lipschitz).  Margins are
    directed Hausdorff distances of the left side into the right side.
    """
    p = np.asarray(x, dtype=float)
    first = summands[0]
    rest = list(summands[1:])
    if isinstance(first, SetSpec):
        return _verify_indicator_sum_rule(first, rest, p, params)
    fns = [first] + rest
    total = ex.fsum(*fns)
    lhs = basic_subdifferential(total, p, params)
    rhs = basic_subdifferential(fns[0], p, params)
    for g in fns[1:]:
        rhs = union_minkowski_sum(rhs, basic_subdifferential(g, p, params))
    margin = _directed_union_margin(lhs, rhs)
    back = _directed_union_margin(rhs, lhs)
    return RuleReport(
        rule="sum",
        holds=margin <= 1e-6,
        margin=margin,
        detail={
            "equality_margin": max(margin, back),
            "singular_sides_equal": True,  # both {0} for the Lipschitz class
        },
    )


def _verify_indicator_sum_rule(
    omega: SetSpec, fns: list[ex.FunctionDef], p: np.ndarray, params: SampleParams
) -> RuleReport:
    if omega.kind != "sublevel":
        raise SubdiffError("indicator sum rule needs a sublevel spec")
    total = ex.fsum(*fns) if len(fns) > 1 else fns[0]
    dim = total.space.dim
    # left side: subdifferential of (indicator + f) through its epigraph
    epi_names = total.space.names + ("_epi",)
    product = ex.VarSpace(epi_names)
    lifted = [ex.lift_to_product(g, product, 0) for g in omega.functions]
    t = ex.FunctionDef(product, ex.var(dim))
    lifted.append(ex.fsub(ex.lift_to_product(total, product, 0), t))
    epi_spec = SetSpec("graph", tuple(lifted), block_dims=(dim, 1))
    epi_point = np.concatenate([p, [ex.evaluate(total, p)]])
    lhs = coderivative(epi_spec, epi_point, np.array([1.0]), params)
    lhs_zero = coderivative(epi_spec, epi_point, np.array([0.0]), params)
    # right side: N(p; omega) + basic subdifferential of f
    ncone = normal_cone(omega, p, params)
    fsub_union = basic_subdifferential(total, p, params)
    worst = 0.0
    holds = True
    for comp in lhs:
        member_somewhere = []
        for v in comp.base.vertices:
            found = math.inf
            for cone in ncone.parts:
                for part in fsub_union.parts:
                    out = minkowski_membership(v, part, cones=[cone])
                    if isinstance(out, Membership):
                        found = 0.0
                        break
                    found = min(found, out.margin)
                if found == 0.0:
                    break
            member_somewhere.append(found)
        worst = max(worst, max(member_somewhere))
        for g in comp.recession.generators:
            if not any(cone.contains(g) for cone in ncone.parts):
                holds = False
    holds = holds and worst <= 1e-6
    # singular side: slice at 0 must equal N(p; omega)
    sing_ok = True
    for comp in lhs_zero:
        cone_from_slice = ConeSpec(
            dim,
            np.vstack([comp.recession.generators, comp.base.vertices]),
            comp.recession.lineality,
        ).canonicalize()
        if not any(cones_equal(cone_from_slice, c) for c in ncone.parts):
            sing_ok = False
    return RuleReport(
        rule="sum-indicator",
        holds=holds and sing_ok,
        margin=worst,
        detail={"singular_sides_equal": sing_ok},
    )


def verify_intersection_rule(
    sets: Sequence[SetSpec],
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> RuleReport:
    """Normal-cone intersection rule with its qualification condition.

    The condition is tested by LP: some choice of normals x_i from the
    per-set cones sums to zero with one block forced away from zero.  On
    failure the report carries the witness multipliers; otherwise each
    generator of the intersection's cone is checked for membership in the
    sum of the per-set cones.
    """
    p = np.asarray(x, dtype=float)
    if len(sets) == 1:
        return RuleReport("intersection", True, 0.0, {"degenerate_single_set": True})
    for s in sets:
        if not set_membership(s, p):
            raise SubdiffError("point must lie in every set")
    cones_per_set = [normal_cone(s, p, params).parts for s in sets]
    dim = p.shape[0]

    for combo in itertools.product(*cones_per_set):
        witness = _qc_violation_witness(combo, dim)
        if witness is not None:
            return RuleReport(
                "intersection",
                False,
                math.inf,
                {"qualification_violated": True, "witness_multipliers": witness},
            )

    merged = SetSpec.sublevel(
        tuple(f for s in sets for f in s.constraint_functions())
    )
    left = normal_cone(merged, p, params)
    worst = 0.0
    for part in left.parts:
        targets = [g for g in part.generators]
        targets += [l for l in part.lineality] + [-l for l in part.lineality]
        for g in targets:
            best = math.inf
            for combo in itertools.product(*cones_per_set):
                out = minkowski_membership(
                    np.asarray(g), Polytope.singleton(np.zeros(dim)), cones=list(combo)
                )
                if isinstance(out, Membership):
                    best = 0.0
                    break
                best = min(best, out.margin)
            worst = max(worst, best)
    return RuleReport(
        "intersection",
        worst <= 1e-6,
        worst,
        {"qualification_violated": False},
    )


def _qc_violation_witness(cones: Sequence[ConeSpec], dim: int) -> list[float] | None:
    """Normals, one per cone, that sum to zero while some coordinate of one
    of them is at least 1 in absolute value: one LP per block, coordinate
    and sign over the cone blocks widened by that ">= 1" coordinate, made
    an equality by a free surplus column -e_dim after them.  Returns the
    blocks' weight sums scaled to a largest entry of 1, or None when the
    qualification condition holds."""
    col_blocks = [c.translate_columns() for c in cones]
    target = np.concatenate([np.zeros(dim), [1.0]])
    surplus = (-np.eye(dim + 1)[dim:], "free")
    for j, block in enumerate(col_blocks):
        if block.shape[0] == 0:
            continue
        for k in range(dim):
            for sign in (1.0, -1.0):
                extra = [np.zeros(len(b)) for b in col_blocks]
                extra[j] = sign * block[:, k]
                widened = [(np.column_stack(pair), "cone") for pair in zip(col_blocks, extra)]
                z = lp_weights(target, widened + [surplus], "the qualification check")
                if not isinstance(z, float):
                    lams = [float(w.sum()) for w in z[:-1]]
                    top = max(lams)
                    return [l / top for l in lams]
    return None


def verify_difference_rule(
    f1: ex.FunctionDef,
    f2: ex.FunctionDef,
    x: Sequence[float],
    claimed_local_minimizer: bool = False,
    params: SampleParams = DEFAULT_PARAMS,
) -> RuleReport:
    """Difference rule for regular subgradients, checked at vertices
    (sufficient by convexity of the sets involved), and the minimizer
    necessary condition that the second regular subdifferential be
    contained in the first; a claimed local minimizer that breaks it is
    reported as refuted."""
    p = np.asarray(x, dtype=float)
    r1 = regular_subdifferential(f1, p, params)
    r2 = regular_subdifferential(f2, p, params)
    if r2 is None:
        return RuleReport(
            "difference", True, 0.0, {"vacuous": "second regular subdifferential empty"}
        )
    lhs = regular_subdifferential(ex.fsub(f1, f2), p, params)
    worst = 0.0
    if lhs is not None:
        if r1 is None:
            worst = math.inf
        else:
            for v in r2.vertices:
                shifted = r1.translate(-v)
                for u in lhs.vertices:
                    out = minkowski_membership(u, shifted)
                    if isinstance(out, NotMember):
                        worst = max(worst, out.margin)
    detail: dict = {}
    containment = 0.0
    if r1 is None:
        containment = math.inf
    else:
        for v in r2.vertices:
            out = minkowski_membership(v, r1)
            if isinstance(out, NotMember):
                containment = max(containment, out.margin)
    detail["minimizer_condition_margin"] = containment
    detail["minimizer_condition_holds"] = containment <= 1e-6
    if claimed_local_minimizer and containment > 1e-6:
        detail["claim_refuted"] = True
    return RuleReport("difference", worst <= 1e-6, worst, detail)


# ---------------------------------------------------------------------------
# Extremal principle solver


@dataclass
class ExtremalTrace:
    ks: list[int]
    iterates: list[np.ndarray]
    gammas: list[float]
    normals: list[list[np.ndarray]]  # per k, per set
    euler_residuals: list[float]  # | sum_i v_ik |
    stationarity_residuals: list[float]  # | sum_i v_ik + 2 (x_k - x_ref) |
    normalization_errors: list[float]


def _shift_at(shift, k: int) -> np.ndarray:
    if callable(shift):
        return np.asarray(shift(k), dtype=float)
    return np.asarray(shift, dtype=float) / k


def _face_minimizer(
    faces: Sequence[tuple[np.ndarray, np.ndarray]], a: Sequence[np.ndarray], x_ref: np.ndarray
) -> np.ndarray:
    """Minimizer of |r(z)| + |z - x_ref|^2, where r stacks the residuals
    r_i(z) = M_i (z + a_i) - c_i to one face (M_i, c_i) per set.

    Stationarity gives z(gamma) = x_ref - (S + 2 gamma I)^-1 sum_i r_i(x_ref)
    with S = sum_i M_i and gamma = |r(z(gamma))|.  With S = Q diag(lam) Q^T
    over the eigenvalues above EIG_TOL (z stays at x_ref along the others),
    w = Q^T sum_i r_i(x_ref) and g the least value of |r|^2,
    |r(z(gamma))|^2 = g + 4 gamma^2 sum_j w_j^2 / (lam_j (lam_j + 2 gamma)^2),
    so gamma is the one root of the convex decreasing
    psi(gamma) = g / gamma^2 + sum_j 4 w_j^2 / (lam_j (lam_j + 2 gamma)^2) - 1,
    found by Newton steps from a point left of it; psi <= 0 from the start
    means the residual vanishes at the minimizer (gamma = 0)."""
    S = sum(M for M, _ in faces)
    R = [M @ (x_ref + ai) - c for (M, c), ai in zip(faces, a)]
    lam, Q = np.linalg.eigh(S)
    keep = lam > EIG_TOL
    lam, Q = lam[keep], Q[:, keep]
    w = Q.T @ sum(R)
    z0 = Q @ (w / lam)  # x_ref - z0 is the least-residual point nearest x_ref
    root_g = math.sqrt(sum(float(np.dot(r - M @ z0, r - M @ z0)) for (M, _), r in zip(faces, R)))
    # a least residual at rounding level is zero: where psi(0+) is near 0 its
    # noise would move the root by up to sqrt(noise)
    size = math.sqrt(sum(float(np.dot(r, r)) for r in R)) + float(np.linalg.norm(z0))
    if root_g <= RESIDUAL_TOL * size:
        root_g = 0.0
    w2 = w * w
    # psi >= 0 where g / gamma^2 or any one term reaches 1: left of the root
    gamma = max(root_g, float(np.max(np.abs(w) / np.sqrt(lam) - lam / 2, initial=0.0)))
    for _ in range(MAX_ROOT_STEPS):
        d = lam + 2 * gamma
        terms = 4 * w2 / (lam * d * d)
        psi = float(terms.sum()) - 1
        dpsi = -4 * float((terms / d).sum())
        if root_g > 0:  # then gamma >= root_g > 0
            g_term = (root_g / gamma) ** 2
            psi += g_term
            dpsi -= 2 * g_term / gamma
        if psi <= 0:
            break
        nxt = gamma - psi / dpsi
        if not nxt > gamma:
            break
        gamma = nxt
    return x_ref - Q @ (w / (lam + 2 * gamma))


def extremal_principle_solve(
    sets: Sequence[SetSpec],
    x: Sequence[float],
    shifts: Sequence,
    ks: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
) -> ExtremalTrace:
    """Constructive extremal-principle scheme.

    For each k the shifted objective sqrt(sum_i d^2(z + a_i, Omega_i)) +
    |z - x|^2, strictly convex for polyhedra, singletons and products of
    those, is minimized exactly: for every combination of one face per set
    the face-restricted minimizer comes from ``_face_minimizer``, and the one
    with the least true objective is kept (the minimizer's own faces
    reproduce it).  More than MAX_BRANCH_COMBOS face combinations are
    refused with ``CombinatorialOverflow``.  The scheme fails with a
    diagnostic when the distance term vanishes (the shifts then do not
    witness extremality at this resolution).

    A shift entry is either a base vector (schedule base/k) or a callable
    k -> vector.  euler_residuals records |sum_i v_ik|, the distance to
    the limiting Euler equation; stationarity_residuals records the Fermat
    residual of the inner minimization, a KKT certificate at rounding level.
    """
    if len(sets) < 2:
        raise SubdiffError("extremal systems need at least two sets")
    if len(shifts) != len(sets):
        raise SubdiffError("one shift sequence per set required")
    x_ref = np.asarray(x, dtype=float)
    for s in sets:
        if not set_membership(s, x_ref):
            raise SubdiffError("reference point must lie in every set")
    # counted before any face is built: the product can be huge
    counts = [_face_count(s) for s in sets]
    combos = math.prod(counts)
    if combos > MAX_BRANCH_COMBOS:
        raise CombinatorialOverflow(
            f"{' x '.join(map(str, counts))} = {combos} face combinations "
            f"exceed the cap {MAX_BRANCH_COMBOS}"
        )

    trace = ExtremalTrace([], [], [], [], [], [], [])
    for k in ks:
        a = [_shift_at(sh, k) for sh in shifts]
        best = None
        for faces in itertools.product(*(s.faces for s in sets)):
            z = _face_minimizer(faces, a, x_ref)
            ws = [project_onto(s, z + ai) for s, ai in zip(sets, a)]
            g = math.sqrt(sum(float(np.dot(z + ai - w, z + ai - w)) for ai, w in zip(a, ws)))
            val = g + float(np.dot(z - x_ref, z - x_ref))
            if best is None or val < best[0]:
                best = (val, z, g, ws)
        _, xk, gamma, ws = best

        scale = max(np.linalg.norm(ai) for ai in a)
        if gamma <= 1e-12 * (1 + scale):
            raise ExtremalityNotWitnessed(k)
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
# Epigraph consistency


@dataclass
class EpigraphReport:
    basic_discrepancy: float
    singular_consistent: bool
    basic_direct: PolytopeUnion
    basic_via_epigraph: PolytopeUnion


def epigraph_consistency_check(
    f: ex.FunctionDef,
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> EpigraphReport:
    """Compare the direct subdifferentials with the epigraph/coderivative
    route: slicing the epigraph normal cone at height one must reproduce
    the basic subdifferential, and at height zero the singular one."""
    p = ex.as_point(f.space, x)
    direct = basic_subdifferential(f, p, params)
    spec = SetSpec.epigraph(f)
    q = np.concatenate([p, [ex.evaluate(f, p)]])
    slices = coderivative(spec, q, np.array([1.0]), params)
    parts = []
    for comp in slices:
        if not comp.recession.is_zero():
            raise SubdiffError("epigraph slice unbounded for a Lipschitz function")
        parts.append(comp.base)
    via = PolytopeUnion.create(parts)
    zero_slices = coderivative(spec, q, np.array([0.0]), params)
    singular_ok = all(c.is_zero_only() for c in zero_slices)
    return EpigraphReport(
        basic_discrepancy=hausdorff_distance(direct, via),
        singular_consistent=singular_ok,
        basic_direct=direct,
        basic_via_epigraph=via,
    )
