"""Generalized-differentiation objects for the expression class.

Symbolic route: at a candidate point the active piecewise branches are
enumerated; pure max-type kinks give the hull of active branch gradients,
concave-type kinks clip that hull with Richardson difference-quotient
halfspaces along sampled and, in two variables, kink directions.  Limiting
(basic) subdifferentials union the contributions of every branch pattern
realizable on the sample grid near the point.

Numeric route: sampling oracles built directly from the limiting
definitions (epsilon-enlarged regular subgradients, projection residual
directions).  Both routes are deterministic for a fixed seed, so symbolic
results are cross-checkable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple, Sequence

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
    _planar_ring,
    cones_equal,
    convex_hull,
    clip_polytope,
    directions,
    directed_distance,
    hausdorff_distance,
    lp_weights,
    minkowski_membership,
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
# largest dirs_per_radius the samplers accept, 16 times the default: the
# oracles hold (dirs x stencil x dim) arrays
MAX_DIRS_PER_RADIUS = 4096
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


class EmptyBasicSubdifferential(SubdiffError):
    """The basic subdifferential of a locally Lipschitz function is never
    empty, so an empty one is a failure of the calculus, not of the input."""


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
        if self.dirs_per_radius > MAX_DIRS_PER_RADIUS:
            raise SubdiffError(f"dirs_per_radius must be at most {MAX_DIRS_PER_RADIUS}")
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
    """A set given as inequalities, as the graph of a constraint map (an
    epigraph among them) or as a singleton: a graph spec carries the
    (x-block, y-block) split of its product space in block_dims, a
    singleton its point.  A spec built from constraints needs at least
    one, all in one space, and a graph's block_dims must split that space;
    its polyhedron is read from the constraints once."""

    functions: tuple[ex.FunctionDef, ...] = ()
    point: np.ndarray | None = None
    block_dims: tuple[int, int] | None = None

    def __post_init__(self):
        if self.point is not None:
            return
        fns = tuple(self.functions)
        object.__setattr__(self, "functions", fns)
        kind = "sublevel" if self.block_dims is None else "graph"
        if not fns:
            raise SubdiffError(f"{kind} spec needs at least one constraint")
        if any(f.space != fns[0].space for f in fns):
            raise DimensionError(f"{kind} constraints live in different spaces")
        if self.block_dims is not None and sum(self.block_dims) != self.dim:
            raise DimensionError("graph constraints must live in the product space")

    @property
    def dim(self) -> int:
        if self.point is not None:
            return self.point.shape[0]
        return self.functions[0].space.dim

    @staticmethod
    def sublevel(functions: Sequence[ex.FunctionDef]) -> "SetSpec":
        return SetSpec(functions)

    @staticmethod
    def graph(functions: Sequence[ex.FunctionDef], x_dim: int, y_dim: int) -> "SetSpec":
        return SetSpec(functions, block_dims=(x_dim, y_dim))

    @staticmethod
    def epigraph(f: ex.FunctionDef) -> "SetSpec":
        product = ex.VarSpace(f.space.names + ("_epi",))
        lifted = ex.lift_to_product(f, product, 0)
        t = ex.FunctionDef(product, ex.var(f.space.dim))
        return SetSpec.graph((ex.fsub(lifted, t),), f.space.dim, 1)  # f(x) - t <= 0

    @staticmethod
    def singleton(point: Sequence[float]) -> "SetSpec":
        return SetSpec(point=np.asarray(point, dtype=float))

    def as_point(self, point: Sequence[float]) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            raise DimensionError(f"point of shape {p.shape} does not match the set's dim {self.dim}")
        return p

    def constraint_functions(self) -> tuple[ex.FunctionDef, ...]:
        if self.point is None:
            return self.functions
        raise SubdiffError("singleton spec has no constraint functions")

    @cached_property
    def polyhedron(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(A, b) with the set equal to {x : Ax <= b} when every constraint
        is affine, else None; None for a singleton."""
        parts = [ex.affine_parts(f) for f in self.functions]
        if self.point is not None or None in parts:
            return None
        return np.array([w for w, _ in parts]), np.array([-c for _, c in parts])

    @cached_property
    def faces(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(M, c, L) for every face, in a fixed order, such that p - (M p - c)
        projects p onto the face's affine hull and L takes the residual
        M p - c to the multipliers of the face's rows.  A polyhedron
        {Ax <= b} has its interior (0, 0, no rows) first, then for each
        subset As of at most dim rows M = pinv(As) @ As, the projector onto
        their span, c = pinv(As) @ bs and L = pinv(As)^T; a singleton has
        the one face (I, point, no rows).  Raises ProjectionUnavailable for
        non-affine constraints."""
        dim = self.dim
        if self.point is not None:
            return [(np.eye(dim), self.point, np.zeros((0, dim)))]
        A, b = _polyhedron(self)
        m = A.shape[0]
        out = [(np.zeros((dim, dim)), np.zeros(dim), np.zeros((0, dim)))]
        for size in range(1, min(m, dim) + 1):
            for subset in itertools.combinations(range(m), size):
                rows = list(subset)
                P = np.linalg.pinv(A[rows])
                out.append((P @ A[rows], P @ b[rows], P.T))
        return out


def set_membership(spec: SetSpec, point: Sequence[float]) -> bool:
    p = spec.as_point(point)
    if spec.point is not None:
        return bool(np.linalg.norm(p - spec.point) <= TOL_GEOM)
    return all(ex.evaluate(f, p) <= TOL_GEOM for f in spec.functions)


def feasible_open(spec: SetSpec, cols: Sequence[np.ndarray], tol: float = TOL_GEOM) -> np.ndarray:
    """Set membership, at tolerance tol, of the points given as one
    broadcastable array per coordinate, such as an open grid (see
    ``ex.eval_open``) or the columns of a (points, dim) array.  The mask
    has the broadcast shape of the arrays the set's functions read."""
    if spec.point is not None:
        # the sum and square root np.linalg.norm takes along a row
        return np.sqrt(sum((c - v) ** 2 for c, v in zip(cols, spec.point))) <= tol
    mask = np.True_
    for f in spec.functions:
        mask = mask & (ex.eval_open(f, cols) <= tol)
    return mask


class ProjectionUnavailable(SubdiffError):
    pass


def _polyhedron(spec: SetSpec) -> tuple[np.ndarray, np.ndarray]:
    system = spec.polyhedron
    if system is None:
        raise ProjectionUnavailable(
            "exact projection needs affine constraints; use the sampled oracle"
        )
    return system


def _face_count(spec: SetSpec) -> int:
    """len(spec.faces), without building any face."""
    if spec.point is not None:
        return 1
    m, dim = _polyhedron(spec)[0].shape
    return sum(math.comb(m, size) for size in range(min(m, dim) + 1))


def project_onto(spec: SetSpec, point: Sequence[float]) -> np.ndarray:
    """Exact Euclidean projection for polyhedral specs and singletons: the
    nearest projection onto a face's affine hull that satisfies the KKT
    conditions, that is lies in the set and has nonnegative multipliers,
    both up to a tolerance relative to the size of the data.  Non-polyhedral sets have no closed-form projector here;
    callers needing one should use the grid-based oracle."""
    p = spec.as_point(point)
    if spec.point is not None:
        return spec.point.copy()
    A, b = _polyhedron(spec)
    tol = 1e-12 * max(1.0, float(np.abs(b).max()), float(np.abs(A).max() * np.abs(p).max()))
    if np.all(A @ p <= b + tol):
        return p.copy()
    best = None
    best_d = math.inf
    # the interior face fails the in-set test that failed above
    for M, c, L in spec.faces:
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


def _combo_data(f: ex.FunctionDef, x: np.ndarray, pattern: ex.Branches):
    """Each allowed branch selection's gradient at x and node sensitivities."""
    # counted before any combination is built: the product can be huge
    check_combinations([len(act) for act in pattern.values()], "the pattern's branch gradients")
    grads, contexts = zip(*(ex.gradient_and_contexts(f, x, sel) for sel in ex.branch_combinations(pattern)))
    return np.array(grads), contexts


def _pattern_is_max_like(pattern: ex.Branches, f: ex.FunctionDef, contexts) -> bool:
    """True when every tied piecewise node carries a sign making the kink
    convex: max nodes with nonnegative sensitivity, min nodes with
    nonpositive sensitivity, both within 1e-9."""
    sign = {"max": 1.0, "abs": 1.0, "min": -1.0}
    return not any(
        sign[f.tape[f.piecewise[path]].kind] * ctx.get(path, 0.0) < -1e-9
        for path, act in pattern.items()
        if len(act) > 1
        for ctx in contexts
    )


def _kink_directions(grads: np.ndarray) -> np.ndarray:
    """In two variables, the unit directions where two selections' slopes
    agree: each difference of two distinct gradients turned by 90 degrees,
    both signs from a pair's two orders, within the combination cap."""
    distinct = np.unique(grads, axis=0)
    check_combinations([len(distinct), len(distinct) - 1], "the gradient pairs of the kink directions")
    i, j = np.nonzero(~np.eye(len(distinct), dtype=bool))
    diff = distinct[i] - distinct[j]
    d = np.stack([-diff[:, 1], diff[:, 0]], axis=1)
    return d / np.sqrt(np.vecdot(d, d))[:, None]


def _regular(
    f: ex.FunctionDef, p: np.ndarray, params: SampleParams, branches: ex.Branches | None = None
) -> tuple[Polytope | None, bool]:
    """``regular_subdifferential`` at the point p of f restricted to the
    branches if given, and whether p's pattern is max-like (the hull of
    active branch gradients is then the answer, unclipped); the clip
    reads the function p's pattern leaves."""
    pattern = ex.active_pattern(f, p, params.tau_act, branches)
    grads, contexts = _combo_data(f, p, pattern)
    candidate = convex_hull(grads)
    if _pattern_is_max_like(pattern, f, contexts):
        return candidate, True
    r = params.radii[-1]
    dirs = params.directions(f.space.dim)
    if f.space.dim == 2:
        dirs = np.vstack([dirs, _kink_directions(grads)])
    rise = ex.eval_batch(f, p + np.vstack([r * dirs, r / 2 * dirs]), pattern) - ex.evaluate(f, p, pattern)
    far, near = np.split(rise, 2)
    return clip_polytope(candidate, dirs, (4 * near - far) / r + r / 10), False


def regular_subdifferential(
    f: ex.FunctionDef,
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> Polytope | None:
    """Regular subdifferential at x; None encodes the empty set.

    Pure max-type patterns give the hull of active branch gradients
    directly.  Patterns with concave-type ties clip that candidate hull
    with <v, d> <= 2 q(r/2) - q(r) + r/10, r the smallest radius and
    q(h) = (f(x + h d) - f(x)) / h for f restricted to x's active pattern,
    a Richardson quotient free of q's O(r) term, along sampled and, in two
    variables, kink directions.
    """
    return _regular(f, ex.as_point(f.space, x), params)[0]


# ---------------------------------------------------------------------------
# Basic (limiting) subdifferential


def _realizable_patterns(
    f: ex.FunctionDef, p: np.ndarray, params: SampleParams
) -> tuple[list[ex.Branches], list[dict]]:
    """Patterns seen on the sample grid around p, plus p's own pattern:
    p's own first, then those realized at the smallest radius in order of
    first occurrence there.

    Only patterns realized at the smallest radius (or at p itself) feed
    the limiting union; the full census is kept for audit, one entry per
    pattern, sorted by its "pattern" (the repr of its items).  Thin
    patterns that no sampled ray enters can be missed, which is why
    results carry the census.

    One active_patterns call covers p and every radius's sample points,
    stacked in that order, so p's pattern is the first one found and the
    rows of the smallest radius come last.
    """
    dirs = params.directions(f.space.dim)
    pts = np.vstack([p[None, :], *(p + r * dirs for r in params.radii)])
    patterns, inverse = ex.active_patterns(f, pts, params.tau_act)
    smallest = inverse[-len(dirs) :]
    _, first = np.unique(smallest, return_index=True)
    chosen = dict.fromkeys([0, *smallest[np.sort(first)].tolist()])
    census = [
        {"pattern": repr(tuple(pat.items())), "count": count, "at_smallest_radius": k in chosen}
        for k, (pat, count) in enumerate(zip(patterns, np.bincount(inverse).tolist()))
    ]
    return [patterns[k] for k in chosen], sorted(census, key=lambda e: e["pattern"])


def _census_pieces(
    f: ex.FunctionDef, p: np.ndarray, params: SampleParams
) -> tuple[PolytopeUnion, tuple[Polytope | None, bool], list[dict]]:
    """The basic subdifferential at p, the census and p's own regular
    piece with whether its pattern is max-like: one ``_regular`` per
    realizable pattern, p's own first."""
    patterns, census = _realizable_patterns(f, p, params)
    pieces = [_regular(f, p, params, pat) for pat in patterns]
    parts = [piece for piece, _ in pieces if piece is not None]
    if not parts:
        raise EmptyBasicSubdifferential("no realizable pattern produced a subgradient set")
    return PolytopeUnion(parts), pieces[0], census


def basic_subdifferential(
    f: ex.FunctionDef,
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> PolytopeUnion:
    return _census_pieces(f, ex.as_point(f.space, x), params)[0]


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
    basic, (regular, max_like), census = _census_pieces(f, p, params)
    return SubdiffResult(
        regular=regular,
        basic=basic,
        singular=singular_subdifferential(f, p),
        method="symbolic" if max_like else "sampled",
        witnesses={"pattern_census": census},
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

    One pass serves every radius and the fill: one active_patterns call
    over x and every radius's base points, one branch_gradients call per
    smooth pattern and one eval_batch over every base, stencil and fill
    point.  The acceptance test still runs once per radius, on that
    radius's slice.
    """
    p = ex.as_point(f.space, x)
    dim = f.space.dim
    radii = np.array(params.radii)
    stencil_dirs = directions(dim, max(8, min(32, params.dirs_per_radius // 8)), params.seed + 1)

    # us[level, di] = p + radii[level] * dirs[di], after x itself in the
    # pattern pass, so that x's pattern is the first one found
    us = p + radii[:, None, None] * params.directions(dim)
    flat = us.reshape(-1, dim)
    patterns, inverse = ex.active_patterns(f, np.vstack([p[None, :], flat]), params.tau_act)
    inverse = inverse[1:]
    smooth = np.array([all(len(act) == 1 for act in pat.values()) for pat in patterns])
    grads = np.zeros_like(flat)
    for k in np.flatnonzero(smooth).tolist():
        rows = inverse == k
        if rows.any():
            grads[rows] = ex.branch_gradients(f, flat[rows], patterns[k])[0]
    grads = grads.reshape(us.shape)
    # stencils[level, di] = [u + rr * s for rr in (r / 32, r / 64) for s in stencil_dirs]
    # with u = us[level, di] and r = radii[level]
    rho = radii[:, None] / [32, 64]
    stencils = us[:, :, None, :] + (rho[:, :, None, None] * stencil_dirs).reshape(len(radii), 1, -1, dim)
    fill_stencil = (p + radii[:, None, None] * stencil_dirs).reshape(-1, dim)
    values = ex.eval_batch(f, np.vstack([flat, stencils.reshape(-1, dim), p[None, :], fill_stencil]))
    f_us = values[: len(flat)].reshape(us.shape[:2])
    f_stencils = values[len(flat) : -1 - len(fill_stencil)].reshape(stencils.shape[:3])
    f_fill = values[-1 - len(fill_stencil) :]

    accepted: dict[int, dict[int, np.ndarray]] = {}
    raw: list[np.ndarray] = []
    tried_rows = smooth[inverse].reshape(us.shape[:2])
    for level, r in enumerate(params.radii):
        tried = np.flatnonzero(tried_rows[level])
        ok = _accepts(
            us[level, tried], f_us[level, tried], grads[level, tried, None, :],
            stencils[level, tried], f_stencils[level, tried], r / 10,
        )[:, 0]
        for di in tried[ok].tolist():
            accepted.setdefault(di, {})[level] = grads[level, di]
            raw.append(grads[level, di])

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
    hull = convex_hull(_combo_data(f, p, patterns[0])[0])
    fill = _barycentric_fill(hull, FILL_SPACING)
    eps_fill = params.radii[0] / 10
    keep = _accepts(p[None], f_fill[:1], fill[None], fill_stencil[None], f_fill[None, 1:], eps_fill)[0]
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
    ring = V[_planar_ring(V.tolist())]
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
    """A union of cones that keeps the first of any parts cones_equal pairs."""

    parts: tuple[ConeSpec, ...]
    qualification: str  # "polyhedral-exact" | "verified" | "trivial"
    active: tuple[int, ...]

    def __post_init__(self):
        kept: list[ConeSpec] = []
        for c in self.parts:
            if not any(cones_equal(c, q) for q in kept):
                kept.append(c)
        self.parts = tuple(kept)

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


def check_combinations(counts: Sequence[int], search: str) -> None:
    """Refuse a search over one branch per factor, given each factor's
    branch count, before it enumerates anything: more than
    MAX_BRANCH_COMBOS combinations overflow."""
    total = math.prod(counts)
    if total > MAX_BRANCH_COMBOS:
        raise CombinatorialOverflow(
            f"{' x '.join(map(str, counts))} = {total} branch combinations in {search} "
            f"exceed the cap {MAX_BRANCH_COMBOS}"
        )


class BranchSearch(NamedTuple):
    hit: object
    margin: float
    combo: tuple[int, ...]
    tried: int


def branch_search(counts: Sequence[int], search: str, attempt) -> BranchSearch:
    """Try one branch per factor, factor i having counts[i] branches, in
    ``itertools.product`` order, after ``check_combinations``.
    ``attempt(combo)`` returns a float margin for a miss; anything else is
    a hit and ends the search.  Returns the hit or None, the least margin
    of the misses before it, the hit's combination or else the first one
    to reach the least margin (the first one tried when no margin is below
    its own, as when every margin is inf), and the number of combinations
    tried."""
    check_combinations(counts, search)
    margin, best = math.inf, ()
    for tried, combo in enumerate(itertools.product(*(range(c) for c in counts)), 1):
        out = attempt(combo)
        if not isinstance(out, float):
            return BranchSearch(out, margin, combo, tried)
        if tried == 1 or out < margin:
            margin, best = out, combo
    return BranchSearch(None, margin, best, math.prod(counts))


def qualification_witness(unions: Sequence[PolytopeUnion]) -> dict | None:
    """A vanishing nonzero nonnegative combination of one part per union
    (multipliers scaled to a largest entry of 1, and the chosen vectors),
    or None when the positive-combination qualification condition holds.
    One zero-combination LP per branch combination, in order."""
    if not unions:
        return None
    hit = branch_search(
        [len(u.parts) for u in unions],
        "the qualification check",
        lambda combo: zero_combination([u.parts[i] for u, i in zip(unions, combo)]),
    ).hit
    if hit is None:
        return None
    lams, vecs = hit
    return {
        "multipliers": (lams / float(lams.max())).tolist(),
        "vectors": [v.tolist() for v in vecs],
    }


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
    p = spec.as_point(x)
    if not set_membership(spec, p):
        raise SubdiffError("point not in the set")
    if spec.point is not None:
        lines = np.vstack([np.eye(spec.dim), -np.eye(spec.dim)])
        return NormalCone((ConeSpec(spec.dim, lines),), "trivial", ())
    fns = spec.constraint_functions()
    dim = spec.dim
    active = active_constraints(fns, p)
    if not active:
        return NormalCone((ConeSpec.zero(dim),), "trivial", ())

    if spec.polyhedron is not None:
        gens = spec.polyhedron[0][list(active)]
        return NormalCone((ConeSpec(dim, gens),), "polyhedral-exact", active)

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
    parts = (
        ConeSpec(dim, np.vstack([P.vertices for P in choice]))
        for choice in itertools.product(*(u.parts for u in subdiffs))
    )
    return NormalCone(parts, "verified", active)


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
    p = spec.as_point(x)
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
    recession cone."""

    base: Polytope
    recession: ConeSpec

    def is_zero_only(self) -> bool:
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
    ws: Sequence[Sequence[float]],
    params: SampleParams = DEFAULT_PARAMS,
) -> list[tuple[SlicedCone, ...]]:
    """Coderivative values {v : (v, -w) in N(point; gph F)} at every row w
    of ws, each a union of sliced cones of the one normal cone at the
    point; an empty tuple encodes the empty set."""
    if spec.block_dims is None:
        raise SubdiffError("coderivative needs a graph spec")
    n, m = spec.block_dims
    ws = np.asarray(ws, dtype=float)
    if ws.ndim != 2 or ws.shape[1] != m:
        raise DimensionError("coderivative argument has wrong dimension")
    cone_cols = [cone.generators for cone in normal_cone(spec, point, params).parts]
    out = []
    for w in ws:
        slices: list[SlicedCone] = []
        for cols in cone_cols:  # (K, n+m), nonneg coefficients
            if cols.shape[0] == 0:
                if np.linalg.norm(w) <= TOL_GEOM:
                    slices.append(SlicedCone(Polytope.singleton(np.zeros(n)), ConeSpec.zero(n)))
                continue
            B = cols[:, n:].T  # (m, K)
            A = cols[:, :n].T  # (n, K)
            vertices, rays = _nonneg_solutions(B, -w)
            if vertices.shape[0] == 0:
                continue
            base = convex_hull(vertices @ A.T)
            slices.append(SlicedCone(base, ConeSpec(n, rays @ A.T)))
        out.append(tuple(slices))
    return out


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
    (parts,) = coderivative(spec, point, np.zeros((1, m)), params)
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
    step = float(ys[1] - ys[0])

    def feasible_ys(xv: np.ndarray) -> np.ndarray:
        return ys[np.broadcast_to(feasible_open(spec, [*xv, ys]), ys.shape)]

    dirs = directions(n, max(4, 2 * n), params.seed)
    worst = 0.0
    for r in params.radii:
        for d1 in dirs:
            xa = xb + r * d1
            fa = feasible_ys(xa)
            fa = fa[np.abs(fa - yb[0]) <= v_radius]
            if fa.size == 0:
                continue
            for d2 in dirs:
                xu = xb + 0.5 * r * d2
                gap = float(np.linalg.norm(xa - xu))
                if gap < 1e-12:
                    continue
                fu = feasible_ys(xu)
                if fu.size == 0:
                    return False, math.inf
                # fu is sorted, so each a's nearest member is fu[i - 1] or
                # fu[i] with i its insertion index
                i = np.searchsorted(fu, fa)
                below = np.abs(fa - fu[np.maximum(i - 1, 0)])
                above = np.abs(fu[np.minimum(i, fu.size - 1)] - fa)
                dist = float(np.max(np.minimum(below, above)))
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
    margin = directed_distance(lhs, rhs)
    back = directed_distance(rhs, lhs)
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
    total = ex.fsum(*fns) if len(fns) > 1 else fns[0]
    dim = total.space.dim
    # left side: subdifferential of (indicator + f) through its epigraph
    (epi,) = SetSpec.epigraph(total).functions  # f(x) - t <= 0
    lifted = [ex.lift_to_product(g, epi.space, 0) for g in omega.constraint_functions()]
    epi_spec = SetSpec.graph(lifted + [epi], dim, 1)
    epi_point = np.concatenate([p, [ex.evaluate(total, p)]])
    lhs, lhs_zero = coderivative(epi_spec, epi_point, [[1.0], [0.0]], params)
    # right side: N(p; omega) + basic subdifferential of f
    ncone = normal_cone(omega, p, params)
    fsub_union = basic_subdifferential(total, p, params)
    counts = (len(ncone.parts), len(fsub_union.parts))
    choice = lambda combo: (fsub_union.parts[combo[1]], [ncone.parts[combo[0]]])
    worst = 0.0
    holds = True
    for comp in lhs:
        worst = max(worst, _worst_gap(comp.base.vertices, choice, counts, "the indicator sum rule"))
        for g in comp.recession.generators:
            if not any(cone.contains(g) for cone in ncone.parts):
                holds = False
    holds = holds and worst <= 1e-6
    # singular side: slice at 0 must equal N(p; omega)
    sing_ok = True
    for comp in lhs_zero:
        cone_from_slice = ConeSpec(dim, np.vstack([comp.recession.generators, comp.base.vertices]))
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

    The condition is tested by LP: it fails when some choice of normals
    x_i from the per-set cones sums to zero while one coordinate of one
    x_i is 1 or -1 (see _qc_violation_witness).  On
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
    counts = [len(parts) for parts in cones_per_set]
    dim = p.shape[0]

    def chosen(combo: tuple[int, ...]) -> list[ConeSpec]:
        return [parts[i] for parts, i in zip(cones_per_set, combo)]

    witness = branch_search(
        counts, "the intersection rule", lambda combo: _qc_violation_witness(chosen(combo), dim)
    ).hit
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
    targets = [g for part in left.parts for g in part.generators]
    choice = lambda combo: (Polytope.singleton(np.zeros(dim)), chosen(combo))
    worst = _worst_gap(targets, choice, counts, "the intersection rule")
    return RuleReport(
        "intersection",
        worst <= 1e-6,
        worst,
        {"qualification_violated": False},
    )


def _worst_gap(targets, choice, counts: Sequence[int], search: str) -> float:
    """The largest over the targets v of v's gap from base + sum of cones,
    with (base, cones) = choice(combo) for a branch combination: 0 when
    some combination holds v, else the least ``minkowski_membership``
    margin over them all."""

    def attempt(v: np.ndarray, combo: tuple[int, ...]) -> Membership | float:
        base, cones = choice(combo)
        out = minkowski_membership(v, base, cones=cones)
        return out.margin if isinstance(out, NotMember) else out

    found = [branch_search(counts, search, partial(attempt, v)) for v in targets]
    return max([0.0] + [f.margin for f in found if f.hit is None])


def _qc_violation_witness(cones: Sequence[ConeSpec], dim: int) -> list[float] | float:
    """Normals, one per cone, that sum to zero while some coordinate of one
    of them is 1 or -1: one LP per block, coordinate and sign over the cone
    blocks widened by that "= 1" coordinate.  Cone weights are unbounded,
    so the LP is homogeneous and "= 1" loses nothing over "at least 1".
    Returns the blocks' weight sums scaled to a largest entry of 1, or
    math.inf when the qualification condition holds."""
    col_blocks = [c.generators for c in cones]
    target = np.concatenate([np.zeros(dim), [1.0]])
    for j, block in enumerate(col_blocks):
        if block.shape[0] == 0:
            continue
        for k in range(dim):
            for sign in (1.0, -1.0):
                extra = [np.zeros(len(b)) for b in col_blocks]
                extra[j] = sign * block[:, k]
                widened = [(np.column_stack(pair), "free") for pair in zip(col_blocks, extra)]
                z = lp_weights(target, widened, "the qualification check")
                if not isinstance(z, float):
                    lams = [float(w.sum()) for w in z]
                    top = max(lams)
                    return [l / top for l in lams]
    return math.inf


def verify_difference_rule(
    f1: ex.FunctionDef,
    f2: ex.FunctionDef,
    x: Sequence[float],
    params: SampleParams = DEFAULT_PARAMS,
) -> RuleReport:
    """Difference rule for regular subgradients, checked at vertices
    (sufficient by convexity of the sets involved), and the minimizer
    necessary condition that the second regular subdifferential be
    contained in the first."""
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
    faces: Sequence[tuple[np.ndarray, ...]], a: Sequence[np.ndarray], x_ref: np.ndarray
) -> np.ndarray:
    """Minimizer of |r(z)| + |z - x_ref|^2, where r stacks the residuals
    r_i(z) = M_i (z + a_i) - c_i to one face (M_i, c_i, _) per set.

    Stationarity gives z(gamma) = x_ref - (S + 2 gamma I)^-1 sum_i r_i(x_ref)
    with S = sum_i M_i and gamma = |r(z(gamma))|.  With S = Q diag(lam) Q^T
    over the eigenvalues above EIG_TOL (z stays at x_ref along the others),
    w = Q^T sum_i r_i(x_ref) and g the least value of |r|^2,
    |r(z(gamma))|^2 = g + 4 gamma^2 sum_j w_j^2 / (lam_j (lam_j + 2 gamma)^2),
    so gamma is the one root of the convex decreasing
    psi(gamma) = g / gamma^2 + sum_j 4 w_j^2 / (lam_j (lam_j + 2 gamma)^2) - 1,
    found by Newton steps from a point left of it; psi <= 0 from the start
    means the residual vanishes at the minimizer (gamma = 0)."""
    S = sum(M for M, _, _ in faces)
    R = [M @ (x_ref + ai) - c for (M, c, _), ai in zip(faces, a)]
    lam, Q = np.linalg.eigh(S)
    keep = lam > EIG_TOL
    lam, Q = lam[keep], Q[:, keep]
    w = Q.T @ sum(R)
    z0 = Q @ (w / lam)  # x_ref - z0 is the least-residual point nearest x_ref
    root_g = math.sqrt(sum(float(np.dot(r - M @ z0, r - M @ z0)) for (M, _, _), r in zip(faces, R)))
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
    |z - x|^2, strictly convex for polyhedra and singletons, is minimized
    exactly: for every combination of one face per set the face-restricted
    minimizer comes from ``_face_minimizer``, and the first one with the
    least true objective is kept (the minimizer's own faces reproduce it).
    ``branch_search`` refuses more than MAX_BRANCH_COMBOS face combinations
    with ``CombinatorialOverflow``.  The scheme fails with a
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

    trace = ExtremalTrace([], [], [], [], [], [], [])
    for k in ks:
        a = [_shift_at(sh, k) for sh in shifts]
        # each face combination's minimizer, distance term and projections,
        # kept so that the kept one's projections are not run twice
        solved: dict[tuple[int, ...], tuple[np.ndarray, float, list[np.ndarray]]] = {}

        def objective(combo: tuple[int, ...]) -> float:
            z = _face_minimizer([s.faces[i] for s, i in zip(sets, combo)], a, x_ref)
            ws = [project_onto(s, z + ai) for s, ai in zip(sets, a)]
            g = math.sqrt(sum(float(np.dot(z + ai - w, z + ai - w)) for ai, w in zip(a, ws)))
            solved[combo] = z, g, ws
            return g + float(np.dot(z - x_ref, z - x_ref))

        xk, gamma, ws = solved[branch_search(counts, "the extremal face search", objective).combo]

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
    slices, zero_slices = coderivative(spec, q, [[1.0], [0.0]], params)
    parts = []
    for comp in slices:
        if not comp.recession.is_zero():
            raise SubdiffError("epigraph slice unbounded for a Lipschitz function")
        parts.append(comp.base)
    via = PolytopeUnion(parts)
    singular_ok = all(c.is_zero_only() for c in zero_slices)
    return EpigraphReport(
        basic_discrepancy=hausdorff_distance(direct, via),
        singular_consistent=singular_ok,
        basic_direct=direct,
        basic_via_epigraph=via,
    )
