"""Small-dimension convex geometry in vertex representation.

Polytopes are stored as lists of vertices (V-representation); halfspace
data only appears transiently inside LP constraints.  All geometry is
floating point, with TOL_GEOM = 1e-8 for canonicalization.  Hulls and
memberships are exact planar geometry at TOL_GEOM in one and two
dimensions, and hull LPs in three and four.  A Polytope or ConeSpec is
canonical once built: its constructor keeps only the extreme vertices or
the irredundant unit generators, sorted, so a PolytopeUnion and
cones_equal trust the parts they are given and re-hull nothing; a
PolytopeUnion in turn keeps only parts that no other part contains.  An LP
is feasible when its phase-1 objective is at most 10 * TOL_LP *
(1 + max|b|) (TOL_LP = 1e-9, b the right-hand side) and the assignment
found then satisfies every row and sign constraint to within
TOL_ASSIGN = 1e-7.  Every membership and multiplier LP solves A z = b,
z >= 0 with no bounded variable, and is assembled by lp_weights from
blocks of rows with "convex" (summing to one) or "free" (only
nonnegative) weights; cone weights are free weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

TOL_LP = 1e-9
# how far lp_feasible lets an accepted assignment miss a row or go negative
TOL_ASSIGN = 1e-7
TOL_GEOM = 1e-8
HULL_MAX_DIM = 4
MAX_LP_VARS = 512
# support-function directions of hausdorff_distance
HAUSDORFF_DIRS = 32
# direction sets kept after their draw, oldest dropped first
DIRECTION_SETS = 32


class GeometryError(ValueError):
    pass


class DimensionError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# Linear programming: phase-1 simplex with Bland's rule (feasibility only)


@dataclass
class LPFeasible:
    assignment: np.ndarray


@dataclass
class LPInfeasible:
    margin: float  # residual infeasibility left by phase 1


@dataclass
class LPBreakdown:
    reason: str


LPOutcome = LPFeasible | LPInfeasible | LPBreakdown


def lp_feasible(A, b) -> LPOutcome:
    """Find z with A z = b, z >= 0.

    Phase-1 simplex with Bland's rule, after negating the rows with a
    negative right-hand side.  The phase-1 objective, a sum of artificial
    variables, is never below zero, so no variable needs a bound.  The
    assignment found is checked against every row and the sign
    constraints.  Numerical breakdown is a distinct outcome, never
    silently reported as infeasible.  Non-finite A or b, or more than
    MAX_LP_VARS columns, raise GeometryError.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise DimensionError("LP rows must form a matrix")
    n = A.shape[1]
    if b.shape != A.shape[:1]:
        raise DimensionError("LP rows and right-hand side do not match")
    if not 0 < n <= MAX_LP_VARS:
        raise GeometryError(f"an LP takes 1..{MAX_LP_VARS} columns, got {n}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise GeometryError("LP data must be finite")

    sign = np.where(b < 0, -1.0, 1.0)
    z = _phase1_simplex(A * sign[:, None], np.abs(b))
    if not isinstance(z, np.ndarray):
        return z
    # Certificate check: the assignment must satisfy everything.
    residual = float(np.abs(A @ z - b).max(initial=0.0))
    if residual > TOL_ASSIGN:
        return LPBreakdown(f"assignment violates constraint by {residual:.3e}")
    if np.any(z < -TOL_ASSIGN):
        return LPBreakdown("assignment violates z >= 0")
    return LPFeasible(z)


def lp_weights(target, blocks, what: str) -> list[np.ndarray] | float:
    """Nonnegative weights, one array per block ``(V, kind)``, whose
    combination of the blocks' rows equals ``target``, or the infeasibility
    margin (a float) when there are none.  ``kind`` is "convex", whose
    weights sum to one, or "free", whose weights are only nonnegative.
    The LP's rows are the equalities, then one sum row per convex block in
    block order.  This is where an LP breakdown becomes an error:
    GeometryError("LP breakdown in <what>: ..."), which the CLI reports as
    a refusal (exit 3)."""
    t = np.asarray(target, dtype=float)
    dim = t.shape[0]
    offs = list(itertools.accumulate((len(V) for V, _ in blocks), initial=0))
    spans = list(itertools.pairwise(offs))  # each block's columns
    n_convex = sum(kind == "convex" for _, kind in blocks)
    A = np.zeros((dim + n_convex, offs[-1]))
    row = dim
    for (V, kind), (lo, hi) in zip(blocks, spans):
        A[:dim, lo:hi] = np.asarray(V, dtype=float).T
        if kind == "convex":
            A[row, lo:hi] = 1.0
            row += 1
        elif kind != "free":
            raise ValueError(f"block kinds are convex or free, got {kind!r}")
    out = lp_feasible(A, np.concatenate([t, np.ones(n_convex)]))
    if isinstance(out, LPBreakdown):
        raise GeometryError(f"LP breakdown in {what}: {out.reason}")
    if isinstance(out, LPInfeasible):
        return out.margin
    return [out.assignment[lo:hi] for lo, hi in spans]


def _phase1_simplex(A: np.ndarray, b: np.ndarray) -> np.ndarray | LPInfeasible | LPBreakdown:
    """Minimize the sum of artificial variables for Ax = b, x >= 0, b >= 0."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    # Objective row: reduced costs for min sum(artificials) with the
    # artificial basis; equals -(column sums of A), rhs -(sum b).
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = list(range(n, n + m))

    max_iter = 2000 + 40 * (m + n)
    for _ in range(max_iter):
        if not np.all(np.isfinite(T)):
            return LPBreakdown("non-finite tableau entries")
        # Bland: entering column = smallest index with negative reduced cost
        # and an entry the ratio test can pivot on.
        ready = (T[m, :-1] < -TOL_LP) & (T[:m, :-1] > TOL_LP).any(axis=0)
        if not ready.any():
            break
        enter = int(ready.argmax())
        # Ratio test, Bland tie-break on the leaving basis variable index.
        leave = -1
        best = math.inf
        for i in range(m):
            a = T[i, enter]
            if a > TOL_LP:
                ratio = T[i, -1] / a
                if ratio < best - TOL_LP or (
                    abs(ratio - best) <= TOL_LP and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(m + 1):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter
    else:
        return LPBreakdown("iteration limit exceeded")

    objective = -T[m, -1]
    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    if objective > TOL_LP * scale * 10:
        return LPInfeasible(float(objective))
    x = np.zeros(n)
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[i, -1]
    x[np.abs(x) < 1e-13] = 0.0
    return x


# ---------------------------------------------------------------------------
# Polytopes


def _as_vertex_array(points: Iterable[Sequence[float]]) -> np.ndarray:
    V = np.asarray(list(points), dtype=float)
    if V.ndim == 1:
        V = V.reshape(-1, 1)
    if V.size == 0:
        raise GeometryError("empty vertex list")
    if not np.all(np.isfinite(V)):
        raise GeometryError("vertices must be finite")
    return V


def _dedupe_rows(V: np.ndarray, tol: float) -> np.ndarray:
    keep: list[int] = []
    for i in range(V.shape[0]):
        if all(np.linalg.norm(V[i] - V[j]) > tol for j in keep):
            keep.append(i)
    return V[keep]


def _lex_sorted(V: np.ndarray) -> np.ndarray:
    order = np.lexsort(tuple(np.round(V[:, k], 10) for k in range(V.shape[1] - 1, -1, -1)))
    return V[order]


def _in_hull_lp(target: np.ndarray, V: np.ndarray) -> bool:
    return not isinstance(lp_weights(target, [(V, "convex")], "hull membership"), float)


@dataclass(frozen=True)
class Polytope:
    """Convex polytope as the hull of its stored vertices, canonical once
    built.

    The constructor keeps only the extreme points of the points it is
    given: after deduplication at TOL_GEOM, two points are both extreme,
    and more are filtered by _planar_ring in one and two dimensions and by
    a hull LP per row in more; flat inputs are fine in every dimension.  The
    vertices kept are sorted lexicographically, so a polytope built from
    another's vertices stores the same bytes.
    """

    vertices: np.ndarray

    def __post_init__(self):
        V = _dedupe_rows(_as_vertex_array(self.vertices), TOL_GEOM)
        if V.shape[0] > 2:
            V = V[sorted(_planar_ring(_planar(V))) if V.shape[1] < 3 else _hull_lp(V)]
        object.__setattr__(self, "vertices", _lex_sorted(V))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @staticmethod
    def singleton(point: Sequence[float]) -> "Polytope":
        return Polytope(np.asarray(point, dtype=float).reshape(1, -1))

    def contains(self, point: Sequence[float]) -> bool:
        """Membership: within 1e-7 of a single vertex, equal to a stored
        vertex, or else within TOL_GEOM of the vertices' _planar_ring in
        one and two dimensions and in the hull by an LP in three and four."""
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            raise DimensionError("point dim mismatch")
        if self.num_vertices == 1:
            return bool(np.linalg.norm(p - self.vertices[0]) <= 1e-7)
        if np.any(np.all(self.vertices == p, axis=1)):
            return True
        if self.dim < 3:
            q, *pts = _planar(np.vstack([p, self.vertices]))
            return _ring_gap(q, [pts[i] for i in _planar_ring(pts)]) <= TOL_GEOM
        return _in_hull_lp(p, self.vertices)

    def translate(self, v: Sequence[float]) -> "Polytope":
        return Polytope(self.vertices + np.asarray(v, dtype=float))

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def sample_points(self) -> np.ndarray:
        """Deterministic points of the polytope: vertices, centroid, and
        nine evenly spaced points inside every vertex-pair segment."""
        V = self.vertices
        pts = [V]
        if V.shape[0] >= 2:
            ts = np.linspace(0.0, 1.0, 11)[1:-1]
            for i, j in itertools.combinations(range(V.shape[0]), 2):
                seg = np.outer(1 - ts, V[i]) + np.outer(ts, V[j])
                pts.append(seg)
            pts.append(self.centroid().reshape(1, -1))
        return np.vstack(pts)

    def canonical_key(self) -> tuple:
        return tuple(tuple(round(float(x), 9) for x in v) for v in self.vertices)


def convex_hull(points: Iterable[Sequence[float]]) -> Polytope:
    """The hull of the input points as a Polytope (extreme points only);
    points of more than HULL_MAX_DIM dimensions raise DimensionError."""
    V = _as_vertex_array(points)
    if V.shape[1] > HULL_MAX_DIM:
        raise DimensionError(f"convex_hull supports dim <= {HULL_MAX_DIM}, got {V.shape[1]}")
    return Polytope(V)


def _hull_lp(V: np.ndarray) -> list[int]:
    """Indices of the rows of V that no hull LP finds inside the hull of
    the others still kept, testing the rows in order."""
    alive = list(range(V.shape[0]))
    for idx in range(V.shape[0]):
        others = [j for j in alive if j != idx]
        if others and _in_hull_lp(V[idx], V[others]):
            alive.remove(idx)
    return alive


def _planar(V: np.ndarray) -> list[list[float]]:
    """The rows of a 1-D or 2-D array as points (x, y), a 1-D row as (x, 0)."""
    return np.hstack([V, np.zeros((V.shape[0], 2 - V.shape[1]))]).tolist()


def _chord(a, b, c) -> tuple[float, float]:
    """(c - a) x (b - a), which is positive when b lies left of the line
    from a to c, and the distance from b to the segment from a to c."""
    ux, uy, wx, wy = c[0] - a[0], c[1] - a[1], b[0] - a[0], b[1] - a[1]
    uu = ux * ux + uy * uy
    t = min(max((ux * wx + uy * wy) / uu, 0.0), 1.0) if uu > 0 else 0.0
    return ux * wy - uy * wx, math.hypot(wx - t * ux, wy - t * uy)


def _planar_ring(pts: list[list[float]]) -> list[int]:
    """Indices of the extreme points among pts, counterclockwise: Andrew's
    monotone chain, which drops a point that lies on or left of the chord
    from its predecessor to its successor, or within TOL_GEOM of it.  The
    lower and upper chains meet at two points that no chord tested, so
    the ring is then rescanned until each of its points is a corner.
    Drops near chords add up along a gentle arc, so while one so dropped
    lies farther than TOL_GEOM from the ring, the farthest is kept from
    them and the ring rebuilt; then each point kept is let go if none ends
    farther without it.  None can: the distance is largest at a vertex of
    the exact hull, which only a drop near a chord removes."""
    order = sorted(range(len(pts)), key=pts.__getitem__)

    def ring_and_gaps(kept: list[int]) -> tuple[list[int], dict[int, float]]:
        def corner(i: int, j: int, k: int) -> bool:
            side, gap = _chord(pts[i], pts[j], pts[k])
            if side < 0 and gap <= TOL_GEOM and j not in kept:
                near.add(j)
                return False
            return side < 0

        near: set[int] = set()  # the points dropped within TOL_GEOM of a chord
        ring: list[int] = []
        for half in (order, order[::-1]):
            chain: list[int] = []
            for i in half:
                while len(chain) > 1 and not corner(chain[-2], chain[-1], i):
                    chain.pop()
                chain.append(i)
            ring += chain[:-1]
        k = 0
        while 2 < len(ring) and k < len(ring):
            if corner(ring[k - 1], ring[k], ring[(k + 1) % len(ring)]):
                k += 1
            else:
                del ring[k]
                k = 0
        return ring, {i: _ring_gap(pts[i], [pts[j] for j in ring]) for i in sorted(near)}

    kept: list[int] = []
    ring, gaps = ring_and_gaps(kept)
    while max(gaps.values(), default=0.0) > TOL_GEOM:
        kept.append(max(gaps, key=gaps.get))
        ring, gaps = ring_and_gaps(kept)
    for j in list(kept):
        fewer = [i for i in kept if i != j]
        ring_j, gaps_j = ring_and_gaps(fewer)
        if max(gaps_j.values(), default=0.0) <= TOL_GEOM:
            kept, ring = fewer, ring_j
    return ring


def _ring_gap(q: list[float], ring: list[list[float]]) -> float:
    """The distance from q to the hull of a counterclockwise planar ring."""
    sides, gaps = zip(*(_chord(a, q, b) for a, b in zip(ring, ring[1:] + ring[:1])))
    return 0.0 if len(ring) > 2 and min(sides) >= 0 else min(gaps)


def clip_polytope(poly: Polytope, normals: np.ndarray, offsets: np.ndarray) -> Polytope | None:
    """Intersect a polytope with halfspaces {v : <a, v> <= beta}.

    Exact in any dimension: the vertices of P cut by one halfspace are
    the surviving vertices plus the crossings of vertex-pair segments
    with the hyperplane (crossings from non-edge pairs are interior and
    vanish under re-canonicalization).  Returns None when empty.

    The halfspaces are taken in order.  One product of the vertices with
    the normals of all that are left first screens out those that cannot
    cut (see _cutting); each of the others takes the exact step, and after
    a step that cuts, the halfspaces after it are screened again against
    the new vertices.
    """
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    count = min(len(normals), len(offsets))
    V = poly.vertices
    start = 0
    while start < count:
        for j in start + _cutting(V, normals[start:count], offsets[start:count]):
            a, beta = normals[j], offsets[j]
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
                for o in outs:
                    denom = vals[o] - vals[i]
                    if abs(denom) < 1e-15:
                        continue
                    t = (beta - vals[i]) / denom
                    t = min(max(t, 0.0), 1.0)
                    new_pts.append(((1 - t) * V[i] + t * V[o]).reshape(1, -1))
            V = np.vstack(new_pts)
            if V.shape[0] > 4 * (poly.dim + 1):
                V = convex_hull(V).vertices
            start = j + 1
            break
        else:
            start = count
    return convex_hull(V)


def _cutting(V: np.ndarray, A: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Indices of the halfspaces A[j] . v <= beta[j] for which the exact
    step's V @ A[j] may put a vertex beyond beta[j] + TOL_GEOM.

    Every other halfspace is proven to keep every vertex: with S =
    |V| @ |A|.T and u the unit roundoff, P = V @ A.T plus the bound
    (4 dim + 8) u S + 1e-300 stays at or below beta + TOL_GEOM.  A dot
    product of dim terms is off its exact value by at most dim u / (1 -
    dim u) times the matching entry of S in any summation order, so P and
    the step's V @ a differ by at most about 2 dim u S, and the bound is
    twice that and the rounding of the sum; 1e-300 covers underflow.  A
    halfspace whose S exceeds 1e300 or is NaN, where a product could
    overflow, is never screened out."""
    u = np.finfo(float).eps / 2
    with np.errstate(all="ignore"):
        P = V @ A.T
        S = np.abs(V) @ np.abs(A).T
        kept = (P + ((4 * V.shape[1] + 8) * u * S + 1e-300) <= beta + TOL_GEOM) & (S <= 1e300)
    return np.flatnonzero(~kept.all(axis=0))


# ---------------------------------------------------------------------------
# Distances


def _row_norms(D: np.ndarray) -> np.ndarray:
    # one dot product per row, as np.linalg.norm takes for a single vector
    return np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])


def point_to_polytope_distances(P: np.ndarray, poly: Polytope) -> np.ndarray:
    """Exact Euclidean distance from each row of P to conv(vertices).

    Enumerates faces via vertex subsets of size <= dim+1; by the
    Caratheodory argument at least one subset realizes each projection.
    A subset projects all rows onto its affine hull at once: barycentric
    weights are parametrized on the sum-to-one subspace, so degenerate
    subsets are fine, and found by one least-squares solve with a
    right-hand side per row.  Per-row products go through one
    matrix-vector product each (a matrix-matrix product would round
    differently), so every row's distance is the same float as for that
    point alone.  A weight may fall below zero by 1e-9 over the subset's
    extent (at least 1), so that the slack moves a projection by about
    1e-9 whatever the size of the face.
    """
    P = np.asarray(P, dtype=float)
    V = poly.vertices
    if P.ndim != 2 or P.shape[1] != poly.dim:
        raise DimensionError("point dim mismatch")
    best = np.full(P.shape[0], math.inf)
    for size in range(1, min(V.shape[0], poly.dim + 1) + 1):
        w0 = np.full(size, 1.0 / size)
        # nullspace basis of the all-ones row
        _, _, vt = np.linalg.svd(np.ones((1, size)))
        N = vt[1:].T  # size x (size-1)
        for subset in itertools.combinations(range(V.shape[0]), size):
            S = V[list(subset)]
            if size == 1:
                best = np.minimum(best, _row_norms(P - S[0]))
                continue
            slack = 1e-9 / max(1.0, float(np.ptp(S, axis=0).max()))
            Z = np.linalg.lstsq(S.T @ N, (P - S.T @ w0).T, rcond=None)[0]
            W = w0 + np.matmul(N, np.ascontiguousarray(Z.T)[:, :, None])[:, :, 0]
            d = _row_norms(P - np.matmul(S.T, W[:, :, None])[:, :, 0])
            best = np.where(np.all(W >= -slack, axis=1), np.minimum(best, d), best)
    return best


def point_to_polytope_distance(p: Sequence[float], poly: Polytope) -> float:
    """Exact Euclidean distance from a point to conv(vertices)."""
    return float(point_to_polytope_distances(np.asarray(p, dtype=float)[None], poly)[0])


# ---------------------------------------------------------------------------
# Unions of polytopes


def _inside(p: Polytope, q: Polytope) -> bool:
    return all(q.contains(v) for v in p.vertices)


@dataclass(frozen=True)
class PolytopeUnion:
    """Finite union of polytopes of equal dimension, canonical once built:
    taking the parts with most vertices first, the constructor drops each
    one a kept part contains and each kept part a later one contains, and
    sorts the rest by (num_vertices, canonical_key())."""

    parts: tuple[Polytope, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise GeometryError("union needs at least one part")
        if any(p.dim != parts[0].dim for p in parts):
            raise DimensionError("union parts have mixed dims")
        kept: list[Polytope] = []
        for p in sorted(parts, key=lambda q: -q.num_vertices):
            if not any(_inside(p, q) for q in kept):
                kept = [q for q in kept if not _inside(q, p)] + [p]
        kept.sort(key=lambda p: (p.num_vertices, p.canonical_key()))
        object.__setattr__(self, "parts", tuple(kept))

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def hull(self) -> Polytope:
        return convex_hull(np.vstack([p.vertices for p in self.parts]))

    def all_vertices(self) -> np.ndarray:
        return np.vstack([p.vertices for p in self.parts])

    def contains(self, point: Sequence[float]) -> bool:
        return any(p.contains(point) for p in self.parts)

    def negate(self) -> "PolytopeUnion":
        return PolytopeUnion([Polytope(-p.vertices) for p in self.parts])

    def canonical_key(self) -> tuple:
        return tuple(p.canonical_key() for p in self.parts)


def minkowski_sum(a: Polytope, b: Polytope) -> Polytope:
    if a.dim != b.dim:
        raise DimensionError("minkowski sum dim mismatch")
    sums = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, a.dim)
    return convex_hull(sums)


def union_minkowski_sum(a: PolytopeUnion, b: PolytopeUnion) -> PolytopeUnion:
    return PolytopeUnion([minkowski_sum(p, q) for p in a.parts for q in b.parts])


# ---------------------------------------------------------------------------
# Cones


@dataclass(frozen=True)
class ConeSpec:
    """Convex cone {sum lambda_g g : lambda_g >= 0}, finitely generated;
    a line is the generator pair +/- g.

    Canonical once built: the constructor drops generators within TOL_GEOM
    of zero, scales the rest to unit length, dedupes them at 1e-9, drops
    in order each one that the others still kept generate, and sorts the
    rest lexicographically.  The zero cone has no generators.
    """

    dim: int
    generators: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.generators, dtype=float).reshape(-1, self.dim)
        if not np.all(np.isfinite(g)):
            raise GeometryError("cone data must be finite")
        g = g[np.linalg.norm(g, axis=1) > TOL_GEOM]
        g = _dedupe_rows(g / np.linalg.norm(g, axis=1, keepdims=True), 1e-9)
        alive = list(range(g.shape[0]))
        for i in range(g.shape[0]):
            others = [j for j in alive if j != i]
            if others and _in_cone(g[i], g[others]):
                alive.remove(i)
        object.__setattr__(self, "generators", _lex_sorted(g[alive]))

    @staticmethod
    def zero(dim: int) -> "ConeSpec":
        return ConeSpec(dim, np.zeros((0, dim)))

    def is_zero(self) -> bool:
        return self.generators.shape[0] == 0

    def contains(self, v: Sequence[float]) -> bool:
        return _in_cone(np.asarray(v, dtype=float), self.generators)


def _in_cone(v: np.ndarray, G: np.ndarray) -> bool:
    """Whether v lies in the cone the rows of G generate: a vector within
    1e-7 of zero does, and otherwise one cone LP decides for v scaled to
    unit length."""
    nv = np.linalg.norm(v)
    if nv <= 1e-7:
        return True
    if G.shape[0] == 0:
        return False
    return not isinstance(lp_weights(v / nv, [(G, "free")], "cone membership"), float)


def cones_equal(a: ConeSpec, b: ConeSpec) -> bool:
    """Whether each cone's generators lie in the other cone."""
    return all(b.contains(g) for g in a.generators) and all(a.contains(g) for g in b.generators)


# ---------------------------------------------------------------------------
# Minkowski-sum membership via one LP


@dataclass
class Membership:
    base_weights: np.ndarray
    scales: np.ndarray  # implied lambda_i per scaled term


@dataclass
class NotMember:
    margin: float


def minkowski_membership(
    target: Sequence[float],
    base: Polytope,
    scaled_terms: Sequence[Polytope] = (),
    cones: Sequence[ConeSpec] = (),
) -> Membership | NotMember:
    """Decide target in base + sum_i lambda_i * scaled_i + sum_k cone_k
    with convex weights over base and lambda_i >= 0.

    A nonnegatively weighted vertex combination of a scaled term spans
    exactly the union over lambda >= 0 of lambda * conv(term), which makes
    the scale a linear byproduct (lambda_i = sum of that term's weights)
    and the whole decision a single LP.
    """
    t = np.asarray(target, dtype=float)
    if t.shape != (base.dim,) or any(term.dim != base.dim for term in [*scaled_terms, *cones]):
        raise DimensionError("target, scaled terms and cones must share the base's dim")
    blocks = [(base.vertices, "convex")] + [(q.vertices, "free") for q in scaled_terms]
    blocks += [(c.generators, "free") for c in cones]
    z = lp_weights(t, blocks, "Minkowski membership")
    if isinstance(z, float):
        return NotMember(z)
    scales = np.array([float(w.sum()) for w in z[1 : 1 + len(scaled_terms)]])
    return Membership(base_weights=z[0], scales=scales)


# ---------------------------------------------------------------------------
# Direction sets and Hausdorff distances

# (dim, n, seed) -> the read-only set directions drew, in draw order
_direction_sets: dict[tuple[int, int, int], np.ndarray] = {}


def directions(dim: int, n: int, seed: int = 0) -> np.ndarray:
    """Deterministic unit directions: signed axes, signed axis pairs, then
    seeded random fill up to n.

    Each (dim, n, seed) set is drawn once per process and kept with the
    last DIRECTION_SETS drawn, keyed on all three whether or not the seed
    is passed; the array returned is the kept one, read-only, so a caller
    that needs to change it copies it first."""
    key = (dim, n, seed)
    if key in _direction_sets:
        return _direction_sets[key]
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
    out = [np.array(structured[:n]).reshape(-1, dim)]
    got = len(out[0])
    if got < n:
        rng = np.random.default_rng(seed + 774321)
        # the whole shortfall per draw: the stream one vector at a time would use
        while got < n:
            v = rng.standard_normal((n - got, dim))
            nv = np.sqrt(np.vecdot(v, v))
            keep = nv > 1e-12
            out.append(v[keep] / nv[keep, None])
            got += len(out[-1])
    dirs = np.vstack(out)
    dirs.flags.writeable = False
    if len(_direction_sets) >= DIRECTION_SETS:
        del _direction_sets[next(iter(_direction_sets))]
    _direction_sets[key] = dirs
    return dirs


def _hausdorff_operand(
    x: Polytope | PolytopeUnion | np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None, list[Polytope]]:
    """(every vertex in part order, the singleton parts' points or None,
    the parts with two or more vertices); an (N, dim) array is N
    singletons."""
    if isinstance(x, np.ndarray):
        if x.ndim != 2 or x.shape[0] == 0:
            raise GeometryError("union needs at least one part")
        if not np.all(np.isfinite(x)):
            raise GeometryError("vertices must be finite")
        return x, x, []
    u = x if isinstance(x, PolytopeUnion) else PolytopeUnion((x,))
    singles = [p.vertices[0] for p in u.parts if p.num_vertices == 1]
    multi = [p for p in u.parts if p.num_vertices > 1]
    return np.vstack([p.vertices for p in u.parts]), (np.array(singles) if singles else None), multi


def _directed(u, v) -> float:
    """directed_distance between operands made by _hausdorff_operand."""
    (vu, u_singles, u_multi), (vv, v_singles, v_multi) = u, v
    if vu.shape[1] != vv.shape[1]:
        raise DimensionError("hausdorff dim mismatch")
    samples = [] if u_singles is None else [u_singles]
    pts = np.vstack(samples + [part.sample_points() for part in u_multi])
    if v_singles is not None:
        d2 = ((pts[:, None, :] - v_singles[None, :, :]) ** 2).sum(axis=2)
        best = np.sqrt(d2.min(axis=1))
    else:
        best = np.full(pts.shape[0], math.inf)
    for q in v_multi:
        best = np.minimum(best, point_to_polytope_distances(pts, q))
    return float(best.max(initial=0.0))


def directed_distance(
    a: Polytope | PolytopeUnion | np.ndarray,
    b: Polytope | PolytopeUnion | np.ndarray,
) -> float:
    """The largest distance from a sample point of a part of a (its
    vertices, centroid and points on its vertex-pair segments) to the
    nearest part of b: exact for convex parts, where the max of the convex
    distance function sits at a vertex.  Operands are as for
    hausdorff_distance."""
    return _directed(_hausdorff_operand(a), _hausdorff_operand(b))


def hausdorff_distance(
    a: Polytope | PolytopeUnion | np.ndarray,
    b: Polytope | PolytopeUnion | np.ndarray,
) -> float:
    """Hausdorff distance estimate for unions of polytopes.

    Combines directed point-to-set distances over deterministic in-part
    sample points (exact for convex inputs, where the max of the convex
    distance function sits at a vertex) with a support-function gap over
    HAUSDORFF_DIRS directions, which must include the signed axes.
    Symmetric by construction.  Either side may be an (N, dim) array, read
    as the union of N singletons, so a large oracle cloud needs no
    polytope per point.  Each part of the target set takes every sample
    point in one batch, singletons as one plain nearest-point search.
    """
    pa, pb = _hausdorff_operand(a), _hausdorff_operand(b)
    dim = pa[0].shape[1]
    if HAUSDORFF_DIRS < 2 * dim:
        raise GeometryError(f"hausdorff_distance supports dim <= {HAUSDORFF_DIRS // 2}, got {dim}")

    there, back = _directed(pa, pb), _directed(pb, pa)
    dirs = directions(dim, HAUSDORFF_DIRS)
    va, vb = pa[0], pb[0]
    sup_gap = float(np.max(np.abs((va @ dirs.T).max(axis=0) - (vb @ dirs.T).max(axis=0))))
    return max(there, back, sup_gap)
