"""Small-dimension convex geometry in vertex representation.

Polytopes are stored as lists of vertices (V-representation); halfspace
data only appears transiently inside LP constraints.  All geometry is
floating point with tol_lp = 1e-9 for LP feasibility and tol_geom = 1e-8
for canonicalization.  Every membership and multiplier LP is assembled by
lp_weights from blocks of rows with "convex" (summing to one), "cone"
(capped at coefficient R_CONE, so the phase-1 simplex works with bounded
variables) or "free" (nonnegative) weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

TOL_LP = 1e-9
TOL_GEOM = 1e-8
R_CONE = 1e6
HULL_MAX_DIM = 4
MAX_LP_VARS = 512
# support-function directions of hausdorff_distance
HAUSDORFF_DIRS = 32


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


def lp_feasible(A, b, upper=None) -> LPOutcome:
    """Find z with A z = b, z >= 0 and z <= upper wherever upper is finite.

    Phase-1 simplex with Bland's rule: each finite upper bound becomes a
    row z_j + s_j = upper_j whose slack s_j is a column after those of A,
    and rows with a negative right-hand side are negated.  The assignment
    found is checked against every row and bound.  Numerical breakdown is
    a distinct outcome, never silently reported as infeasible.  Non-finite
    A or b, a NaN or -inf bound, or more than MAX_LP_VARS columns raise
    GeometryError.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise DimensionError("LP rows must form a matrix")
    n = A.shape[1]
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if b.shape != A.shape[:1] or upper.shape != (n,):
        raise DimensionError("LP rows, right-hand side and bounds do not match")
    if not 0 < n <= MAX_LP_VARS:
        raise GeometryError(f"an LP takes 1..{MAX_LP_VARS} columns, got {n}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(upper > -np.inf)):
        raise GeometryError("LP data must be finite")

    capped = np.flatnonzero(np.isfinite(upper))
    m, k = A.shape[0], capped.size
    M = np.zeros((m + k, n + k))
    M[:m, :n] = A
    M[m + np.arange(k), capped] = 1.0
    M[m:, n:] = np.eye(k)
    rhs = np.concatenate([b, upper[capped]])
    M[rhs < 0] *= -1.0
    result = _phase1_simplex(M, np.abs(rhs))
    if not isinstance(result, np.ndarray):
        return result
    z = result[:n]
    # Certificate check: the assignment must satisfy everything.
    residual = float(np.abs(A @ z - b).max(initial=0.0))
    if residual > 1e-7:
        return LPBreakdown(f"assignment violates constraint by {residual:.3e}")
    if np.any(z < -1e-7) or np.any(z > upper + 1e-7):
        return LPBreakdown("assignment violates variable bounds")
    return LPFeasible(z)


def lp_weights(target, blocks, what: str) -> list[np.ndarray] | float:
    """Nonnegative weights, one array per block ``(V, kind)``, whose
    combination of the blocks' rows equals ``target``, or the infeasibility
    margin (a float) when there are none.  ``kind`` bounds a block's
    weights: "convex" ones sum to one, "cone" ones are capped at R_CONE
    and "free" ones are only nonnegative.  The LP's rows are the
    equalities, then one sum row per convex block in block order.  This is
    where an LP breakdown becomes an error: GeometryError("LP breakdown in
    <what>: ..."), which the CLI reports as a refusal (exit 3)."""
    t = np.asarray(target, dtype=float)
    dim = t.shape[0]
    offs = list(itertools.accumulate((len(V) for V, _ in blocks), initial=0))
    spans = list(itertools.pairwise(offs))  # each block's columns
    n_convex = sum(kind == "convex" for _, kind in blocks)
    A = np.zeros((dim + n_convex, offs[-1]))
    upper = np.full(offs[-1], np.inf)
    row = dim
    for (V, kind), (lo, hi) in zip(blocks, spans):
        A[:dim, lo:hi] = np.asarray(V, dtype=float).T
        if kind == "convex":
            A[row, lo:hi] = 1.0
            row += 1
        elif kind == "cone":
            upper[lo:hi] = R_CONE
        elif kind != "free":
            raise ValueError(f"block kinds are convex, cone or free, got {kind!r}")
    out = lp_feasible(A, np.concatenate([t, np.ones(n_convex)]), upper)
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
        # Bland: entering column = smallest index with negative reduced cost.
        enter = -1
        for j in range(n + m):
            if T[m, j] < -TOL_LP:
                enter = j
                break
        if enter < 0:
            break
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
        if leave < 0:
            return LPBreakdown("unbounded pivot column in phase 1")
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
    """Convex polytope as the hull of its stored vertices.

    A canonical polytope lists only extreme points (no vertex is a convex
    combination of the others), deduplicated at tol_geom and sorted
    lexicographically.
    """

    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _as_vertex_array(self.vertices))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @staticmethod
    def create(points: Iterable[Sequence[float]], canonicalize: bool = True) -> "Polytope":
        V = _as_vertex_array(points)
        if canonicalize:
            return convex_hull(V)
        return Polytope(V)

    @staticmethod
    def singleton(point: Sequence[float]) -> "Polytope":
        return Polytope(np.asarray(point, dtype=float).reshape(1, -1))

    def contains(self, point: Sequence[float]) -> bool:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            raise DimensionError("point dim mismatch")
        if self.num_vertices == 1:
            return bool(np.linalg.norm(p - self.vertices[0]) <= 1e-7)
        return _in_hull_lp(p, self.vertices)

    def support(self, direction: np.ndarray) -> float:
        return float(np.max(self.vertices @ np.asarray(direction, dtype=float)))

    def translate(self, v: Sequence[float]) -> "Polytope":
        return Polytope(self.vertices + np.asarray(v, dtype=float))

    def scale(self, c: float) -> "Polytope":
        return Polytope(self.vertices * float(c))

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
    """Canonicalized hull of the input points (extreme points only).

    Works in any dimension up to HULL_MAX_DIM by LP-based extreme point
    filtering; degenerate (flat) inputs are fine.
    """
    V = _as_vertex_array(points)
    if V.shape[1] > HULL_MAX_DIM:
        raise DimensionError(f"convex_hull supports dim <= {HULL_MAX_DIM}, got {V.shape[1]}")
    V = _dedupe_rows(V, TOL_GEOM)
    if V.shape[0] > 1:
        keep = []
        alive = list(range(V.shape[0]))
        for idx in range(V.shape[0]):
            others = [j for j in alive if j != idx]
            if not others:
                keep.append(idx)
                continue
            if not _in_hull_lp(V[idx], V[others]):
                keep.append(idx)
            else:
                alive.remove(idx)
        V = V[keep]
    return Polytope(_lex_sorted(V))


def polytopes_equal(a: Polytope, b: Polytope) -> bool:
    if a.dim != b.dim or a.num_vertices != b.num_vertices:
        return False
    return bool(np.all(np.linalg.norm(a.vertices - b.vertices, axis=1) <= TOL_GEOM))


def clip_polytope(poly: Polytope, normals: np.ndarray, offsets: np.ndarray) -> Polytope | None:
    """Intersect a polytope with halfspaces {v : <a, v> <= beta}.

    Exact in any dimension: the vertices of P cut by one halfspace are
    the surviving vertices plus the crossings of vertex-pair segments
    with the hyperplane (crossings from non-edge pairs are interior and
    vanish under re-canonicalization).  Returns None when empty.
    """
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
    point alone.
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
            Z = np.linalg.lstsq(S.T @ N, (P - S.T @ w0).T, rcond=None)[0]
            W = w0 + np.matmul(N, np.ascontiguousarray(Z.T)[:, :, None])[:, :, 0]
            d = _row_norms(P - np.matmul(S.T, W[:, :, None])[:, :, 0])
            best = np.where(np.all(W >= -1e-9, axis=1), np.minimum(best, d), best)
    return best


def point_to_polytope_distance(p: Sequence[float], poly: Polytope) -> float:
    """Exact Euclidean distance from a point to conv(vertices)."""
    return float(point_to_polytope_distances(np.asarray(p, dtype=float)[None], poly)[0])


# ---------------------------------------------------------------------------
# Unions of polytopes


@dataclass(frozen=True)
class PolytopeUnion:
    """Finite union of polytopes of equal dimension; parts are canonical
    and pairwise distinct, with parts contained in other parts removed."""

    parts: tuple[Polytope, ...]

    def __post_init__(self):
        if not self.parts:
            raise GeometryError("union needs at least one part")
        dim = self.parts[0].dim
        for p in self.parts:
            if p.dim != dim:
                raise DimensionError("union parts have mixed dims")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    @staticmethod
    def create(parts: Iterable[Polytope], canonicalize: bool = True) -> "PolytopeUnion":
        ps = [convex_hull(p.vertices) if canonicalize else p for p in parts]
        if not ps:
            raise GeometryError("union needs at least one part")
        if canonicalize:
            ps = _absorb_parts(ps)
        ps.sort(key=lambda p: (p.num_vertices, p.canonical_key()))
        return PolytopeUnion(tuple(ps))

    @staticmethod
    def single(poly: Polytope) -> "PolytopeUnion":
        return PolytopeUnion.create([poly])

    def hull(self) -> Polytope:
        return convex_hull(np.vstack([p.vertices for p in self.parts]))

    def all_vertices(self) -> np.ndarray:
        return np.vstack([p.vertices for p in self.parts])

    def contains(self, point: Sequence[float]) -> bool:
        return any(p.contains(point) for p in self.parts)

    def negate(self) -> "PolytopeUnion":
        return PolytopeUnion.create([Polytope(-p.vertices) for p in self.parts])

    def translate(self, v: Sequence[float]) -> "PolytopeUnion":
        return PolytopeUnion.create([p.translate(v) for p in self.parts])

    def canonical_key(self) -> tuple:
        return tuple(p.canonical_key() for p in self.parts)


def _absorb_parts(parts: list[Polytope]) -> list[Polytope]:
    kept: list[Polytope] = []
    for p in sorted(parts, key=lambda q: -q.num_vertices):
        contained = False
        for q in kept:
            if all(q.contains(v) for v in p.vertices):
                contained = True
                break
        if not contained:
            kept.append(p)
    return kept


def minkowski_sum(a: Polytope, b: Polytope) -> Polytope:
    if a.dim != b.dim:
        raise DimensionError("minkowski sum dim mismatch")
    sums = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, a.dim)
    return convex_hull(sums)


def union_minkowski_sum(a: PolytopeUnion, b: PolytopeUnion) -> PolytopeUnion:
    return PolytopeUnion.create([minkowski_sum(p, q) for p in a.parts for q in b.parts])


# ---------------------------------------------------------------------------
# Cones


@dataclass(frozen=True)
class ConeSpec:
    """Convex cone {sum lambda_g g : lambda_g >= 0} + span(lineality)."""

    dim: int
    generators: np.ndarray
    lineality: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.generators, dtype=float).reshape(-1, self.dim)
        l = np.asarray(self.lineality, dtype=float).reshape(-1, self.dim)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(l))):
            raise GeometryError("cone data must be finite")
        object.__setattr__(self, "generators", g)
        object.__setattr__(self, "lineality", l)

    @staticmethod
    def zero(dim: int) -> "ConeSpec":
        return ConeSpec(dim, np.zeros((0, dim)), np.zeros((0, dim)))

    @staticmethod
    def full_space(dim: int) -> "ConeSpec":
        return ConeSpec(dim, np.zeros((0, dim)), np.eye(dim))

    @staticmethod
    def from_generators(dim: int, generators: Iterable[Sequence[float]]) -> "ConeSpec":
        g = np.asarray(list(generators), dtype=float).reshape(-1, dim)
        return ConeSpec(dim, g, np.zeros((0, dim))).canonicalize()

    def canonicalize(self) -> "ConeSpec":
        g = self.generators
        norms = np.linalg.norm(g, axis=1)
        g = g[norms > TOL_GEOM]
        if g.shape[0]:
            g = g / np.linalg.norm(g, axis=1, keepdims=True)
            g = _dedupe_rows(g, 1e-9)
        l = self.lineality
        if l.shape[0]:
            q, _ = np.linalg.qr(l.T)
            rank = np.linalg.matrix_rank(l, tol=1e-10)
            basis = q[:, :rank].T
            # canonical signs: first nonzero coordinate positive
            rows = []
            for row in basis:
                nz = np.nonzero(np.abs(row) > 1e-12)[0]
                if nz.size and row[nz[0]] < 0:
                    row = -row
                rows.append(row)
            l = np.array(rows).reshape(-1, self.dim)
        # drop generators already in the cone of the remaining ones
        if g.shape[0] > 1:
            keep_idx: list[int] = []
            alive = list(range(g.shape[0]))
            for i in range(g.shape[0]):
                others = [j for j in alive if j != i]
                sub = ConeSpec(self.dim, g[others], l)
                if others and sub.contains(g[i]):
                    alive.remove(i)
                else:
                    keep_idx.append(i)
            g = g[keep_idx]
        if g.shape[0]:
            g = _lex_sorted(g)
        return ConeSpec(self.dim, g, l)

    def is_zero(self) -> bool:
        if self.lineality.shape[0] and np.any(np.linalg.norm(self.lineality, axis=1) > TOL_GEOM):
            return False
        return self.generators.shape[0] == 0 or bool(
            np.all(np.linalg.norm(self.generators, axis=1) <= TOL_GEOM)
        )

    def contains(self, v: Sequence[float]) -> bool:
        v = np.asarray(v, dtype=float)
        nv = np.linalg.norm(v)
        if nv <= 1e-7:
            return True
        v = v / nv  # scale invariance of cones
        cols = self.translate_columns()
        if cols.shape[0] == 0:
            return False
        return not isinstance(lp_weights(v, [(cols, "cone")], "cone membership"), float)

    def translate_columns(self) -> np.ndarray:
        """Columns spanning the cone for LP assembly: generators plus +/-
        lineality vectors; all take nonnegative coefficients."""
        return np.vstack([self.generators, self.lineality, -self.lineality])


def cones_equal(a: ConeSpec, b: ConeSpec) -> bool:
    ca, cb = a.canonicalize(), b.canonicalize()
    for g in ca.generators:
        if not cb.contains(g):
            return False
    for g in cb.generators:
        if not ca.contains(g):
            return False
    for l in ca.lineality:
        if not (cb.contains(l) and cb.contains(-l)):
            return False
    for l in cb.lineality:
        if not (ca.contains(l) and ca.contains(-l)):
            return False
    return True


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
    for c in cones:
        cols = c.translate_columns()
        cols = cols[np.linalg.norm(cols, axis=1) > TOL_GEOM]
        blocks.append((cols / np.linalg.norm(cols, axis=1, keepdims=True), "cone"))
    z = lp_weights(t, blocks, "Minkowski membership")
    if isinstance(z, float):
        return NotMember(z)
    scales = np.array([float(w.sum()) for w in z[1 : 1 + len(scaled_terms)]])
    return Membership(base_weights=z[0], scales=scales)


# ---------------------------------------------------------------------------
# Direction sets and Hausdorff distances


def directions(dim: int, n: int, seed: int = 0) -> np.ndarray:
    """Deterministic unit directions: signed axes, signed axis pairs, then
    seeded random fill up to n."""
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
    return np.vstack(out)


def point_to_union_distance(p: Sequence[float], u: PolytopeUnion) -> float:
    return min(point_to_polytope_distance(p, part) for part in u.parts)


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
    u = x if isinstance(x, PolytopeUnion) else PolytopeUnion.create([x])
    singles = [p.vertices[0] for p in u.parts if p.num_vertices == 1]
    multi = [p for p in u.parts if p.num_vertices > 1]
    return np.vstack([p.vertices for p in u.parts]), (np.array(singles) if singles else None), multi


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
    va, a_singles, a_multi = _hausdorff_operand(a)
    vb, b_singles, b_multi = _hausdorff_operand(b)
    dim = va.shape[1]
    if vb.shape[1] != dim:
        raise DimensionError("hausdorff dim mismatch")
    if HAUSDORFF_DIRS < 2 * dim:
        raise GeometryError(f"hausdorff_distance supports dim <= {HAUSDORFF_DIRS // 2}, got {dim}")

    def directed(u_singles, u_multi, v_singles, v_multi) -> float:
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

    dirs = directions(dim, HAUSDORFF_DIRS)
    sup_gap = float(np.max(np.abs((va @ dirs.T).max(axis=0) - (vb @ dirs.T).max(axis=0))))
    return max(
        directed(a_singles, a_multi, b_singles, b_multi),
        directed(b_singles, b_multi, a_singles, a_multi),
        sup_gap,
    )
