"""Brute-force oracles shared by the module tests and the acceptance suite.

These deliberately avoid the library's LP machinery: membership is decided
by dense enumeration over lattice weight grids, so they can cross-check
the simplex-based decisions independently.  The sampled normal-cone
oracle's nearest-point search is checked against a dense scan over every
grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from varcalc import subdiff as S
from varcalc.convgeom import Polytope

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
    base = Polytope.create(_lattice(rng, (int(rng.integers(1, 4)), dim)), canonicalize=False)
    scaled = []
    if rng.random() < 0.6:
        scaled.append(
            Polytope.create(_lattice(rng, (int(rng.integers(1, 3)), dim)), canonicalize=False)
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

    # hash the residuals on a TARGET_TOL grid, then enumerate scaled-term
    # contributions and look them up (checking neighbor cells)
    cell = {}
    for r in residuals:
        key = tuple(np.round(r / TARGET_TOL).astype(int))
        cell.setdefault(key, []).append(r)

    q = inst.scaled[0]
    grids = [np.arange(0.0, 3.0 + WEIGHT_STEP / 2, WEIGHT_STEP)] * q.num_vertices
    mesh = np.meshgrid(*grids, indexing="ij")
    gw = np.stack([m.ravel() for m in mesh], axis=1)
    contribs = gw @ q.vertices

    dim = inst.target.shape[0]
    neighbor_offsets = np.stack(
        np.meshgrid(*([[-1, 0, 1]] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    for c in contribs:
        key = np.round(c / TARGET_TOL).astype(int)
        for off in neighbor_offsets:
            bucket = cell.get(tuple(key + off))
            if bucket is None:
                continue
            for r in bucket:
                if np.linalg.norm(r - c) <= TARGET_TOL:
                    return True
    return False


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


def dense_normal_cone_oracle(spec, x, params) -> S.OracleCloud:
    """The projection oracle with a dense nearest-point scan: every sample
    point's distance to every feasible grid point."""
    p = np.asarray(x, dtype=float)
    collected = []
    grid_tol = 1e-13 * (1.0 + float(np.linalg.norm(p)))
    for r in params.radii:
        feas, step = S._projection_grid(spec, p, r, 64, grid_tol)
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
    return S.OracleCloud(points=cloud, cluster_centers=S._cluster(cloud, 0.02))
