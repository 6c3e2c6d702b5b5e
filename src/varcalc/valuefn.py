"""Optimal value functions of parametric lower-level problems.

The value function is always evaluated by exhaustive grid search over a
user-supplied box (global lower-level optimality is the meaning of the
value function, so no local solver is ever used).  Queries that need more
accuracy than the grid step can run extra exhaustive passes on a shrunken
box certified by a Lipschitz bound around the near-optimal cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from varcalc import expr as ex
from varcalc.convgeom import (
    ConeSpec,
    Polytope,
    PolytopeUnion,
    TOL_GEOM,
    convex_hull,
    directions,
)
from varcalc import subdiff as sd

TOL_ARG = 1e-6
# cap on resolution ** y_dim, the points of one grid pass: 401**2 fits, 401**3 (~64M) not
MAX_GRID_POINTS = 1 << 20


class ValueFnError(ValueError):
    pass


class InfeasibleOnBox(ValueFnError):
    def __init__(self, margin: float, step: float, slope_bound: float):
        self.margin = margin
        self.step = step
        self.slope_bound = slope_bound
        self.certified_empty = margin > 2.0 * slope_bound * step
        kind = "certified empty on box" if self.certified_empty else "grid too coarse"
        super().__init__(
            f"no feasible grid point ({kind}): min constraint violation "
            f"{margin:.3e} at step {step:.3e}"
        )


class HypothesisNotSatisfied(ValueFnError):
    def __init__(self, message: str, ledger: list[dict]):
        super().__init__(message)
        self.ledger = ledger


@dataclass(frozen=True)
class ParametricProblem:
    cost: ex.FunctionDef  # over the (x, y) product space
    constraints: tuple[ex.FunctionDef, ...]
    x_dim: int
    y_dim: int

    def __post_init__(self):
        if self.y_dim < 1:
            raise ValueFnError("decision dimension must be at least 1")
        dim = self.x_dim + self.y_dim
        if self.cost.space.dim != dim:
            raise ValueFnError("cost must live in the (x, y) product space")
        for f in self.constraints:
            if f.space != self.cost.space:
                raise ValueFnError("constraints must share the cost's space")

    def graph_spec(self) -> sd.SetSpec:
        if not self.constraints:
            raise ValueFnError("unconstrained lower level has no graph spec")
        return sd.SetSpec.graph(list(self.constraints), self.x_dim, self.y_dim)


@dataclass(frozen=True)
class GridSpec:
    y_box: tuple[tuple[float, float], ...]
    resolution: int = 401
    x_stencil_radius: float = 0.2
    x_stencil_count: int = 4

    def __post_init__(self):
        if self.resolution < 3:
            raise ValueFnError("resolution must be at least 3")
        for lo, hi in self.y_box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueFnError("box bounds must be finite with lo < hi")
        if self.x_stencil_radius <= 0 or self.x_stencil_count < 1:
            raise ValueFnError("stencil radius/count must be positive")
        if self.resolution ** len(self.y_box) > MAX_GRID_POINTS:
            n = f"{self.resolution}**{len(self.y_box)} = {self.resolution ** len(self.y_box)}"
            raise ValueFnError(f"{n} grid points exceed the budget of {MAX_GRID_POINTS}")

    @property
    def step(self) -> float:
        return max((hi - lo) / (self.resolution - 1) for lo, hi in self.y_box)

    def stencil_radii(self) -> tuple[float, ...]:
        return tuple(
            self.x_stencil_radius * (0.5**j) for j in range(self.x_stencil_count)
        )


@dataclass
class ValueSample:
    x: np.ndarray
    theta: float
    argmins: list[np.ndarray]
    step: float


def _grid_points(box: Sequence[tuple[float, float]], resolution: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def evaluate_value(
    prob: ParametricProblem,
    x: Sequence[float],
    grid: GridSpec,
    refine: int = 0,
) -> ValueSample:
    """Exhaustive grid minimization of the lower-level cost at parameter x.

    refine > 0 repeats the exhaustive search on a box shrunk around the
    near-optimal cells (window certified by a sampled slope bound), which
    reduces the step without ever invoking a local solver.
    """
    xv = np.asarray(x, dtype=float)
    if xv.shape != (prob.x_dim,):
        raise ValueFnError(f"parameter must have dimension {prob.x_dim}")
    if len(grid.y_box) != prob.y_dim:
        raise ValueFnError("grid box must match the decision dimension")

    box = list(grid.y_box)
    result: ValueSample | None = None
    for _ in range(refine + 1):
        ys = _grid_points(box, grid.resolution)
        pts = np.hstack([np.tile(xv, (ys.shape[0], 1)), ys])
        step = max((hi - lo) / (grid.resolution - 1) for lo, hi in box)
        mask = np.ones(ys.shape[0], dtype=bool)
        worst = np.full(ys.shape[0], -np.inf)
        for f in prob.constraints:
            vals = ex.eval_batch(f, pts)
            mask &= vals <= TOL_GEOM
            worst = np.maximum(worst, vals)
        if not np.any(mask):
            slope = _slope_bound(worst, box, grid.resolution)
            raise InfeasibleOnBox(float(worst.min()), step, slope)
        costs = ex.eval_batch(prob.cost, pts)
        costs_feasible = np.where(mask, costs, np.inf)
        theta = float(costs_feasible.min())
        near = costs_feasible <= theta + TOL_ARG
        argmins = [ys[i].copy() for i in np.nonzero(near)[0]]
        result = ValueSample(x=xv.copy(), theta=theta, argmins=argmins, step=step)
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
        if not shrunk:
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


def value_function_on_line(
    prob: ParametricProblem, xs: Sequence[Sequence[float]], grid: GridSpec
) -> list[ValueSample]:
    return [evaluate_value(prob, x, grid) for x in xs]


# ---------------------------------------------------------------------------
# Inner semicontinuity of the argminimum mapping


@dataclass
class ISCReport:
    verdict: bool
    worst_x: np.ndarray | None
    worst_distance: float
    threshold: float


def inner_semicontinuity_probe(
    prob: ParametricProblem,
    point: Sequence[float],
    grid: GridSpec,
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
) -> ISCReport:
    """Probe inner semicontinuity of the argminimum mapping at (x, y):
    sampled parameters approach x and the distance from y to the sampled
    argminimum set must stay within the grid tolerance at the smallest
    radius.  A numerical probe, not a proof."""
    p = np.asarray(point, dtype=float)
    xb, yb = p[: prob.x_dim], p[prob.x_dim :]
    base = evaluate_value(prob, xb, grid)
    feasible = all(ex.evaluate(f, p) <= TOL_GEOM for f in prob.constraints)
    if not feasible or ex.evaluate(prob.cost, p) > base.theta + 10 * TOL_ARG + 10 * base.step:
        raise ValueFnError("reference decision is not lower-level optimal on the grid")
    dirs = directions(prob.x_dim, max(2 * prob.x_dim, min(16, params.dirs_per_radius)), params.seed)
    threshold = 10.0 * base.step
    worst_x, worst_d = None, 0.0
    verdict = True
    for level, r in enumerate(params.radii):
        smallest = level == len(params.radii) - 1
        for d in dirs:
            xk = xb + r * d
            try:
                sample = evaluate_value(prob, xk, grid)
            except InfeasibleOnBox:
                continue
            dist = min(float(np.linalg.norm(yb - ym)) for ym in sample.argmins)
            if dist > worst_d:
                worst_d, worst_x = dist, xk.copy()
            if smallest and dist > threshold:
                verdict = False
    return ISCReport(verdict=verdict, worst_x=worst_x, worst_distance=worst_d, threshold=threshold)


# ---------------------------------------------------------------------------
# Subdifferential estimates of the value function


@dataclass
class ValueEstimate:
    basic: PolytopeUnion
    singular: tuple[ConeSpec, ...]
    notes: list[str]
    ledger: list[dict]


def _isc_gate(
    prob: ParametricProblem,
    point: Sequence[float],
    grid: GridSpec,
    params: sd.SampleParams,
    override_isc: bool,
    accept_lipschitz_like_as_isc: bool,
) -> list[dict]:
    """Hypothesis ledger for the inner-semicontinuity requirement; raises
    when the probe fails and no documented override applies."""
    report = inner_semicontinuity_probe(prob, point, grid, params)
    entry = {
        "hypothesis": "argminimum mapping inner semicontinuous at the candidate",
        "status": "probed" if report.verdict else "failed",
        "detail": {
            "worst_distance": report.worst_distance,
            "threshold": report.threshold,
        },
    }
    if report.verdict:
        return [entry]
    if accept_lipschitz_like_as_isc:
        ll = sd.lipschitz_like_check(prob.graph_spec(), point, params)
        if ll.verdict:
            entry["status"] = "probed"
            entry["detail"]["accepted_via"] = "lipschitz-like constraint map"
            return [entry]
    if override_isc:
        entry["status"] = "overridden"
        return [entry]
    raise HypothesisNotSatisfied(
        "inner semicontinuity probe failed (pass override_isc to proceed; "
        f"worst witness distance {report.worst_distance:.3g} at x = {report.worst_x})",
        [entry],
    )


def value_subdiff_estimate(
    prob: ParametricProblem,
    point: Sequence[float],
    grid: GridSpec,
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
    override_isc: bool = False,
    accept_lipschitz_like_as_isc: bool = False,
) -> ValueEstimate:
    """Upper estimates for the value function's subdifferentials built
    from the cost subdifferential and the constraint-map coderivative:
    the basic estimate unions v + D*F(w) over vertices (v, w) of the cost
    subdifferential, the singular estimate is D*F(0)."""
    p = np.asarray(point, dtype=float)
    ledger = _isc_gate(prob, p, grid, params, override_isc, accept_lipschitz_like_as_isc)
    notes: list[str] = []
    spec = prob.graph_spec()
    cost_sub = sd.basic_subdifferential(prob.cost, p, params)
    if any(part.num_vertices > 1 for part in cost_sub.parts):
        notes.append(
            "estimate evaluated at cost-subdifferential vertices only; exact "
            "when the coderivative is piecewise linear in its argument"
        )
    parts: list[Polytope] = []
    for part in cost_sub.parts:
        for vw in part.vertices:
            v, w = vw[: prob.x_dim], vw[prob.x_dim :]
            slices = sd.coderivative(spec, p, w, params)
            for comp in slices:
                if not comp.recession.is_zero():
                    raise ValueFnError(
                        "coderivative slice is unbounded; the basic estimate is "
                        "not a finite union of polytopes here"
                    )
                parts.append(comp.base.translate(v))
    if not parts:
        raise ValueFnError("empty basic estimate: coderivative slices were all empty")
    zero_slices = sd.coderivative(spec, p, np.zeros(prob.y_dim), params)
    singular = []
    for comp in zero_slices:
        singular.append(
            ConeSpec(
                prob.x_dim,
                np.vstack([comp.recession.generators, comp.base.vertices]),
                comp.recession.lineality,
            ).canonicalize()
        )
    ledger.append(
        {
            "hypothesis": "cost function locally Lipschitz",
            "status": "verified",
            "detail": {"reason": "expression class is Lipschitz by construction"},
        }
    )
    return ValueEstimate(
        basic=PolytopeUnion.create(parts),
        singular=tuple(singular),
        notes=notes,
        ledger=ledger,
    )


@dataclass
class LipschitzVerdict:
    verdict: bool
    modulus_estimate: float
    ledger: list[dict]


def lipschitz_verdict(
    prob: ParametricProblem,
    point: Sequence[float],
    grid: GridSpec,
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
    override_isc: bool = False,
    accept_lipschitz_like_as_isc: bool = False,
) -> LipschitzVerdict:
    """Local Lipschitz continuity of the value function via the
    coderivative criterion on the constraint map, plus an empirical
    modulus from refined grid values at the sampling radii."""
    p = np.asarray(point, dtype=float)
    ledger = _isc_gate(prob, p, grid, params, override_isc, accept_lipschitz_like_as_isc)
    report = sd.lipschitz_like_check(prob.graph_spec(), p, params)
    ledger.append(
        {
            "hypothesis": "constraint mapping Lipschitz-like at the candidate",
            "status": "verified" if report.verdict else "failed",
            "detail": {},
        }
    )
    xb = p[: prob.x_dim]
    theta0 = evaluate_value(prob, xb, grid, refine=2).theta
    modulus = 0.0
    dirs = directions(prob.x_dim, 2 * prob.x_dim, params.seed)
    for r in params.radii:
        for d in dirs:
            try:
                th = evaluate_value(prob, xb + r * d, grid, refine=2).theta
            except InfeasibleOnBox:
                continue
            modulus = max(modulus, abs(th - theta0) / r)
    return LipschitzVerdict(verdict=report.verdict, modulus_estimate=modulus, ledger=ledger)


# ---------------------------------------------------------------------------
# Outer approximation of the regular subdifferential of the value function


def regular_value_subdiff_outer(
    prob: ParametricProblem,
    x: Sequence[float],
    grid: GridSpec,
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
) -> Polytope | None:
    """Outer polytope approximation of the value function's regular
    subdifferential, from refined-grid difference quotients at the two
    smallest stencil radii: intersect halfspaces
    {v : <v, d> <= quotient(d) + eps} with eps covering the grid error.
    None encodes an empty intersection."""
    xv = np.asarray(x, dtype=float)
    n = prob.x_dim
    theta0 = evaluate_value(prob, xv, grid, refine=2)
    slope = _argmin_cost_slope(prob, xv, theta0)
    radii = sorted(grid.stencil_radii())[:2]
    dirs = directions(n, max(params.dirs_per_radius, 2 * n), params.seed)
    normals, offsets, quotients = [], [], []
    fine_step = theta0.step
    for r in radii:
        eps = 3.0 * (slope + 0.1) * fine_step / r + 1e-6
        for d in dirs:
            try:
                th = evaluate_value(prob, xv + r * d, grid, refine=2).theta
            except InfeasibleOnBox:
                continue
            q = (th - theta0.theta) / r
            normals.append(d)
            offsets.append(q + eps)
            quotients.append(q)
    if not normals:
        raise ValueFnError("no stencil direction stayed feasible")
    bound = max(abs(q) for q in quotients) + 1.0
    box = Polytope.create(_grid_points([(-bound, bound)] * n, 2), canonicalize=False)
    from varcalc.convgeom import clip_polytope

    return clip_polytope(convex_hull(box.vertices), np.array(normals), np.array(offsets))


def _argmin_cost_slope(prob: ParametricProblem, xv: np.ndarray, sample: ValueSample) -> float:
    """Sampled bound on the cost's decision-variable slope near the
    argminimum set (controls the grid-snapping error of theta)."""
    h = max(sample.step, 1e-7)
    steps = np.zeros((prob.y_dim, prob.x_dim + prob.y_dim))
    steps[:, prob.x_dim :] = h * np.eye(prob.y_dim)
    ps = [np.concatenate([xv, ym]) for ym in sample.argmins[:8]]
    if not ps:
        return 0.0
    stencil = np.array([p + s * e for p in ps for e in steps for s in (1, -1)])
    vals = ex.eval_batch(prob.cost, stencil)
    return max([0.0, *(np.abs(vals[0::2] - vals[1::2]) / (2 * h)).tolist()])
