"""Optimal value functions of parametric lower-level problems.

The value function is always evaluated by exhaustive grid search over a
user-supplied box (global lower-level optimality is the meaning of the
value function, so no local solver is ever used).  Queries that need more
accuracy than the grid step can run extra exhaustive passes on a shrunken
box certified by a Lipschitz bound around the near-optimal cells.

evaluate_values searches many parameters at once.  A pass evaluates each
function once on an open grid (one array per variable, broadcast against
the others), so an op runs only at the shape of the variables it reads,
and as many parameters share a pass as fit in BATCH_POINTS grid points
(at least one), each on its own box.  When the cost reads no parameter
variable, a parameter enters a pass only through its box and the
feasibility masks of the constraints that do read one, so the parameters
whose box and masks agree byte for byte are searched once, as one group:
a feasible group's sample serves every member, each with its own x.  A
row whose box holds no feasible grid point gets its InfeasibleOnBox back
in place of a sample.  The probes and estimates below, and the bilevel
calmness probe, pass all their parameters in one call; evaluate_value is
the one-parameter form.

A pass does only the work that reaches a result.  It works out the next
level's boxes first, then builds results only for the rows that finish
there: a ValueSample, with its argmins, for a feasible row whose box did
not shrink, and an InfeasibleOnBox, with its constraint margins and slope
bound, for a row with no feasible grid point.  A refined search so builds
one result per distinct parameter, and a group's members take their
head's sample only once the head finishes.
"""

from __future__ import annotations

import functools
import itertools
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
    clip_polytope,
    convex_hull,
    directions,
)
from varcalc import subdiff as sd

TOL_ARG = 1e-6
# cap on resolution ** y_dim, the points of one grid pass: 401**2 fits, 401**3 (~64M) not
MAX_GRID_POINTS = 1 << 20
# grid points per pass of a batched search; sets its working memory
BATCH_POINTS = 1 << 14


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


class HypothesisFailure(ValueFnError):
    def __init__(self, message: str, ledger: list[dict]):
        super().__init__(message)
        self.ledger = ledger


def record(
    ledger: list[dict],
    hypothesis: str,
    status: str,
    detail: dict | None = None,
    failure: str | None = None,
) -> None:
    """Append an entry to a hypothesis ledger.  A failed entry given a
    failure message raises HypothesisFailure with it and the ledger."""
    if status not in ("verified", "probed", "overridden", "failed"):
        raise ValueError(f"unknown hypothesis status {status!r}")
    ledger.append({"hypothesis": hypothesis, "status": status, "detail": detail or {}})
    if status == "failed" and failure is not None:
        raise HypothesisFailure(failure, ledger)


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
        for a, (lo, hi) in enumerate(self.y_box):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueFnError("box bounds must be finite with lo < hi")
            step = (hi - lo) / (self.resolution - 1)
            if not 0 < step < math.inf:
                raise ValueFnError(
                    f"box axis {a} [{lo!r}, {hi!r}] has grid step {step!r} at "
                    f"resolution {self.resolution}; it must be finite and nonzero"
                )
        if not (math.isfinite(self.x_stencil_radius) and self.x_stencil_radius > 0):
            raise ValueFnError("stencil radius must be finite and positive")
        if self.x_stencil_count < 1:
            raise ValueFnError("stencil count must be positive")
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
    argmins: np.ndarray  # (k, y_dim): the grid points within TOL_ARG of theta
    step: float


def _slope_bounds(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, resolution: int):
    """Per row, the largest finite |difference quotient| of the row's grid
    values along any axis of its box, 0 when there is none."""
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


@functools.lru_cache(maxsize=4)
def _ramp(resolution: int) -> np.ndarray:
    ramp = np.arange(resolution, dtype=float)
    ramp.flags.writeable = False
    return ramp


def _open_grid(xs: np.ndarray, lo: np.ndarray, hi: np.ndarray, resolution: int):
    """Each row's axes, (K, d, resolution), and the open grid of the rows:
    x_i constant, y_a varying along axis a + 1; broadcast, it is each row's
    grid in np.meshgrid(..., indexing="ij") order.  Each axis equals, bit
    for bit, np.linspace(lo, hi, resolution) of its own bounds: numpy's
    arithmetic, i * step + lo with the last point hi, or (i / (resolution
    - 1)) * (hi - lo) + lo where step underflows to 0, taken per axis of
    each row rather than once for the batch."""
    k, d = lo.shape
    ramp = _ramp(resolution)
    delta = hi - lo
    step = delta / (resolution - 1)
    axes = ramp * step[:, :, None] + lo[:, :, None]
    zero = step == 0
    if zero.any():
        axes[zero] = (ramp / (resolution - 1)) * delta[zero, None] + lo[zero, None]
    axes[:, :, -1] = hi
    cols = [xs[:, i].reshape((k,) + (1,) * d) for i in range(xs.shape[1])]
    for a in range(d):
        cols.append(axes[:, a].reshape((k,) + (1,) * a + (resolution,) + (1,) * (d - a - 1)))
    return axes, cols


def _grid_pass(
    prob: ParametricProblem,
    xs: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    resolution: int,
    last: bool,
) -> tuple[list, tuple | None]:
    """One exhaustive pass for the parameters xs (K rows), each on its own
    box [lo[k], hi[k]].  Returns, per row that finishes here, its
    ValueSample or InfeasibleOnBox, and None for a row that goes on to a
    shrunk box; unless this is the last pass, also the shrunk boxes of the
    cells that could still hide the minimum with a mask of the rows that
    shrank.  Every row finishes at the last pass."""
    k, d = lo.shape
    cube = (k,) + (resolution,) * d
    axes, cols = _open_grid(xs, lo, hi, resolution)
    step = ((hi - lo) / (resolution - 1)).max(axis=1)
    # the mask and each constraint's values keep their open-grid shape
    mask = np.ones((1,) * (d + 1), dtype=bool)
    values = []
    for f in prob.constraints:
        vals = ex.eval_open(f, cols)
        mask = mask & (vals <= TOL_GEOM)
        values.append(vals)
    feasible = np.broadcast_to(mask.any(axis=tuple(range(1, d + 1))), (k,))
    out: list = [None] * k
    infeasible = np.flatnonzero(~feasible)
    if infeasible.size:
        # an infeasible row's margin and slope bound come from its own
        # constraint values (a single row when the constraint reads no x)
        worst = np.full((infeasible.size,) + cube[1:], -np.inf)
        for vals in values:
            np.maximum(worst, vals if len(vals) == 1 else vals[infeasible], out=worst)
        slope = _slope_bounds(worst, lo[infeasible], hi[infeasible], resolution)
        margins = worst.reshape(infeasible.size, -1).min(axis=1)
        for r, m, s in zip(infeasible.tolist(), margins.tolist(), slope.tolist()):
            out[r] = InfeasibleOnBox(m, float(step[r]), s)
    costs = np.broadcast_to(ex.eval_open(prob.cost, cols), cube)
    costs_feasible = np.where(mask, costs, np.inf).reshape(k, -1)
    theta = costs_feasible.min(axis=1)
    boxes = None if last else _shrink(axes, costs, costs_feasible, theta, feasible, lo, hi, step)
    rows = np.flatnonzero(feasible if boxes is None else feasible & ~boxes[2])
    # argmins only for the rows that finish feasible, cut from one gather
    near = costs_feasible[rows] <= (theta[rows] + TOL_ARG)[:, None]
    owner, *index = np.unravel_index(np.flatnonzero(near), near.shape[:1] + cube[1:])
    ys = np.stack([axes[rows[owner], a, i] for a, i in enumerate(index)], axis=1)
    ends = np.cumsum(np.bincount(owner, minlength=rows.size)).tolist()
    for r, t, start, end in zip(rows.tolist(), theta[rows].tolist(), [0] + ends, ends):
        out[r] = ValueSample(xs[r].copy(), t, ys[start:end], float(step[r]))
    return out, boxes


def _shrink(axes, costs, costs_feasible, theta, feasible, lo, hi, step):
    """The boxes of the cells that could still hide each row's minimum
    (window certified by a sampled slope bound of the cost), and the mask
    of the rows whose box shrank."""
    k, d = lo.shape
    resolution = axes.shape[2]
    margin = 2.0 * (_slope_bounds(costs, lo, hi, resolution) + 1.0) * step
    candidates = (costs_feasible <= (theta + margin)[:, None]).reshape(costs.shape)
    # the extreme candidate coordinates along an increasing axis sit at the
    # first and last grid index any candidate has on it
    new_lo, new_hi = np.empty_like(lo), np.empty_like(hi)
    rows = np.arange(k)
    for a in range(d):
        hit = candidates.any(axis=tuple(b + 1 for b in range(d) if b != a))
        first = hit.argmax(axis=1)
        last_hit = resolution - 1 - hit[:, ::-1].argmax(axis=1)
        new_lo[:, a] = axes[rows, a, first] - 2 * step
        new_hi[:, a] = axes[rows, a, last_hit] + 2 * step
    # clip to the box as Python's max/min would, keeping the new bound on ties
    new_lo = np.where(lo > new_lo, lo, new_lo)
    new_hi = np.where(hi < new_hi, hi, new_hi)
    shrunk = ((new_hi - new_lo) < (hi - lo) * 0.75).any(axis=1)
    # an infeasible row stops here; so does a row with theta = nan, which
    # has no candidate cell to shrink around
    shrunk &= feasible & ~np.isnan(theta)
    return new_lo, new_hi, shrunk


def _search(
    prob: ParametricProblem,
    xs: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    rows: np.ndarray,
    resolution: int,
    last: bool,
    results: list,
) -> np.ndarray:
    """Search the parameters xs[rows], as many per pass as have
    BATCH_POINTS grid points between them (at least one): store the result
    of each row that finishes in results (None for the others), move each
    row that shrank to its new box in lo and hi, and return the mask of
    those rows."""
    per = max(1, BATCH_POINTS // resolution ** lo.shape[1])
    shrunk = np.zeros(rows.size, dtype=bool)
    for start in range(0, rows.size, per):
        chunk = rows[start : start + per]
        out, boxes = _grid_pass(prob, xs[chunk], lo[chunk], hi[chunk], resolution, last)
        for r, sample in zip(chunk, out):
            results[r] = sample
        if boxes is not None:
            new_lo, new_hi, s = boxes
            lo[chunk[s]], hi[chunk[s]] = new_lo[s], new_hi[s]
            shrunk[start : start + per] = s
    return shrunk


def _group_rows(
    keyed: Sequence[ex.FunctionDef],
    xs: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    resolution: int,
) -> np.ndarray:
    """Per row, its group's index, in order of first appearance: rows share
    a group when their boxes and the masks vals <= TOL_GEOM of the keyed
    constraints, each at its own open-grid shape, agree byte for byte.
    Those bytes are the key, and the keys are built for as many rows at a
    time as have BATCH_POINTS mask points."""
    k, n = len(xs), xs.shape[1]
    # a mask has a grid axis for each decision variable its constraint reads
    points = sum(resolution ** sum(i >= n for i in f.reads) for f in keyed)
    per = max(1, BATCH_POINTS // max(points, 1))
    groups: dict[bytes, int] = {}
    out = np.empty(k, dtype=np.intp)
    for start in range(0, k, per):
        sl = slice(start, start + per)
        _, cols = _open_grid(xs[sl], lo[sl], hi[sl], resolution)
        parts = [lo[sl].view(np.uint8), hi[sl].view(np.uint8)]
        for f in keyed:
            mask = ex.eval_open(f, cols) <= TOL_GEOM
            parts.append(np.packbits(mask.reshape(len(mask), -1), axis=1))
        out[sl] = [groups.setdefault(key, len(groups)) for key in map(bytes, np.hstack(parts))]
    return out


def evaluate_values(
    prob: ParametricProblem,
    xs: Sequence[Sequence[float]] | np.ndarray,
    grid: GridSpec,
    refine: int = 0,
) -> list[ValueSample | InfeasibleOnBox]:
    """Exhaustive grid minimization of the lower-level cost at each
    parameter row of xs, in one batched search.

    Returns, per row, the ValueSample of that parameter or the
    InfeasibleOnBox that says no grid point of its box is feasible; the
    error is returned, not raised, so one infeasible row does not hide the
    others.  Rows with the same bytes share one result object (-0.0 and
    0.0 stay apart: x*y at x = -0.0 has theta = -0.0).

    Every parameter still refining is searched in the same pass, each on
    its own box: as many parameters as have BATCH_POINTS grid points
    between them (at least one) share one open-grid evaluation per
    function, so a single grid larger than BATCH_POINTS is one pass.
    refine > 0 repeats the search on a box shrunk around the near-optimal
    cells (window certified by a sampled slope bound), which reduces the
    step without ever invoking a local solver; a parameter stops refining
    when its box no longer shrinks.

    When the cost's tape reads no parameter variable, each level first
    groups the parameters by the bytes a pass reads for them: the box and,
    for each constraint that reads a parameter variable, the mask of its
    feasible grid points (a constraint that reads none depends on the box
    alone).  A feasible row's theta, argmins, step and next box are
    functions of those bytes, so one pass per group gives every member the
    same values with its own x, and the members shrink together.  An
    infeasible row's margin and slope bound come from its own constraint
    values, so the other members of a group infeasible on its box are
    searched one row each.  Each result equals, bit for bit, a search of
    that parameter alone.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != prob.x_dim:
        raise ValueFnError(f"parameters must be rows of dimension {prob.x_dim}")
    if len(grid.y_box) != prob.y_dim:
        raise ValueFnError("grid box must match the decision dimension")
    if not np.isfinite(xs).all():
        raise ValueFnError("parameters must be finite")
    index: dict[bytes, int] = {}
    owner = [index.setdefault(x.tobytes(), len(index)) for x in xs]
    unique = np.empty((len(index), prob.x_dim))
    unique[owner] = xs

    n, res = len(unique), grid.resolution
    lo = np.tile([b[0] for b in grid.y_box], (n, 1)).astype(float)
    hi = np.tile([b[1] for b in grid.y_box], (n, 1)).astype(float)
    reads_x = lambda f: min(f.reads, default=prob.x_dim) < prob.x_dim
    keyed = None if reads_x(prob.cost) else [f for f in prob.constraints if reads_x(f)]
    results: list = [None] * n
    active = np.arange(n)
    for level in range(refine + 1):
        last = level == refine
        if keyed is None:
            active = active[_search(prob, unique, lo, hi, active, res, last, results)]
        else:
            group = _group_rows(keyed, unique[active], lo[active], hi[active], res)
            heads = active[np.unique(group, return_index=True)[1]]
            shrunk = _search(prob, unique, lo, hi, heads, res, last, results)
            alone = []
            # a member takes its head's sample once the head finishes
            for r, head, moves_on in zip(active, heads[group], shrunk[group]):
                if r == head or moves_on:
                    continue
                sample = results[head]
                if isinstance(sample, InfeasibleOnBox):
                    alone.append(r)
                else:
                    results[r] = ValueSample(unique[r].copy(), sample.theta, sample.argmins, sample.step)
            # infeasible rows stop refining, so theirs is a last pass
            _search(prob, unique, lo, hi, np.array(alone, dtype=np.intp), res, True, results)
            # a member's box has its head's bytes and shrinks with it
            lo[active], hi[active] = lo[heads][group], hi[heads][group]
            active = active[shrunk[group]]
        if not active.size:
            break
    return [results[i] for i in owner]


def evaluate_value(
    prob: ParametricProblem,
    x: Sequence[float],
    grid: GridSpec,
    refine: int = 0,
) -> ValueSample:
    """evaluate_values at the one parameter x; raises InfeasibleOnBox
    when no grid point of the box is feasible."""
    xv = np.asarray(x, dtype=float)
    if xv.shape != (prob.x_dim,):
        raise ValueFnError(f"parameter must have dimension {prob.x_dim}")
    (out,) = evaluate_values(prob, xv[None, :], grid, refine)
    if isinstance(out, InfeasibleOnBox):
        raise out
    return out


# ---------------------------------------------------------------------------
# Inner semicontinuity of the argminimum mapping


@dataclass
class ISCReport:
    verdict: bool
    worst_x: np.ndarray | None
    worst_distance: float
    threshold: float


def _length(d: np.ndarray) -> float:
    """Euclidean norm of d; where its square overflows, the norm at scale
    s = max|d| as s * |d / s|, so a finite vector has a finite length."""
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(d))
    if math.isfinite(n):
        return n
    s = float(np.max(np.abs(d)))
    return s * float(np.linalg.norm(d / s)) if math.isfinite(s) else math.inf


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
    dirs = directions(prob.x_dim, max(2 * prob.x_dim, min(16, params.dirs_per_radius)), params.seed)
    stencil = [xb + r * dirs for r in params.radii]
    base, *values = evaluate_values(prob, np.vstack([xb, *stencil]), grid)
    if isinstance(base, InfeasibleOnBox):
        raise base
    feasible = all(ex.evaluate(f, p) <= TOL_GEOM for f in prob.constraints)
    if not feasible or ex.evaluate(prob.cost, p) > base.theta + 10 * TOL_ARG + 10 * base.step:
        raise ValueFnError("reference decision is not lower-level optimal on the grid")
    threshold = 10.0 * base.step
    worst_x, worst_d = None, 0.0
    verdict = True
    smallest = len(values) - len(dirs)  # the last radius's samples
    for i, sample in enumerate(values):
        if isinstance(sample, InfeasibleOnBox):
            continue
        dist = min(_length(yb - ym) for ym in sample.argmins)
        if dist > worst_d:
            worst_d, worst_x = dist, sample.x.copy()
        if i >= smallest and dist > threshold:
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
) -> list[dict]:
    """Hypothesis ledger for the inner-semicontinuity requirement; raises
    when the probe fails and no documented override applies."""
    report = inner_semicontinuity_probe(prob, point, grid, params)
    ledger: list[dict] = []
    record(
        ledger,
        "argminimum mapping inner semicontinuous at the candidate",
        "probed" if report.verdict else "overridden" if override_isc else "failed",
        {"worst_distance": report.worst_distance, "threshold": report.threshold},
        "inner semicontinuity probe failed (pass override_isc to proceed; "
        f"worst witness distance {report.worst_distance:.3g} at x = {report.worst_x})",
    )
    return ledger


def value_subdiff_estimate(
    prob: ParametricProblem,
    point: Sequence[float],
    grid: GridSpec,
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
    override_isc: bool = False,
) -> ValueEstimate:
    """Upper estimates for the value function's subdifferentials built
    from the cost subdifferential and the constraint-map coderivative:
    the basic estimate unions v + D*F(w) over vertices (v, w) of the cost
    subdifferential, the singular estimate is D*F(0)."""
    p = np.asarray(point, dtype=float)
    ledger = _isc_gate(prob, p, grid, params, override_isc)
    notes: list[str] = []
    spec = prob.graph_spec()
    cost_sub = sd.basic_subdifferential(prob.cost, p, params)
    if any(part.num_vertices > 1 for part in cost_sub.parts):
        notes.append(
            "estimate evaluated at cost-subdifferential vertices only; exact "
            "when the coderivative is piecewise linear in its argument"
        )
    vws = np.vstack([part.vertices for part in cost_sub.parts])
    ws = np.vstack([vws[:, prob.x_dim :], np.zeros((1, prob.y_dim))])
    *vertex_slices, zero_slices = sd.coderivative(spec, p, ws, params)
    parts: list[Polytope] = []
    for vw, slices in zip(vws, vertex_slices):
        for comp in slices:
            if not comp.recession.is_zero():
                raise ValueFnError(
                    "coderivative slice is unbounded; the basic estimate is "
                    "not a finite union of polytopes here"
                )
            parts.append(comp.base.translate(vw[: prob.x_dim]))
    if not parts:
        raise ValueFnError("empty basic estimate: coderivative slices were all empty")
    singular = []
    for comp in zero_slices:
        singular.append(
            ConeSpec(prob.x_dim, np.vstack([comp.recession.generators, comp.base.vertices]))
        )
    reason = {"reason": "expression class is Lipschitz by construction"}
    record(ledger, "cost function locally Lipschitz", "verified", reason)
    return ValueEstimate(
        basic=PolytopeUnion(parts),
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
) -> LipschitzVerdict:
    """Local Lipschitz continuity of the value function via the
    coderivative criterion on the constraint map, plus an empirical
    modulus from refined grid values at the sampling radii."""
    p = np.asarray(point, dtype=float)
    ledger = _isc_gate(prob, p, grid, params, override_isc)
    report = sd.lipschitz_like_check(prob.graph_spec(), p, params)
    status = "verified" if report.verdict else "failed"
    record(ledger, "constraint mapping Lipschitz-like at the candidate", status)
    xb = p[: prob.x_dim]
    dirs = directions(prob.x_dim, 2 * prob.x_dim, params.seed)
    stencil = [xb + r * dirs for r in params.radii]
    base, *values = evaluate_values(prob, np.vstack([xb, *stencil]), grid, refine=2)
    if isinstance(base, InfeasibleOnBox):
        raise base
    modulus = 0.0
    for i, sample in enumerate(values):
        if not isinstance(sample, InfeasibleOnBox):
            r = params.radii[i // len(dirs)]
            modulus = max(modulus, abs(sample.theta - base.theta) / r)
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
    radii = sorted(grid.stencil_radii())[:2]
    dirs = directions(n, max(params.dirs_per_radius, 2 * n), params.seed)
    stencil = [xv + r * dirs for r in radii]
    theta0, *values = evaluate_values(prob, np.vstack([xv, *stencil]), grid, refine=2)
    if isinstance(theta0, InfeasibleOnBox):
        raise theta0
    (slope,) = _argmin_cost_slopes(prob, [theta0])
    normals, offsets, quotients = [], [], []
    for i, sample in enumerate(values):
        if isinstance(sample, InfeasibleOnBox):
            continue
        r, d = radii[i // len(dirs)], dirs[i % len(dirs)]
        eps = 3.0 * (slope + 0.1) * theta0.step / r + 1e-6
        q = (sample.theta - theta0.theta) / r
        normals.append(d)
        offsets.append(q + eps)
        quotients.append(q)
    if not normals:
        raise ValueFnError("no stencil direction stayed feasible")
    bound = max(abs(q) for q in quotients) + 1.0
    corners = np.array(list(itertools.product((-bound, bound), repeat=n)))
    return clip_polytope(convex_hull(corners), np.array(normals), np.array(offsets))


def _argmin_cost_slopes(prob: ParametricProblem, samples: Sequence[ValueSample]) -> list[float]:
    """Per sample, a sampled bound on the cost's decision-variable slope
    near its argminimum set (controls the grid-snapping error of theta),
    from central differences at up to eight argmins, all samples in one
    eval_batch; a NaN difference counts for nothing."""
    if not samples:
        return []
    dim, m = prob.x_dim + prob.y_dim, prob.y_dim
    counts = [min(len(s.argmins), 8) for s in samples]
    ps = np.hstack([
        np.repeat([s.x for s in samples], counts, axis=0),
        np.concatenate([s.argmins[:8] for s in samples]),
    ])
    h = np.repeat(np.maximum([s.step for s in samples], 1e-7), counts)
    unit = np.zeros((m, dim))
    unit[:, prob.x_dim :] = np.eye(m)
    # rows p + e, p - e for each argmin p and axis step e, in that order
    signed = np.array([1.0, -1.0])[:, None] * (h[:, None, None] * unit)[:, :, None, :]
    vals = ex.eval_batch(prob.cost, (ps[:, None, None, :] + signed).reshape(-1, dim))
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN quotient, skipped below
        q = np.abs(vals[0::2] - vals[1::2]) / np.repeat(2 * h, m)
    # each sample's quotients behind a 0.0, the maximum skipping NaN
    starts = np.cumsum([0] + counts[:-1]) * m
    return np.fmax.reduceat(np.insert(q, starts, 0.0), starts + np.arange(len(samples))).tolist()
