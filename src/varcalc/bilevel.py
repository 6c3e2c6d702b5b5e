"""Optimistic bilevel programs via the value-function reformulation.

A candidate is certified against necessary stationarity systems by LP
feasibility over subdifferential polytopes: multipliers and a vector u in
the (convexified or regular) value-function subdifferential estimate must
reproduce the Lagrangian inclusions exactly.  A certificate asserts that
the multiplier system is solvable at the candidate; failing to find one
across all branch choices is reported with the tightest LP infeasibility
margin so the answer is usable contrapositively.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from varcalc import expr as ex
from varcalc import subdiff as sd
from varcalc import valuefn as vf
from varcalc.convgeom import Polytope, PolytopeUnion, TOL_GEOM, lp_weights
from varcalc.valuefn import HypothesisFailure, record

TOL_COMP = 1e-9

CAVEAT = (
    "Certificate of necessary stationarity conditions only: it does not "
    "certify optimality, and local minimizers of the original bilevel model "
    "need not coincide with those of its single-level reformulation."
)


class BilevelError(ValueError):
    pass


@dataclass(frozen=True)
class BilevelProblem:
    lower_cost: ex.FunctionDef  # phi(x, y)
    lower_constraints: tuple[ex.FunctionDef, ...]
    upper_cost: ex.FunctionDef  # psi(x, y)
    upper_constraints: tuple[ex.FunctionDef, ...]  # functions of x only
    x_dim: int
    y_dim: int

    def __post_init__(self):
        dim = self.x_dim + self.y_dim
        for f in (self.lower_cost, self.upper_cost) + self.lower_constraints:
            if f.space.dim != dim:
                raise BilevelError("lower/upper costs and lower constraints live in (x, y)")
        for g in self.upper_constraints:
            if g.space.dim != self.x_dim:
                raise BilevelError("upper constraints are functions of x only")
        if not self.lower_constraints:
            raise BilevelError("the lower level needs at least one constraint")

    def lower(self) -> vf.ParametricProblem:
        return vf.ParametricProblem(
            self.lower_cost, self.lower_constraints, self.x_dim, self.y_dim
        )


@dataclass(frozen=True)
class LipschitzProgram:
    objective: ex.FunctionDef
    inequality_constraints: tuple[ex.FunctionDef, ...]

    def __post_init__(self):
        for f in self.inequality_constraints:
            if f.space != self.objective.space:
                raise BilevelError("program functions live in different spaces")


@dataclass
class StationarityCertificate:
    theorem_id: str
    multipliers: dict
    u: np.ndarray | None
    kappa: float | None
    branch_choices: dict
    residuals: dict
    ledger: list[dict]
    caveat: str = CAVEAT


@dataclass
class NoCertificate:
    """No branch combination gave a certificate.  ``margin`` is the least
    infeasibility margin, reached first by ``tightest_branches`` (one
    branch index per term, in search order), out of
    ``combinations_tried`` combinations."""

    theorem_id: str
    margin: float
    ledger: list[dict]
    tightest_branches: tuple[int, ...]
    combinations_tried: int
    caveat: str = CAVEAT


# ---------------------------------------------------------------------------
# Fritz John / KKT conditions for single-level Lipschitz programs


def check_lipschitz_kkt(
    prog: LipschitzProgram,
    x: Sequence[float],
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
) -> StationarityCertificate | NoCertificate:
    """Necessary conditions for a Lipschitz program: nonnegative
    multipliers, complementary slackness (inactive multipliers pinned to
    zero), nontriviality via the sum-to-one normalization, and the zero
    inclusion in the weighted subdifferential sum.  A separate LP tests
    the generalized constraint qualification; when it holds, the
    certificate is re-solved and reported with the cost multiplier at 1.
    """
    p = np.asarray(x, dtype=float)
    for f in prog.inequality_constraints:
        if ex.evaluate(f, p) > TOL_GEOM:
            raise BilevelError("candidate is infeasible")
    active = sd.active_constraints(prog.inequality_constraints, p)
    obj_sub = sd.basic_subdifferential(prog.objective, p, params)
    act_subs = [
        sd.basic_subdifferential(prog.inequality_constraints[i], p, params) for i in active
    ]

    # generalized constraint qualification over the active subdifferentials
    unions = [obj_sub] + act_subs
    sd.check_combinations((len(u.parts) for u in unions), "the KKT search")
    mfcq_witness = sd.qualification_witness(act_subs)
    mfcq_holds = mfcq_witness is None

    ledger: list[dict] = []
    status = "verified" if mfcq_holds else "failed"
    record(ledger, "generalized constraint qualification at the candidate", status, mfcq_witness)

    m = len(prog.inequality_constraints)
    best_margin, best_combo, tried = math.inf, (), 0
    for combo in itertools.product(*(range(len(u.parts)) for u in unions)):
        tried += 1
        out = sd.zero_combination([u.parts[i] for u, i in zip(unions, combo)])
        if isinstance(out, float):
            if out < best_margin:
                best_margin, best_combo = out, combo
            continue
        lams, vecs = out
        if mfcq_holds and lams[0] <= TOL_COMP:
            # qualification guarantees a certificate with a positive cost
            # multiplier; keep searching for one
            if 0.0 < best_margin:
                best_margin, best_combo = 0.0, combo
            continue
        scale = lams[0] if lams[0] > TOL_COMP else 1.0
        lam_full = np.zeros(m)
        for idx, i in enumerate(active):
            lam_full[i] = lams[idx + 1] / scale
        residual = float(
            np.max(np.abs(sum(l * v for l, v in zip(lams, vecs))))
        )
        comp = [
            abs(lam_full[i] * ex.evaluate(prog.inequality_constraints[i], p))
            for i in range(m)
        ]
        return StationarityCertificate(
            theorem_id="T6.1",
            multipliers={
                "lambda0": float(lams[0] / scale),
                "lambda": lam_full.tolist(),
                "vectors": [v.tolist() for v in vecs],
            },
            u=None,
            kappa=None,
            branch_choices={"parts": [combo[0]]},
            residuals={
                "lagrangian_inclusion": residual / scale,
                "complementary_slackness": max(comp, default=0.0),
            },
            ledger=ledger,
        )
    return NoCertificate("T6.1", best_margin, ledger, best_combo, tried)


# ---------------------------------------------------------------------------
# Penalization


@dataclass
class PenalizedProgram:
    """Single-level penalized program; the value-function term in the
    objective is grid backed, not an expression, so its subdifferential
    is handled through the value-function estimates downstream."""

    problem: BilevelProblem
    kappa: float
    grid: vf.GridSpec
    value_term_is_grid_backed: bool = True

    def objective_value(self, x: Sequence[float], y: Sequence[float]) -> float:
        xv = np.asarray(x, dtype=float)
        p = np.concatenate([xv, np.asarray(y, dtype=float)])
        theta = vf.evaluate_value(self.problem.lower(), xv, self.grid).theta
        return float(
            ex.evaluate(self.problem.upper_cost, p)
            + self.kappa * (ex.evaluate(self.problem.lower_cost, p) - theta)
        )


def build_penalized(bp: BilevelProblem, kappa: float, grid: vf.GridSpec) -> PenalizedProgram:
    if kappa <= 0:
        raise BilevelError("penalty constant must be positive")
    return PenalizedProgram(bp, float(kappa), grid)


def penalized_grid_search(
    bp: BilevelProblem, kappa: float, box: tuple[float, float], step: float, grid: vf.GridSpec
) -> tuple[np.ndarray, float]:
    """Exhaustive grid minimizer of the penalized objective over a square
    (x, y) box; supports one parameter and one decision variable."""
    if bp.x_dim != 1 or bp.y_dim != 1:
        raise BilevelError("grid search supports x_dim = y_dim = 1")
    lo, hi = box
    n = int(round((hi - lo) / step)) + 1
    xs = np.linspace(lo, hi, n)
    ys = np.linspace(lo, hi, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    mask = np.ones(pts.shape[0], dtype=bool)
    for f in bp.lower_constraints:
        mask &= ex.eval_batch(f, pts) <= TOL_GEOM
    for g in bp.upper_constraints:
        mask &= ex.eval_batch(g, pts[:, :1]) <= TOL_GEOM
    phi = ex.eval_batch(bp.lower_cost, pts).reshape(n, n)
    psi = ex.eval_batch(bp.upper_cost, pts).reshape(n, n)
    feas = mask.reshape(n, n)
    phi_masked = np.where(feas, phi, np.inf)
    theta = phi_masked.min(axis=1)  # per x row
    objective = np.where(feas, psi + kappa * (phi - theta[:, None]), np.inf)
    idx = int(np.argmin(objective))
    i, j = divmod(idx, n)
    return np.array([xs[i], ys[j]]), float(objective[i, j])


# ---------------------------------------------------------------------------
# Partial calmness probe


@dataclass
class CalmnessProbeReport:
    kappa_validated: float | None
    kappa_grid: tuple[float, ...]
    violations: list[dict]
    samples_checked: int
    value_accuracy: float


DEFAULT_KAPPA_GRID = tuple(float(2**j) for j in range(0, 21))


def _bilevel_feasible(bp: BilevelProblem, point: np.ndarray, grid: vf.GridSpec) -> float:
    """Check feasibility for the reformulated problem; returns theta(x)."""
    xv, yv = point[: bp.x_dim], point[bp.x_dim :]
    for f in bp.lower_constraints:
        if ex.evaluate(f, point) > TOL_GEOM:
            raise BilevelError("candidate violates a lower-level constraint")
    for g in bp.upper_constraints:
        if ex.evaluate(g, xv) > TOL_GEOM:
            raise BilevelError("candidate violates an upper-level constraint")
    sample = vf.evaluate_value(bp.lower(), xv, grid, refine=2)
    if ex.evaluate(bp.lower_cost, point) > sample.theta + vf.TOL_ARG + 2 * sample.step:
        raise BilevelError("candidate decision is not lower-level optimal")
    return sample.theta


def partial_calmness_probe(
    bp: BilevelProblem,
    point: Sequence[float],
    kappa_grid: Sequence[float] = DEFAULT_KAPPA_GRID,
    grid: vf.GridSpec | None = None,
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
) -> CalmnessProbeReport:
    """Sample feasible pairs near the candidate and test the linear
    penalization inequality for each penalty constant in the grid.  The
    value term carries a documented grid-accuracy allowance; the report
    returns the smallest validated constant or the violating witnesses.
    """
    if grid is None:
        raise BilevelError("a value-function grid is required")
    p = np.asarray(point, dtype=float)
    _bilevel_feasible(bp, p, grid)
    return _calmness_probe(bp, p, kappa_grid, grid, params)


def _calmness_probe(
    bp: BilevelProblem,
    p: np.ndarray,
    kappa_grid: Sequence[float],
    grid: vf.GridSpec,
    params: sd.SampleParams,
) -> CalmnessProbeReport:
    """partial_calmness_probe at a candidate already checked feasible."""
    psi_ref = ex.evaluate(bp.upper_cost, p)
    dim = bp.x_dim + bp.y_dim
    dirs = params.directions(dim)
    lower = bp.lower()

    samples: list[tuple[np.ndarray, float, float]] = []  # (point, psi diff, |nu|)
    accuracy = 0.0
    qs = np.vstack([p + r * dirs for r in params.radii])
    feasible = np.ones(qs.shape[0], dtype=bool)
    for f in bp.lower_constraints:
        feasible &= ex.eval_batch(f, qs) <= TOL_GEOM
    for g in bp.upper_constraints:
        feasible &= ex.eval_batch(g, qs[:, : bp.x_dim]) <= TOL_GEOM
    qs = qs[feasible]
    phis = ex.eval_batch(bp.lower_cost, qs).tolist()
    psis = ex.eval_batch(bp.upper_cost, qs).tolist()
    xqs = qs[:, : bp.x_dim]
    values = vf.evaluate_values(lower, xqs, grid, refine=2)
    # parameters equal to 12 decimals share theta: each such key takes the
    # value at its first sample feasible on the box, and its samples before
    # that one are skipped
    keys = list(map(tuple, np.round(xqs, 12).tolist()))
    heads: dict[tuple, int] = {}
    for i, (key, s) in enumerate(zip(keys, values)):
        if key not in heads and not isinstance(s, vf.InfeasibleOnBox):
            heads[key] = i
    slopes = vf._argmin_cost_slopes(lower, [values[i] for i in heads.values()])
    errs = {
        key: 2.0 * values[i].step * (slope + 1.0) for (key, i), slope in zip(heads.items(), slopes)
    }
    for i, (q, phi, psi) in enumerate(zip(qs, phis, psis)):
        head = heads.get(keys[i])
        if head is None or head > i:
            continue
        theta, err = values[head].theta, errs[keys[i]]
        accuracy = max(accuracy, err)
        nu = theta - phi
        samples.append((q, psi - psi_ref, max(0.0, abs(nu) - err)))

    violations: list[dict] = []
    kappa_validated = None
    for kappa in kappa_grid:
        bad = [
            {"point": q.tolist(), "margin": float(dpsi + kappa * nu_abs)}
            for q, dpsi, nu_abs in samples
            if dpsi + kappa * nu_abs < -TOL_COMP
        ]
        if not bad:
            kappa_validated = float(kappa)
            break
        violations = bad[:8]
    return CalmnessProbeReport(
        kappa_validated=kappa_validated,
        kappa_grid=tuple(float(k) for k in kappa_grid),
        violations=violations,
        samples_checked=len(samples),
        value_accuracy=accuracy,
    )


# ---------------------------------------------------------------------------
# Lower- and upper-level regularity


@dataclass
class RegularityReport:
    lower_regular: bool
    upper_regular: bool
    lower_witness: dict | None
    upper_witness: dict | None


def regularity_check(
    bp: BilevelProblem,
    point: Sequence[float],
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
) -> RegularityReport:
    """Constraint qualifications for the two levels: no nonzero
    nonnegative multipliers annihilate the active lower-level constraint
    subgradients in the decision block, or the active upper-level
    subgradients in the parameter space."""
    p = np.asarray(point, dtype=float)
    xv = p[: bp.x_dim]

    lower_unions = []
    for i in sd.active_constraints(bp.lower_constraints, p):
        full = sd.basic_subdifferential(bp.lower_constraints[i], p, params)
        lower_unions.append(
            PolytopeUnion.create(
                [Polytope.create(part.vertices[:, bp.x_dim :]) for part in full.parts]
            )
        )
    lower_witness = sd.qualification_witness(lower_unions)

    upper_unions = [
        sd.basic_subdifferential(bp.upper_constraints[j], xv, params)
        for j in sd.active_constraints(bp.upper_constraints, xv)
    ]
    upper_witness = sd.qualification_witness(upper_unions)

    return RegularityReport(
        lower_regular=lower_witness is None,
        upper_regular=upper_witness is None,
        lower_witness=lower_witness,
        upper_witness=upper_witness,
    )


# ---------------------------------------------------------------------------
# Certifiers


def _embed_x_block(vertices: np.ndarray, n: int, m: int) -> np.ndarray:
    out = np.zeros((vertices.shape[0], n + m))
    out[:, :n] = vertices
    return out


@dataclass(frozen=True)
class _Term:
    """One summand of a Lagrangian inclusion, as the vertex array of each
    branch it may take.  A convex term is a cost subgradient: its weights
    sum to one, and ``key``, if set, names its branch in
    ``branch_choices``.  Any other term is a constraint's, and its weight
    sum is the multiplier ``key[index]``."""

    choices: tuple[np.ndarray, ...]
    convex: bool
    key: str | None = None
    index: int = 0


def _term(parts: Sequence[Polytope], convex: bool, key: str | None = None, index: int = 0) -> _Term:
    return _Term(tuple(P.vertices for P in parts), convex, key, index)


def _hypothesis_gate(
    bp: BilevelProblem,
    point: np.ndarray,
    kappa: float,
    grid: vf.GridSpec,
    params: sd.SampleParams,
    override_calmness: bool,
    need_upper: bool,
) -> list[dict]:
    if not (math.isfinite(kappa) and kappa > 0):
        raise BilevelError(f"penalty constant must be finite and positive, got {kappa}")
    ledger: list[dict] = []
    _bilevel_feasible(bp, point, grid)
    record(ledger, "candidate feasible for the reformulated problem", "verified")
    reg = regularity_check(bp, point, params)
    levels = {"lower": (reg.lower_regular, reg.lower_witness)}
    if need_upper:
        levels["upper"] = (reg.upper_regular, reg.upper_witness)
    for level, (regular, witness) in levels.items():
        record(ledger, f"{level}-level regularity", "verified" if regular else "failed", witness)
    if not all(regular for regular, _ in levels.values()):
        raise HypothesisFailure("regularity condition failed at the candidate", ledger)
    calmness = f"partial calmness with constant {kappa}"
    if override_calmness:
        record(ledger, calmness, "overridden")
    else:
        probe = _calmness_probe(bp, point, (kappa,), grid, params)
        record(
            ledger,
            calmness,
            "probed" if probe.kappa_validated is not None else "failed",
            {"samples": probe.samples_checked, "violations": probe.violations[:3]},
            "partial calmness probe failed at this penalty constant "
            "(pass override_calmness to proceed)",
        )
    return ledger


def _branch_subdiffs(
    bp: BilevelProblem, p: np.ndarray, params: sd.SampleParams
) -> tuple[PolytopeUnion, PolytopeUnion, dict[int, PolytopeUnion]]:
    """Basic subdifferentials at p of the lower cost, the upper cost and
    each active lower constraint (keyed by its index)."""
    phi = sd.basic_subdifferential(bp.lower_cost, p, params)
    psi = sd.basic_subdifferential(bp.upper_cost, p, params)
    f = {
        i: sd.basic_subdifferential(bp.lower_constraints[i], p, params)
        for i in sd.active_constraints(bp.lower_constraints, p)
    }
    return phi, psi, f


def _penalized_terms(
    phi_sub: PolytopeUnion, psi_sub: PolytopeUnion, f_subs: dict, kappa: float, phi_key: str
) -> list[_Term]:
    """u = phi' + psi'/kappa + sum_i lambda_i f_i', one branch of each."""
    return [
        _term(phi_sub.parts, True, phi_key),
        _Term(tuple(P.vertices / kappa for P in psi_sub.parts), True, "psi_part"),
    ] + [_term(u.parts, False, "lambda", i) for i, u in f_subs.items()]


def _certificate_search(
    theorem_id: str,
    bp: BilevelProblem,
    p: np.ndarray,
    kappa: float,
    u_vertices: np.ndarray,
    inclusions: tuple[tuple[str, list[_Term]], tuple[str, list[_Term]]],
    ledger: list[dict],
) -> StationarityCertificate | NoCertificate:
    """Find u in the hull of ``u_vertices`` (rows over x) and multipliers
    with u equal to the sum of each inclusion's terms: one joint LP per
    branch combination of the terms of both inclusions, in order.  The
    first feasible combination is the certificate; otherwise the tightest
    infeasibility margin is reported.  ``inclusions`` pairs each term
    list with the name of its residual."""
    (name1, eq1), (name2, eq2) = inclusions
    terms = eq1 + eq2
    sd.check_combinations((len(t.choices) for t in terms), "the certificate search")
    u_block = _embed_x_block(u_vertices, bp.x_dim, bp.y_dim)
    best_margin, best_combo, tried = math.inf, (), 0
    for combo in itertools.product(*(range(len(t.choices)) for t in terms)):
        tried += 1
        blocks = [(t.choices[i], t.convex) for t, i in zip(terms, combo)]
        outcome = _joint_membership(u_block, blocks[: len(eq1)], blocks[len(eq1) :])
        if isinstance(outcome, float):
            if outcome < best_margin:
                best_margin, best_combo = outcome, combo
            continue
        w_u, weights = outcome[0], outcome[1:]
        residuals = {}
        for name, span in ((name1, range(len(eq1))), (name2, range(len(eq1), len(terms)))):
            total = u_block.T @ w_u
            for k in span:
                total -= blocks[k][0].T @ weights[k]
            residuals[name] = float(np.max(np.abs(total)))
        multipliers = {
            "nu": np.zeros(len(bp.lower_constraints)),
            "lambda": np.zeros(len(bp.lower_constraints)),
            "mu": np.zeros(len(bp.upper_constraints)),
        }
        for t, w in zip(terms, weights):
            if not t.convex:
                multipliers[t.key][t.index] = float(w.sum())
        residuals["complementary_slackness"] = _complementarity(bp, p, multipliers)
        return StationarityCertificate(
            theorem_id=theorem_id,
            multipliers={k: v.tolist() for k, v in multipliers.items()},
            u=u_vertices.T @ w_u,
            kappa=float(kappa),
            branch_choices={t.key: i for t, i in zip(terms, combo) if t.convex and t.key},
            residuals=residuals,
            ledger=ledger,
        )
    return NoCertificate(theorem_id, best_margin, ledger, best_combo, tried)


def _joint_membership(u: np.ndarray, eq1: list, eq2: list) -> list[np.ndarray] | float:
    """Feasibility LP of u = sum of the blocks of eq1 and u = sum of the
    blocks of eq2, with u a convex combination of the rows of ``u`` shared
    by both.  A block is (vertices, convex): a nonnegative combination of
    its rows, whose weights sum to one when convex.  Both equations live in
    one stacked space: u's rows enter as [u, u], eq1's blocks as [-V, 0]
    and eq2's as [0, -V], with target zero.  Returns the weights of u and
    of each block, or the infeasibility margin."""
    zero = np.zeros_like
    blocks = [(np.hstack([u, u]), "convex")]
    blocks += [(np.hstack([-V, zero(V)]), "convex" if convex else "free") for V, convex in eq1]
    blocks += [(np.hstack([zero(V), -V]), "convex" if convex else "free") for V, convex in eq2]
    return lp_weights(np.zeros(2 * u.shape[1]), blocks, "the certificate search")


def _complementarity(bp: BilevelProblem, p: np.ndarray, multipliers: dict) -> float:
    worst = 0.0
    for i, f in enumerate(bp.lower_constraints):
        v = ex.evaluate(f, p)
        worst = max(worst, abs(multipliers["lambda"][i] * v), abs(multipliers["nu"][i] * v))
    for j, g in enumerate(bp.upper_constraints):
        worst = max(worst, abs(multipliers["mu"][j] * ex.evaluate(g, p[: bp.x_dim])))
    return worst


def certify_T74(
    bp: BilevelProblem,
    point: Sequence[float],
    kappa: float,
    grid: vf.GridSpec,
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
    override_calmness: bool = False,
    override_isc: bool = False,
) -> StationarityCertificate | NoCertificate:
    """Stationarity certificate from the convexified value-function
    estimate: one joint LP per branch combination finds u in the
    convexified estimate together with multipliers reproducing both
    Lagrangian inclusions (the convexified one and the penalized one with
    the upper-level cost scaled by 1/kappa); u is shared between the two.
    """
    p = np.asarray(point, dtype=float)
    n, m = bp.x_dim, bp.y_dim
    ledger = _hypothesis_gate(bp, p, kappa, grid, params, override_calmness, need_upper=True)
    try:
        estimate = vf.value_subdiff_estimate(
            bp.lower(), p, grid, params, override_isc=override_isc
        )
    except HypothesisFailure as err:
        err.ledger[:0] = ledger
        raise
    ledger.extend(estimate.ledger)
    u_range = "u ranges over an outer estimate of the convexified value-function subdifferential"
    record(ledger, u_range, "probed", {"notes": estimate.notes})
    xv = p[:n]
    phi_sub, psi_sub, f_subs = _branch_subdiffs(bp, p, params)
    g_subs = {
        j: PolytopeUnion.create(
            [
                Polytope.create(_embed_x_block(part.vertices, n, m))
                for part in sd.basic_subdifferential(bp.upper_constraints[j], xv, params).parts
            ]
        )
        for j in sd.active_constraints(bp.upper_constraints, xv)
    }
    convexified = [_term([phi_sub.hull()], True)] + [
        _term([u.hull()], False, "nu", i) for i, u in f_subs.items()
    ]
    penalized = _penalized_terms(phi_sub, psi_sub, f_subs, kappa, "phi_part") + [
        _term(u.parts, False, "mu", j) for j, u in g_subs.items()
    ]
    return _certificate_search(
        "T7.4",
        bp,
        p,
        kappa,
        estimate.basic.hull().vertices,
        (("convexified_inclusion", convexified), ("penalized_inclusion", penalized)),
        ledger,
    )


def certify_T83(
    bp: BilevelProblem,
    point: Sequence[float],
    kappa: float,
    grid: vf.GridSpec,
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
    override_calmness: bool = False,
) -> StationarityCertificate | NoCertificate:
    """Refined certificate without convexification: u ranges over a
    numerically built outer approximation of the value function's regular
    subdifferential, and both inclusions use the raw subdifferential
    union branches.  Only applies without upper-level constraints."""
    p = np.asarray(point, dtype=float)
    if bp.upper_constraints:
        count = {"count": len(bp.upper_constraints)}
        failure = "the refined certificate applies only without upper-level constraints"
        record([], "no upper-level constraints", "failed", count, failure)
    ledger = _hypothesis_gate(bp, p, kappa, grid, params, override_calmness, need_upper=False)
    reg_theta = vf.regular_value_subdiff_outer(bp.lower(), p[: bp.x_dim], grid, params)
    record(
        ledger,
        "regular subdifferential of the value function nonempty",
        "probed" if reg_theta is not None else "failed",
        {"representation": "outer approximation from difference quotients"},
        "the regular subdifferential of the value function is empty "
        "(outer approximation found no candidate)",
    )
    phi_sub, psi_sub, f_subs = _branch_subdiffs(bp, p, params)
    regular = [_term(phi_sub.parts, True, "phi_part_first")] + [
        _term(u.parts, False, "nu", i) for i, u in f_subs.items()
    ]
    penalized = _penalized_terms(phi_sub, psi_sub, f_subs, kappa, "phi_part_second")
    return _certificate_search(
        "T8.3",
        bp,
        p,
        kappa,
        reg_theta.vertices,
        (("regular_inclusion", regular), ("penalized_inclusion", penalized)),
        ledger,
    )


def certify_with_kappa_sweep(
    certifier,
    bp: BilevelProblem,
    point: Sequence[float],
    kappa_grid: Sequence[float],
    grid: vf.GridSpec,
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
    **kwargs,
) -> StationarityCertificate | NoCertificate:
    """Try the certifier at each penalty constant in order and return the
    first success (the theory fixes the constant from partial calmness
    but offers no selection rule)."""
    last: StationarityCertificate | NoCertificate | None = None
    failure: HypothesisFailure | None = None
    for kappa in kappa_grid:
        try:
            out = certifier(bp, point, kappa, grid, params, **kwargs)
        except HypothesisFailure as err:
            failure = err
            continue
        if isinstance(out, StationarityCertificate):
            return out
        last = out
    if last is not None:
        return last
    if failure is not None:
        raise failure
    raise BilevelError("empty penalty-constant grid")
