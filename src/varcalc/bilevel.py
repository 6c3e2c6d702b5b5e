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
from varcalc.convgeom import (
    LinearConstraint,
    LPFeasible,
    LPInfeasible,
    LPProblem,
    Polytope,
    PolytopeUnion,
    TOL_GEOM,
    lp_feasible,
)

MAX_COMBOS = 4096
TOL_COMP = 1e-9

CAVEAT = (
    "Certificate of necessary stationarity conditions only: it does not "
    "certify optimality, and local minimizers of the original bilevel model "
    "need not coincide with those of its single-level reformulation."
)


class BilevelError(ValueError):
    pass


class HypothesisFailure(BilevelError):
    def __init__(self, message: str, ledger: list[dict]):
        super().__init__(message)
        self.ledger = ledger


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
    theorem_id: str
    margin: float
    ledger: list[dict]
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
    active = [
        i
        for i, f in enumerate(prog.inequality_constraints)
        if abs(ex.evaluate(f, p)) <= TOL_GEOM
    ]
    obj_sub = sd.basic_subdifferential(prog.objective, p, params)
    act_subs = [
        sd.basic_subdifferential(prog.inequality_constraints[i], p, params) for i in active
    ]

    # generalized constraint qualification over the active subdifferentials
    mfcq_holds = True
    mfcq_witness = None
    if active:
        for combo in itertools.product(*(u.parts for u in act_subs)):
            out = sd.zero_combination(list(combo))
            if not isinstance(out, float):
                mfcq_holds = False
                lams, vecs = out
                top = float(lams.max())
                mfcq_witness = {
                    "multipliers": (lams / top).tolist(),
                    "vectors": [v.tolist() for v in vecs],
                }
                break

    ledger = [
        {
            "hypothesis": "generalized constraint qualification at the candidate",
            "status": "verified" if mfcq_holds else "failed",
            "detail": mfcq_witness or {},
        }
    ]

    m = len(prog.inequality_constraints)
    best_margin = math.inf
    combos = list(itertools.product(*((u.parts for u in [obj_sub] + act_subs))))
    if len(combos) > MAX_COMBOS:
        raise sd.CombinatorialOverflow("too many branch choices in the KKT search")
    for combo in combos:
        out = sd.zero_combination(list(combo))
        if isinstance(out, float):
            best_margin = min(best_margin, out)
            continue
        lams, vecs = out
        if mfcq_holds and lams[0] <= TOL_COMP:
            # qualification guarantees a certificate with a positive cost
            # multiplier; keep searching for one
            best_margin = min(best_margin, 0.0)
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
            branch_choices={"parts": [int(obj_sub.parts.index(combo[0]))]},
            residuals={
                "lagrangian_inclusion": residual / scale,
                "complementary_slackness": max(comp, default=0.0),
            },
            ledger=ledger,
        )
    return NoCertificate("T6.1", best_margin, ledger)


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
    keys = [tuple(np.round(xq, 12)) for xq in xqs]
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

    def violation(unions: list[PolytopeUnion]) -> dict | None:
        if not unions:
            return None
        for combo in itertools.product(*(u.parts for u in unions)):
            out = sd.zero_combination(list(combo))
            if not isinstance(out, float):
                lams, vecs = out
                top = float(lams.max())
                return {
                    "multipliers": (lams / top).tolist(),
                    "vectors": [v.tolist() for v in vecs],
                }
        return None

    lower_unions = []
    for f in bp.lower_constraints:
        if abs(ex.evaluate(f, p)) <= TOL_GEOM:
            full = sd.basic_subdifferential(f, p, params)
            lower_unions.append(
                PolytopeUnion.create(
                    [Polytope.create(part.vertices[:, bp.x_dim :]) for part in full.parts]
                )
            )
    lower_witness = violation(lower_unions)

    upper_unions = []
    for g in bp.upper_constraints:
        if abs(ex.evaluate(g, xv)) <= TOL_GEOM:
            upper_unions.append(sd.basic_subdifferential(g, xv, params))
    upper_witness = violation(upper_unions)

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


@dataclass
class _Block:
    vertices: np.ndarray  # (k, rows-dim contribution per equation block)
    convex: bool  # sum of weights == 1
    label: str


def _membership_rows(
    blocks: list[_Block], eq_dim: int, signs: list[float]
) -> tuple[list[LinearConstraint], int]:
    """Equality rows sum_b sign_b * (weights_b @ vertices_b) = 0 plus the
    convexity rows; returns the constraints and the variable count."""
    sizes = [b.vertices.shape[0] for b in blocks]
    nvars = sum(sizes)
    cons: list[LinearConstraint] = []
    for d in range(eq_dim):
        row = np.zeros(nvars)
        off = 0
        for b, s, k in zip(blocks, signs, sizes):
            row[off : off + k] = s * b.vertices[:, d]
            off += k
        cons.append(LinearConstraint(row, "==", 0.0))
    off = 0
    for b, k in zip(blocks, sizes):
        if b.convex:
            row = np.zeros(nvars)
            row[off : off + k] = 1.0
            cons.append(LinearConstraint(row, "==", 1.0))
        off += k
    return cons, nvars


def _hypothesis_gate(
    bp: BilevelProblem,
    point: np.ndarray,
    kappa: float,
    grid: vf.GridSpec,
    params: sd.SampleParams,
    override_calmness: bool,
    need_upper: bool,
) -> list[dict]:
    ledger: list[dict] = []
    _bilevel_feasible(bp, point, grid)
    ledger.append(
        {"hypothesis": "candidate feasible for the reformulated problem", "status": "verified", "detail": {}}
    )
    reg = regularity_check(bp, point, params)
    ledger.append(
        {
            "hypothesis": "lower-level regularity",
            "status": "verified" if reg.lower_regular else "failed",
            "detail": reg.lower_witness or {},
        }
    )
    if need_upper:
        ledger.append(
            {
                "hypothesis": "upper-level regularity",
                "status": "verified" if reg.upper_regular else "failed",
                "detail": reg.upper_witness or {},
            }
        )
    if not reg.lower_regular or (need_upper and not reg.upper_regular):
        raise HypothesisFailure("regularity condition failed at the candidate", ledger)
    if kappa <= 0:
        raise BilevelError("penalty constant must be positive")
    if override_calmness:
        ledger.append(
            {"hypothesis": f"partial calmness with constant {kappa}", "status": "overridden", "detail": {}}
        )
    else:
        probe = partial_calmness_probe(bp, point, (kappa,), grid, params)
        ok = probe.kappa_validated is not None
        ledger.append(
            {
                "hypothesis": f"partial calmness with constant {kappa}",
                "status": "probed" if ok else "failed",
                "detail": {
                    "samples": probe.samples_checked,
                    "violations": probe.violations[:3],
                },
            }
        )
        if not ok:
            raise HypothesisFailure(
                "partial calmness probe failed at this penalty constant "
                "(pass override_calmness to proceed)",
                ledger,
            )
    return ledger


def _active_lower(bp: BilevelProblem, p: np.ndarray) -> list[int]:
    return [
        i
        for i, f in enumerate(bp.lower_constraints)
        if abs(ex.evaluate(f, p)) <= TOL_GEOM
    ]


def _active_upper(bp: BilevelProblem, xv: np.ndarray) -> list[int]:
    return [
        j
        for j, g in enumerate(bp.upper_constraints)
        if abs(ex.evaluate(g, xv)) <= TOL_GEOM
    ]


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
    estimate = vf.value_subdiff_estimate(
        bp.lower(), p, grid, params, override_isc=override_isc
    )
    ledger.extend(estimate.ledger)
    ledger.append(
        {
            "hypothesis": "u ranges over an outer estimate of the convexified "
            "value-function subdifferential",
            "status": "probed",
            "detail": {"notes": estimate.notes},
        }
    )
    co_theta = estimate.basic.hull()
    xv = p[:n]
    act_f = _active_lower(bp, p)
    act_g = _active_upper(bp, xv)

    phi_sub = sd.basic_subdifferential(bp.lower_cost, p, params)
    psi_sub = sd.basic_subdifferential(bp.upper_cost, p, params)
    f_subs = [sd.basic_subdifferential(bp.lower_constraints[i], p, params) for i in act_f]
    g_subs = [
        PolytopeUnion.create(
            [
                Polytope.create(_embed_x_block(part.vertices, n, m))
                for part in sd.basic_subdifferential(bp.upper_constraints[j], xv, params).parts
            ]
        )
        for j in act_g
    ]
    co_phi = phi_sub.hull()
    co_f = [u.hull() for u in f_subs]

    u_block = _Block(_embed_x_block(co_theta.vertices, n, m), True, "u")
    combo_sets = [phi_sub.parts, psi_sub.parts] + [u.parts for u in f_subs] + [
        u.parts for u in g_subs
    ]
    combos = list(itertools.product(*combo_sets))
    if len(combos) > MAX_COMBOS:
        raise sd.CombinatorialOverflow("too many branch combinations in the certificate search")

    best_margin = math.inf
    for combo in combos:
        phi_part, psi_part = combo[0], combo[1]
        f_parts = combo[2 : 2 + len(f_subs)]
        g_parts = combo[2 + len(f_subs) :]
        # equation 1 (convexified): u block minus hull terms
        blocks1 = [u_block, _Block(co_phi.vertices, True, "co_phi")]
        signs1 = [1.0, -1.0]
        for i, P in enumerate(co_f):
            blocks1.append(_Block(P.vertices, False, f"co_f{i}"))
            signs1.append(-1.0)
        # equation 2 (penalized): u block minus branch terms
        blocks2 = [u_block, _Block(phi_part.vertices, True, "phi")]
        signs2 = [1.0, -1.0]
        blocks2.append(_Block(psi_part.vertices / kappa, True, "psi_over_kappa"))
        signs2.append(-1.0)
        for i, P in enumerate(f_parts):
            blocks2.append(_Block(P.vertices, False, f"f{i}"))
            signs2.append(-1.0)
        for j, P in enumerate(g_parts):
            blocks2.append(_Block(P.vertices, False, f"g{j}"))
            signs2.append(-1.0)

        outcome = _joint_membership(blocks1, signs1, blocks2, signs2, n + m)
        if isinstance(outcome, float):
            best_margin = min(best_margin, outcome)
            continue
        w1, w2 = outcome
        u = co_theta.vertices.T @ w1["u"]
        nu = np.zeros(len(bp.lower_constraints))
        for i, idx in enumerate(act_f):
            nu[idx] = float(w1[f"co_f{i}"].sum())
        lam = np.zeros(len(bp.lower_constraints))
        for i, idx in enumerate(act_f):
            lam[idx] = float(w2[f"f{i}"].sum())
        mu = np.zeros(len(bp.upper_constraints))
        for j, idx in enumerate(act_g):
            mu[idx] = float(w2[f"g{j}"].sum())
        res1 = _residual(u_block.vertices.T @ w1["u"], blocks1[1:], signs1[1:], w1)
        res2 = _residual(u_block.vertices.T @ w2["u"], blocks2[1:], signs2[1:], w2)
        comp = _complementarity(bp, p, xv, lam, mu, nu)
        return StationarityCertificate(
            theorem_id="T7.4",
            multipliers={"nu": nu.tolist(), "lambda": lam.tolist(), "mu": mu.tolist()},
            u=u,
            kappa=float(kappa),
            branch_choices={
                "phi_part": phi_sub.parts.index(phi_part),
                "psi_part": psi_sub.parts.index(psi_part),
            },
            residuals={
                "convexified_inclusion": res1,
                "penalized_inclusion": res2,
                "complementary_slackness": comp,
            },
            ledger=ledger,
        )
    return NoCertificate("T7.4", best_margin, ledger)


def _joint_membership(blocks1, signs1, blocks2, signs2, eq_dim):
    """Two membership systems sharing the first block's weights; returns
    (weights1, weights2) keyed by block label, or the infeasibility margin."""
    cons1, n1 = _membership_rows(blocks1, eq_dim, signs1)
    sizes1 = [b.vertices.shape[0] for b in blocks1]
    sizes2 = [b.vertices.shape[0] for b in blocks2]
    shared = sizes1[0]
    n2 = sum(sizes2[1:])
    total = n1 + n2

    def expand1(c: LinearConstraint) -> LinearConstraint:
        row = np.zeros(total)
        row[:n1] = c.coeffs
        return LinearConstraint(row, c.sense, c.rhs)

    cons = [expand1(c) for c in cons1]
    for d in range(eq_dim):
        row = np.zeros(total)
        row[:shared] = signs2[0] * blocks2[0].vertices[:, d]
        off = n1
        for b, s in zip(blocks2[1:], signs2[1:]):
            k = b.vertices.shape[0]
            row[off : off + k] = s * b.vertices[:, d]
            off += k
        cons.append(LinearConstraint(row, "==", 0.0))
    off = n1
    for b in blocks2[1:]:
        k = b.vertices.shape[0]
        if b.convex:
            row = np.zeros(total)
            row[off : off + k] = 1.0
            cons.append(LinearConstraint(row, "==", 1.0))
        off += k

    out = lp_feasible(LPProblem(total, cons))
    if isinstance(out, LPInfeasible):
        return out.margin
    if not isinstance(out, LPFeasible):
        raise BilevelError(f"LP breakdown: {out.reason}")
    z = out.assignment
    w1, w2 = {}, {}
    off = 0
    for b in blocks1:
        k = b.vertices.shape[0]
        w1[b.label] = z[off : off + k]
        off += k
    w2["u"] = w1["u"]
    for b in blocks2[1:]:
        k = b.vertices.shape[0]
        w2[b.label] = z[off : off + k]
        off += k
    return w1, w2


def _residual(u_embedded: np.ndarray, blocks, signs, weights) -> float:
    total = u_embedded.copy()
    for b, s in zip(blocks, signs):
        total += s * (b.vertices.T @ weights[b.label])
    return float(np.max(np.abs(total)))


def _complementarity(bp, p, xv, lam, mu, nu) -> float:
    worst = 0.0
    for i, f in enumerate(bp.lower_constraints):
        v = ex.evaluate(f, p)
        worst = max(worst, abs(lam[i] * v), abs(nu[i] * v))
    for j, g in enumerate(bp.upper_constraints):
        worst = max(worst, abs(mu[j] * ex.evaluate(g, xv)))
    return worst


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
    n, m = bp.x_dim, bp.y_dim
    if bp.upper_constraints:
        raise HypothesisFailure(
            "the refined certificate applies only without upper-level constraints",
            [
                {
                    "hypothesis": "no upper-level constraints",
                    "status": "failed",
                    "detail": {"count": len(bp.upper_constraints)},
                }
            ],
        )
    ledger = _hypothesis_gate(bp, p, kappa, grid, params, override_calmness, need_upper=False)
    reg_theta = vf.regular_value_subdiff_outer(bp.lower(), p[:n], grid, params)
    ledger.append(
        {
            "hypothesis": "regular subdifferential of the value function nonempty",
            "status": "probed" if reg_theta is not None else "failed",
            "detail": {"representation": "outer approximation from difference quotients"},
        }
    )
    if reg_theta is None:
        raise HypothesisFailure(
            "the regular subdifferential of the value function is empty "
            "(outer approximation found no candidate)",
            ledger,
        )
    xv = p[:n]
    act_f = _active_lower(bp, p)
    phi_sub = sd.basic_subdifferential(bp.lower_cost, p, params)
    psi_sub = sd.basic_subdifferential(bp.upper_cost, p, params)
    f_subs = [sd.basic_subdifferential(bp.lower_constraints[i], p, params) for i in act_f]

    u_block = _Block(_embed_x_block(reg_theta.vertices, n, m), True, "u")
    combo_sets = (
        [phi_sub.parts]
        + [u.parts for u in f_subs]
        + [phi_sub.parts, psi_sub.parts]
        + [u.parts for u in f_subs]
    )
    combos = list(itertools.product(*combo_sets))
    if len(combos) > MAX_COMBOS:
        raise sd.CombinatorialOverflow("too many branch combinations in the certificate search")

    k_f = len(f_subs)
    best_margin = math.inf
    for combo in combos:
        phi1 = combo[0]
        f1_parts = combo[1 : 1 + k_f]
        phi2 = combo[1 + k_f]
        psi2 = combo[2 + k_f]
        f2_parts = combo[3 + k_f :]
        blocks1 = [u_block, _Block(phi1.vertices, True, "phi1")]
        signs1 = [1.0, -1.0]
        for i, P in enumerate(f1_parts):
            blocks1.append(_Block(P.vertices, False, f"f1_{i}"))
            signs1.append(-1.0)
        blocks2 = [u_block, _Block(phi2.vertices, True, "phi2")]
        signs2 = [1.0, -1.0]
        blocks2.append(_Block(psi2.vertices / kappa, True, "psi_over_kappa"))
        signs2.append(-1.0)
        for i, P in enumerate(f2_parts):
            blocks2.append(_Block(P.vertices, False, f"f2_{i}"))
            signs2.append(-1.0)
        outcome = _joint_membership(blocks1, signs1, blocks2, signs2, n + m)
        if isinstance(outcome, float):
            best_margin = min(best_margin, outcome)
            continue
        w1, w2 = outcome
        u = reg_theta.vertices.T @ w1["u"]
        nu = np.zeros(len(bp.lower_constraints))
        lam = np.zeros(len(bp.lower_constraints))
        for i, idx in enumerate(act_f):
            nu[idx] = float(w1[f"f1_{i}"].sum())
            lam[idx] = float(w2[f"f2_{i}"].sum())
        res1 = _residual(u_block.vertices.T @ w1["u"], blocks1[1:], signs1[1:], w1)
        res2 = _residual(u_block.vertices.T @ w2["u"], blocks2[1:], signs2[1:], w2)
        comp = _complementarity(bp, p, xv, lam, np.zeros(0), nu)
        return StationarityCertificate(
            theorem_id="T8.3",
            multipliers={"nu": nu.tolist(), "lambda": lam.tolist(), "mu": []},
            u=u,
            kappa=float(kappa),
            branch_choices={
                "phi_part_first": phi_sub.parts.index(phi1),
                "phi_part_second": phi_sub.parts.index(phi2),
                "psi_part": psi_sub.parts.index(psi2),
            },
            residuals={
                "regular_inclusion": res1,
                "penalized_inclusion": res2,
                "complementary_slackness": comp,
            },
            ledger=ledger,
        )
    return NoCertificate("T8.3", best_margin, ledger)


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
