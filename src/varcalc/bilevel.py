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

import inspect
import math
from dataclasses import dataclass
from functools import cached_property
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

    # the KKT search's cap is checked before the qualification search,
    # which has one factor less and may be under the cap when this is not
    unions = [obj_sub] + act_subs
    counts = [len(u.parts) for u in unions]
    sd.check_combinations(counts, "the KKT search")
    # generalized constraint qualification over the active subdifferentials
    mfcq_witness = sd.qualification_witness(act_subs)
    mfcq_holds = mfcq_witness is None

    ledger: list[dict] = []
    status = "verified" if mfcq_holds else "failed"
    record(ledger, "generalized constraint qualification at the candidate", status, mfcq_witness)

    def attempt(combo: tuple[int, ...]):
        out = sd.zero_combination([u.parts[i] for u, i in zip(unions, combo)])
        if not isinstance(out, float) and mfcq_holds and out[0][0] <= TOL_COMP:
            # qualification guarantees a certificate with a positive cost
            # multiplier; keep searching for one
            return 0.0
        return out

    found = sd.branch_search(counts, "the KKT search", attempt)
    if found.hit is None:
        return NoCertificate("T6.1", found.margin, ledger, found.combo, found.tried)
    lams, vecs = found.hit
    m = len(prog.inequality_constraints)
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
        branch_choices={"parts": [found.combo[0]]},
        residuals={
            "lagrangian_inclusion": residual / scale,
            "complementary_slackness": max(comp, default=0.0),
        },
        ledger=ledger,
    )


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
    kappa_grid: Sequence[float],
    grid: vf.GridSpec,
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
) -> CalmnessProbeReport:
    """Sample feasible pairs near the candidate and test the linear
    penalization inequality for each penalty constant in the grid.  The
    value term carries a documented grid-accuracy allowance; the report
    returns the smallest validated constant or the violating witnesses.
    """
    p = np.asarray(point, dtype=float)
    _bilevel_feasible(bp, p, grid)
    return _calmness_verdict(_calmness_samples(bp, p, grid, params), kappa_grid)


def _calmness_samples(
    bp: BilevelProblem, p: np.ndarray, grid: vf.GridSpec, params: sd.SampleParams
) -> tuple[list[tuple[np.ndarray, float, float]], float]:
    """The calmness probe's samples at a candidate already checked
    feasible, as (point, psi difference, |nu| less the grid allowance),
    and the largest allowance.  None of it depends on the penalty
    constant."""
    psi_ref = ex.evaluate(bp.upper_cost, p)
    dim = bp.x_dim + bp.y_dim
    dirs = params.directions(dim)
    lower = bp.lower()

    samples: list[tuple[np.ndarray, float, float]] = []
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
    values = vf.evaluate_values(lower, qs[:, : bp.x_dim], grid, refine=2)
    # a sample whose parameter has no feasible grid point on its box is skipped
    rows = [i for i, s in enumerate(values) if not isinstance(s, vf.InfeasibleOnBox)]
    slopes = vf._argmin_cost_slopes(lower, [values[i] for i in rows])
    for i, slope in zip(rows, slopes):
        err = 2.0 * values[i].step * (slope + 1.0)
        accuracy = max(accuracy, err)
        nu = values[i].theta - phis[i]
        samples.append((qs[i], psis[i] - psi_ref, max(0.0, abs(nu) - err)))
    return samples, accuracy


def _calmness_verdict(
    sampled: tuple[list[tuple[np.ndarray, float, float]], float], kappa_grid: Sequence[float]
) -> CalmnessProbeReport:
    """The calmness probe's report on _calmness_samples' output: the first
    constant at which no sample violates the penalization inequality."""
    samples, accuracy = sampled
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
            PolytopeUnion([Polytope(part.vertices[:, bp.x_dim :]) for part in full.parts])
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


class _Candidate:
    """The work of certify_T74 and certify_T83 at one candidate that does
    not depend on the penalty constant: feasibility and regularity, the
    calmness samples, the value-function estimates and the branch
    subdifferentials.  Each piece is done when a constant first needs it
    and then kept, so a sweep over constants does it once and a single
    constant does exactly what it did alone."""

    def __init__(
        self,
        bp: BilevelProblem,
        point: Sequence[float],
        grid: vf.GridSpec,
        params: sd.SampleParams,
        override_calmness: bool = False,
        override_isc: bool = False,
    ):
        self.bp, self.p, self.grid, self.params = bp, np.asarray(point, dtype=float), grid, params
        self.override_calmness, self.override_isc = override_calmness, override_isc

    @cached_property
    def regularity(self) -> RegularityReport:
        """regularity_check, after _bilevel_feasible has raised
        BilevelError if the candidate is infeasible."""
        _bilevel_feasible(self.bp, self.p, self.grid)
        return regularity_check(self.bp, self.p, self.params)

    @cached_property
    def calmness_samples(self) -> tuple[list[tuple[np.ndarray, float, float]], float]:
        return _calmness_samples(self.bp, self.p, self.grid, self.params)

    @cached_property
    def subdiffs(self) -> tuple[PolytopeUnion, PolytopeUnion, dict[int, PolytopeUnion]]:
        """Basic subdifferentials of the lower cost, the upper cost and
        each active lower constraint (keyed by its index)."""
        bp, p, params = self.bp, self.p, self.params
        phi = sd.basic_subdifferential(bp.lower_cost, p, params)
        psi = sd.basic_subdifferential(bp.upper_cost, p, params)
        f = {
            i: sd.basic_subdifferential(bp.lower_constraints[i], p, params)
            for i in sd.active_constraints(bp.lower_constraints, p)
        }
        return phi, psi, f

    @cached_property
    def estimate(self) -> vf.ValueEstimate | HypothesisFailure:
        """T7.4's convexified estimate, or the failure it raised."""
        try:
            return vf.value_subdiff_estimate(
                self.bp.lower(), self.p, self.grid, self.params, override_isc=self.override_isc
            )
        except HypothesisFailure as err:
            return err

    @cached_property
    def upper_subdiffs(self) -> dict[int, PolytopeUnion]:
        """T7.4's active upper constraints' subdifferentials over (x, y)."""
        bp, params, xv = self.bp, self.params, self.p[: self.bp.x_dim]
        return {
            j: PolytopeUnion(
                [
                    Polytope(_embed_x_block(part.vertices, bp.x_dim, bp.y_dim))
                    for part in sd.basic_subdifferential(bp.upper_constraints[j], xv, params).parts
                ]
            )
            for j in sd.active_constraints(bp.upper_constraints, xv)
        }

    @cached_property
    def regular_theta(self) -> Polytope | None:
        """T8.3's outer estimate of the value function's regular
        subdifferential."""
        return vf.regular_value_subdiff_outer(
            self.bp.lower(), self.p[: self.bp.x_dim], self.grid, self.params
        )

    def gate(self, kappa: float, need_upper: bool) -> list[dict]:
        """The hypothesis ledger at one penalty constant: feasibility,
        regularity and partial calmness with that constant."""
        if not (math.isfinite(kappa) and kappa > 0):
            raise BilevelError(f"penalty constant must be finite and positive, got {kappa}")
        reg = self.regularity
        ledger: list[dict] = []
        record(ledger, "candidate feasible for the reformulated problem", "verified")
        levels = {"lower": (reg.lower_regular, reg.lower_witness)}
        if need_upper:
            levels["upper"] = (reg.upper_regular, reg.upper_witness)
        for level, (regular, witness) in levels.items():
            status = "verified" if regular else "failed"
            record(ledger, f"{level}-level regularity", status, witness)
        if not all(regular for regular, _ in levels.values()):
            raise HypothesisFailure("regularity condition failed at the candidate", ledger)
        calmness = f"partial calmness with constant {kappa}"
        if self.override_calmness:
            record(ledger, calmness, "overridden")
        else:
            probe = _calmness_verdict(self.calmness_samples, (kappa,))
            record(
                ledger,
                calmness,
                "probed" if probe.kappa_validated is not None else "failed",
                {"samples": probe.samples_checked, "violations": probe.violations[:3]},
                "partial calmness probe failed at this penalty constant "
                "(pass override_calmness to proceed)",
            )
        return ledger


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
    u_block = _embed_x_block(u_vertices, bp.x_dim, bp.y_dim)

    def chosen(combo: tuple[int, ...]) -> list:
        return [(t.choices[i], t.convex) for t, i in zip(terms, combo)]

    def attempt(combo: tuple[int, ...]):
        blocks = chosen(combo)
        return _joint_membership(u_block, blocks[: len(eq1)], blocks[len(eq1) :])

    found = sd.branch_search([len(t.choices) for t in terms], "the certificate search", attempt)
    if found.hit is None:
        return NoCertificate(theorem_id, found.margin, ledger, found.combo, found.tried)
    blocks = chosen(found.combo)
    w_u, *weights = found.hit
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
        branch_choices={t.key: i for t, i in zip(terms, found.combo) if t.convex and t.key},
        residuals=residuals,
        ledger=ledger,
    )


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
    candidate = _Candidate(bp, point, grid, params, override_calmness, override_isc)
    return _certify_T74_at(candidate, kappa)


def _certify_T74_at(c: _Candidate, kappa: float) -> StationarityCertificate | NoCertificate:
    ledger = c.gate(kappa, need_upper=True)
    estimate = c.estimate
    if isinstance(estimate, HypothesisFailure):
        raise HypothesisFailure(str(estimate), ledger + estimate.ledger)
    ledger.extend(estimate.ledger)
    u_range = "u ranges over an outer estimate of the convexified value-function subdifferential"
    record(ledger, u_range, "probed", {"notes": estimate.notes})
    phi_sub, psi_sub, f_subs = c.subdiffs
    convexified = [_term([phi_sub.hull()], True)] + [
        _term([u.hull()], False, "nu", i) for i, u in f_subs.items()
    ]
    penalized = _penalized_terms(phi_sub, psi_sub, f_subs, kappa, "phi_part") + [
        _term(u.parts, False, "mu", j) for j, u in c.upper_subdiffs.items()
    ]
    return _certificate_search(
        "T7.4",
        c.bp,
        c.p,
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
    return _certify_T83_at(_Candidate(bp, point, grid, params, override_calmness), kappa)


def _certify_T83_at(c: _Candidate, kappa: float) -> StationarityCertificate | NoCertificate:
    if c.bp.upper_constraints:
        count = {"count": len(c.bp.upper_constraints)}
        failure = "the refined certificate applies only without upper-level constraints"
        record([], "no upper-level constraints", "failed", count, failure)
    ledger = c.gate(kappa, need_upper=False)
    reg_theta = c.regular_theta
    record(
        ledger,
        "regular subdifferential of the value function nonempty",
        "probed" if reg_theta is not None else "failed",
        {"representation": "outer approximation from difference quotients"},
        "the regular subdifferential of the value function is empty "
        "(outer approximation found no candidate)",
    )
    phi_sub, psi_sub, f_subs = c.subdiffs
    regular = [_term(phi_sub.parts, True, "phi_part_first")] + [
        _term(u.parts, False, "nu", i) for i, u in f_subs.items()
    ]
    penalized = _penalized_terms(phi_sub, psi_sub, f_subs, kappa, "phi_part_second")
    return _certificate_search(
        "T8.3",
        c.bp,
        c.p,
        kappa,
        reg_theta.vertices,
        (("regular_inclusion", regular), ("penalized_inclusion", penalized)),
        ledger,
    )


# each certifier's work at one penalty constant, given its _Candidate
_AT_KAPPA = {certify_T74: _certify_T74_at, certify_T83: _certify_T83_at}


def certify_with_kappa_sweep(
    certifier,
    bp: BilevelProblem,
    point: Sequence[float],
    kappa_grid: Sequence[float],
    grid: vf.GridSpec,
    params: sd.SampleParams = sd.DEFAULT_PARAMS,
    **kwargs,
) -> StationarityCertificate | NoCertificate:
    """Try the certifier, certify_T74 or certify_T83 (or a wrapper of one
    made with functools.wraps), at each penalty constant in order and
    return the first success (the theory fixes the constant from partial
    calmness but offers no selection rule).  One _Candidate serves the
    whole sweep, so the work that does not depend on the constant is done
    once."""
    at_kappa = _AT_KAPPA[inspect.unwrap(certifier)]
    candidate = _Candidate(bp, point, grid, params, **kwargs)
    last: StationarityCertificate | NoCertificate | None = None
    failure: HypothesisFailure | None = None
    for kappa in kappa_grid:
        try:
            out = at_kappa(candidate, kappa)
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
