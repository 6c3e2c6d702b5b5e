import contextlib
import functools
import inspect
import io
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from varcalc import bilevel as B
from varcalc import cli
from varcalc import convgeom as G
from varcalc import expr as E
from varcalc import subdiff as S
from varcalc import valuefn as V
from varcalc.convgeom import Polytope, PolytopeUnion
from varcalc.problemfile import parse_problem_file

from tests.brute import penalized_grid_search

ROOT = Path(__file__).resolve().parent.parent

XS = E.VarSpace.of("x")
XY = E.VarSpace.of("x", "y")
FAST = S.SampleParams(dirs_per_radius=32)
GRID = V.GridSpec(y_box=((-2.0, 2.0),))


def fx(t):
    return E.parse_function(t, XS)


def fxy(t):
    return E.parse_function(t, XY)


def problem_w():
    # lower: minimize y s.t. -x - y <= 0; upper: minimize x^2 + y^2
    return B.BilevelProblem(
        lower_cost=fxy("y"),
        lower_constraints=(fxy("(- 0 (+ x y))"),),
        upper_cost=fxy("(+ (* x x) (* y y))"),
        upper_constraints=(),
        x_dim=1,
        y_dim=1,
    )


def upper_constrained_problem():
    # problem_w with upper cost x + y^2 and the upper constraint -x <= 0
    return replace(problem_w(), upper_cost=fxy("(+ x (* y y))"), upper_constraints=(fx("(- 0 x)"),))


def kink_problem():
    # lower: minimize x*y s.t. |y| <= 1; value function -|x|
    return B.BilevelProblem(
        lower_cost=fxy("(* x y)"),
        lower_constraints=(fxy("(- (abs y) 1)"),),
        upper_cost=fxy("(+ (* x x) (* y y))"),
        upper_constraints=(),
        x_dim=1,
        y_dim=1,
    )


# ---------------------------------------------------------------------------
# check_lipschitz_kkt


def test_kkt_abs_objective_halfline():
    prog = B.LipschitzProgram(fx("(abs x)"), (fx("x"),))
    out = B.check_lipschitz_kkt(prog, [0.0], FAST)
    assert isinstance(out, B.StationarityCertificate)
    assert out.multipliers["lambda0"] == pytest.approx(1.0)
    assert out.multipliers["lambda"][0] == pytest.approx(0.0, abs=1e-9)
    assert out.ledger[0]["status"] == "verified"  # qualification holds
    assert out.residuals["lagrangian_inclusion"] <= 1e-8


def test_kkt_fritz_john_degenerate_constraint():
    prog = B.LipschitzProgram(fx("x"), (fx("(abs x)"),))
    out = B.check_lipschitz_kkt(prog, [0.0], FAST)
    assert isinstance(out, B.StationarityCertificate)
    assert out.ledger[0]["status"] == "failed"  # qualification violated
    assert out.multipliers["lambda0"] == pytest.approx(1.0)
    assert out.multipliers["lambda"][0] == pytest.approx(1.0, abs=1e-8)
    v1 = out.multipliers["vectors"][1]
    assert v1 == pytest.approx([-1.0], abs=1e-8)


def test_kkt_unconstrained_nonstationary():
    prog = B.LipschitzProgram(fx("x"), ())
    out = B.check_lipschitz_kkt(prog, [0.0], FAST)
    assert isinstance(out, B.NoCertificate)
    assert out.margin > 0.1


def test_kkt_infeasible_candidate_rejected():
    prog = B.LipschitzProgram(fx("x"), (fx("x"),))
    with pytest.raises(B.BilevelError):
        B.check_lipschitz_kkt(prog, [1.0], FAST)


def test_kkt_mfcq_implies_unit_cost_multiplier():
    # whenever the qualification LP is infeasible the certificate is
    # reported with the cost multiplier at one
    progs = [
        B.LipschitzProgram(fx("(abs x)"), (fx("x"),)),
        B.LipschitzProgram(fx("(abs x)"), ()),
        B.LipschitzProgram(fx("(* x x)"), (fx("(- x 1)"),)),
    ]
    for prog in progs:
        out = B.check_lipschitz_kkt(prog, [0.0], FAST)
        assert isinstance(out, B.StationarityCertificate)
        if out.ledger[0]["status"] == "verified":
            assert out.multipliers["lambda0"] == pytest.approx(1.0)


def test_kkt_reports_a_later_branch_of_a_2d_union():
    # the objective's two gradient branches at the origin are (1, 0) and
    # (1, 1); only the second balances the constraint gradient (-1, -1)
    ab = E.VarSpace.of("a", "b")
    prog = B.LipschitzProgram(
        E.parse_function("(min a (+ a b))", ab), (E.parse_function("(- 0 (+ a b))", ab),)
    )
    out = B.check_lipschitz_kkt(prog, [0.0, 0.0], FAST)
    assert isinstance(out, B.StationarityCertificate)
    assert out.branch_choices == {"parts": [1]}


def test_over_cap_searches_refuse_before_any_lp(monkeypatch):
    # 13 factors of two branches each: 8192 combinations > MAX_BRANCH_COMBOS
    two = PolytopeUnion([Polytope.singleton([-1.0]), Polytope.singleton([-2.0])])
    term = B._Term((np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])), True)
    kkt = B.LipschitzProgram(fx("(- 0 (abs x))"), (fx("(- 0 (abs x))"),) * 12)
    # min(-y, -2y) has the branches -1 and -2 in y, so every qualification
    # LP is infeasible and an uncapped check would solve all 8192
    regular = replace(problem_w(), lower_constraints=(fxy("(min (- 0 y) (- 0 (* 2 y)))"),) * 13)
    calls = []
    real = G.lp_feasible

    def spy(*lp):
        # hull LPs build the subdifferentials whose parts are counted; any
        # other LP would belong to a search that should have refused
        if sys._getframe(2).f_code.co_name != "_in_hull_lp":
            calls.append(lp)
        return real(*lp)

    monkeypatch.setattr(G, "lp_feasible", spy)
    with pytest.raises(S.CombinatorialOverflow):
        S.qualification_witness([two] * 13)
    with pytest.raises(S.CombinatorialOverflow):
        B._certificate_search(
            "T7.4", problem_w(), np.zeros(2), 4.0, np.zeros((1, 1)),
            (("first", [term] * 6), ("second", [term] * 7)), [],
        )
    with pytest.raises(S.CombinatorialOverflow):
        B.check_lipschitz_kkt(kkt, [0.0], FAST)
    with pytest.raises(S.CombinatorialOverflow):
        B.regularity_check(regular, [0.0, 0.0], FAST)
    assert calls == []
    # the normal cone of {min(-x, -y) <= 0} at the origin has the two parts
    # cone{(-1, 0)} and cone{(0, -1)}, so 13 such sets have 8192 cone
    # combinations; building each set's cone runs LPs of its own, but the
    # intersection rule must refuse before its first qualification LP
    qc = []
    monkeypatch.setattr(S, "_qc_violation_witness", lambda *args: qc.append(args))
    sets = [S.SetSpec.sublevel((fxy("(min (- 0 x) (- 0 y))"),))] * 13
    assert len(S.normal_cone(sets[0], [0.0, 0.0], FAST).parts) == 2
    with pytest.raises(S.CombinatorialOverflow, match="2 x 2 .* = 8192 branch"):
        S.verify_intersection_rule(sets, [0.0, 0.0], FAST)
    assert qc == []


# ---------------------------------------------------------------------------
# penalization


def test_penalized_objective_matches_definition():
    bp = problem_w()
    pen = B.build_penalized(bp, 1.0, GRID)
    # feasible, lower-level optimal: penalty term vanishes
    assert pen.objective_value([0.5], [-0.5]) == pytest.approx(0.5, abs=1e-9)
    # suboptimal y: positive penalty
    base = E.evaluate(bp.upper_cost, [0.5, 0.0])
    assert pen.objective_value([0.5], [0.0]) == pytest.approx(base + 0.5, abs=1e-9)


def test_penalized_rejects_nonpositive_kappa():
    with pytest.raises(B.BilevelError):
        B.build_penalized(problem_w(), 0.0, GRID)


def test_penalized_grid_search_finds_origin():
    point, value = penalized_grid_search(problem_w(), 4.0, (-2.0, 2.0), 1e-2)
    assert point == pytest.approx([0.0, 0.0], abs=1e-9)
    assert value == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# partial calmness


def test_calmness_validates_small_kappa_for_linear_lower_level():
    report = B.partial_calmness_probe(problem_w(), [0.0, 0.0], (1.0, 2.0, 4.0), GRID, FAST)
    assert report.kappa_validated == 1.0
    assert report.samples_checked > 50


def test_calmness_precondition_rejects_suboptimal_candidate():
    with pytest.raises(B.BilevelError):
        B.partial_calmness_probe(problem_w(), [0.0, 1.0], (1.0,), GRID, FAST)


def test_certify_checks_the_candidate_once_and_groups_the_probe(monkeypatch):
    # problems/worked2.vp: the probe's parameters take 1 278 one-row passes
    # of the 101**2 grid when each is searched alone; grouped by box and
    # feasibility masks, 63.  The candidate's own search takes 3.
    pf = parse_problem_file((ROOT / "problems" / "worked2.vp").read_text())
    rows, checks = [], []
    grid_pass, feasible = V._grid_pass, B._bilevel_feasible
    monkeypatch.setattr(V, "_grid_pass", lambda prob, xs, *a: rows.append(len(xs)) or grid_pass(prob, xs, *a))
    monkeypatch.setattr(B, "_bilevel_feasible", lambda *a: checks.append(1) or feasible(*a))
    bp, cand = pf.bilevel_problem(), pf.candidate("origin")
    probe = B.partial_calmness_probe(bp, cand, (4.0,), pf.grid, pf.sample_params)
    assert probe.kappa_validated == 4.0
    assert sum(rows) <= 66 and len(checks) == 1
    out = B.certify_T83(bp, cand, 4.0, pf.grid, pf.sample_params)
    assert isinstance(out, B.StationarityCertificate)
    assert len(checks) == 2


def test_calmness_probe_takes_its_kappa_grid_and_value_grid():
    # both were defaults once, and a missing value-function grid could
    # only raise; every caller passes both by position
    params = inspect.signature(B.partial_calmness_probe).parameters
    assert list(params) == ["bp", "point", "kappa_grid", "grid", "params"]
    assert [p.default is inspect.Parameter.empty for p in params.values()] == [True] * 4 + [False]


def test_calmness_exhausted_grid_reports_witnesses():
    report = B.partial_calmness_probe(problem_w(), [1.0, -1.0], (1.0, 2.0), GRID, FAST)
    assert report.kappa_validated is None
    assert report.violations


# ---------------------------------------------------------------------------
# regularity


def test_regularity_linear_constraint():
    report = B.regularity_check(problem_w(), [0.0, 0.0], FAST)
    assert report.lower_regular
    assert report.upper_regular  # vacuous


def test_regularity_fails_for_abs_constraint():
    bp = B.BilevelProblem(
        lower_cost=fxy("y"),
        lower_constraints=(fxy("(abs y)"),),
        upper_cost=fxy("(* x x)"),
        upper_constraints=(),
        x_dim=1,
        y_dim=1,
    )
    report = B.regularity_check(bp, [0.0, 0.0], FAST)
    assert not report.lower_regular
    assert report.lower_witness["multipliers"] == pytest.approx([1.0])


# ---------------------------------------------------------------------------
# certify_T74


def test_t74_certificate_at_origin():
    out = B.certify_T74(problem_w(), [0.0, 0.0], 4.0, GRID, FAST)
    assert isinstance(out, B.StationarityCertificate)
    assert out.u == pytest.approx([-1.0], abs=1e-8)
    assert out.multipliers["nu"][0] == pytest.approx(1.0, abs=1e-8)
    assert out.multipliers["lambda"][0] == pytest.approx(1.0, abs=1e-8)
    assert out.residuals["convexified_inclusion"] <= 1e-8
    assert out.residuals["penalized_inclusion"] <= 1e-8
    assert out.residuals["complementary_slackness"] <= 1e-9
    statuses = [e["status"] for e in out.ledger]
    assert "failed" not in statuses
    assert out.caveat == B.CAVEAT


def test_t74_no_certificate_off_optimum():
    out = B.certify_T74(
        problem_w(), [1.0, -1.0], 4.0, GRID, FAST, override_calmness=True
    )
    assert isinstance(out, B.NoCertificate)
    assert out.margin > 1e-3


def test_t74_calmness_hypothesis_failure_without_override():
    with pytest.raises(B.HypothesisFailure):
        B.certify_T74(problem_w(), [1.0, -1.0], 4.0, GRID, FAST)


def test_t74_rejects_nonpositive_kappa():
    with pytest.raises(B.BilevelError):
        B.certify_T74(problem_w(), [0.0, 0.0], -1.0, GRID, FAST)


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), 0.0, -1.0])
def test_certifiers_check_kappa_first(kappa):
    # before the candidate's feasibility: [0, -5] violates the lower constraint
    for certify in (B.certify_T74, B.certify_T83):
        for point in ([0.0, 0.0], [0.0, -5.0]):
            with pytest.raises(B.BilevelError, match="penalty constant must be finite and positive"):
                certify(problem_w(), point, kappa, GRID, FAST)


def test_t74_active_upper_constraint():
    out = B.certify_T74(upper_constrained_problem(), [0.0, 0.0], 4.0, GRID, FAST)
    assert isinstance(out, B.StationarityCertificate)
    assert out.multipliers["mu"] == pytest.approx([0.25], abs=1e-8)
    assert out.multipliers["lambda"] == pytest.approx([1.0], abs=1e-8)
    assert out.multipliers["nu"] == pytest.approx([1.0], abs=1e-8)
    assert out.residuals["penalized_inclusion"] <= 1e-8
    assert out.residuals["complementary_slackness"] <= 1e-9


def test_t74_upper_constrained_no_certificate_off_optimum():
    out = B.certify_T74(
        upper_constrained_problem(), [0.5, -0.5], 4.0, GRID, FAST, override_calmness=True
    )
    assert isinstance(out, B.NoCertificate)
    assert out.margin == pytest.approx(0.5)


def test_t74_isc_failure_is_hypothesis_failure():
    assert B.HypothesisFailure is V.HypothesisFailure
    with pytest.raises(B.HypothesisFailure, match="inner semicontinuity") as info:
        B.certify_T74(kink_problem(), [0.0, 1.0], 4.0, GRID, FAST, override_calmness=True)
    assert [e["status"] for e in info.value.ledger][-2:] == ["overridden", "failed"]
    # a kappa sweep goes on past the failure and reports the last one
    with pytest.raises(B.HypothesisFailure, match="inner semicontinuity"):
        B.certify_with_kappa_sweep(
            B.certify_T74, kink_problem(), [0.0, 1.0], (1.0, 4.0), GRID, FAST,
            override_calmness=True,
        )


@pytest.mark.parametrize("certify", [B.certify_T74, B.certify_T83])
def test_certificate_reports_a_later_branch_of_a_2d_union(certify):
    # psi = min(x, x + y) has the branches (1, 0) and (1, 1) at the origin;
    # the certificate takes the second
    bp = replace(problem_w(), upper_cost=fxy("(min x (+ x y))"))
    out = certify(bp, [0.0, 0.0], 4.0, GRID, FAST, override_calmness=True)
    assert isinstance(out, B.StationarityCertificate)
    assert out.branch_choices["psi_part"] == 1
    assert out.multipliers["lambda"] == pytest.approx([1.25], abs=1e-8)
    assert out.multipliers["nu"] == pytest.approx([1.0], abs=1e-8)
    assert out.u == pytest.approx([-1.0], abs=1e-8)


# ---------------------------------------------------------------------------
# certify_T83


def test_t83_certificate_at_origin_matches_t74():
    out = B.certify_T83(problem_w(), [0.0, 0.0], 4.0, GRID, FAST)
    assert isinstance(out, B.StationarityCertificate)
    assert out.u == pytest.approx([-1.0], abs=1e-8)
    assert out.multipliers["nu"][0] == pytest.approx(1.0, abs=1e-8)
    assert out.multipliers["lambda"][0] == pytest.approx(1.0, abs=1e-8)


def test_t83_empty_regular_value_subdiff_is_hypothesis_failure():
    with pytest.raises(B.HypothesisFailure, match="regular subdifferential"):
        B.certify_T83(kink_problem(), [0.0, 1.0], 4.0, GRID, FAST, override_calmness=True)


def test_t83_upper_constraints_precondition():
    bp = B.BilevelProblem(
        lower_cost=fxy("y"),
        lower_constraints=(fxy("(- 0 (+ x y))"),),
        upper_cost=fxy("(+ (* x x) (* y y))"),
        upper_constraints=(fx("(- x 1)"),),
        x_dim=1,
        y_dim=1,
    )
    with pytest.raises(B.HypothesisFailure, match="upper-level"):
        B.certify_T83(bp, [0.0, 0.0], 4.0, GRID, FAST)


def test_t83_no_certificate_off_optimum():
    out = B.certify_T83(
        problem_w(), [1.0, -1.0], 4.0, GRID, FAST, override_calmness=True
    )
    assert isinstance(out, B.NoCertificate)


@pytest.mark.parametrize("certify", [B.certify_T74, B.certify_T83])
def test_no_certificate_records_the_tightest_combination(certify):
    # the upper cost's two branches at the origin: psi_part 0 misses by more
    # than psi_part 1, the fourth term of both theorems' searches
    bp = replace(problem_w(), upper_cost=fxy("(min (+ (* 2 x) y) (- (* 3 y) x))"))
    out = certify(bp, [0.0, 0.0], 4.0, GRID, FAST, override_calmness=True)
    assert isinstance(out, B.NoCertificate)
    assert out.margin == pytest.approx(0.25)
    assert out.tightest_branches == (0, 0, 0, 1, 0)
    assert out.combinations_tried == 2


# ---------------------------------------------------------------------------
# invariants


def test_certificates_reverify_raw_equations():
    out = B.certify_T74(problem_w(), [0.0, 0.0], 4.0, GRID, FAST)
    u, nu, lam = out.u[0], out.multipliers["nu"][0], out.multipliers["lambda"][0]
    # convexified inclusion: (u, 0) = grad phi + nu * grad f
    lhs = np.array([u, 0.0])
    assert lhs == pytest.approx(np.array([0.0, 1.0]) + nu * np.array([-1.0, -1.0]), abs=1e-8)
    # penalized inclusion at the origin: psi gradient vanishes there
    assert lhs == pytest.approx(np.array([0.0, 1.0]) + lam * np.array([-1.0, -1.0]), abs=1e-8)


@pytest.mark.parametrize(
    "certify, theorem", [(B.certify_T74, "T7.4"), (B.certify_T83, "T8.3")], ids=["t74", "t83"]
)
def test_kappa_sweep_returns_first_success(certify, theorem):
    out = B.certify_with_kappa_sweep(certify, problem_w(), [0.0, 0.0], (1.0, 2.0, 4.0), GRID, FAST)
    assert isinstance(out, B.StationarityCertificate)
    assert (out.theorem_id, out.kappa) == (theorem, 1.0)


def test_t61_consistency_with_penalized_program():
    # the penalized single-level system at kappa has multipliers kappa
    # times the bilevel ones: 0 in psi' + kappa*(phi' + (-u, 0)) + lam * f'
    kappa = 4.0
    cert = B.certify_T74(problem_w(), [0.0, 0.0], kappa, GRID, FAST)
    u = cert.u[0]
    grad_psi = np.array([0.0, 0.0])
    grad_phi = np.array([0.0, 1.0])
    grad_f = np.array([-1.0, -1.0])
    lam_single = kappa * cert.multipliers["lambda"][0]
    resid = grad_psi + kappa * (grad_phi + np.array([-u, 0.0])) + lam_single * grad_f
    assert resid == pytest.approx([0.0, 0.0], abs=1e-7)


def test_necessity_smoke_random_feasible_points_fail():
    bp = problem_w()
    rng = np.random.default_rng(7)
    rejected = 0
    tried = 0
    while tried < 8:
        x = float(rng.uniform(-1, 1))
        if abs(x) < 0.05:
            continue
        tried += 1
        out = B.certify_T74(bp, [x, -x], 4.0, GRID, FAST, override_calmness=True)
        if isinstance(out, B.NoCertificate):
            rejected += 1
    assert rejected == tried


@pytest.mark.parametrize(
    "argv, tried",
    [
        # calmness fails at each of the 21 default constants
        (["problems/kink.vp", "--theorem", "t74", "--at", "top"], 21),
        (["problems/kink.vp", "--theorem", "t83", "--at", "bottom"], 21),
        # no certificate at any of the file's 5 constants
        (["problems/worked.vp", "--theorem", "t74", "--at", "offopt", "--override-calmness"], 5),
        # a certificate at the first constant
        (["problems/worked.vp", "--theorem", "t83", "--at", "origin"], 1),
    ],
)
def test_kappa_sweep_searches_the_value_function_once(monkeypatch, argv, tried):
    callers = []
    real = V.evaluate_values

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    def run(*extra):
        callers.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["certify", str(ROOT / argv[0]), *argv[1:], "--json", *extra])
        return code, out.getvalue(), list(callers)

    monkeypatch.setattr(V, "evaluate_values", spy)
    code, report, sweep = run("--kappa-sweep")
    one_kappa = run()[2]
    assert sweep == one_kappa
    assert sweep.count("_calmness_samples") == ("--override-calmness" not in argv)
    # a certifier wrapped with functools.wraps, as the benchmark's tracer
    # wraps it, takes the same path
    for name in ("certify_T74", "certify_T83"):
        certifier = getattr(B, name)
        monkeypatch.setattr(B, name, functools.wraps(certifier)(functools.partial(certifier)))
    assert run("--kappa-sweep") == (code, report, sweep)

    def per_kappa(certifier, bp, point, kappa_grid, grid, params, **kwargs):
        """The sweep's reference: the public certifier, called whole at
        each constant."""
        last = failure = None
        for kappa in kappa_grid:
            try:
                out = certifier(bp, point, kappa, grid, params, **kwargs)
            except B.HypothesisFailure as err:
                failure = err
                continue
            if isinstance(out, B.StationarityCertificate):
                return out
            last = out
        if last is None:
            raise failure
        return last

    monkeypatch.setattr(B, "certify_with_kappa_sweep", per_kappa)
    per_kappa_code, per_kappa_report, per_kappa_calls = run("--kappa-sweep")
    assert (per_kappa_code, per_kappa_report) == (code, report)
    assert per_kappa_calls == one_kappa * tried
