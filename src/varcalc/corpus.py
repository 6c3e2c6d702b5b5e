"""Built-in verification corpus: twenty piecewise-smooth functions in one
and two variables with hand-derived subdifferentials, a few inequality
graphs for the coderivative criterion, the built-in extremal systems,
and every check the verify command runs: the rule-verification suite on
the corpus and the oracle-consistency checks of a problem file."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from varcalc import expr as ex
from varcalc import subdiff as sd
from varcalc.convgeom import (
    Polytope,
    PolytopeUnion,
    hausdorff_distance,
    point_to_polytope_distances,
)
from varcalc.problemfile import ProblemFile

X = ex.VarSpace.of("x")
XY = ex.VarSpace.of("x", "y")

ORACLE_HAUSDORFF_TOL = 0.05


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    text: str
    space: ex.VarSpace
    point: tuple[float, ...]
    expected_basic: tuple[tuple[tuple[float, ...], ...], ...]  # parts as vertex tuples
    regular_empty: bool = False

    def function(self) -> ex.FunctionDef:
        return ex.parse_function(self.text, self.space)

    def expected_union(self) -> PolytopeUnion:
        return PolytopeUnion([Polytope(part) for part in self.expected_basic])


def _e(name, text, space, point, parts, regular_empty=False):
    return CorpusEntry(name, text, space, point, parts, regular_empty)


CORPUS: tuple[CorpusEntry, ...] = (
    _e("abs", "(abs x)", X, (0.0,), (((-1.0,), (1.0,)),)),
    _e("neg_abs", "(- (abs x))", X, (0.0,), (((-1.0,),), ((1.0,),)), regular_empty=True),
    _e("min_zero_x", "(min 0 x)", X, (0.0,), (((0.0,),), ((1.0,),)), regular_empty=True),
    _e("max_x_2x", "(max x (* 2 x))", X, (0.0,), (((1.0,), (2.0,)),)),
    _e("max_xy", "(max x y)", XY, (0.0, 0.0), (((0.0, 1.0), (1.0, 0.0)),)),
    _e("square_at_one", "(* x x)", X, (1.0,), (((2.0,),),)),
    _e("square_at_zero", "(* x x)", X, (0.0,), (((0.0,),),)),
    _e("abs_plus_x", "(+ (abs x) x)", X, (0.0,), (((0.0,), (2.0,)),)),
    _e("abs_minus_x", "(- (abs x) x)", X, (0.0,), (((-2.0,), (0.0,)),)),
    _e("double_kink", "(+ (abs x) (abs (- x 1)))", X, (0.0,), (((-2.0,), (0.0,)),)),
    _e("max_three_slopes", "(max x (- x) (* 2 x))", X, (0.0,), (((-1.0,), (2.0,)),)),
    _e("min_x_2x", "(min x (* 2 x))", X, (0.0,), (((1.0,),), ((2.0,),)), regular_empty=True),
    _e("abs_of_square_shift", "(abs (- (* x x) 1))", X, (1.0,), (((-2.0,), (2.0,)),)),
    _e("x_times_abs", "(* x (abs x))", X, (0.0,), (((0.0,),),)),
    _e("max_square_linear", "(max (* x x) x)", X, (0.0,), (((0.0,), (1.0,)),)),
    _e(
        "l1_norm",
        "(+ (abs x) (abs y))",
        XY,
        (0.0, 0.0),
        (((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)),),
    ),
    _e(
        "linf_norm",
        "(max (abs x) (abs y))",
        XY,
        (0.0, 0.0),
        (((-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)),),
    ),
    _e(
        "min_sum_zero",
        "(min (+ x y) 0)",
        XY,
        (0.0, 0.0),
        (((0.0, 0.0),), ((1.0, 1.0),)),
        regular_empty=True,
    ),
    _e("saddle", "(- (* x x) (* y y))", XY, (0.0, 0.0), (((0.0, 0.0),),)),
    _e("max_plus_min", "(+ (max x y) (min x y))", XY, (0.0, 0.0), (((1.0, 1.0),),)),
)


# graph specs used by the coderivative criterion checks


def graph_abs_above() -> sd.SetSpec:
    # F(x) = {y : |x| - y <= 0}: Lipschitz-like at the origin
    return sd.SetSpec.graph([ex.parse_function("(- (abs x) y)", XY)], 1, 1)


def graph_sqrt() -> sd.SetSpec:
    # F(x) = {y : y^2 - x <= 0}: not Lipschitz-like at the origin
    return sd.SetSpec.graph([ex.parse_function("(- (* y y) x)", XY)], 1, 1)


EXTREMAL_BUILTINS = ("halfplanes", "boundary", "nonextremal")


def extremal_builtin(name: str) -> tuple[list[sd.SetSpec], list[float], list[np.ndarray]]:
    """The sets, common point and shifts of a built-in extremal system:
    two half-planes that meet in a line, a half-line and its boundary
    point, or the whole plane twice (not extremal)."""
    two = lambda t: ex.parse_function(t, XY)
    if name == "halfplanes":
        sets = [sd.SetSpec.sublevel([two("y")]), sd.SetSpec.sublevel([two("(- y)")])]
        return sets, [0.0, 0.0], [np.array([0.0, 1.0]), np.array([0.0, 0.0])]
    if name == "boundary":
        sets = [sd.SetSpec.sublevel([ex.parse_function("x", X)]), sd.SetSpec.singleton([0.0])]
        return sets, [0.0], [np.array([1.0]), np.array([0.0])]
    whole = sd.SetSpec.sublevel([two("-1.0")])
    return [whole, whole], [0.0, 0.0], [np.array([0.1, 0.1]), np.array([0.0, 0.0])]


# ---------------------------------------------------------------------------
# verification suite


@dataclass
class CheckResult:
    rule: str
    entry: str
    passed: bool
    margin: float


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _oracle_check(
    entry: str, f: ex.FunctionDef, p: np.ndarray, basic: PolytopeUnion, params: sd.SampleParams
) -> CheckResult:
    """The Hausdorff distance of the basic subdifferential of f at p to the
    sampled oracle's cloud, within ORACLE_HAUSDORFF_TOL."""
    cloud = sd.sampled_subdiff_oracle(f, p, params)
    d = hausdorff_distance(basic, cloud.as_singletons())
    return CheckResult("oracle-consistency", entry, d <= ORACLE_HAUSDORFF_TOL, d)


def verify_problem_file(pf: ProblemFile, params: sd.SampleParams) -> VerifyReport:
    """One oracle-consistency check per candidate and function path."""
    report = VerifyReport()
    for cname, cand in pf.candidates.items():
        for fname, fn in pf.functions.items():
            point = pf.point_for(fn, cand)
            basic = sd.basic_subdifferential(fn, point, params)
            report.checks.append(_oracle_check(f"{fname}@{cname}", fn, point, basic, params))
    return report


def run_verify_suite(
    entries: tuple[CorpusEntry, ...] = CORPUS, params: sd.SampleParams = sd.DEFAULT_PARAMS
) -> VerifyReport:
    """Property checks used by the verify command.

    Per entry: symbolic-vs-expected equality, symbolic-vs-oracle Hausdorff
    distance, regular/basic containment, the convex-case reduction, and
    the negated-hull inclusion.  Then the calculus-rule verifiers and the
    extremal-principle examples on fixed combinations.
    """
    report = VerifyReport()

    for entry in entries:
        f = entry.function()
        p = np.asarray(entry.point)
        result = sd.full_subdifferential(f, p, params)
        expected = entry.expected_union()
        d = hausdorff_distance(result.basic, expected)
        report.checks.append(CheckResult("expected-value", entry.name, d <= 1e-6, d))

        report.checks.append(_oracle_check(entry.name, f, p, result.basic, params))

        if entry.regular_empty:
            report.checks.append(
                CheckResult("regular-empty", entry.name, result.regular is None, 0.0)
            )
        elif result.regular is not None:
            worst = float(
                point_to_polytope_distances(result.regular.vertices, result.basic.hull()).max()
            )
            report.checks.append(
                CheckResult("regular-in-basic-hull", entry.name, worst <= 1e-7, worst)
            )

        if f.convex:
            same = (
                result.regular is not None
                and len(result.basic.parts) == 1
                and result.regular.canonical_key() == result.basic.parts[0].canonical_key()
            )
            report.checks.append(
                CheckResult("convex-reduction", entry.name, same, 0.0 if same else 1.0)
            )

        neg_hull = result.basic.negate().hull()
        neg_basic = sd.basic_subdifferential(ex.negate(f), p, params)
        worst = float(point_to_polytope_distances(neg_basic.all_vertices(), neg_hull).max())
        report.checks.append(
            CheckResult("negation-hull-inclusion", entry.name, worst <= 1e-7, worst)
        )

        if not entry.regular_empty and result.method == "symbolic":
            epi = sd.epigraph_consistency_check(f, p, params)
            report.checks.append(
                CheckResult(
                    "epigraph-consistency",
                    entry.name,
                    epi.basic_discrepancy <= 1e-7 and epi.singular_consistent,
                    epi.basic_discrepancy,
                )
            )

    # calculus rules on fixed combinations
    one = lambda t: ex.parse_function(t, X)
    two = lambda t: ex.parse_function(t, XY)

    sum_pairs = [
        ("abs+x", [one("(abs x)"), one("x")], [0.0]),
        ("abs+square", [one("(abs x)"), one("(* x x)")], [0.0]),
        ("min+neg", [one("(min 0 x)"), one("(- x)")], [0.0]),
    ]
    for name, fns, pt in sum_pairs:
        r = sd.verify_sum_rule(fns, pt, params)
        report.checks.append(CheckResult("sum-rule", name, r.holds, r.margin))

    omega = sd.SetSpec.sublevel([one("x")])
    r = sd.verify_sum_rule([omega, one("x")], [0.0], params)
    report.checks.append(CheckResult("sum-rule-indicator", "halfline+x", r.holds, r.margin))

    s1 = sd.SetSpec.sublevel([two("(- y x)")])
    s2 = sd.SetSpec.sublevel([two("(- y)")])
    r = sd.verify_intersection_rule([s1, s2], [0.0, 0.0], params)
    report.checks.append(CheckResult("intersection-rule", "wedge", r.holds, r.margin))

    bad1 = sd.SetSpec.sublevel([one("x")])
    bad2 = sd.SetSpec.sublevel([one("(- x)")])
    r = sd.verify_intersection_rule([bad1, bad2], [0.0], params)
    refused = (not r.holds) and r.detail.get("qualification_violated", False)
    witness_ok = refused and np.allclose(
        r.detail["witness_multipliers"], [1.0, 1.0], atol=1e-7
    )
    report.checks.append(
        CheckResult("intersection-rule-refusal", "opposite-halflines", witness_ok, 0.0)
    )

    diff_pairs = [
        ("abs-minus-x", one("(abs x)"), one("x"), [0.0]),
        ("square-minus-square", one("(* x x)"), one("(* x x)"), [0.0]),
    ]
    for name, f1, f2, pt in diff_pairs:
        r = sd.verify_difference_rule(f1, f2, pt, params=params)
        report.checks.append(CheckResult("difference-rule", name, r.holds, r.margin))

    # coderivative criterion consistency against the direct sampled test
    for name, spec, expect in [
        ("graph-abs-above", graph_abs_above(), True),
        ("graph-sqrt", graph_sqrt(), False),
    ]:
        symbolic = sd.lipschitz_like_check(spec, [0.0, 0.0], params).verdict
        sampled, _ = sd.sampled_lipschitz_like_test(spec, [0.0, 0.0], params)
        ok = symbolic == expect and sampled == expect
        report.checks.append(CheckResult("coderivative-criterion", name, ok, 0.0))

    # extremal principle examples
    trace = sd.extremal_principle_solve(*extremal_builtin("halfplanes"))
    ok = trace.euler_residuals[-1] <= 1e-3 and max(trace.normalization_errors) <= 1e-9
    report.checks.append(CheckResult("extremal-principle", "halfplanes", ok, trace.euler_residuals[-1]))
    try:
        sd.extremal_principle_solve(*extremal_builtin("nonextremal"))
        diag = False
    except sd.ExtremalityNotWitnessed:
        diag = True
    report.checks.append(CheckResult("extremal-principle", "non-extremal-diagnostic", diag, 0.0))

    return report
