"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else."""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from varcalc import bilevel as B
from varcalc import corpus as C
from varcalc import expr as E
from varcalc import subdiff as S
from varcalc import valuefn as V
from varcalc.convgeom import (
    Membership,
    NotMember,
    Polytope,
    hausdorff_distance,
    minkowski_membership,
)

from tests.brute import convex_entries, penalized_grid_search, point_to_union_distance

ROOT = Path(__file__).resolve().parent.parent
WORKED = ROOT / "problems" / "worked.vp"
KINK = ROOT / "problems" / "kink.vp"

ORACLE_TOL = 0.05
CORPUS_TIME_LIMIT = 60.0
BILEVEL_TIME_LIMIT = 120.0
EXTREMAL_RESIDUAL = 1e-3
NORMALIZATION_TOL = 1e-9
MEMBERSHIP_TOL = 1e-6
THETA_TOL = 1e-4
CERT_TOL = 1e-8

XS = E.VarSpace.of("x")
XY = E.VarSpace.of("x", "y")
GRID = V.GridSpec(y_box=((-2.0, 2.0),))


@contextmanager
def criterion(number: int, label: str):
    # run with -s (or --capture=tee-sys) to see one verdict line each
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def fxy(t):
    return E.parse_function(t, XY)


def fx(t):
    return E.parse_function(t, XS)


def test_criterion_1_corpus_oracle_equivalence():
    with criterion(1, "corpus symbolic vs sampled-oracle Hausdorff <= 0.05 in < 60 s"):
        start = time.monotonic()
        worst = 0.0
        for entry in C.CORPUS:
            f = entry.function()
            sym = S.basic_subdifferential(f, entry.point)
            cloud = S.sampled_subdiff_oracle(f, entry.point)
            worst = max(worst, hausdorff_distance(sym, cloud.as_singletons()))
        elapsed = time.monotonic() - start
        assert len(C.CORPUS) == 20
        assert worst <= ORACLE_TOL, f"worst Hausdorff {worst}"
        assert elapsed < CORPUS_TIME_LIMIT, f"took {elapsed:.1f}s"


def test_criterion_2_convex_reduction():
    with criterion(2, "convex subset: regular == basic canonically; abs' = [-1, 1]"):
        convex = convex_entries()
        assert convex, "no convex entries detected"
        for entry in convex:
            f = entry.function()
            reg = S.regular_subdifferential(f, entry.point)
            basic = S.basic_subdifferential(f, entry.point)
            assert reg is not None
            assert len(basic.parts) == 1
            assert reg.canonical_key() == basic.parts[0].canonical_key(), entry.name
        abs_sub = S.basic_subdifferential(fx("(abs x)"), [0.0])
        assert abs_sub.parts[0].vertices.tolist() == [[-1.0], [1.0]]


def test_criterion_3_coderivative_criterion():
    with criterion(3, "Lipschitz-like criterion matches the direct sampled test"):
        for spec, expected in [(C.graph_abs_above(), True), (C.graph_sqrt(), False)]:
            symbolic = S.lipschitz_like_check(spec, [0.0, 0.0]).verdict
            sampled, _ = S.sampled_lipschitz_like_test(spec, [0.0, 0.0])
            assert symbolic is expected
            assert sampled is expected


def test_criterion_4_extremal_principle():
    with criterion(4, "extremal principle: residual <= 1e-3 by k=1024, exact normalization"):
        upper = S.SetSpec.sublevel([fxy("y")])
        lower = S.SetSpec.sublevel([fxy("(- y)")])
        trace = S.extremal_principle_solve(
            [upper, lower], [0.0, 0.0], [np.array([0.0, 1.0]), np.array([0.0, 0.0])]
        )
        assert trace.ks[-1] >= 1000
        assert trace.euler_residuals[-1] <= EXTREMAL_RESIDUAL
        assert max(trace.normalization_errors) <= NORMALIZATION_TOL
        whole = S.SetSpec.sublevel([fxy("-1.0")])
        with pytest.raises(S.ExtremalityNotWitnessed):
            S.extremal_principle_solve(
                [whole, whole], [0.0, 0.0], [np.array([0.1, 0.1]), np.array([0.0, 0.0])]
            )


def test_criterion_5_calculus_rules():
    with criterion(5, "sum/intersection/difference rules hold at 1e-6; bad pair refused"):
        r = S.verify_sum_rule([fx("(abs x)"), fx("x")], [0.0])
        assert r.holds and r.margin <= MEMBERSHIP_TOL
        r = S.verify_sum_rule([fx("(abs x)"), fx("(* x x)")], [0.0])
        assert r.holds and r.margin <= MEMBERSHIP_TOL
        omega = S.SetSpec.sublevel([fx("x")])
        r = S.verify_sum_rule([omega, fx("x")], [0.0])
        assert r.holds and r.margin <= MEMBERSHIP_TOL

        s1 = S.SetSpec.sublevel([fxy("(- y x)")])
        s2 = S.SetSpec.sublevel([fxy("(- y)")])
        r = S.verify_intersection_rule([s1, s2], [0.0, 0.0])
        assert r.holds and r.margin <= MEMBERSHIP_TOL

        r = S.verify_difference_rule(fx("(abs x)"), fx("x"), [0.0])
        assert r.holds and r.margin <= MEMBERSHIP_TOL

        bad = S.verify_intersection_rule(
            [S.SetSpec.sublevel([fx("x")]), S.SetSpec.sublevel([fx("(- x)")])], [0.0]
        )
        assert not bad.holds
        assert bad.detail["qualification_violated"]
        assert bad.detail["witness_multipliers"] == pytest.approx([1.0, 1.0], abs=1e-7)


def test_criterion_6_value_function_estimates():
    with criterion(6, "value-function grid accuracy, estimate containment, ISC verdicts"):
        parabola = V.ParametricProblem(fxy("y"), (fxy("(- (* x x) y)"),), 1, 1)
        xs = np.round(np.arange(-1.0, 1.0001, 0.1), 10)
        for x in xs:
            theta = V.evaluate_value(parabola, [x], GRID).theta
            assert abs(theta - x * x) <= THETA_TOL
        estimate = V.value_subdiff_estimate(parabola, [0.0, 0.0], GRID)
        # sampled subdifferential cloud of grid-theta at 0 sits inside the
        # estimate plus a 0.05 ball
        theta0 = V.evaluate_value(parabola, [0.0], GRID, refine=2).theta
        for r in (1e-2, 1e-3):
            for d in (1.0, -1.0):
                th = V.evaluate_value(parabola, [r * d], GRID, refine=2).theta
                q = (th - theta0) / r * d
                assert point_to_union_distance([q], estimate.basic) <= 0.05

        bang = V.ParametricProblem(fxy("(* x y)"), (fxy("(- (abs y) 1)"),), 1, 1)
        probe = V.inner_semicontinuity_probe(bang, [0.0, 1.0], GRID)
        assert not probe.verdict
        verdict = V.lipschitz_verdict(bang, [0.0, 1.0], GRID, override_isc=True)
        assert verdict.verdict
        for x in xs:
            theta = V.evaluate_value(bang, [x], GRID).theta
            assert abs(theta - (-abs(x))) <= THETA_TOL


def test_criterion_7_bilevel_end_to_end():
    with criterion(7, "worked problem: certificates at the optimum, refusals off it, < 120 s"):
        start = time.monotonic()
        bp = B.BilevelProblem(
            lower_cost=fxy("y"),
            lower_constraints=(fxy("(- 0 (+ x y))"),),
            upper_cost=fxy("(+ (* x x) (* y y))"),
            upper_constraints=(),
            x_dim=1,
            y_dim=1,
        )
        probe = B.partial_calmness_probe(bp, [0.0, 0.0], (1.0, 2.0, 4.0, 8.0, 16.0), GRID)
        assert probe.kappa_validated is not None and probe.kappa_validated <= 16.0

        t74 = B.certify_T74(bp, [0.0, 0.0], 4.0, GRID)
        t83 = B.certify_T83(bp, [0.0, 0.0], 4.0, GRID)
        for cert in (t74, t83):
            assert isinstance(cert, B.StationarityCertificate)
            assert cert.u == pytest.approx([-1.0], abs=CERT_TOL)
            assert cert.multipliers["nu"] == pytest.approx([1.0], abs=CERT_TOL)
            assert cert.multipliers["lambda"] == pytest.approx([1.0], abs=CERT_TOL)

        point, _ = penalized_grid_search(bp, 4.0, (-2.0, 2.0), 1e-2)
        assert point == pytest.approx([0.0, 0.0], abs=1e-9)

        off74 = B.certify_T74(bp, [1.0, -1.0], 4.0, GRID, override_calmness=True)
        off83 = B.certify_T83(bp, [1.0, -1.0], 4.0, GRID, override_calmness=True)
        assert isinstance(off74, B.NoCertificate)
        assert isinstance(off83, B.NoCertificate)
        elapsed = time.monotonic() - start
        assert elapsed < BILEVEL_TIME_LIMIT, f"took {elapsed:.1f}s"


def test_criterion_8_fritz_john_vs_kkt():
    with criterion(8, "degenerate constraint gives Fritz John + violated qualification"):
        fj = B.check_lipschitz_kkt(B.LipschitzProgram(fx("x"), (fx("(abs x)"),)), [0.0])
        assert isinstance(fj, B.StationarityCertificate)
        assert fj.ledger[0]["status"] == "failed"  # qualification violated
        assert any(l > 1e-6 for l in fj.multipliers["lambda"])  # nontrivial

        kkt = B.check_lipschitz_kkt(B.LipschitzProgram(fx("(abs x)"), (fx("x"),)), [0.0])
        assert isinstance(kkt, B.StationarityCertificate)
        assert kkt.ledger[0]["status"] == "verified"
        assert kkt.multipliers["lambda0"] == pytest.approx(1.0)


def test_criterion_9_lp_cross_validation():
    with criterion(9, "LP membership agrees with weight-grid brute force on 200 instances"):
        from tests.brute import brute_force_membership, random_instance

        rng = np.random.default_rng(20240817)
        agreements = 0
        for _ in range(200):
            inst = random_instance(rng)
            lp = minkowski_membership(inst.target, inst.base, scaled_terms=inst.scaled)
            assert isinstance(lp, (Membership, NotMember))
            lp_member = isinstance(lp, Membership)
            brute_member = brute_force_membership(inst)
            assert lp_member == inst.is_member
            assert brute_member == inst.is_member
            agreements += 1
        assert agreements == 200


def test_criterion_10_cli_determinism():
    with criterion(10, "every CLI command is byte-identical across runs at a fixed seed"):
        fj_file = ROOT / "problems" / "worked.vp"
        commands = [
            ["subdiff", str(fj_file), "--fn", "lower.objective", "--at", "origin", "--oracle"],
            ["normalcone", str(fj_file), "--set", "lower", "--at", "origin", "--oracle"],
            ["valuefn", str(fj_file), "--x-range", "-0.5", "0.5", "0.25"],
            ["certify", str(fj_file), "--at", "origin", "--theorem", "t74", "--kappa", "4"],
            ["verify", str(KINK), "--dirs", "16"],
            ["extremal", "--builtin", "halfplanes"],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "varcalc.cli", *argv, "--seed", "7", "--json"],
                    capture_output=True,
                    text=True,
                    cwd=ROOT,
                )
                assert proc.returncode == 0, f"{argv}: {proc.stderr}"
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], f"non-deterministic: {argv[0]}"
            report = json.loads(outputs[0])
            assert "timing" not in report
