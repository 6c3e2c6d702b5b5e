import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from varcalc import cli
from varcalc import convgeom
from varcalc import expr as ex
from varcalc import subdiff
from varcalc.convgeom import LPBreakdown
from varcalc.problemfile import parse_problem_file, ProblemFileError

ROOT = Path(__file__).resolve().parent.parent
WORKED = ROOT / "problems" / "worked.vp"
KINK = ROOT / "problems" / "kink.vp"

SINGLE_LEVEL_FJ = """
[vars]
upper x
[upper]
objective x
constraint (abs x)
[candidates]
origin 0
"""

SINGLE_LEVEL_KKT = """
[vars]
upper x
[upper]
objective (abs x)
constraint x
[candidates]
origin 0
"""


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# problem file parsing


def test_parse_worked_file():
    pf = parse_problem_file(WORKED.read_text())
    assert pf.x_names == ("x",)
    assert pf.y_names == ("y",)
    assert set(pf.candidates) == {"origin", "offopt"}
    assert pf.grid.resolution == 401
    assert pf.kappa_grid == (1.0, 2.0, 4.0, 8.0, 16.0)


def test_parse_errors():
    with pytest.raises(ProblemFileError, match="missing"):
        parse_problem_file("[lower]\nobjective x\n")
    with pytest.raises(ProblemFileError, match="candidate"):
        parse_problem_file("[vars]\nupper x\n[candidates]\na 1 2\n")


@pytest.mark.parametrize(
    "line",
    ["seed", "seed abc", "seed 1 2", "tau_act", "tau_act nan", "tau_act inf", "tau_act 0",
     "tau_act -1", "dirs_per_radius x", "radii 1 2", "radii", "radii 1e-2 x", "kappa_grid",
     "seed -1000000", "radii 1e300", "radii 1e-300", "radii nan", "radii inf", "radii 1e-2 nan",
     "dirs_per_radius 4097"],
)
def test_bad_params_exit2(tmp_path, capsys, line):
    path = tmp_path / "params.vp"
    # in place of the file's own seed line, so that no key is repeated
    path.write_text(WORKED.read_text().replace("seed 0\n", "") + line + "\n")
    with pytest.raises(ProblemFileError, match="params"):
        parse_problem_file(path.read_text())
    code, out, err = run_cli(
        ["normalcone", str(path), "--set", "lower", "--at", "origin", "--oracle", "--json"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "bad problem file" in err


@pytest.mark.parametrize(
    "old,new",
    [
        ("resolution 401", "resolution abc"),
        ("resolution 401", "resolution"),
        ("resolution 401", "resolution 1"),
        ("stencil_count 4", "stencil_count x"),
        ("stencil_radius 0.2", "stencil_radius nan"),
        ("stencil_radius 0.2", "stencil_radius inf"),
        ("stencil_radius 0.2", "stencil_radius 0"),
        ("box y -2 2", "box y 1 0"),
        ("box y -2 2", "box y a 2"),
        ("box y -2 2", "box y"),
        # the grid step 2e-322 / 400 underflows to 0; the width 1e308 - -1e308 overflows
        ("box y -2 2", "box y -1e-322 1e-322"),
        ("box y -2 2", "box y -1e308 1e308"),
    ],
)
def test_bad_grid_exit2(tmp_path, capsys, old, new):
    path = tmp_path / "grid.vp"
    path.write_text(WORKED.read_text().replace(old, new))
    with pytest.raises(ProblemFileError, match="grid"):
        parse_problem_file(path.read_text())
    code, out, err = run_cli(["valuefn", str(path), "--json"], capsys)
    assert code == 2
    assert out == ""
    assert "bad problem file" in err


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("offopt 1 -1", "offopt 1 -1\norigin 5 5", "duplicate candidate 'origin'"),
        ("box y -2 2", "box y -2 2\nbox y -1 1", r"\[grid\] has two boxes for 'y'"),
        ("resolution 401", "resolution 401\nresolution 201", r"\[grid\] sets 'resolution' twice"),
        ("seed 0", "seed 0\nseed 3", r"\[params\] sets 'seed' twice"),
        ("box y -2 2", "box y -2 2\nbox x -1 1", "box for 'x', which is no lower variable"),
    ],
    ids=["candidate", "box", "grid-key", "params-key", "stray-box"],
)
def test_repeated_or_stray_line_exit2(tmp_path, capsys, old, new, message):
    # each name, box and key may appear once, and boxes are for lower variables only
    path = tmp_path / "repeat.vp"
    path.write_text(WORKED.read_text().replace(old, new))
    with pytest.raises(ProblemFileError, match=message):
        parse_problem_file(path.read_text())
    code, out, err = run_cli(["valuefn", str(path), "--json"], capsys)
    assert code == 2
    assert out == ""
    assert "bad problem file" in err


def test_grid_over_budget_exit2(tmp_path, capsys):
    # three lower variables at the default resolution 401 would be a
    # ~64M-point grid; it is refused while parsing, before any allocation
    text = """
[vars]
upper x
lower y
lower z
lower w
[lower]
objective (+ y z w)
constraint (- (abs x) (+ y z w))
[candidates]
origin 0 0 0 0
[grid]
box y -1 1
box z -1 1
box w -1 1
"""
    tracemalloc.start()
    with pytest.raises(ProblemFileError, match="grid points"):
        parse_problem_file(text)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20
    path = tmp_path / "three.vp"
    path.write_text(text)
    code, out, err = run_cli(["valuefn", str(path), "--json"], capsys)
    assert code == 2
    assert out == ""
    assert "bad problem file" in err and "grid points" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["subdiff", str(WORKED), "--fn", "lower.objective", "--at", "origin"],
        ["normalcone", str(WORKED), "--set", "lower", "--at", "origin"],
        ["valuefn", str(WORKED)],
        ["certify", str(WORKED), "--at", "origin", "--theorem", "t74", "--kappa", "4"],
        ["verify", str(WORKED)],
        ["verify", "--builtin-corpus"],
        ["extremal", "--builtin", "boundary"],
    ],
    ids=["subdiff", "normalcone", "valuefn", "certify", "verify-file", "verify-corpus", "extremal"],
)
def test_negative_seed_exit2(capsys, argv):
    code, out, err = run_cli(argv + ["--seed", "-1000000", "--json"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: seed must be an integer >= 0") and "Traceback" not in err


def test_deep_nesting_exit2(tmp_path, capsys):
    # one list past the cap is refused while parsing; at the cap the file
    # runs, and far past it the parser does not exhaust the stack
    for depth, want in ((ex.MAX_NESTING, 0), (ex.MAX_NESTING + 1, 2), (1200, 2)):
        deep = "(abs " * (depth - 1) + "(+ 1 y)" + ")" * (depth - 1)
        path = tmp_path / f"deep{depth}.vp"
        path.write_text(WORKED.read_text().replace("objective y", f"objective {deep}"))
        code, out, err = run_cli(
            ["subdiff", str(path), "--fn", "lower.objective", "--at", "origin", "--json"], capsys
        )
        assert code == want, (depth, err)
        if want == 2:
            assert out == ""
            assert err.startswith("error: bad problem file: expression nested deeper than")


def test_second_upper_objective_rejected():
    text = WORKED.read_text().replace(
        "objective (+ (* x x) (* y y))", "objective (+ (* x x) (* y y))\nobjective x"
    )
    with pytest.raises(ProblemFileError, match=r"\[upper\] has two objectives"):
        parse_problem_file(text)


# ---------------------------------------------------------------------------
# subdiff command


def test_cmd_subdiff_json(capsys):
    code, out, _ = run_cli(
        ["subdiff", str(WORKED), "--fn", "lower.objective", "--at", "origin", "--json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["results"]["basic"]["parts"] == [[[0.0, 1.0]]]
    assert report["results"]["singular"]["generators"] == []


def test_cmd_subdiff_bad_point_lists_candidates(capsys):
    code, out, err = run_cli(
        ["subdiff", str(WORKED), "--fn", "lower.objective", "--at", "nope"], capsys
    )
    assert code == 2
    assert "origin" in err and "offopt" in err


def test_cmd_subdiff_oracle_deterministic(capsys):
    argv = [
        "subdiff",
        str(KINK),
        "--fn",
        "lower.objective",
        "--at",
        "top",
        "--oracle",
        "--seed",
        "7",
        "--json",
    ]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# normalcone command


def test_cmd_normalcone_lower(capsys):
    code, out, _ = run_cli(
        ["normalcone", str(WORKED), "--set", "lower", "--at", "origin", "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["qualification"] == "polyhedral-exact"
    gens = np.array(report["results"]["parts"][0]["generators"])
    assert gens.shape == (1, 2)
    assert np.allclose(gens[0], np.array([-1.0, -1.0]) / np.sqrt(2))


def test_cmd_normalcone_qualification_refusal(tmp_path, capsys):
    text = """
[vars]
upper x
lower y
[lower]
objective y
constraint (- (abs x) y)
constraint (- y (abs x))
[candidates]
origin 0 0
"""
    path = tmp_path / "graph.vp"
    path.write_text(text)
    code, out, _ = run_cli(
        ["normalcone", str(path), "--set", "lower", "--at", "origin", "--json"], capsys
    )
    assert code == 3
    report = json.loads(out)
    assert "refused" in report["results"]


def test_cmd_normalcone_of_a_needle_polyhedron(tmp_path, capsys):
    # the cone LP of the row (-1e-9, 1) broke down in phase 1: exit 3
    text = """
[vars]
upper x
lower y
[lower]
objective y
constraint (- y)
constraint x
constraint (- x)
constraint (- y (* 1e-9 x))
[candidates]
origin 0 0
"""
    path = tmp_path / "needle.vp"
    path.write_text(text)
    code, out, _ = run_cli(
        ["normalcone", str(path), "--set", "lower", "--at", "origin", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["results"]["qualification"] == "polyhedral-exact"


def test_cmd_normalcone_of_a_near_affine_constraint(tmp_path, capsys):
    # -y + 1e-11 x y is not affine: its cone at the origin is the span of
    # its gradient there, (0, -1); read as affine from sampled probes it
    # was a "polyhedral-exact" cone with generator (5.01e-12, -1)
    text = """
[vars]
upper x
lower y
[lower]
objective y
constraint (+ (- 0 y) (* 1e-11 x y))
[candidates]
origin 0 0
"""
    path = tmp_path / "near_affine.vp"
    path.write_text(text)
    code, out, _ = run_cli(
        ["normalcone", str(path), "--set", "lower", "--at", "origin", "--json"], capsys
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["parts"] == [{"generators": [[0.0, -1.0]], "lineality": []}]
    assert results["qualification"] == "verified"


def test_cmd_normalcone_oracle_refusal_exit2(tmp_path, capsys):
    # four dimensions: the projection oracle supports at most three
    text = """
[vars]
upper x
lower y
lower z
lower w
[lower]
objective y
constraint (- 0 (+ x y))
[candidates]
origin 0 0 0 0
"""
    path = tmp_path / "four.vp"
    path.write_text(text)
    code, out, err = run_cli(
        ["normalcone", str(path), "--set", "lower", "--at", "origin", "--oracle", "--json"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "dim <= 3" in err


def test_cmd_subdiff_non_finite_value_exit2(tmp_path, capsys):
    text = """
[vars]
upper x
lower y
[lower]
objective (pow y 100000)
constraint (- y 2e300)
[candidates]
huge 0 1e300
"""
    path = tmp_path / "huge.vp"
    path.write_text(text)
    code, out, err = run_cli(
        ["subdiff", str(path), "--fn", "lower.objective", "--at", "huge", "--json"], capsys
    )
    assert code == 2
    assert out == ""
    assert "non-finite value" in err


def test_cmd_normalcone_lp_breakdown_exit3(capsys, monkeypatch):
    monkeypatch.setattr(convgeom, "lp_feasible", lambda *lp: LPBreakdown("stalled"))
    code, out, err = run_cli(
        ["normalcone", str(KINK), "--set", "lower", "--at", "top", "--json"], capsys
    )
    assert code == 3
    assert out == ""
    assert "LP breakdown" in err


def test_cmd_certify_lp_breakdown_exit3(capsys, monkeypatch):
    # a broken-down certificate LP is a refusal, not an input error
    monkeypatch.setattr(convgeom, "lp_feasible", lambda *lp: LPBreakdown("stalled"))
    code, out, err = run_cli(
        ["certify", str(WORKED), "--at", "origin", "--theorem", "t74", "--kappa", "4", "--json"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert "LP breakdown" in err


def test_cmd_subdiff_branch_cap_refuses_before_enumerating(tmp_path, capsys):
    # 40 tied kinks at 0 have 2**40 branch combinations: refused from
    # their count, in well under a second and without building any
    path = tmp_path / "abs40.vp"
    terms = " ".join(["(abs x)"] * 40)
    path.write_text(f"[vars]\nupper x\n[upper]\nobjective (+ {terms})\n[candidates]\norigin 0\n")
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            ["subdiff", str(path), "--fn", "upper.objective", "--at", "origin", "--json"], capsys
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1 << 20
    assert code == 3
    assert out == ""
    assert "1099511627776 branch combinations" in err


# ---------------------------------------------------------------------------
# valuefn command


def test_cmd_valuefn_csv(tmp_path, capsys):
    csv_path = tmp_path / "theta.csv"
    code, out, _ = run_cli(
        [
            "valuefn",
            str(WORKED),
            "--x-range",
            "-1",
            "1",
            "0.1",
            "--csv",
            str(csv_path),
            "--json",
        ],
        capsys,
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x_0,theta"
    assert len(lines) == 22  # header + 21 rows
    for line in lines[1:]:
        x, theta = (float(v) for v in line.split(","))
        assert theta == pytest.approx(-x, abs=1e-6)


def test_cmd_valuefn_missing_grid(tmp_path, capsys):
    path = tmp_path / "nogrid.vp"
    path.write_text(
        "[vars]\nupper x\nlower y\n[lower]\nobjective y\nconstraint (- 0 (+ x y))\n"
        "[candidates]\norigin 0 0\n"
    )
    code, _, err = run_cli(["valuefn", str(path)], capsys)
    assert code == 2
    assert "grid" in err


@pytest.mark.parametrize(
    "x_range",
    [
        ("-1", "1", "0"),
        ("-1", "1", "-0.1"),
        ("-1", "1", "nan"),
        ("-1", "1", "inf"),
        ("nan", "1", "0.1"),
        ("-1", "inf", "0.1"),
        ("1", "-1", "0.1"),
        ("-1", "1", "1e-300"),
        ("0", "1e308", "1e-10"),
        ("0", "1048576", "1"),
    ],
)
def test_cmd_valuefn_bad_x_range_exit2(capsys, x_range):
    # refused before any parameter is allocated: non-finite values, STEP <= 0,
    # LO > HI, or more than valuefn.MAX_GRID_POINTS (2**20) parameters
    code, out, err = run_cli(["valuefn", str(KINK), "--x-range", *x_range, "--json"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --x-range") and "Traceback" not in err


def test_cmd_valuefn_unwritable_csv_exit2(tmp_path, capsys):
    csv_path = tmp_path / "missing-dir" / "theta.csv"
    code, out, err = run_cli(["valuefn", str(WORKED), "--csv", str(csv_path), "--json"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "theta.csv" in err and "Traceback" not in err


def test_cmd_valuefn_non_finite_report_leaves_no_csv(tmp_path, capsys):
    # theta = 1e300 * (y + 1e300) overflows, so the report cannot be printed
    path = tmp_path / "inf.vp"
    text = WORKED.read_text().replace("objective y\n", "objective (* 1e300 (+ y 1e300))\n")
    path.write_text(text.replace("[candidates]\norigin 0 0\noffopt 1 -1\n", ""))
    csv_path = tmp_path / "out.csv"
    argv = ["valuefn", str(path), "--x-range", "0", "1", "1", "--csv", str(csv_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: the report holds a non-finite number\n"
    assert not csv_path.exists()


def test_cmd_valuefn_non_finite_candidate_exit2(tmp_path, capsys):
    path = tmp_path / "inf.vp"
    path.write_text(KINK.read_text().replace("top 0 1", "top inf 1"))
    code, out, err = run_cli(["valuefn", str(path), "--json"], capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


# ---------------------------------------------------------------------------
# certify command


def test_cmd_certify_t74_origin(capsys):
    code, out, _ = run_cli(
        [
            "certify",
            str(WORKED),
            "--at",
            "origin",
            "--theorem",
            "t74",
            "--kappa",
            "4",
            "--json",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    res = report["results"]
    assert res["outcome"] == "certificate"
    assert res["u"] == pytest.approx([-1.0], abs=1e-8)
    assert res["multipliers"]["nu"] == pytest.approx([1.0], abs=1e-8)
    assert res["multipliers"]["lambda"] == pytest.approx([1.0], abs=1e-8)
    assert report["caveat"]
    assert report["hypothesis_ledger"]


def test_cmd_certify_t74_off_optimum_exit4(capsys):
    code, out, _ = run_cli(
        [
            "certify",
            str(WORKED),
            "--at",
            "offopt",
            "--theorem",
            "t74",
            "--kappa",
            "4",
            "--override-calmness",
            "--json",
        ],
        capsys,
    )
    assert code == 4
    report = json.loads(out)
    assert report["results"]["outcome"] == "no-certificate"
    assert report["results"]["tightest_infeasibility_margin"] > 0


def test_cmd_certify_t83_hypothesis_failure_exit5(capsys):
    code, out, _ = run_cli(
        [
            "certify",
            str(KINK),
            "--at",
            "top",
            "--theorem",
            "t83",
            "--kappa",
            "4",
            "--override-calmness",
            "--json",
        ],
        capsys,
    )
    assert code == 5
    report = json.loads(out)
    assert report["results"]["outcome"] == "hypothesis-failure"


def test_cmd_certify_t61_fritz_john(tmp_path, capsys):
    path = tmp_path / "fj.vp"
    path.write_text(SINGLE_LEVEL_FJ)
    code, out, _ = run_cli(
        ["certify", str(path), "--at", "origin", "--theorem", "t61", "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["multipliers"]["lambda0"] == pytest.approx(1.0)
    assert report["results"]["multipliers"]["lambda"] == pytest.approx([1.0], abs=1e-8)
    ledger = report["hypothesis_ledger"]
    assert ledger[0]["status"] == "failed"  # MFCQ violated


def test_cmd_certify_t61_kkt(tmp_path, capsys):
    path = tmp_path / "kkt.vp"
    path.write_text(SINGLE_LEVEL_KKT)
    code, out, _ = run_cli(
        ["certify", str(path), "--at", "origin", "--theorem", "t61", "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["hypothesis_ledger"][0]["status"] == "verified"
    assert report["results"]["multipliers"]["lambda0"] == pytest.approx(1.0)


def test_cmd_certify_t83_with_upper_constraints_exit5(tmp_path, capsys):
    text = WORKED.read_text().replace(
        "objective (+ (* x x) (* y y))",
        "objective (+ (* x x) (* y y))\nconstraint (- x 5)",
    )
    path = tmp_path / "withg.vp"
    path.write_text(text)
    code, out, _ = run_cli(
        ["certify", str(path), "--at", "origin", "--theorem", "t83", "--kappa", "4", "--json"],
        capsys,
    )
    assert code == 5


def test_cmd_certify_reads_the_files_tau_act(tmp_path, capsys, monkeypatch):
    """Every active pattern a certificate computes uses the file's activity
    tolerance, the bilevel path's included."""
    path = tmp_path / "kink.vp"
    path.write_text(KINK.read_text() + "tau_act 1e-7\n")
    seen = []
    original = ex.active_patterns

    def recording(f, points, tau_act=ex.TAU_ACT_DEFAULT, branches=None):
        seen.append(tau_act)
        return original(f, points, tau_act, branches)

    monkeypatch.setattr(ex, "active_patterns", recording)
    argv = ["certify", str(path), "--at", "top", "--theorem", "t74", "--kappa", "4",
            "--override-calmness", "--override-isc", "--json"]
    code, _, _ = run_cli(argv, capsys)
    assert code == 4
    assert seen and set(seen) == {1e-7}


def test_cmd_certify_t74_isc_failure_exit5(capsys):
    code, out, _ = run_cli(
        [
            "certify",
            str(KINK),
            "--at",
            "top",
            "--theorem",
            "t74",
            "--kappa",
            "4",
            "--override-calmness",
            "--json",
        ],
        capsys,
    )
    assert code == 5
    report = json.loads(out)
    assert report["results"]["outcome"] == "hypothesis-failure"
    last = report["hypothesis_ledger"][-1]
    assert last["hypothesis"] == "argminimum mapping inner semicontinuous at the candidate"
    assert last["status"] == "failed"


@pytest.mark.filterwarnings("error")
def test_cmd_certify_where_the_cost_overflows_warns_nothing(tmp_path, capsys):
    # x * y**200 is inf or -inf over most of the box, so the grid's slope
    # bound meets inf - inf; that quotient is discarded, without a warning
    text = KINK.read_text().replace("objective (* x y)", "objective (* x (pow y 200))")
    text = text.replace("(- (abs y) 1)", "(- (abs y) 1e3)").replace("box y -2 2", "box y -1e3 1e3")
    path = tmp_path / "overflow.vp"
    path.write_text(text)
    code, _, err = run_cli(["certify", str(path), "--at", "top", "--theorem", "t74", "--json"], capsys)
    assert code == 5
    assert err == ""


@pytest.mark.parametrize("theorem", ["t74", "t83"])
@pytest.mark.parametrize("kappa", ["nan", "inf", "-inf", "0", "-1"])
def test_cmd_certify_bad_kappa_exit2(tmp_path, capsys, theorem, kappa):
    # checked before the candidate is: "outside" violates the lower constraint
    path = tmp_path / "outside.vp"
    path.write_text(WORKED.read_text().replace("offopt 1 -1", "offopt 1 -1\noutside 0 -5"))
    for at in ("origin", "offopt", "outside"):
        argv = ["certify", str(path), "--at", at, "--theorem", theorem, f"--kappa={kappa}"]
        code, out, err = run_cli(argv + ["--json"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: penalty constant must be finite and positive")


@pytest.mark.parametrize(
    "grid,extra",
    [("nan 2", ["--kappa-sweep"]), ("nan 2", []), ("0", []), ("2 inf", ["--kappa-sweep"])],
)
def test_cmd_certify_bad_kappa_grid_exit2(tmp_path, capsys, grid, extra):
    # without --kappa the first constant is used; a sweep stops at the first
    # bad one (offopt fails the calmness probe at 2)
    path = tmp_path / "grid.vp"
    path.write_text(WORKED.read_text().replace("kappa_grid 1 2 4 8 16", f"kappa_grid {grid}"))
    argv = ["certify", str(path), "--at", "offopt", "--theorem", "t74", *extra, "--json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: penalty constant must be finite and positive")


def _abs_sum(count: int) -> str:
    text = "(abs x)"
    for _ in range(count - 1):
        text = f"(+ {text} (abs x))"
    return text


# 13 active lower constraints: the lower graph's normal cone overflows
MANY_LOWER = (
    "[vars]\nupper x\nlower y\n[lower]\nobjective y\n"
    + "constraint (- (- 0 (abs x)) y)\n" * 13
    + "[upper]\nobjective (+ (* x x) (* y y))\n[candidates]\norigin 0 0\n"
    + "[grid]\nbox y -2 2\nresolution 401\n"
)

OVERFLOW_CASES = {
    # 13 kinks of one objective: 8192 branch combinations
    "subdiff": (
        f"[vars]\nupper x\n[upper]\nobjective {_abs_sum(13)}\n[candidates]\norigin 0\n",
        ["subdiff", "--fn", "upper.objective", "--at", "origin"],
    ),
    # objective and 12 active constraints with two branches each
    "t61": (
        "[vars]\nupper x\n[upper]\nobjective (- 0 (abs x))\n"
        + "constraint (- 0 (abs x))\n" * 12
        + "[candidates]\norigin 0\n",
        ["certify", "--at", "origin", "--theorem", "t61"],
    ),
    "t74": (
        MANY_LOWER,
        ["certify", "--at", "origin", "--theorem", "t74", "--kappa", "4", "--override-calmness"],
    ),
    "normalcone": (MANY_LOWER, ["normalcone", "--set", "lower", "--at", "origin"]),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_combination_overflow_exit3(tmp_path, capsys, case):
    text, argv = OVERFLOW_CASES[case]
    path = tmp_path / "many.vp"
    path.write_text(text)
    code, out, err = run_cli([argv[0], str(path)] + argv[1:] + ["--json"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: refused: ") and "branch" in err


# y - xy is smooth with gradient (-1, 0) at (1, 1)
EMPTY_BASIC = "[vars]\nupper x\nupper y\n[upper]\nobjective (- (min y y) (* x y))\n[candidates]\nc 1 1\n"


@pytest.mark.parametrize(
    "argv",
    [["subdiff", "--fn", "upper.objective", "--at", "c"], ["certify", "--at", "c", "--theorem", "t61"]],
)
def test_empty_basic_subdifferential_exit3(tmp_path, capsys, monkeypatch, argv):
    # an empty regular subdifferential for every realizable pattern is a
    # calculus failure on valid input, so a refusal and not an input error
    monkeypatch.setattr(subdiff, "_regular", lambda *args: (None, False))
    path = tmp_path / "empty.vp"
    path.write_text(EMPTY_BASIC)
    code, out, err = run_cli([argv[0], str(path)] + argv[1:] + ["--json"], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: refused: no realizable pattern produced a subgradient set\n"


# ---------------------------------------------------------------------------
# verify and extremal commands


def test_cmd_verify_file(tmp_path, capsys):
    code, out, _ = run_cli(["verify", str(WORKED), "--json", "--dirs", "16"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["failed"] == []


def test_cmd_verify_file_without_candidates_exit2(tmp_path, capsys):
    # no candidate means no check, which must not read as a pass
    path = tmp_path / "nocand.vp"
    path.write_text(WORKED.read_text().replace("[candidates]\norigin 0 0\noffopt 1 -1\n", ""))
    code, out, err = run_cli(["verify", str(path), "--json"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: verify needs a [candidates] section with at least one candidate\n"


def test_cmd_verify_file_reads_the_files_params_but_not_its_seed(tmp_path, capsys):
    """verify FILE takes tau_act from [params], but its seed stays --seed
    (default 0), whatever the file's seed."""
    runs = {}
    for name, params in (("plain", "seed 0"), ("tau", "seed 0\ntau_act 2"), ("seed", "seed 5")):
        path = tmp_path / f"{name}.vp"
        path.write_text(KINK.read_text().replace("seed 0", params))
        code, out, _ = run_cli(["verify", str(path), "--json", "--dirs", "16"], capsys)
        report = json.loads(out)
        assert report["inputs"]["seed"] == 0
        runs[name] = code, report["results"]
    assert runs["plain"][0] == runs["seed"][0] == 0
    assert runs["seed"][1] == runs["plain"][1]
    # at tau_act 2 both branches of |y| - 1 count as active at y = +-1,
    # a kink the sampled oracle does not see
    assert runs["tau"][0] == 1
    assert runs["tau"][1] != runs["plain"][1]


@pytest.mark.parametrize("name", ["worked.vp", "worked2.vp", "kink.vp"])
def test_subdiff_accepts_exactly_the_paths_verify_reports(capsys, name):
    path = ROOT / "problems" / name
    pf = parse_problem_file(path.read_text())
    code, out, _ = run_cli(["verify", str(path), "--json", "--dirs", "16"], capsys)
    assert code == 0
    reported = [c["entry"].split("@")[0] for c in json.loads(out)["results"]["checks"]]
    assert list(dict.fromkeys(reported)) == list(pf.functions)
    at = next(iter(pf.candidates))
    for fn in pf.functions:
        code, out, _ = run_cli(["subdiff", str(path), "--fn", fn, "--at", at, "--json"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["function"] == fn


@pytest.mark.parametrize(
    "fn", ["lower.constraint.-1", "lower.constraint.00", "lower.objective.junk", "upper.constraint.0"]
)
def test_subdiff_unknown_function_path_exit2(capsys, fn):
    code, out, err = run_cli(["subdiff", str(WORKED), "--fn", fn, "--at", "origin", "--json"], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: unknown function path {fn!r}; valid function paths: "
        "lower.objective, lower.constraint.0, upper.objective\n"
    )


def test_cmd_verify_bad_dirs_exit2(capsys):
    for dirs, message in (("1", "at least 2"), ("4097", "at most 4096")):
        code, out, err = run_cli(["verify", "--builtin-corpus", "--dirs", dirs, "--json"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: dirs_per_radius must be {message}\n"


def test_cmd_extremal_halfplanes(capsys):
    code, out, _ = run_cli(["extremal", "--builtin", "halfplanes", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["outcome"] == "trace"
    assert report["results"]["euler_residuals"][-1] <= 1e-3


def test_cmd_extremal_nonextremal_diagnostic(capsys):
    code, out, _ = run_cli(["extremal", "--builtin", "nonextremal", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["outcome"] == "not-witnessed"


# ---------------------------------------------------------------------------
# determinism across all commands (console-script level)


def test_console_script_determinism(tmp_path):
    fj = tmp_path / "fj.vp"
    fj.write_text(SINGLE_LEVEL_FJ)
    commands = [
        ["subdiff", str(WORKED), "--fn", "lower.objective", "--at", "origin", "--oracle"],
        ["normalcone", str(WORKED), "--set", "lower", "--at", "origin", "--oracle"],
        ["valuefn", str(WORKED), "--x-range", "-0.5", "0.5", "0.25"],
        ["certify", str(WORKED), "--at", "origin", "--theorem", "t74", "--kappa", "4"],
        ["certify", str(fj), "--at", "origin", "--theorem", "t61"],
        ["extremal", "--builtin", "boundary"],
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
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f"non-deterministic output for {argv[0]}"
        json.loads(outputs[0])  # valid JSON


def test_readme_commands_load_no_scipy(tmp_path):
    # every README command, and verify on a problem file, runs on numpy alone
    worked, worked2 = str(WORKED), str(ROOT / "problems" / "worked2.vp")
    runs = [
        (["subdiff", worked, "--fn", "lower.objective", "--at", "origin", "--oracle", "--json"], 0),
        (["normalcone", worked, "--set", "lower", "--at", "origin", "--oracle", "--json"], 0),
        (["normalcone", worked2, "--set", "lower", "--at", "origin", "--oracle", "--json"], 0),
        (["valuefn", worked, "--x-range", "-1", "1", "0.1", "--csv", str(tmp_path / "theta.csv")], 0),
        (["certify", worked, "--at", "origin", "--theorem", "t74", "--kappa", "4", "--json"], 0),
        (["certify", worked, "--at", "offopt", "--theorem", "t74", "--kappa", "4", "--override-calmness"], 4),
        (["verify", "--builtin-corpus"], 0),
        (["verify", worked, "--json"], 0),
        (["extremal", "--builtin", "halfplanes", "--json"], 0),
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from varcalc import cli\n"
        "for argv, want in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == want, argv\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_scipy_optimize_or_spatial():
    # importing the CLI loads no SciPy; subdiff.sciopt, which only
    # bench/tracer.py reads, loads SciPy's optimizers on first read
    code = (
        "import sys\n"
        "import varcalc.cli\n"
        "loaded = sorted(m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules)\n"
        "assert not loaded, loaded\n"
        "from varcalc import subdiff\n"
        "assert callable(subdiff.sciopt.minimize) and 'sciopt' in vars(subdiff)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
