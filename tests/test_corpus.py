import json
from dataclasses import replace

import numpy as np
import pytest

from tests import brute
from varcalc import cli
from varcalc import convgeom as G
from varcalc import corpus as C
from varcalc import expr as E
from varcalc import subdiff as S

FAST = S.SampleParams(dirs_per_radius=32)


def test_corpus_has_twenty_entries_with_required_functions():
    assert len(C.CORPUS) == 20
    texts = {e.text for e in C.CORPUS}
    for required in ("(abs x)", "(- (abs x))", "(min 0 x)", "(max x (* 2 x))", "(max x y)", "(* x x)"):
        assert required in texts
    dims = {e.space.dim for e in C.CORPUS}
    assert dims == {1, 2}


CONVEX = {
    "abs",
    "max_x_2x",
    "max_xy",
    "square_at_one",
    "square_at_zero",
    "abs_plus_x",
    "abs_minus_x",
    "double_kink",
    "max_three_slopes",
    "max_square_linear",
    "l1_norm",
    "linf_norm",
}


def test_every_entry_flagged_convex_is_midpoint_convex_around_its_point():
    # the convex-reduction check runs on the flagged entries, so the flag
    # is audited by values alone, and the set (12 checks) stays as it is
    assert {e.name for e in C.CORPUS if e.convex} == CONVEX
    rng = np.random.default_rng(0)
    for entry in C.CORPUS:
        if entry.convex:
            assert brute.midpoint_convexity_gap(entry.function(), entry.point, rng) <= 1e-12, entry.name


def test_corpus_expected_values_are_canonical():
    for entry in C.CORPUS:
        union = entry.expected_union()
        assert union.dim == entry.space.dim


def test_verify_suite_passes_on_builtin_corpus():
    report = C.run_verify_suite(C.CORPUS, params=FAST)
    assert report.all_passed, report.failing()
    rules = {c.rule for c in report.checks}
    assert {
        "expected-value",
        "oracle-consistency",
        "convex-reduction",
        "sum-rule",
        "intersection-rule-refusal",
        "difference-rule",
        "coderivative-criterion",
        "extremal-principle",
    } <= rules


def test_verify_suite_flags_injected_wrong_gradient():
    corrupted = list(C.CORPUS[:3])
    bad = replace(corrupted[0], expected_basic=(((-1.0,), (2.5,)),))
    corrupted[0] = bad
    report = C.run_verify_suite(tuple(corrupted), params=FAST)
    assert not report.all_passed
    failing = report.failing()
    assert any(c.rule == "expected-value" and c.entry == bad.name for c in failing)


def test_cli_verify_exit_one_names_failing_rule(monkeypatch, capsys):
    corrupted = list(C.CORPUS[:3])
    corrupted[0] = replace(corrupted[0], expected_basic=(((9.0,),),))
    monkeypatch.setattr(C, "CORPUS", tuple(corrupted))
    code = cli.main(["verify", "--builtin-corpus", "--json", "--dirs", "16"])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    rules = {c["rule"] for c in report["results"]["failed"]}
    assert "expected-value" in rules


def test_pattern_census_reported():
    f = E.parse_function("(min 0 x)", E.VarSpace.of("x"))
    result = S.full_subdifferential(f, [0.0], FAST)
    census = result.witnesses["pattern_census"]
    assert len(census) >= 2
    assert any(c["at_smallest_radius"] for c in census)


def test_branch_restricted_eval_matches_where_uniquely_active():
    # fixing the branch reproduces the function on its activity region
    f = E.parse_function("(max (* x x) x)", E.VarSpace.of("x"))
    for p, expect_piece in [(0.5, "x"), (-0.5, "(* x x)")]:
        pat = E.active_pattern(f, [p])
        assert all(len(act) == 1 for act in pat.values())
        rng = np.random.default_rng(1)
        for u in p + rng.uniform(-0.05, 0.05, 12):
            assert E.evaluate(f, [u], pat) == pytest.approx(E.evaluate(f, [u]), abs=1e-12)


def test_verify_suite_lp_count_stays_at_its_measured_figure(monkeypatch):
    # convex_hull and Polytope.contains run no LP below three dimensions,
    # and unions take their parts as built: 77 LPs at the default seed,
    # where re-hulling every union part left 85, the acceptance-band
    # shortcut 216 and every hull running its LPs 887; a hull LP back in
    # the planar path, or a 3-D part hulled again, shows here
    calls = []
    real = G.lp_feasible

    def spy(*lp):
        calls.append(1)
        return real(*lp)

    monkeypatch.setattr(G, "lp_feasible", spy)
    assert C.run_verify_suite().all_passed
    assert len(calls) <= 77


def test_verify_suite_lp_rows_and_columns_stay_at_their_measured_figures(monkeypatch):
    # the rows and columns of every tableau handed to the simplex: 208 and
    # 142 at the default seed, where capping each cone weight at 1e6 by a
    # row and a slack column left 282 and 225; a hidden row or column
    # added back to the LPs shows here
    sizes = []
    real = G._phase1_simplex

    def spy(A, b):
        sizes.append(A.shape)
        return real(A, b)

    monkeypatch.setattr(G, "_phase1_simplex", spy)
    assert C.run_verify_suite().all_passed
    assert sum(m for m, _ in sizes) <= 208
    assert sum(n for _, n in sizes) <= 142


def test_verify_suite_pattern_and_forward_pass_counts_stay_at_their_measured_figures(monkeypatch):
    # one active_patterns call per census and per oracle, over the point
    # and every radius at once, the regular subdifferential taken from
    # the census's first piece, and the epigraph check handed the basic
    # subdifferential it compares: a per-radius call, a second regular
    # pass or a second census back in any of them shows here
    calls = {"active_patterns": 0, "_forward": 0}

    def spy(name):
        real = getattr(E, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(E, name, counted)

    spy("active_patterns")
    spy("_forward")
    assert C.run_verify_suite().all_passed
    assert calls == {"active_patterns": 326, "_forward": 1031}
