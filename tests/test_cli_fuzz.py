"""The exit-code contract under mutated problem files.

Every run of ``cli.main`` on any problem-file text ends in a documented
exit code: 0 ok, 2 input error, 3 refusal, 4 no certificate or 5
hypothesis failure.  No exception escapes, an input error or a refusal
says why in an "error: " line on stderr (a normal-cone qualification
refusal says so in its report, with the witness), and anything on stdout
is a standard JSON report, with no NaN or Infinity.  The examples are
derandomized, so every run of the suite tries the same inputs.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from varcalc import cli
from varcalc import expr as ex

ROOT = Path(__file__).resolve().parent.parent
# two lower variables, candidate where |y| <= 1 and the max's |z| branch
# are active and abs (- y z) sits at its kink
TIED = """[vars]
upper x
lower y
lower z

[lower]
objective (* x (+ y z))
constraint (- (abs y) 1)
constraint (- (max (abs z) (abs (- y z))) 1)

[upper]
objective (+ (* x x) (* y y) (* z z))

[candidates]
tie 0 1 1

[grid]
box y -2 2
box z -2 2
resolution 101
"""
BASES = {
    "worked": ((ROOT / "problems" / "worked.vp").read_text(), "origin"),
    "kink": ((ROOT / "problems" / "kink.vp").read_text(), "top"),
    "worked2": ((ROOT / "problems" / "worked2.vp").read_text(), "origin"),
    "tied": (TIED, "tie"),
}

NUMBERS = (
    "nan", "inf", "-inf", "0", "-1", "-1000000", "0.5", "2", "3", "1e-300", "1e300", "1e400",
    "abc", "",
)
# the grid budget is 2**20 points; smaller values stay under it but may
# break the resolution's own floor of 3
RESOLUTIONS = (0, 1, 2, 3, (1 << 20) + 1, 10**9, 10**30)


def _nested(depth: int, inner: str) -> str:
    return "(abs " * (depth - 1) + inner + ")" * (depth - 1)


DEEP = tuple(
    _nested(depth, inner)
    for depth in (ex.MAX_NESTING, ex.MAX_NESTING + 1, 1200)
    for inner in ("(+ 1 y)", "(- y x)")
)


def _mutate(draw, lines: list[str]) -> list[str]:
    kind = draw(st.sampled_from(("number", "drop", "duplicate", "resolution", "deep", "section")))
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    if kind == "number":
        toks = line.split()
        if len(toks) > 1:
            toks[draw(st.integers(1, len(toks) - 1))] = draw(st.sampled_from(NUMBERS))
        return lines[:i] + [" ".join(toks)] + lines[i + 1 :]
    if kind == "drop":
        return lines[:i] + lines[i + 1 :]
    if kind == "duplicate":
        return lines[: i + 1] + [line] + lines[i + 1 :]
    if kind == "resolution":
        res = f"resolution {draw(st.sampled_from(RESOLUTIONS))}"
        grid = [j for j, l in enumerate(lines) if l.startswith(("[grid]", "resolution"))]
        j = grid[-1] if grid else len(lines) - 1
        if lines[j].startswith("resolution"):
            return lines[:j] + [res] + lines[j + 1 :]
        return lines[: j + 1] + [res] + lines[j + 1 :]
    if kind == "deep":
        keyed = [j for j, l in enumerate(lines) if l.startswith(("objective", "constraint"))]
        j = draw(st.sampled_from(keyed))
        key = lines[j].split()[0]
        return lines[:j] + [f"{key} {draw(st.sampled_from(DEEP))}"] + lines[j + 1 :]
    headers = [j for j, l in enumerate(lines) if l.startswith("[")]
    j = draw(st.sampled_from(headers))
    header = draw(st.sampled_from(("", "[foo]", lines[j] + "\n" + lines[j])))
    return lines[:j] + [header] + lines[j + 1 :]


@st.composite
def runs(draw):
    text, at = BASES[draw(st.sampled_from(sorted(BASES)))]
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        lines = _mutate(draw, lines)
    at = draw(st.sampled_from((at, at, at, "nosuch")))
    command = draw(
        st.sampled_from(
            (
                ["subdiff", "--fn", "lower.objective", "--at", at],
                ["subdiff", "--fn", "upper.objective", "--at", at],
                ["subdiff", "--fn", "lower.constraint.1", "--at", at],
                # malformed paths: not in the file's path map, so exit 2
                ["subdiff", "--fn", "lower.constraint.-1", "--at", at],
                ["subdiff", "--fn", "lower.constraint.00", "--at", at],
                ["subdiff", "--fn", "lower.objective.junk", "--at", at],
                ["subdiff", "--fn", "upper.constraint.0", "--at", at],
                ["normalcone", "--set", "lower", "--at", at],
                ["normalcone", "--set", "upper", "--at", at],
                ["valuefn"],
                ["certify", "--at", at, "--theorem", "t74"],
                ["certify", "--at", at, "--theorem", "t83"],
            )
        )
    )
    if command[0] == "certify":
        command += draw(
            st.sampled_from(
                ([], ["--kappa-sweep"], ["--override-calmness"], ["--kappa=nan"], ["--kappa=4"])
            )
        )
    command += draw(st.sampled_from(([], [], ["--seed=7"], ["--seed=-1000000"])))
    return "\n".join(lines) + "\n", command


def _deep_objective(depth: int) -> str:
    return BASES["worked"][0].replace("objective y", f"objective {_nested(depth, '(+ 1 y)')}")


# inputs whose inner-semicontinuity witness distance squares past the
# largest float
HUGE_BOX = BASES["worked"][0].replace("box y -2 2", "box y -1e300 1e300")
HUGE_CANDIDATE = BASES["worked"][0].replace("origin 0 0", "origin 1e200 -1e200")


def _finite_only(name: str):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(runs())
@example((BASES["worked"][0], ["verify", "--dirs", "1"]))
@example((BASES["worked"][0], ["subdiff", "--fn", "lower.objective", "--at", "origin", "--seed=-1000000"]))
@example((BASES["worked"][0] + "seed -1000000\n", ["normalcone", "--set", "lower", "--at", "origin"]))
@example((BASES["worked"][0], ["valuefn", "--csv", "/nonexistent/dir/t.csv"]))
@example((BASES["worked"][0], ["certify", "--at", "origin", "--theorem", "t74", "--kappa=nan"]))
@example((BASES["worked"][0], ["certify", "--at", "origin", "--theorem", "t74", "--kappa=inf"]))
@example((BASES["worked"][0], ["certify", "--at", "origin", "--theorem", "t83", "--kappa=0"]))
@example(
    (
        BASES["worked"][0].replace("kappa_grid 1 2 4 8 16", "kappa_grid nan 2"),
        ["certify", "--at", "offopt", "--theorem", "t74", "--kappa-sweep"],
    )
)
@example((_deep_objective(ex.MAX_NESTING + 1), ["subdiff", "--fn", "lower.objective", "--at", "origin"]))
@example((_deep_objective(1200), ["subdiff", "--fn", "lower.objective", "--at", "origin"]))
@example((HUGE_BOX, ["valuefn"]))
@example((HUGE_BOX, ["certify", "--at", "origin", "--theorem", "t74"]))
@example((HUGE_CANDIDATE, ["valuefn"]))
@example((HUGE_CANDIDATE, ["certify", "--at", "origin", "--theorem", "t74", "--override-calmness"]))
def test_every_run_ends_in_a_documented_exit_code(run):
    text, command = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.vp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command[0], path, *command[1:], "--json"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4, 5), (code, err)
    assert "Traceback" not in err
    if not out:
        # numpy may warn on stderr before the error line
        assert code in (2, 3)
        assert err.splitlines()[-1].startswith("error: refused: " if code == 3 else "error: ")
        return
    report = json.loads(out, parse_constant=_finite_only)
    if code in (2, 3):
        assert code == 3 and command[0] == "normalcone" and "refused" in report["results"]
