"""Golden outputs: the exit code and the sha256 of the `--json` stdout of
CLI commands on the shipped problem files and the builtins at seed 7,
and of the corpus and one subdifferential oracle at seed 2 as well; and
the LP work of each command, the number of phase-1 LPs
(``convgeom.lp_feasible`` calls) it runs, so that a change which adds or
removes LPs shows as a count that moved.

A change that alters any of these bytes or counts says why in CHANGES.md
and rewrites both files with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from varcalc import cli, convgeom
from varcalc.problemfile import parse_problem_file

ROOT = Path(__file__).resolve().parent.parent
HASHES = ROOT / "tests" / "golden" / "hashes.json"
COUNTS = ROOT / "tests" / "golden" / "lp_counts.json"
FILES = ("problems/worked.vp", "problems/kink.vp")
# the one 3-D lower graph: pins the sampled normal-cone oracle's 3-D lattice
# and the two-variable value-function search
WORKED2 = "problems/worked2.vp"
# the one single-level program: pins the T6.1 certificate
SINGLE = "problems/single.vp"
SEED = "7"
SECOND_SEED = "2"


def commands() -> list[tuple[str, ...]]:
    out = []
    for rel in FILES:
        pf = parse_problem_file((ROOT / rel).read_text())
        for cand in pf.candidates:
            out.append(("normalcone", rel, "--set", "lower", "--at", cand, "--oracle"))
            out.append(("subdiff", rel, "--fn", "lower.objective", "--at", cand, "--oracle"))
            for theorem in ("t74", "t83"):
                cmd = ("certify", rel, "--at", cand, "--theorem", theorem, "--kappa", "4")
                out += [cmd, cmd + ("--override-calmness",)]
        out.append(("verify", rel))
        out.append(("valuefn", rel, "--x-range", "-1", "1", "0.1"))
    out.append(("normalcone", WORKED2, "--set", "lower", "--at", "origin", "--oracle"))
    out.append(("verify", WORKED2))
    # the one certify and value function with two lower variables
    for theorem in ("t74", "t83"):
        out.append(("certify", WORKED2, "--at", "origin", "--theorem", theorem, "--kappa", "4"))
    out.append(("valuefn", WORKED2, "--x-range", "-1", "1", "0.1"))
    # a lower constraint and an upper objective, named by the file's path map
    out.append(("subdiff", WORKED2, "--fn", "lower.constraint.1", "--at", "origin", "--oracle"))
    out.append(("subdiff", FILES[0], "--fn", "upper.objective", "--at", "offopt", "--oracle"))
    out.append(("certify", SINGLE, "--at", "origin", "--theorem", "t61"))
    out.append(("subdiff", SINGLE, "--fn", "upper.objective", "--at", "origin", "--oracle"))
    out.append(("verify", SINGLE))
    out += [("extremal", "--builtin", name) for name in cli.EXTREMAL_BUILTINS]
    out.append(("verify", "--builtin-corpus"))
    # a second seed moves every sampled point the oracles cluster
    out.append(("verify", "--builtin-corpus", "--seed", SECOND_SEED))
    kink_top = ("subdiff", "problems/kink.vp", "--fn", "lower.objective", "--at", "top", "--oracle")
    out.append(kink_top + ("--seed", SECOND_SEED))
    return out


@functools.cache
def run(cmd: tuple[str, ...]) -> tuple[dict, int]:
    """The command's exit code and stdout hash, and the LPs it ran; one run
    per command serves both of its tests."""
    seed = [] if "--seed" in cmd else ["--seed", SEED]
    argv = [str(ROOT / a) if a in FILES + (WORKED2, SINGLE) else a for a in cmd] + ["--json", *seed]
    buf = io.StringIO()
    calls = []
    real = convgeom.lp_feasible

    def spy(*lp):
        calls.append(1)
        return real(*lp)

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(buf):
        mp.setattr(convgeom, "lp_feasible", spy)
        code = cli.main(argv)
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}, len(calls)


@pytest.mark.parametrize("cmd", commands(), ids=" ".join)
def test_golden_json(cmd):
    assert run(cmd)[0] == json.loads(HASHES.read_text())[" ".join(cmd)]


@pytest.mark.parametrize("cmd", commands(), ids=" ".join)
def test_golden_command_lp_count(cmd):
    assert run(cmd)[1] == json.loads(COUNTS.read_text())[" ".join(cmd)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    runs = {" ".join(cmd): run(cmd) for cmd in commands()}
    HASHES.parent.mkdir(exist_ok=True)
    for path, i in ((HASHES, 0), (COUNTS, 1)):
        path.write_text(json.dumps({k: v[i] for k, v in runs.items()}, indent=2, sort_keys=True) + "\n")
