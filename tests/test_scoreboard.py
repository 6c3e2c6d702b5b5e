"""Correctness scoreboard: seeded families of inputs, each command's
answer compared with a reference that shares no code path with it, and
the wrong answers counted.

Family ``homogeneous-pa-origin``: positively homogeneous piecewise-affine
trees over x, y, of depth at most 4, built from + - abs max min and
integer scalings by +-1..3, at the origin.  There f'(0; d) = f(d), so the
regular subdifferential is {v : <v, d> <= f(d) for all d}, decided by
values alone: the reference evaluates f with eval_batch on 4 096 unit
directions and never calls active_patterns, branch_gradients or
_combo_data.  Each tree counts as

- unsound: some vertex v of regular_subdifferential at the origin has
  max_d (<v, d> - f(d)) > 1e-6;
- refused: regular_subdifferential raises SubdiffError or GeometryError;
- crashed: it raises any other exception.

An empty answer holds no point and is never unsound; how much a sound
answer leaves out is not counted here.  The test fails when a count rises
or the draw changes.  A change that lowers a count says so in CHANGES.md
and rewrites the file with

    PYTHONPATH=src python tests/test_scoreboard.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from varcalc import expr as E
from varcalc import subdiff as S
from varcalc.convgeom import GeometryError

SCOREBOARD = Path(__file__).resolve().parent / "golden" / "scoreboard.json"
FAMILY = "homogeneous-pa-origin"
SEEDS = (2026, 7)
TREES = 300
MAX_DEPTH = 4
UNSOUND_TOL = 1e-6
XY = E.VarSpace.of("x", "y")
_ANGLES = 2 * np.pi * np.arange(4096) / 4096
DIRECTIONS = np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], axis=1)
_OPS = ("var", "+", "-", "abs", "max", "min", "scale")


def draw(rng: np.random.Generator, depth: int = MAX_DEPTH) -> str:
    """One tree as text; below depth 0 every node is a variable."""
    op = "var" if depth == 0 else _OPS[rng.integers(len(_OPS))]
    if op == "var":
        return XY.names[rng.integers(2)]
    if op == "abs":
        return f"(abs {draw(rng, depth - 1)})"
    if op == "scale":
        return f"(* {rng.choice([-3, -2, -1, 1, 2, 3])} {draw(rng, depth - 1)})"
    return f"({op} {draw(rng, depth - 1)} {draw(rng, depth - 1)})"


def outcome(f: E.FunctionDef) -> str:
    try:
        regular = S.regular_subdifferential(f, [0.0, 0.0])
    except (S.SubdiffError, GeometryError):
        return "refused"
    except Exception:
        return "crashed"
    if regular is None:
        return "sound"
    gap = regular.vertices @ DIRECTIONS.T - E.eval_batch(f, DIRECTIONS)
    return "unsound" if gap.max() > UNSOUND_TOL else "sound"


def score(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    texts = [draw(rng) for _ in range(TREES)]
    counts = {"unsound": 0, "refused": 0, "crashed": 0}
    for text in texts:
        result = outcome(E.parse_function(text, XY))
        if result in counts:
            counts[result] += 1
    draw_sha256 = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return {"trees": TREES, "draw_sha256": draw_sha256, **counts}


@pytest.mark.parametrize("seed", SEEDS)
def test_no_count_rises(seed):
    want = json.loads(SCOREBOARD.read_text())[FAMILY][str(seed)]
    got = score(seed)
    assert (got["trees"], got["draw_sha256"]) == (want["trees"], want["draw_sha256"])
    for count in ("unsound", "refused", "crashed"):
        assert got[count] <= want[count], (count, got, want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_scoreboard.py --write")
    SCOREBOARD.parent.mkdir(exist_ok=True)
    board = {FAMILY: {str(seed): score(seed) for seed in SEEDS}}
    SCOREBOARD.write_text(json.dumps(board, indent=2, sort_keys=True) + "\n")
