"""Correctness scoreboard: seeded families of inputs, each command's
answer compared with a reference that shares no code path with it, and
the wrong answers counted.

Every family draws random expression trees of depth at most 4 and asks
for regular_subdifferential at the origin.  The function is Lipschitz and
directionally differentiable there, so the regular subdifferential is
{v : <v, d> <= f'(0; d) for all d}, decided by values alone: each
reference evaluates f with eval_batch along a dense set of unit
directions and never calls active_patterns, branch_gradients or
_combo_data.  The families:

- ``homogeneous-pa-origin``: positively homogeneous piecewise-affine
  trees over x, y, built from + - abs max min and integer scalings by
  +-1..3.  There f'(0; d) = f(d), on 4 096 directions around the circle;
- ``homogeneous-pa-origin-3d``: the same draw over x, y, z, with f on a
  4 096-point Fibonacci sphere;
- ``polynomial-pieces-origin``: trees over x, y and the constants 0.5 and
  -1, built from + - * abs max min, squares and scalings by +-2 and +-3.
  f'(0; d) is read off a three-level Richardson table of the one-sided
  quotients (f(t d) - f(0)) / t at t = 1e-5, 5e-6 and 2.5e-6, on 2 048
  directions around the circle.

Each tree counts as

- unsound: some vertex v of the answer has max_d (<v, d> - f'(0; d))
  above the family's tolerance;
- refused: regular_subdifferential raises SubdiffError or GeometryError;
- crashed: it raises any other exception.

An empty answer holds no point and is never unsound; how much a sound
answer leaves out is not counted here.  The test fails when a count rises
or the draw changes.  A change that lowers a count says so in CHANGES.md
and rewrites the file with

    PYTHONPATH=src python tests/test_scoreboard.py --write

which refuses to record a count above the committed one; a new family or
seed is written as measured.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from varcalc import expr as E
from varcalc import subdiff as S
from varcalc.convgeom import GeometryError

SCOREBOARD = Path(__file__).resolve().parent / "golden" / "scoreboard.json"
SEEDS = (2026, 7)
TREES = 300
MAX_DEPTH = 4
COUNTS = ("unsound", "refused", "crashed")


def circle(n: int) -> np.ndarray:
    angles = 2 * np.pi * np.arange(n) / n
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n) + 0.5
    polar = np.arccos(1 - 2 * k / n)
    azimuth = np.pi * (1 + np.sqrt(5)) * k
    return np.stack(
        [np.cos(azimuth) * np.sin(polar), np.sin(azimuth) * np.sin(polar), np.cos(polar)], axis=1
    )


def homogeneous_draw(names: tuple[str, ...]) -> Callable[[np.random.Generator], str]:
    ops = ("var", "+", "-", "abs", "max", "min", "scale")

    def draw(rng: np.random.Generator, depth: int = MAX_DEPTH) -> str:
        """One tree as text; below depth 0 every node is a variable."""
        op = "var" if depth == 0 else ops[rng.integers(len(ops))]
        if op == "var":
            return names[rng.integers(len(names))]
        if op == "abs":
            return f"(abs {draw(rng, depth - 1)})"
        if op == "scale":
            return f"(* {rng.choice([-3, -2, -1, 1, 2, 3])} {draw(rng, depth - 1)})"
        return f"({op} {draw(rng, depth - 1)} {draw(rng, depth - 1)})"

    return draw


def polynomial_draw(rng: np.random.Generator, depth: int = MAX_DEPTH) -> str:
    """One tree as text; below depth 0 every node is a leaf."""
    ops = ("leaf", "+", "-", "*", "abs", "max", "min", "square", "scale")
    op = "leaf" if depth == 0 else ops[rng.integers(len(ops))]
    if op == "leaf":
        return ("x", "y", "0.5", "-1")[rng.integers(4)]
    if op == "abs":
        return f"(abs {polynomial_draw(rng, depth - 1)})"
    if op == "square":
        return f"(pow {polynomial_draw(rng, depth - 1)} 2)"
    if op == "scale":
        return f"(* {rng.choice([-3, -2, 2, 3])} {polynomial_draw(rng, depth - 1)})"
    return f"({op} {polynomial_draw(rng, depth - 1)} {polynomial_draw(rng, depth - 1)})"


def richardson_slopes(f: E.FunctionDef, dirs: np.ndarray) -> np.ndarray:
    """f'(0; d) per row of dirs: one-sided quotients at t, t/2 and t/4 with
    t = 1e-5, their O(t) terms cancelled pairwise, then the O(t^2) term."""
    base = E.evaluate(f, np.zeros(dirs.shape[1]))
    q1, q2, q4 = ((E.eval_batch(f, t * dirs) - base) / t for t in (1e-5, 5e-6, 2.5e-6))
    a, b = 2 * q2 - q1, 2 * q4 - q2
    return (4 * b - a) / 3


class Family(NamedTuple):
    space: E.VarSpace
    draw: Callable[[np.random.Generator], str]
    directions: np.ndarray
    slopes: Callable[[E.FunctionDef, np.ndarray], np.ndarray]
    unsound_tol: float


FAMILIES = {
    "homogeneous-pa-origin": Family(
        E.VarSpace.of("x", "y"), homogeneous_draw(("x", "y")), circle(4096), E.eval_batch, 1e-6
    ),
    "homogeneous-pa-origin-3d": Family(
        E.VarSpace.of("x", "y", "z"),
        homogeneous_draw(("x", "y", "z")),
        fibonacci_sphere(4096),
        E.eval_batch,
        1e-6,
    ),
    "polynomial-pieces-origin": Family(
        E.VarSpace.of("x", "y"), polynomial_draw, circle(2048), richardson_slopes, 1e-5
    ),
}


def outcome(family: Family, f: E.FunctionDef) -> str:
    try:
        regular = S.regular_subdifferential(f, np.zeros(family.space.dim))
    except (S.SubdiffError, GeometryError):
        return "refused"
    except Exception:
        return "crashed"
    if regular is None:
        return "sound"
    dirs = family.directions
    gap = regular.vertices @ dirs.T - family.slopes(f, dirs)
    return "unsound" if gap.max() > family.unsound_tol else "sound"


def score(name: str, seed: int) -> dict:
    family = FAMILIES[name]
    rng = np.random.default_rng(seed)
    texts = [family.draw(rng) for _ in range(TREES)]
    counts = dict.fromkeys(COUNTS, 0)
    for text in texts:
        result = outcome(family, E.parse_function(text, family.space))
        if result in counts:
            counts[result] += 1
    draw_sha256 = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return {"trees": TREES, "draw_sha256": draw_sha256, **counts}


def risen(want: dict, got: dict) -> list[str]:
    return [f"{count} {want[count]} -> {got[count]}" for count in COUNTS if got[count] > want[count]]


CASES = [(name, seed) for name in FAMILIES for seed in SEEDS]


# the first family keeps the seed-only ids it had when it was the only one
@pytest.mark.parametrize(
    "name,seed", CASES, ids=[str(s) if n == "homogeneous-pa-origin" else f"{n}-{s}" for n, s in CASES]
)
def test_no_count_rises(name, seed):
    want = json.loads(SCOREBOARD.read_text())[name][str(seed)]
    got = score(name, seed)
    assert (got["trees"], got["draw_sha256"]) == (want["trees"], want["draw_sha256"])
    assert not risen(want, got), (got, want)


def test_write_refuses_to_record_a_risen_count(tmp_path, monkeypatch, capsys):
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "SCOREBOARD", tmp_path / "scoreboard.json")
    measured = {"trees": TREES, "draw_sha256": "", "unsound": 1, "refused": 0, "crashed": 0}
    monkeypatch.setattr(module, "score", lambda name, seed: measured)
    # a new family or seed is written as measured
    assert write() == 0
    board = json.loads(module.SCOREBOARD.read_text())
    board["homogeneous-pa-origin"]["7"]["unsound"] = 0
    module.SCOREBOARD.write_text(json.dumps(board))
    assert write() == 1
    assert "homogeneous-pa-origin seed 7: unsound 0 -> 1" in capsys.readouterr().err
    assert json.loads(module.SCOREBOARD.read_text()) == board


def test_the_richardson_reference_reads_a_ray_that_crosses_a_curved_kink():
    # the ray along d stays on the piece y only for t < d_y / (9 d_x^2),
    # about 3.4e-4, so the table's steps must lie below that
    f = E.parse_function("(max (abs (pow (* 3 x) 2)) y)", E.VarSpace.of("x", "y"))
    d = np.array([[1.0, 0.00307]]) / np.hypot(1.0, 0.00307)
    assert abs(richardson_slopes(f, d)[0] - d[0, 1]) <= 1e-8


def write() -> int:
    """Rewrite the scoreboard from fresh counts, unless one rose."""
    committed = json.loads(SCOREBOARD.read_text()) if SCOREBOARD.exists() else {}
    board = {name: {str(seed): score(name, seed) for seed in SEEDS} for name in FAMILIES}
    rises = [
        f"{name} seed {seed}: {rise}"
        for name, by_seed in board.items()
        for seed, got in by_seed.items()
        if seed in committed.get(name, {})
        for rise in risen(committed[name][seed], got)
    ]
    if rises:
        print("not written, a count rose:\n" + "\n".join(rises), file=sys.stderr)
        return 1
    SCOREBOARD.parent.mkdir(exist_ok=True)
    SCOREBOARD.write_text(json.dumps(board, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_scoreboard.py --write")
    sys.exit(write())
