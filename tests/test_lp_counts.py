"""LP work of the golden commands: the number of phase-1 LPs
(``convgeom.lp_feasible`` calls) that each command of
``tests/test_golden.py`` runs, so that a change which adds or removes LPs
shows as a count that moved.

A change that alters any of these counts says why in CHANGES.md and
rewrites them with

    PYTHONPATH=src python -m tests.test_lp_counts --write
"""

from __future__ import annotations

import json
import sys

import pytest

from tests.test_golden import ROOT, commands, run
from varcalc import convgeom

COUNTS = ROOT / "tests" / "golden" / "lp_counts.json"


def count_lps(cmd: tuple[str, ...]) -> int:
    calls = []
    real = convgeom.lp_feasible

    def spy(*lp):
        calls.append(1)
        return real(*lp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convgeom, "lp_feasible", spy)
        run(cmd)
    return len(calls)


@pytest.mark.parametrize("cmd", commands(), ids=" ".join)
def test_golden_command_lp_count(cmd):
    expected = json.loads(COUNTS.read_text())[" ".join(cmd)]
    assert count_lps(cmd) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.test_lp_counts --write")
    counts = {" ".join(cmd): count_lps(cmd) for cmd in commands()}
    COUNTS.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")
