"""Bytes of the benchmark's jobs: the exit code and the sha256 of the
stdout of every job that ``bench/jobs.make_jobs`` lists for the three
workloads at seeds 7 and 311, run in process through ``cli.main`` with
the generated problem files written to a temporary directory.  The
hashes are keyed by seed, then by workload.  The test only imports
``bench/jobs.py``; nothing under ``bench/`` is changed.

A change that alters any of these bytes says why in CHANGES.md and
rewrites the hashes with

    PYTHONPATH=src python tests/test_bench_bytes.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from varcalc import cli

ROOT = Path(__file__).resolve().parent.parent
HASHES = ROOT / "tests" / "golden" / "bench_hashes.json"
SEEDS = (7, 311)
# stands for the temporary input directory in the recorded job keys
WORKDIR = "$WORKDIR"

_spec = importlib.util.spec_from_file_location("bench_jobs", ROOT / "bench" / "jobs.py")
jobs = sys.modules.setdefault(_spec.name, importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(jobs)


def run_workload(workload: str, seed: int, workdir: str) -> dict[str, dict]:
    """{job: {"exit", "sha256"}} for one pass over the workload, run from
    the repository root with its inputs written under workdir."""
    job_list, specs = jobs.make_jobs(workload, seed, workdir)
    jobs.write_inputs(specs)
    out = {}
    for job in job_list:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(job.argv))
        key = " ".join(job.argv).replace(workdir, WORKDIR)
        out[key] = {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
    return out


# seed 7 keeps the bare workload as its test id
@pytest.mark.parametrize(
    "workload,seed",
    [pytest.param(w, s, id=w if s == SEEDS[0] else f"{w}-seed{s}") for s in SEEDS for w in jobs.WORKLOADS],
)
def test_bench_job_bytes(workload, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(HASHES.read_text())[str(seed)][workload]
    assert run_workload(workload, seed, str(tmp_path)) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_bench_bytes.py --write")
    os.chdir(ROOT)
    hashes = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            hashes[str(seed)] = {w: run_workload(w, seed, workdir) for w in jobs.WORKLOADS}
    HASHES.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
