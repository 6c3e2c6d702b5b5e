"""Bytes of the benchmark's jobs: the exit code and the sha256 of the
stdout of every job that ``bench/jobs.make_jobs`` lists for the three
workloads at seed 7, run in process through ``cli.main`` with the
generated problem files written to a temporary directory.  The test
only imports ``bench/jobs.py``; nothing under ``bench/`` is changed.

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
SEED = 7
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


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_bench_job_bytes(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(HASHES.read_text())[workload]
    assert run_workload(workload, SEED, str(tmp_path)) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_bench_bytes.py --write")
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as workdir:
        hashes = {w: run_workload(w, SEED, workdir) for w in jobs.WORKLOADS}
    HASHES.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
