"""Runs one workload in this interpreter and prints its raw measurements.

    python3 bench/workload.py --workload W --seed N --seconds T --trace 0|1
    python3 bench/workload.py --workload W --seed N --setup-only

``bench/run.py`` starts this file in a fresh interpreter with
``PYTHONPATH=src`` and single-threaded BLAS; run it that way by hand too.
It is a closed loop with one client: each job is a call of
``varcalc.cli.main(argv)`` that starts after the previous one returned.

Untraced (``--trace 0``): whole passes over the job list, for as long as
the next pass is expected to end within ``--seconds`` (at least one),
while ``speed.Sampler`` times the reference task, by which each job's
latency is scaled to seconds at the reference speed; a scaled pass is
the sum of its scaled job latencies.
Traced (``--trace 1``): one untraced pass, then the tracer is installed
and one traced pass follows, so the traced call counts do not depend on
the run length.

With ``--setup-only`` it imports the CLI, writes and parses the inputs,
prints ``ready``, then the mean time of the reference task, and exits;
the parent times up to ``ready`` as set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import jobs as jb
import speed

OUT_DIR = os.path.join("bench", "out")
SETUP_REFERENCES = 3


def _field(results, path: str):
    node = results
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return "<missing>"
        node = node[key]
    return node


def check(job: jb.Job, code: int | None, stdout: str, error: str | None) -> str | None:
    """Why the job's outcome differs from its expectation, or None."""
    if error is not None:
        return error
    if code != job.code:
        return f"exit code {code}, expected {job.code}"
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable report: {err!r}"
    for path, want in job.fields:
        got = _field(results, path)
        if got != want:
            return f"{path} = {got!r}, expected {want!r}"
    return None


def run_job(cli, job: jb.Job) -> tuple[float, int | None, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejects the command line
        error = f"SystemExit({exc.code}): {err.getvalue().strip()[-200:]}"
    except Exception:  # a traceback is a failed job, not a crashed benchmark
        error = traceback.format_exc(limit=-3).strip()
    latency = time.perf_counter() - t0
    return latency, code, out.getvalue(), error


class Pass:
    """Outcome of one pass over the job list.

    Time the ``sampler`` (if any) spends on the reference task is taken
    out of every timing.
    """

    def __init__(self, cli, jobs: list[jb.Job], sampler: speed.Sampler | None = None):
        spent = (lambda: sampler.spent) if sampler else (lambda: 0.0)
        start = spent()
        t0 = time.perf_counter()
        self.latencies: list[float] = []
        self.stamps: list[tuple[float, float]] = []  # perf_counter at start and end of each job
        self.digests: list[str] = []
        self.failures: list[tuple[int, str]] = []
        for i, job in enumerate(jobs):
            before = spent()
            job_start = time.perf_counter()
            latency, code, stdout, error = run_job(cli, job)
            self.stamps.append((job_start, time.perf_counter()))
            self.latencies.append(latency - (spent() - before))
            self.digests.append(hashlib.sha256(stdout.encode()).hexdigest())
            why = check(job, code, stdout, error)
            if why is not None:
                self.failures.append((i, why))
        self.wall = time.perf_counter() - t0 - (spent() - start)

    def scaled(self, sampler: speed.Sampler) -> list[float]:
        """Job latencies in seconds at the reference speed."""
        return [t * sampler.scale(*span) for t, span in zip(self.latencies, self.stamps)]


def setup(workload: str, seed: int):
    import varcalc.cli as cli
    from varcalc.problemfile import parse_problem_file

    jobs, specs = jb.make_jobs(workload, seed, os.path.join(OUT_DIR, "inputs"))
    jb.write_inputs(specs)
    for spec in specs:
        with open(spec.path, encoding="utf-8") as fh:
            parse_problem_file(fh.read())
    return cli, jobs


def environment() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=jb.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cli, jobs = setup(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        # the host's speed right after set-up, to scale its time by
        print(statistics.fmean(speed.reference() for _ in range(SETUP_REFERENCES)), flush=True)
        return 0

    passes: list[Pass] = []
    layers = None
    scaled = None
    start = time.perf_counter()
    if args.trace:
        import tracer

        passes.append(Pass(cli, jobs))
        recorder = tracer.install()
        passes.append(Pass(cli, jobs))
        recorder.uninstall()
        layers = recorder.metrics()
        layers["trace_overhead_ratio"] = passes[1].wall / passes[0].wall
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.npz"))
    else:
        sampler = speed.Sampler()
        sampler.start()
        try:
            while True:
                passes.append(Pass(cli, jobs, sampler))
                elapsed = time.perf_counter() - start
                if elapsed + passes[-1].wall > args.seconds:
                    break
        finally:
            sampler.stop()
        scaled = [p.scaled(sampler) for p in passes]

    nondeterministic = [
        i for i in range(len(jobs)) if len({p.digests[i] for p in passes}) > 1
    ]
    result = {
        "pass_walls": [p.wall for p in passes],
        "latencies": [t for p in passes for t in p.latencies],
        "scaled_pass_walls": [sum(lats) for lats in scaled] if scaled else None,
        "scaled_latencies": [t for lats in scaled for t in lats] if scaled else None,
        "reference_samples": len(sampler.samples) if scaled else 0,
        "attempted": len(jobs) * len(passes),
        "failures": [
            {"job": " ".join(jobs[i].argv), "pass": n, "why": why}
            for n, p in enumerate(passes)
            for i, why in p.failures
        ],
        "jobs": len(jobs),
        "nondeterministic": [" ".join(jobs[i].argv) for i in nondeterministic],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
