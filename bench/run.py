"""varcalc benchmark: README CLI commands as jobs, one workload per call.

    python3 bench/run.py --workload corpus|certify|oracle|all --seed N \
        --seconds T --trace 0|1

Run it from the repository root.  Each workload runs in its own fresh
interpreter (``bench/workload.py``), one at a time, with single-threaded
BLAS.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced pass.  End-to-end timings are in seconds
at the reference speed of ``speed.py``; the table also gives them as
measured.  A table goes to standard output and
the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full record,
with the machine it ran on, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import jobs as jb
import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 165
# ROADMAP acceptance limits on one pass
LIMITS_S = {"corpus": 60.0, "certify": 120.0}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def child_cmd(workload: str, seed: int, *extra: str) -> list[str]:
    return [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        *extra,
    ]


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until its first job could
    start, and the time of the reference task in it right after."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        child_cmd(workload, seed, "--setup-only"),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    out, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up of {workload} failed:\n{err.strip()}")
    return elapsed, float(out)


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        proc = subprocess.run(
            child_cmd(workload, seed, "--seconds", str(seconds), "--trace", str(trace)),
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times as measured, and scaled to the reference speed."""
    probes = [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    return [t for t, _ in probes], [t * speed.REF_S / ref for t, ref in probes]


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups, scaled_setups = ([], []) if trace else setup_times(workload, seed)
    raw = run_child(workload, seed, seconds, trace)
    failed = len(raw["failures"])
    nondet = len(raw["nondeterministic"])
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": raw["environment"],
        "attempted": raw["attempted"],
        "failed": failed,
        "failed_ratio": failed / raw["attempted"],
        "nondeterministic_ratio": nondet / raw["jobs"],
        "jobs_per_pass": raw["jobs"],
        "passes": len(raw["pass_walls"]),
        "failures": raw["failures"],
        "nondeterministic": raw["nondeterministic"],
    }
    if trace:
        metrics = dict(raw["layers"])
        metrics["failed_ratio"] = record["failed_ratio"]
        metrics["nondeterministic_ratio"] = record["nondeterministic_ratio"]
        units = dict(tracer.metric_names()) | {
            "trace_overhead_ratio": "ratio",
            "failed_ratio": "ratio",
            "nondeterministic_ratio": "ratio",
        }
    else:
        measured = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(raw["pass_walls"]),
            "job_p50_s": statistics.median(raw["latencies"]),
        }
        metrics = {
            "setup_s": statistics.median(scaled_setups),
            "wall_s": statistics.fmean(raw["scaled_pass_walls"]),
            "job_p50_s": statistics.median(raw["scaled_latencies"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        record["measured"] = measured
        record["reference_samples"] = raw["reference_samples"]
        record["samples"] = {
            "setup_s": len(setups),
            "wall_s": len(raw["pass_walls"]),
            "job_p50_s": len(raw["latencies"]),
        }
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return record


def print_table(rec: dict) -> None:
    env = rec["environment"]
    print(
        f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']}  "
        f"cpus={env['cpu_count']} cpu={env['cpu_model']!r} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} blas_threads={env['blas_threads']}"
    )
    samples = rec.get("samples", {})
    measured = rec.get("measured", {})
    for name, m in rec["metrics"].items():
        note = f"  (n={samples[name]})" if name in samples else ""
        if name in measured:
            note += f"  (measured {measured[name]:.6g} {m['unit']})"
        if name == "wall_s" and rec["workload"] in LIMITS_S:
            note += f"  (ROADMAP limit {LIMITS_S[rec['workload']]:g} s)"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    if not rec["trace"]:
        print(f"  {'failed_ratio':<44} {rec['failed_ratio']:>14.6g} ratio")
        print(f"  {'nondeterministic_ratio':<44} {rec['nondeterministic_ratio']:>14.6g} ratio")
    for f in rec["failures"]:
        print(f"  FAILED pass {f['pass']}: {f['job']}: {f['why']}")
    for job in rec["nondeterministic"]:
        print(f"  NONDETERMINISTIC: {job}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=jb.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("src/varcalc/cli.py", jb.WORKED, jb.KINK) if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the varcalc repository root; missing {missing}", file=sys.stderr)
        return 2

    workloads = jb.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for w in workloads:
            records.append(measure(w, args.seed, args.seconds, args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    os.makedirs(os.path.join("bench", "out"), exist_ok=True)
    for rec in records:
        print_table(rec)
        path = os.path.join("bench", "out", f"result-{rec['workload']}-{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=1)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    summary = {
        "correct": all(not r["failures"] and not r["nondeterministic"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
