"""Smoke test of the benchmark itself, at a short run length.

    python3 bench/smoke.py

Run from the repository root (about two minutes).  Checks that

* every end-to-end metric in BENCHMARK.json is emitted with its unit, and
  the table also names failed_ratio and nondeterministic_ratio;
* a deliberately wrong expectation is counted as a failed job;
* traced call counts repeat exactly across two traced runs at one seed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1


def bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_end_to_end(spec: dict) -> None:
    lines, out = bench("--workload", "certify", "--seed", str(SEED), "--seconds", "1", "--trace", "0")
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want, (got, want)
    assert all(m["value"] > 0 for m in out["metrics"].values()), out
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
    table = "\n".join(lines)
    for name in ("failed_ratio", "nondeterministic_ratio"):
        assert name in table, name


def check_wrong_expectation() -> None:
    from varcalc import cli

    import jobs as jb
    import workload

    jobs, specs = jb.make_jobs("certify", SEED, os.path.join("bench", "out", "inputs"))
    jb.write_inputs(specs)
    valuefn = [j for j in jobs if j.argv[0] == "valuefn"][:2]
    wrong = dataclasses.replace(valuefn[0], code=3)
    result = workload.Pass(cli, [wrong, valuefn[1]])
    assert [i for i, _ in result.failures] == [0], result.failures
    assert "exit code 0, expected 3" in result.failures[0][1]
    field = dataclasses.replace(valuefn[1], fields=(("samples", []),))
    assert len(workload.Pass(cli, [field]).failures) == 1


def check_trace_counts(spec: dict) -> None:
    runs = [
        bench("--workload", "certify", "--seed", str(SEED), "--seconds", "1", "--trace", "1")[1]
        for _ in range(2)
    ]
    names = {m["name"] for m in spec["per_layer"]}
    for out in runs:
        assert set(out["metrics"]) == names, set(out["metrics"]) ^ names
    counts = [
        {k: m["value"] for k, m in out["metrics"].items() if m["unit"] == "count"} for out in runs
    ]
    assert counts[0] == counts[1], {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
    assert counts[0]["cli.main.calls"] > 0


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_end_to_end(spec)
    print("ok: end-to-end metrics and units")
    check_wrong_expectation()
    print("ok: wrong expectation counted as failed")
    check_trace_counts(spec)
    print("ok: traced counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
