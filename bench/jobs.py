"""Job lists of the three benchmark workloads, generated from a seed.

A job is one README CLI command run through ``varcalc.cli.main(argv)``
together with the exit code and report fields it must produce.  The
expectations follow from how each problem family is built (see the
family docstrings), or, for the built-in corpus, were recorded once;
they are never read from the run being checked.

Families (``x`` upper, ``y``/``z`` lower, every coefficient positive):

* ``worked``: lower ``min a*y s.t. -(b*x + c*y) <= 0``, upper
  ``min p*x^2 + q*y^2``.  The lower solution is ``y = -m*x`` with
  ``m = b/c``, so the value function is linear and ``origin (0, 0)`` is
  the bilevel optimum: both certificates exist (exit 0).  At
  ``offopt (1, -m)`` the penalized stationarity system needs ``grad F`` parallel to ``(b, c)``, which
  ``(2p, -2q*m)`` never is, so there is no certificate (exit 4) even
  with ``--override-calmness``.
* ``kink``: lower ``min a*x*y s.t. |y| - r <= 0``.  The argmin jumps
  from ``y = r`` to ``y = -r`` as ``x`` crosses 0, so the value function
  is ``-a*r*|x|``, the argmin map is not inner semicontinuous at
  ``top (0, r)`` and ``bottom (0, -r)``, and the regular subdifferential
  of the value function at 0 is empty: both theorems stop on a failed
  hypothesis (exit 5).
* ``worked2``: the worked family with two lower variables, one linear
  constraint each; ``origin (0, 0, 0)`` is optimal (exit 0) and the
  lower graph is a polyhedron in three dimensions.

Grid boxes are multiples of the 0.01 step (0.04 for ``worked2``), so
the candidates lie on the value-function grid.  The seed moves each box
but not its width or resolution, so every seed does the same amount of
grid work and run-to-run differences come from the program, not from
the input size.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

WORKLOADS = ("corpus", "certify", "oracle")

# `verify --builtin-corpus` runs this many property checks; recorded at
# the commit that introduced the benchmark, identical for every seed.
CORPUS_CHECKS = 119

WORKED, KINK = "problems/worked.vp", "problems/kink.vp"


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    code: int
    # dotted path into the report's "results" -> expected value
    fields: tuple[tuple[str, object], ...] = ()


@dataclass
class ProblemSpec:
    path: str
    family: str
    candidates: dict[str, tuple[float, ...]]
    functions: int  # objectives and constraints, as `verify FILE` counts them
    text: str = ""  # generated variants only; shipped files are read as they are
    kappa: float = 4.0


def _fmt(v: float) -> str:
    return repr(float(v))


def _box(rng: random.Random) -> tuple[float, float, int]:
    """A y-box around 0 on the 0.01 grid, and its resolution.

    The box moves with the seed but keeps its width, so every seed
    evaluates the same number of grid points.
    """
    lo = -rng.choice((1.75, 2.0, 2.25))
    return lo, lo + 4.0, 401


def _worked_text(rng: random.Random, seed: int) -> tuple[str, dict]:
    a = rng.choice((0.5, 1.0, 2.0))
    c = rng.choice((0.5, 1.0, 2.0))
    m = rng.choice((0.5, 0.75, 1.0, 1.25))
    b = m * c
    p = rng.choice((0.5, 1.0, 2.0))
    q = rng.choice((0.5, 1.0, 2.0))
    lo, hi, res = _box(rng)
    text = f"""# benchmark variant of the worked family (seed {seed})
[vars]
upper x
lower y

[lower]
objective (* {_fmt(a)} y)
constraint (- 0 (+ (* {_fmt(b)} x) (* {_fmt(c)} y)))

[upper]
objective (+ (* {_fmt(p)} x x) (* {_fmt(q)} y y))

[candidates]
origin 0 0
offopt 1 {_fmt(-m)}

[grid]
box y {_fmt(lo)} {_fmt(hi)}
resolution {res}
stencil_radius 0.2
stencil_count 4

[params]
seed {seed}
kappa_grid 1 2 4 8 16
"""
    return text, {"origin": (0.0, 0.0), "offopt": (1.0, -m)}


def _kink_text(rng: random.Random, seed: int) -> tuple[str, dict]:
    a = rng.choice((0.5, 1.0, 2.0))
    r = rng.choice((0.5, 0.75, 1.0, 1.25))
    p = rng.choice((0.5, 1.0, 2.0))
    q = rng.choice((0.5, 1.0, 2.0))
    lo, hi, res = _box(rng)
    text = f"""# benchmark variant of the kink family (seed {seed})
[vars]
upper x
lower y

[lower]
objective (* {_fmt(a)} x y)
constraint (- (abs y) {_fmt(r)})

[upper]
objective (+ (* {_fmt(p)} x x) (* {_fmt(q)} y y))

[candidates]
top 0 {_fmt(r)}
bottom 0 {_fmt(-r)}

[grid]
box y {_fmt(lo)} {_fmt(hi)}
resolution {res}

[params]
seed {seed}
"""
    return text, {"top": (0.0, r), "bottom": (0.0, -r)}


def _worked2_text(rng: random.Random, seed: int) -> tuple[str, dict]:
    a1, a2 = rng.choice((0.5, 1.0, 2.0)), rng.choice((0.5, 1.0, 2.0))
    # The slopes set the angle of the lower graph's wedge at the origin,
    # and with it how much work the sampled normal-cone oracle does; they
    # stay fixed so that every seed does the same amount of work.
    m1 = m2 = 1.0
    p, q, s = (rng.choice((0.5, 1.0, 2.0)) for _ in range(3))
    # 101 points a side on the 0.04 grid; the boxes move with the seed
    lo_y, lo_z = (-0.04 * rng.choice((48, 50, 52)) for _ in range(2))
    text = f"""# benchmark variant of the worked family, two lower variables (seed {seed})
[vars]
upper x
lower y
lower z

[lower]
objective (+ (* {_fmt(a1)} y) (* {_fmt(a2)} z))
constraint (- 0 (+ (* {_fmt(m1)} x) y))
constraint (- 0 (+ (* {_fmt(m2)} x) z))

[upper]
objective (+ (* {_fmt(p)} x x) (* {_fmt(q)} y y) (* {_fmt(s)} z z))

[candidates]
origin 0 0 0

[grid]
box y {_fmt(lo_y)} {_fmt(lo_y + 4.0)}
box z {_fmt(lo_z)} {_fmt(lo_z + 4.0)}
resolution 101

[params]
seed {seed}
kappa_grid 1 2 4 8 16
"""
    return text, {"origin": (0.0, 0.0, 0.0)}


def problems(seed: int, workdir: str) -> list[ProblemSpec]:
    """The shipped problem files plus one seeded variant per family.

    Variant texts are returned in ``text``; ``write_inputs`` puts them on
    disk under ``workdir``.
    """
    rng = random.Random(f"varcalc-bench-{seed}")
    specs = [
        ProblemSpec(WORKED, "worked", {"origin": (0, 0), "offopt": (1, -1)}, 3),
        ProblemSpec(KINK, "kink", {"top": (0, 1), "bottom": (0, -1)}, 3),
    ]
    for family, make, functions in (
        ("worked", _worked_text, 3),
        ("kink", _kink_text, 3),
        ("worked2", _worked2_text, 4),
    ):
        text, cands = make(rng, seed)
        path = os.path.join(workdir, f"{family}-{seed}.vp")
        kappa = rng.choice((2.0, 4.0, 8.0))
        specs.append(ProblemSpec(path, family, cands, functions, text, kappa))
    return specs


def write_inputs(specs: list[ProblemSpec]) -> None:
    for spec in specs:
        if spec.text:
            os.makedirs(os.path.dirname(spec.path), exist_ok=True)
            with open(spec.path, "w", encoding="utf-8") as fh:
                fh.write(spec.text)


def _certify_jobs(spec: ProblemSpec) -> list[Job]:
    f, k = spec.path, _fmt(spec.kappa)
    yes = lambda th: (("outcome", "certificate"), ("theorem", th))
    no = lambda th: (("outcome", "no-certificate"), ("theorem", th))
    hyp = (("outcome", "hypothesis-failure"),)
    jobs: list[Job] = []
    if spec.family in ("worked", "worked2"):
        jobs += [
            Job(("certify", f, "--at", "origin", "--theorem", "t74", "--kappa", k, "--json"), 0, yes("T7.4")),
            Job(("certify", f, "--at", "origin", "--theorem", "t83", "--json"), 0, yes("T8.3")),
        ]
    if spec.family == "worked":
        jobs += [
            Job(("certify", f, "--at", "offopt", "--theorem", "t74", "--kappa", k,
                 "--override-calmness", "--json"), 4, no("T7.4")),
            Job(("certify", f, "--at", "offopt", "--theorem", "t83",
                 "--override-calmness", "--json"), 4, no("T8.3")),
        ]
    if spec.family == "worked" and spec.text:  # one kappa sweep, on the seeded variant
        jobs.append(
            Job(("certify", f, "--at", "origin", "--theorem", "t74", "--kappa-sweep", "--json"), 0, yes("T7.4"))
        )
    if spec.family == "kink":
        for cand in spec.candidates:
            for th in ("t74", "t83"):
                jobs.append(Job(("certify", f, "--at", cand, "--theorem", th, "--json"), 5, hyp))
    # The inner-semicontinuity verdicts in this report come from a numerical
    # probe that compares cost gaps of order a*r*1e-6 with an absolute argmin
    # tolerance of 1e-6, so on the kink family they depend on a*r; only the
    # exit code is expected.
    jobs.append(Job(("valuefn", f, "--x-range", "-1", "1", "0.1", "--json"), 0))
    return jobs


def _oracle_jobs(spec: ProblemSpec) -> list[Job]:
    checks = spec.functions * len(spec.candidates)
    jobs = [Job(("verify", spec.path, "--json"), 0, (("passed", checks), ("failed", [])))]
    qualification = "verified" if spec.family == "kink" else "polyhedral-exact"
    for cand in spec.candidates:
        jobs.append(
            Job(
                ("normalcone", spec.path, "--set", "lower", "--at", cand, "--oracle", "--json"),
                0,
                (("qualification", qualification),),
            )
        )
    return jobs


def make_jobs(workload: str, seed: int, workdir: str) -> tuple[list[Job], list[ProblemSpec]]:
    """Jobs of one pass over ``workload`` and the problem files they read."""
    if workload == "corpus":
        return [
            Job(("verify", "--builtin-corpus", "--json", "--seed", str(seed)), 0,
                (("passed", CORPUS_CHECKS), ("failed", []))),
            Job(("extremal", "--builtin", "boundary", "--json"), 0, (("outcome", "trace"),)),
        ], []
    specs = problems(seed, workdir)
    per_spec = _certify_jobs if workload == "certify" else _oracle_jobs
    return [job for spec in specs for job in per_spec(spec)], specs
