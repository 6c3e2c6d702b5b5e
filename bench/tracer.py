"""Spans around the public functions of each varcalc module.

``install()`` wraps the functions in ``TARGETS`` on every module binding
that holds them, including the ``from ... import`` copies other modules
keep, so calls inside the package are seen too; ``Recorder.uninstall()``
puts the originals back.  Nothing under ``src/`` is changed.

A span is (name, start, end, parent span, job); a job is one top-level
``cli.main`` call.  Spans stay in memory until ``Recorder.write``.  A
function's self time is its span time minus the time of its direct child
spans, so wrapper overhead of a child is charged to its parent.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

TARGETS = {
    "cli": ("main",),
    "problemfile": ("parse_problem_file",),
    "corpus": ("run_verify_suite",),
    "expr": (
        "evaluate",
        "eval_batch",
        "active_pattern",
        "gradient_and_contexts",
        "affine_parts",
        "parse_function",
    ),
    "convgeom": (
        "lp_feasible",
        "convex_hull",
        "hausdorff_distance",
        "point_to_polytope_distance",
        "minkowski_membership",
        "clip_polytope",
    ),
    "subdiff": (
        "full_subdifferential",
        "basic_subdifferential",
        "regular_subdifferential",
        "sampled_subdiff_oracle",
        "sampled_normal_cone_oracle",
        "normal_cone",
        "coderivative",
        "project_onto",
        "extremal_principle_solve",
    ),
    "valuefn": (
        "evaluate_value",
        "inner_semicontinuity_probe",
        "value_subdiff_estimate",
        "regular_value_subdiff_outer",
    ),
    "bilevel": (
        "certify_T74",
        "certify_T83",
        "certify_with_kappa_sweep",
        "partial_calmness_probe",
        "regularity_check",
    ),
}
# the SciPy boundary: subdiff calls `sciopt.minimize` on its module alias
SCIOPT = "subdiff.sciopt_minimize"

NAMES = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs) + (SCIOPT,)

COUNTERS = (
    "expr.eval_batch.points",
    "valuefn.evaluate_value.points",
    "subdiff.sampled_subdiff_oracle.points",
    "subdiff.sampled_normal_cone_oracle.points",
    "convgeom.lp_feasible.feasible",
    "convgeom.lp_feasible.breakdowns",
    "bilevel.lp_in_certify",
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric ``Recorder.metrics`` gives."""
    out = []
    for name in NAMES:
        out.append((f"{name}.calls", "count"))
        out.append(("cli.self_s" if name == "cli.main" else f"{name}.self_s", "s"))
    out += [
        ("expr.eval_batch.points", "count"),
        ("valuefn.evaluate_value.points", "count"),
        ("subdiff.sampled_subdiff_oracle.points", "count"),
        ("subdiff.sampled_normal_cone_oracle.points", "count"),
        ("convgeom.lp_feasible.feasible_ratio", "ratio"),
        ("convgeom.lp_feasible.breakdowns", "count"),
        ("bilevel.lp_per_certify", "count"),
    ]
    return out


class _ModuleProxy:
    """Module stand-in whose ``minimize`` is replaced; other names pass through."""

    def __init__(self, module, minimize):
        self._module = module
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(self._module, name)


class Recorder:
    def __init__(self):
        self.index = {name: i for i, name in enumerate(NAMES)}
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.open = [0] * len(NAMES)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.stack: list[list] = []  # [span id, time covered by child spans]
        self.job = -1
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.jobs = array("i")
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None):
        i = self.index[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                self.job += 1
            sid = len(self.starts)
            self.name_ids.append(i)
            self.parents.append(self.stack[-1][0] if self.stack else -1)
            self.jobs.append(self.job)
            self.starts.append(0.0)
            self.ends.append(0.0)
            frame = [sid, 0.0]
            self.stack.append(frame)
            self.open[i] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.open[i] -= 1
                self.stack.pop()
                self.starts[sid] = t0
                self.ends[sid] = t1
                self.calls[i] += 1
                self.self_s[i] += (t1 - t0) - frame[1]
                if self.stack:
                    self.stack[-1][1] += t1 - t0
            if after is not None:
                after(out)
            return out

        return wrapper

    def _is_open(self, name: str) -> bool:
        return self.open[self.index[name]] > 0

    # counters taken from return values ---------------------------------

    def _after_eval_batch(self, out):
        n = int(np.shape(out)[0])
        self.counters["expr.eval_batch.points"] += n
        if self._is_open("valuefn.evaluate_value"):
            self.counters["valuefn.evaluate_value.points"] += n

    def _after_lp(self, out):
        from varcalc.convgeom import LPBreakdown, LPFeasible

        if isinstance(out, LPFeasible):
            self.counters["convgeom.lp_feasible.feasible"] += 1
        elif isinstance(out, LPBreakdown):
            self.counters["convgeom.lp_feasible.breakdowns"] += 1
        if self._is_open("bilevel.certify_T74") or self._is_open("bilevel.certify_T83"):
            self.counters["bilevel.lp_in_certify"] += 1

    def _after_oracle(self, key: str):
        def after(out):
            self.counters[key] += int(out.points.shape[0])

        return after

    # installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "varcalc" or n.startswith("varcalc.")]
        hooks = {
            "expr.eval_batch": self._after_eval_batch,
            "convgeom.lp_feasible": self._after_lp,
            "subdiff.sampled_subdiff_oracle": self._after_oracle("subdiff.sampled_subdiff_oracle.points"),
            "subdiff.sampled_normal_cone_oracle": self._after_oracle(
                "subdiff.sampled_normal_cone_oracle.points"
            ),
        }
        swaps = {}
        for mod_name, functions in TARGETS.items():
            mod = sys.modules[f"varcalc.{mod_name}"]
            for fn_name in functions:
                name = f"{mod_name}.{fn_name}"
                orig = getattr(mod, fn_name)
                swaps[id(orig)] = (orig, self._wrap(name, orig, hooks.get(name)))
        sciopt = sys.modules["varcalc.subdiff"].sciopt
        swaps[id(sciopt)] = (sciopt, _ModuleProxy(sciopt, self._wrap(SCIOPT, sciopt.minimize)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, i in self.index.items():
            out[f"{name}.calls"] = self.calls[i]
            out["cli.self_s" if name == "cli.main" else f"{name}.self_s"] = self.self_s[i]
        c = self.counters
        calls = dict(zip(NAMES, self.calls))
        lp_calls = calls["convgeom.lp_feasible"]
        certifies = calls["bilevel.certify_T74"] + calls["bilevel.certify_T83"]
        for key in (
            "expr.eval_batch.points",
            "valuefn.evaluate_value.points",
            "subdiff.sampled_subdiff_oracle.points",
            "subdiff.sampled_normal_cone_oracle.points",
            "convgeom.lp_feasible.breakdowns",
        ):
            out[key] = c[key]
        out["convgeom.lp_feasible.feasible_ratio"] = (
            c["convgeom.lp_feasible.feasible"] / lp_calls if lp_calls else 0.0
        )
        out["bilevel.lp_per_certify"] = c["bilevel.lp_in_certify"] / certifies if certifies else 0.0
        return out

    def write(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(NAMES),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            job=np.frombuffer(self.jobs, dtype=np.int32),
        )


def install() -> Recorder:
    recorder = Recorder()
    recorder.install()
    return recorder
