"""How fast the shared host runs while a workload runs.

The host lends the benchmark a few cores and its speed drifts by a
third and more within minutes, far more than the bounds the benchmark
sets.  A fixed reference task is timed once every ``EVERY_S`` seconds
of the run, inside jobs too (``SIGALRM`` handlers run between
bytecodes).  It does the two kinds of work the varcalc hot paths do, in
about equal time: a small tree-walking interpreter over numpy grids and
scalars, and distances from a point to a cloud of 3-D points.  It is
written here, so no change to ``src/`` changes it.  A job's time is
scaled by ``REF_S / mean reference time`` over the job and ``WINDOW_S``
seconds on either side: it is then in seconds at the reference speed.  A speed-up or slow-down of the program
shows in it in full; the host's drift mostly cancels out.  The time
spent on the reference task is taken out of every timing.
"""

from __future__ import annotations

import signal
import time

import numpy as np

EVERY_S = 1.0
WINDOW_S = 2.0
# Mean reference time on the machine of the recorded baseline (2 vCPUs,
# Intel Xeon, Python 3.11, numpy 2.4): the unit of scaled timings.
REF_S = 0.040

_TREE = (
    "+",
    ("*", 2.0, "x", "x"),
    ("*", 0.5, ("abs", ("-", "y", 0.3)), "y"),
    ("max", "x", ("-", 0.0, "y")),
)
_GRID = np.linspace(-2.0, 2.0, 401)
_CLOUD = np.stack(
    [a.ravel() for a in np.meshgrid(*[np.linspace(-1.0, 1.0, 34)] * 3, indexing="ij")], axis=1
)


def _eval(node, env):
    if isinstance(node, str):
        return env[node]
    if not isinstance(node, tuple):
        return node
    op, *args = node
    vals = [_eval(a, env) for a in args]
    if op == "+":
        return sum(vals[1:], vals[0])
    if op == "*":
        out = vals[0]
        for v in vals[1:]:
            out = out * v
        return out
    if op == "-":
        return vals[0] - vals[1]
    if op == "abs":
        return np.abs(vals[0])
    return np.maximum(vals[0], vals[1])


def reference() -> float:
    """Seconds the reference task takes now."""
    t0 = time.perf_counter()
    total = 0.0
    for k in range(150):
        total += float(_eval(_TREE, {"x": 0.006 * k, "y": _GRID}).min())
    for k in range(1200):
        total += float(_eval(_TREE, {"x": 0.0007 * k, "y": -0.5 + 0.0005 * k}))
    for k in range(8):
        q = np.array([0.125 * k - 0.5, 0.2, -0.3])
        total += float(np.linalg.norm(_CLOUD - q[None, :], axis=1).min())
    elapsed = time.perf_counter() - t0
    assert np.isfinite(total)
    return elapsed


class Sampler:
    """Times ``reference`` every ``EVERY_S`` seconds of wall time while started."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, seconds)
        self.spent = 0.0  # seconds in the handler, to take out of timings

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, reference()))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds as measured to seconds at the reference speed,
        for a stretch of time from ``start`` to ``end`` (``perf_counter``)."""
        if not self.samples:
            self.samples.append((end, reference()))
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return REF_S * len(near) / sum(near)
