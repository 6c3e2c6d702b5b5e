"""The benchmark's tracer wraps library functions by name (``bench/tracer.py``):
every name it wraps must exist, and ``uninstall`` must put every binding
back, so that a refactor under ``src/`` cannot break a traced run silently."""

import sys
from pathlib import Path

import varcalc.cli  # noqa: F401  (loads every module the tracer wraps)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "varcalc" or name.startswith("varcalc.")
        for attr, value in vars(mod).items()
    }


def test_tracer_install_resolves_targets_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    modules = {m: sys.modules[f"varcalc.{m}"] for m in tracer.TARGETS}
    for m, functions in tracer.TARGETS.items():
        for fn in functions:
            assert callable(getattr(modules[m], fn, None)), f"{m}.{fn}"
    sciopt = modules["subdiff"].sciopt
    assert callable(sciopt.minimize)

    before = _bindings()
    recorder = tracer.install()
    try:
        for m, functions in tracer.TARGETS.items():
            for fn in functions:
                assert getattr(modules[m], fn) is not before[(f"varcalc.{m}", fn)]
        assert modules["subdiff"].sciopt is not sciopt
    finally:
        recorder.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
