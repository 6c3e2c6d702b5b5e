"""`src/varcalc` keeps only what the program uses: every module-level
function or class is named somewhere else in the package, or is public
(``varcalc.__all__``), or is wrapped by the benchmark's tracer
(``TARGETS`` in ``bench/tracer.py``).  Helpers that only tests call live
in ``tests/brute.py``.  It draws random numbers in one place only."""

import ast
from pathlib import Path

import varcalc

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _tracer_targets() -> set[str]:
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    return {fn for fns in ast.literal_eval(value).values() for fn in fns}


def test_every_module_level_definition_is_used():
    defined, named = [], set()
    for path in sorted((ROOT / "src" / "varcalc").glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.name, node.name) for node in tree.body if isinstance(node, DEFS)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    kept = set(varcalc.__all__) | _tracer_targets()
    unused = [
        f"{module}:{name}"
        for module, name in defined
        if name not in named and name not in kept and not name.startswith("__")
    ]
    assert len(defined) > 100
    assert unused == []


RANDOM_NAMES = {"random", "default_rng", "RandomState", "SeedSequence", "secrets", "urandom", "uuid4"}


def test_only_the_direction_fill_draws_random_numbers():
    # the seeded fill of convgeom.directions is the one generator: no
    # structural decision, such as whether a function is affine, rests on
    # a sample
    users = []
    for path in sorted((ROOT / "src" / "varcalc").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, (ast.alias, ast.ImportFrom)):
                    name = node.name if isinstance(node, ast.alias) else node.module
                else:
                    name = getattr(node, "attr", None) or getattr(node, "id", None)
                if name and name.split(".")[-1] in RANDOM_NAMES:
                    users.append((path.name, getattr(top, "name", None)))
    assert sorted(set(users)) == [("convgeom.py", "directions")]
