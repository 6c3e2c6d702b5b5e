"""Sectioned plain-text problem files.

The format embeds the s-expression grammar in line-oriented sections so
files diff cleanly:

    [vars]
    upper x          # parameter variables, in order
    lower y          # decision variables, in order

    [lower]
    objective y
    constraint (- 0 (+ x y))     # repeatable, each f_i(x, y) <= 0

    [upper]
    objective (+ (* x x) (* y y))
    constraint (- x 5)           # repeatable, each g_j(x) <= 0

    [candidates]
    origin 0 0                   # name, then one value per declared var

    [grid]
    box y -2 2                   # one line per lower variable
    resolution 101               # optional, like stencil_radius and
                                 # stencil_count (GridSpec's defaults)

    [params]                     # optional, each key as in PARAM_KEYS
    seed 3
    tau_act 1e-8
    radii 1e-2 1e-3 1e-4
    kappa_grid 1 2 4 8 16

'#' starts a comment.  Files without a [lower] section describe a
single-level program over the upper variables.  Unset [params] keys
default to subdiff.DEFAULT_PARAMS and bilevel.DEFAULT_KAPPA_GRID;
tau_act, the absolute activity tolerance of piecewise branches (finite
and > 0), reaches every command.  ``ProblemFile.functions`` names each
objective and constraint once (lower.objective, lower.constraint.<i>,
upper.objective, upper.constraint.<j>): the paths ``subdiff --fn``
accepts and the functions ``verify FILE`` checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from varcalc import bilevel as bl
from varcalc import expr as ex
from varcalc import subdiff as sd
from varcalc import valuefn as vf


class ProblemFileError(ValueError):
    pass


@dataclass
class ProblemFile:
    x_names: tuple[str, ...]
    y_names: tuple[str, ...]
    lower_objective: ex.FunctionDef | None
    lower_constraints: tuple[ex.FunctionDef, ...]
    upper_objective: ex.FunctionDef | None
    upper_constraints: tuple[ex.FunctionDef, ...]
    candidates: dict[str, np.ndarray]
    grid: vf.GridSpec | None
    sample_params: sd.SampleParams
    kappa_grid: tuple[float, ...]
    digest: str

    @property
    def x_dim(self) -> int:
        return len(self.x_names)

    @property
    def y_dim(self) -> int:
        return len(self.y_names)

    def candidate(self, name: str) -> np.ndarray:
        return _lookup(self.candidates, name, "candidate", sorted(self.candidates))

    @property
    def functions(self) -> dict[str, ex.FunctionDef]:
        """Every objective and constraint by its path, lower level first."""
        out = {}
        for level, objective, constraints in (
            ("lower", self.lower_objective, self.lower_constraints),
            ("upper", self.upper_objective, self.upper_constraints),
        ):
            if objective is not None:
                out[f"{level}.objective"] = objective
            for i, g in enumerate(constraints):
                out[f"{level}.constraint.{i}"] = g
        return out

    def resolve_function(self, path: str) -> ex.FunctionDef:
        functions = self.functions
        return _lookup(functions, path, "function path", functions)

    def point_for(self, f: ex.FunctionDef, candidate: np.ndarray) -> np.ndarray:
        if f.space.dim == self.x_dim + self.y_dim:
            return candidate
        if f.space.dim == self.x_dim:
            return candidate[: self.x_dim]
        raise ProblemFileError("function space does not match the declared variables")

    def bilevel_problem(self) -> bl.BilevelProblem:
        if self.lower_objective is None or self.upper_objective is None:
            raise ProblemFileError("bilevel operations need [lower] and [upper] sections")
        return bl.BilevelProblem(
            lower_cost=self.lower_objective,
            lower_constraints=self.lower_constraints,
            upper_cost=self.upper_objective,
            upper_constraints=self.upper_constraints,
            x_dim=self.x_dim,
            y_dim=self.y_dim,
        )

    def single_level_program(self) -> bl.LipschitzProgram:
        if self.lower_objective is not None:
            raise ProblemFileError(
                "single-level analysis applies to files without a [lower] section"
            )
        if self.upper_objective is None:
            raise ProblemFileError("file has no [upper] objective")
        return bl.LipschitzProgram(self.upper_objective, self.upper_constraints)


def _lookup(table: dict, name: str, what: str, valid) -> object:
    if name not in table:
        raise ProblemFileError(f"unknown {what} {name!r}; valid {what}s: " + ", ".join(valid))
    return table[name]


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _param_values(line: str, conv, count: int | None, section: str) -> tuple:
    """The values after a line's key, each converted by conv: exactly
    count of them, or one or more when count is None."""
    vals = line.split()[1:]
    if not vals or (count is not None and len(vals) != count):
        raise ProblemFileError(f"bad [{section}] line {line!r}: wrong number of values")
    try:
        return tuple(conv(v) for v in vals)
    except ValueError as err:
        raise ProblemFileError(f"bad [{section}] line {line!r}: {err}") from None


# [grid] and [params] keys (besides [grid] box): the field each sets, the
# converter of its values and how many it takes (None: one or more)
GRID_KEYS = {
    "resolution": ("resolution", int, 1),
    "stencil_radius": ("x_stencil_radius", float, 1),
    "stencil_count": ("x_stencil_count", int, 1),
}
PARAM_KEYS = {
    "seed": ("seed", int, 1),
    "tau_act": ("tau_act", float, 1),
    "radii": ("radii", float, None),
    "dirs_per_radius": ("dirs_per_radius", int, 1),
    "kappa_grid": ("kappa_grid", float, None),
}


def _settings(lines: list[str], keys: dict, section: str) -> dict[str, object]:
    """The field each line sets, to its converted value; a key may appear once."""
    out = {}
    for line in lines:
        key = line.split()[0]
        if key not in keys:
            raise ProblemFileError(f"unknown [{section}] key {key!r}")
        name, conv, count = keys[key]
        values = _param_values(line, conv, count, section)
        if name in out:
            raise ProblemFileError(f"[{section}] sets {key!r} twice")
        out[name] = values if count is None else values[0]
    return out


def parse_problem_file(text: str) -> ProblemFile:
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for raw in text.splitlines():
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current in sections:
                raise ProblemFileError(f"duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise ProblemFileError(f"content before any section: {line!r}")
        sections[current].append(line)

    if "vars" not in sections:
        raise ProblemFileError("missing [vars] section")
    x_names: list[str] = []
    y_names: list[str] = []
    for line in sections["vars"]:
        try:
            role, name = line.split()
        except ValueError:
            raise ProblemFileError(f"bad vars line {line!r}; expected 'upper NAME' or 'lower NAME'")
        if role == "upper":
            x_names.append(name)
        elif role == "lower":
            y_names.append(name)
        else:
            raise ProblemFileError(f"unknown variable role {role!r}")
    if not x_names:
        raise ProblemFileError("at least one upper variable is required")

    xy_space = ex.VarSpace(tuple(x_names + y_names))
    x_space = ex.VarSpace(tuple(x_names))

    def parse_section_functions(name: str, space: ex.VarSpace, constraint_space: ex.VarSpace):
        objective = None
        constraints = []
        for line in sections.get(name, []):
            key, _, rest = line.partition(" ")
            rest = rest.strip()
            if key == "objective":
                if objective is not None:
                    raise ProblemFileError(f"[{name}] has two objectives")
                objective = ex.parse_function(rest, space)
            elif key == "constraint":
                constraints.append(ex.parse_function(rest, constraint_space))
            else:
                raise ProblemFileError(f"unknown [{name}] key {key!r}")
        return objective, tuple(constraints)

    lower_objective, lower_constraints = (None, ())
    if "lower" in sections:
        if not y_names:
            raise ProblemFileError("a [lower] section needs lower variables")
        lower_objective, lower_constraints = parse_section_functions(
            "lower", xy_space, xy_space
        )
        if lower_objective is None:
            raise ProblemFileError("[lower] needs an objective")
        if not lower_constraints:
            raise ProblemFileError("[lower] needs at least one constraint")
    upper_objective, upper_constraints = parse_section_functions(
        "upper", xy_space if y_names else x_space, x_space
    )

    dim = len(x_names) + len(y_names)
    candidates: dict[str, np.ndarray] = {}
    for line in sections.get("candidates", []):
        toks = line.split()
        name, vals = toks[0], toks[1:]
        if len(vals) != dim:
            raise ProblemFileError(
                f"candidate {name!r} has {len(vals)} values, expected {dim}"
            )
        if name in candidates:
            raise ProblemFileError(f"duplicate candidate {name!r}")
        try:
            candidates[name] = np.array([float(v) for v in vals])
        except ValueError as err:
            raise ProblemFileError(f"bad candidate {name!r}: {err}") from None

    grid = None
    if "grid" in sections:
        boxes: dict[str, tuple[float, float]] = {}
        for line in sections["grid"]:
            if line.split()[0] == "box":
                name, lo, hi = _param_values(line, str, 3, "grid")
                if name not in y_names:
                    raise ProblemFileError(f"[grid] box for {name!r}, which is no lower variable")
                if name in boxes:
                    raise ProblemFileError(f"[grid] has two boxes for {name!r}")
                boxes[name] = _param_values(f"{name} {lo} {hi}", float, 2, "grid")
        settings = _settings([ln for ln in sections["grid"] if ln.split()[0] != "box"], GRID_KEYS, "grid")
        missing = [n for n in y_names if n not in boxes]
        if missing:
            raise ProblemFileError(f"[grid] missing box for lower variables: {missing}")
        try:
            grid = vf.GridSpec(y_box=tuple(boxes[n] for n in y_names), **settings)
        except vf.ValueFnError as err:
            raise ProblemFileError(f"bad [grid]: {err}") from None

    settings = _settings(sections.get("params", []), PARAM_KEYS, "params")
    kappa_grid = settings.pop("kappa_grid", bl.DEFAULT_KAPPA_GRID)
    try:
        params = replace(sd.DEFAULT_PARAMS, **settings)
    except sd.SubdiffError as err:
        raise ProblemFileError(f"bad [params]: {err}") from None
    digest = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return ProblemFile(
        x_names=tuple(x_names),
        y_names=tuple(y_names),
        lower_objective=lower_objective,
        lower_constraints=lower_constraints,
        upper_objective=upper_objective,
        upper_constraints=upper_constraints,
        candidates=candidates,
        grid=grid,
        sample_params=params,
        kappa_grid=kappa_grid,
        digest=digest,
    )
