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
    resolution 401
    stencil_radius 0.2
    stencil_count 4

    [params]
    seed 0
    tau_act 1e-9
    dirs_per_radius 256
    radii 1e-2 1e-3 1e-4 1e-5 1e-6
    kappa_grid 1 2 4 8 16

'#' starts a comment.  Files without a [lower] section describe a
single-level program over the upper variables.  [params] tau_act is the
absolute activity tolerance of piecewise branches (default 1e-9, finite
and > 0); every command reads it, certify included.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

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
        if name not in self.candidates:
            raise ProblemFileError(
                f"unknown candidate {name!r}; valid candidates: "
                + ", ".join(sorted(self.candidates))
            )
        return self.candidates[name]

    def resolve_function(self, path: str) -> ex.FunctionDef:
        parts = path.split(".")
        try:
            if parts[0] == "lower":
                if self.lower_objective is None:
                    raise ProblemFileError("file has no [lower] section")
                if parts[1] == "objective":
                    return self.lower_objective
                if parts[1] == "constraint":
                    return self.lower_constraints[int(parts[2])]
            if parts[0] == "upper":
                if self.upper_objective is None:
                    raise ProblemFileError("file has no [upper] objective")
                if parts[1] == "objective":
                    return self.upper_objective
                if parts[1] == "constraint":
                    return self.upper_constraints[int(parts[2])]
        except (IndexError, ValueError) as err:
            raise ProblemFileError(f"bad function path {path!r}: {err}") from None
        raise ProblemFileError(
            f"bad function path {path!r}; expected lower|upper.objective or "
            "lower|upper.constraint.<index>"
        )

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


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _param_values(line: str, conv, count: int | None = 1, section: str = "params") -> tuple:
    """The values after a line's key, each converted by conv: exactly
    count of them, or one or more when count is None."""
    vals = line.split()[1:]
    if not vals or (count is not None and len(vals) != count):
        raise ProblemFileError(f"bad [{section}] line {line!r}: wrong number of values")
    try:
        return tuple(conv(v) for v in vals)
    except ValueError as err:
        raise ProblemFileError(f"bad [{section}] line {line!r}: {err}") from None


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

    full_space = ex.VarSpace(tuple(x_names + y_names))
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
            "lower", full_space, full_space
        )
        if lower_objective is None:
            raise ProblemFileError("[lower] needs an objective")
        if not lower_constraints:
            raise ProblemFileError("[lower] needs at least one constraint")
    upper_objective, upper_constraints = parse_section_functions(
        "upper", full_space if y_names else x_space, x_space
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
        try:
            candidates[name] = np.array([float(v) for v in vals])
        except ValueError as err:
            raise ProblemFileError(f"bad candidate {name!r}: {err}") from None

    grid = None
    if "grid" in sections:
        boxes: dict[str, tuple[float, float]] = {}
        resolution = 401
        stencil_radius = 0.2
        stencil_count = 4
        for line in sections["grid"]:
            key = line.split()[0]
            if key == "box":
                name, lo, hi = _param_values(line, str, 3, "grid")
                boxes[name] = _param_values(f"{name} {lo} {hi}", float, 2, "grid")
            elif key == "resolution":
                (resolution,) = _param_values(line, int, section="grid")
            elif key == "stencil_radius":
                (stencil_radius,) = _param_values(line, float, section="grid")
            elif key == "stencil_count":
                (stencil_count,) = _param_values(line, int, section="grid")
            else:
                raise ProblemFileError(f"unknown [grid] key {key!r}")
        missing = [n for n in y_names if n not in boxes]
        if missing:
            raise ProblemFileError(f"[grid] missing box for lower variables: {missing}")
        try:
            grid = vf.GridSpec(
                y_box=tuple(boxes[n] for n in y_names),
                resolution=resolution,
                x_stencil_radius=stencil_radius,
                x_stencil_count=stencil_count,
            )
        except vf.ValueFnError as err:
            raise ProblemFileError(f"bad [grid]: {err}") from None

    seed = 0
    tau_act = sd.DEFAULT_PARAMS.tau_act
    radii = sd.DEFAULT_PARAMS.radii
    dirs_per_radius = sd.DEFAULT_PARAMS.dirs_per_radius
    kappa_grid = bl.DEFAULT_KAPPA_GRID
    for line in sections.get("params", []):
        key = line.split()[0]
        if key == "seed":
            (seed,) = _param_values(line, int)
        elif key == "tau_act":
            (tau_act,) = _param_values(line, float)
        elif key == "radii":
            radii = _param_values(line, float, count=None)
        elif key == "dirs_per_radius":
            (dirs_per_radius,) = _param_values(line, int)
        elif key == "kappa_grid":
            kappa_grid = _param_values(line, float, count=None)
        else:
            raise ProblemFileError(f"unknown [params] key {key!r}")

    try:
        params = sd.SampleParams(
            radii=radii, dirs_per_radius=dirs_per_radius, seed=seed, tau_act=tau_act
        )
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
