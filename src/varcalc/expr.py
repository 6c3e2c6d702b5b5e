"""Piecewise-smooth scalar expressions over named real variables.

Expressions are written as s-expressions:

    expr := const | var | "(" op expr+ ")"
    op   := "+" | "-" | "*" | "pow" | "abs" | "max" | "min"

"-" with one child is negation, with two children subtraction.  "pow"
takes an expression and a nonnegative integer exponent.  "abs" takes one
child.  Every expression built this way is a composition of polynomials
with max/min/abs and is therefore locally Lipschitz on all of R^n.

For piecewise analysis an abs node behaves as a two-branch max over
(arg, -arg); max/min nodes branch over their children.  Branches are
addressed by the node's path from the root (tuple of child indices).

Each FunctionDef is lowered once to a tape: its nodes in post-order,
each entry (kind, child slots, payload, path), a slot being an entry's
position and the root the last entry.  Structure is read off the tape
once and without sampling: the variables read, the piecewise nodes and,
from one forward walk, each slot's polynomial degree, which gives
affinity (no piecewise node and degree at most 1).  Numeric work is two
passes over the tape on one array per variable: the columns of an
(N, dim) array of points, where scalar entry points use one row, or
broadcastable arrays such as an open grid, where each op runs at the
broadcast shape of its own inputs.  A choice of branches has one form,
Branches: the tuple of branch indices each piecewise node keeps, by
path, which is also the form of an active pattern; a selection keeps
one branch at each node.  The forward pass computes every node's value
and, given tau_act, each piecewise node's (N, branches) activity mask;
given branches, each piecewise node is restricted to its kept ones, so
the function a pattern leaves needs no tree of its own.  The reverse
pass propagates adjoints from the root along one selection and returns
the (N, dim) branch gradients and each reached piecewise node's adjoint.
Arithmetic is numpy float64 in tape order: sums and products accumulate
left to right with + and *, pow is numpy's power, and overflow gives inf
or nan (the passes run under np.errstate); evaluate and
gradient_and_contexts raise ExprError on a non-finite result.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

TAU_ACT_DEFAULT = 1e-9
MAX_DIM = 8
# Lists nested deeper than this are a ParseError.  The tree walks left
# (tape lowering, ExprNode equality and hash, the parser, to_text and
# lift_to_product) recurse once per level, and the shallowest (ExprNode
# equality) takes about four interpreter frames per level, so under
# Python's default recursion limit of 1000 it fails near depth 250.
MAX_NESTING = 100

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

PIECEWISE_KINDS = ("max", "min", "abs")
_KINDS = {"+": "add", "-": "sub", "*": "mul", "pow": "intpow", **{k: k for k in PIECEWISE_KINDS}}


class ExprError(ValueError):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnknownVariableError(ParseError):
    pass


class DimensionMismatchError(ExprError):
    pass


@dataclass(frozen=True)
class VarSpace:
    """Ordered list of variable names; the ambient space is R^dim."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise ExprError("variable space must have at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ExprError(f"duplicate variable names in {self.names}")
        if len(self.names) > MAX_DIM:
            raise ExprError(f"dim {len(self.names)} exceeds supported maximum {MAX_DIM}")
        for nm in self.names:
            if not _IDENT_RE.match(nm) or nm in _KINDS:
                raise ExprError(f"invalid variable name {nm!r}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    @staticmethod
    def of(*names: str) -> "VarSpace":
        return VarSpace(tuple(names))


@dataclass(frozen=True)
class ExprNode:
    """AST node.  kind in {const, var, add, sub, mul, intpow, abs, max, min}.

    payload holds the constant value (const), variable index (var) or
    integer exponent (intpow).  sub with one child is negation.
    """

    kind: str
    children: tuple["ExprNode", ...] = ()
    payload: float | int | None = None

    def __post_init__(self):
        k = self.kind
        n = len(self.children)
        if k == "const":
            if n or not isinstance(self.payload, float):
                raise ExprError("const node takes a float payload and no children")
        elif k == "var":
            if n or not isinstance(self.payload, int) or self.payload < 0:
                raise ExprError("var node takes a nonnegative index payload")
        elif k in ("add", "mul"):
            if n < 1:
                raise ExprError(f"{k} needs at least one child")
        elif k == "sub":
            if n not in (1, 2):
                raise ExprError("sub takes one (negation) or two children")
        elif k == "intpow":
            if n != 1 or not isinstance(self.payload, int):
                raise ExprError("intpow takes one child and an integer exponent")
            if self.payload < 0:
                raise ExprError("negative intpow exponent")
        elif k == "abs":
            if n != 1:
                raise ExprError("abs takes exactly one child")
        elif k in ("max", "min"):
            if n < 2:
                raise ExprError(f"{k} needs at least two children")
        else:
            raise ExprError(f"unknown node kind {k!r}")


def const(c: float) -> ExprNode:
    return ExprNode("const", payload=float(c))


def var(i: int) -> ExprNode:
    return ExprNode("var", payload=int(i))


Path = tuple[int, ...]
Branches = Mapping[Path, tuple[int, ...]]


class Op(NamedTuple):
    """One tape entry; args are the slots of the children."""

    kind: str
    args: tuple[int, ...]
    payload: float | int | None
    path: Path


@dataclass(frozen=True)
class FunctionDef:
    space: VarSpace
    root: ExprNode

    def __post_init__(self):
        if max(self.reads, default=0) >= self.space.dim:
            raise ExprError(f"variable index {max(self.reads)} out of range for dim {self.space.dim}")

    @cached_property
    def tape(self) -> tuple[Op, ...]:
        tape: list[Op] = []

        def visit(n: ExprNode, path: Path) -> int:
            args = tuple(visit(c, path + (i,)) for i, c in enumerate(n.children))
            tape.append(Op(n.kind, args, n.payload, path))
            return len(tape) - 1

        visit(self.root, ())
        return tuple(tape)

    @cached_property
    def piecewise(self) -> dict[Path, int]:
        """Slot of each piecewise node, in path order."""
        slots = [(op.path, i) for i, op in enumerate(self.tape) if op.kind in PIECEWISE_KINDS]
        return dict(sorted(slots))

    @cached_property
    def reads(self) -> frozenset[int]:
        """The indices of the variables the tape reads."""
        return frozenset(op.payload for op in self.tape if op.kind == "var")

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """The polynomial degree of each slot, by one forward walk: a
        product's the sum of its factors', a power's its base's times the
        exponent, and any other node's its largest child's."""
        degrees: list[int] = []
        for kind, args, payload, _ in self.tape:
            kids = [degrees[j] for j in args]
            degree = sum(kids) if kind == "mul" else max(kids, default=int(kind == "var"))
            degrees.append(degree * payload if kind == "intpow" else degree)
        return tuple(degrees)

    @cached_property
    def affine(self) -> tuple[np.ndarray, float] | None:
        """affine_parts: the gradient and value at the origin, where the tape
        has no piecewise node and polynomial degree at most 1, so that no
        adjoint depends on the point; else None, as for non-finite parts."""
        if self.piecewise or self.degrees[-1] > 1:
            return None
        vals, _ = _forward(self, np.zeros((self.space.dim, 1)), (1,), keep=True)
        grads, _ = _reverse(self, vals, {})
        if not (np.isfinite(vals[-1][0]) and np.all(np.isfinite(grads))):
            return None
        grads.flags.writeable = False
        return grads[0], float(vals[-1][0])


# ---------------------------------------------------------------------------
# Parsing and printing


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


def parse_function(text: str, space: VarSpace) -> FunctionDef:
    """Parse an s-expression into a FunctionDef over the given space."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    pos = 0

    def parse_expr(depth: int) -> ExprNode:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of input", len(text))
        tok, off = tokens[pos]
        if tok == ")":
            raise ParseError("unexpected ')'", off)
        if tok != "(":
            pos += 1
            return parse_atom(tok, off)
        if depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} lists", off)
        open_off = off
        pos += 1
        if pos >= len(tokens):
            raise ParseError("unclosed list", len(text))
        head, head_off = tokens[pos]
        if head not in _KINDS:
            raise ParseError(f"expected operator, got {head!r}", head_off)
        pos += 1
        args: list[ExprNode] = []
        exponent: int | None = None
        while True:
            if pos >= len(tokens):
                raise ParseError("unclosed list", len(text))
            tok, off = tokens[pos]
            if tok == ")":
                pos += 1
                break
            if head == "pow" and len(args) == 1:
                pos += 1
                exponent = parse_exponent(tok, off)
            else:
                args.append(parse_expr(depth + 1))
        return build(head, args, exponent, open_off)

    def parse_atom(tok: str, off: int) -> ExprNode:
        if _NUMBER_RE.match(tok):
            return const(float(tok))
        if _IDENT_RE.match(tok):
            if tok not in space.names:
                raise UnknownVariableError(f"unknown variable {tok!r}", off)
            return var(space.index(tok))
        raise ParseError(f"invalid token {tok!r}", off)

    def parse_exponent(tok: str, off: int) -> int:
        try:
            k = int(tok)
        except ValueError:
            raise ParseError(f"pow exponent must be an integer, got {tok!r}", off) from None
        if k < 0:
            raise ParseError("negative intpow exponent", off)
        return k

    def build(head: str, args: list[ExprNode], exponent: int | None, off: int) -> ExprNode:
        if head == "pow" and (len(args) != 1 or exponent is None):
            raise ParseError("pow takes an expression and an integer exponent", off)
        try:
            return ExprNode(_KINDS[head], tuple(args), exponent)
        except ExprError as e:
            raise ParseError(str(e), off) from None

    root = parse_expr(0)
    if pos != len(tokens):
        raise ParseError("trailing input", tokens[pos][1])
    return FunctionDef(space, root)


def to_text(f: FunctionDef) -> str:
    """Canonical printer; parse(to_text(f)) is structurally equal to f."""

    def pr(n: ExprNode) -> str:
        if n.kind == "const":
            return repr(n.payload)
        if n.kind == "var":
            return f.space.names[n.payload]
        if n.kind == "intpow":
            return f"(pow {pr(n.children[0])} {n.payload})"
        head = next(h for h, k in _KINDS.items() if k == n.kind)
        return "(" + head + " " + " ".join(pr(c) for c in n.children) + ")"

    return pr(f.root)


# ---------------------------------------------------------------------------
# The two passes


def _forward(
    f: FunctionDef,
    cols: Sequence[np.ndarray],
    ones: tuple[int, ...],
    tau_act: float | None = None,
    branches: Branches | None = None,
    keep: bool = False,
) -> tuple[list, dict[int, np.ndarray]]:
    """Values of the tape's slots, variable i read from cols[i] and each
    const leaf filled to the shape ones (pts.T and (N,) for the rows of
    an (N, dim) array pts), and with tau_act the activity mask of each
    piecewise slot, which needs every value at the shape (N,).

    Given branches, max and min fold over their kept children, an abs
    node kept to one branch is its argument or its negation, and a branch
    left out is never active.  Only the root's (last) value survives,
    unless keep asks for every value, as the reverse pass needs.
    """
    vals: list = [None] * len(f.tape)
    masks: dict[int, np.ndarray] = {}
    with np.errstate(all="ignore"):
        for i, (kind, args, payload, path) in enumerate(f.tape):
            xs = [vals[j] for j in args]
            if kind in PIECEWISE_KINDS:
                n = 2 if kind == "abs" else len(xs)
                kept = range(n)
                if branches is not None:
                    kept = branches.get(path, ())
                    if not kept or min(kept) < 0 or max(kept) >= n:
                        raise ExprError(f"branch selection {kept} missing or out of range at {path}")
            if kind == "const":
                v = np.full(ones, payload)
            elif kind == "var":
                v = cols[payload]
            elif kind == "add":
                v = xs[0]
                for x in xs[1:]:
                    v = v + x
            elif kind == "sub":
                v = -xs[0] if len(xs) == 1 else xs[0] - xs[1]
            elif kind == "mul":
                v = xs[0]
                for x in xs[1:]:
                    v = v * x
            elif kind == "intpow":
                v = xs[0] ** payload
            elif kind == "abs":
                v = np.abs(xs[0])
                if tau_act is not None:
                    tie, pos = v <= tau_act, xs[0] > 0
                    masks[i] = np.stack([tie | pos, tie | ~pos], axis=1)
                if len(kept) == 1:
                    v = -xs[0] if kept[0] else xs[0]
            else:
                op = np.maximum if kind == "max" else np.minimum
                v = xs[kept[0]]
                for b in kept[1:]:
                    v = op(v, xs[b])
                if tau_act is not None:
                    masks[i] = np.stack(
                        [x >= v - tau_act if op is np.maximum else x <= v + tau_act for x in xs], axis=1
                    )
            if i in masks and len(kept) < n:
                masks[i][:, [b not in kept for b in range(n)]] = False
            vals[i] = v
            if not keep:
                for j in args:
                    vals[j] = None
    return vals, masks


def _reverse(
    f: FunctionDef, vals: list, branches: Branches
) -> tuple[np.ndarray, dict[Path, np.ndarray]]:
    """Branch gradients (N, dim) of the composition fixed by a selection,
    and the adjoint of each piecewise node the selection reaches; vals
    come from the forward pass with the same branches, every value kept."""
    tape = f.tape
    n = vals[-1].shape[0]
    adj: list = [None] * len(tape)
    adj[-1] = np.ones(n)
    contexts: dict[Path, np.ndarray] = {}
    with np.errstate(all="ignore"):
        for i in range(len(tape) - 1, -1, -1):
            a = adj[i]
            kind, args, payload, path = tape[i]
            if a is None or not args:
                continue
            if kind == "add":
                for j in args:
                    adj[j] = a
            elif kind == "sub":
                adj[args[0]] = -a if len(args) == 1 else a
                if len(args) == 2:
                    adj[args[1]] = -a
            elif kind == "mul":
                for pos, j in enumerate(args):
                    others = 1.0
                    for q, m in enumerate(args):
                        if q != pos:
                            others = others * vals[m]
                    adj[j] = a * others
            elif kind == "intpow":
                if payload:
                    adj[args[0]] = a * payload * vals[args[0]] ** (payload - 1)
            else:
                contexts[path] = a
                if len(branches[path]) != 1:
                    raise ExprError(f"branch gradient needs one branch at {path}, got {branches[path]}")
                b = branches[path][0]
                if kind == "abs":
                    adj[args[0]] = -a if b else a
                else:
                    adj[args[b]] = a
        # leaves in tape order: each gradient entry sums left to right
        grad = np.zeros((n, f.space.dim))
        for (kind, _, payload, _), a in zip(tape, adj):
            if kind == "var" and a is not None:
                grad[:, payload] += a
    return grad, contexts


# ---------------------------------------------------------------------------
# Evaluation


def as_point(space: VarSpace, coords: Sequence[float]) -> np.ndarray:
    p = np.asarray(coords, dtype=float)
    if p.shape != (space.dim,):
        raise DimensionMismatchError(
            f"point of length {p.size} does not match space dim {space.dim}"
        )
    if not np.all(np.isfinite(p)):
        raise ExprError("point coordinates must be finite")
    return p


def _as_points(f: FunctionDef, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != f.space.dim:
        raise DimensionMismatchError(
            f"expected (N, {f.space.dim}) array, got shape {pts.shape}"
        )
    return pts


def _finite(values, p: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ExprError(f"non-finite value at point {p.tolist()}")


def evaluate(f: FunctionDef, point: Sequence[float], branches: Branches | None = None) -> float:
    """f at the point, restricted to the branches if given; ExprError if
    the value is not finite."""
    p = as_point(f.space, point)
    vals, _ = _forward(f, p[:, None], (1,), branches=branches)
    _finite(vals[-1], p)
    return float(vals[-1][0])


def eval_batch(f: FunctionDef, points: np.ndarray, branches: Branches | None = None) -> np.ndarray:
    """Vectorized evaluation on an (N, dim) array of points, restricted to
    the branches if given."""
    pts = _as_points(f, points)
    vals, _ = _forward(f, pts.T, pts.shape[:1], branches=branches)
    return vals[-1]


def eval_open(f: FunctionDef, cols: Sequence[np.ndarray]) -> np.ndarray:
    """f on one broadcastable array per variable, such as an open grid
    (x with shape (k, 1, 1), y with shape (k, r, 1), ...).  Each op runs at
    the broadcast shape of its own inputs, so the result has the shape of
    the variables f reads, all ones if it reads none; broadcast to the
    full grid it equals eval_batch on the materialized points, bit for bit."""
    if len(cols) != f.space.dim:
        raise DimensionMismatchError(f"expected {f.space.dim} arrays, got {len(cols)}")
    vals, _ = _forward(f, cols, (1,) * max(np.ndim(c) for c in cols))
    return vals[-1]


# ---------------------------------------------------------------------------
# Activity analysis and branch gradients


def active_patterns(
    f: FunctionDef,
    points: np.ndarray,
    tau_act: float = TAU_ACT_DEFAULT,
    branches: Branches | None = None,
) -> tuple[list[Branches], np.ndarray]:
    """The distinct active patterns over the rows of points, in order of
    first occurrence, and the index of each row's pattern in that list.
    A pattern is a Branches dict, in path order; ExprError if a node has
    no active branch, as where a value is NaN.

    Rows are independent: a row's pattern is active_pattern at that row
    alone, whatever other rows share the call, so callers may stack the
    points of several samples into one call and split the index by row.

    Given branches, f is restricted to them, and a node left with one
    branch, kept to one or below a branch left out, is that branch alone
    (the first kept one), as if the node were gone."""
    if not tau_act > 0:
        raise ExprError("tau_act must be positive")
    pts = _as_points(f, points)
    _, masks = _forward(f, pts.T, pts.shape[:1], tau_act, branches)
    if branches is not None:
        reached = {len(f.tape) - 1}  # slots that feed the root through kept branches
        for i in range(len(f.tape) - 1, -1, -1):
            kind, args, _, path = f.tape[i]
            if kind in PIECEWISE_KINDS:
                kept = branches[path]
                if len(kept) == 1 or i not in reached:
                    masks[i] = np.zeros_like(masks[i])
                    masks[i][:, kept[0]] = True
                if kind != "abs":
                    args = [args[b] for b in kept]
            if i in reached:
                reached.update(args)
    if not masks:
        return [{}], np.zeros(pts.shape[0], dtype=np.intp)
    cols = [masks[slot] for slot in f.piecewise.values()]
    bits = np.hstack(cols)
    # one opaque key per row, the row's bits packed into bytes
    packed = np.packbits(bits, axis=1)
    keys = packed.view(f"V{packed.shape[1]}").reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.argsort(order)
    bounds = np.cumsum([0] + [c.shape[1] for c in cols]).tolist()
    patterns = [
        {
            path: tuple(b for b, on in enumerate(row[lo:hi]) if on)
            for path, lo, hi in zip(f.piecewise, bounds, bounds[1:])
        }
        for row in bits[first[order]].tolist()
    ]
    if not all(all(pat.values()) for pat in patterns):
        raise ExprError("active pattern has an empty selection")
    return patterns, rank[inverse]


def active_pattern(
    f: FunctionDef,
    point: Sequence[float],
    tau_act: float = TAU_ACT_DEFAULT,
    branches: Branches | None = None,
) -> Branches:
    """Active branches within absolute tolerance tau_act at the point."""
    return active_patterns(f, as_point(f.space, point)[None, :], tau_act, branches)[0][0]


def branch_combinations(pattern: Branches) -> list[dict[Path, tuple[int]]]:
    """All selections compatible with the pattern, one branch per node,
    in itertools.product order over the nodes in the pattern's order."""
    return [dict(zip(pattern, ((b,) for b in combo))) for combo in itertools.product(*pattern.values())]


def branch_gradients(
    f: FunctionDef, points: np.ndarray, branches: Branches
) -> tuple[np.ndarray, dict[Path, np.ndarray]]:
    """Gradients (N, dim) of the smooth composition fixed by a selection
    at the rows of points, plus the sensitivity of f to each reached
    piecewise node's output (its adjoint), one value per row.  Every
    branch is polynomial, so this is exact up to rounding."""
    pts = _as_points(f, points)
    vals, _ = _forward(f, pts.T, pts.shape[:1], branches=branches, keep=True)
    return _reverse(f, vals, branches)


def gradient_and_contexts(
    f: FunctionDef, point: Sequence[float], branches: Branches
) -> tuple[np.ndarray, dict[Path, float]]:
    """branch_gradients at one point; ExprError if the gradient is not
    finite there."""
    p = as_point(f.space, point)
    grads, contexts = branch_gradients(f, p[None, :], branches)
    _finite(grads, p)
    return grads[0], {path: float(a[0]) for path, a in contexts.items()}


def branch_gradient(f: FunctionDef, point: Sequence[float], branches: Branches) -> np.ndarray:
    return gradient_and_contexts(f, point, branches)[0]


# ---------------------------------------------------------------------------
# AST surgery


def negate(f: FunctionDef) -> FunctionDef:
    return FunctionDef(f.space, ExprNode("sub", (f.root,)))


def fsum(*fs: FunctionDef) -> FunctionDef:
    space = fs[0].space
    for g in fs:
        if g.space != space:
            raise DimensionMismatchError("summands live in different spaces")
    return FunctionDef(space, ExprNode("add", tuple(g.root for g in fs)))


def fsub(f: FunctionDef, g: FunctionDef) -> FunctionDef:
    if f.space != g.space:
        raise DimensionMismatchError("operands live in different spaces")
    return FunctionDef(f.space, ExprNode("sub", (f.root, g.root)))


def lift_to_product(f: FunctionDef, product: VarSpace, offset: int) -> FunctionDef:
    """Re-index f's variables into a product space starting at offset."""
    if offset + f.space.dim > product.dim:
        raise DimensionMismatchError("lift does not fit in the product space")

    def rebuild(n: ExprNode) -> ExprNode:
        if n.kind == "var":
            return var(n.payload + offset)
        if n.kind in ("const",):
            return n
        return ExprNode(n.kind, tuple(rebuild(c) for c in n.children), n.payload)

    return FunctionDef(product, rebuild(f.root))


def affine_parts(f: FunctionDef) -> tuple[np.ndarray, float] | None:
    """Return (w, b) with f(x) = <w, x> + b, or None if f is not affine;
    computed once per FunctionDef."""
    return f.affine
