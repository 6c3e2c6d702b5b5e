import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tests import brute
from varcalc import expr as E
from varcalc import subdiff as S
from varcalc.convgeom import PolytopeUnion, directions


XS = E.VarSpace.of("x")
XY = E.VarSpace.of("x", "y")


def f(text, space=XS):
    return E.parse_function(text, space)


# ---------------------------------------------------------------------------
# parsing


def test_parse_abs_identity():
    g = f("(abs x)")
    assert g.root == E.ExprNode("abs", (E.var(0),))


def test_parse_nested_max():
    g = f("(max (+ x y) (* 2 x))", XY)
    assert g.root.kind == "max"
    add, mul = g.root.children
    assert add == E.ExprNode("add", (E.var(0), E.var(1)))
    assert mul == E.ExprNode("mul", (E.const(2.0), E.var(0)))


def test_parse_unclosed_list_reports_offset():
    with pytest.raises(E.ParseError, match="unclosed list at offset 6"):
        f("(max x")


def test_parse_unknown_variable():
    with pytest.raises(E.UnknownVariableError, match="unknown variable 'z'"):
        f("(+ x z)")


def test_parse_negative_exponent():
    with pytest.raises(E.ParseError, match="negative intpow exponent"):
        f("(pow x -2)")


def test_parse_rejects_trailing_input():
    with pytest.raises(E.ParseError, match="trailing"):
        f("x y", XY)


def _nested(depth: int) -> str:
    return "(abs " * (depth - 1) + "(+ 1 x)" + ")" * (depth - 1)


def test_parse_caps_nesting():
    f(_nested(E.MAX_NESTING))
    with pytest.raises(E.ParseError, match=f"nested deeper than {E.MAX_NESTING} lists at offset 500"):
        f(_nested(E.MAX_NESTING + 1))
    with pytest.raises(E.ParseError, match="nested deeper"):
        f(_nested(5000))


def test_every_tree_walk_runs_at_the_nesting_cap():
    # with 300 frames already on the stack, as under a test runner and the
    # CLI, no recursive walk of a tree at the cap exhausts the stack
    def at_depth(frames, fn):
        return fn() if frames == 0 else at_depth(frames - 1, fn)

    g, h = f(_nested(E.MAX_NESTING)), f(_nested(E.MAX_NESTING))
    pattern = E.active_pattern(g, [0.5])
    at_depth(300, lambda: g == h)
    at_depth(300, lambda: hash(g))
    at_depth(300, lambda: E.parse_function(E.to_text(g), XS))
    at_depth(300, lambda: E.FunctionDef(XS, E.ExprNode("mul", (g.root, h.root))).convex)
    at_depth(300, lambda: E.active_pattern(g, [0.5], branches=pattern))
    at_depth(300, lambda: E.lift_to_product(g, XY, 1).tape)


def test_negation_vs_subtraction():
    assert f("(- x)").root == E.ExprNode("sub", (E.var(0),))
    assert f("(- x 1)").root == E.ExprNode("sub", (E.var(0), E.const(1.0)))


def _smooth_operators(children):
    return [
        st.tuples(children, children).map(lambda t: E.ExprNode("add", t)),
        st.tuples(children, children).map(lambda t: E.ExprNode("sub", t)),
        st.tuples(children).map(lambda t: E.ExprNode("sub", t)),
        st.tuples(children, children).map(lambda t: E.ExprNode("mul", t)),
        st.tuples(children, children, children).map(lambda t: E.ExprNode("mul", t)),
        st.tuples(children, st.integers(0, 4)).map(
            lambda t: E.ExprNode("intpow", (t[0],), t[1])
        ),
    ]


def _operators(children):
    return st.one_of(
        *_smooth_operators(children),
        st.tuples(children).map(lambda t: E.ExprNode("abs", t)),
        st.tuples(children, children, children).map(lambda t: E.ExprNode("max", t)),
        st.tuples(children, children).map(lambda t: E.ExprNode("min", t)),
    )


_leaves = st.one_of(
    st.floats(-4, 4, allow_nan=False).map(lambda c: E.const(round(c, 3))),
    st.integers(0, 1).map(E.var),
)
_node_strategy = st.recursive(_leaves, _operators, max_leaves=32)
# abs/max/min-free expressions, small enough that many have degree <= 1
_smooth_nodes = st.recursive(_leaves, lambda c: st.one_of(*_smooth_operators(c)), max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_node_strategy)
def test_print_parse_round_trip(node):
    g = E.FunctionDef(XY, node)
    text = E.to_text(g)
    assert E.parse_function(text, XY).root == node


# kinks of the generated expressions, and coordinates off the binary grid
# so that sums round
_coord = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0]), st.integers(-3000, 3000).map(lambda k: k / 997)
)


def _scaled(c, node):
    return E.ExprNode("mul", (E.const(c), node))


@settings(max_examples=200, deadline=None)
@given(_node_strategy, st.lists(st.tuples(_coord, _coord), min_size=1, max_size=5))
def test_tape_passes_equal_reference_interpreter(node, points):
    # a sum of four terms in which each variable has several leaves, so
    # that the summation order and the order in which a variable's leaves
    # add up in the gradient both show
    terms = (node, _scaled(0.1, node), _scaled(0.3, E.var(0)), _scaled(0.7, E.var(1)))
    g = E.FunctionDef(XY, E.ExprNode("add", terms))
    pts = np.array(points, dtype=float)
    try:
        refs = [brute.reference_forward(g, p) for p in pts]
    except brute.NonFinite:
        assume(False)
    values = E.eval_batch(g, pts)
    patterns, inverse = E.active_patterns(g, pts)
    for i, (p, (value, pattern, _)) in enumerate(zip(pts, refs)):
        assert E.evaluate(g, p) == value
        assert values[i] == value
        assert E.active_pattern(g, p) == pattern
        assert patterns[inverse[i]] == pattern
        for sel in E.branch_combinations(pattern)[:8]:
            try:
                ref_grad, ref_contexts = brute.reference_gradient(g, p, sel)
            except brute.NonFinite:
                continue
            grad, contexts = E.gradient_and_contexts(g, p, sel)
            assert np.array_equal(grad, ref_grad)
            assert contexts == ref_contexts


@settings(max_examples=200, deadline=None)
@given(_node_strategy, st.sampled_from([1, 3, 40]), st.booleans(), st.integers(0, 2**32 - 1))
@example(E.const(2.5), 3, False, 0)
@example(E.ExprNode("intpow", (E.var(1),), 3), 40, False, 1)
@example(E.ExprNode("max", (E.var(0), E.const(0.0), E.ExprNode("intpow", (E.var(0),), 2))), 1, True, 2)
def test_open_grid_equals_eval_batch(node, k, both_vary, seed):
    # k rows of an open grid: x fixed per row and y along one axis, or x
    # and y along two axes; each row's axes are its own linspace
    g = E.FunctionDef(XY, node)
    rng = np.random.default_rng(seed)
    lo = np.round(rng.uniform(-3, 0, (k, 2)), 2)
    axes = np.linspace(lo, lo + rng.integers(1, 4, (k, 2)) / 0.997, 7, axis=1)
    if both_vary:
        cols = [axes[:, :, 0].reshape(k, 7, 1), axes[:, :, 1].reshape(k, 1, 7)]
    else:
        cols = [axes[:, :1, 0], axes[:, :, 1]]
    pts = np.stack(np.broadcast_arrays(*cols), axis=-1)
    want = E.eval_batch(g, pts.reshape(-1, 2)).reshape(pts.shape[:-1])
    got = E.eval_open(g, cols)
    assert np.ndim(got) == pts.ndim - 1
    got = np.broadcast_to(got, want.shape)
    assert np.array_equal(got, want, equal_nan=True)
    number = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))  # signed zeros


def test_open_grid_rejects_a_missing_variable():
    with pytest.raises(E.DimensionMismatchError):
        E.eval_open(f("(+ x y)", XY), [np.zeros((2, 1))])


# ---------------------------------------------------------------------------
# evaluation


@pytest.mark.parametrize(
    "text,point,value",
    [
        ("(abs x)", [-3.0], 3.0),
        ("(min 0 x)", [2.0], 0.0),
        ("(max x (* x x))", [0.5], 0.5),
        ("(pow x 3)", [2.0], 8.0),
        ("(- x)", [1.5], -1.5),
    ],
)
def test_eval_examples(text, point, value):
    assert E.evaluate(f(text), point) == pytest.approx(value, abs=1e-12)


def test_eval_dimension_mismatch():
    with pytest.raises(E.DimensionMismatchError):
        E.evaluate(f("(abs x)"), [1.0, 2.0])


def test_eval_batch_matches_scalar():
    g = f("(max (+ x y) (* 2 (abs x)))", XY)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(64, 2))
    batch = E.eval_batch(g, pts)
    for p, v in zip(pts, batch):
        assert v == pytest.approx(E.evaluate(g, p), abs=1e-12)


# ---------------------------------------------------------------------------
# activity


def test_active_pattern_rejects_nan_tau_act():
    with pytest.raises(E.ExprError, match="tau_act"):
        E.active_pattern(f("(abs x)"), [0.0], math.nan)


def test_active_pattern_tie():
    g = f("(max x (* 2 x))")
    pat = E.active_pattern(g, [0.0], 1e-9)
    assert pat == {(): (0, 1)}


def test_active_pattern_abs_positive():
    pat = E.active_pattern(f("(abs x)"), [1.0])
    assert pat == {(): (0,)}


def test_active_pattern_min_within_tolerance():
    pat = E.active_pattern(f("(min 0 x)"), [1e-12], 1e-9)
    assert pat == {(): (0, 1)}


def _random_branches(g, rng):
    """A nonempty random subset of each piecewise node's branches."""
    out = {}
    for path, slot in g.piecewise.items():
        kind, args, _, _ = g.tape[slot]
        n = 2 if kind == "abs" else len(args)
        keep = rng.random(n) < 0.5
        keep[rng.integers(n)] = True
        out[path] = tuple(np.flatnonzero(keep).tolist())
    return out


def _assert_rows_independent(g, pts, branches):
    # each row's pattern is the pattern of that row alone, and patterns
    # are distinct and listed in order of first occurrence
    patterns, inverse = E.active_patterns(g, pts, branches=branches)
    assert list(dict.fromkeys(inverse.tolist())) == list(range(len(patterns)))
    assert len({tuple(p.items()) for p in patterns}) == len(patterns)
    for p, k in zip(pts, inverse):
        assert E.active_pattern(g, p, branches=branches) == patterns[k]


@settings(max_examples=100, deadline=None)
@given(_node_strategy, st.lists(st.tuples(_coord, _coord), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
def test_active_patterns_rows_are_independent(node, points, seed):
    g = E.FunctionDef(XY, node)
    pts = np.array(points, dtype=float)
    _assert_rows_independent(g, pts, None)
    if g.piecewise:
        _assert_rows_independent(g, pts, _random_branches(g, np.random.default_rng(seed)))


def test_active_patterns_rows_are_independent_past_eight_bytes():
    # 40 abs nodes: a pattern row of 80 bits packs into a key of 10 bytes
    g = f("(+ " + " ".join(f"(abs (- {'xy'[k % 2]} {k / 8}))" for k in range(40)) + ")", XY)
    rng = np.random.default_rng(5)
    pts = rng.integers(-2, 44, (150, 2)) / 16
    pts = np.vstack([pts, pts[::7]])  # repeated rows
    patterns, _ = E.active_patterns(g, pts)
    assert len(patterns) > 100
    _assert_rows_independent(g, pts, None)
    _assert_rows_independent(g, pts, _random_branches(g, rng))


def test_branch_combinations_order():
    pat = E.active_pattern(f("(max (abs x) x)"), [0.0])
    combos = E.branch_combinations(pat)
    assert len(combos) == 4


# ---------------------------------------------------------------------------
# gradients


def test_branch_gradient_square():
    g = f("(* x x)")
    assert E.branch_gradient(g, [1.0], {}) == pytest.approx([2.0])


def test_branch_gradient_max_first():
    g = f("(max x y)", XY)
    assert E.branch_gradient(g, [1.0, 0.0], {(): (0,)}) == pytest.approx([1.0, 0.0])


def test_branch_gradient_abs_negative_branch():
    g = f("(abs x)")
    assert E.branch_gradient(g, [0.0], {(): (1,)}) == pytest.approx([-1.0])


def test_branch_gradient_missing_selection():
    with pytest.raises(E.ExprError, match="branch selection"):
        E.branch_gradient(f("(abs x)"), [0.0], {})


def test_gradient_matches_central_differences():
    # 100 random points where the pattern is a singleton everywhere.
    texts = [
        ("(+ (abs x) (* x (max x y)))", XY),
        ("(max (* x x) (min x y))", XY),
        ("(- (pow x 3) (* 2 (abs y)))", XY),
    ]
    rng = np.random.default_rng(17)
    checked = 0
    h = 1e-6
    while checked < 100:
        text, space = texts[checked % len(texts)]
        g = f(text, space)
        p = rng.uniform(-2, 2, size=space.dim)
        pat = E.active_pattern(g, p, 1e-7)
        if any(len(act) > 1 for act in pat.values()):
            continue
        grad = E.branch_gradient(g, p, pat)
        for k in range(space.dim):
            e = np.zeros(space.dim)
            e[k] = h
            fd = (E.evaluate(g, p + e) - E.evaluate(g, p - e)) / (2 * h)
            assert grad[k] == pytest.approx(fd, abs=1e-5)
        checked += 1


def test_local_lipschitz_ratio_bounded_by_branch_gradients():
    rng = np.random.default_rng(5)
    for text, space in [("(+ (abs x) (max x y))", XY), ("(* x (abs x))", XS)]:
        g = f(text, space)
        center = rng.uniform(-1, 1, size=space.dim)
        samples = center + rng.uniform(-0.1, 0.1, size=(40, space.dim))
        bound = 0.0
        for p in samples:
            pat = E.active_pattern(g, p, 1e-7)
            for sel in E.branch_combinations(pat):
                bound += float(np.linalg.norm(E.branch_gradient(g, p, sel)))
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                du = float(np.linalg.norm(samples[i] - samples[j]))
                if du < 1e-12:
                    continue
                ratio = abs(E.evaluate(g, samples[i]) - E.evaluate(g, samples[j])) / du
                assert ratio <= bound * (1 + 1e-6)


# ---------------------------------------------------------------------------
# branch-restricted passes


def test_restrict_to_pattern_collapses_singletons():
    g = f("(min 0 x)")
    pat = E.active_pattern(g, [1.0])  # only the 0 branch active
    assert brute.restrict_to_pattern(g, pat).root == E.const(0.0)
    assert E.evaluate(g, [-3.0], pat) == 0.0
    assert E.active_pattern(g, [-3.0], branches=pat) == pat


def test_restrict_keeps_partial_max():
    g = f("(max x (* 2 x) (- x 5))")
    pat = E.active_pattern(g, [0.0])
    restricted = brute.restrict_to_pattern(g, pat)
    assert restricted.root.kind == "max"
    assert len(restricted.root.children) == 2
    # the left-out third branch, here 3x - 5, is never active, even at
    # x = 6 where it is the max
    g = f("(max x (* 2 x) (- (* 3 x) 5))")
    xs = np.array([[-1.0], [0.0], [6.0]])
    assert E.eval_batch(g, xs, pat).tolist() == [-1.0, 0.0, 12.0]
    assert E.active_pattern(g, [6.0], branches=pat) == {(): (1,)}
    assert E.active_pattern(g, [0.0], branches=pat) == {(): (0, 1)}


def test_restricted_gradient_needs_one_branch():
    with pytest.raises(E.ExprError, match="one branch"):
        E.branch_gradient(f("(max x 0)"), [0.0], {(): (0, 1)})
    with pytest.raises(E.ExprError, match="out of range"):
        E.evaluate(f("(abs x)"), [0.0], {(): (2,)})


def _renumbered(g, branches, pattern):
    """pattern, a pattern of g restricted to branches, in the paths of the
    tree brute.restrict_to_pattern builds (a node left with one branch is
    gone, or a negation for abs, and kept children count from 0), and the
    path in g of each node that tree keeps, by its path there."""
    out, paths = [], {}

    def walk(n, path, hpath):
        if n.kind not in E.PIECEWISE_KINDS:
            for i, c in enumerate(n.children):
                walk(c, path + (i,), hpath + (i,))
            return
        kept = branches[path]
        if len(kept) > 1:
            paths[hpath] = path
            out.append((hpath, tuple(kept.index(b) for b in pattern[path])))
        if n.kind == "abs":
            walk(n.children[0], path + (0,), hpath if kept == (0,) else hpath + (0,))
        else:
            for k, b in enumerate(kept):
                walk(n.children[b], path + (b,), hpath + (k,) if len(kept) > 1 else hpath)

    walk(g.root, (), ())
    return dict(sorted(out)), paths


def _outcome(fn, *args):
    # the result, or the type of the library error it raised
    try:
        return fn(*args)
    except ValueError as err:
        return type(err)


FEW = S.SampleParams(dirs_per_radius=16)


def _rebuilt_full(g, x):
    """(regular, basic) subdifferentials of g at x, the basic one as the
    union over the trees rebuilt for each realizable pattern."""
    regular = S.regular_subdifferential(g, x, FEW)
    patterns, _ = S._realizable_patterns(g, x, FEW)
    parts = [S.regular_subdifferential(brute.restrict_to_pattern(g, pat), x, FEW) for pat in patterns]
    parts = [p for p in parts if p is not None]
    if not parts:
        raise S.EmptyBasicSubdifferential("no realizable pattern produced a subgradient set")
    return regular, PolytopeUnion(parts)


def _bytes(regular, basic):
    return (None if regular is None else regular.vertices.tobytes(), [p.vertices.tobytes() for p in basic.parts])


@settings(max_examples=100, deadline=None)
@given(_node_strategy, st.sampled_from([(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (0.0, 1.0)]))
def test_restricted_passes_equal_rebuilt_trees(node, tie):
    # each pattern realized near a tie point, taken on g's own tape and
    # through the tree rebuilt without the branches the pattern leaves out
    g = E.FunctionDef(XY, node)
    x = np.array(tie)
    try:
        brute.reference_forward(g, x)
    except brute.NonFinite:
        assume(False)
    pts = np.vstack([x, x + 1e-3 * directions(2, 16)])
    for branches in E.active_patterns(g, pts)[0]:
        h = brute.restrict_to_pattern(g, branches)
        assert np.array_equal(E.eval_batch(g, pts, branches), E.eval_batch(h, pts), equal_nan=True)
        own = E.active_pattern(g, x, branches=branches)
        renumbered, paths = _renumbered(g, branches, own)
        assert E.active_pattern(h, x) == renumbered
        assert len(E.branch_combinations(own)) == len(E.branch_combinations(renumbered))
        for sel, hsel in zip(E.branch_combinations(own)[:8], E.branch_combinations(renumbered)[:8]):
            assert np.array_equal(E.eval_batch(g, pts, sel), E.eval_batch(h, pts, hsel), equal_nan=True)
            got, want = _outcome(E.gradient_and_contexts, g, x, sel), _outcome(E.gradient_and_contexts, h, x, hsel)
            if isinstance(want, type):
                assert got is want
                continue
            assert np.array_equal(got[0], want[0])
            assert {p: v for p, v in got[1].items() if p in paths.values()} == {
                paths[p]: v for p, v in want[1].items()
            }
    got, want = _outcome(S.full_subdifferential, g, x, FEW), _outcome(_rebuilt_full, g, x)
    if isinstance(want, type):
        assert got is want
    else:
        assert _bytes(got.regular, got.basic) == _bytes(*want)


@settings(max_examples=100, deadline=None)
@given(_node_strategy, st.sampled_from([(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (0.0, 1.0)]))
def test_census_equals_one_call_per_radius(node, tie):
    g = E.FunctionDef(XY, node)
    x = np.array(tie)
    assert S._realizable_patterns(g, x, FEW) == brute.reference_realizable_patterns(g, x, FEW)


# ---------------------------------------------------------------------------
# AST surgery and shape heuristics


def _with_squares(node):
    # the rule for a product of two equal factors, unscaled and scaled
    return st.sampled_from(
        [node, E.ExprNode("mul", (node, node)), E.ExprNode("mul", (E.const(-2.0), node, node))]
    )


def _post_order(node):
    for child in node.children:
        yield from _post_order(child)
    yield node


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_node_strategy.flatmap(_with_squares))
@example(f("(abs x)", XY).root)
@example(f("(- (abs x))", XY).root)
@example(f("(min 0 x)", XY).root)
@example(f("(* x x)", XY).root)
@example(f("(max (abs x) (abs y))", XY).root)
@example(f("(+ x 1)", XY).root)
@example(f("(abs (- (* x x) 1))", XY).root)
@example(f("(* x y)", XY).root)
def test_the_tape_curvature_equals_the_reference_shape_class(node):
    # g and -g together cover all four classes
    g = E.FunctionDef(XY, node)
    shape = brute.reference_shape_class(g)
    assert g.convex == (shape in ("affine", "convex"))
    assert E.negate(g).convex == (shape in ("affine", "concave"))
    # and so does every slot, its subtree a function of its own
    for (_, vex, cav), sub in zip(g.shapes, _post_order(node)):
        shape = brute.reference_shape_class(E.FunctionDef(XY, sub))
        assert (vex, cav) == (shape in ("affine", "convex"), shape in ("affine", "concave"))


@pytest.mark.parametrize(
    "text,space,expected",
    [
        ("(abs x)", XS, "convex"),
        ("(- (abs x))", XS, "concave"),
        ("(min 0 x)", XS, "concave"),
        ("(* x x)", XS, "convex"),
        ("(max (abs x) (abs y))", XY, "convex"),
        ("(+ x 1)", XS, "affine"),
        ("(abs (- (* x x) 1))", XS, "unknown"),
        ("(* x y)", XY, "unknown"),
    ],
)
def test_shape_class(text, space, expected):
    # the tape's class and the reference's, against known answers
    g = f(text, space)
    assert brute.reference_shape_class(g) == expected
    assert (g.convex, E.negate(g).convex) == (
        expected in ("affine", "convex"), expected in ("affine", "concave")
    )


def test_affine_parts():
    w, b = E.affine_parts(f("(- (* 2 x) (+ y 1))", XY))
    assert w == pytest.approx([2.0, -1.0])
    assert b == pytest.approx(-1.0)
    w, b = E.affine_parts(f("(- (* 2 (+ x 1)) (pow (* x y) 0))", XY))
    assert (w.tolist(), b) == ([2.0, 0.0], 1.0)
    assert E.affine_parts(f("(* 3 (pow x 1) (pow y 0))", XY))[0].tolist() == [3.0, 0.0]
    assert E.affine_parts(f("(* x x)")) is None
    assert E.affine_parts(f("(abs x)")) is None
    # the first two agreed with an affine model at sampled probes to
    # within the probes' tolerances; the third is identically affine, but
    # affinity is the tape's degree
    for text in ["(+ y (* 1e-11 x y))", "(+ x (* 1e-12 x x))", "(* 0 (* x x))", "(* (+ x 1) (- y 1))"]:
        assert E.affine_parts(f(text, XY)) is None


def test_reads_are_the_variables_on_the_tape():
    assert E.FunctionDef(XY, E.const(1.0)).reads == frozenset()
    assert f("(+ y (* 2 y))", XY).reads == frozenset({1})
    with pytest.raises(E.ExprError, match="variable index 2 out of range for dim 2"):
        E.FunctionDef(XY, E.ExprNode("add", (E.var(2), E.var(0))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_smooth_nodes)
@example(E.ExprNode("add", (E.var(1), E.ExprNode("mul", (E.const(1e-11), E.var(0), E.var(1))))))
@example(E.ExprNode("mul", (E.const(0.0), E.ExprNode("intpow", (E.var(0),), 2))))
def test_affine_parts_equal_the_reference_at_the_origin(node):
    # a tape of degree at most 1 is affine, its parts the recursive
    # interpreter's gradient and value at the origin; any other is not
    g = E.FunctionDef(XY, node)
    try:
        value, _, _ = brute.reference_forward(g, [0.0, 0.0])
        grad, _ = brute.reference_gradient(g, [0.0, 0.0], {})
    except brute.NonFinite:
        assume(False)
    if brute.reference_degree(node) > 1:
        assert E.affine_parts(g) is None
    else:
        w, b = E.affine_parts(g)
        assert np.array_equal(w, grad) and b == value


def test_lift_to_product():
    g = f("(abs y)", E.VarSpace.of("y"))
    lifted = E.lift_to_product(g, XY, 1)
    assert E.evaluate(lifted, [5.0, -2.0]) == pytest.approx(2.0)
