import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests import brute as B
from varcalc import bilevel as BL
from varcalc import convgeom as G
from varcalc import expr as E
from varcalc import subdiff as S
from varcalc import valuefn as V
from varcalc.problemfile import parse_problem_file

ROOT = Path(__file__).resolve().parent.parent

XY = E.VarSpace.of("x", "y")
FAST = S.SampleParams(dirs_per_radius=32)


def f(t):
    return E.parse_function(t, XY)


def parabola_problem():
    # minimize y subject to x^2 - y <= 0
    return V.ParametricProblem(f("y"), (f("(- (* x x) y)"),), 1, 1)


def bang_problem():
    # minimize x*y subject to |y| - 1 <= 0; value function -|x|
    return V.ParametricProblem(f("(* x y)"), (f("(- (abs y) 1)"),), 1, 1)


def w_problem():
    # minimize y subject to -x - y <= 0; value function -x
    return V.ParametricProblem(f("y"), (f("(- 0 (+ x y))"),), 1, 1)


GRID = V.GridSpec(y_box=((-2.0, 2.0),))


# ---------------------------------------------------------------------------
# evaluate_value


def test_value_parabola_at_half():
    out = V.evaluate_value(parabola_problem(), [0.5], GRID)
    assert out.theta == pytest.approx(0.25, abs=1e-4)
    assert min(abs(y[0] - 0.25) for y in out.argmins) <= 1e-4


def test_value_bang_at_one():
    out = V.evaluate_value(bang_problem(), [1.0], GRID)
    assert out.theta == pytest.approx(-1.0, abs=1e-9)
    assert len(out.argmins) == 1
    assert out.argmins[0][0] == pytest.approx(-1.0, abs=1e-9)


def test_value_infeasible_on_box():
    prob = V.ParametricProblem(f("y"), (f("(+ y 1)"),), 1, 1)
    with pytest.raises(V.InfeasibleOnBox) as err:
        V.evaluate_value(prob, [0.0], V.GridSpec(y_box=((0.0, 2.0),)))
    assert err.value.certified_empty
    assert err.value.margin == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "box,step",
    [
        # 2e-322 / 400 rounds to 0.0
        ((-1e-322, 1e-322), "0.0"),
        # 1e308 - -1e308 overflows
        ((-1e308, 1e308), "inf"),
    ],
)
def test_grid_rejects_a_box_whose_step_is_not_finite_and_nonzero(box, step):
    with pytest.raises(V.ValueFnError, match=f"axis 1 .* has grid step {step} at resolution 401"):
        V.GridSpec(y_box=((-2.0, 2.0), box))
    assert V.GridSpec(y_box=((-1e-322, 1e-322),), resolution=3).step == 1e-322


@pytest.mark.parametrize("refine", [0, 1, 2])
def test_refinement_never_shrinks_a_box_to_a_zero_grid_step(refine):
    # the shrunk box is about 2e-322 wide, and 2e-322 / 400 rounds to 0.0:
    # the step read 0.0 at refine 1 and 2
    grid = V.GridSpec(y_box=((-1e-320, 1e-320),))
    out = V.evaluate_value(w_problem(), [0.0], grid, refine)
    assert out.step == grid.step == 5e-323
    assert B.reference_evaluate_value(w_problem(), [0.0], grid, refine).step == out.step


def test_value_refinement_monotone():
    prob = parabola_problem()
    coarse = V.evaluate_value(prob, [0.3], V.GridSpec(y_box=((-2.0, 2.0),), resolution=201))
    fine = V.evaluate_value(prob, [0.3], V.GridSpec(y_box=((-2.0, 2.0),), resolution=401))
    assert fine.theta <= coarse.theta + 1e-12


def test_value_refine_passes_reduce_error():
    out = V.evaluate_value(parabola_problem(), [0.31], GRID, refine=2)
    assert out.theta == pytest.approx(0.31**2, abs=1e-6)


XYZ = E.VarSpace.of("x", "y", "z")


def infeasible_left_problem():
    # minimize y*y subject to y <= x - 3: on the box [-2, 2] feasible iff x >= 1
    return V.ParametricProblem(f("(* y y)"), (f("(+ (- y x) 3)"),), 1, 1)


def two_lower_problem():
    # two lower variables; the box stops being feasible for x < -1
    g = lambda t: E.parse_function(t, XYZ)
    cost = g("(+ (* 2 y) z (* x y))")
    return V.ParametricProblem(cost, (g("(- 0 (+ x y))"), g("(- (abs z) (+ 1 x))")), 1, 2)


def _exactness_rows(seed: int) -> np.ndarray:
    # 0.0 beside -0.0, repeated rows, rounded rows on the 0.1 lattice and
    # random rows, more than one chunk of either grid
    rng = np.random.default_rng(seed)
    xs = np.concatenate(
        [[0.0, -0.0, 0.0, 1.0, -0.0, 1.0], np.round(rng.uniform(-1.5, 2.5, 40), 1),
         rng.uniform(-1.5, 2.5, 60)]
    )
    return xs[:, None]


def assert_same_as_reference(prob, xs, grid, refine):
    got = V.evaluate_values(prob, xs, grid, refine)
    assert len(got) == len(xs)
    for x, out in zip(xs, got):
        try:
            ref = B.reference_evaluate_value(prob, x, grid, refine)
        except V.InfeasibleOnBox as err:
            assert type(out) is V.InfeasibleOnBox
            assert str(out) == str(err)
            assert repr((out.margin, out.step, out.slope_bound)) == repr(
                (err.margin, err.step, err.slope_bound)
            )
            continue
        assert isinstance(out, V.ValueSample)
        assert repr(out.theta) == repr(ref.theta)
        assert out.step == ref.step
        assert out.x.tobytes() == ref.x.tobytes()
        assert out.argmins.shape == (len(ref.argmins), prob.y_dim)
        assert [y.tobytes() for y in out.argmins] == [y.tobytes() for y in ref.argmins]
    return got


@pytest.mark.parametrize(
    "make,grid",
    [
        (bang_problem, GRID),
        (infeasible_left_problem, GRID),
        (two_lower_problem, V.GridSpec(y_box=((-2.0, 2.0), (-1.5, 2.5)), resolution=21)),
    ],
)
@pytest.mark.parametrize("refine", [0, 2])
def test_batched_value_equals_reference_loop(make, grid, refine):
    prob = make()
    xs = _exactness_rows(refine)
    assert len(xs) > V.BATCH_POINTS // grid.resolution**prob.y_dim  # several chunks
    got = assert_same_as_reference(prob, xs, grid, refine)
    if make is bang_problem:
        # x = -0.0 makes every cost x*y a zero of the other sign
        assert repr(got[0].theta) == "0.0" and repr(got[1].theta) == "-0.0"
    if make is infeasible_left_problem:
        assert any(isinstance(out, V.InfeasibleOnBox) for out in got)
    if refine:
        # rows stop refining at different passes, so their final steps differ
        steps = {out.step for out in got if isinstance(out, V.ValueSample)}
        assert len(steps) >= 3


@pytest.mark.parametrize(
    "make,grid",
    [
        (parabola_problem, GRID),
        (two_lower_problem, V.GridSpec(y_box=((-2.0, 2.0), (-1.5, 2.5)), resolution=21)),
    ],
)
def test_batched_value_searches_a_grid_larger_than_the_budget(monkeypatch, make, grid):
    # a grid larger than BATCH_POINTS is searched one parameter per pass,
    # the whole grid at once
    monkeypatch.setattr(V, "BATCH_POINTS", 100)
    rows = []
    grid_pass = V._grid_pass
    monkeypatch.setattr(V, "_grid_pass", lambda prob, xs, *a: rows.append(len(xs)) or grid_pass(prob, xs, *a))
    assert_same_as_reference(make(), np.array([[0.3], [-0.7], [0.3], [-1.2]]), grid, 2)
    assert rows and set(rows) == {1}


def _count_rows(monkeypatch):
    # the number of rows of each _grid_pass call
    rows = []
    grid_pass = V._grid_pass
    monkeypatch.setattr(V, "_grid_pass", lambda prob, xs, *a: rows.append(len(xs)) or grid_pass(prob, xs, *a))
    return rows


@pytest.mark.parametrize("refine", [0, 2])
def test_grouped_value_search_is_exact_for_close_rows(monkeypatch, refine):
    # the cost y reads no x: 200 rows within 1e-3 of x = 0.3 differ only in
    # whether the one grid point y = -0.3 of that window is feasible
    xs = np.linspace(0.3 - 1e-3, 0.3 + 1e-3, 200)[:, None]
    rows = _count_rows(monkeypatch)
    got = assert_same_as_reference(w_problem(), xs, GRID, refine)
    if refine == 0:
        assert sum(rows) <= 2
    assert len({out.x.tobytes() for out in got}) == len(xs)


def test_grouped_value_search_keeps_each_infeasible_margin(monkeypatch):
    # y <= x - 3 has no grid point on [-2, 2] for x < 1: the rows left of 1
    # form one group, infeasible on the box, and are searched one row each
    xs = np.linspace(1.0 - 1e-3, 1.0 + 1e-3, 41)[:, None]
    rows = _count_rows(monkeypatch)
    got = assert_same_as_reference(infeasible_left_problem(), xs, GRID, 2)
    margins = [out.margin for out in got if isinstance(out, V.InfeasibleOnBox)]
    assert len(margins) == 20 and len(set(margins)) == 20
    # level 0: one pass for the two groups' heads, one for the other 19
    # infeasible rows
    assert rows[:2] == [2, 19]


def test_grouped_value_search_is_exact_in_two_dimensions():
    # the cost reads no x; the third constraint reads no x either, so only
    # the box decides its mask
    g = lambda t: E.parse_function(t, XYZ)
    prob = V.ParametricProblem(
        g("(+ y (* 2 z))"),
        (g("(- 0 (+ x y))"), g("(- (abs z) (+ 1 x))"), g("(- (abs (- y z)) 2.5)")),
        1,
        2,
    )
    grid = V.GridSpec(y_box=((-2.0, 2.0), (-1.5, 2.5)), resolution=21)
    got = assert_same_as_reference(prob, _exactness_rows(2), grid, 2)
    assert any(isinstance(out, V.InfeasibleOnBox) for out in got)


def test_value_search_is_ungrouped_when_the_cost_reads_x(monkeypatch):
    def no_grouping(*a):
        raise AssertionError("rows grouped although the cost reads x")

    monkeypatch.setattr(V, "_group_rows", no_grouping)
    got = assert_same_as_reference(bang_problem(), _exactness_rows(2), GRID, 2)
    # x = -0.0 makes every cost x*y a zero of the other sign
    assert repr(got[0].theta) == "0.0" and repr(got[1].theta) == "-0.0"


# a box of ordinary size, or one a few hundred subnormals wide, whose
# grid step underflows to 0 or to a subnormal
_boxes = st.one_of(
    st.tuples(st.floats(-1e3, 1e3), st.floats(1e-9, 1e3)).map(lambda b: (b[0], b[0] + b[1])),
    st.tuples(st.integers(-300, 300), st.integers(1, 600)).map(
        lambda b: (b[0] * 5e-324, (b[0] + b[1]) * 5e-324)
    ),
).filter(lambda b: b[0] < b[1])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda d: st.lists(st.lists(_boxes, min_size=d, max_size=d), min_size=1, max_size=6)
    ),
    st.integers(3, 401),
)
@example([[(-2.0, 2.0)], [(0.0, 1e-322)]], 401)
def test_open_grid_axes_are_each_rows_linspace(rows, resolution):
    # batched np.linspace takes its divide-first formula for every row as
    # soon as one row's step is 0; each axis here is its own scalar linspace
    box = np.array(rows, dtype=float)
    lo, hi = box[:, :, 0], box[:, :, 1]
    axes, cols = V._open_grid(np.zeros((len(box), 1)), lo, hi, resolution)
    for r, a in np.ndindex(lo.shape):
        want = np.linspace(lo[r, a], hi[r, a], resolution)
        assert axes[r, a].tobytes() == want.tobytes()
        assert cols[1 + a][r].ravel().tobytes() == want.tobytes()


# grid values from 1e-3 to 1e12 in magnitude; near the overflow threshold,
# where differences and quotients overflow; and, mixed in, NaN, +-inf and
# signed zeros.  A row takes one kind, so most rows have no special value.
_ordinary = st.builds(
    lambda m, e, neg: (-m if neg else m) * 10.0**e,
    st.floats(1.0, 10.0), st.integers(-3, 12), st.booleans(),
)
_cells = {
    "ordinary": _ordinary,
    "huge": st.one_of(_ordinary, st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308])),
    "special": st.one_of(_ordinary, st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])),
}


@st.composite
def _slope_grids(draw):
    d = draw(st.integers(1, 4))
    resolution = draw(st.integers(3, 3 if d == 4 else 5))
    kinds = st.sampled_from(sorted(_cells))
    rows = draw(st.lists(st.tuples(st.lists(_boxes, min_size=d, max_size=d), kinds), min_size=1, max_size=4))
    # each row's cells are picked from a few drawn values by a seeded index
    n = resolution**d
    values = []
    for _, kind in rows:
        pool = np.array(draw(st.lists(_cells[kind], min_size=1, max_size=6)))
        values.append(pool[np.random.default_rng(draw(st.integers(0, 2**16))).integers(len(pool), size=n)])
    box = np.array([b for b, _ in rows])
    return np.array(values), box[:, :, 0], box[:, :, 1], resolution


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_slope_grids())
@example((np.array([[np.nan, 1.0, 2.0], [0.0, 1e300, -1e300], [1.0, 2.0, 4.0]]),
          np.array([[0.0], [0.0], [0.0]]), np.array([[1.0], [1e-10], [5e-324]]), 3))
def test_slope_bounds_equal_every_quotient_divided_out(grid):
    # one division per row where max|d| / h is finite; a row with a NaN,
    # an infinite value, an overflowing quotient or a zero step divides
    # each difference
    values, lo, hi, resolution = grid
    got = V._slope_bounds(values, lo, hi, resolution)
    want = B.reference_slope_bounds(values, lo, hi, resolution)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "name,candidate,rows,searched",
    [("kink", "bottom", 649, 1368), ("worked", "origin", 686, 336)],
)
def test_refined_search_builds_one_sample_per_distinct_row(monkeypatch, name, candidate, rows, searched):
    # the calmness probe's refine=2 search: a sample is built once its row
    # finishes, not at each level (1 368 and 2 058 samples when each level
    # built one for every row it searched)
    pf = parse_problem_file((ROOT / "problems" / f"{name}.vp").read_text())
    bp, point = pf.bilevel_problem(), pf.candidate(candidate)
    built = []
    sample = V.ValueSample
    monkeypatch.setattr(V, "ValueSample", lambda *a: built.append(1) or sample(*a))
    passed = _count_rows(monkeypatch)
    BL._calmness_samples(bp, point, pf.grid, pf.sample_params)
    assert len(built) == rows
    assert sum(passed) == searched


def test_batched_value_rejects_bad_rows():
    with pytest.raises(V.ValueFnError, match="finite"):
        V.evaluate_values(parabola_problem(), [[0.0], [np.nan]], GRID)
    with pytest.raises(V.ValueFnError, match="finite"):
        V.evaluate_values(parabola_problem(), [[np.inf]], GRID)
    with pytest.raises(V.ValueFnError, match="dimension"):
        V.evaluate_values(parabola_problem(), [[0.0, 1.0]], GRID)
    assert V.evaluate_values(parabola_problem(), np.empty((0, 1)), GRID) == []


def test_batched_value_memory_is_bounded():
    # 2 000 parameters on a 101**2 grid, three passes each: one parameter
    # per chunk of BATCH_POINTS = 2**14 points, a few tens of float64
    # arrays of that size at a time.  Raising the budget raises the
    # benchmark's peak_rss_mb; this bound has to move with it on purpose.
    prob = V.ParametricProblem(
        E.parse_function("(+ (* 2 y) z)", XYZ),
        (E.parse_function("(- 0 (+ x y))", XYZ), E.parse_function("(- 0 (+ x z))", XYZ)),
        1,
        2,
    )
    grid = V.GridSpec(y_box=((-2.0, 2.0), (-2.0, 2.0)), resolution=101)
    xs = np.linspace(-1.0, 1.0, 2000)[:, None]
    tracemalloc.start()
    try:
        out = V.evaluate_values(prob, xs, grid, refine=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert all(abs(s.theta + 3.0 * x) <= 3.0 * s.step for s, (x,) in zip(out, xs))


def _peak_memory(prob, xs, grid):
    tracemalloc.start()
    try:
        out = V.evaluate_values(prob, xs, grid, refine=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_batched_value_memory_is_bounded_when_the_cost_reads_x():
    # as above, but the cost reads x, so every parameter is its own search
    g = lambda t: E.parse_function(t, XYZ)
    prob = V.ParametricProblem(
        g("(+ (* 2 y) z (* x y))"), (g("(- 0 (+ x y))"), g("(- 0 (+ x z))")), 1, 2
    )
    grid = V.GridSpec(y_box=((-2.0, 2.0), (-2.0, 2.0)), resolution=101)
    xs = np.linspace(-1.0, 1.0, 2000)[:, None]
    out, peak = _peak_memory(prob, xs, grid)
    assert peak < 4 << 20
    # y = z = -x: theta = -3x - x**2
    assert all(abs(s.theta + 3.0 * x + x * x) <= 4.0 * s.step for s, (x,) in zip(out, xs))


def test_batched_value_memory_is_bounded_for_many_close_rows():
    # 5 000 parameters on a 401-point grid, a few hundred groups: the keys
    # are built a few rows at a time and kept as short digests
    xs = np.linspace(-0.05, 0.05, 5000)[:, None]
    out, peak = _peak_memory(w_problem(), xs, GRID)
    assert peak < 4 << 20
    assert all(abs(s.theta + x) <= s.step for s, (x,) in zip(out, xs))


def test_value_line_matches_analytic_w():
    xs = [[x] for x in np.round(np.arange(-1.0, 1.0001, 0.1), 10)]
    samples = V.evaluate_values(w_problem(), xs, GRID)
    for x, s in zip(xs, samples):
        assert s.theta == pytest.approx(-x[0], abs=1e-6)


# ---------------------------------------------------------------------------
# inner semicontinuity probe


def test_isc_holds_for_parabola():
    report = V.inner_semicontinuity_probe(parabola_problem(), [0.0, 0.0], GRID, FAST)
    assert report.verdict


def test_isc_fails_for_bang():
    report = V.inner_semicontinuity_probe(bang_problem(), [0.0, 1.0], GRID, FAST)
    assert not report.verdict
    assert report.worst_distance == pytest.approx(2.0, abs=1e-6)


def test_isc_trivial_for_constant_cost():
    prob = V.ParametricProblem(f("0.0"), (f("(- (abs y) 1)"),), 1, 1)
    report = V.inner_semicontinuity_probe(prob, [0.0, 0.5], GRID, FAST)
    assert report.verdict


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "point, grid, distance",
    [
        # grid steps of 5e297 and a reference decision 1e200 from every
        # argminimum: squared, both distances overflow the largest float
        ([0.0, 0.0], V.GridSpec(y_box=((-1e300, 1e300),)), 5e297),
        ([1e200, -1e200], GRID, 1e200),
    ],
)
def test_isc_witness_distance_stays_finite_past_overflow(point, grid, distance):
    report = V.inner_semicontinuity_probe(w_problem(), point, grid, FAST)
    assert report.worst_distance == pytest.approx(distance, rel=1e-9)


def test_isc_distance_keeps_the_plain_norm_where_it_is_finite():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-150, 200, (200, 1))
    with np.errstate(over="ignore"):
        plain = np.array([np.linalg.norm(d) for d in rows])
    finite = np.isfinite(plain)
    assert 0 < finite.sum() < len(rows)
    lengths = V._lengths(rows)
    assert np.array_equal(lengths[finite], plain[finite])
    assert np.all(np.isfinite(lengths))
    big = V._lengths(np.array([[3e300, -4e300], [3.0, 4.0], [np.inf, 0.0]]))
    assert big[0] == pytest.approx(5e300, rel=1e-15)
    assert big[1:].tolist() == [5.0, np.inf]


def test_grid_point_budget():
    assert V.GridSpec(y_box=((-2.0, 2.0),) * 2).resolution ** 2 <= V.MAX_GRID_POINTS
    with pytest.raises(V.ValueFnError, match="grid points"):
        V.GridSpec(y_box=((-2.0, 2.0),) * 3)


def test_isc_rejects_non_optimal_reference():
    with pytest.raises(V.ValueFnError):
        V.inner_semicontinuity_probe(parabola_problem(), [0.0, 1.0], GRID, FAST)


# ---------------------------------------------------------------------------
# estimates


def test_estimate_parabola_at_origin():
    out = V.value_subdiff_estimate(parabola_problem(), [0.0, 0.0], GRID, FAST)
    assert len(out.basic.parts) == 1
    part = out.basic.parts[0]
    assert part.num_vertices == 1
    assert part.vertices[0] == pytest.approx([0.0], abs=1e-9)
    assert all(c.is_zero() for c in out.singular)


def test_estimate_refuses_without_isc():
    with pytest.raises(V.HypothesisFailure):
        V.value_subdiff_estimate(bang_problem(), [0.0, -1.0], GRID, FAST)


@pytest.mark.parametrize("status", ["passed", "Verified", ""])
def test_record_rejects_an_unknown_status(status):
    ledger = []
    with pytest.raises(ValueError, match="unknown hypothesis status"):
        V.record(ledger, "a", status)
    assert ledger == []


def test_estimate_override_recorded():
    out = V.value_subdiff_estimate(
        bang_problem(), [0.0, -1.0], GRID, FAST, override_isc=True
    )
    statuses = {e["hypothesis"]: e["status"] for e in out.ledger}
    assert statuses["argminimum mapping inner semicontinuous at the candidate"] == "overridden"
    # one-sided estimate: the x-block of the cost gradient at (0, -1)
    assert out.basic.parts[0].vertices[0] == pytest.approx([-1.0], abs=1e-9)


def test_estimate_w_problem():
    out = V.value_subdiff_estimate(w_problem(), [0.0, 0.0], GRID, FAST)
    assert out.basic.parts[0].vertices[0] == pytest.approx([-1.0], abs=1e-9)


# ---------------------------------------------------------------------------
# Lipschitz verdict


def test_lipschitz_verdict_parabola():
    out = V.lipschitz_verdict(parabola_problem(), [0.0, 0.0], GRID, FAST)
    assert out.verdict
    assert out.modulus_estimate <= 0.0101


def test_lipschitz_verdict_sqrt_fails():
    prob = V.ParametricProblem(f("y"), (f("(- (* y y) x)"),), 1, 1)
    out = V.lipschitz_verdict(prob, [0.0, 0.0], GRID, FAST, override_isc=True)
    assert not out.verdict


def test_singular_consistency_no_blowup_when_lipschitz():
    # positive verdict: difference quotients stay within twice the
    # estimated modulus; the failing case blows up like 1/sqrt(r)
    bang = bang_problem()
    verdict = V.lipschitz_verdict(bang, [0.0, -1.0], GRID, FAST, override_isc=True)
    assert verdict.verdict
    theta0 = V.evaluate_value(bang, [0.0], GRID, refine=2).theta
    for r in FAST.radii[:3]:
        for d in (1.0, -1.0):
            th = V.evaluate_value(bang, [r * d], GRID, refine=2).theta
            assert abs(th - theta0) / r <= 2.0 * max(verdict.modulus_estimate, 1e-3)

    sqrt_prob = V.ParametricProblem(f("y"), (f("(- (* y y) x)"),), 1, 1)
    bad = V.lipschitz_verdict(sqrt_prob, [0.0, 0.0], GRID, FAST, override_isc=True)
    assert not bad.verdict
    quotients = []
    for r in (1e-2, 1e-4):
        th = V.evaluate_value(sqrt_prob, [r], GRID, refine=2).theta
        quotients.append(abs(th - 0.0) / r)
    assert quotients[1] > 5 * quotients[0]  # blow-up as r shrinks


def test_lipschitz_verdict_bang_with_override():
    out = V.lipschitz_verdict(bang_problem(), [0.0, -1.0], GRID, FAST, override_isc=True)
    assert out.verdict
    xs = [[x] for x in np.round(np.arange(-1.0, 1.0001, 0.1), 10)]
    for x, s in zip(xs, V.evaluate_values(bang_problem(), xs, GRID)):
        assert s.theta == pytest.approx(-abs(x[0]), abs=1e-4)


# ---------------------------------------------------------------------------
# regular-subdifferential outer approximation of theta


def test_regular_value_outer_w_problem():
    out = V.regular_value_subdiff_outer(w_problem(), [0.0], GRID, FAST)
    assert out is not None
    assert G.point_to_polytope_distance([-1.0], out) <= 1e-9


def test_regular_value_outer_empty_for_concave_kink():
    out = V.regular_value_subdiff_outer(bang_problem(), [0.0], GRID, FAST)
    assert out is None


# ---------------------------------------------------------------------------
# argmin slope bounds


def _sample(x, ys, step):
    return V.ValueSample(np.array(x, dtype=float), 0.0, np.array(ys, dtype=float), step)


def test_argmin_cost_slopes_equal_the_per_sample_loop(monkeypatch):
    # y**300 overflows past |y| = 10.5: at y = 11 both stencil values are
    # inf (quotient NaN), at y = 10.56 with step 0.1 one is (quotient inf)
    g = lambda t: E.parse_function(t, XYZ)
    cases = [
        (V.ParametricProblem(f("(+ (* x y) (pow y 300))"), (), 1, 1), [
            _sample([0.3], [[0.25]], 0.01),
            _sample([-0.0], [[11.0], [0.5], *[[0.1 * i] for i in range(10)]], 0.01),
            _sample([1.5], [[11.0]], 0.01),
            _sample([0.7], [[0.2], [10.56], [-0.3]], 0.1),
            _sample([0.2], np.empty((0, 1)), 0.01),
            _sample([2.0], [[-0.4], [0.4]], 1e-9),
        ]),
        (V.ParametricProblem(g("(+ (* x y) (pow z 300) (abs y))"), (), 1, 2), [
            _sample([0.3], [[0.0, 0.25]], 0.02),
            _sample([-1.0], [[0.1 * i, 11.0 - i] for i in range(12)], 0.05),
            _sample([0.5], [[0.0, 11.0]], 0.05),
            _sample([0.0], [[1.0, 10.56]], 0.1),
            _sample([0.4], np.empty((0, 2)), 0.02),
        ]),
    ]
    for prob, samples in cases:
        with np.errstate(invalid="ignore"):
            want = B.reference_argmin_cost_slopes(prob, samples)
        calls = []
        eval_batch = E.eval_batch
        monkeypatch.setattr(E, "eval_batch", lambda *a: calls.append(1) or eval_batch(*a))
        got = V._argmin_cost_slopes(prob, samples)
        monkeypatch.setattr(E, "eval_batch", eval_batch)
        assert repr(got) == repr(want)
        assert len(calls) == 1
        assert np.inf in got and 0.0 in got
    assert V._argmin_cost_slopes(cases[0][0], []) == []
