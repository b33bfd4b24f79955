"""The quadrature rule, grid integrals, bump fields, and the vanishing check."""

import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from divkit import expr as expr_module
from divkit import quadrature
from divkit.errors import ChartMismatch, SupportError, ValidationError
from divkit.expr import parse_expr
from divkit.geometry import Chart, VectorField, VolumeForm, lie_derivative_top
from divkit.quadrature import (
    QuadratureRule,
    bump_field,
    default_rule,
    grid_integral,
    integral_vanishing_check,
)
from test_expr import shared_forests

BOX2 = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))


def gauss_segment(fn, a, b, segments=None):
    """Integral of a scalar callable over [a, b] by the default rule."""
    nodes, weights = default_rule().mapped(a, b, segments)
    return float(sum(w * fn(t) for t, w in zip(nodes.tolist(), weights.tolist())))


def test_rule_nodes_and_weights():
    rule = QuadratureRule()
    assert rule.order == 16
    nodes, weights = rule.mapped(0.0, 1.0, segments=3)
    assert nodes.size == 48
    assert np.all(weights > 0)
    assert np.all((nodes > 0.0) & (nodes < 1.0))
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    # symmetric about the midpoint
    assert np.allclose(nodes + nodes[::-1], 1.0, atol=1e-14)


def test_segment_count_scales_with_length():
    rule = default_rule()
    assert rule.segment_count(1.0) == 8
    assert rule.segment_count(0.1) == 1
    assert rule.segment_count(2.3) == 19


def test_single_segment_exact_through_degree_31():
    # order 16 Gauss-Legendre integrates degree <= 31 exactly
    v31 = gauss_segment(lambda t: t**31, 0.0, 2.0, segments=1)
    assert v31 == pytest.approx(134217728.0, rel=1e-14)  # 2^32/32
    v30 = gauss_segment(lambda t: t**30, 0.0, 2.0, segments=1)
    assert v30 == pytest.approx(69273666.06451613, rel=1e-14)  # 2^31/31


def test_gauss_segment_values():
    assert gauss_segment(math.exp, 0.0, 1.0) == pytest.approx(
        1.718281828459045, abs=1e-14)
    bump = parse_expr("bump(t)", ("t",))
    v = gauss_segment(lambda t: bump.eval({"t": t}), -1.0, 1.0)
    assert v == pytest.approx(0.4439938161680794, abs=1e-12)


def test_grid_integral_separable_polynomial():
    ch = Chart(("x", "y"), ((0.0, 1.0), (-1.0, 1.0)))
    v = grid_integral(lambda a: a["x"] ** 2 * a["y"] ** 4, ch, resolution=1)
    assert v == pytest.approx(2.0 / 15.0, rel=1e-14)


def test_grid_integral_batch_matches_scalar():
    # the integral of sin y over [-1, 1] is 0, so only the constant counts
    e = parse_expr("exp(x)*sin(y)+2", ("x", "y"))
    batched = grid_integral(e.eval_many, BOX2, resolution=2)
    assert batched == pytest.approx(8.0, abs=1e-12)


def test_grid_integral_bump_square():
    e = parse_expr("bump(x)*bump(y)", ("x", "y"))
    ch = Chart(("x", "y"), ((-2.0, 2.0), (-2.0, 2.0)))
    v = grid_integral(e.eval_many, ch, resolution=16)
    assert v == pytest.approx(0.4439938161680794**2, abs=1e-9)


def test_grid_integral_one_and_three_dims():
    line = Chart(("u",), ((0.0, 1.0),))
    assert grid_integral(lambda a: np.exp(a["u"]), line) == pytest.approx(
        1.718281828459045, abs=1e-13)
    cube = Chart(("x", "y", "z"), ((0.0, 1.0),) * 3)
    v = grid_integral(lambda a: a["x"] * a["y"] * a["z"] + 1.0, cube, resolution=1)
    assert v == pytest.approx(1.125, rel=1e-14)


def _slab_by_slab(fn, chart, resolution):
    """The grid integral as a reference: one call of ``fn`` per slab of the
    grid (one node of the first axis), each slab's weighted sum added in
    order; in 1-D, one call for the whole axis."""
    per_axis = [default_rule().mapped(a, b, segments=resolution) for a, b in chart.box]
    (first_nodes, first_weights), rest = per_axis[0], per_axis[1:]
    names = chart.coords
    if not rest:
        return float(first_weights @ fn({names[0]: first_nodes}))
    cols = [g.ravel() for g in np.meshgrid(*[n for n, _ in rest], indexing="ij")]
    weights = np.ones_like(cols[0])
    for w in np.meshgrid(*[w for _, w in rest], indexing="ij"):
        weights = weights * w.ravel()
    total = 0.0
    for x0, w0 in zip(first_nodes, first_weights):
        arrays = {names[0]: np.full(cols[0].size, x0), **dict(zip(names[1:], cols))}
        total += w0 * float(weights @ fn(arrays))
    return total


def _recording(e, calls):
    """``e.eval_many`` that records each call's block size, the points of
    the broadcast shape of its arrays, and checks that each coordinate's
    array spans its own axis only."""
    def fn(arrays):
        shapes = [np.shape(a) for a in arrays.values()]
        for axis, shape in enumerate(shapes):
            assert len(shape) == len(shapes)
            assert all(d == 1 for i, d in enumerate(shape) if i != axis)
        calls.append(math.prod(np.broadcast_shapes(*shapes)))
        return e.eval_many(arrays)
    return fn


@pytest.mark.parametrize("coords, resolution, sizes", [
    (("u",), 9, [144]),
    # 2-D slabs of 2,048 points, four to a call
    (("x", "y"), 128, [8192] * 512),
    # slabs of 112 points: 73 fit in a call, so the last call has 39
    (("x", "y"), 7, [73 * 112, 39 * 112]),
    # 3-D slabs of 96^2 = 9,216 points, more than a call holds: one each
    (("x", "y", "z"), 6, [9216] * 96),
], ids=["1d", "2d-even", "2d-ragged", "3d"])
def test_grid_integral_blocks_match_slab_by_slab(coords, resolution, sizes):
    chart = Chart(coords, ((-1.0, 1.5),) + ((-0.5, 1.0),) * (len(coords) - 1))
    text = {1: "exp(u)*sin(3*u) + bump(u)",
            2: "exp(x)*sin(3*y) + bump(x)*cos(y) - x*y^3",
            3: "exp(x)*sin(3*y)*cos(z) + bump(x)*z^2"}[len(coords)]
    e = parse_expr(text, coords)
    calls = []
    got = grid_integral(_recording(e, calls), chart, resolution=resolution)
    assert got == _slab_by_slab(e.eval_many, chart, resolution)
    assert calls == sizes


XYZ = ("x", "y", "z")
_SIDES = [(-1.0, 1.5), (0.25, 2.0), (-2.0, -0.5)]


@st.composite
def grid_cases(draw):
    """Roots over the coordinates of a 2-D or 3-D chart, with the chart and
    a resolution."""
    n = draw(st.sampled_from([2, 3]))
    roots = draw(shared_forests(XYZ[:n]))
    box = tuple(draw(st.sampled_from(_SIDES)) for _ in range(n))
    return roots, Chart(XYZ[:n], box), draw(st.sampled_from([1, 2] if n == 2 else [1]))


_GRID_ROOTS = [parse_expr(text, XYZ) for text in (
    "bump((y - 0.5)/0.75)*(1 - ((z - 1)/0.75)^2)^2", "2", "z", "log(x)",
    "exp(x)*sin(3*y) + sqrt(z)/x")]


@settings(max_examples=150, deadline=None)
@given(grid_cases(), st.sampled_from([1, 100, quadrature._GRID_POINTS]))
@example((_GRID_ROOTS, Chart(XYZ, (_SIDES[0], _SIDES[1], _SIDES[1])), 1), 100)
def test_broadcast_grid_matches_slab_by_slab(case, grid_points):
    # random trees of every kind, constant and one-coordinate trees among
    # them, through _expr_integral as integral_vanishing_check and the CLI
    # call it: its one-axis leaves are sliced per block, and a block holds
    # one slab, several, or every slab.  Their values may be inf or nan,
    # whose sums numpy would warn about, and two nan integrals are equal
    roots, chart, resolution = case
    original = quadrature._GRID_POINTS
    quadrature._GRID_POINTS = grid_points
    try:
        with np.errstate(all="ignore"):
            for root in roots:
                got = quadrature._expr_integral(root, chart, resolution)
                want = _slab_by_slab(root.eval_many, chart, resolution)
                assert got == want or (math.isnan(got) and math.isnan(want)), str(root)
    finally:
        quadrature._GRID_POINTS = original


def test_grid_integral_broadcasts_the_return():
    # a scalar return, or one that spans the first axis only, stands for
    # its value at every point of the block
    for chart in (Chart(("x",), ((0.0, 2.0),)), BOX2,
                  Chart(XYZ, ((0.0, 1.0), (-1.0, 1.0), (0.0, 3.0)))):
        volume = math.prod(b - a for a, b in chart.box)
        scalar = grid_integral(lambda a: 1.0, chart, resolution=2)
        assert scalar == pytest.approx(volume, rel=1e-14)
        assert grid_integral(lambda a: np.ones_like(a["x"]), chart,
                             resolution=2) == scalar
        for wrong in (np.ones(7), np.ones((2, 1, 1, 1))):
            with pytest.raises(ValidationError, match="broadcast"):
                grid_integral(lambda a: wrong, chart, resolution=2)


@pytest.mark.parametrize("coords, resolution, blocks", [
    (("x", "y"), 128, 512),
    (("x", "y", "z"), 6, 96),
], ids=["2d", "3d"])
def test_grid_integral_builds_axis_arrays_once(monkeypatch, coords, resolution,
                                               blocks):
    # the np.ix_ arrays are built once per integral, not once per block;
    # each block gets its own slice of the first one
    ix_calls, firsts = [], []
    ix_ = np.ix_
    monkeypatch.setattr(np, "ix_", lambda *axes: ix_calls.append(len(axes))
                        or ix_(*axes))

    def fn(arrays):
        firsts.append(arrays["x"].ravel().tolist())
        return 1.0

    chart = Chart(coords, ((-1.0, 1.0),) * len(coords))
    assert grid_integral(fn, chart, resolution) == pytest.approx(
        2.0 ** len(coords), rel=1e-13)
    assert ix_calls == [len(coords)]
    assert len(firsts) == blocks
    nodes = sum(firsts, [])
    assert nodes == default_rule().mapped(-1.0, 1.0, resolution)[0].tolist()


def test_block_values_copies_only_what_it_must():
    # a full C-contiguous return is summed as it is; a return that
    # broadcasts, or is strided, is copied out C-contiguous in the block
    shape = (3, 5)
    full = np.arange(15.0).reshape(shape)
    assert quadrature._block_values(lambda a: full, {}, shape) is full
    column = np.arange(3.0).reshape(3, 1)
    for ret in (column, 2.5, np.asfortranarray(full), full[:, ::-1]):
        got = quadrature._block_values(lambda a: ret, {}, shape)
        assert got.shape == shape and got.flags.c_contiguous
        assert not np.shares_memory(got, ret)
        assert np.array_equal(got, np.broadcast_to(ret, shape))
    with pytest.raises(ValidationError, match="broadcast"):
        quadrature._block_values(lambda a: np.ones(4), {}, shape)


@pytest.mark.parametrize("length", [1, 7, 2048, 4097])
def test_vecdot_sums_each_row_as_a_dot_product(length):
    # grid_integral sums a block's slabs by one np.vecdot and keeps the bits
    # of the slab-by-slab sum only if vecdot sums each row as ``w @ row``
    # does; a numpy whose vecdot loop sums in another order fails here by
    # name.  (A matrix-vector product ``rows @ w`` does not keep them.)
    rng = np.random.default_rng(length)
    rows = rng.standard_normal((8, length)) * np.exp(rng.uniform(-15, 15, (8, length)))
    specials = [np.inf, -np.inf, np.nan, -0.0, 5e-324, -1e-310]
    for i, value in enumerate(specials, start=1):
        rows[i, rng.integers(length, size=max(1, length // 8))] = value
    rows[2, 0] = np.inf  # and -inf elsewhere in the row, from above
    rows[7] = rng.choice(specials[3:], size=length)  # -0.0 and subnormals only
    w = rng.random(length)
    w[::3] *= 1e-310  # subnormal weights
    with np.errstate(all="ignore"):
        got = np.vecdot(rows, w)
        want = np.array([w @ r for r in rows])
    assert np.array_equal(got, want, equal_nan=True)
    finite = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))


def test_grid_integral_of_opposite_infinities_is_nan():
    # +inf and -inf in one slab sum to nan, an invalid operation numpy
    # reports (an error under this suite's filters) unless the caller
    # silences it, as the slab-by-slab sum did
    def fn(arrays):
        return np.where(arrays["y"] < 0, np.inf, -np.inf) * np.ones_like(arrays["x"])

    with np.errstate(invalid="ignore"):
        assert math.isnan(grid_integral(fn, BOX2, resolution=2))
    with pytest.raises(RuntimeWarning, match="invalid value"):
        grid_integral(fn, BOX2, resolution=2)


def test_vanishing_integral_matches_slab_by_slab():
    weighted = VolumeForm.from_string(BOX2, "exp(x+0.5*y)")
    f = bump_field(BOX2, (0.1, -0.2), 0.55, 1)
    coeff = lie_derivative_top(f, weighted)
    for resolution in (7, 32):
        assert integral_vanishing_check(weighted, f, resolution=resolution) \
            == _slab_by_slab(coeff.eval_many, BOX2, resolution)


def test_grid_integral_rejects_disks_and_bad_resolution():
    holed = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)),
                  disks=(((0.0, 0.0), 0.2),), basepoint=(0.6, 0.0))
    with pytest.raises(ValidationError):
        grid_integral(lambda a: np.ones_like(a["x"]), holed)
    with pytest.raises(ValidationError):
        grid_integral(lambda a: np.ones_like(a["x"]), BOX2, resolution=0)
    # True once integrated at resolution 1
    for bad in (2.5, math.nan, math.inf, 2.0, True, False):
        with pytest.raises(ValidationError, match="integer"):
            grid_integral(lambda a: np.ones_like(a["x"]), BOX2, resolution=bad)
    assert grid_integral(lambda a: np.ones_like(a["x"]), BOX2,
                         resolution=np.int64(2)) == pytest.approx(4.0, rel=1e-14)


# ---------------------------------------------------------------------------
# bump fields


def test_bump_field_center_value():
    f = bump_field(BOX2, (0.0, 0.0), 0.5, 0)
    assert f.components[0].eval({"x": 0.0, "y": 0.0}) == 0.1353352832366127  # e^-2
    assert f.components[1].eval({"x": 0.3, "y": 0.3}) == 0.0
    # identically zero outside the support box
    assert f.components[0].eval({"x": 0.9, "y": 0.0}) == 0.0
    assert f.components[0].eval({"x": 0.2, "y": -0.7}) == 0.0


def test_bump_field_support_validation():
    with pytest.raises(SupportError):
        bump_field(BOX2, (0.0, 0.0), 1.0, 0)  # touches the boundary
    with pytest.raises(SupportError):
        bump_field(BOX2, (0.8, 0.0), 0.3, 0)
    with pytest.raises(ValidationError):
        bump_field(BOX2, (0.0, 0.0), -0.1, 0)
    with pytest.raises(ValidationError):
        bump_field(BOX2, (0.0, 0.0), 0.5, 2)
    with pytest.raises(ValidationError):
        bump_field(BOX2, (0.0,), 0.5, 0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="center"):
            bump_field(BOX2, (bad, 0.0), 0.5, 0)
        with pytest.raises(ValidationError, match="center"):
            bump_field(BOX2, (0.0, bad), 0.5, 1)


def test_bump_field_direction_is_an_index():
    # a direction that is not an integer index would give an all-zero field,
    # whose vanishing integral reads 0 for any volume
    for bad in (0.5, 1.0, "0", None, math.nan, -1):
        with pytest.raises(ValidationError, match="direction"):
            bump_field(BOX2, (0.0, 0.0), 0.5, bad)
    f = bump_field(BOX2, (0.0, 0.0), 0.5, np.int64(1))
    assert f.components[1].eval({"x": 0.0, "y": 0.0}) == 0.1353352832366127


def test_bump_field_avoids_disks():
    holed = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)),
                  disks=(((0.0, 0.0), 0.2),), basepoint=(0.6, 0.0))
    with pytest.raises(SupportError):
        bump_field(holed, (0.3, 0.0), 0.2, 0)
    f = bump_field(holed, (0.55, 0.0), 0.3, 1)
    assert f.chart is holed


# ---------------------------------------------------------------------------
# vanishing integrals


def test_vanishing_integral_flat_and_weighted():
    flat = VolumeForm.from_string(BOX2, "1")
    weighted = VolumeForm.from_string(BOX2, "exp(x+0.5*y)")
    for direction in (0, 1):
        f = bump_field(BOX2, (0.1, -0.2), 0.55, direction)
        assert abs(integral_vanishing_check(flat, f, resolution=32)) <= 1e-9
        assert abs(integral_vanishing_check(weighted, f, resolution=32)) <= 1e-9


def test_vanishing_integral_evaluates_each_bump_factor_once(monkeypatch):
    # every one-axis subtree of the integrand, such as a bump factor and
    # its derivatives, is evaluated once per integral, not once per block:
    # the count is the same at resolution 16 (8 blocks) and 128 (512
    # blocks), and no call is longer than one axis of 16 * resolution
    # nodes.  The boundary-face check takes 8 of the calls: the field's two
    # bump factors on each of the four faces
    weighted = VolumeForm.from_string(BOX2, "exp(x+0.5*y)")
    f = bump_field(BOX2, (0.1, -0.2), 0.55, 1)
    bump = expr_module._UFUNCS["bump"]
    calls = []

    def counted(t):
        calls.append(np.size(t))
        return bump(t)

    # every evaluator takes its numpy calls from the one table
    monkeypatch.setitem(expr_module._UFUNCS, "bump", counted)
    counts = []
    for resolution in (16, 128):
        calls.clear()
        integral_vanishing_check(weighted, f, resolution=resolution)
        counts.append(len(calls))
        assert max(calls) <= 16 * resolution, calls
    assert counts[0] == counts[1] < 16, counts


def test_repeated_vanishing_integral_adds_no_plan(monkeypatch):
    # each check builds a fresh integrand tree; its one mixed root is
    # evaluated per block without a plan, so five identical checks keep as
    # many eval_roots plans as one
    monkeypatch.setattr(expr_module, "_plans", {})
    weighted = VolumeForm.from_string(BOX2, "exp(x+0.5*y)")
    f = bump_field(BOX2, (0.1, -0.2), 0.55, 1)
    counts = []
    for _ in range(5):
        integral_vanishing_check(weighted, f, resolution=16)
        counts.append(len(expr_module._plans))
    assert counts == [counts[0]] * 5, counts


def test_vanishing_integral_rejects_nonvanishing_boundary():
    flat = VolumeForm.from_string(BOX2, "1")
    drift = VectorField.from_strings(BOX2, ("1", "0"))
    with pytest.raises(SupportError):
        integral_vanishing_check(flat, drift)
    swirl = VectorField.from_strings(BOX2, ("-y", "x"))
    with pytest.raises(SupportError):
        integral_vanishing_check(flat, swirl)


def test_vanishing_integral_chart_mismatch():
    other = Chart(("x", "y"), ((-2.0, 2.0), (-2.0, 2.0)))
    flat = VolumeForm.from_string(other, "1")
    f = bump_field(BOX2, (0.0, 0.0), 0.5, 0)
    with pytest.raises(ChartMismatch):
        integral_vanishing_check(flat, f)


# ---------------------------------------------------------------------------
# the benchmark's tracer


def test_benchmark_tracer_finds_every_traced_name():
    # perfbench/tracer.py wraps divkit functions by name and reads the rule's
    # order; a refactor that drops one fails here, not only in a benchmark run
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        quadrature.grid_integral(lambda a: 1.0, BOX2, resolution=2)
    finally:
        tracer.uninstall()
    assert quadrature.grid_integral is grid_integral
    assert tracer.counters[(0, "quadrature.grid_integral.nodes")] == 32 ** 2
