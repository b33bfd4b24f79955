"""Decision pipeline tests: extraction, potentials, periods, verdicts."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit.axioms import (
    _Battery,
    _maxima,
    check_axioms,
    library_fields,
    random_fields,
    random_scalars,
)
from divkit import expr as expr_module
from divkit.errors import ChartMismatch, DomainError, ValidationError
from divkit.expr import Expr, const, parse_expr, var
from divkit.geometry import (
    Chart,
    OneForm,
    Path,
    VectorField,
    VolumeForm,
    apply_field,
    d_function,
    d_oneform,
    sample_points,
)
from divkit.operators import (
    Connection,
    DivOperator,
    Metric,
    blackbox_operator,
    div_affine,
    div_metric,
    div_sdensity,
    difference,
    div_volume,
    perturbed_operator,
)
from divkit.quadrature import default_rule
from divkit.reconstruct import (
    CLOSED_NOT_EXACT,
    DIVERGENCE,
    INCONSISTENT,
    NOT_COCYCLE,
    NOT_TENSORIAL,
    ClassifyConfig,
    NumericScalarField,
    PointwiseOneForm,
    _closedness_details,
    _tensoriality_stage,
    classify,
    closedness_residual,
    extract_oneform,
    integrate_potential,
    monodromy_period,
    rebuild_volume,
    star_shaped_subchart,
    tensoriality_residual,
)

BOX = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
ANNULUS = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)),
                disks=(((0.0, 0.0), 0.2),), basepoint=(0.6, 0.0))
TWO_PI = 6.283185307179586


def flat_op(chart=BOX):
    return div_volume(VolumeForm.from_string(chart, "1"))


def weighted_op(chart=BOX):
    return div_volume(VolumeForm.from_string(chart, "exp(x^2 - y)"))


def one_form(chart, *texts):
    return OneForm.from_strings(chart, texts)


def circle(chart, radius, center=(0.0, 0.0), winds=1):
    cx, cy = center
    w = winds * TWO_PI
    return Path.from_strings(chart, [f"{cx} + {radius}*cos({w}*t)",
                                     f"{cy} + {radius}*sin({w}*t)"])


def box_points(chart, count=40, seed=3):
    return np.asarray(sample_points(chart, count, seed), dtype=float)


# ---------------------------------------------------------------------------
# extraction


def test_extract_oneform_symbolic_difference():
    form = extract_oneform(weighted_op(), flat_op())
    assert isinstance(form, OneForm)
    pts = box_points(BOX)
    arrays = BOX.arrays(pts)
    # hand: div of exp(x^2-y)dx minus flat div pairs with (2x, -1)
    np.testing.assert_allclose(form.components[0].eval_many(arrays),
                               2.0 * pts[:, 0], atol=1e-12)
    np.testing.assert_allclose(form.components[1].eval_many(arrays),
                               -1.0, atol=1e-12)


def test_extract_oneform_zero_when_equal():
    form = extract_oneform(flat_op(), flat_op())
    arrays = BOX.arrays(box_points(BOX))
    for comp in form.components:
        np.testing.assert_allclose(comp.eval_many(arrays), 0.0, atol=0.0)


def test_extract_oneform_recovers_perturbation_exactly():
    shift = one_form(BOX, "sin(x)*y", "x^3 - y")
    form = extract_oneform(perturbed_operator(flat_op(), shift), flat_op())
    pts = box_points(BOX)
    arrays = BOX.arrays(pts)
    for got, want in zip(form.components, shift.components):
        np.testing.assert_allclose(got.eval_many(arrays),
                                   want.eval_many(arrays), atol=1e-14)


def test_extract_oneform_pointwise_route():
    form = extract_oneform(weighted_op().as_blackbox(), flat_op())
    assert isinstance(form, PointwiseOneForm)
    pts = box_points(BOX)
    vals = form.values_matrix(pts)
    np.testing.assert_allclose(vals[:, 0], 2.0 * pts[:, 0], atol=1e-12)
    np.testing.assert_allclose(vals[:, 1], -1.0, atol=1e-12)
    single = form.values_at(tuple(pts[0]))
    np.testing.assert_allclose(single, vals[0], atol=1e-14)


def test_extract_oneform_chart_mismatch():
    other = Chart(("x", "y"), ((-2.0, 2.0), (-2.0, 2.0)))
    with pytest.raises(ChartMismatch):
        extract_oneform(flat_op(), flat_op(other))


# ---------------------------------------------------------------------------
# tensoriality


def test_tensoriality_residual_vanishes_for_divergences():
    f = parse_expr("x^2*y - 0.5*y", BOX.coords)
    x_field = VectorField.from_strings(BOX, ["x*y", "cos(x)"])
    for p in [(0.3, 0.4), (-0.8, 0.1), (0.0, -0.9)]:
        r = tensoriality_residual(weighted_op(), flat_op(), f, x_field, p)
        assert r <= 1e-8


def test_tensoriality_residual_weight_mismatch():
    # hand: difference of the s=0.5 and s=1 operators applied to fX picks up
    # an extra -0.5 * X(f) relative to f times the difference on X
    half = div_sdensity(VolumeForm.from_string(BOX, "1"), 0.5)
    f = parse_expr("x^2 + y", BOX.coords)
    x_field = VectorField.from_strings(BOX, ["y", "x*y"])
    p = (0.4, -0.3)
    got = tensoriality_residual(half, flat_op(), f, x_field, p)
    want = abs(-0.5 * apply_field(x_field, f).eval(BOX.env(p)))
    assert want > 1e-3
    assert abs(got - want) <= 1e-10


def test_tensoriality_residual_constant_scalar():
    f = parse_expr("2.5", BOX.coords)
    x_field = VectorField.from_strings(BOX, ["sin(x)", "y^2"])
    r = tensoriality_residual(weighted_op(), flat_op(), f, x_field, (0.2, 0.7))
    assert r <= 1e-12


def test_tensoriality_residual_singular_point():
    f = parse_expr("1/x", BOX.coords)
    x_field = VectorField.from_strings(BOX, ["x*y", "cos(x)"])
    with pytest.raises(DomainError):
        tensoriality_residual(weighted_op(), flat_op(), f, x_field, (0.0, 0.3))
    with pytest.raises(DomainError):
        tensoriality_residual(weighted_op(), flat_op(), f, x_field, (1.5, 0.3))


# The stage once took the pair (D, D0), subtracting the two images term by
# term or, for two symbolic operators, the two expressions.  The reference
# below keeps that pair route; the stage now runs the Leibniz residual of
# the single operator D - D0 at weight 0.


def _finite_max(vals):
    """Largest finite value and its index; (inf, None) when none is finite."""
    finite = np.isfinite(vals)
    if not np.any(finite):
        return math.inf, None
    k = int(np.argmax(np.where(finite, vals, -1.0)))
    return float(vals[k]), k


def _reference_tensoriality_stage(op, base, fields, scalars, pts):
    chart = op.chart
    arrays = chart.arrays(pts)
    symbolic = op.is_symbolic and base.is_symbolic
    gaps = None if symbolic else [
        op.apply_many(x, pts) - base.apply_many(x, pts) for _, x in fields]
    worst, witness = 0.0, None
    for fname, f in scalars:
        f_vals = None if symbolic else f.eval_many(arrays)
        for j, (xname, x) in enumerate(fields):
            fx = VectorField(chart, tuple((f * c).simplify()
                                          for c in x.components))
            if symbolic:
                gap = (op.symbolic(fx) - base.symbolic(fx)) \
                    - f * (op.symbolic(x) - base.symbolic(x))
                vals = np.abs(gap.eval_many(arrays))
            else:
                dfx = op.apply_many(fx, pts) - base.apply_many(fx, pts)
                vals = np.abs(dfx - f_vals * gaps[j])
            local, k = _finite_max(vals)
            if local > worst:
                worst = local
                witness = {"scalar": fname, "field": xname, "residual": local,
                           "point": None if k is None else tuple(pts[k])}
    return worst, witness


def _stage_inputs(chart, seed):
    rng = np.random.default_rng(seed)
    fields = random_fields(chart, 8, rng) + library_fields(chart)
    scalars = random_scalars(chart, 4, rng)
    return fields, scalars, box_points(chart, count=100, seed=seed)


def _tensoriality_pairs():
    half = div_sdensity(VolumeForm.from_string(BOX, "exp(x^2 - y)"), 0.5)
    closed = perturbed_operator(flat_op(), one_form(BOX, "2*x", "-1"))
    affine = div_affine(Connection.zero(BOX))
    return {"weighted-flat": (weighted_op(), flat_op()),
            "s-half-flat": (half, flat_op()),
            "closed-affine": (closed, affine)}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["weighted-flat", "s-half-flat",
                                  "closed-affine"])
def test_tensoriality_stage_matches_pair_route_on_blackboxes(name, seed):
    op, base = _tensoriality_pairs()[name]
    fields, scalars, pts = _stage_inputs(BOX, seed)
    for d, d0 in ((op.as_blackbox(), base), (op, base.as_blackbox()),
                  (op.as_blackbox(), base.as_blackbox())):
        got = _tensoriality_stage(difference(d, d0),
                                  _Battery(BOX, fields, scalars), pts)
        assert got == _reference_tensoriality_stage(d, d0, fields, scalars, pts)


@pytest.mark.parametrize("seed", [0, 7])
def test_tensoriality_stage_matches_pair_route_on_symbolic_pairs(seed):
    polar = Chart(("r", "th"), ((1.0, 2.5), (0.0, 1.5)))
    metric = Metric.from_strings(polar, [["1", "0"], ["0", "r^2"]])
    pairs = _tensoriality_pairs()
    pairs["polar-metric"] = (
        div_volume(VolumeForm.from_string(polar, "r*exp(r)")),
        div_metric(metric))
    for name, (op, base) in pairs.items():
        fields, scalars, pts = _stage_inputs(op.chart, seed)
        got, witness = _tensoriality_stage(
            difference(op, base), _Battery(op.chart, fields, scalars), pts)
        want, want_witness = _reference_tensoriality_stage(
            op, base, fields, scalars, pts)
        if name == "s-half-flat":
            assert got > 1.0
            assert (witness["scalar"], witness["field"]) == \
                (want_witness["scalar"], want_witness["field"])
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        else:  # rounding residue on both routes
            assert got <= 2.0 ** -40 and want <= 2.0 ** -40


# ---------------------------------------------------------------------------
# closedness


def test_closedness_residual_exact_form():
    form = one_form(BOX, "2*x", "-1")
    assert closedness_residual(form, box_points(BOX)) <= 1e-9


def test_closedness_residual_nonclosed_is_one():
    # hand: d of (-y, 0) has the single entry d_x E_y - d_y E_x = 1
    form = one_form(BOX, "-y", "0")
    assert abs(closedness_residual(form, box_points(BOX)) - 1.0) <= 1e-12


def test_closedness_residual_fd_route_angular():
    def components(point):
        x, y = point
        r2 = x * x + y * y
        return (-y / r2, x / r2)

    form = PointwiseOneForm(ANNULUS, components)
    pts = box_points(ANNULUS, count=60, seed=1)
    assert closedness_residual(form, pts) <= 1e-6


@pytest.mark.parametrize("step", [0.0, -1e-5, math.nan, math.inf, -math.inf])
def test_closedness_residual_rejects_bad_step(step):
    # a zero step divided 0 by 0, a negative one gave the value of its
    # absolute value, and nan ended in a misleading DomainError
    form = PointwiseOneForm(BOX, lambda point: (point[1], -point[0]))
    for f in (form, one_form(BOX, "-y", "0")):
        with pytest.raises(ValidationError):
            closedness_residual(f, box_points(BOX, count=5), fd_step_scale=step)


def test_closedness_residual_where_no_probe_fits():
    # a probe that leaves the box shrinks once; at ten times the box even the
    # shrunk one leaves it, so every sample is skipped and the residual is inf
    form = PointwiseOneForm(BOX, lambda point: (point[1], -point[0]))
    pts = box_points(BOX)
    assert closedness_residual(form, pts, fd_step_scale=0.3) == pytest.approx(2.0)
    assert closedness_residual(form, pts, fd_step_scale=10.0) == math.inf


@pytest.mark.parametrize("pointwise", [False, True])
def test_closedness_residual_checks_its_points(pointwise):
    # the answer used to depend on how the form is held: a flat point raised
    # DomainError for a OneForm but a raw IndexError for a PointwiseOneForm,
    # and a point outside the box gave 2.0 (evaluated there) against inf
    form = PointwiseOneForm(BOX, lambda point: (-point[1], point[0])) \
        if pointwise else one_form(BOX, "-y", "x")
    for points in ([0.1, 0.2], [[5.0, 5.0]], [[0.1, 0.2, 0.3]]):
        with pytest.raises(DomainError):
            closedness_residual(form, points)
    assert closedness_residual(form, [[0.1, 0.2]]) == pytest.approx(2.0)


def test_pointwise_form_checks_returned_shape():
    # a transposed (n, m) return used to be reshaped silently into wrong
    # values: 0.494 around the circle instead of -pi/2
    def swirl(pts):
        return np.stack([pts[:, 1], -pts[:, 0]], axis=1)

    loop = circle(BOX, 0.5)
    form = PointwiseOneForm(BOX, None, swirl)
    assert monodromy_period(form, loop) == pytest.approx(-math.pi / 2, abs=1e-9)
    transposed = PointwiseOneForm(BOX, None, lambda pts: swirl(pts).T)
    with pytest.raises(ValidationError, match="shape"):
        monodromy_period(transposed, loop)


def test_numeric_scalar_checks_returned_shape():
    # a 0-d return used to end in a raw IndexError
    scalar = NumericScalarField(BOX, None, lambda pts: 1.0)
    with pytest.raises(ValidationError, match="shape"):
        scalar((0.1, 0.2))
    with pytest.raises(ValidationError, match="shape"):
        scalar.many(box_points(BOX, count=5))


def test_closedness_residual_one_dimensional_chart():
    line = Chart(("x",), ((-1.0, 1.0),))
    form = OneForm.from_strings(line, ["exp(x)"])
    assert closedness_residual(form, box_points(line)) == 0.0


def test_one_dimensional_closedness_evaluates_nothing(monkeypatch):
    # a 1-D chart has no index pair, so its closedness sweep has no row: it
    # used to call a blackbox E once at the samples and build a plan for a
    # symbolic E's one image, only to return 0
    line = Chart(("x",), ((-1.0, 1.0),))
    symbolic = perturbed_operator(flat_op(line), one_form(line, "exp(x)"))
    calls = []

    def fn_fields(fields, pts):
        calls.append(len(pts))
        return symbolic.apply_fields(fields, pts)

    blackbox = DivOperator(line, "blackbox", fn_fields=fn_fields)
    built = []
    program, tape = expr_module._Program, expr_module._Tape
    monkeypatch.setattr(expr_module, "_Program",
                        lambda roots: built.append(roots) or program(roots))
    monkeypatch.setattr(expr_module, "_Tape",
                        lambda roots: built.append(roots) or tape(roots))
    pts = box_points(line)
    for op in (symbolic, blackbox):
        assert _closedness_details(op, pts, 1e-5) == (0.0, None, None)
    assert calls == [] and built == []


def test_pointwise_form_checks_its_points_before_calling():
    # a point of the wrong length used to reach the callable and end in a
    # ValidationError about its return
    calls = []
    form = PointwiseOneForm(BOX, lambda p: calls.append(p) or (p[1], -p[0]))
    for bad in ([[0.1, 0.2, 0.3]], [0.1, 0.2], [[[0.1, 0.2]]]):
        with pytest.raises(DomainError):
            form.values_matrix(np.asarray(bad))
    with pytest.raises(DomainError):
        form.values_at((0.1, 0.2, 0.3))
    assert calls == []
    assert form.values_at((0.1, 0.2)) == (0.2, -0.1)


def test_pointwise_form_takes_a_list_of_points():
    # a list of points once reached the shape check as a list and raised
    # AttributeError; VectorField, OneForm and NumericScalarField take lists
    form = PointwiseOneForm(BOX, lambda p: (p[1], -p[0]))
    np.testing.assert_array_equal(form.values_matrix([[0.1, 0.2]]), [[0.2, -0.1]])
    box_form = extract_oneform(weighted_op().as_blackbox(), flat_op())
    np.testing.assert_array_equal(box_form.values_matrix([[0.1, 0.2], [0.3, 0.4]]),
                                  box_form.values_matrix(np.array([[0.1, 0.2],
                                                                   [0.3, 0.4]])))


def test_numeric_scalar_checks_its_points_before_calling():
    # a point of the wrong length used to reach the callable: (0.1, 0.2,
    # 0.3) gave 0.30000000000000004 on the 2-D box
    calls = []
    scalar = NumericScalarField(BOX, lambda p: calls.append(p) or p[0] + p[1])
    for bad in ([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]], [0.1, 0.2], [[[0.1, 0.2]]]):
        with pytest.raises(DomainError):
            scalar.many(bad)
    with pytest.raises(DomainError):
        scalar((0.1, 0.2, 0.3))
    assert calls == []
    assert scalar((0.1, 0.2)) == pytest.approx(0.3)


def _ref_form_partials(form, pts, h0):
    """(m, n, n) central differences of a pointwise form's components,
    entry [:, i, j] = d_i E_j: along each axis in turn, the up and the down
    probes evaluated separately, the step shrunk by 10 once where a probe
    leaves the chart; nan where it still does."""
    chart = form.chart
    out = np.full(pts.shape + (chart.dim,), np.nan)
    for i in range(chart.dim):
        h = np.full(len(pts), h0)
        for _ in range(2):
            up, dn = pts.copy(), pts.copy()
            up[:, i] += h
            dn[:, i] -= h
            ok = chart.contains_mask(chart.arrays(up)) & chart.contains_mask(chart.arrays(dn))
            if ok.all():
                break
            h = np.where(ok, h, h / 10.0)
        if ok.any():
            out[ok, i] = (form.values_matrix(up[ok]) - form.values_matrix(dn[ok])) \
                / (2.0 * h[ok])[:, None]
    return out


def _reference_closedness(form, pts, h0):
    """The closedness stage as it was before it joined the axiom sweep: the
    exact d of a symbolic form pair by pair, central differences of a
    pointwise one along each axis."""
    chart = form.chart
    n = chart.dim
    if n < 2:
        return 0.0, None, None
    if isinstance(form, OneForm):
        matrix = d_oneform(form)
        arrays = chart.arrays(pts)

        def pair_values(i, j):
            return matrix[i][j].eval_many(arrays)
    else:
        partials = _ref_form_partials(form, pts, h0)

        def pair_values(i, j):
            return partials[:, i, j] - partials[:, j, i]

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    maxima = _maxima(np.abs(np.stack([pair_values(i, j) for i, j in pairs])))
    worst, pair, where = 0.0, None, None
    for (i, j), (local, k, _) in zip(pairs, maxima):
        if k is None:
            return math.inf, (i, j), None
        if local > worst:
            worst, pair, where = local, (i, j), tuple(pts[k])
    return worst, pair, where


LINE = Chart(("x",), ((-1.0, 1.0),))
CUBE = Chart(("x", "y", "z"), ((-1.0, 1.0), (-0.5, 1.5), (0.0, 2.0)))
# (chart, components, closed)
CLOSEDNESS_FORMS = [
    (LINE, ("exp(x)",), True),
    (BOX, ("2*x*y^3", "3*x^2*y^2"), True),
    (BOX, ("x*y", "sin(x)*y^2"), False),
    (ANNULUS, ("-y/(x^2+y^2)", "x/(x^2+y^2)"), True),
    (CUBE, ("2*x*y*z^2 + cos(x)", "x^2*z^2 + exp(y)", "2*x^2*y*z"), True),
    (CUBE, ("sin(y*z)", "cos(x) + z", "x*y*z"), False),
]


@pytest.mark.parametrize("chart,texts,closed", CLOSEDNESS_FORMS)
def test_closedness_sweep_matches_the_per_pair_reference(chart, texts, closed):
    # closedness is the cocycle rows of the sweep over the unit fields; it
    # reads every bit the per-pair route did, for the residual and for
    # classify's witness, however the form and the operators are held.  At
    # step 10 every probe leaves the box, so a pointwise residual is inf
    form = one_form(chart, *texts)
    pointwise = PointwiseOneForm(chart, None, form.values_matrix)
    base = flat_op(chart)
    op = perturbed_operator(base, form)
    pts = box_points(chart)
    for step in (1e-5, 0.3, 10.0):
        h0 = step * chart.min_side
        for f in (form, pointwise):
            want, _, _ = _reference_closedness(f, pts, h0)
            assert closedness_residual(f, pts, fd_step_scale=step) == want
        assert (want == math.inf) == (step == 10.0 and chart.dim > 1)
        config = ClassifyConfig(n_points=len(pts), seed=3, fd_step_scale=step)
        for d in (op, op.as_blackbox()):
            result = classify(d, base, config=config)
            want, pair, where = _reference_closedness(
                extract_oneform(d, base), pts, h0)
            assert result.residuals["closedness"] == want
            if not closed or want == math.inf:
                assert result.verdict == NOT_COCYCLE
            if result.verdict == NOT_COCYCLE:
                assert result.witness == {"residual": want, "indices": pair,
                                          "point": where}


# ---------------------------------------------------------------------------
# potential integration


def test_integrate_potential_quadratic():
    form = one_form(BOX, "2*x", "-1")
    fhat = integrate_potential(form)
    pts = box_points(BOX, count=60, seed=5)
    got = fhat.many(pts)
    want = pts[:, 0] ** 2 - pts[:, 1]  # hand antiderivative, 0 at the origin
    np.testing.assert_allclose(got, want, atol=1e-8)
    assert abs(fhat(BOX.basepoint)) <= 1e-14


def test_integrate_potential_zero_form():
    fhat = integrate_potential(one_form(BOX, "0", "0"))
    np.testing.assert_allclose(fhat.many(box_points(BOX)), 0.0, atol=0.0)


def test_integrate_potential_matches_known_function():
    f = parse_expr("sin(x)*y", BOX.coords)
    fhat = integrate_potential(d_function(BOX, f))
    pts = box_points(BOX, count=50, seed=7)
    want = np.sin(pts[:, 0]) * pts[:, 1]  # f(basepoint) = 0 already
    np.testing.assert_allclose(fhat.many(pts), want, atol=1e-8)


def test_integrate_potential_gradient_matches_form():
    form = one_form(BOX, "2*x", "-1")
    fhat = integrate_potential(form)
    pts = box_points(BOX, count=25, seed=9)
    h = 1e-5
    for i in range(2):
        shift = np.zeros(2)
        shift[i] = h
        grad = (fhat.many(pts + shift) - fhat.many(pts - shift)) / (2 * h)
        want = form.components[i].eval_many(BOX.arrays(pts))
        np.testing.assert_allclose(grad, want, atol=1e-5)


def test_integrate_potential_checks_its_chart():
    # a (u, v) chart used to be read as (x, y): -0.25 for (2x, -1) at
    # (0.5, 0.5), with no error
    form = one_form(BOX, "2*x", "-1")
    for chart in (Chart(("u", "v"), BOX.box),
                  Chart(("x", "y"), ((-1.0, 2.0), (-1.0, 1.0)))):
        with pytest.raises(ChartMismatch):
            integrate_potential(form, chart)
    # a slab of the box integrates from the slab's own basepoint (0.5, 0)
    slab = Chart(("x", "y"), ((0.0, 1.0), (-1.0, 1.0)))
    fhat = integrate_potential(form, slab)
    assert fhat((0.75, 0.5)) == pytest.approx(0.75 ** 2 - 0.25 - 0.5, abs=1e-12)


def test_integrate_potential_refuses_disks():
    form = one_form(ANNULUS, "2*x", "-1")
    with pytest.raises(ValidationError):
        integrate_potential(form)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1.5, 1.5).map(lambda v: round(v, 3)),
                min_size=5, max_size=5))
def test_integrate_potential_roundtrip_property(coeffs):
    a, b, c, d, e = coeffs
    x, y = var("x"), var("y")
    f = a * x * x + b * x * y + c * y * y + d * x + e * y
    fhat = integrate_potential(d_function(BOX, f))
    probes = np.array([[0.5, -0.25], [-0.75, 0.5], [0.125, 0.875]])
    want = f.eval_many(BOX.arrays(probes))
    np.testing.assert_allclose(fhat.many(probes), want, atol=1e-9)


# ---------------------------------------------------------------------------
# monodromy


def angular_form(chart=ANNULUS):
    return one_form(chart, "-y/(x^2 + y^2)", "x/(x^2 + y^2)")


def test_monodromy_period_of_angular_form():
    period = monodromy_period(angular_form(), circle(ANNULUS, 0.5))
    assert abs(period - TWO_PI) <= 1e-6


def test_monodromy_exact_form_is_zero():
    form = one_form(ANNULUS, "2*x", "-1")
    assert abs(monodromy_period(form, circle(ANNULUS, 0.5))) <= 1e-8


def test_monodromy_nonencircling_loop_is_zero():
    loop = circle(ANNULUS, 0.1, center=(0.55, 0.0))
    assert abs(monodromy_period(angular_form(), loop)) <= 1e-7


def test_monodromy_additive_under_concatenation():
    single = monodromy_period(angular_form(), circle(ANNULUS, 0.5))
    double = monodromy_period(angular_form(), circle(ANNULUS, 0.5, winds=2))
    assert abs(double - 2.0 * single) <= 2e-7
    # homotopic loops agree, so concatenating them doubles as well
    other = monodromy_period(angular_form(), circle(ANNULUS, 0.7))
    assert abs(other - single) <= 2e-7


def test_monodromy_rejects_open_paths():
    arc = Path.from_strings(ANNULUS, ["0.5*cos(3.0*t)", "0.5*sin(3.0*t)"])
    with pytest.raises(ValidationError):
        monodromy_period(angular_form(), arc)


def test_monodromy_rejects_loops_leaving_domain():
    through_hole = circle(ANNULUS, 0.1)
    with pytest.raises(DomainError):
        monodromy_period(angular_form(), through_hole)


# ---------------------------------------------------------------------------
# volume rebuild


def numeric_field(chart, func):
    return NumericScalarField(chart, func)


def test_rebuild_volume_zero_potential_is_reference():
    base = VolumeForm.from_string(BOX, "1 + x^2")
    volume = rebuild_volume(numeric_field(BOX, lambda p: 0.0), base)
    for p in [(0.3, 0.1), (-0.5, 0.9)]:
        assert abs(volume(p) - (1 + p[0] ** 2)) <= 1e-14


def test_rebuild_volume_exponential_density():
    fhat = numeric_field(BOX, lambda p: p[0] ** 2 - p[1])
    volume = rebuild_volume(fhat, VolumeForm.from_string(BOX, "1"))
    assert abs(volume((0.9, 0.0)) - math.exp(0.81)) <= 1e-12
    pts = box_points(BOX)
    got = volume.density.many(pts)
    np.testing.assert_allclose(got, np.exp(pts[:, 0] ** 2 - pts[:, 1]),
                               rtol=1e-12)


def test_rebuild_volume_constant_shift_rescales():
    base = VolumeForm.from_string(BOX, "1")
    v0 = rebuild_volume(numeric_field(BOX, lambda p: p[0]), base)
    v1 = rebuild_volume(numeric_field(BOX, lambda p: p[0] + 2.0), base)
    pts = box_points(BOX)
    ratio = v1.density.many(pts) / v0.density.many(pts)
    np.testing.assert_allclose(ratio, math.exp(2.0), rtol=1e-12)


# ---------------------------------------------------------------------------
# slab heuristic


def test_star_shaped_subchart_passthrough():
    assert star_shaped_subchart(BOX) is BOX


def test_star_shaped_subchart_avoids_disk():
    sub = star_shaped_subchart(ANNULUS)
    assert sub.disks == ()
    assert sub.box == ((-1.0, -0.2), (-1.0, 1.0))


def test_star_shaped_subchart_none_when_blocked():
    crowded = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)),
                    disks=(((-0.6, 0.0), 0.45), ((0.6, 0.0), 0.45),
                           ((0.0, -0.6), 0.45), ((0.0, 0.6), 0.45)),
                    basepoint=(0.0, 0.0))
    assert star_shaped_subchart(crowded) is None


# ---------------------------------------------------------------------------
# the full pipeline


def test_classify_roundtrip_recovers_potential():
    result = classify(weighted_op(), flat_op())
    assert result.verdict == DIVERGENCE
    assert result.restricted_to is None
    assert set(result.residuals) == {"tensoriality", "closedness", "verification"}
    pts = box_points(BOX, count=60, seed=11)
    want = pts[:, 0] ** 2 - pts[:, 1]
    np.testing.assert_allclose(result.potential.many(pts), want, atol=1e-6)
    np.testing.assert_allclose(result.volume.density.many(pts), np.exp(want),
                               rtol=1e-6)


def test_classify_roundtrip_over_generator_family():
    rng = np.random.default_rng(0)
    flat = flat_op()
    pts = box_points(BOX, count=50, seed=13)
    arrays = BOX.arrays(pts)
    p0 = BOX.env(BOX.basepoint)
    for _, f in random_scalars(BOX, 4, rng):
        volume = VolumeForm(BOX, Expr("exp", (f,)))
        result = classify(div_volume(volume), flat)
        assert result.verdict == DIVERGENCE
        want = f.eval_many(arrays) - f.eval(p0)
        assert np.abs(result.potential.many(pts) - want).max() <= 1e-6


def test_classify_divergence_implies_axioms_pass():
    result = classify(weighted_op(), flat_op())
    assert result.verdict == DIVERGENCE
    report = check_axioms(weighted_op().as_blackbox())
    assert report.passed and report.tolerance == 1e-6


def test_classify_not_cocycle_witness():
    bad = perturbed_operator(flat_op(), one_form(BOX, "-y", "0"))
    result = classify(bad, flat_op())
    assert result.verdict == NOT_COCYCLE
    assert abs(result.witness["residual"] - 1.0) <= 1e-9
    assert result.witness["indices"] == (0, 1)
    assert "verification" not in result.residuals


def test_classify_not_tensorial_on_weight_mismatch():
    half = div_sdensity(VolumeForm.from_string(BOX, "1"), 0.5)
    result = classify(half, flat_op())
    assert result.verdict == NOT_TENSORIAL
    assert result.witness["residual"] > 1e-3
    assert result.witness["point"] is not None


def test_classify_blackbox_tensoriality_call_count():
    # (D - D0) is evaluated on 13 fields plus 52 (f, X) terms in one
    # apply_fields call: D's single-field fn_many sees one call per field,
    # the symbolic D0 one call for all 65
    d_calls, d0_calls = [], []

    def fn_many(field, pts):
        d_calls.append(field)
        return half.apply_many(field, pts)

    def counted(fields, pts):
        d0_calls.append(len(fields))
        return apply_fields(fields, pts)

    half = div_sdensity(VolumeForm.from_string(BOX, "exp(x^2 - y)"), 0.5)
    op = blackbox_operator(BOX, half.apply, fn_many, weight=half.weight)
    base = flat_op()
    apply_fields = base.apply_fields
    base.apply_fields = counted
    result = classify(op, base)
    assert result.verdict == NOT_TENSORIAL
    assert len(d_calls) == 65
    assert d0_calls == [65]


def test_classify_holed_chart_reports_period():
    op = perturbed_operator(flat_op(ANNULUS), angular_form())
    config = ClassifyConfig(loops=(("circle", circle(ANNULUS, 0.5)),))
    result = classify(op, flat_op(ANNULUS), config=config)
    assert result.verdict == CLOSED_NOT_EXACT
    assert abs(result.witness["period"] - TWO_PI) <= 1e-6
    assert result.periods[0][0] == "circle"


def test_classify_exact_on_holed_chart_restricts():
    op = perturbed_operator(flat_op(ANNULUS), one_form(ANNULUS, "2*x", "-1"))
    config = ClassifyConfig(loops=(("circle", circle(ANNULUS, 0.5)),))
    result = classify(op, flat_op(ANNULUS), config=config)
    assert result.verdict == DIVERGENCE
    assert result.restricted_to is not None
    assert result.restricted_to.disks == ()
    assert abs(result.periods[0][1]) <= 1e-6
    sub = result.restricted_to
    pts = box_points(sub, count=30, seed=17)
    base = np.asarray(sub.basepoint)
    want = (pts[:, 0] ** 2 - pts[:, 1]) - (base[0] ** 2 - base[1])
    np.testing.assert_allclose(result.potential.many(pts), want, atol=1e-6)


def test_classify_rebuilt_volume_unique_up_to_scale():
    recentered = Chart(BOX.coords, BOX.box, basepoint=(0.5, -0.5))
    runs = []
    for chart in (BOX, recentered):
        result = classify(weighted_op(chart), flat_op(chart))
        assert result.verdict == DIVERGENCE
        runs.append(result.volume)
    pts = box_points(BOX, count=40, seed=19)
    ratio = runs[0].density.many(pts) / runs[1].density.many(pts)
    np.testing.assert_allclose(ratio, ratio.mean(), rtol=1e-6)


def test_classify_blackbox_pair():
    result = classify(weighted_op().as_blackbox(), flat_op().as_blackbox())
    assert result.verdict == DIVERGENCE
    assert result.residuals["verification"] <= 1e-6
    # a box of side 1e-4 and a coarse step: the closedness probes shrink
    # instead of leaving the chart, so the blackbox answers as its symbolic
    # twin does; a step of 0.2 differentiates the linear one-form exactly
    tiny = Chart(("x", "y"), ((0.0, 1e-4), (0.0, 1e-4)))
    for chart, config in ((tiny, None), (BOX, ClassifyConfig(fd_step_scale=0.2))):
        op, base = weighted_op(chart), flat_op(chart)
        assert classify(op, base, config=config).verdict == DIVERGENCE
        assert classify(op.as_blackbox(), base, config=config).verdict == DIVERGENCE


# True divergences div(rho) against the flat divergence, as (density, half
# side of the square box, fd_step_scale).  Central differences of the
# potential P, or of the rebuilt density exp(P) * rho0, grow with the box
# and the step and called some of these INCONSISTENT (the [-8, 8] box at
# 5.0e-6); the chord check takes no step.
VERIFIED_DIVERGENCES = [
    ("exp(x^2 - y)", 1.0, None),
    ("exp(x^2 - y)", 1.0, 0.2),
    ("exp(x^2 - y)", 4.0, None),
    ("exp(sin(3*x)*y)", 4.0, None),
    ("exp(sin(3*x)*y)", 8.0, None),
    ("1 + x^2 + y^2", 16.0, None),
]


@pytest.mark.parametrize("density,half,step", VERIFIED_DIVERGENCES)
def test_verdict_does_not_depend_on_how_the_operators_are_held(density, half,
                                                                step):
    chart = Chart(("x", "y"), ((-half, half), (-half, half)))
    op = div_volume(VolumeForm.from_string(chart, density))
    base = flat_op(chart)
    config = ClassifyConfig() if step is None else ClassifyConfig(fd_step_scale=step)
    results = [classify(d, d0, config=config)
               for d in (op, op.as_blackbox()) for d0 in (base, base.as_blackbox())]
    assert [r.verdict for r in results] == [DIVERGENCE] * 4
    assert len({r.residuals["verification"] for r in results}) == 1
    # the rebuilt volume still comes with a symbolic base only
    assert [r.volume is None for r in results] == [False, True, False, True]


def chord_adversary(n_verify):
    """A true divergence, except that it adds 1e-3 to every value in a
    batch the size of the nodes on the n_verify - 1 verification chords,
    with the residual that this leaves: E's one-form moves by 1e-3 in each
    component there, so the chord [a, b] gains 1e-3 * sum(b - a).  No
    other stage calls E with a batch of that size, and a shift of every
    call would be a closed form the check cannot see."""
    true, shift = weighted_op(), 1e-3
    rule = default_rule()
    rows = (n_verify - 1) * rule.order * rule.segment_count(1.0)

    def fn_fields(fields, pts):
        bump = shift if len(pts) == rows else 0.0
        return [v + bump for v in true.apply_fields(fields, pts)]

    chords = np.diff(sample_points(BOX, n_verify, 0), axis=0)
    return (DivOperator(BOX, "blackbox", fn_fields=fn_fields),
            shift * np.abs(chords.sum(axis=1)).max())


def test_classify_inconsistent_when_only_verification_sees_the_fault():
    # the default config verifies along the chords between 50 points
    op, residual = chord_adversary(50)
    for base in (flat_op(), flat_op().as_blackbox()):
        result = classify(op, base)
        assert result.verdict == INCONSISTENT
        assert result.residuals["verification"] == pytest.approx(residual,
                                                                 rel=1e-6)
        assert result.witness == {"residual": result.residuals["verification"]}


def test_one_point_classify_still_verifies_a_chord():
    # one verification point would leave no chord and a check reading 0
    op, residual = chord_adversary(2)
    result = classify(op, flat_op(), ClassifyConfig(n_points=1))
    assert result.verdict == INCONSISTENT
    assert result.residuals["verification"] == pytest.approx(residual, rel=1e-6)
    assert classify(weighted_op(), flat_op(),
                    ClassifyConfig(n_points=1)).verdict == DIVERGENCE


def test_second_classify_of_a_pair_reuses_the_difference(monkeypatch):
    # E = D - D0 is kept on D, so its images and evaluation plans outlive
    # the first call: the second builds no plan
    config = ClassifyConfig(n_points=30, n_fields=2, n_scalars=1, seed=3)
    for op, base in ((weighted_op(), flat_op()),
                     (weighted_op().as_blackbox(), flat_op())):
        first = classify(op, base, config=config)
        diff = difference(op, base)
        assert difference(op, base) is diff
        built = []
        program, tape = expr_module._Program, expr_module._Tape
        monkeypatch.setattr(expr_module, "_Program",
                            lambda roots: built.append(roots) or program(roots))
        monkeypatch.setattr(expr_module, "_Tape",
                            lambda roots: built.append(roots) or tape(roots))
        second = classify(op, base, config=config)
        monkeypatch.undo()
        assert built == []
        assert difference(op, base) is diff
        assert (second.verdict, second.residuals, second.witness) \
            == (first.verdict, first.residuals, first.witness)


@pytest.mark.parametrize("blackbox", [False, True])
def test_kept_difference_does_not_keep_its_operators_alive(blackbox):
    # a blackbox E calls D and D0, so it holds both; kept on D, it dies
    # with D, where a module-level map keyed by D would keep it for good
    op, base = weighted_op(), flat_op()
    if blackbox:
        op = op.as_blackbox()
    assert classify(op, base).verdict == DIVERGENCE
    assert difference(op, base).is_symbolic is not blackbox
    refs = [weakref.ref(op), weakref.ref(base), weakref.ref(difference(op, base))]
    del op, base
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_classify_metric_reference_rebuild():
    metric = Metric.from_strings(BOX, [["exp(x)", "0"], ["0", "exp(x)"]])
    base = div_metric(metric)
    op = perturbed_operator(base, one_form(BOX, "2*x", "-1"))
    result = classify(op, base)
    assert result.verdict == DIVERGENCE
    pts = box_points(BOX, count=30, seed=23)
    # reference density sqrt(det g) = exp(x), rescaled by exp(x^2 - y)
    want = np.exp(pts[:, 0] ** 2 - pts[:, 1] + pts[:, 0])
    np.testing.assert_allclose(result.volume.density.many(pts), want, rtol=1e-6)


def test_classify_affine_base_without_reference_density():
    y, z = var("y"), const(0.0)
    # trace form (y, 0) is not closed, so no reference volume exists
    conn = Connection(BOX, (((y, z), (z, z)), ((z, z), (z, z))))
    base = div_affine(conn)
    op = perturbed_operator(base, one_form(BOX, "2*x", "-1"))
    result = classify(op, base)
    assert result.verdict == DIVERGENCE
    assert result.volume is None
    pts = box_points(BOX, count=30, seed=29)
    want = pts[:, 0] ** 2 - pts[:, 1]
    np.testing.assert_allclose(result.potential.many(pts), want, atol=1e-6)


def test_classify_rejects_mismatched_charts():
    other = Chart(("x", "y"), ((-2.0, 2.0), (-2.0, 2.0)))
    with pytest.raises(ChartMismatch):
        classify(flat_op(), flat_op(other))


def test_classify_config_validation():
    with pytest.raises(ValidationError):
        ClassifyConfig(tol=0.0)
    # a fractional point count was accepted
    for bad in ({"n_points": 0}, {"n_points": 2.5}, {"n_fields": 0},
                {"n_scalars": 1.5}, {"seed": -1}):
        with pytest.raises(ValidationError):
            ClassifyConfig(**bad)
    for step in (0.0, -1e-5, math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError):
            ClassifyConfig(fd_step_scale=step)
