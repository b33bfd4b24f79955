"""Metrics, connections, and the divergence operator constructions."""

import gc
import math
import weakref

import numpy as np
import pytest

from divkit.errors import ChartMismatch, DomainError, ValidationError
from divkit.expr import Expr, const, parse_expr
from divkit.geometry import Chart, OneForm, VectorField, VolumeForm, sample_points
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
    levi_civita,
    parallel_residual,
    perturbed_operator,
)
from divkit.reconstruct import extract_oneform

BOX = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
POLAR = Chart(("r", "th"), ((1.0, 2.5), (0.0, 1.5)))

FLAT2 = Metric.from_strings(BOX, (("1", "0"), ("0", "1")))
POLAR_METRIC = Metric.from_strings(POLAR, (("1", "0"), ("0", "r^2")))


def polar_hand_connection():
    z = "0"
    # gamma[k][i][j]: nonzero entries gamma^r_thth = -r, gamma^th_rth = gamma^th_thr = 1/r
    rows_r = ((z, z), (z, "-r"))
    rows_th = ((z, "1/r"), ("1/r", z))
    parse = lambda grid: tuple(
        tuple(parse_expr(t, POLAR.coords) for t in row) for row in grid)
    return Connection(POLAR, (parse(rows_r), parse(rows_th)))


# ---------------------------------------------------------------------------
# metric


def test_metric_validation():
    with pytest.raises(ValidationError):
        Metric.from_strings(BOX, (("1", "x"), ("y", "1")))  # not symmetric
    with pytest.raises(ValidationError):
        Metric.from_strings(BOX, (("x", "0"), ("0", "1")))  # sign change
    with pytest.raises(ValidationError):
        Metric.from_strings(BOX, (("-1", "0"), ("0", "-1")))  # negative definite
    with pytest.raises(ValidationError):
        Metric(BOX, ((const(1.0),),))


def test_metric_symmetry_up_to_simplify():
    m = Metric.from_strings(BOX, (("2+x*0", "0"), ("0*y", "2")))
    assert m.components[0][0] == const(2.0)
    assert m.components[0][1] == m.components[1][0]


def test_metric_det_and_inverse_against_numpy():
    m = Metric.from_strings(
        POLAR, (("1+0.1*th^2", "0.2*r"), ("0.2*r", "r^2")))
    det = m.det()
    inv = m.inverse()
    for p in sample_points(POLAR, 25, seed=11):
        env = POLAR.env(p)
        g = np.array([[e.eval(env) for e in row] for row in m.components])
        assert det.eval(env) == pytest.approx(np.linalg.det(g), rel=1e-12)
        got = np.array([[e.eval(env) for e in row] for row in inv])
        np.testing.assert_allclose(got, np.linalg.inv(g), rtol=1e-11, atol=1e-13)


def test_polar_det():
    env = {"r": 2.0, "th": 0.7}
    assert POLAR_METRIC.det().eval(env) == pytest.approx(4.0, rel=1e-15)


def test_spherical_metric_in_three_dimensions():
    # the 3x3 branch of the determinant, and through it the 3-D inverse,
    # Riemannian divergence and Levi-Civita connection
    from divkit.axioms import check_axioms, library_fields
    from divkit.reconstruct import DIVERGENCE, classify

    sph = Chart(("r", "th", "ph"), ((1.0, 2.0), (0.5, 1.5), (0.0, 1.0)))
    g = Metric.from_strings(sph, (("1", "0", "0"), ("0", "r^2", "0"),
                                  ("0", "0", "r^2*sin(th)^2")))
    pts = np.asarray(sample_points(sph, 20, seed=14))
    arrays = sph.arrays(pts)
    r, th = pts[:, 0], pts[:, 1]
    np.testing.assert_allclose(g.det().eval_many(arrays),
                               r ** 4 * np.sin(th) ** 2, rtol=1e-13)

    full = Metric.from_strings(sph, (("2 + r", "0.1*th", "0.2"),
                                     ("0.1*th", "r^2", "0.1*r"),
                                     ("0.2", "0.1*r", "1 + th")))

    def at_points(rows):  # [point, row, column]
        return np.moveaxis(np.array([[e.eval_many(arrays) for e in row]
                                     for row in rows]), -1, 0)

    matrix, inverse = at_points(full.components), at_points(full.inverse())
    np.testing.assert_allclose(full.det().eval_many(arrays),
                               np.linalg.det(matrix), rtol=1e-12)
    np.testing.assert_allclose(inverse @ matrix,
                               np.broadcast_to(np.eye(3), matrix.shape),
                               atol=1e-12)

    op = div_metric(g)
    assert check_axioms(op).passed
    fields = [x for _, x in library_fields(sph)]
    gap = difference(op, div_affine(levi_civita(g))).apply_fields(fields, pts)
    assert np.max(np.abs(gap)) <= 1e-12
    flat = div_volume(VolumeForm.from_string(sph, "1"))
    assert classify(op, flat).verdict == DIVERGENCE


# ---------------------------------------------------------------------------
# connections


def test_connection_shape_validation():
    with pytest.raises(ValidationError):
        Connection(BOX, ((), ()))
    z = Connection.zero(BOX)
    assert z.gamma[0][1][0] == const(0.0)


def test_levi_civita_flat_is_zero():
    conn = levi_civita(FLAT2)
    for plane in conn.gamma:
        for row in plane:
            for e in row:
                assert e == const(0.0)


def test_levi_civita_polar_matches_hand_symbols():
    conn = levi_civita(POLAR_METRIC)
    hand = polar_hand_connection()
    for p in sample_points(POLAR, 30, seed=12):
        env = POLAR.env(p)
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    assert conn.gamma[k][i][j].eval(env) == pytest.approx(
                        hand.gamma[k][i][j].eval(env), rel=1e-12, abs=1e-13)


def test_levi_civita_symmetric_in_lower_indices():
    m = Metric.from_strings(
        POLAR, (("1+0.1*th^2", "0.2*r"), ("0.2*r", "r^2")))
    conn = levi_civita(m)
    for p in sample_points(POLAR, 10, seed=13):
        env = POLAR.env(p)
        for k in range(2):
            assert conn.gamma[k][0][1].eval(env) == pytest.approx(
                conn.gamma[k][1][0].eval(env), rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# divergence constructions


def test_div_volume_flat_is_coordinate_divergence():
    d = div_volume(VolumeForm.from_string(BOX, "1"))
    x = VectorField.from_strings(BOX, ("x^2*y", "sin(y)"))
    for p in sample_points(BOX, 20, seed=14):
        want = 2 * p[0] * p[1] + math.cos(p[1])
        assert d.apply(x, p) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_div_volume_weighted_density():
    d = div_volume(VolumeForm.from_string(BOX, "exp(x)"))
    x = VectorField.from_strings(BOX, ("x^2*y", "sin(y)"))
    for p in sample_points(BOX, 20, seed=15):
        want = p[0] ** 2 * p[1] + 2 * p[0] * p[1] + math.cos(p[1])
        assert d.apply(x, p) == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_div_metric_polar_radial_field():
    d = div_metric(POLAR_METRIC)
    radial = VectorField.from_strings(POLAR, ("1", "0"))
    assert d.apply(radial, (2.0, 0.7)) == pytest.approx(0.5, rel=1e-12)
    for p in sample_points(POLAR, 20, seed=16):
        assert d.apply(radial, p) == pytest.approx(1.0 / p[0], rel=1e-11)


def test_div_metric_matches_fd_of_weighted_components():
    m = Metric.from_strings(
        POLAR, (("1+0.1*th^2", "0.2*r"), ("0.2*r", "r^2")))
    d = div_metric(m)
    x = VectorField.from_strings(POLAR, ("sin(th)", "r*th-1"))
    det = m.det()
    h = 1e-6

    def root_det(env):
        return math.sqrt(det.eval(env))

    for p in sample_points(POLAR, 10, seed=17):
        env = POLAR.env(p)
        total = 0.0
        for i, name in enumerate(POLAR.coords):
            up, dn = dict(env), dict(env)
            up[name] += h
            dn[name] -= h
            num = (root_det(up) * x.components[i].eval(up)
                   - root_det(dn) * x.components[i].eval(dn))
            total += num / (2 * h)
        want = total / root_det(env)
        assert d.apply(x, p) == pytest.approx(want, rel=1e-8, abs=1e-8)


def test_div_affine_of_levi_civita_matches_div_metric():
    conn = levi_civita(POLAR_METRIC)
    da = div_affine(conn)
    dm = div_metric(POLAR_METRIC)
    fields = [
        VectorField.from_strings(POLAR, ("sin(th)", "r*th-1")),
        VectorField.from_strings(POLAR, ("r^2", "0.3")),
    ]
    for x in fields:
        for p in sample_points(POLAR, 15, seed=18):
            assert da.apply(x, p) == pytest.approx(dm.apply(x, p),
                                                   rel=1e-11, abs=1e-11)


def test_div_affine_zero_connection_is_flat_divergence():
    da = div_affine(Connection.zero(BOX))
    dv = div_volume(VolumeForm.from_string(BOX, "1"))
    x = VectorField.from_strings(BOX, ("x*y", "y^2-x"))
    for p in sample_points(BOX, 10, seed=19):
        assert da.apply(x, p) == pytest.approx(dv.apply(x, p), rel=1e-13, abs=1e-14)


def alie_map(connection, field):
    """Reference matrix of the difference map between the Lie derivative and
    the covariant derivative along the field: entry (k, j) is
    -(d_j X^k + gamma^k_{ij} X^i)."""
    names = field.chart.coords
    n = field.chart.dim
    rows = []
    for k in range(n):
        row = []
        for j in range(n):
            acc = field.components[k].diff(names[j])
            for i in range(n):
                acc = acc + connection.gamma[k][i][j] * field.components[i]
            row.append((-acc).simplify())
        rows.append(tuple(row))
    return tuple(rows)


def test_alie_map_zero_connection_values():
    # the reference against a hand value
    x = VectorField.from_strings(BOX, ("x^2", "0"))
    a = alie_map(Connection.zero(BOX), x)
    env = {"x": 0.4, "y": -0.2}
    assert a[0][0].eval(env) == pytest.approx(-0.8, rel=1e-15)
    assert a[0][1].eval(env) == 0.0
    assert a[1][0].eval(env) == 0.0
    assert a[1][1].eval(env) == 0.0


def test_div_affine_is_minus_trace_of_difference_map():
    conn = polar_hand_connection()
    d = div_affine(conn)
    x = VectorField.from_strings(POLAR, ("r*sin(th)", "th^2"))
    a = alie_map(conn, x)
    for p in sample_points(POLAR, 15, seed=20):
        env = POLAR.env(p)
        trace = sum(a[k][k].eval(env) for k in range(2))
        assert d.apply(x, p) == pytest.approx(-trace, rel=1e-12, abs=1e-13)


def test_div_sdensity_weights():
    vol = VolumeForm.from_string(BOX, "exp(x)")
    base = div_volume(vol)
    x = VectorField.from_strings(BOX, ("x^2*y", "sin(y)"))
    s1 = div_sdensity(vol, 1.0)
    s2 = div_sdensity(vol, 2.0)
    for p in sample_points(BOX, 15, seed=21):
        flat = 2 * p[0] * p[1] + math.cos(p[1])
        xrho = p[0] ** 2 * p[1]
        assert s1.apply(x, p) == pytest.approx(base.apply(x, p), rel=1e-12, abs=1e-13)
        assert s2.apply(x, p) == pytest.approx(xrho + 2 * flat, rel=1e-12, abs=1e-12)
    with pytest.raises(ValidationError):
        div_sdensity(vol, math.inf)


def test_perturbed_operator_adds_pairing():
    base = div_volume(VolumeForm.from_string(BOX, "1"))
    shift = OneForm.from_strings(BOX, ("2*x", "-1"))
    d = perturbed_operator(base, shift)
    x = VectorField.from_strings(BOX, ("y", "x*y"))
    for p in sample_points(BOX, 15, seed=22):
        want = base.apply(x, p) + 2 * p[0] * p[1] - p[0] * p[1]
        assert d.apply(x, p) == pytest.approx(want, rel=1e-13, abs=1e-14)
    other = OneForm.from_strings(POLAR, ("1", "0"))
    with pytest.raises(ChartMismatch):
        perturbed_operator(base, other)


def test_blackbox_wrapping_and_domain_checks():
    base = div_volume(VolumeForm.from_string(BOX, "exp(x)"))
    x = VectorField.from_strings(BOX, ("x*y", "y^2-x"))
    bb = base.as_blackbox()
    assert bb.kind == "blackbox"
    assert bb.symbolic(x) is None
    pts = np.asarray(sample_points(BOX, 12, seed=23))
    np.testing.assert_allclose(bb.apply_many(x, pts), base.apply_many(x, pts),
                               rtol=0, atol=0)
    assert bb.apply(x, pts[0]) == base.apply(x, tuple(pts[0]))
    with pytest.raises(DomainError):
        base.apply(x, (2.0, 0.0))
    with pytest.raises(DomainError):
        bb.apply_many(x, np.array([[0.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ChartMismatch):
        base.apply(VectorField.from_strings(POLAR, ("1", "0")), (1.5, 0.5))
    with pytest.raises(ValidationError):
        blackbox_operator(BOX, fn=None)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_operator_weight_must_be_finite(weight):
    # a nan weight used to be accepted and turned every Leibniz sample of a
    # sweep into a skipped one
    with pytest.raises(ValidationError, match="weight must be finite"):
        blackbox_operator(BOX, lambda field, p: 0.0, weight=weight)
    with pytest.raises(ValidationError, match="weight must be finite"):
        DivOperator(BOX, "pairing", weight=weight, theta=OneForm.from_strings(BOX, ("0", "0")))
    with pytest.raises(ValidationError, match="weight must be finite"):
        div_sdensity(VolumeForm.from_string(BOX, "1"), weight)


def test_operator_needs_a_one_form_or_a_callable():
    # such an operator used to be accepted as a blackbox whose first
    # evaluation raised a raw TypeError
    with pytest.raises(ValidationError, match="theta or a callable"):
        DivOperator(BOX, "blackbox")
    with pytest.raises(ValidationError, match="theta or a callable"):
        DivOperator(BOX, "pairing", weight=0.0)


def test_images_are_kept_while_their_field_lives():
    op = div_volume(VolumeForm.from_string(BOX, "exp(x - y)"))
    x = VectorField.from_strings(BOX, ("x*y", "y^2-x"))
    image = op.symbolic(x)
    assert op.symbolic(x) is image
    # a structurally equal field shares the image and adds no entry
    assert op.symbolic(VectorField.from_strings(BOX, ("x*y", "y^2-x"))) is image
    assert len(op._images) == 1
    pts = np.asarray(sample_points(BOX, 9, 4))
    want = image.eval_many(BOX.arrays(pts))
    assert np.array_equal(op.apply_many(x, pts), want)
    assert np.array_equal(op.as_blackbox().apply_many(x, pts), want)
    with pytest.raises(ChartMismatch):
        op.symbolic(VectorField.from_strings(POLAR, ("r", "th")))

    ref = weakref.ref(x)
    del x
    gc.collect()
    assert ref() is None
    assert len(op._images) == 0


def test_apply_many_rejects_points_of_the_wrong_width():
    base = div_volume(VolumeForm.from_string(BOX, "exp(x)"))
    x = VectorField.from_strings(BOX, ("x*y", "y^2-x"))
    wide = np.array([[0.1, 0.2, 5.0]])
    narrow = np.array([[0.1]])
    flat = np.array([0.1, 0.2])
    for op in (base, base.as_blackbox()):
        for pts in (wide, narrow, flat):
            with pytest.raises(DomainError):
                op.apply_many(x, pts)
    with pytest.raises(DomainError):
        base.apply(x, (0.1, 0.2, 5.0))


def test_apply_many_matches_apply():
    d = div_metric(POLAR_METRIC)
    x = VectorField.from_strings(POLAR, ("sin(th)", "r*th-1"))
    pts = np.asarray(sample_points(POLAR, 20, seed=24))
    many = d.apply_many(x, pts)
    single = np.array([d.apply(x, tuple(row)) for row in pts])
    np.testing.assert_allclose(many, single, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# parallel volumes


def test_parallel_residual_polar_volume_is_zero():
    conn = levi_civita(POLAR_METRIC)
    vol = VolumeForm.from_string(POLAR, "r")
    res = parallel_residual(conn, vol)
    for p in sample_points(POLAR, 25, seed=27):
        env = POLAR.env(p)
        for comp in res.components:
            assert abs(comp.eval(env)) <= 1e-12


def test_parallel_residual_detects_mismatch():
    conn = Connection.zero(BOX)
    vol = VolumeForm.from_string(BOX, "exp(x)")
    res = parallel_residual(conn, vol)
    env = {"x": 0.5, "y": 0.0}
    assert res.components[0].eval(env) == pytest.approx(math.exp(0.5), rel=1e-15)
    assert res.components[1].eval(env) == 0.0


def test_parallel_iff_operators_agree():
    # parallel side: polar volume with its own connection
    conn = levi_civita(POLAR_METRIC)
    vol = VolumeForm.from_string(POLAR, "r")
    da = div_affine(conn)
    dv = div_volume(vol)
    x = VectorField.from_strings(POLAR, ("sin(th)", "r*th-1"))
    res = parallel_residual(conn, vol)
    for p in sample_points(POLAR, 10, seed=28):
        env = POLAR.env(p)
        assert max(abs(c.eval(env)) for c in res.components) <= 1e-12
        assert abs(da.apply(x, p) - dv.apply(x, p)) <= 1e-11
    # non-parallel side: flat connection with a tilted volume
    conn2 = Connection.zero(BOX)
    vol2 = VolumeForm.from_string(BOX, "exp(x)")
    res2 = parallel_residual(conn2, vol2)
    da2 = div_affine(conn2)
    dv2 = div_volume(vol2)
    unit = VectorField.from_strings(BOX, ("1", "0"))
    gaps = []
    residuals = []
    for p in sample_points(BOX, 10, seed=29):
        env = BOX.env(p)
        residuals.append(max(abs(c.eval(env)) for c in res2.components))
        gaps.append(abs(da2.apply(unit, p) - dv2.apply(unit, p)))
    assert min(residuals) > 1e-3
    assert min(gaps) > 1e-3


# ---------------------------------------------------------------------------
# the (s, theta) normal form against the per-construction formulas
#
# Every operator here computes D(X) = sum_i X^i theta_i + s * d_i X^i with
# theta fixed at construction.  Before that normal form each construction
# derived its image in its own branch; the reference below keeps those
# branches, keyed by the data the construction was given.


def _reference_symbolic(ref, field):
    kind = ref[0]
    names = field.chart.coords
    n = field.chart.dim
    comps = field.components
    acc = const(0.0)
    if kind == "volume":
        rho = ref[1].density
        for i, nm in enumerate(names):
            acc = acc + comps[i] * rho.diff(nm) / rho
            acc = acc + comps[i].diff(nm)
    elif kind == "metric":
        root = Expr("sqrt", (ref[1].det(),))
        for i, nm in enumerate(names):
            acc = acc + (root * comps[i]).diff(nm) / root
    elif kind == "affine":
        gamma = ref[1].gamma
        for k, nm in enumerate(names):
            acc = acc + comps[k].diff(nm)
            for i in range(n):
                acc = acc + gamma[k][i][k] * comps[i]
    elif kind == "sdensity":
        rho, s = ref[1].density, ref[2]
        for i, nm in enumerate(names):
            acc = acc + comps[i] * rho.diff(nm) / rho
            acc = acc + const(s) * comps[i].diff(nm)
    else:  # perturbed: the base image plus the pairing with the shift
        acc = _reference_symbolic(ref[1], field)
        for i in range(n):
            acc = acc + ref[2].components[i] * comps[i]
    return acc.simplify()


def _build(ref):
    kind = ref[0]
    if kind == "volume":
        return div_volume(ref[1])
    if kind == "metric":
        return div_metric(ref[1])
    if kind == "affine":
        return div_affine(ref[1])
    if kind == "sdensity":
        return div_sdensity(ref[1], ref[2])
    return perturbed_operator(_build(ref[1]), ref[2])


_FLAT_BOX = ("volume", VolumeForm.from_string(BOX, "1"))
_WEIGHTED = ("volume", VolumeForm.from_string(BOX, "exp(x^2 - y)"))
_TILTED_POLAR = ("volume", VolumeForm.from_string(POLAR, "r + th"))

# (name, operator, reference): the six criterion-1 operators, then perturbed
# operators over curved bases; every reference but one has theta0 != 0
NORMAL_FORM_CASES = [
    ("flat", _FLAT_BOX, _WEIGHTED),
    ("weighted", _WEIGHTED, _FLAT_BOX),
    ("polar-metric", ("metric", POLAR_METRIC), _TILTED_POLAR),
    ("levi-civita", ("affine", levi_civita(POLAR_METRIC)), _TILTED_POLAR),
    ("s-half", ("sdensity", _WEIGHTED[1], 0.5), _WEIGHTED),
    ("perturbed-closed",
     ("perturbed", _FLAT_BOX, OneForm.from_strings(BOX, ("2*x", "-1"))),
     _WEIGHTED),
    ("perturbed-s-half",
     ("perturbed", ("sdensity", _WEIGHTED[1], 0.5),
      OneForm.from_strings(BOX, ("-y", "x*y"))), _WEIGHTED),
    ("perturbed-metric",
     ("perturbed", ("metric", POLAR_METRIC),
      OneForm.from_strings(POLAR, ("sin(th)", "1/r"))), _TILTED_POLAR),
]


@pytest.mark.parametrize("ref,base_ref", [c[1:] for c in NORMAL_FORM_CASES],
                         ids=[c[0] for c in NORMAL_FORM_CASES])
def test_normal_form_matches_per_construction_formulas(ref, base_ref):
    from divkit.axioms import library_fields, random_fields

    op = _build(ref)
    chart = op.chart
    assert op.is_symbolic and op.kind == ref[0]
    fields = library_fields(chart) + random_fields(
        chart, 4, np.random.default_rng(31))
    pts = np.asarray(sample_points(chart, 20, seed=32))
    arrays = chart.arrays(pts)
    for _, x in fields:
        want = _reference_symbolic(ref, x).eval_many(arrays)
        np.testing.assert_allclose(op.symbolic(x).eval_many(arrays), want,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(op.apply_many(x, pts), want,
                                   rtol=1e-12, atol=1e-12)

    # D - D0 is one operator of weight s - s0 whose theta - theta0 is what
    # the two per-construction formulas differ by on the unit fields
    base = _build(base_ref)
    diff = difference(op, base)
    assert diff.is_symbolic and diff.weight == op.weight - base.weight
    assert extract_oneform(op, base).components == diff.theta.components
    units = [x for name, x in library_fields(chart) if name.startswith("unit_")]
    for comp, u in zip(diff.theta.components, units):
        want = (_reference_symbolic(ref, u)
                - _reference_symbolic(base_ref, u)).eval_many(arrays)
        np.testing.assert_allclose(comp.eval_many(arrays), want,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            comp.eval_many(arrays),
            op.apply_many(u, pts) - base.apply_many(u, pts),
            rtol=1e-12, atol=1e-12)

    # with a blackbox on either side the difference is the two batch images
    # subtracted, bit for bit
    for d, d0 in ((op.as_blackbox(), base), (op, base.as_blackbox())):
        opaque = difference(d, d0)
        assert not opaque.is_symbolic
        assert opaque.weight == op.weight - base.weight
        for _, x in fields:
            np.testing.assert_array_equal(
                opaque.apply_many(x, pts),
                op.apply_many(x, pts) - base.apply_many(x, pts))


def test_perturbed_blackbox_base_stays_pointwise():
    base = div_volume(VolumeForm.from_string(BOX, "exp(x^2 - y)"))
    shift = OneForm.from_strings(BOX, ("-y", "x*y"))
    symbolic = perturbed_operator(base, shift)
    opaque = perturbed_operator(base.as_blackbox(), shift)
    x = VectorField.from_strings(BOX, ("x*y", "cos(x)"))
    assert opaque.kind == "perturbed"
    assert not opaque.is_symbolic and opaque.symbolic(x) is None
    assert opaque.weight == base.weight and opaque.density is None
    pts = np.asarray(sample_points(BOX, 12, seed=33))
    np.testing.assert_allclose(opaque.apply_many(x, pts),
                               symbolic.apply_many(x, pts), rtol=1e-13, atol=1e-13)
    assert opaque.apply(x, pts[0]) == pytest.approx(
        symbolic.apply(x, tuple(pts[0])), rel=1e-13, abs=1e-13)


# ---------------------------------------------------------------------------
# many-field evaluation

HOLED = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)),
              disks=(((0.0, 0.0), 0.2),), basepoint=(0.6, 0.0))


def _many_field_operators():
    """(name, operator) for every way an operator is evaluated: symbolic,
    forwarding to another operator's apply_fields, or a user's callable."""
    weighted = div_volume(VolumeForm.from_string(BOX, "exp(x^2 - y)"))
    flat = div_volume(VolumeForm.from_string(BOX, "1"))
    swirl = OneForm.from_strings(BOX, ("-y", "x*y"))
    holed = perturbed_operator(div_volume(VolumeForm.from_string(HOLED, "1")),
                               OneForm.from_strings(HOLED, ("2*x", "-1")))
    return [
        ("symbolic", weighted),
        ("as_blackbox", weighted.as_blackbox()),
        ("blackbox-symbolic", difference(weighted.as_blackbox(), flat)),
        ("perturbed-blackbox", perturbed_operator(weighted.as_blackbox(), swirl)),
        ("holed", holed),
        ("pointwise", blackbox_operator(
            BOX, lambda field, p: weighted.apply(field, p))),
    ]


MANY_FIELD_OPERATORS = _many_field_operators()


def _fields_on(chart):
    # a repeated field, a constant image and a bare-coordinate image for the
    # flat part: the cases where evaluated arrays could be shared
    x = VectorField.from_strings(chart, ("x*y", "cos(x)"))
    return [x, VectorField.from_strings(chart, ("1", "0")),
            VectorField.from_strings(chart, ("x*y", "0")), x,
            VectorField.from_strings(chart, ("sin(y)", "x^2 - y"))]


@pytest.mark.parametrize("name,op", MANY_FIELD_OPERATORS,
                         ids=[n for n, _ in MANY_FIELD_OPERATORS])
def test_apply_fields_matches_apply_many(name, op):
    fields = _fields_on(op.chart)
    pts = np.asarray(sample_points(op.chart, 17, seed=41))
    want = [op.apply_many(x, pts) for x in fields]
    out = op.apply_fields(fields, pts)
    assert len(out) == len(fields)
    for got, expected in zip(out, want):
        np.testing.assert_array_equal(got, expected)
    assert op.apply_fields([], pts) == []


@pytest.mark.parametrize("name,op", MANY_FIELD_OPERATORS,
                         ids=[n for n, _ in MANY_FIELD_OPERATORS])
def test_apply_fields_arrays_are_the_callers_own(name, op):
    fields = _fields_on(op.chart)
    pts = np.asarray(sample_points(op.chart, 9, seed=42))
    points = pts.copy()
    want = [op.apply_many(x, pts) for x in fields]
    out = op.apply_fields(fields, pts)
    for k, got in enumerate(out):
        # an array shared with an earlier one would hold its nan already
        np.testing.assert_array_equal(got, want[k])
        got[:] = np.nan
    np.testing.assert_array_equal(pts, points)


@pytest.mark.parametrize("name,op", MANY_FIELD_OPERATORS,
                         ids=[n for n, _ in MANY_FIELD_OPERATORS])
def test_apply_fields_checks_chart_and_domain(name, op):
    fields = _fields_on(op.chart)
    inside = np.asarray(sample_points(op.chart, 3, seed=43))
    with pytest.raises(ChartMismatch):
        op.apply_fields(fields + [VectorField.from_strings(POLAR, ("1", "0"))],
                        inside)
    with pytest.raises(DomainError):
        op.apply_fields(fields, np.vstack([inside, [[2.0, 0.0]]]))
    with pytest.raises(DomainError):
        op.apply_fields(fields, inside[:, :1])
    for center, _ in op.chart.disks:  # a point inside an excluded disk
        with pytest.raises(DomainError):
            op.apply_fields(fields, np.vstack([inside, [center]]))


@pytest.mark.parametrize("stage", ["check_axioms", "classify"])
@pytest.mark.parametrize("returns", ["scalar", "short"])
def test_blackbox_return_values_are_checked(stage, returns):
    # a scalar used to end in a raw numpy ValueError from check_axioms and
    # in not_tensorial from classify; m - 1 values in a raw ValueError
    from divkit.axioms import check_axioms
    from divkit.reconstruct import classify

    flat = div_volume(VolumeForm.from_string(BOX, "1"))

    def fn_many(field, pts):
        return 0.0 if returns == "scalar" else flat.apply_many(field, pts)[1:]

    op = blackbox_operator(BOX, flat.apply, fn_many=fn_many)
    with pytest.raises(ValidationError, match="one array of shape"):
        check_axioms(op) if stage == "check_axioms" else classify(op, flat)
