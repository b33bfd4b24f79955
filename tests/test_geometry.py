"""Charts, sampling, derivative operations, and line integrals."""

import math

import numpy as np
import pytest

from divkit.errors import ChartMismatch, DomainError, ValidationError
from divkit.expr import EvalDomainError, Expr, const, parse_expr, var
from divkit.geometry import (
    Chart,
    OneForm,
    Path,
    VectorField,
    VolumeForm,
    apply_field,
    bracket,
    d_function,
    d_oneform,
    lie_derivative_top,
    line_integral,
    sample_points,
)
from divkit.operators import div_volume
from divkit.reconstruct import PointwiseOneForm

BOX = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
ANNULUS = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)),
                disks=(((0.0, 0.0), 0.2),), basepoint=(0.6, 0.0))


def ex(text, chart=BOX):
    return parse_expr(text, chart.coords)


# ---------------------------------------------------------------------------
# charts


def test_chart_validation():
    with pytest.raises(ValidationError):
        Chart((), ())
    with pytest.raises(ValidationError):
        Chart(("x", "x"), ((0, 1), (0, 1)))
    with pytest.raises(ValidationError):
        Chart(("x", "2y"), ((0, 1), (0, 1)))
    with pytest.raises(ValidationError):
        Chart(("sin",), ((0, 1),))
    with pytest.raises(ValidationError):
        Chart(("x",), ((1, 0),))
    with pytest.raises(ValidationError):
        Chart(("x", "y"), ((0, 1),))
    with pytest.raises(ValidationError):
        Chart(("x", "y"), ((0, 1), (0, 1)), disks=(((0.5,), 0.1),))
    with pytest.raises(ValidationError):
        Chart(("x", "y"), ((0, 1), (0, 1)), disks=(((0.5, 0.5), -0.1),))


def test_chart_basepoint_rules():
    assert BOX.basepoint == (0.0, 0.0)
    # default center falls inside the disk, so it must be given explicitly
    with pytest.raises(ValidationError):
        Chart(("x", "y"), ((-1, 1), (-1, 1)), disks=(((0.0, 0.0), 0.2),))
    assert ANNULUS.basepoint == (0.6, 0.0)
    with pytest.raises(ValidationError):
        Chart(("x", "y"), ((-1, 1), (-1, 1)), basepoint=(2.0, 0.0))


def test_chart_containment():
    assert BOX.contains((0.0, 0.0))
    assert not BOX.contains((1.0, 0.0))  # box is open
    assert not BOX.contains((0.0, -1.0))
    assert not ANNULUS.contains((0.1, 0.0))
    assert not ANNULUS.contains((0.2, 0.0))  # disk is closed
    assert ANNULUS.contains((0.2000001, 0.0))
    assert not BOX.contains((0.95, 0.0), margin=0.1)
    with pytest.raises(DomainError):
        ANNULUS.require_inside((0.0, 0.0))


@pytest.mark.parametrize("point, inside", [
    ((0.1835870507260606, -0.07934604467588073), True),
    ((0.1321713814453301, 0.1501023848139431), False),
])
def test_one_containment_rule_at_the_disk_edge(point, inside):
    # two points within rounding of the disk's edge: the pointwise and the
    # vectorised tests, and so apply and apply_many, give one answer
    assert ANNULUS.contains(point) is inside
    assert ANNULUS.contains_mask(ANNULUS.arrays(np.array([point])))[0] == inside
    op = div_volume(VolumeForm.from_string(ANNULUS, "1"))
    dilation = VectorField.from_strings(ANNULUS, ("x", "y"))
    if inside:
        assert op.apply(dilation, point) == 2.0
        assert op.apply_many(dilation, [point]).tolist() == [2.0]
    else:
        with pytest.raises(DomainError):
            op.apply(dilation, point)
        with pytest.raises(DomainError):
            op.apply_many(dilation, [point])


def test_sample_points_deterministic_and_inside():
    pts = sample_points(ANNULUS, count=200, seed=7)
    assert pts.shape == (200, 2)
    assert np.array_equal(pts, sample_points(ANNULUS, count=200, seed=7))
    assert not np.array_equal(pts, sample_points(ANNULUS, count=200, seed=8))
    margin = ANNULUS.margin
    assert margin == pytest.approx(0.1)
    for p in pts:
        assert ANNULUS.contains(p, margin=margin * 0.999)
        assert math.dist(p, (0.0, 0.0)) > 0.2 + margin * 0.999
    # True once drew one point, as a bool is an Integral
    for count, seed in ((0, 7), (2.5, 7), (5, -1), (5, 1.5), (True, False),
                        (5, False), (True, 7)):
        with pytest.raises(ValidationError):
            sample_points(ANNULUS, count=count, seed=seed)


def test_sample_points_failure_when_crowded():
    # domain is nonempty (a sliver near the corner) but empty at the margin
    crowded = Chart(("x", "y"), ((-1, 1), (-1, 1)),
                    disks=(((0.0, 0.0), 1.3),), basepoint=(0.98, 0.98))
    with pytest.raises(ValidationError):
        sample_points(crowded, count=50)


# ---------------------------------------------------------------------------
# fields and forms


def test_component_validation():
    with pytest.raises(ValidationError):
        VectorField(BOX, (const(1.0),))
    with pytest.raises(ChartMismatch):
        VectorField(BOX, (var("z"), const(0.0)))
    with pytest.raises(ValidationError):
        OneForm(BOX, (1.0, 2.0))


def test_volume_positivity():
    VolumeForm.from_string(BOX, "2+x")
    with pytest.raises(ValidationError):
        VolumeForm.from_string(BOX, "x")
    with pytest.raises(ValidationError):
        VolumeForm.from_string(BOX, "log(x)")  # undefined on half the chart


def test_values_at_and_many():
    f = VectorField.from_strings(BOX, ("x*y", "sin(y)"))
    assert f.values_at((0.5, 0.25)) == (0.125, math.sin(0.25))
    arrays = BOX.arrays(np.array([[0.5, 0.25], [-0.5, 0.5]]))
    vals = f.values_many(arrays)
    assert vals[0][1] == -0.25
    pts = np.array([[0.5, 0.25], [-0.5, 0.5]])
    form = OneForm.from_strings(BOX, ("x*y", "sin(y)"))
    for obj in (f, form):
        matrix = obj.values_matrix(pts)
        assert matrix.shape == (2, 2)
        assert tuple(matrix[0]) == f.values_at((0.5, 0.25))
        assert matrix[1, 0] == -0.25


def pointwise_form(chart, texts):
    return PointwiseOneForm(chart, None, OneForm.from_strings(chart, texts)
                            .values_matrix)


@pytest.mark.parametrize("make", [VectorField.from_strings, OneForm.from_strings,
                                  pointwise_form],
                         ids=["VectorField", "OneForm", "PointwiseOneForm"])
def test_values_at_is_the_one_row_view(make):
    # a point with a third coordinate used to be cut to two and evaluated,
    # one with a single coordinate to end in a raw KeyError: 'y'; a
    # PointwiseOneForm returned nan where a symbolic form raised
    obj = make(BOX, ("x*y", "log(y)"))
    assert obj.values_at((0.5, 0.25)) == tuple(obj.values_matrix(
        np.array([[0.5, 0.25]]))[0].tolist())
    for point in ((0.1, 0.2, 0.3), (0.1,)):
        with pytest.raises(DomainError):
            obj.values_at(point)
    with pytest.raises(EvalDomainError):
        obj.values_at((0.5, -0.25))


# ---------------------------------------------------------------------------
# derivative operations


def test_apply_field_is_directional_derivative():
    ddx = VectorField.from_strings(BOX, ("1", "0"))
    f = ex("x^2*sin(y)+y")
    assert apply_field(ddx, f) == f.diff("x").simplify()
    rot = VectorField.from_strings(BOX, ("-y", "x"))
    radial = ex("x^2+y^2")
    g = apply_field(rot, radial)
    for p in sample_points(BOX, 20, seed=1):
        assert abs(g.eval(BOX.env(p))) <= 1e-14


def test_apply_field_chart_mismatch():
    ddx = VectorField.from_strings(BOX, ("1", "0"))
    with pytest.raises(ChartMismatch):
        apply_field(ddx, var("q"))


def test_bracket_known_value():
    ddx = VectorField.from_strings(BOX, ("1", "0"))
    shear = VectorField.from_strings(BOX, ("0", "x"))
    assert bracket(ddx, shear).components == (const(0.0), const(1.0))


def test_bracket_antisymmetry_numeric():
    x = VectorField.from_strings(BOX, ("x*y-0.3", "sin(x)"))
    y = VectorField.from_strings(BOX, ("exp(0.4*y)", "x^2-y"))
    fw = bracket(x, y)
    bw = bracket(y, x)
    for p in sample_points(BOX, 30, seed=2):
        env = BOX.env(p)
        for a, b in zip(fw.components, bw.components):
            assert a.eval(env) == pytest.approx(-b.eval(env), abs=1e-12)


def test_bracket_matches_finite_differences():
    x = VectorField.from_strings(BOX, ("x*y-0.3", "sin(x)"))
    y = VectorField.from_strings(BOX, ("exp(0.4*y)", "x^2-y"))
    br = bracket(x, y)
    h = 1e-6

    def fd_component(k, p):
        total = 0.0
        for j, name in enumerate(BOX.coords):
            up, dn = dict(BOX.env(p)), dict(BOX.env(p))
            up[name] += h
            dn[name] -= h
            dyk = (y.components[k].eval(up) - y.components[k].eval(dn)) / (2 * h)
            dxk = (x.components[k].eval(up) - x.components[k].eval(dn)) / (2 * h)
            env = BOX.env(p)
            total += x.components[j].eval(env) * dyk - y.components[j].eval(env) * dxk
        return total

    for p in sample_points(BOX, 10, seed=3):
        env = BOX.env(p)
        for k in range(2):
            assert br.components[k].eval(env) == pytest.approx(
                fd_component(k, p), rel=1e-6, abs=1e-8)


def test_bracket_jacobi_identity():
    x = VectorField.from_strings(BOX, ("x*y", "1-y"))
    y = VectorField.from_strings(BOX, ("y^2", "x"))
    z = VectorField.from_strings(BOX, ("0.5*x", "x*y-0.2"))
    total = [
        bracket(bracket(x, y), z),
        bracket(bracket(y, z), x),
        bracket(bracket(z, x), y),
    ]
    for p in sample_points(BOX, 20, seed=4):
        env = BOX.env(p)
        for k in range(2):
            s = sum(t.components[k].eval(env) for t in total)
            assert abs(s) <= 1e-11


def _rk4_flow(field, p, time, steps=32):
    """Integrate the field's flow from p for the given time."""
    p = np.asarray(p, dtype=float)
    h = time / steps
    for _ in range(steps):
        k1 = np.array(field.values_at(p))
        k2 = np.array(field.values_at(p + 0.5 * h * k1))
        k3 = np.array(field.values_at(p + 0.5 * h * k2))
        k4 = np.array(field.values_at(p + h * k3))
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


def test_lie_derivative_matches_flow_transport():
    # geometric oracle: L_X(rho dV) at p is d/dt of rho(flow_t(p)) * det J_t(p)
    vol = VolumeForm.from_string(BOX, "exp(0.3*x)*(1+0.25*y^2)")
    field = VectorField.from_strings(BOX, ("0.3*y+0.1", "0.05-0.2*x^2"))
    coeff = lie_derivative_top(field, vol)
    eps, fd_h = 1e-3, 1e-5

    def transported(p, t):
        base = _rk4_flow(field, p, t)
        jac = np.zeros((2, 2))
        for j in range(2):
            up = np.array(p, dtype=float)
            dn = np.array(p, dtype=float)
            up[j] += fd_h
            dn[j] -= fd_h
            jac[:, j] = (_rk4_flow(field, up, t) - _rk4_flow(field, dn, t)) / (2 * fd_h)
        rho = vol.density.eval(BOX.env(base))
        return rho * np.linalg.det(jac)

    for p in sample_points(BOX, 5, seed=5):
        oracle = (transported(p, eps) - transported(p, -eps)) / (2 * eps)
        got = coeff.eval(BOX.env(p))
        assert got == pytest.approx(oracle, rel=1e-5, abs=1e-7)


def test_lie_derivative_matches_product_rule_fd():
    # independent route: the coefficient equals sum_i d(rho X^i)/dx_i
    vol = VolumeForm.from_string(BOX, "exp(0.3*x)*(1+0.25*y^2)")
    field = VectorField.from_strings(BOX, ("x^2*y", "sin(x)-y"))
    coeff = lie_derivative_top(field, vol)
    h = 1e-6
    for p in sample_points(BOX, 20, seed=6):
        total = 0.0
        for i, name in enumerate(BOX.coords):
            up, dn = dict(BOX.env(p)), dict(BOX.env(p))
            up[name] += h
            dn[name] -= h
            prod_up = vol.density.eval(up) * field.components[i].eval(up)
            prod_dn = vol.density.eval(dn) * field.components[i].eval(dn)
            total += (prod_up - prod_dn) / (2 * h)
        assert coeff.eval(BOX.env(p)) == pytest.approx(total, rel=1e-8, abs=1e-8)


def test_d_function_and_closedness():
    f = ex("x^2*y+x*sin(y)")
    df = d_function(BOX, f)
    two_form = d_oneform(df)
    for p in sample_points(BOX, 20, seed=7):
        env = BOX.env(p)
        assert df.components[0].eval(env) == pytest.approx(
            2 * p[0] * p[1] + math.sin(p[1]), rel=1e-13, abs=1e-13)
        for row in two_form:
            for entry in row:
                assert abs(entry.eval(env)) <= 1e-12


def test_d_oneform_antisymmetric_and_detects_nonclosed():
    e = OneForm.from_strings(BOX, ("-y", "0"))
    m = d_oneform(e)
    for p in sample_points(BOX, 10, seed=8):
        env = BOX.env(p)
        assert m[0][1].eval(env) == pytest.approx(1.0, abs=1e-14)
        assert m[1][0].eval(env) == pytest.approx(-1.0, abs=1e-14)
        assert m[0][0].eval(env) == 0.0


def test_angular_form_is_closed_off_the_disk():
    e = OneForm.from_strings(
        ANNULUS, ("-y/(x^2+y^2)", "x/(x^2+y^2)"))
    m = d_oneform(e)
    for p in sample_points(ANNULUS, 40, seed=9):
        env = ANNULUS.env(p)
        assert abs(m[0][1].eval(env)) <= 1e-12


# ---------------------------------------------------------------------------
# paths and line integrals


def circle_path(radius=0.5, segments=None):
    txts = (f"{radius}*cos(6.283185307179586*t)",
            f"{radius}*sin(6.283185307179586*t)")
    return Path.from_strings(ANNULUS, txts, segments=segments)


def test_path_basics():
    loop = circle_path()
    assert loop.is_loop()
    assert loop.point_at(0.25)[1] == pytest.approx(0.5, abs=1e-12)
    arc = Path.from_strings(BOX, ("t-0.5", "0"))
    assert not arc.is_loop()
    from divkit.expr import UnknownIdentifierError
    with pytest.raises(UnknownIdentifierError):
        Path.from_strings(BOX, ("t", "x"))
    with pytest.raises(ValidationError):
        Path(BOX, (var("t"), var("x")))
    with pytest.raises(ValidationError):
        Path.from_strings(BOX, ("t",))
    # a fractional segment count once passed here and raised a TypeError
    # inside line_integral
    for segments in (0, 2.5, "4"):
        with pytest.raises(ValidationError):
            Path.from_strings(BOX, ("t-0.5", "0"), segments=segments)
    assert Path.from_strings(BOX, ("t-0.5", "0"), segments=np.int64(4)).segments == 4


def test_line_integral_angular_form_period():
    e = OneForm.from_strings(ANNULUS, ("-y/(x^2+y^2)", "x/(x^2+y^2)"))

    def angular_many(pts):
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        return np.stack([-pts[:, 1] / r2, pts[:, 0] / r2], axis=1)

    pointwise = PointwiseOneForm(ANNULUS, lambda p: angular_many(np.array([p]))[0],
                                 angular_many)
    for form in (e, pointwise):
        v = line_integral(form, circle_path())
        assert v == pytest.approx(6.283185307179586, abs=1e-10)


def test_line_integral_exact_form_path_independent():
    # E = d(x^2 y + x sin y); endpoints (-0.5, -0.3) -> (0.5, 0.7)
    e = OneForm.from_strings(BOX, ("2*x*y+sin(y)", "x^2+x*cos(y)"))
    straight = Path.from_strings(BOX, ("t-0.5", "t-0.3"))
    curved = Path.from_strings(BOX, ("t-0.5", "t^2-0.3"))
    expected = 0.4243487402881757
    v1 = line_integral(e, straight)
    v2 = line_integral(e, curved)
    assert v1 == pytest.approx(expected, abs=1e-10)
    assert v2 == pytest.approx(expected, abs=1e-10)
    assert abs(v1 - v2) <= 2e-8


def test_line_integral_nonexact_value():
    e = OneForm.from_strings(BOX, ("-y", "x^2"))
    curved = Path.from_strings(BOX, ("t-0.5", "t^2-0.3"))
    assert line_integral(e, curved) == pytest.approx(0.05, abs=1e-12)


def test_line_integral_domain_violations():
    e = OneForm.from_strings(ANNULUS, ("1", "0"))
    through = Path.from_strings(ANNULUS, ("t-0.5", "0"))  # crosses the disk
    with pytest.raises(DomainError):
        line_integral(e, through)
    singular = OneForm.from_strings(BOX, ("log(x+0.5)", "0"))
    arc = Path.from_strings(BOX, ("t-0.6", "0"))
    with pytest.raises(DomainError):
        line_integral(singular, arc)


def test_line_integral_chart_mismatch():
    e = OneForm.from_strings(BOX, ("1", "0"))
    with pytest.raises(ChartMismatch):
        line_integral(e, circle_path())
