"""Quadrature rules, grid integrals, bump fields, and the vanishing check."""

import math

import numpy as np
import pytest

from divkit.errors import ChartMismatch, SupportError, ValidationError
from divkit.expr import parse_expr
from divkit.geometry import Chart, VectorField, VolumeForm
from divkit.quadrature import (
    QuadratureRule,
    bump_field,
    default_rule,
    gauss_segment,
    grid_integral,
    integral_vanishing_check,
)

BOX2 = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))


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


def test_rule_validation():
    with pytest.raises(ValidationError):
        QuadratureRule(order=1)
    with pytest.raises(ValidationError):
        QuadratureRule(segments_per_unit=0)


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


def test_gauss_segment_validation():
    assert gauss_segment(math.exp, 2.0, 2.0) == 0.0
    with pytest.raises(ValidationError):
        gauss_segment(math.exp, 1.0, 0.0)
    with pytest.raises(ValidationError):
        gauss_segment(math.exp, 0.0, math.inf)


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


def test_grid_integral_rejects_disks_and_bad_resolution():
    holed = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)),
                  disks=(((0.0, 0.0), 0.2),), basepoint=(0.6, 0.0))
    with pytest.raises(ValidationError):
        grid_integral(lambda a: np.ones_like(a["x"]), holed)
    with pytest.raises(ValidationError):
        grid_integral(lambda a: np.ones_like(a["x"]), BOX2, resolution=0)


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
