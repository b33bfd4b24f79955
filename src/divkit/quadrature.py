"""Gauss-Legendre quadrature on segments and chart boxes.

A composite rule of fixed order is used everywhere: exact for polynomials of
degree < 2*order on each segment, and in practice far below the package
tolerances for the smooth integrands that arise here.  The chart-level
helpers build compactly supported bump fields and check that their divergence
integrates to zero against a volume density.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ChartMismatch, SupportError, ValidationError

__all__ = [
    "QuadratureRule",
    "default_rule",
    "gauss_segment",
    "grid_integral",
    "bump_field",
    "integral_vanishing_check",
]


class QuadratureRule:
    """Composite Gauss-Legendre rule.

    ``order`` is the node count per segment; ``segments_per_unit`` scales the
    default segment count with interval length so accuracy is roughly
    translation invariant.
    """

    def __init__(self, order: int = 16, segments_per_unit: int = 8):
        if order < 2:
            raise ValidationError("quadrature order must be at least 2")
        if segments_per_unit < 1:
            raise ValidationError("segments_per_unit must be at least 1")
        self.order = int(order)
        self.segments_per_unit = int(segments_per_unit)
        nodes, weights = np.polynomial.legendre.leggauss(self.order)
        self.nodes = nodes
        self.weights = weights

    def segment_count(self, length: float) -> int:
        return max(1, math.ceil(abs(length) * self.segments_per_unit))

    def mapped(self, a: float, b: float, segments: int | None = None):
        """Nodes and weights for [a, b] split into equal segments."""
        if segments is None:
            segments = self.segment_count(b - a)
        edges = np.linspace(a, b, segments + 1)
        half = 0.5 * (edges[1:] - edges[:-1])  # per-segment scale
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = (mid[:, None] + half[:, None] * self.nodes[None, :]).ravel()
        weights = (half[:, None] * self.weights[None, :]).ravel()
        return nodes, weights

    def __repr__(self):
        return f"QuadratureRule(order={self.order}, segments_per_unit={self.segments_per_unit})"


_DEFAULT: QuadratureRule | None = None


def default_rule() -> QuadratureRule:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = QuadratureRule()
    return _DEFAULT


def gauss_segment(fn: Callable[[float], float], a: float, b: float,
                  rule: QuadratureRule | None = None,
                  segments: int | None = None) -> float:
    """Integrate a scalar callable over [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("integration endpoints must be finite")
    if a > b:
        raise ValidationError("integration interval is reversed")
    if a == b:
        return 0.0
    rule = rule or default_rule()
    nodes, weights = rule.mapped(a, b, segments)
    return float(sum(w * fn(t) for t, w in zip(nodes.tolist(), weights.tolist())))


def _axis_rules(chart, resolution: int, rule: QuadratureRule):
    if resolution < 1:
        raise ValidationError("grid resolution must be at least 1")
    return [rule.mapped(a, b, segments=resolution) for a, b in chart.box]


def grid_integral(fn, chart, resolution: int = 64,
                  rule: QuadratureRule | None = None) -> float:
    """Tensor-product integral of ``fn`` over the chart box.

    ``fn`` receives a ``{coord: array}`` mapping and returns an array of
    values.  ``resolution`` counts quadrature segments per axis, so the node
    count per axis is ``order * resolution``; cost grows like its n-th
    power.  Charts with excluded disks are rejected: the box integral would
    cross the holes.
    """
    rule = rule or default_rule()
    if chart.disks:
        raise ValidationError("grid integration requires a chart without excluded disks")
    per_axis = _axis_rules(chart, resolution, rule)
    names = chart.coords
    first_nodes, first_weights = per_axis[0]
    if len(per_axis) == 1:
        vals = np.asarray(fn({names[0]: first_nodes}), dtype=float)
        return float(first_weights @ vals)

    rest = per_axis[1:]
    rest_grids = np.meshgrid(*[n for n, _ in rest], indexing="ij")
    rest_cols = [g.ravel() for g in rest_grids]
    rest_w = np.meshgrid(*[w for _, w in rest], indexing="ij")
    rest_weights = np.ones_like(rest_cols[0])
    for w in rest_w:
        rest_weights = rest_weights * w.ravel()

    total = 0.0
    ones = np.ones_like(rest_cols[0])
    for x0, w0 in zip(first_nodes, first_weights):
        # one slab of the grid at a time keeps memory flat in 3-D
        arrays = {names[0]: x0 * ones}
        for nm, col in zip(names[1:], rest_cols):
            arrays[nm] = col
        vals = np.asarray(fn(arrays), dtype=float)
        total += w0 * float(rest_weights @ vals)
    return float(total)


def bump_field(chart, center: Sequence[float], radius: float, direction: int):
    """Vector field with one component, a product of bumps centred at
    ``center`` with half-width ``radius`` per axis.

    The closed support box must sit strictly inside the chart box and stay
    clear of every excluded disk; otherwise SupportError.
    """
    from .expr import Expr, const, var
    from .geometry import VectorField

    center = tuple(float(c) for c in center)
    radius = float(radius)
    n = chart.dim
    if len(center) != n:
        raise ValidationError("bump center has wrong dimension")
    if not (radius > 0.0) or not math.isfinite(radius):
        raise ValidationError("bump radius must be positive and finite")
    if not (0 <= direction < n):
        raise ValidationError(f"direction must index a coordinate (0..{n - 1})")
    for c, (a, b) in zip(center, chart.box):
        if not (a < c - radius and c + radius < b):
            raise SupportError("bump support leaves the chart box")
    for d_center, d_radius in chart.disks:
        # closest point of the support box to the disk center
        gap2 = 0.0
        for c, dc in zip(center, d_center):
            nearest = min(max(dc, c - radius), c + radius)
            gap2 += (nearest - dc) ** 2
        if gap2 <= d_radius * d_radius:
            raise SupportError("bump support meets an excluded disk")

    phi = const(1.0)
    for name, c in zip(chart.coords, center):
        arg = (var(name) - const(c)) / const(radius)
        phi = phi * Expr("bump", (arg,))
    comps = tuple(phi if i == direction else const(0.0) for i in range(n))
    return VectorField(chart, comps)


def _boundary_faces(chart, per_side: int = 33):
    """Lattices of points on each face of the chart box."""
    n = chart.dim
    axes = [np.linspace(a, b, per_side) for a, b in chart.box]
    for axis in range(n):
        for end in (0, 1):
            fixed = chart.box[axis][end]
            if n == 1:
                yield {chart.coords[0]: np.array([fixed])}
                continue
            others = [axes[i] for i in range(n) if i != axis]
            grids = np.meshgrid(*others, indexing="ij")
            cols = iter(g.ravel() for g in grids)
            arrays = {}
            for i, nm in enumerate(chart.coords):
                arrays[nm] = np.full(grids[0].size, fixed) if i == axis else next(cols)
            yield arrays


def integral_vanishing_check(volume, field, resolution: int = 64,
                             rule: QuadratureRule | None = None) -> float:
    """Integral of the divergence of ``field`` against the volume density.

    For a field that vanishes near the chart boundary this is an integral of
    an exact top-form over the box, so it should be numerically zero; the
    signed value is returned for the caller to judge.  Fields that are not
    zero on the boundary are rejected.
    """
    from .geometry import lie_derivative_top

    if volume.chart is not field.chart and volume.chart != field.chart:
        raise ChartMismatch("volume and field live on different charts")
    chart = field.chart
    for arrays in _boundary_faces(chart):
        for comp in field.components:
            vals = comp.eval_many(arrays)
            if not np.all(np.abs(vals) <= 1e-12):
                raise SupportError("field does not vanish on the chart boundary")
    coeff = lie_derivative_top(field, volume)
    return grid_integral(coeff.eval_many, chart, resolution=resolution,
                         rule=rule)
