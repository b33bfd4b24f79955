"""Gauss-Legendre quadrature on segments and chart boxes.

The only module that picks quadrature nodes.  One composite rule of fixed
order is used everywhere: exact for polynomials of degree < 2*order on each
segment, and in practice far below the package tolerances for the smooth
integrands that arise here.  Loop periods (``geometry.line_integral``) and
the potential with its chord check (``reconstruct._segment_integrals``)
share one curve integral, ``_curve_integrals``.  The chart-level helpers
build compactly supported bump fields and check that their divergence
integrates to zero against a volume density.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Sequence

import numpy as np

from .errors import ChartMismatch, SupportError, ValidationError
from .expr import Expr, _eval_vector, const, eval_roots, var

__all__ = [
    "QuadratureRule",
    "default_rule",
    "grid_integral",
    "bump_field",
    "integral_vanishing_check",
]


def _count(value, what: str, least: int) -> int:
    """``value`` as an int; ValidationError unless it is an integer, numpy's
    included but not a bool, of at least ``least``."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < least):
        raise ValidationError(f"{what} must be an integer of at least {least}, "
                              f"not {value!r}")
    return int(value)


class QuadratureRule:
    """Composite Gauss-Legendre rule, the package's one.

    ``order`` is the node count per segment; ``segments_per_unit`` scales the
    default segment count with interval length so accuracy is roughly
    translation invariant.
    """

    order = 16
    segments_per_unit = 8

    def __init__(self):
        self.nodes, self.weights = np.polynomial.legendre.leggauss(self.order)

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


@functools.cache
def default_rule() -> QuadratureRule:
    """The one rule, built on first use."""
    return QuadratureRule()


def _curve_integrals(form, curve, segments: int | None = None) -> np.ndarray:
    """Integral of a one-form along curves parametrised by [0, 1], the
    package's one curve quadrature.  ``curve`` maps the rule's nodes t of
    [0, 1], split into ``segments`` (by default as for unit length), to the
    points at them, an array of shape (..., len(t), n), and the velocities,
    which broadcast to it; the integrals have shape (...).  The form is
    anything with a chart and ``values_matrix`` (a symbolic ``OneForm`` or a
    ``PointwiseOneForm``), read at every node in one call."""
    t_nodes, t_weights = default_rule().mapped(0.0, 1.0, segments)
    pts, vels = curve(t_nodes)
    vals = form.values_matrix(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape)
    return np.einsum("...kn,...kn->...k", vals,
                     np.broadcast_to(vels, pts.shape)) @ t_weights


def _axis_rules(chart, resolution: int):
    resolution = _count(resolution, "grid resolution", 1)
    return [default_rule().mapped(a, b, segments=resolution) for a, b in chart.box]


_GRID_POINTS = 8192  # block points per call of fn; a full-block array is 64 KB


def _block_values(fn, arrays: dict, shape: tuple) -> np.ndarray:
    """``fn``'s values on one block, copied out C-contiguous in its shape
    unless they are: a dot product sums a stride-0 row in another order."""
    vals = np.asarray(fn(arrays), dtype=float)
    if vals.shape == shape and vals.flags.c_contiguous:
        return vals
    try:
        return np.ascontiguousarray(np.broadcast_to(vals, shape))
    except ValueError:
        raise ValidationError(f"an integrand must return values that broadcast "
                              f"to the block shape {shape}, not {vals.shape}") from None


def grid_integral(fn, chart, resolution: int = 64) -> float:
    """Tensor-product integral of ``fn`` over the chart box.

    ``fn`` receives a ``{coord: array}`` mapping of arrays that broadcast
    against each other to a block of grid points, and must act on them
    elementwise; its return must broadcast to the block (a scalar will do),
    or ValidationError is raised.  ``resolution`` counts quadrature segments
    per axis, so the node count per axis is ``order * resolution``; cost
    grows like its n-th power.  Charts with excluded disks are rejected: the
    box integral would cross the holes.  In 1-D the block is the whole axis.
    From 2-D up, each call gets as many whole slabs (one first-axis node
    each) as fit in ``_GRID_POINTS`` points, or one larger slab, its
    coordinates shaped by ``np.ix_``, so a subtree of one coordinate costs
    one value per node of its axis in each call; the calls follow the first
    axis in order.  The ``np.ix_`` arrays are built once per integral.  One
    ``np.vecdot`` sums a block's slabs, each by the dot routine of a 1-D
    ``@`` (a matrix-vector product sums in another order), and the slab sums
    are added in order, so no bit changes.  ``_expr_integral`` integrates an
    ``Expr`` with each such subtree evaluated once per integral.
    """
    if chart.disks:
        raise ValidationError("grid integration requires a chart without excluded disks")
    per_axis = _axis_rules(chart, resolution)
    names = chart.coords
    first_nodes, first_weights = per_axis[0]
    if len(per_axis) == 1:
        vals = _block_values(fn, {names[0]: first_nodes}, first_nodes.shape)
        return float(first_weights @ vals)

    rest = per_axis[1:]
    rest_w = np.meshgrid(*[w for _, w in rest], indexing="ij")
    rest_weights = np.ones(rest_w[0].size)
    for w in rest_w:
        rest_weights = rest_weights * w.ravel()

    first_axis, *rest_axes = np.ix_(first_nodes, *(nodes for nodes, _ in rest))
    total = 0.0
    per_call = max(1, _GRID_POINTS // rest_weights.size)
    for lo in range(0, first_nodes.size, per_call):
        x0 = first_axis[lo:lo + per_call]
        vals = _block_values(fn, dict(zip(names, (x0, *rest_axes))),
                             (len(x0),) + rest_w[0].shape)
        sums = np.vecdot(vals.reshape(len(x0), -1), rest_weights)
        for w0, s in zip(first_weights[lo:lo + per_call], sums):
            total += w0 * s
    return float(total)


def _expr_integral(expr: Expr, chart, resolution: int) -> float:
    """``grid_integral`` of the values of ``expr``, its tree split once.

    Each maximal subtree of the first coordinate alone becomes a leaf whose
    values are computed once over the whole first axis and sliced per
    block; each maximal subtree of the other coordinates alone becomes a
    leaf computed once over their ``np.ix_`` shapes.  Each block evaluates
    only the nodes that mix the first coordinate with another, by
    ``_eval_vector`` under ``np.errstate``, as ``eval_many`` would but with
    no float64 scan or copy: one root needs no plan, so repeating an
    integral of a fresh tree adds no entry to ``eval_roots``' plans.  Every
    value is the one the block would have computed, so no bit changes.
    """
    first = chart.coords[0]
    used: dict[int, frozenset] = {}
    split: dict[int, Expr] = {}
    along: dict[str, Expr] = {}  # leaf name: subtree of the first coordinate
    across: dict[str, Expr] = {}  # leaf name: subtree of the other ones

    def coords(e: Expr) -> frozenset:
        out = used.get(id(e))
        if out is None:
            out = frozenset((e.name,)) if e.kind == "var" \
                else frozenset().union(*map(coords, e.args))
            used[id(e)] = out
        return out

    def rebuild(e: Expr) -> Expr:
        out = split.get(id(e))
        if out is None:
            names = coords(e)
            if e.kind == "var" or not names:
                out = e
            elif first in names and len(names) > 1:
                out = Expr(e.kind, tuple(map(rebuild, e.args)), e.value, e.name)
            else:
                leaf = f"#{len(along) + len(across)}"  # no coordinate's name
                (along if first in names else across)[leaf] = e
                out = var(leaf)
            split[id(e)] = out
        return out

    root = rebuild(expr)
    leaves: dict[str, np.ndarray] = {}
    offset = 0  # first-axis nodes of the blocks before this one

    def fn(arrays):
        nonlocal offset
        if not offset:  # grid_integral has checked the chart and resolution
            nodes, _ = default_rule().mapped(*chart.box[0], segments=resolution)
            axis = {first: nodes.reshape((-1,) + (1,) * (chart.dim - 1))}
            leaves.update(zip(along, eval_roots(along.values(), axis)))
            rest = {nm: arrays[nm] for nm in chart.coords[1:]}
            leaves.update(zip(across, eval_roots(across.values(), rest)))
        size = len(arrays[first])
        block = {**arrays, **leaves}
        for leaf in along:
            block[leaf] = leaves[leaf][offset:offset + size]
        offset += size
        with np.errstate(all="ignore"):
            return _eval_vector(root, block, {})  # one root needs no plan

    return grid_integral(fn, chart, resolution=resolution)


def bump_field(chart, center: Sequence[float], radius: float, direction: int):
    """Vector field with one component, a product of bumps centred at
    ``center`` with half-width ``radius`` per axis.

    The closed support box must sit strictly inside the chart box and stay
    clear of every excluded disk; otherwise SupportError.
    """
    from .geometry import VectorField

    center = tuple(float(c) for c in center)
    radius = float(radius)
    n = chart.dim
    if len(center) != n:
        raise ValidationError("bump center has wrong dimension")
    if not all(map(math.isfinite, center)):
        raise ValidationError("bump center must be finite")
    if not (radius > 0.0) or not math.isfinite(radius):
        raise ValidationError("bump radius must be positive and finite")
    if _count(direction, "direction", 0) >= n:
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


def integral_vanishing_check(volume, field, resolution: int = 64) -> float:
    """Integral of the divergence of ``field`` against the volume density.

    For a field that vanishes near the chart boundary this is an integral of
    an exact top-form over the box, so it should be numerically zero; the
    signed value is returned for the caller to judge.  Fields that are not
    zero on the boundary are rejected.  The integrand is evaluated by
    ``_expr_integral``, so each subtree of one coordinate, such as a bump
    factor and its derivatives, costs one value per node of its axis per
    integral.
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
    return _expr_integral(lie_derivative_top(field, volume), chart, resolution)
