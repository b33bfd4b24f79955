"""Divergence operators and the geometric data that induces them.

An operator here is a map from vector fields to scalar functions on a chart.
Every symbolic operator has one normal form,

    D(X) = s * sum_i d_i X^i + theta(X),

a product-rule weight s plus a one-form theta, fixed when it is built:

    constructor                  s        theta                    density
    div_volume(rho)              1        d log rho                rho
    div_sdensity(rho, s)         s        d log rho                rho
    div_metric(g)                1        d log sqrt(det g)        sqrt(det g)
    div_affine(Gamma)            1        sum_k Gamma^k_{ik}       none
    perturbed_operator(D, E)     D's s    D's theta + E            none
    difference(D, D0)            s - s0   theta - theta0           none

``density`` is the volume the operator is the divergence of, when the
construction has one.  One rule combines two operators, part by part when
both are symbolic, so D - D0 pairs fields with theta - theta0 exactly when
the weights agree.  With a blackbox on either side the result is a blackbox
combining the two images.  Every evaluation goes through ``apply_fields``:
one ``eval_roots`` call over all the images for a symbolic operator, one
call of the stored callable for a blackbox.  A blackbox built on other
operators forwards the whole list of fields to theirs.  An operator never
changes after it is built, so each image D(X) is built once and kept while
its field lives, and each difference D - D0 while D0 lives.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ChartMismatch, DomainError, ValidationError
from .expr import EvalDomainError, Expr, const, eval_roots, parse_expr
from .geometry import (
    Chart,
    OneForm,
    VectorField,
    VolumeForm,
    _require_coords,
    sample_points,
)

__all__ = [
    "Metric",
    "Connection",
    "levi_civita",
    "DivOperator",
    "div_volume",
    "div_metric",
    "div_affine",
    "div_sdensity",
    "perturbed_operator",
    "blackbox_operator",
    "parallel_residual",
]


def _check_matrix(chart: Chart, entries, what: str):
    n = chart.dim
    rows = tuple(tuple(row) for row in entries)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValidationError(f"{what} must be an {n}x{n} matrix")
    for row in rows:
        for e in row:
            if not isinstance(e, Expr):
                raise ValidationError(f"{what} entries must be expressions")
            _require_coords(chart, e, what)
    return rows


def _det(entries, n: int) -> Expr:
    g = entries
    if n == 1:
        return g[0][0]
    if n == 2:
        return (g[0][0] * g[1][1] - g[0][1] * g[1][0]).simplify()
    if n == 3:
        return (
            g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
        ).simplify()
    raise ValidationError("determinants are only provided up to dimension 3")


def _minor(entries, drop_row: int, drop_col: int, n: int) -> Expr:
    kept = [
        [entries[i][j] for j in range(n) if j != drop_col]
        for i in range(n) if i != drop_row
    ]
    return _det(kept, n - 1)


@dataclass(frozen=True)
class Metric:
    """Symmetric positive matrix of expressions.

    Symmetry must hold structurally after simplify; positivity of the leading
    principal minors is checked on the standard sample set.
    """

    chart: Chart
    components: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        rows = _check_matrix(self.chart, self.components, "metric")
        n = self.chart.dim
        simplified = tuple(tuple(e.simplify() for e in row) for row in rows)
        for i in range(n):
            for j in range(i + 1, n):
                if simplified[i][j] != simplified[j][i]:
                    raise ValidationError(
                        f"metric is not symmetric at entry ({i}, {j})")
        object.__setattr__(self, "components", simplified)
        pts = sample_points(self.chart)
        arrays = self.chart.arrays(pts)
        for k in range(1, n + 1):
            lead = _det([row[:k] for row in simplified[:k]], k)
            vals = lead.eval_many(arrays)
            if not np.all(np.isfinite(vals)) or not np.all(vals > 0.0):
                raise ValidationError(
                    f"metric is not positive definite (order-{k} minor)")

    @classmethod
    def from_strings(cls, chart: Chart, rows: Sequence[Sequence[str]]):
        return cls(chart, tuple(tuple(parse_expr(t, chart.coords) for t in row)
                                for row in rows))

    def det(self) -> Expr:
        return _det(self.components, self.chart.dim)

    def inverse(self) -> tuple[tuple[Expr, ...], ...]:
        n = self.chart.dim
        det = self.det()
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                cof = _minor(self.components, j, i, n)
                if (i + j) % 2:
                    cof = -cof
                row.append((cof / det).simplify())
            rows.append(tuple(row))
        return tuple(rows)


@dataclass(frozen=True)
class Connection:
    """Christoffel symbols gamma[k][i][j] for nabla_{e_i} e_j = gamma^k_{ij} e_k."""

    chart: Chart
    gamma: tuple[tuple[tuple[Expr, ...], ...], ...]

    def __post_init__(self):
        n = self.chart.dim
        g = tuple(tuple(tuple(row) for row in plane) for plane in self.gamma)
        if len(g) != n or any(len(p) != n or any(len(r) != n for r in p) for p in g):
            raise ValidationError(f"connection needs {n}^3 symbols")
        for plane in g:
            for row in plane:
                for e in row:
                    if not isinstance(e, Expr):
                        raise ValidationError("connection symbols must be expressions")
                    _require_coords(self.chart, e, "connection")
        object.__setattr__(self, "gamma", g)

    @classmethod
    def zero(cls, chart: Chart):
        z = const(0.0)
        n = chart.dim
        return cls(chart, tuple(tuple((z,) * n for _ in range(n)) for _ in range(n)))


def levi_civita(metric: Metric) -> Connection:
    """Connection of the metric: 0.5 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)."""
    chart = metric.chart
    names = chart.coords
    n = chart.dim
    ginv = metric.inverse()
    g = metric.components
    half = const(0.5)
    planes = []
    for k in range(n):
        plane = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = const(0.0)
                for l in range(n):
                    term = (g[j][l].diff(names[i]) + g[i][l].diff(names[j])
                            - g[i][j].diff(names[l]))
                    acc = acc + ginv[k][l] * term
                row.append((half * acc).simplify())
            plane.append(tuple(row))
        planes.append(tuple(plane))
    return Connection(chart, tuple(planes))


def parallel_residual(connection: Connection, volume: VolumeForm) -> OneForm:
    """Covariant derivative of the volume form: component i is
    d_i rho - rho * gamma^k_{ik}.  Identically zero iff the volume is
    parallel for the connection."""
    if connection.chart != volume.chart:
        raise ChartMismatch("connection and volume live on different charts")
    chart = connection.chart
    names = chart.coords
    n = chart.dim
    rho = volume.density
    comps = []
    for i in range(n):
        acc = rho.diff(names[i])
        for k in range(n):
            acc = acc - rho * connection.gamma[k][i][k]
        comps.append(acc.simplify())
    return OneForm(chart, tuple(comps))


# ---------------------------------------------------------------------------
# operators


class DivOperator:
    """Divergence-type operator over one chart, in one normal form.

    A symbolic operator is D(X) = sum_i X^i theta_i + s * d_i X^i: ``weight``
    is the product-rule weight s and ``theta`` the one-form.  ``density`` is
    the positive density whose divergence the operator is, when the
    construction carries one.  An operator without ``theta`` is a blackbox,
    evaluated only through one stored callable ``fn_fields(fields, points)``
    (one array per field); ``blackbox_operator`` lifts a user's per-field
    callable into it.  An operator with neither is a ValidationError.
    ``kind`` names the construction and decides nothing.  No part may be
    changed once the operator is built: its images are kept.
    """

    def __init__(self, chart: Chart, kind: str, *, weight: float = 1.0,
                 theta: OneForm | None = None,
                 density: Expr | None = None,
                 fn_fields: Callable | None = None):
        self.chart = chart
        self.kind = kind
        self.weight = float(weight)
        if not math.isfinite(self.weight):
            raise ValidationError("weight must be finite")
        if theta is None and fn_fields is None:
            raise ValidationError("an operator needs a one-form theta or a "
                                  "callable fn_fields")
        self.theta = theta
        self.density = density
        self.fn_fields = fn_fields
        # D(X) per field, kept while the field lives; equal fields share one
        self._images = weakref.WeakKeyDictionary()
        # D - D0 per base operator D0, kept while D0 lives
        self._differences = weakref.WeakKeyDictionary()

    def __repr__(self):
        return f"DivOperator(kind={self.kind!r}, chart={self.chart.coords})"

    @property
    def is_symbolic(self) -> bool:
        return self.theta is not None

    def _require_field(self, field: VectorField):
        if field.chart != self.chart:
            raise ChartMismatch("field lives on a different chart")

    def symbolic(self, field: VectorField) -> Expr | None:
        """Expression for D(X), or None for blackbox operators.  Each image
        is built once and kept, with its ``diff`` memos, while its field
        lives; every sweep and evaluation of the operator shares it."""
        image = self._images.get(field)
        if image is not None:
            return image
        self._require_field(field)
        if self.theta is None:
            return None
        s = const(self.weight)
        acc = const(0.0)
        for comp, t, nm in zip(field.components, self.theta.components,
                               self.chart.coords):
            acc = acc + comp * t
            acc = acc + s * comp.diff(nm)
        image = self._images[field] = acc.simplify()
        return image

    def apply(self, field: VectorField, point: Sequence[float]) -> float:
        """Evaluate D(X) at a chart point: the one-row view of apply_many,
        raising EvalDomainError where the value is not finite."""
        self._require_field(field)
        self.chart.require_inside(point)
        value = float(self.apply_many(field, np.asarray([point], dtype=float))[0])
        if not math.isfinite(value):
            raise EvalDomainError(f"D(X) is not finite at {tuple(point)}")
        return value

    def apply_many(self, field: VectorField, points) -> np.ndarray:
        """Evaluate D(X) at an (m, n) array of chart points: the one-field
        view of apply_fields."""
        return self.apply_fields([field], points)[0]

    def apply_fields(self, fields: Sequence[VectorField], points) -> list[np.ndarray]:
        """Evaluate D(X) for each field at an (m, n) array of chart points,
        one array of the caller's own per field; a subtree shared by the
        symbolic images is computed once.  A blackbox callable that returns
        anything but one (m,) array per field is a ValidationError."""
        for field in fields:
            self._require_field(field)
        pts = np.asarray(points, dtype=float)
        arrays = self.chart.arrays(pts)
        if not np.all(self.chart.contains_mask(arrays)):
            raise DomainError("a point lies outside the chart domain")
        if self.theta is None:
            values = [np.asarray(v, dtype=float) for v in self.fn_fields(fields, pts)]
            if len(values) != len(fields) or any(v.shape != pts.shape[:1] for v in values):
                raise ValidationError(f"a blackbox must return one array of shape "
                                      f"({pts.shape[0]},) per field")
            return values
        images = [self.symbolic(x) for x in fields]
        if len(images) == 1:  # one root needs no plan
            return [images[0].eval_many(arrays)]
        return list(eval_roots(images, arrays))

    def as_blackbox(self) -> "DivOperator":
        """Batch-callable wrapper that hides the symbolic structure."""
        return DivOperator(self.chart, "blackbox", weight=self.weight,
                           fn_fields=self.apply_fields)


def _log_gradient(chart: Chart, rho: Expr) -> OneForm:
    """d log rho, componentwise d_i rho / rho."""
    return OneForm(chart, tuple((rho.diff(nm) / rho).simplify()
                                for nm in chart.coords))


def div_volume(volume: VolumeForm) -> DivOperator:
    """Divergence of the volume form: X(rho)/rho + sum_i d_i X^i."""
    rho = volume.density
    return DivOperator(volume.chart, "volume",
                       theta=_log_gradient(volume.chart, rho), density=rho)


def div_metric(metric: Metric) -> DivOperator:
    """Riemannian divergence: sum_i d_i(sqrt(det g) X^i) / sqrt(det g)."""
    root = Expr("sqrt", (metric.det(),)).simplify()
    return DivOperator(metric.chart, "metric",
                       theta=_log_gradient(metric.chart, root), density=root)


def div_affine(connection: Connection) -> DivOperator:
    """Divergence of the connection: minus the trace of the difference map,
    i.e. sum_k d_k X^k + gamma^k_{ik} X^i."""
    chart = connection.chart
    n = chart.dim
    gamma = connection.gamma
    traces = []
    for i in range(n):
        acc = const(0.0)
        for k in range(n):
            acc = acc + gamma[k][i][k]
        traces.append(acc.simplify())
    return DivOperator(chart, "affine", theta=OneForm(chart, tuple(traces)))


def div_sdensity(volume: VolumeForm, s: float) -> DivOperator:
    """Weighted variant X(rho)/rho + s * sum_i d_i X^i; satisfies the product
    rule with weight s instead of 1."""
    rho = volume.density
    return DivOperator(volume.chart, "sdensity", weight=s,
                       theta=_log_gradient(volume.chart, rho), density=rho)


def _combined(kind: str, op: DivOperator, other: DivOperator,
              merge: Callable) -> DivOperator:
    """``merge`` (+ or -) of two operators: part by part on the normal form
    when both are symbolic, otherwise on the two images."""
    if op.chart != other.chart:
        raise ChartMismatch("operators live on different charts")
    chart = op.chart
    weight = merge(op.weight, other.weight)
    if op.is_symbolic and other.is_symbolic:
        theta = tuple(merge(t, u).simplify()
                      for t, u in zip(op.theta.components, other.theta.components))
        return DivOperator(chart, kind, weight=weight, theta=OneForm(chart, theta))

    def fn_fields(fields, pts):
        return [merge(a, b) for a, b in zip(op.apply_fields(fields, pts),
                                            other.apply_fields(fields, pts))]

    return DivOperator(chart, kind, weight=weight, fn_fields=fn_fields)


def difference(op: DivOperator, base: DivOperator) -> DivOperator:
    """E = D - D0, the operator every stage of ``classify`` works on.  It is
    kept on D, weakly keyed by D0, so a repeated ``classify`` of one pair
    reuses E with its images and evaluation plans.  A blackbox E holds D0,
    so D0 then lives as long as D does."""
    diff = op._differences.get(base)
    if diff is None:
        diff = op._differences[base] = _combined("difference", op, base,
                                                 operator.sub)
    return diff


def _pairing(form) -> DivOperator:
    """The weight-0 operator X -> sum_i E_i X^i of a one-form E: symbolic for
    a ``OneForm``, a blackbox for a form held only by ``values_matrix``."""
    if isinstance(form, OneForm):
        return DivOperator(form.chart, "pairing", weight=0.0, theta=form)

    def fn_fields(fields, pts):
        values = form.values_matrix(pts)
        return [np.einsum("mn,mn->m", values, x.values_matrix(pts))
                for x in fields]

    return DivOperator(form.chart, "pairing", weight=0.0, fn_fields=fn_fields)


def perturbed_operator(base: DivOperator, shift) -> DivOperator:
    """Base operator plus the pairing of the one-form ``shift`` with the
    field: symbolic when both are."""
    return _combined("perturbed", base, _pairing(shift), operator.add)


def as_batch(fn: Callable | None, fn_many: Callable | None) -> Callable:
    """``fn_many`` when given; otherwise the pointwise ``fn`` lifted once to
    a batch callable whose last argument, an (m, n) array of points, reaches
    ``fn`` one row at a time as a tuple of floats."""
    if fn_many is not None:
        return fn_many
    return lambda *args: np.array(
        [fn(*args[:-1], tuple(row))
         for row in np.asarray(args[-1], dtype=float).tolist()], dtype=float)


def blackbox_operator(chart: Chart, fn: Callable, fn_many: Callable | None = None,
                      weight: float = 1.0) -> DivOperator:
    """Operator known only through evaluation: fn(field, point) -> float,
    or the batch fn_many(field, points) -> array when given, lifted once
    into the operator's many-field callable as one call per field.

    fn_many must compute each row from that row alone: ``check_axioms``
    evaluates a field at its samples and at the probe points of several
    other fields in one batch."""
    if not callable(fn):
        raise ValidationError("blackbox operator needs a callable")
    batch = as_batch(fn, fn_many)
    return DivOperator(chart, "blackbox", weight=weight,
                       fn_fields=lambda fields, pts: [batch(x, pts) for x in fields])
