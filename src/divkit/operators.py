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

``density`` is the volume the operator is the divergence of, when the
construction has one.  Two operators differ by a one-form exactly when their
weights agree, and that one-form is theta - theta0.  A perturbed operator
over a blackbox base, and every blackbox, has no theta and is known only
through one batch callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ChartMismatch, DomainError, ValidationError
from .expr import EvalDomainError, Expr, const, parse_expr
from .geometry import (
    Chart,
    OneForm,
    VectorField,
    VolumeForm,
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
    "alie_map",
    "torsion_connection",
    "covariant_derivative",
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
            extra = e.variables() - set(chart.coords)
            if extra:
                raise ChartMismatch(f"{what} uses unknown coordinates {sorted(extra)}")
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
        pts = np.asarray(sample_points(self.chart), dtype=float)
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
                    extra = e.variables() - set(self.chart.coords)
                    if extra:
                        raise ChartMismatch(
                            f"connection uses unknown coordinates {sorted(extra)}")
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


def alie_map(connection: Connection, field: VectorField) -> tuple[tuple[Expr, ...], ...]:
    """Matrix of the difference map between the Lie derivative and the
    covariant derivative along the field: entry (k, j) is
    -(d_j X^k + gamma^k_{ij} X^i)."""
    if connection.chart != field.chart:
        raise ChartMismatch("connection and field live on different charts")
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


def torsion_connection(connection: Connection) -> Connection:
    """Connection whose covariant derivative reverses the roles in the
    difference map: lower indices of the symbols are swapped."""
    n = connection.chart.dim
    g = connection.gamma
    swapped = tuple(
        tuple(tuple(g[k][j][i] for j in range(n)) for i in range(n))
        for k in range(n)
    )
    return Connection(connection.chart, swapped)


def covariant_derivative(connection: Connection, direction: VectorField,
                         field: VectorField) -> VectorField:
    """nabla_Y X componentwise: Y^i d_i X^k + gamma^k_{ij} Y^i X^j."""
    chart = connection.chart
    if direction.chart != chart or field.chart != chart:
        raise ChartMismatch("connection, direction, and field must share a chart")
    names = chart.coords
    n = chart.dim
    comps = []
    for k in range(n):
        acc = const(0.0)
        for i in range(n):
            acc = acc + direction.components[i] * field.components[k].diff(names[i])
            for j in range(n):
                acc = acc + connection.gamma[k][i][j] * direction.components[i] * field.components[j]
        comps.append(acc.simplify())
    return VectorField(chart, tuple(comps))


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
    evaluated only through the batch callable ``fn_many(field, points)``.
    ``kind`` names the construction and decides nothing.
    """

    def __init__(self, chart: Chart, kind: str, *, weight: float = 1.0,
                 theta: OneForm | None = None,
                 density: Expr | None = None,
                 fn_many: Callable | None = None):
        self.chart = chart
        self.kind = kind
        self.weight = float(weight)
        self.theta = theta
        self.density = density
        self.fn_many = fn_many

    def __repr__(self):
        return f"DivOperator(kind={self.kind!r}, chart={self.chart.coords})"

    @property
    def is_symbolic(self) -> bool:
        return self.theta is not None

    def _require_field(self, field: VectorField):
        if field.chart != self.chart:
            raise ChartMismatch("field lives on a different chart")

    def symbolic(self, field: VectorField) -> Expr | None:
        """Expression for D(X), or None for blackbox operators."""
        self._require_field(field)
        if self.theta is None:
            return None
        s = const(self.weight)
        acc = const(0.0)
        for comp, t, nm in zip(field.components, self.theta.components,
                               self.chart.coords):
            acc = acc + comp * t
            acc = acc + s * comp.diff(nm)
        return acc.simplify()

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
        """Evaluate D(X) at an (m, n) array of chart points."""
        self._require_field(field)
        pts = np.asarray(points, dtype=float)
        arrays = self.chart.arrays(pts)
        if not np.all(self.chart.contains_mask(arrays)):
            raise DomainError("a point lies outside the chart domain")
        if self.theta is None:
            return np.asarray(self.fn_many(field, pts), dtype=float)
        return self.symbolic(field).eval_many(arrays)

    def as_blackbox(self) -> "DivOperator":
        """Batch-callable wrapper that hides the symbolic structure."""
        return DivOperator(self.chart, "blackbox", weight=self.weight,
                           fn_many=self.apply_many)


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
    if not math.isfinite(s):
        raise ValidationError("weight must be finite")
    rho = volume.density
    return DivOperator(volume.chart, "sdensity", weight=s,
                       theta=_log_gradient(volume.chart, rho), density=rho)


def perturbed_operator(base: DivOperator, shift: OneForm) -> DivOperator:
    """Base operator plus the pairing of a one-form with the field."""
    if base.chart != shift.chart:
        raise ChartMismatch("base operator and shift live on different charts")
    chart = base.chart
    if base.is_symbolic:
        theta = tuple((t + e).simplify()
                      for t, e in zip(base.theta.components, shift.components))
        return DivOperator(chart, "perturbed", weight=base.weight,
                           theta=OneForm(chart, theta))

    def fn_many(field, pts):
        arrays = chart.arrays(pts)
        out = base.apply_many(field, pts)
        for e, c in zip(shift.components, field.components):
            out = out + e.eval_many(arrays) * c.eval_many(arrays)
        return out

    return DivOperator(chart, "perturbed", weight=base.weight, fn_many=fn_many)


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
    or the batch fn_many(field, points) -> array when given."""
    if not callable(fn):
        raise ValidationError("blackbox operator needs a callable")
    return DivOperator(chart, "blackbox", weight=weight,
                       fn_many=as_batch(fn, fn_many))
