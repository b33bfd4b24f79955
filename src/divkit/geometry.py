"""Charts, fields, forms, paths, and the calculus between them.

A chart is an open axis-aligned box in R^n with finitely many closed round
disks removed.  Everything defined on a chart carries its chart, and mixing
charts is an error.  Scalar functions, field components, densities, and path
components are all expression trees from divkit.expr.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ChartMismatch, DomainError, ValidationError
from .expr import FUNCTIONS, Expr, _IDENT_RE, const, parse_expr
from .quadrature import QuadratureRule, default_rule

__all__ = [
    "Chart",
    "VectorField",
    "OneForm",
    "VolumeForm",
    "Path",
    "sample_points",
    "apply_field",
    "bracket",
    "lie_coefficient",
    "lie_derivative_top",
    "d_function",
    "d_oneform",
    "line_integral",
]

# Sampling defaults shared by validation and the axiom checker.
STANDARD_SAMPLE_COUNT = 100
STANDARD_SEED = 0
MARGIN_FRACTION = 0.05


@dataclass(frozen=True)
class Chart:
    """Open box with excluded closed disks.

    ``disks`` is a tuple of ((center...), radius) pairs; ``basepoint``
    defaults to the box center and must lie in the domain.
    """

    coords: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    disks: tuple[tuple[tuple[float, ...], float], ...] = ()
    basepoint: tuple[float, ...] | None = None

    def __post_init__(self):
        coords = tuple(self.coords)
        if not coords:
            raise ValidationError("chart needs at least one coordinate")
        if len(set(coords)) != len(coords):
            raise ValidationError("coordinate names must be distinct")
        for nm in coords:
            if not isinstance(nm, str) or not _IDENT_RE.fullmatch(nm):
                raise ValidationError(f"invalid coordinate name {nm!r}")
            if nm in FUNCTIONS:
                raise ValidationError(f"coordinate {nm!r} shadows a builtin function")
        box = tuple((float(a), float(b)) for a, b in self.box)
        if len(box) != len(coords):
            raise ValidationError("box must give one interval per coordinate")
        for a, b in box:
            if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
                raise ValidationError(f"invalid box interval ({a}, {b})")
        disks = tuple((tuple(float(c) for c in center), float(r))
                      for center, r in self.disks)
        for center, r in disks:
            if len(center) != len(coords):
                raise ValidationError("disk center has wrong dimension")
            if not (r > 0.0) or not math.isfinite(r):
                raise ValidationError("disk radius must be positive and finite")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "disks", disks)
        if self.basepoint is None:
            bp = tuple(0.5 * (a + b) for a, b in box)
        else:
            bp = tuple(float(c) for c in self.basepoint)
            if len(bp) != len(coords):
                raise ValidationError("basepoint has wrong dimension")
        object.__setattr__(self, "basepoint", bp)
        if not self.contains(bp):
            raise ValidationError(
                "basepoint lies outside the chart domain; pass one explicitly")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def min_side(self) -> float:
        return min(b - a for a, b in self.box)

    @property
    def margin(self) -> float:
        """Standard sampling margin: 5% of the shortest box side."""
        return MARGIN_FRACTION * self.min_side

    def contains(self, point: Sequence[float], margin: float = 0.0) -> bool:
        point = tuple(point)
        if len(point) != self.dim:
            return False
        for p, (a, b) in zip(point, self.box):
            if not (a + margin < p < b - margin):
                return False
        for center, r in self.disks:
            if math.dist(point, center) <= r + margin:
                return False
        return True

    def contains_mask(self, arrays: dict, margin: float = 0.0) -> np.ndarray:
        """Vectorised containment over coordinate arrays."""
        cols = [np.asarray(arrays[nm], dtype=float) for nm in self.coords]
        ok = np.ones_like(cols[0], dtype=bool)
        for col, (a, b) in zip(cols, self.box):
            ok &= (col > a + margin) & (col < b - margin)
        for center, r in self.disks:
            d2 = np.zeros_like(cols[0])
            for col, c in zip(cols, center):
                d2 = d2 + (col - c) ** 2
            ok &= d2 > (r + margin) ** 2
        return ok

    def require_inside(self, point: Sequence[float]):
        if not self.contains(point):
            raise DomainError(f"point {tuple(point)} is outside the chart domain")

    def env(self, point: Sequence[float]) -> dict:
        return dict(zip(self.coords, map(float, point)))

    def arrays(self, points: np.ndarray) -> dict:
        pts = np.asarray(points, dtype=float)
        return {nm: pts[:, i] for i, nm in enumerate(self.coords)}


def sample_points(chart: Chart, count: int = STANDARD_SAMPLE_COUNT,
                  seed: int = STANDARD_SEED) -> list[tuple[float, ...]]:
    """Deterministic interior samples, kept ``chart.margin`` away from the
    box boundary and from every disk."""
    if count < 1:
        raise ValidationError("sample count must be positive")
    rng = np.random.default_rng(seed)
    margin = chart.margin
    lows = np.array([a + margin for a, _ in chart.box])
    highs = np.array([b - margin for _, b in chart.box])
    if np.any(lows >= highs):
        raise ValidationError("chart is too thin to sample at the standard margin")
    out: list[tuple[float, ...]] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200:
            raise ValidationError("rejection sampling failed; disks crowd the chart")
        draw = rng.uniform(lows, highs, size=(max(count, 64), chart.dim))
        mask = chart.contains_mask(chart.arrays(draw), margin=margin)
        for row in draw[mask]:
            out.append(tuple(row))
            if len(out) == count:
                break
    return out


def _check_components(chart: Chart, components, what: str) -> tuple[Expr, ...]:
    comps = tuple(components)
    if len(comps) != chart.dim:
        raise ValidationError(f"{what} needs {chart.dim} components, got {len(comps)}")
    for c in comps:
        if not isinstance(c, Expr):
            raise ValidationError(f"{what} components must be expressions")
        extra = c.variables() - set(chart.coords)
        if extra:
            raise ChartMismatch(f"{what} uses unknown coordinates {sorted(extra)}")
    return comps


class _Components:
    """Shared behaviour for componentwise objects on a chart."""

    chart: Chart
    components: tuple[Expr, ...]

    @classmethod
    def from_strings(cls, chart: Chart, texts: Iterable[str]):
        return cls(chart, tuple(parse_expr(t, chart.coords) for t in texts))

    def values_at(self, point: Sequence[float]) -> tuple[float, ...]:
        env = self.chart.env(point)
        return tuple(c.eval(env) for c in self.components)

    def values_many(self, arrays: dict) -> list[np.ndarray]:
        return [c.eval_many(arrays) for c in self.components]

    def values_matrix(self, pts: np.ndarray) -> np.ndarray:
        """Component values at an (m, n) point array, shape (m, n)."""
        return np.stack(self.values_many(self.chart.arrays(pts)), axis=1)


@dataclass(frozen=True)
class VectorField(_Components):
    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "components",
                           _check_components(self.chart, self.components, "vector field"))


@dataclass(frozen=True)
class OneForm(_Components):
    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "components",
                           _check_components(self.chart, self.components, "one-form"))


@dataclass(frozen=True)
class VolumeForm:
    """Top-degree form written as density * dx1...dxn with positive density.

    Positivity is checked on the standard sample set at construction; pass
    ``validate=False`` only for densities already known positive.
    """

    chart: Chart
    density: Expr
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if not isinstance(self.density, Expr):
            raise ValidationError("density must be an expression")
        extra = self.density.variables() - set(self.chart.coords)
        if extra:
            raise ChartMismatch(f"density uses unknown coordinates {sorted(extra)}")
        if validate:
            pts = np.asarray(sample_points(self.chart), dtype=float)
            vals = self.density.eval_many(self.chart.arrays(pts))
            if not np.all(np.isfinite(vals)) or not np.all(vals > 0.0):
                raise ValidationError("density must be positive on the chart")

    @classmethod
    def from_string(cls, chart: Chart, text: str, validate: bool = True):
        return cls(chart, parse_expr(text, chart.coords), validate)


_T = ("t",)


@dataclass(frozen=True)
class Path:
    """Parametrised curve [0, 1] -> chart, components in the variable t."""

    chart: Chart
    components: tuple[Expr, ...]
    segments: int | None = None

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.chart.dim:
            raise ValidationError("path needs one component per coordinate")
        for c in comps:
            if not isinstance(c, Expr):
                raise ValidationError("path components must be expressions")
            extra = c.variables() - {"t"}
            if extra:
                raise ValidationError(f"path components may only use t, found {sorted(extra)}")
        object.__setattr__(self, "components", comps)
        if self.segments is not None and self.segments < 1:
            raise ValidationError("segment count must be positive")

    @classmethod
    def from_strings(cls, chart: Chart, texts: Iterable[str],
                     segments: int | None = None):
        return cls(chart, tuple(parse_expr(t, _T) for t in texts), segments)

    def point_at(self, t: float) -> tuple[float, ...]:
        env = {"t": float(t)}
        return tuple(c.eval(env) for c in self.components)

    def velocity(self) -> tuple[Expr, ...]:
        return tuple(c.diff("t") for c in self.components)

    def is_loop(self, tol: float = 1e-12) -> bool:
        p0 = self.point_at(0.0)
        p1 = self.point_at(1.0)
        return max(abs(a - b) for a, b in zip(p0, p1)) <= tol


# ---------------------------------------------------------------------------
# derivative operations


def _require_same_chart(a_chart: Chart, b_chart: Chart):
    if a_chart != b_chart:
        raise ChartMismatch("objects live on different charts")


def _require_scalar_on(chart: Chart, f: Expr):
    if not isinstance(f, Expr):
        raise ValidationError("expected an expression")
    extra = f.variables() - set(chart.coords)
    if extra:
        raise ChartMismatch(f"scalar uses unknown coordinates {sorted(extra)}")


def apply_field(field: VectorField, f: Expr) -> Expr:
    """Directional derivative X(f) = sum_i X^i df/dx_i."""
    _require_scalar_on(field.chart, f)
    total = const(0.0)
    for comp, name in zip(field.components, field.chart.coords):
        total = total + comp * f.diff(name)
    return total.simplify()


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket [X, Y], components X(Y^k) - Y(X^k)."""
    _require_same_chart(x.chart, y.chart)
    comps = []
    for k in range(x.chart.dim):
        acc = const(0.0)
        for j, name in enumerate(x.chart.coords):
            acc = acc + x.components[j] * y.components[k].diff(name)
            acc = acc - y.components[j] * x.components[k].diff(name)
        comps.append(acc.simplify())
    return VectorField(x.chart, tuple(comps))


def lie_coefficient(field: VectorField, density: Expr) -> Expr:
    """X(rho) + rho * sum_i dX^i/dx_i, unsimplified, for any density
    expression (positive or not, nested or not)."""
    total = const(0.0)
    for comp, name in zip(field.components, field.chart.coords):
        total = total + comp * density.diff(name)
        total = total + density * comp.diff(name)
    return total


def lie_derivative_top(field: VectorField, volume: VolumeForm) -> Expr:
    """Coefficient of the Lie derivative of the volume form along the field:
    X(rho) + rho * sum_i dX^i/dx_i."""
    _require_same_chart(field.chart, volume.chart)
    return lie_coefficient(field, volume.density).simplify()


def d_function(chart: Chart, f: Expr) -> OneForm:
    """Exterior derivative of a scalar, as a one-form."""
    _require_scalar_on(chart, f)
    return OneForm(chart, tuple(f.diff(nm).simplify() for nm in chart.coords))


def d_oneform(form: OneForm) -> tuple[tuple[Expr, ...], ...]:
    """Components of the exterior derivative: entry (i, j) is
    dE_j/dx_i - dE_i/dx_j."""
    names = form.chart.coords
    n = len(names)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = form.components[j].diff(names[i]) - form.components[i].diff(names[j])
            row.append(e.simplify())
        rows.append(tuple(row))
    return tuple(rows)


def line_integral(form, path: Path,
                  rule: QuadratureRule | None = None) -> float:
    """Integral of a one-form along a path by composite quadrature.

    The form is anything with a chart and ``values_matrix`` (a symbolic
    ``OneForm`` or a ``PointwiseOneForm``).  Every quadrature node must land inside
    the chart domain and the form must be finite there.
    """
    _require_same_chart(form.chart, path.chart)
    rule = rule or default_rule()
    segments = path.segments if path.segments is not None else rule.segment_count(1.0)
    t_nodes, t_weights = rule.mapped(0.0, 1.0, segments=segments)
    t_arrays = {"t": t_nodes}
    pts = np.stack([c.eval_many(t_arrays) for c in path.components], axis=1)
    mask = path.chart.contains_mask(path.chart.arrays(pts))
    if not np.all(mask):
        bad = int(np.argmin(mask))
        raise DomainError(
            f"path leaves the chart domain at {tuple(map(float, pts[bad]))}")
    vels = np.stack([v.eval_many(t_arrays) for v in path.velocity()], axis=1)
    integrand = np.einsum("mn,mn->m", form.values_matrix(pts), vels)
    if not np.all(np.isfinite(integrand)):
        raise DomainError("one-form is singular along the path")
    return float(t_weights @ integrand)
