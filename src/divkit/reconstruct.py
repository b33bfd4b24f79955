"""Deciding whether an operator is a divergence, and rebuilding its volume.

Given a candidate operator D and a reference divergence D0, the difference
E = D - D0 pairs fields pointwise with a one-form exactly when D satisfies
the product rule at the reference weight, and D satisfies the bracket axiom
exactly when that one-form is closed.  On a chart star-shaped about its
basepoint a closed form integrates to a potential along straight segments,
and exp(potential) times the reference density rebuilds a volume whose
divergence is D.  On charts with excluded disks a nonzero loop integral
certifies that no single volume works globally; otherwise the decision is
rerun on a disk-free slab.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .axioms import _finite_max, library_fields, random_fields, random_scalars
from .errors import ChartMismatch, DomainError, ValidationError
from .expr import Expr, const
from .geometry import (
    Chart,
    OneForm,
    Path,
    VectorField,
    VolumeForm,
    d_oneform,
    line_integral,
    sample_points,
)
from .operators import DivOperator, as_batch
from .quadrature import QuadratureRule, default_rule

__all__ = [
    "DIVERGENCE",
    "CLOSED_NOT_EXACT",
    "NOT_TENSORIAL",
    "NOT_COCYCLE",
    "INCONSISTENT",
    "PointwiseOneForm",
    "NumericScalarField",
    "NumericVolume",
    "ClassifyConfig",
    "Classification",
    "extract_oneform",
    "tensoriality_residual",
    "closedness_residual",
    "integrate_potential",
    "monodromy_period",
    "rebuild_volume",
    "star_shaped_subchart",
    "classify",
]

DIVERGENCE = "divergence"
CLOSED_NOT_EXACT = "closed_not_exact"
NOT_TENSORIAL = "not_tensorial"
NOT_COCYCLE = "not_cocycle"
# Defensive extra verdict: the sampled stages passed but the rebuilt volume
# fails pointwise verification.  Unreachable for operators built by this
# package; an adversarial blackbox can land here.
INCONSISTENT = "inconsistent"

CLOSEDNESS_FD_STEP = 1e-5


class PointwiseOneForm:
    """One-form known only through evaluation: ``fn_many`` maps an (m, n)
    array of points to the (m, n) matrix of components.  A pointwise
    ``fn(point) -> components`` alone is lifted to it row by row."""

    def __init__(self, chart: Chart, fn: Callable | None,
                 fn_many: Callable | None = None):
        self.chart = chart
        self.fn_many = as_batch(fn, fn_many)

    def values_at(self, point: Sequence[float]) -> tuple[float, ...]:
        return tuple(self.values_matrix(np.asarray([point], dtype=float))[0].tolist())

    def values_matrix(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn_many(pts), dtype=float)


class NumericScalarField:
    """Scalar function held as one batch callable ``fn_many(points)``; a
    pointwise ``fn(point)`` alone is lifted to it row by row."""

    def __init__(self, chart: Chart, fn: Callable | None,
                 fn_many: Callable | None = None):
        self.chart = chart
        self.fn_many = as_batch(fn, fn_many)

    def __call__(self, point: Sequence[float]) -> float:
        return float(self.many(np.asarray([point], dtype=float))[0])

    def many(self, pts) -> np.ndarray:
        return np.asarray(self.fn_many(np.asarray(pts, dtype=float)), dtype=float)


@dataclass(frozen=True)
class NumericVolume:
    """Volume form whose density is only evaluable, not symbolic."""

    chart: Chart
    density: NumericScalarField

    def __call__(self, point: Sequence[float]) -> float:
        return self.density(point)


@dataclass(frozen=True)
class ClassifyConfig:
    seed: int = 0
    n_points: int = 100
    n_fields: int = 8
    n_scalars: int = 4
    tol: float = 1e-6
    fd_step_scale: float = 1e-5
    loops: tuple = ()  # (name, Path) pairs; only consulted on holed charts

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValidationError("tolerance must be positive")
        if min(self.n_points, self.n_fields) < 1 or self.n_scalars < 1:
            raise ValidationError("sample counts must be positive")


@dataclass(frozen=True)
class Classification:
    """Outcome of the decision pipeline: one verdict plus its evidence."""

    verdict: str
    oneform: object
    residuals: dict
    periods: tuple = ()
    potential: NumericScalarField | None = None
    volume: NumericVolume | None = None
    witness: dict | None = None
    restricted_to: Chart | None = None


# ---------------------------------------------------------------------------
# stage operations


def _unit_fields(chart: Chart) -> list[VectorField]:
    n = chart.dim
    return [
        VectorField(chart, tuple(const(1.0) if j == i else const(0.0)
                                 for j in range(n)))
        for i in range(n)
    ]


def extract_oneform(op: DivOperator, base: DivOperator):
    """Candidate one-form E with E_i = (D - D0)(unit field i).

    For two symbolic operators that is theta - theta0; a batch callable
    otherwise.
    """
    if op.chart != base.chart:
        raise ChartMismatch("operators live on different charts")
    chart = op.chart
    if op.is_symbolic and base.is_symbolic:
        return OneForm(chart, tuple(
            (t - t0).simplify()
            for t, t0 in zip(op.theta.components, base.theta.components)))
    units = _unit_fields(chart)

    def fn_many(pts):
        return np.stack(
            [op.apply_many(u, pts) - base.apply_many(u, pts) for u in units],
            axis=1)

    return PointwiseOneForm(chart, None, fn_many)


def _closedness_details(form, pts: np.ndarray, fd_step: float):
    """Max |d_i E_j - d_j E_i| with its index pair and point."""
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
        # [point, axis, component]
        partials = _central_partials(form.values_matrix, pts, fd_step)

        def pair_values(i, j):
            return partials[:, i, j] - partials[:, j, i]

    worst, pair, where = 0.0, None, None
    for i in range(n):
        for j in range(i + 1, n):
            local, k = _finite_max(np.abs(pair_values(i, j)))
            if k is None:
                return math.inf, (i, j), None
            if local > worst:
                worst, pair, where = local, (i, j), tuple(pts[k])
    return worst, pair, where


def closedness_residual(form, points, fd_step: float = CLOSEDNESS_FD_STEP) -> float:
    """Max over sample points and index pairs of |d_i E_j - d_j E_i|.

    Symbolic forms are differentiated exactly; forms held as a batch
    callable by central differences with an absolute step.
    """
    pts = np.asarray(points, dtype=float)
    worst, _, _ = _closedness_details(form, pts, fd_step)
    return worst


def integrate_potential(form, chart: Chart | None = None,
                        rule: QuadratureRule | None = None) -> NumericScalarField:
    """Potential of a closed form, integrated along the straight segment from
    the chart basepoint; the basepoint value is 0 by construction.

    The chart must be free of excluded disks so every segment stays inside.
    """
    chart = chart or form.chart
    if chart.disks:
        raise ValidationError("potential integration needs a disk-free chart")
    rule = rule or default_rule()
    t_nodes, t_weights = rule.mapped(0.0, 1.0, segments=rule.segment_count(1.0))
    base = np.asarray(chart.basepoint, dtype=float)

    def fn_many(pts):
        pts = np.asarray(pts, dtype=float)
        m, n = pts.shape
        deltas = pts - base[None, :]
        seg = base[None, None, :] + t_nodes[None, :, None] * deltas[:, None, :]
        vals = form.values_matrix(seg.reshape(m * len(t_nodes), n))
        vals = vals.reshape(m, len(t_nodes), n)
        integrand = np.einsum("mkn,mn->mk", vals, deltas)
        return integrand @ t_weights

    return NumericScalarField(chart, None, fn_many)


def monodromy_period(form, loop: Path,
                     rule: QuadratureRule | None = None) -> float:
    """Integral of the form around a closed loop.

    A value bounded away from zero certifies the form is closed but not
    exact, so no single volume reproduces the operator on the whole chart.
    """
    if not loop.is_loop():
        raise ValidationError("monodromy needs a closed loop")
    return line_integral(form, loop, rule)


def rebuild_volume(potential: NumericScalarField, base: VolumeForm) -> NumericVolume:
    """Volume with density exp(potential) times the reference density."""
    if potential.chart.coords != base.chart.coords:
        raise ChartMismatch("potential and reference volume disagree on coordinates")
    chart = potential.chart
    rho = base.density

    def fn_many(pts):
        return np.exp(potential.many(pts)) * rho.eval_many(chart.arrays(pts))

    return NumericVolume(chart, NumericScalarField(chart, None, fn_many))


def star_shaped_subchart(chart: Chart) -> Chart | None:
    """Largest axis-aligned slab of the box clear of every excluded disk.

    Returns a disk-free chart on the same coordinates, or None when no slab
    of usable thickness exists.
    """
    if not chart.disks:
        return chart
    best, best_volume = None, 0.0
    n = chart.dim
    for axis in range(n):
        a, b = chart.box[axis]
        low_cut = min(c[axis] - r for c, r in chart.disks)
        high_cut = max(c[axis] + r for c, r in chart.disks)
        for lo, hi in ((a, low_cut), (high_cut, b)):
            if hi - lo <= 1e-9:
                continue
            box = tuple((lo, hi) if i == axis else chart.box[i] for i in range(n))
            volume = 1.0
            for lo_i, hi_i in box:
                volume *= hi_i - lo_i
            if volume > best_volume:
                best, best_volume = box, volume
    if best is None:
        return None
    return Chart(chart.coords, best)


# ---------------------------------------------------------------------------
# the decision pipeline


def _central_partials(fn_many: Callable, pts: np.ndarray, h: float) -> np.ndarray:
    """Central differences of a batch function along each coordinate axis:
    entry [:, i] (or [:, i, ...] for array values) is the i-th partial."""
    n = pts.shape[1]
    cols = []
    for i in range(n):
        shift = np.zeros(n)
        shift[i] = h
        cols.append((fn_many(pts + shift) - fn_many(pts - shift)) / (2.0 * h))
    return np.stack(cols, axis=1)


def _tensoriality_stage(op, base, fields, scalars, pts):
    chart = op.chart
    arrays = chart.arrays(pts)
    symbolic = op.is_symbolic and base.is_symbolic
    worst, witness = 0.0, None
    for fname, f in scalars:
        f_vals = None if symbolic else f.eval_many(arrays)
        for xname, x in fields:
            fx = VectorField(chart, tuple((f * c).simplify()
                                          for c in x.components))
            if symbolic:
                gap = (op.symbolic(fx) - base.symbolic(fx)) \
                    - f * (op.symbolic(x) - base.symbolic(x))
                vals = np.abs(gap.eval_many(arrays))
            else:
                dfx = op.apply_many(fx, pts) - base.apply_many(fx, pts)
                dx = op.apply_many(x, pts) - base.apply_many(x, pts)
                vals = np.abs(dfx - f_vals * dx)
            local, k = _finite_max(vals)
            if local > worst:
                worst = local
                witness = {"scalar": fname, "field": xname, "residual": local,
                           "point": None if k is None else tuple(pts[k])}
    return worst, witness


def tensoriality_residual(op: DivOperator, base: DivOperator, f: Expr,
                          field: VectorField, point: Sequence[float]) -> float:
    """|(D - D0)(fX) - f * (D - D0)(X)| at one point.

    Zero for every f and X exactly when the difference pairs fields with a
    one-form, i.e. when D obeys the product rule at the reference weight.
    """
    op.chart.require_inside(point)
    worst, _ = _tensoriality_stage(op, base, [("X", field)], [("f", f)],
                                   np.asarray([point], dtype=float))
    if not math.isfinite(worst):
        raise DomainError("residual could not be evaluated at this point")
    return worst


def _density_verification(op, density: NumericScalarField, weight: float,
                          fields, pts: np.ndarray, h: float) -> float:
    """Max |D(X) - divergence of the rebuilt density applied to X|.

    The density gradient is taken by central differences; the flat part of
    the field divergence is exact.
    """
    chart = density.chart
    arrays = chart.arrays(pts)
    n = chart.dim
    rho = density.many(pts)
    grad = _central_partials(density.many, pts, h)
    worst = 0.0
    for _, x in fields:
        comp_vals = [c.eval_many(arrays) for c in x.components]
        div_flat = sum(c.diff(nm).eval_many(arrays)
                       for c, nm in zip(x.components, chart.coords))
        rebuilt = sum(grad[:, i] * comp_vals[i] for i in range(n)) / rho \
            + weight * div_flat
        local, _ = _finite_max(np.abs(op.apply_many(x, pts) - rebuilt))
        worst = max(worst, local)
    return worst


def _gradient_verification(op, base, potential: NumericScalarField,
                           fields, pts: np.ndarray, h: float) -> float:
    """Max |D(X) - D0(X) - X(potential)| with a central-difference gradient.

    Used when the base operator carries no reference density to rescale.
    """
    chart = potential.chart
    arrays = chart.arrays(pts)
    n = chart.dim
    grad = _central_partials(potential.many, pts, h)
    worst = 0.0
    for _, x in fields:
        comp_vals = [c.eval_many(arrays) for c in x.components]
        pairing = sum(grad[:, i] * comp_vals[i] for i in range(n))
        gap = op.apply_many(x, pts) - base.apply_many(x, pts) - pairing
        local, _ = _finite_max(np.abs(gap))
        worst = max(worst, local)
    return worst


def _restricted(op: DivOperator, sub: Chart, parent: Chart) -> DivOperator:
    """Batch-callable view of an operator on a disk-free subchart."""

    def fn_many(field, pts):
        return op.apply_many(VectorField(parent, field.components), pts)

    return DivOperator(sub, "blackbox", weight=op.weight, fn_many=fn_many)


def classify(op: DivOperator, base: DivOperator, chart: Chart | None = None,
             config: ClassifyConfig | None = None) -> Classification:
    """Decide how the candidate operator relates to the reference divergence.

    Stages: sampled tensoriality of the difference, closedness of the
    extracted one-form, then either potential integration plus volume
    rebuild and pointwise verification (disk-free chart) or loop periods
    followed by the same rebuild on a disk-free slab (holed chart).
    """
    if op.chart != base.chart:
        raise ChartMismatch("operators live on different charts")
    if chart is not None and chart != op.chart:
        raise ChartMismatch("classification chart differs from the operators'")
    config = config or ClassifyConfig()
    chart = op.chart
    rng = np.random.default_rng(config.seed)
    fields = random_fields(chart, config.n_fields, rng) + library_fields(chart)
    scalars = random_scalars(chart, config.n_scalars, rng)
    pts = np.asarray(sample_points(chart, config.n_points, config.seed),
                     dtype=float)
    residuals: dict = {}

    tens, witness = _tensoriality_stage(op, base, fields, scalars, pts)
    residuals["tensoriality"] = tens
    form = extract_oneform(op, base)
    if tens > config.tol:
        return Classification(NOT_TENSORIAL, form, residuals, witness=witness)

    closed, pair, where = _closedness_details(form, pts, CLOSEDNESS_FD_STEP)
    residuals["closedness"] = closed
    if closed > config.tol:
        return Classification(NOT_COCYCLE, form, residuals,
                              witness={"residual": closed, "indices": pair,
                                       "point": where})

    periods: tuple = ()
    if chart.disks:
        periods = tuple((name, monodromy_period(form, loop))
                        for name, loop in config.loops)
        obstructed = [(nm, v) for nm, v in periods if abs(v) > config.tol]
        if obstructed:
            nm, v = max(obstructed, key=lambda kv: abs(kv[1]))
            return Classification(CLOSED_NOT_EXACT, form, residuals,
                                  periods=periods,
                                  witness={"loop": nm, "period": v})
        work_chart = star_shaped_subchart(chart)
        if work_chart is None:
            raise ValidationError(
                "potential stage: no disk-free slab to integrate on")
    else:
        work_chart = chart

    restricted = work_chart is not chart
    potential = integrate_potential(form, work_chart)
    verify_op = _restricted(op, work_chart, chart) if restricted else op
    verify_base = _restricted(base, work_chart, chart) if restricted else base
    verify_fields = library_fields(work_chart)
    verify_pts = np.asarray(
        sample_points(work_chart, min(config.n_points, 50), config.seed),
        dtype=float)
    h = config.fd_step_scale * work_chart.min_side

    volume = None
    if base.density is not None:
        volume = rebuild_volume(
            potential, VolumeForm(base.chart, base.density, validate=False))
        verify = _density_verification(verify_op, volume.density, base.weight,
                                       verify_fields, verify_pts, h)
    else:
        verify = _gradient_verification(verify_op, verify_base, potential,
                                        verify_fields, verify_pts, h)
    residuals["verification"] = verify
    restricted_to = work_chart if restricted else None
    if verify > config.tol:
        return Classification(INCONSISTENT, form, residuals, periods=periods,
                              potential=potential, volume=volume,
                              witness={"residual": verify},
                              restricted_to=restricted_to)
    return Classification(DIVERGENCE, form, residuals, periods=periods,
                          potential=potential, volume=volume,
                          restricted_to=restricted_to)
