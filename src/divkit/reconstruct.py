"""Deciding whether an operator is a divergence, and rebuilding its volume.

Given a candidate operator D and a reference divergence D0, every stage
works on the difference E = D - D0.  E pairs fields pointwise with a
one-form exactly when its Leibniz residual at weight 0 vanishes, i.e. when
D satisfies the product rule at the reference weight; that residual is
sampled by the Leibniz-only case of the axiom checker's sweep.  D satisfies
the bracket axiom exactly when that one-form is closed, sampled by the
cocycle-only case over the unit fields e_i: as [e_i, e_j] = 0 and
E(e_j) = E_j, its rows are |d_i E_j - d_j E_i|.  On a chart star-shaped
about its basepoint a closed form integrates to a potential along straight
segments, and exp(potential) times the reference density rebuilds a
volume whose divergence is D.  On charts with excluded disks a
nonzero loop integral certifies that no single volume works globally;
otherwise the decision is rerun on a disk-free slab.  The potential and
its check are one segment quadrature, ``_segment_integrals``: between
consecutive slab points a, b, P(b) - P(a) must equal the integral of E's
one-form along the chord [a, b], however D and D0 are held.  By Stokes
each gap is the closedness defect integrated over the triangle (basepoint,
a, b), so the check takes no finite difference and covers areas, not
points.  When D0 is the divergence of rho0, that says D is the divergence
of exp(P) rho0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .axioms import (_Battery, _generated, _maxima, _require_step,
                     _residuals, _units, leibniz_residual)
from .errors import ChartMismatch, DomainError, ValidationError
from .expr import Expr
from .geometry import (
    Chart,
    Path,
    VectorField,
    VolumeForm,
    _Components,
    line_integral,
    sample_points,
)
from .operators import DivOperator, _pairing, as_batch, difference
from .quadrature import _count, _curve_integrals

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
# Defensive extra verdict: the sampled stages passed but the potential fails
# its verification along chords.  Unreachable for operators built by this
# package; an adversarial blackbox can land here.
INCONSISTENT = "inconsistent"


class PointwiseOneForm:
    """One-form known only through evaluation: ``fn_many`` maps an (m, n)
    array of points to the (m, n) matrix of components, each row from that
    row alone.  A pointwise ``fn(point) -> components`` alone is lifted to
    it row by row."""

    def __init__(self, chart: Chart, fn: Callable | None,
                 fn_many: Callable | None = None):
        self.chart = chart
        self.fn_many = as_batch(fn, fn_many)

    values_at = _Components.values_at  # EvalDomainError where not finite

    def values_matrix(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        self.chart.arrays(pts)  # DomainError unless an (m, n) point array
        if len(pts) == 0:  # a lifted fn would give shape (0,) here
            return np.zeros(pts.shape)
        values = np.asarray(self.fn_many(pts), dtype=float)
        if values.shape != pts.shape:
            raise ValidationError(f"a one-form callable must return an array "
                                  f"of shape {pts.shape}, not {values.shape}")
        return values


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
        pts = np.asarray(pts, dtype=float)
        self.chart.arrays(pts)  # DomainError unless an (m, n) point array
        values = np.asarray(self.fn_many(pts), dtype=float)
        if values.shape != pts.shape[:1]:
            raise ValidationError(f"a scalar callable must return an array "
                                  f"of shape ({len(pts)},), not {values.shape}")
        return values


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
        _require_step(self.fd_step_scale)
        for name, least in (("seed", 0), ("n_points", 1), ("n_fields", 1),
                            ("n_scalars", 1)):
            _count(getattr(self, name), name, least)


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


def extract_oneform(op: DivOperator, base: DivOperator):
    """Candidate one-form of E = D - D0, with E_i = E(unit field i).

    For two symbolic operators that is theta - theta0; a batch callable
    otherwise.
    """
    diff = difference(op, base)
    if diff.is_symbolic:
        return diff.theta
    units = [u for _, u in _units(diff.chart).fields]
    return PointwiseOneForm(diff.chart, None, lambda pts: np.stack(
        diff.apply_fields(units, pts), axis=1))


def _worst(labels, values: np.ndarray, pts: np.ndarray):
    """The largest |residual| of a sweep's (residuals x points) array with its
    row's label and point, the first such row winning; a row with no finite
    value counts as inf with no point.  (0.0, None, None) when all are 0."""
    worst, label, where = 0.0, None, None
    for lab, (local, k, _) in zip(labels, _maxima(values)):
        if local > worst:
            worst, label, where = local, lab, None if k is None else tuple(pts[k])
    return worst, label, where


def _closedness_details(op: DivOperator, pts: np.ndarray, fd_step_scale: float):
    """Max |d_i E_j - d_j E_i| with its index pair and point, for the
    one-form E that pairs fields with the operator: the cocycle rows of the
    sweep over the chart's unit fields e_i, where [e_i, e_j] = 0 and
    op(e_j) = E_j.  A blackbox is differentiated with ``fd_step_scale``."""
    pairs = list(itertools.combinations(range(op.chart.dim), 2))
    return _worst(pairs, _residuals(op, _units(op.chart), 0.0, pts,
                                    fd_step_scale), pts)


def closedness_residual(form, points, fd_step_scale: float = 1e-5) -> float:
    """Max over sample points and index pairs of |d_i E_j - d_j E_i|.

    Symbolic forms are differentiated exactly; forms held as a batch
    callable by central differences with step ``fd_step_scale`` times the
    chart's shortest side, which must be finite and positive.  The points
    must form an (m, n) array inside the chart, or DomainError is raised.
    """
    _require_step(fd_step_scale)
    chart = form.chart
    pts = np.asarray(points, dtype=float)
    if not np.all(chart.contains_mask(chart.arrays(pts))):
        raise DomainError("a point lies outside the chart domain")
    return _closedness_details(_pairing(form), pts, fd_step_scale)[0]


def _segment_integrals(form, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integral of the form along each straight segment a[k] -> b[k] of two
    (m, n) point arrays: the curves a + t (b - a) of ``_curve_integrals``,
    whose nodes of [0, 1] are split as for unit length."""
    deltas = b - a
    return _curve_integrals(form, lambda t: (
        a[:, None, :] + t[None, :, None] * deltas[:, None, :], deltas[:, None, :]))


def integrate_potential(form, chart: Chart | None = None) -> NumericScalarField:
    """Potential of a closed form, integrated along the straight segment from
    the chart basepoint; the basepoint value is 0 by construction.

    ``chart`` defaults to the form's own.  It must use the form's
    coordinates with its box inside the form's box (else ChartMismatch) and
    be free of excluded disks, so every segment stays inside.
    """
    chart = chart or form.chart
    if chart.coords != form.chart.coords or any(
            a < lo or b > hi
            for (a, b), (lo, hi) in zip(chart.box, form.chart.box)):
        raise ChartMismatch("potential chart must lie inside the form's chart")
    if chart.disks:
        raise ValidationError("potential integration needs a disk-free chart")
    base = np.asarray(chart.basepoint, dtype=float)
    return NumericScalarField(chart, None, lambda pts: _segment_integrals(
        form, np.broadcast_to(base, pts.shape), pts))


def monodromy_period(form, loop: Path) -> float:
    """Integral of the form around a closed loop.

    A value bounded away from zero certifies the form is closed but not
    exact, so no single volume reproduces the operator on the whole chart.
    """
    if not loop.is_loop():
        raise ValidationError("monodromy needs a closed loop")
    return line_integral(form, loop)


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


def _tensoriality_stage(diff: DivOperator, battery: _Battery, pts):
    """Worst Leibniz residual of E = D - D0 at weight 0 over the battery,
    with its witness: the Leibniz-only case of the axiom sweep
    ``axioms._residuals``."""
    labels = [{"scalar": fname, "field": xname} for fname, _ in battery.scalars
              for xname, _ in battery.fields]
    worst, label, where = _worst(labels, _residuals(diff, battery, 0.0, pts), pts)
    return worst, None if label is None else {**label, "residual": worst,
                                              "point": where}


def tensoriality_residual(op: DivOperator, base: DivOperator, f: Expr,
                          field: VectorField, point: Sequence[float]) -> float:
    """|(D - D0)(fX) - f * (D - D0)(X)| at one point.

    Zero for every f and X exactly when the difference pairs fields with a
    one-form, i.e. when D obeys the product rule at the reference weight.
    """
    return leibniz_residual(difference(op, base), f, field, point, weight=0.0)


def _verification(form, potential: NumericScalarField, pts: np.ndarray) -> float:
    """Max over consecutive points a, b of |P(b) - P(a) - int_a^b form| for
    the potential P.  By Stokes each gap is the integral of the form's
    closedness defect over the triangle (basepoint, a, b), plus quadrature
    error; no finite difference is taken."""
    values = potential.many(pts)
    gaps = values[1:] - values[:-1] - _segment_integrals(form, pts[:-1], pts[1:])
    return _maxima(gaps[None, :])[0][0]


def classify(op: DivOperator, base: DivOperator,
             config: ClassifyConfig | None = None) -> Classification:
    """Decide how the candidate operator relates to the reference divergence.

    Stages, each on the difference E = D - D0: sampled tensoriality of E,
    closedness of its one-form, then either potential integration and its
    verification along chords, P(b) - P(a) = int_a^b E (disk-free chart),
    or loop periods followed by the same on a disk-free slab (holed chart).
    When D0 carries a density rho0, the volume exp(P) rho0 is rebuilt too.
    """
    diff = difference(op, base)
    config = config or ClassifyConfig()
    chart = op.chart
    battery = _generated(chart, config.seed, config.n_fields, config.n_scalars)
    pts = sample_points(chart, config.n_points, config.seed)
    residuals: dict = {}

    tens, witness = _tensoriality_stage(diff, battery, pts)
    residuals["tensoriality"] = tens
    form = extract_oneform(op, base)
    if tens > config.tol:
        return Classification(NOT_TENSORIAL, form, residuals, witness=witness)

    closed, pair, where = _closedness_details(diff, pts, config.fd_step_scale)
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

    potential = integrate_potential(form, work_chart)
    volume = None if base.density is None else rebuild_volume(
        potential, VolumeForm(base.chart, base.density, validate=False))
    # at least one chord, and the slab is convex, so every chord lies in it
    verify_pts = sample_points(work_chart, min(max(config.n_points, 2), 50),
                               config.seed)
    verify = _verification(form, potential, verify_pts)
    residuals["verification"] = verify
    restricted_to = work_chart if work_chart is not chart else None
    if verify > config.tol:
        return Classification(INCONSISTENT, form, residuals, periods=periods,
                              potential=potential, volume=volume,
                              witness={"residual": verify},
                              restricted_to=restricted_to)
    return Classification(DIVERGENCE, form, residuals, periods=periods,
                          potential=potential, volume=volume,
                          restricted_to=restricted_to)
