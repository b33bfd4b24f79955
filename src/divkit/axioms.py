"""Residual checks for the two defining axioms of divergence operators.

An operator D is a divergence when it turns brackets into directional
derivatives, D([X, Y]) = X(D(Y)) - Y(D(X)), and satisfies the product rule
D(fX) = f D(X) + X(f) (with the scalar term weighted for the s-density
variants).  The checker samples both residuals over a battery of fields and
scalars, all through one sweep, ``_residuals``.  Both routes combine the
same values: D at the samples of each field, bracket [X, Y] and field fX,
f and X(f), and each field's components with the partials of its image
along the coordinate axes, since X(D(Y)) = x_1 d_1 D(Y) + ... + x_n d_n D(Y).
Only the partials depend on how D is held.  A symbolic operator's images
are differentiated exactly, and every value it needs comes from one
``eval_roots`` call.  An opaque operator's images come from one
``apply_fields`` call, and their partials from central differences along
each axis, every field evaluated at the 2n probe sets of the n axes in one
more call.  One combination then fills the rows.  The
single-point residuals are one-point sweeps.  ``classify``'s tensoriality
residual is the Leibniz-only sweep of D - D0 at weight 0, and its
closedness residual the cocycle-only sweep over the chart's unit fields,
``_units``.  A sweep fills one work array with its values in the order
they arrive, combines its last rows in place into the signed residuals
and returns them, a (residuals x points) view; ``_maxima`` takes each
residual's worst magnitude in one pass.
Every finite difference in the package comes from one routine,
``_partials``, along the coordinate axes; ``classify`` takes one only in
its closedness sweep of a blackbox.
A sample where a probe of any axis leaves the chart even after the one
shrink is skipped in every cocycle row.

A battery, ``_Battery``, holds the fields and scalars with the trees the
sweep derives from them alone: each bracket [X, Y], field fX and
derivative X(f), built on first use.  A generated battery depends only on
the chart, the seed and the two counts, never on the operator, so
``_generated`` keeps the last few and every ``check_axioms`` and
``classify`` with an equal chart and sizes reuses one, as each closedness
sweep on an equal chart reuses its unit battery.  With the images
an operator keeps, a second sweep builds no tree and ``eval_roots``
reuses the plans of the first.  The battery also keeps each sweep's
layout, ``_Layout``: the trees it evaluates, the fields it passes to an
opaque operator and the rows where each value lands, weakly per operator,
so a second sweep of an operator looks up no image and no battery tree.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .expr import Expr, const, eval_roots, var
from .geometry import (
    Chart,
    VectorField,
    VolumeForm,
    _require_same_chart,
    _require_scalar_on,
    apply_field,
    bracket,
    lie_coefficient,
    sample_points,
)
from .operators import DivOperator
from .quadrature import _count

__all__ = [
    "GENERATOR_VERSION",
    "CheckConfig",
    "AxiomEntry",
    "ResidualReport",
    "library_fields",
    "random_fields",
    "random_scalars",
    "cocycle_residual",
    "leibniz_residual",
    "cartan_identity_residual",
    "check_axioms",
]

# Bump when the field/scalar generators change, so frozen manifests notice.
GENERATOR_VERSION = 1

MAX_SKIP_RATE = 0.10


@dataclass(frozen=True)
class CheckConfig:
    seed: int = 0
    n_points: int = 100
    n_fields: int = 8
    n_scalars: int = 4
    tol: float | None = None  # defaults by operator kind
    fd_step_scale: float = 1e-5

    def __post_init__(self):
        for name, least in (("seed", 0), ("n_points", 1), ("n_fields", 0),
                            ("n_scalars", 0)):
            _count(getattr(self, name), name, least)
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise ValidationError("tolerance must be finite and positive")
        _require_step(self.fd_step_scale)


def _require_step(step: float):
    if not (math.isfinite(step) and step > 0):
        raise ValidationError("finite-difference step must be finite and positive")


@dataclass(frozen=True)
class AxiomEntry:
    axiom: str
    label: str
    max_residual: float
    argmax_point: tuple | None
    samples: int
    skipped: int


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of a full axiom sweep for one operator."""

    tolerance: float
    entries: tuple[AxiomEntry, ...]
    manifest: dict

    @property
    def samples(self) -> int:
        return sum(e.samples for e in self.entries)

    @property
    def skipped(self) -> int:
        return sum(e.skipped for e in self.entries)

    @property
    def skip_rate(self) -> float:
        total = self.samples
        return self.skipped / total if total else 1.0

    @property
    def max_residual(self) -> float:
        worst = self.argmax
        return math.inf if worst is None else worst.max_residual

    @property
    def argmax(self) -> AxiomEntry | None:
        live = [e for e in self.entries if e.samples > e.skipped]
        if not live:
            return None
        return max(live, key=lambda e: e.max_residual)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance and self.skip_rate <= MAX_SKIP_RATE


# ---------------------------------------------------------------------------
# field and scalar batteries


# Generated batteries kept at once; each holds its trees and their memos.
# Library fields are kept for as many charts.
_BATTERY_CACHE = 8


def library_fields(chart: Chart) -> list[tuple[str, VectorField]]:
    """Deterministic named fields: coordinate units, a swirl, the dilation,
    and a trigonometric mix.  Equal charts get the same field objects while
    the last few are kept, so an operator's images of them, which live as
    long as their fields, are not built again."""
    return list(_library(chart))


@functools.lru_cache(maxsize=_BATTERY_CACHE)
def _library(chart: Chart) -> tuple[tuple[str, VectorField], ...]:
    names = chart.coords
    n = chart.dim
    out: list[tuple[str, VectorField]] = []
    for i, nm in enumerate(names):
        comps = tuple(const(1.0) if j == i else const(0.0) for j in range(n))
        out.append((f"unit_{nm}", VectorField(chart, comps)))
    if n >= 2:
        comps = [const(0.0)] * n
        comps[0] = -var(names[1])
        comps[1] = var(names[0])
        out.append(("swirl", VectorField(chart, tuple(comps))))
    out.append(("dilation", VectorField(chart, tuple(var(nm) for nm in names))))
    trig = tuple(Expr("sin", (var(names[(i + 1) % n]),)) if i % 2 == 0
                 else Expr("cos", (var(names[(i + 1) % n]),))
                 for i in range(n))
    out.append(("trig", VectorField(chart, trig)))
    return tuple(out)


def _monomials(names: Sequence[str], degree: int):
    if not names:
        yield const(1.0), 0
        return
    head, tail = names[0], names[1:]
    for rest, used in _monomials(tail, degree):
        yield rest, used
        term = rest
        for power in range(1, degree - used + 1):
            term = term * var(head) if not (rest == const(1.0) and power == 1) \
                else var(head)
            yield term, used + power


def _random_polynomial(chart: Chart, rng, degree: int = 3) -> Expr:
    total = None
    for mono, _ in _monomials(chart.coords, degree):
        coeff = float(rng.uniform(-2.0, 2.0))
        term = const(coeff) * mono
        total = term if total is None else total + term
    return total.simplify()


def random_fields(chart: Chart, count: int, rng) -> list[tuple[str, VectorField]]:
    """Polynomial fields of degree at most 3 with coefficients in [-2, 2]."""
    out = []
    for k in range(count):
        comps = tuple(_random_polynomial(chart, rng) for _ in range(chart.dim))
        out.append((f"poly{k}", VectorField(chart, comps)))
    return out


def random_scalars(chart: Chart, count: int, rng) -> list[tuple[str, Expr]]:
    return [(f"f{k}", _random_polynomial(chart, rng)) for k in range(count)]


class _Battery:
    """Named fields and scalars on one chart, with the trees a sweep derives
    from them alone, each built on first use and kept: the bracket
    [X_a, X_b], the field f_k X_i and the derivative X_i(f_k).

    Every scalar is checked against the chart here, once.  Trees are never
    changed after they are built (only their ``simplify``/``diff`` memos
    fill in), so one battery may serve any number of sweeps.  Each sweep's
    ``_Layout`` is kept too, per operator while the operator lives, then
    per weight and whether the cocycle rows are swept."""

    def __init__(self, chart: Chart, fields: Sequence[tuple[str, VectorField]],
                 scalars: Sequence[tuple[str, Expr]]):
        self.chart = chart
        self.fields = list(fields)
        self.scalars = list(scalars)
        for _, f in self.scalars:
            _require_scalar_on(chart, f)
        self._trees: dict = {}
        self._layouts = weakref.WeakKeyDictionary()

    def _tree(self, key, build):
        tree = self._trees.get(key)
        if tree is None:
            tree = self._trees[key] = build()
        return tree

    def bracket(self, a: int, b: int) -> VectorField:
        return self._tree(("bracket", a, b), lambda: bracket(
            self.fields[a][1], self.fields[b][1]))

    def scaled(self, k: int, i: int) -> VectorField:
        f, x = self.scalars[k][1], self.fields[i][1]
        return self._tree(("scaled", k, i), lambda: VectorField(
            self.chart, tuple((f * c).simplify() for c in x.components)))

    def along(self, i: int, k: int) -> Expr:
        return self._tree(("along", i, k), lambda: apply_field(
            self.fields[i][1], self.scalars[k][1]))

    def layout(self, op, weight: float, cocycle: bool) -> "_Layout":
        """The layout of a sweep of ``op`` at ``weight``, with or without
        the cocycle rows, built on first use."""
        kept = self._layouts.get(op)
        if kept is None:
            kept = self._layouts[op] = {}
        layout = kept.get((weight, cocycle))
        if layout is None:
            layout = kept[weight, cocycle] = _Layout(op, self, weight, cocycle)
        return layout


def _drawn(chart: Chart, seed: int, n_fields: int, n_scalars: int,
           fields=None, scalars=None) -> _Battery:
    """A battery of the given fields and scalars, each part not given drawn
    from one generator seeded with ``seed``: ``n_fields`` random fields and
    the library, then ``n_scalars`` random scalars."""
    rng = np.random.default_rng(seed)
    if fields is None:
        fields = random_fields(chart, n_fields, rng) + library_fields(chart)
    if scalars is None:
        scalars = random_scalars(chart, n_scalars, rng)
    return _Battery(chart, fields, scalars)


@functools.lru_cache(maxsize=_BATTERY_CACHE)
def _generated(chart: Chart, seed: int, n_fields: int, n_scalars: int) -> _Battery:
    """The drawn battery of a sweep configuration, shared by every sweep
    with an equal chart, seed and sizes."""
    return _drawn(chart, seed, n_fields, n_scalars)


@functools.lru_cache(maxsize=_BATTERY_CACHE)
def _units(chart: Chart) -> _Battery:
    """The chart's unit fields, the battery of its closedness sweeps."""
    return _Battery(chart, _library(chart)[:chart.dim], [])


# ---------------------------------------------------------------------------
# residual machinery


def _maxima(values: np.ndarray) -> list[tuple[float, int | None, int]]:
    """For each row of a (residuals x points) array of signed residuals,
    which it overwrites with their magnitudes and, where not finite, -1: the
    largest finite magnitude, its column and the count of values that are
    not finite; (inf, None, count) if none is."""
    if not values.shape[1]:
        return [(math.inf, None, 0)] * len(values)
    np.abs(values, out=values)
    finite = np.isfinite(values)
    np.copyto(values, -1.0, where=~finite)
    cols = values.argmax(axis=1)
    worst = values[np.arange(len(values)), cols]
    skipped = values.shape[1] - np.count_nonzero(finite, axis=1)
    return [(w, k, s) if s < values.shape[1] else (math.inf, None, s)
            for w, k, s in zip(worst.tolist(), cols.tolist(), skipped.tolist())]


def _partials(chart: Chart, fn, pts: np.ndarray, fd_step_scale: float) -> np.ndarray:
    """Central differences of a batch function along each coordinate axis,
    the package's one finite-difference rule.  ``fn`` maps a (rows x n)
    point array to values with one column per row, shape (..., rows).  It is
    called once, over the up probes pts + h e_i of every axis in axis order
    and then the down probes, and never with zero rows, so it must compute
    each row from that row alone.  The base step is ``fd_step_scale`` times
    the chart's shortest side, shrunk by 10 once where a probe leaves the
    chart.  Entry [..., i, k] is the i-th partial at sample k, nan where no
    probe of axis i fits; where none fits at all, ``fn`` is not called and
    the (n x points) array of nan broadcasts over its leading axes."""
    m, n = pts.shape

    def probes(h):  # (axes x points x n) up and down probes, where both fit
        step = np.eye(n)[:, None, :] * h[:, :, None]
        up, dn = pts + step, pts - step
        ok = [chart.contains_mask(chart.arrays(q.reshape(-1, n))).reshape(n, m)
              for q in (up, dn)]
        return up, dn, ok[0] & ok[1]

    h = np.full((n, m), fd_step_scale * chart.min_side)
    up, dn, ok = probes(h)
    if not np.all(ok):  # one shrink near the boundary, then give up
        h = np.where(ok, h, h / 10.0)
        up, dn, ok = probes(h)
    if not np.any(ok):
        return np.full((n, m), np.nan)
    g_up, g_dn = np.split(fn(np.concatenate([up[ok], dn[ok]])), 2, axis=-1)
    out = np.full(g_up.shape[:-1] + (n, m), np.nan)
    out[..., ok] = (g_up - g_dn) / (2.0 * h[ok])
    return out


class _Layout:
    """What a sweep of one operator over one battery works out once: the
    trees it evaluates and where each value lands in its work array.

    ``roots`` go to ``eval_roots``: f per scalar, X(f) per scalar and field
    unless the weight is 0, each field's components when the cocycle rows
    are swept, then for a symbolic operator its images' exact partials and
    the images D(X) per field, bracket and fX.  An opaque operator takes
    those images from ``apply_fields`` over ``applied`` instead.  The work
    array's rows follow that order, so D(X) per field starts at row
    ``images`` and the residual rows, D([X,Y]) and D(fX), fill its tail."""

    __slots__ = ("roots", "applied", "at", "images", "rows")

    def __init__(self, op, battery: "_Battery", weight: float, cocycle: bool):
        fields = [x for _, x in battery.fields]
        n, n_s = len(fields), len(battery.scalars)
        pairs = list(itertools.combinations(range(n), 2)) if cocycle else []
        derived = [battery.bracket(a, b) for a, b in pairs] \
            + [battery.scaled(k, i) for k in range(n_s) for i in range(n)]
        roots = [f for _, f in battery.scalars]
        if weight:
            roots += [battery.along(i, k) for k in range(n_s) for i in range(n)]
        self.at = len(roots)
        if pairs:
            roots += [c for x in fields for c in x.components]
        self.applied = ()
        if op.is_symbolic:
            images = [op.symbolic(x) for x in fields + derived]
            if pairs:
                roots += [image.diff(nm) for image in images[:n]
                          for nm in op.chart.coords]
            self.images = len(roots)
            roots += images
        else:
            self.images = len(roots)
            self.applied = tuple(fields + derived)
        self.roots = tuple(roots)
        self.rows = self.images + n + len(derived)


def _residuals(op, battery: _Battery, weight: float, pts: np.ndarray,
               fd_step_scale: float | None = None) -> np.ndarray:
    """The (residuals x points) array of signed residuals (nan or inf where
    it could not be evaluated): one row for the cocycle residual of each pair
    of the battery's fields X_a, X_b with a < b, then one for the Leibniz
    residual at ``weight`` of each scalar and field.  The cocycle terms are
    swept only when a finite-difference ``fd_step_scale`` is given; a
    symbolic operator differentiates exactly and does not use it.

    Both routes combine the same values, D at the samples of every field,
    bracket and fX, f and X(f), each field's components and the partials
    of its image D(X) along every axis; only the partials depend on how D
    is held.  Which trees give them, and where each lands, is the sweep's
    ``_Layout``, which the battery keeps per operator, weight and cocycle
    choice, so a warm sweep looks up no image or battery tree.  A symbolic
    operator evaluates every value in one ``eval_roots`` call, the
    partials taken exactly, so a subtree an image shares with its partials
    is computed once.  An opaque one takes the other values from one
    ``eval_roots`` call, its images from one ``apply_fields`` call at the
    samples, and the partials from ``_partials`` through one more
    ``apply_fields`` call, of every field over every probe, laid out as
    (fields x axes x points) rows like the exact ones.

    The values fill one work array in the order they arrive, its last rows
    D([X,Y]) and D(fX), and the iterator that gave them is dropped before
    the partials are taken.  Those last rows are combined in place, the
    pairs of each field X_a with every X_b, b > a, then the terms of each
    scalar with every field, and returned as a view of the work array.  One
    array of a few MB at 2,000 points, instead of two, is mapped and
    unmapped whole, which lifts glibc's trim threshold above the heap the
    sweep's smaller arrays use, so that heap is not trimmed and faulted in
    again after every sweep."""
    n, n_s, m = len(battery.fields), len(battery.scalars), len(pts)
    pairs = fd_step_scale is not None and n > 1
    if not (pairs or n_s * n):  # no rows, as in a 1-D closedness sweep
        return np.empty((0, m))
    layout = battery.layout(op, weight, fd_step_scale is not None)
    values = eval_roots(layout.roots, op.chart.arrays(pts))
    if not op.is_symbolic:
        values = itertools.chain(values, op.apply_fields(layout.applied, pts))
    work = np.empty((layout.rows, m))
    for row, v in zip(work, values):
        row[:] = v
    del values  # and with it an opaque operator's images
    d, at, images = op.chart.dim, layout.at, layout.images
    f_vals, xf, dx = work[:n_s], work[n_s:at], work[images:images + n]
    if pairs:
        comps = work[at:at + n * d].reshape(n, d, m)
        fields = layout.applied[:n]
        partials = work[at + n * d:images].reshape(n, d, m) if op.is_symbolic \
            else np.broadcast_to(_partials(
                op.chart, lambda rows: np.stack(op.apply_fields(fields, rows)),
                pts, fd_step_scale), (n, d, m))
    out = work[images + n:]
    start = 0
    for a in range(n - 1 if pairs else 0):
        # D([X,Y]) - x_1 d_1 D(Y) - ... + y_1 d_1 D(X) + ... for X = X_a and
        # each Y = X_b, b > a
        block = out[start:start + n - 1 - a]
        start += n - 1 - a
        for i in range(d):
            block -= comps[a, i] * partials[a + 1:, i]
        for i in range(d):
            block += comps[a + 1:, i] * partials[a, i]
    for k in range(n_s):  # D(fX) - f D(X) - weight X(f), every X
        block = out[start:start + n]
        start += n
        block -= f_vals[k] * dx
        if weight:
            block -= weight * xf[k * n:(k + 1) * n]
    return out


# ---------------------------------------------------------------------------
# public single-point residuals


def cocycle_residual(op: DivOperator, x: VectorField, y: VectorField,
                     point: Sequence[float],
                     fd_step_scale: float = 1e-5) -> float:
    """|D([X,Y]) - (X(D(Y)) - Y(D(X)))| at one point."""
    _require_step(fd_step_scale)
    op.chart.require_inside(point)
    vals, = _residuals(op, _Battery(op.chart, [("X", x), ("Y", y)], []),
                       op.weight, np.asarray([point], dtype=float), fd_step_scale)
    if not math.isfinite(vals[0]):
        raise DomainError("residual could not be evaluated at this point")
    return abs(float(vals[0]))


def leibniz_residual(op: DivOperator, f: Expr, x: VectorField,
                     point: Sequence[float], weight: float | None = None) -> float:
    """|D(fX) - f D(X) - weight * X(f)| at one point; the weight defaults to
    the operator's own."""
    w = op.weight if weight is None else float(weight)
    if not math.isfinite(w):
        raise ValidationError("weight must be finite")
    op.chart.require_inside(point)
    vals, = _residuals(op, _Battery(op.chart, [("X", x)], [("f", f)]), w,
                       np.asarray([point], dtype=float))
    if not math.isfinite(vals[0]):
        raise DomainError("residual could not be evaluated at this point")
    return abs(float(vals[0]))


def cartan_identity_residual(x: VectorField, y: VectorField, volume: VolumeForm,
                             point: Sequence[float]) -> float:
    """|L_[X,Y] - (L_X L_Y - L_Y L_X)| applied to the volume, at one point.
    The fields and the volume must share one chart (else ChartMismatch)."""
    _require_same_chart(x.chart, volume.chart)
    volume.chart.require_inside(point)
    rho = volume.density
    lhs = lie_coefficient(bracket(x, y), rho)
    rhs = lie_coefficient(x, lie_coefficient(y, rho)) \
        - lie_coefficient(y, lie_coefficient(x, rho))
    env = volume.chart.env(point)
    return abs((lhs - rhs).eval(env))


# ---------------------------------------------------------------------------
# the sweep


def check_axioms(op: DivOperator, config: CheckConfig | None = None,
                 fields: Sequence[tuple[str, VectorField]] | None = None,
                 scalars: Sequence[tuple[str, Expr]] | None = None) -> ResidualReport:
    """Sample both axiom residuals for an operator over a field battery.

    Fields are the configured number of random degree-3 polynomial fields
    plus the deterministic library; scalars are random polynomials.  Passing
    explicit batteries overrides generation; the manifest's ``n_fields`` and
    ``n_scalars`` count the random ones actually drawn.
    """
    config = config or CheckConfig()
    chart = op.chart
    # random fields and scalars drawn: none for a part given explicitly
    n_fields = config.n_fields if fields is None else 0
    n_scalars = config.n_scalars if scalars is None else 0
    if fields is None and scalars is None:
        battery = _generated(chart, config.seed, config.n_fields, config.n_scalars)
    else:  # a one-off battery, kept out of the cache
        battery = _drawn(chart, config.seed, config.n_fields, config.n_scalars,
                         fields, scalars)
    fields, scalars = battery.fields, battery.scalars
    pts = sample_points(chart, config.n_points, config.seed)
    tol = config.tol if config.tol is not None else (1e-9 if op.is_symbolic else 1e-6)

    labels = [("cocycle", f"cocycle({nx},{ny})")
              for (nx, _), (ny, _) in itertools.combinations(fields, 2)]
    labels += [("leibniz", f"leibniz({fname},{name_x})")
               for fname, _ in scalars for name_x, _ in fields]
    maxima = _maxima(_residuals(op, battery, op.weight, pts, config.fd_step_scale))
    entries = [AxiomEntry(axiom, label, worst, None if k is None else tuple(pts[k]),
                          len(pts), skipped)
               for (axiom, label), (worst, k, skipped) in zip(labels, maxima)]

    manifest = {
        "seed": config.seed,
        "n_points": config.n_points,
        "n_fields": n_fields,
        "n_scalars": n_scalars,
        "fields": [nm for nm, _ in fields],
        "scalars": [nm for nm, _ in scalars],
        "generator_version": GENERATOR_VERSION,
        "mode": "symbolic" if op.is_symbolic else "finite-difference",
        "fd_step": None if op.is_symbolic else config.fd_step_scale * chart.min_side,
        "tolerance": tol,
    }
    return ResidualReport(tolerance=tol, entries=tuple(entries), manifest=manifest)
