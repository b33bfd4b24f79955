"""Axiom residual sweeps: true divergences pass, perturbed ones are caught."""

import gc
import itertools
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit import axioms, geometry
from divkit import expr as expr_module
from divkit.axioms import (
    AxiomEntry,
    CheckConfig,
    GENERATOR_VERSION,
    ResidualReport,
    cartan_identity_residual,
    check_axioms,
    cocycle_residual,
    leibniz_residual,
    library_fields,
    random_fields,
    random_scalars,
)
from divkit.errors import ChartMismatch, DomainError, ValidationError
from divkit.expr import const, parse_expr, var
from divkit.geometry import (
    Chart,
    OneForm,
    VectorField,
    VolumeForm,
    apply_field,
    bracket,
    d_oneform,
    sample_points,
)
from divkit.operators import (
    DivOperator,
    Metric,
    blackbox_operator,
    div_metric,
    div_sdensity,
    div_volume,
    levi_civita,
    div_affine,
    perturbed_operator,
)
from divkit.reconstruct import DIVERGENCE, NOT_COCYCLE, ClassifyConfig, classify

BOX = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
POLAR = Chart(("r", "th"), ((1.0, 2.5), (0.0, 1.5)))

FLAT_OP = div_volume(VolumeForm.from_string(BOX, "1"))
WEIGHTED_OP = div_volume(VolumeForm.from_string(BOX, "exp(x+0.5*y)"))

SMALL = CheckConfig(n_points=30, n_fields=3, n_scalars=2)


def ex(text, chart=BOX):
    return parse_expr(text, chart.coords)


# ---------------------------------------------------------------------------
# batteries


def test_library_fields_names_and_values():
    named = dict(library_fields(BOX))
    assert set(named) == {"unit_x", "unit_y", "swirl", "dilation", "trig"}
    assert named["unit_x"].components == (const(1.0), const(0.0))
    assert named["swirl"].components[0].eval({"x": 0.0, "y": 0.3}) == -0.3
    assert named["dilation"].components == (var("x"), var("y"))
    env = {"x": 0.4, "y": -0.2}
    assert named["trig"].components[0].eval(env) == pytest.approx(math.sin(-0.2))
    assert named["trig"].components[1].eval(env) == pytest.approx(math.cos(0.4))


def test_random_fields_deterministic_and_degree_bounded():
    a = random_fields(BOX, 3, np.random.default_rng(5))
    b = random_fields(BOX, 3, np.random.default_rng(5))
    assert [nm for nm, _ in a] == ["poly0", "poly1", "poly2"]
    for (_, fa), (_, fb) in zip(a, b):
        assert fa.components == fb.components
    # degree <= 3: the fourth derivative vanishes identically
    comp = a[0][1].components[0]
    d4 = comp.diff("x").diff("x").diff("x").diff("x")
    for p in sample_points(BOX, 5, seed=1):
        assert d4.eval(BOX.env(p)) == 0.0
    mixed = comp.diff("x").diff("y").diff("y").diff("y")
    for p in sample_points(BOX, 5, seed=1):
        assert mixed.eval(BOX.env(p)) == 0.0


def test_random_scalars_named():
    scalars = random_scalars(BOX, 2, np.random.default_rng(0))
    assert [nm for nm, _ in scalars] == ["f0", "f1"]


# ---------------------------------------------------------------------------
# single-point residuals


def test_cocycle_residual_zero_for_true_divergence():
    fields = dict(library_fields(BOX))
    p = (0.3, -0.4)
    r = cocycle_residual(WEIGHTED_OP, fields["swirl"], fields["dilation"], p)
    assert r <= 1e-12


def test_cocycle_residual_blackbox_route():
    fields = dict(library_fields(BOX))
    bb = WEIGHTED_OP.as_blackbox()
    r = cocycle_residual(bb, fields["swirl"], fields["dilation"], (0.3, -0.4))
    assert r <= 1e-7
    # near the boundary the step shrinks once; closer than that is an error
    r_near = cocycle_residual(bb, fields["swirl"], fields["dilation"],
                              (0.999997, 0.0))
    assert r_near <= 1e-4
    with pytest.raises(DomainError):
        cocycle_residual(bb, fields["swirl"], fields["dilation"],
                         (1.0 - 1e-9, 0.0))
    with pytest.raises(DomainError):
        cocycle_residual(bb, fields["swirl"], fields["dilation"], (1.5, 0.0))


def test_leibniz_residual_and_weight_override():
    x = VectorField.from_strings(BOX, ("x*y", "1-y"))
    f = ex("x^2-y")
    assert leibniz_residual(WEIGHTED_OP, f, x, (0.2, 0.5)) <= 1e-13
    vol = VolumeForm.from_string(BOX, "exp(x)")
    s2 = div_sdensity(vol, 2.0)
    assert leibniz_residual(s2, f, x, (0.2, 0.5)) <= 1e-13  # uses weight 2
    wrong = leibniz_residual(s2, f, x, (0.2, 0.5), weight=1.0)
    assert wrong > 1e-3


@pytest.mark.parametrize("step", [0.0, -1e-5, math.nan, math.inf, -math.inf])
def test_cocycle_residual_rejects_bad_step(step):
    # a zero step divided 0 by 0, a negative one acted as its absolute value,
    # and nan ended in a misleading DomainError
    fields = dict(library_fields(BOX))
    for op in (WEIGHTED_OP, WEIGHTED_OP.as_blackbox()):
        with pytest.raises(ValidationError):
            cocycle_residual(op, fields["swirl"], fields["dilation"], (0.1, 0.2),
                             fd_step_scale=step)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_leibniz_residual_rejects_non_finite_weight(weight):
    x = VectorField.from_strings(BOX, ("x*y", "1-y"))
    for op in (WEIGHTED_OP, WEIGHTED_OP.as_blackbox()):
        with pytest.raises(ValidationError, match="weight must be finite"):
            leibniz_residual(op, ex("x^2-y"), x, (0.2, 0.5), weight=weight)


def test_cartan_identity_holds():
    vol = VolumeForm.from_string(BOX, "exp(0.3*x)*(1+0.25*y^2)")
    rng = np.random.default_rng(3)
    fields = [f for _, f in random_fields(BOX, 3, rng)]
    for p in sample_points(BOX, 10, seed=4):
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                assert cartan_identity_residual(fields[i], fields[j], vol, p) <= 1e-9


def test_cartan_identity_residual_rejects_mismatched_charts():
    # a volume on (u, v) used to end in a raw KeyError: 'y'
    x, y = (f for _, f in library_fields(BOX)[:2])
    vol = VolumeForm.from_string(Chart(("u", "v"), BOX.box), "exp(u)")
    with pytest.raises(ChartMismatch):
        cartan_identity_residual(x, y, vol, (0.1, 0.2))
    other = VectorField.from_strings(POLAR, ("1", "0"))
    with pytest.raises(ChartMismatch):
        cartan_identity_residual(x, other, VolumeForm.from_string(BOX, "1"),
                                 (0.1, 0.2))


# ---------------------------------------------------------------------------
# sweeps


def test_check_axioms_passes_for_true_divergences():
    for op in (FLAT_OP, WEIGHTED_OP):
        report = check_axioms(op, SMALL)
        assert report.passed
        assert report.max_residual <= 1e-9
        assert report.skipped == 0
        assert report.manifest["mode"] == "symbolic"
        assert report.manifest["generator_version"] == GENERATOR_VERSION


def test_check_axioms_metric_and_affine():
    metric = Metric.from_strings(POLAR, (("1", "0"), ("0", "r^2")))
    for op in (div_metric(metric), div_affine(levi_civita(metric))):
        report = check_axioms(op, SMALL)
        assert report.passed, report.argmax
        assert report.max_residual <= 1e-9


def test_check_axioms_blackbox_route():
    report = check_axioms(WEIGHTED_OP.as_blackbox(), SMALL)
    assert report.manifest["mode"] == "finite-difference"
    assert report.tolerance == 1e-6
    assert report.passed, report.argmax
    assert report.max_residual <= 1e-6


def test_check_axioms_sdensity_weight():
    vol = VolumeForm.from_string(BOX, "exp(x)")
    report = check_axioms(div_sdensity(vol, 2.0), SMALL)
    assert report.passed, report.argmax


def test_check_axioms_catches_noncocycle_perturbation():
    shift = OneForm.from_strings(BOX, ("-y", "0"))
    bad = perturbed_operator(FLAT_OP, shift)
    report = check_axioms(bad, CheckConfig(n_points=30, n_fields=2, n_scalars=1))
    assert not report.passed
    witness = {e.label: e for e in report.entries}["cocycle(unit_x,unit_y)"]
    assert witness.max_residual == pytest.approx(1.0, abs=1e-12)
    # the shift breaks the bracket axiom but not the product rule
    assert all(e.max_residual <= 1e-9 for e in report.entries
               if e.axiom == "leibniz")


def test_check_axioms_accepts_closed_perturbation():
    shift = OneForm.from_strings(BOX, ("2*x", "-1"))
    good = perturbed_operator(FLAT_OP, shift)
    report = check_axioms(good, SMALL)
    assert report.passed, report.argmax


def test_check_axioms_deterministic():
    r1 = check_axioms(WEIGHTED_OP, SMALL)
    r2 = check_axioms(WEIGHTED_OP, SMALL)
    assert r1.max_residual == r2.max_residual
    assert [e.label for e in r1.entries] == [e.label for e in r2.entries]
    assert r1.argmax.argmax_point == r2.argmax.argmax_point


def test_check_axioms_skip_budget():
    # an operator that cannot be evaluated on most of the chart
    def patchy(field, point):
        if point[0] > -0.5:
            return math.nan
        return FLAT_OP.apply(field, point)

    bad = blackbox_operator(BOX, patchy)
    report = check_axioms(bad, CheckConfig(n_points=20, n_fields=1, n_scalars=1))
    assert report.skip_rate > 0.10
    assert not report.passed


def test_check_axioms_every_sample_skipped():
    # no live entry: no argmax, an infinite residual and a failed sweep
    def nothing(field, pts):
        return np.full(len(pts), math.nan)

    bad = blackbox_operator(BOX, FLAT_OP.apply, fn_many=nothing)
    report = check_axioms(bad, CheckConfig(n_points=20, n_fields=1, n_scalars=1))
    assert report.argmax is None
    assert report.max_residual == math.inf
    assert report.skip_rate == 1.0
    assert not report.passed


def test_report_invariants():
    entry = AxiomEntry("cocycle", "cocycle(a,b)", 2e-9, (0.0, 0.0), 10, 0)
    strict = ResidualReport(tolerance=1e-9, entries=(entry,), manifest={})
    loose = ResidualReport(tolerance=1e-8, entries=(entry,), manifest={})
    assert not strict.passed
    assert loose.passed
    assert (strict.max_residual <= strict.tolerance) == strict.passed
    assert (loose.max_residual <= loose.tolerance) == loose.passed


def test_check_config_validation():
    # a fractional count once raised TypeError, a negative seed numpy's
    # ValueError, both at the first draw
    # a bool is an Integral, but no count: True once built a one-point
    # config whose manifest kept the bools
    for bad in ({"n_points": 0}, {"n_points": 2.5}, {"n_fields": 1.5},
                {"n_scalars": -1}, {"seed": -1}, {"seed": 0.5},
                {"n_points": True, "seed": False}, {"n_points": True},
                {"seed": False}, {"n_fields": False}):
        with pytest.raises(ValidationError):
            CheckConfig(**bad)
    for tol in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            CheckConfig(tol=tol)
    # a zero step once divided 0 by 0 in every finite difference
    for step in (0.0, -1e-5, math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError):
            CheckConfig(fd_step_scale=step)


# ---------------------------------------------------------------------------
# the batched finite-difference sweep
#
# check_axioms evaluates each field of an opaque operator once at the sample
# points and once over the probes of every coordinate axis, and takes
# X(D(Y)) as x_1 d_1 D(Y) + ... + x_n d_n D(Y).  The reference below is the
# plain per-pair sweep: the axis partials of D(X) and D(Y) computed afresh
# for every pair and D(X) evaluated for every Leibniz term.  Both must give
# identical entries.


def _ref_axis_partials(op, of, pts, h0):
    """(m, n) central differences of D(of) along each axis, the step shrunk
    by 10 once where a probe leaves the chart; nan where it still does."""
    chart = op.chart
    out = np.full(pts.shape, np.nan)
    for i in range(chart.dim):
        h = np.full(len(pts), h0)
        for _ in range(2):
            up, dn = pts.copy(), pts.copy()
            up[:, i] += h
            dn[:, i] -= h
            ok = chart.contains_mask(chart.arrays(up)) & chart.contains_mask(chart.arrays(dn))
            if ok.all():
                break
            h = np.where(ok, h, h / 10.0)
        if ok.any():
            out[ok, i] = (op.apply_many(of, up[ok]) - op.apply_many(of, dn[ok])) \
                / (2.0 * h[ok])
    return out


def _ref_entries(op, config, fields=None, scalars=None):
    chart = op.chart
    rng = np.random.default_rng(config.seed)
    if fields is None:
        fields = random_fields(chart, config.n_fields, rng) + library_fields(chart)
    if scalars is None:
        scalars = random_scalars(chart, config.n_scalars, rng)
    pts = np.asarray(sample_points(chart, config.n_points, config.seed), dtype=float)
    arrays = chart.arrays(pts)
    h0 = config.fd_step_scale * chart.min_side
    entries = []

    def finish(axiom, label, vals):
        finite = np.isfinite(vals)
        if np.any(finite):
            k = int(np.argmax(np.where(finite, vals, -1.0)))
            worst, where = float(vals[k]), tuple(pts[k])
        else:
            worst, where = math.inf, None
        entries.append(AxiomEntry(axiom, label, worst, where, int(vals.size),
                                  int(vals.size - finite.sum())))

    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            (name_x, x), (name_y, y) = fields[a], fields[b]
            vals = op.apply_many(bracket(x, y), pts)
            dx, dy = (_ref_axis_partials(op, z, pts, h0) for z in (x, y))
            xs, ys = x.values_matrix(pts), y.values_matrix(pts)
            for i in range(chart.dim):
                vals = vals - xs[:, i] * dy[:, i]
            for i in range(chart.dim):
                vals = vals + ys[:, i] * dx[:, i]
            finish("cocycle", f"cocycle({name_x},{name_y})", np.abs(vals))
    for fname, f in scalars:
        for name_x, x in fields:
            fx = VectorField(chart, tuple((f * c).simplify() for c in x.components))
            xf = apply_field(x, f)
            vals = np.abs(op.apply_many(fx, pts)
                          - f.eval_many(arrays) * op.apply_many(x, pts)
                          - op.weight * xf.eval_many(arrays))
            finish("leibniz", f"leibniz({fname},{name_x})", vals)
    return tuple(entries)


def _assert_matches_reference(op, config, fields=None, scalars=None):
    report = check_axioms(op, config, fields, scalars)
    assert report.entries == _ref_entries(op, config, fields, scalars)
    return report


def test_batched_sweep_matches_reference_box():
    for seed in (0, 7):
        _assert_matches_reference(WEIGHTED_OP.as_blackbox(),
                                  CheckConfig(seed=seed, n_points=40, n_fields=3))


def test_batched_sweep_matches_reference_where_probes_shrink():
    # a step of 1.6 leaves the chart from every sample along x; the shrunk
    # step 0.16 fits from most, so some samples shrink and the rest are
    # skipped in every cocycle row
    annulus = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)),
                    disks=(((0.0, 0.0), 0.2),), basepoint=(0.6, 0.0))
    op = div_volume(VolumeForm.from_string(annulus, "exp(x+0.5*y)")).as_blackbox()
    config = CheckConfig(seed=3, n_points=40, n_fields=2, n_scalars=1,
                         fd_step_scale=0.8)
    report = _assert_matches_reference(op, config)
    cocycle = [e.skipped for e in report.entries if e.axiom == "cocycle"]
    assert cocycle[0] > 0 and len(set(cocycle)) == 1
    assert all(e.skipped == 0 for e in report.entries if e.axiom == "leibniz")
    # no probe fits at 1.6; along x the partial of x is 1 wherever the
    # shrunk probes fit and nan elsewhere
    pts = np.asarray(sample_points(annulus, 40, 3))
    along_x = axioms._partials(annulus, lambda rows: rows[:, 0], pts, 0.8)[0]
    usable = np.isfinite(along_x)
    assert np.any(usable) and np.any(~usable)
    assert np.allclose(along_x[usable], 1.0)


def test_batched_sweep_matches_reference_zero_field():
    # an all-zero field, first and last, at 25 and at 2,049 points.  Its
    # cocycle rows are exactly 0 wherever the
    # probes fit, which is everywhere on these samples
    zero = [("zero", VectorField(BOX, (const(0.0), const(0.0))))]
    scalars = [("f", ex("x*y - 0.5"))]
    for fields, n_points in [(zero + library_fields(BOX)[:3], 25),
                             (library_fields(BOX)[:3] + zero, 2_049)]:
        report = _assert_matches_reference(WEIGHTED_OP.as_blackbox(),
                                           CheckConfig(n_points=n_points),
                                           fields, scalars)
        assert report.skipped == 0
        assert all(e.max_residual == 0.0 for e in report.entries
                   if e.axiom == "cocycle" and "zero" in e.label)


def test_batched_sweep_matches_reference_nan_blackbox():
    def patchy(field, point):
        if point[0] > -0.5:
            return math.nan
        return FLAT_OP.apply(field, point)

    _assert_matches_reference(blackbox_operator(BOX, patchy),
                              CheckConfig(n_points=20, n_fields=1, n_scalars=1))


@pytest.mark.parametrize("chart", [
    Chart(("u",), ((-1.0, 1.0),)),
    BOX,
    Chart(("x", "y", "z"), ((-1.0, 1.0), (-0.5, 1.5), (0.0, 2.0))),
], ids=["1d", "2d", "3d"])
def test_partials_make_one_call_over_every_probe(chart):
    # the up probes of every axis in axis order, then the down probes, in
    # one call; values with leading axes keep them, ahead of (axes, points)
    pts = sample_points(chart, 7, 0)
    calls = []

    def fn(rows):
        calls.append(rows)
        return np.stack([rows.sum(axis=1), (rows ** 2).sum(axis=1)])

    got = axioms._partials(chart, fn, pts, 1e-5)
    steps = 1e-5 * chart.min_side * np.eye(chart.dim)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.concatenate(
        [pts + e for e in steps] + [pts - e for e in steps]))
    assert got.shape == (2, chart.dim, 7)
    np.testing.assert_allclose(got[0], 1.0, rtol=1e-9)
    np.testing.assert_allclose(got[1], 2.0 * pts.T, atol=1e-9)


def _counting(op):
    """Blackbox view of the operator that records the row count of each call."""
    rows = []

    def fn_many(field, pts):
        rows.append(len(pts))
        return op.apply_many(field, pts)

    return blackbox_operator(op.chart, op.apply, fn_many, weight=op.weight), rows


def test_batched_sweep_crosses_block_boundary():
    # at 2,049 points the 2 axes' 8,196 probe rows, more than one block of
    # 4,096, go to one call
    op, rows = _counting(FLAT_OP)
    config = CheckConfig(n_points=2_049)
    check_axioms(op, config)
    # the lifted fn_many is called once per field, bracket and fX at the
    # samples, then once per field over every probe
    n = 8 + len(library_fields(BOX))
    assert rows == [2_049] * (n + n * (n - 1) // 2 + 4 * n) + [2 * 2 * 2_049] * n
    assert len(rows) == 156
    _assert_matches_reference(op, config)


def test_no_probe_fits_makes_no_empty_call():
    # at step 10 every probe leaves the box, so the sweeps evaluate no probe
    # and call the user's fn_many with no empty point array; every cocycle
    # row and the closedness residual are then inf
    op, rows = _counting(FLAT_OP)
    report = check_axioms(op, CheckConfig(fd_step_scale=10.0))
    assert rows == [100] * 143
    assert all(e.max_residual == math.inf for e in report.entries
               if e.axiom == "cocycle")
    result = classify(op, FLAT_OP, ClassifyConfig(fd_step_scale=10.0))
    assert result.verdict == NOT_COCYCLE
    assert result.residuals["closedness"] == math.inf
    assert rows and 0 not in rows


def test_sample_whose_axis_probe_leaves_the_chart_is_skipped_in_every_cocycle_row():
    # within h0/10 of the face x = 1 the probes along x leave the box, and
    # just above the disk the downward probe along y enters it; the sample
    # is then skipped in every cocycle row, even for fields with no x or y
    # component, and counts in every Leibniz row
    annulus = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)),
                    disks=(((0.0, 0.0), 0.2),), basepoint=(0.6, 0.0))
    op = div_volume(VolumeForm.from_string(annulus, "exp(x+0.5*y)")).as_blackbox()
    named = dict(library_fields(annulus))
    zero = VectorField(annulus, (const(0.0), const(0.0)))
    fields = [("unit_y", named["unit_y"]), ("zero", zero), ("swirl", named["swirl"])]
    battery = axioms._Battery(annulus, fields, [("f", ex("x*y - 0.5", annulus))])
    pts = np.array([[0.5, 0.5], [1.0 - 1e-9, 0.3], [0.0, 0.2 + 1e-9]])
    cocycle, leibniz = np.split(axioms._residuals(op, battery, op.weight, pts, 1e-5),
                                [3])
    assert np.all(np.isfinite(cocycle[:, 0])) and cocycle[:, 0].max() < 1e-6
    assert np.all(np.isnan(cocycle[:, 1:]))
    assert np.all(np.isfinite(leibniz))
    # the all-zero field's rows are exactly 0 where the probes fit
    assert cocycle[0, 0] == cocycle[2, 0] == 0.0
    for point in pts[1:]:
        with pytest.raises(DomainError):
            cocycle_residual(op, named["unit_y"], zero, point)
    assert cocycle_residual(op, named["unit_y"], zero, pts[0]) == 0.0


@pytest.mark.parametrize("name", ["flat", "weighted", "polar-metric",
                                  "levi-civita", "s-half", "perturbed-closed"])
def test_blackbox_cocycle_rows_agree_with_the_symbolic_rows(name):
    # the central-difference rows approximate the exact ones sample by
    # sample, within the blackbox tolerance
    op = _criterion_one_operators()[name]
    chart = op.chart
    battery = axioms._generated(chart, 0, 8, 4)
    pts = sample_points(chart, 100, 0)
    pairs = 13 * 12 // 2
    exact = axioms._residuals(op, battery, op.weight, pts, 1e-5)[:pairs]
    fd = axioms._residuals(op.as_blackbox(), battery, op.weight, pts, 1e-5)[:pairs]
    assert np.all(np.isfinite(fd))
    assert np.abs(fd - exact).max() <= 1e-6


def test_swirl_perturbation_fails_on_both_routes():
    bad = perturbed_operator(FLAT_OP, OneForm.from_strings(BOX, ("-1e-4*y", "1e-4*x")))
    for op in (bad, bad.as_blackbox()):
        report = check_axioms(op)
        assert not report.passed
        assert report.argmax.axiom == "cocycle"
        assert report.max_residual > 1e-3


def test_blackbox_sweep_makes_one_call_per_field():
    op, rows = _counting(WEIGHTED_OP)
    check_axioms(op)
    fields, scalars = 8 + len(library_fields(BOX)), 4
    pairs = fields * (fields - 1) // 2
    # each field, bracket and fX at the samples, then each field over the
    # one block of the 2 axes' probes
    assert len(rows) == fields + pairs + scalars * fields + fields == 156
    assert rows == [100] * 143 + [400] * 13


def test_blackbox_sweep_batches_the_hidden_operator():
    # one call of every field, bracket and fX over the samples (13 + 78 + 52
    # fields), then one of the 13 fields over both axes' probes (400 rows,
    # one block)
    hidden = div_volume(VolumeForm.from_string(BOX, "exp(x+0.5*y)"))
    apply_fields = hidden.apply_fields
    calls = []

    def counting(fields, pts):
        calls.append(len(fields))
        return apply_fields(fields, pts)

    hidden.apply_fields = counting
    report = check_axioms(hidden.as_blackbox())
    assert report.passed
    assert calls == [143, 13]


@pytest.mark.parametrize("blackbox", [False, True])
def test_scalar_off_the_chart_is_a_chart_mismatch(blackbox):
    op = WEIGHTED_OP.as_blackbox() if blackbox else WEIGHTED_OP
    x = VectorField.from_strings(BOX, ("x*y", "1-y"))
    z = parse_expr("z", ["z"])
    message = re.escape("scalar uses unknown coordinates ['z']")
    with pytest.raises(ChartMismatch, match=message):
        check_axioms(op, SMALL, fields=[("X", x)], scalars=[("f", z)])
    with pytest.raises(ChartMismatch, match=message):
        leibniz_residual(op, z, x, (0.2, 0.5))


def test_blackbox_leibniz_residual_makes_no_probes():
    op, rows = _counting(WEIGHTED_OP)
    x = VectorField.from_strings(BOX, ("x*y", "1-y"))
    leibniz_residual(op, ex("x^2-y"), x, (0.2, 0.5))
    # D(fX) and D(X), each at the one point
    assert rows == [1, 1]


@pytest.mark.parametrize("blackbox", [False, True])
@pytest.mark.parametrize("op", [
    div_sdensity(VolumeForm.from_string(BOX, "exp(x^2 - y)"), 0.5),
    perturbed_operator(FLAT_OP, OneForm.from_strings(BOX, ("-y", "0"))),
], ids=["s-half", "swirl"])
def test_one_point_sweep_matches_single_point_residuals(op, blackbox):
    # the swirl shift breaks the bracket rule, the s-density keeps both rules
    cocycle_broken = op.kind == "perturbed"
    op = op.as_blackbox() if blackbox else op
    x = VectorField.from_strings(BOX, ("x*y", "1-y"))
    y = VectorField.from_strings(BOX, ("sin(y)", "x^2"))
    f = ex("x^2-y")
    config = CheckConfig(seed=3, n_points=1)
    report = check_axioms(op, config, fields=[("X", x), ("Y", y)], scalars=[("f", f)])
    (p,) = [tuple(q) for q in sample_points(BOX, 1, 3)]
    want = [cocycle_residual(op, x, y, p)] + [leibniz_residual(op, f, v, p) for v in (x, y)]
    assert [e.label for e in report.entries] == \
        ["cocycle(X,Y)", "leibniz(f,X)", "leibniz(f,Y)"]
    assert [e.max_residual for e in report.entries] == want
    assert [e.argmax_point for e in report.entries] == [p] * 3
    assert want[0] > 1e-3 if cocycle_broken else max(want) < 1e-6
    # one row per residual, one column for the point
    battery = axioms._Battery(BOX, [("X", x), ("Y", y)], [("f", f)])
    assert axioms._residuals(op, battery, op.weight, np.asarray([p]), 1e-5).shape \
        == (3, 1)


# ---------------------------------------------------------------------------
# the shared symbolic sweep
#
# check_axioms takes one image per field and evaluates every value a symbolic
# operator's residuals combine in one eval_roots call.  The reference below
# is the plain per-pair sweep: one residual tree for each pair and term, each
# evaluated on its own.  Both must give identical entries.


def _ref_symbolic_entries(op, config):
    chart = op.chart
    rng = np.random.default_rng(config.seed)
    fields = random_fields(chart, config.n_fields, rng) + library_fields(chart)
    scalars = random_scalars(chart, config.n_scalars, rng)
    pts = np.asarray(sample_points(chart, config.n_points, config.seed), dtype=float)
    arrays = chart.arrays(pts)
    entries = []

    def finish(axiom, label, expr):
        vals = np.abs(expr.eval_many(arrays))
        finite = np.isfinite(vals)
        if np.any(finite):
            k = int(np.argmax(np.where(finite, vals, -1.0)))
            worst, where = float(vals[k]), tuple(pts[k])
        else:
            worst, where = math.inf, None
        entries.append(AxiomEntry(axiom, label, worst, where, int(vals.size),
                                  int(vals.size - finite.sum())))

    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            (name_x, x), (name_y, y) = fields[a], fields[b]
            dx, dy = op.symbolic(x), op.symbolic(y)
            expr = op.symbolic(bracket(x, y))
            for comp, nm in zip(x.components, chart.coords):
                expr = expr - comp * dy.diff(nm)
            for comp, nm in zip(y.components, chart.coords):
                expr = expr + comp * dx.diff(nm)
            finish("cocycle", f"cocycle({name_x},{name_y})", expr)
    for fname, f in scalars:
        for name_x, x in fields:
            fx = VectorField(chart, tuple((f * c).simplify() for c in x.components))
            expr = op.symbolic(fx) - f * op.symbolic(x)
            if op.weight:
                expr = expr - const(op.weight) * apply_field(x, f)
            finish("leibniz", f"leibniz({fname},{name_x})", expr)
    return tuple(entries)


def _criterion_one_operators():
    polar_metric = Metric.from_strings(POLAR, [["1", "0"], ["0", "r^2"]])
    weighted = VolumeForm.from_string(BOX, "exp(x^2 - y)")
    return {
        "flat": FLAT_OP,
        "weighted": div_volume(weighted),
        "polar-metric": div_metric(polar_metric),
        "levi-civita": div_affine(levi_civita(polar_metric)),
        "s-half": div_sdensity(weighted, 0.5),
        "perturbed-closed": perturbed_operator(
            FLAT_OP, OneForm.from_strings(BOX, ("2*x", "-1"))),
    }


@pytest.mark.parametrize("seed", [0, 7])
def test_shared_symbolic_sweep_matches_per_pair_reference(seed):
    config = CheckConfig(seed=seed, n_points=60)
    for name, op in _criterion_one_operators().items():
        report = check_axioms(op, config)
        assert report.entries == _ref_symbolic_entries(op, config), name


def test_symbolic_sweep_takes_one_image_per_field():
    op = div_sdensity(VolumeForm.from_string(BOX, "exp(x^2 - y)"), 0.5)
    built = []
    symbolic = op.symbolic

    def counting(field):
        if field not in op._images:
            built.append(field)
        return symbolic(field)

    op.symbolic = counting
    rng = np.random.default_rng(0)
    fields = random_fields(BOX, 8, rng) + library_fields(BOX)
    scalars = random_scalars(BOX, 4, rng)
    check_axioms(op, fields=fields, scalars=scalars)
    # D(X) for each field, D([X,Y]) for each pair, D(fX) for each scalar
    # and field, each built once; equal fields share one image
    battery = axioms._Battery(BOX, fields, scalars)
    swept = [x for _, x in fields]
    swept += [battery.bracket(a, b) for a, b in itertools.combinations(range(13), 2)]
    swept += [battery.scaled(k, i) for k in range(4) for i in range(13)]
    assert len(swept) == 143
    assert len(built) == len(set(built)) == len(set(swept))
    assert set(built) == set(swept)
    for _, x in fields:
        assert sum(1 for c in built if c is x) == 1


# ---------------------------------------------------------------------------
# the battery cache
#
# A generated battery depends only on the chart, the seed and the two
# sizes, so check_axioms and classify share one per configuration, with the
# brackets, fields fX and derivatives X(f) it has built.  An explicit battery
# is a one-off, drawn as before and never cached.


def _count_builds(monkeypatch):
    """Record each call of geometry.bracket and geometry.apply_field, under
    every name the sweep reaches them by."""
    calls = []
    for name in ("bracket", "apply_field"):
        original = getattr(geometry, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in (geometry, axioms):
            monkeypatch.setattr(module, name, counting)
    return calls


def test_equal_configs_reuse_one_battery(monkeypatch):
    config = CheckConfig(seed=11, n_points=30, n_fields=3, n_scalars=2)
    first = check_axioms(WEIGHTED_OP.as_blackbox(), config)
    # builds the unit battery's brackets, whichever tests ran before
    classify(WEIGHTED_OP, FLAT_OP, config=ClassifyConfig(seed=11, n_points=5))
    battery = axioms._generated(BOX, 11, 3, 2)
    trees = dict(battery._trees)
    # brackets, fX and X(f) of 3 random and 5 library fields, 2 scalars
    assert len(trees) == 28 + 16 + 16

    calls = _count_builds(monkeypatch)
    chart = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    op = div_volume(VolumeForm.from_string(chart, "exp(x+0.5*y)"))
    second = check_axioms(op.as_blackbox(),
                          CheckConfig(seed=11, n_points=30, n_fields=3, n_scalars=2))
    verdict = classify(op, FLAT_OP, config=ClassifyConfig(
        seed=11, n_points=30, n_fields=3, n_scalars=2))
    assert calls == []
    assert battery._trees.keys() == trees.keys()
    assert all(battery._trees[key] is tree for key, tree in trees.items())
    assert verdict.verdict == DIVERGENCE

    assert second.entries == first.entries and second.manifest == first.manifest
    monkeypatch.undo()
    _assert_matches_reference(WEIGHTED_OP.as_blackbox(), config)


def _recording_batteries(monkeypatch):
    built = []

    class Recording(axioms._Battery):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(axioms, "_Battery", Recording)
    return built


def test_explicit_batteries_keep_the_rng_streams_and_stay_uncached(monkeypatch):
    config = CheckConfig(seed=5, n_points=10, n_fields=2, n_scalars=2)
    fields = library_fields(BOX)[:2]
    scalars = [("g", ex("x*y - 0.5"))]
    built = _recording_batteries(monkeypatch)
    axioms._generated.cache_clear()

    only_fields = check_axioms(WEIGHTED_OP, config, fields=fields)
    only_scalars = check_axioms(WEIGHTED_OP, config, scalars=scalars)
    both = check_axioms(WEIGHTED_OP, config, fields, scalars)
    assert axioms._generated.cache_info().currsize == 0
    assert len(built) == 3
    assert built[0].fields == fields
    assert built[0].scalars == random_scalars(BOX, 2, np.random.default_rng(5))
    assert built[1].fields == random_fields(BOX, 2, np.random.default_rng(5)) \
        + library_fields(BOX)
    assert built[1].scalars == scalars

    # the manifest counts the random fields and scalars actually drawn
    assert (only_fields.manifest["n_fields"], only_fields.manifest["n_scalars"]) == (0, 2)
    assert (only_scalars.manifest["n_fields"], only_scalars.manifest["n_scalars"]) == (2, 0)
    assert (both.manifest["n_fields"], both.manifest["n_scalars"]) == (0, 0)
    assert both.manifest["fields"] == ["unit_x", "unit_y"]
    assert both.manifest["scalars"] == ["g"]
    assert only_fields.manifest["scalars"] == ["f0", "f1"]


def test_battery_cache_is_bounded():
    bound = axioms._generated.cache_info().maxsize
    assert bound == axioms._BATTERY_CACHE
    for seed in range(bound + 2):
        report = check_axioms(FLAT_OP, CheckConfig(seed=seed, n_points=5,
                                                   n_fields=1, n_scalars=1))
        assert report.passed
    assert axioms._generated.cache_info().currsize <= bound


# ---------------------------------------------------------------------------
# images kept between sweeps
#
# An operator never changes after it is built, so it keeps each image D(X)
# while X lives.  A second sweep gives the same report as the first without
# building an image, a tree or a plan again.


def test_second_sweep_of_one_operator_builds_no_image(monkeypatch):
    op = div_sdensity(VolumeForm.from_string(BOX, "exp(x - 0.25*y)"), 0.5)
    config = CheckConfig(seed=13, n_points=25, n_fields=2, n_scalars=2)
    first = check_axioms(op, config)
    images = dict(op._images)
    # one image per distinct field among the 7 fields, 21 brackets and 14
    # fX; equal fields (the brackets of the unit fields are all 0) share one
    battery = axioms._generated(BOX, 13, 2, 2)
    swept = [x for _, x in battery.fields] + [battery.bracket(a, b)
                                              for a in range(7) for b in range(a + 1, 7)]
    swept += [battery.scaled(k, i) for k in range(2) for i in range(7)]
    assert len(swept) == 42 and images.keys() == set(swept)

    simplified = []
    original = expr_module._simplify

    def counting(e):
        simplified.append(e)
        return original(e)

    monkeypatch.setattr(expr_module, "_simplify", counting)
    second = check_axioms(op, config)
    # the opaque route reaches the same images through apply_fields
    opaque = check_axioms(op.as_blackbox(), config)
    assert simplified == []
    assert dict(op._images).keys() == images.keys()
    assert all(op._images[x] is image for x, image in images.items())
    assert second.entries == first.entries and second.manifest == first.manifest
    monkeypatch.undo()
    assert opaque.entries == _ref_entries(op.as_blackbox(), config)


def test_warm_sweep_builds_no_tree_and_no_plan(monkeypatch):
    # the images, the battery's trees and the evaluation plans all outlive
    # the first sweep, so a second one of the operator and of its blackbox
    # view builds none of them again
    op = div_sdensity(VolumeForm.from_string(BOX, "exp(x - 0.25*y)"), 0.5)
    config = CheckConfig(seed=21, n_points=25, n_fields=2, n_scalars=2)
    hidden = op.as_blackbox()
    first = [check_axioms(target, config) for target in (op, hidden)]
    built = _count_builds(monkeypatch)
    for name in ("_Program", "_parent_counts", "_simplify"):
        original = getattr(expr_module, name)
        monkeypatch.setattr(expr_module, name,
                            lambda *args, _name=name, _original=original:
                            built.append(_name) or _original(*args))
    second = [check_axioms(target, config) for target in (op, hidden)]
    monkeypatch.undo()
    assert built == []
    assert [(r.entries, r.manifest) for r in second] \
        == [(r.entries, r.manifest) for r in first]


def test_warm_sweep_programs_take_few_column_chunks(monkeypatch):
    # rows freed after their last reader are reused, so the 14 programs of
    # one warm criterion-1 pass (seed 2501) that run at its 100 points fit
    # the buffer in 29 column chunks or fewer; with a row per node they
    # took 49.  The blackbox sweeps' 400-point probe sets run level by
    # level too, in programs of their own, not counted here.
    from test_acceptance import fixture_operators

    config = CheckConfig(seed=2501)
    targets = [t for _, op in fixture_operators() for t in (op, op.as_blackbox())]
    for target in targets:
        check_axioms(target, config)
    runs = {}
    run = expr_module._Program.run

    def recording(program, arrays, m):
        if m == config.n_points:
            runs[id(program)] = (program.n_rows, m)
        return run(program, arrays, m)

    monkeypatch.setattr(expr_module._Program, "run", recording)
    for target in targets:
        check_axioms(target, config)
    monkeypatch.undo()
    width = [max(1, min(m, expr_module._BUFFER_BYTES // (8 * n)))
             for n, m in runs.values()]
    chunks = [math.ceil(m / w) for (_, m), w in zip(runs.values(), width)]
    assert len(chunks) == 14
    assert sum(chunks) <= 29, chunks


def test_warm_sweep_keeps_its_layout(monkeypatch):
    # the battery keeps each sweep's roots and row offsets per operator, so
    # a second sweep of one operator and battery looks up no image and no
    # battery tree, for a symbolic operator and for a blackbox
    op = div_sdensity(VolumeForm.from_string(BOX, "exp(x - 0.25*y)"), 0.5)
    hidden = blackbox_operator(BOX, lambda x, p: op.apply(x, p),
                               lambda x, pts: op.apply_many(x, pts), weight=0.5)
    config = CheckConfig(seed=22, n_points=25, n_fields=2, n_scalars=2)
    first = [check_axioms(target, config) for target in (op, hidden)]
    calls = []
    for owner, name in ((DivOperator, "symbolic"), (axioms._Battery, "bracket"),
                        (axioms._Battery, "scaled"), (axioms._Battery, "along")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, _name=name, _original=original:
                            calls.append(_name) or _original(*args))
    second = [check_axioms(op, config)]
    counted = list(calls)
    second.append(check_axioms(hidden, config))
    monkeypatch.undo()
    assert counted == []
    # the blackbox's own callable looks up op's images; the sweep does not
    assert set(calls) <= {"symbolic"}
    assert [r.entries for r in second] == [r.entries for r in first]


def test_blackbox_probe_sets_run_level_by_level(monkeypatch):
    # at 100 samples on a 2-D chart each field's probe set holds 400 points,
    # under the level-by-level limit, so a blackbox of a symbolic operator
    # evaluates its probes through a program too
    op = div_volume(VolumeForm.from_string(BOX, "exp(x - 0.25*y)"))
    config = CheckConfig(seed=23, n_points=100, n_fields=2, n_scalars=1)
    sizes = []
    run = expr_module._Program.run
    monkeypatch.setattr(expr_module._Program, "run",
                        lambda program, arrays, m: sizes.append(m)
                        or run(program, arrays, m))
    report = check_axioms(op.as_blackbox(), config)
    monkeypatch.undo()
    assert 4 * config.n_points in sizes
    assert report.passed


def test_kept_layout_does_not_keep_its_operator_alive():
    # layouts are keyed weakly by the operator, so a battery that outlives
    # the operator, as a generated one does, does not pin it
    config = CheckConfig(seed=24, n_points=10, n_fields=2, n_scalars=1)
    op = div_volume(VolumeForm.from_string(BOX, "exp(0.5*x*y)"))
    hidden = op.as_blackbox()
    check_axioms(op, config)
    check_axioms(hidden, config)
    battery = axioms._generated(BOX, config.seed, config.n_fields, config.n_scalars)
    assert len(battery._layouts) == 2
    refs = [weakref.ref(op), weakref.ref(hidden)]
    del op, hidden
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert len(battery._layouts) == 0


# ---------------------------------------------------------------------------
# the normal form as an oracle
#
# A symbolic D = s * div_flat + theta has closed-form residuals: div_flat
# obeys the bracket rule exactly, so the signed cocycle residual of (X, Y),
# D([X,Y]) - X(D(Y)) + Y(D(X)), is -d theta(X, Y), and the Leibniz residual
# at weight w is (s - w) X(f).  Each swept array must match its closed form,
# sign included, to the rounding bound that README states, gamma_k * S for
# k roundings on terms of total magnitude S.

UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _magnitude(e, arrays, memo):
    """(S, k) for a tree of +, -, *, integer powers, sin and cos: S is the
    tree evaluated on absolute values (1 + |a| for sin a and cos a), k the
    most roundings any term of its expansion meets.  Computing the tree in
    floating point then errs by at most gamma_k * S."""
    if id(e) in memo:
        return memo[id(e)][1]
    kind, args = e.kind, e.args
    parts = [_magnitude(a, arrays, memo) for a in args]
    if kind == "const":
        out = (abs(e.value), 0)
    elif kind == "var":
        out = (np.abs(arrays[e.name]), 0)
    elif kind == "neg":
        out = parts[0]
    elif kind in ("add", "sub"):
        out = (parts[0][0] + parts[1][0], max(parts[0][1], parts[1][1]) + 1)
    elif kind == "mul":
        out = (parts[0][0] * parts[1][0], parts[0][1] + parts[1][1] + 1)
    elif kind == "pow" and args[1].kind == "const" \
            and float(args[1].value).is_integer() and args[1].value >= 0:
        p = int(args[1].value)
        out = (parts[0][0] ** p, p * parts[0][1] + 2)
    elif kind in ("sin", "cos"):
        out = (1.0 + parts[0][0], parts[0][1] + 1)
    else:
        raise NotImplementedError(kind)
    memo[id(e)] = (e, out)  # the node is kept, so its id is not reused
    return out


def _rounding_bound(e, arrays, memo):
    mag, k = _magnitude(e, arrays, memo)
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF) * mag


@st.composite
def _normal_forms(draw):
    dim = draw(st.sampled_from([2, 3]))
    chart = Chart(("x", "y", "z")[:dim], ((-1.0, 1.0),) * dim)
    monomials = [m for m, _ in axioms._monomials(chart.coords, 2)]
    # three decimals keep the coefficients clear of subnormal products
    coeffs = st.lists(st.floats(-2.0, 2.0).map(lambda v: round(v, 3)),
                      min_size=len(monomials), max_size=len(monomials))
    theta = OneForm(chart, tuple(
        sum((const(c) * m for c, m in zip(draw(coeffs), monomials)),
            const(0.0)).simplify()
        for _ in range(dim)))
    s = draw(st.sampled_from([0.5, 1.0, 2.0]))
    w = draw(st.sampled_from([0.0, 1.0]))
    return DivOperator(chart, "normal form", weight=s, theta=theta), w


@settings(max_examples=8, deadline=None)
@given(_normal_forms())
def test_sweep_residuals_match_the_normal_form(case):
    op, w = case
    chart, s = op.chart, op.weight
    config = CheckConfig()
    battery = axioms._generated(chart, config.seed, config.n_fields,
                                config.n_scalars)
    pts = np.asarray(sample_points(chart, config.n_points, config.seed))
    arrays = chart.arrays(pts)
    swept = list(axioms._residuals(op, battery, w, pts, config.fd_step_scale))
    fields = [x for _, x in battery.fields]
    d_theta = d_oneform(op.theta)
    memo = {}
    # (closed form, the residual as a tree of the values the sweep combines,
    # built here only for its magnitude), in the sweep's order: pairs, then
    # scalar by field
    want = []
    for a, b in itertools.combinations(range(len(fields)), 2):
        x, y = fields[a], fields[b]
        closed = const(0.0)
        for i, j in itertools.product(range(chart.dim), repeat=2):
            closed = closed - x.components[i] * y.components[j] * d_theta[i][j]
        dx, dy = op.symbolic(x), op.symbolic(y)
        computed = op.symbolic(battery.bracket(a, b))
        for comp, nm in zip(x.components, chart.coords):
            computed = computed - comp * dy.diff(nm)
        for comp, nm in zip(y.components, chart.coords):
            computed = computed + comp * dx.diff(nm)
        want.append((closed, computed))
    for k, (_, f) in enumerate(battery.scalars):
        for i, x in enumerate(fields):
            closed = const(s - w) * apply_field(x, f)
            computed = op.symbolic(battery.scaled(k, i)) - f * op.symbolic(x) \
                - const(w) * battery.along(i, k)
            want.append((closed, computed))
    assert len(swept) == len(want) > 0
    for got, (closed, computed) in zip(swept, want):
        gap = np.abs(got - closed.eval_many(arrays))
        allowed = _rounding_bound(closed, arrays, memo) \
            + _rounding_bound(computed, arrays, memo)
        assert np.all(gap <= allowed), (closed, float(np.max(gap - allowed)))
