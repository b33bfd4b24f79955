"""Axiom residual sweeps: true divergences pass, perturbed ones are caught."""

import math

import numpy as np
import pytest

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
from divkit.errors import DomainError, ValidationError
from divkit.expr import const, parse_expr, var
from divkit.geometry import Chart, OneForm, VectorField, VolumeForm, sample_points
from divkit.operators import (
    Metric,
    div_metric,
    div_sdensity,
    div_volume,
    levi_civita,
    div_affine,
    perturbed_operator,
)

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


def test_cartan_identity_holds():
    vol = VolumeForm.from_string(BOX, "exp(0.3*x)*(1+0.25*y^2)")
    rng = np.random.default_rng(3)
    fields = [f for _, f in random_fields(BOX, 3, rng)]
    for p in sample_points(BOX, 10, seed=4):
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                assert cartan_identity_residual(fields[i], fields[j], vol, p) <= 1e-9


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

    from divkit.operators import blackbox_operator
    bad = blackbox_operator(BOX, patchy)
    report = check_axioms(bad, CheckConfig(n_points=20, n_fields=1, n_scalars=1))
    assert report.skip_rate > 0.10
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
    with pytest.raises(ValidationError):
        CheckConfig(n_points=0)
    for tol in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            CheckConfig(tol=tol)
