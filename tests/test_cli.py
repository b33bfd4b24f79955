"""Command-line behaviour, compared against checked-in golden transcripts.

A transcript is compared to its golden file by what the CLI promises (see
"Command line" in the README), not byte for byte: line order, keys, labels,
verdicts and commentary must match exactly, and each printed number is
compared by its class, within a bound derived from the unit roundoff.
"""

import functools
import pathlib
import re

import numpy as np
import pytest

from divkit.cli import main
from divkit.reconstruct import (
    ClassifyConfig,
    extract_oneform,
    integrate_potential,
    star_shaped_subchart,
)
from divkit.specfile import parse_specfile

HERE = pathlib.Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

BOX = str(DATA / "box.dvk")
ANNULUS = str(DATA / "annulus.dvk")
POLAR = str(DATA / "polar.dvk")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (GOLDEN / f"{name}.txt").read_text()


GOLDEN_CASES = [
    ("check_axioms_pass", 0, ["check-axioms", "--spec", BOX, "D"]),
    ("check_axioms_fail", 1, ["check-axioms", "--spec", BOX, "D_bad"]),
    ("classify_divergence", 0, ["classify", "--spec", BOX, "D", "D0"]),
    ("classify_not_cocycle", 1, ["classify", "--spec", BOX, "D_bad", "D0"]),
    ("classify_obstructed", 1, ["classify", "--spec", ANNULUS, "D_angular", "D0"]),
    ("classify_restricted", 0, ["classify", "--spec", ANNULUS, "D_exact", "D0"]),
    ("divergence_points", 0, ["divergence", "--spec", BOX, "D", "dilation",
                              "--point", "0.5,0.25", "--point=-0.5,0.0"]),
    ("divergence_blackbox", 0, ["divergence", "--spec", BOX, "D_opaque",
                                "dilation", "--point", "0.5,0.25"]),
    ("verify_kn_parallel", 0, ["verify-kn", "--spec", POLAR, "area", "lc"]),
    ("verify_kn_not_parallel", 0, ["verify-kn", "--spec", POLAR, "skew", "zero"]),
    ("integrate_vanish_pass", 0, ["integrate-vanish", "--spec", BOX, "weighted"]),
    ("integrate_vanish_no_claim", 0, ["integrate-vanish", "--spec", BOX,
                                      "D_half", "--center=0.25,0"]),
]


CASE_ARGV = {name: argv for name, _, argv in GOLDEN_CASES}


# ---------------------------------------------------------------------------
# comparing a transcript with its golden
#
# Every printed number falls in one of three classes.  The bounds below come
# from the unit roundoff u = eps/2 of IEEE doubles.

EPS = np.finfo(float).eps

# 1. Rounding residue.  A quantity that is exactly zero prints the rounding
#    left once its terms cancel.  k roundings on terms of total magnitude S
#    leave at most gamma_k * S, about k*u*S (Higham, Accuracy and Stability
#    of Numerical Algorithms, 2nd ed., Lemma 3.1 and eq. (4.4)).  The largest
#    S in these transcripts is 615, for D[X,Y] - X(D Y) + Y(D X) in the
#    check-axioms sweep of box.dvk.  S <= 2**10 and k = 8 give 2**-40, about
#    9.1e-13: seven times the largest residue printed (7.8e-14).
RESIDUE_FLOOR = 8 * (EPS / 2) * 2.0 ** 10
# 2. Finite-difference residuals: see verification_bound.
# 3. Every other value keeps seven of its nine printed digits.
RELATIVE_TOL = 1e-7

NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
# a number standing alone, not the digit in a name such as poly5 or D0
LONE_NUMBER = re.compile(rf"(?<![\w.]){NUMBER}(?![\w.])")
PAIR_LINE = re.compile(
    rf"RESIDUAL \w+\(\w+,\w+\) ({NUMBER}) at \(({NUMBER}(?:, {NUMBER})*)\)")


@functools.lru_cache(maxsize=None)
def verification_bound(spec_path, candidate, base):
    """Allowed drift of the verification residual that `classify` prints.

    The residual is the error of central differences with step h on the
    rebuilt density exp(P) * rho0, where the potential P is zero at the
    basepoint and is a quadrature sum.  Rounding moves only the rounding
    part of that error.  Values with relative error delta give a rounding
    part of at most delta / h (Sauer, Numerical Analysis, section 5.1), and
    delta is about u * max|P|, the log-density range seen from the
    basepoint.  Two runs thus differ by at most eps * max|P| / h.
    """
    spec = parse_specfile(spec_path)
    op, ref = spec.operator(candidate), spec.operator(base)
    work = star_shaped_subchart(op.chart)
    h = ClassifyConfig().fd_step_scale * work.min_side
    axes = np.meshgrid(*(np.linspace(a, b, 33) for a, b in work.box))
    grid = np.stack([axis.ravel() for axis in axes], axis=1)
    potential = integrate_potential(extract_oneform(op, ref), work)
    return EPS * float(np.abs(potential.many(grid)).max()) / h


def _value_index(line, count):
    """Position of the computed value among the numbers of a keyed line."""
    key = line.split(" ", 1)[0]
    if count and key in ("RESIDUAL", "PERIOD", "VERDICT"):
        return 0
    if count and key == "VALUE":
        return count - 1
    return None


def _pair_shape_mismatches(g, a):
    """A worst pair whose residual is rounding residue.

    Which pair and point come out on top is then noise, so only the key, a
    name(a,b) label and a point of the golden's dimension are contract.
    """
    dim = PAIR_LINE.fullmatch(g).group(2).count(",") + 1
    match = PAIR_LINE.fullmatch(a)
    if match is None or match.group(2).count(",") + 1 != dim:
        return [f"{a!r} is not a worst pair with a {dim}-d point"]
    if not abs(float(match.group(1))) <= RESIDUE_FLOOR:
        return [f"{match.group(1)} against golden {g!r}: class rounding "
                f"residue, allowed deviation {RESIDUE_FLOOR:.3g} from 0"]
    return []


def _line_mismatches(g, a, fd_bound):
    if g.startswith("EXPRESSION "):
        return [] if a == g else [f"{a!r} is not {g!r}"]
    g_numbers = LONE_NUMBER.findall(g)
    value_at = _value_index(g, len(g_numbers))
    residue = value_at is not None \
        and abs(float(g_numbers[value_at])) <= RESIDUE_FLOOR
    if residue and PAIR_LINE.fullmatch(g):
        return _pair_shape_mismatches(g, a)
    if LONE_NUMBER.sub("#", a) != LONE_NUMBER.sub("#", g):
        return [f"{a!r} differs from {g!r} outside its numbers"]
    problems = []
    for k, (gt, at) in enumerate(zip(g_numbers, LONE_NUMBER.findall(a))):
        gv, av = float(gt), float(at)
        if k == value_at and residue:
            cls, limit, dev = "rounding residue", RESIDUE_FLOOR, abs(av)
        elif k == value_at and g.startswith("RESIDUAL verification "):
            cls, limit, dev = "finite difference", fd_bound, abs(av - gv)
        else:
            cls, limit, dev = "relative", RELATIVE_TOL * abs(gv), abs(av - gv)
        if not dev <= limit:
            problems.append(f"{at} against golden {gt}: class {cls}, "
                            f"deviation {dev:.3g}, allowed {limit:.3g}")
    return problems


def compare(name, text):
    """Every way `text` breaks the CLI contract against golden `name`."""
    golden_text = golden(name)
    fd_bound = None
    if "RESIDUAL verification " in golden_text:
        fd_bound = verification_bound(*CASE_ARGV[name][2:5])
    expected, got = golden_text.split("\n"), text.split("\n")
    problems = [f"{name}.txt line {number}: {p}"
                for number, (g, a) in enumerate(zip(expected, got), 1)
                for p in _line_mismatches(g, a, fd_bound)]
    if len(got) != len(expected):
        problems.insert(0, f"{name}.txt: {len(got)} lines, golden has "
                           f"{len(expected)}")
    return problems


@pytest.mark.parametrize("name,expected_code,argv",
                         GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_transcripts(capsys, name, expected_code, argv):
    code, out, _ = run(capsys, *argv)
    assert code == expected_code
    problems = compare(name, out)
    assert not problems, "\n".join(problems)


# ---------------------------------------------------------------------------
# the comparison itself: rounding drift passes, contract breaks do not


def altered(name, *swaps):
    text = golden(name)
    for old, new in swaps:
        assert old in text, (name, old)
        text = text.replace(old, new)
    return text


RECORDED_DRIFT = [
    # Python 3.11.7 / numpy 2.4.6 on x86-64, against goldens recorded under
    # Python 3.10; _no_avx512 ran with NPY_DISABLE_CPU_FEATURES set to
    # "X86_V4 AVX512_ICL AVX512_SPR"
    pytest.param("classify_divergence",
                 [("1.09770171e-09", "1.10066201e-09")],
                 id="classify_divergence"),
    pytest.param("classify_restricted",
                 [("2.06391348e-10", "1.99375405e-10"),
                  ("1.1855233e-16", "1.11689933e-16")],
                 id="classify_restricted"),
    pytest.param("integrate_vanish_pass",
                 [("8.01114076e-19", "5.07920943e-18")],
                 id="integrate_vanish_pass"),
    pytest.param("integrate_vanish_pass",
                 [("8.01114076e-19", "5.0791565e-18")],
                 id="integrate_vanish_pass_no_avx512"),
    # quotients evaluated as products with a reciprocal
    pytest.param("check_axioms_pass",
                 [("7.81597009e-14", "7.1942452e-14"),
                  ("cocycle(poly5,poly7)", "cocycle(poly4,poly7)")],
                 id="check_axioms_pass_reciprocal"),
    pytest.param("verify_kn_parallel",
                 [("operator 1.11022302e-16", "operator 0")],
                 id="verify_kn_parallel_reciprocal"),
]


def test_comparison_accepts_every_golden():
    assert not [p for name in CASE_ARGV for p in compare(name, golden(name))]


@pytest.mark.parametrize("name,swaps", RECORDED_DRIFT)
def test_comparison_accepts_rounding_drift(name, swaps):
    assert not compare(name, altered(name, *swaps))


VERDICT_SWAP = {"PASS": "FAIL", "FAIL": "PASS", "divergence": "not_cocycle",
                "not_cocycle": "divergence", "closed_not_exact": "divergence",
                "PARALLEL": "NOT_PARALLEL", "NOT_PARALLEL": "PARALLEL"}

NAMED_BREAKS = [
    ("commentary_word", "classify_divergence", "against base", "versus base"),
    ("commentary_word", "check_axioms_pass", "skipped 0 of", "skipped 0 in"),
    ("commentary_word", "integrate_vanish_pass", "bump center", "bump centre"),
    ("commentary_word", "classify_restricted", "to box", "to slab"),
    ("commentary_word", "verify_kn_parallel", "volume area", "density area"),
    ("period_digits", "classify_obstructed", "PERIOD circle 6.28318531",
     "PERIOD circle 6.2832"),
    ("failing_pair_label", "check_axioms_fail", "cocycle(poly3,poly4)",
     "cocycle(poly4,poly3)"),
    ("failing_pair_label", "check_axioms_fail", "cocycle(poly3,poly4)",
     "leibniz(poly3,poly4)"),
]


def contract_breaks():
    """(kind, golden name, altered copy) for each alteration to reject."""
    for name in CASE_ARGV:
        lines = golden(name).split("\n")
        body = len(lines) - 1  # the last item follows the final newline

        def with_line(i, line):
            return "\n".join(lines[:i] + [line] + lines[i + 1:])

        for i, line in enumerate(lines[:body]):
            yield "dropped_line", name, "\n".join(lines[:i] + lines[i + 1:])
            if i + 1 < body and line != lines[i + 1]:
                swapped = lines[:i] + [lines[i + 1], line] + lines[i + 2:]
                yield "swapped_lines", name, "\n".join(swapped)
            if line.startswith("VERDICT "):
                word = line.split()[1]
                yield "verdict_word", name, with_line(
                    i, line.replace(word, VERDICT_SWAP[word], 1))
            numbers = list(LONE_NUMBER.finditer(line))
            at = _value_index(line, len(numbers))
            if at is not None and \
                    abs(float(numbers[at].group())) <= RESIDUE_FLOOR:
                m = numbers[at]
                yield "residue_at_1e-10", name, with_line(
                    i, line[:m.start()] + "1e-10" + line[m.end():])
    for kind, name, old, new in NAMED_BREAKS:
        yield kind, name, altered(name, (old, new))
    for name in ("classify_divergence", "classify_restricted"):
        value = re.search(r"RESIDUAL verification (\S+)", golden(name))[1]
        for factor in (2.0, 0.5):
            yield "verification_scaled", name, altered(
                name, (value, f"{float(value) * factor:.9g}"))


@pytest.mark.parametrize("kind", sorted({k for k, _, _ in contract_breaks()}))
def test_comparison_rejects_contract_breaks(kind):
    cases = [(name, text) for k, name, text in contract_breaks() if k == kind]
    accepted = [(name, text) for name, text in cases if not compare(name, text)]
    assert cases and not accepted


def test_residue_floor_far_below_every_tolerance():
    tols = [parse_specfile(path).config.get("tol")
            for path in sorted(DATA.glob("*.dvk"))]
    tols += [float(t) for path in sorted(GOLDEN.glob("*.txt"))
             for t in re.findall(r"tolerance=(\S+)", path.read_text())]
    tols = [t for t in tols if t is not None]
    assert tols and min(tols) >= 1e4 * RESIDUE_FLOOR


def test_machine_lines_have_fixed_prefixes(capsys):
    _, out, _ = run(capsys, "classify", "--spec", ANNULUS, "D_angular", "D0")
    keyed = [ln for ln in out.splitlines()
             if ln.split(" ", 1)[0] in ("VERDICT", "RESIDUAL", "PERIOD", "VALUE")]
    assert any(ln.startswith("RESIDUAL tensoriality ") for ln in keyed)
    assert any(ln.startswith("PERIOD circle ") for ln in keyed)
    assert keyed[-1].startswith("VERDICT closed_not_exact PERIOD ")


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_operator_is_validation_error(capsys):
    code, _, err = run(capsys, "check-axioms", "--spec", BOX, "missing")
    assert code == 2
    assert "unknown operator" in err


def test_unreadable_spec_path(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--spec",
                       str(tmp_path / "nope.dvk"), "a", "b")
    assert code == 2
    assert "error" in err


def test_malformed_spec_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.dvk"
    bad.write_text("[chart]\ncoords = x, y\nbox = -1, 1; -1, 1\n"
                   "[volume v]\ndensity = x\n")
    code, _, err = run(capsys, "check-axioms", "--spec", str(bad), "v")
    assert code == 2
    assert "line 4" in err and "positive" in err


def test_missing_argument_exits_two(capsys):
    assert run(capsys, "check-axioms", "--spec", BOX)[0] == 2
    assert run(capsys, "divergence", "--spec", BOX, "D")[0] == 2


def test_domain_error_exits_three(capsys):
    code, _, err = run(capsys, "integrate-vanish", "--spec", BOX, "weighted",
                       "--radius", "2.0")
    assert code == 3
    assert "support" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_bad_point_count_prints_nothing(capsys, count):
    code, out, err = run(capsys, "divergence", "--spec", BOX, "D", "dilation",
                         "--points", count)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_point_outside_chart_exits_three(capsys):
    code, _, _ = run(capsys, "divergence", "--spec", BOX, "D", "dilation",
                     "--point", "3.0,0.0")
    assert code == 3


def test_operator_without_density_rejected(capsys):
    code, _, err = run(capsys, "integrate-vanish", "--spec", BOX, "D_opaque")
    assert code == 2
    assert "density" in err


def test_perturbed_blackbox_base_runs_pointwise(capsys, tmp_path):
    # a one-form shift of an opaque operator stays opaque: it is swept by
    # finite differences and classified pointwise, never symbolically
    spec = tmp_path / "perturbed_opaque.dvk"
    spec.write_text((DATA / "box.dvk").read_text() + """
[operator P]
kind = perturbed
base = D_opaque
oneform = swirl
""")
    code, out, err = run(capsys, "check-axioms", "--spec", str(spec), "P")
    assert code == 1
    assert "mode=finite-difference" in out.splitlines()[0]
    assert out.splitlines()[-1] == "VERDICT FAIL"
    assert "Traceback" not in err
    code, out, err = run(capsys, "classify", "--spec", str(spec), "P", "D0")
    assert code == 1
    assert out.splitlines()[-1] == "VERDICT not_cocycle"
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify-kn verdict logic


def test_verify_kn_inconsistent_at_scale(capsys, tmp_path):
    # parallel residual is absolute (= 1 here) while the operator gap scales
    # like 1/rho, so a huge density splits the two sides of the equivalence
    spec = tmp_path / "scale.dvk"
    spec.write_text("""
[chart]
coords = x, y
box = -1, 1; -1, 1

[volume huge]
density = 1000000000 + x

[connection zero]
Gamma 0 0 0 = 0
""")
    code, out, _ = run(capsys, "verify-kn", "--spec", str(spec), "huge", "zero")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "VERDICT INCONSISTENT"


# ---------------------------------------------------------------------------
# settings precedence


def seed_of(out):
    # first VALUE line identifies the sample set
    return next(ln for ln in out.splitlines() if ln.startswith("VALUE "))


def test_seed_flag_beats_config(capsys):
    base = run(capsys, "divergence", "--spec", BOX, "D", "dilation",
               "--points", "2")
    seeded = run(capsys, "divergence", "--spec", BOX, "D", "dilation",
                 "--points", "2", "--seed", "7")
    assert seed_of(base[1]) != seed_of(seeded[1])


def test_config_seed_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("DIVKIT_SEED", "7")
    with_env = run(capsys, "divergence", "--spec", BOX, "D", "dilation",
                   "--points", "2")
    monkeypatch.delenv("DIVKIT_SEED")
    without = run(capsys, "divergence", "--spec", BOX, "D", "dilation",
                  "--points", "2")
    # box.dvk pins seed = 0 in [config], so the env var must be ignored
    assert with_env[1] == without[1]


def test_environment_seed_used_without_config(capsys, monkeypatch):
    plain = run(capsys, "divergence", "--spec", POLAR, "D_g", "radial",
                "--points", "2")
    monkeypatch.setenv("DIVKIT_SEED", "7")
    seeded = run(capsys, "divergence", "--spec", POLAR, "D_g", "radial",
                 "--points", "2")
    assert seed_of(plain[1]) != seed_of(seeded[1])


def test_tol_flag_changes_verdict(capsys):
    # the closed perturbation passes at 1e-6 but a zero-ish tolerance fails
    code_loose = run(capsys, "check-axioms", "--spec", BOX, "D")[0]
    code_tight = run(capsys, "check-axioms", "--spec", BOX, "D",
                     "--tol", "1e-16")[0]
    assert code_loose == 0 and code_tight == 1


@pytest.mark.parametrize("argv", [
    # tolerances that would print a wrong verdict with exit 0 or 1
    ["verify-kn", "--spec", POLAR, "area", "lc", "--tol=nan"],
    ["verify-kn", "--spec", POLAR, "area", "lc", "--tol=-1"],
    ["verify-kn", "--spec", POLAR, "skew", "zero", "--tol=inf"],
    ["integrate-vanish", "--spec", BOX, "weighted", "--tol=nan"],
    ["check-axioms", "--spec", BOX, "D_bad", "--tol=inf"],
    ["classify", "--spec", BOX, "D", "D0", "--tol=nan"],
    ["divergence", "--spec", BOX, "D", "dilation", "--tol=-inf"],
    # seeds numpy cannot take
    ["check-axioms", "--spec", BOX, "D", "--seed", "-1"],
    ["classify", "--spec", BOX, "D", "D0", "--seed", "-1"],
    ["divergence", "--spec", BOX, "D", "dilation", "--seed", "-1"],
    ["verify-kn", "--spec", POLAR, "area", "lc", "--seed", "-1"],
    ["integrate-vanish", "--spec", BOX, "weighted", "--seed", "-1"],
])
def test_bad_tolerance_or_seed_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "VERDICT" not in out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_config_or_environment_seed_exits_two(capsys, tmp_path,
                                                  monkeypatch):
    spec = tmp_path / "seeded.dvk"
    spec.write_text(pathlib.Path(BOX).read_text()
                    .replace("seed = 0", "seed = -1"))
    code, _, err = run(capsys, "check-axioms", "--spec", str(spec), "D")
    assert code == 2 and err.count("\n") == 1
    monkeypatch.setenv("DIVKIT_SEED", "abc")
    for argv in (["divergence", "--spec", POLAR, "D_g", "radial"],
                 ["verify-kn", "--spec", POLAR, "area", "lc"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
    monkeypatch.setenv("DIVKIT_SEED", "-3")
    code, _, _ = run(capsys, "divergence", "--spec", POLAR, "D_g", "radial")
    assert code == 2
