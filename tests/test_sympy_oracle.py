"""sympy as an independent oracle for diff and simplify.

Random trees and divkit's results for them are converted to sympy, with
each binary constant kept to 40 digits.  sympy differentiates the input
tree; both sides are then evaluated with mpmath at sample points, from 30
digits up, doubling the precision until two evaluations in a row agree.
Points where divkit's own evaluation leaves the domain, or where either
side is not a finite real, are skipped.  Evaluating both in high
precision keeps double rounding in ill-conditioned trees (log(y^x) at
y = 1e-238, say) out of a check on the symbolic rules; raising it until
the value settles does the same for cancellation that eats more than 30
digits (1/x - cot(x), sympy's form of d/dx log(x/sin(x)), at x = 4e-114
is ~1e-114 but reads -3e82 at 30 digits).  bump is left out: sympy has
no equivalent.
"""

import math

import pytest
from hypothesis import assume, example, given, settings

from divkit.expr import EvalDomainError

from test_expr import XY, _points, expr_trees, p

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

SYMBOLS = {name: sp.Symbol(name, real=True) for name in XY}
FUNCS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "log": sp.log,
         "sqrt": sp.sqrt, "tanh": sp.tanh}
BINARY = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
          "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
          "pow": lambda a, b: a ** b}

trees = expr_trees(funcs=tuple(FUNCS), allow_div=True, allow_pow=True,
                   general_pow=True)


def to_sympy(e):
    if e.kind == "const":
        return sp.Float(e.value, 40)
    if e.kind == "var":
        return SYMBOLS[e.name]
    args = [to_sympy(a) for a in e.args]
    if e.kind == "neg":
        return -args[0]
    if e.kind in BINARY:
        return BINARY[e.kind](*args)
    return FUNCS[e.kind](args[0])


# 30 * 2^7 digits covers cancellation of terms as large as 1/x^2 at the
# smallest subnormal x.
PRECISIONS = tuple(30 * 2 ** k for k in range(8))


def value(s, pt):
    """Value settled to double precision, or None off the real domain or
    when no precision up to PRECISIONS[-1] settles it.  sympy may fold a
    subtree to complex infinity (x - x to 0, so 0^-x to zoo^x), which
    mpmath cannot print and which is no finite real either."""
    if s.has(sp.zoo):
        return None
    f = sp.lambdify([SYMBOLS[k] for k in XY], s, modules="mpmath")
    previous = None
    for dps in PRECISIONS:
        with mpmath.workdps(dps):
            try:
                v = f(*(mpmath.mpf(pt[k]) for k in XY))
            except (ZeroDivisionError, ValueError, OverflowError):
                return None
            if not isinstance(v, mpmath.mpf) or not mpmath.isfinite(v):
                return None
            v = float(v)
        if previous is not None and abs(v - previous) <= 1e-15 * abs(v):
            return v
        previous = v
    return None


def in_domain(e, pt):
    try:
        return math.isfinite(e.eval(pt))
    except EvalDomainError:
        return False


def agrees(ours, theirs):
    return abs(ours - theirs) <= 1e-12 + 1e-9 * abs(theirs)


@settings(max_examples=150, deadline=None)
@given(trees, _points)
@example(p("sin(tanh((x-x)^-x))"), {"x": 0.0, "y": 0.0})
def test_simplify_matches_sympy(e, pt):
    simple = e.simplify()
    assume(in_domain(e, pt) and in_domain(simple, pt))
    want = value(to_sympy(e), pt)
    got = value(to_sympy(simple), pt)
    assume(want is not None and got is not None)
    assert agrees(got, want), (str(e), got, want)


@settings(max_examples=100, deadline=None)
@given(trees, _points)
@example(p("sin(log(x/sin(x)))"), {"x": 3.9492424995520764e-114, "y": 0.0})
def test_diff_matches_sympy(e, pt):
    assume(in_domain(e, pt))
    s = to_sympy(e)
    checked = 0
    for name in XY:
        d = e.diff(name)
        if not in_domain(d, pt):
            continue
        want = value(sp.diff(s, SYMBOLS[name]), pt)
        got = value(to_sympy(d), pt)
        if want is None or got is None:
            continue
        assert agrees(got, want), (str(e), name, got, want)
        checked += 1
    assume(checked)
