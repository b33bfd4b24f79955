"""Parser, calculus, and evaluation tests for the expression DSL."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from divkit.expr import (
    EvalDomainError,
    Expr,
    ExprError,
    ParseError,
    UnknownIdentifierError,
    _add,
    _div,
    _fold_if_const,
    _is_const,
    _mul,
    _neg,
    _pow,
    _sub,
    const,
    parse_expr,
    var,
)

XY = ("x", "y")


def p(text, variables=XY):
    return parse_expr(text, variables)


# ---------------------------------------------------------------------------
# parsing


def test_parse_builds_expected_tree():
    assert p("x+y*x") == Expr("add", (var("x"), Expr("mul", (var("y"), var("x")))))
    assert p("(x+y)*x") == Expr("mul", (Expr("add", (var("x"), var("y"))), var("x")))
    assert p("sin(x)") == Expr("sin", (var("x"),))
    assert p("2.5e-1") == const(0.25)


def test_precedence_and_associativity():
    assert p("2-3-4").eval({}) == -5.0
    assert p("2/4/2").eval({}) == 0.25
    assert p("2^3^2").eval({}) == 512.0  # right associative
    assert p("-x^2").eval({"x": 3.0}) == -9.0
    assert p("2*x^2").eval({"x": 3.0}) == 18.0
    assert p("x^-1").eval({"x": 4.0}) == 0.25
    assert p("1+2*3^2").eval({}) == 19.0


@pytest.mark.parametrize(
    "text,offset",
    [
        ("x + @", 4),
        ("x +", 3),
        ("(x", 2),
        ("x y", 2),
        ("", 0),
        ("x*()", 3),
    ],
)
def test_parse_error_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        p(text)
    assert exc.value.offset == offset


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifierError) as exc:
        p("x + foo")
    assert exc.value.name == "foo"
    assert exc.value.offset == 4
    # unknown name used like a function
    with pytest.raises(UnknownIdentifierError):
        p("f(x)")
    # builtin name not applied to an argument is not a coordinate
    with pytest.raises(UnknownIdentifierError):
        p("sin + 1")


def test_variable_name_validation():
    with pytest.raises(ValueError):
        parse_expr("1", [])
    with pytest.raises(ValueError):
        parse_expr("x", ["x", "x"])
    with pytest.raises(ValueError):
        parse_expr("x", ["2bad"])
    with pytest.raises(ValueError):
        parse_expr("x", ["sin"])


# ---------------------------------------------------------------------------
# evaluation


def test_eval_domain_errors():
    cases = [
        ("log(x)", {"x": 0.0}),
        ("log(x)", {"x": -1.0}),
        ("1/x", {"x": 0.0}),
        ("sqrt(x)", {"x": -1.0}),
        ("x^y", {"x": 0.0, "y": -1.0}),
        ("x^y", {"x": -2.0, "y": 0.5}),
        ("sin(x/y)", {"x": 0.5, "y": 5e-324}),  # x/y overflows to inf
        ("cos(x/y)", {"x": 0.5, "y": 5e-324}),
    ]
    for text, point in cases:
        with pytest.raises(EvalDomainError):
            p(text).eval(point)


def test_bump_values():
    b = p("bump(x)")
    assert b.eval({"x": 0.0}) == 0.36787944117144233
    assert b.eval({"x": 0.5}) == 0.26359713811572677
    assert b.eval({"x": 0.9}) == 0.005178924370597747
    assert b.eval({"x": 1.0}) == 0.0
    assert b.eval({"x": -1.0}) == 0.0
    assert b.eval({"x": 17.0}) == 0.0
    assert b.eval({"x": -0.5}) == b.eval({"x": 0.5})


def test_bump_derivative_singular_on_support_edge():
    db = p("bump(x)").diff("x")
    # smooth and odd inside the support
    assert db.eval({"x": 0.0}) == 0.0
    assert db.eval({"x": 0.5}) == pytest.approx(-db.eval({"x": -0.5}), abs=0.0)
    # the rational factor has a pole at |x| = 1 even though bump itself is 0
    for edge in (1.0, -1.0):
        with pytest.raises(EvalDomainError):
            db.eval({"x": edge})
    assert db.eval({"x": 2.0}) == 0.0


def test_eval_is_deterministic():
    e1 = p("sin(x)*exp(y)-x/(y+3)")
    e2 = p("sin(x)*exp(y)-x/(y+3)")
    assert e1 == e2
    pt = {"x": 0.3218, "y": -0.777}
    assert e1.eval(pt) == e2.eval(pt)
    assert e1.eval(pt) == e1.eval(pt)


def test_eval_many_matches_scalar():
    exprs = [
        p("x^2*sin(y)+exp(x*y)"),
        p("bump(x)*bump(y)"),
        p("tanh(x-y)/(2+x^2)"),
        p("sqrt(x^2+y^2+1)"),
    ]
    xs = np.linspace(-2.0, 2.0, 41)
    ys = np.linspace(-1.5, 1.5, 41)
    for e in exprs:
        vec = e.eval_many({"x": xs, "y": ys})
        scl = np.array([_ref_eval(e, {"x": a, "y": b}, {}) for a, b in zip(xs, ys)])
        # numpy ufuncs and libm may disagree in the last ulp
        np.testing.assert_allclose(vec, scl, rtol=4e-16, atol=0)


def test_eval_many_marks_domain_violations_nonfinite():
    e = p("log(x)")
    out = e.eval_many({"x": np.array([1.0, 0.0, -1.0, math.e])})
    assert out[0] == 0.0
    assert not np.isfinite(out[1])
    assert not np.isfinite(out[2])
    assert out[3] == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# differentiation


def _fd(e, name, point, h=1e-6):
    up = dict(point)
    dn = dict(point)
    up[name] += h
    dn[name] -= h
    return (e.eval(up) - e.eval(dn)) / (2 * h)


@pytest.mark.parametrize(
    "text",
    [
        "x^2*y",
        "sin(x)*cos(y)",
        "exp(x*y)-tanh(x)",
        "log(x+3)/sqrt(y+2)",
        "x^y",
        "bump(x*0.7)*y",
        "(x-y)/(x^2+1)",
    ],
)
def test_diff_matches_finite_differences(text):
    e = p(text)
    pts = [
        {"x": 0.4, "y": 0.9},
        {"x": 1.3, "y": 0.2},
        {"x": -0.6, "y": 1.1},
    ]
    for name in XY:
        d = e.diff(name)
        for pt in pts:
            try:
                want = _fd(e, name, pt)
            except EvalDomainError:
                continue  # point outside the expression's domain
            got = d.eval(pt)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_diff_folds_trivial_factors():
    assert p("x*y").diff("x") == var("y")
    assert p("x+y").diff("y") == const(1.0)
    assert p("sin(y)").diff("x") == const(0.0)


def test_diff_known_closed_forms():
    d = p("x^2*y").diff("x")
    for ptx, pty in [(0.5, 2.0), (-1.5, 0.25)]:
        assert d.eval({"x": ptx, "y": pty}) == pytest.approx(2 * ptx * pty, rel=1e-15)
    d2 = p("exp(x^2)").diff("x")
    assert d2.eval({"x": 0.7}) == pytest.approx(1.4 * math.exp(0.49), rel=1e-14)


# ---------------------------------------------------------------------------
# simplify


def test_simplify_rules():
    assert p("0*sin(x)+y").simplify() == var("y")
    assert p("2*3").simplify() == const(6.0)
    assert p("x^1").simplify() == var("x")
    assert p("x-x").simplify() == const(0.0)
    assert p("exp(0)").simplify() == const(1.0)
    assert p("x/1").simplify() == var("x")
    assert p("x^0").simplify() == const(1.0)


def test_simplify_keeps_singular_constants():
    e = p("1/0").simplify()
    assert e.kind == "div"
    with pytest.raises(EvalDomainError):
        e.eval({})


# ---------------------------------------------------------------------------
# printing


def test_printer_inserts_necessary_parens():
    assert str(p("(x+y)*x")) == "(x+y)*x"
    assert str(Expr("sub", (var("x"), Expr("add", (var("y"), var("x")))))) == "x-(y+x)"
    assert str(Expr("pow", (Expr("neg", (var("x"),)), const(2.0)))) == "(-x)^2.0"
    assert str(Expr("pow", (const(-2.0), const(2.0)))) == "(-2.0)^2.0"
    assert str(Expr("sub", (var("x"), Expr("neg", (var("y"),))))) == "x--y"


# ---------------------------------------------------------------------------
# hypothesis strategies and properties

_leaf = st.one_of(
    st.sampled_from(XY).map(var),
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False).map(
        lambda v: const(round(v, 3))
    ),
)


def _tree(children, funcs, allow_div, allow_pow, general_pow):
    options = [
        st.tuples(children, children).map(lambda ab: Expr("add", ab)),
        st.tuples(children, children).map(lambda ab: Expr("sub", ab)),
        st.tuples(children, children).map(lambda ab: Expr("mul", ab)),
        children.map(lambda a: Expr("neg", (a,))),
    ]
    for f in funcs:
        options.append(children.map(lambda a, f=f: Expr(f, (a,))))
    if allow_div:
        options.append(st.tuples(children, children).map(lambda ab: Expr("div", ab)))
    if allow_pow:
        options.append(
            st.tuples(children, st.integers(min_value=1, max_value=3)).map(
                lambda ab: Expr("pow", (ab[0], const(ab[1])))
            )
        )
    if general_pow:
        options.append(st.tuples(children, children).map(lambda ab: Expr("pow", ab)))
    return st.one_of(*options)


def expr_trees(funcs=("sin", "cos", "tanh", "bump"), allow_div=False, allow_pow=False,
               general_pow=False):
    """Random trees over x and y; ``general_pow`` adds powers whose exponent
    is itself a tree."""
    return st.recursive(
        _leaf,
        lambda c: _tree(c, funcs, allow_div, allow_pow, general_pow),
        max_leaves=12,
    )


_points = st.fixed_dictionaries(
    {
        "x": st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
        "y": st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
    }
)


def _try_eval(e, pt):
    try:
        v = e.eval(pt)
    except EvalDomainError:
        return None
    return v if math.isfinite(v) else None


@settings(max_examples=150, deadline=None)
@given(
    expr_trees(funcs=("sin", "cos", "exp", "tanh", "bump", "sqrt", "log"),
               allow_div=True, allow_pow=True),
    _points,
)
def test_print_parse_round_trip(e, pt):
    a = _try_eval(e, pt)
    assume(a is not None)
    reparsed = parse_expr(str(e), XY)
    b = _try_eval(reparsed, pt)
    assume(b is not None)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@settings(max_examples=150, deadline=None)
@given(expr_trees(allow_pow=True), _points)
def test_mixed_partials_commute(e, pt):
    dxy = e.diff("x").diff("y")
    dyx = e.diff("y").diff("x")
    a = _try_eval(dxy, pt)
    b = _try_eval(dyx, pt)
    assume(a is not None and b is not None)
    assume(abs(a) < 1e4)
    assert abs(a - b) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(
    expr_trees(funcs=("sin", "cos", "exp", "tanh", "bump", "sqrt", "log"),
               allow_div=True, allow_pow=True),
    _points,
)
def test_simplify_preserves_value(e, pt):
    a = _try_eval(e, pt)
    assume(a is not None)
    b = _try_eval(e.simplify(), pt)
    assume(b is not None)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@settings(max_examples=120, deadline=None)
@given(expr_trees(funcs=(), allow_pow=True), _points)
def test_fd_agrees_on_polynomials(e, pt):
    # polynomial-only trees keep third derivatives tame, so a central
    # difference at h=1e-5 is trustworthy to ~1e-8
    d = e.diff("x")
    sym = _try_eval(d, pt)
    assume(sym is not None and abs(sym) < 1e3)
    fd = _fd(e, "x", pt, h=1e-5)
    assert fd == pytest.approx(sym, rel=1e-5, abs=1e-6)


# ---------------------------------------------------------------------------
# the scalar reference evaluator
#
# Expr.eval once had its own evaluator over Python floats and libm.  It is
# kept here as a reference for Expr.eval, which now runs the batch evaluator
# on one-element arrays.  The reference raises where it checks the domain
# itself; numpy floating-point errors make the new eval raise.


def _ref_bump(t):
    if abs(t) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - t * t))


_REF_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "tanh": math.tanh,
    "bump": _ref_bump,
}


def _ref_binary(kind, a, b):
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        if b == 0.0:
            raise EvalDomainError("division by zero")
        return a / b
    # pow
    if a == 0.0 and b < 0.0:
        raise EvalDomainError("zero raised to a negative power")
    if a < 0.0 and b != int(b):
        raise EvalDomainError("negative base with non-integer exponent")
    try:
        return math.pow(a, b)
    except OverflowError:
        raise EvalDomainError("overflow in power") from None


def _ref_function(kind, u):
    if kind == "log":
        if u <= 0.0:
            raise EvalDomainError("log of a non-positive value")
    elif kind == "sqrt":
        if u < 0.0:
            raise EvalDomainError("sqrt of a negative value")
    elif kind == "exp":
        if u > 700.0:
            raise EvalDomainError("overflow in exp")
    try:
        return _REF_FUNCTIONS[kind](u)
    except ValueError:  # sin or cos of an infinite value
        raise EvalDomainError(f"{kind} of a non-finite value") from None


def _ref_eval(root, point, memo):
    key = id(root)
    hit = memo.get(key)
    if hit is not None:
        return hit
    kind = root.kind
    if kind == "const":
        out = root.value
    elif kind == "var":
        out = float(point[root.name])
    elif kind == "neg":
        out = -_ref_eval(root.args[0], point, memo)
    elif kind in ("add", "sub", "mul", "div", "pow"):
        a = _ref_eval(root.args[0], point, memo)
        b = _ref_eval(root.args[1], point, memo)
        out = _ref_binary(kind, a, b)
    else:
        out = _ref_function(kind, _ref_eval(root.args[0], point, memo))
    memo[key] = out
    return out


# int() of an infinite exponent raises OverflowError, libm ValueError
_REF_RAISES = (EvalDomainError, OverflowError, ValueError)
# numpy's exp overflows above log(DBL_MAX); the reference refused above 700
_EXP_LIMIT = math.log(np.finfo(float).max)


def _nodes(e):
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.args)


def _agrees(got, want):
    """The sympy oracle's bound; equal infinities and nans agree too."""
    if got == want or (math.isnan(got) and math.isnan(want)):
        return True
    return abs(got - want) <= 1e-12 + 1e-9 * abs(want)


_EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308])
_edge_points = st.fixed_dictionaries(
    {name: st.one_of(_EDGE, st.floats(min_value=-0.9, max_value=0.9))
     for name in XY})


@settings(max_examples=400, deadline=None)
@given(expr_trees(funcs=("sin", "cos", "exp", "tanh", "bump", "sqrt", "log"),
                  allow_div=True, allow_pow=True, general_pow=True),
       _edge_points)
def test_eval_matches_scalar_reference(e, pt):
    memo = {}
    try:
        want = _ref_eval(e, pt, memo)
    except _REF_RAISES:
        try:
            e.eval(pt)
        except EvalDomainError:
            return
        # the one place the reference is stricter: exp of (700, 709.78]
        assert any(n.kind == "exp" and id(n.args[0]) in memo
                   and 700.0 < memo[id(n.args[0])] <= _EXP_LIMIT
                   for n in _nodes(e)), str(e)
        return
    try:
        got = e.eval(pt)
    except EvalDomainError:
        # the reference carried an inf or nan through without raising
        assert not all(math.isfinite(v) for v in memo.values()), str(e)
        return
    assert _agrees(got, want), (str(e), got, want)


def test_bump_outside_support_does_not_overflow():
    # 0.5/y = -5e169 is far outside the support; squaring it would overflow
    e = p("bump(0.5/y)")
    pt = {"x": 0.0, "y": -1e-170}
    assert e.eval(pt) == 0.0
    assert _ref_eval(e, pt, {}) == 0.0
    assert e.eval_many({"y": np.array([-1e-170, 0.25])}).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# memoized simplify and diff
#
# Each node keeps what simplify and diff returned for it.  The reference below
# is the plain recursion without those memos; the memoized results must match
# it node for node and evaluate to the same bits.


def _ref_diff(e, name):
    kind = e.kind
    if kind == "const":
        return const(0.0)
    if kind == "var":
        return const(1.0 if e.name == name else 0.0)
    if kind == "neg":
        return _neg(_ref_diff(e.args[0], name))
    if kind == "add":
        return _add(_ref_diff(e.args[0], name), _ref_diff(e.args[1], name))
    if kind == "sub":
        return _sub(_ref_diff(e.args[0], name), _ref_diff(e.args[1], name))
    if kind == "mul":
        a, b = e.args
        return _add(_mul(_ref_diff(a, name), b), _mul(a, _ref_diff(b, name)))
    if kind == "div":
        a, b = e.args
        num = _sub(_mul(_ref_diff(a, name), b), _mul(a, _ref_diff(b, name)))
        return _div(num, _pow(b, const(2.0)))
    if kind == "pow":
        a, b = e.args
        if _is_const(b):
            return _mul(_mul(b, _pow(a, const(b.value - 1.0))), _ref_diff(a, name))
        da, db = _ref_diff(a, name), _ref_diff(b, name)
        return _mul(e, _add(_mul(db, Expr("log", (a,))), _div(_mul(b, da), a)))
    u = e.args[0]
    du = _ref_diff(u, name)
    if kind == "sin":
        return _mul(Expr("cos", (u,)), du)
    if kind == "cos":
        return _mul(_neg(Expr("sin", (u,))), du)
    if kind == "exp":
        return _mul(e, du)
    if kind == "log":
        return _div(du, u)
    if kind == "sqrt":
        return _div(du, _mul(const(2.0), e))
    if kind == "tanh":
        return _mul(_sub(const(1.0), _pow(e, const(2.0))), du)
    if kind == "bump":
        rational = _div(_mul(const(-2.0), u),
                        _pow(_sub(const(1.0), _pow(u, const(2.0))), const(2.0)))
        return _mul(_mul(e, rational), du)
    raise ExprError(kind)


def _ref_simplify(e):
    kind = e.kind
    if kind in ("const", "var"):
        return e
    args = tuple(_ref_simplify(a) for a in e.args)
    if all(a.kind == "const" for a in args):
        return _fold_if_const(Expr(kind, args, name=e.name))
    if kind == "neg":
        return _neg(args[0])
    if kind == "add":
        return _add(*args)
    if kind == "sub":
        a, b = args
        return const(0.0) if a == b else _sub(a, b)
    if kind == "mul":
        return _mul(*args)
    if kind == "div":
        return _div(*args)
    if kind == "pow":
        return _pow(*args)
    return Expr(kind, args)


_GRID = {"x": np.linspace(-0.9, 0.9, 7), "y": np.linspace(0.8, -0.8, 7)}


def _same(got, want):
    assert got == want
    assert str(got) == str(want)
    with np.errstate(all="ignore"):
        assert np.array_equal(got.eval_many(_GRID), want.eval_many(_GRID),
                              equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(expr_trees(funcs=("sin", "cos", "exp", "tanh", "bump", "sqrt", "log"),
                  allow_div=True, allow_pow=True, general_pow=True))
def test_memoized_calculus_matches_reference(e):
    s = e.simplify()
    _same(s, _ref_simplify(e))
    assert e.simplify() is s
    assert s.simplify() is s
    for name in XY:
        d = e.diff(name)
        _same(d, _ref_diff(e, name))
        assert e.diff(name) is d
    # trees that reuse memoized nodes: the fixed-point mark on s and the
    # memoized derivatives must give what a fresh recursion gives
    g = Expr("add", (Expr("mul", (s, e)), Expr("sub", (e.diff("x"), s))))
    gs = g.simplify()
    _same(gs, _ref_simplify(g))
    for name in XY:
        _same(g.diff(name), _ref_diff(g, name))
        _same(gs.diff(name).simplify(),
              _ref_simplify(_ref_diff(_ref_simplify(g), name)))


def test_deep_sum_within_recursion_limit():
    # one Python frame per tree level: 400 levels stay well inside the
    # default recursion limit of 1000
    e = var("x")
    for k in range(400):
        e = Expr("add", (e, Expr("mul", (const(k + 1.0), Expr("pow", (var("x"), const(2.0)))))))
    s = e.simplify()
    d = e.diff("x")
    ds = d.simplify()
    pt = {"x": 0.5}
    assert s.eval(pt) == pytest.approx(0.5 + 0.25 * 400 * 401 / 2, rel=1e-12)
    assert ds.eval(pt) == pytest.approx(1.0 + 400 * 401 / 2, rel=1e-12)


def test_deep_parentheses_within_recursion_limit():
    # three parser frames per parenthesis level: 300 levels stay inside the
    # default recursion limit of 1000
    assert parse_expr("(" * 300 + "x" + ")" * 300, ["x"]) == var("x")
