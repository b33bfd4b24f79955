"""Parser, calculus, and evaluation tests for the expression DSL."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    eval_roots,
    parse_expr,
    var,
)
from divkit import expr as expr_module

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


def test_constant_overflow_raises_in_eval_only():
    for text in ("1e200*1e200", "1e308+1e308", "-1e308-1e308"):
        e = p(text)
        with pytest.raises(EvalDomainError):
            e.eval({"x": 1.0})
        # a fold whose value is not finite stays unfolded
        assert e.simplify().kind == e.kind != "const"
        vals = e.eval_many({"x": np.array([1.0, 2.0])})
        assert np.all(np.isinf(vals)) and vals.shape == (2,)


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
# evaluating several roots together

_KINDS = ("add", "sub", "mul", "div", "pow", "neg", "sin", "cos", "exp",
          "log", "sqrt", "tanh", "bump")


@st.composite
def shared_forests(draw, coords=XY):
    """Roots over ``coords`` whose subtrees are shared by identity: each new
    node takes its arguments from the nodes built so far, and roots are
    drawn from all of them, so leaves, constant trees and repeats occur."""
    pool = [*map(var, coords), const(draw(st.sampled_from([0.0, -0.0, 0.5, 2.0])))]
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        kind = draw(st.sampled_from(_KINDS))
        arity = 2 if kind in ("add", "sub", "mul", "div", "pow") else 1
        args = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
        pool.append(Expr(kind, args))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))


_coordinate = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                        st.floats(min_value=-3.0, max_value=3.0))
_coordinate_arrays = st.lists(st.tuples(_coordinate, _coordinate),
                              min_size=1, max_size=6).map(
    lambda rows: {"x": np.array([r[0] for r in rows]),
                  "y": np.array([r[1] for r in rows])})


def _multi_parent_count(roots):
    """Inner nodes reached from more than one parent, a root counting as one."""
    counts, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if node.args:
            counts[id(node)] = counts.get(id(node), 0) + 1
            if counts[id(node)] == 1:
                stack.extend(node.args)
    return sum(1 for n in counts.values() if n > 1)


@settings(max_examples=300, deadline=None)
@given(shared_forests(), _coordinate_arrays)
def test_eval_roots_matches_each_eval_many(roots, arrays):
    got = list(eval_roots(roots, arrays))
    assert len(got) == len(roots)
    for root, value in zip(roots, got):
        want = root.eval_many(arrays)
        assert value.dtype == want.dtype and value.shape == want.shape
        assert np.array_equal(value, want, equal_nan=True), str(root)


def test_eval_roots_leaves_and_constants():
    x = var("x")
    shared = Expr("sin", (x,))
    roots = [x, const(2.0), Expr("neg", (const(1.5),)), shared,
             Expr("add", (shared, shared)), shared]
    arrays = {"x": np.array([0.1, -0.4, 2.0])}
    got = list(eval_roots(roots, arrays))
    assert np.array_equal(got[0], arrays["x"])
    assert np.array_equal(got[1], np.full(3, 2.0))
    assert np.array_equal(got[2], np.full(3, -1.5))
    assert np.array_equal(got[3], np.sin(arrays["x"]))
    assert np.array_equal(got[4], 2.0 * np.sin(arrays["x"]))
    assert np.array_equal(got[5], got[3])
    # no input arrays: constant trees stay 0-d, as with eval_many
    assert list(eval_roots([const(3.0), Expr("neg", (const(1.0),))], {})) \
        == [np.asarray(3.0), np.asarray(-1.0)]


def test_eval_roots_values_are_independent():
    x, y = var("x"), var("y")
    inner = Expr("mul", (x, y))
    outer = Expr("add", (inner, Expr("sin", (inner,))))
    roots = [x, inner, outer, inner, const(1.0), Expr("neg", (inner,))]
    arrays = {"x": np.array([0.5, 1.5]), "y": np.array([-2.0, 0.25])}
    before = {k: v.copy() for k, v in arrays.items()}
    want = [r.eval_many(arrays) for r in roots]
    got = list(eval_roots(roots, arrays))
    for k in range(len(got)):
        got[k][:] = 1234.5
        for j, value in enumerate(got):
            if j != k:
                assert np.array_equal(value, want[j]), (k, j)
        got[k] = want[k].copy()
    for k, v in arrays.items():
        assert np.array_equal(v, before[k])
    # the one-root case does not hand back the input array either
    out = x.eval_many(arrays)
    out[:] = 0.0
    assert np.array_equal(arrays["x"], before["x"])


def _tape_arrays(m=None):
    """Coordinate arrays with more points than the level-by-level path
    takes, so ``eval_roots`` runs every root set from its tape."""
    m = expr_module._BATCH_POINTS + 1 if m is None else m
    return {"x": np.linspace(-1.0, 1.0, m), "y": np.linspace(2.0, 0.5, m)}


def _height(roots):
    """The number of inner nodes on the longest path down from a root."""
    heights = {}
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            pending = [a for a in node.args if id(a) not in heights]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            heights[id(node)] = (1 + max(heights[id(a)] for a in node.args)
                                 if node.args else 0)
    return max(heights[id(r)] for r in roots)


@settings(max_examples=100, deadline=None)
@given(shared_forests())
def test_eval_roots_tape_bounds_its_registers_and_live_values(roots):
    # a register holds a value that a later step or hand-over still reads:
    # one with more than one parent, or the one finished argument of each
    # node on the path of the walk, plus the step's own and its arguments
    tape = expr_module._Tape(tuple(roots))
    assert tape.n_regs <= _multi_parent_count(roots) + _height(roots) + 2
    # no step writes into one of its arguments
    for _, steps, _, _, _ in tape.segments:
        assert all(d not in (a, b) for _, d, a, b in steps)
    # a run consumed root by root holds its registers, the value being
    # computed and the temporaries of one call, not a value per node
    arrays = _tape_arrays(2_000)
    list(eval_roots(roots, arrays))  # builds the plan
    tracemalloc.start()
    try:
        for value in eval_roots(roots, arrays):
            del value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (tape.n_regs + 8) * 8 * 2_000 + 4096


def _wide_program():
    """Four roots over about 4,000 distinct inner nodes, with coordinate
    arrays of the largest level-by-level point count: one piece of their
    buffer would take 8 MB, so a run takes its columns in several chunks."""
    x, y = var("x"), var("y")
    roots = [Expr("mul", (x if k % 2 else y, const(k + 0.5))) for k in range(2048)]
    while len(roots) > 4:  # pairwise sums, 12 levels deep
        roots = [Expr("add" if k % 4 else "sub", (roots[k], roots[k + 1]))
                 for k in range(0, len(roots), 2)]
    m = expr_module._BATCH_POINTS
    arrays = {"x": np.linspace(-1.0, 1.0, m), "y": np.linspace(0.5, 2.0, m)}
    list(eval_roots(roots, arrays))  # builds the plan
    return roots, arrays


def test_eval_roots_level_by_level_buffer_is_bounded():
    # the columns are taken in chunks, so numpy's allocations stay within a
    # few buffer bounds
    roots, arrays = _wide_program()
    tracemalloc.start()
    try:
        got = list(eval_roots(roots, arrays))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * expr_module._BUFFER_BYTES
    assert all(np.array_equal(a, r.eval_many(arrays)) for a, r in zip(got, roots))


def test_eval_roots_allocates_one_buffer_per_run(monkeypatch):
    # a run of several chunks allocates its buffer once, and each chunk is
    # a view of it: glibc gives a freed buffer of this size back to the
    # kernel, so a buffer per chunk faults its pages in again each time
    roots, arrays = _wide_program()
    program = expr_module._plans[tuple(map(id, roots))].program
    width = expr_module._BUFFER_BYTES // (8 * program.n_rows)
    assert width < expr_module._BATCH_POINTS  # several chunks
    empty, sizes = np.empty, []

    def counted(shape, *args, **kwargs):
        sizes.append(8 * math.prod(np.atleast_1d(shape)))
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", counted)
    got = list(eval_roots(roots, arrays))
    monkeypatch.undo()
    assert sum(n >= expr_module._BUFFER_BYTES // 2 for n in sizes) == 1, sizes
    assert all(np.array_equal(a, r.eval_many(arrays)) for a, r in zip(got, roots))


def test_deep_chain_program_reuses_rows():
    # each level is read only by the next, so a 400-level chain takes the
    # coordinate's row and two rows that take turns, not a row per level
    x = var("x")
    chain = x
    for _ in range(400):
        chain = Expr("add", (chain, x))
    assert expr_module._Program((chain,)).n_rows == 3
    arrays = {"x": np.linspace(-1.0, 1.0, 7)}
    assert np.array_equal(next(eval_roots([chain], arrays)), chain.eval_many(arrays))


@pytest.mark.parametrize("m", [3, expr_module._BATCH_POINTS + 1])
@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_eval_roots_paths_agree_on_coordinates_that_are_not_float64(dtype, m):
    # 3 points go level by level and one past the limit from the tape; both
    # evaluate in float64, so an int64 x*x does not wrap around and a
    # float32 x*x*x is not rounded to float32 on one path only
    x = var("x")
    square = Expr("mul", (x, x))
    roots = [square, Expr("mul", (square, x)), x]
    if dtype is np.int64:
        xs = np.full(m, 3037000500, dtype=np.int64)  # x*x is above 2**63
    else:
        xs = np.linspace(0.1, 3.3, m).astype(np.float32)
    want = [r.eval_many({"x": xs.astype(np.float64)}) for r in roots]
    for got in (list(eval_roots(roots, {"x": xs})),
                [r.eval_many({"x": xs}) for r in roots]):
        for value, expected in zip(got, want):
            assert value.dtype == np.float64
            assert np.array_equal(value, expected)


def test_eval_roots_keeps_a_bounded_number_of_plans():
    x, y = var("x"), var("y")
    small = {"x": np.array([0.5, -0.25]), "y": np.array([2.0, 0.75])}
    for k in range(expr_module._PLAN_CACHE + 5):
        shared = Expr("mul", (x, const(float(k))))
        roots = [Expr("add", (shared, y)), Expr("sin", (shared,))]
        got = list(eval_roots(roots, small))
        assert np.array_equal(got[1], np.sin(small["x"] * k))
        assert len(expr_module._plans) <= expr_module._PLAN_CACHE
    # the latest set is kept with its own roots, and each path builds its
    # part of the plan once
    plan = expr_module._plans[tuple(map(id, roots))]
    assert all(a is b for a, b in zip(plan.roots, roots))
    program = plan.program
    assert program is not None and plan.tape is None
    large = _tape_arrays()
    want = [r.eval_many(large) for r in roots]
    tape = None
    for _ in range(2):
        assert all(np.array_equal(a, b) for a, b in zip(eval_roots(roots, large), want))
        assert plan.tape is not None and plan.tape is (tape or plan.tape)
        tape = plan.tape
        again = list(eval_roots(roots, small))
        assert all(np.array_equal(a, b) for a, b in zip(again, got))
        assert plan.program is program
    assert expr_module._plans[tuple(map(id, roots))] is plan


def test_eval_roots_equal_structures_with_other_nodes_agree():
    # two root sets built alike from different node objects, evaluated in
    # turn and after the first is dropped, give the same values on both
    # paths: no plan is taken for another set's nodes
    def build():
        shared = p("sin(x*y) + y")
        return [Expr("mul", (shared, shared)), Expr("exp", (shared,)),
                Expr("add", (p("x^2"), shared))]

    for m in (7, expr_module._BATCH_POINTS + 1):
        arrays = {"x": np.linspace(-0.9, 0.9, m), "y": np.linspace(0.5, 1.5, m)}
        first = build()
        want = list(eval_roots(first, arrays))
        second = build()
        assert second == first and all(a is not b for a, b in zip(first, second))
        for _ in range(2):
            got = list(eval_roots(second, arrays))
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            del first
            gc.collect()
            first = build()
            got = list(eval_roots(first, arrays))
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert all(np.array_equal(a, r.eval_many(arrays)) for a, r in zip(want, second))
        for roots in (first, second):
            plan = expr_module._plans[tuple(map(id, roots))]
            assert all(a is b for a, b in zip(plan.roots, roots))


# numpy's power takes other code paths for these scalar exponents than for
# an array of them, and the bits differ
_SCALAR_EXPONENTS = (2.0, 0.5, -1.0, 1.5)


@st.composite
def exponent_forests(draw):
    """Shared forests over x and y in which ``pow`` mostly raises to one of
    the exponents numpy treats specially, given as a constant leaf or as a
    constant subtree such as -(1.0); roots include leaves, constant trees
    and repeats."""
    pool = [var("x"), var("y"), const(draw(st.sampled_from([0.0, -0.0, 0.5, 3.0])))]
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(st.sampled_from(_KINDS + ("pow",) * 4))
        if kind == "pow" and draw(st.booleans()):
            c = draw(st.sampled_from(_SCALAR_EXPONENTS))
            exponent = const(c) if draw(st.booleans()) else Expr("neg", (const(-c),))
            args = (draw(st.sampled_from(pool)), exponent)
        else:
            arity = 2 if kind in ("add", "sub", "mul", "div", "pow") else 1
            args = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
        pool.append(Expr(kind, args))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


def _columns(m, seed):
    """x and y as the columns of one (m, 2) point array, as a chart gives
    them, with zeros, signed zeros and ones among random values."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3.0, 3.0, size=(m, 2))
    special = np.array([0.0, -0.0, 1.0, -1.0, 4.0])
    pts[: min(m, 5), 0] = special[: min(m, 5)]
    pts[-min(m, 5):, 1] = special[: min(m, 5)]
    return {"x": pts[:, 0], "y": pts[:, 1]}


def _shared_forest():
    """Roots in which a subtree is read by a shallow parent and by one a
    dozen levels deeper, and in which a root is an argument of a shallow
    and of a deep node; then three quotients of which each reads a row
    that another one of them reads too.  A row freed before its last
    reader has run shows as a wrong value."""
    x, y = var("x"), var("y")
    a, b, c = (Expr("add", (x, y)), Expr("add", (y, const(1.5))),
               Expr("add", (x, const(0.25))))
    ring = [Expr("div", (a, b)), Expr("div", (b, c)), Expr("div", (c, a))]
    shared = Expr("sin", (Expr("mul", (x, y)),))
    chain = Expr("add", (x, y))
    for k in range(12):
        chain = Expr("mul" if k % 2 else "add", (chain, y if k % 3 else x))
    root = Expr("exp", (Expr("sub", (y, x)),))
    return [Expr("add", (shared, y)), Expr("mul", (chain, shared)), root,
            Expr("div", (root, Expr("add", (x, const(4.0))))),
            Expr("sub", (chain, root))] + ring


def _constant_forest():
    """Roots holding constant subtrees that fold to nan (0/0), -inf
    (log 0), -0.0 and a subnormal (1e-310), alone and as arguments of
    nodes over x and y; -0.0 and 0.0 take different constant rows."""
    x, y = var("x"), var("y")
    nan = Expr("div", (const(0.0), const(0.0)))
    neg_inf = Expr("log", (Expr("mul", (const(0.0), const(3.0))),))
    neg_zero = Expr("neg", (Expr("sub", (const(0.5), const(0.5))),))
    tiny = Expr("mul", (const(1e-300), const(1e-10)))
    return [nan, neg_inf, neg_zero, tiny,
            Expr("add", (x, nan)), Expr("mul", (y, neg_inf)),
            Expr("div", (x, neg_zero)), Expr("pow", (y, neg_zero)),
            Expr("add", (Expr("mul", (x, tiny)), const(0.0))),
            Expr("sin", (Expr("mul", (tiny, y)),)),
            Expr("div", (neg_zero, Expr("add", (x, y))))]


_EXPONENT_TREES = [Expr("pow", (var("x"), const(c))) for c in _SCALAR_EXPONENTS] \
    + [Expr("pow", (Expr("add", (var("y"), const(0.25))), Expr("neg", (const(-c),))))
       for c in _SCALAR_EXPONENTS]


@settings(max_examples=150, deadline=None)
@given(exponent_forests(), st.integers(0, 2**32 - 1),
       st.sampled_from(["one", "chunk-1", "chunk", "chunk+1", "threshold",
                        "threshold+1"]))
@example(_EXPONENT_TREES, 0, "threshold")
@example(_EXPONENT_TREES + _EXPONENT_TREES[:2], 1, "chunk+1")
@example(_shared_forest(), 2, "chunk+1")
@example(_shared_forest()[::-1], 3, "threshold")
@example(_constant_forest(), 4, "chunk+1")
@example(_constant_forest()[::-1], 5, "threshold")
def test_eval_roots_level_by_level_matches_node_by_node(roots, seed, size):
    # the buffer bound is set so that a chunk is 3 points wide; m is one
    # point, a chunk width -1, 0 or +1, or the largest level-by-level point
    # count and one above it, where eval_roots runs its tape.  eval_many is
    # node by node at any size.
    m = {"one": 1, "chunk-1": 2, "chunk": 3, "chunk+1": 4,
         "threshold": expr_module._BATCH_POINTS,
         "threshold+1": expr_module._BATCH_POINTS + 1}[size]
    arrays = _columns(m, seed)
    original = expr_module._BUFFER_BYTES
    expr_module._BUFFER_BYTES = 8 * 3 * expr_module._Program(tuple(roots)).n_rows
    try:
        got = list(eval_roots(roots, arrays))
    finally:
        expr_module._BUFFER_BYTES = original
    assert len(got) == len(roots)
    for root, value in zip(roots, got):
        want = root.eval_many(arrays)
        assert value.dtype == want.dtype and value.shape == want.shape
        assert np.array_equal(value, want, equal_nan=True), str(root)
    assert not any(np.shares_memory(a, b) for k, a in enumerate(got)
                   for b in got[k + 1:])
    assert list(eval_roots([], arrays)) == []


def _tape_forest():
    """Roots handed over in every way a tape hands them over: coordinates, a
    constant and a constant tree, a repeated root, a root that is an inner
    node of an earlier root, and a root that a later root reads."""
    x, y = var("x"), var("y")
    inner = Expr("mul", (x, y))
    outer = Expr("add", (Expr("sin", (inner,)), inner))
    later = Expr("exp", (Expr("neg", (y,)),))
    return [x, outer, inner, const(2.0), Expr("neg", (const(1.5),)), outer,
            later, Expr("div", (later, Expr("add", (x, const(3.0))))), y]


def _special_columns(m, seed):
    """``_columns`` with nan, +-inf, -0.0 and subnormals among the values."""
    arrays = _columns(m, seed)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310])
    arrays["x"][5:5 + len(special)] = special
    arrays["y"][-5 - len(special):-5] = special[::-1]
    return arrays


@settings(max_examples=150, deadline=None)
@given(shared_forests(), st.integers(0, 2**32 - 1),
       st.sampled_from([expr_module._BATCH_POINTS + 1, 2_000]))
@example(_tape_forest(), 0, 2_000)
@example(_tape_forest()[::-1], 1, expr_module._BATCH_POINTS + 1)
@example(_shared_forest(), 2, 2_000)
@example(_EXPONENT_TREES + _EXPONENT_TREES[:2], 3, 2_000)
@example(_constant_forest(), 4, 2_000)
@example(_constant_forest()[::-1], 5, expr_module._BATCH_POINTS + 1)
def test_eval_roots_tape_matches_program_and_eval_many(roots, seed, m):
    # past the level-by-level limit every root set runs from its tape; its
    # values are the bits of the program run at the same points and of
    # eval_many, and none of them is another one or an input
    arrays = _special_columns(m, seed)
    got = list(eval_roots(roots, arrays))
    assert expr_module._plans[tuple(map(id, roots))].tape is not None
    rows = expr_module._Program(tuple(roots)).run(arrays, m)
    assert len(got) == len(roots)
    for root, value, row in zip(roots, got, rows):
        want = root.eval_many(arrays)
        assert value.dtype == want.dtype and value.shape == want.shape
        assert np.array_equal(value, want, equal_nan=True), str(root)
        assert np.array_equal(value, row, equal_nan=True), str(root)
    assert not any(np.shares_memory(a, b) for k, a in enumerate(got)
                   for b in got[k + 1:])
    assert not any(np.shares_memory(a, v) for a in got for v in arrays.values())


@pytest.mark.parametrize("roots", [_tape_forest(), _tape_forest()[::-1],
                                   _shared_forest()])
def test_eval_roots_tape_hands_over_no_register(monkeypatch, roots):
    # the registers are the arrays a run takes from np.empty; a root read
    # from one is handed over as a copy
    arrays = _tape_arrays(2_000)
    want = list(eval_roots(roots, arrays))  # builds the plan
    tape = expr_module._plans[tuple(map(id, roots))].tape
    empty, registers = np.empty, []
    monkeypatch.setattr(np, "empty", lambda *args, **kwargs:
                        registers.append(empty(*args, **kwargs)) or registers[-1])
    got = list(eval_roots(roots, arrays))
    monkeypatch.undo()
    assert len(registers) == tape.n_regs > 0
    assert not any(np.shares_memory(a, r) for a in got for r in registers)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_deep_chain_tape_takes_two_registers():
    # each level is read only by the next, so a 400-level chain writes two
    # registers in turn and the root into its own array
    x = var("x")
    chain = x
    for _ in range(400):
        chain = Expr("add", (chain, x))
    assert expr_module._Tape((chain,)).n_regs <= 2
    arrays = {"x": np.linspace(-1.0, 1.0, 2_000)}
    assert np.array_equal(next(eval_roots([chain], arrays)), chain.eval_many(arrays))


def test_every_route_takes_its_calls_from_the_one_table(monkeypatch):
    # eval_many, the level-by-level program (100 points) and the tape (2,000
    # points) take each node's numpy call from one table, and so does the
    # folding of a constant subtree: a wrapper put there is called on every
    # route, and the three give the same bits
    monkeypatch.setattr(expr_module, "_plans", {})
    sin, calls = expr_module._UFUNCS["sin"], []

    def counted(*args, **kwargs):
        calls.append(np.size(args[0]))
        return sin(*args, **kwargs)

    monkeypatch.setitem(expr_module._UFUNCS, "sin", counted)
    x, y = var("x"), var("y")
    root = Expr("mul", (Expr("sin", (Expr("add", (x, y)),)),
                        Expr("sin", (const(0.5),))))
    for m, path in ((100, "program"), (2_000, "tape")):
        arrays = _special_columns(m, 0)
        calls.clear()
        want = root.eval_many(arrays)
        assert sorted(calls) == [1, m]
        calls.clear()
        got = next(eval_roots([root], arrays))
        assert sorted(calls) == [1, m]
        assert getattr(expr_module._plans[(id(root),)], path) is not None
        assert np.array_equal(got, want, equal_nan=True)
        with np.errstate(invalid="ignore"):
            direct = np.sin(arrays["x"] + arrays["y"]) * np.sin(0.5)
        assert np.array_equal(got, direct, equal_nan=True)


def test_eval_roots_tape_on_empty_and_broadcast_inputs():
    # 0 points run the tape on empty registers; np.ix_ arrays of differing
    # shapes run it with every call allocating its result, and a constant
    # root takes the first input's shape, as with eval_many
    z = var("z")
    roots = _tape_forest()
    roots += [Expr("mul", (z, roots[1])), Expr("add", (roots[2], z)), z]
    xs, ys, zs = np.ix_(np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 2.0, 4),
                        np.linspace(-2.0, 0.0, 3))
    for arrays in ({"x": np.empty(0), "y": np.empty(0), "z": np.empty(0)},
                   {"x": xs, "y": ys, "z": zs}):
        got = list(eval_roots(roots, arrays))
        assert len(got) == len(roots)
        for root, value in zip(roots, got):
            want = root.eval_many(arrays)
            assert value.dtype == want.dtype and value.shape == want.shape
            assert np.array_equal(value, want, equal_nan=True), str(root)
        assert not any(np.shares_memory(a, b) for k, a in enumerate(got)
                       for b in got[k + 1:])
        assert not any(np.shares_memory(a, v) for a in got for v in arrays.values())
    assert got[3].shape == xs.shape and got[1].shape == (5, 4, 1)


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


def _ref_step(node, args, point):
    """The reference value of ``node`` from the values of its arguments."""
    kind = node.kind
    if kind == "const":
        return node.value
    if kind == "var":
        return float(point[node.name])
    if kind == "neg":
        return -args[0]
    if kind in ("add", "sub", "mul", "div", "pow"):
        return _ref_binary(kind, *args)
    return _ref_function(kind, args[0])


def _ref_eval(root, point, memo):
    key = id(root)
    hit = memo.get(key)
    if hit is not None:
        return hit
    args = [_ref_eval(a, point, memo) for a in root.args]
    out = _ref_step(root, args, point)
    memo[key] = out
    return out


# int() of an infinite exponent raises OverflowError, libm ValueError
_REF_RAISES = (EvalDomainError, OverflowError, ValueError)
# numpy's exp overflows above log(DBL_MAX); the reference refused above 700
_EXP_LIMIT = math.log(np.finfo(float).max)


def _post_order(e, seen=None):
    """Each distinct node of ``e``, after its arguments."""
    seen = set() if seen is None else seen
    if id(e) in seen:
        return
    seen.add(id(e))
    for a in e.args:
        yield from _post_order(a, seen)
    yield e


def _agrees(got, want):
    """The sympy oracle's bound; equal infinities and nans agree too."""
    if got == want or (math.isnan(got) and math.isnan(want)):
        return True
    return abs(got - want) <= 1e-12 + 1e-9 * abs(want)


_EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308])
_edge_points = st.fixed_dictionaries(
    {name: st.one_of(_EDGE, st.floats(min_value=-0.9, max_value=0.9))
     for name in XY})


# Each node is held to the reference step applied to the evaluator's own
# values of its arguments, so the two sides differ by one rounding at most.
# Whole trees would compound them: numpy's x^-0.363 = 3.7e65 below is one
# ulp from libm's, and the sines of the two differ entirely.
@settings(max_examples=400, deadline=None)
@given(expr_trees(funcs=("sin", "cos", "exp", "tanh", "bump", "sqrt", "log"),
                  allow_div=True, allow_pow=True, general_pow=True),
       _edge_points)
@example(p("-sin(sin(x^-0.363))"), {"x": 2.3853680492515868e-181, "y": 0.0})
def test_eval_matches_scalar_reference(e, pt):
    values = {}  # None where the node's evaluation raised
    for node in _post_order(e):
        try:
            got = node.eval(pt)
        except EvalDomainError:
            got = None
        values[id(node)] = got
        args = [values[id(a)] for a in node.args]
        if None in args:
            assert got is None, str(node)  # an argument's error propagates
            continue
        try:
            want = _ref_step(node, args, pt)
        except _REF_RAISES:
            # the one place the reference is stricter: exp of (700, 709.78]
            assert got is None or (node.kind == "exp"
                                   and 700.0 < args[0] <= _EXP_LIMIT), str(node)
            continue
        if got is None:
            # the reference carried an inf or nan through without raising
            assert not math.isfinite(want), str(node)
            continue
        assert _agrees(got, want), (str(node), got, want)


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
