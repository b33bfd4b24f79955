"""Tiny symbolic expression language for coordinate functions.

Expressions are immutable trees over named coordinates, numeric literals,
arithmetic, and a fixed set of analytic functions.  Everything downstream
(vector fields, volume densities, metric entries, connection symbols) is
built from these trees, so this module owns parsing, differentiation,
simplification, printing, and evaluation.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "const",
    "var",
    "parse_expr",
    "FUNCTIONS",
]


class ExprError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    """Malformed source text; carries the byte offset of the first bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier that is neither a declared coordinate nor a known function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class EvalDomainError(ExprError):
    """Evaluation left the domain: division by zero (a pole of the bump
    derivative among them), overflow, or an invalid operation such as log or
    sqrt of a negative value."""


# Function kinds, each mapping to a numpy ufunc-like callable.  bump is the
# standard compactly supported mollifier: exp(-1/(1-t^2)) inside |t|<1,
# identically 0 outside.  t is squared only inside the support, so a large
# argument outside it cannot overflow in the discarded branch.
def _bump(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    denom = 1.0 - np.where(inside, t, 0.0) ** 2
    return np.where(inside, np.exp(-1.0 / denom), 0.0)


FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "bump": _bump,
}

_BINARY = frozenset({"add", "sub", "mul", "div", "pow"})
_LEAF = frozenset({"const", "var"})

# Printing precedence; atoms (leaves, function calls) bind tightest.
_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_ATOM_PREC = 9


class Expr:
    """Immutable expression tree node.

    ``kind`` is one of const/var, the arithmetic tags, or a function name.
    Structural equality and hashing let tests compare trees directly;
    evaluation is purely functional.

    Because nodes never change, each one keeps what ``simplify`` and
    ``diff`` returned for it: ``_simple`` holds the simplified node, or
    ``True`` when the node is its own simplification, and ``_diffs`` maps a
    coordinate name to the partial derivative.
    """

    __slots__ = ("kind", "args", "value", "name", "_hash", "_simple", "_diffs")

    def __init__(self, kind: str, args: tuple["Expr", ...] = (),
                 value: float | None = None, name: str | None = None):
        self.kind = kind
        self.args = args
        self.value = value
        self.name = name
        self._hash = None
        self._simple = None
        self._diffs = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Expr":
        if isinstance(other, Expr):
            return other
        if isinstance(other, (int, float)):
            return const(other)
        return NotImplemented

    def __add__(self, other):
        other = Expr._coerce(other)
        return NotImplemented if other is NotImplemented else Expr("add", (self, other))

    def __radd__(self, other):
        other = Expr._coerce(other)
        return NotImplemented if other is NotImplemented else Expr("add", (other, self))

    def __sub__(self, other):
        other = Expr._coerce(other)
        return NotImplemented if other is NotImplemented else Expr("sub", (self, other))

    def __rsub__(self, other):
        other = Expr._coerce(other)
        return NotImplemented if other is NotImplemented else Expr("sub", (other, self))

    def __mul__(self, other):
        other = Expr._coerce(other)
        return NotImplemented if other is NotImplemented else Expr("mul", (self, other))

    def __rmul__(self, other):
        other = Expr._coerce(other)
        return NotImplemented if other is NotImplemented else Expr("mul", (other, self))

    def __truediv__(self, other):
        other = Expr._coerce(other)
        return NotImplemented if other is NotImplemented else Expr("div", (self, other))

    def __rtruediv__(self, other):
        other = Expr._coerce(other)
        return NotImplemented if other is NotImplemented else Expr("div", (other, self))

    def __pow__(self, other):
        other = Expr._coerce(other)
        return NotImplemented if other is NotImplemented else Expr("pow", (self, other))

    def __neg__(self):
        return Expr("neg", (self,))

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return (self.kind == other.kind and self.value == other.value
                and self.name == other.name and self.args == other.args)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.kind, self.value, self.name, self.args))
        return self._hash

    # -- queries -------------------------------------------------------------

    def variables(self) -> frozenset[str]:
        """Set of coordinate names appearing in the tree."""
        out: set[str] = set()
        stack = [self]
        while stack:
            e = stack.pop()
            if e.kind == "var":
                out.add(e.name)
            else:
                stack.extend(e.args)
        return frozenset(out)

    # -- evaluation ----------------------------------------------------------

    def eval(self, point: Mapping[str, float]) -> float:
        """Evaluate at a point given as ``{name: value}``: ``eval_many`` on
        one-element arrays, raising EvalDomainError wherever any step divides
        by zero, overflows or is invalid (underflow is allowed), and KeyError
        for coordinates missing from ``point``."""
        arrays = {name: np.array([float(v)]) for name, v in point.items()}
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise",
                             under="ignore"):
                out = _eval_vector(self, arrays, {})
        except FloatingPointError as e:
            raise EvalDomainError(str(e)) from None
        return np.asarray(out, dtype=float).item()

    def eval_many(self, arrays: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorised evaluation over numpy arrays of coordinate values.

        Domain violations are not raised here; offending positions come back
        as nan/inf for the caller to filter.  Shared subtrees are evaluated
        once.  Constant trees are broadcast to the input shape.
        """
        with np.errstate(all="ignore"):
            out = np.asarray(_eval_vector(self, arrays, {}), dtype=float)
        if out.ndim == 0:
            for v in arrays.values():
                shape = np.shape(v)
                if shape:
                    return np.full(shape, float(out))
        return out

    # -- calculus ------------------------------------------------------------

    def diff(self, name: str) -> "Expr":
        """Partial derivative with respect to coordinate ``name``."""
        return _diff(self, name)

    def simplify(self) -> "Expr":
        """Conservative cleanup: constant folding, 0/1 identities, x-x -> 0.

        Only value-preserving rewrites (away from singular points) are
        applied; no distribution or factoring.
        """
        return _simplify(self)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        return _format(self)

    def __repr__(self):
        return f"Expr({_format(self)!r})"


def const(v: float) -> Expr:
    return Expr("const", value=float(v))


def var(name: str) -> Expr:
    return Expr("var", name=name)


_ZERO = const(0.0)
_ONE = const(1.0)


def _is_const(e: Expr, v: float | None = None) -> bool:
    return e.kind == "const" and (v is None or e.value == v)


# ---------------------------------------------------------------------------
# evaluation


def _eval_vector(root: Expr, arrays: Mapping[str, np.ndarray], memo: dict):
    key = id(root)
    hit = memo.get(key)
    if hit is not None:
        return hit
    kind = root.kind
    if kind == "const":
        out = root.value
    elif kind == "var":
        out = arrays[root.name]
    elif kind == "neg":
        out = -_eval_vector(root.args[0], arrays, memo)
    elif kind in _BINARY:
        a = _eval_vector(root.args[0], arrays, memo)
        b = _eval_vector(root.args[1], arrays, memo)
        if kind == "add":
            out = a + b
        elif kind == "sub":
            out = a - b
        elif kind == "mul":
            out = a * b
        elif kind == "div":
            out = np.divide(a, b)
        else:
            out = np.power(a, b)
    else:
        out = FUNCTIONS[kind](_eval_vector(root.args[0], arrays, memo))
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# differentiation

# Folding builders keep derivative trees small.  They are value-preserving
# away from singular points, the same standard simplify() is held to.


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Expr("add", (a, b))


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Expr("sub", (a, b))


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Expr("mul", (a, b))


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return const(a.value / b.value)
    return Expr("div", (a, b))


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _ONE
    return Expr("pow", (a, b))


def _neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.value)
    if a.kind == "neg":
        return a.args[0]
    return Expr("neg", (a,))


def _diff(e: Expr, name: str) -> Expr:
    # The memo check stays inline: a wrapper would add a frame per tree level
    # and halve the deepest tree that can be differentiated.
    kind = e.kind
    if kind == "const":
        return _ZERO
    if kind == "var":
        return _ONE if e.name == name else _ZERO
    memo = e._diffs
    if memo is None:
        memo = e._diffs = {}
    else:
        hit = memo.get(name)
        if hit is not None:
            return hit
    if kind == "neg":
        out = _neg(_diff(e.args[0], name))
    elif kind == "add":
        out = _add(_diff(e.args[0], name), _diff(e.args[1], name))
    elif kind == "sub":
        out = _sub(_diff(e.args[0], name), _diff(e.args[1], name))
    elif kind == "mul":
        a, b = e.args
        out = _add(_mul(_diff(a, name), b), _mul(a, _diff(b, name)))
    elif kind == "div":
        a, b = e.args
        num = _sub(_mul(_diff(a, name), b), _mul(a, _diff(b, name)))
        out = _div(num, _pow(b, const(2.0)))
    elif kind == "pow":
        a, b = e.args
        if _is_const(b):
            # d(a^c) = c * a^(c-1) * da
            out = _mul(_mul(b, _pow(a, const(b.value - 1.0))), _diff(a, name))
        else:
            # general case via a^b = exp(b log a)
            da, db = _diff(a, name), _diff(b, name)
            out = _mul(e, _add(_mul(db, Expr("log", (a,))), _div(_mul(b, da), a)))
    else:
        u = e.args[0]
        du = _diff(u, name)
        if kind == "sin":
            out = _mul(Expr("cos", (u,)), du)
        elif kind == "cos":
            out = _mul(_neg(Expr("sin", (u,))), du)
        elif kind == "exp":
            out = _mul(e, du)
        elif kind == "log":
            out = _div(du, u)
        elif kind == "sqrt":
            out = _div(du, _mul(const(2.0), e))
        elif kind == "tanh":
            out = _mul(_sub(_ONE, _pow(e, const(2.0))), du)
        elif kind == "bump":
            # bump'(t) = bump(t) * (-2t)/(1-t^2)^2, kept as a product so the
            # outside-support zero of bump kills the rational factor.
            rational = _div(_mul(const(-2.0), u),
                            _pow(_sub(_ONE, _pow(u, const(2.0))), const(2.0)))
            out = _mul(_mul(e, rational), du)
        else:
            raise ExprError(f"cannot differentiate node kind {kind!r}")
    memo[name] = out
    return out


# ---------------------------------------------------------------------------
# simplification


def _fold_if_const(e: Expr) -> Expr:
    """Try to evaluate a constant subtree; keep it unfolded on any domain
    problem or non-finite result."""
    try:
        v = e.eval({})
    except EvalDomainError:
        return e
    return const(v) if math.isfinite(v) else e


def _simplify(e: Expr) -> Expr:
    # Memo check inline and a plain loop over the arguments, for the same
    # recursion-depth reason as in _diff.
    done = e._simple
    if done is not None:
        return e if done is True else done
    kind = e.kind
    if kind in _LEAF:
        return e
    args = []
    for a in e.args:
        args.append(_simplify(a))
    args = tuple(args)
    if all(a.kind == "const" for a in args):
        out = _fold_if_const(Expr(kind, args, name=e.name))
    elif kind == "neg":
        out = _neg(args[0])
    elif kind == "add":
        out = _add(*args)
    elif kind == "sub":
        a, b = args
        out = _ZERO if a == b else _sub(a, b)
    elif kind == "mul":
        out = _mul(*args)
    elif kind == "div":
        out = _div(*args)
    elif kind == "pow":
        out = _pow(*args)
    else:
        out = Expr(kind, args)
    # simplify is idempotent, so its result is its own simplification
    e._simple = out
    out._simple = True
    return out


# ---------------------------------------------------------------------------
# parsing

_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPERATORS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(("num", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(("ident", m.group(), pos))
            pos = m.end()
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


# infix operator -> (precedence, node name); all are left associative
_INFIX = {"+": (1, "add"), "-": (1, "sub"), "*": (2, "mul"), "/": (2, "div")}


class _Parser:
    """Precedence climbing over the token list.

    Loosest to tightest: + and -, then * and /, then unary minus, then ^
    (right associative, its exponent may carry a unary minus), then atoms.
    """

    def __init__(self, tokens, variables: frozenset[str]):
        self.tokens = tokens
        self.i = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        typ, text, off = self.peek()
        if typ != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", off)
        self.advance()

    def parse_sum(self, min_prec: int = 1) -> Expr:
        node = self.parse_unary()
        while True:
            typ, text, _ = self.peek()
            prec, name = _INFIX.get(text, (0, "")) if typ == "op" else (0, "")
            if prec < min_prec:
                return node
            self.advance()
            node = Expr(name, (node, self.parse_sum(prec + 1)))

    def parse_unary(self) -> Expr:
        typ, text, _ = self.peek()
        if typ == "op" and text == "-":
            self.advance()
            return Expr("neg", (self.parse_unary(),))
        base = self.parse_atom()
        typ, text, _ = self.peek()
        if typ == "op" and text == "^":
            self.advance()
            return Expr("pow", (base, self.parse_unary()))
        return base

    def parse_atom(self) -> Expr:
        typ, text, off = self.advance()
        if typ == "num":
            return const(float(text))
        if typ == "ident":
            nxt_typ, nxt_text, _ = self.peek()
            if nxt_typ == "op" and nxt_text == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(text, off)
                self.advance()
                arg = self.parse_sum()
                self.expect_op(")")
                return Expr(text, (arg,))
            if text not in self.variables:
                raise UnknownIdentifierError(text, off)
            return var(text)
        if typ == "op" and text == "(":
            node = self.parse_sum()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse_expr(text: str, variables: Sequence[str] | Iterable[str]) -> Expr:
    """Parse DSL source into an Expr over the given coordinate names.

    ``variables`` must be non-empty, distinct, valid identifiers; any other
    identifier in the text (besides function names applied with parentheses)
    raises UnknownIdentifierError.
    """
    names = tuple(variables)
    if not names:
        raise ValueError("at least one variable name is required")
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    for nm in names:
        if not _IDENT_RE.fullmatch(nm):
            raise ValueError(f"invalid variable name {nm!r}")
        if nm in FUNCTIONS:
            raise ValueError(f"variable name {nm!r} shadows a builtin function")
    if not isinstance(text, str):
        raise TypeError("expression source must be a string")
    parser = _Parser(_tokenize(text), frozenset(names))
    node = parser.parse_sum()
    typ, tok_text, off = parser.peek()
    if typ != "end":
        raise ParseError(f"unexpected trailing token {tok_text!r}", off)
    return node


# ---------------------------------------------------------------------------
# printing


def _format_const(v: float) -> str:
    if v < 0 or (v == 0 and math.copysign(1.0, v) < 0):
        return "-" + repr(-v)
    return repr(v)


def _prec(e: Expr) -> int:
    if e.kind in _LEAF or e.kind in FUNCTIONS:
        return _ATOM_PREC
    return _PREC[e.kind]


def _wrap(e: Expr, minimum: int) -> str:
    s = _format(e)
    if _prec(e) < minimum:
        return f"({s})"
    return s


def _format(e: Expr) -> str:
    kind = e.kind
    if kind == "const":
        return _format_const(e.value)
    if kind == "var":
        return e.name
    if kind in FUNCTIONS:
        return f"{kind}({_format(e.args[0])})"
    if kind == "neg":
        return "-" + _wrap(e.args[0], _PREC["neg"])
    a, b = e.args
    if kind == "add":
        return f"{_wrap(a, 1)}+{_wrap(b, 1)}"
    if kind == "sub":
        # right side needs parens at equal precedence: a-(b+c) != a-b+c
        return f"{_wrap(a, 1)}-{_wrap(b, 2)}"
    if kind == "mul":
        return f"{_wrap(a, 2)}*{_wrap(b, 2)}"
    if kind == "div":
        return f"{_wrap(a, 2)}/{_wrap(b, 3)}"
    if kind == "pow":
        # base must be a true atom: -2^2 parses as -(2^2)
        base = _format(a)
        if _prec(a) < _ATOM_PREC or (a.kind == "const" and base.startswith("-")):
            base = f"({base})"
        return f"{base}^{_wrap(b, 3)}"
    raise ExprError(f"cannot format node kind {kind!r}")
