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
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "const",
    "var",
    "eval_roots",
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
# argument outside it cannot overflow in the discarded branch.  Like the
# ufuncs, it writes into ``out`` when one is given.
def _bump(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    denom = 1.0 - np.where(inside, t, 0.0) ** 2
    value = np.where(inside, np.exp(-1.0 / denom), 0.0)
    if out is None:
        return value
    np.copyto(out, value)
    return out


FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "bump": _bump,
}

# The numpy call of each inner node kind, for all three evaluators.
_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
           "neg": np.negative, "div": np.divide, "pow": np.power, **FUNCTIONS}
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
        """Vectorised evaluation over numpy arrays of coordinate values: the
        one-root case of ``eval_roots``, node by node and with no plan.

        Domain violations are not raised here; offending positions come back
        as nan/inf for the caller to filter.  Shared subtrees are evaluated
        once.  Constant trees are broadcast to the input shape.  Inputs
        that are not float64 arrays are evaluated as float64.
        """
        arrays = _float64(arrays)
        with np.errstate(all="ignore"):
            value = _eval_vector(self, arrays, {})
        return _own(value, arrays, self.kind == "var")

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


def eval_roots(roots: Sequence[Expr],
               arrays: Mapping[str, np.ndarray]) -> Iterator[np.ndarray]:
    """Values of several trees over the same coordinate arrays, in the order
    of ``roots``.

    Every node is evaluated once over all the trees.  Each returned array
    is the caller's own: none is an input array or another root's value.
    Non-finite positions and constant trees are handled as in ``eval_many``,
    and so are inputs that are not float64 arrays: each is converted to
    float64 first, so integer inputs do not wrap around and float32 ones are
    not evaluated in float32 on one path only.

    Two paths give bit-identical values.  When every array is one-dimensional
    with the same length m, 0 < m <= ``_BATCH_POINTS``, the trees are
    evaluated level by level (``_Program``), and every root is computed
    before the first one is yielded.  A node's buffer row is freed after
    the last level group that reads it and reused by a later group, which
    takes its rows by first fit, so the buffer holds about the rows live at
    once; it is allocated once per call and each column chunk is a
    contiguous view of it, so no chunk allocates or faults in pages again.
    Otherwise the root set runs as a flat tape of numpy calls (``_Tape``),
    each root computed when it is requested, with the values that later
    steps read kept in a few reused registers.  The plans of the last
    ``_PLAN_CACHE`` root sets are kept, so a root set evaluated again is
    not walked again.
    """
    roots = tuple(roots)
    if not roots:
        return
    arrays = _float64(arrays)
    plan = _plan(roots)
    shape = next((np.shape(v) for v in arrays.values() if np.shape(v)), ())
    fixed = len(shape) == 1 and all(np.shape(v) == shape for v in arrays.values())
    if fixed and 0 < shape[0] <= _BATCH_POINTS:
        if plan.program is None:
            plan.program = _Program(roots)
        yield from plan.program.run(arrays, shape[0])
        return
    if plan.tape is None:
        plan.tape = _Tape(roots)
    yield from plan.tape.run(arrays, shape[0] if fixed else None)


def _float64(arrays: Mapping[str, np.ndarray]) -> Mapping[str, np.ndarray]:
    """The coordinate arrays as float64 arrays; when every one already is,
    the mapping itself, so float64 inputs stay the same objects."""
    for v in arrays.values():
        if v.__class__ is not np.ndarray or v.dtype != np.float64:
            return {nm: np.asarray(v, dtype=np.float64) for nm, v in arrays.items()}
    return arrays


def _own(value, arrays: Mapping[str, np.ndarray], copy: bool) -> np.ndarray:
    """A root's value as an array of the caller's own: a copy when ``copy``
    is set, and a constant broadcast to the shape of the first non-scalar
    input."""
    out = np.asarray(value, dtype=float)
    if out.ndim == 0:
        shape = next((np.shape(v) for v in arrays.values() if np.shape(v)), ())
        return np.full(shape, float(out))
    return out.copy() if copy else out


# The largest point count evaluated level by level.  Each group of nodes
# costs a gather of its argument rows, so past a few hundred points the
# gathers cost more than the numpy calls they save and the tape wins.  Tape
# time over program time, summed over the 50 root sets of 4 or more roots
# that the axiom sweep and classify evaluate (Python 3.11, numpy 2.4, 2
# cores): 2.31 at 100 points, 0.94 at 256, 0.79 at 320, 0.64 at 400 and
# 0.62 at 512; sets of 1-3 roots read about 0.70 at every size.  Yet 256,
# with those small sets on the tape, read a slower axiom-sweep op_p50 (+1.7%,
# in 6 of 6 benchmark pairs), so the limit stays at 512, which takes a
# blackbox sweep's 400-point probe sets.
_BATCH_POINTS = 512
# Bytes of the level-by-level buffer: its columns are taken in chunks so
# that one chunk of every row fits.
_BUFFER_BYTES = 1 << 20

# Root sets whose plans are kept, least recently used first.  Each entry
# holds its roots, so no id in its key is reused while it is kept.  The
# bound covers the root sets one pass of classify cycles through (about
# 40); an LRU smaller than a cycle misses on every set.
_PLAN_CACHE = 128
_plans: dict[tuple[int, ...], "_Plan"] = {}


class _Plan:
    """What one root set's evaluation works out once: the program of the
    level-by-level path and the tape of every other, each built on first
    use."""

    __slots__ = ("roots", "program", "tape")

    def __init__(self, roots: tuple[Expr, ...]):
        self.roots = roots
        self.program: _Program | None = None
        self.tape: _Tape | None = None


def _plan(roots: tuple[Expr, ...]) -> _Plan:
    """The plan of a root set, kept while the set stays among the last
    ``_PLAN_CACHE`` sets evaluated."""
    key = tuple(map(id, roots))
    plan = _plans.pop(key, None)
    if plan is None:
        plan = _Plan(roots)
        if len(_plans) >= _PLAN_CACHE:
            del _plans[next(iter(_plans))]
    _plans[key] = plan  # now the most recently used
    return plan


# Node kinds evaluated a whole level at a time: exact IEEE operations, whose
# bits do not depend on the operand layout.
_GROUPED = frozenset({"add", "sub", "mul", "neg"})


def _walk(roots: tuple[Expr, ...]):
    """One depth-first walk over a root set, for both plans.

    Returns the coordinates by name, in order of first use; each coordinate
    node's slot, its coordinate's index; each constant subtree's value, an
    ``np.float64`` folded once here by its ``_UFUNCS`` call; the distinct
    inner nodes that read a coordinate in depth-first order, each after
    its arguments; their depths; and the length of that list after each
    root.  One frame per tree level, as in ``_eval_vector``.
    """
    coords: dict[str, int] = {}
    slots: dict[int, int] = {}        # coordinate node -> its coordinate
    scalars: dict[int, np.float64] = {}   # constant subtree -> its value
    nodes: list[Expr] = []
    depths: list[int] = []            # 1 + the deepest argument's
    depth: dict[int, int] = {}        # the memo: coordinates at depth 0
    depth_get = depth.get

    def visit(node: Expr) -> int:
        """The node's depth, or -1 for a constant subtree."""
        key = id(node)
        d = depth_get(key)
        if d is not None:
            return d
        if key in scalars:
            return -1
        args = node.args
        if not args:
            if node.kind == "var":
                depth[key] = 0
                slots[key] = coords.setdefault(node.name, len(coords))
                return 0
            scalars[key] = np.float64(node.value)
            return -1
        d = visit(args[0])
        if len(args) > 1:
            d1 = visit(args[1])
            if d1 > d:
                d = d1
        if d < 0:
            # the arguments are in the memo: no deeper recursion
            fn, a = _UFUNCS[node.kind], scalars[id(args[0])]
            scalars[key] = np.float64(
                fn(a) if len(args) == 1 else fn(a, scalars[id(args[1])]))
            return -1
        depth[key] = d + 1
        nodes.append(node)
        depths.append(d + 1)
        return d + 1

    ends: list[int] = []              # len(nodes) after each root
    with np.errstate(all="ignore"):
        for root in roots:
            visit(root)
            ends.append(len(nodes))
    # visit holds itself through its closure; without this the walk's
    # dicts would wait for the cycle collector
    del visit
    return coords, slots, scalars, nodes, depths, ends


def _place_rows(sizes: list[int], read: np.ndarray, reader: np.ndarray,
                keep: list[int], n_coords: int, n_slots: int):
    """Buffer rows for the slots of a program laid out one slot per node.

    The slots are the ``n_coords`` coordinates, then the groups in run
    order, ``sizes[g]`` slots each, then the constants up to ``n_slots``.
    Group ``reader[i]`` reads slot ``read[i]``.  Coordinates keep their
    rows.  Each group takes one contiguous range of rows, the first free
    range large enough, and a node's row is free again once the last group
    that reads it is done, unless the node is in ``keep`` (the roots).
    Within a group, the nodes freed by the same later group take adjacent
    rows, so each group frees a few ranges, not scattered rows.  The
    constants take the rows above all others.

    Returns the row of each slot, the inner slots (counted from the first
    group's) in the order of their rows, each group's first row, and the
    row above the groups' rows.
    """
    end = n_coords + sum(sizes)
    if not sizes:
        return np.arange(n_slots), np.arange(0), [], n_coords
    # the last group that reads each slot, or -1 for one never freed
    last = np.full(n_slots, -1, dtype=np.intp)
    np.maximum.at(last, read, reader)
    last[keep] = -1
    # each group's slots sorted by the group that frees them, then cut into
    # the runs that one group frees together
    n_groups = len(sizes)
    group = np.repeat(np.arange(n_groups), sizes)
    key = group * (n_groups + 1) + last[n_coords:end]
    order = np.argsort(key)
    key = key[order]
    start = np.flatnonzero(np.diff(key, prepend=-2))
    first = np.cumsum(sizes) - sizes
    owner = group[start]
    freed: list[list[tuple[int, int, int]]] = [[] for _ in sizes]
    for h, g, at, n in zip(owner.tolist(),
                           (key[start] - owner * (n_groups + 1)).tolist(),
                           (start - first[owner]).tolist(),
                           np.diff(start, append=len(key)).tolist()):
        if g >= 0:
            freed[g].append((h, at, n))

    # free row ranges, sorted; a freed range is merged with its neighbours
    # when a first-fit scan passes it.  The top range is never used up.
    free = [(n_coords, end)]
    los: list[int] = []
    for n, runs in zip(sizes, freed):
        k = 0
        lo, hi = free[0]
        while True:
            while k + 1 < len(free) and free[k + 1][0] == hi:
                hi = free.pop(k + 1)[1]
            if hi - lo >= n:
                break
            free[k] = (lo, hi)
            k += 1
            lo, hi = free[k]
        if lo + n < hi:
            free[k] = (lo + n, hi)
        else:
            del free[k]
        los.append(lo)
        if runs:
            free += [(los[h] + at, los[h] + at + m) for h, at, m in runs]
            free.sort()
    lo = np.array(los)
    top = int((lo + sizes).max())
    rows = np.empty(n_slots, dtype=np.intp)
    rows[:n_coords] = np.arange(n_coords)
    rows[n_coords + order] = np.repeat(lo - first, sizes) + np.arange(len(order))
    rows[end:] = np.arange(top, top + n_slots - end)
    return rows, order, los, top


class _Program:
    """A root set laid out level by level over a (rows x points) buffer.

    The distinct inner nodes run in groups sorted by (depth, kind).  Each
    group writes one contiguous slice of rows.  A row is freed after the
    last group that reads it and is reused by a later group, which takes
    its slice by first fit over the free ranges (``_place_rows``), so the
    buffer holds about as many rows as are live at once, not one per node.
    The coordinates, the constants used as rows and the roots keep their
    rows for the whole run.  Each ``add``/``sub``/``mul``/``neg`` group is
    one ufunc call on its gathered argument rows.  ``div``, ``pow`` and the
    functions run one node at a time, with a constant argument passed as a
    scalar as ``_eval_vector`` does: numpy's power takes other code paths
    for a scalar exponent such as 2.0, 0.5 or -1 than for an array of
    them, and the bits differ.  A subtree without coordinates is folded
    once by ``_walk`` and is a constant from then on.
    """

    __slots__ = ("coords", "consts", "n_rows", "steps", "root_rows")

    def __init__(self, roots: tuple[Expr, ...]):
        coords, slots, scalars, nodes, depths, _ = _walk(roots)
        groups: dict[tuple[int, str], list[Expr]] = {}
        groups_get = groups.get
        for node, d in zip(nodes, depths):
            group = groups_get((d, node.kind))
            if group is None:
                groups[d, node.kind] = [node]
            else:
                group.append(node)
        self.coords = list(coords)
        n_coords = len(coords)
        end = n_coords + sum(map(len, groups.values()))
        const_slots: dict[str, int] = {}
        consts: list[float] = []

        def slot(node: Expr) -> int:
            r = slots.get(id(node))
            if r is not None:
                return r
            value = float(scalars[id(node)])
            key = value.hex()  # tells -0.0 from 0.0
            r = const_slots.get(key)
            if r is None:
                r = const_slots[key] = end + len(consts)
                consts.append(value)
            slots[id(node)] = r  # the node is held by the roots
            return r

        # The steps are first laid out with one slot per node: the
        # coordinates, the groups in order, then the constants.  (ufunc,
        # output slot or group, argument, second argument or None); an
        # argument is a slot, a group's index array of slots, or a scalar.
        steps: list[tuple] = []
        sizes: list[int] = []             # nodes per group
        gathers: list[np.ndarray] = []    # the index arrays, in step order
        gather_group: list[int] = []
        singles: list[int] = []           # slots the one-node steps read
        single_group: list[int] = []
        slots_get = slots.get
        first = n_coords
        for g, ((_, kind), nodes) in enumerate(sorted(groups.items())):
            n = len(nodes)
            slots.update(zip(map(id, nodes), range(first, first + n)))
            if kind in _GROUPED:
                args = []
                for j in range(len(nodes[0].args)):
                    ix = [slots_get(id(e.args[j])) for e in nodes]
                    if None in ix:  # a constant argument takes a slot
                        ix = [slot(e.args[j]) if r is None else r
                              for e, r in zip(nodes, ix)]
                    args.append(np.array(ix, dtype=np.int32))
                gathers += args
                gather_group += [g] * len(args)
                args.append(None)
                steps.append((_UFUNCS[kind], g, args[0], args[1]))
            else:
                fn = _UFUNCS[kind]
                for k, node in enumerate(nodes):
                    args = [scalars[id(a)] if id(a) in scalars else slot(a)
                            for a in node.args]
                    args.append(None)
                    steps.append((fn, first + k, args[0], args[1]))
                    singles += [a for a in args if a.__class__ is int]
                single_group += [g] * (len(singles) - len(single_group))
            sizes.append(n)
            first += n
        root_slots = [slot(r) for r in roots]
        gathered = np.concatenate(gathers) if gathers else np.empty(0, np.int32)
        group_size = np.array(sizes, dtype=np.intp)
        owner = np.array(gather_group, dtype=np.intp)
        lens = group_size[owner]
        rows, order, los, top = _place_rows(
            sizes, np.concatenate((gathered, np.array(singles, np.int32))),
            np.concatenate((np.repeat(owner, lens),
                            np.array(single_group, np.intp))),
            root_slots, n_coords, end + len(consts))
        # A group's output rows hold its nodes in ``order``, so entry j of
        # each of its index arrays is taken from the entry of its j-th node
        # in that order; then every slot becomes a row.
        start = np.cumsum(lens) - lens
        shift = np.repeat((np.cumsum(group_size) - group_size)[owner] - start,
                          lens)
        gathered = rows[gathered[order[np.arange(len(gathered)) + shift] - shift]]
        gathered = gathered.astype(np.int32)
        at = rows.tolist()
        self.steps = []
        o = 0  # the next index array's offset in gathered
        for fn, d, a, b in steps:
            if a.__class__ is np.ndarray:
                n = len(a)
                d = slice(los[d], los[d] + n)
                a = gathered[o:o + n]
                o += n
                if b is not None:
                    b = gathered[o:o + n]
                    o += n
            else:
                d = at[d]
                a = at[a] if a.__class__ is int else a
                b = at[b] if b.__class__ is int else b
            self.steps.append((fn, d, a, b))
        self.root_rows = rows[root_slots]
        self.consts = np.array(consts, dtype=float)
        self.n_rows = top + len(consts)

    def run(self, arrays: Mapping[str, np.ndarray], m: int) -> list[np.ndarray]:
        """Every root's value at the m points, each a row of one new
        (roots x m) array.  The points are taken in chunks of columns, so
        the buffer holds at most about ``_BUFFER_BYTES``.  The buffer is
        allocated once per run, not per chunk: glibc gives a freed buffer
        of this size back to the kernel, and each new one faults its pages
        in again.  Each chunk is a C-contiguous (rows x chunk) view of its
        front; a column slice of a wider array would give strided rows,
        which may send a function to another numpy loop and change bits."""
        n_rows = self.n_rows
        width = max(1, min(m, _BUFFER_BYTES // (8 * n_rows)))
        scalar = np.float64
        out = np.empty((len(self.root_rows), m))
        flat = np.empty(n_rows * width)
        with np.errstate(all="ignore"):
            for lo in range(0, m, width):
                hi = min(lo + width, m)
                buf = flat[:n_rows * (hi - lo)].reshape(n_rows, hi - lo)
                for r, nm in enumerate(self.coords):
                    buf[r] = arrays[nm][lo:hi]
                buf[n_rows - len(self.consts):] = self.consts[:, None]
                for fn, dest, a, b in self.steps:
                    a = a if a.__class__ is scalar else buf[a]
                    if b is None:
                        fn(a, out=buf[dest])
                    else:
                        fn(a, b if b.__class__ is scalar else buf[b], out=buf[dest])
                out[:, lo:hi] = buf[self.root_rows]
        return list(out)


class _Tape:
    """A root set as a flat list of numpy calls, for the point sets that are
    not evaluated level by level.

    The distinct inner nodes run in depth-first order, one call each, root
    after root, so each root's steps run when it is requested.  A subtree
    without coordinates is folded once by ``_walk`` to an ``np.float64``
    scalar, as for ``_Program``.  A run keeps its values in one list: the
    coordinate arrays, those scalars, then ``n_regs`` registers.  A step
    whose value only one root's own hand-over reads is computed into a new
    array, which is handed over as it is.  Every other step writes into a
    register with ``out=``.  A register is free again once the last step
    that reads its value has run and every root it holds has been handed
    over; the next step takes the one freed last, and takes it before its
    own arguments' registers are freed, so it never writes into one of its
    arguments.  A root that is a coordinate, is repeated or is read by
    another step is handed over as a copy.

    When the input arrays do not all share one one-dimensional shape, the
    same steps run with every call allocating its result.

    A register is allocated for the root whose steps first write it and
    dropped once the root at which it is last freed has been computed, so
    a run holds only the registers that the roots around it use.

    ``segments`` holds per root the registers to allocate, the steps that
    run for it, (function, destination, argument, second argument or None)
    as indices into the value list, then the root's own step (function,
    argument, second argument or None), or None and the index of the value
    to copy, and the registers to drop.
    """

    __slots__ = ("coords", "consts", "n_regs", "segments")

    def __init__(self, roots: tuple[Expr, ...]):
        coords, _, scalars, nodes, _, ends = _walk(roots)
        index = {id(node): k for k, node in enumerate(nodes)}  # node -> step
        # Step k of root i's steps runs at time k + i, and root i is handed
        # over at time ends[i] + i.
        consts: dict[int, int] = {}       # constant subtree -> its value's index
        n_coords = len(coords)
        last = [-1] * len(nodes)          # the time of each value's last use
        kept = [False] * len(nodes)       # read by a step or handed over twice
        i = 0
        for k, node in enumerate(nodes):
            while k == ends[i]:
                i += 1
            for a in node.args:
                j = index.get(id(a))
                if j is not None:
                    last[j] = k + i
                    kept[j] = True
                elif id(a) in scalars:
                    consts.setdefault(id(a), n_coords + len(consts))
        for i, root in enumerate(roots):
            j = index.get(id(root))
            if j is not None:
                kept[j] = last[j] >= 0  # read by a step or handed over
                last[j] = max(last[j], ends[i] + i)
            elif id(root) in scalars:
                consts.setdefault(id(root), n_coords + len(consts))

        def at(e: Expr) -> int:
            """The value index of a coordinate, a scalar or a kept value."""
            if e.kind == "var":
                return coords[e.name]
            j = index.get(id(e))
            return consts[id(e)] if j is None else held[j]

        base = n_coords + len(consts)
        held = [-1] * len(nodes)          # each kept value's register
        free: list[int] = []              # registers, the last freed on top
        done: dict[int, int] = {}         # register -> the root it is last freed at
        n_regs = 0
        self.segments = []
        start = 0
        for i, root in enumerate(roots):
            steps: list[tuple] = []
            fresh: list[int] = []         # registers first written for this root
            own = None
            for k in range(start, ends[i]):
                node = nodes[k]
                fn = _UFUNCS[node.kind]
                args = [at(a) for a in node.args]
                args.append(None)
                if kept[k]:
                    if not free:
                        free.append(base + n_regs)
                        fresh.append(base + n_regs)
                        n_regs += 1
                    held[k] = free.pop()
                    steps.append((fn, held[k], args[0], args[1]))
                else:  # the root itself, handed over as it is
                    own = (fn, args[0], args[1])
                for j in dict.fromkeys(index.get(id(a)) for a in node.args):
                    if j is not None and last[j] == k + i:
                        free.append(held[j])
                        done[held[j]] = i
            start = ends[i]
            j = index.get(id(root))
            if j is not None and last[j] == ends[i] + i and kept[j]:
                free.append(held[j])
                done[held[j]] = i
            self.segments.append((fresh, steps, own, None if own else at(root), []))
        for r, i in done.items():
            self.segments[i][4].append(r)
        self.coords = list(coords)
        self.consts = [None] * len(consts)
        for key, r in consts.items():
            self.consts[r - n_coords] = scalars[key]
        self.n_regs = n_regs

    def run(self, arrays: Mapping[str, np.ndarray],
            m: int | None) -> Iterator[np.ndarray]:
        """Each root's value, computed when it is requested: with m, every
        array one-dimensional of m points, into registers of m floats; with
        None, into arrays each call allocates."""
        v = [arrays[nm] for nm in self.coords]
        v += self.consts
        v += [None] * self.n_regs
        for fresh, steps, own, src, drop in self.segments:
            if m is not None:
                for r in fresh:
                    v[r] = np.empty(m)
            # entered per root, so the caller's code between two roots runs
            # under its own floating-point state
            with np.errstate(all="ignore"):
                if m is None:
                    for fn, d, a, b in steps:
                        v[d] = fn(v[a]) if b is None else fn(v[a], v[b])
                else:
                    for fn, d, a, b in steps:
                        if b is None:
                            fn(v[a], v[d])
                        else:
                            fn(v[a], v[b], v[d])
                if own is not None:
                    fn, a, b = own
                    out = fn(v[a]) if b is None else fn(v[a], v[b])
            out = _own(v[src], arrays, True) if own is None \
                else _own(out, arrays, False)
            for r in drop:
                v[r] = None
            yield out


def _eval_vector(root: Expr, arrays: Mapping[str, np.ndarray], memo: dict):
    """Value of ``root`` over the coordinate arrays, node by node, keeping
    every node's value in ``memo`` and computing each inner one by its
    ``_UFUNCS`` call: ``eval_many`` and ``Expr.eval``, and the mixed nodes
    of each block of ``quadrature._expr_integral``."""
    key = id(root)
    hit = memo.get(key)
    if hit is not None:
        return hit
    kind = root.kind
    if kind == "const":
        # a numpy scalar, so arithmetic between constants obeys np.errstate
        out = np.float64(root.value)
    elif kind == "var":
        out = arrays[root.name]
    else:
        args = root.args
        a = _eval_vector(args[0], arrays, memo)
        if len(args) > 1:
            out = _UFUNCS[kind](a, _eval_vector(args[1], arrays, memo))
        else:
            out = _UFUNCS[kind](a)
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
