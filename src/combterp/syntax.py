"""The term languages of the pipeline and the runtime value type.

Surface programs are `Expr` trees.  Non-strictness elimination produces
`PExpr` (purely functional: no conditional, no get/set).  Variable
elimination produces an `MExpr`: the var-free subset of `PExpr`, built
from `PConst` and `PApp` nodes only.  `MConst` and `MApp` are the same
classes as `PConst` and `PApp`, so no copy separates the two languages.

A function value is a plain Python function (`VFun` is the function
type), so applying one is one host call.  Every other value has a
`__call__` that raises `EvalTypeError`.
"""
from __future__ import annotations

import functools
import types
from dataclasses import dataclass
from typing import Optional, Union

from .errors import EvalTypeError

RESERVED_PREFIX = "%"
DUMMY_IDENT = "%d"  # binder of the thunks introduced by non-strictness elimination


# ---------------------------------------------------------------- values

def _not_a_function(self, arg):
    """`__call__` of every non-function value: applying it is a type error."""
    raise EvalTypeError(f"cannot apply non-function value {format_operand(self)}")


@dataclass(frozen=True)
class VInt:
    n: int

    __call__ = _not_a_function


@dataclass(frozen=True)
class VBool:
    b: bool

    __call__ = _not_a_function


class VList:
    """Persistent list value: O(1) cons/head/tail through structure sharing."""

    __slots__ = ("_head", "_rest", "length")
    __match_args__ = ("items",)
    __call__ = _not_a_function

    def __init__(self, items=()):
        items = tuple(items)
        if not items:
            self._head = None
            self._rest = None
            self.length = 0
            return
        rest = VList()
        for v in reversed(items[1:]):
            rest = VList.cons(v, rest)
        self._head = items[0]
        self._rest = rest
        self.length = len(items)

    @staticmethod
    def cons(v, rest: "VList") -> "VList":
        cell = object.__new__(VList)
        cell._head = v
        cell._rest = rest
        cell.length = rest.length + 1
        return cell

    @property
    def is_empty(self) -> bool:
        return self.length == 0

    @property
    def first(self):
        return self._head

    @property
    def rest(self) -> "VList":
        return self._rest

    def __iter__(self):
        node = self
        while node.length:
            yield node._head
            node = node._rest

    @property
    def items(self) -> tuple:
        return tuple(self)

    def __eq__(self, other):
        if not isinstance(other, VList):
            return NotImplemented
        return self.length == other.length and all(
            a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash(self.items)

    def __repr__(self):
        return f"VList({self.items!r})"


@dataclass(frozen=True)
class VDummy:
    __call__ = _not_a_function


DUMMY_VAL = VDummy()


@dataclass(frozen=True)
class CombMeta:
    """Arity/purity bookkeeping attached to known native functions.

    `pure` means the function applies nothing before it has received all
    of its `total_arity` arguments, so its partial applications may be
    folded at transform time.
    """
    comb_id: str
    total_arity: int
    args_seen: int = 0
    pure: bool = True

    @functools.cached_property
    def successor(self) -> "CombMeta":
        """The meta of this function's stage after one more argument.

        Made once per meta and kept on it, so every fold of one function
        shares one object, and the cache lives only as long as the meta.
        """
        return CombMeta(self.comb_id, self.total_arity, self.args_seen + 1,
                        self.pure)


# A function value is a plain Python function, so applying one is one host
# call.  Constants built at transform time carry their CombMeta in a
# `meta` attribute; a stage made at run time carries none.
VFun = types.FunctionType


def fun_meta(f) -> Optional[CombMeta]:
    """The CombMeta of a function constant, or None for any other value."""
    return getattr(f, "meta", None)


def with_meta(fn, comb_id: str, total_arity: int, args_seen: int = 0,
              pure: bool = True):
    """`fn` marked as a known function constant; returns `fn`."""
    fn.meta = CombMeta(comb_id, total_arity, args_seen, pure)
    return fn


Value = Union[VInt, VBool, VList, VDummy, VFun]


def is_ground(v: Value) -> bool:
    if isinstance(v, (VInt, VBool, VDummy)):
        return True
    if isinstance(v, VList):
        return all(is_ground(x) for x in v)
    return False


def value_ground_eq(a: Value, b: Value) -> bool:
    """Observational equality: structural on ground values, identity on functions."""
    if isinstance(a, VFun) and isinstance(b, VFun):
        return a is b
    if isinstance(a, VFun) or isinstance(b, VFun):
        return False
    if isinstance(a, VList) and isinstance(b, VList):
        return (a.length == b.length
                and all(value_ground_eq(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b and is_ground(a)


def format_value(v: Value) -> str:
    match v:
        case VInt(n):
            return str(n)
        case VBool(b):
            return "true" if b else "false"
        case VList(items):
            return "[" + ", ".join(format_value(x) for x in items) + "]"
        case VDummy():
            return "dummy"
        case VFun():  # `<S>`, `<K+1>` by the meta; any other function `<fun>`
            m = fun_meta(v)
            if m is None:
                return "<fun>"
            if m.args_seen:
                return f"<{m.comb_id}+{m.args_seen}>"
            return f"<{m.comb_id}>"
    raise TypeError(f"not a value: {v!r}")


def format_operand(v) -> str:
    """A value as a type error names it, in the same words under every scheme.

    A ground value prints as `format_value` prints it.  Every function is
    `<fun>`, whatever its kind: a classical closure, a combinator stage or
    a constant with a `meta`, which differ between the schemes.
    """
    if isinstance(v, VList):
        return "[" + ", ".join(format_operand(x) for x in v) + "]"
    if isinstance(v, (VInt, VBool, VDummy)):
        return format_value(v)
    return "<fun>"


# ---------------------------------------------------------------- syntax nodes

class Node:
    """Base of the syntax node classes, which are built in bulk.

    A subclass names its fields in `__slots__` and assigns them in its own
    `__init__`: that costs under half of a frozen dataclass's construction.
    The base gives field-wise `==` and `hash`, a dataclass-style `repr`
    and positional `match` patterns, over the fields named in `_fields`:
    all the slots, unless a class names fewer.  A slot left out of
    `_fields` is a cache the node carries, not part of what it is.  The
    fields of a node are never mutated once it is built.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        cls.__match_args__ = cls._fields

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------- surface syntax

class EConst(Node):
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value


class EVar(Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class EAbs(Node):
    __slots__ = ("param", "body")

    def __init__(self, param: str, body: "Expr"):
        self.param = param
        self.body = body


class EApp(Node):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: "Expr", arg: "Expr"):
        self.fn = fn
        self.arg = arg


class EIf(Node):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: "Expr", then: "Expr", other: "Expr"):
        self.cond = cond
        self.then = then
        self.other = other


class EGet(Node):
    __slots__ = ("tag",)

    def __init__(self, tag: str):
        self.tag = tag


class ESet(Node):
    __slots__ = ("tag", "expr")

    def __init__(self, tag: str, expr: "Expr"):
        self.tag = tag
        self.expr = expr


Expr = Union[EConst, EVar, EAbs, EApp, EIf, EGet, ESet]


# ---------------------------------------------------------------- purely functional syntax

class PConst(Node):
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value


class PVar(Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class PAbs(Node):
    __slots__ = ("param", "body")

    def __init__(self, param: str, body: "PExpr"):
        self.param = param
        self.body = body


class PApp(Node):
    """The application `fn arg`.

    A node may also carry its value, folded at transform time (see
    `elim._SharingEliminator`): then `cost`, the applications in its tree,
    is nonzero, and `value` is what evaluating the tree returns.  Neither
    is a field: a folded node equals, hashes, prints and matches as the
    same application unfolded.
    """

    __slots__ = ("fn", "arg", "value", "cost")
    _fields = ("fn", "arg")

    def __init__(self, fn: "PExpr", arg: "PExpr"):
        self.fn = fn
        self.arg = arg
        self.cost = 0  # 0: not folded, `value` unset


PExpr = Union[PConst, PVar, PAbs, PApp]


# ---------------------------------------------------------------- minimal syntax

# the var-free subset of PExpr: no PVar, no PAbs
MConst = PConst
MApp = PApp
MExpr = Union[PConst, PApp]


# ---------------------------------------------------------------- structural metrics

def count_apps(e) -> int:
    """Application nodes in the tree of a PExpr (abstractions not entered).

    A node shared within `e` counts once per occurrence, but its count is
    worked out once and kept by id, so the time is linear in the
    distinct nodes.
    """
    if type(e) is not PApp:
        return 0
    sizes = {}  # id of an application -> the applications in its tree
    todo = [e]
    while todo:
        t = todo[-1]
        f, a = t.fn, t.arg
        nf = na = 0
        if type(f) is PApp:
            nf = sizes.get(id(f))
            if nf is None:
                todo.append(f)
                continue
        if type(a) is PApp:
            na = sizes.get(id(a))
            if na is None:
                todo.append(a)
                continue
        todo.pop()
        sizes[id(t)] = nf + na + 1
    return sizes[id(e)]


def free_vars(e) -> frozenset:
    """Free variables of an Expr or PExpr under the usual binding of Abs."""
    match e:
        case EVar(name) | PVar(name):
            return frozenset({name})
        case EAbs(param, body) | PAbs(param, body):
            return free_vars(body) - {param}
        case EApp(f, a) | PApp(f, a):
            return free_vars(f) | free_vars(a)
        case EIf(c, t, o):
            return free_vars(c) | free_vars(t) | free_vars(o)
        case ESet(_, inner):
            return free_vars(inner)
        case _:
            return frozenset()


def format_mexpr(e: MExpr) -> str:
    """Textual combinator notation, e.g. ((S I) I)."""
    match e:
        case MConst(v):
            m = fun_meta(v)
            if m is not None and not m.args_seen:
                return m.comb_id  # a combinator by its bare name
            return format_value(v)
        case MApp(f, a):
            return f"({format_mexpr(f)} {format_mexpr(a)})"
    raise TypeError(f"not an MExpr: {e!r}")
