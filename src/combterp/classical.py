"""The classical environment/closure interpreter, used as the differential oracle.

Functions come in two kinds here (closures and native functions), each
with its own reduction mechanism dispatched in `happ`.  Application is
operator-then-operand, matching the formal Left/Right rules, so store
traces are comparable across all interpreters in this package.
"""
from __future__ import annotations

from typing import Optional

from . import externs
from .errors import BAD_CONDITION, EvalTypeError, UnboundVarError
from .runtime import spend
from .store import Store
from .syntax import (EAbs, EApp, EConst, EGet, EIf, ESet, EVar, Expr, Node,
                     VBool, VFun, VList, Value, format_operand, fun_meta,
                     with_meta)


class Closure(Node):
    __slots__ = ("param", "body", "env")

    def __init__(self, param: str, body: Expr, env: "Env"):
        self.param = param
        self.body = body
        self.env = env


class Env:
    """Persistent environment: extension never mutates the parent."""

    __slots__ = ("name", "value", "parent")

    def __init__(self, name=None, value=None, parent=None):
        self.name = name
        self.value = value
        self.parent = parent

    def add(self, name: str, value) -> "Env":
        return Env(name, value, self)

    def lookup(self, name: str):
        env = self
        while env is not None and env.name is not None:
            if env.name == name:
                return env.value
            env = env.parent
        raise UnboundVarError(name)


EMPTY_ENV = Env()


def happ(f, v, s: Optional[Store] = None):
    """Dual application dispatch: native call or environment extension.

    As in `eval`, a non-function raises `EvalTypeError` from its own
    `__call__`, before any fuel is spent.
    """
    if isinstance(f, VFun):
        spend()
        return f(v)
    if isinstance(f, Closure):
        spend()
        return ceval(f.env.add(f.param, v), s, f.body)
    return f(v)


def ceval(env: Env, s: Store, e: Expr):
    t = type(e)
    if t is EApp:
        f = ceval(env, s, e.fn)
        v = ceval(env, s, e.arg)
        return happ(f, v, s)
    if t is EVar:
        return env.lookup(e.name)
    if t is EConst:
        return e.value
    if t is EAbs:
        return Closure(e.param, e.body, env)
    if t is EIf:
        cond = ceval(env, s, e.cond)
        if not isinstance(cond, VBool):
            raise EvalTypeError(BAD_CONDITION)
        return ceval(env, s, e.then if cond.b else e.other)
    if t is EGet:
        return s.get(e.tag)
    if t is ESet:
        v = ceval(env, s, e.expr)
        s.set(e.tag, v)
        return v
    raise TypeError(f"not an Expr: {e!r}")


def run_classical(e: Expr, s: Optional[Store] = None):
    return ceval(EMPTY_ENV, s if s is not None else Store(), e)


# --------------------------------------------------------------- externs

def _want_fun_like(v):
    if not isinstance(v, (VFun, Closure)):
        raise EvalTypeError(f"expected a function, got {format_operand(v)}")
    return v


def _compose_classical(s: Store) -> Value:
    """The happ-based wrapper the classical scheme needs for higher-order externs."""
    def outer(f):
        _want_fun_like(f)

        def middle(g):
            _want_fun_like(g)
            return lambda x: happ(f, happ(g, x, s), s)

        return middle

    return with_meta(outer, "compose", 3)


def _filter_classical(s: Store) -> Value:
    def outer(pred):
        _want_fun_like(pred)

        def inner(l):
            if not isinstance(l, VList):
                raise EvalTypeError(f"expected a list, got {format_operand(l)}")
            kept = []
            for item in l.items:
                keep = happ(pred, item, s)
                if not isinstance(keep, VBool):
                    raise EvalTypeError("filter predicate must return a boolean")
                if keep.b:
                    kept.append(item)
            return VList(tuple(kept))

        return inner

    return with_meta(outer, "filter", 2)


def classical_registry(s: Store) -> dict[str, externs.ExternDef]:
    """The shared registry with higher-order externs replaced by happ-based wrappers."""
    reg = externs.registry()
    reg["compose"] = externs.ExternDef("compose", _compose_classical(s))
    reg["filter"] = externs.ExternDef("filter", _filter_classical(s))
    return reg


def retarget_externs(e: Expr, registry: dict[str, externs.ExternDef]) -> Expr:
    """Rebind extern constants (identified by their CombMeta name) to a registry.

    A node under which nothing was rebound is returned as it is.
    """
    def walk(x):
        t = type(x)
        if t is EApp:
            f, a = walk(x.fn), walk(x.arg)
            return x if f is x.fn and a is x.arg else EApp(f, a)
        if t is EConst:
            meta = fun_meta(x.value)
            if meta is not None and meta.comb_id in registry:
                v = registry[meta.comb_id].value
                return x if v is x.value else EConst(v)
            return x
        if t is EAbs:
            b = walk(x.body)
            return x if b is x.body else EAbs(x.param, b)
        if t is EIf:
            c, th, o = walk(x.cond), walk(x.then), walk(x.other)
            if c is x.cond and th is x.then and o is x.other:
                return x
            return EIf(c, th, o)
        if t is ESet:
            inner = walk(x.expr)
            return x if inner is x.expr else ESet(x.tag, inner)
        return x

    return walk(e)
