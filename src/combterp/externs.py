"""External (library) functions exposed to the interpreted language.

All wrappers are purely structural: they unwrap and rewrap Value
constructors and never dispatch on closure-vs-native function kinds.
Each extern is a plain function marked with its CombMeta; the stages it
returns are plain functions too.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import EvalTypeError
from .runtime import apply_value
from .syntax import (VBool, VFun, VInt, VList, Value, format_operand,
                     is_ground, value_ground_eq, with_meta)


@dataclass(frozen=True)
class ExternDef:
    name: str
    value: Value


def _want_int(v) -> int:
    if not isinstance(v, VInt):
        raise EvalTypeError(f"expected an integer, got {format_operand(v)}")
    return v.n


def _want_list(v) -> VList:
    if not isinstance(v, VList):
        raise EvalTypeError(f"expected a list, got {format_operand(v)}")
    return v


def _int2(name, op):
    def outer(a):
        x = _want_int(a)
        return lambda b: VInt(op(x, _want_int(b)))
    return with_meta(outer, name, 2)


def _cmp2(name, op):
    def outer(a):
        x = _want_int(a)
        return lambda b: VBool(op(x, _want_int(b)))
    return with_meta(outer, name, 2)


def _eq_fn(a):
    if not is_ground(a):
        raise EvalTypeError("= compares ground values only")

    def inner(b):
        if not is_ground(b):
            raise EvalTypeError("= compares ground values only")
        return VBool(value_ground_eq(a, b))

    return inner


def _cons_fn(v):
    return lambda l: VList.cons(v, _want_list(l))


def _head_fn(l):
    lst = _want_list(l)
    if lst.is_empty:
        raise EvalTypeError("head of the empty list")
    return lst.first


def _tail_fn(l):
    lst = _want_list(l)
    if lst.is_empty:
        raise EvalTypeError("tail of the empty list")
    return lst.rest


def _isnil_fn(l):
    return VBool(_want_list(l).is_empty)


def _want_fun(v) -> VFun:
    if not isinstance(v, VFun):
        raise EvalTypeError(f"expected a function, got {format_operand(v)}")
    return v


def compose_embed() -> Value:
    """f . g as a native closure: only unwraps its two function arguments."""
    def outer(f):
        _want_fun(f)

        def middle(g):
            _want_fun(g)
            return lambda x: apply_value(f, apply_value(g, x))

        return middle

    return with_meta(outer, "compose", 3)


def _filter_value() -> Value:
    def outer(pred):
        _want_fun(pred)

        def inner(l):
            kept = []
            for item in _want_list(l):
                keep = apply_value(pred, item)
                if not isinstance(keep, VBool):
                    raise EvalTypeError("filter predicate must return a boolean")
                if keep.b:
                    kept.append(item)
            return VList(tuple(kept))

        return inner

    return with_meta(outer, "filter", 2)


def _make_registry() -> dict[str, ExternDef]:
    defs = [
        ExternDef("plus", _int2("plus", lambda a, b: a + b)),
        ExternDef("minus", _int2("minus", lambda a, b: a - b)),
        ExternDef("times", _int2("times", lambda a, b: a * b)),
        ExternDef("leq", _cmp2("leq", lambda a, b: a <= b)),
        ExternDef("lt", _cmp2("lt", lambda a, b: a < b)),
        ExternDef("eq", with_meta(_eq_fn, "eq", 2)),
        ExternDef("cons", with_meta(_cons_fn, "cons", 2)),
        ExternDef("head", with_meta(_head_fn, "head", 1)),
        ExternDef("tail", with_meta(_tail_fn, "tail", 1)),
        ExternDef("isnil", with_meta(_isnil_fn, "isnil", 1)),
        ExternDef("nil", VList(())),
        ExternDef("compose", compose_embed()),
        ExternDef("filter", _filter_value()),
    ]
    return {d.name: d for d in defs}


_REGISTRY = _make_registry()


def registry() -> dict[str, ExternDef]:
    return dict(_REGISTRY)
