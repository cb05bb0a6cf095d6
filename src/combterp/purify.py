"""Non-strictness elimination: conditionals and get/set become applications.

Conditional branches are suspended in dummy-parameter thunks and chosen
at run time by the IF function constant; reference reads and writes
become applications of per-tag effectful function constants that capture
the evaluation store handle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BAD_CONDITION, EvalTypeError
from .runtime import apply_value
from .store import Store
from .syntax import (DUMMY_IDENT, DUMMY_VAL, EAbs, EApp, EConst, EGet, EIf,
                     ESet, EVar, Expr, PAbs, PApp, PConst, PVar, PExpr, VBool,
                     VFun, with_meta)


def _fun_if_impl(cond):
    def with_then(th):
        if not isinstance(th, VFun):
            raise EvalTypeError("IF branch must be a function")

        def with_else(el):
            if not isinstance(el, VFun):
                raise EvalTypeError("IF branch must be a function")
            if not isinstance(cond, VBool):
                raise EvalTypeError(BAD_CONDITION)
            chosen = th if cond.b else el
            return apply_value(chosen, DUMMY_VAL)

        return with_else

    return with_then


# The one distinguished IF constant; variable elimination recognizes it
# by its meta.  Marked impure so pre-evaluation never folds it.
FUN_IF = with_meta(_fun_if_impl, "IF", 3, pure=False)


@dataclass
class PurifyCtx:
    store: Store
    _getfuns: dict = field(default_factory=dict)
    _setfuns: dict = field(default_factory=dict)


def make_get(tag: str, ctx: PurifyCtx) -> VFun:
    if tag not in ctx._getfuns:
        store = ctx.store
        ctx._getfuns[tag] = with_meta(lambda _: store.get(tag),
                                      f"get!{tag}", 1, pure=False)
    return ctx._getfuns[tag]


def make_set(tag: str, ctx: PurifyCtx) -> VFun:
    if tag not in ctx._setfuns:
        store = ctx.store
        ctx._setfuns[tag] = with_meta(lambda v: store.set(tag, v),
                                      f"set!{tag}", 1, pure=False)
    return ctx._setfuns[tag]


def purify(e: Expr, ctx: PurifyCtx) -> PExpr:
    t = type(e)
    if t is EApp:
        return PApp(purify(e.fn, ctx), purify(e.arg, ctx))
    if t is EVar:
        return PVar(e.name)
    if t is EConst:
        return PConst(e.value)
    if t is EAbs:
        return PAbs(e.param, purify(e.body, ctx))
    if t is EIf:
        pc = purify(e.cond, ctx)
        pt = PAbs(DUMMY_IDENT, purify(e.then, ctx))
        po = PAbs(DUMMY_IDENT, purify(e.other, ctx))
        return PApp(PApp(PApp(PConst(FUN_IF), pc), pt), po)
    if t is EGet:
        return PApp(PConst(make_get(e.tag, ctx)), PConst(DUMMY_VAL))
    if t is ESet:
        return PApp(PConst(make_set(e.tag, ctx)), purify(e.expr, ctx))
    raise TypeError(f"not an Expr: {e!r}")
