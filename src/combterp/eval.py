"""The minimal evaluator: constants and one kind of application.

No environments, no substitution; reducing an application is a single
host-language call `f(v)`, so the only recursion here is structural.
The fuel spend of `runtime.apply_value` is inlined, so no frame is
added per application.

An application folded at transform time (`PApp.cost` nonzero) is not
entered: its tree holds only partial applications of pure functions,
which fire nothing, run no effect and cannot fail, so it spends the
applications of that tree at once and returns the value it carries.  A
budget that cannot pay them all ends the run as applying them one by
one would: with the whole budget spent.
"""
from __future__ import annotations

from . import runtime as _rt
from .runtime import exhaust
from .syntax import MExpr, PApp, PConst, Value, VFun


def eval(e: MExpr) -> Value:
    t = type(e)
    if t is PApp:
        if e.cost:
            r = _rt._remaining
            if r is not None:
                if r < e.cost:
                    exhaust()
                _rt._remaining = r - e.cost
            return e.value
        f = eval(e.fn)
        v = eval(e.arg)
        if type(f) is not VFun:
            f(v)  # a non-function's __call__ raises, before any spend
        r = _rt._remaining
        if r is not None:
            if r <= 0:
                exhaust()
            _rt._remaining = r - 1
        return f(v)
    if t is PConst:
        return e.value
    raise TypeError(f"not an MExpr: {e!r}")
