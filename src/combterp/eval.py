"""The minimal evaluator: constants and one kind of application.

No environments, no substitution; reducing an application is a single
host-language call `f(v)`, so the only recursion here is structural.
The fuel spend of `runtime.apply_value` is inlined, so no frame is
added per application.
"""
from __future__ import annotations

from . import runtime as _rt
from .errors import StepLimitExceeded
from .syntax import MExpr, PApp, PConst, Value, VFun


def eval(e: MExpr) -> Value:
    t = type(e)
    if t is PApp:
        f = eval(e.fn)
        v = eval(e.arg)
        if type(f) is not VFun:
            f(v)  # a non-function's __call__ raises, before any spend
        r = _rt._remaining
        if r is not None:
            if r <= 0:
                raise StepLimitExceeded("application step budget exhausted")
            _rt._remaining = r - 1
        return f(v)
    if t is PConst:
        return e.value
    raise TypeError(f"not an MExpr: {e!r}")
