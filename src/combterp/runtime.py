"""Native application with an optional step budget.

Every interpreter in this package routes function application through
`apply_value`, so a single fuel counter bounds divergent programs in all
of them uniformly.  The counter is scoped with the `fuel` context
manager; evaluation is single-threaded per interpreter instance.
"""
from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

from .errors import EvalTypeError, StepLimitExceeded
from .syntax import VFun, format_value

_remaining = None  # None = unlimited


@contextmanager
def fuel(budget):
    """Bound the number of native applications performed inside the block."""
    global _remaining
    saved = _remaining
    _remaining = budget
    try:
        yield
    finally:
        _remaining = saved


def remaining():
    """Fuel left in the current budget, or None when unlimited."""
    return _remaining


def spend():
    global _remaining
    if _remaining is not None:
        if _remaining <= 0:
            raise StepLimitExceeded("application step budget exhausted")
        _remaining -= 1


def apply_value(f, v):
    """Apply a function value to an argument, spending one fuel unit."""
    global _remaining
    if type(f) is not VFun:
        raise EvalTypeError(f"cannot apply non-function value {format_value(f)}")
    if _remaining is not None:  # the fuel check is inlined: this path is hot
        if _remaining <= 0:
            raise StepLimitExceeded("application step budget exhausted")
        _remaining -= 1
    return f.fn(v)


_STACK_BYTES = 512 * 1024 * 1024
_RECURSION_LIMIT = 1_500_000


def call_deep(fn, *args, **kwargs):
    """Run fn in a worker thread with a large stack and recursion limit.

    CPython 3.10 burns C stack per Python frame; omega-encoded recursion
    legitimately nests tens of thousands of frames deep.
    """
    box = {}

    def work():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_RECURSION_LIMIT)
        try:
            box["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # re-raised in the caller
            box["error"] = exc
        finally:
            sys.setrecursionlimit(old)

    old_size = threading.stack_size(_STACK_BYTES)
    try:
        t = threading.Thread(target=work)
        t.start()
        t.join()
    finally:
        threading.stack_size(old_size)
    if "error" in box:
        # popped, not read: the traceback refers back to `box`, and an
        # exception left in it would tie the whole failed stack into a cycle
        raise box.pop("error")
    return box["value"]
