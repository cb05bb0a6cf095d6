"""Native application with an optional step budget, and the deep stack.

A function value is a plain Python function, so applying one is `f(v)`.
Every application spends one unit of a single fuel counter first: in
`apply_value`, in `eval` and in the generated combinator bodies, so the
counter bounds divergent programs in every interpreter uniformly.  The
counter is the plain global `_remaining` of this module, scoped with the
`fuel` context manager.  `eval` is defined here, and `elim` compiles the
combinator bodies with this module's namespace as their globals, so
every spend reads and writes the counter as a global of its own code,
never as an attribute of another module.  Runs that set it inside their
`call_deep` job, as `compare` does, cannot disturb each other: the
worker runs one job at a time.  A spend that the fuel left cannot pay
ends the run through `exhaust`, so a budget-ended run has spent its
whole budget, even where a combinator body or a folded term spends
several units at once.

`call_deep` runs a job where deep Python recursion is safe: omega-encoded
recursion and the transform of large terms nest hundreds of thousands of
frames.  Every job runs on one long-lived worker thread with a 512 MB
stack, under a recursion limit of 1.5 M frames that is set for the job
and restored after it, so no other thread keeps it.  The worker's
outermost frame, `_serve`, which never returns, reserves 128 KB of
CPython's frame data stack (`_RESERVE_SLOTS`) that every job's frames
fill: recursion within it maps and unmaps no memory, however often it
goes up and down.  On Python 3.10, where frames are heap objects, the
reserve is one large frame allocated once.
"""
from __future__ import annotations

import queue
import sys
import threading
from contextlib import contextmanager

# `EvalTypeError` and `VBool` are read by the generated combinator bodies,
# whose globals are this module's (see `elim._native`)
from .errors import EvalTypeError, StepLimitExceeded  # noqa: F401
from .syntax import MExpr, PApp, PConst, Value, VBool, VFun  # noqa: F401

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


def exhaust():
    """End the run on a spend the fuel left cannot pay.

    A bulk spend of several units stops the run where spending them one
    at a time would have: with the whole budget spent.
    """
    global _remaining
    _remaining = 0
    raise StepLimitExceeded("application step budget exhausted")


def spend():
    global _remaining
    if _remaining is not None:
        if _remaining <= 0:
            exhaust()
        _remaining -= 1


def apply_value(f, v):
    """Apply a function value to an argument, spending one fuel unit.

    A non-function raises `EvalTypeError` from its own `__call__`, before
    any fuel is spent: a type error comes before budget exhaustion.
    """
    global _remaining
    if type(f) is not VFun:
        f(v)
    if _remaining is not None:  # the fuel check is inlined: this path is hot
        if _remaining <= 0:
            exhaust()
        _remaining -= 1
    return f(v)


def eval(e: MExpr) -> Value:
    """The minimal evaluator: constants and one kind of application.

    No environments, no substitution; reducing an application is a
    single host-language call `f(v)`, so the only recursion here is
    structural.  The fuel spend of `apply_value` is inlined, so no frame
    is added per application.

    An application folded at transform time (`PApp.cost` nonzero) is not
    entered: its tree holds only partial applications of pure functions,
    which fire nothing, run no effect and cannot fail, so it spends the
    applications of that tree at once and returns the value it carries.
    A budget that cannot pay them all ends the run as applying them one
    by one would: with the whole budget spent.
    """
    global _remaining
    t = type(e)
    if t is PApp:
        if e.cost:
            r = _remaining
            if r is not None:
                if r < e.cost:
                    exhaust()
                _remaining = r - e.cost
            return e.value
        f = eval(e.fn)
        v = eval(e.arg)
        if type(f) is not VFun:
            f(v)  # a non-function's __call__ raises, before any spend
        r = _remaining
        if r is not None:
            if r <= 0:
                exhaust()
            _remaining = r - 1
        return f(v)
    if t is PConst:
        return e.value
    raise TypeError(f"not an MExpr: {e!r}")


_STACK_BYTES = 512 * 1024 * 1024
_RECURSION_LIMIT = 1_500_000
_RESERVE_SLOTS = 16 * 1024  # 128 KB of frame data stack, see `_serve`

_jobs = queue.SimpleQueue()     # (box, fn, args, kwargs), to the worker
_done = queue.SimpleQueue()     # each job's box, back from the worker
_turn = threading.Lock()        # one caller at a time hands the worker a job
_start = threading.Lock()
_worker = None


def _serve():
    while True:
        box, fn, args, kwargs = _jobs.get()
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_RECURSION_LIMIT)
        try:
            box["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # re-raised in the caller
            box["error"] = exc
        finally:
            sys.setrecursionlimit(old)
        # keep nothing of a finished job: the caller owns all of it, and
        # empties the box
        del fn, args, kwargs
        _done.put(box)


# CPython 3.11 keeps frames in data-stack chunks of 16 KB and unmaps a
# chunk as soon as recursion unwinds below it, so recursion that goes up
# and down across a chunk boundary maps and unmaps it each time.  A frame
# too large for the space left in the current chunk gets a fresh chunk of
# 16 KB doubled until the frame fits.  So `_serve`, given `_RESERVE_SLOTS`
# more value-stack slots than it uses (a little over 128 KB), takes a
# 256 KB chunk whose other half holds the frames of every job; the chunk
# is freed only when `_serve` returns, which it never does.  The reserved
# slots are never written, so their pages stay untouched.
_serve.__code__ = _serve.__code__.replace(
    co_stacksize=_serve.__code__.co_stacksize + _RESERVE_SLOTS)


def _start_worker() -> threading.Thread:
    """Start the worker once; only its start sees the large stack size."""
    global _worker
    with _start:
        if _worker is None:
            old_size = threading.stack_size(_STACK_BYTES)
            try:
                t = threading.Thread(target=_serve, name="combterp-deep",
                                     daemon=True)
                t.start()
            finally:
                threading.stack_size(old_size)
            _worker = t
    return _worker


def call_deep(fn, *args, **kwargs):
    """fn(*args, **kwargs) on the deep-stack worker; its error is re-raised here.

    A call made on the worker itself runs inline; calls from other
    threads take turns.
    """
    worker = _worker or _start_worker()
    if threading.get_ident() == worker.ident:
        return fn(*args, **kwargs)
    box = {}
    with _turn:
        _jobs.put((box, fn, args, kwargs))
        while _done.get() is not box:
            pass  # the box of a call that was interrupted while it waited
    if "error" in box:
        # popped, not read: the traceback refers back to `box`, and an
        # exception left in it would tie the whole failed stack into a cycle
        raise box.pop("error")
    return box.pop("value")
