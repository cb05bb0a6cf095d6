"""Differential harness: classical interpreter vs the combinator pipeline.

Every program is observed as an outcome class (ground value, function,
type error, unbound tag, step-limit), a normalized store trace, and the
final store bindings.  Two runs agree when all three coincide; runs that
exhaust their step budget on either side are excluded rather than
counted as disagreements.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .classical import Closure, classical_registry, retarget_externs, run_classical
from .elim import ElimAlgo, transform
from .errors import (EvalTypeError, StepLimitExceeded, UnboundTagError,
                     UnboundVarError)
from .eval import eval as meval
from .frontend import SourceProgram, check_closed, parse
from .purify import PurifyCtx, purify
from .runtime import call_deep, fuel, remaining
from .store import Store
from .syntax import (Expr, VFun, VList, Value, format_operand, is_ground,
                     value_ground_eq)

DEFAULT_BUDGET = 200_000
RUN_BUDGET = 50_000_000  # `combterp run` and `run_source`


def normalize_value(v):
    """Collapse functions to an opaque token so traces compare across schemes."""
    if isinstance(v, (VFun, Closure)):
        return "fun"
    if isinstance(v, VList) and not is_ground(v):
        return tuple(normalize_value(x) for x in v.items)
    return v


@dataclass(frozen=True)
class Observation:
    kind: str  # "value", "type_error", "unbound_tag", "limit", "recursion"
    value: Optional[Value] = None
    trace: tuple = ()
    bindings: tuple = ()
    steps: Optional[int] = None  # native applications spent by the run
    eval_s: float = field(default=0.0, compare=False)
    # the exception that ended the run, without its traceback: that would
    # keep the failed run's whole stack alive
    error: Optional[BaseException] = field(default=None, compare=False)

    @property
    def excluded(self) -> bool:
        return self.kind in ("limit", "recursion")


def _snapshot(s: Store) -> tuple:
    trace = tuple((ev.kind, ev.tag, normalize_value(ev.value)) for ev in s.trace)
    bindings = tuple(sorted(
        (tag, normalize_value(v)) for tag, v in s.bindings.items()))
    return trace, bindings


def _observe(s: Store, budget: int, prepare, run) -> Observation:
    """`run(prepare())` on a deep stack, with the budget on `run` alone.

    Both run in one deep-stack job, so a deep program is as safe to parse
    and transform as to evaluate.  The budget is set and `steps` read
    inside the job, on the worker, which runs one job at a time: runs
    observed from several threads at once each spend their own fuel.
    `eval_s` times `run` alone.  A budget that is not a non-negative
    integer is rejected before anything runs.

    The job also names the error that ended the run and drops its
    traceback, which holds the failed run's whole stack: so the stack is
    freed before the worker turns the cyclic collector back on, whose
    next pass would otherwise scan all of it.
    """
    if type(budget) is not int or budget < 0:
        raise ValueError(
            f"budget must be a non-negative integer, got {budget!r}")
    steps, eval_s = None, 0.0

    def job():
        nonlocal steps, eval_s
        try:
            prepared = prepare()
            t0 = time.perf_counter()
            with fuel(budget):
                try:
                    return "value", run(prepared), None
                finally:
                    steps = budget - remaining()
                    eval_s = time.perf_counter() - t0
        except EvalTypeError as exc:
            return "type_error", None, exc.with_traceback(None)
        except (UnboundTagError, UnboundVarError) as exc:
            return "unbound_tag", None, exc.with_traceback(None)
        except StepLimitExceeded as exc:
            return "limit", None, exc.with_traceback(None)
        except (RecursionError, MemoryError) as exc:
            return "recursion", None, exc.with_traceback(None)

    kind, value, error = call_deep(job)
    trace, bindings = _snapshot(s)
    return Observation(kind, value, trace, bindings, steps, eval_s, error)


def _closed(program) -> Expr:
    """An Expr as it is; a SourceProgram or text parsed and checked closed."""
    if isinstance(program, (str, SourceProgram)):
        return check_closed(parse(program))
    return program


def observe_classical(program, initial=None,
                      budget: int = DEFAULT_BUDGET) -> Observation:
    """Observe an Expr, a SourceProgram or source text under `run_classical`."""
    s = Store(initial)
    return _observe(
        s, budget,
        lambda: retarget_externs(_closed(program), classical_registry(s)),
        lambda e: run_classical(e, s))


def observe_combinator(program, algo: ElimAlgo, initial=None,
                       budget: int = DEFAULT_BUDGET,
                       pre_eval: Optional[bool] = None) -> Observation:
    """Observe an Expr, a SourceProgram or source text under a rule set."""
    s = Store(initial)

    def prepare():
        m = transform(purify(_closed(program), PurifyCtx(s)), algo,
                      pre_eval=pre_eval)
        assert not s.trace, "transforming must not touch the store"
        return m

    return _observe(s, budget, prepare, meval)


@dataclass(frozen=True)
class CompareResult:
    agree: bool
    excluded: bool
    detail: str = ""


def _values_agree(a: Observation, b: Observation) -> bool:
    fa = isinstance(a.value, (VFun, Closure))
    fb = isinstance(b.value, (VFun, Closure))
    if fa or fb:
        return fa and fb  # same outcome class: some function
    return value_ground_eq(a.value, b.value)


def compare_observations(a: Observation, b: Observation) -> CompareResult:
    if a.excluded or b.excluded:
        return CompareResult(True, True, "budget exhausted")
    if a.kind != b.kind:
        return CompareResult(False, False, f"outcome {a.kind} vs {b.kind}")
    if a.trace != b.trace:
        return CompareResult(False, False, "store traces differ")
    if a.bindings != b.bindings:
        return CompareResult(False, False, "final store bindings differ")
    if a.kind == "value" and not _values_agree(a, b):
        return CompareResult(
            False, False,
            f"values {format_operand(a.value)} vs {format_operand(b.value)}")
    return CompareResult(True, False)


def compare_expr(program, algos, initial=None,
                 budget: int = DEFAULT_BUDGET) -> dict[ElimAlgo, CompareResult]:
    """Compare each combinator scheme against the classical interpreter.

    `program` is an Expr, a SourceProgram or source text.

    The classical side gets a tighter budget: it burns a Python stack
    frame per application, so divergent programs are cut off sooner.
    Combinator terms legitimately spend far more applications per source
    reduction and keep the full budget.
    """
    baseline = observe_classical(program, initial, min(budget, 10_000))
    out = {}
    for algo in algos:
        if baseline.excluded:
            # one exhausted side already excludes the comparison
            out[algo] = CompareResult(True, True, "budget exhausted")
            continue
        got = observe_combinator(program, algo, initial, budget)
        out[algo] = compare_observations(baseline, got)
    return out
