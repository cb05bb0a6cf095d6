"""One round of a workload, run untraced or traced.

The untraced round runs each program the way `combterp bench`,
`combterp compare` and `combterp run` do, through `compare.observe_*`,
and times each operation (one program under one scheme) whole.

The traced round does the same work one public function at a time, each
timed from outside: parse and `check_closed`, `purify`, `elim` and
`check_no_var` (inside one `call_deep`, as `transform` runs them), and
`eval` or `run_classical` (inside `fuel` and a second `call_deep`).
Steps come from `runtime.remaining`, store counts from the Store's
trace.  Its outcomes must equal those of the untraced round.

A depth round is a traced round that also counts, through a profile
hook, the deepest Python frame nesting each eval reaches below the
deep-stack worker's entry.  The hook slows eval several times over, so
a depth round's seconds are not used.

Both rounds scale every second they report to the reference speed,
segment by segment, through a `calibrate.Clock`; the per-operation rows
of a traced round keep the seconds as measured.
"""
from __future__ import annotations

import gc
import sys
from collections import Counter, defaultdict
from time import perf_counter

from combterp import compare, runtime
from combterp.classical import classical_registry, retarget_externs, run_classical
from combterp.elim import ElimAlgo, check_no_var, elim
from combterp.errors import (EvalTypeError, StepLimitExceeded, UnboundTagError,
                             UnboundVarError)
from combterp.eval import eval as meval
from combterp.frontend import SourceProgram, check_closed, parse
from combterp.purify import PurifyCtx, purify
from combterp.store import Store
from combterp.syntax import count_apps

from calibrate import Clock
from checks import EXCLUDED, outcome_from_store
from workloads import CLASSICAL, SCHEMES

ALGOS = {a.value: a for a in ElimAlgo}


def _verdict(r: compare.CompareResult) -> str:
    return "excluded" if r.excluded else ("agree" if r.agree else "disagree")


def untraced_round(programs):
    """(observations, compare's verdicts, seconds per operation, wall, cpu).

    Every time is scaled to the reference speed (see calibrate.py).
    """
    observed, reported, op_s = {}, {}, {}
    gc.collect()
    clock = Clock()
    for p in programs:
        e = p.expr if p.source is None else check_closed(
            parse(SourceProgram(p.source, p.name)))
        t = perf_counter()
        base = compare.observe_classical(e, p.initial, p.budgets[CLASSICAL])
        clock.add(op_s, (p.name, CLASSICAL), perf_counter() - t)
        observed[(p.name, CLASSICAL)] = base
        clock.mark()
        for scheme in SCHEMES[1:]:
            if p.gated and base.excluded:  # compare_expr skips the other side
                reported[(p.name, scheme)] = "excluded"
                continue
            t = perf_counter()
            got = compare.observe_combinator(e, ALGOS[scheme], p.initial,
                                             p.budgets[scheme], pre_eval=p.pre_eval)
            clock.add(op_s, (p.name, scheme), perf_counter() - t)
            observed[(p.name, scheme)] = got
            if p.gated:
                reported[(p.name, scheme)] = _verdict(compare.compare_observations(base, got))
            clock.mark()
    clock.mark(force=True)
    return observed, reported, op_s, clock.wall, clock.cpu


class Tracer:
    """Per-layer seconds and counts of one round, plus one row per operation."""

    def __init__(self, clock: Clock, depth: bool = False):
        self.clock = clock
        self.seconds = defaultdict(float)
        self.counts = Counter()
        self.rows = []
        self._inner = 0.0
        self._probe = depth
        self._depth = 0

    def timed(self, key, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.clock.add(self.seconds, key, perf_counter() - t0)

    def deep(self, body):
        """`call_deep(body)`; what it costs beyond the body is deep-stack overhead."""
        def timed_body():
            t0 = perf_counter()
            try:
                return body()
            finally:
                self._inner = perf_counter() - t0

        self._inner = 0.0
        t0 = perf_counter()
        try:
            return runtime.call_deep(timed_body)
        finally:
            self.clock.add(self.seconds, "runtime.deep_overhead_s",
                           perf_counter() - t0 - self._inner)

    def deepest(self, body):
        """body, counting into self._depth the deepest frame nesting it reaches."""
        def probed():
            depth = [0, 0]  # now, deepest

            def hook(frame, event, arg):
                if event == "call":
                    depth[0] += 1
                    if depth[0] > depth[1]:
                        depth[1] = depth[0]
                elif event == "return":  # also on the way out of an exception
                    depth[0] -= 1

            sys.setprofile(hook)
            try:
                return body()
            finally:
                sys.setprofile(None)
                self._depth = depth[1]

        return probed

    def evaluate(self, body, budget):
        """Run body as `compare._observe` does: (kind, value, steps, seconds)."""
        kind, value, steps = "value", None, 0
        if self._probe:
            body = self.deepest(body)
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            with runtime.fuel(budget):
                try:
                    value = self.deep(body)
                finally:
                    steps = budget - runtime.remaining()
        except EvalTypeError:
            kind = "type_error"
        except (UnboundTagError, UnboundVarError):
            kind = "unbound_tag"
        except StepLimitExceeded:
            kind = "limit"
        except (RecursionError, MemoryError):
            kind = "recursion"
        finally:
            if gc_was_on:
                gc.enable()
        return kind, value, steps, self._inner

    def classical(self, e, p):
        s = Store(p.initial)
        e2 = retarget_externs(e, classical_registry(s))
        kind, value, steps, secs = self.evaluate(
            lambda: run_classical(e2, s), p.budgets[CLASSICAL])
        self.clock.add(self.seconds, "classical.eval_s", secs)
        self.counts["classical.steps"] += steps
        return self._finish(p, CLASSICAL, s, kind, value,
                            {"steps": steps, "eval_s": secs}, "classical.depth")

    def combinator(self, e, scheme, p):
        s = Store(p.initial)
        pe = self.timed("purify.purify_s", purify, e, PurifyCtx(s))
        split = {}

        def transform():
            t0 = perf_counter()
            m = elim(pe, ALGOS[scheme], pre_eval=p.pre_eval)
            t1 = perf_counter()
            check_no_var(m)
            split["elim_s"], split["check_s"] = t1 - t0, perf_counter() - t1
            return m

        m = self.deep(transform)
        apps = count_apps(m)
        kind, value, steps, secs = self.evaluate(lambda: meval(m), p.budgets[scheme])
        self.clock.add(self.seconds, f"elim.elim_s.{scheme}", split["elim_s"])
        self.clock.add(self.seconds, f"elim.check_s.{scheme}", split["check_s"])
        self.clock.add(self.seconds, f"eval.eval_s.{scheme}", secs)
        self.counts[f"elim.apps.{scheme}"] += apps
        self.counts[f"eval.steps.{scheme}"] += steps
        return self._finish(p, scheme, s, kind, value,
                            dict(split, apps=apps, steps=steps, eval_s=secs),
                            f"eval.depth.{scheme}")

    def _finish(self, p, scheme, store, kind, value, row, depth_key):
        if self._probe:
            self.counts[depth_key] = max(self.counts[depth_key], self._depth)
            row["depth"] = self._depth
        gets = sum(1 for ev in store.trace if ev.kind == "get")
        self.counts["store.gets"] += gets
        self.counts["store.sets"] += len(store.trace) - gets
        if kind in EXCLUDED:
            self.counts[f"runtime.ended_{kind}"] += 1
        self.rows.append(dict(program=p.name, scheme=scheme, kind=kind, gets=gets,
                              sets=len(store.trace) - gets, **row))
        return value, outcome_from_store(kind, value, store)


def traced_round(programs, depth: bool = False):
    """One round through the layers: (outcomes, compare's verdicts, tracer, wall).

    With depth, a depth round (see the module's doc).
    """
    outcomes, reported = {}, {}
    gc.collect()
    tr = Tracer(Clock(), depth)
    for p in programs:
        if p.source is None:
            e = tr.timed("frontend.parse_s", check_closed, p.expr)
        else:
            e = tr.timed("frontend.parse_s",
                         lambda: check_closed(parse(SourceProgram(p.source, p.name))))
        base_value, base = tr.classical(e, p)
        outcomes[(p.name, CLASSICAL)] = base
        tr.clock.mark()
        for scheme in SCHEMES[1:]:
            if p.gated and base.kind in EXCLUDED:
                reported[(p.name, scheme)] = "excluded"
                tr.counts["compare.excluded"] += 1
                continue
            value, got = tr.combinator(e, scheme, p)
            outcomes[(p.name, scheme)] = got
            if p.gated:
                r = compare.compare_observations(
                    compare.Observation(base.kind, base_value, base.trace, base.bindings),
                    compare.Observation(got.kind, value, got.trace, got.bindings))
                label = reported[(p.name, scheme)] = _verdict(r)
                if label != "disagree":
                    tr.counts[f"compare.{'excluded' if r.excluded else 'agreed'}"] += 1
            tr.clock.mark()
    tr.clock.mark(force=True)
    return outcomes, reported, tr, tr.clock.wall
