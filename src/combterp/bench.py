"""Benchmark corpus and harness.

Recursion in the corpus is written two ways: the omega variants encode
recursive calls by self-application of λx.(x x); the imp variants store
the recursive function in a reference and call it through `!name`.
Every program carries an independent oracle (plain Python, no pipeline
code) and correctness is asserted before any timing is reported.
"""
from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .compare import observe_classical, observe_combinator
from .elim import ElimAlgo, elim
from .frontend import SourceProgram, check_closed, parse
from .purify import PurifyCtx, purify
from .runtime import call_deep
from .store import Store
from .syntax import VInt, VList, Value, count_apps, value_ground_eq

DEFAULT_BUDGET = 200_000_000

CLASSICAL = "classical"
ALL_ALGOS = (CLASSICAL, ElimAlgo.FAB, ElimAlgo.C1, ElimAlgo.C2)


class BenchFailure(Exception):
    pass


@dataclass(frozen=True)
class BenchProgram:
    name: str
    source: SourceProgram
    params: dict
    oracle: Callable[[], Value]


@dataclass(frozen=True)
class BenchRow:
    program: str
    algo: str
    result: Value
    correct: bool
    app_count: Optional[int]  # term size; classical has no transformed term
    steps: Optional[int]  # native applications spent during evaluation
    transform_s: float
    eval_s: float
    trace: tuple


@dataclass(frozen=True)
class BenchReport:
    rows: tuple


# ---------------------------------------------------------------- oracles

def _fib(n: int) -> int:
    a, b = 1, 1  # f(n) = 1 for n <= 1, else f(n-2) + f(n-1)
    for _ in range(n - 1):
        a, b = b, a + b
    return b if n > 0 else 1


def _ack(m: int, n: int) -> int:
    stack = [m]
    while stack:
        m = stack.pop()
        if m == 0:
            n += 1
        elif n == 0:
            stack.append(m - 1)
            n = 1
        else:
            stack.append(m - 1)
            stack.append(m)
            n -= 1
    return n


def _queens(n: int) -> int:
    count = 0

    def place(cols: list, row: int) -> None:
        nonlocal count
        if row == n:
            count += 1
            return
        for c in range(n):
            if all(c != pc and abs(c - pc) != row - pr
                   for pr, pc in enumerate(cols)):
                place(cols + [c], row + 1)

    place([], 0)
    return count


def _sort_input(k: int) -> list[int]:
    rng = random.Random(k)
    return [rng.randrange(1000) for _ in range(k)]


# ---------------------------------------------------------------- sources

_FIB_OMEGA = """
(((\\f.(f f))
  (\\f. \\n. if (n <= 1) then 1
            else (((f f) (n - 2)) + ((f f) (n - 1))) fi))
 {n})
"""

_FIB_IMP = """
((\\d. ((!fib) {n}))
 (fib := (\\n. if (n <= 1) then 1
              else (((!fib) (n - 2)) + ((!fib) (n - 1))) fi)))
"""

_ACK_OMEGA = """
((((\\f.(f f))
   (\\f. \\m. \\n.
     if (m = 0) then (n + 1)
     else if (n = 0) then (((f f) (m - 1)) 1)
     else (((f f) (m - 1)) (((f f) m) (n - 1))) fi fi))
  {m}) {n})
"""

_ACK_IMP = """
((\\d. (((!ack) {m}) {n}))
 (ack := (\\m. \\n.
   if (m = 0) then (n + 1)
   else if (n = 0) then (((!ack) (m - 1)) 1)
   else (((!ack) (m - 1)) (((!ack) m) (n - 1))) fi fi)))
"""

_SORT_OMEGA = """
((\\insert.
   (((\\f.(f f))
     (\\f. \\l. if (isnil l) then nil
               else ((insert (head l)) ((f f) (tail l))) fi))
    {input}))
 ((\\f.(f f))
  (\\f. \\x. \\l.
    if (isnil l) then (x :: nil)
    else if (x <= (head l)) then (x :: l)
    else ((head l) :: (((f f) x) (tail l))) fi fi)))
"""

_SORT_IMP = """
((\\d1.
   ((\\d2. ((!sort) {input}))
    (sort := (\\l. if (isnil l) then nil
                  else (((!insert) (head l)) ((!sort) (tail l))) fi))))
 (insert := (\\x. \\l.
   if (isnil l) then (x :: nil)
   else if (x <= (head l)) then (x :: l)
   else ((head l) :: (((!insert) x) (tail l))) fi fi)))
"""

_QUEENS_IMP = """
((\\d1.
  ((\\d2. (((!solve) nil) 0))
   (solve := (\\placed. \\n.
     if (n = {size}) then 1
     else (((\\g.(g g))
            (\\g. \\c.
              if (c = {size1}) then 0
              else ((if ((((!safe) placed) c) 1)
                     then (((!solve) (c :: placed)) (n + 1))
                     else 0 fi)
                    + ((g g) (c + 1))) fi)) 1) fi))))
 (safe := (\\l. \\c. \\d.
   if (isnil l) then true
   else if ((head l) = c) then false
   else if ((head l) = (c + d)) then false
   else if (((head l) + d) = c) then false
   else ((((!safe) (tail l)) c) (d + 1)) fi fi fi fi)))
"""


def _list_literal(items: list[int]) -> str:
    return "[" + ", ".join(str(x) for x in items) + "]"


def corpus(full: bool = False) -> list[BenchProgram]:
    if full:
        return scaled_corpus(fib_n=28, ack=(3, 6), sort_k=2000, queens=8)
    return scaled_corpus(fib_n=10, ack=(3, 5), sort_k=500, queens=8)


def scaled_corpus(fib_n: int, ack: tuple, sort_k: int,
                  queens: int) -> list[BenchProgram]:
    """The seven bench programs at the given sizes, in `corpus` order."""
    ack_m, ack_n = ack
    sort_in = _sort_input(sort_k)

    def prog(name, template, params, oracle):
        return BenchProgram(name, SourceProgram(template.format(**params), name),
                            params, oracle)

    return [
        prog("fib-omega", _FIB_OMEGA, {"n": fib_n},
             lambda: VInt(_fib(fib_n))),
        prog("fib-imp", _FIB_IMP, {"n": fib_n},
             lambda: VInt(_fib(fib_n))),
        prog("ack-omega", _ACK_OMEGA, {"m": ack_m, "n": ack_n},
             lambda: VInt(_ack(ack_m, ack_n))),
        prog("ack-imp", _ACK_IMP, {"m": ack_m, "n": ack_n},
             lambda: VInt(_ack(ack_m, ack_n))),
        prog("sort-omega", _SORT_OMEGA, {"input": _list_literal(sort_in)},
             lambda: VList(tuple(VInt(x) for x in sorted(sort_in)))),
        prog("sort-imp", _SORT_IMP, {"input": _list_literal(sort_in)},
             lambda: VList(tuple(VInt(x) for x in sorted(sort_in)))),
        prog("queens-imp", _QUEENS_IMP, {"size": queens, "size1": queens + 1},
             lambda: VInt(_queens(queens))),
    ]


# ---------------------------------------------------------------- harness

def _run_once(e, algo, budget: int):
    """One measurement: (Observation, app_count, transform_s)."""
    if algo == CLASSICAL:
        return observe_classical(e, budget=budget), None, 0.0
    t0 = time.perf_counter()
    # pre-evaluation is forced on for every rule set: plain-fab terms are
    # too slow for the desk-scale corpus; the census below still reports
    # the unfolded term size
    obs = observe_combinator(e, algo, budget=budget, pre_eval=True)
    transform_s = time.perf_counter() - t0 - obs.eval_s
    app_count = call_deep(
        lambda: count_apps(elim(purify(e, PurifyCtx(Store())), algo,
                                pre_eval=False)))
    return obs, app_count, transform_s


def run_bench(programs=None, algos=ALL_ALGOS, repetitions: int = 1,
              budget: int = DEFAULT_BUDGET) -> BenchReport:
    if programs is None:
        programs = corpus()
    rows = []
    for p in programs:
        # on the deep stack: the closedness check recurses on the term
        e = call_deep(lambda: check_closed(parse(p.source)))
        want = p.oracle()
        traces = {}
        for algo in algos:
            ts, es = [], []
            for _ in range(repetitions):
                obs, app_count, t_s = _run_once(e, algo, budget)
                ts.append(t_s)
                es.append(obs.eval_s)
            name = f"{p.name} under {_algo_name(algo)}"
            if obs.kind != "value":
                raise BenchFailure(f"{name}: {obs.kind}: {obs.error}")
            if not value_ground_eq(obs.value, want):
                raise BenchFailure(f"{name}: wrong result")
            traces[algo] = obs.trace
            rows.append(BenchRow(p.name, _algo_name(algo), obs.value, True,
                                 app_count, obs.steps, statistics.median(ts),
                                 statistics.median(es), obs.trace))
        if len(set(traces.values())) > 1:
            raise BenchFailure(f"{p.name}: store traces differ across schemes")
    return BenchReport(tuple(rows))


def _algo_name(algo) -> str:
    return algo if isinstance(algo, str) else algo.value


def machine_lines(report: BenchReport) -> list[str]:
    return [
        f"BENCH program={r.program} algo={r.algo} correct={int(r.correct)} "
        f"app_count={'-' if r.app_count is None else r.app_count} "
        f"steps={r.steps} transform_s={r.transform_s:.6f} eval_s={r.eval_s:.6f}"
        for r in report.rows
    ]


def format_report(report: BenchReport) -> str:
    header = f"{'program':<12} {'algo':<10} {'ok':<3} {'apps':>7} {'steps':>10} {'transform':>10} {'eval':>10}"
    lines = [header, "-" * len(header)]
    for r in report.rows:
        apps = "-" if r.app_count is None else str(r.app_count)
        lines.append(
            f"{r.program:<12} {r.algo:<10} {'y' if r.correct else 'N':<3} "
            f"{apps:>7} {r.steps:>10} {r.transform_s:>10.4f} {r.eval_s:>10.4f}")
    return "\n".join(lines)
