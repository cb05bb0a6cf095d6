"""The benchmark's inputs: program texts, plain-Python oracles and seeded draws.

Nothing here comes from `combterp.bench`: the corpus texts, their oracles
and the call counts the store reads are checked against live in this
file, so a change to the program cannot change what is measured or what
counts as right.
"""
from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Optional

from combterp import compare, quickgen
from combterp.syntax import EAbs, EApp, EIf, ESet, Expr, VInt, VList

CLASSICAL = "classical"
SCHEMES = (CLASSICAL, "fab", "c1", "c2")


@dataclass(frozen=True)
class Program:
    """One input program and how each scheme runs it."""
    name: str
    source: Optional[str]   # parsed in the measured phase when given
    expr: Optional[Expr]    # otherwise an already-built syntax tree
    budgets: dict           # scheme -> step budget
    initial: Optional[dict] = None
    pre_eval: Optional[bool] = None
    gated: bool = False     # combinator schemes run only if classical ends (compare_expr's rule)
    want: object = None     # corpus: expected value
    reads: Optional[dict] = None  # corpus: expected store reads per tag
    sets: Optional[dict] = None   # corpus: expected store writes per tag


# ---------------------------------------------------------------- corpus

CORPUS_BUDGET = 200_000_000  # `combterp bench`'s budget: no corpus run comes near it

# Scaled so that a round takes a few seconds while the recursion stays
# deep: Ackermann (1, 300) nests 301 calls (desk scale (3, 5) nests 252)
# and sorting 150 integers nests 150, which under every scheme takes more
# Python frames than the interpreter's default recursion limit of 1,000
# (README, "Recursion depth").
FIB_N = 15
ACK_M, ACK_N = 1, 300
SORT_K = 150
QUEENS = 5

FIB_OMEGA = """
(((\\f.(f f))
  (\\f. \\n. if (n <= 1) then 1
            else (((f f) (n - 2)) + ((f f) (n - 1))) fi))
 {n})
"""

FIB_IMP = """
((\\d. ((!fib) {n}))
 (fib := (\\n. if (n <= 1) then 1
              else (((!fib) (n - 2)) + ((!fib) (n - 1))) fi)))
"""

ACK_OMEGA = """
((((\\f.(f f))
   (\\f. \\m. \\n.
     if (m = 0) then (n + 1)
     else if (n = 0) then (((f f) (m - 1)) 1)
     else (((f f) (m - 1)) (((f f) m) (n - 1))) fi fi))
  {m}) {n})
"""

ACK_IMP = """
((\\d. (((!ack) {m}) {n}))
 (ack := (\\m. \\n.
   if (m = 0) then (n + 1)
   else if (n = 0) then (((!ack) (m - 1)) 1)
   else (((!ack) (m - 1)) (((!ack) m) (n - 1))) fi fi)))
"""

SORT_OMEGA = """
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

SORT_IMP = """
((\\d1.
   ((\\d2. ((!sort) {input}))
    (sort := (\\l. if (isnil l) then nil
                  else (((!insert) (head l)) ((!sort) (tail l))) fi))))
 (insert := (\\x. \\l.
   if (isnil l) then (x :: nil)
   else if (x <= (head l)) then (x :: l)
   else ((head l) :: (((!insert) x) (tail l))) fi fi)))
"""

QUEENS_IMP = """
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


def fib(n: int) -> int:
    a, b = 1, 1  # fib(n) = 1 for n <= 1, else fib(n-2) + fib(n-1)
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def fib_calls(n: int) -> int:
    """Calls of the recursive fib on input n, the top call included."""
    calls = [1, 1]
    for k in range(2, n + 1):
        calls.append(1 + calls[k - 2] + calls[k - 1])
    return calls[n]


def ack(m: int, n: int) -> tuple[int, int]:
    """Ackermann's function and the number of calls that compute it."""
    stack, calls = [m], 0
    while stack:
        m = stack.pop()
        calls += 1
        if m == 0:
            n += 1
        elif n == 0:
            stack.append(m - 1)
            n = 1
        else:
            stack.append(m - 1)
            stack.append(m)
            n -= 1
    return n, calls


def insertion_sort_calls(items: list[int]) -> tuple[int, int]:
    """Calls of `sort` and of `insert` when the corpus sorts `items`.

    `sort l` inserts `head l` into the sorted tail; `insert x l` recurses
    past every element smaller than x, and its last call stops at nil or
    at the first element not smaller than x.
    """
    done: list[int] = []
    insert_calls = 0
    for x in reversed(items):
        insert_calls += 1 + sum(1 for y in done if y < x)
        bisect.insort(done, x)
    return len(items) + 1, insert_calls


def queens(size: int) -> tuple[int, int, int]:
    """Solutions, `solve` calls and `safe` calls of the corpus's queens program."""
    solve_calls = safe_calls = 0

    def safe(placed: list[int], c: int) -> bool:
        nonlocal safe_calls
        for d, q in enumerate(placed, start=1):  # placed[0] is the last row
            safe_calls += 1
            if q == c or q == c + d or q + d == c:
                return False
        safe_calls += 1  # the call that reaches nil
        return True

    def solve(placed: list[int], n: int) -> int:
        nonlocal solve_calls
        solve_calls += 1
        if n == size:
            return 1
        return sum(solve([c] + placed, n + 1)
                   for c in range(1, size + 1) if safe(placed, c))

    return solve([], 0), solve_calls, safe_calls


def sort_input(seed: int, k: int = SORT_K) -> list[int]:
    """k integers in [0, 1000) that cost what an average list costs to sort.

    The `insert` calls of a random list move by about 10 % from seed to
    seed, and the sorts are most of a corpus round; lists are drawn until
    one is within 1 % of the mean, k + k(k - 1)/4, so that seeds cost alike.
    """
    rng = random.Random(seed)
    mean = k + k * (k - 1) / 4
    while True:
        items = [rng.randrange(1000) for _ in range(k)]
        if abs(insertion_sort_calls(items)[1] - mean) <= mean / 100:
            return items


def _list_literal(items: list[int]) -> str:
    return "[" + ", ".join(str(x) for x in items) + "]"


def corpus(seed: int) -> list[Program]:
    """The seven recursion programs; the seed draws the list to sort."""
    budgets = dict.fromkeys(SCHEMES, CORPUS_BUDGET)
    items = sort_input(seed)
    fib_v = VInt(fib(FIB_N))
    ack_v, ack_c = ack(ACK_M, ACK_N)
    sort_v = VList(tuple(VInt(x) for x in sorted(items)))
    sort_c, insert_c = insertion_sort_calls(items)
    q_v, solve_c, safe_c = queens(QUEENS)

    def prog(name, template, want, reads=None, **params):
        sets = None if reads is None else dict.fromkeys(reads, 1)
        return Program(name, template.format(**params), None, budgets,
                       pre_eval=True, want=want, reads=reads, sets=sets)

    return [
        prog("fib-omega", FIB_OMEGA, fib_v, n=FIB_N),
        prog("fib-imp", FIB_IMP, fib_v, {"fib": fib_calls(FIB_N)}, n=FIB_N),
        prog("ack-omega", ACK_OMEGA, VInt(ack_v), m=ACK_M, n=ACK_N),
        prog("ack-imp", ACK_IMP, VInt(ack_v), {"ack": ack_c}, m=ACK_M, n=ACK_N),
        prog("sort-omega", SORT_OMEGA, sort_v, input=_list_literal(items)),
        prog("sort-imp", SORT_IMP, sort_v, {"sort": sort_c, "insert": insert_c},
             input=_list_literal(items)),
        prog("queens-imp", QUEENS_IMP, VInt(q_v), {"solve": solve_c, "safe": safe_c},
             size=QUEENS, size1=QUEENS + 1),
    ]


# ---------------------------------------------------------------- runaway

# Classical gets a tenth of the combinator schemes' budget: its stack
# grows 3-7 times faster per step (at a budget of 1 M it alone reached
# 300-460 MB, and omega ended on the recursion limit at 749,996 steps),
# which would hide the combinator schemes' memory from peak_rss_mb.  At
# these budgets every run ends on its budget.
RUNAWAY_BUDGET = 500_000
CLASSICAL_RUNAWAY_BUDGET = 50_000

OMEGA = "((\\w.(w w)) (\\w.(w w)))"

COUNT_OMEGA = """
(((\\f.(f f)) (\\f. \\n. (n + ((f f) (n + 1))))) {start})
"""

COUNT_IMP = """
((\\d. ((!count) {start}))
 (count := (\\n. (n + ((!count) (n + 1))))))
"""


def runaway(seed: int) -> list[Program]:
    """Programs that never finish; the seed draws where the count-ups start."""
    start = random.Random(seed).randrange(1000)
    budgets = dict.fromkeys(SCHEMES, RUNAWAY_BUDGET)
    budgets[CLASSICAL] = CLASSICAL_RUNAWAY_BUDGET
    return [
        Program("omega", OMEGA, None, budgets),
        Program("count-omega", COUNT_OMEGA.format(start=start), None, budgets),
        Program("count-imp", COUNT_IMP.format(start=start), None, budgets),
    ]


# ---------------------------------------------------------------- differential

DIFF_BUDGET = compare.DEFAULT_BUDGET
CLASSICAL_DIFF_BUDGET = min(DIFF_BUDGET, 10_000)  # compare_expr's classical cut-off

# A round holds a fixed number of programs from each stratum, so that
# rounds drawn from different seeds cost about the same.  Stratum "E"
# holds the programs whose classical run exhausts its budget (each costs
# a whole budget); the others bin the rest by `fab_weight`, which tracks
# the size of fab's exponential terms, at bounds that double from 30.
# REFERENCE_COUNTS are the strata's sizes among the programs of generator
# seeds 0..9999 (`python3 perfbench/strata.py` recounts them); a round
# holds them scaled to about 300 programs.
WEIGHT_BOUNDS = tuple(30 * 2 ** k for k in range(13)) + (160_000,)
REFERENCE_COUNTS = {
    "E": 135, "w0": 2497, "w1": 95, "w2": 287, "w3": 470, "w4": 717,
    "w5": 1013, "w6": 1156, "w7": 1069, "w8": 1165, "w9": 706, "w10": 350,
    "w11": 251, "w12": 53, "w13": 21, "w14": 15,
}
# w13 (weight 122,880 to 160,000) holds fab's largest terms that a round
# keeps: one program, whose fab run alone takes 0.2-0.7 s and 8-37 MB.
# w14 (weight 160,000 and up, 15 programs in 10,000) is left out: its
# programs reach 47 MB and 0.9 s, and more beyond weight 250,000, so one
# of them would decide a round's peak memory and rounds from different
# seeds would not match.
DIFF_QUOTAS = {s: 0 if s == "w14" else round(n * 300 / 10_000)
               for s, n in REFERENCE_COUNTS.items()}


def fab_weight(e: Expr) -> int:
    """Sum over the syntax tree of 3 ** (abstractions and branches around a node).

    Bracket abstraction copies a body once per enclosing binder, and
    purify puts each `if` branch under a binder of its own.
    """
    total, todo = 0, [(e, 0)]
    while todo:
        x, depth = todo.pop()
        total += 3 ** depth
        t = type(x)
        if t is EAbs:
            todo.append((x.body, depth + 1))
        elif t is EApp:
            todo.append((x.fn, depth))
            todo.append((x.arg, depth))
        elif t is EIf:
            todo.append((x.cond, depth))
            todo.append((x.then, depth + 1))
            todo.append((x.other, depth + 1))
        elif t is ESet:
            todo.append((x.expr, depth))
    return total


def stratum(e: Expr, classical_excluded: bool) -> str:
    if classical_excluded:
        return "E"
    return f"w{bisect.bisect(WEIGHT_BOUNDS, fab_weight(e))}"


def differential(seed: int) -> list[Program]:
    """Draw generator seeds from seed * 100_000 on until every quota is full."""
    need = dict(DIFF_QUOTAS)
    budgets = dict.fromkeys(SCHEMES, DIFF_BUDGET)
    budgets[CLASSICAL] = CLASSICAL_DIFF_BUDGET
    out = []
    gen_seed = seed * 100_000
    while any(need.values()):
        cfg = quickgen.GenConfig(gen_seed, allow_effects=True)
        gen_seed += 1
        e = quickgen.gen_expr(cfg)
        w = stratum(e, False)
        if not need.get(w) and not need["E"]:
            continue
        initial = quickgen.default_initial(cfg)
        excluded = compare.observe_classical(e, initial, CLASSICAL_DIFF_BUDGET).excluded
        s = "E" if excluded else w
        if need.get(s):
            need[s] -= 1
            out.append(Program(f"gen-{cfg.seed}", None, e, budgets, initial,
                               gated=True))
    return out
