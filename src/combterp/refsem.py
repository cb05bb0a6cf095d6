"""Executable small-step reference semantics with threaded stores.

Terms are a pure lambda calculus over function constants; imperative
behavior lives entirely in the delta table, which maps each function
constant to a partial state transformer.  Includes an empirical checker
for the correctness theorem of variable elimination: a term and its
eliminated form behave alike.  The eliminated form comes from
`elim.elim_rterm`, the bracket abstraction that programs run through.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .syntax import RESERVED_PREFIX, Node

# ---------------------------------------------------------------- terms


class RVar(Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class RAbs(Node):
    __slots__ = ("param", "body")

    def __init__(self, param: str, body: "RTerm"):
        self.param = param
        self.body = body


class RApp(Node):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: "RTerm", arg: "RTerm"):
        self.fn = fn
        self.arg = arg


class RFunConst(Node):
    __slots__ = ("sym",)

    def __init__(self, sym: str):
        self.sym = sym


RTerm = Union[RVar, RAbs, RApp, RFunConst]


def is_value(m: RTerm) -> bool:
    return not isinstance(m, RApp)


_EMPTY = frozenset()

# id-keyed memo with strong refs (terms are immutable; the held reference
# keeps the id valid).  Loop bodies substitute the same value objects on
# every iteration, so this turns free-vars from the dominant cost into a
# lookup.  Cleared when large to bound memory.
_fv_cache: dict[int, tuple] = {}


def rterm_free_vars(m: RTerm) -> frozenset:
    hit = _fv_cache.get(id(m))
    if hit is not None and hit[0] is m:
        return hit[1]
    t = type(m)
    if t is RVar:
        fv = frozenset((m.name,))
    elif t is RAbs:
        fv = rterm_free_vars(m.body) - {m.param}
    elif t is RApp:
        fv = rterm_free_vars(m.fn) | rterm_free_vars(m.arg)
    else:
        fv = _EMPTY
    if len(_fv_cache) > 200_000:
        _fv_cache.clear()
    _fv_cache[id(m)] = (m, fv)
    return fv


def format_rterm(m: RTerm) -> str:
    match m:
        case RVar(name):
            return name
        case RAbs(param, body):
            return f"(\\{param}. {format_rterm(body)})"
        case RApp(f, a):
            return f"({format_rterm(f)} {format_rterm(a)})"
        case RFunConst(sym):
            return sym
    raise TypeError(f"not an RTerm: {m!r}")


_fresh_counter = itertools.count()


def fresh_name(base: str = "v") -> str:
    return f"{RESERVED_PREFIX}{base}{next(_fresh_counter)}"


def subst(x: str, v: RTerm, m: RTerm) -> RTerm:
    """Capture-avoiding [v/x]m; binders are renamed when they would capture."""
    assert type(v) is not RApp, "only values are substituted"
    fv_v = None  # computed lazily: only binder nodes need it

    def go(m: RTerm) -> RTerm:
        nonlocal fv_v
        t = type(m)
        if t is RVar:
            return v if m.name == x else m
        if t is RApp:
            return RApp(go(m.fn), go(m.arg))
        if t is RFunConst:
            return m
        if t is RAbs:
            param, body = m.param, m.body
            if param == x:
                return m
            if fv_v is None:
                fv_v = rterm_free_vars(v)
            if param in fv_v and x in rterm_free_vars(body):
                renamed = fresh_name(param.lstrip(RESERVED_PREFIX) or "v")
                body = subst(param, RVar(renamed), body)
                param = renamed
            return RAbs(param, go(body))
        raise TypeError(f"not an RTerm: {m!r}")

    return go(m)


# ---------------------------------------------------------------- stores


@dataclass(frozen=True)
class RStore:
    bindings: tuple = ()  # sorted (tag, value-term) pairs
    trace: tuple = ()

    def get_binding(self, tag: str) -> Optional[RTerm]:
        for t, v in self.bindings:
            if t == tag:
                return v
        return None

    def with_binding(self, tag: str, v: RTerm) -> "RStore":
        items = dict(self.bindings)
        items[tag] = v
        return RStore(tuple(sorted(items.items())),
                      self.trace + (("set", tag, v),))

    def with_get_event(self, tag: str, v: RTerm) -> "RStore":
        return RStore(self.bindings, self.trace + (("get", tag, v),))


def rstore(initial=None) -> RStore:
    return RStore(tuple(sorted((initial or {}).items())))


class DeltaTable:
    """Semantics of the function constants: sym -> (value, store) -> (value, store).

    A rule may decline (return None), in which case the application is stuck.
    """

    def __init__(self):
        self._rules: dict[str, Callable] = {}
        self._prefix_rules: list[tuple[str, Callable]] = []

    def register(self, sym: str, rule: Callable) -> None:
        self._rules[sym] = rule

    def register_prefix(self, prefix: str, rule: Callable) -> None:
        self._prefix_rules.append((prefix, rule))

    def reduce(self, sym: str, v: RTerm, s: RStore):
        if sym in self._rules:
            return self._rules[sym](sym, v, s)
        for prefix, rule in self._prefix_rules:
            if sym.startswith(prefix):
                return rule(sym, v, s)
        return None


def int_const(n: int) -> RFunConst:
    return RFunConst(f"int:{n}")


def bool_const(b: bool) -> RFunConst:
    return RFunConst(f"bool:{'true' if b else 'false'}")


def const_int(m: RTerm) -> Optional[int]:
    if isinstance(m, RFunConst) and m.sym.startswith("int:"):
        return int(m.sym[4:])
    return None


def const_bool(m: RTerm) -> Optional[bool]:
    if isinstance(m, RFunConst) and m.sym.startswith("bool:"):
        return m.sym == "bool:true"
    return None


def standard_delta() -> DeltaTable:
    """Arithmetic, comparisons, per-tag get/set, and the conditional selector."""
    d = DeltaTable()

    # ground observables are stuck when applied
    d.register_prefix("int:", lambda sym, v, s: None)
    d.register_prefix("bool:", lambda sym, v, s: None)
    d.register("dummy", lambda sym, v, s: None)

    def arith(op):
        def first(sym, v, s):
            n = const_int(v)
            if n is None:
                return None
            return RFunConst(f"{sym}:{n}"), s

        def second(sym, v, s):
            m = const_int(v)
            if m is None:
                return None
            name, n = sym.split(":", 1)
            return op(int(n), m), s

        return first, second

    for name, op in (("plus", lambda a, b: int_const(a + b)),
                     ("minus", lambda a, b: int_const(a - b)),
                     ("times", lambda a, b: int_const(a * b)),
                     ("leq", lambda a, b: bool_const(a <= b)),
                     ("eq", lambda a, b: bool_const(a == b))):
        first, second = arith(op)
        d.register(name, first)
        d.register_prefix(f"{name}:", second)

    def do_get(sym, v, s):
        tag = sym.split(":", 1)[1]
        bound = s.get_binding(tag)
        if bound is None:
            return None
        return bound, s.with_get_event(tag, bound)

    def do_set(sym, v, s):
        tag = sym.split(":", 1)[1]
        return v, s.with_binding(tag, v)

    d.register_prefix("get:", do_get)
    d.register_prefix("set:", do_set)

    # two-armed selector used by the conditional combinators' definitions:
    # ((if cond) t) e reduces to t when cond is true and to e otherwise
    def do_if(sym, v, s):
        b = const_bool(v)
        if b is None:
            return None
        return RFunConst(f"sel:{'t' if b else 'f'}"), s

    def do_sel(sym, v, s):
        if sym == "sel:t":
            return RAbs(fresh_name("z"), v), s
        return RAbs("%z", RVar("%z")), s

    d.register("if", do_if)
    d.register_prefix("sel:", do_sel)
    return d


# ---------------------------------------------------------------- reduction


def step(m: RTerm, s: RStore, delta: DeltaTable):
    """One deterministic leftmost call-by-value step, or None when value/stuck."""
    if is_value(m):
        return None
    fn, arg = m.fn, m.arg
    if not is_value(fn):
        inner = step(fn, s, delta)
        if inner is None:
            return None
        fn2, s2 = inner
        return RApp(fn2, arg), s2
    if not is_value(arg):
        inner = step(arg, s, delta)
        if inner is None:
            return None
        arg2, s2 = inner
        return RApp(fn, arg2), s2
    if isinstance(fn, RAbs):
        return subst(fn.param, arg, fn.body), s
    if isinstance(fn, RFunConst):
        out = delta.reduce(fn.sym, arg, s)
        if out is None:
            return None
        return out
    return None  # variable in operator position


@dataclass(frozen=True)
class Outcome:
    kind: str  # "value", "stuck", "timeout"
    term: Optional[RTerm] = None
    store: Optional[RStore] = None


def run(m: RTerm, s: RStore, delta: DeltaTable, budget: int) -> Outcome:
    """Reduce to a value within `budget` beta/delta steps.

    Equivalent to iterating `step` (same reductions in the same order,
    one budget unit each) but driven by an explicit stack of evaluation
    contexts, so locating the next redex is O(1) instead of a walk from
    the root.  Frames are (False, pending_arg) while the operator is
    being reduced and (True, operator_value) while the operand is.
    """
    stack: list = []

    def plug(t: RTerm) -> RTerm:
        for is_fn, other in reversed(stack):
            t = RApp(other, t) if is_fn else RApp(t, other)
        return t

    left = budget
    cur = m
    while True:
        if type(cur) is RApp:
            stack.append((False, cur.arg))
            cur = cur.fn
            continue
        if not stack:
            return Outcome("value", cur, s)
        is_fn, other = stack[-1]
        if not is_fn:
            if type(other) is RApp:
                stack[-1] = (True, cur)
                cur = other
                continue
            fn, arg = cur, other
        else:
            fn, arg = other, cur
        stack.pop()
        if left <= 0:
            return Outcome("timeout", plug(RApp(fn, arg)), s)
        if type(fn) is RAbs:
            cur = subst(fn.param, arg, fn.body)
            left -= 1
        elif type(fn) is RFunConst:
            out = delta.reduce(fn.sym, arg, s)
            if out is None:
                return Outcome("stuck", plug(RApp(fn, arg)), s)
            cur, s = out
            left -= 1
        else:  # variable in operator position
            return Outcome("stuck", plug(RApp(fn, arg)), s)


# ---------------------------------------------------------------- theorem checking


@dataclass(frozen=True)
class Verdict:
    kind: str  # "agree", "disagree", "inconclusive"
    details: str = ""


_PROBE_ARGS = (int_const(1), int_const(2), bool_const(True))


def observed_eq(a: RTerm, b: RTerm, delta: DeltaTable, budget: int, depth: int) -> bool:
    """Ground values compare exactly; functions are probed with ground arguments."""
    if isinstance(a, RFunConst) and isinstance(b, RFunConst):
        return a.sym == b.sym
    if isinstance(a, RFunConst) != isinstance(b, RFunConst):
        return False
    if depth <= 0:
        return True
    for arg in _PROBE_ARGS:
        ra = run(RApp(a, arg), RStore(), delta, budget)
        rb = run(RApp(b, arg), RStore(), delta, budget)
        if ra.kind != rb.kind:
            return False
        if ra.kind == "value" and not observed_eq(ra.term, rb.term, delta,
                                                  budget, depth - 1):
            return False
    return True


def _bindings_agree(sa: RStore, sb: RStore, delta, budget, depth) -> bool:
    da, db = dict(sa.bindings), dict(sb.bindings)
    if set(da) != set(db):
        return False
    return all(observed_eq(da[t], db[t], delta, budget, depth) for t in da)


def _verdict(ra: Outcome, rb: Outcome, delta: DeltaTable, budget: int,
             probe_depth: int) -> Verdict:
    """Compare the outcome `ra` of a term with the outcome `rb` of its
    eliminated form."""
    if ra.kind == "timeout" and rb.kind == "timeout":
        return Verdict("agree", "both timed out")
    if ra.kind == "timeout" or rb.kind == "timeout":
        return Verdict("inconclusive", f"{ra.kind} vs {rb.kind}")
    if ra.kind != rb.kind:
        return Verdict("disagree", f"{ra.kind} vs {rb.kind}")
    # probes classify small residual values; they never need the full budget,
    # and both sides of every probe get the same allowance
    probe_budget = min(budget, 10_000)
    if not _bindings_agree(ra.store, rb.store, delta, probe_budget, probe_depth):
        # a stuck run too must have run the same effects before it stuck
        return Verdict("disagree", "final store bindings differ")
    if ra.kind == "stuck":
        return Verdict("agree", "both stuck")
    if not observed_eq(ra.term, rb.term, delta, probe_budget, probe_depth):
        return Verdict(
            "disagree",
            f"results differ: {format_rterm(ra.term)} vs {format_rterm(rb.term)}")
    return Verdict("agree")


def check_eliminations(m: RTerm, eliminated: Sequence[RTerm], s: RStore,
                       delta: DeltaTable, budget: int,
                       probe_depth: int = 2) -> list[Verdict]:
    """Run `m` once and each of its `eliminated` forms from `s`; one
    verdict per form, in order."""
    assert not rterm_free_vars(m), "theorem checking needs a closed term"
    ra = run(m, s, delta, budget)
    return [_verdict(ra, run(e, s, delta, budget), delta, budget, probe_depth)
            for e in eliminated]


def check_theorem(m: RTerm, eliminated: RTerm, s: RStore, delta: DeltaTable,
                  budget: int, probe_depth: int = 2) -> Verdict:
    """Run `m` and its `eliminated` form from `s` and compare the outcomes."""
    return check_eliminations(m, (eliminated,), s, delta, budget,
                              probe_depth)[0]
