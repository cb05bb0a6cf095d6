"""Variable elimination: bracket abstraction into native-closure combinators.

A rule set is its roster of combinators; the eliminator reads its rules
from the roster and never asks which rule set it runs:

  FAB  I, K and S: the textbook rules;
  C1   adds the selective B/C/N combinators, the conditional combinator
       S_IF, and automatic pre-evaluation of partial applications;
  C2   additionally has multi-arity combinators: one abstraction over a
       double application (S_2 and its masks), and two abstractions at
       once (S^2 and its masks, S_2^2, K^2, I^2 and S_IF^2).

Within an abstraction the rules are tried most-specific-first:
conditional patterns, then spines of two applications, then of one,
then the constant and identity rules.  A mask marks the branches of a
spine that receive the bound variables.  A branch is passed as a
constant only when it is a constant or a variable, never an application
(the call-by-value soundness condition).  When the roster lacks the mask
a spine needs, the spine distributes to every branch: that is S under
FAB and the only form of S_2^2.

Without pre-evaluation the output is a DAG that builds each distinct
subterm once (see `_SharingEliminator`); its tree is the term the rules
define.  Each of its nodes that is a partial application of a pure
function to constants is folded once, as it is built: the node keeps
its fields and carries its value and the applications of its tree,
which `eval` spends at once instead of applying every occurrence.

`elim_rterm` runs the same rules on a term of the reference calculus
(`refsem`), so the correctness theorem is checked on this eliminator.
"""
from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from . import runtime
from .errors import BAD_CONDITION, InterpError, UnexpectedNodeError
from .purify import FUN_IF
from .refsem import RAbs, RApp, RFunConst, RTerm, RVar
from .syntax import (MExpr, PAbs, PApp, PConst, PVar, PExpr, VFun,
                     fun_meta, with_meta)


class ElimAlgo(enum.Enum):
    FAB = "fab"
    C1 = "c1"
    C2 = "c2"


# ---------------------------------------------------------------- combinators

@dataclass(frozen=True)
class CombinatorDef:
    comb_id: str
    total_arity: int
    value: VFun
    defining_term: RTerm
    n_abs: Optional[int] = None      # mask combinators only
    mask: Optional[tuple] = None     # True = branch receives the bound variables


def _spend_src(cost: int) -> list[str]:
    """Inlined fuel spend, as `apply_value` does it but `cost` units at once."""
    if cost == 0:
        return []
    return ["r = _remaining",
            "if r is not None:",
            f"    if r < {cost}:",
            "        exhaust()",
            f"    _remaining = r - {cost}"]


def _native(comb_id: str, params: list[str], body: list[str]) -> VFun:
    """Compile a curried combinator from source text.

    Every parameter gets one nested `def` stage, and a stage returns the
    next one itself: a stage is a plain function value.  The innermost
    stage runs `body`, so a firing costs no call beyond the stages.  Only
    the outermost stage, the roster constant, carries a `meta`.

    A stage takes the arguments it has already received as default
    parameters (`def _s2(x0, a0=a0, a1=a1)`), not as closure cells: each
    stage holds its own arguments, building one makes no cell, and the
    body reads its branches as fast locals.  The defaults are positional,
    because keyword-only defaults keep CPython 3.11 from specialising the
    call of a stage.  The source is compiled with `runtime`'s namespace
    as its globals, so the body spends the fuel as a plain global there
    (`_remaining`); its failure branches call a global (`exhaust`) and
    raise a constant, so they add no inline cache to the hottest code
    there is.
    """
    lines = []
    for depth, p in enumerate(params):
        seen = "".join(f", {q}={q}" for q in params[:depth])
        lines.append("    " * depth + f"def _s{depth}({p}{seen}):")
    indent = "    " * len(params)
    lines += [indent + "global _remaining"] + [indent + line for line in body]
    for depth in reversed(range(1, len(params))):
        lines.append("    " * depth + f"return _s{depth}")
    stages = {}
    exec("\n".join(lines), vars(runtime), stages)
    return with_meta(stages["_s0"], comb_id, len(params))


def _mask_body(n_abs: int, mask: tuple) -> list[str]:
    """The full-arity behavior: distribute the bound variables per the mask.

    Branch applications are interleaved with the spine applications so the
    effect order matches plain call-by-value reduction of the spine.  This
    is the hottest code in every evaluation, so the fuel of a firing is
    spent in bulk before any application.  There is no type check: a
    non-function's `__call__` raises the error `apply_value` would, after
    the same spend.
    """
    k = len(mask)
    if k == 1:
        return ["return a0"]  # never distributed: the K shape
    xs = [f"x{j}" for j in range(n_abs)]

    def dist(src: str, dst: str) -> list[str]:
        out = []
        for x in xs:
            out.append(f"{dst} = {src}({x})")
            src = dst
        return out

    body = _spend_src((k - 1) + n_abs * sum(mask))
    body += dist("a0", "h") if mask[0] else ["h = a0"]
    for i in range(1, k):
        arg = f"a{i}"
        if mask[i]:
            body += dist(arg, "v")
            arg = "v"
        body.append(f"h = h({arg})" if i < k - 1 else f"return h({arg})")
    return body


def _mask_value(comb_id: str, n_abs: int, mask: tuple) -> VFun:
    params = ([f"a{i}" for i in range(len(mask))]
              + [f"x{j}" for j in range(n_abs)])
    return _native(comb_id, params, _mask_body(n_abs, mask))


def _dist_term(name: str, abs_vars: list[str]) -> RTerm:
    """The branch `name` applied to each bound variable in turn."""
    t: RTerm = RVar(name)
    for x in abs_vars:
        t = RApp(t, RVar(x))
    return t


def _mask_term(n_abs: int, mask: tuple) -> RTerm:
    branch_vars = [f"a{i}" for i in range(len(mask))]
    abs_vars = [f"x{j}" for j in range(n_abs)]
    body, *rest = [_dist_term(name, abs_vars if m else [])
                   for name, m in zip(branch_vars, mask)]
    for branch in rest:
        body = RApp(body, branch)
    for v in reversed(branch_vars + abs_vars):
        body = RAbs(v, body)
    return body


def _identity_value() -> VFun:
    return with_meta(lambda x: x, "I", 1)


def _sif_value(comb_id: str, n_abs: int) -> VFun:
    """S_IF: apply the condition to the bound variables, then the chosen branch.

    Each application checks and spends exactly as `apply_value` does, one
    unit at a time, so the branch is never charged before it is chosen.
    The check calls a non-function, whose `__call__` raises before the
    spend.
    """
    xs = [f"x{j}" for j in range(n_abs)]

    def apply_all(src: str, dst: str) -> list[str]:
        out = []
        for x in xs:
            out += [f"if type({src}) is not VFun:", f"    {src}({x})"]
            out += _spend_src(1) + [f"{dst} = {src}({x})"]
            src = dst
        return out

    body = apply_all("a0", "c")
    body += ["if type(c) is not VBool:",
             f"    raise EvalTypeError({BAD_CONDITION!r})",
             "h = a1 if c.b else a2"]
    body += apply_all("h", "h") + ["return h"]
    return _native(comb_id, ["a0", "a1", "a2"] + xs, body)


def _sif_term(n_abs: int) -> RTerm:
    # uses the `if`/`sel:` constants of the standard delta table; branches
    # are suspended in thunks so only the chosen one is applied
    branch_vars = ["f", "g", "h"]
    abs_vars = [f"x{j}" for j in range(n_abs)]
    thunk_t = RAbs("%t", _dist_term("g", abs_vars))
    thunk_e = RAbs("%e", _dist_term("h", abs_vars))
    body = RApp(RApp(RApp(RFunConst("if"), _dist_term("f", abs_vars)),
                     thunk_t), thunk_e)
    body = RApp(body, RFunConst("dummy"))
    for v in reversed(branch_vars + abs_vars):
        body = RAbs(v, body)
    return body


def _mask_bits(mask: tuple) -> str:
    return "".join("1" if m else "0" for m in mask)


_SINGLE_MASK_NAMES = {(True, True): "S", (False, True): "B",
                      (True, False): "C", (False, False): "N"}


def _mask_name(n_abs: int, mask: tuple) -> str:
    if n_abs == 1 and len(mask) == 2:
        return _SINGLE_MASK_NAMES[mask]
    k = len(mask)
    name = f"S_{k - 1}" if k > 2 else "S"
    if n_abs > 1:
        name += f"^{n_abs}"
    if not all(mask):
        name += f"[{_mask_bits(mask)}]"
    return name


def _mask_def(n_abs: int, mask: tuple) -> CombinatorDef:
    name = _mask_name(n_abs, mask)
    return CombinatorDef(name, len(mask) + n_abs,
                         _mask_value(name, n_abs, mask), _mask_term(n_abs, mask),
                         n_abs=n_abs, mask=mask)


def _basic_defs() -> dict[str, CombinatorDef]:
    i_def = CombinatorDef("I", 1, _identity_value(), RAbs("x", RVar("x")))
    # K is the single-branch all-constant mask combinator
    k_def = CombinatorDef("K", 2, _mask_value("K", 1, (False,)),
                          _mask_term(1, (False,)), n_abs=1, mask=(False,))
    s_def = _mask_def(1, (True, True))
    return {"I": i_def, "K": k_def, "S": s_def}


def make_combinators(algo: ElimAlgo) -> dict[str, CombinatorDef]:
    """The combinator roster of a rule set, as a fresh dict.

    Compiling the bodies costs milliseconds, so each roster is built once
    and shared; the combinators are stateless closures.
    """
    return dict(_roster(algo))


@functools.cache
def _roster(algo: ElimAlgo) -> dict[str, CombinatorDef]:
    defs = _basic_defs()
    if algo is ElimAlgo.FAB:
        return defs
    for mask in ((False, True), (True, False), (False, False)):
        d = _mask_def(1, mask)
        defs[d.comb_id] = d
    sif = CombinatorDef("S_IF", 4, _sif_value("S_IF", 1), _sif_term(1))
    defs["S_IF"] = sif
    if algo is ElimAlgo.C1:
        return defs
    # C2: multi-arity combinators and their selective-distribution families
    for mask in itertools.product((True, False), repeat=3):
        d = _mask_def(1, mask)  # one abstraction over a double application
        defs[d.comb_id] = d
    for mask in itertools.product((True, False), repeat=2):
        d = _mask_def(2, mask)  # two abstractions over an application
        defs[d.comb_id] = d
    d = _mask_def(2, (True, True, True))  # two abstractions, double application
    defs[d.comb_id] = d
    defs["K^2"] = CombinatorDef("K^2", 3, _mask_value("K^2", 2, (False,)),
                                _mask_term(2, (False,)), n_abs=2, mask=(False,))
    defs["I^2"] = CombinatorDef("I^2", 2,
                                _native("I^2", ["x", "y"], ["return x"]),
                                RAbs("x", RAbs("y", RVar("x"))))
    defs["S_IF^2"] = CombinatorDef("S_IF^2", 5, _sif_value("S_IF^2", 2),
                                   _sif_term(2))
    return defs


# ---------------------------------------------------------------- pre-evaluation

def _apply_early(meta, seen: int, fv, av):
    """`fv av` worked out at transform time, or None where it may not be.

    `fv` is the function constant marked `meta` once it has taken `seen`
    more arguments.  The application may be folded when the function is
    pure and still awaits another argument after `av`: then it fires
    nothing, runs no effect and spends no fuel.
    """
    if (meta is None or not meta.pure
            or meta.args_seen + seen + 1 >= meta.total_arity):
        return None
    try:
        return fv(av)
    except InterpError:
        # a wrapper rejected the argument; surface it at run time in its
        # proper place in the effect order instead
        return None


def _fold(f: PExpr, a: PExpr) -> PExpr:
    """The application `f a`, folded if it is a safe partial combinator application."""
    if type(f) is PConst and type(a) is PConst and type(f.value) is VFun:
        meta = fun_meta(f.value)
        folded = _apply_early(meta, 0, f.value, a.value)
        if folded is not None:
            # a stage returns a fresh function; its mark is the head's
            # successor, one object shared by every fold of the head
            folded.meta = meta.successor
            return PConst(folded)
    return PApp(f, a)


# ---------------------------------------------------------------- the algorithm

def _is_constant(e: PExpr, bound: tuple) -> bool:
    """Constant in the rule sense: a constant, extern, or variable not in `bound`."""
    t = type(e)
    return t is PConst or (t is PVar and e.name not in bound)


def _occurs_free(x: str, e: PExpr) -> bool:
    """Whether `x` is free in `e`, stopping at the first occurrence found.

    A binder of `x` hides the body beneath it.  No set is built, so a
    thunk body can be checked at every binder around its conditional.
    """
    while True:
        t = type(e)
        if t is PApp:
            if _occurs_free(x, e.arg):
                return True
            e = e.fn  # down the spine without a call
        elif t is PAbs:
            if e.param == x:
                return False
            e = e.body
        else:
            return t is PVar and e.name == x


def _match_if_shape(e: PExpr):
    """((IF c) \\z.t) \\z.e with the thunk binders not free in their bodies."""
    if type(e) is not PApp or type(e.arg) is not PAbs:
        return None
    f, other = e.fn, e.arg
    if type(f) is not PApp or type(f.arg) is not PAbs or type(f.fn) is not PApp:
        return None
    head, then = f.fn.fn, f.arg
    if type(head) is not PConst or type(head.value) is not VFun:
        return None
    meta = fun_meta(head.value)
    if (meta is not None and meta.comb_id == "IF"
            and not _occurs_free(then.param, then.body)
            and not _occurs_free(other.param, other.body)):
        return f.fn.arg, then.body, other.body
    return None


# the rules of one binder count, read by index: the conditional, the
# spines of one and of two applications, the identity and the constant
_SIF, _SPINE2, _SPINE3, _I, _K = range(5)


@functools.cache
def _rules(algo: ElimAlgo) -> tuple:
    """The roster's rules, indexed by binder count; None where it has none.

    A spine is `(full, masks)`: the combinator that distributes to every
    branch, and the selective ones by mask, or None if there are none.
    A spine exists only with its `full` combinator, which takes any mask
    the roster lacks; the conditional always distributes fully.
    """
    defs = _roster(algo)
    # one shared node per combinator; terms are immutable
    node = {cid: PConst(d.value) for cid, d in defs.items()}
    masks = {}
    for d in defs.values():
        if d.mask is not None and len(d.mask) > 1:
            masks.setdefault((d.n_abs, len(d.mask)), {})[d.mask] = node[d.comb_id]

    def spine(n, k):
        by_mask = masks.get((n, k), {})
        full = by_mask.get((True,) * k)
        return full and (full, by_mask if len(by_mask) > 1 else None)

    table = [None]
    for n, power in ((1, ""), (2, "^2")):  # `abstract` takes one or two
        sif = node.get("S_IF" + power)
        row = (sif and (sif, None), spine(n, 2), spine(n, 3),
               node.get("I" + power), node.get("K" + power))
        if any(row):
            table.append(row)
    return tuple(table)


class _Eliminator:
    def __init__(self, rules: tuple, app=_fold):
        self.rules = rules
        self.app = app  # the constructor of every emitted application node

    def elim(self, e: PExpr) -> PExpr:
        t = type(e)
        if t is PApp:
            return self.app(self.elim(e.fn), self.elim(e.arg))
        if t is PAbs:
            return self.abstract((e.param,), e.body)
        if t is PConst or t is PVar:
            return e
        raise TypeError(f"not a PExpr: {e!r}")

    def abstract(self, xs: tuple, body: PExpr) -> PExpr:
        """[xs] body for one binder or two distinct ones.

        A rule fires only if the roster has its combinator, most specific
        first: the conditional, a spine of two applications, one of one,
        then the constant and the identity.  Two binders without a rule
        are abstracted one at a time.
        """
        rules = self.rules[len(xs)]
        t = type(body)
        if t is PApp:
            e1 = body.fn
            branches = rules[_SIF] and _match_if_shape(body)
            if branches:
                # all three are distributed over; S_IF applies only the
                # chosen branch
                spine = rules[_SIF]
            elif rules[_SPINE3] and type(e1) is PApp:
                spine, branches = rules[_SPINE3], (e1.fn, e1.arg, body.arg)
            else:
                spine, branches = rules[_SPINE2], (e1, body.arg)
            if spine:
                app = self.app
                out, masks = spine
                if masks:
                    mask = tuple([not _is_constant(b, xs) for b in branches])
                    node = masks.get(mask)
                    if node is not None:
                        # a branch not distributed over is a constant or a
                        # variable, passed as it is
                        out = node
                        for b, m in zip(branches, mask):
                            out = app(out, self.abstract(xs, b) if m else b)
                        return out
                for b in branches:
                    out = app(out, self.abstract(xs, b))
                return out
        elif t is PConst or (t is PVar and body.name not in xs):
            if rules[_K] is not None:
                return self.app(rules[_K], body)
        elif t is PVar and body.name == xs[0]:
            if rules[_I] is not None:
                return rules[_I]
        elif t is PAbs and len(xs) == 1:
            # two binders at once, where the roster has rules for two
            if len(self.rules) > 2 and body.param != xs[0]:
                return self.abstract((xs[0], body.param), body.body)
            return self.abstract(xs, self.elim(body))
        if len(xs) == 1:
            raise AssertionError(f"the roster has no rule for {body!r}")
        return self.abstract(xs[:1], self.abstract(xs[1:], body))


def _hash_consing():
    """A PApp constructor that builds one node per pair of operand nodes,
    and folds each new node it may.

    The table keys a node by the ids of its operands and holds the node,
    which holds them: no id in a key can be reused while the table lives.

    A node is folded when its operator is a function constant or a folded
    node, its operand a constant or a folded node, and `_apply_early`
    may apply the one to the other.  The node then carries the value and
    its `cost`, the applications in its tree, which `eval` spends at once
    (see `PApp`).  Its fields stay as they are: the term, its tree and
    `count_apps` are those of the unfolded term.
    """
    table = {}
    get = table.get

    def app(f: PExpr, a: PExpr) -> PApp:
        key = (id(f), id(a))
        node = get(key)
        if node is None:
            node = table[key] = PApp(f, a)
            tf = type(f)
            if tf is PConst:
                head, seen, cost = f, 0, 1
            elif tf is PApp and f.cost:
                # a folded operator's spine is folded down to its head
                head, seen, cost = f.fn, 1, 1 + f.cost
                while type(head) is PApp:
                    head, seen = head.fn, seen + 1
            else:
                return node
            ta = type(a)
            if ta is PApp:
                if not a.cost:
                    return node
                cost += a.cost
            elif ta is not PConst:
                return node
            v = _apply_early(fun_meta(head.value), seen, f.value, a.value)
            if v is not None:
                node.value = v
                node.cost = cost
        return node

    return app


class _SharingEliminator(_Eliminator):
    """Builds each distinct subterm once: the output is a DAG.

    Without pre-evaluation bracket abstraction copies a body once per
    binder around it (under S/K/I the term triples per binder), and most
    of the copies are equal.  Here every application is hash-consed and
    `abstract` is memoised on its binders and the identity of its body,
    so the cost follows the distinct nodes, not the tree; the tree is the
    one `_Eliminator` builds.  Both tables live as long as the eliminator,
    one `elim` call.

    The constructor also folds each new partial application of a pure
    function to constants (see `_hash_consing`), so `eval` too follows
    the distinct nodes where no combinator fires.  The fold lives in the
    nodes: it goes wherever the term goes and dies with it.
    """

    def __init__(self, rules: tuple):
        # a closure, not a bound method: kept on `self`, that would make a
        # cycle, left to the cyclic gc that transforms run without
        super().__init__(rules, _hash_consing())
        self._abstracted = {}  # (xs, id(body)) -> (body, [xs] body)

    def abstract(self, xs: tuple, body: PExpr) -> PExpr:
        key = (xs, id(body))
        hit = self._abstracted.get(key)
        if hit is None:
            hit = self._abstracted[key] = (
                body, _Eliminator.abstract(self, xs, body))
        return hit[1]


def elim(e: PExpr, algo: ElimAlgo, *,
         pre_eval: Optional[bool] = None) -> PExpr:
    """[ ] of every abstraction in `e`, under the rule set `algo`.

    Pre-evaluation is on by default for every rule set but FAB.  Without
    it the output is a DAG: each distinct subterm is built once, and its
    partial applications of pure functions to constants carry their
    values (see `_SharingEliminator`); that changes neither the tree nor
    the steps and effects of a run.
    """
    if pre_eval is None:
        pre_eval = algo is not ElimAlgo.FAB
    if pre_eval:
        # folding leaves nothing to share: no table lookup per node
        return _Eliminator(_rules(algo)).elim(e)
    return _SharingEliminator(_rules(algo)).elim(e)


def check_no_var(e: PExpr) -> MExpr:
    """Return `e` unchanged once a scan finds no variable or binder in it.

    Each distinct application node is scanned once, so a shared term
    costs its distinct nodes, not its tree.
    """
    seen = set()
    todo = [e]
    while todo:
        t = todo.pop()
        tt = type(t)
        if tt is PApp:
            if id(t) in seen:
                continue
            seen.add(id(t))
            todo.append(t.arg)  # the operator is scanned first
            todo.append(t.fn)
        elif tt is PVar:
            raise UnexpectedNodeError(f"variable {t.name!r} survived elimination")
        elif tt is PAbs:
            raise UnexpectedNodeError(
                f"abstraction over {t.param!r} survived elimination")
        elif tt is not PConst:
            raise TypeError(f"not a PExpr: {t!r}")
    return e


def transform(e: PExpr, algo: ElimAlgo, *,
              pre_eval: Optional[bool] = None) -> MExpr:
    return check_no_var(elim(e, algo, pre_eval=pre_eval))


# ---------------------------------------------------------------- the reference calculus

# purify's IF applies the chosen thunk to `dummy` itself, while the
# calculus `if` returns it
IF_TERM = RAbs("c", RAbs("t", RAbs("e", RApp(
    RApp(RApp(RApp(RFunConst("if"), RVar("c")), RVar("t")), RVar("e")),
    RFunConst("dummy")))))


def _to_pexpr(m: RTerm) -> PExpr:
    """`m` as a PExpr, with `(((if c) \\z.t) \\z.e) dummy` as purify's
    `((IF c) \\z.t) \\z.e`, so the conditional rules fire.  Any other `if`
    stays a constant: IF evaluates its branches before the test, which
    would move their effects before a stuck `if`.
    """
    match m:
        case RVar(name):
            return PVar(name)
        case RFunConst():
            return PConst(m)  # no `meta`: nothing folds it
        case RAbs(param, body):
            return PAbs(param, _to_pexpr(body))
        case RApp(RApp(RApp(RApp(RFunConst("if"), c), RAbs() as then),
                       RAbs() as other), RFunConst("dummy")):
            return PApp(PApp(PApp(PConst(FUN_IF), _to_pexpr(c)),
                             _to_pexpr(then)), _to_pexpr(other))
        case RApp(f, a):
            return PApp(_to_pexpr(f), _to_pexpr(a))
    raise TypeError(f"not an RTerm: {m!r}")


def elim_rterm(m: RTerm, algo: ElimAlgo) -> RTerm:
    """Closed `m` with its abstractions eliminated by `algo`, pre-evaluation
    off, in the calculus: each roster constant as its `defining_term`, IF
    as `IF_TERM`, a folded node as its application, a shared node shared.
    """
    defs = _roster(algo)
    terms = {}  # id of a node of the output -> its term

    def back(e: PExpr) -> RTerm:
        t = terms.get(id(e))
        if t is None:
            if type(e) is PApp:
                t = RApp(back(e.fn), back(e.arg))
            elif type(e.value) is RFunConst:
                t = e.value
            elif e.value is FUN_IF:
                t = IF_TERM
            else:
                t = defs[fun_meta(e.value).comb_id].defining_term
            terms[id(e)] = t
        return t

    return back(transform(_to_pexpr(m), algo, pre_eval=False))


# ---------------------------------------------------------------- static discipline check

@dataclass(frozen=True)
class CbvViolation:
    comb_id: str
    position: int
    offender: object  # the application found in a constant-only position


def _spine(e):
    args = []
    while type(e) is PApp:
        args.append(e.arg)
        e = e.fn
    return e, list(reversed(args))


def find_cbv_violations(e) -> list[CbvViolation]:
    """Scan a PExpr for applications in constant-only combinator positions.

    Selective combinators may only receive a constant or variable in a
    branch position they do not distribute over; an application there
    would be evaluated eagerly even though the source protected it under
    a binder.  A clean transform output yields no violations.

    Each distinct spine is scanned once, so a shared term costs its
    distinct nodes, and a violation inside a shared node is reported once.
    """
    defs = _roster(ElimAlgo.C2)  # every mask of every roster
    found: list[CbvViolation] = []
    seen = set()
    todo = [e]
    while todo:
        t = todo.pop()
        if type(t) is not PApp or id(t) in seen:
            continue
        seen.add(id(t))
        head, args = _spine(t)
        todo.extend(reversed(args))  # scanned left to right
        if type(head) is not PConst:
            continue
        meta = fun_meta(head.value)
        if meta is None or meta.args_seen:
            continue
        d = defs.get(meta.comb_id)
        if d is None or d.mask is None:
            continue
        for i, m in enumerate(d.mask):
            if i < len(args) and not m and type(args[i]) is PApp:
                found.append(CbvViolation(meta.comb_id, i, args[i]))
    return found
