"""Acceptance criteria, one test per criterion, one verdict line each."""
from __future__ import annotations

import functools
import random
import time

from combterp import refsem
from combterp.compare import compare_expr, observe_classical, observe_combinator
from combterp.bench import run_bench
from combterp.elim import (ElimAlgo, elim, elim_rterm, find_cbv_violations,
                           make_combinators)
from combterp.errors import InterpError
from combterp.externs import registry
from combterp.frontend import parse
from combterp.purify import PurifyCtx, purify
from combterp.quickgen import GenConfig, default_initial, default_rstore, gen_expr, gen_rterm
from combterp.refsem import (RApp, RFunConst, RStore, bool_const, const_bool,
                             const_int, int_const, run, standard_delta)
from combterp.runtime import apply_value
from combterp.store import Store
from combterp.syntax import (EGet, EAbs, EApp, EIf, ESet, PAbs, PApp, PVar,
                             VBool, VDummy, VFun, VInt, VList, count_apps,
                             value_ground_eq)

ALGOS = (ElimAlgo.FAB, ElimAlgo.C1, ElimAlgo.C2)


def verdict(record, n, title, ok, detail):
    record(f"criterion {n} ({title}): {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_differential_semantics(acceptance_record):
    samples, budget = 1_000, 200_000
    cfg0 = GenConfig(seed=42)
    initial = default_initial(cfg0)
    disagree = {a: 0 for a in ALGOS}
    excluded = {a: 0 for a in ALGOS}
    t0 = time.perf_counter()
    for i in range(samples):
        e = gen_expr(GenConfig(seed=42 + i))
        for algo, r in compare_expr(e, ALGOS, initial=initial,
                                    budget=budget).items():
            if r.excluded:
                excluded[algo] += 1
            elif not r.agree:
                disagree[algo] += 1
    elapsed = time.perf_counter() - t0
    bad = sum(disagree.values())
    max_excl = max(excluded.values())
    ok = bad == 0 and max_excl <= samples * 0.05 and elapsed < 60
    verdict(acceptance_record, 1, "differential semantics preservation", ok,
            f"{samples} programs x {len(ALGOS)} algos, {bad} disagreements, "
            f"max excluded {max_excl}/{samples}, {elapsed:.1f}s")
    assert bad == 0, disagree
    assert max_excl <= samples * 0.05, excluded
    assert elapsed < 60


def test_criterion_2_empirical_correctness_theorem(acceptance_record):
    samples, budget = 1_000, 100_000
    delta = standard_delta()
    tally = {"agree": 0, "disagree": 0, "inconclusive": 0}
    t0 = time.perf_counter()
    for i in range(samples):
        cfg = GenConfig(seed=77_000 + i)
        m = gen_rterm(cfg)
        v = refsem.check_theorem(m, elim_rterm(m, ElimAlgo.FAB),
                                 default_rstore(cfg), delta, budget)
        tally[v.kind] += 1
    elapsed = time.perf_counter() - t0
    ok = tally["disagree"] == 0 and elapsed < 60
    verdict(acceptance_record, 2, "empirical correctness theorem", ok,
            f"{samples} terms, {tally['agree']} agree, "
            f"{tally['inconclusive']} inconclusive, {tally['disagree']} "
            f"disagree, {elapsed:.1f}s")
    assert tally["disagree"] == 0
    assert elapsed < 60


def test_criterion_3_term_size_claims(acceptance_record):
    def apps(p, algo):
        return count_apps(elim(p, algo, pre_eval=False))

    apply_two = PAbs("x", PAbs("y", PApp(PVar("x"), PVar("y"))))
    bracket_fst = PAbs("x", PAbs("y", PVar("x")))
    bracket_snd = PAbs("x", PAbs("y", PVar("y")))

    def schema(algo):
        return (apps(apply_two, algo) - apps(bracket_fst, algo)
                - apps(bracket_snd, algo))

    triple = PAbs("x", PApp(PApp(PVar("x"), PVar("x")), PVar("x")))
    got = (schema(ElimAlgo.FAB), schema(ElimAlgo.C2),
           apps(triple, ElimAlgo.FAB), apps(triple, ElimAlgo.C2))
    want = (5, 2, 4, 3)
    ok = got == want
    verdict(acceptance_record, 3, "term-size claims reproduced", ok,
            f"got {got}, expected {want} (exact)")
    assert got == want


def test_criterion_4_benchmark_correctness(acceptance_record):
    t0 = time.perf_counter()
    report = run_bench()  # raises on any incorrect result or trace mismatch
    elapsed = time.perf_counter() - t0
    by_prog = {}
    for r in report.rows:
        by_prog.setdefault(r.program, []).append(r)
    spot = {"fib-omega": VInt(89), "fib-imp": VInt(89),
            "ack-omega": VInt(253), "ack-imp": VInt(253),
            "queens-imp": VInt(92)}
    spot_ok = all(all(value_ground_eq(r.result, want) for r in by_prog[name])
                  for name, want in spot.items())
    sorted_ok = True
    for name in ("sort-omega", "sort-imp"):
        for r in by_prog[name]:
            xs = [v.n for v in r.result.items]
            sorted_ok &= xs == sorted(xs) and len(xs) == 500
    all_correct = all(r.correct for r in report.rows)
    ok = (all_correct and spot_ok and sorted_ok and elapsed < 120
          and len(report.rows) == 7 * 4)
    verdict(acceptance_record, 4, "benchmark correctness at desk scale", ok,
            f"{len(report.rows)} rows all correct under 4 interpreters, "
            f"{elapsed:.1f}s")
    assert all_correct and spot_ok and sorted_ok
    assert len(report.rows) == 7 * 4
    assert elapsed < 120


# ---------------------------------------------------------------- criterion 5

REG = registry()

# argument pool: each entry pairs a reference-calculus constant with the
# native value denoting the same thing
_POOL = (
    [(int_const(n), VInt(n)) for n in range(4)]
    + [(bool_const(True), VBool(True)), (bool_const(False), VBool(False))]
    + [(RFunConst(op), REG[op].value) for op in ("plus", "minus", "times", "leq")]
    + [(RFunConst("plus:2"), apply_value(REG["plus"].value, VInt(2))),
       (RFunConst("leq:1"), apply_value(REG["leq"].value, VInt(1)))]
)

_PROBES = [(int_const(j), VInt(j)) for j in (1, 2)] + [(bool_const(True),
                                                        VBool(True))]


def _native_outcome(value, args):
    try:
        return "value", functools.reduce(apply_value, args, value)
    except InterpError:
        return "error", None


def _ref_outcome(term, args, delta):
    spine = functools.reduce(RApp, args, term)
    out = run(spine, RStore(), delta, 50_000)
    if out.kind == "value":
        return "value", out.term
    return ("error", None) if out.kind == "stuck" else ("timeout", None)


def _same_value(native, ref, delta, depth):
    if isinstance(native, VInt):
        return const_int(ref) == native.n
    if isinstance(native, VBool):
        return const_bool(ref) is native.b
    if isinstance(native, VDummy):
        return ref == RFunConst("dummy")
    if isinstance(native, VFun):
        if const_int(ref) is not None or const_bool(ref) is not None:
            return False
        if depth <= 0:
            return True
        for rarg, narg in _PROBES:
            nk, nv = _native_outcome(native, [narg])
            rk, rv = _ref_outcome(ref, [rarg], delta)
            if nk != rk:
                return False
            if nk == "value" and not _same_value(nv, rv, delta, depth - 1):
                return False
        return True
    return False  # no lists or other shapes in the probe battery


def test_criterion_5_combinator_soundness(acceptance_record):
    delta = standard_delta()
    rng = random.Random(5)
    defs = make_combinators(ElimAlgo.C2)  # superset of every roster
    mismatches, probed = [], 0
    for d in defs.values():
        for _ in range(60):
            pairs = [rng.choice(_POOL) for _ in range(d.total_arity)]
            rargs = [p[0] for p in pairs]
            nargs = [p[1] for p in pairs]
            nk, nv = _native_outcome(d.value, nargs)
            rk, rv = _ref_outcome(d.defining_term, rargs, delta)
            probed += 1
            agree = nk == rk and (nk != "value"
                                  or _same_value(nv, rv, delta, depth=2))
            if not agree:
                mismatches.append((d.comb_id, nargs, nk, rk))
    ok = not mismatches
    verdict(acceptance_record, 5, "combinator soundness", ok,
            f"{len(defs)} combinators x 60 argument tuples "
            f"({probed} probes), {len(mismatches)} mismatches (exact)")
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------- criterion 6

def _has_effects(e) -> bool:
    match e:
        case EGet() | ESet():
            return True
        case EApp(f, a):
            return _has_effects(f) or _has_effects(a)
        case EAbs(_, b):
            return _has_effects(b)
        case EIf(c, t, o):
            return _has_effects(c) or _has_effects(t) or _has_effects(o)
    return False


def test_criterion_6_pre_evaluation_safety(acceptance_record):
    wanted, budget = 500, 200_000
    initial = default_initial(GenConfig(seed=0))
    violations, transforms_touching_store = 0, 0
    collected, seed = 0, 0
    while collected < wanted:
        e = gen_expr(GenConfig(seed=900_000 + seed))
        seed += 1
        if not _has_effects(e):
            continue
        collected += 1
        s = Store(initial)
        elim(purify(e, PurifyCtx(s)), ElimAlgo.C1, pre_eval=True)
        if s.trace:
            transforms_touching_store += 1
        a = observe_combinator(e, ElimAlgo.C1, initial, budget, pre_eval=True)
        b = observe_combinator(e, ElimAlgo.C1, initial, budget, pre_eval=False)
        if a.excluded or b.excluded:
            if a.excluded != b.excluded:
                violations += 1
            continue
        if (a.kind, a.trace, a.bindings) != (b.kind, b.trace, b.bindings):
            violations += 1
        elif a.kind == "value" and not value_ground_eq(
                a.value, b.value) and not (isinstance(a.value, VFun)
                                           and isinstance(b.value, VFun)):
            violations += 1
    ok = violations == 0 and transforms_touching_store == 0
    verdict(acceptance_record, 6, "pre-evaluation safety", ok,
            f"{wanted} effectful programs, {violations} result/trace "
            f"violations, {transforms_touching_store} store events during "
            f"transform")
    assert violations == 0
    assert transforms_touching_store == 0


def test_criterion_7_cbv_rule_discipline(acceptance_record):
    samples = 1_000
    violations = 0
    for i in range(samples):
        p = purify(gen_expr(GenConfig(seed=42 + i)), PurifyCtx(Store()))
        for algo in ALGOS:
            for pre in (False, True):
                violations += len(find_cbv_violations(
                    elim(p, algo, pre_eval=pre)))
    ok = violations == 0
    verdict(acceptance_record, 7, "call-by-value rule discipline", ok,
            f"{samples} programs x {len(ALGOS)} algos x 2 pre-evaluation "
            f"settings scanned, {violations} violations")
    assert violations == 0


def test_criterion_8_untaken_branches_are_thunked(acceptance_record):
    programs = [
        "if false then (t := !t + 1) else !t fi",
        "if true then !t else (t := !t + 1) fi",
    ]
    initial = {"t": VInt(5)}
    failures = []
    for src in programs:
        e = parse(src)
        observations = [observe_classical(e, initial)]
        observations += [observe_combinator(e, a, initial) for a in ALGOS]
        for obs in observations:
            untouched = (obs.value == VInt(5)
                         and obs.bindings == (("t", VInt(5)),)
                         and all(kind == "get" for kind, _, _ in obs.trace))
            if not untouched:
                failures.append((src, obs))
    ok = not failures
    verdict(acceptance_record, 8, "untaken branches never run", ok,
            f"{len(programs)} conditionals x 4 interpreters, "
            f"{len(failures)} store disturbances (exact)")
    assert not failures, failures
