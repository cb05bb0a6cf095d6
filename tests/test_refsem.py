from __future__ import annotations

import importlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combterp import refsem
from combterp.elim import IF_TERM, ElimAlgo, elim_rterm, make_combinators
from combterp.errors import UnexpectedNodeError
from combterp.quickgen import GenConfig, default_rstore, gen_rterm
from combterp.refsem import (Outcome, RAbs, RApp, RFunConst, RStore, RVar,
                             bool_const, check_eliminations, check_theorem,
                             const_bool, const_int, int_const, is_value,
                             rstore, rterm_free_vars, run, standard_delta,
                             step, subst)

DELTA = standard_delta()
elim_mod = importlib.import_module("combterp.elim")  # `combterp.elim` is a function


def binop(op, a, b):
    return RApp(RApp(RFunConst(op), a), b)


def go(m, s=None, budget=10_000):
    return run(m, s if s is not None else RStore(), DELTA, budget)


class TestDelta:
    @pytest.mark.parametrize("op,a,b,want", [
        ("plus", 2, 3, int_const(5)),
        ("minus", 2, 3, int_const(-1)),
        ("times", 4, 3, int_const(12)),
        ("leq", 2, 2, bool_const(True)),
        ("eq", 2, 3, bool_const(False)),
    ])
    def test_arithmetic(self, op, a, b, want):
        out = go(binop(op, int_const(a), int_const(b)))
        assert (out.kind, out.term) == ("value", want)

    def test_const_helpers(self):
        assert const_int(int_const(-7)) == -7
        assert const_int(bool_const(True)) is None
        assert const_bool(bool_const(False)) is False
        assert const_bool(int_const(0)) is None

    def test_set_binds_and_traces(self):
        out = go(RApp(RFunConst("set:t"), int_const(5)))
        assert out.term == int_const(5)
        assert out.store.bindings == (("t", int_const(5)),)
        assert out.store.trace == (("set", "t", int_const(5)),)

    def test_get_reads_and_traces(self):
        out = go(RApp(RFunConst("get:t"), int_const(0)),
                 rstore({"t": int_const(9)}))
        assert out.term == int_const(9)
        assert out.store.trace == (("get", "t", int_const(9)),)

    def test_get_unbound_is_stuck(self):
        assert go(RApp(RFunConst("get:t"), int_const(0))).kind == "stuck"

    def test_conditional_selector(self):
        def sel(b):
            return RApp(RApp(RApp(RFunConst("if"), bool_const(b)),
                             int_const(1)), int_const(2))

        assert go(sel(True)).term == int_const(1)
        assert go(sel(False)).term == int_const(2)

    def test_ground_values_are_stuck_when_applied(self):
        assert go(RApp(int_const(1), int_const(2))).kind == "stuck"
        assert go(RApp(bool_const(True), int_const(2))).kind == "stuck"
        assert go(RApp(RFunConst("dummy"), int_const(2))).kind == "stuck"


names = st.sampled_from(["x", "y", "z"])
terms = st.deferred(lambda: st.one_of(
    st.builds(RVar, names),
    st.just(int_const(1)),
    st.builds(RAbs, names, terms),
    st.builds(RApp, terms, terms),
))
value_terms = st.one_of(st.builds(RVar, names), st.just(int_const(2)),
                        st.builds(RAbs, names, terms))


class TestSubst:
    def test_replaces_free_occurrences_only(self):
        m = RApp(RVar("x"), RAbs("x", RVar("x")))
        assert subst("x", int_const(1), m) == RApp(int_const(1),
                                                   RAbs("x", RVar("x")))

    def test_renames_capturing_binders(self):
        out = subst("x", RVar("y"), RAbs("y", RApp(RVar("x"), RVar("y"))))
        match out:
            case RAbs(p, RApp(RVar("y"), RVar(q))):
                assert p == q and p != "y"
            case _:
                pytest.fail(f"capture not avoided: {out!r}")

    @settings(max_examples=300)
    @given(names, value_terms, terms)
    def test_free_variables_obey_the_textbook_equation(self, x, v, m):
        got = rterm_free_vars(subst(x, v, m))
        fv_m = rterm_free_vars(m)
        if x in fv_m:
            assert got == (fv_m - {x}) | rterm_free_vars(v)
        else:
            assert got == fv_m

    def test_only_values_substitute(self):
        with pytest.raises(AssertionError):
            subst("x", RApp(RVar("y"), RVar("z")), RVar("x"))


class TestRun:
    def test_beta(self):
        m = RApp(RAbs("x", binop("plus", RVar("x"), RVar("x"))), int_const(3))
        assert go(m).term == int_const(6)

    def test_value_needs_no_budget(self):
        assert go(int_const(1), budget=0) == Outcome("value", int_const(1),
                                                     RStore())

    def test_timeout_preserves_the_term(self):
        m = binop("plus", int_const(1), int_const(2))
        out = go(m, budget=0)
        assert out == Outcome("timeout", m, RStore())

    def test_variable_in_operator_position_is_stuck(self):
        assert go(RApp(RVar("x"), int_const(1))).kind == "stuck"

    def test_divergence_times_out(self):
        o = RAbs("w", RApp(RVar("w"), RVar("w")))
        assert go(RApp(o, o), budget=100).kind == "timeout"


def run_by_step(m, s, budget):
    """Budget-bounded driver over the one-step function, as an oracle."""
    left = budget
    while True:
        if is_value(m):
            return Outcome("value", m, s)
        if left <= 0:
            return Outcome("timeout", m, s)
        out = step(m, s, DELTA)
        if out is None:
            return Outcome("stuck", m, s)
        m, s = out
        left -= 1


class TestRunMatchesStep:
    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 5_000), st.sampled_from([0, 1, 7, 50, 400]))
    def test_same_outcome_term_and_store(self, seed, budget):
        cfg = GenConfig(seed=seed, max_depth=4)
        m = gen_rterm(cfg)
        s = default_rstore(cfg)
        # both drivers draw from the shared fresh-name counter; reset it so
        # the runs are name-identical, not merely alpha-equivalent
        refsem._fresh_counter = itertools.count()
        a = run(m, s, DELTA, budget)
        refsem._fresh_counter = itertools.count()
        b = run_by_step(m, s, budget)
        assert a == b


ALGOS = list(ElimAlgo)


def cond_term(c, then, other):
    """The calculus conditional: the selector picks a thunk, run on dummy."""
    sel = RApp(RApp(RApp(RFunConst("if"), c), RAbs("z", then)),
               RAbs("z", other))
    return RApp(sel, RFunConst("dummy"))


def abstractions(m):
    """The abstractions in `m`, outermost only, each distinct node once."""
    found, seen, todo = [], set(), [m]
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if isinstance(t, RAbs):
            found.append(t)
        elif isinstance(t, RApp):
            todo += [t.fn, t.arg]
    return found


def theorem(m, algo, budget=10_000):
    return check_theorem(m, elim_rterm(m, algo), RStore(), DELTA, budget)


def sample_theorem(algo, seeds):
    tally = {"agree": 0, "disagree": 0, "inconclusive": 0}
    for seed in seeds:
        cfg = GenConfig(seed=seed)
        m = gen_rterm(cfg)
        v = check_theorem(m, elim_rterm(m, algo), default_rstore(cfg), DELTA,
                          100_000)
        tally[v.kind] += 1
    return tally


@pytest.mark.parametrize("algo", ALGOS)
class TestElimRterm:
    def test_the_eliminated_successor_runs(self, algo):
        out = elim_rterm(RAbs("x", binop("plus", RVar("x"), int_const(1))),
                         algo)
        assert go(RApp(out, int_const(4))).term == int_const(5)

    def test_abstractions_come_only_from_the_roster(self, algo):
        m = RAbs("x", RAbs("y", cond_term(
            binop("leq", RVar("x"), RVar("y")),
            RApp(RFunConst("set:t"), RVar("x")), RApp(RVar("y"), RVar("x")))))
        allowed = [d.defining_term for d in make_combinators(algo).values()]
        allowed.append(IF_TERM)
        found = abstractions(elim_rterm(m, algo))
        assert found and all(any(t is a for a in allowed) for t in found)

    def test_a_conditional_under_a_binder_goes_through_s_if(self, algo):
        m = RAbs("x", cond_term(binop("leq", RVar("x"), int_const(1)),
                                int_const(2), RApp(RFunConst("set:t"),
                                                   RVar("x"))))
        out = elim_rterm(m, algo)
        defs = make_combinators(algo)
        if algo is not ElimAlgo.FAB:
            assert any(t is defs["S_IF"].defining_term
                       for t in abstractions(out))
        assert go(RApp(out, int_const(0))).term == int_const(2)
        taken = go(RApp(out, int_const(3)))
        assert (taken.term, taken.store.trace) == (
            int_const(3), (("set", "t", int_const(3)),))

    def test_only_thunked_conditionals_become_if(self, algo):
        """A thunk may use its binder; any other shape keeps the plain `if`."""
        sel = cond_term(bool_const(True), RVar("z"), int_const(1)).fn
        dummy = RFunConst("dummy")
        assert go(elim_rterm(RApp(sel, dummy), algo)).term == dummy
        assert go(elim_rterm(RApp(sel, int_const(7)), algo)).term == int_const(7)
        eager = RApp(RApp(RApp(RApp(RFunConst("if"), int_const(1)),
                               RApp(RFunConst("set:t"), int_const(1))),
                          RAbs("z", int_const(2))), dummy)
        out = go(elim_rterm(eager, algo))
        assert (out.kind, out.store.trace) == ("stuck", ())

    def test_an_open_term_is_rejected(self, algo):
        with pytest.raises(UnexpectedNodeError):
            elim_rterm(RAbs("x", RVar("y")), algo)


@pytest.mark.parametrize("algo", ALGOS)
class TestCheckTheorem:
    def test_ground_agreement(self, algo):
        m = RApp(RAbs("x", binop("times", RVar("x"), RVar("x"))), int_const(3))
        assert theorem(m, algo).kind == "agree"

    def test_effectful_agreement(self, algo):
        m = RApp(RAbs("x", RApp(RFunConst("get:t"), int_const(0))),
                 RApp(RFunConst("set:t"), int_const(4)))
        assert theorem(m, algo).kind == "agree"

    def test_function_results_are_probed(self, algo):
        m = RAbs("x", binop("plus", RVar("x"), int_const(1)))
        assert theorem(m, algo).kind == "agree"

    def test_both_stuck_agree(self, algo):
        m = RApp(RAbs("x", RApp(int_const(1), RVar("x"))), int_const(2))
        assert theorem(m, algo).kind == "agree"

    def test_both_divergent_agree(self, algo):
        o = RAbs("w", RApp(RVar("w"), RVar("w")))
        v = theorem(RApp(o, o), algo, budget=200)
        assert (v.kind, v.details) == ("agree", "both timed out")

    def test_requires_a_closed_term(self, algo):
        with pytest.raises(AssertionError):
            check_theorem(RVar("x"), RVar("x"), RStore(), DELTA, 100)


def test_a_stuck_run_must_have_run_the_same_effects():
    stuck = RApp(int_const(1), int_const(2))
    after_a_set = RApp(RAbs("d", stuck), RApp(RFunConst("set:t"), int_const(9)))
    assert go(after_a_set).kind == "stuck"
    v = check_theorem(stuck, after_a_set, RStore(), DELTA, 1000)
    assert (v.kind, v.details) == ("disagree", "final store bindings differ")
    assert check_theorem(after_a_set, after_a_set, RStore(), DELTA, 1000) == (
        refsem.Verdict("agree", "both stuck"))


def test_the_source_term_is_run_once_for_all_forms(monkeypatch):
    cfg = GenConfig(seed=77_001)
    m, s = gen_rterm(cfg), default_rstore(cfg)
    forms = [elim_rterm(m, algo) for algo in ALGOS]
    want = [check_theorem(m, f, s, DELTA, 100_000) for f in forms]
    runs = []

    def counted(t, *args):
        runs.append(t)
        return run(t, *args)

    monkeypatch.setattr(refsem, "run", counted)
    assert check_eliminations(m, forms, s, DELTA, 100_000) == want
    assert sum(t is m for t in runs) == 1
    assert [t for t in runs if any(t is f for f in forms)] == forms


@pytest.mark.parametrize("algo", [ElimAlgo.C1, ElimAlgo.C2])
def test_seeded_terms_agree(algo):
    tally = sample_theorem(algo, range(77_000, 77_300))
    assert tally["disagree"] == 0, tally


def test_a_wrong_mask_disagrees(monkeypatch):
    """B and C swapped in a c1 rule table local to this test."""
    sif, (full, masks), spine3, i, k = elim_mod._rules(ElimAlgo.C1)[1]
    masks = dict(masks)
    b, c = (False, True), (True, False)
    masks[b], masks[c] = masks[c], masks[b]
    swapped = (None, (sif, (full, masks), spine3, i, k))
    monkeypatch.setattr(elim_mod, "_rules", lambda algo: swapped)
    tally = sample_theorem(ElimAlgo.C1, range(77_000, 77_050))
    assert tally["disagree"] > 0, tally
