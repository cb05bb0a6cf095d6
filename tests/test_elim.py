from __future__ import annotations

import functools
import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combterp import externs
from combterp.compare import _observe, normalize_value, observe_combinator
from combterp.elim import (CbvViolation, ElimAlgo, _hash_consing,
                           _match_if_shape, _occurs_free, check_no_var, elim,
                           find_cbv_violations, make_combinators, transform)
from combterp.errors import StepLimitExceeded, UnexpectedNodeError
from combterp.eval import eval as meval
from combterp.frontend import parse
from combterp.purify import FUN_IF, PurifyCtx, purify
from combterp.quickgen import GenConfig, default_initial, gen_expr
from combterp.refsem import RAbs, RApp
from combterp.runtime import apply_value, call_deep, fuel, remaining
from combterp.store import Store
from combterp.syntax import (DUMMY_IDENT, CombMeta, MApp, MConst, PAbs, PApp,
                             PConst, PVar, VBool, VFun, VInt, count_apps,
                             format_mexpr, format_value, free_vars, fun_meta)

REG = externs.registry()
PLUS = REG["plus"].value
MINUS = REG["minus"].value
TIMES = REG["times"].value
LEQ = REG["leq"].value
EQ = REG["eq"].value


def app(*vs):
    return functools.reduce(apply_value, vs)


def defs_for(algo):
    return make_combinators(algo)


def pre_eval(e):
    """`e` with its safe partial applications folded; it has no binders."""
    return elim(e, ElimAlgo.FAB, pre_eval=True)


class TestRosters:
    def test_fab(self):
        assert set(defs_for(ElimAlgo.FAB)) == {"I", "K", "S"}

    def test_c1_adds_selectives_and_conditional(self):
        assert set(defs_for(ElimAlgo.C1)) == {"I", "K", "S", "B", "C", "N", "S_IF"}

    def test_c2_adds_multi_arity_families(self):
        names = set(defs_for(ElimAlgo.C2))
        assert {"S_2", "S^2", "S_2^2", "K^2", "I^2", "S_IF^2"} <= names
        assert {"S_2[110]", "S_2[000]", "S^2[01]", "S^2[00]"} <= names
        assert len(names) == 23

    def test_metadata_is_consistent(self):
        for d in defs_for(ElimAlgo.C2).values():
            meta = fun_meta(d.value)
            assert meta.comb_id == d.comb_id
            assert meta.total_arity == d.total_arity
            assert meta.args_seen == 0 and meta.pure
            if d.mask is not None:
                assert d.total_arity == len(d.mask) + d.n_abs


class TestCombinatorBehavior:
    def setup_method(self):
        self.d = defs_for(ElimAlgo.C2)

    def v(self, name):
        return self.d[name].value

    def test_identity(self):
        assert app(self.v("I"), VInt(3)) == VInt(3)

    def test_projection(self):
        assert app(self.v("K"), VInt(1), VInt(2)) == VInt(1)
        assert app(self.v("K^2"), VInt(1), VInt(2), VInt(3)) == VInt(1)
        assert app(self.v("I^2"), VInt(1), VInt(2)) == VInt(1)

    def test_s_distributes_to_both_branches(self):
        # S f g x = (f x) (g x)
        assert app(self.v("S"), PLUS, self.v("I"), VInt(3)) == VInt(6)

    def test_b_composes(self):
        inc = app(PLUS, VInt(1))
        double = app(TIMES, VInt(2))
        assert app(self.v("B"), inc, double, VInt(5)) == VInt(11)

    def test_c_flips(self):
        assert app(self.v("C"), MINUS, VInt(1), VInt(10)) == VInt(9)

    def test_n_ignores_the_argument(self):
        assert app(self.v("N"), app(PLUS, VInt(2)), VInt(3), VBool(True)) == VInt(5)

    def test_s_if_selects_a_branch(self):
        small = app(self.v("C"), LEQ, VInt(5))  # x <= 5
        inc = app(PLUS, VInt(1))
        double = app(TIMES, VInt(2))
        assert app(self.v("S_IF"), small, inc, double, VInt(3)) == VInt(4)
        assert app(self.v("S_IF"), small, inc, double, VInt(10)) == VInt(20)

    def test_s_2_distributes_over_a_double_application(self):
        # S_2 a b c x = ((a x) (b x)) (c x)
        const_plus = app(self.v("K"), PLUS)
        i = self.v("I")
        assert app(self.v("S_2"), const_plus, i, i, VInt(7)) == VInt(14)

    def test_two_abstraction_spine(self):
        # S_2^2 a b c x y = ((a x y) (b x y)) (c x y)
        const_plus = app(self.v("K^2"), PLUS)
        first = self.v("I^2")
        second = app(self.v("K"), self.v("I"))
        assert app(self.v("S_2^2"), const_plus, first, second,
                   VInt(3), VInt(4)) == VInt(7)

    def test_selective_two_abstraction(self):
        # S^2[01] a b x y = a (b x y); a is never distributed over
        inc = app(PLUS, VInt(1))
        assert app(self.v("S^2[01]"), inc, self.v("I^2"), VInt(6), VInt(0)) == VInt(7)


def _body_apps(term):
    while isinstance(term, RAbs):
        term = term.body
    if isinstance(term, RApp):
        return 1 + _body_apps(term.fn) + _body_apps(term.arg)
    return 0


class TestFiringFuel:
    def test_mask_combinator_fuel_per_firing(self):
        # one firing spends a unit per argument received plus one per
        # application in the body of its defining term, including the
        # spine application of a combinator that distributes nothing (N)
        ident = lambda v: v  # spends nothing itself
        masks = [d for d in defs_for(ElimAlgo.C2).values() if d.mask is not None]
        assert len(masks) == 19
        for d in masks:
            with fuel(1_000):
                functools.reduce(apply_value, [ident] * d.total_arity, d.value)
                spent = 1_000 - remaining()
            want = d.total_arity + _body_apps(d.defining_term)
            assert spent == want, d.comb_id


def _sym(term):
    """A function that records what it is applied to, spending nothing."""
    def f(v):
        return _sym((term, getattr(v, "term", v)))
    f.term = term
    return f


def _first_is_from(tag, n_abs):
    """An S_IF condition: whether its first bound variable came from `tag`."""
    def cond(x):
        b = VBool(x.term.startswith(tag))
        return b if n_abs == 1 else (lambda y: b)
    return cond


def _stage_args(d, tag):
    args = [_sym(f"{tag}{i}") for i in range(d.total_arity)]
    if d.comb_id.startswith("S_IF"):
        args[0] = _first_is_from("a", d.total_arity - 3)
    return args


def _finish(stage, rest, spent=0):
    """`stage` applied to `rest` in turn: the result and the fuel spent."""
    with fuel(1_000):
        out = functools.reduce(apply_value, rest, stage)
        return getattr(out, "term", out), spent + 1_000 - remaining()


class TestPartialStages:
    """A partial stage keeps its own arguments, however often it is applied."""

    @pytest.mark.parametrize("folded", [False, True], ids=["run-time", "fold"])
    def test_a_stage_fires_each_next_argument_as_a_fresh_one(self, folded):
        cases, differ = 0, 0
        for d in defs_for(ElimAlgo.C2).values():
            a, b = _stage_args(d, "a"), _stage_args(d, "b")
            for p in range(d.total_arity):
                def stage():
                    if not folded:
                        return functools.reduce(apply_value, a[:p], d.value)
                    out = pre_eval(functools.reduce(
                        lambda f, v: PApp(f, PConst(v)), a[:p], PConst(d.value)))
                    assert fun_meta(out.value).args_seen == p, d.comb_id
                    return out.value
                fresh = [_finish(stage(), a[p:]), _finish(stage(), b[p:])]
                shared = stage()
                # both next stages exist before either goes on
                left, left_spent = _finish(shared, a[p:p + 1])
                right, right_spent = _finish(shared, b[p:p + 1])
                got = [_finish(left, a[p + 1:], left_spent),
                       _finish(right, b[p + 1:], right_spent)]
                assert got == fresh, (d.comb_id, p)
                cases, differ = cases + 1, differ + (fresh[0] != fresh[1])
        # they differ unless every argument from `p` on is one that the
        # combinator drops: K, N, S_2[000], S^2[00] and K^2 at their bound
        # variables, I^2 at its second
        assert (cases, differ) == (82, 74)


def run_surface(src, algo, **kw):
    ctx = PurifyCtx(Store())
    return meval(transform(purify(parse(src), ctx), algo, **kw))


# One small program per rule: its transform with pre-evaluation off, under
# fab, c1 and c2.  A rule fires only where the roster has its combinator.
RULE_CASES = {
    "I": ("\\x. x", "I", "I", "I"),
    "K": ("\\x. 1", "(K 1)", "(K 1)", "(K 1)"),
    "S": ("\\x. (x x)", "((S I) I)", "((S I) I)", "((S I) I)"),
    "B": ("\\x. (plus x)",
          "((S (K plus)) I)", "((B plus) I)", "((B plus) I)"),
    "C": ("\\x. (x 1)", "((S I) (K 1))", "((C I) 1)", "((C I) 1)"),
    "N": ("\\x. (plus 1)",
          "((S (K plus)) (K 1))", "((N plus) 1)", "((N plus) 1)"),
    "S_IF": ("\\x. if x then 1 else 2 fi",
             "((S ((S ((S (K IF)) I)) ((S (K K)) (K 1)))) "
             "((S (K K)) (K 2)))",
             "(((S_IF I) (K 1)) (K 2))", "(((S_IF I) (K 1)) (K 2))"),
    "S_2": ("\\x. ((x x) x)", "((S ((S I) I)) I)", "((S ((S I) I)) I)",
            "(((S_2 I) I) I)"),
    "S_2[101]": ("\\x. ((x 1) x)", "((S ((S I) (K 1))) I)",
                 "((S ((C I) 1)) I)", "(((S_2[101] I) 1) I)"),
    "S_2[010]": ("\\x. ((plus x) 1)", "((S ((S (K plus)) I)) (K 1))",
                 "((C ((B plus) I)) 1)", "(((S_2[010] plus) I) 1)"),
    "S_2[000]": ("\\x. ((plus 1) 2)", "((S ((S (K plus)) (K 1))) (K 2))",
                 "((C ((N plus) 1)) 2)", "(((S_2[000] plus) 1) 2)"),
    "S_IF^2": ("\\x.\\y. if x then y else 2 fi",
               "((S ((S (K S)) ((S ((S (K S)) ((S ((S (K S)) ((S (K K)) "
               "(K IF)))) ((S (K K)) I)))) ((S ((S (K S)) ((S (K K)) "
               "(K K)))) (K I))))) ((S ((S (K S)) ((S (K K)) (K K)))) "
               "((S (K K)) (K 2))))",
               "((S ((C ((B S_IF) ((B K) I))) I)) ((N K) 2))",
               "(((S_IF^2 I^2) (K I)) (K^2 2))"),
    # the two-binder double application exists only fully distributed
    "S_2^2": ("\\x.\\y. ((x y) 1)",
              "((S ((S (K S)) ((S ((S (K S)) ((S (K K)) I))) (K I)))) "
              "((S (K K)) (K 1)))",
              "((C ((B C) ((C ((B B) I)) I))) 1)",
              "(((S_2^2 I^2) (K I)) (K^2 1))"),
    "S^2": ("\\x.\\y. (x y)", "((S ((S (K S)) ((S (K K)) I))) (K I))",
            "((C ((B B) I)) I)", "((S^2 I^2) (K I))"),
    "S^2[01]": ("\\x.\\y. (plus y)",
                "((S ((S (K S)) ((S (K K)) (K plus)))) (K I))",
                "((C ((N B) plus)) I)", "((S^2[01] plus) (K I))"),
    "S^2[10]": ("\\x.\\y. (x 1)",
                "((S ((S (K S)) ((S (K K)) I))) ((S (K K)) (K 1)))",
                "((C ((B N) I)) 1)", "((S^2[10] I^2) 1)"),
    "S^2[00]": ("\\x.\\y. (plus 1)",
                "((S ((S (K S)) ((S (K K)) (K plus)))) ((S (K K)) (K 1)))",
                "((C ((N N) plus)) 1)", "((S^2[00] plus) 1)"),
    "K^2": ("\\x.\\y. 1", "((S (K K)) (K 1))", "((N K) 1)", "(K^2 1)"),
    "I^2": ("\\x.\\y. x", "((S (K K)) I)", "((B K) I)", "I^2"),
    # no two-binder rule: the binders are abstracted one at a time
    "second binder": ("\\x.\\y. y", "(K I)", "(K I)", "(K I)"),
    "shadowed binder": ("\\x.\\x. x", "(K I)", "(K I)", "(K I)"),
    "third binder": ("\\x.\\y.\\z. x",
                     "((S ((S (K S)) ((S (K K)) (K K)))) ((S (K K)) I))",
                     "((S ((N N) K)) I)", "((B K^2) I)"),
}


class TestRules:
    @pytest.mark.parametrize("rule", list(RULE_CASES))
    def test_each_rule_set_transforms_as_pinned(self, rule):
        src, *want = RULE_CASES[rule]
        p = purify(parse(src), PurifyCtx(Store()))
        got = [format_mexpr(elim(p, algo, pre_eval=False))
               for algo in ElimAlgo]
        assert got == want


# sha256 of format_mexpr and then count_apps of each transform, over the
# quickgen programs of seeds 42-241; any change to a transform's output
# changes them
PINNED_DIGESTS = {
    (ElimAlgo.FAB, False):
        "af2da658f5e13c6104ccf6ced381d392dcd5d18c1c09097bb311f5a82a3bb836",
    (ElimAlgo.FAB, True):
        "3f75e1f5cfeab4dee7bc077f44c34207f7b8d1f9ac35b83bb39df88ee5c724fa",
    (ElimAlgo.C1, False):
        "8762843a17766eb94e81ed9bbb2e248690f38f85fed5ea3826a15e54a7ba10c8",
    (ElimAlgo.C1, True):
        "12f72f26dad2d639bf3a771d4dd9e4c98920282dffe537ee2a58fe709b95f12c",
    (ElimAlgo.C2, False):
        "41158dd3d8857d8a5849571c12ed7bbe82f9885300cceac764ba9520bc86bde7",
    (ElimAlgo.C2, True):
        "58ea66d129ccbcd411606353cfb362a1435f1c436afeb110756ac6f8ed809354",
}


@functools.cache
def _digest_programs():
    return [purify(gen_expr(GenConfig(seed=42 + i)), PurifyCtx(Store()))
            for i in range(200)]


@pytest.mark.parametrize("algo, pre", list(PINNED_DIGESTS), ids=str)
def test_transform_output_is_pinned(algo, pre):
    def digest():
        h = hashlib.sha256()
        for p in _digest_programs():
            m = elim(p, algo, pre_eval=pre)
            h.update(format_mexpr(m).encode())
            h.update(str(count_apps(m)).encode())
        return h.hexdigest()

    assert call_deep(digest) == PINNED_DIGESTS[algo, pre]


def test_fab_steps_without_pre_eval_are_pinned():
    # the shared output of fab without pre-evaluation is run as its tree:
    # every occurrence is applied, so steps and outcomes do not move
    steps, kinds = 0, Counter()
    for i in range(200):
        cfg = GenConfig(seed=42 + i)
        obs = observe_combinator(gen_expr(cfg), ElimAlgo.FAB,
                                 default_initial(cfg), pre_eval=False)
        steps += obs.steps
        kinds[obs.kind] += 1
    assert steps == 1_993_816
    assert kinds == {"value": 135, "type_error": 63, "limit": 2}


def _nodes(m) -> dict:
    """Every distinct node of a term, by id."""
    found, todo = {}, [m]
    while todo:
        t = todo.pop()
        if id(t) not in found:
            found[id(t)] = t
            if type(t) is PApp:
                todo += [t.fn, t.arg]
    return found


def _distinct_apps(m) -> int:
    return sum(type(t) is PApp for t in _nodes(m).values())


class TestSharing:
    SRC = "(\\f. \\x. \\y. f (f x y) (f y x)) plus 1 2"

    def program(self):
        return purify(parse(self.SRC), PurifyCtx(Store()))

    def test_fab_without_pre_eval_builds_each_subterm_once(self):
        m = elim(self.program(), ElimAlgo.FAB, pre_eval=False)
        assert (count_apps(m), _distinct_apps(m)) == (151, 36)
        assert meval(m) == VInt(6)

    def test_pre_evaluated_terms_have_nothing_to_share(self):
        m = elim(self.program(), ElimAlgo.C2, pre_eval=True)
        assert (count_apps(m), _distinct_apps(m)) == (3, 3)

    def test_two_calls_share_only_roster_nodes(self):
        algo = ElimAlgo.FAB
        first = _nodes(elim(self.program(), algo, pre_eval=False))
        second = _nodes(elim(self.program(), algo, pre_eval=False))
        roster = {id(d.value) for d in make_combinators(algo).values()}
        shared = [first[i] for i in first.keys() & second.keys()]
        assert shared
        assert all(type(t) is PConst and id(t.value) in roster
                   for t in shared)

    def test_check_no_var_rejects_a_variable_under_a_shared_node(self):
        twice = PApp(PConst(PLUS), PVar("x"))
        with pytest.raises(UnexpectedNodeError):
            check_no_var(PApp(twice, twice))

    def test_shared_terms_are_measured_in_linear_time(self):
        m = PConst(VInt(0))
        for _ in range(100):  # a tree of 2**100 - 1 applications
            m = PApp(m, m)
        assert count_apps(m) == 2 ** 100 - 1
        assert check_no_var(m) is m


def _unfolded(m):
    """The oracle of the fold: `m` rebuilt from fresh PApp nodes, none of
    them folded, with its sharing kept, so `eval` applies every occurrence."""
    new, todo = {}, [m]
    while todo:
        t = todo[-1]
        if id(t) in new:
            todo.pop()
        elif type(t) is not PApp:
            new[id(t)] = todo.pop()
        elif id(t.fn) not in new:
            todo.append(t.fn)
        elif id(t.arg) not in new:
            todo.append(t.arg)
        else:
            new[id(t)] = PApp(new[id(t.fn)], new[id(t.arg)])
            todo.pop()
    return new[id(m)]


def _folded_nodes(m) -> list:
    return [t for t in _nodes(m).values() if type(t) is PApp and t.cost]


def _observed(obs) -> tuple:
    """What a run shows: its ending, the class of its value, its store,
    steps and error text; a function value is known only as one."""
    return (obs.kind, normalize_value(obs.value), obs.trace, obs.bindings,
            obs.steps, str(obs.error))


def _observe_term(m, budget):
    return _observe(Store(), budget, lambda: m, meval)


class TestFold:
    """fab without pre-evaluation folds its partial applications of pure
    functions once, at transform time; `eval` spends their trees at once."""

    def fab(self, src):
        return call_deep(elim, purify(parse(src), PurifyCtx(Store())),
                         ElimAlgo.FAB, pre_eval=False)

    def test_a_folded_node_costs_the_applications_of_its_tree(self):
        m = self.fab(TestSharing.SRC)
        folded = _folded_nodes(m)
        assert folded
        for t in folded:
            assert t.cost == count_apps(t)

    def test_budgets_around_a_folded_cost_end_as_applying_it_would(self):
        terms = [self.fab(TestSharing.SRC)]
        terms += [call_deep(elim, p, ElimAlgo.FAB, pre_eval=False)
                  for p in _digest_programs()[:5]]
        checked = 0
        for m in terms:
            for t in _folded_nodes(m):
                oracle = _unfolded(t)
                for budget in (t.cost - 1, t.cost, t.cost + 1):
                    got = _observed(_observe_term(t, budget))
                    assert got == _observed(_observe_term(oracle, budget))
                    assert got[0] == ("limit" if budget < t.cost else "value")
                    checked += 1
        assert checked > 300

    @pytest.mark.parametrize("budget", [37, 1_000, 200_000])
    def test_quickgen_runs_observe_as_the_unfolded_term(self, budget):
        for i in range(200):
            cfg = GenConfig(seed=42 + i)
            e, initial = gen_expr(cfg), default_initial(cfg)
            runs = []
            for rebuild in (lambda m: m, _unfolded):
                s = Store(initial)
                runs.append(_observed(_observe(
                    s, budget,
                    lambda: rebuild(transform(purify(e, PurifyCtx(s)),
                                              ElimAlgo.FAB, pre_eval=False)),
                    meval)))
            assert runs[0] == runs[1], cfg.seed

    def test_a_tree_shared_past_any_budget_costs_its_nodes(self):
        app, s = _hash_consing(), MConst(defs_for(ElimAlgo.FAB)["S"].value)
        m = MConst(VInt(0))
        for _ in range(100):  # S m m: a tree of 2**101 - 2 applications
            m = app(app(s, m), m)
        assert len(_folded_nodes(m)) == 200
        assert m.cost == count_apps(m) == 2 ** 101 - 2
        assert isinstance(call_deep(meval, m), VFun)  # no budget
        obs = _observe_term(m, 10 ** 6)
        assert (obs.kind, obs.steps) == ("limit", 10 ** 6)
        assert isinstance(obs.error, StepLimitExceeded)

    def test_a_folded_node_is_the_same_application(self):
        k, one = MConst(defs_for(ElimAlgo.FAB)["K"].value), MConst(VInt(1))
        folded, plain = _hash_consing()(k, one), PApp(k, one)
        assert (folded.cost, plain.cost) == (1, 0)
        assert folded == plain and hash(folded) == hash(plain)
        assert repr(folded) == repr(plain)
        match folded:
            case PApp(f, a):
                assert (f, a) == (k, one)
            case _:
                pytest.fail("a folded node does not match PApp(f, a)")

    def test_what_may_not_be_folded_is_left_to_run_time(self):
        app = _hash_consing()
        plus, k = MConst(PLUS), MConst(defs_for(ElimAlgo.FAB)["K"].value)
        full = app(app(plus, MConst(VInt(1))), MConst(VInt(2)))
        assert (full.fn.cost, full.cost) == (1, 0)  # the last argument
        assert app(plus, k).cost == 0  # plus rejects a function
        assert app(MConst(FUN_IF), MConst(VBool(True))).cost == 0  # impure
        assert app(k, app(k, PVar("x"))).cost == 0  # not a constant

    @pytest.mark.parametrize("src", ["\\x. \\y. x", "plus 1"])
    def test_a_folded_function_result_is_a_plain_stage(self, src):
        assert self.fab(src).cost  # the whole term is folded
        obs = observe_combinator(src, ElimAlgo.FAB)
        assert obs.kind == "value"
        assert fun_meta(obs.value) is None
        assert format_value(obs.value) == "<fun>"


class TestTransform:
    @pytest.mark.parametrize("algo", list(ElimAlgo))
    def test_identity_function(self, algo):
        m = transform(PAbs("x", PVar("x")), algo)
        assert meval(MApp(m, MConst(VInt(7)))) == VInt(7)

    @pytest.mark.parametrize("algo", list(ElimAlgo))
    def test_two_argument_projection(self, algo):
        m = transform(PAbs("x", PAbs("y", PVar("x"))), algo)
        assert meval(MApp(MApp(m, MConst(VInt(1))), MConst(VInt(2)))) == VInt(1)

    @pytest.mark.parametrize("algo", list(ElimAlgo))
    def test_surface_program(self, algo):
        assert run_surface("((\\x. x + 1) 41)", algo) == VInt(42)
        assert run_surface("((\\x. \\y. x - y) 10) 3", algo) == VInt(7)
        assert run_surface("(\\x. if x <= 2 then x else 0 fi) 2", algo) == VInt(2)

    def test_check_no_var_rejects_leftovers(self):
        with pytest.raises(UnexpectedNodeError):
            check_no_var(PVar("x"))
        with pytest.raises(UnexpectedNodeError):
            check_no_var(PApp(PConst(VInt(1)), PAbs("x", PVar("x"))))

    @settings(deadline=None)
    @given(st.integers(0, 1_000), st.sampled_from(list(ElimAlgo)))
    def test_random_programs_fully_eliminate(self, seed, algo):
        p = purify(gen_expr(GenConfig(seed=seed)), PurifyCtx(Store()))
        transform(p, algo)  # raises if a variable or binder survives


class TestPreEval:
    def test_folds_a_partial_pure_application(self):
        out = pre_eval(PApp(PConst(PLUS), PConst(VInt(2))))
        match out:
            case PConst(VFun() as f):
                assert fun_meta(f).comb_id == "plus"
                assert fun_meta(f).args_seen == 1
            case _:
                pytest.fail(f"not folded: {out!r}")

    def test_never_folds_the_last_argument(self):
        out = pre_eval(PApp(PApp(PConst(PLUS), PConst(VInt(1))),
                                PConst(VInt(2))))
        match out:
            case PApp(PConst(VFun() as f), PConst(VInt(2))):
                assert fun_meta(f).args_seen == 1
            case _:
                pytest.fail(f"unexpected shape: {out!r}")

    def test_never_folds_impure_functions(self):
        e = PApp(PConst(FUN_IF), PConst(VBool(True)))
        assert pre_eval(e) == e

    def test_never_folds_unannotated_functions(self):
        e = PApp(PConst(lambda x: x), PConst(VInt(1)))
        assert pre_eval(e) == e

    def test_declines_when_the_wrapper_rejects(self):
        # = on a function argument is an error; it must fire at run time
        e = PApp(PConst(EQ), PConst(lambda x: x))
        assert pre_eval(e) == e

    def test_default_on_for_c1_off_for_fab(self):
        p = PAbs("x", PAbs("y", PVar("x")))
        assert count_apps(elim(p, ElimAlgo.C1)) == 0
        assert count_apps(elim(p, ElimAlgo.FAB)) > 0
        assert count_apps(elim(p, ElimAlgo.C1, pre_eval=False)) > 0


class TestFunctionMetadata:
    """Only constants built at transform time carry a `meta`."""

    def test_roster_constants_print_by_name(self):
        s = defs_for(ElimAlgo.FAB)["S"].value
        assert fun_meta(s) == CombMeta("S", 3, 0, True)
        assert format_value(s) == "<S>"
        assert format_mexpr(MConst(s)) == "S"

    def test_a_folded_constant_carries_its_stage(self):
        k = defs_for(ElimAlgo.C2)["K"].value
        out = pre_eval(PApp(PConst(k), PConst(VInt(1))))
        assert type(out) is PConst and isinstance(out.value, VFun)
        assert fun_meta(out.value) == CombMeta("K", 2, 1, True)
        assert format_value(out.value) == "<K+1>"
        assert format_mexpr(out) == "<K+1>"
        assert fun_meta(k) == CombMeta("K", 2, 0, True)  # K itself unmarked

    def test_folding_twice_counts_both_arguments(self):
        s = PConst(defs_for(ElimAlgo.C2)["S"].value)
        i = PConst(defs_for(ElimAlgo.C2)["I"].value)
        out = pre_eval(PApp(PApp(s, i), i))
        assert fun_meta(out.value) == CombMeta("S", 3, 2, True)
        assert format_mexpr(out) == "<S+2>"

    def test_a_stage_made_at_run_time_has_none(self):
        k = defs_for(ElimAlgo.C2)["K"].value
        for stage in (apply_value(k, VInt(1)),
                      meval(MApp(MConst(k), MConst(VInt(1))))):
            assert isinstance(stage, VFun)
            assert fun_meta(stage) is None
            assert format_value(stage) == "<fun>"
            assert format_mexpr(MConst(stage)) == "<fun>"

    def test_non_functions_have_none(self):
        for v in (VInt(1), VBool(False), REG["nil"].value):
            assert fun_meta(v) is None


class TestSharedMeta:
    """Every fold of one function at one stage carries one CombMeta object."""

    def test_two_folds_of_one_combinator_share_their_meta(self):
        k = PConst(defs_for(ElimAlgo.C2)["K"].value)
        one, two = (pre_eval(PApp(k, PConst(VInt(n)))) for n in (1, 2))
        assert one.value is not two.value
        assert fun_meta(one.value) is fun_meta(two.value)
        assert fun_meta(one.value) == CombMeta("K", 2, 1, True)

    def test_a_second_fold_shares_the_next_meta(self):
        s = PConst(defs_for(ElimAlgo.C2)["S"].value)
        i = PConst(defs_for(ElimAlgo.C2)["I"].value)
        folds = [pre_eval(PApp(PApp(s, i), arg)) for arg in (i, s)]
        assert fun_meta(folds[0].value) is fun_meta(folds[1].value)
        assert fun_meta(folds[0].value) == CombMeta("S", 3, 2, True)

    @pytest.mark.parametrize("algo", list(ElimAlgo))
    def test_one_meta_per_stage_over_a_corpus(self, algo):
        metas = {}
        for p in _digest_programs():
            for t in _nodes(call_deep(elim, p, algo, pre_eval=True)).values():
                meta = type(t) is PConst and fun_meta(t.value)
                if meta and meta.args_seen:
                    metas.setdefault(meta, set()).add(id(meta))
        assert metas and all(len(ids) == 1 for ids in metas.values())


def _abstractions(p) -> list:
    found, todo = [], [p]
    while todo:
        t = todo.pop()
        if type(t) is PAbs:
            found.append(t)
            todo.append(t.body)
        elif type(t) is PApp:
            todo += [t.fn, t.arg]
    return found


class TestOccursCheck:
    def test_agrees_with_free_vars_on_every_thunk_body(self):
        thunks = 0
        for p in _digest_programs():
            for a in _abstractions(p):
                fv = free_vars(a.body)
                for x in fv | {a.param, "z"}:
                    assert _occurs_free(x, a.body) == (x in fv), (x, a)
                thunks += a.param == DUMMY_IDENT
        assert thunks > 100

    def test_a_shadowing_binder_hides_its_body(self):
        # \z. (plus (\z. z)) 1: the inner z is bound by the inner binder
        body = PApp(PApp(PConst(PLUS), PAbs("z", PVar("z"))), PConst(VInt(1)))
        assert not _occurs_free("z", body)
        assert _occurs_free("z", PApp(body, PAbs("y", PVar("z"))))

    def test_a_thunk_that_uses_its_binder_is_no_if_shape(self):
        def cond(then, other):
            return PApp(PApp(PApp(PConst(FUN_IF), PVar("c")), then), other)

        uses = PAbs("z", PVar("z"))
        ignores = PAbs("z", PConst(VInt(1)))
        shadows = PAbs("z", PAbs("z", PVar("z")))
        assert _match_if_shape(cond(ignores, shadows)) == (
            PVar("c"), ignores.body, shadows.body)
        assert _match_if_shape(cond(uses, ignores)) is None
        assert _match_if_shape(cond(ignores, uses)) is None


class TestCbvDiscipline:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2_000), st.sampled_from(list(ElimAlgo)),
           st.booleans())
    def test_transform_output_is_clean(self, seed, algo, pre):
        p = purify(gen_expr(GenConfig(seed=seed)), PurifyCtx(Store()))
        assert find_cbv_violations(elim(p, algo, pre_eval=pre)) == []

    def test_detects_a_planted_violation(self):
        k = defs_for(ElimAlgo.FAB)["K"].value
        bad_arg = MApp(MConst(PLUS), MConst(VInt(1)))
        found = find_cbv_violations(MApp(MApp(MConst(k), bad_arg),
                                         MConst(VInt(0))))
        assert [(v.comb_id, v.position) for v in found] == [("K", 0)]

    def test_distributed_positions_may_hold_applications(self):
        s = defs_for(ElimAlgo.FAB)["S"].value
        arg = MApp(MConst(PLUS), MConst(VInt(1)))
        assert find_cbv_violations(MApp(MApp(MConst(s), arg), arg)) == []

    def test_partially_applied_heads_are_skipped(self):
        k1 = app(defs_for(ElimAlgo.FAB)["K"].value, VInt(0))
        arg = MApp(MConst(PLUS), MConst(VInt(1)))
        assert find_cbv_violations(MApp(MConst(k1), arg)) == []

    def test_a_shared_violation_is_reported_once_in_linear_time(self):
        d = defs_for(ElimAlgo.FAB)
        bad_arg = MApp(MConst(PLUS), MConst(VInt(1)))
        bad = MApp(MApp(MConst(d["K"].value), bad_arg), MConst(VInt(0)))
        m = bad
        for _ in range(100):  # 2**100 occurrences of `bad` in the tree
            m = MApp(MApp(MConst(d["S"].value), m), m)
        found = find_cbv_violations(m)
        assert [(v.comb_id, v.position, v.offender) for v in found] == [
            ("K", 0, bad_arg)]
