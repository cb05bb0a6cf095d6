from __future__ import annotations

import re

import pytest

from combterp.classical import Closure, Env
from combterp.compare import (CompareResult, Observation, _observe,
                              compare_expr, compare_observations,
                              normalize_value, observe_classical,
                              observe_combinator)
from combterp.elim import ElimAlgo
from combterp.frontend import parse
from combterp.store import Store
from combterp.syntax import EVar, VBool, VInt, VList

ALGOS = list(ElimAlgo)


def check(src, initial=None, budget=200_000):
    return compare_expr(parse(src), ALGOS, initial=initial, budget=budget)


class TestNormalize:
    def test_functions_collapse_to_a_token(self):
        assert normalize_value(lambda x: x) == "fun"
        assert normalize_value(Closure("x", EVar("x"), Env())) == "fun"

    def test_ground_values_pass_through(self):
        assert normalize_value(VInt(3)) == VInt(3)
        l = VList((VInt(1), VBool(True)))
        assert normalize_value(l) is l

    def test_lists_holding_functions_normalize_elementwise(self):
        got = normalize_value(VList((VInt(1), lambda x: x)))
        assert got == (VInt(1), "fun")


class TestObserve:
    def test_classical_value(self):
        obs = observe_classical(parse("1 + 2"))
        assert (obs.kind, obs.value) == ("value", VInt(3))

    def test_combinator_effects_are_observed(self):
        obs = observe_combinator(parse("(t := 4) + !t"), ElimAlgo.C1)
        assert obs.value == VInt(8)
        assert obs.trace == (("set", "t", VInt(4)), ("get", "t", VInt(4)))
        assert obs.bindings == (("t", VInt(4)),)

    def test_outcome_classes(self):
        assert observe_classical(parse("1 2")).kind == "type_error"
        assert observe_classical(parse("!nope")).kind == "unbound_tag"
        omega = parse("(\\w. w w) (\\w. w w)")
        limited = observe_classical(omega, budget=5_000)
        assert limited.kind == "limit" and limited.excluded

    @pytest.mark.parametrize("budget", [None, -5, -1, 2.0, "10", True])
    def test_a_budget_that_is_not_a_non_negative_integer_is_rejected(self,
                                                                     budget):
        message = re.escape(f"got {budget!r}")
        with pytest.raises(ValueError, match=message):
            observe_classical(parse("1 + 2"), budget=budget)
        with pytest.raises(ValueError, match=message):
            observe_combinator(parse("1 + 2"), ElimAlgo.C2, budget=budget)
        ran = []
        with pytest.raises(ValueError, match=message):
            _observe(Store(), budget, lambda: ran.append("prepare"),
                     lambda _: ran.append("run"))
        assert ran == []

    def test_a_zero_budget_runs_what_applies_nothing(self):
        obs = observe_classical(parse("1"), budget=0)
        assert (obs.kind, obs.value, obs.steps) == ("value", VInt(1), 0)
        for algo in ElimAlgo:
            obs = observe_combinator(parse("1 + 2"), algo, budget=0)
            assert (obs.kind, obs.steps) == ("limit", 0)


# far past the caller's recursion limit: an application chain and a list
CHAIN = "(\\x. x) " * 1500 + "1"
LIST = "[" + ", ".join(map(str, range(3000))) + "]"


class TestDeepPrograms:
    """Every pass of an observed run is on the deep stack, the front half too."""

    def test_classical(self):
        obs = observe_classical(parse(CHAIN))
        assert (obs.kind, obs.value, obs.steps) == ("value", VInt(1), 1500)
        obs = observe_classical(parse(LIST))
        assert obs.kind == "value" and obs.value.length == 3000

    @pytest.mark.parametrize("algo", ALGOS)
    def test_combinator(self, algo):
        obs = observe_combinator(parse(CHAIN), algo)
        assert (obs.kind, obs.value, obs.steps) == ("value", VInt(1), 1500)
        obs = observe_combinator(parse(LIST), algo)
        assert obs.kind == "value" and obs.value.length == 3000

    def test_source_text_is_parsed_on_the_deep_stack(self):
        assert observe_classical(CHAIN).value == VInt(1)
        for algo in ALGOS:
            assert observe_combinator(LIST, algo).value.length == 3000


class TestCompareObservations:
    def test_agreement(self):
        a = Observation("value", VInt(1))
        assert compare_observations(a, Observation("value", VInt(1))).agree

    def test_kind_mismatch(self):
        r = compare_observations(Observation("value", VInt(1)),
                                 Observation("type_error"))
        assert not r.agree and "outcome" in r.detail

    def test_trace_mismatch(self):
        r = compare_observations(Observation("value", VInt(1),
                                             trace=(("set", "t", VInt(1)),)),
                                 Observation("value", VInt(1)))
        assert not r.agree and "trace" in r.detail

    def test_binding_mismatch(self):
        r = compare_observations(Observation("value", VInt(1),
                                             bindings=(("t", VInt(1)),)),
                                 Observation("value", VInt(1)))
        assert not r.agree and "bindings" in r.detail

    def test_value_mismatch(self):
        r = compare_observations(Observation("value", VInt(1)),
                                 Observation("value", VInt(2)))
        assert not r.agree and "values" in r.detail

    def test_a_list_holding_a_closure_is_reported(self):
        a = observe_classical("cons (\\x. x) nil")
        r = compare_observations(a, Observation("value", VList((VInt(1),))))
        assert not r.agree and r.detail == "values [<fun>] vs [1]"

    def test_functions_agree_as_a_class(self):
        a = Observation("value", lambda x: x)
        b = Observation("value", Closure("x", EVar("x"), Env()))
        assert compare_observations(a, b).agree

    def test_excluded_sides_never_disagree(self):
        r = compare_observations(Observation("limit"),
                                 Observation("value", VInt(1)))
        assert r.agree and r.excluded


class TestCompareExpr:
    @pytest.mark.parametrize("src,initial", [
        ("((\\x. x + 1) 41)", None),
        ("((\\d. !t) (t := 4)) + !t", {"t": VInt(0)}),
        ("if 1 then 2 else 3 fi", None),          # type error on both sides
        ("1 + !missing", None),                   # unbound tag on both sides
        ("\\x. x", None),                         # function-valued result
        ("((filter (\\x. 2 <= x)) [1, 2, 3])", None),
    ])
    def test_hand_programs_agree(self, src, initial):
        for algo, r in check(src, initial).items():
            assert r.agree and not r.excluded, (algo, r.detail)

    def test_divergence_is_excluded(self):
        for r in check("(\\w. w w) (\\w. w w)", budget=20_000).values():
            assert r.excluded and r.agree
