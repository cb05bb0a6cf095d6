from __future__ import annotations

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combterp.errors import EvalTypeError
from combterp.externs import compose_embed, registry
from combterp.runtime import apply_value
from combterp.syntax import VBool, VFun, VInt, VList, fun_meta

REG = registry()
ints = st.integers(-1000, 1000)


def app(name, *args):
    return functools.reduce(apply_value, args, REG[name].value)


class TestArithmetic:
    @given(ints, ints)
    def test_int_ops_match_python(self, a, b):
        assert app("plus", VInt(a), VInt(b)) == VInt(a + b)
        assert app("minus", VInt(a), VInt(b)) == VInt(a - b)
        assert app("times", VInt(a), VInt(b)) == VInt(a * b)

    @given(ints, ints)
    def test_comparisons_match_python(self, a, b):
        assert app("leq", VInt(a), VInt(b)) == VBool(a <= b)
        assert app("lt", VInt(a), VInt(b)) == VBool(a < b)
        assert app("eq", VInt(a), VInt(b)) == VBool(a == b)

    def test_int_ops_reject_non_integers(self):
        for name in ("plus", "minus", "times", "leq", "lt"):
            with pytest.raises(EvalTypeError):
                app(name, VBool(True), VInt(1))
            with pytest.raises(EvalTypeError):
                app(name, VInt(1), VList(()))


class TestEquality:
    def test_compares_mixed_ground_values(self):
        assert app("eq", VInt(1), VBool(True)) == VBool(False)
        assert app("eq", VList((VInt(1),)), VList((VInt(1),))) == VBool(True)

    def test_rejects_functions(self):
        f = lambda x: x
        with pytest.raises(EvalTypeError):
            app("eq", f, f)
        with pytest.raises(EvalTypeError):
            app("eq", VInt(1), f)


class TestLists:
    @given(st.lists(ints, max_size=10))
    def test_cons_head_tail_isnil(self, xs):
        l = REG["nil"].value
        for x in reversed(xs):
            l = app("cons", VInt(x), l)
        assert l == VList(tuple(VInt(x) for x in xs))
        assert app("isnil", l) == VBool(not xs)
        if xs:
            assert app("head", l) == VInt(xs[0])
            assert app("tail", l) == VList(tuple(VInt(x) for x in xs[1:]))

    def test_head_tail_of_nil(self):
        with pytest.raises(EvalTypeError):
            app("head", VList(()))
        with pytest.raises(EvalTypeError):
            app("tail", VList(()))

    def test_list_ops_reject_non_lists(self):
        with pytest.raises(EvalTypeError):
            app("cons", VInt(1), VInt(2))
        with pytest.raises(EvalTypeError):
            app("isnil", VInt(1))

    @given(st.lists(ints, max_size=10), ints)
    def test_filter_matches_a_comprehension(self, xs, pivot):
        pred = lambda v: VBool(v.n <= pivot)
        got = app("filter", pred, VList(tuple(VInt(x) for x in xs)))
        assert got == VList(tuple(VInt(x) for x in xs if x <= pivot))

    def test_filter_requires_boolean_predicate(self):
        with pytest.raises(EvalTypeError):
            app("filter", lambda v: v, VList((VInt(1),)))


class TestCompose:
    @given(ints)
    def test_composes_right_to_left(self, x):
        inc = app("plus", VInt(1))
        double = app("times", VInt(2))
        assert app("compose", inc, double, VInt(x)) == VInt(2 * x + 1)

    def test_rejects_non_functions(self):
        with pytest.raises(EvalTypeError):
            apply_value(compose_embed(), VInt(1))
        with pytest.raises(EvalTypeError):
            app("compose", lambda v: v, VInt(1))


class TestRegistry:
    def test_metadata(self):
        arity = {"plus": 2, "minus": 2, "times": 2, "leq": 2, "lt": 2,
                 "eq": 2, "cons": 2, "head": 1, "tail": 1, "isnil": 1,
                 "compose": 3, "filter": 2}
        for name, d in REG.items():
            assert d.name == name
            if isinstance(d.value, VFun):
                meta = fun_meta(d.value)
                assert meta.comb_id == name
                assert meta.total_arity == arity.pop(name)
                assert meta.pure
            else:
                assert d.value == VList(())
        assert not arity

    def test_returns_a_copy(self):
        r = registry()
        r.pop("plus")
        assert "plus" in registry()
