from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combterp.refsem import RAbs, RApp, RFunConst, RVar
from combterp.syntax import (MApp, MConst, PAbs, PApp, PConst, PVar, EAbs,
                             EApp, EIf, ESet, EVar, VBool, VDummy, VInt, VList,
                             count_apps, format_mexpr, format_value, free_vars,
                             is_ground, value_ground_eq, with_meta)

ints = st.lists(st.integers(-50, 50), max_size=12)


class TestVList:
    @given(ints)
    def test_items_round_trip(self, xs):
        l = VList(tuple(VInt(x) for x in xs))
        assert [v.n for v in l.items] == xs
        assert l.length == len(xs)

    def test_cons_head_tail(self):
        l = VList((VInt(2), VInt(3)))
        l2 = VList.cons(VInt(1), l)
        assert l2.first == VInt(1)
        assert l2.rest is l  # structure sharing, no copying
        assert l2.length == 3

    def test_empty(self):
        assert VList().is_empty
        assert not VList((VInt(1),)).is_empty

    @given(ints, ints)
    def test_equality_is_elementwise(self, xs, ys):
        a = VList(tuple(VInt(x) for x in xs))
        b = VList(tuple(VInt(y) for y in ys))
        assert (a == b) == (xs == ys)
        if xs == ys:
            assert hash(a) == hash(b)

    def test_not_equal_to_tuples(self):
        assert VList((VInt(1),)).__eq__((VInt(1),)) is NotImplemented


class TestGroundValues:
    def test_is_ground(self):
        assert is_ground(VInt(3))
        assert is_ground(VBool(False))
        assert is_ground(VDummy())
        assert is_ground(VList((VInt(1), VList())))
        assert not is_ground(lambda x: x)
        assert not is_ground(VList((lambda x: x,)))

    def test_value_ground_eq(self):
        assert value_ground_eq(VInt(3), VInt(3))
        assert not value_ground_eq(VInt(3), VInt(4))
        assert not value_ground_eq(VInt(1), VBool(True))
        assert value_ground_eq(VList((VInt(1),)), VList((VInt(1),)))
        f = lambda x: x
        assert value_ground_eq(f, f)  # identity only
        assert not value_ground_eq(f, lambda x: x)
        assert not value_ground_eq(f, VInt(0))

    def test_format_value(self):
        assert format_value(VInt(-2)) == "-2"
        assert format_value(VBool(True)) == "true"
        assert format_value(VList((VInt(1), VInt(2)))) == "[1, 2]"
        assert format_value(with_meta(lambda x: x, "S", 3)) == "<S>"


# random tree with a known number of application nodes
def _papp_tree(rng_bits, depth=0):
    if depth > 6 or not rng_bits:
        return PConst(VInt(0)), 0
    bit, rest = rng_bits[0], rng_bits[1:]
    if bit:
        half = len(rest) // 2
        f, nf = _papp_tree(rest[:half], depth + 1)
        a, na = _papp_tree(rest[half:], depth + 1)
        return PApp(f, a), 1 + nf + na
    return PVar("x"), 0


class TestMetrics:
    @given(st.lists(st.booleans(), max_size=40))
    def test_count_apps_matches_construction(self, bits):
        e, n = _papp_tree(bits)
        assert count_apps(e) == n

    def test_count_apps_mexpr(self):
        e = MApp(MApp(MConst(VInt(1)), MConst(VInt(2))), MConst(VInt(3)))
        assert count_apps(e) == 2

    def test_free_vars(self):
        e = EAbs("x", EApp(EVar("x"), EVar("y")))
        assert free_vars(e) == {"y"}
        assert free_vars(EIf(EVar("a"), EVar("b"), EVar("c"))) == {"a", "b", "c"}
        assert free_vars(ESet("t", EVar("z"))) == {"z"}
        assert free_vars(PAbs("x", PVar("x"))) == frozenset()

    def test_format_mexpr(self):
        s = MConst(with_meta(lambda x: x, "S", 3))
        i = MConst(with_meta(lambda x: x, "I", 1))
        assert format_mexpr(MApp(MApp(s, i), i)) == "((S I) I)"
        assert format_mexpr(MConst(VInt(7))) == "7"


class TestVFun:
    def test_repr_shows_partial_application(self):
        # a function value prints through its meta, not its Python repr
        f = with_meta(lambda x: x, "K", 2, args_seen=1)
        assert format_value(f) == "<K+1>"
        assert format_value(lambda x: x) == "<fun>"

    def test_format_value_rejects_non_values(self):
        with pytest.raises(TypeError):
            format_value(object())


def _ptree():
    return PApp(PAbs("x", PApp(PVar("x"), PConst(VInt(1)))), PVar("y"))


def _rtree():
    return RApp(RAbs("x", RApp(RVar("x"), RFunConst("int:1"))), RVar("y"))


class TestNodes:
    @pytest.mark.parametrize("build", [_ptree, _rtree])
    def test_equal_trees_are_equal_and_hash_alike(self, build):
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_fields_are_unequal(self):
        assert PVar("x") != PVar("y")
        assert PApp(PVar("x"), PVar("y")) != PApp(PVar("y"), PVar("x"))
        assert RAbs("x", RVar("x")) != RAbs("y", RVar("x"))

    def test_same_fields_in_other_classes_are_unequal(self):
        assert PVar("x") != RVar("x")
        assert RVar("x") != PVar("x")
        assert PApp(PVar("x"), PVar("y")) != RApp(PVar("x"), PVar("y"))
        assert RVar("x") != RFunConst("x")
        assert PConst(VInt(1)) != VInt(1)

    def test_positional_match(self):
        match _ptree():
            case PApp(PAbs(x, PApp(PVar(y), PConst(VInt(n)))), PVar(z)):
                assert (x, y, n, z) == ("x", "x", 1, "y")
            case _:
                pytest.fail("no match")
        match _rtree():
            case RApp(RAbs(x, RApp(RVar(y), RFunConst(sym))), RVar(z)):
                assert (x, y, sym, z) == ("x", "x", "int:1", "y")
            case _:
                pytest.fail("no match")

    def test_repr(self):
        assert repr(PConst(VInt(1))) == "PConst(value=VInt(n=1))"
        assert repr(PVar("x")) == "PVar(name='x')"
        assert repr(PAbs("x", PVar("x"))) == "PAbs(param='x', body=PVar(name='x'))"
        assert (repr(PApp(PVar("f"), PVar("a")))
                == "PApp(fn=PVar(name='f'), arg=PVar(name='a'))")
        assert repr(RVar("x")) == "RVar(name='x')"
        assert repr(RFunConst("if")) == "RFunConst(sym='if')"
        assert repr(RAbs("x", RVar("x"))) == "RAbs(param='x', body=RVar(name='x'))"
        assert (repr(RApp(RVar("f"), RVar("a")))
                == "RApp(fn=RVar(name='f'), arg=RVar(name='a'))")
