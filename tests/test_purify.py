from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combterp.errors import EvalTypeError
from combterp.eval import eval as meval
from combterp.elim import ElimAlgo, transform
from combterp.frontend import parse
from combterp.purify import FUN_IF, PurifyCtx, make_get, make_set, purify
from combterp.refsem import RVar
from combterp.runtime import apply_value
from combterp.quickgen import GenConfig, gen_expr
from combterp.store import Store
from combterp.syntax import (DUMMY_IDENT, DUMMY_VAL, EGet, EIf, ESet, Node,
                             PAbs, PApp, PConst, PVar, VBool, VFun, VInt,
                             fun_meta)


def _is_pexpr(e) -> bool:
    match e:
        case PConst() | PVar():
            return True
        case PAbs(_, b):
            return _is_pexpr(b)
        case PApp(f, a):
            return _is_pexpr(f) and _is_pexpr(a)
    return False


def _children(e) -> list:
    return [v for v in map(e.__getattribute__, e._fields)
            if isinstance(v, Node)]


def _pure_subtrees(e) -> list:
    """The largest subtrees of `e` without a conditional, get or set."""
    below = [_pure_subtrees(c) for c in _children(e)]
    if type(e) not in (EIf, EGet, ESet) and all(
            len(s) == 1 and s[0] is c for s, c in zip(below, _children(e))):
        return [e]
    return [t for s in below for t in s]


def _node_ids(e) -> set:
    ids, todo = set(), [e]
    while todo:
        t = todo.pop()
        ids.add(id(t))
        todo.extend(_children(t))
    return ids


class TestShapes:
    def test_conditional_becomes_if_application_with_thunks(self):
        p = purify(parse("if true then 1 else 2 fi"), PurifyCtx(Store()))
        match p:
            case PApp(PApp(PApp(PConst(f), PConst(VBool(True))), t), o):
                assert f is FUN_IF
                assert t == PAbs(DUMMY_IDENT, PConst(VInt(1)))
                assert o == PAbs(DUMMY_IDENT, PConst(VInt(2)))
            case _:
                pytest.fail(f"unexpected shape: {p!r}")

    def test_get_becomes_application_to_dummy(self):
        ctx = PurifyCtx(Store({"t": VInt(1)}))
        p = purify(EGet("t"), ctx)
        match p:
            case PApp(PConst(VFun() as g), PConst(d)):
                assert d is DUMMY_VAL
                assert fun_meta(g).comb_id == "get!t"
                assert not fun_meta(g).pure
            case _:
                pytest.fail(f"unexpected shape: {p!r}")

    def test_set_wraps_inner_expression(self):
        ctx = PurifyCtx(Store())
        p = purify(ESet("t", parse("3")), ctx)
        match p:
            case PApp(PConst(VFun() as f), PConst(VInt(3))):
                assert fun_meta(f).comb_id == "set!t"
                assert not fun_meta(f).pure
            case _:
                pytest.fail(f"unexpected shape: {p!r}")

    def test_effect_functions_are_cached_per_tag(self):
        ctx = PurifyCtx(Store())
        assert make_get("t", ctx) is make_get("t", ctx)
        assert make_set("t", ctx) is make_set("t", ctx)
        assert make_get("t", ctx) is not make_get("u", ctx)

    @given(st.integers(0, 5_000))
    def test_output_is_purely_functional(self, seed):
        ctx = PurifyCtx(Store())
        assert _is_pexpr(purify(gen_expr(GenConfig(seed=seed)), ctx))

    def test_a_program_without_conditional_get_or_set_is_its_own_form(self):
        e = parse("(\\f. \\x. f (f x)) (\\y. y + 1) 3")
        assert purify(e, PurifyCtx(Store())) is e

    def test_only_the_nodes_above_a_rewrite_are_rebuilt(self):
        e = parse("(\\x. (\\y. y) (if x then (\\z. z) 1 else 2 fi)) true")
        p = purify(e, PurifyCtx(Store()))
        assert p is not e and p.arg is e.arg  # `true`
        assert p.fn.body.fn is e.fn.body.fn  # `\y. y`
        kept = _node_ids(p)
        assert all(id(s) in kept for s in _pure_subtrees(e))

    @given(st.integers(0, 5_000))
    def test_every_subtree_without_a_rewrite_is_shared(self, seed):
        e = gen_expr(GenConfig(seed=seed))
        p = purify(e, PurifyCtx(Store()))
        pure = _pure_subtrees(e)
        assert (p is e) == any(s is e for s in pure)
        kept = _node_ids(p)
        assert all(id(s) in kept for s in pure)

    @pytest.mark.parametrize("e", [RVar("x"), VInt(1), None])
    def test_a_non_expr_is_rejected(self, e):
        with pytest.raises(TypeError, match="not an Expr"):
            purify(e, PurifyCtx(Store()))

    def test_purify_touches_no_store(self):
        s = Store({"t": VInt(1)})
        purify(parse("(t := (!t + 1))"), PurifyCtx(s))
        assert s.trace == []


def apply_if(cond, then_branch, else_branch):
    return apply_value(apply_value(apply_value(FUN_IF, cond), then_branch),
                       else_branch)


class TestIfConstant:
    def test_selects_then(self):
        t = lambda _: VInt(1)
        o = lambda _: VInt(2)
        assert apply_if(VBool(True), t, o) == VInt(1)
        assert apply_if(VBool(False), t, o) == VInt(2)

    def test_rejects_non_boolean_condition(self):
        f = lambda _: VInt(0)
        with pytest.raises(EvalTypeError):
            apply_if(VInt(1), f, f)

    def test_rejects_non_function_branch(self):
        with pytest.raises(EvalTypeError):
            apply_if(VBool(True), VInt(1), lambda _: VInt(0))

    def test_if_is_marked_impure(self):
        assert fun_meta(FUN_IF).pure is False


class TestEndToEnd:
    @pytest.mark.parametrize("algo", list(ElimAlgo))
    def test_untaken_branch_never_runs(self, algo):
        s = Store({"t": VInt(7)})
        ctx = PurifyCtx(s)
        p = purify(parse("if false then (t := 0) else !t fi"), ctx)
        assert meval(transform(p, algo)) == VInt(7)
        assert [ev.kind for ev in s.trace] == ["get"]
        assert s.bindings["t"] == VInt(7)
