from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combterp.errors import EvalTypeError
from combterp.eval import eval as meval
from combterp.elim import ElimAlgo, transform
from combterp.frontend import parse
from combterp.purify import FUN_IF, PurifyCtx, make_get, make_set, purify
from combterp.runtime import apply_value
from combterp.quickgen import GenConfig, gen_expr
from combterp.store import Store
from combterp.syntax import (DUMMY_IDENT, DUMMY_VAL, EGet, EIf, ESet, PAbs,
                             PApp, PConst, PVar, VBool, VFun, VInt, fun_meta)


def _is_pexpr(e) -> bool:
    match e:
        case PConst() | PVar():
            return True
        case PAbs(_, b):
            return _is_pexpr(b)
        case PApp(f, a):
            return _is_pexpr(f) and _is_pexpr(a)
    return False


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

    @pytest.mark.parametrize("e", [PVar("x"), VInt(1), None])
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
