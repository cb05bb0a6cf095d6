from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combterp.classical import (Closure, classical_registry, retarget_externs,
                                run_classical)
from combterp.errors import (EvalTypeError, StepLimitExceeded, UnboundTagError,
                             UnboundVarError)
from combterp.frontend import parse
from combterp.quickgen import GenConfig, gen_expr
from combterp.runtime import call_deep, fuel
from combterp.store import Store
from combterp.syntax import (EConst, Node, VBool, VInt, VList, fun_meta)


def run(src, initial=None):
    s = Store(initial)
    e = retarget_externs(parse(src), classical_registry(s))
    return run_classical(e, s), s


class TestEvaluation:
    @given(st.integers(0, 99), st.integers(0, 99))
    def test_arithmetic_matches_python(self, a, b):
        assert run(f"{a} + {b}")[0] == VInt(a + b)
        assert run(f"{a} * {b}")[0] == VInt(a * b)
        assert run(f"{a} <= {b}")[0] == VBool(a <= b)

    def test_beta(self):
        assert run("((\\x. x + 1) 41)")[0] == VInt(42)

    def test_closure_captures_environment(self):
        assert run("(((\\x. \\y. x - y) 10) 3)")[0] == VInt(7)

    def test_abstraction_evaluates_to_closure(self):
        v, _ = run("\\x. x")
        assert isinstance(v, Closure)

    def test_shadowing(self):
        assert run("((\\x. ((\\x. x) 2) + x) 1)")[0] == VInt(3)

    def test_higher_order_compose(self):
        assert run("(((compose (\\x. x * 2)) (\\x. x + 1)) 10)")[0] == VInt(22)

    def test_filter(self):
        assert run("((filter (\\x. 2 <= x)) [1, 2, 3, 0])")[0] == VList(
            (VInt(2), VInt(3)))

    def test_omega_fib(self):
        src = """(((\\f.(f f))
                   (\\f. \\n. if n <= 1 then 1
                             else ((f f) (n - 2)) + ((f f) (n - 1)) fi)) 10)"""
        assert run(src)[0] == VInt(89)  # 1 1 2 3 5 8 13 21 34 55 89


class TestEffects:
    def test_set_returns_value_and_records(self):
        v, s = run("t := 5")
        assert v == VInt(5)
        assert s.bindings == {"t": VInt(5)}

    def test_get_reads_current_binding(self):
        v, s = run("((\\d. !t) (t := 4)) + !t", initial={"t": VInt(0)})
        assert v == VInt(8)
        assert [ev.kind for ev in s.trace] == ["set", "get", "get"]

    def test_operator_evaluated_before_operand(self):
        _, s = run("((\\d. \\e. 0) (t := 1)) (t := 2)")
        assert [ev.value for ev in s.trace] == [VInt(1), VInt(2)]

    def test_condition_chooses_branch_without_evaluating_other(self):
        v, s = run("if true then 1 else (t := 9) fi")
        assert v == VInt(1)
        assert s.trace == []
        assert "t" not in s.bindings


class TestErrors:
    def test_unbound_variable(self):
        with pytest.raises(UnboundVarError):
            run("x")

    def test_unbound_tag(self):
        with pytest.raises(UnboundTagError):
            run("!missing")

    def test_apply_non_function(self):
        with pytest.raises(EvalTypeError):
            run("1 2")

    def test_non_boolean_condition(self):
        with pytest.raises(EvalTypeError):
            run("if 1 then 2 else 3 fi")

    def test_step_budget_stops_divergence(self):
        s = Store()
        e = retarget_externs(parse("((\\w. w w) (\\w. w w))"),
                             classical_registry(s))
        with pytest.raises(StepLimitExceeded):
            with fuel(1_000):
                call_deep(run_classical, e, s)


def _pairs(a, b):
    """The corresponding nodes of two surface trees of one shape."""
    yield a, b
    for f in a._fields:
        x = getattr(a, f)
        if isinstance(x, Node):
            yield from _pairs(x, getattr(b, f))


def _rebinds(e, reg) -> bool:
    """Whether `e` holds an extern constant the registry binds to another value."""
    if type(e) is EConst:
        meta = fun_meta(e.value)
        return (meta is not None and meta.comb_id in reg
                and reg[meta.comb_id].value is not e.value)
    return any(_rebinds(getattr(e, f), reg) for f in e._fields
               if isinstance(getattr(e, f), Node))


class TestRetargetExterns:
    PROGRAMS = ["((compose (\\x. x * 2)) (\\x. x + 1)) (if true then !t else (t := 3) fi)",
                "(filter (\\x. 2 <= x)) [1, 2]", "(\\x. x + 1) 2"]

    def test_only_what_holds_a_rebound_extern_is_rebuilt(self):
        reg = classical_registry(Store())
        programs = [parse(src) for src in self.PROGRAMS]
        programs += [gen_expr(GenConfig(seed, allow_effects=True))
                     for seed in range(200)]
        rebuilt = 0
        for e in programs:
            out = retarget_externs(e, reg)
            for x, y in _pairs(e, out):
                if _rebinds(x, reg):
                    rebuilt += 1
                    assert y is not x and type(y) is type(x)
                    if type(x) is EConst:
                        assert y.value is reg[fun_meta(x.value).comb_id].value
                else:
                    assert y is x
        assert rebuilt >= 8
