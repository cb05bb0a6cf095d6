from __future__ import annotations

import functools
import gc
import sys
import threading
import traceback
import weakref

import pytest

from combterp import externs, run_source
from combterp.classical import happ
from combterp.compare import observe_classical, observe_combinator
from combterp.elim import ElimAlgo, make_combinators, transform
from combterp.errors import EvalTypeError, StepLimitExceeded
from combterp.eval import eval as meval
from combterp.frontend import parse
from combterp.purify import PurifyCtx, purify
from combterp.runtime import apply_value, call_deep, fuel, remaining
from combterp.store import Store
from combterp.syntax import (DUMMY_VAL, EAbs, EApp, EConst, EIf, EVar, MApp,
                             MConst, VBool, VFun, VInt, VList, format_value)

PLUS = externs.registry()["plus"].value
DEFS = make_combinators(ElimAlgo.FAB)


def c(v):
    return MConst(v)


class TestEval:
    def test_constant(self):
        v = VInt(3)
        assert meval(c(v)) is v

    def test_application(self):
        assert meval(MApp(MApp(c(PLUS), c(VInt(1))), c(VInt(2)))) == VInt(3)

    def test_skk_is_identity(self):
        s, k = DEFS["S"].value, DEFS["K"].value
        skk = MApp(MApp(c(s), c(k)), c(k))
        assert meval(MApp(skk, c(VInt(7)))) == VInt(7)

    def test_operator_evaluated_before_operand(self):
        log = []

        def tap(tag, result):
            return lambda v: (log.append(tag), result)[1]

        ident = lambda v: v
        e = MApp(MApp(c(tap("f", ident)), c(VInt(0))),
                 MApp(c(tap("g", VInt(1))), c(VInt(0))))
        assert meval(e) == VInt(1)
        assert log == ["f", "g"]

    def test_apply_non_function(self):
        with pytest.raises(EvalTypeError):
            meval(MApp(c(VInt(1)), c(VInt(2))))

    def test_step_budget_stops_divergence(self):
        s, i = c(DEFS["S"].value), c(DEFS["I"].value)
        sii = MApp(MApp(s, i), i)
        with pytest.raises(StepLimitExceeded):
            with fuel(500):
                call_deep(meval, MApp(sii, sii))

    def test_rejects_non_terms(self):
        with pytest.raises(TypeError):
            meval(VInt(1))


NON_FUNCTIONS = [VInt(1), VBool(True), VList(()), DUMMY_VAL]
SCHEMES = ["classical", *ElimAlgo]


def _programs(w):
    """Programs that apply `w` to an argument, each in a different place."""
    one = EConst(VInt(1))
    return [
        EApp(EConst(w), EConst(VInt(2))),                       # w 2
        EApp(EAbs("f", EApp(EVar("f"), one)), EConst(w)),       # (\f. f 1) w
        EApp(EAbs("f", EIf(EApp(EVar("f"), one), EConst(VInt(2)),
                           EConst(VInt(3)))), EConst(w)),       # if (f 1) ...
        EApp(EApp(EAbs("f", EAbs("g", EApp(EVar("f"), EVar("g")))),
                  EConst(w)), EConst(VInt(5))),                 # (\f.\g. f g) w 5
    ]


# Observation.steps of each of `_programs`, under each scheme's default
# pre-evaluation, as counted before function values became plain Python
# functions
CONTRACT_STEPS = {"classical": [0, 1, 1, 2], ElimAlgo.FAB: [0, 7, 31, 23],
                  ElimAlgo.C1: [0, 3, 4, 8], ElimAlgo.C2: [0, 3, 4, 6]}


def _observe(scheme, e, budget=100_000):
    if scheme == "classical":
        return observe_classical(e, budget=budget)
    return observe_combinator(e, scheme, budget=budget)


def _message(w):
    return f"cannot apply non-function value {format_value(w)}"


def _failure(thunk, budget=100):
    """The EvalTypeError message of `thunk()` and the fuel it spent."""
    with fuel(budget):
        with pytest.raises(EvalTypeError) as info:
            thunk()
        return str(info.value), budget - remaining()


@pytest.mark.parametrize("w", NON_FUNCTIONS, ids=lambda w: type(w).__name__)
class TestApplicationContract:
    """Applying a non-function raises today's EvalTypeError, wherever it is."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=str)
    def test_every_scheme_ends_in_a_type_error(self, w, scheme):
        got = [_observe(scheme, e) for e in _programs(w)]
        assert [o.kind for o in got] == ["type_error"] * 4
        assert [str(o.error) for o in got] == [_message(w)] * 4
        assert [o.steps for o in got] == CONTRACT_STEPS[scheme]

    @pytest.mark.parametrize("scheme", SCHEMES, ids=str)
    def test_type_error_comes_before_budget_exhaustion(self, w, scheme):
        obs = _observe(scheme, _programs(w)[0], budget=0)
        assert (obs.kind, obs.steps) == ("type_error", 0)

    def test_apply_value_spends_nothing_on_it(self, w):
        assert _failure(lambda: apply_value(w, VInt(0))) == (_message(w), 0)

    def test_eval_spends_nothing_on_it(self, w):
        e = MApp(c(w), c(VInt(0)))
        assert _failure(lambda: meval(e)) == (_message(w), 0)

    def test_inside_a_mask_body_after_its_bulk_spend(self, w):
        # S w I 0: three stage applications, then the firing's three units
        s, i = DEFS["S"].value, DEFS["I"].value
        fire = lambda: functools.reduce(apply_value, [w, i, VInt(0)], s)
        assert _failure(fire) == (_message(w), 6)

    def test_inside_s_if_before_the_spend_it_checks(self, w):
        defs = make_combinators(ElimAlgo.C2)
        i = defs["I"].value
        yes = apply_value(defs["K"].value, VBool(True))
        no2 = apply_value(defs["K^2"].value, VBool(False))

        def fire(name, args):
            return lambda: functools.reduce(apply_value, args,
                                            defs[name].value)

        # one unit per stage; a non-function condition fails before its
        # unit, a non-function branch after the condition's units
        assert _failure(fire("S_IF", [w, i, i, VInt(0)])) == (_message(w), 4)
        assert _failure(fire("S_IF", [yes, w, i, VInt(0)])) == (_message(w), 5)
        assert _failure(fire("S_IF^2", [no2, i, w, VInt(0), VInt(1)])) == (
            _message(w), 7)

    def test_classical_happ_spends_nothing_on_it(self, w):
        assert _failure(lambda: happ(w, VInt(0))) == (_message(w), 0)


@pytest.mark.parametrize("scheme", list(ElimAlgo), ids=str)
def test_function_results_are_python_functions(scheme):
    for src in ("\\x. x", "plus 1", "(\\x.\\y. x) 1", "compose (plus 1)"):
        obs = _observe(scheme, parse(src))
        assert obs.kind == "value"
        assert isinstance(obs.value, VFun)


# a type error names a function `<fun>` and a ground value as it prints,
# whatever scheme runs the program
TYPE_ERRORS = {
    "(1 + (\\x. x))": "expected an integer, got <fun>",
    "if (\\x. x) then 1 else 2 fi": "condition of if must be a boolean",
    "(cons (\\x. x) nil) 1": "cannot apply non-function value [<fun>]",
    "compose 1": "expected a function, got 1",
    "head (plus 1)": "expected a list, got <fun>",
    "filter (\\x. true) 5": "expected a list, got 5",
}


@pytest.mark.parametrize("src", list(TYPE_ERRORS))
@pytest.mark.parametrize("scheme", SCHEMES, ids=str)
def test_type_error_text_is_the_same_under_every_scheme(scheme, src):
    obs = _observe(scheme, parse(src))
    assert (obs.kind, str(obs.error)) == ("type_error", TYPE_ERRORS[src])


COUNT_UP = "(((\\f.(f f)) (\\f.\\n. (1 + ((f f) (n + 1))))) 0)"
COUNT_DOWN = ("(((\\f.(f f)) (\\f.\\n. if (n = 0) then 0 "
              "else (1 + ((f f) (n - 1))) fi)) {n})")


class TestFailedRuns:
    @pytest.mark.parametrize("budget", [1_000, 1_001, 1_002])
    @pytest.mark.parametrize("scheme", SCHEMES, ids=str)
    def test_budget_ended_run_spends_the_whole_budget(self, scheme, budget):
        # a firing that cannot pay its bulk spend still ends the budget
        obs = _observe(scheme, parse(COUNT_UP), budget=budget)
        assert (obs.kind, obs.steps) == ("limit", budget)

    @pytest.mark.parametrize("algo", list(ElimAlgo))
    def test_budget_ended_run_leaves_no_cycle(self, algo):
        # the failed run's stack must be freed by reference counting
        e = parse(COUNT_UP)
        gc.collect()
        gc.disable()
        try:
            obs = observe_combinator(e, algo, budget=500_000)
            assert obs.kind == "limit"
            assert isinstance(obs.error, StepLimitExceeded)
            assert obs.error.__traceback__ is None
            assert gc.collect() < 1_000
        finally:
            gc.enable()


    def test_call_deep_failure_leaves_no_cycle(self):
        s, i = c(DEFS["S"].value), c(DEFS["I"].value)
        sii = MApp(MApp(s, i), i)
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(StepLimitExceeded):
                with fuel(100_000):
                    call_deep(meval, MApp(sii, sii))
            assert gc.collect() < 1_000
        finally:
            gc.enable()


class TestDeepWorker:
    def test_calls_run_on_one_thread(self):
        call_deep(int)  # the worker has started
        threads = threading.active_count()
        idents = {call_deep(threading.get_ident) for _ in range(50)}
        assert len(idents) == 1
        assert idents != {threading.get_ident()}
        assert threading.active_count() == threads

    def test_nested_call_returns(self):
        def outer():
            return threading.get_ident(), call_deep(threading.get_ident)

        got = []
        t = threading.Thread(target=lambda: got.append(call_deep(outer)),
                             daemon=True)
        t.start()
        t.join(30)
        assert not t.is_alive(), "nested call_deep deadlocked"
        (here, nested), = got
        assert here == nested

    def test_caller_keeps_its_limits(self):
        limit, size = sys.getrecursionlimit(), threading.stack_size()
        assert call_deep(sys.getrecursionlimit) > limit
        assert sys.getrecursionlimit() == limit
        assert threading.stack_size() == size

    def test_concurrent_callers_get_their_own_results(self):
        got = {}

        def square(n):
            if n % 7 == 0:
                raise ValueError(n)
            return n * n

        def caller(k):
            out = []
            for n in range(k * 100, k * 100 + 40):
                try:
                    out.append(call_deep(square, n))
                except ValueError as exc:
                    out.append(exc.args)
            got[k] = out

        callers = range(1, 5)  # four threads contend for the one worker
        threads = [threading.Thread(target=caller, args=(k,)) for k in callers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the lock between callers often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in callers:
            assert got[k] == [(n,) if n % 7 == 0 else n * n
                              for n in range(k * 100, k * 100 + 40)]

    @pytest.mark.parametrize("raises", [False, True])
    def test_worker_keeps_nothing_of_a_finished_job(self, raises):
        class Arg:
            pass

        def job(a):
            if raises:
                raise ValueError("job failed")
            return [a]

        arg = Arg()
        arg_ref = weakref.ref(arg)
        try:
            result = call_deep(job, arg)
        except ValueError:
            result = None
        del arg, result
        assert arg_ref() is None

    def test_recursion_inside_a_job_maps_no_new_stack(self):
        # recursion that goes up and down across a frame data-stack chunk
        # boundary maps and unmaps that chunk every time, a minor fault per
        # page, unless the worker's reserve holds the frames
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RUSAGE_THREAD"):
            pytest.skip("no per-thread resource usage here")

        def dive(n):
            return 0 if n == 0 else dive(n - 1) + 1

        def job(depth):
            if depth:
                return job(depth - 1)
            before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            for _ in range(2_000):
                dive(300)  # from depth 100 to 400 and back
            return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before

        assert call_deep(job, 100) < 200

    def test_a_job_raising_deep_down_keeps_its_traceback(self):
        def dive(n):
            if n == 0:
                raise ValueError("bottom")
            return dive(n - 1) + 1

        with pytest.raises(ValueError, match="bottom") as info:
            call_deep(dive, 20_000)
        frames = [f.f_code for f, _ in traceback.walk_tb(info.value.__traceback__)]
        assert frames.count(dive.__code__) == 20_001


class TestFuelPerRun:
    def test_overlapping_runs_each_spend_their_own_budget(self):
        # one long run and a stream of short budget-ended runs, from two
        # threads at once: each run must end as it does alone
        long_run = (parse(COUNT_DOWN.format(n=3000)), 10_000_000)
        short_run = (parse(COUNT_UP), 1_000)

        def outcome(run):
            obs = observe_combinator(run[0], ElimAlgo.C2, budget=run[1])
            return obs.kind, obs.steps

        alone = {run: outcome(run) for run in (long_run, short_run)}
        assert alone[long_run][0] == "value"
        assert alone[short_run][0] == "limit"
        got = {long_run: [], short_run: []}
        start = threading.Barrier(2)

        def runner(run, times):
            start.wait()
            try:
                for _ in range(times):
                    got[run].append(outcome(run))
            except Exception as exc:  # a crash is an outcome too
                got[run].append(("crash", repr(exc)))

        threads = [threading.Thread(target=runner, args=(long_run, 3)),
                   threading.Thread(target=runner, args=(short_run, 60))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch between the threads often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got[long_run] == [alone[long_run]] * 3
        assert got[short_run] == [alone[short_run]] * 60


# One short program through every site that spends fuel: the generated
# bodies' bulk spends, S_IF's unit spends (c1, c2), eval's single spends and,
# under fab without pre-evaluation, its folded spends, and `apply_value` in
# purify's IF (the outer conditional), `compose` and `filter`.
EVERY_SPEND = """
if 1 <= 2 then
  (compose (plus 1) (plus 2))
    (head (filter (\\x. if x <= 3 then false else true fi) [1, 5, 7]))
else 0 fi
"""


def _has_folded_node(e) -> bool:
    return type(e) is MApp and (e.cost > 0 or _has_folded_node(e.fn)
                                or _has_folded_node(e.arg))


class TestOneFuelCounter:
    @pytest.mark.parametrize("algo,pre,cost", [(ElimAlgo.FAB, False, 289),
                                               (ElimAlgo.FAB, True, 100),
                                               (ElimAlgo.C1, None, 56),
                                               (ElimAlgo.C2, None, 69)])
    def test_every_budget_ends_with_the_whole_budget_spent(self, algo, pre,
                                                           cost):
        m = transform(purify(parse(EVERY_SPEND), PurifyCtx(Store())), algo,
                      pre_eval=pre)
        assert _has_folded_node(m) is (pre is False)
        full = observe_combinator(EVERY_SPEND, algo, budget=10_000,
                                  pre_eval=pre)
        assert (full.kind, full.value, full.steps) == ("value", VInt(8), cost)
        at_cost = observe_combinator(EVERY_SPEND, algo, budget=cost,
                                     pre_eval=pre)
        assert (at_cost.kind, at_cost.value, at_cost.steps) == (
            "value", VInt(8), cost)
        for budget in range(1, cost):
            obs = observe_combinator(EVERY_SPEND, algo, budget=budget,
                                     pre_eval=pre)
            assert (obs.kind, obs.steps) == ("limit", budget), budget


class TestRunSource:
    def test_deep_recursion_runs_on_a_deep_stack(self):
        assert run_source(COUNT_DOWN.format(n=2000)) == VInt(2000)

    @pytest.mark.parametrize("algo", list(ElimAlgo))
    def test_a_deep_program_is_parsed_on_the_deep_stack(self, algo):
        # an application chain far past the caller's recursion limit
        assert run_source("(\\x. x) " * 1500 + "1", algo) == VInt(1)

    def test_raises_the_error_that_ended_the_run(self):
        with pytest.raises(EvalTypeError):
            run_source("1 2")
