from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from combterp import externs, run_source
from combterp.compare import observe_combinator
from combterp.elim import ElimAlgo, make_combinators
from combterp.errors import EvalTypeError, StepLimitExceeded
from combterp.eval import eval as meval
from combterp.frontend import parse
from combterp.runtime import call_deep, fuel
from combterp.syntax import MApp, MConst, VFun, VInt

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
            return VFun(lambda v: (log.append(tag), result)[1])

        ident = VFun(lambda v: v)
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


COUNT_UP = "(((\\f.(f f)) (\\f.\\n. (1 + ((f f) (n + 1))))) 0)"
COUNT_DOWN = ("(((\\f.(f f)) (\\f.\\n. if (n = 0) then 0 "
              "else (1 + ((f f) (n - 1))) fi)) {n})")


class TestFailedRuns:
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


class TestRunSource:
    def test_deep_recursion_runs_on_a_deep_stack(self):
        assert run_source(COUNT_DOWN.format(n=2000)) == VInt(2000)

    def test_raises_the_error_that_ended_the_run(self):
        with pytest.raises(EvalTypeError):
            run_source("1 2")
