from __future__ import annotations

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combterp import bench
from combterp.bench import (BenchFailure, BenchProgram, CLASSICAL,
                            format_report, machine_lines, run_bench)
from combterp.elim import ElimAlgo
from combterp.frontend import SourceProgram
from combterp.syntax import VInt


# ---------------------------------------------------------------- oracle checks

def fib_rec(n):
    return 1 if n <= 1 else fib_rec(n - 2) + fib_rec(n - 1)


@functools.lru_cache(maxsize=None)
def ack_rec(m, n):
    if m == 0:
        return n + 1
    if n == 0:
        return ack_rec(m - 1, 1)
    return ack_rec(m - 1, ack_rec(m, n - 1))


class TestOracles:
    @given(st.integers(0, 18))
    def test_fib_matches_the_recurrence(self, n):
        assert bench._fib(n) == fib_rec(n)

    @given(st.integers(0, 2), st.integers(0, 6))
    def test_ack_matches_the_recurrence(self, m, n):
        assert bench._ack(m, n) == ack_rec(m, n)

    def test_ack_known_points(self):
        assert bench._ack(3, 3) == 61
        assert bench._ack(3, 5) == 253

    @pytest.mark.parametrize("n,want", [(1, 1), (4, 2), (5, 10), (6, 4), (8, 92)])
    def test_queens_known_counts(self, n, want):
        assert bench._queens(n) == want

    def test_sort_input_is_deterministic(self):
        xs = bench._sort_input(40)
        assert xs == bench._sort_input(40)
        assert len(xs) == 40
        assert all(0 <= x < 1000 for x in xs)


# ---------------------------------------------------------------- harness

def small_fib(n=7, oracle=None):
    src = SourceProgram(bench._FIB_OMEGA.format(n=n), "fib-omega")
    want = VInt(oracle if oracle is not None else fib_rec(n))
    return BenchProgram("fib-omega", src, {"n": n}, lambda: want)


def small_fib_imp(n=7):
    src = SourceProgram(bench._FIB_IMP.format(n=n), "fib-imp")
    return BenchProgram("fib-imp", src, {"n": n}, lambda: VInt(fib_rec(n)))


class TestHarness:
    def test_correct_rows_across_schemes(self):
        report = run_bench([small_fib(), small_fib_imp()],
                           algos=(CLASSICAL, ElimAlgo.C1), budget=5_000_000)
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.correct
            assert row.result == VInt(fib_rec(7))
            if row.algo == "classical":
                assert row.app_count is None
            else:
                assert row.app_count > 0
        # the imp variant reads the reference; traces must match across schemes
        imp = [r for r in report.rows if r.program == "fib-imp"]
        assert imp[0].trace == imp[1].trace and imp[0].trace

    def test_wrong_oracle_raises(self):
        with pytest.raises(BenchFailure):
            run_bench([small_fib(oracle=999)], algos=(CLASSICAL,),
                      budget=5_000_000)

    def test_run_ending_on_its_budget_raises(self):
        with pytest.raises(BenchFailure, match="limit"):
            run_bench([small_fib()], budget=100)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_fewer_than_one_repetition_is_rejected(self, reps):
        with pytest.raises(ValueError, match="repetitions must be at least 1"):
            run_bench([small_fib()], repetitions=reps)

    def test_term_size_is_counted_once_per_rule_set(self, monkeypatch):
        counted = []
        monkeypatch.setattr(bench, "count_apps",
                            lambda m: counted.append(m) or 1)
        report = run_bench([small_fib()], algos=(CLASSICAL, ElimAlgo.C2),
                           repetitions=3, budget=5_000_000)
        assert len(counted) == 1
        assert [r.app_count for r in report.rows] == [None, 1]

    def test_a_deep_program_is_parsed_on_the_deep_stack(self):
        # an application chain far past the caller's recursion limit
        src = SourceProgram("(\\x. x) " * 1500 + "1", "chain")
        chain = BenchProgram("chain", src, {}, lambda: VInt(1))
        report = run_bench([chain], budget=100_000)
        assert [r.result for r in report.rows] == [VInt(1)] * 4

    def test_report_formats(self):
        report = run_bench([small_fib()], algos=(ElimAlgo.C2,),
                           budget=5_000_000)
        lines = machine_lines(report)
        assert len(lines) == 1
        assert lines[0].startswith("BENCH program=fib-omega algo=c2 correct=1")
        text = format_report(report)
        assert "fib-omega" in text and text.splitlines()[0].startswith("program")

    def test_corpus_shapes(self):
        desk = bench.corpus()
        assert [p.name for p in desk] == [
            "fib-omega", "fib-imp", "ack-omega", "ack-imp",
            "sort-omega", "sort-imp", "queens-imp"]
        full = bench.corpus(full=True)
        assert full[0].params["n"] > desk[0].params["n"]


# ---------------------------------------------------------------- pinned counts

# Steps (native applications) and unfolded term sizes of the seven bench
# programs at a small scale.  A change to how values are applied must
# leave every one of them as it is.
PINNED_STEPS = {  # classical, fab, c1, c2
    "fib-omega": (467, 11_715, 2_909, 2_129),
    "fib-imp": (400, 4_683, 1_100, 867),
    "ack-omega": (242, 21_678, 4_153, 1_966),
    "ack-imp": (215, 9_587, 1_859, 1_048),
    "sort-omega": (1_585, 68_595, 13_417, 8_260),
    "sort-imp": (1_445, 46_725, 9_269, 6_602),
    "queens-imp": (1_811, 142_203, 25_916, 14_107),
}
PINNED_APP_COUNT = {  # fab, c1, c2
    "fib-omega": (328, 60, 36),
    "fib-imp": (118, 34, 27),
    "ack-omega": (4_536, 197, 101),
    "ack-imp": (1_524, 104, 62),
    "sort-omega": (3_876, 308, 175),
    "sort-imp": (1_665, 286, 176),
    "queens-imp": (109_373, 1_050, 407),
}


class TestPinnedCounts:
    def test_steps_and_term_sizes_at_small_scale(self):
        programs = bench.scaled_corpus(fib_n=8, ack=(2, 2), sort_k=20,
                                       queens=4)
        report = run_bench(programs, budget=5_000_000)
        steps, sizes = {}, {}
        for r in report.rows:
            steps.setdefault(r.program, []).append(r.steps)
            if r.app_count is not None:
                sizes.setdefault(r.program, []).append(r.app_count)
        assert {p: tuple(s) for p, s in steps.items()} == PINNED_STEPS
        assert {p: tuple(s) for p, s in sizes.items()} == PINNED_APP_COUNT
