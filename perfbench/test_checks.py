"""Tests of the benchmark's own checks: each must fail on a wrong input.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402
from combterp.syntax import VInt  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import Outcome  # noqa: E402
from rounds import traced_round, untraced_round  # noqa: E402
from workloads import SCHEMES  # noqa: E402


def right_corpus_outcomes(programs):
    """What a correct program returns on the corpus, built from the oracles."""
    out = {}
    for p in programs:
        trace = tuple(("set", t, "fun") for t in p.sets or ())
        trace += tuple(("get", t, "fun") for t, n in (p.reads or {}).items()
                       for _ in range(n))
        bindings = tuple(sorted((t, "fun") for t in p.sets or ()))
        for s in SCHEMES:
            out[(p.name, s)] = Outcome("value", p.want, trace, bindings)
    return out


def test_oracles():
    assert workloads.fib(10) == 89
    assert workloads.fib_calls(10) == 2 * workloads.fib(10) - 1 == 177
    assert workloads.ack(2, 3) == (9, 44)
    assert workloads.ack(3, 2)[0] == 29
    assert workloads.queens(8)[0] == 92
    assert workloads.queens(5)[0] == 10
    # 3 passes nothing; 1 passes nothing; 2 passes 1: sort is called 4 times
    assert workloads.insertion_sort_calls([2, 1, 3]) == (4, 4)


def test_corpus_check_passes_on_right_outcomes():
    programs = workloads.corpus(seed=7)
    assert checks.check_corpus(programs, right_corpus_outcomes(programs)) == ([], [])


def test_value_differing_from_oracle_is_caught():
    programs = workloads.corpus(seed=7)
    outcomes = right_corpus_outcomes(programs)
    key = ("ack-omega", "c2")
    outcomes[key] = replace(outcomes[key], value=VInt(30))
    failures, problems = checks.check_corpus(programs, outcomes)
    assert failures == []
    assert len(problems) == 1 and "ack-omega under c2: value" in problems[0]


def test_store_trace_differing_between_schemes_is_caught():
    programs = workloads.corpus(seed=7)
    outcomes = right_corpus_outcomes(programs)
    key = ("sort-imp", "fab")
    swapped = outcomes[key].trace
    swapped = (swapped[1], swapped[0]) + swapped[2:]  # same events, other order
    outcomes[key] = replace(outcomes[key], trace=swapped)
    _, problems = checks.check_corpus(programs, outcomes)
    assert problems == ["sort-imp: store traces differ across schemes "
                        "['c1', 'c2', 'classical', 'fab']"]


def test_store_reads_differing_from_oracle_calls_are_caught():
    programs = workloads.corpus(seed=7)
    outcomes = right_corpus_outcomes(programs)
    for s in SCHEMES:  # one read fewer under every scheme: traces still agree
        o = outcomes[("fib-imp", s)]
        outcomes[("fib-imp", s)] = replace(o, trace=o.trace[:-1])
    _, problems = checks.check_corpus(programs, outcomes)
    assert len(problems) == 4 and all("store reads" in m for m in problems)


def test_corpus_run_out_of_budget_or_stack_is_a_failure():
    programs = workloads.corpus(seed=7)
    outcomes = right_corpus_outcomes(programs)
    outcomes[("queens-imp", "fab")] = Outcome("limit", None, (), ())
    outcomes[("sort-omega", "c1")] = Outcome("recursion", None, (), ())
    failures, problems = checks.check_corpus(programs, outcomes)
    assert failures == ["sort-omega under c1: ended as recursion",
                        "queens-imp under fab: ended as limit"]
    assert problems == []


def test_corpus_run_ending_in_an_error_is_caught():
    programs = workloads.corpus(seed=7)
    outcomes = right_corpus_outcomes(programs)
    outcomes[("fib-omega", "c2")] = Outcome("type_error", None, (), ())
    outcomes[("ack-imp", "c1")] = Outcome("unbound_tag", None, (), ())
    failures, problems = checks.check_corpus(programs, outcomes)
    assert failures == []
    assert problems == ["fib-omega under c2: ended as type_error",
                        "ack-imp under c1: ended as unbound_tag"]


def _differential(base: Outcome, got: Outcome):
    p = workloads.Program("gen-1", None, None, {}, gated=True)
    outcomes = {(p.name, "classical"): base}
    outcomes.update({(p.name, s): got for s in SCHEMES[1:]})
    return [p], outcomes


def test_differential_agreement_passes():
    o = Outcome("value", VInt(3), (("get", "t0", VInt(1)),), (("t0", VInt(1)),))
    programs, outcomes = _differential(o, o)
    reported = {("gen-1", s): "agree" for s in SCHEMES[1:]}
    assert checks.check_differential(programs, outcomes, reported) == ([], [])


def test_differential_disagreement_is_a_failure():
    base = Outcome("value", VInt(3), (), (("t0", VInt(1)),))
    programs, outcomes = _differential(base, replace(base, value=VInt(4)))
    failures, problems = checks.check_differential(programs, outcomes)
    assert len(failures) == 3 and all("values" in m for m in failures)
    assert problems == []
    programs, outcomes = _differential(base, replace(base, bindings=()))
    failures, _ = checks.check_differential(programs, outcomes)
    assert all("final store bindings differ" in m for m in failures)


def test_compare_verdict_differing_from_the_benchmarks_is_caught():
    base = Outcome("value", VInt(3), (), ())
    programs, outcomes = _differential(base, replace(base, kind="type_error", value=None))
    reported = {("gen-1", s): "agree" for s in SCHEMES[1:]}
    failures, problems = checks.check_differential(programs, outcomes, reported)
    assert len(failures) == 3
    assert len(problems) == 3 and all("compare says agree" in m for m in problems)


def test_budget_exhaustion_on_either_side_is_excluded():
    limit = Outcome("limit", None, (), ())
    value = Outcome("value", VInt(1), (), ())
    for base, got in ((limit, value), (value, limit)):
        assert checks.verdict(base, got) == "excluded"
    programs, outcomes = _differential(value, limit)
    assert checks.check_differential(programs, outcomes) == ([], [])


def test_runaway_run_returning_a_value_is_caught():
    programs = workloads.runaway(seed=3)
    outcomes = {(p.name, s): Outcome("limit", None, (), ())
                for p in programs for s in SCHEMES}
    outcomes[("omega", "classical")] = Outcome("recursion", None, (), ())
    assert checks.check_runaway(programs, outcomes) == ([], [])
    outcomes[("count-imp", "c1")] = Outcome("value", VInt(0), (), ())
    _, problems = checks.check_runaway(programs, outcomes)
    assert problems == ["count-imp under c1: ended as value"]


def test_runs_that_end_differently_are_caught():
    a = {("p", "fab"): Outcome("value", VInt(1), (), ())}
    b = {("p", "fab"): Outcome("value", VInt(2), (), ())}
    assert checks.check_same(a, a, "round 2") == []
    assert len(checks.check_same(a, b, "round 2")) == 1
    assert checks.check_same(a, {}, "round 2") == ["round 2: ran other operations"]


def test_traced_and_untraced_paths_agree_on_the_program():
    programs = [p for p in workloads.corpus(seed=7)
                if p.name in ("fib-imp", "ack-imp")]
    run.setup()
    observed, _, _, _, _ = untraced_round(programs)
    untraced = {k: checks.outcome_of(o) for k, o in observed.items()}
    traced, _, tracer, _ = traced_round(programs)
    assert checks.check_same(untraced, traced, "traced") == []
    assert checks.check_corpus(programs, traced) == ([], [])
    assert tracer.counts["store.gets"] == 4 * (
        workloads.fib_calls(workloads.FIB_N)
        + workloads.ack(workloads.ACK_M, workloads.ACK_N)[1])


def test_depth_round_counts_frames_and_ends_as_the_untraced_round():
    programs = [p for p in workloads.corpus(seed=7) if p.name == "ack-omega"]
    run.setup()
    observed, _, _, _, _ = untraced_round(programs)
    untraced = {k: checks.outcome_of(o) for k, o in observed.items()}
    probed, _, tracer, _ = traced_round(programs, depth=True)
    assert checks.check_same(untraced, probed, "depth") == []
    # Ackermann (1, 300) nests 301 calls, each at least one Python frame
    depths = [tracer.counts[f"eval.depth.{s}"] for s in SCHEMES[1:]]
    depths.append(tracer.counts["classical.depth"])
    assert all(d > 1000 for d in depths)
    assert [r["depth"] for r in tracer.rows] == [depths[3]] + depths[:3]


def test_clock_scales_each_segment_by_the_probes_at_its_ends(monkeypatch):
    probes = iter([0.008, 0.008, 0.002])
    monkeypatch.setattr(calibrate, "probe", lambda: next(probes))
    clock = calibrate.Clock()
    out = {}
    clock.add(out, "op", 1.0)
    clock.mark()  # under EVERY_S: the segment stays open
    assert out == {}
    clock.mark(force=True)  # probes 0.008 and 0.008
    clock.add(out, "op", 1.0)
    clock.mark(force=True)  # probes 0.008 and 0.002
    scale = calibrate.REFERENCE_S
    assert out["op"] == pytest.approx(scale / 0.008 + scale / 0.005)
