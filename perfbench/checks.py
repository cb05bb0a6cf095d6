"""The benchmark's own checks of the program's outputs.

Each check takes the outcomes of one round, keyed by (program, scheme),
and returns two lists of messages: failures and problems.  A failure is
an operation that ran out of room (a corpus run that ends on its step
budget or the recursion limit) or a differential run that disagrees with
classical; it is counted, not fatal.  A problem is a wrong output of an
operation that did not fail, or a disagreement between two ways of
running the same operation; any problem makes the run incorrect.  A
corpus run that ends in a type error or an unbound tag is a problem: the
oracle has a value for every corpus program.

Values are normalized here, not by `compare`.  So are the traces and
bindings of traced rounds, which hold their own Store; the untraced
rounds' traces, normalized by `compare`, must equal them.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from combterp.classical import Closure
from combterp.syntax import VBool, VDummy, VFun, VInt, VList

from workloads import CLASSICAL, SCHEMES

EXCLUDED = ("limit", "recursion")


@dataclass(frozen=True)
class Outcome:
    kind: str        # "value", "type_error", "unbound_tag", "limit", "recursion"
    value: object    # normalized: every function reads "fun"
    trace: tuple     # (kind, tag, normalized value) per store event
    bindings: tuple  # sorted (tag, normalized value)


def _ground(v) -> bool:
    if isinstance(v, VList):
        return all(_ground(x) for x in v.items)
    return isinstance(v, (VInt, VBool, VDummy))


def norm(v):
    """Functions become "fun"; a list holding one becomes a tuple."""
    if isinstance(v, (VFun, Closure)):
        return "fun"
    if isinstance(v, VList) and not _ground(v):
        return tuple(norm(x) for x in v.items)
    return v


def outcome_of(obs) -> Outcome:
    """An Outcome from a `compare.Observation`."""
    return Outcome(obs.kind, norm(obs.value), obs.trace, obs.bindings)


def outcome_from_store(kind: str, value, store) -> Outcome:
    """An Outcome built from a Store the benchmark holds."""
    trace = tuple((ev.kind, ev.tag, norm(ev.value)) for ev in store.trace)
    bindings = tuple(sorted((t, norm(v)) for t, v in store.bindings.items()))
    return Outcome(kind, norm(value), trace, bindings)


def _counts(trace: tuple, kind: str) -> dict:
    return dict(Counter(tag for k, tag, _ in trace if k == kind))


def check_corpus(programs, outcomes, reported=None) -> tuple[list[str], list[str]]:
    """Oracle values, equal store traces across schemes, reads = oracle calls."""
    failures, problems = [], []
    for p in programs:
        traces = {}
        for s in SCHEMES:
            o = outcomes[(p.name, s)]
            if o.kind != "value":
                (failures if o.kind in EXCLUDED else problems).append(
                    f"{p.name} under {s}: ended as {o.kind}")
                continue
            traces[s] = o.trace
            if o.value != p.want:
                problems.append(f"{p.name} under {s}: value {o.value!r}, "
                                f"oracle {p.want!r}")
            if p.reads is not None and _counts(o.trace, "get") != p.reads:
                problems.append(f"{p.name} under {s}: store reads "
                                f"{_counts(o.trace, 'get')}, calls {p.reads}")
            if p.sets is not None and _counts(o.trace, "set") != p.sets:
                problems.append(f"{p.name} under {s}: store writes "
                                f"{_counts(o.trace, 'set')}, want {p.sets}")
        if len(set(traces.values())) > 1:
            problems.append(f"{p.name}: store traces differ across schemes "
                            f"{sorted(traces)}")
    return failures, problems


def verdict(base: Outcome, got: Outcome | None) -> str:
    """"excluded", "agree" or "disagree: why", for one scheme against classical."""
    if base.kind in EXCLUDED or got is None or got.kind in EXCLUDED:
        return "excluded"
    if base.kind != got.kind:
        return f"disagree: outcome {base.kind} vs {got.kind}"
    if base.trace != got.trace:
        return "disagree: store traces differ"
    if base.bindings != got.bindings:
        return "disagree: final store bindings differ"
    if base.value != got.value:
        return f"disagree: values {base.value!r} vs {got.value!r}"
    return "agree"


def check_differential(programs, outcomes, reported=None) -> tuple[list[str], list[str]]:
    """Each combinator scheme against classical; a disagreement is a failed operation.

    `reported` maps (program, scheme) to compare's own verdict, "agree",
    "disagree" or "excluded", which must match the benchmark's.
    """
    failures, problems = [], []
    for p in programs:
        base = outcomes[(p.name, CLASSICAL)]
        for s in SCHEMES[1:]:
            got = outcomes.get((p.name, s))
            if base.kind not in EXCLUDED and got is None:
                problems.append(f"{p.name} under {s}: not run")
                continue
            v = verdict(base, got)
            if v.startswith("disagree"):
                failures.append(f"{p.name} under {s}: {v}")
            if reported is not None and reported[(p.name, s)] != v.split(":")[0]:
                problems.append(f"{p.name} under {s}: compare says "
                                f"{reported[(p.name, s)]}, the benchmark says {v}")
    return failures, problems


def check_runaway(programs, outcomes, reported=None) -> tuple[list[str], list[str]]:
    """Every run ends on its step budget or the recursion limit."""
    problems = [f"{p.name} under {s}: ended as {outcomes[(p.name, s)].kind}"
                for p in programs for s in SCHEMES
                if outcomes[(p.name, s)].kind not in EXCLUDED]
    return [], problems


def check_same(first: dict, other: dict, what: str) -> list[str]:
    """Two runs of the same operations must end the same way."""
    if first.keys() != other.keys():
        return [f"{what}: ran other operations"]
    return [f"{what}: {name} under {s} ended as {other[(name, s)]!r}, "
            f"before as {first[(name, s)]!r}"
            for (name, s) in first if first[(name, s)] != other[(name, s)]]


CHECKS = {"corpus": check_corpus, "differential": check_differential,
          "runaway": check_runaway}
