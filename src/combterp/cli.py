"""Command-line entry point: run, transform, compare, bench, theorem."""
from __future__ import annotations

import argparse
import resource
import sys

from . import bench as bench_mod
from . import compare as compare_mod
from . import quickgen, refsem
from .elim import ElimAlgo, elim_rterm, find_cbv_violations, transform
from .errors import InterpError
from .frontend import SourceProgram, check_closed, parse
from .purify import PurifyCtx, purify
from .runtime import call_deep
from .store import Store
from .syntax import count_apps, format_mexpr, format_operand

ALGOS = {"fab": ElimAlgo.FAB, "c1": ElimAlgo.C1, "c2": ElimAlgo.C2}


def _read_source(path: str) -> SourceProgram:
    if path == "-":
        return SourceProgram(sys.stdin.read(), "<stdin>")
    with open(path) as f:
        return SourceProgram(f.read(), path)


def _budget(text: str) -> int:
    """A `--budget` value: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _format_observed(v) -> str:
    """A value or a normalized trace value, each function as `<fun>`."""
    if isinstance(v, tuple):  # a list that holds a function, normalized
        return "[" + ", ".join(map(_format_observed, v)) + "]"
    return format_operand(v)  # the token "fun" too is `<fun>`


def cmd_run(args) -> int:
    src = _read_source(args.file)  # parsed on the deep stack, as it is run
    if args.algo == "classical":
        obs = compare_mod.observe_classical(src, budget=args.budget)
    else:
        obs = compare_mod.observe_combinator(src, ALGOS[args.algo],
                                             budget=args.budget)
    if obs.kind != "value":
        print(f"error: {obs.kind}: {obs.error}", file=sys.stderr)
        return 1
    print(format_operand(obs.value))
    if args.emit == "trace":
        for kind, tag, value in obs.trace:
            print(f"{kind.upper()} {tag} {_format_observed(value)}")
    return 0


def cmd_transform(args) -> int:
    src = _read_source(args.file)
    algo = ALGOS[args.algo if args.algo != "classical" else "c2"]
    pre_eval = False if args.no_pre_eval else None  # None = the rule set's default

    def job():  # every pass recurses on the term: all run on the deep stack
        p = purify(check_closed(parse(src)), PurifyCtx(Store()))
        m = transform(p, algo, pre_eval=pre_eval)
        term = format_mexpr(m) if args.emit != "size" else None
        return term, count_apps(m), len(find_cbv_violations(m))

    term, apps, bad = call_deep(job)
    if term is not None:
        print(term)
    print(f"applications: {apps}")
    if bad:
        print(f"call-by-value violations: {bad}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args) -> int:
    algos = list(ALGOS.values())
    failures = excluded = total = 0
    if args.file:
        programs = [(args.file, _read_source(args.file))]
        initial = None
    else:
        cfgs = [quickgen.GenConfig(args.seed + i, allow_effects=True)
                for i in range(args.samples)]
        programs = [(f"seed {c.seed}", quickgen.gen_expr(c)) for c in cfgs]
        initial = quickgen.default_initial(cfgs[0])
    for name, e in programs:
        results = compare_mod.compare_expr(e, algos, initial=initial,
                                           budget=args.budget)
        for algo, r in results.items():
            total += 1
            if r.excluded:
                excluded += 1
            elif not r.agree:
                failures += 1
                print(f"DISAGREE {name} [{algo.value}]: {r.detail}")
    print(f"compared {total}: {total - failures - excluded} agree, "
          f"{failures} disagree, {excluded} excluded")
    return 1 if failures else 0


def cmd_bench(args) -> int:
    programs = bench_mod.corpus(full=args.full)
    try:
        report = bench_mod.run_bench(programs, repetitions=args.reps,
                                     budget=args.budget)
    except bench_mod.BenchFailure as exc:
        print(f"bench failure: {exc}", file=sys.stderr)
        return 1
    print(bench_mod.format_report(report))
    for line in bench_mod.machine_lines(report):
        print(line)
    # system time and minor faults show the deep stack's memory traffic
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"RUSAGE user_s={usage.ru_utime:.3f} system_s={usage.ru_stime:.3f} "
          f"minor_faults={usage.ru_minflt}")
    return 0


def cmd_theorem(args) -> int:
    delta = refsem.standard_delta()
    tally = {"agree": 0, "disagree": 0, "inconclusive": 0}
    for i in range(args.samples):
        cfg = quickgen.GenConfig(args.seed + i, max_depth=5)
        m = quickgen.gen_rterm(cfg)
        # every rule set, as `compare` does, against one run of `m`
        verdicts = refsem.check_eliminations(
            m, [elim_rterm(m, algo) for algo in ALGOS.values()],
            quickgen.default_rstore(cfg), delta, args.budget)
        for algo, v in zip(ALGOS.values(), verdicts):
            tally[v.kind] += 1
            if v.kind == "disagree":
                print(f"DISAGREE seed {cfg.seed} [{algo.value}]: {v.details}")
                print(f"  term: {refsem.format_rterm(m)}")
    print(f"theorem: {tally['agree']} agree, {tally['inconclusive']} "
          f"inconclusive, {tally['disagree']} disagree")
    return 1 if tally["disagree"] else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="combterp")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="program path, or - for stdin")
        p.add_argument("--algo", choices=["classical", *ALGOS], default="c2")

    p = sub.add_parser("run", help="evaluate a program")
    common(p)
    p.add_argument("--budget", type=_budget, default=compare_mod.RUN_BUDGET)
    p.add_argument("--emit", choices=["value", "trace"], default="value")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("transform", help="show the combinator form")
    common(p)
    p.add_argument("--emit", choices=["term", "size"], default="term")
    p.add_argument("--no-pre-eval", action="store_true")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("compare", help="differential check vs classical")
    p.add_argument("file", nargs="?", help="program path; omit to use seeds")
    p.add_argument("--budget", type=_budget, default=compare_mod.DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("bench", help="run the benchmark corpus")
    p.add_argument("--full", action="store_true")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--budget", type=_budget, default=bench_mod.DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("theorem", help="empirical elimination-correctness check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--budget", type=_budget, default=100_000)
    p.set_defaults(fn=cmd_theorem)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InterpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
