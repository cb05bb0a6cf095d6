"""Run one benchmark workload of combterp and print its metrics as JSON.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
./src.  The run repeats whole rounds of the workload's operations (one
program under one scheme) while another fits in --seconds, checks every
outcome, and prints one JSON line last: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end
ones, medians over rounds; with --trace 1 traced rounds (see rounds.py)
alternate with untraced ones, the metrics are the per-layer ones, and
perfbench/out/trace-<workload>-seed<seed>.json receives them, the
tracing overhead and one row per operation of the first traced round.
On corpus the traced run also makes one depth round, which measures
each eval's deepest Python frame nesting (see rounds.py).  The process
runs on one CPU, and every time it reports is scaled to a reference
speed of the machine (see calibrate.py).
"""
from time import perf_counter

STARTED = perf_counter()  # setup_s counts from here, before anything is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
_COMBINATOR = ("fab", "c1", "c2")


def setup() -> float:
    """Import combterp and build the three combinator rosters.

    Returns the seconds from the start of this script, before any import,
    to the rosters being built: a cold set-up the first time it is called.
    They are scaled to the reference speed by the mean of three probes
    taken right after (see calibrate.py).
    """
    sys.path.insert(0, str(SRC))
    import combterp.compare  # noqa: F401  every module a round uses
    import combterp.quickgen  # noqa: F401
    from combterp.elim import ElimAlgo, make_combinators
    for algo in ElimAlgo:
        make_combinators(algo)
    seconds = perf_counter() - STARTED
    return seconds * calibrate.REFERENCE_S / statistics.mean(
        calibrate.probe() for _ in range(3))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = setup()
    import checks
    import workloads
    from rounds import traced_round, untraced_round

    programs = getattr(workloads, workload)(seed)
    # The inputs and the modules stay alive all run: the cyclic collector's
    # full passes skip them, so their cost follows what the program
    # allocates, not how many inputs the benchmark holds.
    gc.collect()
    gc.freeze()
    # in differential the classical run is the oracle, not an operation
    ops_per_round = len(programs) * (3 if workload == "differential" else 4)
    check = checks.CHECKS[workload]
    failures, problems = [], []
    untraced, traced = [], []  # (seconds per operation, wall, cpu); (Tracer, wall)
    first = None

    def judge(outcomes, reported, what):
        f, p = check(programs, outcomes, reported)
        failures.extend(f)
        problems.extend(p)
        if first is not None:
            problems.extend(checks.check_same(first, outcomes, what))

    def measure():
        observed, reported, op_s, wall, cpu = untraced_round(programs)
        outcomes = {k: checks.outcome_of(o) for k, o in observed.items()}
        judge(outcomes, reported, f"round {len(untraced) + 1}")
        untraced.append((op_s, wall, cpu))
        return outcomes

    start = perf_counter()
    first = measure()
    step = perf_counter() - start  # the last pass of the loop, to not overrun
    probe = None
    if trace and workload == "corpus":  # frame depths, in a round of their own
        outcomes, reported, probe, _ = traced_round(programs, depth=True)
        judge(outcomes, reported, "depth round")
    # traced rounds alternate with untraced ones, which size the overhead
    while perf_counter() - start + step <= seconds or (trace and not traced):
        t = perf_counter()
        if trace:
            outcomes, reported, tracer, wall = traced_round(programs)
            judge(outcomes, reported, f"traced round {len(traced) + 1}")
            if traced and tracer.counts != traced[0][0].counts:
                problems.append(f"traced round {len(traced) + 1}: counts differ")
            traced.append((tracer, wall))
        measure()
        step = perf_counter() - t

    if trace:
        metrics, units = layer_metrics([t for t, _ in traced], probe), PER_LAYER
        rows = traced[0][0].rows
        if probe is not None:
            for row, probed in zip(rows, probe.rows):
                row["depth"] = probed["depth"]
        traced_wall = statistics.median(w for _, w in traced)
        untraced_wall = statistics.median(w for _, w, _ in untraced[1:])
        write_trace(workload, seed, metrics, rows, {
            "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
            "overhead_s": traced_wall - untraced_wall, "traced_rounds": len(traced)})
    else:
        units = END_TO_END
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(w for _, w, _ in untraced),
            "cpu_s": statistics.median(c for _, _, c in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **scheme_seconds([op_s for op_s, _, _ in untraced]),
        }
    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    for msg in problems[:10]:
        print(f"PROBLEM {msg}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": ops_per_round * (len(untraced) + len(traced) + (probe is not None)),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def scheme_seconds(op_seconds) -> dict:
    """Per scheme, the sum over its operations of each one's median over rounds.

    A pause that lands on one operation in one round (a cyclic gc pass,
    the scheduler) moves that operation's median little.
    """
    from workloads import SCHEMES

    out = dict.fromkeys((f"{s}_s" for s in SCHEMES), 0.0)
    for (name, scheme) in op_seconds[0]:
        out[f"{scheme}_s"] += statistics.median(r[(name, scheme)] for r in op_seconds)
    return out


def layer_metrics(tracers, probe) -> dict:
    """Seconds as medians over traced rounds; counts from one round.

    Frame depths come from the depth round, which only corpus runs; they
    read 0 elsewhere.
    """
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            out[name] = statistics.median(t.seconds[name] for t in tracers)
        elif "depth" in name:
            out[name] = probe.counts[name] if probe is not None else 0
        elif unit == "count":
            out[name] = tracers[0].counts[name]
    ratios = [(f"eval.ns_per_step.{a}", f"eval.eval_s.{a}", f"eval.steps.{a}")
              for a in _COMBINATOR]
    ratios.append(("classical.ns_per_step", "classical.eval_s", "classical.steps"))
    for ns, secs, steps in ratios:
        out[ns] = out[secs] / out[steps] * 1e9 if out[steps] else 0.0
    return out


def write_trace(workload, seed, metrics, rows, overhead) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "tracing": overhead, "metrics": metrics,
                                "rows": rows}, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "combterp").is_dir():
        print(f"no combterp sources under {SRC}", file=sys.stderr)
        return 2
    calibrate.pin()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
