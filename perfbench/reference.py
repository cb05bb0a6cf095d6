"""Remake the reference figures: each workload on ten seeds, one process each.

    python3 perfbench/reference.py [--seeds 1-10] [--seconds 40]
                                   [--workloads corpus,differential,runaway]

For every metric prints the median over the seeds, the spread, the
distance between the first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them) over the median, and
every run's value in seed order.  Also prints the share of failed
operations, which must be the same in every run.  Each run is started as BENCHMARK.json's command is, from the
root of the checkout that holds this file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="40")
    ap.add_argument("--workloads", default="corpus,differential,runaway")
    args = ap.parse_args()
    bad = 0
    for workload in args.workloads.split(","):
        values, shares = {}, set()
        for seed in args.seeds:
            out = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
                bad += 1
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            bad += not result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"{workload}: {len(args.seeds)} seeds, failed share {sorted(shares)}")
        for name, (unit, vs) in values.items():
            med = statistics.median(vs)
            if len(vs) < 2:
                print(f"  {name:26} {med:14.6g} {unit}")
                continue
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            each = " ".join(f"{v:.4g}" for v in vs)
            print(f"  {name:26} {med:14.6g} {unit:6} spread {spread:6.3f}  [{each}]")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
