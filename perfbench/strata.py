"""Recount the differential strata over generator seeds 0..9999.

    python3 perfbench/strata.py

Prints the sizes that `workloads.REFERENCE_COUNTS` holds.  Takes about
20 s: each program's classical run decides whether it is in stratum E.
"""
from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from combterp import compare, quickgen  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    counts = Counter()
    for seed in range(10_000):
        cfg = quickgen.GenConfig(seed, allow_effects=True)
        e = quickgen.gen_expr(cfg)
        obs = compare.observe_classical(e, quickgen.default_initial(cfg),
                                        workloads.CLASSICAL_DIFF_BUDGET)
        counts[workloads.stratum(e, obs.excluded)] += 1
    order = ["E"] + [f"w{k}" for k in range(len(workloads.WEIGHT_BOUNDS) + 1)]
    print({s: counts[s] for s in order})


if __name__ == "__main__":
    main()
