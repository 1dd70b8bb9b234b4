"""Self-test of the benchmark: the exact counts repeat under one seed, and
another seed draws other programs.

    python3 bench/selftest.py [--workload NAME ...] [--seed N]

For each workload it runs one whole pass over the batch twice with the
same seed and requires identical costs, e-node and e-class counts,
iterations, stop reasons, per-rule application counts and materialized
values, hence identical best_cost_total and work_ratio. For the
generated workloads it also requires that seed+1 draws different
programs. Exits 1 on the first mismatch.
"""

from __future__ import annotations

import argparse
import sys

import run as bench

EXACT = ("cost_before", "cost_after", "stop", "enodes", "eclasses", "iterations",
         "rule_counts", "values_input", "values_optimized")


def one_pass(workload: str, seed: int) -> list[dict]:
    fs, settings, cases = bench.setup(workload, seed)
    records, failures = bench.run_ops(fs, settings, cases, 0, len(cases), bench.SpeedProbe())
    if failures:
        raise SystemExit(f"{workload}: operations failed: {failures[:3]}")
    return [{k: rec[k] for k in EXACT} for _, _, rec in records]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=bench.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workload or bench.WORKLOADS:
        first, second = one_pass(workload, args.seed), one_pass(workload, args.seed)
        same = first == second
        ok &= same
        print(f"{workload}: {len(first)} operations, exact counts repeat: {same}")
        if workload in ("random_programs", "diamonds"):
            fs = bench.load_flowsat()
            texts = [c.text for c in bench.draw_cases(fs, workload, args.seed)]
            other = [c.text for c in bench.draw_cases(fs, workload, args.seed + 1)]
            differ = texts != other
            ok &= differ
            print(f"{workload}: seed {args.seed + 1} draws other programs: {differ}")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
