#!/usr/bin/env python3
"""Timing sweep for the shared-product pipeline on sampled Poisson random sums.

Usage: benchmark_pool.py [--sizes 1000,5000,10000] [--kmax 8192] [--seed 1234321]
"""

import argparse
import time

import numpy as np

from allocgen.allocation import allocate_compound_poisson_pool
from allocgen.scenario import sample_risks


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", default="1000,5000,10000")
    parser.add_argument("--kmax", type=int, default=8192)
    parser.add_argument("--seed", type=int, default=1234321)
    args = parser.parse_args()

    for n in (int(s) for s in args.sizes.split(",")):
        risks = sample_risks({"kind": "compound_poisson_negbin", "count": n}, args.seed, args.kmax)
        start = time.perf_counter()
        table = allocate_compound_poisson_pool(risks, args.kmax)
        elapsed = time.perf_counter() - start
        k = np.arange(args.kmax, dtype=float)
        dev = np.abs(table.expected_allocation.sum(axis=0) - k * table.fs_raw)
        worst = dev[table.valid_mask].max() if table.valid_mask.any() else float("nan")
        print(
            f"n={n:6d} kmax={args.kmax} {elapsed:7.2f}s  "
            f"valid={int(table.valid_mask.sum()):5d}  identity_dev={worst:.2e}"
        )

if __name__ == "__main__":
    main()
