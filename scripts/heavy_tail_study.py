#!/usr/bin/env python3
"""Conditional-mean cdfs for the heavy-tail triplet as the pool widens.

Writes plot-ready CSVs (value, cdf) per risk and pool size under --out and
prints the pairwise crossing counts for the n=3 pool.
"""

import argparse
from pathlib import Path

from allocgen.allocation import allocate_independent
from allocgen.models import ExplicitRisk
from allocgen.pmf import arithmetize
from allocgen.reproduce import HEAVY_TAIL_RISKS
from allocgen.scenario import conditional_mean_distribution, count_cdf_crossings, sample_risks
from allocgen.tails import pareto_cdf, pareto_lev


def arithmetized(alpha, lam, xmax):
    pmf, _ = arithmetize(pareto_cdf(alpha, lam), pareto_lev(alpha, lam), xmax)
    return ExplicitRisk(pmf)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="out_heavy_tail")
    parser.add_argument("--xmax", type=int, default=2**15)
    parser.add_argument("--kmax", type=int, default=2**17)
    parser.add_argument("--sizes", default="3,100")
    parser.add_argument("--seed", type=int, default=20260810)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    fixed = [arithmetized(a, l, args.xmax) for a, l, _ in HEAVY_TAIL_RISKS]
    sizes = [int(s) for s in args.sizes.split(",")]
    extras = sample_risks(
        {"kind": "pareto_extras", "count": max(sizes) - 3, "xmax": args.xmax}, args.seed, args.kmax
    )

    for n in sizes:
        risks = fixed + extras[: n - 3]
        table = allocate_independent(risks, args.kmax)
        dists = [conditional_mean_distribution(table, i) for i in range(3)]
        for i, dist in enumerate(dists, start=1):
            path = out / f"cond_mean_cdf_risk{i}_n{n}.csv"
            with path.open("w") as fh:
                fh.write("value,cdf\n")
                for v, c in zip(dist.support, dist.cum_masses()):
                    fh.write(f"{v!r},{c!r}\n")
            print(f"wrote {path}")
        if n == 3:
            pairs = [(0, 1), (0, 2), (1, 2)]
            counts = [count_cdf_crossings(dists[i], dists[j]) for i, j in pairs]
            print(f"pairwise crossing counts at n=3: {counts}")


if __name__ == "__main__":
    main()
