#!/usr/bin/env python3
"""Measure the empirical family-wise error rate on label-randomized databases.

The generator draws graph structure and classes independently, so every
discovery is a false positive by construction. For each database the script
runs the root search, corrects alpha by the testable-set size, and estimates
the probability of any rejection under label permutations. Every per-database
rate should sit at or below alpha, up to permutation noise.

    python3 scripts/fwer_study.py --databases 20 --permutations 2000
"""

from __future__ import annotations

import argparse
import math
import sys

sys.path.insert(0, "src")

from sigmine.mining import MinerConfig
from sigmine.permute import PermutationPlan, empirical_fwer
from sigmine.search import find_root
from sigmine.synth import random_database


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--databases", type=int, default=20)
    ap.add_argument("--graphs-per-db", type=int, default=12)
    ap.add_argument("--seed-base", type=int, default=7000)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--tail", choices=["two", "left", "right"], default="two")
    ap.add_argument("--max-graph-vertices", type=int, default=5)
    ap.add_argument("--edge-probability", type=float, default=0.5)
    ap.add_argument("--permutations", type=int, default=2000)
    args = ap.parse_args()

    config = MinerConfig(min_frequency=1)
    noise = 3.0 * math.sqrt(args.alpha * (1.0 - args.alpha) / args.permutations)
    bound = args.alpha + noise
    print(
        f"alpha={args.alpha}, permutations={args.permutations}, "
        f"tolerance bound {bound:.4f}"
    )
    header = f"{'seed':>6} {'sigma_rt':>8} {'testable':>8} {'threshold':>12} {'fwer':>8}"
    print(header)
    print("-" * len(header))

    rates = []
    for i in range(args.databases):
        seed = args.seed_base + i
        db = random_database(
            args.graphs_per_db,
            seed,
            max_vertices=args.max_graph_vertices,
            edge_probability=args.edge_probability,
        )
        result = find_root(db, args.alpha, config, args.tail)
        if not result.testable:
            print(f"{seed:>6} {'-':>8} {0:>8} {'-':>12} {'-':>8}  (nothing testable)")
            continue
        threshold = args.alpha / len(result.testable)
        plan = PermutationPlan(args.permutations, seed, (db.n, db.n_prime))
        rate = empirical_fwer(
            result.testable, threshold, plan, db, args.tail
        )
        rates.append(rate)
        flag = "" if rate <= bound else "  ABOVE BOUND"
        print(
            f"{seed:>6} {result.root_frequency:>8} {len(result.testable):>8} "
            f"{threshold:>12.3e} {rate:>8.4f}{flag}"
        )

    if not rates:
        print("no database produced a testable set; nothing to summarize")
        return 0
    print(
        f"\n{len(rates)} databases with testable patterns: "
        f"max rate {max(rates):.4f}, mean {sum(rates) / len(rates):.4f}, "
        f"bound {bound:.4f}"
    )
    return 0 if max(rates) <= bound else 1


if __name__ == "__main__":
    raise SystemExit(main())
