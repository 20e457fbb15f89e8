#!/usr/bin/env python3
"""Compare multiple-testing correction factors on one planted database.

Three factors over the same data: the full Bonferroni count (every pattern
with support >= 2), the testable-set size, and the permutation-based
effective number of tests. The first grows with the pattern space, the other
two do not, and the corrected thresholds spread accordingly. Larger pattern
size caps widen the gap.

    python3 scripts/correction_factors.py --max-vertices 4,8
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sigmine.mining import MinerConfig
from sigmine.permute import PermutationPlan, effective_num_tests, min_p_distribution
from sigmine.search import find_root, full_family, score_patterns
from sigmine.synth import planted_database


def significant_count(patterns, db, alpha, tail, factor) -> int:
    records = score_patterns(patterns, db, alpha, tail, factor)
    return sum(1 for rec in records if rec.significant)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--num-graphs", type=int, default=50)
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--motif-size", type=int, default=4)
    ap.add_argument("--background-vertices", type=int, default=10)
    ap.add_argument("--edge-probability", type=float, default=0.15)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--tail", choices=["two", "left", "right"], default="two")
    ap.add_argument(
        "--max-vertices",
        default="4,8",
        help="comma-separated pattern size caps to sweep",
    )
    ap.add_argument("--permutations", type=int, default=1000)
    ap.add_argument("--perm-seed", type=int, default=21)
    args = ap.parse_args()

    db = planted_database(
        args.num_graphs,
        args.seed,
        motif_size=args.motif_size,
        background_vertices=args.background_vertices,
        edge_probability=args.edge_probability,
    )
    print(
        f"database: {db.size} graphs, classes {db.n}/{db.n_prime}, "
        f"alpha={args.alpha}, tail={args.tail}"
    )

    header = (
        f"{'max_v':>5} {'bonferroni':>10} {'testable':>9} {'m_eff':>9} "
        f"{'thr_bf':>12} {'thr_tarone':>12} {'thr_eff':>12} "
        f"{'sig_bf':>6} {'sig_ta':>6} {'sig_ef':>6}"
    )
    print(header)
    print("-" * len(header))

    for cap_text in args.max_vertices.split(","):
        cap = int(cap_text)
        config = MinerConfig(min_frequency=1, max_vertices=cap)

        full = full_family(db, config)
        bonferroni = len(full)

        result = find_root(db, args.alpha, config, args.tail)
        testable = len(result.testable)
        if testable == 0:
            print(f"{cap:>5} {bonferroni:>10} {'0':>9}  no testable patterns")
            continue

        plan = PermutationPlan(args.permutations, args.perm_seed)
        samples = min_p_distribution(result.testable, plan, db, args.tail)
        m_eff = effective_num_tests(samples, args.alpha, testable)

        sig_bf = significant_count(full, db, args.alpha, args.tail, bonferroni)
        sig_ta = significant_count(result.testable, db, args.alpha, args.tail, testable)
        sig_ef = significant_count(result.testable, db, args.alpha, args.tail, m_eff)

        print(
            f"{cap:>5} {bonferroni:>10} {testable:>9} {m_eff:>9.2f} "
            f"{args.alpha / bonferroni:>12.3e} {args.alpha / testable:>12.3e} "
            f"{args.alpha / m_eff:>12.3e} "
            f"{sig_bf:>6} {sig_ta:>6} {sig_ef:>6}"
        )

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
