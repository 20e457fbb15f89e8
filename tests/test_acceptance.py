"""Acceptance gate: one test per criterion, pinned seeds and tolerances.

Each test is a single pass/fail line under pytest -v. Time budgets are
asserted inside the tests; the pinned seeds were chosen once and frozen, and
every numeric tolerance is stated next to its assertion.
"""

import math
import statistics
import time
from pathlib import Path

import pytest

import oracles
from sigmine.graphs import parse_database
from sigmine.mining import MinerConfig, mine
from sigmine.permute import (
    PermutationPlan,
    effective_num_tests,
    empirical_fwer,
    min_p_distribution,
)
from sigmine.search import STRATEGIES, find_root, full_family, score_patterns
from sigmine.stats import min_attainable_pvalue, pvalues_over_support
from sigmine.synth import planted_database, random_database

CONFIG = MinerConfig(min_frequency=1)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _small_corpus():
    for i in range(200):
        yield random_database(
            2 + i % 7,
            seed=1000 + i,
            max_vertices=6,
            num_vertex_labels=3,
            num_edge_labels=2,
            edge_probability=0.45,
        )


def test_c1_miner_matches_bruteforce_oracle():
    started = time.perf_counter()
    for db in _small_corpus():
        census = oracles.mine_exhaustively(db, 1, None, True)
        for sigma in range(1, db.size + 1):
            outcome = mine(db, MinerConfig(sigma))
            got = {}
            for p in outcome.patterns:
                g = oracles.code_to_graph(p.code)
                key = oracles.canonical_key(g.vertex_labels, g.edges)
                got[key] = (p.occurrences, p.vertex_count, p.edge_count)
            expected = {k: v for k, v in census.items() if len(v[0]) >= sigma}
            assert got == expected
    assert time.perf_counter() - started < 120.0


def test_c2_exact_test_agrees_with_rational_arithmetic():
    started = time.perf_counter()

    # every table with n + n' <= 16, all three tails, relative 1e-12
    for n in range(1, 16):
        for n_prime in range(n, 16):
            if n + n_prime > 16:
                continue
            for f in range(0, n + n_prime + 1):
                for tail in ("left", "right", "two"):
                    lo, row = pvalues_over_support(f, n, n_prime, tail)
                    for x, got in enumerate(row.tolist(), lo):
                        exact = float(oracles.fisher(x, f, n, n_prime, tail))
                        assert abs(got - exact) <= 1e-12 * exact

    # the attainable bound equals the smallest one-sided p-value over the
    # support, bitwise; past f = n it stays frozen at its f = n value
    for n in range(1, 9):
        for n_prime in range(n, 9):
            plateau = min_attainable_pvalue(n, n, n_prime, "left")
            for f in range(0, n + n_prime + 1):
                best = min(
                    1.0,
                    pvalues_over_support(f, n, n_prime, "left")[1].min(),
                    pvalues_over_support(f, n, n_prime, "right")[1].min(),
                )
                psi = min_attainable_pvalue(f, n, n_prime, "left")
                if f <= n:
                    assert psi == best
                else:
                    assert psi == plateau
                assert min_attainable_pvalue(f, n, n_prime, "two") == min(
                    1.0, 2.0 * psi
                )

    # monotone non-increasing in f out to n + n' = 200
    for n, n_prime in ((1, 199), (3, 197), (25, 175), (50, 150), (100, 100)):
        previous = None
        for f in range(0, n + n_prime + 1):
            value = min_attainable_pvalue(f, n, n_prime, "two")
            assert previous is None or value <= previous
            previous = value

    assert time.perf_counter() - started < 60.0


def test_c3_strategies_agree_and_satisfy_root_property():
    started = time.perf_counter()
    for db in _small_corpus():
        census = mine(db, CONFIG).patterns
        for alpha in (0.01, 0.05, 0.2):
            results = {s: find_root(db, alpha, CONFIG, "two", s) for s in STRATEGIES}
            fingerprints = {
                (
                    r.status,
                    r.root_frequency,
                    frozenset((p.code, p.occurrences) for p in r.testable),
                )
                for r in results.values()
            }
            assert len(fingerprints) == 1
            r = results["incremental"]
            if r.status != "ok":
                continue
            sigma_rt = r.root_frequency
            bound = lambda s: min_attainable_pvalue(s, db.n, db.n_prime, "two")
            count = lambda s: sum(1 for p in census if p.frequency >= s)
            assert count(sigma_rt) <= alpha / bound(sigma_rt)
            if sigma_rt > r.min_testable_frequency:
                assert count(sigma_rt - 1) > alpha / bound(sigma_rt - 1)
            factor = max(1.0, float(len(r.testable)))
            significance = {
                s: tuple(
                    (rec.pattern.code, rec.significant)
                    for rec in score_patterns(res.testable, db, alpha, "two", factor)
                )
                for s, res in results.items()
            }
            assert len(set(significance.values())) == 1
    assert time.perf_counter() - started < 300.0


def test_c4_null_fwer_within_binomial_bound():
    started = time.perf_counter()
    alpha = 0.05
    iterations = 2000
    bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / iterations)
    for i in range(20):
        db = random_database(
            12,
            seed=7000 + i,
            max_vertices=5,
            num_vertex_labels=3,
            num_edge_labels=2,
            edge_probability=0.5,
        )
        result = find_root(db, alpha, CONFIG, "two")
        assert result.status == "ok" and result.testable
        plan = PermutationPlan(iterations, 7000 + i)
        rate = empirical_fwer(
            result.testable, alpha / len(result.testable), plan, db, "two"
        )
        assert rate <= bound
    assert time.perf_counter() - started < 600.0


def test_c5_correction_factor_ordering_and_gap():
    started = time.perf_counter()
    db = planted_database(50, seed=13, background_vertices=10, edge_probability=0.15)
    gaps = {}
    for max_vertices in (4, 8):
        config = MinerConfig(1, max_vertices=max_vertices)
        result = find_root(db, 0.05, config, "two")
        assert result.testable
        bonferroni = len(full_family(db, config))
        plan = PermutationPlan(1000, 21)
        samples = min_p_distribution(result.testable, plan, db, "two")
        m_eff = effective_num_tests(samples, 0.05, len(result.testable))
        assert bonferroni > len(result.testable) >= m_eff
        gaps[max_vertices] = bonferroni - len(result.testable)
    assert gaps[8] > gaps[4]
    assert time.perf_counter() - started < 120.0


def test_c6_probe_cost_ordering():
    started = time.perf_counter()
    per_seed = []
    for seed in range(5):
        db = planted_database(
            200, seed=100 + seed, background_vertices=8, edge_probability=0.15
        )
        expanded = {}
        for strategy in ("dynamic", "incremental", "bisection", "decremental"):
            r = find_root(db, 0.05, CONFIG, "two", strategy)
            assert r.status == "ok"
            expanded[strategy] = r.patterns_expanded
            if strategy == "incremental":
                completed = [t for t in r.trace if t.status == "completed"]
                assert len(completed) == 1
        per_seed.append(expanded)
    medians = {
        s: statistics.median(row[s] for row in per_seed) for s in per_seed[0]
    }
    # soft criterion, so the raw numbers are logged for inspection
    print(f"patterns expanded per seed: {per_seed}; medians: {medians}")
    assert (
        medians["dynamic"]
        <= medians["incremental"]
        <= medians["bisection"]
        <= medians["decremental"]
    )
    assert time.perf_counter() - started < 300.0


def test_c7_mutag_root_frequencies():
    graphs_path = DATA_DIR / "mutag.graphs"
    labels_path = DATA_DIR / "mutag.labels"
    if not graphs_path.exists() or not labels_path.exists():
        pytest.skip("MUTAG data not present under data/")
    db = parse_database(
        graphs_path.read_text(encoding="utf-8"),
        labels_path.read_text(encoding="utf-8"),
    )
    expected = [8, 8, 9, 10, 10, 11, 12, 12, 13, 14]

    def roots(count_singletons):
        out = []
        for max_vertices in range(4, 14):
            config = MinerConfig(
                1, max_vertices=max_vertices, count_singletons=count_singletons
            )
            out.append(find_root(db, 0.05, config, "two").root_frequency)
        return out

    with_singletons = roots(True)
    if with_singletons != expected:
        without = roots(False)
        assert without == expected, (
            "root frequencies match neither convention: "
            f"with singletons {with_singletons}, without {without}"
        )
        pytest.fail(
            "root frequencies reproduce only with singleton counting off: "
            f"default gave {with_singletons}"
        )
    assert with_singletons == expected


def test_c8_effective_tests_recovers_planted_count():
    import numpy as np

    started = time.perf_counter()
    for m in (10, 100):
        rng = np.random.default_rng(26)
        minima = rng.random((1000, m)).min(axis=1).tolist()
        m_eff = effective_num_tests(minima, 0.05, 10 * m)
        assert abs(m_eff - m) <= 0.15 * m
    assert time.perf_counter() - started < 60.0
