import math
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sigmine import permute
from sigmine.graphs import GraphDatabase, LabeledGraph
from sigmine.mining import MinerConfig, Pattern
from sigmine.permute import (
    PermutationPlan,
    effective_num_tests,
    empirical_fwer,
    min_p_distribution,
)
from sigmine.report import render_min_p
from sigmine.search import find_root
from sigmine.stats import min_attainable_pvalue, pvalues_over_support
from sigmine.synth import planted_database, random_database

CONFIG = MinerConfig(min_frequency=1)


def edgeless(gid, labels):
    return LabeledGraph(gid, labels, ())


def unlabeled_db(classes):
    return GraphDatabase.from_graphs(
        tuple(edgeless(i, (0,)) for i in range(len(classes))), classes
    )


def pattern_at(db, positions):
    """A pattern occurring exactly at ``positions``; only its support matters."""
    x = sum(db.original_classes[t] for t in positions)
    return Pattern((), tuple(sorted(positions)), x, len(positions) - x)


def assert_matches_reference(size, positives, tail, iterations, block, seed, rnd):
    """The engine equals the scalar loop exactly, ``block`` permutations at a time.

    The family always holds a frequency-1 and a frequency-N pattern.
    """
    classes = [1] * positives + [0] * (size - positives)
    rnd.shuffle(classes)
    db = unlabeled_db(classes)
    supports = [[rnd.randrange(size)], list(range(size))]
    supports += [rnd.sample(range(size), rnd.randint(1, size)) for _ in range(8)]
    testable = [pattern_at(db, s) for s in supports]
    plan = PermutationPlan(iterations, seed)
    cells = block * max(len(testable), -(-size // 64))
    with mock.patch.object(permute, "_BLOCK_CELLS", cells):
        engine = min_p_distribution(testable, plan, db, tail)
    assert engine == oracles.min_p_reference(testable, plan, db, tail)


@pytest.fixture
def enriched_db():
    # A fills the ten class 1 graphs, B the ten class 0 graphs
    graphs = [edgeless(i, (0,)) for i in range(10)]
    graphs += [edgeless(10 + i, (1,)) for i in range(10)]
    return GraphDatabase.from_graphs(
        tuple(graphs), (1,) * 10 + (0,) * 10, vertex_tokens=("A", "B")
    )


@pytest.fixture
def enriched_result(enriched_db):
    return find_root(enriched_db, 0.05, CONFIG, "right")


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            PermutationPlan(0, 1)
        with pytest.raises(ValueError, match="seed"):
            PermutationPlan(5, -1)

    def test_fields_must_be_integers(self):
        for iterations, seed in ((10, 1.5), (2.5, 1), (True, 0)):
            with pytest.raises(TypeError):
                PermutationPlan(iterations, seed)
        plan = PermutationPlan(np.int64(7), 2**70)
        assert (plan.iterations, plan.seed) == (7, 2**70)
        assert type(plan.iterations) is int

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 11])
    def test_seed_states_equal_seed_sequence(self, seed):
        # two lanes from each index, so 2**32 - 1 also covers a block that
        # straddles the second spawn-key word
        for index in (0, 1, 255, 256, 2**32 - 1, 2**32, 2**40):
            states = permute._seed_states(seed, index, index + 2)
            for lane, state in enumerate(states):
                expected = np.random.SeedSequence(
                    entropy=seed, spawn_key=(index + lane,)
                ).generate_state(4, np.uint64)
                assert state.tolist() == expected.tolist()

    def test_mask_popcount_and_width(self):
        plan = PermutationPlan(50, 123)
        for j in range(50):
            mask = oracles.permutation_mask(plan, j, 7, 16)
            assert mask.bit_count() == 7
            assert mask < (1 << 16)

    def test_masks_depend_only_on_seed_and_index(self):
        plan = PermutationPlan(20, 99)
        late = oracles.permutation_mask(plan, 17, 5, 10)
        early = oracles.permutation_mask(plan, 3, 5, 10)
        assert oracles.permutation_mask(plan, 3, 5, 10) == early
        assert oracles.permutation_mask(plan, 17, 5, 10) == late
        other = PermutationPlan(20, 100)
        assert (
            oracles.permutation_mask(other, 3, 5, 10) != early
            or oracles.permutation_mask(other, 17, 5, 10) != late
        )


class TestMinPDistribution:
    def test_empty_testable_rejected(self, enriched_db):
        plan = PermutationPlan(10, 0)
        with pytest.raises(ValueError):
            min_p_distribution((), plan, enriched_db, "right")

    @pytest.mark.parametrize(
        "occurrences, x, x_prime",
        [
            # a position past the last graph: a padding bit, counted once
            # the masks are complemented
            ((0, 1, 7), 2, 1),
            # a repeated position
            ((0, 0, 1), 2, 1),
            # more positions than the frequency
            ((0, 1), 1, 0),
        ],
    )
    def test_occurrences_that_do_not_fit_the_database_rejected(self, occurrences, x, x_prime):
        db = unlabeled_db((1, 1, 1, 0, 0))
        with pytest.raises(ValueError, match="occurrences"):
            min_p_distribution([Pattern((), occurrences, x, x_prime)], PermutationPlan(5, 1), db)

    def test_reproducible_and_bounded_below(self, enriched_db, enriched_result):
        plan = PermutationPlan(200, 7)
        samples = min_p_distribution(enriched_result.testable, plan, enriched_db, "right")
        assert len(samples) == 200
        again = min_p_distribution(enriched_result.testable, plan, enriched_db, "right")
        assert samples == again
        floor = min(
            min_attainable_pvalue(p.frequency, 10, 10, "right")
            for p in enriched_result.testable
        )
        assert all(floor <= s <= 1.0 for s in samples)

    def test_other_seed_differs(self, enriched_db, enriched_result):
        a = min_p_distribution(
            enriched_result.testable, PermutationPlan(50, 7), enriched_db, "right"
        )
        b = min_p_distribution(
            enriched_result.testable, PermutationPlan(50, 8), enriched_db, "right"
        )
        assert a != b

    def test_single_pattern_tracks_its_own_table(self, enriched_db, enriched_result):
        # with one pattern the minimum is that pattern's p-value, which can
        # be recomputed from the mask by explicit membership counting
        pattern = next(p for p in enriched_result.testable if p.x == 10)
        plan = PermutationPlan(40, 5)
        samples = min_p_distribution([pattern], plan, enriched_db, "right")
        bits = oracles.occurrence_bits(pattern.occurrences)
        lo, row = pvalues_over_support(pattern.frequency, 10, 10, "right")

        for j, sample in enumerate(samples):
            mask = oracles.permutation_mask(plan, j, 10, 20)
            x = sum(1 for t in pattern.occurrences.tolist() if mask >> t & 1)
            assert x == (bits & mask).bit_count()
            assert sample == row[x - lo]
            exact = oracles.fisher(x, pattern.frequency, 10, 10, "right")
            assert sample == pytest.approx(float(exact), rel=1e-12)


    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_reference(self, data):
        # sizes around word boundaries, both class orientations, every tail,
        # and blocks that do not divide the permutation count
        size = data.draw(st.sampled_from([63, 64, 65, 128, 129, 513]), label="size")
        assert_matches_reference(
            size,
            positives=data.draw(st.integers(1, size - 1), label="positives"),
            tail=data.draw(st.sampled_from(["left", "right", "two"]), label="tail"),
            iterations=data.draw(st.integers(1, 40), label="iterations"),
            block=data.draw(st.integers(1, 16), label="block"),
            seed=data.draw(st.integers(0, 2**70), label="seed"),
            rnd=data.draw(st.randoms(use_true_random=False), label="rnd"),
        )

    def test_matches_scalar_reference_past_a_byte(self):
        # class 1 is the larger class, so the masks hold 256 ones and a
        # frequency-N pattern counts 257 in class 1
        assert_matches_reference(
            513, 257, "right", iterations=23, block=5, seed=3, rnd=random.Random(0)
        )

    @pytest.mark.parametrize("size", [65, 130])
    def test_matches_scalar_reference_with_a_wide_seed(self, size):
        # a seed of two 32-bit words, over sizes that leave a word part-filled
        assert_matches_reference(
            size, size // 3, "two", iterations=30, block=7, seed=2**32 + 977,
            rnd=random.Random(size),
        )

    @pytest.mark.parametrize("positives", [13, 47])
    @pytest.mark.parametrize("tail", ["left", "right", "two"])
    def test_many_margins_through_one_table(self, positives, tail):
        # one pattern of every frequency 0..60, listed out of order, so 61
        # rows lie end to end in the table, with 23 permutations in blocks of 5
        size = 60
        rnd = random.Random(positives)
        classes = [1] * positives + [0] * (size - positives)
        rnd.shuffle(classes)
        db = unlabeled_db(classes)
        frequencies = list(range(size + 1))
        rnd.shuffle(frequencies)
        testable = [pattern_at(db, rnd.sample(range(size), f)) for f in frequencies]
        plan = PermutationPlan(23, 11)
        with mock.patch.object(permute, "_BLOCK_CELLS", 5 * len(testable)):
            engine = min_p_distribution(testable, plan, db, tail)
        assert engine == oracles.min_p_reference(testable, plan, db, tail)

    def test_take_looks_up_in_place(self):
        # the kernel reads its p-values over the indices that select them,
        # with take(mode="clip"); that is right only while numpy reads each
        # index before it writes its cell, and saves memory only while it
        # writes into ``out`` without a copy
        rnd = np.random.default_rng(3)
        table = rnd.random(1000)
        index = rnd.integers(0, len(table), 2**16).astype(np.intp)
        expected = table[index]
        tracemalloc.start()
        try:
            np.take(table, index, out=index.view(np.float64), mode="clip")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(index.view(np.float64), expected)
        assert peak < index.nbytes // 4

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16])
    def test_counts_on_each_side_of_sixteen_bits(self, n):
        # the all-graphs pattern counts exactly n under every mask: 16 bits
        # hold it below 2**16 and intp from there. A count wrapped to 0
        # would read the one-graph pattern's row first in the table, whose
        # left-tail p-value at 0 is far below the 1.0 that both rows give
        # in most of these permutations
        size = n + 20
        classes = [1] * n + [0] * (size - n)
        random.Random(n).shuffle(classes)
        db = unlabeled_db(classes)
        testable = [pattern_at(db, range(size)), pattern_at(db, [classes.index(1)])]
        plan = PermutationPlan(6, 2)
        engine = min_p_distribution(testable, plan, db, "left")
        assert engine == oracles.min_p_reference(testable, plan, db, "left")
        assert max(engine) == 1.0

    def test_memory_is_bounded_by_the_block(self):
        # 20000 graphs, 400 patterns and 1500 permutations (several blocks):
        # unblocked, the count and AND arrays alone would take about 10 MB
        rnd = random.Random(5)
        size = 20000
        db = unlabeled_db([1] * (size // 2) + [0] * (size // 2))
        testable = [
            pattern_at(db, rnd.sample(range(size), rnd.randint(1, 60)))
            for _ in range(400)
        ]
        plan = PermutationPlan(1500, 1)
        tracemalloc.start()
        try:
            samples = min_p_distribution(testable, plan, db, "two")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(samples) == 1500
        assert peak < 8 * 2**20

    def test_memory_is_bounded_on_twenty_thousand_graphs(self):
        # every block reuses one (block, 64 * width) slot matrix, about 4 MB
        # here; drawing all 2000 masks at once would take about 38 MB
        db = random_database(20000, 7)
        testable = find_root(db, 0.05, CONFIG, "two").testable[:100]
        assert len(testable) == 100
        plan = PermutationPlan(2000, 1)
        tracemalloc.start()
        try:
            samples = min_p_distribution(testable, plan, db, "two")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(samples) == 2000
        assert peak < 16 * 2**20

    def test_memory_of_the_kernel_on_the_planted_family(self):
        # 378 patterns of 200 graphs, 10000 permutations: the block buffers,
        # held across blocks, take 0.69 MiB
        db = planted_database(
            200, 7, motif_size=5, background_vertices=16, edge_probability=0.12,
            num_vertex_labels=4,
        )
        testable = find_root(db, 0.05, CONFIG, "two").testable
        assert len(testable) == 378
        # the first call imports numpy.random, which is not the kernel's memory
        min_p_distribution(testable, PermutationPlan(1, 7), db, "two")
        plan = PermutationPlan(10000, 7)
        tracemalloc.start()
        try:
            samples = min_p_distribution(testable, plan, db, "two")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(samples) == 10000
        assert peak < 1.25 * 2**20


class TestEffectiveNumTests:
    def test_quantile_equal_to_alpha_gives_one(self):
        samples = [0.01, 0.02, 0.03, 0.04, 0.05] + [0.9] * 95
        assert effective_num_tests(samples, 0.05, 50) == 1.0

    def test_worked_example(self):
        samples = [0.005] * 50 + [0.9] * 950
        m_eff = effective_num_tests(samples, 0.05, 1000)
        assert m_eff == pytest.approx(math.log1p(-0.05) / math.log1p(-0.005), rel=1e-15)
        assert m_eff == pytest.approx(10.23, rel=1e-3)

    @pytest.mark.parametrize("m", [10, 100])
    def test_sidak_inversion_recovers_m(self, m):
        alpha_prime = 1.0 - (1.0 - 0.05) ** (1.0 / m)
        samples = [alpha_prime] * 50 + [0.999] * 950
        assert effective_num_tests(samples, 0.05, 1000) == pytest.approx(m, rel=1e-12)

    def test_zero_quantile_clamps_to_smallest_positive(self):
        samples = [0.0] * 50 + [1e-8] + [0.9] * 949
        # alpha' becomes 1e-8, so the implied count explodes and the
        # num_testable ceiling takes over
        assert effective_num_tests(samples, 0.05, 20) == 20.0

    def test_all_zero_samples_still_finite(self):
        assert effective_num_tests([0.0] * 100, 0.05, 7) == 7.0

    def test_degenerate_quantile_at_one(self):
        assert effective_num_tests([1.0] * 100, 0.05, 50) == 1.0

    def test_never_below_one(self):
        samples = [0.5] * 100
        assert effective_num_tests(samples, 0.05, 50) == 1.0

    def test_single_sample(self):
        assert effective_num_tests([0.01], 0.05, 10) == pytest.approx(
            math.log1p(-0.05) / math.log1p(-0.01), rel=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_num_tests([], 0.05, 5)
        with pytest.raises(ValueError):
            effective_num_tests([0.5], 1.5, 5)
        with pytest.raises(ValueError):
            effective_num_tests([0.5], 0.05, 0)


class TestEmpiricalFwer:
    def test_zero_threshold(self, enriched_db, enriched_result):
        plan = PermutationPlan(50, 3)
        assert empirical_fwer(enriched_result.testable, 0.0, plan, enriched_db, "right") == 0.0

    def test_threshold_one_with_disjoint_patterns(self, enriched_db, enriched_result):
        # A and B partition the transactions, so whenever one sits at a
        # central table the other sits at an extreme one; some p-value is
        # always below 1
        plan = PermutationPlan(100, 3)
        assert empirical_fwer(enriched_result.testable, 1.0, plan, enriched_db, "right") == 1.0

    def test_attainable_bound_is_never_beaten(self, enriched_db, enriched_result):
        pattern = next(p for p in enriched_result.testable if p.x == 10)
        floor = min_attainable_pvalue(pattern.frequency, 10, 10, "right")
        plan = PermutationPlan(300, 17)
        assert empirical_fwer([pattern], floor, plan, enriched_db, "right") == 0.0

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, 5.0])
    def test_threshold_outside_the_unit_interval_rejected(self, threshold):
        db = planted_database(40, 3)
        result = find_root(db, 0.05, CONFIG, "two")
        assert len(result.testable) == 14
        plan = PermutationPlan(50, 0)
        for family in (result.testable, ()):
            with pytest.raises(ValueError, match="threshold"):
                empirical_fwer(family, threshold, plan, db, "two")

    def test_empty_testable_is_zero(self, enriched_db):
        plan = PermutationPlan(10, 0)
        assert empirical_fwer((), 0.5, plan, enriched_db, "right") == 0.0

    def test_null_database_respects_alpha(self):
        # labels carry no signal, so rejecting at alpha / |tau| must keep the
        # family-wise error rate near or below alpha
        import random

        rnd = random.Random(3)
        graphs = []
        for gid in range(8):
            nv = rnd.randint(2, 4)
            labels = tuple(rnd.randint(0, 1) for _ in range(nv))
            edges = []
            for u in range(nv):
                for v in range(u + 1, nv):
                    if rnd.random() < 0.5:
                        edges.append((u, v, 0))
            graphs.append(LabeledGraph(gid, labels, tuple(edges)))
        db = GraphDatabase.from_graphs(tuple(graphs), (1, 1, 1, 1, 0, 0, 0, 0))
        alpha = 0.2
        result = find_root(db, alpha, CONFIG, "two")
        assert result.testable
        plan = PermutationPlan(1000, 11)
        rate = empirical_fwer(
            result.testable, alpha / len(result.testable), plan, db, "two"
        )
        assert rate <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / plan.iterations)


def test_render_min_p_round_trips():
    samples = (0.12345678901234567, 1.0, sys.float_info.min)
    lines = render_min_p(samples).splitlines()
    assert len(lines) == 3
    assert tuple(float(line) for line in lines) == samples
    assert render_min_p(()) == ""
