import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from sigmine.graphs import GraphDatabase, LabeledGraph, parse_database
from sigmine.mining import NO_EDGE, MinerConfig, Pattern, code_string, mine
from sigmine.permute import PermutationPlan, empirical_fwer, min_p_distribution
from sigmine.search import (
    STRATEGIES,
    _Session,
    find_root,
    full_family,
    score_patterns,
)
from sigmine.stats import min_attainable_pvalue, min_testable_frequency
from sigmine.synth import planted_database, random_database
from test_mining import PATH_AND_TRIANGLE

CONFIG = MinerConfig(min_frequency=1)


def edgeless(gid, labels):
    return LabeledGraph(gid, labels, ())


@pytest.fixture
def toy_db():
    # singleton frequencies {A: 5, B: 4, C: 4, D: 1}, n = n' = 5
    graphs = [edgeless(0, (0,))]
    graphs += [edgeless(i, (0, 1)) for i in range(1, 5)]
    graphs += [edgeless(i, (2,)) for i in range(5, 9)]
    graphs.append(edgeless(9, (3,)))
    classes = (1,) * 5 + (0,) * 5
    return GraphDatabase.from_graphs(
        tuple(graphs), classes, vertex_tokens=("A", "B", "C", "D")
    )


@pytest.fixture
def plateau_db():
    # n = 2, n' = 6; frequencies {A: 8, B: 8, C: 3}; at alpha = 0.2 the
    # budget is flat at 2 from sigma = 2 on, so the root sits above n
    graphs = [edgeless(i, (0, 1, 2)) for i in range(3)]
    graphs += [edgeless(i, (0, 1)) for i in range(3, 8)]
    classes = (1, 1, 0, 0, 0, 0, 0, 0)
    return GraphDatabase.from_graphs(
        tuple(graphs), classes, vertex_tokens=("A", "B", "C")
    )


def codes(result, db):
    return [code_string(p.code, db) for p in result.testable]


def value(p):
    """A pattern's fields by value; patterns themselves compare by identity."""
    return (p.code, p.occurrences.tolist(), p.x, p.x_prime)


def result_fingerprint(result):
    return (
        result.status,
        result.min_testable_frequency,
        result.root_frequency,
        frozenset(
            (p.code, tuple(p.occurrences.tolist()), p.x, p.x_prime) for p in result.testable
        ),
    )


class TestWorkedExample:
    def test_root_and_testable(self, toy_db):
        for strategy in STRATEGIES:
            r = find_root(toy_db, 0.05, CONFIG, "two", strategy)
            assert r.status == "ok"
            assert r.min_testable_frequency == 4
            assert r.root_frequency == 5
            assert codes(r, toy_db) == ["A"]
        # the budget at the root, alpha / psi(5)
        budget = 0.05 / min_attainable_pvalue(5, toy_db.n, toy_db.n_prime, "two")
        assert budget == pytest.approx(6.3, rel=1e-12)

    def test_invocation_counts(self, toy_db):
        counts = {
            "dynamic": 1,
            "onepass": 1,
            "decremental": 2,
            "incremental": 2,
            "bisection": 2,
        }
        for strategy, expected in counts.items():
            r = find_root(toy_db, 0.05, CONFIG, "two", strategy)
            assert r.fsm_invocations == expected
            assert len(r.trace) == expected

    def test_incremental_trace(self, toy_db):
        r = find_root(toy_db, 0.05, CONFIG, "two", "incremental")
        probes = [(t.sigma, t.budget, t.status, t.emitted) for t in r.trace]
        # budget floor(0.05 / psi2(4)) = 1, so the first probe aborts after
        # its second emission; the sigma = 5 probe is the only completed run
        assert probes == [
            (4, 1, "terminated_early", 2),
            (5, 6, "completed", 1),
        ]
        assert all(t.millis >= 0.0 for t in r.trace)

    def test_dynamic_trace(self, toy_db):
        r = find_root(toy_db, 0.05, CONFIG, "two", "dynamic")
        # A (5) fits the budget of 1 at sigma = 4; B (4) overflows it, so
        # sigma rises to 5 and C (4) is never emitted
        assert [(t.sigma, t.budget, t.status, t.emitted) for t in r.trace] == [
            (4, None, "completed", 2)
        ]
        assert r.patterns_expanded == 2

    def test_onepass_trace_is_unbudgeted(self, toy_db):
        r = find_root(toy_db, 0.05, CONFIG, "two", "onepass")
        assert [(t.sigma, t.budget, t.status, t.emitted) for t in r.trace] == [
            (4, None, "completed", 3)
        ]

    def test_decremental_walks_down(self, toy_db):
        r = find_root(toy_db, 0.05, CONFIG, "two", "decremental")
        assert [(t.sigma, t.status) for t in r.trace] == [
            (5, "completed"),
            (4, "completed"),
        ]

    def test_significance_at_factor_one(self, toy_db):
        r = find_root(toy_db, 0.05, CONFIG, "two", "incremental")
        factor = float(len(r.testable))
        assert factor == 1.0
        records = score_patterns(r.testable, toy_db, 0.05, "two", factor)
        assert len(records) == 1
        rec = records[0]
        assert code_string(rec.pattern.code, toy_db) == "A"
        # x = 5 of 5 positives: two-sided p is 2 / C(10,5) dominated at the
        # extreme, which is also exactly the attainable bound at f = 5
        assert rec.p_value == pytest.approx(2 / 252, rel=1e-12)
        assert rec.min_p == rec.p_value
        assert rec.significant


class TestPlateauCorner:
    def test_root_exceeds_smaller_class(self, plateau_db):
        assert plateau_db.n == 2 and plateau_db.n_prime == 6
        for strategy in STRATEGIES:
            r = find_root(plateau_db, 0.2, CONFIG, "two", strategy)
            assert r.status == "ok"
            assert r.min_testable_frequency == 2
            assert r.root_frequency == 4
            assert sorted(codes(r, plateau_db)) == ["A", "B"]

    def test_singlepass_strategies_never_remine(self, plateau_db):
        # the sigma = 2 run already holds every pattern the upward scan
        # needs, so onepass and decremental both stop at one invocation;
        # dynamic climbs past n inside its single run
        for strategy in ("dynamic", "onepass", "decremental"):
            r = find_root(plateau_db, 0.2, CONFIG, "two", strategy)
            assert r.fsm_invocations == 1

    def test_budgeted_strategies_escalate(self, plateau_db):
        for strategy in ("incremental", "bisection"):
            r = find_root(plateau_db, 0.2, CONFIG, "two", strategy)
            assert [t.sigma for t in r.trace] == [2, 3, 4]
            assert [t.status for t in r.trace] == [
                "terminated_early",
                "terminated_early",
                "completed",
            ]


class TestProbeBound:
    @pytest.fixture
    def wide_db(self):
        # 128 single-vertex graphs: label A in 10 of them, unique labels
        # elsewhere; sigma_min = 6 at alpha = 0.05, and the root equals it
        graphs = [edgeless(i, (0,)) for i in range(10)]
        graphs += [edgeless(10 + j, (1 + j,)) for j in range(118)]
        classes = tuple(1 if i < 5 else 0 for i in range(10)) + tuple(
            1 if j < 59 else 0 for j in range(118)
        )
        return GraphDatabase.from_graphs(tuple(graphs), classes)

    def test_bisection_probe_count_is_logarithmic(self, wide_db):
        r = find_root(wide_db, 0.05, CONFIG, "two", "bisection")
        assert r.root_frequency == 6
        assert r.min_testable_frequency == 6
        span = wide_db.n - r.min_testable_frequency
        assert r.fsm_invocations <= math.ceil(math.log2(span)) + 1
        assert [t.sigma for t in r.trace] == [35, 20, 13, 9, 7, 6]

    def test_all_strategies_agree_on_wide_db(self, wide_db):
        results = [
            find_root(wide_db, 0.05, CONFIG, "two", s) for s in STRATEGIES
        ]
        fingerprints = {result_fingerprint(r) for r in results}
        assert len(fingerprints) == 1
        assert results[0].root_frequency == 6


def test_budget_aborts_enumeration():
    # six patterns reach support 2; a probe stops at the emission that
    # passes its budget and keeps nothing
    session = _Session(parse_database(PATH_AND_TRIANGLE), 0.05, CONFIG, "two")
    for budget, status, emitted in (
        (4, "terminated_early", 5),
        (5, "terminated_early", 6),
        # a budget equal to the true count must not trip
        (6, "completed", 6),
        (0, "terminated_early", 1),
    ):
        patterns = session.mine_at(2, budget)
        t = session.trace[-1]
        assert (t.sigma, t.budget, t.status, t.emitted) == (2, budget, status, emitted)
        if status == "completed":
            assert len(patterns) == 6
        else:
            assert patterns is None
    assert len(session.trace) == 4
    assert sum(t.emitted for t in session.trace) == 5 + 6 + 6 + 1


def test_budget_is_unlimited_where_the_bound_underflows():
    # psi(1000) at 1000 graphs per class, 2 / C(2000, 1000), is below the
    # smallest double, so alpha / psi has no float and any count fits
    db = random_database(2000, 0)
    assert (db.n, db.n_prime) == (1000, 1000)
    assert min_attainable_pvalue(1000, 1000, 1000, "two") == 0.0
    session = _Session(db, 0.05, CONFIG, "two")
    assert session.budget(1000) is None
    assert session.fits(10**9, 1000)


FAMILY_DATABASES = {
    "planted-0": lambda: planted_database(12, 0),
    "planted-1": lambda: planted_database(12, 1),
    "random-0": lambda: random_database(
        10, 0, num_vertex_labels=2, num_edge_labels=1, edge_probability=0.4
    ),
}


@pytest.mark.parametrize("name", FAMILY_DATABASES)
@pytest.mark.parametrize("max_vertices", [None, 1, 3])
@pytest.mark.parametrize("singletons", [True, False])
def test_full_family_is_every_pattern_of_support_two(name, max_vertices, singletons):
    db = FAMILY_DATABASES[name]()
    config = MinerConfig(1, max_vertices=max_vertices, count_singletons=singletons)
    got = {}
    for p in full_family(db, config):
        g = oracles.code_to_graph(p.code)
        key = oracles.canonical_key(g.vertex_labels, g.edges)
        assert key not in got, "pattern emitted twice"
        got[key] = (tuple(p.occurrences.tolist()), p.vertex_count, p.edge_count)
    assert got == oracles.mine_exhaustively(db, 2, max_vertices, singletons)


def test_full_family_stops_at_its_timeout():
    db = planted_database(40, 3)
    assert full_family(db, CONFIG, timeout=1e-9) is None
    family = full_family(db, CONFIG)
    assert len(family) == 133
    again = full_family(db, CONFIG, timeout=math.inf)
    assert [value(p) for p in again] == [value(p) for p in family]


@pytest.mark.parametrize("timeout", [math.nan, -1.0, 0.0])
def test_full_family_rejects_a_timeout_that_is_not_positive(timeout):
    # NaN never compares past the clock and would never stop the run
    with pytest.raises(ValueError, match="timeout"):
        full_family(planted_database(40, 3), CONFIG, timeout)


class TestDegenerateInputs:
    def test_no_testable_frequency(self):
        db = GraphDatabase.from_graphs(
            (edgeless(0, (0,)), edgeless(1, (0,))), (1, 0)
        )
        for strategy in STRATEGIES:
            r = find_root(db, 0.05, CONFIG, "two", strategy)
            assert r.status == "no_testable"
            assert r.min_testable_frequency is None
            assert r.root_frequency is None
            assert r.testable == ()
            assert r.fsm_invocations == 0
        assert score_patterns(r.testable, db, 0.05, "two", 1.0) == ()

    def test_nothing_frequent_at_sigma_min(self):
        # eight graphs with eight distinct labels: every frequency is 1,
        # below sigma_min = 4, so the root is sigma_min with empty testable
        db = GraphDatabase.from_graphs(
            tuple(edgeless(i, (i,)) for i in range(8)),
            (1, 1, 1, 1, 0, 0, 0, 0),
        )
        for strategy in STRATEGIES:
            r = find_root(db, 0.05, CONFIG, "two", strategy)
            assert r.status == "ok"
            assert r.root_frequency == r.min_testable_frequency == 4
            assert r.testable == ()

    def test_unknown_strategy_rejected(self, toy_db):
        with pytest.raises(ValueError, match="strategy"):
            find_root(toy_db, 0.05, CONFIG, "two", "binary")


class TestMinerKnobsRespected:
    @pytest.fixture
    def edged_db(self):
        # class 1 graphs carry an A-x-B edge, class 0 graphs only an A
        graphs = [
            LabeledGraph(i, (0, 1), ((0, 1, 0),)) for i in range(5)
        ] + [edgeless(5 + i, (0,)) for i in range(5)]
        classes = (1,) * 5 + (0,) * 5
        return GraphDatabase.from_graphs(
            tuple(graphs), classes, vertex_tokens=("A", "B"), edge_tokens=("x",)
        )

    def test_full_vocabulary(self, edged_db):
        r = find_root(edged_db, 0.05, CONFIG)
        assert r.root_frequency == 5
        assert sorted(codes(r, edged_db)) == ["0,1,A,x,B", "A", "B"]

    def test_max_vertices_limits_testable_set(self, edged_db):
        r = find_root(edged_db, 0.05, MinerConfig(1, max_vertices=1))
        assert r.root_frequency == 5
        assert sorted(codes(r, edged_db)) == ["A", "B"]

    def test_singleton_exclusion_changes_root(self, edged_db):
        r = find_root(edged_db, 0.05, MinerConfig(1, count_singletons=False))
        # only the edge pattern remains, and one pattern fits the budget
        # already at sigma_min = 4
        assert r.root_frequency == 4
        assert codes(r, edged_db) == ["0,1,A,x,B"]


class TestSignificantSet:
    @pytest.fixture
    def enriched_db(self):
        # label A in the ten class 1 graphs, label B in the ten class 0 ones
        graphs = [edgeless(i, (0,)) for i in range(10)]
        graphs += [edgeless(10 + i, (1,)) for i in range(10)]
        classes = (1,) * 10 + (0,) * 10
        return GraphDatabase.from_graphs(
            tuple(graphs), classes, vertex_tokens=("A", "B")
        )

    def test_one_tailed_enrichment(self, enriched_db):
        r = find_root(enriched_db, 0.05, CONFIG, "right")
        assert r.root_frequency == 5
        assert sorted(codes(r, enriched_db)) == ["A", "B"]
        records = score_patterns(r.testable, enriched_db, 0.05, "right", 2.0)
        assert [code_string(rec.pattern.code, enriched_db) for rec in records] == [
            "A",
            "B",
        ]
        a, b = records
        assert a.p_value == pytest.approx(1 / 184756, rel=1e-12)
        assert a.significant
        assert b.p_value == 1.0
        assert not b.significant
        assert a.min_p <= a.p_value and b.min_p <= b.p_value

    def test_factor_one_direct(self, enriched_db):
        r = find_root(enriched_db, 0.05, CONFIG, "right")
        records = score_patterns(r.testable, enriched_db, 0.05, "right", 1.0)
        assert records[0].p_value < 0.05
        assert records[0].significant

    def test_records_sorted_by_pvalue_then_code(self, enriched_db):
        r = find_root(enriched_db, 0.05, CONFIG, "two")
        records = score_patterns(r.testable, enriched_db, 0.05, "two", 1.0)
        keys = [
            (rec.p_value, code_string(rec.pattern.code, enriched_db))
            for rec in records
        ]
        assert keys == sorted(keys)

    def test_factor_below_one_rejected(self, enriched_db):
        r = find_root(enriched_db, 0.05, CONFIG)
        with pytest.raises(ValueError):
            score_patterns(r.testable, enriched_db, 0.05, "two", 0.5)

    def test_counts_beyond_the_class_sizes_rejected(self, enriched_db):
        # a hand-built pattern's x must index its margin's row, never wrap
        for x, x_prime in ((11, 0), (0, 11), (12, 3)):
            pattern = Pattern(((0, 0, 0, NO_EDGE, 0),), (), x, x_prime)
            with pytest.raises(ValueError, match="class sizes"):
                score_patterns([pattern], enriched_db, 0.05, "two", 1.0)

    def test_nan_factor_rejected(self, enriched_db):
        # a NaN factor would give every record a NaN threshold and mark
        # nothing significant
        r = find_root(enriched_db, 0.05, CONFIG)
        with pytest.raises(ValueError, match="correction_factor"):
            score_patterns(r.testable, enriched_db, 0.05, "two", float("nan"))

    def test_right_tail_follows_class_one_as_the_majority(self):
        # three class 1 graphs with label A against one class 0 graph: the
        # right tail means enrichment in class 1 although it is the larger
        graphs = (
            edgeless(0, (0,)),
            edgeless(1, (0,)),
            edgeless(2, (0,)),
            edgeless(3, (1,)),
        )
        db = GraphDatabase.from_graphs(
            graphs, (1, 1, 1, 0), vertex_tokens=("A", "B")
        )
        assert (db.n, db.n_prime) == (3, 1)
        r = find_root(db, 0.9, CONFIG, "right")
        by_code = {
            code_string(rec.pattern.code, db): rec
            for rec in score_patterns(r.testable, db, 0.9, "right", 1.0)
        }
        # q(x=3 of the three class 1 slots at margin 3) = 1 / C(4,3)
        assert by_code["A"].p_value == pytest.approx(0.25, rel=1e-12)


def test_unknown_tail_rejected_when_class_one_is_the_majority():
    # every entry point must reject the tail, not run it as another one
    graphs = tuple(edgeless(i, (0,)) for i in range(3)) + (edgeless(3, (1,)),)
    db = GraphDatabase.from_graphs(graphs, (1, 1, 1, 0), vertex_tokens=("A", "B"))
    testable = find_root(db, 0.9, CONFIG, "right").testable
    assert testable
    with pytest.raises(ValueError, match="tail"):
        find_root(db, 0.9, CONFIG, "both")
    with pytest.raises(ValueError, match="tail"):
        score_patterns(testable, db, 0.9, "both")
    with pytest.raises(ValueError, match="tail"):
        min_p_distribution(testable, PermutationPlan(5, 0), db, "both")


def test_alpha_outside_the_unit_interval_rejected():
    # before this was checked, alpha = 1.5 marked all 14 testable patterns
    # significant, NaN marked none and -1 gave a negative threshold
    db = planted_database(40, 3)
    testable = find_root(db, 0.05, CONFIG).testable
    assert len(testable) == 14
    for bad in (1.5, float("nan"), -1.0, 0.0, 1.0):
        with pytest.raises(ValueError, match="alpha"):
            score_patterns(testable, db, bad, "two", float(len(testable)))
        with pytest.raises(ValueError, match="alpha"):
            score_patterns([], db, bad)
    # the tail is checked first
    with pytest.raises(ValueError, match="tail"):
        score_patterns(testable, db, 1.5, "both")


def test_unknown_tail_rejected_for_an_empty_family():
    # an empty family reads no table, so the tail is checked before it
    graphs = (edgeless(0, (0,)), edgeless(1, (1,)), edgeless(2, (0,)), edgeless(3, (1,)))
    db = GraphDatabase.from_graphs(graphs, (1, 0, 1, 0), vertex_tokens=("A", "B"))
    with pytest.raises(ValueError, match="tail"):
        score_patterns([], db, 0.05, "both")
    with pytest.raises(ValueError, match="tail"):
        empirical_fwer([], 0.05, PermutationPlan(5, 0), db, "both")


def test_scoring_memory_is_bounded_over_many_margins():
    # 2000 positives and 2500 negatives; 200 patterns with distinct margins
    # in shuffled order. Keeping every margin's table costs about 5 MiB here.
    n, n_prime = 2000, 2500
    db = GraphDatabase.from_graphs(
        [edgeless(i, (0,)) for i in range(n + n_prime)],
        (1,) * n + (0,) * n_prime,
        vertex_tokens=tuple(f"L{i}" for i in range(200)),
    )
    margins = list(range(5, 605, 3))
    random.Random(0).shuffle(margins)
    patterns = [
        Pattern(((0, 0, i, NO_EDGE, i),), (), f // 2, f - f // 2)
        for i, f in enumerate(margins)
    ]
    tracemalloc.start()
    try:
        records = score_patterns(patterns, db, 0.05, "two", float(len(patterns)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == len(patterns)
    assert all(rec.p_value >= rec.min_p for rec in records)
    assert peak < 2**20


@st.composite
def small_db(draw):
    n_graphs = draw(st.integers(3, 6))
    graphs = []
    for gid in range(n_graphs):
        nv = draw(st.integers(1, 4))
        labels = tuple(draw(st.integers(0, 2)) for _ in range(nv))
        edges = []
        for u in range(nv):
            for v in range(u + 1, nv):
                if draw(st.booleans()):
                    edges.append((u, v, draw(st.integers(0, 1))))
        graphs.append(LabeledGraph(gid, labels, tuple(edges)))
    classes = [draw(st.integers(0, 1)) for _ in range(n_graphs)]
    assume(any(c == 1 for c in classes) and any(c == 0 for c in classes))
    return GraphDatabase.from_graphs(graphs, classes)


@settings(max_examples=60, deadline=None)
@given(
    small_db(),
    st.sampled_from((0.01, 0.05, 0.2, 0.5)),
    st.sampled_from(("two", "left", "right")),
)
def test_strategies_agree_and_satisfy_root_property(db, alpha, tail):
    results = {s: find_root(db, alpha, CONFIG, tail, s) for s in STRATEGIES}
    fingerprints = {result_fingerprint(r) for r in results.values()}
    assert len(fingerprints) == 1

    r = results["incremental"]
    if r.status == "no_testable":
        assert min_testable_frequency(alpha, db.n, db.n_prime, tail) is None
        return

    completed = [t for t in r.trace if t.status == "completed"]
    assert len(completed) == 1
    assert results["onepass"].fsm_invocations == 1
    assert results["dynamic"].fsm_invocations == 1
    # dynamic emits a subset of what onepass emits, and at least the testable set
    assert (
        len(r.testable)
        <= results["dynamic"].patterns_expanded
        <= results["onepass"].patterns_expanded
    )

    # root property against the full sigma = 1 census: the count fits the
    # budget at the root and overflows it one step below
    census = mine(db, CONFIG).patterns
    sigma_rt = r.root_frequency
    bound = lambda s: min_attainable_pvalue(s, db.n, db.n_prime, tail)
    count = lambda s: sum(1 for p in census if p.frequency >= s)
    assert count(sigma_rt) <= alpha / bound(sigma_rt)
    if sigma_rt > r.min_testable_frequency:
        assert count(sigma_rt - 1) > alpha / bound(sigma_rt - 1)
    else:
        assert sigma_rt == r.min_testable_frequency

    # the testable set is exactly the census filtered at the root
    expected = frozenset(
        (p.code, tuple(p.occurrences.tolist())) for p in census if p.frequency >= sigma_rt
    )
    assert frozenset((p.code, tuple(p.occurrences.tolist())) for p in r.testable) == expected
    assert len(r.testable) <= count(r.min_testable_frequency)
    assert len(r.testable) <= alpha / bound(sigma_rt)

    # every testable pattern is individually testable at the root budget
    for p in r.testable:
        assert bound(p.frequency) <= bound(sigma_rt)

    records = score_patterns(r.testable, db, alpha, tail, max(1.0, float(len(r.testable))))
    for rec in records:
        assert rec.min_p <= rec.p_value
        assert type(rec.p_value) is type(rec.min_p) is float
        assert type(rec.significant) is bool
        exact = oracles.fisher(rec.pattern.x, rec.pattern.frequency, db.n, db.n_prime, tail)
        assert rec.p_value == pytest.approx(float(exact), rel=1e-12)
