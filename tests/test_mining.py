import inspect
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from sigmine import graphs, mining
from sigmine.graphs import GraphDatabase, LabeledGraph, parse_database
from sigmine.mining import (
    NO_EDGE,
    MinerConfig,
    Pattern,
    _root_state,
    _step,
    code_string,
    is_canonical,
    mine,
    minimum_code,
)
from sigmine.search import full_family
from sigmine.synth import planted_database, random_database

# graph 0: the path A-x-B-y-C; graph 1: the same path closed into a triangle
PATH_AND_TRIANGLE = """\
t # 0 1
v 0 A
v 1 B
v 2 C
e 0 1 x
e 1 2 y
t # 1 0
v 0 A
v 1 B
v 2 C
e 0 1 x
e 1 2 y
e 0 2 z
"""


@pytest.fixture
def db():
    return parse_database(PATH_AND_TRIANGLE)


def test_frequent_patterns_and_emission_order(db):
    outcome = mine(db, MinerConfig(min_frequency=2))
    assert outcome.emitted_count == 6
    codes = [p.code for p in outcome.patterns]
    assert codes == [
        ((0, 0, 0, NO_EDGE, 0),),
        ((0, 0, 1, NO_EDGE, 1),),
        ((0, 0, 2, NO_EDGE, 2),),
        ((0, 1, 0, 0, 1),),
        ((0, 1, 0, 0, 1), (1, 2, 1, 1, 2)),
        ((0, 1, 1, 1, 2),),
    ]
    for p in outcome.patterns:
        assert p.occurrences.tolist() == [0, 1]
        assert (p.x, p.x_prime) == (1, 1)
        assert p.frequency == 2
    path = outcome.patterns[4]
    assert (path.vertex_count, path.edge_count) == (3, 2)
    assert code_string(path.code, db) == "0,1,A,x,B;1,2,B,y,C"
    assert code_string(codes[0], db) == "A"


def test_threshold_above_database_size(db):
    run = mine(db, MinerConfig(min_frequency=3))
    assert run.patterns == ()
    assert run.emitted_count == 0


def test_max_vertices_caps_pattern_size(db):
    run = mine(db, MinerConfig(min_frequency=1, max_vertices=2))
    assert all(p.vertex_count <= 2 for p in run.patterns)
    assert len(run.patterns) == 6  # 3 singletons + 3 distinct edges

    run = mine(db, MinerConfig(min_frequency=1, max_vertices=1))
    assert [p.code for p in run.patterns] == [
        ((0, 0, 0, NO_EDGE, 0),),
        ((0, 0, 1, NO_EDGE, 1),),
        ((0, 0, 2, NO_EDGE, 2),),
    ]

    run = mine(db, MinerConfig(min_frequency=1, max_vertices=1, count_singletons=False))
    assert run.patterns == ()


def test_singletons_can_be_excluded(db):
    run = mine(db, MinerConfig(min_frequency=2, count_singletons=False))
    assert all(p.edge_count >= 1 for p in run.patterns)
    assert len(run.patterns) == 3


def test_cycle_counted_once_despite_symmetric_embeddings():
    text = PATH_AND_TRIANGLE.replace(
        "t # 0 1\nv 0 A\nv 1 B\nv 2 C\ne 0 1 x\ne 1 2 y\n",
        "t # 0 1\nv 0 A\nv 1 B\nv 2 C\ne 0 1 x\ne 1 2 y\ne 0 2 z\n",
    )
    db = parse_database(text)
    run = mine(db, MinerConfig(min_frequency=2))
    assert len(run.patterns) == 10
    codes = [p.code for p in run.patterns]
    assert len(set(codes)) == 10
    triangle = ((0, 1, 0, 0, 1), (1, 2, 1, 1, 2), (2, 0, 2, 2, 0))
    assert triangle in codes
    for p in run.patterns:
        assert p.occurrences.tolist() == [0, 1]


def test_minimum_code_of_triangle():
    tri = LabeledGraph(0, (0, 1, 2), ((0, 1, 0), (1, 2, 1), (0, 2, 2)))
    assert minimum_code(tri) == ((0, 1, 0, 0, 1), (1, 2, 1, 1, 2), (2, 0, 2, 2, 0))


def test_minimum_code_of_singleton():
    g = LabeledGraph(0, (7,), ())
    assert minimum_code(g) == ((0, 0, 7, NO_EDGE, 7),)


def test_is_canonical_rejects_rotated_triangle_code():
    rotated = ((0, 1, 1, 1, 2), (1, 2, 2, 2, 0), (2, 0, 0, 0, 1))
    # a valid description of the same triangle, rooted at the wrong edge
    assert oracles.code_to_graph(rotated).edge_count == 3
    assert not is_canonical(rotated)
    assert is_canonical(((0, 1, 0, 0, 1), (1, 2, 1, 1, 2), (2, 0, 2, 2, 0)))
    assert is_canonical(((0, 0, 3, NO_EDGE, 3),))


def _first_difference(code):
    """Index of the first quint where ``code`` leaves its graph's minimum code."""
    minimum = oracles.minimum_code_reference(oracles.code_to_graph(code))
    return next(i for i, (a, b) in enumerate(zip(code, minimum)) if a != b)


def test_is_canonical_rejects_at_the_first_quint():
    # the edge B-A written from B; read from A its label triple is smaller
    code = ((0, 1, 1, 0, 0),)
    assert _first_difference(code) == 0
    assert not is_canonical(code)


def test_is_canonical_rejects_at_a_backward_quint():
    # a triangle with a pendant vertex 3 that closes onto 1 before 0: the
    # prefix is minimal, and the backward edge to 0 sorts first
    code = ((0, 1, 0, 0, 0), (1, 2, 0, 0, 0), (2, 0, 0, 0, 0), (2, 3, 0, 0, 0), (3, 1, 0, 0, 0))
    assert is_canonical(code[:4])
    assert _first_difference(code) == 4
    assert not is_canonical(code)


def test_is_canonical_rejects_a_code_that_repeats_an_edge():
    # the backward quint joins 1 to 0 a second time, so no embedding of the
    # prefix realises it: the code describes no simple graph
    assert not is_canonical(((0, 1, 0, 0, 0), (1, 0, 0, 1, 0)))


@pytest.mark.parametrize(
    "code, at",
    [
        # a forward edge from the same vertex to a smaller label
        (((0, 1, 0, 0, 0), (1, 2, 0, 0, 2), (1, 3, 0, 0, 1)), 1),
        # a forward edge from a deeper vertex of the rightmost path
        (((0, 1, 0, 0, 0), (1, 2, 0, 0, 0), (0, 3, 0, 0, 0)), 2),
        # a backward edge, which sorts before every forward one
        (((0, 1, 0, 0, 0), (1, 2, 0, 0, 0), (2, 3, 0, 0, 0), (3, 0, 0, 1, 0), (3, 1, 0, 0, 0)), 2),
    ],
)
def test_is_canonical_rejects_at_a_forward_quint(code, at):
    assert code[at][0] < code[at][1]
    assert is_canonical(code[:at])
    assert _first_difference(code) == at
    assert not is_canonical(code)


@pytest.mark.parametrize(
    "graph",
    [
        LabeledGraph(0, (0,) * 4, tuple((u, v, 0) for u in range(4) for v in range(u + 1, 4))),
        LabeledGraph(0, (0,) * 6, tuple((v, (v + 1) % 6, 0) for v in range(6))),
        LabeledGraph(0, (0, 1) * 3, tuple((v, (v + 1) % 6, 0) for v in range(6))),
    ],
    ids=["K4", "C6", "C6-two-labels"],
)
def test_is_canonical_on_symmetric_graphs(graph):
    # many embeddings of each prefix tie with the code's own quint, so the
    # walk keeps several of them at every step; with two labels, codes that
    # start from the larger one are rejected at the first quint
    code = oracles.minimum_code_reference(graph)
    assert is_canonical(code)
    rng = random.Random(0)
    for _ in range(50):
        other = oracles.random_dfs_code(graph, rng)
        assert is_canonical(other) == (other == code)


def test_minimum_code_rejects_disconnected_input():
    with pytest.raises(ValueError, match="disconnected"):
        minimum_code(LabeledGraph(0, (0, 1), ()))
    with pytest.raises(ValueError, match="disconnected"):
        minimum_code(LabeledGraph(0, (0, 0, 1, 1), ((0, 1, 0), (2, 3, 0))))


def test_minimum_code_rejects_isolated_vertex():
    # the edges alone are connected, so only the vertex count can tell
    with pytest.raises(ValueError, match="disconnected"):
        minimum_code(LabeledGraph(0, (0, 1, 2), ((0, 1, 0),)))


def test_minimum_code_of_a_deep_cycle_and_a_clique():
    # one label: every rotation and reflection of the cycle ties, and K6's
    # 720 self-embeddings all realise each prefix of its code
    cycle = LabeledGraph(0, (0,) * 60, tuple((v, (v + 1) % 60, 0) for v in range(60)))
    cycle_code = tuple((v, v + 1, 0, 0, 0) for v in range(59)) + ((59, 0, 0, 0, 0),)
    k6 = LabeledGraph(0, (0,) * 6, tuple((u, v, 0) for u in range(6) for v in range(u + 1, 6)))
    # each new vertex hangs off the last one and closes onto every earlier one
    k6_code = tuple(
        quint
        for v in range(1, 6)
        for quint in [(v - 1, v, 0, 0, 0)] + [(v, j, 0, 0, 0) for j in range(v - 1)]
    )
    for graph, code in ((cycle, cycle_code), (k6, k6_code)):
        assert minimum_code(graph) == code
        assert oracles.minimum_code_reference(graph) == code
        assert is_canonical(code)


def test_rmpath_follows_last_forward_chain():
    state = _root_state(0)
    for quint in ((0, 1, 0, 0, 0), (1, 2, 0, 0, 0)):
        state = _step(*state, quint)
    assert state[0] == (0, 1, 2)
    assert _step(*state, (1, 3, 0, 0, 0))[0] == (0, 1, 3)


def test_mines_a_path_deeper_than_the_recursion_limit():
    # distinct vertex labels make the whole path the only 70-edge pattern;
    # growing it takes 70 levels, more than the stack has room for
    n = 71
    path = LabeledGraph(0, tuple(range(n)), tuple((v, v + 1, 0) for v in range(n - 1)))
    db = GraphDatabase.from_graphs([path, LabeledGraph(1, (0,), ())], [1, 0])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        outcome = mine(db, MinerConfig(min_frequency=1, count_singletons=False))
    finally:
        sys.setrecursionlimit(limit)
    longest = max(outcome.patterns, key=lambda p: p.edge_count)
    assert (longest.vertex_count, longest.edge_count) == (n, n - 1)
    assert longest.occurrences.tolist() == [0]


def test_code_validation_rejects_malformed_codes():
    with pytest.raises(ValueError, match="introduce vertex 2"):
        oracles.code_to_graph(((0, 1, 0, 0, 1), (2, 3, 0, 0, 1)))
    with pytest.raises(ValueError, match="rightmost vertex"):
        oracles.code_to_graph(
            ((0, 1, 0, 0, 1), (1, 2, 1, 0, 2), (2, 3, 2, 0, 3), (2, 0, 2, 0, 0))
        )
    with pytest.raises(ValueError, match="relabeled"):
        oracles.code_to_graph(((0, 1, 0, 0, 1), (1, 2, 5, 0, 2)))
    with pytest.raises(ValueError, match="duplicate edge"):
        oracles.code_to_graph(((0, 1, 0, 0, 1), (1, 0, 1, 0, 0)))
    with pytest.raises(ValueError, match="start with the edge"):
        oracles.code_to_graph(((1, 2, 0, 0, 1),))
    with pytest.raises(ValueError, match="singleton"):
        oracles.code_to_graph(((0, 0, 3, NO_EDGE, 4),))
    with pytest.raises(ValueError, match="empty"):
        oracles.code_to_graph(())


def test_occurrences_verified_by_brute_force_isomorphism(db):
    outcome = mine(db, MinerConfig(min_frequency=1))
    assert len(outcome.patterns) == 10
    for p in outcome.patterns:
        g = oracles.code_to_graph(p.code)
        for pos, host in enumerate(db.graphs):
            present = oracles.iso_contains(host, g.vertex_labels, g.edges)
            assert (pos in p.occurrences) == present


def test_pattern_holds_its_occurrences_as_a_read_only_int32_array():
    given = np.array([1, 4, 9], np.int64)
    for source in ((1, 4, 9), [1, 4, 9], given):
        p = Pattern((), source, 2, 1)
        assert p.occurrences.dtype == np.int32 and p.occurrences.ndim == 1
        assert not p.occurrences.flags.writeable
        assert p.occurrences.tolist() == [1, 4, 9]
    # the stored array is a copy: the caller's own stays theirs to change
    assert given.flags.writeable
    given[0] = 0
    assert p.occurrences.tolist() == [1, 4, 9]
    # patterns compare and hash by identity
    assert hash(p) == object.__hash__(p)
    assert p != Pattern((), (1, 4, 9), 2, 1)


def test_mining_is_deterministic(db):
    config = MinerConfig(min_frequency=1)

    def values(outcome):
        return [(p.code, p.occurrences.tolist(), p.x, p.x_prime) for p in outcome.patterns]

    assert values(mine(db, config)) == values(mine(db, config))


def test_layout_is_built_once_per_database(db):
    # every threshold probe of a root search reads the same arrays
    with mock.patch.object(graphs, "ArrayLayout", wraps=graphs.ArrayLayout) as built:
        for sigma in (1, 2, 1):
            mine(db, MinerConfig(min_frequency=sigma))
    assert built.call_count == 1


def test_exception_from_on_emit_ends_the_run(db):
    # the root search's pattern budgets rely on this: the run stops at the
    # emission whose hook raised, and the exception reaches the caller
    class Stop(Exception):
        pass

    seen = []

    def on_emit(frequency):
        seen.append(frequency)
        if len(seen) == 3:
            raise Stop
        return 2

    with pytest.raises(Stop):
        mine(db, MinerConfig(min_frequency=2), on_emit=on_emit)
    assert seen == [2, 2, 2]


def test_config_validation():
    with pytest.raises(ValueError):
        MinerConfig(min_frequency=0)
    with pytest.raises(ValueError):
        MinerConfig(min_frequency=1, max_vertices=0)


@pytest.mark.parametrize("field", ["min_frequency", "max_vertices"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, np.int64(3)])
def test_config_counts_must_be_integers(field, value):
    kwargs = {"min_frequency": 2, field: value}
    if isinstance(value, np.integer):
        held = getattr(MinerConfig(**kwargs), field)
        assert held == 3 and type(held) is int
    else:
        with pytest.raises(TypeError):
            MinerConfig(**kwargs)


@st.composite
def small_db(draw):
    n_graphs = draw(st.integers(3, 6))
    graphs = []
    for gid in range(n_graphs):
        nv = draw(st.integers(1, 5))
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


@settings(max_examples=50, deadline=None)
@given(small_db(), st.integers(1, 3), st.sampled_from([None, 2, 3]), st.booleans())
def test_miner_matches_exhaustive_enumeration(db, sigma, max_vertices, singletons):
    config = MinerConfig(sigma, max_vertices=max_vertices, count_singletons=singletons)
    outcome = mine(db, config)
    assert outcome.emitted_count == len(outcome.patterns)
    expected = oracles.mine_exhaustively(db, sigma, max_vertices, singletons)
    got = {}
    for p in outcome.patterns:
        assert is_canonical(p.code)
        g = oracles.code_to_graph(p.code)
        key = oracles.canonical_key(g.vertex_labels, g.edges)
        assert key not in got, "pattern emitted twice"
        got[key] = (tuple(p.occurrences.tolist()), p.vertex_count, p.edge_count)
        assert p.x == sum(db.original_classes[t] for t in p.occurrences)
        assert p.x + p.x_prime == len(p.occurrences)
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(
    small_db(),
    st.integers(1, 3),
    st.sampled_from([None, 1, 2, 3]),
    st.booleans(),
    st.dictionaries(st.integers(0, 30), st.integers(2, 7), max_size=3),
)
def test_miner_emits_in_the_order_of_the_scalar_reference(
    db, sigma, max_vertices, singletons, raises
):
    # the dynamic root search's trace depends on the order of emissions, not
    # only on their set; ``raises`` maps an emission's index to the threshold
    # the hook returns there
    config = MinerConfig(sigma, max_vertices=max_vertices, count_singletons=singletons)

    def run(miner):
        seen = []

        def on_emit(frequency):
            seen.append(frequency)
            return raises.get(len(seen) - 1, sigma)

        outcome = miner(db, config, on_emit=on_emit)
        emitted = [
            (p.code, tuple(p.occurrences.tolist()), p.x, p.x_prime) for p in outcome.patterns
        ]
        return (outcome.emitted_count, seen, emitted), outcome.patterns

    got, patterns = run(mine)
    assert got == run(oracles.mine_reference)[0]
    # one pattern per hook call, raised thresholds included
    assert got[0] == len(got[1]) == len(got[2])
    for p in patterns:
        occurrences = p.occurrences
        assert occurrences.dtype == np.int32 and occurrences.ndim == 1
        assert not occurrences.flags.writeable
        assert (occurrences[1:] > occurrences[:-1]).all()


def test_raised_threshold_prunes_children_joined_with_earlier_siblings():
    # siblings are joined together when the first of them is reached, so a
    # later sibling's children exist before the first sibling's subtree is
    # mined; a threshold raised in that subtree must still prune them
    db = planted_database(40, 3)
    batched = []
    join = mining._Miner._children

    def spy(miner, members):
        groups = join(miner, members)
        batched.append(len(members[0][3]) > 1 and len(groups) > 1)
        return groups

    def run(miner, at):
        seen = []

        def on_emit(frequency):
            seen.append(frequency)
            return 8 if len(seen) - 1 == at else 4

        outcome = miner(db, MinerConfig(4), on_emit=on_emit)
        emitted = [(p.code, tuple(p.occurrences.tolist())) for p in outcome.patterns]
        return outcome.emitted_count, seen, emitted

    for at in range(0, 40, 5):
        with mock.patch.object(mining._Miner, "_children", spy):
            got = run(mine, at)
        assert got == run(oracles.mine_reference, at)
        assert got[0] == len(got[1]) == len(got[2])
    assert any(batched)


def test_join_lists_only_minimal_frequent_children(db):
    # the join decides minimality, so no child it lists is dropped later
    cycle = tuple((v, (v + 1) % 8, 0) for v in range(8))
    cycles = GraphDatabase.from_graphs(
        [LabeledGraph(g, (0,) * 8, cycle) for g in range(4)], (1, 1, 0, 0)
    )
    join = mining._Miner._children
    listed = []

    def spy(miner, members):
        groups = join(miner, members)
        for group in groups:
            for quint, occ in zip(group.quints, group.occs):
                listed.append((group.code + (quint,), len(occ), miner.sigma))
        return groups

    for database, sigma in ((db, 1), (planted_database(40, 3), 4), (cycles, 2)):
        listed.clear()
        with mock.patch.object(mining._Miner, "_children", spy):
            mine(database, MinerConfig(sigma))
        assert listed
        for code, support, live in listed:
            assert code == oracles.minimum_code_reference(oracles.code_to_graph(code))
            assert support >= live


def test_memory_is_bounded_on_twenty_thousand_graphs():
    # a miner that holds its embeddings as tuples needs 44 MiB here
    db = random_database(20000, 0)
    tracemalloc.start()
    try:
        outcome = mine(db, MinerConfig(min_frequency=200, max_vertices=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.emitted_count == len(outcome.patterns) > 0
    assert all(p.frequency >= 200 and p.vertex_count <= 3 for p in outcome.patterns)
    assert peak < 24 * 2**20


def test_peak_memory_at_the_root_frequency_of_twenty_thousand_graphs():
    # sigma 18 is the null-20k benchmark's root frequency at seed 7. Joins
    # that batch siblings stop at a fixed number of candidate cells, so the
    # peak stays within 10% of the 9.18 MiB (9,628,426 bytes) a miner that
    # joins one code at a time reached here
    db = random_database(20000, 7)
    db.layout  # built before tracing, as it is by a run's earlier mines
    tracemalloc.start()
    try:
        outcome = mine(db, MinerConfig(min_frequency=18))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outcome.patterns) == 5850
    assert peak < 1.1 * 9628426


def test_kept_family_memory_is_bounded_on_twenty_thousand_graphs():
    # the family bonferroni-full keeps: 134 patterns over 158,254 occurrence
    # entries; frozensets hold 7 MiB of it, tuples of fresh ints 5.5 MiB,
    # tuples of shared ints 1.26 MiB and one int32 array per pattern 0.67 MiB
    db = random_database(20000, 7)
    db.layout  # built before tracing, as it is by a run's earlier mines
    tracemalloc.start()
    try:
        family = full_family(db, MinerConfig(min_frequency=1, max_vertices=3))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(family) == 134
    assert sum(p.frequency for p in family) == 158254
    assert held < 2**20


@st.composite
def renumbered_connected_graph(draw):
    """A connected labeled graph on at most 6 vertices and a renumbering of it."""
    nv = draw(st.integers(1, 6))
    labels = tuple(draw(st.integers(0, 2)) for _ in range(nv))
    # a random spanning tree keeps the graph connected; other pairs add cycles
    edges = {(draw(st.integers(0, v - 1)), v): draw(st.integers(0, 1)) for v in range(1, nv)}
    for u in range(nv):
        for v in range(u + 1, nv):
            if (u, v) not in edges and draw(st.booleans()):
                edges[(u, v)] = draw(st.integers(0, 1))
    perm = draw(st.permutations(range(nv)))
    graph = LabeledGraph(0, labels, tuple((u, v, lbl) for (u, v), lbl in edges.items()))
    renumbered = LabeledGraph(
        0,
        tuple(labels[perm.index(v)] for v in range(nv)),
        tuple((perm[u], perm[v], lbl) for (u, v), lbl in edges.items()),
    )
    return graph, renumbered


@settings(max_examples=200, deadline=None)
@given(renumbered_connected_graph())
def test_minimum_code_is_a_canonical_form(graphs):
    graph, renumbered = graphs
    code = minimum_code(graph)
    assert minimum_code(renumbered) == code
    assert is_canonical(code)
    back = oracles.code_to_graph(code)
    assert oracles.canonical_key(back.vertex_labels, back.edges) == oracles.canonical_key(
        graph.vertex_labels, graph.edges
    )


@settings(max_examples=300, deadline=None)
@given(renumbered_connected_graph(), st.randoms(use_true_random=False))
def test_is_canonical_accepts_exactly_the_minimum_code(graphs, rng):
    code = oracles.random_dfs_code(graphs[0], rng)
    minimum = oracles.minimum_code_reference(oracles.code_to_graph(code))
    assert is_canonical(code) == (code == minimum)


@st.composite
def any_graph(draw):
    """A graph on at most 7 vertices, often disconnected, with labels up to 10**12."""
    label = st.one_of(st.integers(0, 2), st.integers(0, 10**12))
    nv = draw(st.integers(0, 7))
    labels = tuple(draw(label) for _ in range(nv))
    edges = {}
    if draw(st.booleans()):
        # a random spanning tree makes the graph connected
        edges = {(draw(st.integers(0, v - 1)), v): draw(label) for v in range(1, nv)}
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    for pair in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
        edges.setdefault(pair, draw(label))
    return LabeledGraph(0, labels, tuple((u, v, lbl) for (u, v), lbl in edges.items()))


def _code_or_error(find, graph):
    try:
        return find(graph)
    except ValueError as error:
        return str(error)


@settings(max_examples=400, deadline=None)
@given(any_graph())
@example(LabeledGraph(0, (), ()))
@example(LabeledGraph(0, (10**12, 0, 10**12), ((0, 2, 10**12),)))
def test_minimum_code_agrees_with_the_greedy_reference(graph):
    # a zero-vertex, disconnected or isolated-vertex graph raises alike
    want = _code_or_error(oracles.minimum_code_reference, graph)
    assert _code_or_error(minimum_code, graph) == want
