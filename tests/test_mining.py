import inspect
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from sigmine.graphs import GraphDatabase, LabeledGraph, parse_database
from sigmine.mining import (
    NO_EDGE,
    MinerConfig,
    MiningTimeout,
    _root_state,
    _step,
    code_string,
    code_to_graph,
    is_canonical,
    mine,
    minimum_code,
)

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
    assert outcome.status == "completed"
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
        assert p.occurrences == frozenset({0, 1})
        assert (p.x, p.x_prime) == (1, 1)
        assert p.frequency == 2
    path = outcome.patterns[4]
    assert (path.vertex_count, path.edge_count) == (3, 2)
    assert code_string(path.code, db) == "0,1,A,x,B;1,2,B,y,C"
    assert code_string(codes[0], db) == "A"


def test_budget_aborts_enumeration(db):
    run = mine(db, MinerConfig(min_frequency=2, pattern_budget=4))
    assert run.status == "terminated_early"
    assert run.patterns == ()
    assert run.emitted_count == 5

    run = mine(db, MinerConfig(min_frequency=2, pattern_budget=5))
    assert run.status == "terminated_early"
    assert run.emitted_count == 6

    # a budget equal to the true count must not trip
    run = mine(db, MinerConfig(min_frequency=2, pattern_budget=6))
    assert run.status == "completed"
    assert run.emitted_count == 6
    assert len(run.patterns) == 6

    run = mine(db, MinerConfig(min_frequency=2, pattern_budget=0))
    assert run.status == "terminated_early"
    assert run.emitted_count == 1


def test_threshold_above_database_size(db):
    run = mine(db, MinerConfig(min_frequency=3))
    assert run.status == "completed"
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
    assert run.status == "completed"
    assert len(run.patterns) == 10
    codes = [p.code for p in run.patterns]
    assert len(set(codes)) == 10
    triangle = ((0, 1, 0, 0, 1), (1, 2, 1, 1, 2), (2, 0, 2, 2, 0))
    assert triangle in codes
    for p in run.patterns:
        assert p.occurrences == frozenset({0, 1})


def test_minimum_code_of_triangle():
    tri = LabeledGraph(0, (0, 1, 2), ((0, 1, 0), (1, 2, 1), (0, 2, 2)))
    assert minimum_code(tri) == ((0, 1, 0, 0, 1), (1, 2, 1, 1, 2), (2, 0, 2, 2, 0))


def test_minimum_code_of_singleton():
    g = LabeledGraph(0, (7,), ())
    assert minimum_code(g) == ((0, 0, 7, NO_EDGE, 7),)


def test_is_canonical_rejects_rotated_triangle_code():
    rotated = ((0, 1, 1, 1, 2), (1, 2, 2, 2, 0), (2, 0, 0, 0, 1))
    # a valid description of the same triangle, rooted at the wrong edge
    assert code_to_graph(rotated).edge_count == 3
    assert not is_canonical(rotated)
    assert is_canonical(((0, 1, 0, 0, 1), (1, 2, 1, 1, 2), (2, 0, 2, 2, 0)))
    assert is_canonical(((0, 0, 3, NO_EDGE, 3),))


def test_minimum_code_rejects_disconnected_input():
    with pytest.raises(ValueError, match="disconnected"):
        minimum_code(LabeledGraph(0, (0, 1), ()))
    with pytest.raises(ValueError, match="disconnected"):
        minimum_code(LabeledGraph(0, (0, 0, 1, 1), ((0, 1, 0), (2, 3, 0))))


def test_minimum_code_rejects_isolated_vertex():
    # the edges alone are connected, so only the vertex count can tell
    with pytest.raises(ValueError, match="disconnected"):
        minimum_code(LabeledGraph(0, (0, 1, 2), ((0, 1, 0),)))


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
    assert outcome.status == "completed"
    longest = max(outcome.patterns, key=lambda p: p.edge_count)
    assert (longest.vertex_count, longest.edge_count) == (n, n - 1)
    assert longest.occurrences == frozenset({0})


def test_code_validation_rejects_malformed_codes():
    with pytest.raises(ValueError, match="introduce vertex 2"):
        code_to_graph(((0, 1, 0, 0, 1), (2, 3, 0, 0, 1)))
    with pytest.raises(ValueError, match="rightmost vertex"):
        code_to_graph(
            ((0, 1, 0, 0, 1), (1, 2, 1, 0, 2), (2, 3, 2, 0, 3), (2, 0, 2, 0, 0))
        )
    with pytest.raises(ValueError, match="relabeled"):
        code_to_graph(((0, 1, 0, 0, 1), (1, 2, 5, 0, 2)))
    with pytest.raises(ValueError, match="duplicate edge"):
        code_to_graph(((0, 1, 0, 0, 1), (1, 0, 1, 0, 0)))
    with pytest.raises(ValueError, match="start with the edge"):
        code_to_graph(((1, 2, 0, 0, 1),))
    with pytest.raises(ValueError, match="singleton"):
        code_to_graph(((0, 0, 3, NO_EDGE, 4),))
    with pytest.raises(ValueError, match="empty"):
        code_to_graph(())


def test_occurrences_verified_by_brute_force_isomorphism(db):
    outcome = mine(db, MinerConfig(min_frequency=1))
    assert len(outcome.patterns) == 10
    for p in outcome.patterns:
        g = code_to_graph(p.code)
        for pos, host in enumerate(db.graphs):
            present = oracles.iso_contains(host, g.vertex_labels, g.edges)
            assert (pos in p.occurrences) == present


def test_mining_is_deterministic(db):
    config = MinerConfig(min_frequency=1)
    assert mine(db, config).patterns == mine(db, config).patterns


def test_deadline_in_the_past_raises(db):
    with pytest.raises(MiningTimeout):
        mine(db, MinerConfig(min_frequency=1), deadline=time.monotonic() - 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        MinerConfig(min_frequency=0)
    with pytest.raises(ValueError):
        MinerConfig(min_frequency=1, max_vertices=0)
    with pytest.raises(ValueError):
        MinerConfig(min_frequency=1, pattern_budget=-1)


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
    assert outcome.status == "completed"
    assert outcome.emitted_count == len(outcome.patterns)
    expected = oracles.mine_exhaustively(db, sigma, max_vertices, singletons)
    got = {}
    for p in outcome.patterns:
        assert is_canonical(p.code)
        g = code_to_graph(p.code)
        key = oracles.canonical_key(g.vertex_labels, g.edges)
        assert key not in got, "pattern emitted twice"
        got[key] = (p.occurrences, p.vertex_count, p.edge_count)
        assert p.x == sum(1 for t in p.occurrences if db.is_internal_positive(t))
        assert p.x + p.x_prime == len(p.occurrences)
    assert got == expected


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
    back = code_to_graph(code)
    assert oracles.canonical_key(back.vertex_labels, back.edges) == oracles.canonical_key(
        graph.vertex_labels, graph.edges
    )
