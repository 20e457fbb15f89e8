import io
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from sigmine.graphs import (
    GraphDatabase,
    LabeledGraph,
    LabelError,
    ParseError,
    ValidityError,
    parse_database,
    serialize_database,
)

THREE_GRAPHS = """\
t # 0 1
v 0 A
v 1 B
e 0 1 x
t # 1 1
v 0 A
t # 2 0
v 0 B
"""


def test_parse_basic_counts():
    db = parse_database(THREE_GRAPHS)
    assert db.size == 3
    assert db.original_classes == (1, 1, 0)
    # n counts class 1 although it is the larger class
    assert db.n == 2
    assert db.n_prime == 1
    assert db.layout.positive.tolist() == [1, 1, 0]


def test_symbol_tables_in_first_appearance_order():
    db = parse_database(THREE_GRAPHS)
    assert db.vertex_tokens == ("A", "B")
    assert db.edge_tokens == ("x",)
    assert db.graphs[0].vertex_labels == (0, 1)
    assert db.graphs[0].edges == ((0, 1, 0),)


def test_comments_and_blank_lines_ignored():
    text = "% header comment\n\nt # 0 1\n  \nv 0 A\n% mid comment\nt # 1 0\nv 0 A\n"
    db = parse_database(text)
    assert db.size == 2


def test_round_trip_is_identity():
    db = parse_database(THREE_GRAPHS)
    again = parse_database(serialize_database(db))
    assert again == db
    assert serialize_database(again) == serialize_database(db)


def test_tokens_the_format_cannot_hold_are_rejected():
    # serialized, these would read "v 0 a b" and "v 0", which do not parse
    graphs = [LabeledGraph(0, (0, 1), ((0, 1, 0),)), LabeledGraph(1, (1,), ())]
    for bad in ("a b", "", "a\tb"):
        with pytest.raises(ValueError, match=re.escape(f"vertex token {bad!r}")):
            GraphDatabase.from_graphs(graphs, [1, 0], vertex_tokens=(bad, "c"))
        with pytest.raises(ValueError, match=re.escape(f"edge token {bad!r}")):
            GraphDatabase.from_graphs(graphs, [1, 0], edge_tokens=(bad,))


def test_round_trip_keeps_a_token_that_looks_like_a_comment():
    graphs = [LabeledGraph(0, (0, 1), ((0, 1, 0),)), LabeledGraph(1, (1,), ())]
    db = GraphDatabase.from_graphs(graphs, [1, 0], ("%x", "c"), ("%e",))
    again = parse_database(serialize_database(db))
    assert again == db
    assert again.vertex_tokens == ("%x", "c")
    assert again.edge_tokens == ("%e",)


def test_hash_and_unequal_ids_do_not_read_graphs_back():
    text = "t # 0 1\nv 0 A\nv 1 B\ne 0 1 x\nt # 1 0\nv 0 A\n"
    db = parse_database(text)
    other = parse_database(text.replace("t # 1 0", "t # 7 0"))
    assert hash(db) == hash(parse_database(text))
    assert db != other
    assert db == db
    assert "graphs" not in db.__dict__ and "graphs" not in other.__dict__
    assert db == parse_database(text)


def test_equality_is_token_resolved():
    a = GraphDatabase.from_graphs(
        [LabeledGraph(0, (0, 1), ((0, 1, 0),)), LabeledGraph(1, (0,), ())],
        [1, 0],
        vertex_tokens=("A", "B"),
        edge_tokens=("x",),
    )
    b = GraphDatabase.from_graphs(
        [LabeledGraph(0, (1, 0), ((0, 1, 0),)), LabeledGraph(1, (1,), ())],
        [1, 0],
        vertex_tokens=("B", "A"),
        edge_tokens=("x",),
    )
    assert a == b
    assert hash(a) == hash(b)
    c = GraphDatabase.from_graphs(
        [LabeledGraph(0, (0, 1), ((0, 1, 0),)), LabeledGraph(1, (1,), ())],
        [1, 0],
        vertex_tokens=("A", "B"),
        edge_tokens=("x",),
    )
    assert a != c


def test_labels_file_overrides_inline_classes():
    labels = "0 0\n1 0\n2 1\n"
    db = parse_database(THREE_GRAPHS, labels)
    assert db.original_classes == (0, 0, 1)
    assert db.n == 1


def test_labels_file_must_cover_every_graph():
    with pytest.raises(LabelError, match="missing from the labels file"):
        parse_database(THREE_GRAPHS, "0 0\n1 1\n")


def test_labels_file_extra_ids_ignored():
    labels = "0 1\n1 1\n2 0\n99 0\n"
    db = parse_database(THREE_GRAPHS, labels)
    assert db.size == 3


def test_labels_file_rejects_duplicates_and_junk():
    with pytest.raises(LabelError, match="duplicate"):
        parse_database(THREE_GRAPHS, "0 1\n0 0\n1 1\n2 0\n")
    with pytest.raises(LabelError, match="class must be 0 or 1"):
        parse_database(THREE_GRAPHS, "0 2\n1 1\n2 0\n")
    with pytest.raises(ParseError):
        parse_database(THREE_GRAPHS, "0 1 junk\n")


def test_missing_inline_class_without_labels_file():
    text = "t # 0\nv 0 A\nt # 1 0\nv 0 A\n"
    with pytest.raises(LabelError, match="no class assignment"):
        parse_database(text)


GOOD_PAIR = "t # 0 1\nv 0 A\nt # 1 0\nv 0 A\n"

# one malformed input per raise in parse_database and _parse_labels_file:
# (graph text, labels text, error type, exact message, line number or None)
PARSE_ERRORS = {
    "bad header": ("t 0 1\n", None, ParseError, "line 1: expected 't # <graph_id> [<class>]', got 't 0 1'", 1),
    "header arity": ("t # 0 1 2\n", None, ParseError, "line 1: expected 't # <graph_id> [<class>]', got 't # 0 1 2'", 1),
    "graph id": ("t # x 1\n", None, ParseError, "line 1: graph id must be an integer, got 'x'", 1),
    "duplicate graph id": ("t # 7 1\nv 0 A\nt # 7 0\nv 0 A\n", None, ParseError, "line 3: duplicate graph id 7", 3),
    "inline class": ("t # 0 3\nv 0 A\n", None, LabelError, "line 1: class must be 0 or 1, got '3'", None),
    "vertex before t": ("% c\nv 0 A\n", None, ParseError, "line 2: vertex line before any 't' line", 2),
    "vertex arity": ("t # 0 1\nv 0\n", None, ParseError, "line 2: expected 'v <vertex_id> <vertex_label>', got 'v 0'", 2),
    "vertex id": ("t # 0 1\nv a A\n", None, ParseError, "line 2: vertex id must be an integer, got 'a'", 2),
    "non-consecutive vertex": (
        "t # 0 1\nv 0 A\nv 2 B\n", None, ParseError,
        "line 3: vertex ids must be 0-based and consecutive; expected 1, got 2", 3,
    ),
    "edge before t": ("\ne 0 1 x\n", None, ParseError, "line 2: edge line before any 't' line", 2),
    "edge arity": ("t # 0 1\nv 0 A\nv 1 A\ne 0 1\n", None, ParseError, "line 4: expected 'e <src> <dst> <edge_label>', got 'e 0 1'", 4),
    "endpoint": ("t # 0 1\nv 0 A\ne 0 b x\n", None, ParseError, "line 3: edge endpoints must be integers in 'e 0 b x'", 3),
    "self-loop": ("t # 0 1\nv 0 A\ne 0 0 x\n", None, ParseError, "line 3: self-loop at vertex 0", 3),
    "undeclared vertex": ("t # 0 1\nv 0 A\ne 0 1 x\n", None, ParseError, "line 3: edge (0, 1) references an undeclared vertex", 3),
    "negative endpoint": ("t # 0 1\nv 0 A\ne -1 0 x\n", None, ParseError, "line 3: edge (-1, 0) references an undeclared vertex", 3),
    "parallel edge": (
        "t # 0 1\nv 0 A\nv 1 B\ne 0 1 x\n  e 1 0 y  \n", None, ParseError,
        "line 5: parallel edge (1, 0)", 5,
    ),
    "unknown record": ("t # 0 1\nw 0 A\n", None, ParseError, "line 2: unknown record type 'w'", 2),
    "missing class": ("t # 0\nv 0 A\nt # 1 0\nv 0 A\n", None, LabelError, "graph id 0 has no class assignment", None),
    "labels arity": (GOOD_PAIR, "0 1 junk\n", ParseError, "line 1: expected '<graph_id> <class>', got '0 1 junk'", 1),
    "labels graph id": (GOOD_PAIR, "% c\nx 1\n", ParseError, "line 2: graph id must be an integer, got 'x'", 2),
    "labels class": (GOOD_PAIR, "0 1\n1 2\n", LabelError, "line 2: class must be 0 or 1, got '2'", None),
    "labels duplicate": (GOOD_PAIR, "0 1\n\n0 0\n", LabelError, "line 3: duplicate class for graph id 0", None),
    "labels missing graph": (GOOD_PAIR, "0 1\n", LabelError, "graph id 1 missing from the labels file", None),
    "one class": ("t # 0 1\nv 0 A\nt # 1 1\nv 0 A\n", None, ValidityError, "both classes must be present", None),
    "empty": ("% nothing here\n", None, ValidityError, "empty database", None),
}


def test_parse_errors_carry_line_numbers():
    for case, (graphs, labels, kind, message, line_no) in PARSE_ERRORS.items():
        for source in (str, io.StringIO):
            with pytest.raises(kind) as e:
                parse_database(source(graphs), None if labels is None else source(labels))
            held = (type(e.value), str(e.value), getattr(e.value, "line_no", None))
            assert held == (kind, message, line_no), (case, source)


def test_class_validation():
    with pytest.raises(LabelError, match="class must be 0 or 1"):
        parse_database("t # 0 3\nv 0 A\n")
    with pytest.raises(ValidityError, match="both classes"):
        parse_database("t # 0 1\nv 0 A\nt # 1 1\nv 0 A\n")
    with pytest.raises(ValidityError, match="empty"):
        parse_database("% nothing here\n")


def test_graph_normalizes_and_validates_edges():
    g = LabeledGraph(0, (0, 1, 0), ((2, 0, 5), (1, 2, 3)))
    assert g.edges == ((0, 2, 5), (1, 2, 3))
    with pytest.raises(ValueError, match="self-loop"):
        LabeledGraph(0, (0,), ((0, 0, 1),))
    with pytest.raises(ValueError, match="parallel edge"):
        LabeledGraph(0, (0, 1), ((0, 1, 1), (1, 0, 2)))
    with pytest.raises(ValueError, match="missing vertex"):
        LabeledGraph(0, (0, 1), ((0, 2, 1),))


def test_graph_rejects_negative_labels():
    # -1 is the miner's "no edge", so an edge labelled -1 would mine as a vertex
    with pytest.raises(ValueError, match="negative label on edge"):
        LabeledGraph(0, (0, 1), ((0, 1, -1),))
    with pytest.raises(ValueError, match="negative vertex label"):
        LabeledGraph(0, (0, -2), ())


def test_from_graphs_rejects_labels_without_tokens():
    graphs = [LabeledGraph(0, (0, 2), ((0, 1, 1),)), LabeledGraph(1, (1,), ())]
    with pytest.raises(ValueError, match="vertex label 2 has no vertex token"):
        GraphDatabase.from_graphs(graphs, [1, 0], vertex_tokens=("A", "B"))
    with pytest.raises(ValueError, match="edge label 1 has no edge token"):
        GraphDatabase.from_graphs(graphs, [1, 0], edge_tokens=("x",))
    db = GraphDatabase.from_graphs(graphs, [1, 0], ("A", "B", "C"), ("x", "y"))
    assert db.vertex_tokens == ("A", "B", "C")


def test_constructor_rejects_labels_without_tokens():
    # every construction path checks the token tables, not only from_graphs;
    # unchecked, this database mines and then fails in code_string
    # graphs 0: (2,) and 1: (2,), in the constructor's flat storage
    with pytest.raises(ValueError, match="vertex label 2 has no vertex token"):
        GraphDatabase((0, 1), (1, 0), ("A",), (), [2, 2], [0, 1, 2], [], [0, 0, 0])
    # graphs 0: (0, 0) with edge (0, 1, 0), and 1: (0,)
    with pytest.raises(ValueError, match="edge label 0 has no edge token"):
        GraphDatabase((0, 1), (1, 0), ("A",), (), [0, 0, 0], [0, 2, 3], [[0, 1, 0]], [0, 1, 1])


def test_from_graphs_defaults_tokens():
    db = GraphDatabase.from_graphs(
        [LabeledGraph(0, (0, 2), ((0, 1, 1),)), LabeledGraph(1, (1,), ())],
        [1, 0],
    )
    assert db.vertex_tokens == ("0", "1", "2")
    assert db.edge_tokens == ("0", "1")


def _place(field, value):
    """A two-graph database with ``value`` as the named integer, else all 1 or 0."""
    one = {"graph_id": 1, "vertex_label": 1, "endpoint": 1, "edge_label": 1, "class": 1}
    one[field] = value
    graphs = [
        LabeledGraph(
            one["graph_id"],
            (0, one["vertex_label"]),
            ((0, one["endpoint"], one["edge_label"]),),
        ),
        LabeledGraph(0, (0,), ()),
    ]
    return GraphDatabase.from_graphs(graphs, [one["class"], 0])


@pytest.mark.parametrize("field", ["graph_id", "vertex_label", "endpoint", "edge_label", "class"])
@pytest.mark.parametrize("value", [1.0, 0.5, "1", True, np.int64(1)], ids=repr)
def test_ids_labels_endpoints_and_classes_must_be_integers(field, value):
    # a float label used to mine as its truncation and a float endpoint or a
    # string id was written out in a form the parser rejects
    if not isinstance(value, np.integer):
        with pytest.raises(TypeError, match="must be an integer"):
            _place(field, value)
        return
    db = _place(field, value)
    graph = db.graphs[0]
    held = {
        "graph_id": graph.graph_id,
        "vertex_label": graph.vertex_labels[1],
        "endpoint": graph.edges[0][1],
        "edge_label": graph.edges[0][2],
        "class": db.original_classes[0],
    }[field]
    assert held == 1 and type(held) is int
    assert parse_database(serialize_database(db)) == db


LAYOUT_FIELDS = (
    "gpos", "vrank", "nbr", "nbr_off", "deg", "prank", "positive",
    "vlabels", "pair_el", "pair_tl", "largest", "ints",
)


def assert_same_layout(a, b):
    for name in LAYOUT_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        else:
            assert x == y, name


@st.composite
def first_appearance_db(draw):
    """A random database whose dense labels number their tokens in file order.

    Parsing its serialization then assigns the same dense ids, so the parsed
    graphs equal these. Graph 0 never has edges, and sometimes none does.
    """
    gids = draw(st.lists(st.integers(0, 500), min_size=2, max_size=7, unique=True))
    edgeless = draw(st.booleans())
    drawn = []
    for i, gid in enumerate(gids):
        nv = draw(st.integers(1, 5))
        labels = [draw(st.integers(0, 3)) for _ in range(nv)]
        edges = [
            (u, v, draw(st.integers(0, 2)))
            for u in range(nv)
            for v in range(u + 1, nv)
            if i > 0 and not edgeless and draw(st.booleans())
        ]
        drawn.append(LabeledGraph(gid, tuple(labels), tuple(edges)))
    vmap, emap = {}, {}
    graphs = [
        LabeledGraph(
            g.graph_id,
            tuple(vmap.setdefault(lbl, len(vmap)) for lbl in g.vertex_labels),
            tuple((u, v, emap.setdefault(lbl, len(emap))) for u, v, lbl in g.edges),
        )
        for g in drawn
    ]
    classes = [draw(st.integers(0, 1)) for _ in gids]
    assume(0 < sum(classes) < len(classes))
    return GraphDatabase.from_graphs(graphs, classes)


@settings(max_examples=60, deadline=None)
@given(first_appearance_db(), st.randoms(use_true_random=False))
def test_parsed_layout_equals_from_graphs_layout(db, rng):
    parsed = parse_database(serialize_database(db))
    assert parsed.graphs == db.graphs
    assert parsed.graph_ids == db.graph_ids
    assert_same_layout(parsed.layout, db.layout)
    reference = oracles.layout_reference(db)
    for name in LAYOUT_FIELDS:
        held = getattr(db.layout, name)
        assert (held.tolist() if isinstance(held, np.ndarray) else held) == reference[name], name

    # the same graphs with every edge's order and orientation scrambled and
    # the classes in a labels file: read back normalised, laid out alike
    lines, labels = [], [f"{max(db.graph_ids) + 1} 0"]
    for g, cls in zip(db.graphs, db.original_classes):
        lines.append(f"t # {g.graph_id}")
        lines += [f"v {vid} {db.vertex_tokens[lbl]}" for vid, lbl in enumerate(g.vertex_labels)]
        edges = [(v, u, lbl) if rng.random() < 0.5 else (u, v, lbl) for u, v, lbl in g.edges]
        rng.shuffle(edges)
        lines += [f"e {u} {v} {db.edge_tokens[lbl]}" for u, v, lbl in edges]
        labels.append(f"{g.graph_id} {cls}")
    rng.shuffle(labels)
    scrambled = parse_database("\n".join(lines), "\n".join(labels))
    assert scrambled == db
    assert scrambled.original_classes == db.original_classes
    rebuilt = GraphDatabase.from_graphs(
        scrambled.graphs, scrambled.original_classes, scrambled.vertex_tokens, scrambled.edge_tokens
    )
    assert_same_layout(scrambled.layout, rebuilt.layout)


def test_flat_storage_of_a_parsed_database():
    db = parse_database("t # 4 1\nv 0 A\nv 1 B\nv 2 A\ne 2 0 y\ne 1 0 x\nt # 9 0\nv 0 B\n")
    assert db.graph_ids == (4, 9)
    assert db.vertex_labels.tolist() == [0, 1, 0, 1]
    assert db.vertex_offsets.tolist() == [0, 3, 4]
    # edges are stored as written; the graphs read back normalised and sorted
    assert db.edges.tolist() == [[2, 0, 0], [1, 0, 1]]
    assert db.edge_offsets.tolist() == [0, 2, 2]
    assert db.graphs[0].edges == ((0, 1, 1), (0, 2, 0))
    assert not db.edges.flags.writeable
    with pytest.raises(ValueError, match="edge offsets do not split"):
        GraphDatabase((4, 9), (1, 0), ("A",), ("x",), [0, 0], [0, 1, 2], [[0, 1, 0]], [0, 0, 0])
    with pytest.raises(TypeError, match="vertex_labels must hold integers"):
        GraphDatabase((4, 9), (1, 0), ("A",), (), [0.0, 0], [0, 1, 2], [], [0, 0, 0])
    with pytest.raises(TypeError, match="graph id must be an integer"):
        GraphDatabase((4, "9"), (1, 0), ("A",), (), [0, 0], [0, 1, 2], [], [0, 0, 0])
