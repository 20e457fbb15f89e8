import re

import numpy as np
import pytest

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


def test_parse_errors_carry_line_numbers():
    bad_vertex = "t # 0 1\nv 0 A\nv 2 B\n"
    with pytest.raises(ParseError, match="line 3") as e:
        parse_database(bad_vertex)
    assert e.value.line_no == 3

    self_loop = "t # 0 1\nv 0 A\ne 0 0 x\n"
    with pytest.raises(ParseError, match="self-loop"):
        parse_database(self_loop)

    parallel = "t # 0 1\nv 0 A\nv 1 B\ne 0 1 x\ne 1 0 y\n"
    with pytest.raises(ParseError, match="parallel edge"):
        parse_database(parallel)

    dangling = "t # 0 1\nv 0 A\ne 0 1 x\n"
    with pytest.raises(ParseError, match="undeclared vertex"):
        parse_database(dangling)

    headless = "v 0 A\n"
    with pytest.raises(ParseError, match="before any 't' line"):
        parse_database(headless)

    unknown = "t # 0 1\nw 0 A\n"
    with pytest.raises(ParseError, match="unknown record type"):
        parse_database(unknown)

    bad_header = "t 0 1\n"
    with pytest.raises(ParseError):
        parse_database(bad_header)

    dup_gid = "t # 7 1\nv 0 A\nt # 7 0\nv 0 A\n"
    with pytest.raises(ParseError, match="duplicate graph id"):
        parse_database(dup_gid)


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
    graphs = (LabeledGraph(0, (2,), ()), LabeledGraph(1, (2,), ()))
    with pytest.raises(ValueError, match="vertex label 2 has no vertex token"):
        GraphDatabase(graphs, (1, 0), ("A",), ())
    edged = (LabeledGraph(0, (0, 0), ((0, 1, 0),)), LabeledGraph(1, (0,), ()))
    with pytest.raises(ValueError, match="edge label 0 has no edge token"):
        GraphDatabase(edged, (1, 0), ("A",), ())


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
