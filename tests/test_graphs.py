import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from sigmine import graphs
from sigmine.graphs import (
    GraphDatabase,
    LabeledGraph,
    LabelError,
    ParseError,
    ValidityError,
    parse_database,
    serialize_database,
)
from sigmine.synth import random_database

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
    # serialized, these would read "v 0 a b" and "v 0", which do not parse;
    # a bytes token rendered as b'A' and then failed to sort beside str codes
    graphs = [LabeledGraph(0, (0, 1), ((0, 1, 0),)), LabeledGraph(1, (1,), ())]
    for bad in ("a b", "", "a\tb", 0, b"A"):
        error = ValueError if isinstance(bad, str) else TypeError
        with pytest.raises(error, match=re.escape(f"vertex token {bad!r}")):
            GraphDatabase.from_graphs(graphs, [1, 0], vertex_tokens=(bad, "c"))
        with pytest.raises(error, match=re.escape(f"edge token {bad!r}")):
            GraphDatabase.from_graphs(graphs, [1, 0], edge_tokens=(bad,))


def test_a_token_table_names_each_label_once():
    # two labels named A would mine two singletons that both render as A,
    # and the serialized text would parse back with the two merged
    graphs = [LabeledGraph(0, (0, 1), ((0, 1, 0),)), LabeledGraph(1, (1,), ())]
    with pytest.raises(ValueError, match="vertex token 'A' names two labels"):
        GraphDatabase.from_graphs(graphs, (1, 0), vertex_tokens=("A", "A"), edge_tokens=("e",))
    with pytest.raises(ValueError, match="edge token 'e' names two labels"):
        GraphDatabase.from_graphs(graphs, (1, 0), ("A", "B"), ("e", "e"))


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
    # a form feed and a line separator end lines in a file as in a str
    "form feed": (
        "t # 0 1\x0cv 0\n", None, ParseError,
        "line 2: expected 'v <vertex_id> <vertex_label>', got 'v 0'", 2,
    ),
    "labels line separator": (
        GOOD_PAIR, "0 1\u20281 1 1\n", ParseError, "line 2: expected '<graph_id> <class>', got '1 1 1'", 2,
    ),
}


def test_parse_errors_carry_line_numbers():
    for case, (graphs, labels, kind, message, line_no) in PARSE_ERRORS.items():
        for source in (str, io.StringIO):
            with pytest.raises(kind) as e:
                parse_database(source(graphs), None if labels is None else source(labels))
            held = (type(e.value), str(e.value), getattr(e.value, "line_no", None))
            assert held == (kind, message, line_no), (case, source)


# (graph text, labels text) cut into the same two graphs, classes 1 and 0,
# by str.splitlines and by a file read in blocks
LINE_BREAK_CASES = {
    "form feed": ("t # 0 1\x0cv 0 A\nt # 1 0\nv 0 A\n", None),
    "line separator": ("t # 0 1\u2028v 0 A\nt # 1 0\nv 0 A\n", None),
    "lone carriage return": ("t # 0 1\rv 0 A\rt # 1 0\rv 0 A", None),
    "carriage return and line feed": ("t # 0 1\r\nv 0 A\r\n\r\nt # 1 0\r\nv 0 A\r\n", None),
    "labels file": ("t # 0\nv 0 A\nt # 1\nv 0 A\n", "0 1\x0c1 0\x85"),
}


def test_str_and_file_sources_cut_lines_alike():
    # a file is cut where a str is: at a form feed, a line separator or a
    # lone "\r" as well as at "\n"
    for case, (text, labels) in LINE_BREAK_CASES.items():
        for source in (str, io.StringIO):
            db = parse_database(source(text), None if labels is None else source(labels))
            assert db.original_classes == (1, 0), (case, source)


def test_whitespace_and_line_breaks_are_those_of_str():
    # the block parser classifies code points by these tables; they must be
    # the characters str.split() and str.splitlines() cut at
    spaces = "".join(c for c in map(chr, range(0x110000)) if c.isspace())
    assert graphs._WHITESPACE == spaces
    assert all(ord(c) < graphs._TOP for c in spaces)
    breaks = [c for c in spaces if len(f"a{c}b".splitlines()) == 2]
    assert sorted(graphs._LINE_BREAKS) == breaks
    assert "\r\n".splitlines() == [""] and "a\r\n".splitlines() == ["a"]


def _parsed(parse, *sources):
    """Everything a parsed database holds, or the error's type, message and line."""
    try:
        db = parse(*sources)
    except ValueError as e:
        return type(e), str(e), getattr(e, "line_no", None)
    arrays = (db.vertex_labels, db.vertex_offsets, db.edges, db.edge_offsets)
    return (db.graph_ids, db.original_classes, db.vertex_tokens, db.edge_tokens,
            *(a.tolist() for a in arrays))


BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [" ", " ", "\t", "  ", "\xa0", "\u3000", "\x1f", " \t "]
LABELS = ["A", "b", "%x", "é", "\ud800", "\x00", "a\x00", "日本", "ab", "abc", "abcd", "0", "10", "x" * 9]
# tokens put in place of one token of a valid file
CORRUPTIONS = ["x", "-1", "99", "#", "t", "v", "e", "%", "2", "0", "1", "+1", "٣", "1_0", "0x1", "9" * 25]
OTHER_DIGITS = [str.maketrans("0123456789", "".join(map(chr, range(z, z + 10)))) for z in (0x660, 0xFF10)]


def _integer(rng, value):
    """``value`` written as ``int`` reads it: plainly, zero-padded, signed, grouped or in other digits."""
    text = str(value)
    form = rng.randrange(6)
    if value < 0 or form < 2:
        return text
    if form == 2:
        return "00" + text
    if form == 3:
        return "+" + text
    if form == 4 and len(text) > 1:
        return text[0] + "_" + text[1:]
    return text.translate(rng.choice(OTHER_DIGITS))


@st.composite
def transaction_texts(draw):
    """A transaction file as a text, with its labels file or None, often a little broken.

    The graphs are random, their records written with any of str's line
    breaks and spaces between and around the tokens, with comments, blank
    lines and integers in every form ``int`` reads. Half of the files then
    have one token replaced or dropped, or one line repeated.
    """
    rng = draw(st.randoms(use_true_random=False))
    records, labels = [], []
    inline = rng.random() < 0.7
    for gid in rng.sample(range(-3, 40), rng.randint(1, 5)):
        cls = rng.choice("01")
        records.append(["t", "#", _integer(rng, gid)] + ([cls] if inline else []))
        labels.append([_integer(rng, gid), cls])
        nv = rng.randint(0, 4)
        records += [["v", _integer(rng, i), rng.choice(LABELS)] for i in range(nv)]
        pairs = [p for p in ((u, v) for u in range(nv) for v in range(u + 1, nv)) if rng.random() < 0.6]
        rng.shuffle(pairs)
        for u, v in pairs:
            u, v = (v, u) if rng.random() < 0.5 else (u, v)
            records.append(["e", _integer(rng, u), _integer(rng, v), rng.choice(LABELS)])
    if rng.random() < 0.5:
        line = rng.choice(records)
        shape = rng.randrange(3)
        if shape == 0:
            line[rng.randrange(len(line))] = rng.choice(CORRUPTIONS)
        elif shape == 1:
            del line[rng.randrange(len(line))]
        else:
            records.insert(rng.randrange(len(records) + 1), list(line))

    def render(lines):
        out = []
        for tokens in lines:
            if rng.random() < 0.1:
                out.append(rng.choice(["", " ", "\t ", "% a comment", "%"]))
            edge = rng.choice(["", "", "", " ", "\u3000"])
            sep = [rng.choice(SPACES) for _ in tokens]
            out.append(edge + "".join(t + s for t, s in zip(tokens, sep)).rstrip() + edge)
        return "".join(line + rng.choice(BREAKS) for line in out)[: None if rng.random() < 0.8 else -1]

    return render(records), None if inline else render(labels)


@settings(max_examples=150, deadline=None)
@given(transaction_texts(), st.sampled_from([1, 2, 3, 5, 8, 13, 64, graphs._BLOCK]))
def test_block_parser_agrees_with_the_line_loop(texts, block):
    # oracles.parse_reference is the line loop the block parser replaced;
    # small blocks put block boundaries inside graphs, "\r\n" pairs and
    # the vertex pairs and graph ids that repeat
    text, labels = texts
    want = _parsed(oracles.parse_reference, text, labels)
    with mock.patch.object(graphs, "_BLOCK", block):
        assert _parsed(parse_database, text, labels) == want
        files = (io.StringIO(text), None if labels is None else io.StringIO(labels))
        assert _parsed(parse_database, *files) == want


@pytest.mark.parametrize("source", [str, io.StringIO])
def test_a_line_many_blocks_long_is_one_piece(source):
    # a label of 40 blocks, a "\r\n" split across two reads and a lone "\r"
    # as the last code point of a read: every piece ends where a line does
    label = "x" * 160
    text = f"t # 0 1\r\nv 0 {label}\nv 1 A\re 0 1 {label}\r\nt # 1 0\r\nv 0 A"
    with mock.patch.object(graphs, "_BLOCK", 4):
        pieces = list(graphs._blocks(source(text)))
        db = parse_database(source(text))
    assert "".join(pieces) == text
    assert [line for piece in pieces for line in piece.splitlines()] == text.splitlines()
    assert [p for p in pieces if label in p] == ["v 0 " + label + "\n", "e 0 1 " + label + "\r\n"]
    assert db == oracles.parse_reference(text)
    assert db.vertex_tokens == (label, "A")


def test_integer_tokens_mean_what_int_reads():
    # only plain ASCII digits are read in numpy; the rest go through int
    text = "t # +3 1\nv 000 A\nv 1_0 B\nt # ٣٤ 0\nv 0 A\nv 1 A\ne ０ +1 x\n"
    with pytest.raises(ParseError, match=re.escape("line 3: vertex ids must be 0-based and consecutive; expected 1, got 10")):
        parse_database(text)
    db = parse_database(text.replace("1_0", "0_1"))
    assert db.graph_ids == (3, 34)
    assert db.edges.tolist() == [[0, 1, 0]]
    big = "t # 123456789012345678901234567890 1\nv 0 A\nt # 0 0\nv 0 A\n"
    assert parse_database(big).graph_ids == (123456789012345678901234567890, 0)
    with pytest.raises(ParseError, match="undeclared vertex"):
        parse_database(big + "e 0 99999999999999999999 x\n")


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


def test_constructor_rejects_a_repeated_graph_id():
    # the parser names the line of a repeated id; a library caller gets the id
    with pytest.raises(ValueError, match="duplicate graph id 0"):
        GraphDatabase((0, 0), (1, 0), ("A",), (), [0, 0], [0, 1, 2], [], [0, 0, 0])


def test_constructor_checks_classes_and_stores_plain_int_ids():
    graphs = [LabeledGraph(0, (0,), ()), LabeledGraph(1, (0,), ())]
    with pytest.raises(ValueError, match="one class per graph required"):
        GraphDatabase.from_graphs(graphs, [1, 0, 0])
    # three one-vertex graphs; the parser rejects a bad class before this check
    single = (("A",), (), [0, 0, 0], [0, 1, 2, 3], [], [0, 0, 0, 0])
    with pytest.raises(LabelError, match="class must be 0 or 1, got 2"):
        GraphDatabase((0, 1, 2), (1, 0, 2), *single)
    db = GraphDatabase((np.int64(0), np.int64(1), np.int64(2)), (1, 0, 0), *single)
    assert list(map(type, db.graph_ids)) == [int, int, int]


def test_a_database_is_unequal_to_other_types():
    db = parse_database(THREE_GRAPHS)
    assert db != object()
    assert not db == "t # 0 1"


def test_a_graph_built_from_lists_stores_tuples():
    graph = LabeledGraph(0, [0, 1], [(0, 1, 0)])
    twin = LabeledGraph(0, (0, 1), ((0, 1, 0),))
    assert type(graph.vertex_labels) is tuple and type(graph.edges) is tuple
    assert graph == twin and hash(graph) == hash(twin)
    # a tuple is kept as it is given
    assert LabeledGraph(0, twin.vertex_labels, ()).vertex_labels is twin.vertex_labels


def test_a_database_built_from_lists_stores_tuples():
    arrays = ([0, 0, 1, 1], [0, 2, 4], [[0, 1, 0], [1, 0, 0]], [0, 1, 2])
    db = GraphDatabase([0, 1], [1, 0], ["A", "B"], ["e"], *arrays)
    twin = GraphDatabase(*TWO_PAIRS, *arrays)
    for name in ("graph_ids", "original_classes", "vertex_tokens", "edge_tokens"):
        assert type(getattr(db, name)) is tuple, name
    assert serialize_database(db) == serialize_database(twin)
    assert db == twin and hash(db) == hash(twin)
    # so a caller's list cannot change the database's size under its arrays
    with pytest.raises(AttributeError):
        db.graph_ids.append(5)
    assert db.size == 2
    assert GraphDatabase(twin.graph_ids, *TWO_PAIRS[1:], *arrays).graph_ids is twin.graph_ids


# graphs 0 and 1 of two vertices each (0-1 and 2-3 in the flat storage)
TWO_PAIRS = ((0, 1), (1, 0), ("A", "B"), ("e",))
BAD_ROWS = {
    # vertex 2 is graph 1's first vertex, so this edge leaves its graph
    "other graph's vertex": (
        [0, 0, 1, 1], [[0, 2, 0], [0, 1, 0]], [0, 1, 2],
        "graph 0: edge (0, 2) references a missing vertex",
    ),
    # label -1 would read the last token
    "negative vertex label": (
        [0, -1, 0, 0], [[0, 1, 0], [0, 1, 0]], [0, 1, 2], "graph 0: negative vertex label",
    ),
    "self-loop": (
        [0, 0, 1, 1], [[0, 0, 0], [0, 1, 0]], [0, 1, 2], "graph 0: self-loop at vertex 0",
    ),
    "parallel pair": (
        [0, 0, 1, 1], [[0, 1, 0], [1, 0, 0]], [0, 2, 2], "graph 0: parallel edge (0, 1)",
    ),
    "negative edge label": (
        [0, 0, 1, 1], [[0, 1, 0], [1, 0, -1]], [0, 1, 2],
        "graph 1: negative label on edge (1, 0)",
    ),
}


@pytest.mark.parametrize("case", BAD_ROWS)
def test_constructor_checks_every_row(case):
    # rows LabeledGraph rejects used to pass the constructor and then mine
    # into patterns the graphs do not hold
    labels, edges, edge_offsets, message = BAD_ROWS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        GraphDatabase(*TWO_PAIRS, labels, [0, 2, 4], edges, edge_offsets)
    # one edge (0, 1) in each graph, the same pair in flat ids 0-1 and 2-3
    GraphDatabase(*TWO_PAIRS, [0, 0, 1, 1], [0, 2, 4], [[0, 1, 0], [1, 0, 0]], [0, 1, 2])


def test_the_first_bad_graph_raises_whatever_its_chunk():
    # rows are screened a chunk of whole graphs at a time, in graph order
    db = random_database(3000, 7)
    tables = (db.graph_ids, db.original_classes, db.vertex_tokens, db.edge_tokens)
    eoff = db.edge_offsets
    late, later = (next(g for g in range(at, 3000) if eoff[g + 1] > eoff[g]) for at in (2000, 2900))
    edges, labels = db.edges.copy(), db.vertex_labels.copy()
    edges[eoff[late]] = edges[eoff[late], 1], edges[eoff[late], 1], 0
    labels[db.vertex_offsets[later]] = -1
    with pytest.raises(ValueError, match=f"graph {late}: self-loop"):
        GraphDatabase(*tables, labels, db.vertex_offsets, edges, eoff)
    with pytest.raises(ValueError, match=f"graph {later}: negative vertex label"):
        GraphDatabase(*tables, labels, db.vertex_offsets, db.edges, eoff)


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
    "vlabels", "pair_el", "pair_tl", "largest",
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


@pytest.mark.parametrize("shape", ["unused tokens", "distinct labels"])
def test_layout_ranks_sparse_labels_like_the_reference(shape):
    # labels are ranked by a table as long as the token list, or sorted when
    # that table would be much longer than the labels; both must agree
    if shape == "unused tokens":
        graphs = (LabeledGraph(0, (290, 17, 17), ((0, 1, 199), (1, 2, 5))),
                  LabeledGraph(1, (3, 290), ((0, 1, 199),)), LabeledGraph(2, (3,), ()))
        tokens = ([f"v{i}" for i in range(300)], [f"e{i}" for i in range(200)])
    else:
        # a 40-vertex path, every vertex and edge label its own: 1560 pairs
        # for 78 half-edges
        graphs = (LabeledGraph(0, tuple(range(40)), tuple((i, i + 1, i) for i in range(39))),
                  LabeledGraph(1, (5, 6), ((0, 1, 2),)))
        tokens = ([f"v{i}" for i in range(40)], [f"e{i}" for i in range(39)])
    db = GraphDatabase.from_graphs(graphs, (0, 1, 1)[: len(graphs)], *tokens)
    reference = oracles.layout_reference(db)
    for name in LAYOUT_FIELDS:
        held = getattr(db.layout, name)
        assert (held.tolist() if isinstance(held, np.ndarray) else held) == reference[name], name
    assert db.layout.nbr.dtype == np.int32 and db.layout.prank.dtype == np.int64


def test_layout_build_peak_stays_near_what_it_holds():
    db = random_database(20000, 7)
    tracemalloc.start()
    try:
        layout = db.layout
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the arrays kept are about 4.6 MB here; sort temporaries once tripled that
    assert peak <= 2 * held, (peak, held)


def test_constructor_peak_stays_near_what_it_holds():
    db = random_database(20000, 7)
    arrays = [a.copy() for a in (db.vertex_labels, db.vertex_offsets, db.edges, db.edge_offsets)]
    tokens = (db.graph_ids, db.original_classes, db.vertex_tokens, db.edge_tokens)
    tracemalloc.start()
    try:
        again = GraphDatabase(*tokens, *arrays)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again.size == 20000
    # the row screen's temporaries cover a bounded number of edges at a time
    assert peak <= 2 * held, (peak, held)


def test_parse_peak_follows_the_block_not_the_input():
    text = serialize_database(random_database(20000, 7))
    tracemalloc.start()
    try:
        db = parse_database(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert db.size == 20000
    # the constructor copies the joined arrays (twice what is kept); past
    # that, one block's temporaries, about 20 bytes a code point, and well
    # below the 15.4 MB a per-line loop peaks at on this text
    assert peak <= 2 * held + 32 * graphs._BLOCK, (peak, held)
    assert peak < 15_400_000, (peak, held)


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
