"""Two-class labeled graph databases and the transaction file format.

A database is an ordered collection of undirected, vertex- and edge-labeled
simple graphs, each assigned to class 1 (positive) or class 0 (negative),
whichever is larger. Label tokens from input files are interned into dense
integer ids through per-database symbol tables. The flat numpy arrays the
miner reads (``ArrayLayout``) are built once per database, on first use.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import IO, Iterator, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed transaction-format input. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LabelError(ValueError):
    """Missing, duplicate, or out-of-range class assignment."""


class ValidityError(ValueError):
    """Database cannot be used: empty, or only one class present."""


def _as_int(value, what: str) -> int:
    """``value`` as a plain int, or TypeError naming ``what``.

    ``operator.index`` takes ints and numpy integers and rejects floats,
    strings and the like; bools are rejected too.
    """
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


def _integral_fields(config, *names: str) -> None:
    """Store each named count of a frozen dataclass as a plain int (``_as_int``).

    None is left to the caller.
    """
    for name in names:
        value = getattr(config, name)
        if value is not None:
            object.__setattr__(config, name, _as_int(value, name))


@dataclass(frozen=True, slots=True)
class LabeledGraph:
    """One transaction: dense 0-based vertices with labels, simple undirected edges.

    A plain validated record. The graph id, labels and endpoints are
    integers (``_as_int``: numpy integers are stored as int, bools, floats and
    strings raise TypeError). Labels are non-negative (the miner reserves -1
    for "no edge"); edges are normalized to (u, v, label) with u < v and
    stored sorted.
    """

    graph_id: int
    vertex_labels: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        # plain ints, all the parser makes, are checked by type alone
        if type(self.graph_id) is not int:
            object.__setattr__(self, "graph_id", _as_int(self.graph_id, "graph id"))
        if not {int}.issuperset(map(type, self.vertex_labels)):
            what = f"graph {self.graph_id}: vertex label"
            labels = tuple(_as_int(lbl, what) for lbl in self.vertex_labels)
            object.__setattr__(self, "vertex_labels", labels)
        normalized = []
        seen: set[tuple[int, int]] = set()
        nv = len(self.vertex_labels)
        if min(self.vertex_labels, default=0) < 0:
            raise ValueError(f"graph {self.graph_id}: negative vertex label")
        for u, v, lbl in self.edges:
            if not (type(u) is type(v) is type(lbl) is int):
                what = f"graph {self.graph_id}: edge ({u!r}, {v!r}, {lbl!r}) entry"
                u, v, lbl = (_as_int(x, what) for x in (u, v, lbl))
            if lbl < 0:
                raise ValueError(f"graph {self.graph_id}: negative label on edge ({u}, {v})")
            if u == v:
                raise ValueError(f"graph {self.graph_id}: self-loop at vertex {u}")
            if not (0 <= u < nv and 0 <= v < nv):
                raise ValueError(
                    f"graph {self.graph_id}: edge ({u}, {v}) references a missing vertex"
                )
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"graph {self.graph_id}: parallel edge ({u}, {v})")
            seen.add((u, v))
            normalized.append((u, v, lbl))
        normalized.sort()
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _top_labels(graphs: Sequence[LabeledGraph]) -> tuple[int, int]:
    """The largest vertex label and edge label in ``graphs``, -1 where none."""
    return (
        max(chain.from_iterable(g.vertex_labels for g in graphs), default=-1),
        max((e[2] for e in chain.from_iterable(g.edges for g in graphs)), default=-1),
    )


class ArrayLayout:
    """A database as flat arrays over global vertex ids, the graphs end to end.

    ``gpos`` gives a vertex's graph position and ``vrank`` the dense rank of
    its label, ``vlabels`` listing the labels by rank. A CSR (``nbr_off``,
    ``nbr``, with ``deg`` the neighbour counts) lists each vertex's
    neighbours in ascending order, and ``prank`` gives the dense rank of each
    (edge label, neighbour label) pair in it, ``pair_el`` and ``pair_tl``
    listing the pairs by rank; ranks sort like the labels they stand for.
    ``positive`` is each position's class (1 or 0), ``largest`` is
    the vertex count of the largest graph, and ``ints`` holds one int per
    position for occurrence tuples to share instead of owning fresh ones.
    """

    def __init__(self, db: "GraphDatabase"):
        graphs = db.graphs
        n = len(graphs)
        self.ints = tuple(range(n))
        self.positive = np.array(db.original_classes, np.int64)
        vcounts = np.fromiter((g.vertex_count for g in graphs), np.int64, n)
        ecounts = np.fromiter((g.edge_count for g in graphs), np.int64, n)
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(vcounts, out=offsets[1:])
        num_v = int(offsets[-1])
        self.largest = int(vcounts.max(initial=0))
        self.gpos = np.repeat(np.arange(n), vcounts)
        vlabels, self.vrank = np.unique(
            np.fromiter(chain.from_iterable(g.vertex_labels for g in graphs), np.int64, num_v),
            return_inverse=True,
        )
        edges = np.fromiter(
            chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
            np.int64,
            3 * int(ecounts.sum()),
        ).reshape(-1, 3)
        shift = np.repeat(offsets[:-1], ecounts)
        u, v = edges[:, 0] + shift, edges[:, 1] + shift
        src, dst = np.concatenate((u, v)), np.concatenate((v, u))
        order = np.argsort(src * num_v + dst)
        self.nbr = dst[order].astype(np.int32)
        self.nbr_off = np.searchsorted(src[order], np.arange(num_v + 1))
        self.deg = self.nbr_off[1:] - self.nbr_off[:-1]
        elabels, erank = np.unique(np.tile(edges[:, 2], 2)[order], return_inverse=True)
        pairs, self.prank = np.unique(
            erank * len(vlabels) + self.vrank[self.nbr], return_inverse=True
        )
        self.vlabels = vlabels.tolist()
        self.pair_el = elabels[pairs // len(vlabels)].tolist()
        self.pair_tl = vlabels[pairs % len(vlabels)].tolist()


@dataclass(frozen=True, eq=False)
class GraphDatabase:
    """Immutable two-class graph collection.

    ``n`` counts class 1 and ``n_prime`` class 0, either may be the larger.
    Graph positions (0-based order of appearance) act as transaction ids
    throughout the package. Classes are the integers 0 and 1 (``_as_int``
    rules). Every vertex and edge label must index its token table, and every
    token must be non-empty and free of whitespace, so that the transaction
    format can hold it. Two databases are equal, and hash alike, when
    ``serialize_database`` writes the same text for both.
    """

    graphs: tuple[LabeledGraph, ...]
    original_classes: tuple[int, ...]
    vertex_tokens: tuple[str, ...]
    edge_tokens: tuple[str, ...]
    n: int = field(init=False)

    def __post_init__(self) -> None:
        if len(self.graphs) != len(self.original_classes):
            raise ValueError("one class per graph required")
        if not self.graphs:
            raise ValidityError("empty database")
        if not {int}.issuperset(map(type, self.original_classes)):
            classes = tuple(_as_int(cls, "class") for cls in self.original_classes)
            object.__setattr__(self, "original_classes", classes)
        for cls in self.original_classes:
            if cls not in (0, 1):
                raise LabelError(f"class must be 0 or 1, got {cls!r}")
        ones = sum(self.original_classes)
        if ones == 0 or ones == len(self.original_classes):
            raise ValidityError("both classes must be present")
        seen_ids = set()
        for g in self.graphs:
            if g.graph_id in seen_ids:
                raise ValueError(f"duplicate graph id {g.graph_id}")
            seen_ids.add(g.graph_id)
        # a token the parser could not read back would break serialize_database
        for kind, tokens in (("vertex", self.vertex_tokens), ("edge", self.edge_tokens)):
            for token in tokens:
                if token.split() != [token]:
                    raise ValueError(f"{kind} token {token!r} is empty or holds whitespace")
        top_vertex, top_edge = _top_labels(self.graphs)
        if top_vertex >= len(self.vertex_tokens):
            raise ValueError(f"vertex label {top_vertex} has no vertex token")
        if top_edge >= len(self.edge_tokens):
            raise ValueError(f"edge label {top_edge} has no edge token")
        object.__setattr__(self, "n", ones)

    @property
    def size(self) -> int:
        return len(self.graphs)

    @cached_property
    def layout(self) -> ArrayLayout:
        """The flat array form the miner reads, built on first use."""
        return ArrayLayout(self)

    @property
    def n_prime(self) -> int:
        return self.size - self.n

    @classmethod
    def from_graphs(
        cls,
        graphs: Sequence[LabeledGraph],
        classes: Sequence[int],
        vertex_tokens: Sequence[str] | None = None,
        edge_tokens: Sequence[str] | None = None,
    ) -> "GraphDatabase":
        """Build a database from in-memory graphs, defaulting tokens to str(id).

        Raises ValueError when a label has no entry in a token table passed in.
        """
        graphs = tuple(graphs)
        top_vertex, top_edge = _top_labels(graphs)
        if vertex_tokens is None:
            vertex_tokens = tuple(str(i) for i in range(top_vertex + 1))
        if edge_tokens is None:
            edge_tokens = tuple(str(i) for i in range(top_edge + 1))
        return cls(graphs, tuple(classes), tuple(vertex_tokens), tuple(edge_tokens))

    def __eq__(self, other: object) -> bool:
        # the text names labels by token, so dense ids assigned in a different
        # order still compare equal
        if not isinstance(other, GraphDatabase):
            return NotImplemented
        return serialize_database(self) == serialize_database(other)

    def __hash__(self) -> int:
        return hash(serialize_database(self))


def _iter_lines(source: str | IO[str]) -> Iterator[tuple[int, str]]:
    lines = source.splitlines() if isinstance(source, str) else source
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        yield no, line


def _parse_labels_file(source: str | IO[str]) -> dict[int, int]:
    out: dict[int, int] = {}
    for no, line in _iter_lines(source):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(no, f"expected '<graph_id> <class>', got {line!r}")
        try:
            gid = int(parts[0])
        except ValueError:
            raise ParseError(no, f"graph id must be an integer, got {parts[0]!r}") from None
        if parts[1] not in ("0", "1"):
            raise LabelError(f"line {no}: class must be 0 or 1, got {parts[1]!r}")
        if gid in out:
            raise LabelError(f"line {no}: duplicate class for graph id {gid}")
        out[gid] = int(parts[1])
    return out


def parse_database(
    graph_source: str | IO[str], labels_source: str | IO[str] | None = None
) -> GraphDatabase:
    """Parse the transaction format, optionally overriding classes from a labels file.

    Format, one record per graph::

        t # <graph_id> [<class>]
        v <vertex_id> <vertex_label>
        e <src> <dst> <edge_label>

    Vertex ids must be 0-based and consecutive, vertices must precede the edges
    that use them, and every undirected edge appears exactly once. Blank lines
    and lines starting with '%' are ignored. When a labels file is supplied it
    is authoritative and must cover every graph.
    """
    labels_map = _parse_labels_file(labels_source) if labels_source is not None else None
    # token -> dense id, in order of first appearance
    vertex_ids: dict[str, int] = {}
    edge_ids: dict[str, int] = {}

    graphs: list[LabeledGraph] = []
    classes: list[int | None] = []
    seen_ids: set[int] = set()

    cur_id: int | None = None
    cur_class: int | None = None
    cur_labels: list[int] = []
    cur_edges: list[tuple[int, int, int]] = []
    cur_edge_pairs: set[tuple[int, int]] = set()

    def flush() -> None:
        if cur_id is None:
            return
        graphs.append(LabeledGraph(cur_id, tuple(cur_labels), tuple(cur_edges)))
        classes.append(cur_class)

    for no, line in _iter_lines(graph_source):
        parts = line.split()
        kind = parts[0]
        if kind == "t":
            if len(parts) not in (3, 4) or parts[1] != "#":
                raise ParseError(no, f"expected 't # <graph_id> [<class>]', got {line!r}")
            flush()
            try:
                cur_id = int(parts[2])
            except ValueError:
                raise ParseError(no, f"graph id must be an integer, got {parts[2]!r}") from None
            if cur_id in seen_ids:
                raise ParseError(no, f"duplicate graph id {cur_id}")
            seen_ids.add(cur_id)
            cur_class = None
            if len(parts) == 4:
                if parts[3] not in ("0", "1"):
                    raise LabelError(f"line {no}: class must be 0 or 1, got {parts[3]!r}")
                cur_class = int(parts[3])
            cur_labels = []
            cur_edges = []
            cur_edge_pairs = set()
        elif kind == "v":
            if cur_id is None:
                raise ParseError(no, "vertex line before any 't' line")
            if len(parts) != 3:
                raise ParseError(no, f"expected 'v <vertex_id> <vertex_label>', got {line!r}")
            try:
                vid = int(parts[1])
            except ValueError:
                raise ParseError(no, f"vertex id must be an integer, got {parts[1]!r}") from None
            if vid != len(cur_labels):
                raise ParseError(
                    no, f"vertex ids must be 0-based and consecutive; expected {len(cur_labels)}, got {vid}"
                )
            cur_labels.append(vertex_ids.setdefault(parts[2], len(vertex_ids)))
        elif kind == "e":
            if cur_id is None:
                raise ParseError(no, "edge line before any 't' line")
            if len(parts) != 4:
                raise ParseError(no, f"expected 'e <src> <dst> <edge_label>', got {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(no, f"edge endpoints must be integers in {line!r}") from None
            if u == v:
                raise ParseError(no, f"self-loop at vertex {u}")
            if not (0 <= u < len(cur_labels) and 0 <= v < len(cur_labels)):
                raise ParseError(no, f"edge ({u}, {v}) references an undeclared vertex")
            pair = (min(u, v), max(u, v))
            if pair in cur_edge_pairs:
                raise ParseError(no, f"parallel edge ({u}, {v})")
            cur_edge_pairs.add(pair)
            cur_edges.append((u, v, edge_ids.setdefault(parts[3], len(edge_ids))))
        else:
            raise ParseError(no, f"unknown record type {kind!r}")
    flush()

    final_classes: list[int] = []
    for g, inline in zip(graphs, classes):
        if labels_map is not None:
            if g.graph_id not in labels_map:
                raise LabelError(f"graph id {g.graph_id} missing from the labels file")
            final_classes.append(labels_map[g.graph_id])
        else:
            if inline is None:
                raise LabelError(f"graph id {g.graph_id} has no class assignment")
            final_classes.append(inline)

    return GraphDatabase(tuple(graphs), tuple(final_classes), tuple(vertex_ids), tuple(edge_ids))


def serialize_database(db: GraphDatabase) -> str:
    """Render a database back to the transaction format with inline classes.

    Re-parsing the result yields a database equal to the original.
    """
    out: list[str] = []
    for g, cls in zip(db.graphs, db.original_classes):
        out.append(f"t # {g.graph_id} {cls}")
        for vid, lbl in enumerate(g.vertex_labels):
            out.append(f"v {vid} {db.vertex_tokens[lbl]}")
        for u, v, lbl in g.edges:
            out.append(f"e {u} {v} {db.edge_tokens[lbl]}")
    return "\n".join(out) + "\n"

