"""Two-class labeled graph databases and the transaction file format.

A database is an ordered collection of undirected, vertex- and edge-labeled
simple graphs, each assigned to class 1 (positive) or class 0 (negative),
whichever is larger. Label tokens from input files are interned into dense
integer ids through per-database symbol tables.

A database stores its graphs flat, end to end, with per-graph offsets. The
parser appends to that storage in one pass over the lines, and
``from_graphs`` flattens checked ``LabeledGraph`` records into it. The
miner's arrays (``ArrayLayout``) and the graphs as records
(``GraphDatabase.graphs``) derive from it once, on first use.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import IO, Iterable, Sequence

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
        # plain ints, all that the read-back and the generators make, are
        # checked by type alone
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


def _offsets(counts) -> np.ndarray:
    """CSR offsets for per-graph ``counts``: graph i owns ``[off[i], off[i + 1])``."""
    off = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=off[1:])
    return off


def _frozen(value, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a fresh read-only int64 array of ``shape`` (-1 is free).

    Raises TypeError unless its entries are integers (bools are not).
    """
    out = np.array(value)
    if out.size and out.dtype.kind not in "iu":
        raise TypeError(f"{name} must hold integers, got {out.dtype}")
    out = out.astype(np.int64, copy=False).reshape(shape)
    out.flags.writeable = False
    return out


class ArrayLayout:
    """A database as flat arrays over global vertex ids, the graphs end to end.

    Derived from the database's flat storage with numpy alone: the global id
    of a vertex is its graph's vertex offset plus its id in the graph.
    ``gpos`` gives a vertex's graph position and ``vrank`` the dense rank of
    its label, ``vlabels`` listing the labels by rank. A CSR (``nbr_off``,
    ``nbr``, with ``deg`` the neighbour counts) lists each vertex's
    neighbours in ascending order, and ``prank`` gives the dense rank of each
    (edge label, neighbour label) pair in it, ``pair_el`` and ``pair_tl``
    listing the pairs by rank; ranks sort like the labels they stand for.
    ``positive`` is each position's class (1 or 0), ``largest`` is
    the vertex count of the largest graph, and ``ints`` holds one int per
    position for occurrence tuples to share instead of owning fresh ones.
    Nothing here depends on the order or orientation of the stored edges.
    """

    def __init__(self, db: "GraphDatabase"):
        n = db.size
        self.ints = tuple(range(n))
        self.positive = np.array(db.original_classes, np.int64)
        offsets = db.vertex_offsets
        vcounts = np.diff(offsets)
        num_v = int(offsets[-1])
        self.largest = int(vcounts.max(initial=0))
        self.gpos = np.repeat(np.arange(n), vcounts)
        vlabels, self.vrank = _dense_ranks(db.vertex_labels, len(db.vertex_tokens))
        edges = db.edges
        elabels, erank = _dense_ranks(edges[:, 2], len(db.edge_tokens))
        # each edge is listed from both ends, each end once as src
        shift = np.repeat(offsets[:-1], np.diff(db.edge_offsets))
        u = edges[:, 0] + shift
        v = edges[:, 1] + shift
        del shift
        src, dst = np.concatenate((u, v)), np.concatenate((v, u))
        del u, v
        self.deg = np.bincount(src, minlength=num_v)
        self.nbr_off = _offsets(self.deg)
        src *= num_v
        src += dst
        order = np.argsort(src)
        del src
        self.nbr = dst.astype(np.int32)[order]
        del dst
        # the half at position i of (u, v) belongs to edge i mod E
        np.remainder(order, max(1, len(edges)), out=order)
        pair = erank[order]
        del order, erank
        pair *= len(vlabels)
        pair += self.vrank[self.nbr]
        pairs, self.prank = _dense_ranks(pair, len(elabels) * len(vlabels))
        del pair
        self.vlabels = vlabels.tolist()
        self.pair_el = elabels[pairs // len(vlabels)].tolist()
        self.pair_tl = vlabels[pairs % len(vlabels)].tolist()


def _dense_ranks(values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``values`` in ascending order, and each value's rank among them.

    ``values`` are ints in ``[0, size)``; the result equals
    ``np.unique(values, return_inverse=True)``. A table of ``size`` entries
    marks the values present, so no copy of ``values`` is sorted. Labels
    index their token tables, but a pair's range is the product of two
    label counts, so a range much longer than ``values`` is sorted instead.
    """
    if size > 4 * len(values) + 64:
        return np.unique(values, return_inverse=True)
    present = np.zeros(size, bool)
    present[values] = True
    rank = np.cumsum(present)
    rank -= 1
    return np.flatnonzero(present), rank[values]


@dataclass(frozen=True, eq=False)
class GraphDatabase:
    """Immutable two-class graph collection, stored as flat arrays.

    ``n`` counts class 1 and ``n_prime`` class 0, either may be the larger.
    Graph positions (0-based order of appearance) act as transaction ids
    throughout the package. Classes are the integers 0 and 1 (``_as_int``
    rules). Every vertex and edge label must index its token table, and every
    token must be non-empty, unique in its table and free of whitespace, so
    that the transaction format can hold it. Two databases are equal when
    ``serialize_database`` writes the same text for both; they are compared
    and hashed without rendering it where the ids, classes or counts already
    tell.

    Storage is flat, one entry per graph, vertex or edge, the graphs end to
    end: graph position i has id ``graph_ids[i]``, its vertices' labels are
    ``vertex_labels[vertex_offsets[i]:vertex_offsets[i + 1]]``, and its edges
    are the rows ``edge_offsets[i]:edge_offsets[i + 1]`` of ``edges``, each
    ``(u, v, label)`` with endpoints numbered within the graph, in any order
    and orientation. The arrays are int64 and read-only. The constructor
    checks the classes, graph ids, tokens and array shapes, and every label
    and edge row as ``LabeledGraph`` checks a graph's. ``graphs`` reads the
    graphs back as ``LabeledGraph`` records (edges normalised and sorted) on
    first use; ``layout`` is the miner's form, also built once.
    """

    graph_ids: tuple[int, ...]
    original_classes: tuple[int, ...]
    vertex_tokens: tuple[str, ...]
    edge_tokens: tuple[str, ...]
    vertex_labels: np.ndarray = field(repr=False)
    vertex_offsets: np.ndarray = field(repr=False)
    edges: np.ndarray = field(repr=False)
    edge_offsets: np.ndarray = field(repr=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        if len(self.graph_ids) != len(self.original_classes):
            raise ValueError("one class per graph required")
        if not self.graph_ids:
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
        if not {int}.issuperset(map(type, self.graph_ids)):
            graph_ids = tuple(_as_int(gid, "graph id") for gid in self.graph_ids)
            object.__setattr__(self, "graph_ids", graph_ids)
        seen_ids = set()
        for gid in self.graph_ids:
            if gid in seen_ids:
                raise ValueError(f"duplicate graph id {gid}")
            seen_ids.add(gid)
        # a token the parser could not read back would break serialize_database
        for kind, tokens in (("vertex", self.vertex_tokens), ("edge", self.edge_tokens)):
            seen_tokens = set()
            for token in tokens:
                if not isinstance(token, str):
                    raise TypeError(f"{kind} token {token!r} is not a str")
                if token.split() != [token]:
                    raise ValueError(f"{kind} token {token!r} is empty or holds whitespace")
                if token in seen_tokens:
                    raise ValueError(f"{kind} token {token!r} names two labels")
                seen_tokens.add(token)
        size = len(self.graph_ids)
        for name, shape in (
            ("vertex_labels", (-1,)),
            ("vertex_offsets", (size + 1,)),
            ("edges", (-1, 3)),
            ("edge_offsets", (size + 1,)),
        ):
            object.__setattr__(self, name, _frozen(getattr(self, name), name, shape))
        for kind, offsets, rows in (
            ("vertex", self.vertex_offsets, self.vertex_labels),
            ("edge", self.edge_offsets, self.edges),
        ):
            if offsets[0] != 0 or offsets[-1] != len(rows) or (np.diff(offsets) < 0).any():
                raise ValueError(f"{kind} offsets do not split the {len(rows)} {kind} rows")
        self._check_rows()
        top_vertex = int(self.vertex_labels.max(initial=-1))
        if top_vertex >= len(self.vertex_tokens):
            raise ValueError(f"vertex label {top_vertex} has no vertex token")
        top_edge = int(self.edges[:, 2].max(initial=-1))
        if top_edge >= len(self.edge_tokens):
            raise ValueError(f"edge label {top_edge} has no edge token")
        object.__setattr__(self, "n", ones)

    def _check_rows(self) -> None:
        """Screen the rows with numpy; the first bad graph, built as a ``LabeledGraph``, raises."""
        graph = np.repeat(np.arange(self.size), np.diff(self.edge_offsets))
        first = self.vertex_offsets[graph]
        u, v, label = self.edges.T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        outside = (lo < 0) | (hi >= self.vertex_offsets[graph + 1] - first)
        # global ids of the pair: two valid rows share a key only when they
        # join the same pair of one graph, and a shared key flags the later
        # row, so a false repeat never comes before the bad row it shares with
        key = (lo + first) * int(self.vertex_offsets[-1]) + hi + first
        order = np.argsort(key, kind="stable")
        repeat = np.zeros(len(key), bool)
        repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
        vertex_graph = np.repeat(np.arange(self.size), np.diff(self.vertex_offsets))
        bad = np.concatenate((
            vertex_graph[self.vertex_labels < 0], graph[(label < 0) | (u == v) | outside | repeat]
        ))
        if bad.size:
            i = int(bad.min())
            v0, v1 = self.vertex_offsets[i : i + 2]
            e0, e1 = self.edge_offsets[i : i + 2]
            labels, edges = self.vertex_labels[v0:v1].tolist(), self.edges[e0:e1].tolist()
            LabeledGraph(self.graph_ids[i], tuple(labels), tuple(edges))

    @property
    def size(self) -> int:
        return len(self.graph_ids)

    @cached_property
    def graphs(self) -> tuple[LabeledGraph, ...]:
        """The graphs as validated ``LabeledGraph`` records, read back on first use."""
        labels, edges = self.vertex_labels.tolist(), self.edges.tolist()
        voff, eoff = self.vertex_offsets.tolist(), self.edge_offsets.tolist()
        return tuple(
            LabeledGraph(
                gid,
                tuple(labels[voff[i] : voff[i + 1]]),
                tuple(map(tuple, edges[eoff[i] : eoff[i + 1]])),
            )
            for i, gid in enumerate(self.graph_ids)
        )

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

        The graphs were checked when they were constructed; they are
        flattened into the database's storage and kept as its ``graphs``.
        Raises ValueError when a label has no entry in a token table passed in.
        """
        graphs = tuple(graphs)
        vertex_labels = np.fromiter(
            chain.from_iterable(g.vertex_labels for g in graphs), np.int64
        )
        edges = np.fromiter(
            chain.from_iterable(chain.from_iterable(g.edges for g in graphs)), np.int64
        ).reshape(-1, 3)
        if vertex_tokens is None:
            vertex_tokens = tuple(map(str, range(vertex_labels.max(initial=-1) + 1)))
        if edge_tokens is None:
            edge_tokens = tuple(map(str, range(edges[:, 2].max(initial=-1) + 1)))
        db = cls(
            tuple(g.graph_id for g in graphs),
            tuple(classes),
            tuple(vertex_tokens),
            tuple(edge_tokens),
            vertex_labels,
            _offsets([g.vertex_count for g in graphs]),
            edges,
            _offsets([g.edge_count for g in graphs]),
        )
        # reading the graphs back would rebuild these same records
        db.__dict__["graphs"] = graphs
        return db

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphDatabase):
            return NotImplemented
        if self is other:
            return True
        # the text writes the ids, classes and every vertex and edge, so
        # databases that differ in these differ in text; it names labels by
        # token, so dense ids assigned in a different order still compare equal
        return (
            self.graph_ids == other.graph_ids
            and self.original_classes == other.original_classes
            and np.array_equal(self.vertex_offsets, other.vertex_offsets)
            and np.array_equal(self.edge_offsets, other.edge_offsets)
            and serialize_database(self) == serialize_database(other)
        )

    def __hash__(self) -> int:
        # equal text means equal ids and classes, so this agrees with __eq__
        return hash((self.graph_ids, self.original_classes))


def _lines(source: str | IO[str]) -> Iterable[str]:
    return source.splitlines() if isinstance(source, str) else source


def _parse_labels_file(source: str | IO[str]) -> dict[int, int]:
    out: dict[int, int] = {}
    for no, raw in enumerate(_lines(source), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("%"):
            continue
        if len(parts) != 2:
            raise ParseError(no, f"expected '<graph_id> <class>', got {raw.strip()!r}")
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

    One pass checks each line once and appends straight to the database's
    flat storage; no per-graph record is built.
    """
    labels_map = _parse_labels_file(labels_source) if labels_source is not None else None
    # token -> dense id, in order of first appearance
    vertex_ids: dict[str, int] = {}
    edge_ids: dict[str, int] = {}

    graph_ids: list[int] = []
    inline: list[int | None] = []
    seen_ids: set[int] = set()
    vertex_counts: list[int] = []
    edge_counts: list[int] = []
    vertex_labels: list[int] = []
    # (u, v, label) of every edge, flat; u and v stay small ints within the graph
    edges: list[int] = []

    # the open graph's vertex and edge counts and its (min, max) endpoint pairs
    nv = ne = 0
    pairs: set[tuple[int, int]] = set()

    for no, raw in enumerate(_lines(graph_source), start=1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "e":
            if not graph_ids:
                raise ParseError(no, "edge line before any 't' line")
            if len(parts) != 4:
                raise ParseError(no, f"expected 'e <src> <dst> <edge_label>', got {raw.strip()!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(no, f"edge endpoints must be integers in {raw.strip()!r}") from None
            if u == v:
                raise ParseError(no, f"self-loop at vertex {u}")
            if not (0 <= u < nv and 0 <= v < nv):
                raise ParseError(no, f"edge ({u}, {v}) references an undeclared vertex")
            pair = (u, v) if u < v else (v, u)
            if pair in pairs:
                raise ParseError(no, f"parallel edge ({u}, {v})")
            pairs.add(pair)
            lbl = edge_ids.get(parts[3])
            if lbl is None:
                lbl = edge_ids[parts[3]] = len(edge_ids)
            edges += (u, v, lbl)
            ne += 1
        elif kind == "v":
            if not graph_ids:
                raise ParseError(no, "vertex line before any 't' line")
            if len(parts) != 3:
                raise ParseError(no, f"expected 'v <vertex_id> <vertex_label>', got {raw.strip()!r}")
            try:
                vid = int(parts[1])
            except ValueError:
                raise ParseError(no, f"vertex id must be an integer, got {parts[1]!r}") from None
            if vid != nv:
                raise ParseError(
                    no, f"vertex ids must be 0-based and consecutive; expected {nv}, got {vid}"
                )
            lbl = vertex_ids.get(parts[2])
            if lbl is None:
                lbl = vertex_ids[parts[2]] = len(vertex_ids)
            vertex_labels.append(lbl)
            nv += 1
        elif kind == "t":
            if len(parts) not in (3, 4) or parts[1] != "#":
                raise ParseError(no, f"expected 't # <graph_id> [<class>]', got {raw.strip()!r}")
            try:
                gid = int(parts[2])
            except ValueError:
                raise ParseError(no, f"graph id must be an integer, got {parts[2]!r}") from None
            if gid in seen_ids:
                raise ParseError(no, f"duplicate graph id {gid}")
            seen_ids.add(gid)
            cls = None
            if len(parts) == 4:
                if parts[3] not in ("0", "1"):
                    raise LabelError(f"line {no}: class must be 0 or 1, got {parts[3]!r}")
                cls = int(parts[3])
            if graph_ids:
                vertex_counts.append(nv)
                edge_counts.append(ne)
            graph_ids.append(gid)
            inline.append(cls)
            nv = ne = 0
            pairs = set()
        elif not kind.startswith("%"):
            raise ParseError(no, f"unknown record type {kind!r}")
    if graph_ids:
        vertex_counts.append(nv)
        edge_counts.append(ne)

    if labels_map is not None:
        for gid in graph_ids:
            if gid not in labels_map:
                raise LabelError(f"graph id {gid} missing from the labels file")
        classes = tuple(map(labels_map.__getitem__, graph_ids))
    else:
        for gid, cls in zip(graph_ids, inline):
            if cls is None:
                raise LabelError(f"graph id {gid} has no class assignment")
        classes = tuple(inline)

    return GraphDatabase(
        tuple(graph_ids),
        classes,
        tuple(vertex_ids),
        tuple(edge_ids),
        vertex_labels,
        _offsets(vertex_counts),
        edges,
        _offsets(edge_counts),
    )


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

