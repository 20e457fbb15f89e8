"""Two-class labeled graph databases and the transaction file format.

A database is an ordered collection of undirected, vertex- and edge-labeled
simple graphs, each assigned to class 1 (positive) or class 0 (negative),
whichever is larger. Label tokens from input files are interned into dense
integer ids through per-database symbol tables.

A database stores its graphs flat, end to end, with per-graph offsets. The
parser fills that storage a block of whole lines at a time, checking every
line of a block at once as an array of code points, and ``from_graphs``
flattens checked ``LabeledGraph`` records into it. The miner's arrays
(``ArrayLayout``) and the graphs as records (``GraphDatabase.graphs``)
derive from it once, on first use.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from typing import IO, Iterable, Iterator, Sequence

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
    stored sorted. Labels and edges are stored as tuples, whatever sequences
    they are given as, so equal graphs compare equal and hash alike.
    """

    graph_id: int
    vertex_labels: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        # plain ints, all that the read-back and the generators make, are
        # checked by type alone
        if type(self.graph_id) is not int:
            object.__setattr__(self, "graph_id", _as_int(self.graph_id, "graph id"))
        # tuple() of a tuple is that tuple, so only other sequences are copied
        labels = tuple(self.vertex_labels)
        if not {int}.issuperset(map(type, labels)):
            what = f"graph {self.graph_id}: vertex label"
            labels = tuple(_as_int(lbl, what) for lbl in labels)
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


# vertex and edge rows the constructor screens at a time; its temporaries
# scale with it
_ROWS = 1 << 13


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
    ``positive`` is each position's class (1 or 0) and ``largest`` is
    the vertex count of the largest graph.
    Nothing here depends on the order or orientation of the stored edges.
    """

    def __init__(self, db: "GraphDatabase"):
        n = db.size
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
    and edge row as ``LabeledGraph`` checks a graph's. The ids, classes and
    token tables are stored as tuples, whatever sequences they are given as. ``graphs`` reads the
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
        # a frozen record holds no list a caller could still change
        for name in ("graph_ids", "original_classes", "vertex_tokens", "edge_tokens"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
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
        # the set is as large as the stored rows: drop it before the row screen
        del seen_ids
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
        """Screen the rows with numpy, whole graphs of about ``_ROWS`` rows at a time.

        The graphs are screened in order, so the first bad one, built as a
        ``LabeledGraph``, raises.
        """
        voff, eoff = self.vertex_offsets, self.edge_offsets
        # a chunk begins at each graph whose first vertex and edge rows pass
        # a multiple of _ROWS, so it holds fewer than 2 * _ROWS rows unless
        # its last graph alone holds more
        bucket = (voff[:-1] + eoff[:-1]) // _ROWS
        cuts = [0, *(np.flatnonzero(bucket[1:] != bucket[:-1]) + 1).tolist(), self.size]
        del bucket
        for g0, g1 in zip(cuts, cuts[1:]):
            graphs = np.arange(g0, g1)
            graph = np.repeat(graphs, np.diff(eoff[g0 : g1 + 1]))
            first = voff[graph]
            u, v, label = self.edges[eoff[g0] : eoff[g1]].T
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            outside = (lo < 0) | (hi >= voff[graph + 1] - first)
            # ids of the pair within the chunk: two valid rows share a key only
            # when they join the same pair of one graph, and a shared key flags
            # the later row, so a false repeat never comes before the bad row
            # it shares with
            first -= voff[g0]
            key = (lo + first) * int(voff[g1] - voff[g0]) + hi + first
            order = np.argsort(key, kind="stable")
            repeat = np.zeros(len(key), bool)
            repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
            vertex_graph = np.repeat(graphs, np.diff(voff[g0 : g1 + 1]))
            bad = np.append(
                graph[(label < 0) | (u == v) | outside | repeat],
                vertex_graph[self.vertex_labels[voff[g0] : voff[g1]] < 0],
            )
            if bad.size:
                i = int(bad.min())
                v0, v1 = voff[i : i + 2]
                e0, e1 = eoff[i : i + 2]
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
            classes,
            vertex_tokens,
            edge_tokens,
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


# the characters str.split() splits at (str.isspace), and the subset that
# str.splitlines() ends a line at; every one of them is below _TOP
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_TOP = 0x3001
_SPACE, _TEXT, _BREAK = 0, 1, 2
# the class of each code point up to _TOP, which stands for every one above
_CHAR_CLASS = np.full(_TOP + 1, _TEXT, np.int8)
_CHAR_CLASS[list(map(ord, _WHITESPACE))] = _SPACE
_CHAR_CLASS[list(map(ord, _LINE_BREAKS))] = _BREAK

# code points per block read; the parser's temporaries scale with it
_BLOCK = 1 << 17


def _blocks(source: str | IO[str]) -> Iterator[str]:
    """The text of ``source`` in pieces of about ``_BLOCK`` code points.

    Every piece but the last ends at a line boundary of ``str.splitlines``,
    so the pieces' lines are the text's lines, whether it is a ``str`` or a
    file read ``_BLOCK`` characters at a time. A line longer than that is
    one longer piece. Each chunk read is searched once, so the time is
    linear in the text however long its lines.
    """
    size = _BLOCK
    if isinstance(source, str):
        chunks: Iterable[str] = (source[i : i + size] for i in range(0, len(source), size))
    else:
        chunks = iter(partial(source.read, size), "")
    # the text read since the last line boundary, in the chunks it came in
    carry: list[str] = []
    for chunk in chunks:
        # a final "\r" may be the first half of a "\r\n", so it ends a line
        # only when the next chunk does not begin with "\n"
        stop = len(chunk) - chunk.endswith("\r")
        cut = 1 + max(chunk.rfind(c, 0, stop) for c in _LINE_BREAKS)
        if cut or carry and carry[-1].endswith("\r"):
            yield "".join([*carry, chunk[:cut]])
            carry = []
        carry.append(chunk[cut:])
    rest = "".join(carry)
    if rest:
        yield rest


def _lines(source: str | IO[str]) -> Iterator[str]:
    """The lines of ``source`` as ``str.splitlines`` cuts its whole text."""
    for block in _blocks(source):
        yield from block.splitlines()


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


def _line_error(no: int, raw: str, opened: bool, nv: int, repeat: bool) -> ValueError:
    """The error the format's rules give line ``no``, the first line the screen flagged.

    ``opened`` tells whether a 't' line came before it and ``nv`` counts the
    open graph's vertices before it. ``repeat`` tells whether its graph id
    came before in the file or, on an edge line, its pair of vertices before
    in its graph. The rules are tried in the order they are listed in.
    """
    parts = raw.split()
    kind = parts[0]
    if kind == "e":
        if not opened:
            return ParseError(no, "edge line before any 't' line")
        if len(parts) != 4:
            return ParseError(no, f"expected 'e <src> <dst> <edge_label>', got {raw.strip()!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            return ParseError(no, f"edge endpoints must be integers in {raw.strip()!r}")
        if u == v:
            return ParseError(no, f"self-loop at vertex {u}")
        if not (0 <= u < nv and 0 <= v < nv):
            return ParseError(no, f"edge ({u}, {v}) references an undeclared vertex")
        if repeat:
            return ParseError(no, f"parallel edge ({u}, {v})")
    elif kind == "v":
        if not opened:
            return ParseError(no, "vertex line before any 't' line")
        if len(parts) != 3:
            return ParseError(no, f"expected 'v <vertex_id> <vertex_label>', got {raw.strip()!r}")
        try:
            vid = int(parts[1])
        except ValueError:
            return ParseError(no, f"vertex id must be an integer, got {parts[1]!r}")
        if vid != nv:
            return ParseError(
                no, f"vertex ids must be 0-based and consecutive; expected {nv}, got {vid}"
            )
    elif kind == "t":
        if len(parts) not in (3, 4) or parts[1] != "#":
            return ParseError(no, f"expected 't # <graph_id> [<class>]', got {raw.strip()!r}")
        try:
            gid = int(parts[2])
        except ValueError:
            return ParseError(no, f"graph id must be an integer, got {parts[2]!r}")
        if repeat:
            return ParseError(no, f"duplicate graph id {gid}")
        if len(parts) == 4 and parts[3] not in ("0", "1"):
            return LabelError(f"line {no}: class must be 0 or 1, got {parts[3]!r}")
    elif not kind.startswith("%"):
        return ParseError(no, f"unknown record type {kind!r}")
    raise RuntimeError(f"line {no} was flagged, but no rule rejects {raw.strip()!r}")


def _integers(cp: np.ndarray, text: str, start: np.ndarray, end: np.ndarray):
    """``int`` of each token ``text[start[i]:end[i]]``: (values, read, exact).

    ``read`` tells which tokens ``int`` accepts. Tokens of at most 18 ASCII
    digits are read in numpy; any other goes through ``int``, so "+3",
    "1_0" or "٣" mean what they mean there, and ``exact`` maps its index to
    the value. A value outside int64 is -1 in ``values``, which no vertex id
    or endpoint may be.
    """
    length = end - start
    # the last code point of every token, then the k-th from the end of
    # the tokens at least k long
    digit = cp[end - 1] - np.uint32(ord("0"))
    read = (digit < 10) & (length <= 18)
    values = digit.astype(np.int64)
    at = np.flatnonzero(length > 1)
    for k in range(2, 19):
        at = at[length[at] >= k]
        if not at.size:
            break
        digit = cp[end[at] - k] - np.uint32(ord("0"))
        read[at] &= digit < 10
        values[at] += digit.astype(np.int64) * 10 ** (k - 1)
    exact = {}
    for i in np.flatnonzero(~read).tolist():
        try:
            exact[i] = value = int(text[start[i] : end[i]])
        except ValueError:
            continue
        read[i] = True
        values[i] = value if -(2**63) <= value < 2**63 else -1
    return values, read, exact


def _intern(
    cp: np.ndarray, text: str, start: np.ndarray, end: np.ndarray, ids: dict[str, int]
) -> np.ndarray:
    """The id of each token ``text[start[i]:end[i]]`` in ``ids``, new tokens numbered as they appear.

    Tokens are grouped by length, and ``np.unique`` ranks a group's tokens,
    its code points viewed as numpy strings of that length. Only the
    distinct tokens of a group are read as strings.
    """
    width = end - start
    out = np.empty(len(start), np.int64)
    groups, new = [], []
    lengths = np.flatnonzero(np.bincount(width)).tolist()
    for w in lengths:
        at = np.flatnonzero(width == w) if len(lengths) > 1 else slice(None)
        begin = start[at]
        chars = cp[begin[:, None] + np.arange(w)]
        # numpy strings compare trailing NULs as padding, but the tokens of
        # a group are equally long, so equal strings are equal tokens
        distinct, rank = np.unique(chars.view(f"U{w}").ravel(), return_inverse=True)
        rank = rank.ravel()
        # where one token of each rank begins; any will do
        where = np.empty(len(distinct), np.int64)
        where[rank] = begin
        tokens = [text[i : i + w] for i in where.tolist()]
        if not ids.keys() >= set(tokens):
            # the first token of each rank, from a stable sort by rank
            order = np.argsort(rank, kind="stable")
            once = order[np.flatnonzero(np.diff(rank[order], prepend=-1))]
            new += zip(begin[once].tolist(), tokens)
        groups.append((at, rank, tokens))
    for _, token in sorted(new):
        ids.setdefault(token, len(ids))
    for at, rank, tokens in groups:
        out[at] = np.array([ids[token] for token in tokens], np.int64)[rank]
    return out


def _tokens(text: str):
    """A block's code points and tokens: (cp, start, end, line_end, first).

    Token i is ``cp[start[i]:end[i]]``, the tokens split where ``str.split``
    splits; ``line_end`` holds the position of each line end, where
    ``str.splitlines`` ends a line, and ``first`` the first token of each
    line that has any.
    """
    cp = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    # each code point's class, between two spaces; the "\r" of a "\r\n" is
    # a space and its "\n" ends the line
    word = np.zeros(len(cp) + 2, np.int8)
    np.take(_CHAR_CLASS, cp, out=word[1:-1], mode="clip")
    cr = np.flatnonzero(cp[:-1] == ord("\r"))
    word[cr[cp[cr + 1] == ord("\n")] + 1] = _SPACE
    in_token = word == _TEXT
    bounds = np.flatnonzero(in_token[1:] != in_token[:-1])
    line_end = np.flatnonzero(word == _BREAK) - 1
    start, end = bounds[0::2], bounds[1::2]
    # a token opens its line when a line end, or the block's start, comes
    # between it and the token before: most often right before it (word[i]
    # is the class of cp[i - 1]), else past spaces
    opens = word[start] == _BREAK
    opens[:1] = True
    wide = np.flatnonzero(start[1:] - end[:-1] > 1) + 1
    wide = wide[~opens[wide]]
    if wide.size:
        opens[wide] = np.searchsorted(line_end, start[wide]) > np.searchsorted(line_end, end[wide - 1])
    return cp, start, end, line_end, np.flatnonzero(opens)


class _Scan:
    """The transaction format read one block of whole lines at a time.

    ``feed`` screens every line of a block by the format's rules in numpy
    and keeps the block's graphs, vertices and edges; the first line that
    breaks a rule raises, worded by ``_line_error``. What a block needs of
    the blocks before it is carried: the counts of lines, vertices and
    edges, the graph ids seen, the token tables, and the open graph's first
    vertex and vertex pairs.
    """

    def __init__(self) -> None:
        self.lines = self.vertices = self.edges = 0
        self.graph_ids: list[int] = []
        self.seen_ids: set[int] = set()
        self.vertex_ids: dict[str, int] = {}
        self.edge_ids: dict[str, int] = {}
        # each graph's inline class, -1 for none, and the database's flat
        # storage (the offsets without their last entry), one piece a block
        self.classes = [np.zeros(0, np.int8)]
        self.pieces = {
            "vertex_labels": [np.zeros(0, np.int64)],
            "vertex_offsets": [np.zeros(0, np.int64)],
            "edges": [np.zeros((0, 3), np.int64)],
            "edge_offsets": [np.zeros(0, np.int64)],
        }
        # the open graph's first vertex and its edges' (min, max) endpoints,
        # numbered over the whole file
        self.open_start = 0
        self.open_pairs = (np.zeros(0, np.int64), np.zeros(0, np.int64))

    def feed(self, text: str) -> None:
        cp, start, end, line_end, first = _tokens(text)
        arity = np.diff(first, append=len(start))
        # each line's kind, by its first token when that is one letter; a
        # line of no kind breaks a rule unless it is a comment
        lead_at = start[first]
        lead = cp[lead_at]
        kind = np.where(end[first] - lead_at == 1, lead, 0)
        is_t, is_v, is_e = kind == ord("t"), kind == ord("v"), kind == ord("e")
        flag = ~(is_t | is_v | is_e) & (lead != ord("%"))
        # each line's graph, 0 the one open before the block, the vertices
        # before it and the open graph's among them, counted over the file
        graph = np.cumsum(is_t)
        before = self.vertices + np.cumsum(is_v) - is_v
        t, v, e = np.flatnonzero(is_t), np.flatnonzero(is_v), np.flatnonzero(is_e)
        vertices = self.vertices + len(v)
        graph_start = np.append(self.open_start, before[t])
        nv = before - graph_start[graph]
        opened = (graph > 0) | bool(self.graph_ids)
        # the lines whose graph id or vertex pair came before
        repeats = []

        # the lines of each kind whose tokens are as many as it takes
        flag[t] = (arity[t] != 3) & (arity[t] != 4)
        flag[v] = ~opened[v] | (arity[v] != 3)
        flag[e] = ~opened[e] | (arity[e] != 4)
        t, v, e = t[~flag[t]], v[arity[v] == 3], e[arity[e] == 4]
        # every integer at once: graph ids, vertex ids, sources, destinations
        at = np.concatenate((first[t] + 2, first[v] + 1, first[e] + 1, first[e] + 2))
        values, read, exact = _integers(cp, text, start[at], end[at])
        parts = np.cumsum((len(t), len(v), len(e)))
        gid, vid, u, w = np.split(values, parts)
        t_read, v_read, u_read, w_read = np.split(read, parts)

        tok = first[t]
        hashed = (end[tok + 1] - start[tok + 1] == 1) & (cp[start[tok + 1]] == ord("#"))
        # the inline class, -1 for none and 2 for a token other than 0 or 1
        classes = np.full(len(t), -1, np.int8)
        four = np.flatnonzero(arity[t] == 4)
        at = tok[four] + 3
        digit = cp[start[at]] - np.uint32(ord("0"))
        classes[four] = np.where((end[at] - start[at] == 1) & (digit < 2), digit, 2)
        flag[t] |= ~hashed | ~t_read | (classes == 2)
        ids = gid.tolist()
        for i, value in exact.items():
            if i < len(ids):
                ids[i] = value
        known = len(self.seen_ids)
        self.seen_ids.update(ids)
        if len(self.seen_ids) - known < len(ids):
            seen = set(self.graph_ids)
            for i, value in enumerate(ids):
                if value in seen:
                    repeats.append(t[i])
                    break
                seen.add(value)

        flag[v] |= ~v_read | (vid != nv[v])
        vertex_labels = _intern(cp, text, start[first[v] + 2], end[first[v] + 2], self.vertex_ids)

        tok = first[e]
        fits = u_read & w_read & (u != w) & (np.minimum(u, w) >= 0) & (np.maximum(u, w) < nv[e])
        flag[e] |= ~fits
        # a pair repeats when its endpoints, numbered over the file, do; the
        # open graph's pairs from earlier blocks come first
        fitting = e[fits]
        base = graph_start[graph[fitting]]
        lo = np.append(self.open_pairs[0], np.minimum(u, w)[fits] + base)
        hi = np.append(self.open_pairs[1], np.maximum(u, w)[fits] + base)
        key = lo * vertices + hi
        order = np.argsort(key, kind="stable")
        again = order[1:][key[order[1:]] == key[order[:-1]]]
        if again.size:
            repeats.append(fitting[again.min() - len(self.open_pairs[0])])
        flag[repeats] = True
        edge_labels = _intern(cp, text, start[tok + 3], end[tok + 3], self.edge_ids)

        bad = np.flatnonzero(flag)
        if bad.size:
            r = bad[0]
            j = int(np.searchsorted(line_end, lead_at[r]))
            raw = text[line_end[j - 1] + 1 if j else 0 : line_end[j] if j < len(line_end) else None]
            raise _line_error(self.lines + j + 1, raw, bool(opened[r]), int(nv[r]), r in repeats)

        self.graph_ids += ids
        self.classes.append(classes)
        self.pieces["vertex_labels"].append(vertex_labels)
        self.pieces["vertex_offsets"].append(graph_start[1:])
        self.pieces["edges"].append(np.stack((u, w, edge_labels), 1))
        self.pieces["edge_offsets"].append(self.edges + np.cumsum(is_e)[t])
        if t.size:
            # only the block's last graph may go on in the next block
            block = slice(len(lo) - len(fitting), None)
            mine = graph[fitting] == len(t)
            lo, hi = lo[block][mine], hi[block][mine]
        self.open_pairs = (lo, hi)
        self.open_start = int(graph_start[-1])
        self.lines += len(line_end)
        self.vertices = vertices
        self.edges += len(e)


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

    Lines end where ``str.splitlines`` ends them and tokens are split as
    ``str.split`` splits them, whether a source is a ``str`` or a file. The
    graph text is read in blocks of whole lines; each block is screened by
    every rule above in numpy, as arrays of code points, so the temporaries
    follow the block and not the input. The first line that breaks a rule
    raises, with its line number; no per-graph record is built.
    """
    labels_map = _parse_labels_file(labels_source) if labels_source is not None else None
    scan = _Scan()
    for block in _blocks(graph_source):
        scan.feed(block)
    graph_ids = tuple(scan.graph_ids)

    if labels_map is not None:
        for gid in graph_ids:
            if gid not in labels_map:
                raise LabelError(f"graph id {gid} missing from the labels file")
        classes = tuple(map(labels_map.__getitem__, graph_ids))
    else:
        inline = np.concatenate(scan.classes)
        if (inline < 0).any():
            gid = graph_ids[int(np.argmax(inline < 0))]
            raise LabelError(f"graph id {gid} has no class assignment")
        classes = tuple(inline.tolist())

    tokens = tuple(scan.vertex_ids), tuple(scan.edge_ids)
    scan.pieces["vertex_offsets"].append([scan.vertices])
    scan.pieces["edge_offsets"].append([scan.edges])
    # each array's pieces are let go once it is joined
    storage = [np.concatenate(scan.pieces.pop(name)) for name in list(scan.pieces)]
    del scan
    return GraphDatabase(graph_ids, classes, *tokens, *storage)


def serialize_database(db: GraphDatabase) -> str:
    """Render a database back to the transaction format with inline classes.

    Each graph is its ``t # id class`` line, its vertices in order, then its
    edges as ``LabeledGraph`` holds them, each written with u < v and sorted.
    The lines are made from the flat arrays, ``_GRAPHS`` graphs at a time,
    so no graph record is built. Re-parsing the result yields a database
    equal to the original.
    """
    blocks = range(0, db.size, _GRAPHS)
    return "".join(_render(db, g0, min(g0 + _GRAPHS, db.size)) for g0 in blocks)


# graphs serialize_database writes at a time; its temporaries scale with it
_GRAPHS = 1 << 12


def _render(db: GraphDatabase, g0: int, g1: int) -> str:
    """The lines of graphs ``g0`` to ``g1`` (exclusive), each ending in a newline."""
    voff = db.vertex_offsets[g0 : g1 + 1] - db.vertex_offsets[g0]
    eoff = db.edge_offsets[g0 : g1 + 1] - db.edge_offsets[g0]
    vcounts, ecounts = np.diff(voff), np.diff(eoff)
    labels = db.vertex_labels[db.vertex_offsets[g0] : db.vertex_offsets[g1]]
    u, v, label = db.edges[db.edge_offsets[g0] : db.edge_offsets[g1]].T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # the edges stay with their graph, sorted within it
    order = np.lexsort((hi, lo, np.repeat(np.arange(g1 - g0), ecounts)))
    lo, hi, label = lo[order], hi[order], label[order]
    # graph i's lines follow i header lines, voff[i] vertex and eoff[i] edge lines
    head = np.arange(g1 - g0) + voff[:-1] + eoff[:-1]
    lines = np.empty(g1 - g0 + len(labels) + len(lo), object)
    lines[head] = np.fromiter(
        map("t # {} {}".format, db.graph_ids[g0:g1], db.original_classes[g0:g1]), object, g1 - g0
    )
    within = np.arange(len(labels)) - np.repeat(voff[:-1], vcounts)
    vertex_tokens = np.array(db.vertex_tokens, object)[labels]
    lines[np.repeat(head + 1, vcounts) + within] = np.fromiter(
        map("v {} {}".format, within.tolist(), vertex_tokens), object, len(within)
    )
    edge_line = np.arange(len(lo)) + np.repeat(head + 1 + vcounts - eoff[:-1], ecounts)
    edge_tokens = np.array(db.edge_tokens, object)[label]
    lines[edge_line] = np.fromiter(
        map("e {} {} {}".format, lo.tolist(), hi.tolist(), edge_tokens), object, len(lo)
    )
    return "\n".join(lines.tolist()) + "\n"
