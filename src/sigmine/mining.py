"""Frequent connected subgraph enumeration over a transaction database.

Patterns are represented by DFS codes: sequences of quintuples
``(frm, to, frm_label, edge_label, to_label)`` where forward edges introduce
vertex ``to`` and backward edges close a cycle back onto the rightmost path.
Each pattern is visited exactly once by pruning non-minimal codes. Support is
the number of distinct transactions containing at least one embedding.

A run keeps what it emits as columns (``PatternStore``): the codes, one
read-only int32 buffer holding every pattern's transaction positions
end to end, each pattern's in ascending order, with int64 offsets, and the
class-1 count of each pattern. The miner appends each emission's positions
to that buffer, written in chunks that the store joins when positions are
first read, and every later stage reads the columns; indexing a store gives
a ``Pattern`` whose occurrences are a view of the buffer. Only this module
knows the buffer's layout.

``_step`` advances a code's rightmost path, vertex labels and edge set by
one quint. The miner carries that state from parent to child instead of
re-deriving it from the code, and walks the search tree with an explicit
stack of sibling groups, so pattern depth is not bounded by Python's
recursion limit. It holds a code's embeddings as one int32 array over the
database's global vertex ids. When it reaches a sibling not joined yet, it
finds all rightmost-path extensions of that sibling and of the frequent ones
after it of the same vertex count in one numpy join over their arrays laid
side by side (``_Miner._children``), up to a fixed number of candidate
cells. The join decides each child once: only children that are frequent,
pass gSpan's first-edge test and are minimal get embeddings.
Every edge code comes from that join: the single-edge roots are the children
of one-vertex codes, the vertices of each frequent label. It lists a code's
children in gSpan's extension order: backward edges before forward ones,
backward edges by target vertex and then edge label, forward edges from the
rightmost vertex back towards the root and then by edge label and new vertex
label. The minimality check (``is_canonical``) is gSpan's isMin test: it
walks the code over the small graph the code describes, held as a plain
adjacency, and stops at the first extension that sorts below the code's own
in that order. ``minimum_code`` takes the join's first child at every step.

Single-vertex patterns use the degenerate code ``((0, 0, lbl, NO_EDGE, lbl),)``.

A run can be steered through a hook called at every emission. The hook may
raise the support threshold while the run is in progress (the live threshold
is miner state, so ``MinerConfig`` stays immutable), and an exception it
raises ends the run. The miner only enumerates: it returns every pattern it
emitted, and its caller keeps what it needs. ``search._run`` composes sigma
raising, the pattern budget and a deadline in its one hook.
"""

from __future__ import annotations

from dataclasses import dataclass
import operator
from array import array
from typing import Callable, Iterable, Sequence

import numpy as np

from .graphs import GraphDatabase, LabeledGraph, _as_int, _integral_fields

Quint = tuple[int, int, int, int, int]

NO_EDGE = -1


@dataclass(frozen=True)
class MinerConfig:
    """Tuning for one mining run.

    min_frequency: support threshold sigma, at least 1.
    max_vertices: largest pattern vertex count, None for unlimited.
    count_singletons: include single-vertex patterns.
    """

    min_frequency: int
    max_vertices: int | None = None
    count_singletons: bool = True

    def __post_init__(self) -> None:
        _integral_fields(self, "min_frequency", "max_vertices")
        if self.min_frequency < 1:
            raise ValueError("min_frequency must be at least 1")
        if self.max_vertices is not None and self.max_vertices < 1:
            raise ValueError("max_vertices must be at least 1 or None")


@dataclass(frozen=True, slots=True, eq=False)
class Pattern:
    """A frequent pattern with its transaction-level occurrence data.

    ``occurrences`` holds the 0-based transaction positions of the pattern,
    ascending and distinct, as a 1-D read-only int32 numpy array; ``x`` of
    them belong to class 1 and ``x_prime`` to class 0. The constructor
    stores a fresh copy of whatever sequence it is given, so a caller's own
    array stays writeable; it raises TypeError unless the entries are
    integers (bools are not), as the database's arrays must be. The vertex
    and edge counts are read off ``code``: one vertex plus one per forward
    quint, and one edge per quint, none for a singleton. Patterns compare
    and hash by identity, since arrays have no value equality; compare
    ``(code, occurrences.tolist(), x, x_prime)`` to compare by value.
    """

    code: tuple[Quint, ...]
    occurrences: np.ndarray
    x: int
    x_prime: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "occurrences", _int32_positions(self.occurrences))

    @property
    def frequency(self) -> int:
        return self.x + self.x_prime

    @property
    def vertex_count(self) -> int:
        return _vertex_count(self.code)

    @property
    def edge_count(self) -> int:
        return _edge_count(self.code)


def _int32_positions(value) -> np.ndarray:
    """``value`` as a fresh read-only 1-D int32 array.

    Raises TypeError unless its entries are integers (bools are not), and
    ValueError for an entry that int32 cannot hold.
    """
    out = np.array(value)
    if out.size and out.dtype.kind not in "iu":
        raise TypeError(f"occurrences must hold integers, got {out.dtype}")
    if out.ndim != 1:
        raise ValueError(f"occurrences must be one-dimensional, got shape {out.shape}")
    if out.size and not (_INT32.min <= out.min() and out.max() <= _INT32.max):
        raise ValueError("occurrences must fit int32")
    out = out.astype(np.int32)
    out.flags.writeable = False
    return out


_INT32 = np.iinfo(np.int32)


def _pattern(code: tuple[Quint, ...], occurrences: np.ndarray, x: int, x_prime: int) -> Pattern:
    """A ``Pattern`` around a read-only int32 view, with no copy or check."""
    pattern = object.__new__(Pattern)
    object.__setattr__(pattern, "code", code)
    object.__setattr__(pattern, "occurrences", occurrences)
    object.__setattr__(pattern, "x", x)
    object.__setattr__(pattern, "x_prime", x_prime)
    return pattern


class PatternStore(Sequence[Pattern]):
    """A family of patterns held as columns, in the order they were emitted.

    ``codes`` holds each pattern's DFS code, ``x`` (an int64 array) its
    class-1 count, and ``frequency`` is derived from the occurrences. The
    occurrences themselves are one read-only int32 buffer, each pattern's
    positions ascending, with int64 offsets; only this module reads that
    buffer directly. Indexing and iteration give ``Pattern``
    records whose occurrences are read-only views of it, and a slice (step
    1 only) is a store that shares it.

    A mining run writes the buffer in chunks and joins them the first time
    a reader asks for positions (``_buffer``), so a run whose family is
    only scored and rendered never holds its positions twice. Stores
    converted from one another share the chunks and the joined buffer.

    ``PatternStore(patterns)`` is the one conversion from any sequence of
    patterns, and the one place hand-built occurrences are checked: entries
    must be integers (TypeError otherwise), strictly ascending and
    non-negative, and as many as ``x + x_prime`` (ValueError otherwise).
    A store passed in shares its columns with the result. Stores compare by
    identity.
    """

    __slots__ = ("codes", "x", "_chunks", "_offsets")

    def __init__(self, patterns: Iterable[Pattern] = ()):
        if isinstance(patterns, PatternStore):
            self._set(patterns.codes, patterns._chunks, patterns._offsets, patterns.x)
            return
        patterns = tuple(patterns)
        occs = [_int32_positions(p.occurrences) for p in patterns]
        xs = [_as_int(p.x, "x") for p in patterns]
        for p, occ, x in zip(patterns, occs, xs):
            frequency = x + _as_int(p.x_prime, "x_prime")
            if len(occ) != frequency:
                raise ValueError(f"pattern has {len(occ)} occurrences but frequency {frequency}")
            if len(occ) and (occ[0] < 0 or (occ[1:] <= occ[:-1]).any()):
                raise ValueError("pattern occurrences must be strictly ascending positions >= 0")
        offsets = np.zeros(len(occs) + 1, np.int64)
        np.cumsum([len(occ) for occ in occs], out=offsets[1:])
        codes = tuple(p.code for p in patterns)
        positions = np.concatenate([np.empty(0, np.int32), *occs])
        self._set(codes, [positions], offsets, np.array(xs, np.int64))

    @classmethod
    def _of(cls, codes, chunks, offsets, x) -> PatternStore:
        """A store over columns already known to be consistent, not copied."""
        store = cls.__new__(cls)
        store._set(codes, chunks, offsets, x)
        return store

    def _set(self, codes, chunks: list[np.ndarray], offsets, x) -> None:
        for column in (*chunks, offsets, x):
            column.flags.writeable = False
        self.codes, self._chunks, self._offsets, self.x = codes, chunks, offsets, x

    def _buffer(self) -> np.ndarray:
        """The position buffer, its chunks joined on the first call."""
        chunks = self._chunks
        if len(chunks) != 1:
            joined = np.concatenate(chunks)
            joined.flags.writeable = False
            # in place, so every store sharing the chunks sees the buffer
            chunks[:] = [joined]
        return chunks[0]

    @property
    def frequency(self) -> np.ndarray:
        return np.diff(self._offsets)

    def _frequency(self, rows: np.ndarray) -> np.ndarray:
        """The frequency of the patterns ``rows`` alone."""
        return self._offsets[rows + 1] - self._offsets[rows]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("a pattern store slices with step 1 only")
            stop = max(start, stop)
            a, b = self._offsets[start], self._offsets[stop]
            return PatternStore._of(
                self.codes[start:stop],
                [self._buffer()[a:b]],
                self._offsets[start : stop + 1] - a,
                self.x[start:stop],
            )
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("pattern index out of range")
        a, b = self._offsets[i : i + 2].tolist()
        x = int(self.x[i])
        return _pattern(self.codes[i], self._buffer()[a:b], x, b - a - x)

    def _occurrences(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the patterns ``rows``, end to end, and for each
        position the index in ``rows`` of the pattern it belongs to."""
        starts = self._offsets[rows]
        counts = self._frequency(rows)
        owner = np.repeat(np.arange(len(rows)), counts)
        index = np.arange(len(owner))
        index += (starts - np.cumsum(counts) + counts).repeat(counts)
        return owner, self._buffer()[index]

    def _select(self, keep: np.ndarray) -> PatternStore:
        """The patterns where the bool array ``keep`` is True, in order.

        Uses this store, and every store sharing its chunks, up unless it
        keeps every pattern: each chunk is let go once its kept positions
        are copied out, so at no time is more than one chunk held twice.
        """
        if keep.all():
            return self
        frequency = self.frequency
        mask = np.repeat(keep, frequency)
        chunks, self._chunks = self._chunks, None
        chunks.reverse()
        kept, start = [], 0
        while chunks:
            chunk = chunks.pop()
            kept.append(chunk[mask[start : start + len(chunk)]])
            start += len(chunk)
            del chunk
        offsets = np.zeros(np.count_nonzero(keep) + 1, np.int64)
        np.cumsum(frequency[keep], out=offsets[1:])
        codes = tuple(code for code, k in zip(self.codes, keep.tolist()) if k)
        return PatternStore._of(codes, kept, offsets, self.x[keep])


def _vertex_count(code: Sequence[Quint]) -> int:
    return 1 + sum(1 for frm, to, *_ in code if frm < to)


def _edge_count(code: Sequence[Quint]) -> int:
    return 0 if _is_singleton(code) else len(code)


@dataclass(frozen=True)
class MiningOutcome:
    """A mining run's emissions, in emission order, as a ``PatternStore``."""

    patterns: PatternStore

    @property
    def emitted_count(self) -> int:
        return len(self.patterns)


def _is_singleton(code: Sequence[Quint]) -> bool:
    return len(code) == 1 and code[0][3] == NO_EDGE


# The state ``_step`` carries: the rightmost path (vertex ids, root first,
# rightmost vertex last), the vertex labels by id, and the edge set as
# (smaller id, larger id) pairs.
_State = tuple[tuple[int, ...], tuple[int, ...], frozenset[tuple[int, int]]]


def _root_state(label: int) -> _State:
    """State of the lone vertex 0 that a code's first quint grows from."""
    return (0,), (label,), frozenset()


def _step(
    rmpath: tuple[int, ...],
    labels: tuple[int, ...],
    edges: frozenset[tuple[int, int]],
    quint: Quint,
) -> _State:
    """The rightmost path, vertex labels and edge set after one more quint.

    A forward quint cuts the rightmost path back to its source and appends
    the new vertex; a backward quint leaves the path as it is.
    """
    frm, to, _, _, tl = quint
    if frm < to:
        return rmpath[: rmpath.index(frm) + 1] + (to,), labels + (tl,), edges | {(frm, to)}
    return rmpath, labels, edges | {(to, frm)}


def code_string(code: Sequence[Quint], db: GraphDatabase) -> str:
    """Serialize a code with the database's original label tokens.

    Singletons render as the bare vertex token; edge codes as semicolon-joined
    quintuples, e.g. ``0,1,A,e,B;1,2,B,f,A``.
    """
    if _is_singleton(code):
        return db.vertex_tokens[code[0][2]]
    parts = []
    for frm, to, fl, el, tl in code:
        parts.append(
            f"{frm},{to},{db.vertex_tokens[fl]},{db.edge_tokens[el]},{db.vertex_tokens[tl]}"
        )
    return ";".join(parts)


def is_canonical(code: Sequence[Quint]) -> bool:
    """True when the code is the minimal DFS code of the graph it describes.

    gSpan's isMin test: walk the code over the graph it describes, keeping
    the embeddings of each prefix into that graph. At each quint, an
    extension of some kept embedding that sorts below the quint, in the
    extension order of the module docstring, proves the code is not
    minimal; the extensions equal to the quint are the embeddings of the
    next prefix.
    The identity embedding realises every prefix, so the walk only ends
    early on a smaller extension.
    """
    if _is_singleton(code):
        return True
    labels = [code[0][2]]
    adjacency: list[dict[int, int]] = [{}]
    for frm, to, _, el, tl in code:
        if frm < to:
            labels.append(tl)
            adjacency.append({})
        adjacency[frm][to] = el
        adjacency[to][frm] = el
    first = code[0][2:]
    embeds = []
    for u, nbrs in enumerate(adjacency):
        lu = labels[u]
        if lu > first[0]:
            continue
        for v, el in nbrs.items():
            triple = (lu, el, labels[v])
            if triple < first:
                return False
            if triple == first:
                embeds.append((u, v))
    # the rightmost path and edge set after the first quint
    rmpath = (0, 1)
    edges = {(0, 1)}
    for frm, to, _, el, tl in code[1:]:
        rightmost = rmpath[-1]
        kept = []
        # the path vertices a backward edge from the rightmost vertex may reach
        open_path = [j for j in rmpath[:-1] if (j, rightmost) not in edges]
        if frm > to:
            # only backward edges to path vertices up to ``to`` compete
            for assign in embeds:
                r_nbrs = adjacency[assign[rightmost]]
                for j in open_path:
                    if j > to:
                        break
                    lbl = r_nbrs.get(assign[j])
                    if lbl is None:
                        continue
                    if j < to or lbl < el:
                        return False
                    if lbl == el:
                        kept.append(assign)
            edges.add((to, frm))
        else:
            # every backward edge, and every forward edge from a path vertex
            # deeper than ``frm``, sorts below a forward quint from ``frm``
            cut = rmpath.index(frm) + 1
            deeper = rmpath[cut:]
            for assign in embeds:
                r_nbrs = adjacency[assign[rightmost]]
                for j in open_path:
                    if assign[j] in r_nbrs:
                        return False
                for i in deeper:
                    for w in adjacency[assign[i]]:
                        if w not in assign:
                            return False
                for w, lbl in adjacency[assign[frm]].items():
                    if w in assign or lbl > el:
                        continue
                    if lbl < el or labels[w] < tl:
                        return False
                    if labels[w] == tl:
                        kept.append(assign + (w,))
            rmpath = rmpath[:cut] + (to,)
            edges.add((frm, to))
        if not kept:
            # no embedding realises the quint: not a DFS code of its graph
            return False
        embeds = kept
    return True


# Positions in one chunk of the miner's position buffer, 1 MiB
_CHUNK = 1 << 18

# Candidate cells one join holds at once: a candidate extension of an
# embedding of a k-vertex code carries k + 1 vertices. It bounds the
# temporaries of a join that batches siblings to about those of the largest
# single join on the null-20k benchmark (32,862 candidates at k = 2), a few
# MB; a code whose join alone exceeds it still joins alone.
_JOIN_CELLS = 98304


class _Siblings:
    """The minimal children of one code, grown one at a time in extension order.

    Child i is ``code + (quints[i],)``, supported by the distinct graph
    positions ``occs[i]``, ``ones[i]`` of them in class 1. ``held[i]`` is the
    child's projection until the child is joined, then its own
    ``_Siblings``, and None once it is emitted.
    """

    __slots__ = ("code", "state", "quints", "occs", "ones", "held", "next")

    def __init__(self, code: tuple[Quint, ...], state: _State):
        self.code = code
        self.state = state
        self.quints: list[Quint] = []
        self.occs: list[np.ndarray] = []
        self.ones: list[int] = []
        self.held: list[np.ndarray | _Siblings | None] = []
        self.next = 0


# A code to join: its code, its state after its last quint, the first-edge
# triple its children must not sort below, and its projection.
_Member = tuple[tuple[Quint, ...], _State, tuple[int, int, int], np.ndarray]


class _Miner:
    """One mining run over array projections.

    It reads the database's ``ArrayLayout``, built once per database and
    shared by every run over it. A projection is an int32 ``(k, m)`` array
    with one embedding of a k-vertex code per column: entry ``[c, i]`` is
    the global vertex that embedding i maps pattern vertex c to.

    What it emits goes straight into the columns of its ``PatternStore``:
    the codes, each pattern's end in the position buffer and its class-1
    count, and the positions themselves, written end to end into chunks
    that double in length up to ``_CHUNK`` entries, the last one filled up
    to ``fill``. The store joins the chunks when positions are first read;
    a single array grown as the run goes would be moved and copied.
    """

    def __init__(
        self,
        db: GraphDatabase,
        config: MinerConfig,
        on_emit: Callable[[int], int] | None,
    ):
        self.config = config
        self.on_emit = on_emit
        self.sigma = config.min_frequency
        self.codes: list[tuple[Quint, ...]] = []
        self.chunks = [np.empty(0, np.int32)]
        self.fill = 0
        self.ends = array("q", [0])
        self.ones = array("q")

        self.layout = layout = db.layout
        self.n = db.size
        # extension slots an int64 key has room for: a join spends 2k of them
        # on each code of k vertices, and no code outgrows the largest graph
        self.slots = 2**63 // (max(1, len(layout.pair_el)) * self.n)
        if self.slots < 2 * layout.largest:
            raise ValueError("database too large for the miner's int64 extension keys")
        # a projection's match matrix times this is the matching pattern
        # vertex + 1, or 0 for none
        self.vertex_weights = np.arange(1, layout.largest + 2)

    def _group(self, keys: np.ndarray, pos: np.ndarray):
        """Sort items by key and count the distinct graph positions of each key.

        Returns ``order`` (item indices sorted by key, then position), the
        distinct keys in ascending order as a list, ``occ`` (the distinct
        positions of each key in turn, ascending), the class-1 count of each
        key's positions as a list, and two lists of boundaries, one longer
        than the keys: key i owns ``occ[ob[i]:ob[i+1]]`` and
        ``order[rb[i]:rb[i+1]]``. Keys stay below ``slots`` times the
        label pairs, which ``__init__`` and ``_children`` see to, so
        ``key * n + pos`` fits int64.
        """
        n = self.n
        combined = keys * n
        combined += pos
        order = combined.argsort()
        combined = combined[order]
        step = np.empty(len(combined), bool)
        step[:1] = True
        np.not_equal(combined[1:], combined[:-1], out=step[1:])
        pair_items = step.nonzero()[0]
        pairs = combined[pair_items]
        pair_keys = pairs // n
        step = step[: len(pairs)]
        np.not_equal(pair_keys[1:], pair_keys[:-1], out=step[1:])
        key_pairs = step.nonzero()[0]
        occ = pairs - pair_keys * n
        ones = np.add.reduceat(self.layout.positive[occ], key_pairs).tolist()
        ob = key_pairs.tolist()
        rb = pair_items[key_pairs].tolist()
        ob.append(len(pairs))
        rb.append(len(combined))
        return order, pair_keys[key_pairs].tolist(), occ, ones, ob, rb

    def _emit(self, code: tuple[Quint, ...], occ: np.ndarray, ones: int) -> None:
        frequency = len(occ)
        self.codes.append(code)
        self.ends.append(self.ends[-1] + frequency)
        self.ones.append(ones)
        chunk = self.chunks[-1]
        if self.fill + len(occ) > len(chunk):
            # the rest of this chunk, then a new one twice as long, up to _CHUNK
            head = len(chunk) - self.fill
            chunk[self.fill :] = occ[:head]
            occ = occ[head:]
            size = min(max(2 * len(chunk), 1 << 12), _CHUNK)
            chunk = np.empty(max(len(occ), size), np.int32)
            self.chunks.append(chunk)
            self.fill = 0
        chunk[self.fill : self.fill + len(occ)] = occ
        self.fill += len(occ)
        if self.on_emit is not None:
            self.sigma = max(self.sigma, self.on_emit(frequency))

    def store(self) -> PatternStore:
        """Everything emitted, the last chunk cut to the positions it holds."""
        chunks, self.chunks = self.chunks, []
        chunks[-1] = chunks[-1][: self.fill].copy()
        ones = np.array(self.ones, np.int64)
        return PatternStore._of(tuple(self.codes), chunks, np.array(self.ends, np.int64), ones)

    def run(self) -> None:
        layout = self.layout
        order, keys, occ, ones, ob, rb = self._group(layout.vrank, layout.gpos)
        if self.config.count_singletons:
            for i, key in enumerate(keys):
                if ob[i + 1] - ob[i] >= self.sigma:
                    lbl = layout.vlabels[key]
                    self._emit(((0, 0, lbl, NO_EDGE, lbl),), occ[ob[i] : ob[i + 1]], ones[i])
        if self.config.max_vertices is not None and self.config.max_vertices < 2:
            return
        # each frequent label's vertices are a one-vertex code whose children
        # are the single-edge roots
        order = order.astype(np.int32)
        members = []
        for i, key in enumerate(keys):
            if ob[i + 1] - ob[i] >= self.sigma:
                lbl = layout.vlabels[key]
                first = (lbl, NO_EDGE, lbl)
                members.append(((), _root_state(lbl), first, order[None, rb[i] : rb[i + 1]]))
        stack = []
        while len(stack) < len(members):
            stack += self._children(members[len(stack) :])
        # the stack is the only owner of each group, so a group grown out is freed
        stack.reverse()
        self._grow(stack)

    def _grow(self, stack: list[_Siblings]) -> None:
        """Grow every code on ``stack`` depth first, popping from its end.

        The stack holds sibling groups; the one on top yields its next child.
        Support is tested when a child is yielded, against the threshold of
        that moment: ``on_emit`` may have raised it while earlier siblings
        grew, even after the child was joined. A child not joined yet is
        joined together with the siblings after it (``_batch``); its
        children are pushed as a group once it has been emitted, so codes
        are visited and emitted in gSpan preorder.
        """
        while stack:
            group = stack[-1]
            i = group.next
            if i == len(group.quints):
                stack.pop()
                continue
            group.next = i + 1
            occ = group.occs[i]
            if len(occ) < self.sigma:
                continue
            if isinstance(group.held[i], np.ndarray):
                self._batch(group, i)
            children = group.held[i]
            group.held[i] = None
            self._emit(group.code + (group.quints[i],), occ, group.ones[i])
            if len(occ) >= self.sigma and children.quints:
                stack.append(children)

    def _batch(self, group: _Siblings, i: int) -> None:
        """Join child i and the siblings after it of the same vertex count
        whose support reaches the live threshold, in one pass.

        A sibling infrequent now stays so, as the threshold only rises. None
        after i is joined yet: an earlier batch joined every frequent sibling
        up to where ``_JOIN_CELLS`` stopped it, and i lies past that. The
        siblings this join leaves keep their projection and are joined when
        they are reached.
        """
        k = len(group.held[i])
        members: list[_Member] = []
        at = []
        for j in range(i, len(group.quints)):
            proj = group.held[j]
            if len(proj) != k:
                break
            if len(group.occs[j]) >= self.sigma:
                code = group.code + (group.quints[j],)
                members.append((code, _step(*group.state, group.quints[j]), code[0][2:], proj))
                at.append(j)
        for j, children in zip(at, self._children(members)):
            group.held[j] = children

    def _children(self, members: list[_Member]) -> list[_Siblings]:
        """Join the rightmost-path extensions of codes of one vertex count.

        Finds every rightmost-path extension of every embedding of the first
        members at once and returns one group of children per member joined:
        as many members as keep the join within ``_JOIN_CELLS``, and at least one.
        The members' projections are laid side by side, and each member's
        embeddings are crossed with the vertices of its rightmost path (of
        its rightmost vertex alone when the vertex limit stops forward
        growth). The neighbours of those vertices are listed from the CSR
        and compared with the whole embedding. A neighbour outside it gives
        a forward edge; the rightmost vertex's neighbour at pattern vertex j
        gives a backward edge, unless the code already joins j to it. An
        extension's int64 key is ``(2k * member + slot) * P + (edge label,
        new label) pair``, with slot j for a backward edge to j and
        ``2k - 1 - frm`` for a forward edge from frm, so each member's keys
        sort in extension order. A key is listed as a child, with its
        embeddings, only when its support reaches the live threshold, it
        passes gSpan's first-edge test and ``is_canonical`` accepts its
        code. The first-edge test is the cheap part of that check: a new
        edge whose label triple, read either way, sorts below the member's
        first-edge triple means the code is not minimal. A one-vertex code
        labelled lbl passes ``(lbl, NO_EDGE, lbl)``, so its children, the
        single-edge roots, lose exactly the edges that lead to a smaller
        label.
        """
        layout = self.layout
        num_p = len(layout.pair_el)
        k = len(members[0][3])
        forward = self.config.max_vertices is None or k < self.config.max_vertices
        members = members[: self.slots // (2 * k)]
        projs = [member[3] for member in members]
        proj = projs[0] if len(projs) == 1 else np.concatenate(projs, axis=1)
        width = proj.shape[1]
        # one row per (member, path vertex): the vertex, the member's columns,
        # and its key base by matching pattern vertex + 1 (0 for none), -1 to
        # drop the extension
        rows, starts, counts, bases, ends = [], [], [], [], []
        start = 0
        for r, (_, (rmpath, _, edges), _, member_proj) in enumerate(members):
            rightmost = rmpath[-1]
            for v in rmpath if forward else rmpath[-1:]:
                base = [-1] * (k + 1)
                if forward:
                    base[0] = (2 * k * r + 2 * k - 1 - v) * num_p
                if v == rightmost:
                    for j in rmpath[:-1]:
                        if (j, rightmost) not in edges:
                            base[j + 1] = (2 * k * r + j) * num_p
                rows.append(v)
                starts.append(start)
                counts.append(member_proj.shape[1])
                bases.append(base)
            start += member_proj.shape[1]
            ends.append(len(rows))
        # the cells, (path vertex, embedding) pairs, as flat indices into proj
        counts = np.array(counts)
        pair = np.arange(len(rows)).repeat(counts)
        cell = np.arange(len(pair))
        cell += (np.array(rows) * width + starts - counts.cumsum() + counts).repeat(counts)
        flat = proj.ravel().take(cell)
        deg = layout.deg[flat]
        cell_ends = np.zeros(len(rows) + 1, np.int64)
        np.cumsum(counts, out=cell_ends[1:])
        cand_ends = np.zeros(len(flat) + 1, np.int64)
        np.cumsum(deg, out=cand_ends[1:])
        member_cells = cell_ends[ends].tolist()
        member_cands = cand_ends[member_cells].tolist()
        joined = 1
        while joined < len(members) and member_cands[joined] * (k + 1) <= _JOIN_CELLS:
            joined += 1
        num_cells = member_cells[joined - 1]
        deg = deg[:num_cells]
        col = cell[:num_cells] % width
        pair = pair[:num_cells] * (k + 1)

        cand = np.arange(num_cells).repeat(deg)
        edge = (layout.nbr_off[flat[:num_cells]] - cand_ends[:num_cells]).repeat(deg)
        edge += np.arange(len(edge))
        new = layout.nbr[edge]
        # the candidates' embeddings, with the new vertex as an extra row
        grown = np.empty((k + 1, len(cand)), np.int32)
        proj.take(col[cand], axis=1, out=grown[:k])
        grown[k] = new
        held = self.vertex_weights[:k] @ (grown[:k] == new)
        held += pair[cand]
        keys = np.array(bases).ravel()[held]
        keep = (keys >= 0).nonzero()[0]
        keys = keys[keep]
        keys += layout.prank[edge[keep]]
        order, keys, occ, ones, ob, rb = self._group(keys, layout.gpos[new[keep]])

        sigma = self.sigma
        groups = [_Siblings(code, state) for code, state, *_ in members[:joined]]
        chosen = keep[order]
        for i, key in enumerate(keys):
            if ob[i + 1] - ob[i] < sigma:
                continue
            slot, p = divmod(key, num_p)
            r, slot = divmod(slot, 2 * k)
            code, (rmpath, labels, _), first, _ = members[r]
            if slot < k:
                quint = (rmpath[-1], slot, labels[rmpath[-1]], layout.pair_el[p], labels[slot])
            else:
                frm = 2 * k - 1 - slot
                quint = (frm, k, labels[frm], layout.pair_el[p], layout.pair_tl[p])
            if min(quint[2:], quint[:1:-1]) < first or not is_canonical(code + (quint,)):
                continue
            group = groups[r]
            group.quints.append(quint)
            group.occs.append(occ[ob[i] : ob[i + 1]])
            group.ones.append(ones[i])
            # a backward child keeps the k rows, a forward one the new vertex too
            rows_kept = grown[:k] if slot < k else grown
            group.held.append(rows_kept.take(chosen[rb[i] : rb[i + 1]], axis=1))
        return groups


def minimum_code(graph: LabeledGraph) -> tuple[Quint, ...]:
    """Canonical (minimal) DFS code of a connected labeled graph.

    gSpan's greedy construction on the miner's own join. The graph, its
    vertex and edge labels ranked densely in their order, is mined alone,
    with a lone vertex standing in for class 0, from the one-vertex code of
    its smallest label. At each of its edges the code takes the first child
    ``_Miner._children`` lists, with that child's embeddings: the join lists
    only minimal children, and the smallest extension is one, as every
    prefix of a minimum code is minimal. The labels are mapped back at the
    end.
    """
    labels = graph.vertex_labels
    if not graph.edges:
        if len(labels) != 1:
            raise ValueError("disconnected graph has no DFS code")
        return ((0, 0, labels[0], NO_EDGE, labels[0]),)
    vertex_labels = sorted(set(labels))
    edge_labels = sorted({lbl for *_, lbl in graph.edges})
    vrank = {lbl: i for i, lbl in enumerate(vertex_labels)}
    erank = {lbl: i for i, lbl in enumerate(edge_labels)}
    ranked = LabeledGraph(
        0,
        tuple(map(vrank.__getitem__, labels)),
        tuple((u, v, erank[lbl]) for u, v, lbl in graph.edges),
    )
    db = GraphDatabase.from_graphs((ranked, LabeledGraph(1, (0,), ())), (1, 0))
    miner = _Miner(db, MinerConfig(1), None)
    # the graph's vertices of the smallest label, the stand-in's left out
    roots = np.flatnonzero(db.vertex_labels[:-1] == 0).astype(np.int32)
    member: _Member = ((), _root_state(0), (0, NO_EDGE, 0), roots[None])
    for _ in graph.edges:
        children = miner._children([member])[0]
        if not children.quints:
            raise ValueError("disconnected graph has no DFS code")
        quint = children.quints[0]
        code = member[0] + (quint,)
        member = (code, _step(*member[1], quint), code[0][2:], children.held[0])
    code, (_, reached, _), *_ = member
    if len(reached) < len(labels):
        raise ValueError("disconnected graph has no DFS code")
    return tuple(
        (frm, to, vertex_labels[fl], edge_labels[el], vertex_labels[tl])
        for frm, to, fl, el, tl in code
    )


def mine(
    db: GraphDatabase,
    config: MinerConfig,
    on_emit: Callable[[int], int] | None = None,
) -> MiningOutcome:
    """Enumerate all connected patterns with support >= config.min_frequency.

    The outcome holds every emitted pattern, in emission order. ``on_emit``
    is called with the support of each and returns the support threshold
    from then on; a return below the current threshold is ignored. Raising
    the threshold prunes every later child below it and stops growth of the
    pattern just emitted if it fell below; the patterns emitted before it
    stay in the outcome, and the caller keeps those it needs. An exception
    raised by ``on_emit`` ends the run and propagates to the caller; that is
    how a caller stops a run at a pattern budget or a time limit, since the
    miner has no deadline of its own.
    """
    miner = _Miner(db, config, on_emit)
    miner.run()
    return MiningOutcome(miner.store())
