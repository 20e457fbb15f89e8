"""Frequent connected subgraph enumeration over a transaction database.

Patterns are represented by DFS codes: sequences of quintuples
``(frm, to, frm_label, edge_label, to_label)`` where forward edges introduce
vertex ``to`` and backward edges close a cycle back onto the rightmost path.
Each pattern is visited exactly once by pruning non-minimal codes. Support is
the number of distinct transactions containing at least one embedding. An
emitted pattern keeps those transactions as an ascending tuple of positions
whose ints are shared by the database layout, so a kept family costs about
one pointer per occurrence.

``_step`` advances a code's rightmost path, vertex labels and edge set by
one quint; the miner and the minimality check share it. The miner carries
that state from parent to child instead of re-deriving it from the code, and
walks the search tree with an explicit stack, so pattern depth is not
bounded by Python's recursion limit. It holds a code's embeddings as one
int32 array over the database's global vertex ids and finds all of a
parent's rightmost-path extensions in one numpy join (``_Miner._children``);
only children that are frequent and pass gSpan's first-edge test get
embeddings. Every edge code comes from that join: the single-edge roots are
the children of one-vertex parents, the vertices of each frequent label. The
minimality check grows one small graph, held as a plain adjacency, into
itself with the scalar ``_extend``; ``_minimal_quints`` yields the greedy
minimal code quint by quint to both ``minimum_code`` and ``is_canonical``,
which stops at the first quint that differs.

Single-vertex patterns use the degenerate code ``((0, 0, lbl, NO_EDGE, lbl),)``.

A run can be steered through a hook called at every emission. The hook may
raise the support threshold while the run is in progress (the live threshold
is miner state, so ``MinerConfig`` stays immutable), and an exception it
raises ends the run. The miner knows no budget and no deadline: the root
search raises thresholds and aborts over-budget probes through the hook, and
a time limit is a hook that raises once the clock passes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .graphs import GraphDatabase, LabeledGraph, _integral_fields

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


@dataclass(frozen=True, slots=True)
class Pattern:
    """A frequent pattern with its transaction-level occurrence data.

    ``occurrences`` holds the 0-based transaction positions of the pattern as
    a tuple of ascending, distinct positions; ``x`` of them belong to the
    internal positive class and ``x_prime`` to the other one. The vertex and
    edge counts are read off ``code``: one vertex plus one per forward quint,
    and one edge per quint, none for a singleton.
    """

    code: tuple[Quint, ...]
    occurrences: tuple[int, ...]
    x: int
    x_prime: int

    @property
    def frequency(self) -> int:
        return self.x + self.x_prime

    @property
    def vertex_count(self) -> int:
        return 1 + sum(1 for frm, to, *_ in self.code if frm < to)

    @property
    def edge_count(self) -> int:
        return 0 if _is_singleton(self.code) else len(self.code)


@dataclass(frozen=True)
class MiningOutcome:
    patterns: tuple[Pattern, ...]
    emitted_count: int


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


def _adjacency(graph: LabeledGraph) -> list[dict[int, int]]:
    """adjacency[v] maps each neighbour of v to the label of their edge."""
    adjacency: list[dict[int, int]] = [{} for _ in graph.vertex_labels]
    for u, v, lbl in graph.edges:
        adjacency[u][v] = lbl
        adjacency[v][u] = lbl
    return adjacency


def _extend(
    children: dict[Quint, list[tuple[int, tuple[int, ...]]]],
    adjacency: Sequence[dict[int, int]],
    vertex_labels: Sequence[int],
    pos: int,
    assign: tuple[int, ...],
    rmpath: tuple[int, ...],
    labels: tuple[int, ...],
    edges: frozenset[tuple[int, int]],
    forward: bool,
) -> None:
    """Bucket one embedding's rightmost-path extensions by quint.

    ``assign`` maps the pattern's vertex ids to vertices of the graph at
    ``pos``, given by its ``adjacency`` and ``vertex_labels``. Each extension
    appends ``(pos, child assignment)`` to ``children[quint]``: backward edges
    from the rightmost vertex to an earlier rightmost-path vertex, then, when
    ``forward``, edges from any rightmost-path vertex to a vertex the
    embedding does not use yet.
    """
    rightmost = rmpath[-1]
    r_nbrs = adjacency[assign[rightmost]]
    for j in rmpath[:-1]:
        if (j, rightmost) in edges:
            continue
        lbl = r_nbrs.get(assign[j])
        if lbl is not None:
            quint = (rightmost, j, labels[rightmost], lbl, labels[j])
            children.setdefault(quint, []).append((pos, assign))
    if not forward:
        return
    in_assign = set(assign)
    new_id = len(assign)
    for i in rmpath:
        for w, lbl in adjacency[assign[i]].items():
            if w not in in_assign:
                quint = (i, new_id, labels[i], lbl, vertex_labels[w])
                children.setdefault(quint, []).append((pos, assign + (w,)))


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


def _extension_key(quint: Quint) -> tuple:
    frm, to, _, el, tl = quint
    if frm > to:
        return (0, to, el)
    return (1, -frm, el, tl)


def _minimal_quints(
    labels: Sequence[int], adjacency: Sequence[dict[int, int]]
) -> Iterator[Quint]:
    """Yield the minimal DFS code of a connected labeled graph, quint by quint.

    Grows the code with the miner's rule, keeping at each step only the
    smallest extension and the embeddings of the graph into itself that
    produce it. A consumer that stops early (``is_canonical`` at the first
    quint that differs) skips the rest of the construction.
    """
    if not any(adjacency):
        if len(labels) != 1:
            raise ValueError("disconnected graph has no DFS code")
        yield (0, 0, labels[0], NO_EDGE, labels[0])
        return
    directed = [
        ((labels[u], lbl, labels[v]), (u, v))
        for u, nbrs in enumerate(adjacency)
        for v, lbl in nbrs.items()
    ]
    first_key = min(directed)[0]
    quint: Quint = (0, 1, *first_key)
    yield quint
    # an embedding maps pattern vertex -> graph vertex; injectivity plus the
    # pattern-level duplicate-edge check make a used-edge set redundant
    embeds = [pair for key, pair in directed if key == first_key]
    state = _step(*_root_state(first_key[0]), quint)
    for _ in range(sum(map(len, adjacency)) // 2 - 1):
        children: dict[Quint, list[tuple[int, tuple[int, ...]]]] = {}
        for assign in embeds:
            _extend(children, adjacency, labels, 0, assign, *state, True)
        if not children:
            raise ValueError("disconnected graph has no DFS code")
        quint = min(children, key=_extension_key)
        yield quint
        embeds = [assign for _, assign in children[quint]]
        state = _step(*state, quint)
    if len(state[1]) < len(labels):
        raise ValueError("disconnected graph has no DFS code")


def minimum_code(graph: LabeledGraph) -> tuple[Quint, ...]:
    """Canonical (minimal) DFS code of a connected labeled graph."""
    return tuple(_minimal_quints(graph.vertex_labels, _adjacency(graph)))


def is_canonical(code: Sequence[Quint]) -> bool:
    """True when the code is the minimal DFS code of the graph it describes."""
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
    minimal = _minimal_quints(labels, adjacency)
    if next(minimal) != code[0]:
        return False
    for quint, best in zip(code[1:], minimal):
        if best != quint:
            # quints extending a shared prefix compare by extension order,
            # not by raw tuple order
            if _extension_key(best) > _extension_key(quint):
                raise AssertionError("greedy construction exceeded a valid code")
            return False
    return True


class _Miner:
    """One mining run over array projections.

    It reads the database's ``ArrayLayout``, built once per database and
    shared by every run over it. A code's projection is an int32 ``(k, m)``
    array with one embedding per column: entry ``[c, i]`` is the global
    vertex that embedding i maps pattern vertex c to.
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
        self.patterns: list[Pattern] = []
        self.emitted = 0

        self.layout = layout = db.layout
        self.n = db.size
        if (2 * layout.largest + len(layout.vlabels)) * len(layout.pair_el) * self.n >= 2**63:
            raise ValueError("database too large for the miner's int64 extension keys")
        # a projection's match matrix times this is the matching pattern
        # vertex + 1, or 0 for none
        self.vertex_weights = np.arange(1, layout.largest + 2)

    def _group(self, keys: np.ndarray, pos: np.ndarray):
        """Sort items by key and count the distinct graph positions of each key.

        Returns ``order`` (item indices sorted by key, then position), the
        distinct keys in ascending order as a list, ``occ`` (the distinct
        positions of each key in turn, ascending) and two lists of
        boundaries, one longer than the keys: key i owns ``occ[ob[i]:ob[i+1]]``
        and ``order[rb[i]:rb[i+1]]``. Keys stay below (2 * largest graph +
        vertex labels) * label pairs, which ``__init__`` checks, so
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
        ob = key_pairs.tolist()
        rb = pair_items[key_pairs].tolist()
        ob.append(len(pairs))
        rb.append(len(combined))
        return order, pair_keys[key_pairs].tolist(), pairs - pair_keys * n, ob, rb

    def _emit(self, code: tuple[Quint, ...], occ: np.ndarray) -> None:
        self.emitted += 1
        # the layout's shared ints, not fresh ones from tolist, fill the tuple
        occurrences = tuple(map(self.layout.ints.__getitem__, occ.tolist()))
        x = int(self.layout.positive[occ].sum())
        self.patterns.append(Pattern(code, occurrences, x, len(occurrences) - x))
        if self.on_emit is not None:
            sigma = self.on_emit(len(occurrences))
            if sigma > self.sigma:
                self.sigma = sigma
                self.patterns = [p for p in self.patterns if p.frequency >= sigma]

    def run(self) -> None:
        layout = self.layout
        order, keys, occ, ob, rb = self._group(layout.vrank, layout.gpos)
        if self.config.count_singletons:
            for i, key in enumerate(keys):
                if ob[i + 1] - ob[i] >= self.sigma:
                    lbl = layout.vlabels[key]
                    self._emit(((0, 0, lbl, NO_EDGE, lbl),), occ[ob[i] : ob[i + 1]])
        if self.config.max_vertices is not None and self.config.max_vertices < 2:
            return
        # each frequent label's vertices are a one-vertex parent whose children
        # are the single-edge roots; the largest label is pushed first
        stack = []
        for i in reversed(range(len(keys))):
            if ob[i + 1] - ob[i] >= self.sigma:
                lbl = layout.vlabels[keys[i]]
                proj = order[None, rb[i] : rb[i + 1]].astype(np.int32)
                self._children(stack, (), proj, _root_state(lbl), True, (lbl, NO_EDGE, lbl))
        self._grow(stack)

    def _grow(self, stack: list[tuple[tuple[Quint, ...], np.ndarray, np.ndarray, _State]]) -> None:
        """Grow every code on ``stack`` depth first, popping from its end.

        An entry is (code, projection, its distinct graph positions, state of
        the code without its last quint). Support is tested when an entry is
        popped, against the threshold of that moment: ``on_emit`` may have
        raised it while earlier siblings grew. A parent builds all its
        children in one join (``_children``) and pushes them in reverse
        extension order, so codes are visited and emitted in gSpan preorder.
        """
        max_vertices = self.config.max_vertices
        while stack:
            code, proj, occ, state = stack.pop()
            if len(occ) < self.sigma:
                continue
            if len(code) > 1 and not is_canonical(code):
                continue
            self._emit(code, occ)
            if len(occ) < self.sigma:
                continue
            state = _step(*state, code[-1])
            forward = max_vertices is None or len(state[1]) < max_vertices
            self._children(stack, code, proj, state, forward, code[0][2:])

    def _children(
        self,
        stack: list,
        code: tuple[Quint, ...],
        proj: np.ndarray,
        state: _State,
        forward: bool,
        first: tuple[int, int, int],
    ) -> None:
        """Push the children of ``code`` that can still be frequent and minimal.

        Finds every rightmost-path extension of every embedding at once, as
        the scalar ``_extend`` does one embedding at a time. The neighbours
        of the embeddings' rightmost-path vertices (of the rightmost vertex
        alone when ``forward`` is off) are listed from the CSR and compared
        with the whole embedding. A neighbour outside it gives a forward
        edge; the rightmost vertex's neighbour at pattern vertex j gives a
        backward edge, unless the code already joins j to it. An extension's
        int64 key is ``slot * P + (edge label, new label) pair``, with slot
        j for a backward edge to j and ``2k - 1 - frm`` for a forward edge
        from frm, so keys sort in ``_extension_key`` order. Only keys whose
        support reaches the live threshold and that pass gSpan's first-edge
        test get embeddings: a new edge whose label triple, read either way,
        sorts below ``first``, the code's first-edge triple, means the code
        is not minimal. A one-vertex parent labelled lbl (the empty ``code``)
        passes ``(lbl, NO_EDGE, lbl)``, so its children, the single-edge
        roots, lose exactly the edges that lead to a smaller label.
        """
        layout = self.layout
        rmpath, labels, edges = state
        k, m = proj.shape
        num_p = len(layout.pair_el)
        rightmost = rmpath[-1]
        path = rmpath if forward else rmpath[-1:]
        # slot * P by (path vertex, matching pattern vertex + 1, 0 if none);
        # -1 drops the extension
        base = np.full((len(path), k + 1), -1)
        if forward:
            base[:, 0] = [(2 * k - 1 - i) * num_p for i in path]
        for j in rmpath[:-1]:
            if (j, rightmost) not in edges:
                base[-1, j + 1] = j * num_p
        flat = proj.take(path, axis=0).ravel()
        deg = layout.deg[flat]
        ends = deg.cumsum()
        cand = np.arange(len(flat)).repeat(deg)
        edge = (layout.nbr_off[flat] - ends + deg).repeat(deg)
        edge += np.arange(len(edge))
        new = layout.nbr[edge]
        col, src = np.divmod(cand, m)
        grown = proj.take(src, axis=1)
        held = self.vertex_weights[:k] @ (grown == new)
        col *= k + 1
        col += held
        keys = base.ravel()[col]
        keep = (keys >= 0).nonzero()[0]
        keys = keys[keep]
        keys += layout.prank[edge[keep]]
        order, keys, occ, ob, rb = self._group(keys, layout.gpos[new[keep]])

        sigma = self.sigma
        picked = []
        for i, key in enumerate(keys):
            if ob[i + 1] - ob[i] < sigma:
                continue
            slot, pair = divmod(key, num_p)
            if slot < k:
                quint = (rightmost, slot, labels[rightmost], layout.pair_el[pair], labels[slot])
            else:
                frm = 2 * k - 1 - slot
                quint = (frm, k, labels[frm], layout.pair_el[pair], layout.pair_tl[pair])
            if min(quint[2:], quint[:1:-1]) < first:
                continue
            picked.append((quint, i))
        for quint, i in reversed(picked):
            at = keep[order[rb[i] : rb[i + 1]]]
            if quint[0] > quint[1]:
                child = grown[:, at]
            else:
                child = np.empty((k + 1, len(at)), np.int32)
                child[:k] = grown[:, at]
                child[k] = new[at]
            stack.append((code + (quint,), child, occ[ob[i] : ob[i + 1]], state))


def mine(
    db: GraphDatabase,
    config: MinerConfig,
    on_emit: Callable[[int], int] | None = None,
) -> MiningOutcome:
    """Enumerate all connected patterns with support >= config.min_frequency.

    ``on_emit`` is called with the support of each emitted pattern and returns
    the support threshold from then on; a return below the current threshold
    is ignored. Raising the threshold prunes every later child below it, stops
    growth of the pattern just emitted if it fell below, and drops the
    patterns kept so far that fell below, so the outcome holds exactly the
    emitted patterns at or above the final threshold. ``emitted_count`` still
    counts every emission. An exception raised by ``on_emit`` ends the run
    and propagates to the caller; that is how a caller stops a run at a
    pattern budget or a time limit, since the miner has no deadline of its
    own.
    """
    miner = _Miner(db, config, on_emit)
    miner.run()
    return MiningOutcome(tuple(miner.patterns), miner.emitted)
