"""Frequent connected subgraph enumeration over a transaction database.

Patterns are represented by DFS codes: sequences of quintuples
``(frm, to, frm_label, edge_label, to_label)`` where forward edges introduce
vertex ``to`` and backward edges close a cycle back onto the rightmost path.
Each pattern is visited exactly once by pruning non-minimal codes. Support is
the number of distinct transactions containing at least one embedding.

One growth rule serves both the miner and the minimality check: ``_step``
advances a code's rightmost path, vertex labels and edge set by one quint,
and ``_extend`` lists one embedding's rightmost-path extensions. The miner
carries that state from parent to child instead of re-deriving it from the
code, and walks the search tree with an explicit stack, so pattern depth is
not bounded by Python's recursion limit.

Single-vertex patterns use the degenerate code ``((0, 0, lbl, NO_EDGE, lbl),)``.

A run can be steered through a hook called at every emission. The hook may
raise the support threshold while the run is in progress (the live threshold
is miner state, so ``MinerConfig`` stays immutable), and an exception it
raises ends the run. The root search steers its probes with both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .graphs import GraphDatabase, LabeledGraph

Quint = tuple[int, int, int, int, int]

NO_EDGE = -1


class MiningTimeout(RuntimeError):
    """Raised when a mining deadline passes before enumeration finishes."""


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
        if self.min_frequency < 1:
            raise ValueError("min_frequency must be at least 1")
        if self.max_vertices is not None and self.max_vertices < 1:
            raise ValueError("max_vertices must be at least 1 or None")


@dataclass(frozen=True)
class Pattern:
    """A frequent pattern with its transaction-level occurrence data.

    ``occurrences`` holds 0-based transaction positions; ``x`` of them belong
    to the internal positive class and ``x_prime`` to the other one.
    """

    code: tuple[Quint, ...]
    vertex_count: int
    edge_count: int
    occurrences: frozenset[int]
    x: int
    x_prime: int

    @property
    def frequency(self) -> int:
        return self.x + self.x_prime


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


def _extend(
    children: dict[Quint, list[tuple[int, tuple[int, ...]]]],
    graph: LabeledGraph,
    pos: int,
    assign: tuple[int, ...],
    rmpath: tuple[int, ...],
    labels: tuple[int, ...],
    edges: frozenset[tuple[int, int]],
    forward: bool,
) -> None:
    """Bucket one embedding's rightmost-path extensions by quint.

    ``assign`` maps the pattern's vertex ids to vertices of ``graph``, the
    transaction at ``pos``. Each extension appends ``(pos, child assignment)``
    to ``children[quint]``: backward edges from the rightmost vertex to an
    earlier rightmost-path vertex, then, when ``forward``, edges from any
    rightmost-path vertex to a vertex the embedding does not use yet.
    """
    rightmost = rmpath[-1]
    r_img = assign[rightmost]
    for j in rmpath[:-1]:
        if (j, rightmost) in edges:
            continue
        lbl = graph.edge_label(r_img, assign[j])
        if lbl is not None:
            quint = (rightmost, j, labels[rightmost], lbl, labels[j])
            children.setdefault(quint, []).append((pos, assign))
    if not forward:
        return
    in_assign = set(assign)
    new_id = len(assign)
    vertex_labels = graph.vertex_labels
    for i in rmpath:
        for w, lbl in graph.adjacency[assign[i]]:
            if w not in in_assign:
                quint = (i, new_id, labels[i], lbl, vertex_labels[w])
                children.setdefault(quint, []).append((pos, assign + (w,)))


def _validate_code(code: Sequence[Quint]) -> None:
    if not code:
        raise ValueError("empty code")
    if _is_singleton(code):
        frm, to, fl, el, tl = code[0]
        if (frm, to, el) != (0, 0, NO_EDGE) or fl != tl or fl < 0:
            raise ValueError(f"malformed singleton code {code[0]!r}")
        return
    rmpath, labels, edges = _root_state(code[0][2])
    for k, quint in enumerate(code):
        frm, to, fl, el, tl = quint
        if el == NO_EDGE:
            raise ValueError(f"quint {k}: edge label missing on a non-singleton code")
        if frm == to:
            raise ValueError(f"quint {k}: self-loop")
        if k == 0 and (frm, to) != (0, 1):
            raise ValueError("code must start with the edge (0, 1)")
        if frm < to:
            if to != len(labels):
                raise ValueError(f"quint {k}: forward edge must introduce vertex {len(labels)}")
            if frm not in rmpath:
                raise ValueError(f"quint {k}: forward edge from {frm} off the rightmost path")
        else:
            if frm != rmpath[-1]:
                raise ValueError(f"quint {k}: backward edge must leave the rightmost vertex")
            if to not in rmpath[:-1]:
                raise ValueError(f"quint {k}: backward edge to {to} off the rightmost path")
        pair = (min(frm, to), max(frm, to))
        if pair in edges:
            raise ValueError(f"quint {k}: duplicate edge {pair}")
        for vid, lbl in ((frm, fl), (to, tl)):
            if vid < len(labels) and labels[vid] != lbl:
                raise ValueError(f"quint {k}: vertex {vid} relabeled")
        rmpath, labels, edges = _step(rmpath, labels, edges, quint)


def _code_labels_edges(
    code: Sequence[Quint],
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    if _is_singleton(code):
        return (code[0][2],), ()
    labels: dict[int, int] = {}
    edges = []
    for frm, to, fl, el, tl in code:
        labels.setdefault(frm, fl)
        labels.setdefault(to, tl)
        edges.append((min(frm, to), max(frm, to), el))
    return tuple(labels[i] for i in range(len(labels))), tuple(edges)


def code_to_graph(code: Sequence[Quint]) -> LabeledGraph:
    """Materialize a DFS code as a graph (after validating the code)."""
    _validate_code(code)
    labels, edges = _code_labels_edges(code)
    return LabeledGraph(0, labels, edges)


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


def _minimum_code_construct(
    labels: Sequence[int],
    edges: Sequence[tuple[int, int, int]],
    reference: Sequence[Quint] | None = None,
):
    """Greedy minimal-DFS-code builder over a connected labeled graph.

    Grows the code with the miner's rule, keeping at each step only the
    smallest extension and the embeddings of the graph into itself that
    produce it. With ``reference`` given, stops early and returns False the
    moment the constructed code goes below the reference (the reference is
    then not minimal); returns True when they match to the end. Without a
    reference, returns the full minimal code.
    """
    if not edges:
        if len(labels) != 1:
            raise ValueError("disconnected graph has no DFS code")
        code = ((0, 0, labels[0], NO_EDGE, labels[0]),)
        if reference is None:
            return code
        return tuple(reference) == code

    first_key = min(
        (labels[u], lbl, labels[v])
        for u, v, lbl in edges
        for u, v in ((u, v), (v, u))
    )
    code: list[Quint] = [(0, 1, *first_key)]
    if reference is not None and code[0] != reference[0]:
        return False
    # built after the first-quint test, which rejects many codes on its own
    graph = LabeledGraph(0, tuple(labels), tuple(edges))
    # an embedding maps pattern vertex -> graph vertex; injectivity plus the
    # pattern-level duplicate-edge check make a used-edge set redundant
    embeds = [
        (a, b)
        for u, v, lbl in edges
        for a, b in ((u, v), (v, u))
        if (labels[a], lbl, labels[b]) == first_key
    ]
    state = _step(*_root_state(first_key[0]), code[0])
    while len(code) < len(edges):
        children: dict[Quint, list[tuple[int, tuple[int, ...]]]] = {}
        for assign in embeds:
            _extend(children, graph, 0, assign, *state, True)
        if not children:
            raise ValueError("disconnected graph has no DFS code")
        best = min(children, key=_extension_key)
        if reference is not None and best != reference[len(code)]:
            # quints extending a shared prefix compare by extension order,
            # not by raw tuple order
            if _extension_key(best) > _extension_key(reference[len(code)]):
                raise AssertionError("greedy construction exceeded a valid code")
            return False
        code.append(best)
        embeds = [assign for _, assign in children[best]]
        state = _step(*state, best)
    if len(state[1]) < len(labels):
        raise ValueError("disconnected graph has no DFS code")
    if reference is None:
        return tuple(code)
    return True


def minimum_code(graph: LabeledGraph) -> tuple[Quint, ...]:
    """Canonical (minimal) DFS code of a connected labeled graph."""
    return _minimum_code_construct(graph.vertex_labels, graph.edges)


def is_canonical(code: Sequence[Quint]) -> bool:
    """True when the code is the minimal DFS code of the graph it describes."""
    if _is_singleton(code):
        return True
    labels, edges = _code_labels_edges(code)
    return bool(_minimum_code_construct(labels, edges, reference=code))


class _Miner:
    def __init__(
        self,
        db: GraphDatabase,
        config: MinerConfig,
        deadline: float | None,
        on_emit: Callable[[int], int] | None,
    ):
        self.db = db
        self.config = config
        self.deadline = deadline
        self.on_emit = on_emit
        self.sigma = config.min_frequency
        self.patterns: list[Pattern] = []
        self.emitted = 0

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise MiningTimeout("mining deadline exceeded")

    def _emit(self, code: tuple[Quint, ...], occurrences: frozenset[int]) -> None:
        self.emitted += 1
        x = sum(1 for t in occurrences if self.db.is_internal_positive(t))
        if _is_singleton(code):
            nv, ne = 1, 0
        else:
            nv = sum(1 for frm, to, *_ in code if frm < to) + 1
            ne = len(code)
        self.patterns.append(Pattern(code, nv, ne, occurrences, x, len(occurrences) - x))
        if self.on_emit is not None:
            sigma = self.on_emit(len(occurrences))
            if sigma > self.sigma:
                self.sigma = sigma
                self.patterns = [p for p in self.patterns if p.frequency >= sigma]

    def run(self) -> None:
        db = self.db
        if self.config.count_singletons:
            by_label: dict[int, set[int]] = {}
            for pos, g in enumerate(db.graphs):
                for lbl in set(g.vertex_labels):
                    by_label.setdefault(lbl, set()).add(pos)
            for lbl in sorted(by_label):
                self._check_deadline()
                occ = by_label[lbl]
                if len(occ) >= self.sigma:
                    self._emit(((0, 0, lbl, NO_EDGE, lbl),), frozenset(occ))
        if self.config.max_vertices is not None and self.config.max_vertices < 2:
            return
        roots: dict[Quint, list[tuple[int, tuple[int, ...]]]] = {}
        for pos, g in enumerate(db.graphs):
            vl = g.vertex_labels
            for u, v, el in g.edges:
                for a, b in ((u, v), (v, u)):
                    if vl[a] <= vl[b]:
                        quint = (0, 1, vl[a], el, vl[b])
                        roots.setdefault(quint, []).append((pos, (a, b)))
        # the roots go on the stack last first, so they pop in sorted order
        self._grow([
            ((quint,), roots[quint], _root_state(quint[2]))
            for quint in sorted(roots, reverse=True)
        ])

    def _grow(self, stack: list[tuple[tuple[Quint, ...], list, _State]]) -> None:
        """Grow every code on ``stack`` depth first, popping from its end.

        An entry is (code, projections, state of the code without its last
        quint). Support is tested when an entry is popped, against the
        threshold of that moment: ``on_emit`` may have raised it while
        earlier siblings grew. Children are pushed in reverse extension
        order, so codes are visited and emitted in gSpan preorder.
        """
        graphs = self.db.graphs
        max_vertices = self.config.max_vertices
        while stack:
            self._check_deadline()
            code, projs, state = stack.pop()
            support = {pos for pos, _ in projs}
            if len(support) < self.sigma:
                continue
            if len(code) > 1 and not is_canonical(code):
                continue
            occurrences = frozenset(support)
            self._emit(code, occurrences)
            if len(occurrences) < self.sigma:
                continue
            state = _step(*state, code[-1])
            forward = max_vertices is None or len(state[1]) < max_vertices
            children: dict[Quint, list[tuple[int, tuple[int, ...]]]] = {}
            for pos, assign in projs:
                _extend(children, graphs[pos], pos, assign, *state, forward)
            for quint in sorted(children, key=_extension_key, reverse=True):
                stack.append((code + (quint,), children[quint], state))


def mine(
    db: GraphDatabase,
    config: MinerConfig,
    deadline: float | None = None,
    on_emit: Callable[[int], int] | None = None,
) -> MiningOutcome:
    """Enumerate all connected patterns with support >= config.min_frequency.

    ``deadline`` is an absolute time.monotonic() timestamp; passing it raises
    MiningTimeout.

    ``on_emit`` is called with the support of each emitted pattern and returns
    the support threshold from then on; a return below the current threshold
    is ignored. Raising the threshold prunes every later child below it, stops
    growth of the pattern just emitted if it fell below, and drops the
    patterns kept so far that fell below, so the outcome holds exactly the
    emitted patterns at or above the final threshold. ``emitted_count`` still
    counts every emission. An exception raised by ``on_emit`` ends the run
    and propagates to the caller.
    """
    miner = _Miner(db, config, deadline, on_emit)
    miner.run()
    return MiningOutcome(tuple(miner.patterns), miner.emitted)
