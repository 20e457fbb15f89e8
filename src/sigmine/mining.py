"""Frequent connected subgraph enumeration over a transaction database.

Patterns are represented by DFS codes: sequences of quintuples
``(frm, to, frm_label, edge_label, to_label)`` where forward edges introduce
vertex ``to`` and backward edges close a cycle back onto the rightmost path.
Each pattern is visited exactly once by pruning non-minimal codes. Support is
the number of distinct transactions containing at least one embedding.

Single-vertex patterns use the degenerate code ``((0, 0, lbl, NO_EDGE, lbl),)``.

The miner supports a hard cap on emitted patterns (``pattern_budget``) used by
the budgeted search strategies: exceeding the cap aborts the run, reporting
``emitted_count == budget + 1`` and no patterns. It also accepts a hook that
raises the support threshold while the run is in progress; the live threshold
is miner state, so ``MinerConfig`` stays immutable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Sequence

from .graphs import GraphDatabase, LabeledGraph

Quint = tuple[int, int, int, int, int]

NO_EDGE = -1


class MiningTimeout(RuntimeError):
    """Raised when a mining deadline passes before enumeration finishes."""


class _BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class MinerConfig:
    """Tuning for one mining run.

    min_frequency: support threshold sigma, at least 1.
    max_vertices: largest pattern vertex count, None for unlimited.
    pattern_budget: abort after emitting this many patterns, None for unlimited.
    count_singletons: include single-vertex patterns.
    """

    min_frequency: int
    max_vertices: int | None = None
    pattern_budget: int | None = None
    count_singletons: bool = True

    def __post_init__(self) -> None:
        if self.min_frequency < 1:
            raise ValueError("min_frequency must be at least 1")
        if self.max_vertices is not None and self.max_vertices < 1:
            raise ValueError("max_vertices must be at least 1 or None")
        if self.pattern_budget is not None and self.pattern_budget < 0:
            raise ValueError("pattern_budget must be non-negative or None")


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
    status: Literal["completed", "terminated_early"]
    patterns: tuple[Pattern, ...]
    emitted_count: int


def _is_singleton(code: Sequence[Quint]) -> bool:
    return len(code) == 1 and code[0][3] == NO_EDGE


def _rmpath_vertices(code: Sequence[Quint]) -> tuple[int, ...]:
    """Vertex ids on the rightmost path, root first, rightmost vertex last."""
    if _is_singleton(code):
        return (0,)
    path: list[int] = []
    target: int | None = None
    for frm, to, _, _, _ in reversed(code):
        if frm < to and (target is None or to == target):
            path.append(to)
            target = frm
    path.append(0)
    path.reverse()
    return tuple(path)


def _validate_code(code: Sequence[Quint]) -> None:
    if not code:
        raise ValueError("empty code")
    if _is_singleton(code):
        frm, to, fl, el, tl = code[0]
        if (frm, to, el) != (0, 0, NO_EDGE) or fl != tl or fl < 0:
            raise ValueError(f"malformed singleton code {code[0]!r}")
        return
    labels: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()
    rmpath = [0]
    for k, (frm, to, fl, el, tl) in enumerate(code):
        if el == NO_EDGE:
            raise ValueError(f"quint {k}: edge label missing on a non-singleton code")
        if frm == to:
            raise ValueError(f"quint {k}: self-loop")
        if k == 0 and (frm, to) != (0, 1):
            raise ValueError("code must start with the edge (0, 1)")
        if frm < to:
            # the first quint introduces vertices 0 and 1, later forward
            # quints the next unused id
            expected = 1 if k == 0 else len(labels)
            if to != expected:
                raise ValueError(f"quint {k}: forward edge must introduce vertex {expected}")
            if k > 0 and frm not in rmpath:
                raise ValueError(f"quint {k}: forward edge from {frm} off the rightmost path")
            rmpath = rmpath[: rmpath.index(frm) + 1] if k > 0 else [0]
            rmpath.append(to)
        else:
            if frm != rmpath[-1]:
                raise ValueError(f"quint {k}: backward edge must leave the rightmost vertex")
            if to not in rmpath[:-1]:
                raise ValueError(f"quint {k}: backward edge to {to} off the rightmost path")
        pair = (min(frm, to), max(frm, to))
        if pair in edges:
            raise ValueError(f"quint {k}: duplicate edge {pair}")
        edges.add(pair)
        for vid, lbl in ((frm, fl), (to, tl)):
            if labels.setdefault(vid, lbl) != lbl:
                raise ValueError(f"quint {k}: vertex {vid} relabeled")


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

    With ``reference`` given, stops early and returns False the moment the
    constructed code goes below the reference (the reference is then not
    minimal); returns True when they match to the end. Without a reference,
    returns the full minimal code.
    """
    if not edges:
        if len(labels) != 1:
            raise ValueError("disconnected graph has no DFS code")
        code = ((0, 0, labels[0], NO_EDGE, labels[0]),)
        if reference is None:
            return code
        return tuple(reference) == code

    adj: list[list[tuple[int, int]]] = [[] for _ in labels]
    elabel: dict[tuple[int, int], int] = {}
    for u, v, lbl in edges:
        adj[u].append((v, lbl))
        adj[v].append((u, lbl))
        elabel[(u, v)] = lbl
        elabel[(v, u)] = lbl

    first_key = min(
        (labels[u], lbl, labels[v])
        for u, v, lbl in edges
        for u, v in ((u, v), (v, u))
    )
    code: list[Quint] = [(0, 1, *first_key)]
    # an embedding maps pattern vertex -> graph vertex; injectivity plus the
    # pattern-level duplicate-edge check make a used-edge set redundant
    embeds: list[tuple[int, ...]] = []
    for u, v, lbl in edges:
        for a, b in ((u, v), (v, u)):
            if (labels[a], lbl, labels[b]) == first_key:
                embeds.append((a, b))

    if reference is not None:
        ref = tuple(reference)
        if code[0] != ref[0]:
            return False

    pattern_labels = [first_key[0], first_key[2]]
    pattern_edges = {(0, 1)}
    while len(code) < len(edges):
        rmpath = _rmpath_vertices(code)
        rightmost = rmpath[-1]
        best_key: tuple | None = None
        best_quint: Quint | None = None
        grown: list[tuple[int, ...]] = []
        for assign in embeds:
            r_img = assign[rightmost]
            for j in rmpath[:-1]:
                if (j, rightmost) in pattern_edges:
                    continue
                lbl = elabel.get((r_img, assign[j]))
                if lbl is None:
                    continue
                key = (0, j, lbl)
                if best_key is not None and key > best_key:
                    continue
                quint = (rightmost, j, pattern_labels[rightmost], lbl, pattern_labels[j])
                if key == best_key:
                    grown.append(assign)
                else:
                    best_key, best_quint = key, quint
                    grown = [assign]
            in_assign = set(assign)
            for i in rmpath:
                u_img = assign[i]
                for w, lbl in adj[u_img]:
                    if w in in_assign:
                        continue
                    key = (1, -i, lbl, labels[w])
                    if best_key is not None and key > best_key:
                        continue
                    quint = (i, len(assign), pattern_labels[i], lbl, labels[w])
                    if key == best_key:
                        grown.append(assign + (w,))
                    else:
                        best_key, best_quint = key, quint
                        grown = [assign + (w,)]
        if best_quint is None:
            raise ValueError("disconnected graph has no DFS code")
        code.append(best_quint)
        embeds = grown
        frm, to, _, _, tl = best_quint
        if frm < to:
            pattern_labels.append(tl)
            pattern_edges.add((frm, to))
        else:
            pattern_edges.add((to, frm))
        if reference is not None:
            k = len(code) - 1
            if code[k] != ref[k]:
                # quints extending a shared prefix compare by extension order,
                # not by raw tuple order
                if _extension_key(code[k]) > _extension_key(ref[k]):
                    raise AssertionError("greedy construction exceeded a valid code")
                return False
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


def contains(haystack: LabeledGraph, needle: LabeledGraph) -> bool:
    """Subgraph isomorphism: does an embedding of needle exist in haystack?"""
    k = needle.vertex_count
    if k == 0:
        return True
    if k > haystack.vertex_count or needle.edge_count > haystack.edge_count:
        return False
    # order needle vertices so every vertex after the first has a prior neighbor
    order = [0]
    placed = {0}
    while len(order) < k:
        nxt = None
        for v in order:
            for w, _ in needle.adjacency[v]:
                if w not in placed:
                    nxt = w
                    break
            if nxt is not None:
                break
        if nxt is None:
            raise ValueError("needle must be connected")
        order.append(nxt)
        placed.add(nxt)
    anchors: list[list[tuple[int, int]]] = []
    for idx, v in enumerate(order):
        prior = []
        for w, lbl in needle.adjacency[v]:
            if w in order[:idx]:
                prior.append((order.index(w), lbl))
        anchors.append(prior)

    assign: list[int] = []
    used: set[int] = set()

    def place(idx: int) -> bool:
        if idx == k:
            return True
        v = order[idx]
        want = needle.vertex_labels[v]
        if idx == 0:
            candidates: Iterable[int] = range(haystack.vertex_count)
        else:
            anchor_pos, anchor_lbl = anchors[idx][0]
            candidates = [
                w
                for w, lbl in haystack.adjacency[assign[anchor_pos]]
                if lbl == anchor_lbl
            ]
        for w in candidates:
            if w in used or haystack.vertex_labels[w] != want:
                continue
            ok = True
            for pos, lbl in anchors[idx]:
                if haystack.edge_label(assign[pos], w) != lbl:
                    ok = False
                    break
            if not ok:
                continue
            assign.append(w)
            used.add(w)
            if place(idx + 1):
                return True
            assign.pop()
            used.remove(w)
        return False

    return place(0)


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
        budget = self.config.pattern_budget
        if budget is not None and self.emitted > budget:
            raise _BudgetExceeded
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
        for quint in sorted(roots):
            self._check_deadline()
            projs = roots[quint]
            if len({pos for pos, _ in projs}) >= self.sigma:
                self._grow((quint,), projs)

    def _grow(self, code: tuple[Quint, ...], projs: list[tuple[int, tuple[int, ...]]]) -> None:
        self._check_deadline()
        if len(code) > 1 and not is_canonical(code):
            return
        occurrences = frozenset(pos for pos, _ in projs)
        self._emit(code, occurrences)
        if len(occurrences) < self.sigma:
            return

        rmpath = _rmpath_vertices(code)
        rightmost = rmpath[-1]
        pattern_labels, pattern_edge_list = _code_labels_edges(code)
        pattern_edges = {(u, v) for u, v, _ in pattern_edge_list}
        at_cap = (
            self.config.max_vertices is not None
            and len(pattern_labels) >= self.config.max_vertices
        )

        children: dict[Quint, list[tuple[int, tuple[int, ...]]]] = {}
        for pos, assign in projs:
            g = self.db.graphs[pos]
            r_img = assign[rightmost]
            for j in rmpath[:-1]:
                if (min(j, rightmost), max(j, rightmost)) in pattern_edges:
                    continue
                lbl = g.edge_label(r_img, assign[j])
                if lbl is None:
                    continue
                quint = (rightmost, j, pattern_labels[rightmost], lbl, pattern_labels[j])
                children.setdefault(quint, []).append((pos, assign))
            if at_cap:
                continue
            in_assign = set(assign)
            new_id = len(assign)
            for i in rmpath:
                u_img = assign[i]
                for w, lbl in g.adjacency[u_img]:
                    if w in in_assign:
                        continue
                    quint = (i, new_id, pattern_labels[i], lbl, g.vertex_labels[w])
                    children.setdefault(quint, []).append((pos, assign + (w,)))

        for quint in sorted(children, key=_extension_key):
            child_projs = children[quint]
            if len({pos for pos, _ in child_projs}) >= self.sigma:
                self._grow(code + (quint,), child_projs)


def mine(
    db: GraphDatabase,
    config: MinerConfig,
    deadline: float | None = None,
    on_emit: Callable[[int], int] | None = None,
) -> MiningOutcome:
    """Enumerate all connected patterns with support >= config.min_frequency.

    ``deadline`` is an absolute time.monotonic() timestamp; passing it raises
    MiningTimeout. A run that trips config.pattern_budget reports status
    "terminated_early" with emitted_count == budget + 1 and no patterns.

    ``on_emit`` is called with the support of each emitted pattern and returns
    the support threshold from then on; a return below the current threshold
    is ignored. Raising the threshold prunes every later child below it, stops
    growth of the pattern just emitted if it fell below, and drops the
    patterns kept so far that fell below, so the outcome holds exactly the
    emitted patterns at or above the final threshold. ``emitted_count`` still
    counts every emission.
    """
    miner = _Miner(db, config, deadline, on_emit)
    try:
        miner.run()
    except _BudgetExceeded:
        return MiningOutcome("terminated_early", (), miner.emitted)
    return MiningOutcome("completed", tuple(miner.patterns), miner.emitted)
