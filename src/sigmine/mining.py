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
one quint; the miner and ``minimum_code`` share it. The miner carries
that state from parent to child instead of re-deriving it from the code, and
walks the search tree with an explicit stack of sibling groups, so pattern
depth is not bounded by Python's recursion limit. It holds a code's
embeddings as one int32 array over the database's global vertex ids. When it
reaches a sibling not joined yet, it checks that sibling and the ones after
it of the same vertex count for minimality and finds all rightmost-path
extensions of the minimal ones in one numpy join over their arrays laid
side by side (``_Miner._children``), up to a fixed number of candidate
cells; only children that are frequent and pass gSpan's first-edge test get
embeddings.
Every edge code comes from that join: the single-edge roots are the children
of one-vertex codes, the vertices of each frequent label. The minimality
check (``is_canonical``) is gSpan's isMin test: it walks the code over the
small graph the code describes, held as a plain adjacency, and stops at the
first extension that sorts below the code's own. ``minimum_code`` builds the
greedy minimal code with the scalar ``_extend``, which the scalar reference
miner of the tests shares.

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
from typing import Callable, Sequence

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
    a tuple of ascending, distinct positions; ``x`` of them belong to class 1
    and ``x_prime`` to class 0. The vertex and edge counts are read off
    ``code``: one vertex plus one per forward quint, and one edge per quint,
    none for a singleton.
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


def minimum_code(graph: LabeledGraph) -> tuple[Quint, ...]:
    """Canonical (minimal) DFS code of a connected labeled graph.

    Grows the code with the miner's rule, keeping at each step only the
    smallest extension and the embeddings of the graph into itself that
    produce it: gSpan's greedy construction, an independent judge of
    ``is_canonical``.
    """
    labels = graph.vertex_labels
    adjacency = _adjacency(graph)
    if not graph.edges:
        if len(labels) != 1:
            raise ValueError("disconnected graph has no DFS code")
        return ((0, 0, labels[0], NO_EDGE, labels[0]),)
    directed = [
        ((labels[u], lbl, labels[v]), (u, v))
        for u, nbrs in enumerate(adjacency)
        for v, lbl in nbrs.items()
    ]
    first_key = min(directed)[0]
    code: list[Quint] = [(0, 1, *first_key)]
    # an embedding maps pattern vertex -> graph vertex; injectivity plus the
    # pattern-level duplicate-edge check make a used-edge set redundant
    embeds = [pair for key, pair in directed if key == first_key]
    state = _step(*_root_state(first_key[0]), code[0])
    for _ in range(len(graph.edges) - 1):
        children: dict[Quint, list[tuple[int, tuple[int, ...]]]] = {}
        for assign in embeds:
            _extend(children, adjacency, labels, 0, assign, *state, True)
        if not children:
            raise ValueError("disconnected graph has no DFS code")
        quint = min(children, key=_extension_key)
        code.append(quint)
        embeds = [assign for _, assign in children[quint]]
        state = _step(*state, quint)
    if len(state[1]) < len(labels):
        raise ValueError("disconnected graph has no DFS code")
    return tuple(code)


def is_canonical(code: Sequence[Quint]) -> bool:
    """True when the code is the minimal DFS code of the graph it describes.

    gSpan's isMin test: walk the code over the graph it describes, keeping
    the embeddings of each prefix into that graph. At each quint, an
    extension of some kept embedding that sorts below the quint (in
    ``_extension_key`` order) proves the code is not minimal; the
    extensions equal to the quint are the embeddings of the next prefix.
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


# Candidate cells one join holds at once: a candidate extension of an
# embedding of a k-vertex code carries k + 1 vertices. It bounds the
# temporaries of a join that batches siblings to about those of the largest
# single join on the null-20k benchmark (32,862 candidates at k = 2), a few
# MB; a code whose join alone exceeds it still joins alone.
_JOIN_CELLS = 98304


class _Siblings:
    """The children of one code, grown one at a time in extension order.

    Child i is ``code + (quints[i],)``, supported by the distinct graph
    positions ``occs[i]``, with projection ``projs[i]``. ``status[i]`` is
    None until the child is checked, then False if it was infrequent or not
    minimal, True if it is minimal but not joined yet, and its own
    ``_Siblings`` once joined.
    """

    __slots__ = ("code", "state", "quints", "occs", "projs", "status", "next")

    def __init__(self, code: tuple[Quint, ...], state: _State):
        self.code = code
        self.state = state
        self.quints: list[Quint] = []
        self.occs: list[np.ndarray] = []
        self.projs: list[np.ndarray | None] = []
        self.status: list = []
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
        positions of each key in turn, ascending) and two lists of
        boundaries, one longer than the keys: key i owns ``occ[ob[i]:ob[i+1]]``
        and ``order[rb[i]:rb[i+1]]``. Keys stay below ``slots`` times the
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
        ob = key_pairs.tolist()
        rb = pair_items[key_pairs].tolist()
        ob.append(len(pairs))
        rb.append(len(combined))
        return order, pair_keys[key_pairs].tolist(), pairs - pair_keys * n, ob, rb

    def _emit(self, code: tuple[Quint, ...], occ: np.ndarray) -> None:
        # the layout's shared ints, not fresh ones from tolist, fill the tuple
        occurrences = tuple(map(self.layout.ints.__getitem__, occ.tolist()))
        x = int(self.layout.positive[occ].sum())
        self.patterns.append(Pattern(code, occurrences, x, len(occurrences) - x))
        if self.on_emit is not None:
            self.sigma = max(self.sigma, self.on_emit(len(occurrences)))

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
            if group.status[i] is None or group.status[i] is True:
                self._batch(group, i)
            children = group.status[i]
            group.status[i] = group.projs[i] = None
            if children is False:
                continue
            self._emit(group.code + (group.quints[i],), occ)
            if len(occ) >= self.sigma and children.quints:
                stack.append(children)

    def _batch(self, group: _Siblings, i: int) -> None:
        """Check child i and the siblings after it of the same vertex count
        for minimality, and join the minimal ones from i on in one pass.

        A sibling infrequent now stays so, as the threshold only rises. The
        join stops at ``_JOIN_CELLS``; the siblings it leaves keep their
        verdict and are joined when they are reached.
        """
        k = len(group.projs[i])
        members: list[_Member] = []
        at = []
        for j in range(i, len(group.quints)):
            if len(group.projs[j]) != k:
                break
            code = group.code + (group.quints[j],)
            if group.status[j] is None:
                group.status[j] = len(group.occs[j]) >= self.sigma and is_canonical(code)
            if group.status[j] is True:
                state = _step(*group.state, group.quints[j])
                members.append((code, state, code[0][2:], group.projs[j]))
                at.append(j)
        if members:
            for j, children in zip(at, self._children(members)):
                group.status[j] = children

    def _children(self, members: list[_Member]) -> list[_Siblings]:
        """Join the rightmost-path extensions of codes of one vertex count.

        Finds every rightmost-path extension of every embedding of the first
        members at once, as the scalar ``_extend`` does one embedding at a
        time, and returns one group of children per member joined: as many
        members as keep the join within ``_JOIN_CELLS``, and at least one.
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
        sort in ``_extension_key`` order. Only keys whose support reaches
        the live threshold and that pass gSpan's first-edge test get
        embeddings: a new edge whose label triple, read either way, sorts
        below the member's first-edge triple means the code is not minimal.
        A one-vertex code labelled lbl passes ``(lbl, NO_EDGE, lbl)``, so
        its children, the single-edge roots, lose exactly the edges that
        lead to a smaller label.
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
        order, keys, occ, ob, rb = self._group(keys, layout.gpos[new[keep]])

        sigma = self.sigma
        groups = [_Siblings(code, state) for code, state, *_ in members[:joined]]
        chosen = keep[order]
        for i, key in enumerate(keys):
            if ob[i + 1] - ob[i] < sigma:
                continue
            slot, p = divmod(key, num_p)
            r, slot = divmod(slot, 2 * k)
            _, (rmpath, labels, _), first, _ = members[r]
            if slot < k:
                quint = (rmpath[-1], slot, labels[rmpath[-1]], layout.pair_el[p], labels[slot])
            else:
                frm = 2 * k - 1 - slot
                quint = (frm, k, labels[frm], layout.pair_el[p], layout.pair_tl[p])
            if min(quint[2:], quint[:1:-1]) < first:
                continue
            group = groups[r]
            group.quints.append(quint)
            group.occs.append(occ[ob[i] : ob[i + 1]])
            # a backward child keeps the k rows, a forward one the new vertex too
            rows_kept = grown[:k] if slot < k else grown
            group.projs.append(rows_kept.take(chosen[rb[i] : rb[i + 1]], axis=1))
            group.status.append(None)
        return groups


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
    return MiningOutcome(tuple(miner.patterns))
