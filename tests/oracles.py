"""Independent reference implementations used only by the tests.

Slow but transparent: exact rational arithmetic for the statistics,
exhaustive enumeration for the miner. Nothing here shares code paths with
the modules under test, except four scalar loops that the vectorised engines
must agree with exactly:

- ``parse_reference`` reads the transaction format one line at a time, a
  dict per token table and a set per graph's vertex pairs, so the package's
  block parser is judged against the loop it replaced: the same database,
  token tables included, or the same error type, message and line number.

- ``support_tables`` makes one margin's table by scalar loops: the exact
  ratio recurrence outward from the mode, one Python float at a time,
  masses over their ``math.fsum``, and Neumaier-compensated running tails,
  so the package's numpy accumulates are judged bit for bit against the
  loop they replace.
- The permutation helpers keep the int-bitmask form of occurrences and
  masks, which the package does not have: ``permutation_mask`` draws mask j
  straight from numpy, one ``default_rng(SeedSequence(entropy=seed,
  spawn_key=(j,)))`` shuffling m ones then N - m zeros, and packs it into an
  int; ``occurrence_bits`` packs a support set, and ``min_p_reference`` is
  the scalar permutation loop built on them (one mask, one popcount and one
  table lookup at a time). Its masks hold m = min(n, n') ones marking the
  smaller class, so class 1 is the mask or, when class 1 is the larger
  class, its complement. So the package's block drawer is judged against
  numpy's own stream.
- ``mine_reference`` is the scalar miner: it grows every embedding one tuple
  at a time with the scalar extension kept here (``_extend``, children
  sorted by ``_extension_key``) and the package's ``mining._step``, so the
  array miner must emit the same patterns in the same order.
  ``minimum_code_reference`` is gSpan's greedy construction on the same
  scalar extension, so it judges ``mining.is_canonical`` and
  ``mining.minimum_code``, which walks the array miner's join.

``layout_reference`` builds the miner's ``ArrayLayout`` fields from the
graphs read back as records, with plain lists and sorting, to judge the
layout the package derives from its flat storage.

``code_to_graph`` turns a DFS code back into a graph, after checking that
the code is well formed, for the isomorphism oracles above.
``random_dfs_code`` writes a valid, usually non-minimal, DFS code of a graph
by its own rightmost-path walk, for testing the minimality check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, fsum


def mass(x: int, f: int, n: int, n_prime: int) -> Fraction:
    if x < max(0, f - n_prime) or x > min(f, n):
        return Fraction(0)
    return Fraction(comb(n, x) * comb(n_prime, f - x), comb(n + n_prime, f))


def left_tail(x: int, f: int, n: int, n_prime: int) -> Fraction:
    lo = max(0, f - n_prime)
    num = sum(comb(n, t) * comb(n_prime, f - t) for t in range(lo, x + 1))
    return Fraction(num, comb(n + n_prime, f))


def right_tail(x: int, f: int, n: int, n_prime: int) -> Fraction:
    hi = min(f, n)
    num = sum(comb(n, t) * comb(n_prime, f - t) for t in range(x, hi + 1))
    return Fraction(num, comb(n + n_prime, f))


def fisher(x: int, f: int, n: int, n_prime: int, tail: str) -> Fraction:
    if tail == "left":
        return left_tail(x, f, n, n_prime)
    if tail == "right":
        return right_tail(x, f, n, n_prime)
    doubled = 2 * min(left_tail(x, f, n, n_prime), right_tail(x, f, n, n_prime))
    return min(Fraction(1), doubled)


def min_attainable(f: int, n: int, n_prime: int, tail: str) -> Fraction:
    m = min(f, n, n_prime)
    one = min(mass(max(0, m - n_prime), m, n, n_prime), mass(m, m, n, n_prime))
    if tail == "two":
        return min(Fraction(1), 2 * one)
    return one


def min_testable(alpha, n: int, n_prime: int, tail: str):
    for sigma in range(1, min(n, n_prime) + 1):
        if min_attainable(sigma, n, n_prime, tail) <= alpha:
            return sigma
    return None


def _running_tail(values):
    # Neumaier-compensated running sums, clamped into [0, 1]
    total = 0.0
    comp = 0.0
    out = []
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out.append(min(1.0, total + comp))
    return out


def support_tables(f: int, n: int, n_prime: int):
    """(lo, left, right) of one margin, built one scalar step at a time."""
    import numpy as np

    lo, hi = max(0, f - n_prime), min(f, n)
    weights = [0.0] * (hi - lo + 1)
    mode = min(hi, max(lo, (f + 1) * (n + 1) // (n + n_prime + 2)))
    weights[mode - lo] = 1.0
    for x in range(mode, hi):
        ratio = ((n - x) * (f - x)) / ((x + 1) * (n_prime - f + x + 1))
        weights[x + 1 - lo] = weights[x - lo] * ratio
    for x in range(mode, lo, -1):
        ratio = (x * (n_prime - f + x)) / ((n - x + 1) * (f - x + 1))
        weights[x - 1 - lo] = weights[x - lo] * ratio
    total = fsum(weights)
    masses = [w / total for w in weights]
    left = _running_tail(masses)
    right = _running_tail(masses[::-1])[::-1]
    return lo, np.array(left), np.array(right)


# -- exhaustive miner ---------------------------------------------------------


def canonical_key(labels, edges):
    """Isomorphism-invariant key of a small labeled graph.

    Sorts vertices by label, then minimizes the edge list over every
    permutation within same-label groups.
    """
    k = len(labels)
    order = sorted(range(k), key=lambda v: labels[v])
    sorted_labels = tuple(labels[v] for v in order)
    groups = []
    start = 0
    for i in range(1, k + 1):
        if i == k or sorted_labels[i] != sorted_labels[start]:
            groups.append(order[start:i])
            start = i
    best = None
    for combo in product(*(permutations(g) for g in groups)):
        seq = [v for grp in combo for v in grp]
        pos = {v: p for p, v in enumerate(seq)}
        ekey = tuple(
            sorted((min(pos[u], pos[v]), max(pos[u], pos[v]), lbl) for u, v, lbl in edges)
        )
        if best is None or ekey < best:
            best = ekey
    return sorted_labels, best


def _connected(vertices, edges) -> bool:
    if len(vertices) <= 1:
        return True
    adj = {v: set() for v in vertices}
    for u, v, _ in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    stack = [next(iter(vertices))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return seen == set(vertices)


def connected_patterns_of(graph, max_vertices=None):
    """Canonical keys of every connected subgraph: key -> (vertices, edges)."""
    out = {}
    limit = max_vertices if max_vertices is not None else graph.vertex_count
    for lbl in set(graph.vertex_labels):
        out[((lbl,), ())] = (1, 0)
    if limit < 2:
        return out
    m = len(graph.edges)
    for r in range(1, m + 1):
        for combo in combinations(range(m), r):
            sub = [graph.edges[i] for i in combo]
            verts = {u for u, _, _ in sub} | {v for _, v, _ in sub}
            if len(verts) > limit:
                continue
            if not _connected(verts, sub):
                continue
            ordered = sorted(verts)
            idx = {v: i for i, v in enumerate(ordered)}
            labels = tuple(graph.vertex_labels[v] for v in ordered)
            edges = tuple((idx[u], idx[v], lbl) for u, v, lbl in sub)
            out.setdefault(canonical_key(labels, edges), (len(verts), r))
    return out


def mine_exhaustively(db, sigma, max_vertices=None, count_singletons=True):
    """key -> (occurrence positions, vertex count, edge count), support >= sigma."""
    merged = {}
    for pos, g in enumerate(db.graphs):
        for key, (nv, ne) in connected_patterns_of(g, max_vertices).items():
            entry = merged.setdefault(key, (set(), nv, ne))
            entry[0].add(pos)
    result = {}
    for key, (occ, nv, ne) in merged.items():
        if ne == 0 and not count_singletons:
            continue
        if len(occ) >= sigma:
            result[key] = (tuple(sorted(occ)), nv, ne)
    return result


def iso_contains(graph, labels, edges) -> bool:
    """Brute-force embedding test: try every injective label-preserving map."""
    k = len(labels)
    if k > graph.vertex_count:
        return False
    elab = {}
    for u, v, lbl in graph.edges:
        elab[(u, v)] = lbl
        elab[(v, u)] = lbl
    for image in permutations(range(graph.vertex_count), k):
        if any(graph.vertex_labels[image[i]] != labels[i] for i in range(k)):
            continue
        if all(elab.get((image[u], image[v])) == lbl for u, v, lbl in edges):
            return True
    return False


def recount_positives(occurrence_positions, class_by_position) -> int:
    return sum(1 for p in occurrence_positions if class_by_position[p] == 1)


def _validate_code(code) -> None:
    from sigmine.mining import NO_EDGE

    if not code:
        raise ValueError("empty code")
    if len(code) == 1 and code[0][3] == NO_EDGE:
        frm, to, fl, el, tl = code[0]
        if (frm, to, el) != (0, 0, NO_EDGE) or fl != tl or fl < 0:
            raise ValueError(f"malformed singleton code {code[0]!r}")
        return
    rmpath, labels, edges = [0], [code[0][2]], set()
    for k, (frm, to, fl, el, tl) in enumerate(code):
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
        edges.add(pair)
        if frm < to:
            # a forward edge cuts the rightmost path back to its source
            rmpath = rmpath[: rmpath.index(frm) + 1] + [to]
            labels.append(tl)


def code_to_graph(code):
    """Materialize a DFS code as a graph, after checking that it is well formed."""
    from sigmine.graphs import LabeledGraph
    from sigmine.mining import NO_EDGE

    _validate_code(code)
    if code[0][3] == NO_EDGE:
        return LabeledGraph(0, (code[0][2],), ())
    labels = {}
    for frm, to, fl, _, tl in code:
        labels.setdefault(frm, fl)
        labels.setdefault(to, tl)
    edges = tuple((min(frm, to), max(frm, to), el) for frm, to, _, el, _ in code)
    return LabeledGraph(0, tuple(labels[i] for i in range(len(labels))), edges)


def random_dfs_code(graph, rng):
    """A valid DFS code of a connected graph, written by a random walk.

    The walk is a depth-first search from a random vertex: it leaves the
    rightmost vertex by a random unvisited neighbour and backs up the
    rightmost path when there is none. A newly reached vertex first closes
    its edges to the visited vertices (all on the rightmost path) in
    ascending pattern-id order. The code is minimal only when every choice
    happens to be the minimal one.
    """
    from sigmine.mining import NO_EDGE

    labels = graph.vertex_labels
    if not graph.edges:
        return ((0, 0, labels[0], NO_EDGE, labels[0]),)
    nbrs = [{} for _ in labels]
    for u, v, lbl in graph.edges:
        nbrs[u][v] = lbl
        nbrs[v][u] = lbl
    start = rng.randrange(len(labels))
    ids = {start: 0}
    path = [start]
    code = []
    while path:
        here = path[-1]
        fresh = sorted(w for w in nbrs[here] if w not in ids)
        if not fresh:
            path.pop()
            continue
        new = rng.choice(fresh)
        ids[new] = len(ids)
        code.append((ids[here], ids[new], labels[here], nbrs[here][new], labels[new]))
        for j, w in sorted((ids[w], w) for w in nbrs[new] if w in ids and w != here):
            code.append((ids[new], j, labels[new], nbrs[new][w], labels[w]))
        path.append(new)
    return tuple(code)


def layout_reference(db) -> dict:
    """The fields of ``db.layout`` as plain lists, from ``db.graphs``."""
    gpos, labels, adjacency, largest = [], [], [], 0
    for pos, g in enumerate(db.graphs):
        base = len(labels)
        gpos += [pos] * g.vertex_count
        labels += g.vertex_labels
        near = [{} for _ in g.vertex_labels]
        for u, v, lbl in g.edges:
            near[u][base + v] = near[v][base + u] = lbl
        adjacency += near
        largest = max(largest, g.vertex_count)
    vlabels = sorted(set(labels))
    steps = [(w, near[w]) for near in adjacency for w in sorted(near)]
    pairs = sorted({(lbl, labels[w]) for w, lbl in steps})
    offsets = [0]
    for near in adjacency:
        offsets.append(offsets[-1] + len(near))
    return {
        "gpos": gpos,
        "vrank": [vlabels.index(lbl) for lbl in labels],
        "nbr": [w for w, _ in steps],
        "nbr_off": offsets,
        "deg": [len(near) for near in adjacency],
        "prank": [pairs.index((lbl, labels[w])) for w, lbl in steps],
        "positive": list(db.original_classes),
        "vlabels": vlabels,
        "pair_el": [el for el, _ in pairs],
        "pair_tl": [tl for _, tl in pairs],
        "largest": largest,
    }


def occurrence_bits(positions) -> int:
    """Int bitmask with bit t set for every transaction position t."""
    # Python ints: a numpy int32 shifted past bit 31 overflows
    return sum(1 << t for t in set(map(int, positions)))


def permutation_mask(plan, index: int, n: int, total: int) -> int:
    """Int bitmask with n of ``total`` positions set under shuffle ``index``."""
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(entropy=plan.seed, spawn_key=(index,)))
    slots = np.zeros(total, dtype=np.uint8)
    slots[:n] = 1
    rng.shuffle(slots)
    return sum(1 << t for t, flag in enumerate(slots.tolist()) if flag)


def min_p_reference(testable, plan, db, tail="two"):
    """Per-permutation minimum p-value, one mask and one pattern at a time."""
    from sigmine.stats import pvalues_over_support

    prepared = []
    for pattern in testable:
        lo, pvals = pvalues_over_support(pattern.frequency, db.n, db.n_prime, tail)
        prepared.append((occurrence_bits(pattern.occurrences), lo, pvals))
    samples = []
    for index in range(plan.iterations):
        mask = permutation_mask(plan, index, min(db.n, db.n_prime), db.size)
        if db.n > db.n_prime:
            mask ^= (1 << db.size) - 1
        best = float("inf")
        for bits, lo, pvals in prepared:
            p = pvals[(bits & mask).bit_count() - lo]
            if p < best:
                best = p
        samples.append(best)
    return tuple(samples)


def _adjacency(graph):
    """adjacency[v] maps each neighbour of v to the label of their edge."""
    adjacency = [{} for _ in graph.vertex_labels]
    for u, v, lbl in graph.edges:
        adjacency[u][v] = lbl
        adjacency[v][u] = lbl
    return adjacency


def _extend(children, adjacency, vertex_labels, pos, assign, rmpath, labels, edges, forward):
    """Bucket one embedding's rightmost-path extensions by quint.

    ``assign`` maps the pattern's vertex ids to vertices of the graph at
    ``pos``, given by its ``adjacency`` and ``vertex_labels``; ``rmpath``,
    ``labels`` and ``edges`` are the code's ``mining._step`` state. Each
    extension appends ``(pos, child assignment)`` to ``children[quint]``:
    backward edges from the rightmost vertex to an earlier rightmost-path
    vertex, then, when ``forward``, edges from any rightmost-path vertex to a
    vertex the embedding does not use yet.
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


def _extension_key(quint):
    """Sort key of gSpan's extension order among the children of one code."""
    frm, to, _, el, tl = quint
    if frm > to:
        return (0, to, el)
    return (1, -frm, el, tl)


def minimum_code_reference(graph):
    """Canonical DFS code of a connected graph, by the scalar greedy construction.

    Grows the code keeping at each step only the smallest extension
    (``_extension_key``) and the embeddings of the graph into itself that
    produce it, so it judges ``mining.is_canonical`` and the join-based
    ``mining.minimum_code``. Raises ValueError on a disconnected graph.
    """
    from sigmine.mining import NO_EDGE, _root_state, _step

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
    code = [(0, 1, *first_key)]
    # an embedding maps pattern vertex -> graph vertex; injectivity plus the
    # pattern-level duplicate-edge check make a used-edge set redundant
    embeds = [pair for key, pair in directed if key == first_key]
    state = _step(*_root_state(first_key[0]), code[0])
    for _ in range(len(graph.edges) - 1):
        children = {}
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


def mine_reference(db, config, on_emit=None):
    """The scalar miner: one ``_extend`` call per embedding, children as tuples.

    Emits what ``mining.mine`` emits, in the same order, returns every
    emission, and steers the same way through ``on_emit``; it has no deadline.
    """
    from sigmine.mining import NO_EDGE, MiningOutcome, Pattern, _root_state, _step, is_canonical

    sigma = config.min_frequency
    patterns = []

    def emit(code, occurrences):
        nonlocal sigma
        x = sum(db.original_classes[t] for t in occurrences)
        patterns.append(Pattern(code, occurrences, x, len(occurrences) - x))
        if on_emit is not None:
            sigma = max(sigma, on_emit(len(occurrences)))

    if config.count_singletons:
        by_label = {}
        for pos, g in enumerate(db.graphs):
            for lbl in set(g.vertex_labels):
                by_label.setdefault(lbl, set()).add(pos)
        for lbl in sorted(by_label):
            if len(by_label[lbl]) >= sigma:
                emit(((0, 0, lbl, NO_EDGE, lbl),), tuple(sorted(by_label[lbl])))
    if config.max_vertices is not None and config.max_vertices < 2:
        return MiningOutcome(tuple(patterns))
    roots = {}
    for pos, g in enumerate(db.graphs):
        vl = g.vertex_labels
        for u, v, el in g.edges:
            for a, b in ((u, v), (v, u)):
                if vl[a] <= vl[b]:
                    roots.setdefault((0, 1, vl[a], el, vl[b]), []).append((pos, (a, b)))
    adjacencies = [_adjacency(g) for g in db.graphs]
    stack = [((q,), roots[q], _root_state(q[2])) for q in sorted(roots, reverse=True)]
    while stack:
        code, projs, state = stack.pop()
        support = {pos for pos, _ in projs}
        if len(support) < sigma:
            continue
        if len(code) > 1 and not is_canonical(code):
            continue
        occurrences = tuple(sorted(support))
        emit(code, occurrences)
        if len(occurrences) < sigma:
            continue
        state = _step(*state, code[-1])
        forward = config.max_vertices is None or len(state[1]) < config.max_vertices
        children = {}
        for pos, assign in projs:
            graph_labels = db.graphs[pos].vertex_labels
            _extend(children, adjacencies[pos], graph_labels, pos, assign, *state, forward)
        for quint in sorted(children, key=_extension_key, reverse=True):
            stack.append((code + (quint,), children[quint], state))
    return MiningOutcome(tuple(patterns))


def _reference_lines(source):
    return (source if isinstance(source, str) else source.read()).splitlines()


def _reference_labels(source) -> dict:
    from sigmine.graphs import LabelError, ParseError

    out = {}
    for no, raw in enumerate(_reference_lines(source), start=1):
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


def parse_reference(graph_source, labels_source=None):
    """The transaction format read one line at a time, as ``parse_database`` reads it.

    Lines are the ``str.splitlines`` lines of the whole text, and each is
    checked once, in order, by every rule of the format; the tokens are
    numbered in order of first appearance.
    """
    from sigmine.graphs import GraphDatabase, LabelError, ParseError, _offsets

    labels_map = _reference_labels(labels_source) if labels_source is not None else None
    vertex_ids, edge_ids = {}, {}
    graph_ids, inline, seen_ids = [], [], set()
    vertex_counts, edge_counts, vertex_labels, edges = [], [], [], []
    nv = ne = 0
    pairs = set()
    for no, raw in enumerate(_reference_lines(graph_source), start=1):
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
            edges.append((u, v, edge_ids.setdefault(parts[3], len(edge_ids))))
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
            vertex_labels.append(vertex_ids.setdefault(parts[2], len(vertex_ids)))
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
        classes = tuple(labels_map[gid] for gid in graph_ids)
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
        [x for row in edges for x in row],
        _offsets(edge_counts),
    )
