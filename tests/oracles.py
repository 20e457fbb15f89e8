"""Independent reference implementations used only by the tests.

Slow but transparent: exact rational arithmetic for the statistics,
exhaustive enumeration for the miner. Nothing here shares code paths with
the modules under test, except three scalar loops that the vectorised engines
must agree with exactly:

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
  at a time with the package's own growth rule (``mining._step`` and
  ``mining._extend``, which ``mining.minimum_code`` is built on), so the array
  miner must emit the same patterns in the same order.

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
        "ints": tuple(range(db.size)),
    }


def occurrence_bits(positions) -> int:
    """Int bitmask with bit t set for every transaction position t."""
    return sum(1 << t for t in set(positions))


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


def mine_reference(db, config, on_emit=None):
    """The scalar miner: one ``_extend`` call per embedding, children as tuples.

    Emits what ``mining.mine`` emits, in the same order, returns every
    emission, and steers the same way through ``on_emit``; it has no deadline.
    """
    from sigmine.mining import (
        NO_EDGE,
        MiningOutcome,
        Pattern,
        _adjacency,
        _extend,
        _extension_key,
        _root_state,
        _step,
        is_canonical,
    )

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
