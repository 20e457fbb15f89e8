"""Independent reference implementations used only by the tests.

Slow but transparent: exact rational arithmetic for the statistics,
exhaustive enumeration for the miner. Nothing here shares code paths with
the modules under test, except the permutation helpers. They keep the
int-bitmask form of occurrences and masks, which the package does not have:
``permutation_mask`` packs the package's own slot stream
(``permute._shuffled_slots``) into an int, ``occurrence_bits`` packs a
support set, and ``min_p_reference`` is the scalar permutation loop built on
them (one mask, one popcount and one table lookup at a time), against which
the vectorised engine must agree bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb


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
    m = min(f, n)
    one = min(mass(max(0, m - n_prime), m, n, n_prime), mass(m, m, n, n_prime))
    if tail == "two":
        return min(Fraction(1), 2 * one)
    return one


def min_testable(alpha, n: int, n_prime: int, tail: str):
    for sigma in range(1, n + 1):
        if min_attainable(sigma, n, n_prime, tail) <= alpha:
            return sigma
    return None


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
            result[key] = (frozenset(occ), nv, ne)
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


def occurrence_bits(positions) -> int:
    """Int bitmask with bit t set for every transaction position t."""
    return sum(1 << t for t in set(positions))


def permutation_mask(plan, index: int, n: int, total: int) -> int:
    """Int bitmask of the n positives among ``total`` positions under shuffle ``index``."""
    from sigmine.permute import _shuffled_slots

    slots = _shuffled_slots(plan, index, n, total).tolist()
    return sum(1 << t for t, flag in enumerate(slots) if flag)


def min_p_reference(testable, plan, db, tail="two"):
    """Per-permutation minimum p-value, one mask and one pattern at a time."""
    from sigmine.stats import pvalues_over_support

    internal_tail = db.internal_tail(tail)
    prepared = []
    for pattern in testable:
        lo, pvals = pvalues_over_support(
            pattern.frequency, db.n, db.n_prime, internal_tail
        )
        prepared.append((occurrence_bits(pattern.occurrences), lo, pvals))
    samples = []
    for index in range(plan.iterations):
        mask = permutation_mask(plan, index, db.n, db.size)
        best = float("inf")
        for bits, lo, pvals in prepared:
            p = pvals[(bits & mask).bit_count() - lo]
            if p < best:
                best = p
        samples.append(best)
    return tuple(samples)
