"""Class-label permutation machinery for empirical multiplicity estimates.

Occurrence sets never change under permutation, only which transactions count
as positive. The family arrives as a ``PatternStore`` (any other sequence of
patterns is converted through it once), and its position buffer is packed
once, a block of patterns at a time, into one row of uint64 words per
pattern, one bit per transaction. Permutation masks are drawn a block at a time
and packed the same way; every permuted positive count in a block is then a
word-by-word AND and popcount, and one lookup in a single table, every
margin's row of p-values end to end, turns the counts into p-values. So a
block makes the same numpy calls however many margins the family has, and
writes into buffers allocated once. This packed form is the only occurrence
representation the permutation stage reads.

The stream is fixed: mask j is numpy's
``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(j,))))`` shuffling m
ones followed by N - m zeros, m being the smaller class size and position t
the database's transaction t. The ones mark the smaller class; when that is
class 0, class 1 is their complement. So neither the block size nor the
order of evaluation can change a result, and any subset of permutations can
be recomputed alone. The engine
reproduces this stream a block at a time: one numpy pass of the SeedSequence
hash gives the PCG64 seeds of a whole block (``_seed_states``), and each
generator is seeded from its precomputed row instead of a fresh
SeedSequence.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import GraphDatabase, _integral_fields
from .mining import Pattern, PatternStore
from .stats import TailMode, _check_tail, pvalues_over_support

# Pattern x permutation cells evaluated per block. It sizes the block
# buffers, held from the first block to the last: 11 bytes a cell (a uint64
# word, a uint8 popcount and a uint16 count), 0.69 MiB at 2**16 cells, or 17
# bytes a cell once a count can pass 16 bits. Through the word count it also
# bounds a block's slot matrix and packed masks, so a block takes a few MB
# whatever the database size or the size of the family.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class PermutationPlan:
    """How many label shuffles to draw and from which seed; the database sets n and N."""

    iterations: int
    seed: int

    def __post_init__(self):
        _integral_fields(self, "iterations", "seed")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_states(seed: int, first: int, stop: int) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(j,)).generate_state(4, np.uint64)``
    for every j in [first, stop), one row each.

    The hash in 32-bit arithmetic, kept in uint64 and masked: Python ints
    for the words every lane shares, arrays over the lanes for the rest. The
    seed words, zero-padded to the pool size of 4 because a spawn key
    follows, fill and cross-mix the pool; then every word past the fourth,
    the seed's own and then the index's one or two (from 2**32 on), is mixed
    into each pool word. The sequence of hash constants never depends on the
    values, so it is shared by all lanes.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [mix(p, hashmix(word)) for p in pool]
    index = np.arange(first, stop, dtype=np.uint64)
    high = index >> 32
    pool = [mix(p, hashmix(index & _MASK32)) for p in pool]
    if high.any():
        wide = [mix(p, hashmix(high)) for p in pool]
        pool = [np.where(high > 0, w, p) for w, p in zip(wide, pool)]
    const = _INIT_B
    halves = np.empty((len(index), 8), np.uint64)
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        halves[:, i] = value ^ value >> 16
    return halves[:, 0::2] | halves[:, 1::2] << 32


class _Seeded:
    """Hands PCG64 a precomputed ``generate_state(4, np.uint64)`` row.

    ``min_p_distribution`` registers it as a numpy ``ISeedSequence`` on first
    use: importing numpy.random costs about 6 MB of resident memory, which
    runs that draw no permutation should not pay.
    """

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _cells(buffer: np.ndarray, patterns: int, count: int) -> np.ndarray:
    """The leading ``patterns * count`` cells of a block buffer as a
    (patterns, count) array, patterns innermost in memory.

    A ufunc over a 2D array that does not collapse to 1D pays for each row
    of its inner axis, and the families of a permutation run hold more
    patterns than a block holds permutations.
    """
    return buffer[: patterns * count].reshape(count, patterns).T


def _packed(slots: np.ndarray) -> np.ndarray:
    """uint64 words of each row of a 0/1 uint8 matrix; bit t is position t."""
    return np.packbits(slots, axis=1, bitorder="little").view(np.uint64)


def min_p_distribution(
    testable: Sequence[Pattern],
    plan: PermutationPlan,
    db: GraphDatabase,
    tail: TailMode = "two",
) -> tuple[float, ...]:
    """Per-permutation minima of the exact-test p-value over ``testable``.

    Element j is reproducible from (seed, j) alone. Raises on an empty
    testable set: the minimum over nothing has no meaning and callers must
    treat the estimate as unavailable rather than receive a vacuous one. Also
    raises ValueError for a pattern whose occurrences do not fit ``db``:
    a position at or past ``db.size`` would set a padding bit, which counts
    as a hit once the masks are complemented. Occurrences that are not
    ``frequency`` strictly ascending positions are rejected by
    ``PatternStore``, which the family is converted through.
    """
    testable = PatternStore(testable)
    if not testable:
        raise ValueError("min-p distribution needs at least one testable pattern")
    # the block buffers are let go on return, before the tuple is built
    return tuple(_minima(testable, plan, db, tail).tolist())


def _minima(
    testable: PatternStore, plan: PermutationPlan, db: GraphDatabase, tail: TailMode
) -> np.ndarray:
    """``min_p_distribution``'s samples as a float64 array."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_Seeded)
    total = db.size
    width = -(-total // 64)
    patterns = len(testable)
    block = max(1, _BLOCK_CELLS // max(patterns, width))
    # one row of 0/1 slots per permutation of a block, reused by every block;
    # the padding past ``total`` is never written and stays 0
    slots = np.zeros((block, 64 * width), dtype=np.uint8)

    # Rows sorted by frequency, so the patterns sharing a margin are a
    # contiguous run and read the table in ascending order; occ[w] is word w
    # of every row. The buffer is checked and packed a block of rows at a
    # time through the slot matrix.
    frequency = testable.frequency
    by_frequency = np.argsort(frequency, kind="stable")
    occ = np.empty((width, patterns), dtype=np.uint64)
    for first in range(0, patterns, block):
        owner, positions = testable._occurrences(by_frequency[first : first + block])
        if positions.size and positions.max() >= total:
            raise ValueError(f"pattern occurrences must be positions in [0, {total})")
        rows = slots[: min(block, patterns - first)]
        rows[:] = 0
        rows[owner, positions] = 1
        occ[:, first : first + len(rows)] = _packed(rows).T

    # Every margin's p-value row end to end in one table, filled a margin at
    # a time: margin f's row spans its attainable x, [max(0, f - n'),
    # min(f, n)]. Row r of occ reads the p-value of count x at
    # table[base[r] + x].
    margins, sharing = np.unique(frequency[by_frequency], return_counts=True)
    ends = np.cumsum(np.minimum(margins, db.n) - np.maximum(0, margins - db.n_prime) + 1)
    table = np.empty(int(ends[-1]))
    bases = np.empty(len(margins), dtype=np.intp)
    offset = 0
    for i, (f, end) in enumerate(zip(margins.tolist(), ends.tolist())):
        lo, row = pvalues_over_support(f, db.n, db.n_prime, tail)
        table[offset:end] = row
        bases[i], offset = offset - lo, end
    base = np.repeat(bases, sharing)[:, None]

    # Block buffers, held across blocks and sliced to a block's leading
    # patterns x permutations cells: ``words`` takes each word's AND, then
    # the table indices, then the p-values they read; ``bits`` takes each
    # word's popcount and ``tally`` the counts, which are at most
    # min(largest margin, n).
    cells = patterns * block
    words = np.empty(cells, dtype=np.uint64)
    bits = np.empty(cells, dtype=np.uint8)
    narrow = min(int(margins[-1]), db.n) < 1 << 16
    tally = np.empty(cells, dtype=np.uint16 if narrow else np.intp)
    # numpy shuffles 8-byte items about 40% faster than single bytes, so each
    # mask is shuffled as int64 and then copied into its slot row
    ordered = np.zeros(total, dtype=np.int64)
    ordered[: min(db.n, db.n_prime)] = 1
    shuffled = np.empty_like(ordered)
    minima = np.empty(plan.iterations)
    for first in range(0, plan.iterations, block):
        best = minima[first : first + block]
        rows = slots[: len(best)]
        for row, state in zip(rows, _seed_states(plan.seed, first, first + len(best))):
            shuffled[:] = ordered
            np.random.Generator(np.random.PCG64(_Seeded(state))).shuffle(shuffled)
            row[:total] = shuffled
        masks = _packed(rows).T
        if db.n > db.n_prime:
            # the ones mark class 0; occurrences are 0 past N, so ~ adds no count
            masks = ~masks
        step = _cells(words, patterns, len(best))
        popcount = _cells(bits, patterns, len(best))
        counts = _cells(tally, patterns, len(best))
        for w in range(width):
            np.bitwise_and(occ[w][:, None], masks[w], out=step)
            if w:
                np.bitwise_count(step, out=popcount)
                np.add(counts, popcount, out=counts)
            else:
                np.bitwise_count(step, out=counts)
        np.add(counts, base, out=_cells(words.view(np.intp), patterns, len(best)))
        # The p-values overwrite the indices they are read by. numpy does not
        # document this overlap as safe: it holds because take's loop reads
        # index j before it writes cell j, and take checks ``out`` for overlap
        # with the table only (numpy >= 2.0 as pyproject requires, checked
        # on 2.4). "clip" writes into ``out`` directly ("raise" buffers it)
        # and turns off the bounds check, so a wrong index would be clipped
        # quietly; none is, as every index lies in its margin's row.
        # test_take_looks_up_in_place checks numpy's side of this, and
        # test_matches_scalar_reference and test_many_margins_through_one_table
        # the results.
        index = words[: step.size].view(np.intp)
        np.take(table, index, out=index.view(np.float64), mode="clip")
        np.min(_cells(words.view(np.float64), patterns, len(best)), axis=0, out=best)
    return minima


def effective_num_tests(
    min_p_samples: Sequence[float], alpha: float, num_testable: int
) -> float:
    """Effective test count implied by the permutation min-p distribution.

    Reads the empirical lower-alpha quantile alpha' off the sorted samples and
    inverts the Sidak relation alpha' = 1 - (1 - alpha)^(1/m). Clamped to
    [1, num_testable]: dependence can only reduce the count, never raise it
    past the literal number of testable patterns.
    """
    if not min_p_samples:
        raise ValueError("need at least one permutation sample")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if num_testable < 1:
        raise ValueError(f"num_testable must be >= 1, got {num_testable}")
    ordered = sorted(min_p_samples)
    rank = math.ceil(alpha * len(ordered))
    alpha_prime = ordered[rank - 1]
    if alpha_prime <= 0.0:
        positive = [s for s in ordered if s > 0.0]
        alpha_prime = positive[0] if positive else sys.float_info.min
    if alpha_prime >= 1.0:
        return 1.0
    m_eff = math.log1p(-alpha) / math.log1p(-alpha_prime)
    return min(float(num_testable), max(1.0, m_eff))


def empirical_fwer(
    testable: Sequence[Pattern],
    threshold: float,
    plan: PermutationPlan,
    db: GraphDatabase,
    tail: TailMode = "two",
) -> float:
    """Fraction of permutations whose best p-value beats ``threshold``.

    The comparison is strict, matching the significance rule. An empty
    testable set can never produce a rejection, so its rate is 0.
    """
    _check_tail(tail)
    # a cut outside the p-values' range means nothing; NaN fails this test too
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    testable = PatternStore(testable)
    if not testable:
        return 0.0
    # counted off the array, so the samples never become Python floats
    beaten = np.count_nonzero(_minima(testable, plan, db, tail) < threshold)
    return int(beaten) / plan.iterations

