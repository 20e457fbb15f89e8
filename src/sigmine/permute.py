"""Class-label permutation machinery for empirical multiplicity estimates.

Occurrence sets never change under permutation, only which transactions count
as positive. Each pattern's occurrences are packed once into a row of uint64
words, one bit per transaction. Permutation masks are drawn a block at a time
and packed the same way; every permuted positive count in a block is then a
word-by-word AND and popcount, and one table lookup per margin turns the
counts into p-values. Each mask comes from its own stream spawned from
(seed, index), so neither the block size nor the order of evaluation can
change a result, and any subset of permutations can be recomputed alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .graphs import GraphDatabase
from .mining import Pattern
from .stats import TailMode, pvalues_over_support

# Pattern x permutation cells evaluated per block. It bounds the count and
# lookup arrays of a block, and (through the word count) its packed masks, to
# a few MB whatever the database size or the size of the family.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class PermutationPlan:
    """How many label shuffles to draw and from which seed."""

    iterations: int
    seed: int
    class_counts: tuple[int, int]

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        n, n_prime = self.class_counts
        if n < 1 or n_prime < 1:
            raise ValueError(f"class counts must be positive, got {self.class_counts}")


def _shuffled_slots(plan: PermutationPlan, index: int) -> np.ndarray:
    """0/1 uint8 array over transaction positions, 1 where positive under ``index``."""
    n, n_prime = plan.class_counts
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=plan.seed, spawn_key=(index,))
    )
    slots = np.zeros(n + n_prime, dtype=np.uint8)
    slots[:n] = 1
    rng.shuffle(slots)
    return slots


def permutation_mask(plan: PermutationPlan, index: int) -> int:
    """Bit vector of positive positions under permutation ``index``.

    Exactly n bits are set among the n + n' transaction positions. The mask
    depends only on (seed, index), never on previously drawn masks.
    """
    if not 0 <= index < plan.iterations:
        raise ValueError(f"index {index} outside [0, {plan.iterations})")
    mask = 0
    for position in np.flatnonzero(_shuffled_slots(plan, index)):
        mask |= 1 << int(position)
    return mask


def permuted_positive_count(occurrence_bits: int, mask: int) -> int:
    return (occurrence_bits & mask).bit_count()


def _check_plan_matches(plan: PermutationPlan, db: GraphDatabase) -> None:
    if plan.class_counts != (db.n, db.n_prime):
        raise ValueError(
            f"plan counts {plan.class_counts} do not match database "
            f"({db.n}, {db.n_prime})"
        )


def _pack(bits: np.ndarray, width: int) -> np.ndarray:
    """``width`` uint64 words holding a 0/1 uint8 vector; bit t is position t."""
    row = np.zeros(width * 64, dtype=np.uint8)
    row[: bits.size] = bits
    return np.packbits(row, bitorder="little").view(np.uint64)


def min_p_distribution(
    testable: Sequence[Pattern],
    plan: PermutationPlan,
    db: GraphDatabase,
    tail: TailMode = "two",
) -> tuple[float, ...]:
    """Per-permutation minima of the exact-test p-value over ``testable``.

    Element j is reproducible from (seed, j) alone. Raises on an empty
    testable set: the minimum over nothing has no meaning and callers must
    treat the estimate as unavailable rather than receive a vacuous one.
    """
    if not testable:
        raise ValueError("min-p distribution needs at least one testable pattern")
    _check_plan_matches(plan, db)
    internal_tail = db.internal_tail(tail)
    total = db.size
    width = -(-total // 64)

    # Rows sorted by frequency, so the patterns sharing one p-value table are
    # a contiguous slice; occ[w] is word w of every row.
    patterns = sorted(testable, key=lambda p: p.frequency)
    occ = np.empty((width, len(patterns)), dtype=np.uint64)
    for row, pattern in enumerate(patterns):
        membership = np.zeros(total, dtype=np.uint8)
        membership[list(pattern.occurrences)] = 1
        occ[:, row] = _pack(membership, width)
    groups = []
    start = 0
    for f, members in groupby(patterns, key=lambda p: p.frequency):
        stop = start + sum(1 for _ in members)
        lo, pvals = pvalues_over_support(f, db.n, db.n_prime, internal_tail)
        groups.append((start, stop, lo, np.array(pvals)))
        start = stop

    block = max(1, _BLOCK_CELLS // max(len(patterns), width))
    minima = np.empty(plan.iterations)
    for first in range(0, plan.iterations, block):
        indices = range(first, min(first + block, plan.iterations))
        masks = np.empty((width, len(indices)), dtype=np.uint64)
        for col, index in enumerate(indices):
            masks[:, col] = _pack(_shuffled_slots(plan, index), width)
        counts = np.zeros((len(patterns), len(indices)), dtype=np.intp)
        for w in range(width):
            counts += np.bitwise_count(occ[w][:, None] & masks[w][None, :])
        best = minima[first : first + len(indices)]
        best[:] = math.inf
        for start, stop, lo, pvals in groups:
            np.minimum(best, pvals[counts[start:stop] - lo].min(axis=0), out=best)
    return tuple(minima.tolist())


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
    if not testable:
        return 0.0
    samples = min_p_distribution(testable, plan, db, tail)
    return sum(1 for s in samples if s < threshold) / len(samples)


def write_min_p_samples(path, samples: Iterable[float]) -> None:
    """One sample per line, full round-trip precision."""
    with open(path, "w", encoding="ascii") as handle:
        for sample in samples:
            handle.write(f"{sample:.17g}\n")
