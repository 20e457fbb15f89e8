"""Exact association statistics for 2x2 tables with fixed margins.

Everything here derives from the hypergeometric distribution of the class 1
count x of a pattern with frequency f: exact tail p-values (left, right, and
doubled two-sided), and the frequency-indexed lower bound psi(f) on the
attainable p-value that drives testability pruning. Both read one table per
margin, built by the exact ratio recurrence and kept as read-only float64
arrays of the left and right tails. ``pvalues_over_support`` is its one
reader: it returns the row of p-values for every attainable x, which scoring
and the permutation stage index by x. psi is read off the two ends of the
same table. Only the few most recent tables are cached, so callers that
read many margins read them in ascending order.

Callers pass the input's classes (``n`` and ``x`` count class 1, "right"
means enrichment in class 1), whichever is larger. Only this module knows
that the tables are built for the smaller class: when that is class 0,
``pvalues_over_support`` reads the table backwards with the tails exchanged.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Literal

import numpy as np

TailMode = Literal["left", "right", "two"]

_TAILS = ("left", "right", "two")

__all__ = [
    "TailMode",
    "pvalues_over_support",
    "min_attainable_pvalue",
    "min_testable_frequency",
]


def _check_tail(tail: str) -> None:
    if tail not in _TAILS:
        raise ValueError(f"tail must be one of {_TAILS}, got {tail!r}")


def _support(f: int, n: int, n_prime: int) -> tuple[int, int]:
    if n < 0 or n_prime < 0 or n + n_prime == 0:
        raise ValueError("class sizes must be non-negative and not both zero")
    if f < 0 or f > n + n_prime:
        raise ValueError(f"frequency f={f} outside [0, {n + n_prime}]")
    return max(0, f - n_prime), min(f, n)


def _running_tail(values: list[float]) -> list[float]:
    # Neumaier-compensated running sums, clamped into [0, 1].
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


@lru_cache(maxsize=4)
def _support_tables(f: int, n: int, n_prime: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(lo, left, right): the cumulative tails over the support of one margin, indexed x - lo.

    Masses are built by the exact ratio recurrence outward from the mode and
    normalized by their compensated sum. This keeps relative error near machine
    precision even for margins in the tens of thousands, where naive log-space
    summation loses a couple of digits. Each tail starts with its end mass
    exactly, since the first compensated step adds nothing. The arrays are
    read-only because the cache hands them to every caller.
    """
    lo, hi = _support(f, n, n_prime)
    size = hi - lo + 1
    weights = [0.0] * size
    mode = (f + 1) * (n + 1) // (n + n_prime + 2)
    mode = min(hi, max(lo, mode))
    weights[mode - lo] = 1.0
    for x in range(mode, hi):
        ratio = ((n - x) * (f - x)) / ((x + 1) * (n_prime - f + x + 1))
        weights[x + 1 - lo] = weights[x - lo] * ratio
    for x in range(mode, lo, -1):
        ratio = (x * (n_prime - f + x)) / ((n - x + 1) * (f - x + 1))
        weights[x - 1 - lo] = weights[x - lo] * ratio
    total = math.fsum(weights)
    masses = [w / total for w in weights]
    left = np.array(_running_tail(masses))
    right = np.array(_running_tail(masses[::-1])[::-1])
    left.flags.writeable = right.flags.writeable = False
    return lo, left, right


def pvalues_over_support(
    f: int, n: int, n_prime: int, tail: TailMode = "two"
) -> tuple[int, np.ndarray]:
    """(lo, p-values indexed by x - lo) for every attainable x at a fixed margin.

    The one reader of a margin's table: scoring looks up each pattern's x in
    the row, the permutation stage each recounted x. The row is a float64
    array that callers must not write to. The two-sided value is
    min(1, 2 * min(left, right)).
    """
    _check_tail(tail)
    if n > n_prime:
        # the table counts class 0, x_prime = f - x, whose left tail is
        # class 1's right tail
        lo, right, left = _support_tables(f, n_prime, n)
        lo, left, right = f - lo - len(left) + 1, left[::-1], right[::-1]
    else:
        lo, left, right = _support_tables(f, n, n_prime)
    if tail == "left":
        return lo, left
    if tail == "right":
        return lo, right
    return lo, np.minimum(1.0, 2.0 * np.minimum(left, right))


def min_attainable_pvalue(f: int, n: int, n_prime: int, tail: TailMode = "two") -> float:
    """Smallest p-value any table with margin f can reach.

    With m = min(n, n_prime), for f <= m this is the point mass of the most
    extreme table, the end of a tail; beyond m it stays flat at the f = m
    value, so the bound is monotone non-increasing in f. Two-sided values are
    doubled and capped at 1.
    """
    _check_tail(tail)
    if f < 0:
        raise ValueError(f"frequency must be non-negative, got {f}")
    if n < 1 or n_prime < 1:
        raise ValueError("both class sizes must be at least 1")
    small, large = sorted((n, n_prime))
    _, left, right = _support_tables(min(f, small), small, large)
    # Mathematically right[-1] <= left[0] since small <= large; the min
    # guards float ties so that tail sums can never round below this bound.
    one_sided = float(min(left[0], right[-1]))
    if tail == "two":
        return min(1.0, 2.0 * one_sided)
    return one_sided


def min_testable_frequency(
    alpha: float,
    n: int,
    n_prime: int,
    tail: TailMode = "two",
) -> int | None:
    """Smallest frequency whose attainable p-value bound clears alpha.

    Comparison is non-strict (bound <= alpha). Returns None when no frequency
    up to the smaller class size m = min(n, n') qualifies, which callers
    report as "no testable frequency".

    The float bound carries rounding error, so a frequency whose float bound
    misses alpha by a rounding margin is tested again on the exact rational
    bound C(m, f) / C(n + n', f), doubled for two tails, against the exact
    binary value of alpha; it qualifies if either test passes. A bound of
    exactly 1/20 lies below the double nearest 0.05, yet its float equals
    that double.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    small = min(n, n_prime)
    for sigma in range(1, small + 1):
        bound = min_attainable_pvalue(sigma, n, n_prime, tail)
        if bound <= alpha:
            return sigma
        if math.isclose(bound, alpha, rel_tol=1e-9):
            top, bottom = alpha.as_integer_ratio()
            lhs = math.comb(small, sigma) * (2 if tail == "two" else 1) * bottom
            rhs = top * math.comb(n + n_prime, sigma)
            if lhs <= rhs:
                return sigma
    return None
