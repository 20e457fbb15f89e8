"""Exact association statistics for 2x2 tables with fixed margins.

Everything here derives from the hypergeometric distribution of the class 1
count of a pattern: exact tail p-values (left, right, and doubled
two-sided), and the frequency-indexed lower bound on the attainable p-value
that drives testability pruning. All of it reads one table per margin,
built by the exact ratio recurrence; a point mass is
``fisher_pvalue(table).q_at_x``. Only the few most recent tables are cached,
so callers that read many margins read them in ascending order.

Callers pass the input's classes (``n`` and ``x`` count class 1, "right"
means enrichment in class 1), whichever is larger. Only this module knows
that the tables are built for the smaller class: when that is class 0 it
reads them at ``x_prime`` with the left and right tails exchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

TailMode = Literal["left", "right", "two"]

_TAILS = ("left", "right", "two")

_OPPOSITE = {"left": "right", "right": "left", "two": "two"}

__all__ = [
    "TailMode",
    "ContingencyTable",
    "TestResult",
    "fisher_pvalue",
    "pvalues_over_support",
    "min_attainable_pvalue",
    "min_testable_frequency",
]


@dataclass(frozen=True)
class ContingencyTable:
    """One pattern's counts: x of the n in class 1 contain it, x_prime of the n_prime in class 0."""

    x: int
    x_prime: int
    n: int
    n_prime: int

    def __post_init__(self) -> None:
        for name in ("x", "x_prime", "n", "n_prime"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n < 1 or self.n_prime < 1:
            raise ValueError("both class sizes must be at least 1")
        if not 0 <= self.x <= self.n:
            raise ValueError(f"x={self.x} outside [0, {self.n}]")
        if not 0 <= self.x_prime <= self.n_prime:
            raise ValueError(f"x_prime={self.x_prime} outside [0, {self.n_prime}]")

    @property
    def frequency(self) -> int:
        return self.x + self.x_prime


@dataclass(frozen=True)
class TestResult:
    """Point mass and tail sums for one table. ``pvalue`` picks the requested tail."""

    q_at_x: float
    p_left: float
    p_right: float
    p_two: float
    tail_used: TailMode

    @property
    def pvalue(self) -> float:
        if self.tail_used == "left":
            return self.p_left
        if self.tail_used == "right":
            return self.p_right
        return self.p_two


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
def _support_tables(
    f: int, n: int, n_prime: int
) -> tuple[int, tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Normalized masses plus left/right cumulative tails over the support of one margin.

    Masses are built by the exact ratio recurrence outward from the mode and
    normalized by their compensated sum. This keeps relative error near machine
    precision even for margins in the tens of thousands, where naive log-space
    summation loses a couple of digits.
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
    cum_left = _running_tail(masses)
    cum_right = list(reversed(_running_tail(list(reversed(masses)))))
    return lo, tuple(masses), tuple(cum_left), tuple(cum_right)


def fisher_pvalue(table: ContingencyTable, tail: TailMode = "two") -> TestResult:
    """Exact left, right, and doubled two-sided p-values for one table.

    The two-sided value is min(1, 2 * min(left, right)).
    """
    if tail not in _TAILS:
        raise ValueError(f"tail must be one of {_TAILS}, got {tail!r}")
    f = table.frequency
    if table.n <= table.n_prime:
        lo, masses, cum_left, cum_right = _support_tables(f, table.n, table.n_prime)
        i = table.x - lo
    else:
        # the tables count class 0, whose left tail is class 1's right tail
        lo, masses, cum_right, cum_left = _support_tables(f, table.n_prime, table.n)
        i = table.x_prime - lo
    p_left = cum_left[i]
    p_right = cum_right[i]
    p_two = min(1.0, 2.0 * min(p_left, p_right))
    return TestResult(masses[i], p_left, p_right, p_two, tail)


def pvalues_over_support(
    f: int, n: int, n_prime: int, tail: TailMode = "two"
) -> tuple[int, tuple[float, ...]]:
    """(lo, p-values indexed by x - lo) for every attainable x at a fixed margin.

    Used by the permutation machinery to turn each recounted x into a p-value
    with one table lookup.
    """
    if tail not in _TAILS:
        raise ValueError(f"tail must be one of {_TAILS}, got {tail!r}")
    if n > n_prime:
        # class 0's row of the opposite tail, read from x_prime = f - x down
        lo, pvals = pvalues_over_support(f, n_prime, n, _OPPOSITE[tail])
        return f - lo - len(pvals) + 1, pvals[::-1]
    lo, _, cum_left, cum_right = _support_tables(f, n, n_prime)
    if tail == "left":
        return lo, cum_left
    if tail == "right":
        return lo, cum_right
    two = tuple(min(1.0, 2.0 * min(l, r)) for l, r in zip(cum_left, cum_right))
    return lo, two


def min_attainable_pvalue(f: int, n: int, n_prime: int, tail: TailMode = "two") -> float:
    """Smallest p-value any table with margin f can reach.

    With m = min(n, n_prime), for f <= m this is the point mass of the most
    extreme table; beyond m it stays flat at the f = m value, so the bound is
    monotone non-increasing in f. Two-sided values are doubled and capped at 1.
    """
    if tail not in _TAILS:
        raise ValueError(f"tail must be one of {_TAILS}, got {tail!r}")
    if f < 0:
        raise ValueError(f"frequency must be non-negative, got {f}")
    if n < 1 or n_prime < 1:
        raise ValueError("both class sizes must be at least 1")
    small, large = sorted((n, n_prime))
    _, masses, _, _ = _support_tables(min(f, small), small, large)
    # Mathematically masses[-1] <= masses[0] since small <= large; the min
    # guards float ties so that tail sums can never round below this bound.
    one_sided = min(masses[0], masses[-1])
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
