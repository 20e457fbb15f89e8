"""Root-frequency search and the significance screen built on top of it.

The root frequency is the smallest support threshold sigma at which the number
of frequent patterns fits inside the testability budget alpha / psi(sigma),
where psi is the frequency-indexed lower bound on attainable p-values. The
predicate "count fits the budget" is monotone in sigma: raising sigma can only
shrink the count and grow the budget. Five search strategies exploit that
monotonicity differently but must return identical results. The budgeted ones
probe with hard pattern budgets so that oversized mining runs abort early; the
default, ``dynamic``, mines once and raises its own threshold as it goes.

Because psi plateaus once sigma exceeds the smaller class size n, the root can
lie above n on degenerate inputs; every strategy escalates upward past n in
that corner instead of assuming the answer lives in [sigma_min, n].
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Literal, Sequence

from .graphs import GraphDatabase
from .mining import MinerConfig, MiningOutcome, Pattern, code_string, mine
from .stats import (
    ContingencyTable,
    TailMode,
    fisher_pvalue,
    min_attainable_pvalue,
    min_testable_frequency,
)

Strategy = Literal["dynamic", "onepass", "decremental", "incremental", "bisection"]

STRATEGIES = ("dynamic", "onepass", "decremental", "incremental", "bisection")


@dataclass(frozen=True)
class TraceEntry:
    """One mining invocation: threshold, budget given, outcome, cost."""

    sigma: int
    budget: int | None
    status: str
    emitted: int
    millis: float


@dataclass(frozen=True)
class RootSearchResult:
    """Outcome of a root-frequency search.

    status "no_testable" means no frequency up to n clears alpha; the numeric
    fields are then None and ``testable`` is empty. ``root_budget`` is
    alpha / psi(root_frequency), the hypothesis budget at the root; the
    testable patterns are exactly those with frequency >= root_frequency.
    """

    status: Literal["ok", "no_testable"]
    min_testable_frequency: int | None
    root_frequency: int | None
    root_budget: float | None
    testable: tuple[Pattern, ...]
    fsm_invocations: int
    patterns_expanded: int
    wall_time_s: float
    trace: tuple[TraceEntry, ...]


@dataclass(frozen=True)
class SignificanceRecord:
    pattern: Pattern
    p_value: float
    min_p: float
    corrected_threshold: float
    significant: bool


def count_m_of_k(
    frequencies: Iterable[int],
    k: float,
    alpha: float,
    n: int,
    n_prime: int,
    tail: TailMode = "two",
) -> int:
    """Number of patterns whose attainable-p bound clears the level alpha / k.

    Monotone non-increasing in k. The frequencies are the pattern multiset
    under consideration; class sizes and tail fix the bound function.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    threshold = alpha / k
    return sum(
        1 for f in frequencies if min_attainable_pvalue(f, n, n_prime, tail) <= threshold
    )


def _int_budget(alpha: float, min_p: float) -> int | None:
    """floor(alpha / min_p) as the largest admissible pattern count.

    None means unlimited (the bound underflowed to zero, so any count fits).
    """
    if min_p <= 0.0:
        return None
    ratio = alpha / min_p
    if not math.isfinite(ratio):
        return None
    return math.floor(ratio)


class _Session:
    """Shared bookkeeping for one search: counts, trace, timing."""

    def __init__(self, db: GraphDatabase, alpha: float, config: MinerConfig, tail: TailMode):
        self.db = db
        self.alpha = alpha
        self.config = config
        self.tail = db.internal_tail(tail)
        self.invocations = 0
        self.expanded = 0
        self.trace: list[TraceEntry] = []
        self.started = time.perf_counter()

    def bound(self, sigma: int) -> float:
        return min_attainable_pvalue(sigma, self.db.n, self.db.n_prime, self.tail)

    def budget(self, sigma: int) -> int | None:
        return _int_budget(self.alpha, self.bound(sigma))

    def mine_at(
        self,
        sigma: int,
        pattern_budget: int | None,
        on_emit: Callable[[int], int] | None = None,
    ) -> MiningOutcome:
        config = replace(
            self.config, min_frequency=sigma, pattern_budget=pattern_budget
        )
        t0 = time.perf_counter()
        outcome = mine(self.db, config, on_emit=on_emit)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        self.invocations += 1
        self.expanded += outcome.emitted_count
        self.trace.append(
            TraceEntry(sigma, pattern_budget, outcome.status, outcome.emitted_count, elapsed_ms)
        )
        return outcome

    def fits(self, count: int, sigma: int) -> bool:
        budget = self.budget(sigma)
        return budget is None or count <= budget

    def no_testable(self) -> RootSearchResult:
        return RootSearchResult(
            status="no_testable",
            min_testable_frequency=None,
            root_frequency=None,
            root_budget=None,
            testable=(),
            fsm_invocations=self.invocations,
            patterns_expanded=self.expanded,
            wall_time_s=time.perf_counter() - self.started,
            trace=tuple(self.trace),
        )

    def found(
        self, sigma_min: int, sigma_rt: int, testable: Sequence[Pattern]
    ) -> RootSearchResult:
        bound = self.bound(sigma_rt)
        return RootSearchResult(
            status="ok",
            min_testable_frequency=sigma_min,
            root_frequency=sigma_rt,
            root_budget=(self.alpha / bound) if bound > 0.0 else math.inf,
            testable=tuple(testable),
            fsm_invocations=self.invocations,
            patterns_expanded=self.expanded,
            wall_time_s=time.perf_counter() - self.started,
            trace=tuple(self.trace),
        )


def _suffix_counter(patterns: Sequence[Pattern]) -> Callable[[int], int]:
    freqs = sorted(p.frequency for p in patterns)

    def count_at(sigma: int) -> int:
        return len(freqs) - bisect_left(freqs, sigma)

    return count_at


def _scan_up(session: _Session, sigma: int, patterns: Sequence[Pattern], sigma_min: int):
    """Walk sigma upward over an already-mined multiset until the count fits.

    Requires ``patterns`` to be complete for frequencies >= sigma. Terminates
    because the count reaches zero once sigma passes the largest frequency.
    """
    count_at = _suffix_counter(patterns)
    while not session.fits(count_at(sigma), sigma):
        sigma += 1
    return session.found(sigma_min, sigma, [p for p in patterns if p.frequency >= sigma])


def find_root_dynamic(
    db: GraphDatabase, alpha: float, config: MinerConfig, tail: TailMode = "two"
) -> RootSearchResult:
    """Mine once from the minimum testable frequency, raising sigma as it goes.

    A histogram of emitted frequencies gives the count at the live sigma.
    While that count overflows the budget at sigma, sigma is infeasible: the
    patterns proving it exist, and raising sigma only drops patterns, so every
    sigma passed lies below the root. The miner prunes below the live sigma,
    which loses nothing at or above the root because support is anti-monotone.
    The final sigma is therefore the root and the patterns kept are the
    testable set. Above n the budget is flat and the same loop climbs on.
    """
    session = _Session(db, alpha, config, tail)
    sigma_min = min_testable_frequency(alpha, db.n, db.n_prime, session.tail)
    if sigma_min is None:
        return session.no_testable()
    histogram: Counter[int] = Counter()
    sigma, count, budget = sigma_min, 0, session.budget(sigma_min)

    def raise_sigma(frequency: int) -> int:
        nonlocal sigma, count, budget
        # the miner emits nothing below the live sigma
        histogram[frequency] += 1
        count += 1
        while budget is not None and count > budget:
            count -= histogram.pop(sigma, 0)
            sigma += 1
            budget = session.budget(sigma)
        return sigma

    outcome = session.mine_at(sigma_min, None, raise_sigma)
    return session.found(sigma_min, sigma, outcome.patterns)


def find_root_onepass(
    db: GraphDatabase, alpha: float, config: MinerConfig, tail: TailMode = "two"
) -> RootSearchResult:
    """Mine once at the minimum testable frequency, then scan upward."""
    session = _Session(db, alpha, config, tail)
    sigma_min = min_testable_frequency(alpha, db.n, db.n_prime, session.tail)
    if sigma_min is None:
        return session.no_testable()
    outcome = session.mine_at(sigma_min, None)
    return _scan_up(session, sigma_min, outcome.patterns, sigma_min)


def find_root_decremental(
    db: GraphDatabase, alpha: float, config: MinerConfig, tail: TailMode = "two"
) -> RootSearchResult:
    """Full mines from sigma = n downward until the budget first fails."""
    session = _Session(db, alpha, config, tail)
    sigma_min = min_testable_frequency(alpha, db.n, db.n_prime, session.tail)
    if sigma_min is None:
        return session.no_testable()
    sigma = db.n
    outcome = session.mine_at(sigma, None)
    if not session.fits(len(outcome.patterns), sigma):
        # the root lies in the plateau above n; the n-run already contains
        # every pattern it could need, so scan upward without mining again
        return _scan_up(session, sigma + 1, outcome.patterns, sigma_min)
    good_sigma, good_patterns = sigma, outcome.patterns
    while sigma > sigma_min:
        sigma -= 1
        outcome = session.mine_at(sigma, None)
        if not session.fits(len(outcome.patterns), sigma):
            break
        good_sigma, good_patterns = sigma, outcome.patterns
    return session.found(sigma_min, good_sigma, good_patterns)


def find_root_incremental(
    db: GraphDatabase, alpha: float, config: MinerConfig, tail: TailMode = "two"
) -> RootSearchResult:
    """Budgeted probes from sigma_min upward; first completed run wins.

    Exactly one mining run completes (the final one); every earlier probe is
    aborted by its pattern budget.
    """
    session = _Session(db, alpha, config, tail)
    sigma_min = min_testable_frequency(alpha, db.n, db.n_prime, session.tail)
    if sigma_min is None:
        return session.no_testable()
    sigma = sigma_min
    while True:
        outcome = session.mine_at(sigma, session.budget(sigma))
        if outcome.status == "completed":
            return session.found(sigma_min, sigma, outcome.patterns)
        sigma += 1


def find_root_bisection(
    db: GraphDatabase, alpha: float, config: MinerConfig, tail: TailMode = "two"
) -> RootSearchResult:
    """Bisect [sigma_min, n] with memoized budgeted probes.

    A terminated probe moves the lower bound, a completed one the upper bound.
    After the interval closes, unprobed endpoints are probed directly; if even
    sigma = n fails, the search escalates above n where the budget is flat.
    """
    session = _Session(db, alpha, config, tail)
    sigma_min = min_testable_frequency(alpha, db.n, db.n_prime, session.tail)
    if sigma_min is None:
        return session.no_testable()

    memo: dict[int, MiningOutcome] = {}

    def probe(sigma: int) -> MiningOutcome:
        if sigma not in memo:
            memo[sigma] = session.mine_at(sigma, session.budget(sigma))
        return memo[sigma]

    lo, hi = sigma_min, db.n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid).status == "completed":
            hi = mid
        else:
            lo = mid
    low_probe = probe(lo)
    if low_probe.status == "completed":
        return session.found(sigma_min, lo, low_probe.patterns)
    sigma = hi
    while True:
        outcome = probe(sigma)
        if outcome.status == "completed":
            return session.found(sigma_min, sigma, outcome.patterns)
        sigma += 1


_FINDERS: dict[str, Callable[..., RootSearchResult]] = {
    "dynamic": find_root_dynamic,
    "onepass": find_root_onepass,
    "decremental": find_root_decremental,
    "incremental": find_root_incremental,
    "bisection": find_root_bisection,
}


def find_root(
    db: GraphDatabase,
    alpha: float,
    config: MinerConfig,
    tail: TailMode = "two",
    strategy: Strategy = "dynamic",
) -> RootSearchResult:
    """Dispatch to one of the five interchangeable strategies."""
    try:
        finder = _FINDERS[strategy]
    except KeyError:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}") from None
    return finder(db, alpha, config, tail)


def score_patterns(
    patterns: Sequence[Pattern],
    db: GraphDatabase,
    alpha: float,
    tail: TailMode = "two",
    correction_factor: float = 1.0,
) -> tuple[SignificanceRecord, ...]:
    """Exact-test each pattern against alpha / correction_factor.

    Significance is a strict comparison. Records are sorted by ascending
    p-value with ties broken by the pattern's code string, so output order is
    reproducible across runs and strategies.
    """
    if correction_factor < 1.0:
        raise ValueError(f"correction_factor must be >= 1, got {correction_factor}")
    internal_tail = db.internal_tail(tail)
    threshold = alpha / correction_factor
    records = []
    for pattern in patterns:
        table = ContingencyTable(
            x=pattern.x, x_prime=pattern.x_prime, n=db.n, n_prime=db.n_prime
        )
        p = fisher_pvalue(table, internal_tail).pvalue
        min_p = min_attainable_pvalue(pattern.frequency, db.n, db.n_prime, internal_tail)
        records.append(
            SignificanceRecord(
                pattern=pattern,
                p_value=p,
                min_p=min_p,
                corrected_threshold=threshold,
                significant=p < threshold,
            )
        )
    records.sort(key=lambda r: (r.p_value, code_string(r.pattern.code, db)))
    return tuple(records)


def significant_set(
    result: RootSearchResult,
    db: GraphDatabase,
    alpha: float,
    tail: TailMode = "two",
    correction_factor: float = 1.0,
) -> tuple[SignificanceRecord, ...]:
    """Score the testable set of a finished root search."""
    return score_patterns(result.testable, db, alpha, tail, correction_factor)
