"""Root-frequency search and the significance screen built on top of it.

The root frequency is the smallest support threshold sigma at which the number
of frequent patterns fits inside the testability budget alpha / psi(sigma),
where psi is the frequency-indexed lower bound on attainable p-values. The
predicate "count fits the budget" is monotone in sigma: raising sigma can only
shrink the count and grow the budget.

``find_root`` and ``full_family`` are the two ways in. ``find_root`` finds the
minimum testable frequency, hands it to a strategy, and assembles the result.
A strategy is a policy for which mining runs to make; five exploit the
monotonicity differently but must return identical results. ``full_family``
is bonferroni-full's family. Every mining run goes through ``_run``, whose one
``on_emit`` hook carries the pattern budget of the probes, the sigma raising
of ``dynamic`` and a deadline, so the miner knows neither budget nor clock.

A family travels as the mining run's ``PatternStore``: ``dynamic`` and the
scan up pick the root's patterns from its frequency column, and
``score_patterns`` reads one p-value row per margin, gathers every pattern's
p-value from it and returns ``SignificanceRecords``, the scored columns in
report order.

Because psi plateaus once sigma exceeds the smaller class size m, the root can
lie above m on degenerate inputs; every strategy escalates upward past m in
that corner instead of assuming the answer lives in [sigma_min, m]. Class
sizes and tails are the input's; only ``stats`` knows which class is smaller.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from .graphs import GraphDatabase
from .mining import MinerConfig, Pattern, PatternStore, code_string, mine
from .stats import (
    TailMode,
    _check_tail,
    min_attainable_pvalue,
    min_testable_frequency,
    pvalues_over_support,
)

Strategy = Literal["dynamic", "onepass", "decremental", "incremental", "bisection"]


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

    status "no_testable" means no frequency up to m clears alpha; the numeric
    fields are then None and ``testable`` is empty. The testable patterns are
    exactly those with frequency >= root_frequency, and at most
    alpha / psi(root_frequency) of them, held as one ``PatternStore`` in
    emission order. ``trace`` records every mining run with its cost; the
    run and emission counts are read from it.
    """

    status: Literal["ok", "no_testable"]
    min_testable_frequency: int | None
    root_frequency: int | None
    testable: PatternStore
    trace: tuple[TraceEntry, ...]

    @property
    def fsm_invocations(self) -> int:
        return len(self.trace)

    @property
    def patterns_expanded(self) -> int:
        return sum(e.emitted for e in self.trace)


@dataclass(frozen=True)
class SignificanceRecord:
    """One scored pattern; ``code_string`` is ``code_string(pattern.code, db)``."""

    pattern: Pattern
    p_value: float
    min_p: float
    significant: bool
    code_string: str


class SignificanceRecords(Sequence[SignificanceRecord]):
    """Scored patterns in report order, held as columns.

    ``patterns`` is the scored ``PatternStore`` and ``order`` an int array
    of its rows in report order; ``p_values``, ``min_p`` and ``significant``
    are read-only arrays and ``code_strings`` a tuple, all in report order.
    Indexing and iteration give ``SignificanceRecord`` items.

    ``SignificanceRecords(records)`` converts any sequence of records, kept
    in the order given, their patterns through ``PatternStore``; records
    passed in as a ``SignificanceRecords`` share its columns. Compared by
    identity.
    """

    __slots__ = ("patterns", "order", "p_values", "min_p", "significant", "code_strings")

    def __init__(self, records: Iterable[SignificanceRecord] = ()):
        if isinstance(records, SignificanceRecords):
            self._set(records.patterns, records.order, records.p_values, records.min_p,
                      records.significant, records.code_strings)
            return
        records = tuple(records)
        self._set(
            PatternStore(r.pattern for r in records),
            np.arange(len(records)),
            np.array([r.p_value for r in records], float),
            np.array([r.min_p for r in records], float),
            np.array([r.significant for r in records], bool),
            tuple(r.code_string for r in records),
        )

    @classmethod
    def _of(cls, *columns) -> SignificanceRecords:
        records = cls.__new__(cls)
        records._set(*columns)
        return records

    def _set(self, patterns, order, p_values, min_p, significant, code_strings) -> None:
        for column in (order, p_values, min_p, significant):
            column.flags.writeable = False
        self.patterns, self.order, self.code_strings = patterns, order, code_strings
        self.p_values, self.min_p, self.significant = p_values, min_p, significant

    def __len__(self) -> int:
        return len(self.code_strings)

    def __getitem__(self, index: int) -> SignificanceRecord:
        return SignificanceRecord(
            self.patterns[int(self.order[index])],
            float(self.p_values[index]),
            float(self.min_p[index]),
            bool(self.significant[index]),
            self.code_strings[index],
        )


class _Stopped(Exception):
    """A run emitted one pattern more than its budget, or passed its deadline."""


def _run(
    db: GraphDatabase, config: MinerConfig, sigma: int, budget: int | None = None,
    raise_sigma: Callable[[int], int] | None = None, deadline: float | None = None,
) -> tuple[PatternStore | None, int]:
    """Mine at ``sigma``: the patterns (None if stopped) and the emission count.

    The run stops at its ``budget + 1``-th emission or at the first one past
    the ``time.monotonic()`` ``deadline``. ``raise_sigma`` sees the support of
    every emission and returns the threshold from then on.
    """
    emitted = 0

    def on_emit(frequency: int) -> int:
        nonlocal emitted
        emitted += 1
        if budget is not None and emitted > budget:
            raise _Stopped
        if deadline is not None and time.monotonic() > deadline:
            raise _Stopped
        return sigma if raise_sigma is None else raise_sigma(frequency)

    try:
        return mine(db, replace(config, min_frequency=sigma), on_emit).patterns, emitted
    except _Stopped:
        return None, emitted


class _Session:
    """What one search shares between its mining runs: the trace."""

    def __init__(self, db: GraphDatabase, alpha: float, config: MinerConfig, tail: TailMode):
        self.db = db
        self.alpha = alpha
        self.config = config
        self.tail = tail
        self.trace: list[TraceEntry] = []

    def budget(self, sigma: int) -> int | None:
        """floor(alpha / psi(sigma)), the largest admissible pattern count.

        None means unlimited (the bound underflowed to zero, so any count fits).
        """
        min_p = min_attainable_pvalue(sigma, self.db.n, self.db.n_prime, self.tail)
        if min_p <= 0.0:
            return None
        ratio = self.alpha / min_p
        return math.floor(ratio) if math.isfinite(ratio) else None

    def fits(self, count: int, sigma: int) -> bool:
        budget = self.budget(sigma)
        return budget is None or count <= budget

    def mine_at(
        self, sigma: int, budget: int | None = None, raise_sigma: Callable[[int], int] | None = None
    ) -> PatternStore | None:
        """``_run`` at ``sigma``, recorded in the trace; None when the budget tripped."""
        t0 = time.perf_counter()
        patterns, emitted = _run(self.db, self.config, sigma, budget, raise_sigma)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        status = "completed" if patterns is not None else "terminated_early"
        self.trace.append(TraceEntry(sigma, budget, status, emitted, elapsed_ms))
        return patterns


def _scan_up(session: _Session, sigma: int, patterns: PatternStore):
    """Walk sigma upward over an already-mined store until the count fits.

    Requires ``patterns`` to be complete for frequencies >= sigma, and uses
    it up (``PatternStore._select``). Terminates because the count reaches
    zero once sigma passes the largest frequency.
    """
    frequency = patterns.frequency
    # at_least[f] counts the patterns of frequency f or more
    at_least = np.bincount(frequency)[::-1].cumsum()[::-1].tolist()
    while sigma < len(at_least) and not session.fits(at_least[sigma], sigma):
        sigma += 1
    return sigma, patterns._select(frequency >= sigma)


def _dynamic(session: _Session, sigma_min: int):
    """Mine once from the minimum testable frequency, raising sigma as it goes.

    A histogram of emitted frequencies gives the count at the live sigma.
    While that count overflows the budget at sigma, sigma is infeasible: the
    patterns proving it exist, and raising sigma only drops patterns, so every
    sigma passed lies below the root. The miner prunes below the live sigma,
    which loses nothing at or above the root because support is anti-monotone.
    The final sigma is therefore the root. The raising loop leaves the count
    there within budget, so no scan up is needed: the run's patterns at or
    above it are the testable set. Above m the budget is flat and the same
    loop climbs on.
    """
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

    patterns = session.mine_at(sigma_min, raise_sigma=raise_sigma)
    return sigma, patterns._select(patterns.frequency >= sigma)


def _onepass(session: _Session, sigma_min: int):
    """Mine once at the minimum testable frequency, then scan upward."""
    return _scan_up(session, sigma_min, session.mine_at(sigma_min))


def _decremental(session: _Session, sigma_min: int):
    """Full mines from the smaller class size m downward until the budget first fails."""
    sigma = min(session.db.n, session.db.n_prime)
    patterns = session.mine_at(sigma)
    if not session.fits(len(patterns), sigma):
        # the root lies in the plateau above m; the m-run already contains
        # every pattern it could need, so scan upward without mining again
        return _scan_up(session, sigma + 1, patterns)
    good = sigma, patterns
    while sigma > sigma_min:
        sigma -= 1
        patterns = session.mine_at(sigma)
        if not session.fits(len(patterns), sigma):
            break
        good = sigma, patterns
    return good


def _incremental(session: _Session, sigma_min: int):
    """Budgeted probes from sigma_min upward; first completed run wins.

    Exactly one mining run completes (the final one); every earlier probe is
    aborted by its pattern budget.
    """
    sigma = sigma_min
    while (patterns := session.mine_at(sigma, session.budget(sigma))) is None:
        sigma += 1
    return sigma, patterns


def _bisection(session: _Session, sigma_min: int):
    """Bisect [sigma_min, m], m the smaller class size, with memoized budgeted probes.

    A terminated probe moves the lower bound, a completed one the upper bound.
    After the interval closes, unprobed endpoints are probed directly; if even
    sigma = m fails, the search escalates above m where the budget is flat.
    """
    memo: dict[int, PatternStore | None] = {}

    def probe(sigma: int) -> PatternStore | None:
        if sigma not in memo:
            memo[sigma] = session.mine_at(sigma, session.budget(sigma))
        return memo[sigma]

    lo, hi = sigma_min, min(session.db.n, session.db.n_prime)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid) is None:
            lo = mid
        else:
            hi = mid
    sigma = lo if probe(lo) is not None else hi
    while probe(sigma) is None:
        sigma += 1
    return sigma, probe(sigma)


# Each policy takes the session and sigma_min and returns the root frequency
# with the patterns at or above it.
_FINDERS: dict[str, Callable[[_Session, int], tuple[int, PatternStore]]] = {
    "dynamic": _dynamic,
    "onepass": _onepass,
    "decremental": _decremental,
    "incremental": _incremental,
    "bisection": _bisection,
}

STRATEGIES = tuple(_FINDERS)


def find_root(
    db: GraphDatabase,
    alpha: float,
    config: MinerConfig,
    tail: TailMode = "two",
    strategy: Strategy = "dynamic",
) -> RootSearchResult:
    """Search the root frequency with one of the interchangeable strategies.

    ``config`` sets the miner's vertex cap and singleton rule; its
    ``min_frequency`` is replaced by each run's threshold. Every strategy
    returns the same root and testable set; they differ only in the mining
    runs recorded in ``trace``.
    """
    try:
        policy = _FINDERS[strategy]
    except KeyError:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}") from None
    session = _Session(db, alpha, config, tail)
    sigma_min = min_testable_frequency(alpha, db.n, db.n_prime, session.tail)
    sigma_rt, testable = None, PatternStore()
    if sigma_min is not None:
        sigma_rt, testable = policy(session, sigma_min)
    return RootSearchResult(
        status="ok" if sigma_min is not None else "no_testable",
        min_testable_frequency=sigma_min,
        root_frequency=sigma_rt,
        testable=testable,
        trace=tuple(session.trace),
    )


def full_family(
    db: GraphDatabase, config: MinerConfig, timeout: float | None = None
) -> PatternStore | None:
    """Every pattern with support >= 2, bonferroni-full's family; None past ``timeout``.

    ``config`` sets the vertex cap and singleton rule, as for ``find_root``.
    The clock is read at each emission. No trace records this run.
    """
    # NaN compares false with everything, so `not > 0` rejects it too
    if timeout is not None and not timeout > 0:
        raise ValueError(f"timeout must be positive or None, got {timeout}")
    deadline = None if timeout is None else time.monotonic() + timeout
    return _run(db, config, 2, deadline=deadline)[0]


def score_patterns(
    patterns: Sequence[Pattern],
    db: GraphDatabase,
    alpha: float,
    tail: TailMode = "two",
    correction_factor: float = 1.0,
) -> SignificanceRecords:
    """Exact-test each pattern against alpha / correction_factor.

    Significance is a strict comparison. Records are sorted by ascending
    p-value with ties broken by the pattern's code string, so output order is
    reproducible across runs and strategies. The margins are read in
    ascending frequency, one row of p-values and one psi each, as the
    permutation stage reads them, and every pattern's p-value is gathered
    from its margin's row.
    """
    # checked before the family is looked at: an empty one reads no table
    _check_tail(tail)
    # NaN compares false with everything, so these tests reject it too
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not correction_factor >= 1.0:
        raise ValueError(f"correction_factor must be >= 1, got {correction_factor}")
    threshold = alpha / correction_factor
    store = PatternStore(patterns)
    frequency, ones = store.frequency, store.x
    by_frequency = np.argsort(frequency, kind="stable")
    margins, firsts = np.unique(frequency[by_frequency], return_index=True)
    p_values = np.empty(len(store))
    min_p = np.empty(len(store))
    for f, rows in zip(margins.tolist(), np.split(by_frequency, firsts[1:])):
        lo, row = pvalues_over_support(f, db.n, db.n_prime, tail)
        i = ones[rows] - lo
        bad = np.flatnonzero((i < 0) | (i >= len(row)))
        if bad.size:
            r = rows[bad[0]]
            raise ValueError(
                f"x={ones[r]}, x_prime={frequency[r] - ones[r]} do not fit the class sizes"
            )
        p_values[rows] = row[i]
        min_p[rows] = min_attainable_pvalue(f, db.n, db.n_prime, tail)
    codes = [code_string(code, db) for code in store.codes]
    keys = list(zip(p_values.tolist(), codes))
    # ties in both keep ascending frequency
    order = np.array(sorted(by_frequency.tolist(), key=keys.__getitem__), np.intp)
    p_values = p_values[order]
    return SignificanceRecords._of(
        store, order, p_values, min_p[order], p_values < threshold,
        tuple(codes[i] for i in order.tolist()),
    )
