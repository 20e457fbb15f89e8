import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sigmine.stats import (
    min_attainable_pvalue,
    min_testable_frequency,
    pvalues_over_support,
)

approx = pytest.approx


@st.composite
def margin_setup(draw):
    n = draw(st.integers(1, 10))
    n_prime = draw(st.integers(1, 14))
    f = draw(st.integers(0, n + n_prime))
    return n, n_prime, f


def pvalue(x, f, n, n_prime, tail="two"):
    lo, row = pvalues_over_support(f, n, n_prime, tail)
    return row[x - lo]


def test_fisher_tails_worked_table():
    assert pvalue(3, 3, 4, 4, "right") == approx(1 / 14, rel=1e-12)
    assert pvalue(3, 3, 4, 4, "left") == approx(1.0, rel=1e-12)
    assert pvalue(3, 3, 4, 4, "two") == approx(1 / 7, rel=1e-12)


def test_two_sided_caps_at_one():
    assert pvalue(1, 2, 2, 2, "two") == 1.0


def test_result_picks_requested_tail():
    # x = 3 of the four class 1 graphs at margin 3 is enriched in class 1
    # whichever class is larger, so its left and right rows swap with it
    for n, n_prime in ((4, 4), (4, 2), (4, 9)):
        for tail in ("left", "right", "two"):
            exact = oracles.fisher(3, 3, n, n_prime, tail)
            assert pvalue(3, 3, n, n_prime, tail) == approx(float(exact), rel=1e-12)
    assert pvalue(3, 3, 4, 2, "right") < pvalue(3, 3, 4, 2, "left") == 1.0


def test_table_validation():
    with pytest.raises(ValueError):
        pvalues_over_support(11, 5, 5)
    with pytest.raises(ValueError):
        pvalues_over_support(-1, 5, 5)
    with pytest.raises(ValueError):
        pvalues_over_support(0, -1, 5)
    with pytest.raises(ValueError):
        min_attainable_pvalue(2, 0, 5)


def test_rows_are_read_only_floats():
    # the cache shares each table with every caller
    for n, n_prime in ((4, 7), (7, 4)):
        for tail in ("left", "right"):
            lo, row = pvalues_over_support(3, n, n_prime, tail)
            assert row.dtype == np.float64
            with pytest.raises(ValueError):
                row[0] = 0.5
    assert type(min_attainable_pvalue(3, 4, 7, "left")) is float
    assert type(min_attainable_pvalue(3, 7, 4, "two")) is float


def test_bad_tail_rejected():
    with pytest.raises(ValueError):
        pvalues_over_support(2, 2, 2, "upper")
    with pytest.raises(ValueError):
        pvalues_over_support(2, 3, 2, "both")
    with pytest.raises(ValueError):
        min_attainable_pvalue(2, 2, 2, "lower")


def test_min_attainable_frozen_values():
    assert min_attainable_pvalue(0, 4, 4, "right") == 1.0
    assert min_attainable_pvalue(0, 4, 4, "two") == 1.0
    assert min_attainable_pvalue(3, 4, 4, "two") == approx(1 / 7, rel=1e-12)
    # beyond f = n the bound plateaus at the f = n value
    assert min_attainable_pvalue(6, 4, 4, "right") == approx(1 / 70, rel=1e-12)
    assert min_attainable_pvalue(6, 4, 4, "left") == approx(1 / 70, rel=1e-12)
    assert min_attainable_pvalue(4, 4, 4, "right") == min_attainable_pvalue(8, 4, 4, "right")


def test_min_testable_frequency_cases():
    assert min_testable_frequency(0.05, 5, 5, "two") == 4
    assert min_testable_frequency(0.05, 1, 1, "two") is None
    assert min_testable_frequency(0.05, 1, 1, "right") is None


def test_min_testable_strict_at_exact_threshold():
    # a bound equal to alpha qualifies: the comparison is bound <= alpha
    bound = min_attainable_pvalue(3, 4, 4, "two")
    assert min_testable_frequency(bound, 4, 4, "two") == 3


def test_alpha_domain_checked():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            min_testable_frequency(bad, 5, 5)


@given(margin_setup())
def test_tail_complement_identity(setup):
    # P(X <= x) + P(X >= x + 1) = 1 over the whole support
    n, n_prime, f = setup
    _, left = pvalues_over_support(f, n, n_prime, "left")
    _, right = pvalues_over_support(f, n, n_prime, "right")
    for i in range(len(left) - 1):
        assert left[i] + right[i + 1] == approx(1.0, rel=1e-12)
    assert left[-1] == approx(1.0, rel=1e-12) and right[0] == approx(1.0, rel=1e-12)


@given(margin_setup(), st.data())
def test_mass_and_tails_match_exact_oracle(setup, data):
    n, n_prime, f = setup
    lo, hi = max(0, f - n_prime), min(f, n)
    x = data.draw(st.integers(lo, hi))
    for tail in ("left", "right", "two"):
        exact = oracles.fisher(x, f, n, n_prime, tail)
        assert pvalue(x, f, n, n_prime, tail) == approx(float(exact), rel=1e-11)
    # each tail's first entry is its end mass alone
    assert pvalue(lo, f, n, n_prime, "left") == approx(
        float(oracles.mass(lo, f, n, n_prime)), rel=1e-11
    )
    assert pvalue(hi, f, n, n_prime, "right") == approx(
        float(oracles.mass(hi, f, n, n_prime)), rel=1e-11
    )


@given(margin_setup())
def test_pvalue_never_below_attainable_bound(setup):
    n, n_prime, f = setup
    for tail in ("left", "right", "two"):
        _, row = pvalues_over_support(f, n, n_prime, tail)
        # float-level >=, not approximate: testability pruning relies on it
        assert row.min() >= min_attainable_pvalue(f, n, n_prime, tail)


@given(st.integers(1, 12), st.data())
def test_attainable_bound_monotone_in_frequency(n, data):
    n_prime = data.draw(st.integers(1, 16))
    for tail in ("right", "two"):
        bounds = [min_attainable_pvalue(f, n, n_prime, tail) for f in range(n + n_prime + 1)]
        for a, b in zip(bounds, bounds[1:]):
            assert b <= a


@given(margin_setup())
def test_pvalues_over_support_match_pointwise(setup):
    # every attainable x of the row against rational arithmetic
    n, n_prime, f = setup
    for tail in ("left", "right", "two"):
        lo, pvals = pvalues_over_support(f, n, n_prime, tail)
        assert (lo, len(pvals)) == (max(0, f - n_prime), min(f, n) - lo + 1)
        for i, p in enumerate(pvals):
            exact = oracles.fisher(lo + i, f, n, n_prime, tail)
            assert p == approx(float(exact), rel=1e-11)


@given(st.integers(1, 10), st.data(), st.sampled_from([0.01, 0.05, 0.123, 0.31]))
def test_min_testable_matches_exact_oracle(n, data, alpha):
    n_prime = data.draw(st.integers(1, 14))
    for tail in ("left", "right", "two"):
        assert min_testable_frequency(alpha, n, n_prime, tail) == oracles.min_testable(
            alpha, n, n_prime, tail
        )


def test_min_testable_breaks_float_ties_exactly():
    # psi(2) at n = 3, n' = 13 is exactly 1/20, which lies below the double
    # nearest 0.05 although its float equals that double; sweep the whole
    # domain of the property test above so no such tie is left to chance
    for n in range(1, 11):
        for n_prime in range(1, 15):
            for alpha in (0.01, 0.05, 0.123, 0.31):
                for tail in ("left", "right", "two"):
                    assert min_testable_frequency(
                        alpha, n, n_prime, tail
                    ) == oracles.min_testable(alpha, n, n_prime, tail)


@settings(deadline=None)
@given(st.sampled_from([480, 500, 513, 560, 650, 800]))
def test_large_margin_tails_stay_accurate(x):
    # margins in the tens of thousands: relative error must hold at 1e-10
    n = n_prime = 50_000
    f = 1_000
    for tail in ("left", "right", "two"):
        want = oracles.fisher(x, f, n, n_prime, tail)
        assert pvalue(x, f, n, n_prime, tail) == approx(float(want), rel=1e-10)


def test_large_margin_attainable_bound_accurate():
    got = min_attainable_pvalue(500, 2_000, 8_000, "right")
    want = float(oracles.min_attainable(500, 2_000, 8_000, "right"))
    assert got == approx(want, rel=1e-10)
