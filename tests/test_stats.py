import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sigmine.stats import (
    ContingencyTable,
    fisher_pvalue,
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


def test_fisher_tails_worked_table():
    r = fisher_pvalue(ContingencyTable(x=3, x_prime=0, n=4, n_prime=4))
    assert r.q_at_x == approx(4 / 56, rel=1e-12)
    assert r.p_right == approx(1 / 14, rel=1e-12)
    assert r.p_left == approx(1.0, rel=1e-12)
    assert r.p_two == approx(1 / 7, rel=1e-12)


def test_two_sided_caps_at_one():
    r = fisher_pvalue(ContingencyTable(x=1, x_prime=1, n=2, n_prime=2))
    assert r.p_two == 1.0


def test_result_picks_requested_tail():
    t = ContingencyTable(x=3, x_prime=0, n=4, n_prime=4)
    assert fisher_pvalue(t, "right").pvalue == approx(1 / 14, rel=1e-12)
    assert fisher_pvalue(t, "left").pvalue == approx(1.0, rel=1e-12)
    assert fisher_pvalue(t, "two").pvalue == approx(1 / 7, rel=1e-12)


def test_table_validation():
    with pytest.raises(ValueError):
        ContingencyTable(x=6, x_prime=0, n=5, n_prime=5)
    with pytest.raises(ValueError):
        ContingencyTable(x=0, x_prime=-1, n=5, n_prime=5)
    with pytest.raises(ValueError):
        ContingencyTable(x=1.0, x_prime=0, n=5, n_prime=5)
    with pytest.raises(ValueError):
        ContingencyTable(x=0, x_prime=0, n=0, n_prime=5)


def test_bad_tail_rejected():
    t = ContingencyTable(x=1, x_prime=0, n=2, n_prime=2)
    with pytest.raises(ValueError):
        fisher_pvalue(t, "both")
    with pytest.raises(ValueError):
        pvalues_over_support(2, 2, 2, "upper")
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
def test_masses_sum_to_one(setup):
    n, n_prime, f = setup
    lo, hi = max(0, f - n_prime), min(f, n)
    total = math.fsum(
        fisher_pvalue(ContingencyTable(x=x, x_prime=f - x, n=n, n_prime=n_prime)).q_at_x
        for x in range(lo, hi + 1)
    )
    assert total == approx(1.0, rel=1e-12)


@given(margin_setup(), st.data())
def test_mass_and_tails_match_exact_oracle(setup, data):
    n, n_prime, f = setup
    lo, hi = max(0, f - n_prime), min(f, n)
    x = data.draw(st.integers(lo, hi))
    r = fisher_pvalue(ContingencyTable(x=x, x_prime=f - x, n=n, n_prime=n_prime))
    assert r.q_at_x == approx(float(oracles.mass(x, f, n, n_prime)), rel=1e-11)
    assert r.p_left == approx(float(oracles.left_tail(x, f, n, n_prime)), rel=1e-11)
    assert r.p_right == approx(float(oracles.right_tail(x, f, n, n_prime)), rel=1e-11)
    assert r.p_two == approx(float(oracles.fisher(x, f, n, n_prime, "two")), rel=1e-11)


@given(margin_setup(), st.data())
def test_tail_complement_identity(setup, data):
    n, n_prime, f = setup
    lo, hi = max(0, f - n_prime), min(f, n)
    x = data.draw(st.integers(lo, hi))
    r = fisher_pvalue(ContingencyTable(x=x, x_prime=f - x, n=n, n_prime=n_prime))
    assert r.p_left + r.p_right - r.q_at_x == approx(1.0, rel=1e-12)


@given(margin_setup(), st.data())
def test_pvalue_never_below_attainable_bound(setup, data):
    n, n_prime, f = setup
    lo, hi = max(0, f - n_prime), min(f, n)
    x = data.draw(st.integers(lo, hi))
    for tail in ("left", "right", "two"):
        r = fisher_pvalue(ContingencyTable(x=x, x_prime=f - x, n=n, n_prime=n_prime), tail)
        # float-level >=, not approximate: testability pruning relies on it
        assert r.pvalue >= min_attainable_pvalue(f, n, n_prime, tail)


@given(st.integers(1, 12), st.data())
def test_attainable_bound_monotone_in_frequency(n, data):
    n_prime = data.draw(st.integers(1, 16))
    for tail in ("right", "two"):
        bounds = [min_attainable_pvalue(f, n, n_prime, tail) for f in range(n + n_prime + 1)]
        for a, b in zip(bounds, bounds[1:]):
            assert b <= a


@given(margin_setup())
def test_pvalues_over_support_match_pointwise(setup):
    n, n_prime, f = setup
    for tail in ("left", "right", "two"):
        lo, pvals = pvalues_over_support(f, n, n_prime, tail)
        for i, p in enumerate(pvals):
            x = lo + i
            r = fisher_pvalue(ContingencyTable(x=x, x_prime=f - x, n=n, n_prime=n_prime), tail)
            assert p == r.pvalue


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
    r = fisher_pvalue(ContingencyTable(x=x, x_prime=f - x, n=n, n_prime=n_prime))
    for got, want in (
        (r.p_left, oracles.left_tail(x, f, n, n_prime)),
        (r.p_right, oracles.right_tail(x, f, n, n_prime)),
        (r.p_two, oracles.fisher(x, f, n, n_prime, "two")),
    ):
        assert got == approx(float(want), rel=1e-10)


def test_large_margin_attainable_bound_accurate():
    got = min_attainable_pvalue(500, 2_000, 8_000, "right")
    want = float(oracles.min_attainable(500, 2_000, 8_000, "right"))
    assert got == approx(want, rel=1e-10)
