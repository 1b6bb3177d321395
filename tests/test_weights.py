"""Weight expansions: Euclid's integer runs, their exact identities, the pairing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympstairs.weights import weight_expansion


def brute_force_expansion(a: Fraction) -> list[Fraction]:
    """Independent oracle: run the defining recurrence entry by entry.

    w1 = a - l0 < 1, w2 = 1 - l1*w1 < w1, ...; each weight is repeated as
    often as it fits into its predecessor.
    """
    flat = []
    prev, cur = a, Fraction(1)
    while cur > 0:
        while prev >= cur:
            flat.append(cur)
            prev -= cur
        prev, cur = cur, prev
    return flat


def as_fractions(w) -> list[Fraction]:
    """The flat weights w(a) that the integer runs q*w(a) stand for."""
    q = w.source.denominator
    return [Fraction(x, q) for x, mult in w.entries for _ in range(mult)]


def continued_fraction(p: int, q: int) -> list[int]:
    """Independent Euclidean continued fraction of p/q."""
    out = []
    while q:
        out.append(p // q)
        p, q = q, p - (p // q) * q
    return out


def test_expansion_of_25_over_9():
    w = weight_expansion(Fraction(25, 9))
    # q*w(25/9) for q = 9: the Euclid remainders 9, 7, 2, 1 with quotients 2, 1, 3, 2
    assert w.entries == ((9, 2), (7, 1), (2, 3), (1, 2))
    assert as_fractions(w) == brute_force_expansion(Fraction(25, 9))


def test_integer_expansion():
    w = weight_expansion(5)
    assert w.entries == ((1, 5),)
    assert weight_expansion(7).flat_length == 7


def test_8_plus_1_36():
    a = Fraction(8) + Fraction(1, 36)
    w = weight_expansion(a)
    assert as_fractions(w) == brute_force_expansion(a)
    assert [mult for _, mult in w.entries] == continued_fraction(289, 36)
    assert sum(x * x * mult for x, mult in w.entries) == 289 * 36  # sum(w^2) = a


def test_domain_error_below_one():
    with pytest.raises(ValueError):
        weight_expansion(Fraction(1, 2))


def test_identities_on_random_rationals():
    rng = random.Random(987)
    for _ in range(1000):
        q = rng.randint(1, 10**4)
        p = rng.randint(q, 100 * q)
        a = Fraction(p, q)
        w = weight_expansion(a)
        p, q = a.numerator, a.denominator
        assert all(type(x) is int and type(mult) is int for x, mult in w.entries)
        assert sum(x * x * mult for x, mult in w.entries) == p * q  # sum(w^2) = a
        assert sum(x * mult for x, mult in w.entries) == p + q - 1  # sum(w) = a + 1 - 1/q
        assert w.entries[-1][0] == 1  # the last weight is 1/q
        weights = [x for x, _ in w.entries]
        assert all(x > y for x, y in zip(weights, weights[1:]))
        assert all(x > 0 for x in weights)


def test_multiplicities_match_continued_fraction():
    rng = random.Random(55)
    for _ in range(300):
        q = rng.randint(1, 500)
        p = rng.randint(q, 60 * q)
        a = Fraction(p, q)
        assert [mult for _, mult in weight_expansion(a).entries] == continued_fraction(
            a.numerator, a.denominator
        )


def test_inner_all_ones():
    b, k = 3, 1
    n = 2 * b + 2 * k + 1
    assert weight_expansion(n).pair([1] * n) == n


def test_inner_f2_against_w8():
    m = (3,) + (2,) * 7
    assert weight_expansion(8).pair(m) == 17


def test_inner_g2_against_25_over_9():
    m = (4,) * 6 + (1,) * 5
    # oracle: the flat Fraction weights, dotted by hand
    flat = brute_force_expansion(Fraction(25, 9))
    expected = sum(mi * wi for mi, wi in zip(m, flat + [Fraction(0)] * len(m)))
    assert expected == Fraction(14)
    assert weight_expansion(Fraction(25, 9)).pair(m) == 9 * expected


def test_inner_zero_pads_both_sides():
    w = weight_expansion(Fraction(5, 2))
    assert w.pair([1]) == 2  # short m: q * 1
    long_m = [1] * (w.flat_length + 10)
    assert w.pair(long_m) == 5 + 2 - 1  # short w: q * sum(w) = p + q - 1


def test_flat_length_examples():
    assert weight_expansion(Fraction(25, 9)).flat_length == 8
    assert weight_expansion(Fraction(289, 36)).flat_length == sum(continued_fraction(289, 36))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.fractions(1, 40, max_denominator=400), st.lists(st.integers(-3, 20), max_size=120))
def test_pair_matches_the_flat_dot_product(a, m):
    flat = brute_force_expansion(a)
    n = max(len(flat), len(m))
    dot = sum(mi * wi for mi, wi in zip(m + [0] * (n - len(m)), flat + [0] * (n - len(flat))))
    assert weight_expansion(a).pair(m) == a.denominator * dot
    assert weight_expansion(a).pair(tuple(m)) == a.denominator * dot
