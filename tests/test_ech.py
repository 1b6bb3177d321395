"""ECH capacity sequences and the sup-ratio lower bound."""

import random
import time
from fractions import Fraction

import pytest

from sympstairs.curve import cb_closed
from sympstairs.ech import ech_lower_bound, ech_sequence
from sympstairs.numbers import sign


def brute_force_sequence(a: Fraction, n_terms: int) -> list[Fraction]:
    """Oracle: enumerate all m + n*a below a safe cut-off, sort, truncate.

    The box is enumerated on the scaled integers q*m + p*n (a = p/q), and
    Fractions are built only for the kept terms.
    """
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    cut = (n_terms + 1) * q  # m + n*a <= n_terms + 1 contains at least n_terms values
    values = sorted(q * m + p * n for n in range(cut // p + 1) for m in range((cut - p * n) // q + 1))
    return [Fraction(v, q) for v in values[1 : n_terms + 1]]  # values[0] is the origin


def brute_force_lower_bound(b, a, n_terms: int) -> Fraction:
    num = brute_force_sequence(a, n_terms)
    den = brute_force_sequence(2 * Fraction(b), n_terms)
    return max(x / y for x, y in zip(num, den))


def test_displayed_sequence_for_the_round_ball():
    assert ech_sequence(1, 10) == (1, 1, 2, 2, 2, 3, 3, 3, 3, 4)


def test_sequence_a2():
    assert ech_sequence(2, 6) == (1, 2, 2, 3, 3, 4)


def test_single_term():
    assert ech_sequence(1, 1) == (1,)


def test_sequence_matches_brute_force():
    rng = random.Random(31337)
    for _ in range(20):
        a = Fraction(rng.randint(1, 60), rng.randint(1, 12))
        if a < 1:
            a = 1 / a
        n = rng.randint(50, 1000)
        assert list(ech_sequence(a, n)) == brute_force_sequence(a, n)


def test_sequence_nondecreasing_and_validated():
    seq = ech_sequence(Fraction(25, 9), 500)
    assert all(x <= y for x, y in zip(seq, seq[1:]))
    with pytest.raises(ValueError):
        ech_sequence(Fraction(1, 2), 5)
    with pytest.raises(ValueError):
        ech_sequence(2, 0)


def test_lower_bound_examples():
    assert ech_lower_bound(2, 7, 1000) == Fraction(7, 5)
    assert ech_lower_bound(2, 4, 10) == 1
    got = ech_lower_bound(2, 8, 10**4)
    assert got <= Fraction(17, 12)
    assert Fraction(17, 12) - got <= Fraction(1, 100)


@pytest.mark.parametrize(
    "b, a, n_terms",
    [
        # non-integer 2b
        (Fraction(7, 3), Fraction(25, 3), 2000),
        (Fraction(9, 4), Fraction(61, 7), 1500),
        (Fraction(13, 5), Fraction(97, 11), 1000),
        (Fraction(13, 5), Fraction(26, 5), 800),
        # large denominators
        (Fraction(10001, 10000), Fraction(100003, 10000), 40),
        (Fraction(10001, 10000), Fraction(100003, 10000), 400),
        (2, Fraction(100003, 10000), 300),
        # one and two terms
        (2, 7, 1),
        (2, 7, 2),
        (Fraction(7, 3), Fraction(100003, 10000), 1),
        (Fraction(9, 4), 1, 2),
    ],
)
def test_lower_bound_matches_brute_force(b, a, n_terms):
    assert ech_lower_bound(b, a, n_terms) == brute_force_lower_bound(b, a, n_terms)


@pytest.mark.parametrize(
    "b, a, n_terms",
    [(2, 7, 0), (2, 7, -3), (2, Fraction(1, 2), 10), (Fraction(1, 2), 7, 10)],
)
def test_lower_bound_rejects_bad_input(b, a, n_terms):
    with pytest.raises(ValueError):
        ech_lower_bound(b, a, n_terms)


def test_lower_bound_large_n_is_fast():
    a = Fraction(83, 10)
    t0 = time.perf_counter()
    big = ech_lower_bound(2, a, 10**6)
    assert time.perf_counter() - t0 < 5.0
    assert ech_lower_bound(2, a, 20000) <= big
    assert sign(big - cb_closed(2, a).value) <= 0
    t0 = time.perf_counter()
    ech_lower_bound(2, Fraction(100003, 10000), 20000)
    assert time.perf_counter() - t0 < 1.0


def test_lower_bound_nondecreasing_in_n():
    vals = [ech_lower_bound(3, Fraction(29, 3), n) for n in (10, 100, 1000, 5000)]
    assert vals == sorted(vals)


def test_lower_bound_never_exceeds_closed_form():
    for b in (2, 3):
        for i in range(2, 2 * (2 * b + 12)):
            a = Fraction(i, 2)
            if a < 1:
                continue
            lower = ech_lower_bound(b, a, 400)
            assert sign(lower - cb_closed(b, a).value) <= 0
