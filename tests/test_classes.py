"""Exceptional classes: Diophantine checks, certification, obstructions."""

from fractions import Fraction

import pytest

from sympstairs.classes import (
    ExceptionalClass,
    certification_trace,
    certify,
    check_dio_polydisc,
    enumerate_dio_solutions,
    gen_E,
    gen_F,
    gen_G,
    obstruction_mu,
    psi_push,
    real_b_obstructions,
)
from sympstairs.cremona import is_terminal_exceptional
from sympstairs.curve import volume_bound
from sympstairs.numbers import sign, sqrt_rational
from sympstairs.weights import weight_expansion


def brute_force_solutions(d, e, max_len):
    """Oracle: unconstrained recursive search for solutions of the polydisc
    Diophantine system, non-increasing positive entries."""
    lin = 2 * (d + e) - 1
    quad = 2 * d * e + 1
    found = []

    def rec(prefix, cap, lin_left, quad_left):
        if lin_left == 0 and quad_left == 0:
            found.append(tuple(prefix))
            return
        if len(prefix) == max_len or lin_left <= 0 or quad_left <= 0:
            return
        for m in range(min(cap, lin_left), 0, -1):
            if m * m <= quad_left:
                rec(prefix + [m], m, lin_left - m, quad_left - m * m)

    if lin >= 0:
        rec([], lin, lin, quad)
    return found


# -- Diophantine systems --------------------------------------------------------


def test_check_dio_polydisc_examples():
    assert check_dio_polydisc(6, 3, (3,) + (2,) * 7)
    assert check_dio_polydisc(10, 5, (4,) * 6 + (1,) * 5)
    assert not check_dio_polydisc(2, 1, (2, 2))


# -- psi push --------------------------------------------------------------------


def test_psi_push_examples():
    v = psi_push(5, 1, (1,) * 11)  # E_5 -> (5; 4, 0, 1^10)
    assert v.head == 5
    assert v.sorted().trimmed().tail == (4,) + (Fraction(1),) * 10
    f1 = psi_push(2, 2, (2, 1, 1, 1, 1, 1))
    assert f1.head == 2
    assert f1.sorted().trimmed().tail == (Fraction(1),) * 5
    e0 = psi_push(1, 0, (1,))
    assert e0.head == 0 and tuple(e0.tail) == (0, -1)


def test_psi_push_requires_sorted_m():
    with pytest.raises(ValueError):
        psi_push(2, 2, (1, 2))


def test_psi_transport_of_diophantine_system():
    # every polydisc solution maps to a ball solution
    cases = []
    for d in range(0, 12):
        for e in range(0, 5):
            cases += [(d, e, m) for m in enumerate_dio_solutions(d, e, 2 * (d + e) + 1)]
    for n in range(1, 21):
        cases.append((n, 1, gen_E(n).m))
        cases.append((n * (n + 1), n + 1, gen_F(n).m))
    assert len(cases) > 100
    for d, e, m in cases:
        assert check_dio_polydisc(d, e, m)
        v = psi_push(d, e, m)
        # the ball system: sum(t) = 3*head - 1 and sum(t^2) = head^2 + 1
        assert sum(v.tail) == 3 * v.head - 1
        assert sum(t * t for t in v.tail) == v.head * v.head + 1


# -- families ---------------------------------------------------------------------


def test_family_shapes():
    assert (gen_E(5).d, gen_E(5).e, gen_E(5).m) == (5, 1, (1,) * 11)
    assert (gen_F(2).d, gen_F(2).e, gen_F(2).m) == (6, 3, (3,) + (2,) * 7)
    assert (gen_G(2).d, gen_G(2).e, gen_G(2).m) == (10, 5, (4,) * 6 + (1,) * 5)
    assert gen_E(0).m == (1,)


def test_certify_rejects_non_exceptional():
    with pytest.raises(ValueError):
        certify(ExceptionalClass(2, 1, (2, 2)))


# -- obstruction function ----------------------------------------------------------


def test_obstruction_examples():
    assert obstruction_mu(gen_F(2), 2, 8) == Fraction(17, 12)
    for a in (1, Fraction(7, 3), 12, 100):
        assert obstruction_mu(gen_E(0), 3, a) == 1
    assert obstruction_mu(gen_G(2), 2, Fraction(25, 4)) == Fraction(5, 4)


def mu_E_closed(b, k, a):
    """mu_b(E_{b+k})(a) for a >= 2b+2k: a/(2b+k) up to 2b+2k+1, then constant."""
    return min(a, 2 * b + 2 * k + 1) / Fraction(2 * b + k)


def mu_F_closed(b, a):
    """mu_b(F_b)(a) for a >= 2b+3: (ba+1)/(2b(b+1)) up to 2b+4, then constant."""
    return (b * min(a, 2 * b + 4) + 1) / Fraction(2 * b * (b + 1))


def test_closed_forms_match_spot_values():
    assert obstruction_mu(gen_E(5), 4, 11) == mu_E_closed(4, 1, 11) == Fraction(11, 9)
    assert obstruction_mu(gen_F(3), 3, 10) == mu_F_closed(3, 10) == Fraction(31, 24)
    assert obstruction_mu(gen_F(2), 2, 8) == mu_F_closed(2, 8) == Fraction(17, 12)


def test_closed_forms_agree_with_obstruction_mu():
    for b in (2, 3, 5):
        for k in range(0, 3):
            if k * k > 2 * b:
                continue
            lo = 2 * b + 2 * k
            for i in range(100):
                a = Fraction(lo) + Fraction(i, 50)  # sweeps rising and flat branch
                assert mu_E_closed(b, k, a) == obstruction_mu(gen_E(b + k), b, a)
        for i in range(100):
            a = Fraction(2 * b + 3) + Fraction(i, 50)
            assert mu_F_closed(b, a) == obstruction_mu(gen_F(b), b, a)


def test_real_b_obstruction_list():
    # b = 5/2 at a = 7: E_3 is binding with 14/11; E_2 is on its flat branch
    vals = dict(real_b_obstructions(Fraction(5, 2), 7))
    assert vals["E0"] == 1
    assert vals["E2"] == Fraction(10, 9)
    assert vals["E3"] == Fraction(14, 11)
    assert vals["E4"] == Fraction(14, 13)
    assert not any(k.startswith("F") for k in vals)  # eps = 1/2 outside the window

    # integer b = 2 at a = 8: F_2 contributes 17/12 (eps = 0 is inside)
    vals = dict(real_b_obstructions(2, 8))
    assert vals["F2"] == Fraction(17, 12)
    assert set(vals) == {"E0", "E2", "E3", "E4", "F2"}

    # b = 13/2: classes E_6..E_10, no F (eps = 1/2 outside (-6/49, 1/8))
    vals = dict(real_b_obstructions(Fraction(13, 2), 20))
    assert set(vals) == {"E0", "E6", "E7", "E8", "E9", "E10"}


# -- error vector -------------------------------------------------------------------


def error_vector(c, b, a):
    """(<eps, w(a)>, <eps, eps>) for eps = m - t*w(a), t = (d+be)/sqrt(2ba), in Q(sqrt(2ba))."""
    b, a = Fraction(b), Fraction(a)
    pairing = Fraction(weight_expansion(a).pair(c.m), a.denominator)
    t = (c.d + b * c.e) / sqrt_rational(2 * b * a)
    return pairing - t * a, sum(x * x for x in c.m) - 2 * t * pairing + t * t * a


def test_error_report_examples():
    # E_{b+k} at the step edge lies above the volume: <eps, w> > 0
    assert sign(error_vector(gen_E(2), 2, 5)[0]) > 0
    # E_0 at a = 2b: equality with the volume
    assert sign(error_vector(gen_E(0), 2, 4)[0]) == 0
    # F_2 at beta_2 = 8 + 1/36: value meets the volume exactly
    assert sign(error_vector(gen_F(2), 2, Fraction(289, 36))[0]) == 0


def test_error_report_obstructive_equivalence_and_filter():
    # an obstructive class has h^2 < 2b and |eps|^2 < 1 - h^2/2b, with h = d - be
    classes = [gen_E(n) for n in range(0, 7)] + [gen_F(n) for n in (1, 2, 3)] + [gen_G(2)]
    for b in (2, 3):
        for i in range(1, 40):
            a = Fraction(4 * i + 1, 4)
            vol = volume_bound(b, a)
            for c in classes:
                eps_inner_w, eps_norm_sq = error_vector(c, b, a)
                obstructive = sign(eps_inner_w) > 0
                assert obstructive == (sign(obstruction_mu(c, b, a) - vol) > 0)
                if obstructive:
                    h = c.d - b * c.e
                    assert h * h < 2 * b
                    assert sign(eps_norm_sq - (1 - h * h / Fraction(2 * b))) < 0


# -- enumeration ---------------------------------------------------------------------


def test_enumerate_examples():
    assert enumerate_dio_solutions(1, 0) == [(1,)]
    assert enumerate_dio_solutions(4, 1, 9) == [(1,) * 9]
    assert (3,) + (2,) * 7 in enumerate_dio_solutions(6, 3, 17)


def test_enumerate_against_brute_force():
    for d in range(0, 8):
        for e in range(0, 4):
            max_len = 2 * (d + e) + 1
            got = sorted(enumerate_dio_solutions(d, e, max_len))
            want = sorted(brute_force_solutions(d, e, max_len))
            assert got == want, (d, e)


# -- intersection products -------------------------------------------------------------


def intersection_product(c1, c2):
    """Pairing d1*e2 + d2*e1 - <m1, m2> in the S1, S2, F_i basis."""
    return c1.d * c2.e + c2.d * c1.e - sum(x * y for x, y in zip(c1.m, c2.m))


def test_intersection_examples():
    assert intersection_product(gen_G(2), gen_F(2)) == 4
    for n in (1, 2, 5):
        assert intersection_product(gen_E(n), gen_E(n)) == -1
        assert intersection_product(gen_E(0), gen_E(n)) == 0


def test_selfintersection_and_chern_of_certified():
    family = (
        [gen_E(n) for n in range(0, 21)]
        + [gen_F(n) for n in range(1, 21)]
        + [gen_G(b) for b in range(1, 21)]
    )
    for c in family:
        assert intersection_product(c, c) == -1
        assert sum(c.m) == 2 * (c.d + c.e) - 1


def test_pairwise_positivity():
    family = (
        [gen_E(n) for n in range(0, 21)]
        + [gen_F(n) for n in range(1, 21)]
        + [gen_G(b) for b in range(1, 21)]
    )
    for i, c1 in enumerate(family):
        for c2 in family[i + 1 :]:
            if (c1.d, c1.e, c1.m) == (c2.d, c2.e, c2.m):
                continue
            assert intersection_product(c1, c2) >= 0, (str(c1), str(c2))


def test_terminal_check_on_certification():
    trace = certification_trace(gen_G(2))
    assert is_terminal_exceptional(trace.final)
