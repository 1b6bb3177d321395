"""The capacity staircase: geometry, closed form, bounds, oracles, limits."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympstairs.cremona import BlowupVector, _method2_runs, reduce_to_reduced
from sympstairs.curve import (
    BRANCH_AFFINE,
    BRANCH_NONSQUEEZING,
    BRANCH_VOLUME,
    c_infty,
    cb_bisect,
    cb_closed,
    db_real,
    equivalence_chain,
    folding_bound,
    method2_cb_decide,
    rescaled_chat,
    step_geometry,
    volume_bound,
)
from sympstairs.numbers import QuadNum, bounds, compare_values, sign, sqrt_rational
from sympstairs.weights import weight_expansion


# -- step geometry ---------------------------------------------------------------


def test_geometry_spot_values_b2():
    g = step_geometry(2)
    assert g.u[0] == 4 and g.v[0] == Fraction(25, 4)
    assert g.u[2] == 9 == g.v[2]  # k^2 = 2b: zero-length step
    assert g.beta == Fraction(289, 36)
    assert g.step_lengths[2] == 0
    assert g.v_plus == 9


def test_exceptional_interval_count():
    # ceil(sqrt(2b)) + 2 intervals of positive length (nonsqueezing, affine,
    # and the nondegenerate linear steps)
    for b in range(2, 51):
        g = step_geometry(b)
        positive = sum(1 for length in g.step_lengths if length > 0)
        r = math.isqrt(2 * b)
        ceil_sqrt = r if r * r == 2 * b else r + 1
        assert positive + 2 == ceil_sqrt + 2


def test_step_length_monotonicity_small():
    prev0 = None
    for b in range(2, 300):
        g = step_geometry(b)
        l0 = g.step_lengths[0]
        assert l0 > 2
        if prev0 is not None:
            assert l0 < prev0
        prev0 = l0
    # l_b(k) increases to 2 in b for fixed k >= 1
    for k in (1, 2, 3):
        prev = None
        for b in range(max(2, (k * k + 1) // 2 + 1), 200):
            if k * k > 2 * b:
                continue
            lk = step_geometry(b).step_lengths[k]
            assert lk < 2
            if prev is not None:
                assert lk > prev
            prev = lk


def test_alpha_is_the_affine_volume_crossing():
    # ((b*alpha+1)/(2b(b+1)))^2 == alpha/(2b), verified inside Q(sqrt(D))
    for b in range(2, 12):
        alpha = step_geometry(b).alpha
        line = (b * alpha + 1) / Fraction(2 * b * (b + 1))
        assert sign(line * line - alpha / Fraction(2 * b)) == 0


# -- closed form ------------------------------------------------------------------


@pytest.mark.parametrize(
    "b,a,value,branch",
    [
        (2, 8, Fraction(17, 12), BRANCH_AFFINE),
        (2, Fraction(289, 36), Fraction(17, 12), BRANCH_AFFINE),
        (3, 11, Fraction(11, 8), "linear-step(2)"),
        (2, 4, Fraction(1), BRANCH_NONSQUEEZING),
        (2, 100, Fraction(5), BRANCH_VOLUME),
        (2, 5, Fraction(5, 4), "linear-step(0)"),
        (2, 7, Fraction(7, 5), "linear-step(1)"),
        (2, 9, Fraction(3, 2), "linear-step(2)"),
    ],
)
def test_cb_closed_spot_values(b, a, value, branch):
    s = cb_closed(b, a)
    assert s.value == value
    assert s.branch == branch


def test_left_table():
    # the five-row description of c_b on [1, v_b(1)]
    for b in (2, 3, 4):
        tb = 2 * b
        assert cb_closed(b, Fraction(3, 2)).value == 1
        assert cb_closed(b, tb).value == 1
        mid0 = tb + Fraction(1, 2)
        assert cb_closed(b, mid0).value == mid0 / tb
        flat0 = tb + 1 + Fraction(1, 2)
        assert cb_closed(b, flat0).value == Fraction(tb + 1, tb)
        rise1 = tb + 2 + Fraction(1, 2)  # inside [2b+2+1/2b, 2b+3]
        assert cb_closed(b, rise1).value == rise1 / (tb + 1)
        flat1 = tb + 3 + Fraction(1, 4)  # inside [2b+3, 2b+4-4/(2b+1)^2]
        assert cb_closed(b, flat1).value == Fraction(tb + 3, tb + 1)


def test_breakpoint_continuity():
    for b in (2, 3, 5, 9):
        g = step_geometry(b)
        tb = 2 * b
        for k in range(len(g.u)):
            edge = tb + 2 * k + 1
            # both formulas agree at the interval ends
            assert g.u[k] / (tb + k) == cb_closed(b, g.u[k]).value or k == 0
            assert cb_closed(b, g.u[k]).value == max(Fraction(1), g.u[k] / (tb + k))
            assert cb_closed(b, edge).value == Fraction(edge, tb + k)
            assert cb_closed(b, g.v[k]).value == volume_bound(b, g.v[k])
        # affine corner and end
        assert cb_closed(b, tb + 4).value == 1 + Fraction(tb + 1, tb * (b + 1))
        assert cb_closed(b, g.beta).value == volume_bound(b, g.beta)


def test_monotone_in_a():
    for b in (2, 3):
        prev = None
        for i in range(8 * 1, 8 * (2 * b + 10)):
            a = Fraction(i, 8)
            val = cb_closed(b, a).value
            if prev is not None:
                assert compare_values(val, prev) >= 0
            prev = val


def test_scaling_property():
    # c_b(la)/(la) <= c_b(a)/a for l >= 1
    for b in (2, 3):
        for a in (Fraction(5), Fraction(13, 2), Fraction(8), Fraction(21, 2)):
            base = cb_closed(b, a).value / a
            for lam in (Fraction(5, 4), Fraction(2), Fraction(3)):
                scaled = cb_closed(b, lam * a).value / (lam * a)
                assert compare_values(scaled, base) <= 0


def test_domain_errors():
    with pytest.raises(ValueError):
        cb_closed(1, 5)
    with pytest.raises(ValueError):
        cb_closed(2, Fraction(1, 2))
    with pytest.raises(ValueError):
        c_infty(-1)


# -- bounds -----------------------------------------------------------------------


def test_folding_spot_values():
    assert folding_bound(5, 13) == Fraction(13, 11)  # f_b(2b+2k+1), b=5, k=1
    assert folding_bound(2, 7) == Fraction(7, 5) == cb_closed(2, 7).value
    assert volume_bound(2, 8) == sqrt_rational(2)


def test_volume_le_closed_le_folding_window():
    # f_b < c_b strictly outside [2b-1, (sqrt(2b)+1)^2]
    for b in (2, 3, 5):
        for i in range(8, 8 * (2 * b - 1), 4):
            a = Fraction(i, 8)
            if a < 2 * b - 1:
                assert folding_bound(b, a) < cb_closed(b, a).value == 1
        # beyond the window: a > (sqrt(2b)+1)^2 iff (a-2b-1)^2 > 8b and a > 2b+1
        for i in range(1, 40):
            a = Fraction(2 * b + 2) + Fraction(i, 2)
            if (a - 2 * b - 1) ** 2 > 8 * b:
                s = cb_closed(b, a)
                f = folding_bound(b, a)
                assert sign(f - s.value) < 0
        # inside: the folding curve touches c_b at the edges
        assert folding_bound(b, 2 * b + 1) == cb_closed(b, 2 * b + 1).value


def test_volume_never_above_closed():
    for b in (2, 3):
        for i in range(4, 4 * (2 * b + 12)):
            a = Fraction(i, 4)
            assert compare_values(volume_bound(b, a), cb_closed(b, a).value) <= 0


# -- real-b obstruction maximum ----------------------------------------------------


def test_db_real_matches_closed_form_for_integer_b():
    for b in (2, 3):
        for i in range(24, 24 * (2 * b + 13)):
            a = Fraction(i, 24)
            assert sign(db_real(b, a) - cb_closed(b, a).value) == 0


def test_db_real_examples():
    assert db_real(2, 4) == 1  # E_0 branch
    assert db_real(Fraction(5, 2), 12) == sqrt_rational(Fraction(12, 5))
    assert db_real(Fraction(5, 2), 7) == Fraction(14, 11)  # E_3 step


# -- rescaled limit -----------------------------------------------------------------


def test_c_infty_shape():
    assert c_infty(0) == 0
    assert c_infty(7) == 4  # edge value at a = 2k+1, k = 3
    assert c_infty(Fraction(13, 2)) == Fraction(13, 2) - 3
    assert c_infty(Fraction(15, 2)) == 4
    # feet on the line a/2
    for k in range(0, 6):
        assert c_infty(2 * k) == k


def test_c_infty_validated_against_chat_at_b_1000():
    # the closed form for the limit was frozen only after this check
    b = 1000
    for i in range(0, 81):
        a = Fraction(i, 4)
        gap = c_infty(a) - rescaled_chat(b, a)
        assert sign(gap) >= 0
        assert sign(gap - Fraction(1, 10)) < 0


def test_chat_increasing_in_b():
    for a in (Fraction(3, 2), Fraction(7, 2), Fraction(5), Fraction(7), Fraction(10)):
        values = [rescaled_chat(b, a) for b in (50, 100, 500)]
        assert compare_values(values[0], values[1]) <= 0
        assert compare_values(values[1], values[2]) <= 0


def test_chat_500_close_below_c_infty():
    gap = c_infty(7) - rescaled_chat(500, 7)
    assert sign(gap) > 0
    assert sign(gap - Fraction(5, 100)) < 0


# -- Method-2 oracle ----------------------------------------------------------------


def test_method2_cb_decide_examples():
    assert method2_cb_decide(3, 7, Fraction(7, 6))  # step edge b=3, k=0
    assert method2_cb_decide(2, Fraction(25, 4), Fraction(5, 4))  # c_b(2b+2+1/2b)
    assert not method2_cb_decide(2, Fraction(25, 4), Fraction(5, 4) - Fraction(1, 100))
    # exact volume lambda on a volume branch: alpha^2 = 0, still well-defined
    lam = volume_bound(2, Fraction(17, 2))
    assert isinstance(lam, QuadNum)
    assert method2_cb_decide(2, Fraction(17, 2), lam)


def test_method2_foot_point():
    # a = v_2(0) = 25/4 is a foot point; the exact volume is rational there
    lam = volume_bound(2, Fraction(25, 4))
    assert lam == Fraction(5, 4)
    assert method2_cb_decide(2, Fraction(25, 4), lam)


def test_method2_lambda_validation():
    with pytest.raises(ValueError):
        method2_cb_decide(2, 8, Fraction(0))


def unscaled_decision(b: int, a: Fraction, lam):
    """Oracle: (embeds, moves) of a traced reduction of ((b+1)L; bL, L, w(a)),
    unscaled, with w(a) as Fractions from the defining recurrence."""
    weights, prev, cur = [], a, Fraction(1)
    while cur > 0:
        while prev >= cur:
            weights.append(cur)
            prev -= cur
        prev, cur = cur, prev
    head, tail = (b + 1) * lam, (b * lam, lam, *weights)
    if sign(head * head - sum(t * t for t in tail)) < 0:
        return False, 0
    trace = reduce_to_reduced(BlowupVector(head, tail))
    return all(sign(x) >= 0 for x in (trace.final.head, *trace.final.tail)), trace.step_count


@st.composite
def decisions(draw):
    """(b, a, lam): lam the exact volume bound, or a rational within 1% of cb_closed."""
    b = draw(st.integers(2, 8))
    a = draw(st.fractions(1, 2 * b + 12, max_denominator=400))
    if draw(st.booleans()):
        return b, a, volume_bound(b, a)
    near = st.fractions(Fraction(99, 100), Fraction(101, 100), max_denominator=10**4)
    near = draw(st.just(Fraction(1)) | near)
    return b, a, bounds(cb_closed(b, a).value, 8)[1] * near


@settings(max_examples=200, deadline=None, derandomize=True)
@given(decisions())
def test_decision_scaled_by_q_matches_the_unscaled_reduction(case):
    b, a, lam = case
    embeds, moves = unscaled_decision(b, a, lam)
    assert method2_cb_decide(b, a, lam) is embeds
    scaled = lam * a.denominator  # the kernel's own input: runs of q*w(a), L = q*lambda
    runs = [(b * scaled, 1), (scaled, 1), *weight_expansion(a).entries]
    assert _method2_runs((b + 1) * scaled, runs) == (embeds, moves)


# -- bisection oracle ----------------------------------------------------------------


@pytest.mark.parametrize(
    "b,a,target",
    [
        (2, Fraction(8), Fraction(17, 12)),
        (3, Fraction(10), Fraction(31, 24)),
        (2, Fraction(4), Fraction(1)),
    ],
)
def test_cb_bisect_brackets_closed_form(b, a, target):
    tol = Fraction(1, 10**4)
    lo, hi = cb_bisect(b, a, tol)
    assert hi - lo <= tol
    assert lo < target <= hi
    assert not method2_cb_decide(b, a, lo)
    assert method2_cb_decide(b, a, hi)


# Method 2 alone at large b: the bracket holds the closed form, and its upper
# end rescales to within 1/10 of the limit staircase c_infty (the closed-form
# version of this check is criterion 09).
LIMIT_POINTS = [Fraction(j, 4) for j in (2, 4, 6, 10, 14, 21, 37, 80)]


@pytest.mark.parametrize(
    "b,tol,points",
    [
        (500, Fraction(1, 10**6), LIMIT_POINTS),
        (1000, Fraction(1, 10**6), LIMIT_POINTS),
        (10**4, Fraction(1, 10**7), [Fraction(6, 4), Fraction(37, 4)]),
    ],
)
def test_method2_brackets_rescaled_limit_at_large_b(b, tol, points):
    for a_shift in points:
        a = a_shift + 2 * b
        lo, hi = cb_bisect(b, a, tol)
        closed = cb_closed(b, a).value
        assert sign(closed - lo) >= 0 and sign(hi - closed) >= 0, (b, a_shift)
        assert c_infty(a_shift) - (2 * b * hi - 2 * b) <= Fraction(1, 10), (b, a_shift)


def test_three_way_agreement_sweep():
    # bisection brackets the closed form and the ECH bound stays below it,
    # across every rational with denominator <= 3 in [1, 2b+3]
    from sympstairs.ech import ech_lower_bound

    tol = Fraction(1, 512)
    for b in (2, 3):
        for num in range(6, 6 * (2 * b + 3) + 1):
            a = Fraction(num, 6)
            if a.denominator > 3:
                continue
            closed = cb_closed(b, a).value
            lo, hi = cb_bisect(b, a, tol)
            assert sign(closed - lo) > 0
            assert sign(closed - hi) <= 0
            assert sign(ech_lower_bound(b, a, 300) - closed) <= 0


def test_cb_bisect_volume_branch():
    b, a = 2, Fraction(17, 2)
    lo, hi = cb_bisect(b, a, Fraction(1, 10**4))
    vol = volume_bound(b, a)
    assert sign(vol - lo) > 0
    assert sign(vol - hi) <= 0


# -- equivalence chain ----------------------------------------------------------------


@pytest.mark.parametrize(
    "b,a,lam",
    [
        (2, Fraction(7), Fraction(7, 5)),
        (5, Fraction(11), Fraction(2)),
        (3, Fraction(13, 2), Fraction(3, 2)),
    ],
)
def test_equivalence_chain_rational(b, a, lam):
    assert equivalence_chain(b, a, lam)


def test_equivalence_chain_quad_lambda():
    assert equivalence_chain(2, 8, sqrt_rational(2))
    assert equivalence_chain(4, Fraction(21, 2), sqrt_rational(3))


def test_equivalence_chain_lambda_below_one_rejected():
    with pytest.raises(ValueError):
        equivalence_chain(2, 8, Fraction(1, 2))
