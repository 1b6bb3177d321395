"""Cremona transforms, standard moves, reduction traces, Method-2 decisions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sympstairs.classes import certification_trace, gen_F, gen_G
from sympstairs.cremona import (
    BlowupVector,
    ReductionLimitError,
    ReductionTrace,
    _method2_runs,
    cremona_transform,
    default_max_steps,
    defect,
    format_vector,
    is_terminal_exceptional,
    method2_decide,
    parse_vector,
    reduce_to_reduced,
    standard_move,
)
from sympstairs.numbers import IncompatibleFieldError, bounds, quad_make, sign, sqrt_rational
from sympstairs.weights import weight_expansion


def vec(head, *tail):
    return BlowupVector(head, tail)


# -- defect -------------------------------------------------------------------


def test_defect_examples():
    assert defect(vec(3, 1, 1, 1)) == 0
    assert defect(vec(2, 1, 1, 1, 1, 1)) == -1
    lam = Fraction(7, 5)
    b = 2
    assert defect(vec((b + 1) * lam, b * lam, lam, 1, 1)) == -1
    mu = sqrt_rational(2)  # irrational lambda gives the same defect
    assert defect(BlowupVector(3 * mu, (2 * mu, mu, Fraction(1), Fraction(1)))) == -1


def test_defect_pads_short_tails():
    assert defect(vec(1, 1)) == 0
    assert defect(vec(5)) == 5


# -- transform ----------------------------------------------------------------


def test_transform_examples():
    assert cremona_transform(vec(2, 1, 1, 1, 1, 1)) == vec(1, 0, 0, 0, 1, 1)
    # raw transform does not reorder first: delta = 1 here
    assert cremona_transform(vec(0, -1, 0, 0)) == vec(1, 0, 1, 1)
    assert cremona_transform(vec(3, 1, 1, 1)) == vec(3, 1, 1, 1)


def test_transform_is_involution():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 8)
        v = BlowupVector(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)),
        )
        w = cremona_transform(cremona_transform(v))
        assert w.head == v.head and w.tail == v.padded_tail()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=8), st.integers(-20, 20))
def test_transform_involution_hypothesis(tail, head):
    v = BlowupVector(head, tuple(tail))
    w = cremona_transform(cremona_transform(v))
    assert w.head == v.head and w.tail == v.tail


# -- standard move ------------------------------------------------------------


def test_standard_move_peels_one_echelon_level():
    # (n; n-1, 1^(2n)) -> (n-1; n-2, 1^(2(n-1)), 0, 0) at n = 3
    v = vec(3, 2, 1, 1, 1, 1, 1, 1)
    assert standard_move(v) == vec(2, 1, 1, 1, 1, 1, 0, 0)


def test_standard_move_fixes_reduced_padding_case():
    assert standard_move(vec(1, 1, 0, 0)) == vec(1, 1, 0, 0)


def test_standard_move_permutation_invariance():
    rng = random.Random(11)
    base = [Fraction(5), Fraction(3), Fraction(3), Fraction(2), Fraction(1), Fraction(0)]
    reference = standard_move(BlowupVector(Fraction(7), tuple(base)))
    for _ in range(20):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert standard_move(BlowupVector(Fraction(7), tuple(shuffled))) == reference


def test_g2_ball_vector_reduces_to_terminal():
    # derived check: repeated standard moves drive (10; 4^6, 1^5) to (0;-1,...)
    trace = reduce_to_reduced(vec(10, 4, 4, 4, 4, 4, 4, 1, 1, 1, 1, 1))
    assert is_terminal_exceptional(trace.final)


# -- reduce_to_reduced ----------------------------------------------------------


def test_reduced_vectors_take_no_moves():
    assert reduce_to_reduced(vec(3, 1, 1, 1)).step_count == 0
    assert reduce_to_reduced(vec(2, 1, 1, 1, 1, 1)).step_count == 2
    lam = Fraction(5, 4)  # b=2, k=0: delta = 3 - 2*lam = 1/2
    tail = (lam - 1,) * 5
    assert reduce_to_reduced(BlowupVector(lam, tail)).step_count == 0
    # an unsorted tail is sorted first: (5; 2, 1, 1) has defect 1
    trace = reduce_to_reduced(vec(5, 1, 2, 1))
    assert trace.step_count == 0 and trace.final == vec(5, 2, 1, 1)


def test_reduce_f1_image_two_steps():
    trace = reduce_to_reduced(vec(2, 1, 1, 1, 1, 1))
    assert trace.step_count == 2
    assert is_terminal_exceptional(trace.final)


def test_reduce_psi_f3_schedule():
    # n + 1 + n moves for psi(F_n), n = 3
    trace = reduce_to_reduced(vec(12, 8, 3, 3, 3, 3, 3, 3, 3, 3, 3))
    assert trace.step_count == 7
    assert is_terminal_exceptional(trace.final)


def test_reduce_plateau_vector_in_b_moves():
    b = 4
    trace = reduce_to_reduced(vec(b + 1, b, *([1] * (2 * b + 1))))
    assert trace.step_count == b
    final = trace.final.trimmed()
    assert final.head == 1 and final.tail == (Fraction(1),)
    assert trace.defects == (-1,) * b


def test_trace_replay_reproduces_final():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(3, 9)
        head = Fraction(rng.randint(5, 30), rng.randint(1, 3))
        tail = tuple(Fraction(rng.randint(0, 10), rng.randint(1, 3)) for _ in range(n))
        if sum(t * t for t in tail) > head * head:
            continue
        trace = reduce_to_reduced(BlowupVector(head, tail))
        assert trace.replay() == trace.final


def test_replay_rejects_a_changed_defect():
    trace = reduce_to_reduced(vec(12, 8, 3, 3, 3, 3, 3, 3, 3, 3, 3))
    assert trace.replay() == trace.final
    for i in range(trace.step_count):
        defects = list(trace.defects)
        defects[i] += Fraction(1, 7)
        forged = ReductionTrace(trace.initial, tuple(defects), trace.final)
        with pytest.raises(ValueError, match="trace defect does not match"):
            forged.replay()


@pytest.mark.parametrize("cls,moves", [(gen_G(3), 9), (gen_F(5), 11)], ids=["G3", "F5"])
def test_integer_classes_certify_in_integers(cls, moves):
    trace = certification_trace(cls)
    assert trace.step_count == moves
    assert is_terminal_exceptional(trace.final)
    final = trace.final
    assert all(type(x) is int for x in (*trace.defects, final.head, *final.tail))
    assert trace.replay() == final


def test_max_steps_exhaustion_reports_partial_trace():
    with pytest.raises(ReductionLimitError) as err:
        reduce_to_reduced(vec(2, 1, 1, 1, 1, 1), max_steps=1)
    assert err.value.trace.step_count == 1
    assert str(err.value) == "no reduced vector within 1 standard Cremona moves (tail length 5)"


def test_default_max_steps_formula():
    v = vec(2, 1, 1, 1, 1, 1)
    assert default_max_steps(v) == 10 * (5 + 2)
    w = BlowupVector(sqrt_rational(2), (Fraction(1),))
    assert default_max_steps(w) == 10 * (1 + 2)  # ceil(sqrt(2)) = 2


def test_negative_head_rejected():
    with pytest.raises(ValueError):
        reduce_to_reduced(vec(-1, 1))


# -- Method 2 -------------------------------------------------------------------


def test_method2_plateau_embeds():
    b = 3
    assert method2_decide(b + 1, [b] + [1] * (2 * b + 1)) is True


def test_method2_volume_short_circuit():
    assert method2_decide(1, [1, 1]) is False


def test_method2_c2_of_7():
    # closed form c_2(7) = 7/5; bisection-style probes on either side
    lam = Fraction(7, 5)
    w = [1] * 7  # w(7)

    def decide(lam_value):
        return method2_decide(3 * lam_value, [2 * lam_value, lam_value, *w])

    assert decide(lam) is True
    assert decide(lam * Fraction(9999, 10000)) is False


def test_method2_monotone_in_lambda():
    w = [1] * 6 + [Fraction(1, 2)] * 2  # w(13/2)
    grid = [Fraction(1) + Fraction(i, 40) for i in range(40)]
    results = [method2_decide(3 * lam, [2 * lam, lam, *w]) for lam in grid]
    # once embeddable, embeddable forever
    assert results == sorted(results)


def test_method2_agrees_with_hand_schedule():
    # soundness: a hand-picked move schedule that ends reduced and nonnegative
    # forces Embeds, so the first-reduced answer cannot disagree with it.
    for b in (2, 3, 4):
        for k in range(0, 2):
            lam = Fraction(2 * b + 2 * k + 1, 2 * b + k)
            head = (b + 1) * lam
            tail = [b * lam, lam] + [Fraction(1)] * (2 * b + 2 * k + 1)
            # hand replay: one move with delta = -1, then b+k moves with delta = lam-2
            v = BlowupVector(head, tuple(tail)).sorted()
            seen = [defect(v)]
            v = standard_move(v)
            for _ in range(b + k):
                seen.append(defect(v))
                v = standard_move(v)
            assert seen[0] == -1
            assert v == v.sorted() and sign(defect(v)) >= 0
            assert all(t >= 0 for t in v.tail)
            assert method2_decide(head, tail) is True


def test_method2_agrees_with_plateau_schedule():
    # the unit-lambda chain: b moves with delta = -1 take (b+1; b, 1^(2b+1))
    # to (1; 1), reduced and nonnegative, so the engine must answer Embeds
    for b in (2, 3, 4, 5):
        v = vec(b + 1, b, *([1] * (2 * b + 1)))
        cur = v.sorted()
        for _ in range(b):
            assert defect(cur) == -1
            cur = standard_move(cur)
        assert cur == cur.sorted() and sign(defect(cur)) >= 0
        assert all(t >= 0 for t in cur.tail)
        assert cur.trimmed().tail == (Fraction(1),)
        assert method2_decide(b + 1, [b] + [1] * (2 * b + 1)) is True


# -- serialization ---------------------------------------------------------------


def test_vector_format_round_trip():
    v = vec(Fraction(17, 12), Fraction(5, 4), 1, 0)
    assert parse_vector(format_vector(v)) == v
    q = BlowupVector(sqrt_rational(2) * 3, (sqrt_rational(2), Fraction(1)))
    assert parse_vector(format_vector(q)) == q
    p = parse_vector("(6,3;3,2,2,2,2,2,2,2)")  # F_2, pushed by psi_push
    assert p == BlowupVector(6, (3, 0) + (2,) * 7)


def test_trace_lines_format():
    trace = reduce_to_reduced(vec(2, 1, 1, 1, 1, 1))
    lines = trace.to_lines()
    assert lines[0] == "init (2;1,1,1,1,1)"
    assert lines[1].startswith("-1 ")
    assert len(lines) == trace.step_count + 1


# -- the run-length kernel against the flat path -----------------------------------


def flat_decide(mu, tail, max_steps=None):
    """Oracle: the final vector of reduce_to_reduced is nonnegative, after the
    negative-square check."""
    if sign(mu * mu - sum((a * a for a in tail), Fraction(0))) < 0:
        return False
    final = reduce_to_reduced(BlowupVector(mu, tuple(tail)), max_steps).final
    return sign(final.head) >= 0 and all(sign(t) >= 0 for t in final.tail)


def outcome(decide, mu, tail, max_steps=None):
    try:
        return decide(mu, tail, max_steps)
    except ReductionLimitError as exc:
        return "limit", exc.trace.step_count


small = st.fractions(min_value=-4, max_value=16, max_denominator=6)
heads = st.fractions(min_value=0, max_value=30, max_denominator=4)


def tails(values, min_size=0):
    """Tails drawn from a small pool plus zero, so entries repeat."""
    pools = st.lists(values, min_size=1, max_size=4)
    return pools.flatmap(
        lambda pool: st.lists(st.sampled_from(pool + [Fraction(0)]), min_size=min_size, max_size=14)
    )


def surds(d):
    return st.builds(quad_make, small, st.fractions(-3, 3, max_denominator=3), st.just(d))


@st.composite
def vectors(draw, values, shift=st.just(Fraction(0))):
    """((b+1)L; bL, L, tail) with L near sqrt(sum of squares / 2b): the square
    is about zero and the defect often negative, as in a Method-2 decision
    near the capacity, so the vector is neither short-circuited nor reduced
    at once."""
    b = draw(st.integers(1, 5))
    tail = draw(tails(values, 3))
    square = sum((bounds(t)[0] ** 2 for t in tail), Fraction(1)) / (2 * b)
    lam = Fraction(math.isqrt(math.floor(square * 10**4)), 100)
    lam = lam * draw(st.fractions(Fraction(9, 10), Fraction(12, 10), max_denominator=20))
    lam += draw(shift)
    lam = -lam if sign(lam) < 0 else lam
    return (b + 1) * lam, [*tail, b * lam, lam] if draw(st.booleans()) else [b * lam, lam, *tail]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vectors(small) | st.tuples(heads, tails(small)))
def test_kernel_matches_flat_on_rationals(vector):
    mu, tail = vector
    assert method2_decide(mu, tail) is flat_decide(mu, tail)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]).flatmap(lambda d: vectors(surds(d) | small, surds(d).map(lambda x: x / 8))))
def test_kernel_matches_flat_in_quadratic_fields(vector):
    mu, tail = vector
    assert method2_decide(mu, tail) is flat_decide(mu, tail)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vectors(small), st.integers(1, 4))
def test_kernel_move_cap_matches_flat(vector, max_steps):
    mu, tail = vector
    assert outcome(method2_decide, mu, tail, max_steps) == outcome(flat_decide, mu, tail, max_steps)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.fractions(1, 30, max_denominator=40), st.fractions(1, 4, max_denominator=50))
def test_kernel_counts_the_flat_moves_on_weight_runs(b, a, lam):
    lam = lam * a.denominator  # the Method-2 vector scaled by q, so w enters as q*w(a)
    runs = [(b * lam, 1), (lam, 1), *weight_expansion(a).entries]
    flat = [v for v, mult in runs for _ in range(mult)]
    embeds, moves = _method2_runs((b + 1) * lam, runs)
    assert embeds is flat_decide((b + 1) * lam, flat)
    if moves:
        assert moves == reduce_to_reduced(BlowupVector((b + 1) * lam, tuple(flat))).step_count


@settings(max_examples=50, deadline=None, derandomize=True)
@given(surds(2), surds(3), tails(small))
def test_kernel_rejects_mixed_radicands(x, y, tail):
    assume(not isinstance(x, Fraction) and not isinstance(y, Fraction))
    with pytest.raises(IncompatibleFieldError):
        method2_decide(abs(x) * 10, [x, *tail, y])


def test_trace_rejects_mixed_radicands():
    # no comparison or defect here meets both fields, so only the entry check sees them
    tail = (3, 2, 1, sqrt_rational(2) / 10, Fraction(1, 10), sqrt_rational(3) / 100)
    with pytest.raises(IncompatibleFieldError):
        reduce_to_reduced(BlowupVector(10, tail))
    with pytest.raises(IncompatibleFieldError):
        method2_decide(10, list(tail))


def test_kernel_rejects_floats_and_negative_heads():
    with pytest.raises(TypeError):
        method2_decide(3, [1.5, 1])
    with pytest.raises(ValueError):
        method2_decide(Fraction(-1), [1])
