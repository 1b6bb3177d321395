"""The embedding capacity function c_b(a) and its companions.

For integer b >= 2 the closed form is a finite staircase: the nonsqueezing
plateau on [1, 2b], one linear step over each interval [u_b(k), v_b(k)] for
k up to floor(sqrt(2b)), one affine step over [alpha_b, beta_b], and the
volume constraint sqrt(a/2b) everywhere else.  The same function is
recomputed here by two independent routes: a bisection oracle driven by the
Cremona reduction, and (for real b) the maximum of the known obstructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .classes import real_b_obstructions
from .cremona import BlowupVector, _method2_flat, _method2_runs, defect, standard_move
from .numbers import QuadNum, Value, sign, sqrt_rational
from .weights import weight_expansion

__all__ = [
    "CurveSample",
    "StepGeometry",
    "c_infty",
    "cb_bisect",
    "cb_closed",
    "db_real",
    "equivalence_chain",
    "folding_bound",
    "method2_cb_decide",
    "rescaled_chat",
    "step_geometry",
    "volume_bound",
]

BRANCH_NONSQUEEZING = "nonsqueezing"
BRANCH_AFFINE = "affine-step"
BRANCH_VOLUME = "volume"


def _branch_linear(k: int) -> str:
    return f"linear-step({k})"


@dataclass(frozen=True)
class CurveSample:
    a: Fraction
    value: Value
    branch: str


@dataclass(frozen=True)
class StepGeometry:
    """Exact breakpoints of the staircase of c_b for one integer b >= 2."""

    b: int
    u: tuple[Fraction, ...]  # left feet u_b(k) = (2b+k)^2 / 2b
    v: tuple[Fraction, ...]  # right feet v_b(k) = 2b ((2b+2k+1)/(2b+k))^2
    alpha: Value  # left end of the affine step (irrational)
    beta: Fraction  # right end of the affine step, 2b+4+1/(2b(b+1)^2)
    gamma: Fraction  # u_b(2), the first breakpoint after beta
    v_plus: Fraction  # v_b(floor(sqrt(2b))), start of the final volume regime
    step_lengths: tuple[Fraction, ...]  # l_b(k) = v_b(k) - u_b(k)


@lru_cache(maxsize=None)
def step_geometry(b: int) -> StepGeometry:
    """All breakpoints for one b, with the ordering invariants verified."""
    _check_b(b)
    tb = 2 * b
    kmax = math.isqrt(tb)
    u = tuple(Fraction((tb + k) ** 2, tb) for k in range(kmax + 1))
    v = tuple(Fraction(tb * (tb + 2 * k + 1) ** 2, (tb + k) ** 2) for k in range(kmax + 1))
    alpha = (b * b + 2 * b + sqrt_rational((b * b + 2 * b) ** 2 - 1)) / Fraction(b)
    beta = tb + 4 + Fraction(1, tb * (b + 1) ** 2)
    geom = StepGeometry(
        b=b,
        u=u,
        v=v,
        alpha=alpha,
        beta=beta,
        gamma=u[2],
        v_plus=v[kmax],
        step_lengths=tuple(v[k] - u[k] for k in range(kmax + 1)),
    )
    _validate_geometry(geom)
    return geom


def _validate_geometry(g: StepGeometry):
    b, tb = g.b, 2 * g.b
    for k, (uk, vk) in enumerate(zip(g.u, g.v)):
        edge = tb + 2 * k + 1
        strict = k * k < tb
        if not (uk <= edge <= vk):
            raise AssertionError(f"foot ordering fails at b={b}, k={k}")
        if strict != (uk < edge) or strict != (edge < vk):
            raise AssertionError(f"strictness fails at b={b}, k={k}")
        formula = Fraction((tb - k * k) * (8 * b * b + k * k + (2 + 8 * k) * b), tb * (tb + k) ** 2)
        if g.step_lengths[k] != formula:
            raise AssertionError(f"step length formula fails at b={b}, k={k}")
    # v(0) = u(1) (the only touching pair), then strict gaps between steps
    if g.v[0] != g.u[1]:
        raise AssertionError(f"I_b(0) must touch I_b(1) at b={b}")
    for k in range(1, len(g.u) - 1):
        if not g.v[k] < g.u[k + 1]:
            raise AssertionError(f"intervals overlap at b={b}, k={k}")
    chain = (
        sign(g.alpha - g.v[1]) > 0
        and sign(g.alpha - (tb + 4)) < 0
        and tb + 4 < g.beta < g.gamma
    )
    if not chain:
        raise AssertionError(f"v_b(1) < alpha_b < 2b+4 < beta_b < u_b(2) fails at b={b}")


def _check_b(b: int):
    if not isinstance(b, int) or b < 2:
        raise ValueError(f"needs an integer b >= 2, got {b!r}")


def cb_closed(b: int, a) -> CurveSample:
    """Closed-form value of c_b(a) with its branch tag.

    Branches are tested in interval order: nonsqueezing, linear steps,
    affine step, volume.  At breakpoints adjacent branches agree, so the
    first match is taken.
    """
    _check_b(b)
    a = Fraction(a)
    if a < 1:
        raise ValueError(f"needs a >= 1, got {a}")
    tb = 2 * b
    if a <= tb:
        return CurveSample(a, Fraction(1), BRANCH_NONSQUEEZING)
    g = step_geometry(b)
    for k in range(len(g.u)):
        edge = tb + 2 * k + 1
        if g.u[k] <= a <= edge:
            return CurveSample(a, a / (tb + k), _branch_linear(k))
        if edge <= a <= g.v[k]:
            return CurveSample(a, Fraction(edge, tb + k), _branch_linear(k))
    if a <= tb + 4 and sign(a - g.alpha) >= 0:
        return CurveSample(a, (b * a + 1) / (tb * (b + 1)), BRANCH_AFFINE)
    if tb + 4 <= a <= g.beta:
        return CurveSample(a, 1 + Fraction(tb + 1, tb * (b + 1)), BRANCH_AFFINE)
    return CurveSample(a, sqrt_rational(a / tb), BRANCH_VOLUME)


def volume_bound(b, a) -> Value:
    """The lower bound sqrt(a/2b) forced by volume preservation."""
    b, a = Fraction(b), Fraction(a)
    if a < 1 or b < 1:
        raise ValueError("needs a >= 1 and b >= 1")
    return sqrt_rational(a / (2 * b))


def folding_bound(b, a) -> Fraction:
    """The folding curve f_b(a) = 2a/(a+2b-1), an upper bound for the
    stabilized problem."""
    b, a = Fraction(b), Fraction(a)
    if a < 1 or b < 1:
        raise ValueError("needs a >= 1 and b >= 1")
    return 2 * a / (a + 2 * b - 1)


def db_real(b, a) -> Value:
    """Maximum of the volume constraint and the known obstructions, real b >= 2.

    Conjecturally equal to the capacity for all real b; provably equal for
    integer b, where it reproduces the closed form.
    """
    best: Value = volume_bound(b, a)
    for _, val in real_b_obstructions(b, a):
        if sign(val - best) > 0:
            best = val
    return best


def rescaled_chat(b: int, a) -> Value:
    """chat_b(a) = 2b * c_b(a + 2b) - 2b, for a >= 0."""
    a = Fraction(a)
    if a < 0:
        raise ValueError("needs a >= 0")
    return 2 * b * cb_closed(b, a + 2 * b).value - 2 * b


def c_infty(a) -> Fraction:
    """The rescaled limit staircase: a - k on [2k, 2k+1], k+1 on [2k+1, 2k+2].

    Width-2 steps of slope 1 based at the line a/2; the pointwise limit of
    chat_b as b grows.
    """
    a = Fraction(a)
    if a < 0:
        raise ValueError("needs a >= 0")
    m = math.floor(a)
    if m % 2 == 0:
        return a - m // 2
    return Fraction((m - 1) // 2 + 1)


def method2_cb_decide(b: int, a, lam) -> bool:
    """Reduction-method decision for E(1,a) -> P(lambda, lambda*b).

    Reduces ((b+1)L; bL, L, w(a)) and reports whether the first reduced
    vector is nonnegative.  lam may be rational or a QuadNum (e.g. the exact
    volume bound, where the square of the vector vanishes).  For a = p/q the
    vector is scaled by q, which keeps every sign and order, so the weights
    enter as the integer runs of q*w(a).  A decision costs time in the
    continued-fraction length of a, not in its flat weight count.
    """
    _check_b(b)
    a = Fraction(a)
    if a < 1:
        raise ValueError(f"needs a >= 1, got {a}")
    if sign(lam) <= 0:
        raise ValueError("lambda must be positive")
    lam = lam * a.denominator
    runs = [(b * lam, 1), (lam, 1), *weight_expansion(a).entries]
    if isinstance(lam, QuadNum):
        # irrational lambda (the exact volume bound) keeps the flat path; see
        # ROADMAP item 1
        return _method2_flat((b + 1) * lam, runs)
    return _method2_runs((b + 1) * lam, runs)[0]


def cb_bisect(b: int, a, tol) -> tuple[Fraction, Fraction]:
    """Bracket c_b(a) between rationals by bisecting the Method-2 decision.

    Returns (lo, hi) with hi - lo <= tol, DoesNotEmbed at lo and Embeds at
    hi; by monotonicity the capacity lies in [lo, hi].  Independent of the
    closed form.
    """
    _check_b(b)
    a = Fraction(a)
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("needs tol > 0")
    v2 = a / (2 * b)
    scale = 10**6
    root = math.isqrt(v2.numerator * scale * scale // v2.denominator)
    lo = Fraction(root - 1, scale)  # strictly below the volume bound
    if lo <= 0:
        raise ValueError("volume bound too small for the bisection grid")
    hi = Fraction(max(2, root // scale + 2))
    for _ in range(64):
        if method2_cb_decide(b, a, hi):
            break
        hi *= 2
    else:
        raise RuntimeError("no embedding found while expanding the bracket")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if method2_cb_decide(b, a, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def equivalence_chain(b: int, a, lam) -> bool:
    """Check the move chain linking the ellipsoid and polydisc normal forms.

    Applies b-1 standard Cremona moves to (2bL; (2b-1)L, L^(2b-1), w(a)),
    verifying each defect equals -L, and compares the result with
    ((b+1)L; bL, L, w(a)) up to ordering.  Both vectors are scaled by q,
    a = p/q, so the weights are the integers q*w(a) and L is q*lambda.
    """
    _check_b(b)
    if sign(lam - 1) < 0:
        raise ValueError("lambda must be >= 1")
    expansion = weight_expansion(a)
    lam = lam * expansion.source.denominator
    w = [x for x, mult in expansion.entries for _ in range(mult)]
    tb = 2 * b
    current = BlowupVector(tb * lam, ((tb - 1) * lam,) + (lam,) * (tb - 1) + tuple(w))
    target = BlowupVector((b + 1) * lam, (b * lam, lam, *w))
    for _ in range(b - 1):
        ordered = current.sorted()
        if sign(defect(ordered) + lam) != 0:
            return False
        current = standard_move(ordered)
    # equal heads and equal tail multisets, ignoring trailing zeros
    got, want = current.trimmed().sorted(), target.trimmed().sorted()
    return (
        sign(got.head - want.head) == 0
        and len(got.tail) == len(want.tail)
        and all(sign(x - y) == 0 for x, y in zip(got.tail, want.tail))
    )
