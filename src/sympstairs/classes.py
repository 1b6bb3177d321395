"""Exceptional divisor classes and their embedding obstructions.

Classes live on blow-ups of S2 x S2 and are written (d, e; m1, ..., mk).
A class is certified exceptional when it satisfies the Diophantine system

    sum(m) = 2(d+e) - 1,    sum(m^2) = 2de + 1

and its push-forward to the blow-up of the projective plane reduces to
(0; -1, 0, ..., 0) under repeated standard Cremona moves.  Certified classes
constrain the embedding capacity through the obstruction function
mu_b(d,e;m)(a) = <m, w(a)> / (d + b*e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .cremona import ReductionTrace, is_terminal_exceptional, psi_push, reduce_to_reduced
from .weights import weight_expansion

__all__ = [
    "ExceptionalClass",
    "certification_trace",
    "certify",
    "check_dio_polydisc",
    "enumerate_dio_solutions",
    "format_class",
    "gen_E",
    "gen_F",
    "gen_G",
    "obstruction_mu",
    "psi_push",
    "real_b_obstructions",
]


@dataclass(frozen=True)
class ExceptionalClass:
    d: int
    e: int
    m: tuple[int, ...]
    certified: bool = False

    def __post_init__(self):
        if self.d < 0 or self.e < 0:
            raise ValueError("d and e must be nonnegative")
        if any(x < 0 for x in self.m):
            raise ValueError("m entries must be nonnegative")
        if any(x < y for x, y in zip(self.m, self.m[1:])):
            raise ValueError("m must be non-increasing")

    def __str__(self):
        return format_class(self)


def format_class(c: ExceptionalClass) -> str:
    """Serialization "d,e:m1 m2 ..." used by the CLI classes listing."""
    return f"{c.d},{c.e}:{' '.join(str(x) for x in c.m)}"


def check_dio_polydisc(d: int, e: int, m: Sequence[int]) -> bool:
    """Both equations sum(m) = 2(d+e)-1 and sum(m^2) = 2de+1, exactly."""
    return sum(m) == 2 * (d + e) - 1 and sum(x * x for x in m) == 2 * d * e + 1


def certification_trace(c: ExceptionalClass) -> ReductionTrace:
    """Reduction trace of the pushed-forward class; terminal iff certifiable."""
    return reduce_to_reduced(psi_push(c.d, c.e, c.m))


def certify(c: ExceptionalClass) -> ExceptionalClass:
    """Return the class marked certified; raise if certification fails."""
    if not check_dio_polydisc(c.d, c.e, c.m):
        raise ValueError(f"{format_class(c)} fails the Diophantine system")
    trace = certification_trace(c)
    if not is_terminal_exceptional(trace.final):
        raise ValueError(f"{format_class(c)} does not reduce to (0;-1,0,...,0)")
    return ExceptionalClass(c.d, c.e, c.m, certified=True)


@lru_cache(maxsize=None)
def gen_E(n: int) -> ExceptionalClass:
    """E_n = (n,1;1^(2n+1)) for n >= 1; E_0 = (1,0;1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return certify(ExceptionalClass(1, 0, (1,)))
    return certify(ExceptionalClass(n, 1, (1,) * (2 * n + 1)))


@lru_cache(maxsize=None)
def gen_F(n: int) -> ExceptionalClass:
    """F_n = (n(n+1), n+1; n+1, n^(2n+3)) for n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return certify(ExceptionalClass(n * (n + 1), n + 1, (n + 1,) + (n,) * (2 * n + 3)))


@lru_cache(maxsize=None)
def gen_G(b: int) -> ExceptionalClass:
    """G_b = (b(2b+1), 2b+1; (2b)^(2b+2), 1^(2b+1)) for integer b >= 1."""
    if b < 1:
        raise ValueError("b must be >= 1")
    return certify(
        ExceptionalClass(b * (2 * b + 1), 2 * b + 1, (2 * b,) * (2 * b + 2) + (1,) * (2 * b + 1))
    )


def obstruction_mu(c: ExceptionalClass, b, a) -> Fraction:
    """mu_b(d,e;m)(a) = <m, w(a)> / (d + b*e) = q<m, w(a)> / (q(d + b*e)), a = p/q.

    Rational b is allowed: the class itself is b-independent, only the
    weight d + b*e changes.
    """
    b, a = Fraction(b), Fraction(a)
    if a < 1 or b < 1:
        raise ValueError("needs a >= 1 and b >= 1")
    return weight_expansion(a).pair(c.m) / (a.denominator * (c.d + b * c.e))


def real_b_obstructions(b, a) -> list[tuple[str, Fraction]]:
    """Obstruction values relevant for real b >= 2 at the point a.

    E_0 always contributes 1; E_n contributes for n between floor(b) and
    floor(b + sqrt(2b)); F_nbar (nbar the integer closest to b) contributes
    only when b = nbar + eps with eps inside (-nbar/(nbar+1)^2, 1/(nbar+2)).
    """
    b, a = Fraction(b), Fraction(a)
    if b < 2:
        raise ValueError("needs b >= 2")
    out = [("E0", obstruction_mu(gen_E(0), b, a))]
    n = math.floor(b)
    while (n - b) ** 2 <= 2 * b:
        out.append((f"E{n}", obstruction_mu(gen_E(n), b, a)))
        n += 1
    nbar = math.ceil(b - Fraction(1, 2))  # b = nbar + eps with eps in (-1/2, 1/2]
    eps = b - nbar
    if -Fraction(nbar, (nbar + 1) ** 2) < eps < Fraction(1, nbar + 2):
        out.append((f"F{nbar}", obstruction_mu(gen_F(nbar), b, a)))
    return out


def enumerate_dio_solutions(d: int, e: int, max_tail: Optional[int] = None) -> list[tuple[int, ...]]:
    """All non-increasing positive integer vectors m solving the Diophantine
    system for (d, e), with at most max_tail entries (default 2(d+e)-1).

    Backtracks from the largest admissible leading entry, pruning on the
    residual linear and quadratic budgets.
    """
    if d < 0 or e < 0:
        raise ValueError("d and e must be nonnegative")
    lin = 2 * (d + e) - 1
    quad = 2 * d * e + 1
    out: list[tuple[int, ...]] = []
    if lin < 0:
        return out

    def extend(prefix: list[int], cap: int, lin: int, quad: int, slots: int):
        if lin == 0:
            if quad == 0:
                out.append(tuple(prefix))
            return
        if slots == 0 or quad <= 0 or quad < lin:
            return
        if cap * slots < lin:  # even cap everywhere cannot reach the linear budget
            return
        if cap * lin < quad:  # sum(m^2) <= m1 * sum(m) fails
            return
        hi = min(cap, lin, math.isqrt(quad))
        for m in range(hi, 0, -1):
            extend(prefix + [m], m, lin - m, quad - m * m, slots - 1)

    extend([], min(lin, math.isqrt(quad)), lin, quad, lin if max_tail is None else max_tail)
    return out

