"""The paper's results as checks, shared by ``sympstairs verify`` and the
acceptance tests.

Each check yields :class:`Record` values.  Parameter defaults are the presets
that ``verify`` runs; the acceptance tests pass their larger ones explicitly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .classes import (
    certification_trace,
    enumerate_dio_solutions,
    gen_E,
    gen_F,
    gen_G,
    obstruction_mu,
)
from .cremona import ReductionTrace, is_terminal_exceptional
from .curve import (
    cb_closed,
    equivalence_chain,
    folding_bound,
    method2_cb_decide,
    step_geometry,
    volume_bound,
)
from .ech import ech_lower_bound
from .numbers import format_exact, sign
from .weights import weight_expansion


class Record(NamedTuple):
    """One checked quantity; it passes iff ``expected == got``."""

    name: str
    expected: object
    got: object
    trace: Optional[ReductionTrace] = None  # the reduction ``verify --trace`` prints

    @property
    def passed(self) -> bool:
        return self.expected == self.got


def weights(seed: int = 20260810, draws: int = 200) -> Iterator[Record]:
    """w(25/9) entry by entry; sum(w^2) = a and sum(w) = a + 1 - 1/q at random
    a = p/q, as sum(x^2) = pq and sum(x) = p + q - 1 on the integers x = q*w."""
    w = weight_expansion(Fraction(25, 9))
    yield Record(
        "expansion(25/9)",
        "(1,2),(7/9,1),(2/9,3),(1/9,2)",
        ",".join(f"({format_exact(Fraction(x, 9))},{m})" for x, m in w.entries),
    )
    rng = random.Random(seed)
    bad = 0
    for _ in range(draws):
        q = rng.randint(1, 10**4)
        a = Fraction(rng.randint(q, 100 * q), q)
        p, q = a.numerator, a.denominator
        runs = weight_expansion(a).entries
        if sum(x * x * m for x, m in runs) != p * q or sum(x * m for x, m in runs) != p + q - 1:
            bad += 1
    yield Record(f"identities({draws} random a)", 0, bad)


def classes(max_n: int = 30) -> Iterator[Record]:
    """E_n and F_n (n <= max_n) certify in n and 2n+1 moves (F_1 in 2);
    G_b certifies for b <= min(max_n, 20)."""
    counted = [(f"E{n}", gen_E(n), n) for n in range(0, max_n + 1)]
    counted += [(f"F{n}", gen_F(n), 2 if n == 1 else 2 * n + 1) for n in range(1, max_n + 1)]
    for name, c, moves in counted:
        trace = certification_trace(c)
        steps = trace.step_count if is_terminal_exceptional(trace.final) else -1
        yield Record(f"certify {name} (moves)", moves, steps, trace)
    for b in range(1, min(max_n, 20) + 1):
        trace = certification_trace(gen_G(b))
        yield Record(f"certify G{b}", True, is_terminal_exceptional(trace.final))


def edges(b: int = 2) -> Iterator[Record]:
    """c_b at 2b, at 2b+2+1/2b and at the step edges 2b+2k+1 (where the
    folding curve agrees), and mu_b(G_b) at 2b+2+1/2b, exactly."""
    yield Record(f"c_{b}(2b)", "1", format_exact(cb_closed(b, 2 * b).value))
    a_b = 2 * b + 2 + Fraction(1, 2 * b)
    plateau = format_exact(Fraction(2 * b + 1, 2 * b))
    yield Record(f"c_{b}(2b+2+1/2b)", plateau, format_exact(cb_closed(b, a_b).value))
    for k in range(0, math.isqrt(2 * b) + 1):
        edge = 2 * b + 2 * k + 1
        want = format_exact(Fraction(edge, 2 * b + k))
        yield Record(f"c_{b}({edge})", want, format_exact(cb_closed(b, edge).value))
        yield Record(f"folding({edge})", want, format_exact(folding_bound(b, edge)))
    mu = format_exact(obstruction_mu(gen_G(b), b, a_b))
    yield Record(f"mu_{b}(G_{b})(2b+2+1/2b)", plateau, mu)


def method2_points(b: int, max_den: int, span: int) -> list[Fraction]:
    """Every a in [1, 2b + span] with denominator <= max_den, by denominator."""
    return [
        Fraction(num, den)
        for den in range(1, max_den + 1)
        for num in range(den, (2 * b + span) * den + 1)
        if math.gcd(num, den) == 1
    ]


def method2(b: int = 2, max_den: int = 4, span: int = 6, offset=Fraction(1, 10**3)) -> Iterator[Record]:
    """Method 2 embeds at the closed value, and rejects closed value - offset
    wherever that is rational and at least the volume bound."""
    points = method2_points(b, max_den, span)
    bad_embed = bad_reject = 0
    for a in points:
        value = cb_closed(b, a).value
        if not method2_cb_decide(b, a, value):
            bad_embed += 1
        if isinstance(value, Fraction):
            lam = value - offset
            if sign(lam - volume_bound(b, a)) >= 0 and method2_cb_decide(b, a, lam):
                bad_reject += 1
    yield Record(f"embeds at closed value ({len(points)} pts)", 0, bad_embed)
    yield Record("rejects below closed value", 0, bad_reject)


EQUIVALENCE_PAIRS = ((7, Fraction(7, 5)), (11, 2), (Fraction(25, 4), Fraction(5, 4)))


def equivalence(b_values=range(2, 7), pairs=EQUIVALENCE_PAIRS) -> Iterator[Record]:
    """The ellipsoid-to-polydisc move chain holds at every (a, lambda) pair."""
    for b in b_values:
        yield Record(f"chain b={b}", True, all(equivalence_chain(b, a, lam) for a, lam in pairs))


def ech(b: int = 2, n_terms: int = 2000) -> Iterator[Record]:
    """At each step edge the ECH bound is at most the closed value, and within 1e-2 of it."""
    for k in range(0, math.isqrt(2 * b) + 1):
        edge = 2 * b + 2 * k + 1
        closed = cb_closed(b, edge).value
        got = ech_lower_bound(b, edge, n_terms)
        near = sign(got - closed) <= 0 and closed - got < Fraction(1, 100)
        yield Record(f"ech edge a={edge} within 1e-2", True, near)


def geometry(max_chain_b: int = 50, max_length_b: int = 200) -> Iterator[Record]:
    """The breakpoint chain validates for b <= max_chain_b, and the first step
    length l_b(0) decreases towards 2 for b <= max_length_b."""
    bad = 0
    for b in range(2, max_chain_b + 1):
        try:
            step_geometry(b)
        except AssertionError:
            bad += 1
    yield Record(f"breakpoint chains b=2..{max_chain_b}", 0, bad)
    bad = 0
    prev = None
    for b in range(2, max_length_b + 1):
        length = step_geometry(b).step_lengths[0]
        if length <= 2 or (prev is not None and length >= prev):
            bad += 1
        prev = length
    yield Record(f"l_b(0) decreasing to 2 (b<={max_length_b})", 0, bad)


def alarge(b: int = 2, samples=None, max_e: int = 3, d_slack=None) -> Iterator[Record]:
    """No class (d,e;m) with e <= max_e and d <= b*e + d_slack beats the volume
    bound at the samples a, which lie above (sqrt(2b)+1)^2."""
    root = math.isqrt(2 * b)
    if samples is None:
        samples = [2 * b + 2 * root + 2 + Fraction(j, 2) for j in range(5)]
    if d_slack is None:
        d_slack = root + 1
    # a = p/q enters as p*q and w(a), whose pairing q*<m, w(a)> is an integer
    expansions = [(a.numerator * a.denominator, weight_expansion(a))
                  for a in map(Fraction, samples)]
    bad = 0
    for e in range(0, max_e + 1):
        for d in range(0, b * e + d_slack + 1):
            weight_sq = (d + b * e) ** 2
            for m in enumerate_dio_solutions(d, e):
                for pq, w in expansions:
                    dot = w.pair(m)
                    # mu_b(d,e;m)(a) = dot/(q(d+be)) > sqrt(a/2b)  iff  2b*dot^2 > p*q*(d+be)^2
                    if 2 * b * dot * dot > pq * weight_sq:
                        bad += 1
    yield Record(f"volume regime holds (b={b})", 0, bad)
