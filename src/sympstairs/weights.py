"""Weight expansions of rational numbers a >= 1, in integers.

The weight expansion of a = p/q >= 1 (lowest terms) is the finite decreasing
sequence (1^l0, w1^l1, ..., wN^lN) with w1 = a - l0 < 1, w2 = 1 - l1*w1 < w1,
and so on; the multiplicities (l0, l1, ..., lN) are the continued-fraction
entries of a.  Scaled by q, the weights are the remainders of Euclid's
algorithm on (p, q) and the multiplicities its quotients, so the expansion is
kept as integer runs ((q*w, multiplicity), ...).  Every pairing with an
integer vector m is then an integer, q*<m, w(a)>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = ["WeightExpansion", "weight_expansion"]


@dataclass(frozen=True)
class WeightExpansion:
    """q*w(a) as runs ((q*weight, multiplicity), ...), for a = source = p/q."""

    source: Fraction
    entries: tuple[tuple[int, int], ...]

    @property
    def flat_length(self) -> int:
        return sum(mult for _, mult in self.entries)

    def pair(self, m: Sequence[int]) -> int:
        """q*<m, w(a)>; the shorter side is padded with zeros."""
        total, start = 0, 0
        for x, mult in self.entries:
            total += x * sum(m[start:start + mult])
            start += mult
        return total


def weight_expansion(a) -> WeightExpansion:
    """Weight expansion of a rational a >= 1, by Euclid on (p, q).

    An integer a expands to (1^a) with no tail.
    """
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    if p < q:
        raise ValueError(f"weight expansion needs a >= 1, got {a}")
    entries = []
    while q:
        entries.append((q, p // q))
        p, q = q, p % q
    return WeightExpansion(a, tuple(entries))
