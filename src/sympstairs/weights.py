"""Weight expansions of rational numbers a >= 1.

The weight expansion of a rational a >= 1 is the finite decreasing sequence
(1^l0, w1^l1, ..., wN^lN) with w1 = a - l0 < 1, w2 = 1 - l1*w1 < w1, and so
on; the multiplicities (l0, l1, ..., lN) are the continued-fraction entries
of a.  Both the run-length and the flattened view are exposed: inner
products against integer vectors need flat indexing, while the closed-form
case analysis of the capacity function works with run lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat

__all__ = ["WeightExpansion", "flat_length", "weight_expansion", "weight_inner"]


@dataclass(frozen=True)
class WeightExpansion:
    """Run-length view of a weight expansion: ((weight, multiplicity), ...)."""

    source: Fraction
    entries: tuple[tuple[Fraction, int], ...]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(mult for _, mult in self.entries)

    @property
    def flat_length(self) -> int:
        return sum(mult for _, mult in self.entries)

    def flatten(self) -> list[Fraction]:
        return list(chain.from_iterable(repeat(w, mult) for w, mult in self.entries))

    def weight_sum(self) -> Fraction:
        return sum((w * mult for w, mult in self.entries), Fraction(0))

    def square_sum(self) -> Fraction:
        return sum((w * w * mult for w, mult in self.entries), Fraction(0))

    def __iter__(self):
        return iter(self.entries)


def weight_expansion(a) -> WeightExpansion:
    """Weight expansion of a rational a >= 1.

    Runs the Euclidean recurrence on the pair (a, 1); an integer a therefore
    expands to (1^a) with no tail.
    """
    a = Fraction(a)
    if a < 1:
        raise ValueError(f"weight expansion needs a >= 1, got {a}")
    entries = []
    prev, cur = a, Fraction(1)
    while cur > 0:
        mult = prev // cur
        entries.append((cur, int(mult)))
        prev, cur = cur, prev - mult * cur
    return WeightExpansion(a, tuple(entries))


def flat_length(a) -> int:
    """l(a): total number of weights, counted with multiplicity."""
    return weight_expansion(a).flat_length


def weight_inner(m, w: WeightExpansion) -> Fraction:
    """Exact inner product of an integer vector with a weight expansion.

    The shorter side is padded with zeros, so vectors of any length pair
    with any expansion.
    """
    return sum((Fraction(mi) * wi for mi, wi in zip(m, w.flatten())), Fraction(0))
