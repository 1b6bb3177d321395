"""Exact arithmetic in Q and in real quadratic extensions Q(sqrt(d)).

Rationals are plain ``fractions.Fraction`` (always in lowest terms, with
positive denominator).  ``QuadNum`` represents p + q*sqrt(d) exactly, with
the radicand normalised to a squarefree integer >= 2 so that two values lie
in the same field exactly when their ``d`` coincide.  Signs and comparisons
are decided by exact integer arithmetic; no floating point enters any
computational path.  Floats appear only in presentation helpers, derived
from exact rational enclosures at the last step.

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

Value = Union[Fraction, "QuadNum"]

__all__ = [
    "IncompatibleFieldError",
    "QuadNum",
    "Value",
    "bounds",
    "compare_values",
    "format_exact",
    "parse_exact",
    "quad_make",
    "sign",
    "sqrt_rational",
    "surd_sign",
    "to_float",
]


class IncompatibleFieldError(ArithmeticError):
    """Arithmetic or comparison mixing two distinct irrational radicands."""


def _squarefree_split(n: int) -> tuple[int, int]:
    """Split n >= 1 as s*s*m with m squarefree; return (s, m).

    Trial division runs up to the cube root of the cofactor, after which the
    remainder is 1, p, p*q or p**2, and the square case is caught by isqrt.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    s = 1
    m = 1
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        s *= r
    else:
        m *= n
    return s, m


def quad_make(p, q, d) -> Value:
    """Build the exact value p + q*sqrt(d), normalised.

    The largest rational square factor is extracted from ``d``; if the
    remainder is 1 (or q = 0) the result collapses to a Fraction.  Negative
    radicands are a domain error.
    """
    p, q, d = Fraction(p), Fraction(q), Fraction(d)
    if d < 0:
        raise ValueError(f"negative radicand: {d}")
    if q == 0 or d == 0:
        return p
    # sqrt(a/b) = sqrt(a*b)/b, then pull the square part out of a*b
    s, m = _squarefree_split(d.numerator * d.denominator)
    q = q * Fraction(s, d.denominator)
    if m == 1:
        return p + q
    return QuadNum(p, q, m)


def sqrt_rational(x) -> Value:
    """Exact square root of a nonnegative rational, as Fraction or QuadNum."""
    return quad_make(0, 1, x)


class QuadNum:
    """An exact element p + q*sqrt(d) of Q(sqrt(d)), d squarefree, q != 0.

    Use :func:`quad_make` to construct from unnormalised data.  Instances of
    the same field (equal ``d``) combine under +, -, *, / and compare
    exactly; rationals mix freely.  Distinct radicands raise
    :class:`IncompatibleFieldError` (degree-4 arithmetic is out of scope).
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p: Fraction, q: Fraction, d: int):
        if not isinstance(d, int) or d < 2:
            raise ValueError("QuadNum radicand must be a squarefree integer >= 2")
        if q == 0:
            raise ValueError("rational value; use a Fraction instead")
        object.__setattr__(self, "p", Fraction(p))
        object.__setattr__(self, "q", Fraction(q))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadNum is immutable")

    # -- field plumbing ----------------------------------------------------

    @staticmethod
    def _mk(p: Fraction, q: Fraction, d: int) -> Value:
        return p if q == 0 else QuadNum(p, q, d)

    def _check_field(self, other: "QuadNum"):
        if self.d != other.d:
            raise IncompatibleFieldError(
                f"sqrt({self.d}) and sqrt({other.d}) lie in distinct fields"
            )

    def conjugate(self) -> "QuadNum":
        return QuadNum(self.p, -self.q, self.d)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadNum(self.p + other, self.q, self.d)
        if isinstance(other, QuadNum):
            self._check_field(other)
            return self._mk(self.p + other.p, self.q + other.q, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(-self.p, -self.q, self.d)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QuadNum)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Fraction(0)
            return QuadNum(self.p * other, self.q * other, self.d)
        if isinstance(other, QuadNum):
            self._check_field(other)
            return self._mk(
                self.p * other.p + self.q * other.q * self.d,
                self.p * other.q + self.q * other.p,
                self.d,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return QuadNum(self.p / other, self.q / other, self.d)
        if isinstance(other, QuadNum):
            self._check_field(other)
            # conjugate rationalisation; the norm is nonzero for irrational values
            norm = other.p * other.p - other.q * other.q * other.d
            if norm == 0:
                raise ZeroDivisionError("division by zero")
            return (self * other.conjugate()) / norm
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            norm = self.p * self.p - self.q * self.q * self.d
            if norm == 0:
                raise ZeroDivisionError("division by zero")
            return self.conjugate() * (Fraction(other) / norm)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out: Value = Fraction(1)
        base: Value = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- exact sign and order ----------------------------------------------

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(d), by case analysis on p, q."""
        return surd_sign(self.p, self.q, self.d)

    def _cmp(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            return (self - other).sign()
        if isinstance(other, QuadNum):
            diff = self - other
            return sign(diff)
        raise TypeError(f"cannot compare QuadNum with {type(other).__name__}")

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return False  # q != 0, so the value is irrational
        if isinstance(other, QuadNum):
            return self.d == other.d and self.p == other.p and self.q == other.q
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __bool__(self):
        return True

    # -- presentation --------------------------------------------------------

    def bounds(self, digits: int = 30) -> tuple[Fraction, Fraction]:
        """Rational enclosure lo <= value <= hi of width |q|*10**-digits."""
        scale = 10**digits
        root = math.isqrt(self.d * scale * scale)
        lo_root = Fraction(root, scale)
        hi_root = Fraction(root + 1, scale)
        if self.q > 0:
            return self.p + self.q * lo_root, self.p + self.q * hi_root
        return self.p + self.q * hi_root, self.p + self.q * lo_root

    def __float__(self):
        lo, hi = self.bounds(25)
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"QuadNum({self.p!r}, {self.q!r}, {self.d})"

    def __str__(self):
        return format_exact(self)


def surd_sign(p, q, d: int) -> int:
    """Exact sign of p + q*sqrt(d) for rational (or integer) p, q and d >= 2
    not a square, by case analysis on the signs of p and q."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    diff = p * p - q * q * d  # compares |p| with |q|*sqrt(d)
    if diff == 0:
        return 0
    if p > 0:  # q < 0
        return 1 if diff > 0 else -1
    return -1 if diff > 0 else 1


def sign(x) -> int:
    """Exact sign (-1, 0, +1) of an int, Fraction or QuadNum."""
    if isinstance(x, QuadNum):
        return x.sign()
    return (x > 0) - (x < 0)


def bounds(x, digits: int = 30) -> tuple[Fraction, Fraction]:
    """Rational enclosure of an exact value (degenerate for rationals)."""
    if isinstance(x, QuadNum):
        return x.bounds(digits)
    x = Fraction(x)
    return x, x


def to_float(x) -> float:
    """Presentation float, derived from the exact value at the last step."""
    if isinstance(x, QuadNum):
        return float(x)
    return float(Fraction(x))


def compare_values(x, y) -> int:
    """Exact three-way comparison, valid across distinct radicands.

    Same-field comparisons go through exact signs.  Cross-field ones are
    decided by tightening rational enclosures until they separate; distinct
    squarefree radicands can never produce equal values, so this terminates.
    """
    if isinstance(x, QuadNum) and isinstance(y, QuadNum) and x.d != y.d:
        digits = 30
        while digits <= 4000:
            xlo, xhi = x.bounds(digits)
            ylo, yhi = y.bounds(digits)
            if xhi < ylo:
                return -1
            if yhi < xlo:
                return 1
            digits *= 2
        raise ArithmeticError(f"cannot separate {x} and {y}")
    return sign(x - y)


# -- textual exact-number format ---------------------------------------------
#
# "p/q" and "p/q+r/s*sqrt(u/v)", no whitespace; integer parts drop "/1".

_RAT = r"[+-]?\d+(?:/\d+)?"
_NUMBER_RE = re.compile(
    rf"(?P<p>{_RAT})?"
    rf"(?:(?P<sgn>(?<=.)[+-]|^[+-]?)(?:(?P<q>\d+(?:/\d+)?)\*)?sqrt\((?P<d>\d+(?:/\d+)?)\))?"
)


def format_exact(x) -> str:
    """Render an exact value as "p/q" or "p/q+r/s*sqrt(d)"."""
    if isinstance(x, QuadNum):
        q = x.q
        op = "+" if q >= 0 else "-"
        return f"{format_exact(x.p)}{op}{format_exact(abs(q))}*sqrt({x.d})"
    return str(Fraction(x))


def parse_exact(s: str) -> Value:
    """Parse the exact-number format; also accepts bare "sqrt(u/v)" forms."""
    m = _NUMBER_RE.fullmatch(s.strip())
    if not m or (m.group("p") is None and m.group("d") is None):
        raise ValueError(f"not an exact number: {s!r}")
    p = Fraction(m.group("p")) if m.group("p") else Fraction(0)
    if m.group("d") is None:
        return p
    q = Fraction(m.group("q")) if m.group("q") else Fraction(1)
    if m.group("sgn") == "-":
        q = -q
    return quad_make(p, q, Fraction(m.group("d")))
