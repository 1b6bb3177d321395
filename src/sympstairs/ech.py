"""ECH capacity sequences of ellipsoids and the ratio lower bound.

The capacity sequence of E(1, a) lists the numbers m + n*a (integers
m, n >= 0, not both zero) in nondecreasing order with multiplicity.  The
truncated supremum of c_k(E(1,a)) / c_k(E(1,2b)) is a certified lower bound
for the embedding capacity into the polydisc P(lambda, lambda*b).

Both sequences rest on one exact integer count.  Write a = p/q in lowest
terms and scale by q, so that the capacities become the integers q*m + p*n.
Then

    count(J) = #{(m, n) >= 0 : q*m + p*n <= J}      (the origin included)

takes O(log) integer steps (a Euclid-like floor sum), and the k-th capacity
is the smallest J with count(J) >= k + 1, so the ratio bound stores no
sequence.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["ech_lower_bound", "ech_sequence"]


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n, m >= 1 and a, b >= 0."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y = a * n + b
        if y < m:
            return total
        n, b = divmod(y, m)
        m, a = a, m


def _count(p: int, q: int, J: int) -> int:
    """#{(m, n) >= 0 : q*m + p*n <= J} for J >= 0: lane n holds (J - p*n)//q + 1 points."""
    L = J // p
    return _floor_sum(L + 1, q, p, J - p * L) + L + 1


def _reach(p: int, q: int, c: int, lo: int, below: int) -> tuple[int, int]:
    """(J, count(J)) for the smallest J >= lo with count(J) >= c.

    Needs below = count(lo - 1) < c.  The first probe sits where the local
    point density (about J/(p*q) per unit) says c - below more points lie;
    galloping past it and bisecting back keep the result exact.
    """
    step = (c - below) * p * q // (lo + p + q) + 1
    while True:
        hi = lo + step
        n = _count(p, q, hi)
        if n >= c:
            break
        lo, step = hi + 1, 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        m = _count(p, q, mid)
        if m >= c:
            hi, n = mid, m
        else:
            lo = mid + 1
    return hi, n


def ech_sequence(a, n_terms: int) -> tuple[Fraction, ...]:
    """First n_terms capacities of E(1, a), exactly.

    Walks the distinct values of the scaled lattice; each is repeated by the
    rise of the count across it.
    """
    a = Fraction(a)
    if a < 1:
        raise ValueError("needs a >= 1")
    if n_terms < 1:
        raise ValueError("needs at least one term")
    p, q = a.numerator, a.denominator
    values: list[Fraction] = []
    v, c = 0, 1  # c = count(v)
    while c <= n_terms:
        v, upto = _reach(p, q, c + 1, v + 1, c)
        upto = min(upto, n_terms + 1)
        values += [Fraction(v, q)] * (upto - c)
        c = upto
    return tuple(values)


def ech_lower_bound(b, a, n_terms: int) -> Fraction:
    """max over k <= n_terms of c_k(E(1,a)) / c_k(E(1,2b)).

    A certified lower bound for the capacity c_b(a) at integer b, where the
    polydisc and ellipsoid problems coincide; nondecreasing in n_terms.
    Rational b is accepted for exploratory scans of the ellipsoid target.

    c_k(E(1,2b)) is constant on plateaus and c_k(E(1,a)) is nondecreasing,
    so the ratio peaks at plateau ends: for each distinct value t of the
    E(1,2b) lattice, at K = min(count(t) - 1, n_terms).  The best ratio is
    held as the scaled pair x/y and compared by integer counts alone.  A
    plateau t beats it iff c_K(E(1,a)) > x*t/y, i.e. iff
    count_a(x*t // y) <= K, so c_K is searched for only when it wins.
    Plateaus that cannot win are skipped: every t' > t has
    count_a(x*t' // y) >= count_a(x*(t+1) // y), so a winner needs a larger
    count_b.  Seeding x/y with the ratio at K = n_terms lets the skip bite
    when the ratio creeps up to the end.  Memory is O(1).
    """
    b = Fraction(b)
    if b < 1:
        raise ValueError("needs b >= 1")
    a = Fraction(a)
    if a < 1:
        raise ValueError("needs a >= 1")
    if n_terms < 1:
        raise ValueError("needs at least one term")
    p, q = a.numerator, a.denominator
    target = 2 * b
    P, Q = target.numerator, target.denominator
    end = n_terms + 1  # count that reaches index n_terms
    x, _ = _reach(p, q, end, 1, 1)  # count(0) = 1: the origin alone
    y, _ = _reach(P, Q, end, 1, 1)
    t, ct = 0, 1  # last plateau end of E(1,2b) and count_b(t)
    while True:
        need = max(_count(p, q, x * (t + 1) // y), ct) + 1
        if need > end:
            return Fraction(x * Q, y * q)
        t, ct = _reach(P, Q, need, t + 1, ct)
        last = min(ct, end)  # count that reaches the plateau's last index K
        floor_xt = x * t // y
        below = _count(p, q, floor_xt)
        if below < last:
            x, y = _reach(p, q, last, floor_xt + 1, below)[0], t
