"""Three independent computations of the same capacity.

The closed form, the Cremona-reduction bisection, and the ECH ratio bound
are cross-checked at a few points.  The bisection brackets the closed-form
value; the ECH sup approaches it from below and attains it at step edges.
"""

from fractions import Fraction

from sympstairs import cb_bisect, cb_closed, ech_lower_bound, sign

for b, a in [(2, Fraction(7)), (2, Fraction(8)), (3, Fraction(10)), (2, Fraction(4))]:
    closed = cb_closed(b, a)
    lo, hi = cb_bisect(b, a, Fraction(1, 10**4))
    ech = ech_lower_bound(b, a, 5000)
    bracketed = lo < closed.value <= hi
    below = sign(ech - closed.value) <= 0
    print(f"c_{b}({a}):")
    print(f"   closed form : {closed.value}  [{closed.branch}]")
    print(f"   bisection   : [{float(lo):.6f}, {float(hi):.6f}]  contains it: {bracketed}")
    print(f"   ech ratio   : {ech} (~{float(ech):.6f})  below or equal: {below}")
