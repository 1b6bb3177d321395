"""Weight expansions: how an ellipsoid decomposes into balls.

The expansion of a rational a = p/q >= 1 is the decreasing sequence
(1^l0, w1^l1, ..., wN^lN) whose multiplicities are the continued-fraction
entries of a.  Scaled by q, the weights are the remainders of Euclid's
algorithm on (p, q), which is how the library stores them.  Its two exact
identities are checked here in those integers.
"""

from fractions import Fraction

from sympstairs import weight_expansion

for a in [Fraction(25, 9), Fraction(5), Fraction(8) + Fraction(1, 36)]:
    w = weight_expansion(a)
    p, q = a.numerator, a.denominator
    pretty = ", ".join(f"{Fraction(x, q)}^{m}" for x, m in w.entries)
    print(f"w({a}) = ({pretty})")
    print(f"   q*w as Euclid runs = {w.entries}")
    square_sum = sum(x * x * m for x, m in w.entries)
    weight_sum = sum(x * m for x, m in w.entries)
    assert square_sum == p * q and weight_sum == p + q - 1
    print(f"   sum of (q*w)^2  = {square_sum} = p*q       (so sum of w^2 = a)")
    print(f"   sum of q*w      = {weight_sum} = p + q - 1   (so sum of w = a + 1 - 1/q)")
    print(f"   flat length     = {w.flat_length}")

# Inner products against integer vectors drive every embedding obstruction.
m = (3,) + (2,) * 7  # the class F_2
print("\n<F_2, w(8)> =", weight_expansion(8).pair(m), "(so mu_2(F_2)(8) = 17/12)")
print("l(289/36) =", weight_expansion(Fraction(289, 36)).flat_length)
