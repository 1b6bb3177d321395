"""The shared checks on inputs where they must report failures."""

from fractions import Fraction

from sympstairs import checks
from sympstairs.classes import enumerate_dio_solutions
from sympstairs.weights import weight_expansion


def test_alarge_counts_obstructions_below_the_volume_regime():
    # Just above a = 2b some classes beat the volume bound.  The integer test of
    # checks.alarge must count them exactly as mu_b(d,e;m)(a)^2 > a/2b does in Fractions.
    for b, want in ((2, 30), (3, 35)):
        samples = [2 * b + Fraction(j, 7) for j in range(1, 60)]
        # w(a) as flat Fractions, so mu is computed without the integer pairing
        expansions = [
            (a, [Fraction(x, a.denominator) for x, mult in weight_expansion(a).entries
                 for _ in range(mult)])
            for a in samples
        ]
        bad = 0
        for e in range(0, 4):
            for d in range(0, b * e + 4):
                for m in enumerate_dio_solutions(d, e):
                    for a, w in expansions:
                        mu = sum(mi * wi for mi, wi in zip(m, w)) / (d + b * e)
                        bad += 2 * b * mu * mu > a
        assert bad == want
        [record] = checks.alarge(b, samples, max_e=3, d_slack=3)
        assert (record.expected, record.got) == (0, want)
