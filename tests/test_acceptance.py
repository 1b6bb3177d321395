"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here exactly as stated; no tolerance is
deferred to calibration.
"""

import math
import os
import time
from fractions import Fraction

from sympstairs import checks
from sympstairs.classes import check_dio_polydisc, gen_E, gen_F, gen_G, obstruction_mu
from sympstairs.curve import c_infty, cb_closed, folding_bound, rescaled_chat, step_geometry
from sympstairs.ech import ech_lower_bound
from sympstairs.numbers import compare_values, sign, sqrt_rational
from sympstairs.render import emit_table_csv

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _report(name: str, ok: bool, started: float):
    elapsed = time.monotonic() - started
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s)")
    assert ok, name


def _passes(records) -> bool:
    """Run a shared check to the end and print its failing records; true iff none fails."""
    failed = [r for r in records if not r.passed]
    for r in failed:
        print(f"  {r.name} expected={r.expected} got={r.got}")
    return not failed


def test_criterion_01_weight_identities():
    t0 = time.monotonic()
    ok = _passes(checks.weights(seed=42, draws=1000))
    ok &= (time.monotonic() - t0) < 5.0
    _report("criterion-01 weight-identities (1000 random a, exact)", ok, t0)


def test_criterion_02_class_certification():
    t0 = time.monotonic()
    ok = _passes(checks.classes(max_n=100))  # E, F <= 100 with move counts; G <= 20
    families = [gen_E(n) for n in range(0, 101)] + [gen_F(n) for n in range(1, 101)]
    for c in families + [gen_G(b) for b in range(1, 21)]:
        ok &= c.certified and check_dio_polydisc(c.d, c.e, c.m)
    ok &= (time.monotonic() - t0) < 30.0
    _report("criterion-02 certification (E,F <= 100; G <= 20; move counts)", ok, t0)


def test_criterion_03_staircase_spot_values():
    t0 = time.monotonic()
    ok = cb_closed(2, 8).value == Fraction(17, 12)
    ok &= cb_closed(2, Fraction(8) + Fraction(1, 36)).value == Fraction(17, 12)
    for b in range(2, 10):
        ok &= _passes(checks.edges(b))
    ok &= obstruction_mu(gen_G(1), 1, Fraction(9, 2)) == Fraction(3, 2)
    _report("criterion-03 staircase spot values (exact equality)", ok, t0)


def test_criterion_04_method2_consistency_sweep():
    t0 = time.monotonic()
    ok = True
    tested = 0
    for b in (2, 3):
        # any rational lambda with volume <= lambda < value - 1e-6
        ok &= _passes(checks.method2(b, max_den=12, span=12, offset=Fraction(1, 10**5)))
        tested += len(checks.method2_points(b, max_den=12, span=12))
    ok &= (time.monotonic() - t0) < 600.0
    _report(f"criterion-04 method-2 sweep ({tested} points, den <= 12)", ok, t0)


def test_criterion_05_ech_lower_bounds():
    t0 = time.monotonic()
    n_terms = 2 * 10**4
    ok = True
    for b in (2, 3):
        ok &= _passes(checks.ech(b, n_terms))  # the step edges, within 1e-2
        edges = [2 * b + 2 * k + 1 for k in range(0, math.isqrt(2 * b) + 1)]
        special = [Fraction(e) for e in edges] + [Fraction(2 * b + 4)]
        fillers = []
        j = 0
        while len(special) + len(fillers) < 50:
            candidate = 1 + Fraction(j * (2 * b + 11), 2 * 49)
            if candidate not in special:
                fillers.append(candidate)
            j += 1
        for a in [Fraction(2 * b + 4)] + fillers:
            got = ech_lower_bound(b, a, n_terms)
            closed = cb_closed(b, a).value
            ok &= sign(got - closed) <= 0
            if a == 2 * b + 4:
                ok &= sign((closed - got) - Fraction(1, 100)) <= 0
    ok &= (time.monotonic() - t0) < 300.0
    _report("criterion-05 ech lower bounds (N=20000, 50 samples per b)", ok, t0)


def test_criterion_06_step_geometry():
    t0 = time.monotonic()
    # chains validate for b <= 50; l_b(0) > 2 and decreasing for b <= 1000
    ok = _passes(checks.geometry(max_chain_b=50, max_length_b=1000))
    for b in range(2, 51):
        g = step_geometry(b)
        for k in range(len(g.u)):
            edge = 2 * b + 2 * k + 1
            if k * k == 2 * b:
                ok &= g.u[k] == edge == g.v[k]
            else:
                ok &= g.u[k] < edge < g.v[k]
        ok &= sign(g.alpha - g.v[1]) > 0 and sign(g.alpha - (2 * b + 4)) < 0
        ok &= 2 * b + 4 < g.beta < g.gamma

    def length(b, k):  # v_b(k) - u_b(k) without building the full geometry
        tb = 2 * b
        return Fraction(tb * (tb + 2 * k + 1) ** 2, (tb + k) ** 2) - Fraction((tb + k) ** 2, tb)

    for k in (1, 2, 3, 5, 10):
        prev = None
        for b in range((k * k + 1) // 2 + 1, 1001):
            if k * k > 2 * b:
                continue
            lk = length(b, k)
            ok &= lk < 2 and (prev is None or lk > prev)
            prev = lk
    _report("criterion-06 step geometry (chains b<=50, lengths b<=1000)", ok, t0)


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def test_criterion_07_large_a_volume_regime():
    t0 = time.monotonic()
    ok = True
    for b in (2, 3, 4):
        # smallest integer above (sqrt(2b)+1)^2 = 2b+1+2*sqrt(2b)
        start = 2 * b + 1 + _ceil_sqrt(8 * b)
        samples = [Fraction(start) + Fraction(j, 2) for j in range(20)]
        ok &= _passes(checks.alarge(b, samples, max_e=5, d_slack=_ceil_sqrt(2 * b)))
    # b = 2 additionally on [8+1/36, 9]
    lo, hi = Fraction(289, 36), Fraction(9)
    extra = [(lo + Fraction(j, 19) * (hi - lo)) for j in range(20)]
    ok &= _passes(checks.alarge(2, extra, max_e=5, d_slack=2))
    _report("criterion-07 large-a volume regime (e<=5 boxes, 20 samples)", ok, t0)


def test_criterion_08_equivalence_chain():
    t0 = time.monotonic()
    ok = True
    for b in range(2, 7):
        pairs = [
            (Fraction(7), Fraction(7, 5)),
            (Fraction(11), Fraction(2)),
            (Fraction(25, 4), Fraction(5, 4)),
            (Fraction(13, 2), Fraction(3, 2)),
            (Fraction(2 * b), Fraction(1)),
            (Fraction(2 * b + 5), Fraction(2 * b + 5, 2 * b + 2)),
            (Fraction(100, 7), Fraction(9, 5)),
            (Fraction(17, 3), Fraction(11, 9)),
            (Fraction(8), sqrt_rational(2)),
            (Fraction(21, 2), sqrt_rational(3)),
        ]
        assert len(pairs) == 10
        ok &= _passes(checks.equivalence([b], pairs))
    _report("criterion-08 equivalence chain (b=2..6, 10 pairs each)", ok, t0)


def test_criterion_09_folding_and_limit():
    t0 = time.monotonic()
    ok = True
    for b in range(2, 10):
        for k in range(0, math.isqrt(2 * b) + 1):
            edge = 2 * b + 2 * k + 1
            ok &= folding_bound(b, edge) == cb_closed(b, edge).value
    grid = [Fraction(j, 4) for j in range(0, 81)]
    b_samples = (50, 100, 500)
    gaps = {b: [] for b in b_samples}
    for a in grid:
        for b in b_samples:
            gaps[b].append(c_infty(a) - rescaled_chat(b, a))
    for g in gaps[500]:
        ok &= sign(g) >= 0  # chat_b increases to c_infty
        ok &= sign(g - Fraction(1, 10)) <= 0  # max gap <= 0.1 at b = 500
    for i in range(len(grid)):
        ok &= compare_values(gaps[50][i], gaps[100][i]) >= 0
        ok &= compare_values(gaps[100][i], gaps[500][i]) >= 0
    _report("criterion-09 folding edges and rescaled limit (b=500, gap<=0.1)", ok, t0)


def test_criterion_10_golden_figures():
    t0 = time.monotonic()
    ok = True
    jobs = [
        ("figure_b2_closed.csv", 2, Fraction(1), Fraction(10), 181),
        ("figure_b9_closed.csv", 9, Fraction(1), Fraction(28), 217),
        ("figure_b5_folding.csv", 5, Fraction(9), Fraction(20), 199),
    ]
    for name, b, lo, hi, samples in jobs:
        with open(os.path.join(GOLDEN, name), "r", encoding="utf-8", newline="") as fh:
            expected = fh.read()
        first = emit_table_csv(b, lo, hi, samples)
        second = emit_table_csv(b, lo, hi, samples)
        ok &= first == expected and second == expected
    _report("criterion-10 golden figure dumps (byte-identical)", ok, t0)
