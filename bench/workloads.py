"""The benchmark's four workloads: seeded inputs, operations and checks.

Each builder takes the imported ``sympstairs`` package and a seeded
``random.Random`` and returns a ``Plan``: a list of operations plus an input
profile.  An operation calls the library's public functions through module
attributes at call time, so tracing wrappers installed later see the call.
Its ``check`` compares the output with a reference computed independently
of the code under test; checks run outside the timed section.

Inputs are stratified (a fixed number per cell of the input space, with the
seed choosing inside each cell) so that the mix of cheap and expensive
operations, and hence every end-to-end figure, moves little between seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
PINS = BENCH_DIR / "pins.json"

TOL = Fraction(1, 10**6)
ECH_TERMS = 20000


@dataclass
class Op:
    """One operation: ``run()`` is timed, ``check(output)`` returns an error or None."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Plan:
    ops: list[Op]
    profile: dict


def _summary(values) -> dict:
    values = sorted(values)
    if not values:
        return {}
    return {"min": values[0], "median": statistics.median(values), "max": values[-1]}


def _share(flags) -> float:
    flags = list(flags)
    return round(sum(flags) / len(flags), 4) if flags else 0.0


def _step_edges(S, b: int) -> set:
    """Rational breakpoints of the closed-form staircase of c_b."""
    g = S.step_geometry(b)
    tb = 2 * b
    edges = {Fraction(tb), Fraction(tb + 4), g.beta, g.gamma, *g.u, *g.v}
    edges.update(Fraction(tb + 2 * k + 1) for k in range(len(g.u)))
    return edges


def _cell_fractions(rng, n: int, count: int) -> list[Fraction]:
    """``count`` distinct rationals in [n, n+1) with denominator <= 12."""
    out: set = set()
    while len(out) < count:
        den = rng.randint(1, 12)
        num = rng.randrange(den)
        if math.gcd(num, den) == 1:
            out.add(n + Fraction(num, den))
    return sorted(out)


def _input_profile(S, pairs, quad_flags) -> dict:
    """Profile of (b, a) inputs: b values, flat length, CF depth, shares."""
    expansions = [S.weight_expansion(a) for _, a in pairs]
    edges = {b: _step_edges(S, b) for b in {b for b, _ in pairs if isinstance(b, int)}}
    return {
        "b_values": sorted({str(b) for b, _ in pairs}),
        "flat_length": _summary(w.flat_length for w in expansions),
        "cf_depth": _summary(len(w.entries) for w in expansions),
        "quadnum_lambda_share": _share(quad_flags),
        "step_edge_share": _share(isinstance(b, int) and a in edges[b] for b, a in pairs),
    }


# -- decide-grid ---------------------------------------------------------------


def decide_grid(S, rng) -> Plan:
    """Method-2 decisions at the closed value and 1e-5 below it.

    Short tails (denominator <= 12): per-call overhead and exact arithmetic
    dominate.  The volume-branch points decide with a QuadNum lambda and set
    the tail latency.
    """
    ops, pairs, quad = [], [], []
    below = Fraction(1, 10**5)
    for b in (2, 3, 4, 5):
        for n in range(1, 2 * b + 12):
            for a in _cell_fractions(rng, n, 12):
                value = S.cb_closed(b, a).value
                cases = [(value, True)]
                lam = value - below
                if S.sign(lam - S.volume_bound(b, a)) >= 0:
                    cases.append((lam, False))
                for lam, embeds in cases:
                    pairs.append((b, a))
                    quad.append(not isinstance(lam, Fraction))
                    ops.append(Op(
                        f"decide b={b} a={a} lambda={S.format_exact(lam)}",
                        lambda b=b, a=a, lam=lam: S.method2_cb_decide(b, a, lam),
                        lambda out, want=embeds: None if out is want else f"got {out}, want {want}",
                    ))
    return Plan(ops, _input_profile(S, pairs, quad))


# -- bisect-longtail -----------------------------------------------------------


def _cf_value(quotients) -> Fraction:
    value = Fraction(quotients[-1])
    for q in reversed(quotients[:-1]):
        value = q + 1 / value
    return value


def bisect_longtail(S, rng) -> Plan:
    """cb_bisect at a with continued-fraction depth <= 4 and one partial
    quotient in [196, 572): flat length 200-600 in only a few runs.

    Today a decision costs time linear in the flat length; a run-length
    kernel should move this workload and leave decide-grid unchanged.  Per
    b, the integer parts 2b+1..2b+8 and eight bands of the long quotient are
    each used twice (paired by the seed), so every seed has the same mix.
    """
    ops, pairs, quad, big = [], [], [], []
    near_feet = 0
    for b in (2, 3):
        g = S.step_geometry(b)
        feet = set(g.u) | set(g.v)
        a0s = list(range(2 * b + 1, 2 * b + 9)) * 2
        for a0, band in zip(a0s, rng.sample(range(8), 8) + rng.sample(range(8), 8)):
            q = rng.randrange(196 + 47 * band, 196 + 47 * (band + 1))
            while True:
                depth = rng.choice((2, 3, 4))
                pos = rng.randrange(1, depth)
                quotients = [a0] + [rng.randint(1, 4) for _ in range(depth - 1)]
                quotients[pos] = q
                if quotients[-1] == 1:
                    quotients[-1] = 2
                # a within 1/q^2 of a step foot: a bisect there costs 10-30x
                # more (2-14 s), which would swamp the flat-length effect
                if _cf_value(quotients[:pos]) not in feet:
                    break
                near_feet += 1
            a = _cf_value(quotients)
            closed = S.cb_closed(b, a).value
            pairs.append((b, a))
            quad.append(not isinstance(closed, Fraction))
            big.append(q)

            def check(out, closed=closed):
                lo, hi = out
                if hi - lo > TOL:
                    return f"bracket width {hi - lo} > {TOL}"
                if S.sign(closed - lo) < 0 or S.sign(hi - closed) < 0:
                    return f"closed value {S.format_exact(closed)} outside [{lo}, {hi}]"
                return None

            ops.append(Op(f"bisect b={b} a={a}", lambda b=b, a=a: S.cb_bisect(b, a, TOL), check))
    profile = _input_profile(S, pairs, quad)
    profile["long_quotient"] = _summary(big)
    profile["redrawn_near_step_feet"] = near_feet
    return Plan(ops, profile)


# -- ech-ratio -----------------------------------------------------------------


def _lattice_sequence(a: Fraction, n_terms: int) -> list[int]:
    """q*(m + k*a) for the first n_terms lattice points (m, k) != (0, 0) in
    value order, by enumerating a box and sorting (no heap merge)."""
    p, q = a.numerator, a.denominator

    def count(t):  # lattice points with q*m + p*k <= t, the origin included
        return sum((t - p * k) // q + 1 for k in range(t // p + 1))

    t = p + q
    while count(t) - 1 < n_terms:
        t *= 2
    values = sorted(q * m + p * k for k in range(t // p + 1) for m in range((t - p * k) // q + 1))
    return values[1 : n_terms + 1]


def ech_reference(b, a, n_terms: int) -> Fraction:
    """max_k c_k(E(1,a)) / c_k(E(1,2b)), from brute-force lattice sequences."""
    a, target = Fraction(a), 2 * Fraction(b)
    num = _lattice_sequence(a, n_terms)
    den = _lattice_sequence(target, n_terms)
    best_x, best_y = num[0], den[0]
    for x, y in zip(num, den):
        if x * best_y > best_x * y:
            best_x, best_y = x, y
    return Fraction(best_x * target.denominator, best_y * a.denominator)


def ech_ratio(S, rng) -> Plan:
    """ech_lower_bound(b, a, 20000): no Cremona code at all.

    Integer b in {2, 3} repeats across many a, as in ``verify ech``: every
    step edge plus seeded points.  Two rational b cover the ``scan`` use.
    """
    ops, pairs = [], []
    for b in (2, 3):
        edges = [Fraction(2 * b + 2 * k + 1) for k in range(math.isqrt(2 * b) + 1)]
        edges.append(Fraction(2 * b + 4))
        seeded = [a for n in range(2 * b, 2 * b + 8) for a in _cell_fractions(rng, n, 1)]
        pairs += [(b, a) for a in edges + seeded]
    for b in (Fraction(5, 2), Fraction(7, 2)):
        pairs += [(b, a) for n in range(int(2 * b), int(2 * b) + 4) for a in _cell_fractions(rng, n, 1)]
    for b, a in pairs:

        def check(out, b=b, a=a):
            want = ech_reference(b, a, ECH_TERMS)
            if out != want:
                return f"got {out}, brute force gives {want}"
            # At rational b the ellipsoid value may exceed db_real (see the
            # README), so only the inclusion E(1,a) in E(s, 2bs) bounds it.
            upper = S.cb_closed(b, a).value if isinstance(b, int) else max(1, a / (2 * b))
            if S.sign(out - upper) > 0:
                return f"lower bound {out} exceeds {S.format_exact(upper)}"
            return None

        ops.append(Op(f"ech b={b} a={a}", lambda b=b, a=a: S.ech_lower_bound(b, a, ECH_TERMS), check))
    return Plan(ops, _input_profile(S, pairs, [False] * len(pairs)))


# -- certify-render ------------------------------------------------------------


def _family(kind: str, n: int) -> tuple[int, int, tuple[int, ...]]:
    """(d, e, m) of E_n, F_n or G_n, written out from their definitions."""
    if kind == "E":
        return n, 1, (1,) * (2 * n + 1)
    if kind == "F":
        return n * (n + 1), n + 1, (n + 1,) + (n,) * (2 * n + 3)
    return n * (2 * n + 1), 2 * n + 1, (2 * n,) * (2 * n + 2) + (1,) * (2 * n + 1)


def _terminal(v) -> bool:
    """(0; -1, 0, ..., 0) up to order."""
    return v.head == 0 and sorted(v.tail) == [-1] + [0] * (len(v.tail) - 1)


GOLDEN_JOBS = (
    ("figure_b2_closed.csv", ["table", "--b", "2", "--a", "1:10", "--n", "181"]),
    ("figure_b9_closed.csv", ["table", "--b", "9", "--a", "1:28", "--n", "217"]),
    ("figure_b5_folding.csv", ["table", "--b", "5", "--a", "9:20", "--n", "199"]),
)
PINNED_JOBS = (
    ("plot", ["plot", "--b", "5", "--a", "9:20", "--n", "199",
              "--overlays", "closed-form,volume,folding", "--out", "-"]),
    ("reduce", ["reduce", "(6,3;3,2,2,2,2,2,2,2)"]),
)


def certify_render(S, rng) -> Plan:
    """Trace-building reductions of integer classes, plus the CLI emitters.

    Classes are rebuilt as fresh ExceptionalClass objects, so nothing is
    served from the certify/gen_* caches.  The CLI jobs are the three golden
    tables, one plot and one reduce, with stdout captured.
    """
    from sympstairs import cli

    ops = []
    # every 4th E_n and F_n with n <= 40 and every 6th G_b with b <= 30, from
    # a seeded offset: each seed gets the same spread of sizes
    picks = {
        "E": list(range(rng.randint(1, 4), 41, 4)),
        "F": list(range(rng.randint(1, 4), 41, 4)),
        "G": list(range(rng.randint(1, 6), 31, 6)),
    }
    for kind, ns in picks.items():
        for n in ns:
            cls = S.ExceptionalClass(*_family(kind, n))
            moves = {"E": n, "F": 2 if n == 1 else 2 * n + 1}.get(kind)

            def run(cls=cls):
                trace = S.certification_trace(cls)
                return trace.step_count, trace.final, trace.replay(), trace.to_lines()

            def check(out, moves=moves):
                steps, final, replayed, lines = out
                if moves is not None and steps != moves:
                    return f"{steps} moves, want {moves}"
                if not _terminal(final):
                    return f"final vector {final} is not (0;-1,0,...,0)"
                if replayed != final:
                    return "replay() differs from the final vector"
                if len(lines) != steps + 1:
                    return f"{len(lines)} trace lines for {steps} moves"
                return None

            ops.append(Op(f"certify {kind}{n}", run, check))

    def run_cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    for name, argv in GOLDEN_JOBS:
        golden = (GOLDEN_DIR / name).read_bytes()

        def check(out, golden=golden):
            code, text = out
            return None if code == 0 and text.encode() == golden else "differs from the golden CSV"

        ops.append(Op(f"cli {name}", lambda argv=argv: run_cli(argv), check))
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    for name, argv in PINNED_JOBS:

        def check(out, want=pins[name]):
            code, text = out
            got = hashlib.sha256(text.encode()).hexdigest()
            return None if code == 0 and got == want else f"stdout sha256 {got} != pinned {want}"

        ops.append(Op(f"cli {name}", lambda argv=argv: run_cli(argv), check))
    profile = {
        "classes": picks,
        "class_tail_length": _summary(len(_family(k, n)[2]) for k, ns in picks.items() for n in ns),
        "cli_b_values": [2, 9, 5],
        "op_kinds": {"certify": sum(map(len, picks.values())),
                     "cli": len(GOLDEN_JOBS) + len(PINNED_JOBS)},
    }
    return Plan(ops, profile)


WORKLOADS = {
    "decide-grid": decide_grid,
    "bisect-longtail": bisect_longtail,
    "ech-ratio": ech_ratio,
    "certify-render": certify_render,
}

# op_ms.tail: the highest of p99.9/p99/p95/p90/p75/p50 that still leaves
# >= 10 samples beyond it at 30 s on the seed code when the host runs slow
# (about 7800, 44, 184 and 780 operations then); fixed per workload so that
# runs and commits stay comparable.
TAIL_PERCENTILE = {
    "decide-grid": 99.0,
    "bisect-longtail": 75.0,
    "ech-ratio": 90.0,
    "certify-render": 95.0,
}

# Integer b whose cached staircase geometry each workload reads.
WARM_B = {
    "decide-grid": (2, 3, 4, 5),
    "bisect-longtail": (2, 3),
    "ech-ratio": (2, 3),
    "certify-render": (2, 5, 9),
}


def warm(S, name: str):
    """Fill the per-b caches: step_geometry and the gen_E/gen_F/gen_G
    classes that real_b_obstructions reads for b near the workload's b."""
    for b in WARM_B[name]:
        S.step_geometry(b)
        for n in range(b + math.isqrt(2 * b) + 2):
            S.gen_E(n)
        S.gen_F(b)
        S.gen_G(b)
