"""Command-line interface: evaluation, tabulation, plotting, verification.

Subcommands: eval | table | plot | verify | scan | classes | reduce.
Exit codes: 0 success / all checks pass, 1 runtime or I/O error (or a failed
verify), 2 usage error.  SYMPSTAIRS_MAX_STEPS overrides the reduction cap.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .classes import (
    ExceptionalClass,
    certification_trace,
    enumerate_dio_solutions,
    format_class,
    gen_E,
    gen_F,
    gen_G,
    obstruction_mu,
    psi_push,
)
from .cremona import is_terminal_exceptional, parse_vector, reduce_to_reduced
from .curve import (
    cb_bisect,
    cb_closed,
    equivalence_chain,
    folding_bound,
    method2_cb_decide,
    step_geometry,
    volume_bound,
)
from .ech import ech_lower_bound
from .numbers import format_exact, parse_exact, sign, to_float
from .render import PlotSpec, emit_scan_csv, emit_svg, emit_table_csv
from .weights import weight_expansion


def _max_steps() -> int | None:
    raw = os.environ.get("SYMPSTAIRS_MAX_STEPS")
    return int(raw) if raw else None


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _rational_range(text: str) -> tuple[Fraction, Fraction]:
    try:
        lo, hi = text.split(":")
        return Fraction(lo), Fraction(hi)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a range lo:hi: {text!r}") from exc


def _write_out(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sympstairs", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the capacity at one point")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--a", type=_rational, required=True)
    p.add_argument("--method", choices=["closed", "bisect", "ech", "decide"], default="closed")
    p.add_argument("--tol", type=_rational, default=Fraction(1, 10**4))
    p.add_argument("--n", type=_positive_int, default=10**4, help="ECH terms for --method ech")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="exact value to test with --method decide, e.g. 17/12 or sqrt(2)")

    p = sub.add_parser("table", help="CSV curve dump (closed form + bounds)")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--a", type=_rational_range, required=True, metavar="LO:HI")
    p.add_argument("--n", type=int, default=181, help="number of samples")
    p.add_argument("--out")

    p = sub.add_parser("plot", help="SVG plot of selected overlays")
    p.add_argument("--b", type=_rational, required=True)
    p.add_argument("--a", type=_rational_range, required=True, metavar="LO:HI")
    p.add_argument("--n", type=int, default=181)
    p.add_argument("--overlays", default="closed-form,volume")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "suite",
        choices=["weights", "classes", "edges", "method2", "equivalence", "ech", "geometry", "alarge"],
    )
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--max-n", type=int, default=30)
    p.add_argument("--n", type=_positive_int, default=2000, help="ECH terms for the ech suite")
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("scan", help="conjecture scan over rational b")
    p.add_argument("--b", required=True, help="comma-separated rationals, e.g. 2,5/2,3")
    p.add_argument("--a", type=_rational_range, required=True, metavar="LO:HI")
    p.add_argument("--n", type=int, default=17)
    p.add_argument("--ech-n", type=_positive_int, default=2000)
    p.add_argument("--out")

    p = sub.add_parser("classes", help="list the certified class families")
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--max-b", type=int, default=5)

    p = sub.add_parser("reduce", help="reduce a vector and print the trace")
    p.add_argument("vector", help='e.g. "(2;1,1,1,1,1)" or "(6,3;3,2,2,2,2,2,2,2)"')
    p.add_argument("--max-steps", type=int, default=None)
    return top


def cmd_eval(args) -> int:
    if args.method == "closed":
        value = cb_closed(args.b, args.a).value
        print(f"{format_exact(value)}\t{to_float(value):.15g}")
    elif args.method == "bisect":
        lo, hi = cb_bisect(args.b, args.a, args.tol, _max_steps())
        mid = (lo + hi) / 2
        print(f"[{format_exact(lo)},{format_exact(hi)}]\t{to_float(mid):.15g}")
    elif args.method == "decide":
        if args.lam is None:
            raise ValueError("--method decide needs --lambda")
        lam = parse_exact(args.lam)
        embeds = method2_cb_decide(args.b, args.a, lam, _max_steps())
        print("Embeds" if embeds else "DoesNotEmbed")
    else:
        value = ech_lower_bound(args.b, args.a, args.n)
        print(f"{format_exact(value)}\t{to_float(value):.15g}")
    return 0


def cmd_table(args) -> int:
    lo, hi = args.a
    _write_out(args.out, emit_table_csv(args.b, lo, hi, args.n))
    return 0


def cmd_plot(args) -> int:
    lo, hi = args.a
    overlays = tuple(s for s in args.overlays.split(",") if s)
    spec = PlotSpec(args.b, lo, hi, args.n, overlays)
    _write_out(args.out, emit_svg(spec))
    return 0


def cmd_scan(args) -> int:
    b_list = [Fraction(s) for s in args.b.split(",") if s]
    lo, hi = args.a
    _write_out(args.out, emit_scan_csv(b_list, lo, hi, args.n, args.ech_n))
    return 0


def cmd_classes(args) -> int:
    for n in range(0, args.max_n + 1):
        print(format_class(gen_E(n)))
    for n in range(1, args.max_n + 1):
        print(format_class(gen_F(n)))
    for b in range(1, args.max_b + 1):
        print(format_class(gen_G(b)))
    return 0


def cmd_reduce(args) -> int:
    vector = parse_vector(args.vector)
    if vector.head2 is not None:
        vector = psi_push(vector.head, vector.head2, vector.tail)
    trace = reduce_to_reduced(vector, args.max_steps or _max_steps())
    for line in trace.to_lines():
        print(line)
    print(f"steps {trace.step_count}")
    return 0


# -- verify suites -----------------------------------------------------------


def _check(name, expected, got) -> bool:
    ok = expected == got
    print(f"{name} expected={expected} got={got} {'PASS' if ok else 'FAIL'}")
    return ok


def _suite_weights(args) -> bool:
    w = weight_expansion(Fraction(25, 9))
    ok = _check(
        "expansion(25/9)",
        "(1,2),(7/9,1),(2/9,3),(1/9,2)",
        ",".join(f"({format_exact(x)},{m})" for x, m in w.entries),
    )
    rng = random.Random(20260810)
    bad = 0
    for _ in range(200):
        q = rng.randint(1, 10**4)
        p = rng.randint(q, 100 * q)
        a = Fraction(p, q)
        w = weight_expansion(a)
        if w.square_sum() != a or w.weight_sum() != a + 1 - Fraction(1, a.denominator):
            bad += 1
    return _check("identities(200 random a)", 0, bad) and ok


def _suite_classes(args) -> bool:
    ok = True
    for n in range(0, args.max_n + 1):
        trace = certification_trace(gen_E(n))
        steps = trace.step_count if is_terminal_exceptional(trace.final) else -1
        ok &= _check(f"certify E{n} (moves)", n, steps)
        if args.trace:
            for line in trace.to_lines():
                print(f"    {line}")
    for n in range(1, args.max_n + 1):
        trace = certification_trace(gen_F(n))
        steps = trace.step_count if is_terminal_exceptional(trace.final) else -1
        ok &= _check(f"certify F{n} (moves)", 2 if n == 1 else 2 * n + 1, steps)
        if args.trace:
            for line in trace.to_lines():
                print(f"    {line}")
    for b in range(1, min(args.max_n, 20) + 1):
        trace = certification_trace(gen_G(b))
        ok &= _check(f"certify G{b}", True, is_terminal_exceptional(trace.final))
    return ok


def _suite_edges(args) -> bool:
    b = args.b
    ok = _check(f"c_{b}(2b)", "1", format_exact(cb_closed(b, 2 * b).value))
    a_b = 2 * b + 2 + Fraction(1, 2 * b)
    ok &= _check(
        f"c_{b}(2b+2+1/2b)",
        format_exact(Fraction(2 * b + 1, 2 * b)),
        format_exact(cb_closed(b, a_b).value),
    )
    for k in range(0, math.isqrt(2 * b) + 1):
        edge = 2 * b + 2 * k + 1
        want = format_exact(Fraction(edge, 2 * b + k))
        ok &= _check(f"c_{b}({edge})", want, format_exact(cb_closed(b, edge).value))
        ok &= _check(f"folding({edge})", want, format_exact(folding_bound(b, edge)))
    ok &= _check(
        f"mu_{b}(G_{b})(2b+2+1/2b)",
        format_exact(Fraction(2 * b + 1, 2 * b)),
        format_exact(obstruction_mu(gen_G(b), b, a_b)),
    )
    return ok


def _suite_method2(args) -> bool:
    b = args.b
    cap = _max_steps()
    bad_embed, bad_reject, tested = 0, 0, 0
    for den in (1, 2, 3, 4):
        a = Fraction(1)
        while a <= 2 * b + 6:
            if a.denominator == den:
                value = cb_closed(b, a).value
                tested += 1
                if not method2_cb_decide(b, a, value, cap):
                    bad_embed += 1
                if isinstance(value, Fraction):
                    lam = value - Fraction(1, 10**3)
                    if sign(lam - volume_bound(b, a)) >= 0 and method2_cb_decide(b, a, lam, cap):
                        bad_reject += 1
            a += Fraction(1, den)
    ok = _check(f"embeds at closed value ({tested} pts)", 0, bad_embed)
    return _check("rejects below closed value", 0, bad_reject) and ok


def _suite_equivalence(args) -> bool:
    ok = True
    for b in range(2, 7):
        good = all(
            equivalence_chain(b, a, lam)
            for a, lam in [(7, Fraction(7, 5)), (11, 2), (Fraction(25, 4), Fraction(5, 4))]
        )
        ok &= _check(f"chain b={b}", True, good)
    return ok


def _suite_ech(args) -> bool:
    b = args.b
    ok = True
    for k in range(0, math.isqrt(2 * b) + 1):
        edge = 2 * b + 2 * k + 1
        closed = cb_closed(b, edge).value
        got = ech_lower_bound(b, edge, args.n)
        ok &= _check(
            f"ech edge a={edge} within 1e-2",
            True,
            sign(got - closed) <= 0 and closed - got < Fraction(1, 100),
        )
    return ok


def _suite_geometry(args) -> bool:
    bad = 0
    for b in range(2, 51):
        try:
            step_geometry(b)
        except AssertionError:
            bad += 1
    ok = _check("breakpoint chains b=2..50", 0, bad)
    bad = 0
    prev = None
    for b in range(2, 201):
        length = step_geometry(b).step_lengths[0]
        if length <= 2 or (prev is not None and length >= prev):
            bad += 1
        prev = length
    return _check("l_b(0) decreasing to 2 (b<=200)", 0, bad) and ok


def _suite_alarge(args) -> bool:
    b = args.b
    bad = 0
    bound = 2 * b + 2 * math.isqrt(2 * b) + 2  # above (sqrt(2b)+1)^2
    samples = [Fraction(bound) + Fraction(j, 2) for j in range(5)]
    for e in range(0, 4):
        for d in range(0, b * e + math.isqrt(2 * b) + 2):
            for m in enumerate_dio_solutions(d, e, 2 * (d + e)):
                c = ExceptionalClass(d, e, m)
                for a in samples:
                    if sign(obstruction_mu(c, b, a) - volume_bound(b, a)) > 0:
                        bad += 1
    return _check(f"volume regime holds (b={b})", 0, bad)


_SUITES = {
    "weights": _suite_weights,
    "classes": _suite_classes,
    "edges": _suite_edges,
    "method2": _suite_method2,
    "equivalence": _suite_equivalence,
    "ech": _suite_ech,
    "geometry": _suite_geometry,
    "alarge": _suite_alarge,
}


def cmd_verify(args) -> int:
    return 0 if _SUITES[args.suite](args) else 1


_COMMANDS = {
    "eval": cmd_eval,
    "table": cmd_table,
    "plot": cmd_plot,
    "scan": cmd_scan,
    "classes": cmd_classes,
    "reduce": cmd_reduce,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
