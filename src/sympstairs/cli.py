"""Command-line interface: evaluation, tabulation, plotting, verification.

Subcommands: eval | table | plot | verify | scan | classes | reduce.
Exit codes: 0 success / all checks pass, 1 runtime or I/O error (or a failed
verify), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .classes import format_class, gen_E, gen_F, gen_G
from .cremona import parse_vector, reduce_to_reduced
from .curve import cb_bisect, cb_closed, method2_cb_decide
from .ech import ech_lower_bound
from .numbers import format_exact, parse_exact, to_float
from .render import PlotSpec, emit_scan_csv, emit_svg, emit_table_csv


def _checked(parse, ok, what: str):
    """An argparse type: parse the text, and reject it unless ok(value)."""

    def check(text: str):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value

    return check


def _above(bound, parse, what: str, most=None):
    """An argparse type for bound < value (and value <= most, if most is given)."""
    return _checked(parse, lambda v: bound < v and (most is None or v <= most), what)


_rational = _checked(Fraction, lambda x: True, "a rational")
_positive_int = _above(0, int, "a positive integer")
_ech_terms = _above(0, int, "a positive integer up to 10^9", most=10**9)
_integer_b = _above(1, int, "an integer b >= 2")
_sample_count = _above(1, int, "a sample count from 2 to 10000", most=10**4)
_positive_rational = _above(0, Fraction, "a positive rational")
_class_index = _above(-1, int, "a nonnegative integer up to 500", most=500)
_rational_range = _checked(lambda text: tuple(map(Fraction, text.split(":"))),
                           lambda r: len(r) == 2 and 1 <= r[0] < r[1],
                           "a range lo:hi with 1 <= lo < hi")
# a comma list of rationals b >= 2, the domain of db_real
_b_list = _checked(lambda text: [Fraction(s) for s in text.split(",") if s],
                   lambda bs: bs and min(bs) >= 2, "a comma list of rationals b >= 2")


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
    p.add_argument("--b", type=_integer_b, required=True)
    p.add_argument("--a", type=_rational, required=True)
    p.add_argument("--method", choices=["closed", "bisect", "ech", "decide"], default="closed")
    p.add_argument("--tol", type=_positive_rational, default=Fraction(1, 10**4))
    p.add_argument("--n", type=_ech_terms, default=10**4, help="ECH terms for --method ech")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="exact value to test with --method decide, e.g. 17/12 or sqrt(2)")

    p = sub.add_parser("table", help="CSV curve dump (closed form + bounds)")
    p.add_argument("--b", type=_integer_b, required=True)
    p.add_argument("--a", type=_rational_range, required=True, metavar="LO:HI")
    p.add_argument("--n", type=_sample_count, default=181, help="number of samples")
    p.add_argument("--out")

    p = sub.add_parser("plot", help="SVG plot of selected overlays")
    p.add_argument("--b", type=_rational, required=True)
    p.add_argument("--a", type=_rational_range, required=True, metavar="LO:HI")
    p.add_argument("--n", type=_sample_count, default=181)
    p.add_argument("--overlays", default="closed-form,volume")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "suite",
        choices=list(_SUITES),
    )
    p.add_argument("--b", type=_integer_b, default=2,
                   help="b for the edges, method2, ech and alarge suites")
    p.add_argument("--max-n", type=_class_index, default=30)
    p.add_argument("--n", type=_ech_terms, default=2000, help="ECH terms for the ech suite")
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("scan", help="conjecture scan over rational b")
    p.add_argument("--b", type=_b_list, required=True,
                   help="comma-separated rationals >= 2, e.g. 2,5/2,3")
    p.add_argument("--a", type=_rational_range, required=True, metavar="LO:HI")
    p.add_argument("--n", type=_sample_count, default=17)
    p.add_argument("--ech-n", type=_ech_terms, default=2000)
    p.add_argument("--out")

    p = sub.add_parser("classes", help="list the certified class families")
    p.add_argument("--max-n", type=_class_index, default=10)
    p.add_argument("--max-b", type=_class_index, default=5)

    p = sub.add_parser("reduce", help="reduce a vector and print the trace")
    p.add_argument("vector", help='e.g. "(2;1,1,1,1,1)" or "(6,3;3,2,2,2,2,2,2,2)"')
    p.add_argument("--max-steps", type=_positive_int, default=None)
    return top


def cmd_eval(args) -> int:
    if args.method == "closed":
        value = cb_closed(args.b, args.a).value
        print(f"{format_exact(value)}\t{to_float(value):.15g}")
    elif args.method == "bisect":
        lo, hi = cb_bisect(args.b, args.a, args.tol)
        mid = (lo + hi) / 2
        print(f"[{format_exact(lo)},{format_exact(hi)}]\t{to_float(mid):.15g}")
    elif args.method == "decide":
        if args.lam is None:
            raise ValueError("--method decide needs --lambda")
        lam = parse_exact(args.lam)
        embeds = method2_cb_decide(args.b, args.a, lam)
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
    lo, hi = args.a
    _write_out(args.out, emit_scan_csv(args.b, lo, hi, args.n, args.ech_n))
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
    trace = reduce_to_reduced(parse_vector(args.vector), args.max_steps)
    for line in trace.to_lines():
        print(line)
    print(f"steps {trace.step_count}")
    return 0


# -- verify suites: the checks live in sympstairs.checks ----------------------

_SUITES = {
    "weights": lambda checks, args: checks.weights(),
    "classes": lambda checks, args: checks.classes(args.max_n),
    "edges": lambda checks, args: checks.edges(args.b),
    "method2": lambda checks, args: checks.method2(args.b),
    "equivalence": lambda checks, args: checks.equivalence(),
    "ech": lambda checks, args: checks.ech(args.b, args.n),
    "geometry": lambda checks, args: checks.geometry(),
    "alarge": lambda checks, args: checks.alarge(args.b),
}


def cmd_verify(args) -> int:
    from . import checks  # imported here only, so other commands do not load it

    ok = True
    for record in _SUITES[args.suite](checks, args):
        ok &= record.passed
        print(f"{record.name} expected={record.expected} got={record.got} "
              f"{'PASS' if record.passed else 'FAIL'}")
        if args.trace and record.trace is not None:
            for line in record.trace.to_lines():
                print(f"    {line}")
    return 0 if ok else 1


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
