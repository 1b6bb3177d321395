"""Deterministic CSV and SVG emitters for curve data.

Floats in the output are presentation only, always derived from exact
values at the last step; identical inputs produce byte-identical output, so
emitted files can serve as golden regression artifacts.  The SVG is
hand-assembled (viewBox scaled to the data, one polyline per overlay,
circle markers at the breakpoints) to avoid any plotting dependency.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .curve import cb_closed, db_real, folding_bound, rescaled_chat, step_geometry, volume_bound
from .ech import ech_lower_bound
from .numbers import format_exact, sign

__all__ = ["OVERLAYS", "emit_scan_csv", "emit_svg", "emit_table_csv", "parse_overlay", "sample_grid"]

TABLE_HEADER = "a_num,a_den,branch,value_exact,value_float,volume_float,folding_float"
SCAN_HEADER = "b,a_num,a_den,db_real,db_real_float,ech_lower,ech_lower_float,consistent"
SVG_WIDTH, SVG_HEIGHT = 800, 500

# overlay name -> (stroke colour, value at (b, a, ECH term count), needs an integer b >= 2)
OVERLAYS = {
    "closed-form": ("#1f77b4", lambda b, a, n: cb_closed(int(b), a).value, True),
    "volume": ("#2ca02c", lambda b, a, n: volume_bound(b, a), False),
    "folding": ("#d62728", lambda b, a, n: folding_bound(b, a), False),
    "db_real": ("#9467bd", lambda b, a, n: db_real(b, a), False),
    "rescaled": ("#8c564b", lambda b, a, n: rescaled_chat(int(b), a), True),
    "ech": ("#ff7f0e", lambda b, a, n: ech_lower_bound(b, a, n), False),
}
_OVERLAY_RE = re.compile(r"([a-z_-]+)(?::([0-9]+)|\(([0-9]+)\))?")


def parse_overlay(name: str) -> tuple[str, int | None]:
    """Split an overlay name into (base, ECH term count).

    The base is a key of OVERLAYS.  Only ``ech`` takes a term count, written
    ``ech:N`` or ``ech(N)`` with 1 <= N <= 10^9; a bare ``ech`` uses 1000.
    The count is None for every other overlay.
    """
    m = _OVERLAY_RE.fullmatch(name)
    if m is None or m.group(1) not in OVERLAYS:
        raise ValueError(f"unknown overlay: {name!r}")
    base, arg = m.group(1), m.group(2) or m.group(3)
    if base != "ech":
        if arg is not None:
            raise ValueError(f"overlay {base!r} takes no argument: {name!r}")
        return base, None
    n_terms = 1000 if arg is None else int(arg)
    if not 1 <= n_terms <= 10**9:
        raise ValueError(f"ECH term count not in 1..10^9: {name!r}")
    return base, n_terms


def sample_grid(a_lo, a_hi, samples: int) -> list[Fraction]:
    """samples equally spaced exact points from a_lo to a_hi, both included."""
    a_lo, a_hi = Fraction(a_lo), Fraction(a_hi)
    if samples < 2:
        raise ValueError("needs at least two samples")
    if a_lo < 1 or a_hi <= a_lo:
        raise ValueError("a range must satisfy 1 <= lo < hi")
    step = (a_hi - a_lo) / (samples - 1)
    return [a_lo + i * step for i in range(samples)]


def _fmt(x) -> str:
    return f"{float(x):.15g}"


def emit_table_csv(b: int, a_lo, a_hi, samples: int) -> str:
    """Curve dump: one row per sample a, schema fixed by TABLE_HEADER."""
    lines = [TABLE_HEADER]
    for a in sample_grid(a_lo, a_hi, samples):
        s = cb_closed(b, a)
        lines.append(
            f"{a.numerator},{a.denominator},{s.branch},{format_exact(s.value)},"
            f"{_fmt(s.value)},{_fmt(volume_bound(b, a))},{_fmt(folding_bound(b, a))}"
        )
    return "\n".join(lines) + "\n"


def emit_scan_csv(b_list, a_lo, a_hi, samples: int, ech_terms: int = 2000) -> str:
    """Conjecture scan: flags grid points where the ECH lower bound would
    exceed the obstruction maximum."""
    grid = sample_grid(a_lo, a_hi, samples)
    lines = [SCAN_HEADER]
    for b in map(Fraction, b_list):
        for a in grid:
            db = db_real(b, a)
            ech = ech_lower_bound(b, a, ech_terms)
            consistent = sign(ech - db) <= 0
            lines.append(
                f"{format_exact(b)},{a.numerator},{a.denominator},"
                f"{format_exact(db)},{_fmt(db)},{format_exact(ech)},{_fmt(ech)},"
                f"{'yes' if consistent else 'NO'}"
            )
    return "\n".join(lines) + "\n"


def emit_svg(b, a_lo, a_hi, samples: int, overlays=()) -> str:
    """Hand-emitted SVG: one polyline per overlay plus breakpoint markers.

    Overlays are names read by :func:`parse_overlay`, drawn in the given order
    and labelled as given; none means ``closed-form,volume`` at integer b >= 2
    and ``volume`` otherwise.
    """
    b = Fraction(b)
    integer_b = b.denominator == 1 and b >= 2
    plans = {}
    for name in overlays or (("closed-form", "volume") if integer_b else ("volume",)):
        base, n_terms = parse_overlay(name)
        color, value, needs_integer_b = OVERLAYS[base]
        if needs_integer_b and not integer_b:
            raise ValueError(f"overlay {name!r} needs an integer b >= 2")
        plans[name] = (color, value, n_terms)
    grid = sample_grid(a_lo, a_hi, samples)
    curves = {name: [(float(a), float(value(b, a, n_terms))) for a in grid]
              for name, (_, value, n_terms) in plans.items()}

    xs = [x for pts in curves.values() for x, _ in pts]
    ys = [y for pts in curves.values() for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad_x = 0.05 * (x1 - x0) or 1.0
    pad_y = 0.05 * (y1 - y0) or 1.0
    x0, x1, y0, y1 = x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y

    def px(x: float) -> float:
        return (x - x0) / (x1 - x0) * SVG_WIDTH

    def py(y: float) -> float:
        return SVG_HEIGHT - (y - y0) / (y1 - y0) * SVG_HEIGHT

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    for name, pts in curves.items():
        color = plans[name][0]
        coords = " ".join(f"{px(x):.6f},{py(y):.6f}" for x, y in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'data-overlay="{name}" points="{coords}"/>'
        )
    if integer_b:
        b = int(b)
        g = step_geometry(b)
        marks = list(g.u) + list(g.v) + [g.alpha, g.beta]
        for point in marks:
            if not grid[0] <= float(point) <= grid[-1]:
                continue
            if isinstance(point, Fraction):
                val = cb_closed(b, point).value
            else:  # irrational breakpoint (alpha_b): the affine line meets the volume there
                val = (b * point + 1) / Fraction(2 * b * (b + 1))
            parts.append(
                f'<circle cx="{px(float(point)):.6f}" cy="{py(float(val)):.6f}" '
                f'r="3" fill="#333333"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
