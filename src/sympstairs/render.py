"""Deterministic CSV and SVG emitters for curve data.

Floats in the output are presentation only, always derived from exact
values at the last step; identical inputs produce byte-identical output, so
emitted files can serve as golden regression artifacts.  The SVG is
hand-assembled (viewBox scaled to the data, one polyline per overlay,
circle markers at the breakpoints) to avoid any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .curve import cb_closed, db_real, folding_bound, rescaled_chat, step_geometry, volume_bound
from .ech import ech_lower_bound
from .numbers import format_exact, sign, to_float

__all__ = ["PlotSpec", "emit_scan_csv", "emit_svg", "emit_table_csv", "sample_grid"]

TABLE_HEADER = "a_num,a_den,branch,value_exact,value_float,volume_float,folding_float"
SCAN_HEADER = "b,a_num,a_den,db_real,db_real_float,ech_lower,ech_lower_float,consistent"
SVG_WIDTH, SVG_HEIGHT = 800, 500

_OVERLAY_COLORS = {
    "closed-form": "#1f77b4",
    "volume": "#2ca02c",
    "folding": "#d62728",
    "db_real": "#9467bd",
    "rescaled": "#8c564b",
    "ech": "#ff7f0e",
}


@dataclass(frozen=True)
class PlotSpec:
    b: Fraction
    a_lo: Fraction
    a_hi: Fraction
    samples: int
    overlays: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "a_lo", Fraction(self.a_lo))
        object.__setattr__(self, "a_hi", Fraction(self.a_hi))
        if self.samples < 2:
            raise ValueError("needs at least two samples")
        if self.a_lo < 1 or self.a_hi <= self.a_lo:
            raise ValueError("a range must satisfy 1 <= lo < hi")


def sample_grid(spec: PlotSpec) -> list[Fraction]:
    step = (spec.a_hi - spec.a_lo) / (spec.samples - 1)
    return [spec.a_lo + i * step for i in range(spec.samples)]


def _fmt(x) -> str:
    return f"{to_float(x):.15g}"


def emit_table_csv(b: int, a_lo, a_hi, samples: int) -> str:
    """Curve dump: one row per sample a, schema fixed by TABLE_HEADER."""
    spec = PlotSpec(Fraction(b), a_lo, a_hi, samples)
    lines = [TABLE_HEADER]
    for a in sample_grid(spec):
        s = cb_closed(b, a)
        lines.append(
            f"{a.numerator},{a.denominator},{s.branch},{format_exact(s.value)},"
            f"{_fmt(s.value)},{_fmt(volume_bound(b, a))},{_fmt(folding_bound(b, a))}"
        )
    return "\n".join(lines) + "\n"


def emit_scan_csv(b_list, a_lo, a_hi, samples: int, ech_terms: int = 2000) -> str:
    """Conjecture scan: flags grid points where the ECH lower bound would
    exceed the obstruction maximum."""
    lines = [SCAN_HEADER]
    for b in b_list:
        b = Fraction(b)
        spec = PlotSpec(b, a_lo, a_hi, samples)
        for a in sample_grid(spec):
            db = db_real(b, a)
            ech = ech_lower_bound(b, a, ech_terms)
            consistent = sign(ech - db) <= 0
            lines.append(
                f"{format_exact(b)},{a.numerator},{a.denominator},"
                f"{format_exact(db)},{_fmt(db)},{format_exact(ech)},{_fmt(ech)},"
                f"{'yes' if consistent else 'NO'}"
            )
    return "\n".join(lines) + "\n"


def _overlay_evaluator(name: str, b: Fraction) -> Callable[[Fraction], object]:
    if name.endswith(")") and "(" in name:  # accept "ech(N)" for "ech:N"
        name = name[:-1].replace("(", ":", 1)
    base, _, arg = name.partition(":")
    if base == "closed-form":
        return lambda a: cb_closed(int(b), a).value
    if base == "volume":
        return lambda a: volume_bound(b, a)
    if base == "folding":
        return lambda a: folding_bound(b, a)
    if base == "db_real":
        return lambda a: db_real(b, a)
    if base == "rescaled":
        return lambda a: rescaled_chat(int(b), a)
    if base == "ech":
        n = int(arg) if arg else 1000
        return lambda a: ech_lower_bound(b, a, n)
    raise ValueError(f"unknown overlay: {name!r}")


def emit_svg(spec: PlotSpec) -> str:
    """Hand-emitted SVG: one polyline per overlay plus breakpoint markers."""
    overlays = spec.overlays or ("volume",)
    integer_b = spec.b.denominator == 1 and spec.b >= 2
    for name in overlays:
        if name.partition(":")[0] in ("closed-form", "rescaled") and not integer_b:
            raise ValueError(f"overlay {name!r} needs an integer b >= 2")
    grid = sample_grid(spec)
    curves = {}
    for name in overlays:
        f = _overlay_evaluator(name, spec.b)
        curves[name] = [(to_float(a), to_float(f(a))) for a in grid]

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
        color = _OVERLAY_COLORS.get(name.partition(":")[0], "#000000")
        coords = " ".join(f"{px(x):.6f},{py(y):.6f}" for x, y in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'data-overlay="{name}" points="{coords}"/>'
        )
    if integer_b:
        b = int(spec.b)
        g = step_geometry(b)
        marks = list(g.u) + list(g.v) + [g.alpha, g.beta]
        for point in marks:
            if not spec.a_lo <= to_float(point) <= spec.a_hi:
                continue
            if isinstance(point, Fraction):
                val = cb_closed(b, point).value
            else:  # irrational breakpoint (alpha_b): the affine line meets the volume there
                val = (b * point + 1) / Fraction(2 * b * (b + 1))
            parts.append(
                f'<circle cx="{px(to_float(point)):.6f}" cy="{py(to_float(val)):.6f}" '
                f'r="3" fill="#333333"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
