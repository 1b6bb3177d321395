"""Cremona transforms, traced reduction, and the Method-2 decision kernel.

A blow-up vector is a head value with a finite tail, (mu; a1,...,an) for an
embedding problem or (d; m1,...,mn) for a class on the blown-up plane; both
are the same data.  A class (d,e;m) on the blown-up polydisc enters through
``psi_push``.  Tails are logically infinite with zeros: the defect and the
Cremona transform pad to three entries as needed, and trailing zeros are
trimmed only on output.  Entries may be ints, Fractions or QuadNums of one
shared field; transforms never divide, so exactness is free.

Reduction applies standard Cremona moves (sort descending, apply the
transform, sort again) until the first reduced vector appears.  It exists
in two forms that make the same moves:

* Traces (``reduce_to_reduced``) hold flat ``BlowupVector`` tails and
  record each move's defect; the vectors are re-derived from the initial
  one, so a trace can be replayed and serialized.
* Decisions (``method2_decide``) build no trace.  The vector is scaled to
  one common denominator, so each entry is an int (rational entries) or an
  integer pair p + q*sqrt(d) of one field, and the tail is held as
  descending (value, multiplicity) runs.  A move takes the top three
  entries and merges at most three new values back, so it costs O(runs),
  not O(flat tail length); weight expansions come in few, long runs.

All values are immutable; independent reductions are safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Optional, Sequence

from .numbers import (
    IncompatibleFieldError,
    QuadNum,
    Value,
    bounds,
    format_exact,
    parse_exact,
    sign,
    surd_sign,
)

__all__ = [
    "BlowupVector",
    "ReductionLimitError",
    "ReductionTrace",
    "cremona_transform",
    "default_max_steps",
    "defect",
    "format_vector",
    "is_terminal_exceptional",
    "method2_decide",
    "parse_vector",
    "psi_push",
    "reduce_to_reduced",
    "standard_move",
]


@dataclass(frozen=True)
class BlowupVector:
    """Head plus tail, (head; t1, ..., tn)."""

    head: Value
    tail: tuple[Value, ...]

    def padded_tail(self, n: int = 3) -> tuple[Value, ...]:
        if len(self.tail) >= n:
            return self.tail
        return self.tail + (0,) * (n - len(self.tail))

    def sorted(self) -> "BlowupVector":
        # tuple(list), not tuple(generator): tuples grown from a generator are resized,
        # and CPython parks them on per-size free lists, thousands of them on hot paths
        return BlowupVector(self.head, tuple(sorted(self.tail, reverse=True)))

    def trimmed(self) -> "BlowupVector":
        tail = list(self.tail)
        while tail and tail[-1] == 0:
            tail.pop()
        return BlowupVector(self.head, tuple(tail))

    def __str__(self):
        return format_vector(self)


def defect(v: BlowupVector) -> Value:
    """delta = head minus the first three tail entries (zero-padded)."""
    t = v.padded_tail()
    return v.head - t[0] - t[1] - t[2]


def cremona_transform(v: BlowupVector) -> BlowupVector:
    """The raw Cremona transform: shift head and first three entries by delta.

    An involution; no reordering is performed.
    """
    t = v.padded_tail()
    d = v.head - t[0] - t[1] - t[2]
    return BlowupVector(v.head + d, (t[0] + d, t[1] + d, t[2] + d) + t[3:])


def standard_move(v: BlowupVector) -> BlowupVector:
    """Sort descending, apply the Cremona transform, sort again."""
    return cremona_transform(v.sorted()).sorted()


def is_terminal_exceptional(v: BlowupVector) -> bool:
    """True iff the vector is (0; -1, 0, ..., 0) with its tail in any order."""
    if sign(v.head) != 0:
        return False
    minus = 0
    for t in v.tail:
        if t == -1:
            minus += 1
        elif t != 0:
            return False
    return minus == 1


@dataclass(frozen=True)
class ReductionTrace:
    """A reduction from ``initial`` to ``final``: the defect of each move."""

    initial: BlowupVector
    defects: tuple[Value, ...]
    final: BlowupVector

    @property
    def step_count(self) -> int:
        return len(self.defects)

    def _walk(self):
        """The sorted initial vector, then the vector after each recorded move."""
        v = self.initial
        current = BlowupVector(v.head, v.padded_tail()).sorted()
        yield current
        for _ in self.defects:
            current = cremona_transform(current).sorted()
            yield current

    def replay(self) -> BlowupVector:
        """Re-run the moves from the initial vector, checking each recorded defect."""
        vectors = self._walk()
        current = next(vectors)
        for delta, moved in zip(self.defects, vectors):
            if sign(moved.head - current.head - delta) != 0:
                raise ValueError("trace defect does not match replayed vector")
            current = moved
        return current

    def to_lines(self) -> list[str]:
        vectors = self._walk()
        next(vectors)
        return [f"init {format_vector(self.initial.trimmed())}"] + [
            f"{format_exact(delta)} {format_vector(v.trimmed())}"
            for delta, v in zip(self.defects, vectors)
        ]


class ReductionLimitError(RuntimeError):
    """Raised when the move cap is exhausted; carries the partial trace."""

    def __init__(self, trace: ReductionTrace):
        self.trace = trace
        super().__init__(
            f"no reduced vector within {trace.step_count} standard Cremona moves"
            f" (tail length {len(trace.initial.tail)})"
        )


def _ceil_value(x: Value) -> int:
    return math.ceil(bounds(x)[1])


def _radicand(values: Sequence) -> Optional[int]:
    """The one radicand of the QuadNum values, or None; two radicands raise."""
    fields = {v.d for v in values if isinstance(v, QuadNum)}
    if len(fields) > 1:
        raise IncompatibleFieldError(f"radicands {sorted(fields)} lie in distinct fields")
    return fields.pop() if fields else None


def default_max_steps(v: BlowupVector) -> int:
    """Default move cap: 10 * (tail length + head magnitude, rounded up)."""
    return 10 * (len(v.tail) + _ceil_value(abs(v.head)))


def reduce_to_reduced(v: BlowupVector, max_steps: Optional[int] = None) -> ReductionTrace:
    """Apply standard Cremona moves until the first reduced vector.

    Raises :class:`ReductionLimitError` (with the partial trace attached) if
    no reduced vector appears within ``max_steps`` moves, and
    :class:`IncompatibleFieldError` if the entries mix two radicands.
    """
    _radicand([v.head, *v.tail])  # at entry only: moves add entries, so no new radicand
    if sign(v.head) < 0:
        raise ValueError("reduction requires a nonnegative head")
    cap = default_max_steps(v) if max_steps is None else max_steps
    work = BlowupVector(v.head, v.padded_tail()).sorted()
    defects: list[Value] = []
    while sign(delta := defect(work)) < 0:  # work is sorted, so this is "not reduced"
        if len(defects) >= cap:
            raise ReductionLimitError(ReductionTrace(v, tuple(defects), work))
        defects.append(delta)
        work = cremona_transform(work).sorted()
    return ReductionTrace(v, tuple(defects), work)


def method2_decide(mu, a_list, max_steps: Optional[int] = None) -> bool:
    """Decide whether (mu; a1,...,an) lies in the closure of the symplectic cone.

    Returns True (embeds) iff the first reduced vector in the standard-move
    orbit has only nonnegative entries.  A negative square mu^2 - sum(ai^2)
    is an immediate no.  Equal consecutive entries are grouped into runs for
    the trace-free kernel, which makes the moves of :func:`reduce_to_reduced`.
    """
    return _method2_runs(mu, [(a, len(list(g))) for a, g in groupby(a_list)], max_steps)[0]


def _method2_flat(mu, runs: Sequence[tuple], max_steps: Optional[int] = None) -> bool:
    """The same decision on the same runs, by a traced reduction of the flat vector."""
    tail = [v for v, mult in runs for _ in range(mult)]
    if sign(mu) < 0:
        raise ValueError("head must be nonnegative")
    if sign(mu * mu - sum((a * a for a in tail), Fraction(0))) < 0:
        return False
    final = reduce_to_reduced(BlowupVector(mu, tuple(tail)), max_steps).final
    return all(sign(x) >= 0 for x in (final.head, *final.tail))


class _Surd:
    """p + q*sqrt(d) with integer p, q: an entry of a scaled Q(sqrt(d)) vector."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p: int, q: int, d: int):
        self.p, self.q, self.d = p, q, d

    def __add__(self, other):
        return _Surd(self.p + other.p, self.q + other.q, self.d)

    def __sub__(self, other):
        return _Surd(self.p - other.p, self.q - other.q, self.d)

    def __mul__(self, other):  # by an int multiplicity, or by another _Surd
        if isinstance(other, int):
            return _Surd(self.p * other, self.q * other, self.d)
        p, q = other.p, other.q
        return _Surd(self.p * p + self.q * q * self.d, self.p * q + self.q * p, self.d)

    def __eq__(self, other):
        return self.p == other.p and self.q == other.q

    def __lt__(self, other):
        return surd_sign(self.p - other.p, self.q - other.q, self.d) < 0


def _scaled(values: list) -> list:
    """The values times their common denominator: ints, or _Surds of one field.

    Scaling by a positive integer keeps every sign, and moves never divide,
    so the whole reduction stays in integers.
    """
    if not all(isinstance(v, (int, Fraction, QuadNum)) for v in values):
        raise TypeError("the Method-2 decision needs exact values")
    d = _radicand(values)
    parts = [(v.p, v.q) if isinstance(v, QuadNum) else (v, 0) for v in values]
    den = math.lcm(*[x.denominator for pq in parts for x in pq])
    ints = [[x.numerator * (den // x.denominator) for x in pq] for pq in parts]
    if d is None:
        return [p for p, _ in ints]
    return [_Surd(p, q, d) for p, q in ints]


def _method2_runs(head, runs: Sequence[tuple], max_steps: Optional[int] = None) -> tuple[bool, int]:
    """The Method-2 decision on a run-length tail: (embeds, moves made).

    ``runs`` lists (value, multiplicity) in any order; flattened in order it
    is the tail :func:`reduce_to_reduced` would start from.  The moves, their
    cap and the answer are those of the flat path, but no trace is built: a
    move takes the top three entries and merges three values back, O(runs).
    At the cap the flat path is re-run to raise :class:`ReductionLimitError`
    with its partial trace.
    """
    if sign(head) < 0:
        raise ValueError("head must be nonnegative")
    h, *values = _scaled([head, *(v for v, _ in runs)])
    zero = h - h
    square = h * h
    tail: list[list] = []  # descending [value, multiplicity] runs
    for v, (_, mult) in sorted(zip(values, runs), key=lambda vr: vr[0], reverse=True):
        square = square - v * v * mult
        if tail and tail[-1][0] == v:
            tail[-1][1] += mult
        else:
            tail.append([v, mult])
    if square < zero:
        return False, 0
    flat_length = sum(mult for _, mult in runs)
    if flat_length < 3:
        _insert(tail, zero, 3 - flat_length)
    cap = 10 * (flat_length + _ceil_value(abs(head))) if max_steps is None else max_steps
    moves = 0
    while True:
        top = []
        while len(top) < 3:
            run = tail[0]
            take = min(run[1], 3 - len(top))
            top += [run[0]] * take
            run[1] -= take
            if not run[1]:
                del tail[0]
        delta = h - top[0] - top[1] - top[2]
        if not delta < zero:
            least = tail[-1][0] if tail else top[2]
            return not (h < zero or least < zero), moves
        if moves >= cap:
            _method2_flat(head, runs, max_steps)
            raise AssertionError("the run-length and flat reductions disagree")
        moves += 1
        h = h + delta
        for t in top:
            _insert(tail, t + delta, 1)


def _insert(tail: list, value, count: int):
    """Merge ``count`` copies of ``value`` into a descending run-length tail."""
    for i, run in enumerate(tail):
        if run[0] == value:
            run[1] += count
            return
        if run[0] < value:
            tail.insert(i, [value, count])
            return
    tail.append([value, count])


def psi_push(d, e, m: Sequence) -> BlowupVector:
    """Push (d,e;m) to the homology basis: (d+e-m1; d-m1, e-m1, m2, ...).

    Transports solutions of the polydisc Diophantine system to solutions of
    the ball one.
    """
    m = list(m)
    if any(sign(x - y) < 0 for x, y in zip(m, m[1:])):
        raise ValueError("m must be non-increasing")
    m1 = m[0] if m else 0
    return BlowupVector(d + e - m1, (d - m1, e - m1) + tuple(m[1:]))


def format_vector(v: BlowupVector) -> str:
    """Render "(head;t1,...,tn)"."""
    return f"({format_exact(v.head)};{','.join(format_exact(t) for t in v.tail)})"


def parse_vector(s: str) -> BlowupVector:
    """Parse the textual vector format accepted by the CLI ``reduce`` command.

    "(mu;a1,...,an)" is a vector as written; a class "(d,e;m1,...,mk)" on the
    polydisc blow-up is pushed to the homology basis by :func:`psi_push`.
    """
    text = s.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if ";" not in text:
        raise ValueError(f"not a blow-up vector: {s!r}")
    head_part, tail_part = text.split(";", 1)
    heads = [parse_exact(h) for h in head_part.split(",")]
    tail_part = tail_part.strip()
    tail = tuple(parse_exact(t) for t in tail_part.split(",")) if tail_part else ()
    if len(heads) == 1:
        return BlowupVector(heads[0], tail)
    if len(heads) == 2:
        return psi_push(heads[0], heads[1], tail)
    raise ValueError(f"too many head components in {s!r}")
