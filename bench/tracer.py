"""Per-layer tracing installed from outside the library.

``Tracer.install`` replaces each traced function at every binding site:
``from .numbers import sign`` and similar imports copy a name into several
``sympstairs`` modules, so every module attribute that *is* the original
function object gets the wrapper.  ``uninstall`` puts the originals back.

Coarse functions get spans (name, parent, start, end) kept in memory; a
span's self time is its duration minus the time its child spans cover.
Fine-grained functions (``sign``, ``QuadNum`` arithmetic, single Cremona
moves) are only counted, so the number of spans stays bounded.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter

# (layer module, function): the spanned calls.  A span's metric names are
# "<layer>.<function>.calls" and "<layer>.<function>.self_s".
SPANNED = (
    ("weights", "weight_expansion"),
    ("cremona", "method2_decide"),
    ("cremona", "reduce_to_reduced"),
    ("curve", "method2_cb_decide"),
    ("curve", "cb_bisect"),
    ("curve", "cb_closed"),
    ("ech", "ech_sequence"),
    ("ech", "ech_lower_bound"),
    ("classes", "certification_trace"),
    ("render", "emit_table_csv"),
    ("render", "emit_svg"),
    ("cli", "main"),
)

# ReductionTrace methods the trace path runs: (layer module, class, method),
# reported as "<layer>.<method>.calls" and "<layer>.<method>.self_s".
SPANNED_METHODS = (
    ("cremona", "ReductionTrace", "replay"),
    ("cremona", "ReductionTrace", "to_lines"),
)

# QuadNum methods counted as "numbers.quadnum_ops.calls".
QUADNUM_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "_cmp", "__eq__",
)

# Every per-layer metric a traced run reports, with its unit and direction.
PER_LAYER = (
    ("numbers.sign.calls", "count", "lower"),
    ("numbers.quadnum_ops.calls", "count", "lower"),
    ("weights.weight_expansion.self_s", "s", "lower"),
    ("weights.flat_weights", "count", "lower"),
    ("weights.runs", "count", "lower"),
    ("cremona.method2_decide.self_s", "s", "lower"),
    ("cremona.reduce_to_reduced.calls", "count", "lower"),
    ("cremona.reduce_to_reduced.self_s", "s", "lower"),
    ("cremona.moves", "count", "lower"),
    ("cremona.tail_entries", "count", "lower"),
    ("cremona.replay.self_s", "s", "lower"),
    ("cremona.to_lines.self_s", "s", "lower"),
    ("curve.method2_cb_decide.self_s", "s", "lower"),
    ("curve.cb_bisect.self_s", "s", "lower"),
    ("curve.bisect_steps", "count", "lower"),
    ("curve.cb_closed.self_s", "s", "lower"),
    ("ech.ech_sequence.calls", "count", "lower"),
    ("ech.ech_sequence.self_s", "s", "lower"),
    ("ech.terms", "count", "lower"),
    ("ech.ech_lower_bound.self_s", "s", "lower"),
    ("classes.certification_trace.calls", "count", "lower"),
    ("classes.certification_trace.self_s", "s", "lower"),
    ("render.emit_table_csv.self_s", "s", "lower"),
    ("render.emit_svg.self_s", "s", "lower"),
    ("render.bytes_out", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
)


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sympstairs" or name.startswith("sympstairs."))]


class Tracer:
    """Counts and spans of one traced pass; install, run, uninstall, report."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, name, time covered by children]
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        stack, spans, self_s, counts = self._stack, self.spans, self.self_s, self.counts
        ids, clock = self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            parent = stack[-1] if stack else None
            frame = [next(ids), name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self_s[name] += (t1 - t0) - frame[2]
                if parent is not None:
                    parent[2] += t1 - t0
                spans.append((frame[0], -1 if parent is None else parent[0], name, t0, t1))
            if after is not None:
                after(args, result, parent)
            return result

        return wrapper

    def _counted(self, key, fn, before=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- per-function hooks --------------------------------------------------

    def _after_weight_expansion(self, args, w, parent):
        self.counts["weights.flat_weights"] += w.flat_length
        self.counts["weights.runs"] += len(w.entries)

    def _after_method2_cb_decide(self, args, result, parent):
        if parent is not None and parent[1] == "curve.cb_bisect":
            self.counts["curve.bisect_steps"] += 1

    def _after_ech_sequence(self, args, seq, parent):
        self.counts["ech.terms"] += len(seq)

    def _after_emit(self, args, text, parent):
        self.counts["render.bytes_out"] += len(text.encode())

    def _before_move(self, args):
        self.counts["cremona.tail_entries"] += len(args[0].tail)

    # -- install / uninstall -------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap every traced function at every binding site in the library."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {m.__name__: m for m in _library_modules()}
        hooks = {
            "weights.weight_expansion": self._after_weight_expansion,
            "curve.method2_cb_decide": self._after_method2_cb_decide,
            "ech.ech_sequence": self._after_ech_sequence,
            "render.emit_table_csv": self._after_emit,
            "render.emit_svg": self._after_emit,
        }
        try:
            for layer, func in SPANNED:
                original = getattr(modules[f"sympstairs.{layer}"], func)
                name = f"{layer}.{func}"
                self._replace_everywhere(original, self._spanned(name, original, hooks.get(name)))
            for layer, cls_name, method in SPANNED_METHODS:
                cls = getattr(modules[f"sympstairs.{layer}"], cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._spanned(f"{layer}.{method}", original))
            numbers = modules["sympstairs.numbers"]
            cremona = modules["sympstairs.cremona"]
            self._replace_everywhere(numbers.sign, self._counted("numbers.sign.calls", numbers.sign))
            self._replace_everywhere(
                cremona.cremona_transform,
                self._counted("cremona.moves", cremona.cremona_transform, self._before_move),
            )
            quad = numbers.QuadNum
            for attr in QUADNUM_OPS:
                original = quad.__dict__[attr]
                self._patched.append((quad, attr, original))
                setattr(quad, attr, self._counted("numbers.quadnum_ops.calls", original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        """Every PER_LAYER metric, zero where the layer did no work."""
        out = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_ratio":
                value = overhead_ratio
            elif name.endswith(".self_s"):
                value = self.self_s[name[: -len(".self_s")]]
            else:
                value = self.counts[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON: [id, parent id, name, start, end]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
