"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last stdout line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--setup-only] [--max-ops K]

Set-up (timed as ``setup_s``) is the import of ``sympstairs``, input
generation from the seed and the per-b cache warm-up.  Untraced, the run is
a single-threaded closed loop: the seeded, shuffled operations are called
one after another, cycling, until ``--seconds`` have passed; each call is
timed on its own.  Traced, the operations run once untraced, once with the
tracing wrappers installed and once more untraced; the traced wall time
over the faster untraced one is the tracing overhead.  Every output is
checked after the timed section: the first output of each operation
against its reference, later outputs of the same operation for equality
with the first.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import sympstairs  # noqa: E402
import sympstairs.cli  # noqa: E402,F401  (render and cli are traced layers too)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPAN_DIR = BENCH_DIR.parent / ".bench_out"


def percentile(samples: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile; returns (value, samples beyond it)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Outputs:
    """First output per operation, and the calls that failed."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, object] = {}
        self.matches: dict[int, int] = {}  # calls whose output equals the first
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, index: int, problem: str, calls: int = 1):
        self.failed += calls
        if len(self.failures) < 20:
            self.failures.append(f"{self.ops[index].label}: {problem}")

    def record(self, index: int, output):
        if index not in self.first:
            self.first[index] = output
        elif output != self.first[index]:
            self._fail(index, "output differs between calls")
            return
        self.matches[index] = self.matches.get(index, 0) + 1

    def error(self, index: int, exc: BaseException):
        self._fail(index, f"{type(exc).__name__}: {exc}")

    def check_all(self):
        """Check each first output; a failure counts every call that matched it."""
        for index, output in self.first.items():
            try:
                problem = self.ops[index].check(output)
            except Exception as exc:  # a crashing check is a failed operation
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                self._fail(index, problem, self.matches[index])


def run_pass(ops, outputs: Outputs) -> float:
    """Call every operation once; return the wall seconds."""
    t0 = time.perf_counter()
    for index, op in enumerate(ops):
        try:
            out = op.run()
        except Exception as exc:
            outputs.error(index, exc)
        else:
            outputs.record(index, out)
    return time.perf_counter() - t0


def run_timed(ops, outputs: Outputs, seconds: float) -> tuple[float, list[float]]:
    """Closed loop over the operations, cycling, until ``seconds`` have passed."""
    clock = time.perf_counter
    latencies = []
    t0 = clock()
    deadline = t0 + seconds
    index = 0
    while clock() < deadline:
        op = ops[index]
        start = clock()
        try:
            out = op.run()
        except Exception as exc:
            latencies.append(clock() - start)
            outputs.error(index, exc)
        else:
            latencies.append(clock() - start)
            outputs.record(index, out)
        index = (index + 1) % len(ops)
    return clock() - t0, latencies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--max-ops", type=int, default=None,
                        help="keep only the first K shuffled operations (smoke tests)")
    args = parser.parse_args(argv)

    rng = random.Random(f"{args.workload}:{args.seed}")
    plan = workloads.WORKLOADS[args.workload](sympstairs, rng)
    rng.shuffle(plan.ops)
    if args.max_ops is not None:
        plan.ops = plan.ops[: args.max_ops]
    workloads.warm(sympstairs, args.workload)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outputs = Outputs(plan.ops)
    info = {"profile": plan.profile, "distinct_ops": len(plan.ops)}
    if args.trace:
        # untraced passes on both sides of the traced one, so first-pass
        # costs (allocator growth) do not count as tracing overhead
        before_s = run_pass(plan.ops, outputs)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s = run_pass(plan.ops, outputs)
        finally:
            tracer.uninstall()
        after_s = run_pass(plan.ops, outputs)
        plain_s = min(before_s, after_s)
        attempted = 3 * len(plan.ops)
        metrics = tracer.metrics(traced_s / plain_s)
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(span_file)
        info.update(untraced_s=plain_s, traced_s=traced_s, spans=len(tracer.spans),
                    span_file=str(span_file.relative_to(BENCH_DIR.parent)))
    else:
        wall_s, lat = run_timed(plan.ops, outputs, args.seconds)
        attempted = len(lat)
        pct = workloads.TAIL_PERCENTILE[args.workload]
        tail, beyond = percentile(lat, pct)
        metrics = {
            "ops_per_s": {"value": attempted / wall_s, "unit": "op/s"},
            "op_ms.p50": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "op_ms.tail": {"value": tail * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        info.update(wall_s=wall_s, tail={"percentile": pct, "samples": attempted,
                                         "beyond": beyond})
    outputs.check_all()
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": outputs.failed,
        "failures": outputs.failures,
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
