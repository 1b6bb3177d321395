"""Benchmark of sympstairs: one workload, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for why each exists): decide-grid,
bisect-longtail, ech-ratio, certify-render.  Each run starts the workload in
a fresh interpreter (``worker.py``); an untraced run also measures set-up
in four more fresh interpreters and reports the median of the five set-up
times.  The run is single-threaded and closed-loop: one caller, the next
operation starts when the previous one returns.

``--trace 0`` reports the end-to-end metrics:

    ops_per_s    op/s  checked operations completed per second, timed section
    op_ms.p50    ms    median latency of one operation
    op_ms.tail   ms    a fixed percentile per workload (workloads.TAIL_PERCENTILE),
                       the highest that leaves >= 10 samples beyond it; the
                       sample count and the number beyond are printed
    setup_s      s     import, input generation and cache warm-up (median of 5)
    peak_rss_mb  MB    ru_maxrss of the interpreter that ran the workload

``--trace 1`` reports the per-layer metrics listed in ``tracer.PER_LAYER``.

Operations that raise or fail their check are counted in ``failed``; the
fail ratio (failed / attempted) is printed, and any failure makes the run
exit with code 1.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Span logs of traced runs go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SETUP_PROBES = 4
DEADLINE_S = 170.0


def _worker(argv: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="keep only the first K shuffled operations (smoke tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sympstairs" / "__init__.py").is_file():
        print(f"error: no sympstairs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    machine = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.max_ops is not None:
        common += ["--max-ops", str(args.max_ops)]
    try:
        setups = [_worker(common + ["--setup-only"], deadline - time.monotonic())["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        result = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                         deadline - time.monotonic())
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted, failed = result["attempted"], result["failed"]
    info = result["info"]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"machine {json.dumps(machine)}")
    print(f"profile {json.dumps(info.pop('profile'))}")
    print(f"run {json.dumps(info)}")
    print(f"setup_samples_s {json.dumps(setups)}")
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name} {value} {m['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} 1 ({failed} of {attempted})")
    for line in result["failures"]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
