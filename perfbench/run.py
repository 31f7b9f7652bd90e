"""Benchmark entry point.

    python3 perfbench/run.py --workload ingest|query_head|query_tail \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. Prints one JSON object as the last line
of stdout: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. Exits 2 without a result when the program cannot be
imported. See perfbench/RATIONALE.md for the workload design.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the alarm fires well inside the 180 s a run may take
TIME_LIMIT_S = 150


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (tests)")
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import pyfuseray.pipeline  # noqa: F401  (the program under test)
    except ImportError as e:
        print(f"program not found under {ROOT}: {e}", file=sys.stderr)
        return 2
    from perfbench import inputs, workloads
    from perfbench.measure import Calibrator

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # the program and Ray log to stdout; keep it for the result line only
    stdout = os.dup(1)
    os.dup2(2, 1)

    def on_alarm(signum, frame):
        raise workloads.WorkloadTimeout(f"workload exceeded {TIME_LIMIT_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    size = inputs.SMOKE if args.smoke else inputs.FULL
    run = workloads.Run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), size)
    calib = Calibrator()

    def calib_ms():
        return sorted(calib.probe_ms() for _ in range(5))[2]

    calib0 = calib_ms()
    signal.alarm(TIME_LIMIT_S)
    try:
        with run:
            workloads.WORKLOADS[args.workload](run)
    except (Exception, workloads.WorkloadTimeout):
        run.attempted += 1
        run.failed += 1
        traceback.print_exc(file=sys.stderr)
    finally:
        signal.alarm(0)
    run.layer["host.calib_ms"] = calib0
    run.layer["host.calib_end_ms"] = calib_ms()

    sys.stdout.flush()
    os.dup2(stdout, 1)
    print(json.dumps(run.result()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
