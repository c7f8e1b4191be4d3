"""One workload in one fresh process: set up, run operations, check outputs.

Started by `run.py`, never by hand.  Protocol on stdout: the line ``ready``
once extrusim is imported and the inputs are built, then (unless
``--setup-only``) one line ``result <json>`` with the raw measurements.

A closed loop: one caller, each operation starts after the previous one
returned.  The first operation is a warm-up; its outputs get the full
checks after the loop, and every later operation must reproduce them byte
for byte.  A CPU speed probe (`calibrate.py`) runs between operations.
With ``--trace 1`` every other operation runs with the tracer installed,
and the untraced ones give the overhead baseline.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# minimum timed operations, so that the tail percentile has ten beyond it
MIN_OPS = 11
# hard cap on the loop, far inside the 180 s a run may take
MAX_LOOP_S = 120.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy

    import extrusim

    src = (ROOT / "src").resolve()
    if src not in Path(extrusim.__file__).resolve().parents:
        print(f"extrusim imported from {extrusim.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, workloads.draw(args.workload, args.seed), args.work)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    import calibrate

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    # one entry per timed operation: wall time, slowness of the machine
    # around it (probe time over its reference), per-layer metrics if traced
    ops = []
    failures, errors = 0, []
    first = first_print = None
    attempted = 0
    probe_before = calibrate.probe()
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if attempted > 0 and (elapsed >= args.seconds and len(ops) >= MIN_OPS or elapsed >= MAX_LOOP_S):
            break
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.install()
            lo = tracer.begin_op(attempted)
        t0 = time.perf_counter()
        try:
            result = wl.op()
            failed = None
        except Exception:  # an operation that raises counts as failed
            result, failed = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        layers = None
        if traced:
            tracer.uninstall()
            layers = tracer.layer_metrics(lo, len(tracer.start))
        if failed is None:
            fp = wl.fingerprint(result)
            if attempted == 0:
                first, first_print = result, fp
            elif fp != first_print:
                failed = "outputs differ from the first operation's"
            wl.settle(result, keep=attempted == 0)
        if failed is not None:
            failures += 1
            if len(errors) < 3:
                errors.append(failed)
        probe_after = calibrate.probe()
        if attempted > 0:
            slowness = 0.5 * (probe_before + probe_after) / calibrate.REFERENCE_S
            ops.append({"wall_s": dt, "slowness": slowness, "traced": traced, "layers": layers})
        probe_before = probe_after
        attempted += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if first_print is None:
        check_errors = ["the first operation failed"]
    else:
        check_errors = wl.full_check(first, workloads.load_refs()[args.workload])
    if check_errors:
        # every operation reproduced the first one's outputs, so all fail
        failures = attempted
        errors = check_errors + errors
    if tracer is not None and args.spans is not None:
        tracer.save(args.spans)

    result = {
        "input": workloads.describe(wl.params),
        "ops": ops,
        "attempted": attempted,
        "failed": failures,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
    }
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
