"""extrusim benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sim-char --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; extrusim is imported from its `src/`.
Workloads: sim-char, sim-upwind, control, regularity (see README.md).

- ``--trace 0`` prints the end-to-end metrics: run_s, run_s_tail, setup_s,
  peak_rss_mb and ok_share.
- ``--trace 1`` prints the per-layer metrics from spans recorded around the
  calls into each module, and writes the spans to
  `.perfbench-out/spans-<workload>-seed<seed>.npz`.

setup_s is the median over eight fresh processes of the time from process
start to "extrusim and numpy imported, inputs built"; the workload then
runs in one more.  Set-up and operation times are divided by the machine's
slowness around them, measured by `calibrate.probe`, so they read as times
at a fixed reference speed.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import calibrate
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-char", "sim-upwind", "control", "regularity")
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170.0

END_TO_END = (
    ("run_s", "s"),
    ("run_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, work: Path, extra: list) -> tuple:
    """Run one fresh worker; returns (seconds until it was ready, its stdout)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--work", str(work),
    ] + extra
    work.mkdir()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker failed (exit code {code}, first line {line.strip()!r})")
    return ready, out


def tail(times: list) -> tuple:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with fewer than eleven
    samples it falls back to the minimum.
    """
    ordered = sorted(times)
    j = max(len(ordered) - 11, 0)
    return ordered[j], 100.0 * (j + 1) / len(ordered), len(ordered) - 1 - j


def measure(args, run_dir: Path) -> tuple:
    """Set-up times of fresh processes at the reference speed, and the result."""
    # one untimed start first, so byte-compiling and cold file caches
    # do not land in the first sample
    run_worker(args, run_dir / "prime", ["--setup-only"])
    setups = []
    before = calibrate.probe()
    for k in range(SETUP_PROBES):
        ready, _ = run_worker(args, run_dir / f"probe{k}", ["--setup-only"])
        after = calibrate.probe()
        setups.append(ready * 2.0 * calibrate.REFERENCE_S / (before + after))
        before = after
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        extra += ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")]
    _, out = run_worker(args, run_dir / "run", extra)
    result = json.loads(out.splitlines()[-1].removeprefix("result "))
    return setups, result


def end_to_end(setups: list, res: dict, report: list) -> dict:
    ops = res["ops"]
    wall = [op["wall_s"] for op in ops]
    times = [op["wall_s"] / op["slowness"] for op in ops]
    run_s = statistics.median(times)
    tail_s, pct, beyond = tail(times)
    setup_s = statistics.median(setups)
    report.append(
        f"slowness     {statistics.median(op['slowness'] for op in ops):.3f}   "
        "median speed probe time over its reference; times below are divided by it"
    )
    report.append(
        f"run_s        {run_s:.6f} s   median of {len(times)} ops "
        f"(wall median {statistics.median(wall):.6f} s)"
    )
    report.append(f"run_s_tail   {tail_s:.6f} s   p{pct:.1f} of {len(times)} ops, {beyond} beyond")
    report.append(f"setup_s      {setup_s:.6f} s   median of {len(setups)} processes")
    report.append(f"peak_rss_mb  {res['peak_rss_mb']:.1f} MB")
    report.append(f"fail_share   {res['failed'] / res['attempted']:.4f}   {res['failed']} of {res['attempted']} ops")
    return {
        "run_s": run_s,
        "run_s_tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_share": 1.0 - res["failed"] / res["attempted"],
    }


def per_layer(res: dict, report: list) -> dict:
    traced = [op for op in res["ops"] if op["traced"]]
    plain = [op for op in res["ops"] if not op["traced"]]
    metrics = {}
    for name, unit in PER_LAYER[:-1]:
        # times at the reference speed, like run_s; rates inversely
        power = {"s": -1, "us": -1, "1/s": 1, "B/s": 1}.get(unit, 0)
        metrics[name] = statistics.median(op["layers"][name] * op["slowness"] ** power for op in traced)
    traced_s = statistics.median(op["wall_s"] / op["slowness"] for op in traced)
    plain_s = statistics.median(op["wall_s"] / op["slowness"] for op in plain)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    report.append(
        f"traced ops {len(traced)}, untraced ops {len(plain)}; values are medians "
        f"over traced ops, times at the reference speed; run_s traced {traced_s:.6f} s"
    )
    for name, unit in PER_LAYER:
        report.append(f"{name:34s} {metrics[name]:.6g} {unit}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "extrusim" / "cli.py").is_file():
        print(f"perfbench: no extrusim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        setups, res = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    report = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"env python={platform.python_version()} numpy={res['numpy']} nproc={len(os.sched_getaffinity(0))} "
        f"loadavg={' '.join(f'{v:.2f}' for v in os.getloadavg())}",
        f"input {res['input']}",
    ]
    if args.trace:
        metrics = per_layer(res, report)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(setups, res, report)
        units = dict(END_TO_END)
    for err in res["errors"]:
        report.append("FAILED " + err.strip().replace("\n", "\n       "))
    print("\n".join(report))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
