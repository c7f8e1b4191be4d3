"""Compare the end-to-end metrics of two checkouts in alternating benchmark pairs.

    python3 tools/bench_pairs.py <parent-checkout> <change-checkout> <workload> <seed> <pairs> <seconds> [--out PATH]

Each checkout is the root of a clone of this repository at one commit.  For
each pair, `perfbench/run.py --workload <workload> --seed <seed> --seconds
<seconds> --trace 0` runs once in each checkout, each from its own root, so
each side measures its own sources with its own, unchanged benchmark code.
Odd pairs run the parent first and even pairs the change first, so that a
drift of the machine's speed during the session falls on both sides.

For every end-to-end metric the script prints each side's median and
quartiles over its runs and the change's win count: a pair is a win when
the change reads better than the parent in that pair (lower, or higher for
`ok_share`), and a tie counts for neither side.  A gain is claimed when the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range; a loss is the same with the
sides swapped.  The verdict is printed per metric.

The results are merged into the JSON file at `--out` (default `BENCH.json`
at the root of this repository) under `<workload>` and `seed <seed>`, so
that one file can collect several workloads and seeds.  The entry holds
every run of both sides, in order, with the Python and NumPy versions and
the CPU count that `perfbench/run.py` reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the end-to-end metrics of perfbench/run.py and the direction that is better
END_TO_END = {
    "run_s": "lower",
    "run_s_tail": "lower",
    "setup_s": "lower",
    "peak_rss_mb": "lower",
    "ok_share": "higher",
}
SIDES = ("parent", "change")
CLAIM_SHARE = 0.9


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: its metric values and environment line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench/run.py exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    # the versions and CPU count; the load average varies from run to run
    env = next((line.removeprefix("env ").partition(" loadavg=")[0]
                for line in lines if line.startswith("env ")), "")
    metrics = {name: result["metrics"][name]["value"] for name in END_TO_END}
    return {"metrics": metrics, "env": env, "failed": result["failed"],
            "attempted": result["attempted"]}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list, change: list, better: str) -> dict:
    """Medians, quartiles, wins and the verdict of one metric over the pairs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    stats = {"parent": spread(parent), "change": spread(change)}
    gap = stats["parent"]["median"] - stats["change"]["median"]
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    pairs = len(parent)
    if wins >= CLAIM_SHARE * pairs and sign * gap > iqr:
        verdict = "better"
    elif losses >= CLAIM_SHARE * pairs and -sign * gap > iqr:
        verdict = "worse"
    else:
        verdict = "no claim"
    return {**stats, "better": better, "wins": wins, "losses": losses, "ties": pairs - wins - losses,
            "median_gap": gap, "parent_iqr": iqr, "verdict": verdict}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("pairs", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH.json")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            print(f"{side}: no perfbench/run.py under {path}", file=sys.stderr)
            return 2
    if args.pairs < 2:
        print("pairs: need at least two pairs for quartiles", file=sys.stderr)
        return 2

    runs = {side: [] for side in SIDES}
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(checkouts[side], args.workload, args.seed, args.seconds))
        pair = ", ".join(f"{side} {runs[side][-1]['metrics']['run_s']:.6f}" for side in order)
        print(f"pair {k + 1}/{args.pairs} run_s: {pair}", flush=True)

    metrics = {}
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {args.seconds:g} s runs")
    for name, better in END_TO_END.items():
        values = {side: [run["metrics"][name] for run in runs[side]] for side in SIDES}
        row = compare(values["parent"], values["change"], better)
        metrics[name] = {**row, "runs": values}
        p, c = row["parent"], row["change"]
        print(f"{name:12s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"wins {row['wins']}/{args.pairs} ({row['ties']} ties)  {row['verdict']}")

    out = args.out.resolve()
    bench = json.loads(out.read_text()) if out.is_file() else {}
    bench.setdefault(args.workload, {})[f"seed {args.seed}"] = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "order": "odd pairs parent first, even pairs change first",
        "env": {side: sorted({run["env"] for run in runs[side]}) for side in SIDES},
        "failed": {side: [f"{run['failed']}/{run['attempted']}" for run in runs[side]] for side in SIDES},
        "metrics": metrics,
    }
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
