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

Both sides must import the checkout's modules from source, as a fresh
clone does: a checkout whose `src` or `perfbench` holds a `__pycache__`
(left by tests or an earlier import) is refused, and every process the
script starts runs with bytecode writing off (PYTHONDONTWRITEBYTECODE=1,
`bytecode_off_env`), so that none is written during the pairs.  The
caches of numpy and the standard library are read as usual.

After each benchmark run, the same side's import times are read once from
`python -X importtime -c "import numpy; import extrusim.cli"` with that
checkout's `src` on PYTHONPATH and the caller's environment otherwise.  The
cumulative microseconds of `numpy` and of `extrusim.cli` are stored per
run, and their medians are printed.

After each benchmark run, the same side's working set is read once too:
`tracemalloc`'s peak over one operation after a warm-up, in MB, in a
fresh interpreter that builds the workload from that checkout's
`perfbench/workloads.py` with its `src` on PYTHONPATH.  It is stored
among the metrics as `traced_peak_mb`, beside `peak_rss_mb`, which moves
with allocator layout as well as with the working set, and it gets the
same comparison.

The results are merged into the JSON file at `--out` (default `BENCH.json`
at the root of this repository) under `<workload>` and `seed <seed>`, so
that one file can collect several workloads and seeds.  The entry holds
every run of both sides, in order, with the Python and NumPy versions and
the CPU count that `perfbench/run.py` reported, and the import times.
"""

from __future__ import annotations

import argparse
import json
import os
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
# the name under which the working-set figure (`working_set_mb`) is stored
# beside them; lower is better
WORKING_SET = "traced_peak_mb"
SIDES = ("parent", "change")
CLAIM_SHARE = 0.9
# the modules whose cumulative import time is recorded, in import order
IMPORTS = ("numpy", "extrusim.cli")


def bytecode_off_env(**extra) -> dict:
    """The caller's environment with extra set and bytecode writing off."""
    return {**os.environ, **extra, "PYTHONDONTWRITEBYTECODE": "1"}


def cached_bytecode(checkout: Path) -> list:
    """The `__pycache__` directories under checkout's src and perfbench,
    whose bytecode a run would import in place of the sources."""
    return sorted(path for tree in ("src", "perfbench")
                  for path in (checkout / tree).rglob("__pycache__"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: its metric values and environment line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=bytecode_off_env(), capture_output=True,
                          text=True, check=False)
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


def parse_importtime(text: str) -> dict:
    """The cumulative microseconds of each top-level import in IMPORTS, read
    from the `-X importtime` lines of text."""
    found = {}
    for line in text.splitlines():
        if line.startswith("import time:"):
            _, cumulative, name = line.split("|")
            # one space before a top-level import's name, more before a nested one
            if name[1:] in IMPORTS:
                found[name[1:]] = int(cumulative)
    missing = [name for name in IMPORTS if name not in found]
    if missing:
        raise ValueError(f"no top-level importtime line for {', '.join(missing)}")
    return found


def import_times(checkout: Path) -> dict:
    """Cumulative import microseconds of IMPORTS in a fresh interpreter that
    imports extrusim from checkout."""
    code = "; ".join(f"import {name}" for name in IMPORTS)
    env = bytecode_off_env(PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: importing {', '.join(IMPORTS)} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return parse_importtime(proc.stderr)


# one warm-up operation, then tracemalloc's peak over one more, in a process
# that imports the workload code of the checkout it runs in
WORKING_SET_CODE = """
import sys, tempfile, tracemalloc
from pathlib import Path
sys.path.insert(0, "perfbench")
import workloads
name, seed = sys.argv[1], int(sys.argv[2])
with tempfile.TemporaryDirectory() as work:
    wl = workloads.make(name, workloads.draw(name, seed), Path(work))
    wl.settle(wl.op(), keep=False)
    tracemalloc.start()
    result = wl.op()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    wl.settle(result, keep=False)
print(peak)
"""


def working_set_mb(checkout: Path, workload: str, seed: int) -> float:
    """tracemalloc's peak over one operation of workload after a warm-up, in
    MB, measured in a fresh interpreter on checkout's perfbench and src."""
    env = bytecode_off_env(PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", WORKING_SET_CODE, workload, str(seed)],
                          cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: the working-set run exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return int(proc.stdout.split()[-1]) / 2**20


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
        cached = cached_bytecode(path)
        if cached:
            print(f"{side}: {cached[0]} holds bytecode that a run would import in place of "
                  f"the sources; remove the __pycache__ directories under {path}",
                  file=sys.stderr)
            return 2
    if args.pairs < 2:
        print("pairs: need at least two pairs for quartiles", file=sys.stderr)
        return 2

    runs = {side: [] for side in SIDES}
    imports = {side: {name: [] for name in IMPORTS} for side in SIDES}
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            run["metrics"][WORKING_SET] = working_set_mb(checkouts[side], args.workload, args.seed)
            runs[side].append(run)
            for name, us in import_times(checkouts[side]).items():
                imports[side][name].append(us)
        pair = ", ".join(f"{side} {runs[side][-1]['metrics']['run_s']:.6f}" for side in order)
        print(f"pair {k + 1}/{args.pairs} run_s: {pair}", flush=True)

    metrics = {}
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {args.seconds:g} s runs")
    for name, better in {**END_TO_END, WORKING_SET: "lower"}.items():
        values = {side: [run["metrics"][name] for run in runs[side]] for side in SIDES}
        row = compare(values["parent"], values["change"], better)
        metrics[name] = {**row, "runs": values}
        p, c = row["parent"], row["change"]
        print(f"{name:12s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"wins {row['wins']}/{args.pairs} ({row['ties']} ties)  {row['verdict']}")
    for name in IMPORTS:
        medians = "  ".join(f"{side} {statistics.median(imports[side][name]):.0f}" for side in SIDES)
        print(f"import {name} cumulative us, median: {medians}")

    out = args.out.resolve()
    bench = json.loads(out.read_text()) if out.is_file() else {}
    bench.setdefault(args.workload, {})[f"seed {args.seed}"] = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "order": "odd pairs parent first, even pairs change first",
        "env": {side: sorted({run["env"] for run in runs[side]}) for side in SIDES},
        "failed": {side: [f"{run['failed']}/{run['attempted']}" for run in runs[side]] for side in SIDES},
        "metrics": metrics,
        "import_us": imports,
    }
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
