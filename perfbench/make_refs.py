"""Run every input of every workload pool once and write `refs.json`.

    python3 perfbench/make_refs.py [workload ...]

Run from the repository root.  For the simulate workloads the reference is a
digest of trace.csv and field.csv (row counts, column means, sampled rows);
for `regularity` it is the deviation of f_px from central differences of
f_p; for `control` it records the certificate.  Every input must pass the
workload's output checks, so a successful run also shows that every input a
seed can select succeeds on this commit.  Regenerate only on purpose: the
references pin the outputs that later commits are checked against.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def reference(wl, result) -> dict:
    if wl.name == "regularity":
        sol, f_px, _ = result
        return {"fx_dev": workloads.fx_central_deviation(sol, f_px)}
    code, _ = result
    if code != 0:
        raise SystemExit(f"{wl.name} {workloads.describe(wl.params)}: exit code {code}")
    if wl.name == "control":
        head, cert = workloads.read_csv(wl.kept / "certificate.csv")
        return {"certificate": dict(zip(head.split(","), (float(v) for v in cert[0])))}
    _, trace = workloads.read_csv(wl.kept / "trace.csv")
    _, field = workloads.read_csv(wl.kept / "field.csv")
    return {"trace": workloads.digest(trace), "field": workloads.digest(field[:, :3])}


def main(names) -> int:
    refs = {}
    if workloads.REFS_PATH.exists():
        refs = workloads.load_refs()
    for name in names:
        table = {}
        for params in workloads.pool(name):
            work = Path(tempfile.mkdtemp(prefix="refs-", dir=ROOT))
            try:
                wl = workloads.make(name, params, work)
                result = wl.op()
                wl.settle(result, keep=True)
                key = workloads.input_key(params)
                table[key] = reference(wl, result)
                errors = wl.full_check(result, table)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if errors:
                raise SystemExit(f"{name} {key}: " + "; ".join(errors))
            print(f"{name} {key}: ok", flush=True)
        refs[name] = table
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(workloads.WORKLOADS)))
