"""Check that two source trees give byte-identical outputs on the benchmark pools.

    python3 tools/same_outputs.py <src-a> <src-b>

Each argument is a directory that holds the `extrusim` package, such as the
`src/` of this checkout and the `src/` of a clone of another commit.  Every
input in the pools of `perfbench/workloads.py` is run once on each tree, each
run in a fresh Python process:

- `extrusim simulate` with the sim-char config and with the sim-upwind config,
- `extrusim control` with the control config,
- `extrusim verify` with the sim-char config of six inputs spread over its pool,
  less the `mode.method` and `mode.out` keys, which verify does not read,
- `solve_semiglobal` and `derivative_fields` on the regularity input,
- under the `upwind-varying-N` label, `extrusim simulate` with the sim-upwind
  config of three inputs spread over its pool and a screw speed that varies
  (`VARYING_N`), so that the upwind march reads N between its nodes, as no
  pool config does,
- under the `control-horizons` label, `extrusim control` on the README
  example (`README_CONTROL`) at each horizon of `CONTROL_HORIZONS`, so that a
  last-bit move of a long-horizon synthesis shows, as no pool config runs one.

A run writes to the same paths for both trees.  Exit code, stdout, stderr and
the sha256 of every output file (of every array, for regularity) are
compared.  Each difference is printed, and the exit status is 1 if there is
one.  Nothing under `perfbench/` is written.  For an output file that
differs, the largest absolute difference of each numeric CSV column (each
array, for regularity) that differs is printed under it, with the count of
entries that differ, so that a change in the last digit reads apart from a
real one.

The `config` label runs a matrix of configs through `extrusim.cli.run`, all
in one process per tree, on the coarse grids of `tests/test_cli.py`: the base
config of each of the five subcommands (a sweep once with `sweep.run=simulate`
and once with `sweep.run=control`) with one key dropped, or set to one value
of that file's `_MUTATIONS` or of `SWEEP_MUTATIONS` below, and the verify
configs of `VERIFY_FAILS`, which end in FAIL lines or config errors that no
one-key change of the coarse verify config reaches.  It runs in a
temporary working directory, since `mode.out` defaults to `.`.  The path of
that directory is replaced by `<work>` in the streams and in the output files
before they are compared, and each differing config is printed.

For each label the largest peak RSS of a run's process is printed for both
trees, so that a change in memory shows over the whole pool and not only on
the inputs that the benchmark seeds select.  It is read from the run's
resource usage (`os.wait4`), with stdout and stderr going to files, not
pipes.  A small launcher process starts each run and reads its usage: Linux
keeps a process's high-water RSS across exec, so a run started straight
from this script, which has numpy loaded, would report this script's RSS.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"


def load_workloads():
    """perfbench/workloads.py, loaded by its path and writing no bytecode
    under perfbench/; sys.path and the process's bytecode setting are left
    as they were."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


workloads = load_workloads()

# one verify run for every VERIFY_STRIDE-th sim-char input: six of 27
VERIFY_STRIDE = 5

# one upwind-varying-N run for every VARYING_N_STRIDE-th sim-upwind input:
# three of 27, each with this screw speed in place of the pools' constant one
VARYING_N_STRIDE = 13
VARYING_N = "data.N=sine-perturbation:eq,0.02,2"

# the control example of README.md, run under the control-horizons label at
# each of these mode.T
README_CONTROL = {
    "equilibrium.N_e": "1.0",
    "equilibrium.l_e": "0.5",
    "data.l0": "0.49",
    "data.l1": "0.51",
    "data.f0_p": "constant:0.3233333333333333",
    "data.f1_p": "constant:0.3233333333333333",
    "numerics.dt": "0.01",
    "numerics.dx": "0.01",
    "mode.nu": "0.01",
}
CONTROL_HORIZONS = ["1", "2", "3", "5", "6", "7", "8", "10", "12", "13", "16", "20", "30"]

# prints the sha256 of each array and saves it to the directory argv[3]
REGULARITY = """
import hashlib, json, os, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import workloads
sol, f_px, f_pxx = workloads.RegularityWorkload(json.loads(sys.argv[2]), None).op()
os.makedirs(sys.argv[3])
for name, arr in (
    ("l", sol.l.values),
    ("f_p", sol.field.values),
    ("provenance", sol.field.provenance),
    ("f_px", f_px.values),
    ("f_pxx", f_pxx.values),
):
    arr = np.ascontiguousarray(arr)
    print(name, arr.dtype, arr.shape, hashlib.sha256(arr.tobytes()).hexdigest())
    np.save(os.path.join(sys.argv[3], name + ".npy"), arr)
"""


# values of the sweep keys, set on every base config of the config matrix
SWEEP_MUTATIONS = {
    "sweep.run": ["simulate", "control", "verify"],
    "sweep.vary.mode.T": ["0.5,1.0", "0.5,x"],
    "sweep.vary.equilibrium.l_e": ["0.45,0.5"],
    "sweep.vary.equilibrium.f_pe": ["0.3"],
    "sweep.vary.mode.nu": ["0.01,0.02"],
    "sweep.vary.data.f0_p": ["constant:eq"],
}

# changes to the verify config of `tests/test_cli.py`, on its own grids, each
# ending in a FAIL line or config error of a kind that no one-key mutation gives
VERIFY_FAILS = [
    # cross-validation: final profile deviation
    {"data.N": "sine-perturbation:eq,0.5,3"},
    # cross-validation: interface deviation
    {"data.F_in": "sine-perturbation:eq,0.3,3", "numerics.dx": "0.5"},
    # the inflow ratio passes 1: a config error (exit 2) before any check
    {"data.N": "sine-perturbation:eq,0.9,2"},
]

# runs the config matrix on the extrusim that PYTHONPATH names and prints the
# outcomes as JSON
CONFIG = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import same_outputs
same_outputs.config_outcomes(Path(sys.argv[3]))
"""


# starts the command after the file name, writes its peak RSS in KiB to that
# file and exits with its exit code
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(proc.pid, 0)
# the child is reaped: tell Popen, so that it does not wait for it again
proc.returncode = os.waitstatus_to_exitcode(status)
with open(sys.argv[1], "w") as fh:
    fh.write(str(usage.ru_maxrss))
sys.exit(proc.returncode)
"""


def runs():
    """(label, subcommand, input) of every run; regularity is not a subcommand."""
    sims = workloads.pool("sim-char")
    for label in ("sim-char", "sim-upwind"):
        for params in sims:
            yield label, "simulate", params
    for params in workloads.pool("control"):
        yield "control", "control", params
    for params in sims[::VERIFY_STRIDE]:
        yield "verify", "verify", params
    for params in workloads.pool("regularity"):
        yield "regularity", "regularity", params
    for params in sims[::VARYING_N_STRIDE]:
        yield "upwind-varying-N", "simulate", params
    for T in CONTROL_HORIZONS:
        yield "control-horizons", "control", {"mode.T": T}


def config_text(label: str, params: dict, out: Path) -> str:
    if label == "control":
        return workloads.control_config(params, out)
    if label == "control-horizons":
        mapping = {**README_CONTROL, **params, "mode.out": out}
        return "".join(f"{key}={value}\n" for key, value in mapping.items())
    method = "upwind" if label in ("sim-upwind", "upwind-varying-N") else "characteristics"
    text = workloads.simulate_config(params, method, out)
    if label == "upwind-varying-N":
        assert "data.N=constant:eq" in text, "the sim-upwind config no longer holds a constant N"
        text = text.replace("data.N=constant:eq", VARYING_N)
    if label == "verify":
        lines = text.splitlines(keepends=True)
        text = "".join(line for line in lines if not line.startswith(("mode.method=", "mode.out=")))
    return text


def sha_files(directory: Path) -> dict:
    if not directory.is_dir():
        return {}
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def run_once(
    src: Path, work: Path, label: str, sub: str, params: dict, keep: Path
) -> tuple[dict, float]:
    """Outcome of one run in a fresh process (exit code, streams, output
    digests) and the process's peak RSS in MB.  The output directory is
    moved to keep, for `size_differences`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    if sub == "regularity":
        cmd = [sys.executable, "-c", REGULARITY, str(PERFBENCH), json.dumps(params), str(out)]
    else:
        cfg = work / "config.txt"
        cfg.write_text(config_text(label, params, out))
        cmd = [sys.executable, "-m", "extrusim.cli", sub, str(cfg)]
    streams = {name: work / f"{name}.txt" for name in ("stdout", "stderr")}
    rss = work / "maxrss.txt"
    with open(streams["stdout"], "w") as stdout, open(streams["stderr"], "w") as stderr:
        proc = subprocess.run([sys.executable, "-c", LAUNCHER, str(rss), *cmd],
                              stdout=stdout, stderr=stderr, env=env, cwd=work)
    outcome = {
        "exit code": proc.returncode,
        **{name: path.read_text() for name, path in streams.items()},
        "files": sha_files(out),
    }
    shutil.rmtree(keep, ignore_errors=True)
    if out.is_dir():
        out.rename(keep)
    # ru_maxrss is in KiB on Linux; MB as perfbench's peak_rss_mb counts them
    return outcome, int(rss.read_text()) / 1024.0


def config_matrix(work: Path):
    """(name, subcommand, mapping) of every config of the `config` label."""
    import test_cli

    coarse = {"numerics.dt": "0.05", "numerics.dx": "0.1"}
    bases = [("equilibrium", "equilibrium", test_cli.base_cfg("equilibrium", work))]
    for sub in ("simulate", "verify", "control"):
        bases.append((sub, sub, {**test_cli.base_cfg(sub, work), **coarse}))
    for sub in ("simulate", "control"):
        base = {**test_cli.base_cfg(sub, work), **coarse}
        base.update({"sweep.run": sub, "sweep.vary.data.l0": "0.48,0.49"})
        bases.append((f"sweep({sub})", "sweep", base))
    mutations = {**test_cli._MUTATIONS, **SWEEP_MUTATIONS}
    for label, sub, base in bases:
        for key in dict.fromkeys([*base, *mutations]):
            if key in base:
                yield f"{label} drop {key}", sub, {k: v for k, v in base.items() if k != key}
            for value in mutations.get(key, ()):
                yield f"{label} {key}={value}", sub, {**base, key: value}
    for changes in VERIFY_FAILS:
        name = " ".join(f"{key}={value}" for key, value in changes.items())
        yield f"verify(fine) {name}", "verify", {**test_cli.base_cfg("verify", work), **changes}


def config_outcomes(keep: Path):
    """Print the outcome of every config of `config_matrix`, run in the
    working directory, as one JSON object.  The files that the config
    numbered n writes are moved to keep/n, for `size_differences`."""
    import contextlib
    import io

    from extrusim.cli import run

    work = Path.cwd()
    outcomes = {}
    for name, sub, mapping in config_matrix(work):
        cfg = work / "c.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in mapping.items()))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run([sub, str(cfg)])
        cfg.unlink()
        files = {}
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            text = path.read_bytes().replace(bytes(work), b"<work>")
            files[str(path.relative_to(work))] = hashlib.sha256(text).hexdigest()
        dest = keep / str(len(outcomes))
        dest.mkdir(parents=True)
        for entry in work.iterdir():
            entry.rename(dest / entry.name)
        outcomes[name] = {
            "exit code": code,
            **{k: v.getvalue().replace(str(work), "<work>") for k, v in
               (("stdout", stdout), ("stderr", stderr))},
            "files": files,
        }
    json.dump(outcomes, sys.stdout)


def run_configs(src: Path, work: Path, keep: Path) -> dict:
    """Outcomes of the config matrix on one tree, in a fresh process; the
    files of each config are kept under keep."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cwd = work / "config"
    cwd.mkdir()
    proc = subprocess.run([sys.executable, "-c", CONFIG, str(ROOT / "tools"), str(TESTS),
                           str(keep)], stdout=subprocess.PIPE, env=env, cwd=cwd, check=True)
    shutil.rmtree(cwd)
    return json.loads(proc.stdout)


def numeric_columns(path: Path) -> dict:
    """The numeric columns of a CSV file by header name, or a saved array."""
    if path.suffix == ".npy":
        return {"": np.load(path).astype(float)}
    if path.suffix != ".csv":
        return {}
    header, *rows = path.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    columns = {}
    for j, name in enumerate(header.split(",")):
        try:
            columns[name] = np.array([row[j] for row in cells], dtype=float)
        except (ValueError, IndexError):
            continue  # text, such as a provenance tag
    return columns


def size_differences(dir_a: Path, dir_b: Path) -> list[str]:
    """For each file under both directories whose bytes differ, one line per
    numeric column or array that differs: the largest absolute difference
    and the count of entries that differ."""
    lines = []
    for path_a in sorted(p for p in dir_a.rglob("*") if p.is_file()):
        rel = path_a.relative_to(dir_a)
        path_b = dir_b / rel
        if not path_b.is_file() or path_a.read_bytes() == path_b.read_bytes():
            continue
        cols_b = numeric_columns(path_b)
        for name, a in numeric_columns(path_a).items():
            b = cols_b.get(name)
            label = f"{rel} {name}".rstrip()
            if b is None or a.shape != b.shape:
                lines.append(f"  {label}: shape {a.shape} -> {None if b is None else b.shape}")
                continue
            differ = int(np.count_nonzero(a != b))
            if differ:
                lines.append(f"  {label}: largest |difference| {np.abs(a - b).max():.3g}, "
                             f"{differ} of {a.size} differ")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().partition("\n\n")[2].partition("\n\n")[0], file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "extrusim" / "__init__.py").is_file():
            print(f"{tree}: no extrusim package here", file=sys.stderr)
            return 2
    counts, peaks, differing = {}, {}, 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        keeps = [work / f"kept-{i}" for i in range(2)]
        for label, sub, params in runs():
            (a, rss_a), (b, rss_b) = (
                run_once(tree, work, label, sub, params, keep) for tree, keep in zip(trees, keeps)
            )
            counts.setdefault(label, [0, 0])
            counts[label][0] += 1
            peak = peaks.setdefault(label, [0.0, 0.0])
            peak[:] = max(peak[0], rss_a), max(peak[1], rss_b)
            if a != b:
                counts[label][1] += 1
                differing += 1
                keys = ", ".join(k for k in a if a[k] != b[k])
                print(f"DIFF {label} {workloads.describe(params)}: {keys}")
                for line in size_differences(*keeps):
                    print(line)
                sys.stdout.flush()
        config_keeps = [work / f"config-kept-{i}" for i in range(2)]
        configs = [run_configs(tree, work, keep) for tree, keep in zip(trees, config_keeps)]
        # the sizes of each differing config, read while its files are kept
        config_sizes = {
            name: size_differences(*(keep / str(index) for keep in config_keeps))
            for index, (name, a) in enumerate(configs[0].items())
            if a != configs[1][name]
        }
    total = sum(n for n, _ in counts.values())
    for label, (n, bad) in counts.items():
        rss_a, rss_b = peaks[label]
        print(f"{label}: {n - bad} of {n} runs identical; "
              f"largest peak RSS {rss_a:.1f} MB -> {rss_b:.1f} MB")
    configs_differing = len(config_sizes)
    for name, sizes in config_sizes.items():
        a, b = configs[0][name], configs[1][name]
        keys = ", ".join(k for k in a if a[k] != b[k])
        print(f"DIFF config {name}: {keys} (exit {a['exit code']} -> {b['exit code']})")
        for line in sizes:
            print(line)
    n_configs = len(configs[0])
    print(f"config: {n_configs - configs_differing} of {n_configs} configs identical")
    if differing or configs_differing:
        print(f"{differing} of {total} runs and {configs_differing} of {n_configs} configs differ")
        return 1
    print(f"all {total} runs and {n_configs} configs byte-identical "
          "(exit code, stdout, stderr, output sha256)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
