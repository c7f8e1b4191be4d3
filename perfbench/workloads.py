"""Seeded inputs, operations and output checks of the four workloads.

Every workload draws its inputs from a small grid of values (the "pool")
chosen by the seed.  `make_refs.py` runs the program on every point of each
pool once and stores reference values in `refs.json`, so every input a seed
can select has been run and checked at the commit the references came from.

Each workload object offers:

- ``op()``: one operation, the timed call into the program;
- ``fingerprint(result)``: a digest of the operation's outputs, compared
  between operations of one run, which must be byte-identical;
- ``settle(result, keep)``: removes the outputs (or keeps them for the full
  check);
- ``full_check(result, refs)``: the output checks against this workload's
  entry of `refs.json`, as a list of failure messages.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from pathlib import Path

import numpy as np

# input pools; the seed picks one value from each axis
SIM_F0_AMPS = (0.005, 0.01, 0.015)
SIM_FIN_AMPS = (0.0, 0.004, 0.008)
SIM_FIN_FREQS = (1, 2, 3)
CONTROL_STEPS = (0.016, 0.0165, 0.017, 0.0175, 0.018, 0.0185, 0.019, 0.0195, 0.02)
REG_AMPS = (0.005, 0.01, 0.02)
REG_LOWS = (0.1, 0.2, 0.3)
REG_WIDTHS = (0.4, 0.6)

WORKLOADS = ("sim-char", "sim-upwind", "control", "regularity")

# f_pe - 0.01 at the unit equilibrium N_e=1, l_e=0.5 (README control example)
CONTROL_PROFILE = "0.3233333333333333"

# reference comparison: absolute on values of order one, so that changes in
# the 12th significant digit of the CSV output pass
REF_TOL = 1e-10
# rows sampled from each CSV for the reference digest
SAMPLE_ROWS = 9

REFS_PATH = Path(__file__).resolve().parent / "refs.json"


def draw(workload: str, seed: int) -> dict:
    """Input parameters of one workload for one seed (same seed, same inputs)."""
    if workload in ("sim-char", "sim-upwind"):
        # both simulate workloads see the same inputs for one seed
        rng = random.Random(f"sim/{seed}")
        return {
            "f0_amp": rng.choice(SIM_F0_AMPS),
            "fin_amp": rng.choice(SIM_FIN_AMPS),
            "fin_freq": rng.choice(SIM_FIN_FREQS),
        }
    rng = random.Random(f"{workload}/{seed}")
    if workload == "control":
        return {"step": rng.choice(CONTROL_STEPS)}
    if workload == "regularity":
        return {
            "amp": rng.choice(REG_AMPS),
            "lo": rng.choice(REG_LOWS),
            "width": rng.choice(REG_WIDTHS),
        }
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str) -> list:
    """Every input the seed can select for a workload."""
    if workload in ("sim-char", "sim-upwind"):
        return [
            {"f0_amp": a, "fin_amp": fa, "fin_freq": fr}
            for a in SIM_F0_AMPS
            for fa in SIM_FIN_AMPS
            for fr in SIM_FIN_FREQS
        ]
    if workload == "control":
        return [{"step": s} for s in CONTROL_STEPS]
    if workload == "regularity":
        return [
            {"amp": a, "lo": lo, "width": w}
            for a in REG_AMPS
            for lo in REG_LOWS
            for w in REG_WIDTHS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def input_key(params: dict) -> str:
    return ",".join(f"{k}={params[k]!r}" for k in sorted(params))


def describe(params: dict) -> str:
    return " ".join(f"{k}={v!r}" for k, v in params.items())


def simulate_config(params: dict, method: str, out: Path) -> str:
    dx = "0.01" if method == "characteristics" else "0.002"
    return "\n".join(
        [
            "equilibrium.N_e=1.0",
            "equilibrium.l_e=0.5",
            "data.l0=0.5",
            f"data.f0_p=sine-perturbation:eq,{params['f0_amp']!r}",
            f"data.F_in=sine-perturbation:eq,{params['fin_amp']!r},{params['fin_freq']}",
            "data.N=constant:eq",
            "numerics.dt=0.005",
            f"numerics.dx={dx}",
            "mode.T=1.0",
            f"mode.method={method}",
            f"mode.out={out}",
        ]
    ) + "\n"


def control_config(params: dict, out: Path) -> str:
    half = params["step"] / 2.0
    return "\n".join(
        [
            "equilibrium.N_e=1.0",
            "equilibrium.l_e=0.5",
            f"data.l0={round(0.5 - half, 10)!r}",
            f"data.l1={round(0.5 + half, 10)!r}",
            f"data.f0_p=constant:{CONTROL_PROFILE}",
            f"data.f1_p=constant:{CONTROL_PROFILE}",
            "numerics.dt=0.01",
            "numerics.dx=0.01",
            "mode.T=1.0",
            "mode.nu=0.01",
            f"mode.out={out}",
        ]
    ) + "\n"


def _sha_files(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def read_csv(path: Path):
    """Header and float matrix of a CLI CSV; provenance tags map to 0/1."""
    text = path.read_text()
    header, _, body = text.partition("\n")
    body = body.replace(",initial", ",0").replace(",boundary", ",1")
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return header, table


def digest(table) -> dict:
    """Row count, column means and a few sampled rows of a float matrix."""
    rows = table.shape[0]
    idx = np.linspace(0, rows - 1, SAMPLE_ROWS).round().astype(int)
    return {
        "rows": int(rows),
        "mean": [float(v) for v in table.mean(axis=0)],
        "sample": [[float(v) for v in table[i]] for i in idx],
    }


def compare_digest(name: str, got: dict, ref: dict) -> list:
    errors = []
    if got["rows"] != ref["rows"]:
        return [f"{name}: {got['rows']} rows, reference has {ref['rows']}"]
    pairs = list(zip(got["mean"], ref["mean"]))
    for g_row, r_row in zip(got["sample"], ref["sample"]):
        pairs.extend(zip(g_row, r_row))
    worst = max(abs(g - r) / max(1.0, abs(r)) for g, r in pairs)
    if worst > REF_TOL:
        errors.append(f"{name}: differs from the reference by {worst:.3g} (tolerance {REF_TOL:g})")
    return errors


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


class CliWorkload:
    """One `extrusim <sub> <config>` call per operation, run in-process."""

    def __init__(self, name: str, params: dict, work: Path):
        from extrusim import cli

        # looked up at call time, so that a traced run sees its wrappers
        self._cli = cli
        self.name = name
        self.params = params
        self.out = work / "out"
        self.kept = work / "first"
        self.config = work / "config.txt"
        if name == "control":
            self.sub = "control"
            text = control_config(params, self.out)
        else:
            self.sub = "simulate"
            method = "characteristics" if name == "sim-char" else "upwind"
            text = simulate_config(params, method, self.out)
        self.config.write_text(text)

    def op(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self._cli.run([self.sub, str(self.config)])
        return code, buf.getvalue()

    def fingerprint(self, result) -> str:
        code, stdout = result
        files = _sha_files(self.out) if self.out.is_dir() else "-"
        return f"{code}:{hashlib.sha256(stdout.encode()).hexdigest()}:{files}"

    def settle(self, result, keep: bool) -> None:
        if keep and self.out.is_dir():
            self.out.rename(self.kept)
        shutil.rmtree(self.out, ignore_errors=True)

    def full_check(self, result, refs: dict) -> list:
        code, stdout = result
        if code != 0:
            return [f"exit code {code}"]
        if self.sub == "control":
            return self._check_control(stdout)
        return self._check_simulate(refs)

    def _check_simulate(self, refs: dict) -> list:
        errors = []
        t_head, trace = read_csv(self.kept / "trace.csv")
        f_head, field = read_csv(self.kept / "field.csv")
        if t_head != "t,l,fp_at_1,N,F_in":
            errors.append(f"trace.csv header {t_head!r}")
        if f_head != "t,x,fp,provenance":
            errors.append(f"field.csv header {f_head!r}")
        n_x = 101 if self.name == "sim-char" else 501
        n_t = trace.shape[0]
        if self.name == "sim-char" and n_t != 201:
            errors.append(f"trace.csv has {n_t} rows, the grid has 201")
        if field.shape[0] != n_t * n_x:
            errors.append(f"field.csv has {field.shape[0]} rows, the grid has {n_t}x{n_x}")
        if errors:
            return errors
        if not np.all(np.isfinite(trace)) or not np.all(np.isfinite(field)):
            errors.append("non-finite output values")
        fp = field[:, 2]
        if fp.min() < 0.0 or fp.max() > 1.0:
            errors.append(f"f_p leaves [0, 1]: [{fp.min():.6g}, {fp.max():.6g}]")
        l = trace[:, 1]
        if l.min() <= 0.0 or l.max() >= 1.0:
            errors.append(f"l leaves (0, L): [{l.min():.6g}, {l.max():.6g}]")
        if not np.isin(field[:, 3], (0.0, 1.0)).all():
            errors.append("unknown provenance tag")
        ref = refs.get(input_key(self.params))
        if ref is None:
            errors.append("no reference for this input")
            return errors
        errors += compare_digest("trace.csv", digest(trace), ref["trace"])
        errors += compare_digest("field.csv", digest(field[:, :3]), ref["field"])
        return errors

    def _check_control(self, stdout: str) -> list:
        errors = []
        try:
            json.loads(stdout.splitlines()[0])
        except (IndexError, ValueError):
            errors.append("summary line is not JSON")
        c_head, controls = read_csv(self.kept / "controls.csv")
        if c_head != "t,N,F_in":
            errors.append(f"controls.csv header {c_head!r}")
        elif (
            controls.shape[0] < 2
            or not np.all(np.isfinite(controls))
            or controls[:, 1].min() <= 0.0
            or controls[:, 2].min() < 0.0
            or abs(controls[0, 0]) > 1e-12
            or abs(controls[-1, 0] - 1.0) > 1e-12
        ):
            errors.append("controls.csv: need finite N > 0, F_in >= 0 on t in [0, T]")
        cert_head, cert = read_csv(self.kept / "certificate.csv")
        cert = dict(zip(cert_head.split(","), cert[0]))
        # the certificate clauses that hold at the defining commit; the
        # control size ratio (nfn_ratio) is the known defect and is not
        # checked.  The interface replay on this 101-node grid carries the
        # O(dt^2) input bias described in verify_control (1.2e-7 to 2.3e-7
        # across the band), so its bound is 1e-6 rather than 1e-8.
        for key, bound in (
            ("char_l_error", 1e-6),
            ("char_fp_error", 1e-6),
            ("upwind_l_error", 5e-3),
            ("upwind_fp_error", 5e-3),
        ):
            value = cert.get(key)
            if value is None or not (value <= bound):
                errors.append(f"certificate {key}={value} above {bound:g}")
        return errors


class RegularityWorkload:
    """`solve_semiglobal` on compatible bump data, then `derivative_fields`."""

    T = 0.5
    N_T = 101
    N_X = 401

    def __init__(self, params: dict, work: Path):
        from extrusim import lintransport, wellposed
        from extrusim.fields import SampledFunction, SpaceProfile
        from extrusim.model import PhysicalParams, solve_equilibrium

        # looked up at call time, so that a traced run sees its wrappers
        self._wellposed = wellposed
        self._lintransport = lintransport
        self.name = "regularity"
        self.params = params
        unit = PhysicalParams()
        eq = solve_equilibrium(unit, N_e=1.0, l_e=0.5)
        self.data = wellposed.CauchyData(
            eq.l_e,
            SpaceProfile(bump_profile(eq.f_pe, params, self.N_X)),
            SampledFunction.constant(eq.f_pe * unit.rho0 * unit.V_eff * eq.N_e, 0.0, self.T, 101),
            SampledFunction.constant(eq.N_e, 0.0, self.T, 101),
            unit,
            eq,
        )

    def op(self):
        sol = self._wellposed.solve_semiglobal(self.data, self.T, n_t=self.N_T, n_x=self.N_X)
        f_px, f_pxx = self._lintransport.derivative_fields(sol, self.data)
        return sol, f_px, f_pxx

    def fingerprint(self, result) -> str:
        sol, f_px, f_pxx = result
        h = hashlib.sha256()
        for arr in (sol.l.values, sol.field.values, sol.field.provenance, f_px.values, f_pxx.values):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def settle(self, result, keep: bool) -> None:
        pass

    def full_check(self, result, refs: dict) -> list:
        sol, f_px, f_pxx = result
        errors = []
        shape = (self.N_T, self.N_X)
        for name, arr in (("f_p", sol.field.values), ("f_px", f_px.values), ("f_pxx", f_pxx.values)):
            if arr.shape != shape or not np.all(np.isfinite(arr)):
                errors.append(f"{name}: shape {arr.shape} or non-finite values")
        if errors:
            return errors
        fp = sol.field.values
        if fp.min() < 0.0 or fp.max() > 1.0:
            errors.append("f_p leaves [0, 1]")
        ref = refs.get(input_key(self.params))
        if ref is None:
            return errors + ["no reference for this input"]
        dev = fx_central_deviation(sol, f_px)
        # tolerance set from the defining commit on this grid: twice its deviation
        if dev > 2.0 * ref["fx_dev"]:
            errors.append(
                f"f_px deviates from central differences by {dev:.3g}, "
                f"tolerance {2.0 * ref['fx_dev']:.3g}"
            )
        return errors


def bump_profile(f_pe: float, params: dict, n: int):
    """sin^2 bump on [lo, lo + width] over the equilibrium ratio."""
    lo, hi = params["lo"], params["lo"] + params["width"]
    x = np.linspace(0.0, 1.0, n)
    s = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    return f_pe + np.where((x >= lo) & (x < hi), params["amp"] * np.sin(np.pi * s) ** 2, 0.0)


def fx_central_deviation(sol, f_px) -> float:
    vals = sol.field.values
    dx = sol.field.x_grid[1] - sol.field.x_grid[0]
    central = (vals[:, 2:] - vals[:, :-2]) / (2.0 * dx)
    return float(np.max(np.abs(f_px.values[:, 1:-1] - central)))


def make(workload: str, params: dict, work: Path):
    if workload == "regularity":
        return RegularityWorkload(params, work)
    return CliWorkload(workload, params, work)
