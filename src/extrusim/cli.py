"""Command line front end: config files, subcommands, CSV emission.

Configs are flat ``key=value`` text files with dotted section prefixes.
Blank lines and lines starting with ``#`` are skipped.  Keys:

  params.zeta params.L params.K_d params.B params.rho0 params.V_eff
      machine constants, all positive, default 1.0 each
  equilibrium.N_e
      operating screw speed (required by every subcommand)
  equilibrium.l_e | equilibrium.f_pe
      exactly one anchor for the operating point
  data.l0 data.l1
      initial (and, for control, final) interface position
  data.f0_p data.f1_p data.F_in data.N
      function specs: "constant:<v|eq>", "linear:<v0>,<v1>",
      "sine-perturbation:<base|eq>,<amp>[,<freq>]", or "csv:<path>"
      (two-column file with header, coordinates uniform; paths resolve
      relative to the config file).  "eq" substitutes the equilibrium
      value of the quantity.  Profiles live on x in [0,1], time inputs
      on t in [0,T]; the sine argument is pi*x resp. pi*t/T times freq.
  numerics.dt numerics.dx
      step sizes of the output/replay grids (defaults 5e-3, 1e-2);
      dt must divide mode.T and dx the unit interval, and the grid may
      hold at most 10^7 points, (T/dt + 1) * (1/dx + 1); the upwind
      march (simulate with mode.method=upwind, verify, and the replay of
      control) keeps one row per CFL step, about
      T * max alpha(0) / (0.9 * dx) steps, and steps * (1/dx + 1) may not
      pass 10^7 either
  mode.T mode.nu mode.method mode.out
      horizon, control deviation budget, simulate method
      (characteristics|upwind), output directory (default ".")
  sweep.run sweep.vary.<key>
      subcommand to repeat and comma-separated values for any scalar
      key; axes combine as a full grid, first declared axis slowest,
      into at most 1000 cases

Exit codes: 0 on success, 2 for schema violations (message names the
first offending key), 3 for solver failures.  Every CSV is written with
'.' decimal separator, 12 significant digits and LF line endings.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .control import ControlTarget, synthesize, verify_control
from .errors import ExtrusimError, SchemaError
from .fields import SampledFunction, SpaceProfile, csv_text, format_value
from .model import PhysicalParams, eval_g, solve_equilibrium
from .oracle import UpwindConfig, simulate_upwind, upwind_step_estimate
from .wellposed import CauchyData, solve_semiglobal

COMMANDS = ("equilibrium", "simulate", "control", "verify", "sweep")

USAGE = "usage: extrusim <equilibrium|simulate|control|verify|sweep> <config>"

_SPEC_HEADS = ("constant", "linear", "sine-perturbation", "csv")

# largest n_t * n_x an output or replay grid may have (8 bytes a value, so
# 80 MB a field array); a finer dt or dx is a config error, not an allocation
MAX_GRID_POINTS = 10**7

# most cases one sweep may run; case directories are numbered case_000 to
# case_999
MAX_SWEEP_CASES = 1000


def _positive(v):
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError("must be a positive number")
    return v


def _unit_open(v):
    if not (0.0 < v < 1.0):
        raise ValueError("must lie in (0, 1)")
    return v


def _grid_step(v):
    _positive(v)
    if 1.0 / v >= MAX_GRID_POINTS:
        raise ValueError(f"more than MAX_GRID_POINTS={MAX_GRID_POINTS} nodes on the unit interval")
    cells = round(1.0 / v)
    if cells < 1 or abs(cells * v - 1.0) > 1e-12:
        raise ValueError("must divide the unit interval")
    return v


_FLOAT_KEYS = {
    "params.zeta": _positive,
    "params.L": _positive,
    "params.K_d": _positive,
    "params.B": _positive,
    "params.rho0": _positive,
    "params.V_eff": _positive,
    "equilibrium.N_e": _positive,
    "equilibrium.l_e": _positive,
    "equilibrium.f_pe": _unit_open,
    "data.l0": _positive,
    "data.l1": _positive,
    "mode.T": _positive,
    "mode.nu": _positive,
    "numerics.dt": _positive,
    "numerics.dx": _grid_step,
}

_SPEC_KEYS = ("data.f0_p", "data.f1_p", "data.F_in", "data.N")

_ENUM_KEYS = {
    "mode.method": ("characteristics", "upwind"),
    "sweep.run": ("simulate", "control"),
}

_STR_KEYS = ("mode.out",)

_EQ_ANCHORS = ("equilibrium.l_e", "equilibrium.f_pe")

# keys checked for presence per subcommand, in reporting order
_REQUIRED = {
    "equilibrium": ("equilibrium.N_e",),
    "simulate": ("equilibrium.N_e", "data.l0", "data.f0_p", "data.F_in", "data.N", "mode.T"),
    "verify": ("equilibrium.N_e", "data.l0", "data.f0_p", "data.F_in", "data.N", "mode.T"),
    "control": (
        "equilibrium.N_e",
        "data.l0",
        "data.l1",
        "data.f0_p",
        "data.f1_p",
        "mode.T",
        "mode.nu",
    ),
    "sweep": ("sweep.run",),
}


def _parse_value(key: str, raw: str):
    if key in _FLOAT_KEYS:
        try:
            v = float(raw)
        except ValueError:
            raise SchemaError(f"{key}: expected a number, got {raw!r}") from None
        try:
            return _FLOAT_KEYS[key](v)
        except ValueError as exc:
            raise SchemaError(f"{key}: {exc}") from None
    if key in _SPEC_KEYS:
        head = raw.partition(":")[0]
        if head not in _SPEC_HEADS:
            raise SchemaError(
                f"{key}: unknown function spec {head!r}; use one of {', '.join(_SPEC_HEADS)}"
            )
        return raw
    if key in _ENUM_KEYS:
        if raw not in _ENUM_KEYS[key]:
            raise SchemaError(f"{key}: must be one of {', '.join(_ENUM_KEYS[key])}")
        return raw
    if key in _STR_KEYS:
        return raw
    if key.startswith("sweep.vary."):
        target = key[len("sweep.vary.") :]
        if target not in _FLOAT_KEYS:
            raise SchemaError(f"{key}: can only sweep scalar keys, not {target!r}")
        values = []
        for part in raw.split(","):
            values.append(_parse_value(target, part.strip()))
        if not values:
            raise SchemaError(f"{key}: empty value list")
        return values
    raise SchemaError(f"{key}: unknown key")


def _parse_lines(lines, source: str):
    """Parse config lines into (typed, raw, order); first offender wins."""
    typed: dict = {}
    raw: dict = {}
    order: list = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise SchemaError(f"{source}:{lineno}: expected key=value, got {text!r}")
        if key in typed:
            raise SchemaError(f"{key}: duplicate key")
        typed[key] = _parse_value(key, value)
        raw[key] = value
        order.append(key)
    return typed, raw, order


def parse_config(path: Path):
    try:
        content = path.read_text()
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return _parse_lines(content.splitlines(), str(path))


def _check_required(sub: str, typed: dict, order: list):
    for key in _REQUIRED[sub]:
        if key not in typed:
            raise SchemaError(f"{key}: required by {sub!r} but missing")
    if sub == "sweep":
        return
    anchors = [k for k in order if k in _EQ_ANCHORS]
    if not anchors:
        raise SchemaError(
            "equilibrium.l_e: exactly one of equilibrium.l_e/equilibrium.f_pe is required"
        )
    if len(anchors) > 1:
        raise SchemaError(f"{anchors[-1]}: give only one equilibrium anchor")


def _resolve_point(typed: dict):
    params = PhysicalParams(
        zeta=typed.get("params.zeta", 1.0),
        L=typed.get("params.L", 1.0),
        K_d=typed.get("params.K_d", 1.0),
        B=typed.get("params.B", 1.0),
        rho0=typed.get("params.rho0", 1.0),
        V_eff=typed.get("params.V_eff", 1.0),
    )
    eq = solve_equilibrium(
        params,
        N_e=typed["equilibrium.N_e"],
        l_e=typed.get("equilibrium.l_e"),
        f_pe=typed.get("equilibrium.f_pe"),
    )
    return params, eq


def _eq_value(arg: str, key: str, substitute: float) -> float:
    if arg == "eq":
        return substitute
    try:
        return float(arg)
    except ValueError:
        raise SchemaError(f"{key}: expected a number or 'eq', got {arg!r}") from None


def _load_csv_columns(key: str, arg: str, base_dir: Path):
    path = Path(arg)
    if not path.is_absolute():
        path = base_dir / path
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2)
    except OSError:
        raise SchemaError(f"{key}: referenced file {path} does not exist") from None
    except ValueError as exc:
        raise SchemaError(f"{key}: {path} did not parse as a two-column CSV ({exc})") from None
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
        raise SchemaError(f"{key}: {path} must hold two columns and at least two rows")
    if not np.all(np.isfinite(table)):
        raise SchemaError(f"{key}: {path} holds a non-finite number")
    coords, values = table[:, 0], table[:, 1]
    steps = np.diff(coords)
    if np.any(steps <= 0.0) or np.ptp(steps) > 1e-9 * max(steps[0], 1e-30):
        raise SchemaError(f"{key}: coordinates in {path} must be uniform and increasing")
    return coords, values


@np.errstate(over="ignore", invalid="ignore")
def _spec_samples(
    typed: dict, key: str, substitute: float, n: int, base_dir: Path, T: float | None = None
):
    """Samples of the function spec under key: a profile on x in [0, 1] when
    T is None, else a time input on t in [0, T].

    Formula specs are sampled on n uniform nodes; a csv spec brings its own
    samples, whose coordinates must span the same interval.  Non-finite
    samples (nan or inf in the spec, or overflow) are a config error.
    """
    head, _, arg = typed[key].partition(":")
    if head == "constant":
        values = np.full(n, _eq_value(arg, key, substitute))
    elif head == "linear":
        parts = arg.split(",")
        if len(parts) != 2:
            raise SchemaError(f"{key}: linear takes two values")
        v0, v1 = (_eq_value(p.strip(), key, substitute) for p in parts)
        values = np.linspace(v0, v1, n)
    elif head == "sine-perturbation":
        base, amp, freq = _sine_args(arg, key, substitute)
        values = base + amp * np.sin(freq * np.pi * np.linspace(0.0, 1.0, n))
    else:
        coords, values = _load_csv_columns(key, arg, base_dir)
        span = 1.0 if T is None else T
        if abs(coords[0]) > 1e-9 or abs(coords[-1] - span) > 1e-9 * max(1.0, span):
            kind = "profile" if T is None else "time"
            raise SchemaError(f"{key}: {kind} coordinates must span [0, {format_value(span)}]")
    if not np.all(np.isfinite(values)):
        raise SchemaError(f"{key}: {typed[key]!r} gives non-finite samples")
    return values


def _sine_args(arg: str, key: str, substitute: float):
    parts = [p.strip() for p in arg.split(",")]
    if len(parts) not in (2, 3):
        raise SchemaError(f"{key}: sine-perturbation takes base,amp[,freq]")
    base = _eq_value(parts[0], key, substitute)
    try:
        amp = float(parts[1])
        freq = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise SchemaError(f"{key}: expected numeric amplitude/frequency") from None
    return base, amp, freq


def _grids(typed: dict, T: float):
    dt = typed.get("numerics.dt", 5e-3)
    dx = typed.get("numerics.dx", 1e-2)
    n_x = max(2, int(round(1.0 / dx)) + 1)
    steps = T / dt
    if not (math.isfinite(steps) and (steps + 1.0) * n_x <= MAX_GRID_POINTS):
        raise SchemaError(
            f"numerics.dt: mode.T/dt={format_value(steps)} steps on {n_x} nodes exceed "
            f"MAX_GRID_POINTS={MAX_GRID_POINTS}"
        )
    cells = round(steps)
    if cells < 1 or abs(cells * dt - T) > 1e-9 * T:
        raise SchemaError(f"numerics.dt: {format_value(dt)} must divide mode.T={format_value(T)}")
    n_t = cells + 1
    return dt, dx, n_t, n_x


def _out_dir(typed: dict) -> Path:
    out = Path(typed.get("mode.out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _check_march(data, T: float, cfg: UpwindConfig):
    """Refuse an upwind march whose rows would overflow MAX_GRID_POINTS.

    The march stores one row per CFL step, and the step follows the speed,
    not numerics.dt; the count is estimated from the speed at t = 0.
    """
    steps = upwind_step_estimate(data, T, cfg)
    if steps * cfg.n_nodes > MAX_GRID_POINTS:
        raise SchemaError(
            f"numerics.dx: the upwind march to mode.T={format_value(T)} takes about "
            f"{format_value(steps)} CFL steps on {cfg.n_nodes} nodes, more than "
            f"MAX_GRID_POINTS={MAX_GRID_POINTS}; coarsen numerics.dx or shorten mode.T"
        )


def _cauchy_data(typed: dict, params, eq, T: float, n_t: int, n_x: int, base_dir: Path):
    f0 = SpaceProfile(_spec_samples(typed, "data.f0_p", eq.f_pe, n_x, base_dir))
    feed_eq = eq.f_pe * params.rho0 * params.V_eff * eq.N_e
    F_in = SampledFunction(0.0, T, _spec_samples(typed, "data.F_in", feed_eq, n_t, base_dir, T))
    N = SampledFunction(0.0, T, _spec_samples(typed, "data.N", eq.N_e, n_t, base_dir, T))
    return CauchyData(typed["data.l0"], f0, F_in, N, params, eq)


def cmd_equilibrium(typed: dict, base_dir: Path) -> int:
    _, eq = _resolve_point(typed)
    for name, value in (("l_e", eq.l_e), ("N_e", eq.N_e), ("f_pe", eq.f_pe)):
        print(f"{name}={value:.10g}")
    return 0


def cmd_simulate(typed: dict, base_dir: Path) -> int:
    params, eq = _resolve_point(typed)
    T = typed["mode.T"]
    _, dx, n_t, n_x = _grids(typed, T)
    data = _cauchy_data(typed, params, eq, T, n_t, n_x, base_dir)
    method = typed.get("mode.method", "characteristics")
    if method == "characteristics":
        sol = solve_semiglobal(data, T, n_t=n_t, n_x=n_x)
        t, l_vals, field = sol.l.grid, sol.l.values, sol.field
    else:
        cfg = UpwindConfig(dx=dx)
        _check_march(data, T, cfg)
        l_tr, field = simulate_upwind(data, T, cfg)
        t = field.t_grid
        l_vals = l_tr(t)
    trace = csv_text("t,l,fp_at_1,N,F_in", t, l_vals, field.values[:, -1], data.N(t), data.F_in(t))
    out = _out_dir(typed)
    _write(out / "trace.csv", trace)
    with open(out / "field.csv", "w", newline="\n") as fh:
        field.write_csv(fh, header="t,x,fp,provenance")
    print(f"wrote {out / 'trace.csv'} ({t.size} rows)")
    print(f"wrote {out / 'field.csv'} ({t.size * field.x_grid.size} rows)")
    return 0


def cmd_control(typed: dict, base_dir: Path) -> int:
    params, eq = _resolve_point(typed)
    T = typed["mode.T"]
    dx, n_t, n_x = _grids(typed, T)[1:]
    target = ControlTarget(
        l0=typed["data.l0"],
        l1=typed["data.l1"],
        f0_p=SpaceProfile(_spec_samples(typed, "data.f0_p", eq.f_pe, n_x, base_dir)),
        f1_p=SpaceProfile(_spec_samples(typed, "data.f1_p", eq.f_pe, n_x, base_dir)),
        T=T,
        nu=typed["mode.nu"],
    )
    # verify_control replays the controls with the upwind march from the
    # target's initial state, screw at N_e and feed at f0_p(0); bound that
    # march before synthesizing
    feed0 = float(target.f0_p.values[0]) * params.rho0 * params.V_eff * eq.N_e
    F_in = SampledFunction.constant(feed0, 0.0, T)
    N = SampledFunction.constant(eq.N_e, 0.0, T)
    _check_march(CauchyData(target.l0, target.f0_p, F_in, N, params, eq), T, UpwindConfig(dx=dx))
    report = synthesize(target, params, eq)
    cert = verify_control(target, report, params, eq, dx=dx, n_t=n_t, n_x=n_x)
    out = _out_dir(typed)
    controls = csv_text("t,N,F_in", report.N.grid, report.N.values, report.F_in.values)
    _write(out / "controls.csv", controls)
    cert_fields = (
        ("char_l_error", cert.char_l_error),
        ("char_fp_error", cert.char_fp_error),
        ("upwind_l_error", cert.upwind_l_error),
        ("upwind_fp_error", cert.upwind_fp_error),
        ("nfn_value", cert.nfn_value),
        ("nfn_ratio", cert.nfn_ratio),
    )
    header = ",".join(name for name, _ in cert_fields)
    _write(out / "certificate.csv", csv_text(header, *([v] for _, v in cert_fields)))
    summary = {
        "iterations": report.iterations,
        "residual": report.residual,
        "t0": report.t0,
        "t1": report.t1,
        "amplitude": report.amplitude,
        "final_errors": list(report.final_errors),
        "control_size": report.control_size,
    }
    print(json.dumps(summary, sort_keys=True))
    print(f"wrote {out / 'controls.csv'} ({report.N.grid.size} rows)")
    print(f"wrote {out / 'certificate.csv'}")
    return 0


class _CheckFailure(ExtrusimError):
    """An invariant of the verify subcommand does not hold."""


def cmd_verify(typed: dict, base_dir: Path) -> int:
    params, eq = _resolve_point(typed)
    T = typed["mode.T"]
    _, dx, n_t, n_x = _grids(typed, T)
    failures = 0

    def report(name: str, fn):
        nonlocal failures
        try:
            detail = fn()
        except ExtrusimError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
            return
        print(f"ok {name}" + (f" ({detail})" if detail else ""))

    def check_identity():
        residual = abs(eval_g(eq.l_e, eq.f_pe, params))
        if residual > 1e-12:
            raise _CheckFailure(f"equilibrium residual {residual:.3g}")
        return f"residual {residual:.3g}"

    data = _cauchy_data(typed, params, eq, T, n_t, n_x, base_dir)
    upwind = UpwindConfig(dx=dx)
    _check_march(data, T, upwind)
    state = {}

    def check_contraction():
        sol = solve_semiglobal(data, T, n_t=n_t, n_x=n_x)
        state["sol"] = sol
        worst = 0.0
        for seg in sol.reports:
            tail = seg.contraction_factors[1:]
            if tail:
                worst = max(worst, max(tail))
        if worst > 0.5 + 1e-9:
            raise _CheckFailure(f"contraction factor {worst:.3g} above 1/2")
        return f"{len(sol.reports)} segments, worst factor {worst:.3g}"

    def check_cross_validation():
        sol = state["sol"]
        l_up, field_up = simulate_upwind(data, T, upwind)
        state["upwind"] = field_up
        dev_l = float(np.max(np.abs(sol.l.values - l_up(sol.l.grid))))
        final_up = np.interp(sol.field.x_grid, field_up.x_grid, field_up.values[-1])
        dev_fp = float(np.max(np.abs(sol.field.values[-1] - final_up)))
        if dev_l > 5e-3:
            raise _CheckFailure(f"interface deviation {dev_l:.3g}")
        if dev_fp > 5e-3:
            raise _CheckFailure(f"final profile deviation {dev_fp:.3g}")
        return f"interface {dev_l:.3g}, profile {dev_fp:.3g}"

    def check_ranges():
        state["sol"].field.check_unit_range()
        state["upwind"].check_unit_range()
        return None

    report("equilibrium-identity", check_identity)
    report("fixed-point-contraction", check_contraction)
    if "sol" in state:
        report("cross-validation", check_cross_validation)
        if "upwind" in state:
            report("ratio-range", check_ranges)
    return 3 if failures else 0


def cmd_sweep(typed: dict, raw: dict, order: list, base_dir: Path) -> int:
    run_sub = typed["sweep.run"]
    axes = [
        (key[len("sweep.vary.") :], typed[key])
        for key in order
        if key.startswith("sweep.vary.")
    ]
    total = math.prod(len(values) for _, values in axes)
    if total > MAX_SWEEP_CASES:
        longest = max(axes, key=lambda axis: len(axis[1]))[0]
        raise SchemaError(
            f"sweep.vary.{longest}: the axes combine to {total} cases, more than "
            f"MAX_SWEEP_CASES={MAX_SWEEP_CASES}"
        )
    base_raw = {k: v for k, v in raw.items() if not k.startswith("sweep.")}
    out_root = _out_dir(typed)
    names = [key for key, _ in axes]
    grids = [values for _, values in axes]
    failures = 0
    cases = 0
    for index, combo in enumerate(itertools.product(*grids)):
        cases += 1
        case_raw = dict(base_raw)
        for key, value in zip(names, combo):
            case_raw[key] = format_value(value)
        case_dir = out_root / f"case_{index:03d}"
        case_dir.mkdir(parents=True, exist_ok=True)
        case_raw["mode.out"] = str(case_dir)
        config_text = "\n".join(f"{k}={case_raw[k]}" for k in sorted(case_raw)) + "\n"
        _write(case_dir / "config.txt", config_text)
        try:
            case_typed, _, case_order = _parse_lines(
                config_text.splitlines(), str(case_dir / "config.txt")
            )
            _check_required(run_sub, case_typed, case_order)
            code = _DISPATCH[run_sub](case_typed, base_dir)
        except SchemaError as exc:
            print(f"{case_dir.name}: config error: {exc}", file=sys.stderr)
            failures += 1
            continue
        except ExtrusimError as exc:
            print(f"{case_dir.name}: error: {exc}", file=sys.stderr)
            failures += 1
            continue
        if code != 0:
            failures += 1
        print(f"{case_dir.name}: done")
    print(f"{cases} cases, {failures} failed")
    return 3 if failures else 0


_DISPATCH = {
    "equilibrium": cmd_equilibrium,
    "simulate": cmd_simulate,
    "control": cmd_control,
    "verify": cmd_verify,
}


def run(argv) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        print(__doc__.partition("\n")[2])
        return 0
    sub = argv[0]
    if sub not in COMMANDS:
        print(f"unknown subcommand {sub!r}\n{USAGE}", file=sys.stderr)
        return 2
    if len(argv) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    config_path = Path(argv[1])
    try:
        typed, raw, order = parse_config(config_path)
        _check_required(sub, typed, order)
        base_dir = config_path.resolve().parent
        if sub == "sweep":
            return cmd_sweep(typed, raw, order, base_dir)
        return _DISPATCH[sub](typed, base_dir)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ExtrusimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
