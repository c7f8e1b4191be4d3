"""Command line front end: config files, subcommands, CSV emission.

Configs are flat ``key=value`` text files with dotted section prefixes.
Blank lines and lines starting with ``#`` are skipped.  Keys:

  params.zeta params.L params.K_d params.B params.rho0 params.V_eff
      machine constants, all positive, default 1.0 each
  equilibrium.N_e
      operating screw speed (required by every subcommand)
  equilibrium.l_e | equilibrium.f_pe
      exactly one anchor for the operating point; l_e, given or implied
      by f_pe, must lie in (0, params.L)
  data.l0 data.l1
      initial (and, for control, final) interface position, in
      (0, params.L)
  data.f0_p data.f1_p data.F_in data.N
      function specs: "constant:<v|eq>", "linear:<v0>,<v1>",
      "sine-perturbation:<base|eq>,<amp>[,<freq>]", or "csv:<path>"
      (two-column file with header, coordinates uniform; paths resolve
      relative to the config file).  "eq" substitutes the equilibrium
      value of the quantity.  Profiles live on x in [0,1], time inputs
      on t in [0,T]; the sine argument is pi*x resp. pi*t/T times freq.
      Samples must be finite; data.N positive, data.F_in nonnegative,
      data.f0_p and data.f1_p in [0,1] and below 1 at x = 1 (control:
      in [0, 1) everywhere)
  numerics.dt numerics.dx
      step sizes of the output/replay grids (defaults 5e-3, 1e-2);
      dt must divide mode.T and dx the unit interval (control: dx <= 0.5),
      and the grid may hold at most 10^7 points, (T/dt + 1) * (1/dx + 1);
      the upwind march (simulate with mode.method=upwind, verify, and the
      replay of control) keeps one row per CFL step, about
      T * max alpha(0) / (0.9 * dx) steps, and steps * (1/dx + 1) may not
      pass 10^7 either; a march that outgrows this estimate stops, exit 3
  mode.T mode.nu mode.method mode.out
      horizon, control deviation budget, simulate method
      (characteristics|upwind), output directory (default ".")
  sweep.run sweep.vary.<key>
      subcommand to repeat and comma-separated values for any scalar
      key; axes combine as a full grid, first declared axis slowest,
      into at most 1000 cases; each case config holds the swept value as
      the shortest text that parses back to it; the keys of every case,
      a swept key in place of a plain one of the same name, must hold
      what sweep.run requires, one anchor included, and this is checked
      before any case runs

A key the subcommand does not read is rejected: verify reads neither
mode.method nor mode.out, equilibrium reads only params.* and
equilibrium.*, and a sweep's other keys must be read by sweep.run.

Exit codes: 0 on success, 2 for schema violations (message names the
first offending key), 3 for solver failures.  Every CSV is written with
'.' decimal separator, 12 significant digits and LF line endings.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from collections.abc import Callable
from dataclasses import astuple, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ExtrusimError, SchemaError
from .fields import SampledFunction, SpaceProfile, csv_text, format_value
from .model import CauchyData, PhysicalParams, solve_equilibrium
from .oracle import MAX_GRID_POINTS, UpwindConfig, simulate_upwind, upwind_step_estimate

USAGE = "usage: extrusim <equilibrium|simulate|control|verify|sweep> <config>"

_SPEC_HEADS = ("constant", "linear", "sine-perturbation", "csv")

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


def _spec(raw):
    head = raw.partition(":")[0]
    if head not in _SPEC_HEADS:
        raise ValueError(f"unknown function spec {head!r}; use one of {', '.join(_SPEC_HEADS)}")
    return raw


def _one_of(*choices):
    def check(raw):
        if raw not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return raw

    return check


class _Key(NamedTuple):
    number: bool  # parsed as a float before its check; only numbers are swept
    check: Callable  # returns the value or raises ValueError naming the rule
    required_by: tuple  # subcommands that fail without the key
    optional_for: tuple  # subcommands that read the key if it is given


_RUNS = ("simulate", "verify", "control")
_POINT = ("equilibrium", *_RUNS)

# every accepted key; a missing required key is reported in this order
_KEYS = {
    **{f"params.{f.name}": _Key(True, _positive, (), _POINT) for f in fields(PhysicalParams)},
    "equilibrium.N_e": _Key(True, _positive, _POINT, ()),
    "equilibrium.l_e": _Key(True, _positive, (), _POINT),
    "equilibrium.f_pe": _Key(True, _unit_open, (), _POINT),
    "data.l0": _Key(True, _positive, _RUNS, ()),
    "data.l1": _Key(True, _positive, ("control",), ()),
    "data.f0_p": _Key(False, _spec, _RUNS, ()),
    "data.f1_p": _Key(False, _spec, ("control",), ()),
    "data.F_in": _Key(False, _spec, ("simulate", "verify"), ()),
    "data.N": _Key(False, _spec, ("simulate", "verify"), ()),
    "numerics.dt": _Key(True, _positive, (), _RUNS),
    "numerics.dx": _Key(True, _grid_step, (), _RUNS),
    "mode.T": _Key(True, _positive, _RUNS, ()),
    "mode.nu": _Key(True, _positive, ("control",), ()),
    "mode.method": _Key(False, _one_of("characteristics", "upwind"), (), ("simulate",)),
    "mode.out": _Key(False, str, (), ("simulate", "control")),
    "sweep.run": _Key(False, _one_of("simulate", "control"), ("sweep",), ()),
}

# admissible samples of each function spec, and the rule a violation names
_PROFILE_RANGE = (
    lambda v: (v >= 0.0).all() and (v <= 1.0).all() and v[-1] < 1.0,
    "must lie in [0, 1] and stay below 1 at x = 1",
)
_SPEC_RANGES = {
    "data.f0_p": _PROFILE_RANGE,
    "data.f1_p": _PROFILE_RANGE,
    "data.F_in": (lambda v: (v >= 0.0).all(), "must be nonnegative"),
    "data.N": (lambda v: (v > 0.0).all(), "must be positive"),
}

_EQ_ANCHORS = ("equilibrium.l_e", "equilibrium.f_pe")


def _parse_value(key: str, raw: str):
    if key.startswith("sweep.vary."):
        target = key.removeprefix("sweep.vary.")
        if target not in _KEYS or not _KEYS[target].number:
            raise SchemaError(f"{key}: can only sweep scalar keys, not {target!r}")
        return [_parse_value(target, part.strip()) for part in raw.split(",")]
    if key not in _KEYS:
        raise SchemaError(f"{key}: unknown key")
    entry = _KEYS[key]
    try:
        value = float(raw) if entry.number else raw
    except ValueError:
        raise SchemaError(f"{key}: expected a number, got {raw!r}") from None
    try:
        return entry.check(value)
    except ValueError as exc:
        raise SchemaError(f"{key}: {exc}") from None


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
    """Check that sub reads every key given, and is given every key it
    requires, exactly one equilibrium anchor and, for control, dx <= 0.5."""
    given = dict(zip(order, order))
    if sub == "sweep" and "sweep.run" in typed:
        # each case runs sweep.run on the other keys, a swept key in place
        # of a plain one of the same name
        sub = typed["sweep.run"]
        given = {key.removeprefix("sweep.vary."): key for key in order if key != "sweep.run"}
    for key, entry in _KEYS.items():
        if sub in entry.required_by and key not in given:
            raise SchemaError(f"{key}: required by {sub!r} but missing")
    for target, key in given.items():
        entry = _KEYS.get(target)
        if entry is None or sub not in entry.required_by + entry.optional_for:
            raise SchemaError(f"{key}: not read by {sub!r}")
    anchors = [key for target, key in given.items() if target in _EQ_ANCHORS]
    if not anchors:
        raise SchemaError(
            "equilibrium.l_e: exactly one of equilibrium.l_e/equilibrium.f_pe is required"
        )
    if len(anchors) > 1:
        raise SchemaError(f"{anchors[-1]}: give only one equilibrium anchor")
    dx_key = given.get("numerics.dx")
    if sub == "control" and dx_key and np.max(typed[dx_key]) > 0.5:
        raise SchemaError(f"{dx_key}: control needs dx <= 0.5, three nodes for its W1inf norms")


def _resolve_point(typed: dict):
    params = PhysicalParams(
        **{key.removeprefix("params."): v for key, v in typed.items() if key.startswith("params.")}
    )
    try:
        eq = solve_equilibrium(
            params,
            N_e=typed["equilibrium.N_e"],
            l_e=typed.get("equilibrium.l_e"),
            f_pe=typed.get("equilibrium.f_pe"),
        )
    except DomainError as exc:
        if not params.zeta * typed["equilibrium.N_e"] > 0.0:
            # the scale of the transport speed underflows, whatever the anchor
            keys = "equilibrium.N_e, params.zeta"
        else:
            keys = "equilibrium.l_e" if "equilibrium.l_e" in typed else "equilibrium.f_pe"
        raise SchemaError(f"{keys}: {exc}") from None
    for key in ("data.l0", "data.l1"):
        if key in typed and typed[key] >= params.L:
            raise SchemaError(f"{key}: must lie in (0, params.L={format_value(params.L)})")
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
    samples (nan or inf in the spec, or overflow) and samples outside the
    key's admissible range (`_SPEC_RANGES`) are config errors.
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
    admissible, rule = _SPEC_RANGES[key]
    if not admissible(values):
        raise SchemaError(f"{key}: the samples of {typed[key]!r} {rule}")
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
    n_x = round(1.0 / dx) + 1
    steps = T / dt
    if not (math.isfinite(steps) and (steps + 1.0) * n_x <= MAX_GRID_POINTS):
        raise SchemaError(
            f"numerics.dt: mode.T/dt={format_value(steps)} steps on {n_x} nodes exceed "
            f"MAX_GRID_POINTS={MAX_GRID_POINTS}"
        )
    cells = round(steps)
    if cells < 1 or abs(cells * dt - T) > 1e-9 * T:
        raise SchemaError(f"numerics.dt: {format_value(dt)} must divide mode.T={format_value(T)}")
    return dx, cells + 1, n_x


def _out_path(typed: dict) -> Path:
    """The directory mode.out names, checked before any solver runs: it, or
    else the nearest of its parents that exists, must be a directory."""
    out = Path(typed.get("mode.out", "."))
    existing = next((p for p in (out, *out.parents) if os.path.exists(p)), out)
    if not os.path.isdir(existing):
        raise SchemaError(f"mode.out: {existing} is not a directory")
    return out


def _make_dir(out: Path) -> Path:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"mode.out: cannot make {out}: {exc.strerror or exc}") from None
    return out


def _write(path: Path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _check_march(l0: float, f0_p, N0: float, params, T: float, cfg: UpwindConfig):
    """Refuse an upwind march whose rows would overflow MAX_GRID_POINTS.

    The march stores one row per CFL step, and the step follows the speed,
    not numerics.dt; the count is estimated from the speed at t = 0, so a
    march that would take long on few nodes fails before any solver runs.
    """
    steps = upwind_step_estimate(l0, f0_p, N0, params, T, cfg)
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
    # the spec ranges and _resolve_point leave one DomainError to CauchyData:
    # an inflow ratio F_in/(rho0*V_eff*N) at or above 1
    try:
        return CauchyData(typed["data.l0"], f0, F_in, N, params, eq)
    except DomainError as exc:
        raise SchemaError(f"data.F_in, data.N: {exc}") from None


def cmd_equilibrium(typed: dict, base_dir: Path) -> int:
    _, eq = _resolve_point(typed)
    for name, value in (("l_e", eq.l_e), ("N_e", eq.N_e), ("f_pe", eq.f_pe)):
        print(f"{name}={value:.10g}")
    return 0


def cmd_simulate(typed: dict, base_dir: Path) -> int:
    out = _out_path(typed)
    params, eq = _resolve_point(typed)
    T = typed["mode.T"]
    dx, n_t, n_x = _grids(typed, T)
    data = _cauchy_data(typed, params, eq, T, n_t, n_x, base_dir)
    if typed.get("mode.method", "characteristics") == "characteristics":
        # imported here, by the branch that runs it: see cmd_control
        from .wellposed import solve_semiglobal

        sol = solve_semiglobal(data, T, n_t=n_t, n_x=n_x)
        l, field = sol.l, sol.field
    else:
        cfg = UpwindConfig(dx=dx)
        _check_march(data.l0, data.f0_p, data.N(0.0), params, T, cfg)
        l, field = simulate_upwind(data, T, cfg)
    # both solvers sample l on the field's time grid
    t = field.t_grid
    fp_at_1 = field.values[:, -1]
    trace = csv_text("t,l,fp_at_1,N,F_in", t, l.values, fp_at_1, data.N(t), data.F_in(t))
    _make_dir(out)
    _write(out / "trace.csv", trace)
    with open(out / "field.csv", "wb") as fh:
        field.write_csv(fh, header="t,x,fp,provenance")
    print(f"wrote {out / 'trace.csv'} ({t.size} rows)")
    print(f"wrote {out / 'field.csv'} ({t.size * field.x_grid.size} rows)")
    return 0


# the fields of the synthesis report that control prints as its JSON summary
_SUMMARY_FIELDS = ("iterations", "residual", "t0", "t1", "amplitude", "final_errors",
                   "control_size")


def cmd_control(typed: dict, base_dir: Path) -> int:
    # the rule for every import inside a subcommand: a solver module, or a
    # library that one subcommand alone uses (json here), is imported by the
    # subcommand that runs it, not at module level; the config checks need
    # none of them, and importing them is a measurable share of start-up
    import json

    from .control import ControlTarget, synthesize, verify_control

    out = _out_path(typed)
    params, eq = _resolve_point(typed)
    T = typed["mode.T"]
    dx, n_t, n_x = _grids(typed, T)
    profiles = {}
    for key in ("data.f0_p", "data.f1_p"):
        values = _spec_samples(typed, key, eq.f_pe, n_x, base_dir)
        # the ratios the synthesis steers between stay below 1 everywhere
        if values.max() >= 1.0:
            raise SchemaError(f"{key}: control needs the samples of {typed[key]!r} in [0, 1)")
        # a csv spec brings its own samples; formula specs have n_x >= 3
        if values.size < 3:
            raise SchemaError(f"{key}: control needs three samples for its W1inf norms, "
                              f"{typed[key]!r} gives {values.size}")
        profiles[key] = SpaceProfile(values)
    target = ControlTarget(
        l0=typed["data.l0"],
        l1=typed["data.l1"],
        f0_p=profiles["data.f0_p"],
        f1_p=profiles["data.f1_p"],
        T=T,
        nu=typed["mode.nu"],
    )
    # verify_control replays the controls with the upwind march from the
    # target's initial state, screw at N_e; bound that march before synthesizing
    _check_march(target.l0, target.f0_p, eq.N_e, params, T, UpwindConfig(dx=dx))
    report = synthesize(target, params, eq)
    cert = verify_control(target, report, params, eq, dx=dx, n_t=n_t, n_x=n_x)
    _make_dir(out)
    controls = csv_text("t,N,F_in", report.N.grid, report.N.values, report.F_in.values)
    _write(out / "controls.csv", controls)
    header = ",".join(f.name for f in fields(cert))
    _write(out / "certificate.csv", csv_text(header, *([v] for v in astuple(cert))))
    summary = {name: getattr(report, name) for name in _SUMMARY_FIELDS}
    print(json.dumps(summary, sort_keys=True))
    print(f"wrote {out / 'controls.csv'} ({report.N.grid.size} rows)")
    print(f"wrote {out / 'certificate.csv'}")
    return 0


def _verdict(name: str, failure, detail: str | None = None) -> bool:
    """Print the line of one verify check, FAIL and the failure if there is
    one, else ok and the detail; returns whether the check failed."""
    if failure is not None:
        print(f"FAIL {name}: {failure}")
    else:
        print(f"ok {name}" + (f" ({detail})" if detail else ""))
    return failure is not None


def cmd_verify(typed: dict, base_dir: Path) -> int:
    params, eq = _resolve_point(typed)
    T = typed["mode.T"]
    dx, n_t, n_x = _grids(typed, T)
    data = _cauchy_data(typed, params, eq, T, n_t, n_x, base_dir)
    upwind = UpwindConfig(dx=dx)
    _check_march(data.l0, data.f0_p, data.N(0.0), params, T, upwind)
    residual, bound = eq.residual()
    failed = _verdict(
        "equilibrium-identity",
        f"equilibrium residual {residual:.3g} above {bound:.3g}" if residual > bound else None,
        f"residual {residual:.3g}",
    )
    # imported once the config is checked, as in cmd_control
    from .wellposed import solve_semiglobal

    # a solver that raises fails the check it serves and ends the sequence,
    # since the checks after it read its result
    check = "fixed-point-contraction"
    try:
        sol = solve_semiglobal(data, T, n_t=n_t, n_x=n_x)
        worst = max([0.0, *(f for seg in sol.reports for f in seg.contraction_factors[1:])])
        failed |= _verdict(
            check,
            f"contraction factor {worst:.3g} above 1/2" if worst > 0.5 + 1e-9 else None,
            f"{len(sol.reports)} segments, worst factor {worst:.3g}",
        )
        check = "cross-validation"
        l_up, field_up = simulate_upwind(data, T, upwind)
        dev_l = float(np.max(np.abs(sol.l.values - l_up(sol.l.grid))))
        final_up = np.interp(sol.field.x_grid, field_up.x_grid, field_up.values[-1])
        dev_fp = float(np.max(np.abs(sol.field.values[-1] - final_up)))
        failed |= _verdict(
            check,
            f"interface deviation {dev_l:.3g}" if dev_l > 5e-3
            else f"final profile deviation {dev_fp:.3g}" if dev_fp > 5e-3
            else None,
            f"interface {dev_l:.3g}, profile {dev_fp:.3g}",
        )
        # solve_semiglobal refuses a field outside [0, 1]: only the upwind
        # field is checked
        check = "ratio-range"
        field_up.check_unit_range()
        _verdict(check, None)
    except ExtrusimError as exc:
        _verdict(check, exc)
        return 3
    return 3 if failed else 0


def cmd_sweep(typed: dict, raw: dict, order: list, base_dir: Path) -> int:
    run_sub = typed["sweep.run"]
    axes = [(k.removeprefix("sweep.vary."), typed[k]) for k in order if k.startswith("sweep.vary.")]
    total = math.prod(len(values) for _, values in axes)
    if total > MAX_SWEEP_CASES:
        longest = max(axes, key=lambda axis: len(axis[1]))[0]
        raise SchemaError(
            f"sweep.vary.{longest}: the axes combine to {total} cases, more than "
            f"MAX_SWEEP_CASES={MAX_SWEEP_CASES}"
        )
    base_raw = {k: v for k, v in raw.items() if not k.startswith("sweep.")}
    out_root = _out_path(typed)
    case_dirs = [out_root / f"case_{index:03d}" for index in range(total)]
    # a case path that a file holds ends the sweep before anything is made
    taken = [path for path in case_dirs if os.path.exists(path) and not os.path.isdir(path)]
    if taken:
        raise SchemaError(f"mode.out: {taken[0]} is not a directory")
    _make_dir(out_root)
    failures = 0
    for case_dir, combo in zip(case_dirs, itertools.product(*(values for _, values in axes))):
        _make_dir(case_dir)
        # each swept value as the shortest text that parses back to it, "1" for 1.0
        swept = {key: repr(value).removesuffix(".0") for (key, _), value in zip(axes, combo)}
        case_raw = {**base_raw, **swept, "mode.out": str(case_dir)}
        config_text = "\n".join(f"{k}={case_raw[k]}" for k in sorted(case_raw)) + "\n"
        _write(case_dir / "config.txt", config_text)
        try:
            case_typed = _parse_lines(config_text.splitlines(), str(case_dir / "config.txt"))[0]
            # simulate and control return 0 or raise
            _DISPATCH[run_sub](case_typed, base_dir)
        except ExtrusimError as exc:
            kind = "config error" if isinstance(exc, SchemaError) else "error"
            print(f"{case_dir.name}: {kind}: {exc}", file=sys.stderr)
            failures += 1
        else:
            print(f"{case_dir.name}: done")
    print(f"{total} cases, {failures} failed")
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
    if sub not in (*_DISPATCH, "sweep"):
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
