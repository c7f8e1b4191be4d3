import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extrusim import cli, control, model, oracle, wellposed
from extrusim.cli import MAX_GRID_POINTS, run
from extrusim.errors import SchemaError
from extrusim.fields import PROVENANCE_NAMES, SolutionField

F_PE = 1.0 / 3.0


def write_cfg(tmp_path, name, mapping):
    lines = [f"{k} = {v}" for k, v in mapping.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def base_simulate_cfg(tmp_path, out="out"):
    return {
        "equilibrium.N_e": "1.0",
        "equilibrium.l_e": "0.5",
        "data.l0": "0.5",
        "data.f0_p": "sine-perturbation:eq,0.01",
        "data.F_in": "constant:eq",
        "data.N": "constant:eq",
        "numerics.dt": "0.01",
        "numerics.dx": "0.02",
        "mode.T": "0.5",
        "mode.out": str(tmp_path / out),
    }


def base_verify_cfg(tmp_path):
    """The simulate config without the keys verify does not read."""
    mapping = base_simulate_cfg(tmp_path)
    del mapping["mode.out"]
    return mapping


def base_control_cfg(tmp_path, out="out"):
    return {
        "equilibrium.N_e": "1.0",
        "equilibrium.l_e": "0.5",
        "data.l0": "0.49",
        "data.l1": "0.51",
        "data.f0_p": f"constant:{F_PE - 0.01!r}",
        "data.f1_p": f"constant:{F_PE - 0.01!r}",
        "numerics.dt": "0.01",
        "numerics.dx": "0.01",
        "mode.T": "1.0",
        "mode.nu": "0.01",
        "mode.out": str(tmp_path / out),
    }


def base_cfg(sub, tmp_path):
    """A config that sub runs on."""
    if sub == "equilibrium":
        return {"equilibrium.N_e": "1.0", "equilibrium.l_e": "0.5"}
    base = {"simulate": base_simulate_cfg, "verify": base_verify_cfg, "control": base_control_cfg}
    return base[sub](tmp_path)


def _no_allocation(*args, **kwargs):
    raise AssertionError("grid arrays allocated before the grid cap was checked")


_PARAMS = ("params.zeta", "params.L", "params.K_d", "params.B", "params.rho0", "params.V_eff")
_ANCHORS = ("equilibrium.l_e", "equilibrium.f_pe")
_GRIDS = ("numerics.dt", "numerics.dx")

# keys each runnable subcommand requires, in the order a missing one is
# reported, and the keys it may also set; every other key is not read
_READS = {
    "equilibrium": (("equilibrium.N_e",), (*_PARAMS, *_ANCHORS)),
    "simulate": (
        ("equilibrium.N_e", "data.l0", "data.f0_p", "data.F_in", "data.N", "mode.T"),
        (*_PARAMS, *_ANCHORS, *_GRIDS, "mode.method", "mode.out"),
    ),
    "verify": (
        ("equilibrium.N_e", "data.l0", "data.f0_p", "data.F_in", "data.N", "mode.T"),
        (*_PARAMS, *_ANCHORS, *_GRIDS),
    ),
    "control": (
        ("equilibrium.N_e", "data.l0", "data.l1", "data.f0_p", "data.f1_p", "mode.T", "mode.nu"),
        (*_PARAMS, *_ANCHORS, *_GRIDS, "mode.out"),
    ),
}

# a value that parses for every accepted key
_VALID = {
    **dict.fromkeys(_PARAMS, "1.0"),
    "equilibrium.N_e": "1.0",
    "equilibrium.l_e": "0.5",
    "equilibrium.f_pe": "0.3",
    "data.l0": "0.5",
    "data.l1": "0.5",
    "data.f0_p": "constant:eq",
    "data.f1_p": "constant:eq",
    "data.F_in": "constant:eq",
    "data.N": "constant:eq",
    "numerics.dt": "0.05",
    "numerics.dx": "0.1",
    "mode.T": "1.0",
    "mode.nu": "0.01",
    "mode.method": "upwind",
    "mode.out": "out",
    "sweep.run": "simulate",
}


class TestInvocation:
    def test_no_arguments_prints_usage(self, capsys):
        assert run([]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate", "x.cfg"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["equilibrium", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_control_module_is_imported_by_control_only(self):
        # importing extrusim.control is a measurable part of start-up, and
        # only the control subcommand needs it
        code = "import sys, extrusim.cli; assert 'extrusim.control' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


def modules_after(code):
    """The module names in sys.modules once `code` has run in a fresh
    interpreter that imports extrusim from this checkout."""
    script = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], check=True, env=env,
                          capture_output=True, text=True)
    return set(proc.stdout.splitlines()[-1].split())


def package_modules(names):
    return {name.removeprefix("extrusim.") for name in names if name.startswith("extrusim")}


def run_code(sub, cfg, code):
    return f"from extrusim import cli\nassert cli.run([{sub!r}, {cfg!r}]) == {code}"


SOLVER_MODULES = {"wellposed", "characteristics", "quadrature", "control", "lintransport"}


class TestStartupImports:
    """cli imports at module level only what its config checks need; a solver
    module is imported by the subcommand that runs it."""

    def test_cli_loads_only_what_its_checks_need(self):
        names = modules_after("import extrusim.cli")
        assert package_modules(names) == {"extrusim", "cli", "errors", "fields", "model", "oracle"}
        assert "json" not in names

    @pytest.mark.parametrize(
        "sub,changes,code",
        [
            ("simulate", {"mode.method": "upwind"}, 0),
            ("equilibrium", {}, 0),
            # an inflow ratio above 1 is a config error of the characteristics path
            ("simulate", {"data.N": "sine-perturbation:eq,0.9,2"}, 2),
        ],
        ids=["upwind", "equilibrium", "config-error"],
    )
    def test_paths_without_a_solver_load_no_solver_module(self, tmp_path, sub, changes, code):
        cfg = write_cfg(tmp_path, "c.cfg", {**base_cfg(sub, tmp_path), **changes})
        assert not package_modules(modules_after(run_code(sub, cfg, code))) & SOLVER_MODULES

    def test_characteristics_simulate_loads_its_solver_only(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.cfg", base_simulate_cfg(tmp_path))
        loaded = package_modules(modules_after(run_code("simulate", cfg, 0)))
        assert loaded & SOLVER_MODULES == {"wellposed", "characteristics", "quadrature"}

    def test_wellposed_names_the_cauchy_data_of_model(self):
        assert wellposed.CauchyData is model.CauchyData
        assert wellposed.inflow_peak is model.inflow_peak


class TestEquilibriumCommand:
    def test_prints_point(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "eq.cfg", {"equilibrium.N_e": "1.0", "equilibrium.l_e": "0.5"}
        )
        assert run(["equilibrium", cfg]) == 0
        out = capsys.readouterr().out
        assert "l_e=0.5" in out
        assert "N_e=1" in out
        assert "f_pe=0.3333333333" in out

    def test_ratio_anchor(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "eq.cfg",
            {"params.K_d": "2.0", "equilibrium.N_e": "1.0", "equilibrium.f_pe": "0.5"},
        )
        assert run(["equilibrium", cfg]) == 0
        assert "l_e=0.5" in capsys.readouterr().out


    def test_large_anchor_rounds_within_its_scale(self, tmp_path, capsys):
        # g is the difference of two terms of 420 here, and the solved point
        # leaves |F| at about two ulps of N_e*420, above 1e-12
        cfg = write_cfg(tmp_path, "eq.cfg", {
            "params.zeta": "2", "params.L": "7", "params.K_d": "10", "params.B": "0.25",
            "equilibrium.N_e": "9", "equilibrium.l_e": "1.75",
        })
        assert run(["equilibrium", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.out == "l_e=1.75\nN_e=9\nf_pe=0.9952606635\n"
        assert captured.err == ""


class TestSchemaErrors:
    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.cfg", {"equilibrium.N_e": "1.0", "bogus.key": "1"})
        assert run(["equilibrium", cfg]) == 2
        assert "bogus.key" in capsys.readouterr().err

    def test_first_offending_key_wins(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("mode.T = -3\nbogus.key = 1\n")
        assert run(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "mode.T" in err
        assert "bogus.key" not in err

    def test_missing_required_key(self, tmp_path, capsys):
        mapping = base_simulate_cfg(tmp_path)
        del mapping["data.F_in"]
        del mapping["data.N"]
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["simulate", cfg]) == 2
        err = capsys.readouterr().err
        # canonical reporting order names the feed before the speed
        assert "data.F_in" in err

    def test_duplicate_key(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("equilibrium.N_e = 1.0\nequilibrium.N_e = 2.0\n")
        assert run(["equilibrium", str(path)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_two_equilibrium_anchors(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(
            "equilibrium.N_e = 1.0\nequilibrium.l_e = 0.5\nequilibrium.f_pe = 0.4\n"
        )
        assert run(["equilibrium", str(path)]) == 2
        assert "equilibrium.f_pe" in capsys.readouterr().err

    def test_bad_method_enum(self, tmp_path, capsys):
        mapping = base_simulate_cfg(tmp_path)
        mapping["mode.method"] = "spectral"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["simulate", cfg]) == 2
        assert "mode.method" in capsys.readouterr().err

    def test_unknown_function_spec(self, tmp_path, capsys):
        mapping = base_simulate_cfg(tmp_path)
        mapping["data.f0_p"] = "spline:0.3"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["simulate", cfg]) == 2
        assert "data.f0_p" in capsys.readouterr().err

    def test_missing_referenced_csv(self, tmp_path, capsys):
        mapping = base_simulate_cfg(tmp_path)
        mapping["data.f0_p"] = "csv:missing.csv"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["simulate", cfg]) == 2
        assert "data.f0_p" in capsys.readouterr().err

    def test_dx_must_divide_unit_interval(self, tmp_path, capsys):
        mapping = base_simulate_cfg(tmp_path)
        mapping["numerics.dx"] = "0.3"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["simulate", cfg]) == 2
        assert "numerics.dx" in capsys.readouterr().err

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"equilibrium.N_e = 1.0\nmode.out = \xff\n")
        assert run(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err

    def test_dt_must_divide_horizon(self, tmp_path, capsys):
        mapping = base_simulate_cfg(tmp_path)
        mapping["numerics.dt"] = "0.015"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["simulate", cfg]) == 2
        assert "numerics.dt" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trace.csv").exists()

    @pytest.mark.parametrize(
        "T, dt",
        [("1e300", "1e-10"), ("1.0", "1e-7"), ("0.5", "2.5e-6")],
        ids=["overflowing-steps", "steps-times-nodes", "just-above-cap"],
    )
    def test_grid_cap_names_dt(self, tmp_path, capsys, monkeypatch, T, dt):
        monkeypatch.setattr(cli, "_cauchy_data", _no_allocation)
        for sub in ("simulate", "verify", "control"):
            mapping = base_cfg(sub, tmp_path)
            mapping.update({"mode.T": T, "numerics.dt": dt})
            cfg = write_cfg(tmp_path, f"{sub}.cfg", mapping)
            assert run([sub, cfg]) == 2
            err = capsys.readouterr().err
            assert "config error: numerics.dt" in err and str(MAX_GRID_POINTS) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dx", ["1e-7", "5e-324"])
    def test_grid_cap_names_dx(self, tmp_path, capsys, monkeypatch, dx):
        monkeypatch.setattr(cli, "_cauchy_data", _no_allocation)
        mapping = base_simulate_cfg(tmp_path)
        mapping["numerics.dx"] = dx
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["simulate", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: numerics.dx" in err and str(MAX_GRID_POINTS) in err

    def test_grid_cap_boundary(self):
        # dx = 1 gives two nodes, so T/dt = MAX/2 - 1 steps fill the cap exactly
        steps = MAX_GRID_POINTS // 2 - 1
        typed = {"numerics.dt": 1.0, "numerics.dx": 1.0}
        assert cli._grids(typed, float(steps))[1:] == (steps + 1, 2)
        with pytest.raises(SchemaError, match="numerics.dt"):
            cli._grids(typed, float(steps + 1))

    @pytest.mark.parametrize("sub", ["simulate", "verify"])
    def test_upwind_march_bound_names_dx_and_T(self, tmp_path, capsys, monkeypatch, sub):
        # a 1001 x 101 output grid passes the grid cap, but the march takes
        # a CFL step of about 0.9*dx/2: some 2e7 steps on 101 nodes
        def unreachable(*args, **kwargs):
            raise AssertionError("upwind march started past its bound")

        monkeypatch.setattr(cli, "simulate_upwind", unreachable)
        if sub == "simulate":
            mapping = base_simulate_cfg(tmp_path)
            mapping["mode.method"] = "upwind"
        else:
            mapping = base_verify_cfg(tmp_path)
        mapping.update({"mode.T": "1e5", "numerics.dt": "100", "numerics.dx": "0.01"})
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run([sub, cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: numerics.dx:")
        assert "mode.T=100000" in captured.err and str(MAX_GRID_POINTS) in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_control_replay_bound_names_dx_and_T(self, tmp_path, capsys, monkeypatch):
        # the README example at dx = 1e-4: a 101 x 10001 grid passes the grid
        # cap, but the upwind replay would take about 2.3e4 CFL steps on
        # 10001 nodes
        def unreachable(*args, **kwargs):
            raise AssertionError("control went past the replay bound")

        monkeypatch.setattr(control, "synthesize", unreachable)
        monkeypatch.setattr(control, "simulate_upwind", unreachable)
        mapping = base_control_cfg(tmp_path)
        mapping["numerics.dx"] = "0.0001"
        assert run(["control", write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: numerics.dx:")
        assert "mode.T=1 " in captured.err and "10001 nodes" in captured.err
        assert str(MAX_GRID_POINTS) in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_upwind_march_within_bound_runs(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return cli_upwind(*args, **kwargs)

        cli_upwind = cli.simulate_upwind
        monkeypatch.setattr(cli, "simulate_upwind", counting)
        mapping = base_simulate_cfg(tmp_path)
        mapping["mode.method"] = "upwind"
        assert run(["simulate", write_cfg(tmp_path, "c.cfg", mapping)]) == 0
        assert calls == [0.5]

    def test_tolerance_key_is_unknown(self, tmp_path, capsys):
        # no solver reads a config tolerance, so the key is rejected
        mapping = base_verify_cfg(tmp_path)
        mapping["numerics.tol"] = "1e-300"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["verify", cfg]) == 2
        assert "numerics.tol: unknown key" in capsys.readouterr().err

    def test_eps1_fraction_key_is_unknown(self, tmp_path, capsys):
        # the semi-global solver works in a fixed eps1 ball
        mapping = base_simulate_cfg(tmp_path)
        mapping["numerics.eps1_fraction"] = "0.5"
        assert run(["simulate", write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        assert "numerics.eps1_fraction: unknown key" in capsys.readouterr().err

    def test_linear_spec_needs_two_values(self, tmp_path, capsys):
        mapping = base_simulate_cfg(tmp_path)
        mapping["data.N"] = "linear:1"
        assert run(["simulate", write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        assert "config error: data.N: linear takes two values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,spec,message",
        [
            ("data.f0_p", "constant:x", "expected a number or 'eq', got 'x'"),
            ("data.N", "linear:eq,y", "expected a number or 'eq', got 'y'"),
            ("data.f0_p", "sine-perturbation:eq", "sine-perturbation takes base,amp[,freq]"),
            ("data.F_in", "sine-perturbation:eq,0,1,2", "sine-perturbation takes base,amp[,freq]"),
            ("data.f0_p", "sine-perturbation:eq,a", "expected numeric amplitude/frequency"),
            ("data.N", "sine-perturbation:eq,0.01,b", "expected numeric amplitude/frequency"),
            ("data.f0_p", "csv:text.csv", "text.csv did not parse as a two-column CSV"),
            ("data.f0_p", "csv:one_row.csv", "one_row.csv must hold two columns and at least two"),
            ("data.N", "csv:three_columns.csv", "three_columns.csv must hold two columns"),
            ("data.f0_p", "csv:uneven.csv", "coordinates in {tmp}/uneven.csv must be uniform"),
            ("data.f0_p", "csv:half.csv", "profile coordinates must span [0, 1]"),
            ("data.F_in", "csv:unit.csv", "time coordinates must span [0, 0.5]"),
        ],
    )
    def test_malformed_spec_names_the_key(self, tmp_path, capsys, key, spec, message):
        files = {
            "text.csv": "x,fp\n0,a\n1,b\n",
            "one_row.csv": "x,fp\n0,0.3\n",
            "three_columns.csv": "t,N,F\n0,1,1\n0.5,1,1\n",
            "uneven.csv": "x,fp\n0,0.3\n0.2,0.3\n1,0.3\n",
            "half.csv": "x,fp\n0,0.3\n0.25,0.3\n0.5,0.3\n",
            "unit.csv": "t,N\n0,1\n1,1\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        mapping = base_simulate_cfg(tmp_path)
        mapping[key] = spec
        assert run(["simulate", write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1
        assert message.format(tmp=tmp_path) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "sub,changes,key",
        [
            ("control", {"numerics.dx": "1.0"}, "numerics.dx"),
            ("sweep", {"numerics.dx": "1.0"}, "numerics.dx"),
            ("sweep", {"sweep.vary.numerics.dx": "0.5,1"}, "sweep.vary.numerics.dx"),
        ],
        ids=["control", "sweep", "swept"],
    )
    def test_control_needs_three_nodes(self, tmp_path, capsys, monkeypatch, sub, changes, key):
        # the W1inf norms of the control's profiles need three samples
        def unreachable(*args, **kwargs):
            raise AssertionError("control ran on a grid of two nodes")

        monkeypatch.setattr(control, "synthesize", unreachable)
        mapping = base_control_cfg(tmp_path)
        if sub == "sweep":
            mapping.update({"sweep.run": "control", "sweep.vary.data.l0": "0.48,0.49"})
        mapping.update(changes)
        assert run([sub, write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: {key}: control needs dx <= 0.5, three nodes for its W1inf norms\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["data.f0_p", "data.f1_p"])
    def test_control_needs_three_csv_samples(self, tmp_path, capsys, monkeypatch, key):
        # a csv profile brings its own samples, whatever numerics.dx is
        def unreachable(*args, **kwargs):
            raise AssertionError("control synthesized from a profile of two samples")

        monkeypatch.setattr(control, "synthesize", unreachable)
        (tmp_path / "two.csv").write_text(f"x,fp\n0,{F_PE - 0.01!r}\n1,{F_PE - 0.01!r}\n")
        mapping = base_control_cfg(tmp_path)
        mapping[key] = "csv:two.csv"
        assert run(["control", write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        captured = capsys.readouterr()
        message = f"{key}: control needs three samples for its W1inf norms, 'csv:two.csv' gives 2"
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()
        # each case of a control sweep reads the same file and fails the same way
        mapping.update({"sweep.run": "control", "sweep.vary.data.l0": "0.48,0.49"})
        assert run(["sweep", write_cfg(tmp_path, "c.cfg", mapping)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"case_000: config error: {message}",
            f"case_001: config error: {message}",
        ]
        assert captured.out.splitlines() == ["2 cases, 2 failed"]

    @pytest.mark.parametrize(
        "key,spec",
        [
            ("data.f0_p", "constant:nan"),
            ("data.N", "linear:1,inf"),
            ("data.f0_p", "sine-perturbation:eq,nan"),
            ("data.F_in", "sine-perturbation:eq,0.01,inf"),
            ("data.f0_p", "csv:nan.csv"),
            ("data.N", "linear:-1e308,1e308"),
            ("data.f0_p", "sine-perturbation:eq,0.01,1e308"),
        ],
    )
    def test_non_finite_spec_names_the_key(self, tmp_path, capsys, key, spec):
        (tmp_path / "nan.csv").write_text("x,fp\n0,0.3\n0.5,nan\n1,0.3\n")
        mapping = base_simulate_cfg(tmp_path)
        mapping[key] = spec
        assert run(["simulate", write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "sub,key,spec",
        [
            ("simulate", "data.N", "constant:-1"),
            ("simulate", "data.F_in", "constant:-0.1"),
            ("simulate", "data.f0_p", "constant:5"),
            ("simulate", "data.f0_p", "linear:0.3,1"),
            ("verify", "data.N", "linear:1,-0.5"),
            ("verify", "data.F_in", "constant:-0.1"),
            ("verify", "data.f0_p", "sine-perturbation:eq,-0.5"),
            ("control", "data.f0_p", "constant:5"),
            ("control", "data.f1_p", "constant:-0.1"),
            ("control", "data.f1_p", "linear:0.3,1"),
        ],
    )
    def test_spec_outside_its_range_names_the_key(
        self, tmp_path, capsys, monkeypatch, sub, key, spec
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("a solver ran on inadmissible data")

        monkeypatch.setattr(wellposed, "solve_semiglobal", unreachable)
        monkeypatch.setattr(cli, "simulate_upwind", unreachable)
        monkeypatch.setattr(control, "synthesize", unreachable)
        mapping = base_cfg(sub, tmp_path)
        mapping[key] = spec
        assert run([sub, write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert repr(spec) in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "sub,changes,peak",
        [
            # N dips to 0.1, so the ratio f_pe/N passes 1 on the way
            ("simulate", {"data.N": "sine-perturbation:eq,0.9,2"}, "3.27517 at t=0.37"),
            ("simulate", {"data.N": "sine-perturbation:eq,0.9,2", "mode.method": "upwind"},
             "3.27517 at t=0.37"),
            ("verify", {"data.N": "sine-perturbation:eq,0.9,2"}, "3.27517 at t=0.37"),
            # a ratio of exactly 1 is rejected too
            ("simulate", {"data.F_in": "linear:eq,1", "data.N": "constant:1"}, "1 at t=0.5"),
            # a csv N on its own three samples: the peak is on its middle node
            ("verify", {"data.N": "csv:dip.csv"}, "1.66667 at t=0.25"),
        ],
        ids=["simulate", "upwind", "verify", "exactly-one", "csv"],
    )
    def test_inflow_ratio_at_or_above_one_names_the_inputs(
        self, tmp_path, capsys, monkeypatch, sub, changes, peak
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("a solver ran on an inflow ratio above 1")

        monkeypatch.setattr(wellposed, "solve_semiglobal", unreachable)
        monkeypatch.setattr(cli, "simulate_upwind", unreachable)
        (tmp_path / "dip.csv").write_text("t,N\n0,1\n0.25,0.2\n0.5,1\n")
        mapping = {**base_cfg(sub, tmp_path), **changes}
        assert run([sub, write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        captured = capsys.readouterr()
        message = (f"config error: data.F_in, data.N: inflow ratio F_in/(rho0*V_eff*N) "
                   f"reaches {peak}; it must stay below 1")
        assert captured.err == f"{message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()
        # each case of a sweep fails the same way
        if sub == "simulate":
            mapping.update({"sweep.run": "simulate", "sweep.vary.data.l0": "0.49,0.5"})
            assert run(["sweep", write_cfg(tmp_path, "c.cfg", mapping)]) == 3
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"case_000: {message}", f"case_001: {message}"]
            assert captured.out.splitlines() == ["2 cases, 2 failed"]

    def test_spec_on_the_edge_of_its_range_passes(self, tmp_path):
        # a profile may touch 0 and 1 before x = 1, a feed rate may touch 0
        (tmp_path / "edge.csv").write_text("x,fp\n0,0\n0.5,1\n1,0.3\n")
        typed = {
            "data.f0_p": "csv:edge.csv",
            "data.F_in": "linear:0,0.5",
            "data.N": "constant:1e-300",
        }
        for key, T, expected in (
            ("data.f0_p", None, [0.0, 1.0, 0.3]),
            ("data.F_in", 1.0, [0.0, 0.5]),
            ("data.N", 1.0, [1e-300, 1e-300]),
        ):
            samples = cli._spec_samples(typed, key, F_PE, len(expected), tmp_path, T)
            assert samples.tolist() == expected, key

    @pytest.mark.parametrize(
        "sub,key,value",
        [
            ("simulate", "data.l1", "0.9"),
            ("simulate", "mode.nu", "5"),
            ("simulate", "sweep.run", "control"),
            ("verify", "mode.method", "upwind"),
            ("verify", "mode.out", "elsewhere"),
            ("control", "data.F_in", "constant:eq"),
            ("control", "mode.method", "upwind"),
            ("equilibrium", "mode.T", "1.0"),
        ],
    )
    def test_key_the_subcommand_does_not_read(self, tmp_path, capsys, sub, key, value):
        mapping = base_cfg(sub, tmp_path)
        mapping[key] = value
        assert run([sub, write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {key}: not read by {sub!r}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sub", sorted(_READS))
    def test_key_matrix(self, tmp_path, capsys, monkeypatch, sub):
        monkeypatch.setitem(cli._DISPATCH, sub, lambda typed, base_dir: 0)
        required, optional = _READS[sub]
        base = {key: _VALID[key] for key in (*required, "equilibrium.l_e")}

        def outcome(mapping):
            code = run([sub, write_cfg(tmp_path, "c.cfg", mapping)])
            return code, capsys.readouterr().err

        for key, value in _VALID.items():
            mapping = dict(base)
            if key in _ANCHORS:
                del mapping["equilibrium.l_e"]
            mapping[key] = value
            if key in required or key in optional:
                assert outcome(mapping) == (0, ""), key
            else:
                assert outcome(mapping) == (2, f"config error: {key}: not read by {sub!r}\n")
        for i, key in enumerate(required):
            missing = f"config error: {key}: required by {sub!r} but missing\n"
            for dropped in ((key,), required[i:]):
                mapping = {k: v for k, v in base.items() if k not in dropped}
                assert outcome(mapping) == (2, missing)

    @pytest.mark.parametrize("key", ["mode.nu", "sweep.vary.mode.nu"])
    def test_sweep_key_its_subcommand_does_not_read(self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.setitem(cli._DISPATCH, "simulate", _no_allocation)
        mapping = base_simulate_cfg(tmp_path, out="sweep")
        mapping["sweep.run"] = "simulate"
        mapping[key] = "0.01"
        assert run(["sweep", write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        assert capsys.readouterr().err == f"config error: {key}: not read by 'simulate'\n"
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "sub,changes,key",
        [
            ("simulate", {"data.l0": "1.5"}, "data.l0"),
            ("verify", {"data.l0": "1.0"}, "data.l0"),
            ("control", {"data.l1": "1.0"}, "data.l1"),
            ("control", {"params.L": "0.5", "equilibrium.l_e": "0.4", "data.l0": "0.5"}, "data.l0"),
            ("simulate", {"params.L": "0.4"}, "equilibrium.l_e"),
            ("equilibrium", {"params.L": "0.4"}, "equilibrium.l_e"),
            # l_e = L - B*rho0*f_pe/(K_d*(1 - f_pe)) = 1 - 1.5 < 0
            ("simulate", {"equilibrium.l_e": None, "equilibrium.f_pe": "0.6"}, "equilibrium.f_pe"),
        ],
    )
    def test_position_outside_the_barrel_names_the_key(
        self, tmp_path, capsys, monkeypatch, sub, changes, key
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("a solver ran on a position outside the barrel")

        monkeypatch.setattr(wellposed, "solve_semiglobal", unreachable)
        monkeypatch.setattr(cli, "simulate_upwind", unreachable)
        monkeypatch.setattr(control, "synthesize", unreachable)
        mapping = base_cfg(sub, tmp_path)
        for k, v in changes.items():
            if v is None:
                del mapping[k]
            else:
                mapping[k] = v
        assert run([sub, write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {key}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sub", ["simulate", "control", "sweep"])
    @pytest.mark.parametrize("below", [False, True])
    def test_output_path_that_is_a_file(self, tmp_path, capsys, monkeypatch, sub, below):
        def unreachable(*args, **kwargs):
            raise AssertionError("a solver ran before mode.out was checked")

        monkeypatch.setattr(wellposed, "solve_semiglobal", unreachable)
        monkeypatch.setattr(cli, "simulate_upwind", unreachable)
        monkeypatch.setattr(control, "synthesize", unreachable)
        blocker = tmp_path / "out"
        blocker.write_text("a file\n")
        mapping = base_cfg("control" if sub == "control" else "simulate", tmp_path)
        if sub == "sweep":
            mapping["sweep.run"] = "simulate"
            mapping["sweep.vary.data.l0"] = "0.48,0.5"
        mapping["mode.out"] = str(blocker / "sub" if below else blocker)
        assert run([sub, write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: mode.out: {blocker} is not a directory\n"
        assert captured.out == ""
        assert blocker.read_text() == "a file\n"

    def test_output_path_that_cannot_be_made(self, tmp_path, capsys):
        # a name longer than the file system allows passes the check and
        # fails only when the directory is made
        mapping = base_simulate_cfg(tmp_path, out="x" * 300)
        assert run(["simulate", write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: mode.out: cannot make ") and err.count("\n") == 1


class TestSimulateCommand:
    def test_equilibrium_data_gives_constant_rows(self, tmp_path, capsys):
        mapping = base_simulate_cfg(tmp_path)
        mapping["data.f0_p"] = "constant:eq"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["simulate", cfg]) == 0
        rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert rows[0] == "t,l,fp_at_1,N,F_in"
        payload = {tuple(r.split(",")[1:]) for r in rows[1:]}
        assert len(payload) == 1

    def test_field_csv_header_and_provenance(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.cfg", base_simulate_cfg(tmp_path))
        assert run(["simulate", cfg]) == 0
        lines = (tmp_path / "out" / "field.csv").read_text().splitlines()
        assert lines[0] == "t,x,fp,provenance"
        tags = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert tags <= {"initial", "boundary"}
        assert "initial" in tags

    def test_upwind_method(self, tmp_path):
        mapping = base_simulate_cfg(tmp_path)
        mapping["mode.method"] = "upwind"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["simulate", cfg]) == 0
        rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert rows[0] == "t,l,fp_at_1,N,F_in"
        assert len(rows) > 2

    def test_linear_spec_reaches_trace(self, tmp_path):
        # N ramps from 1 to 1.02 over [0, T]; the trace samples it on the
        # output grid
        mapping = base_simulate_cfg(tmp_path)
        mapping["data.N"] = "linear:1.0,1.02"
        assert run(["simulate", write_cfg(tmp_path, "c.cfg", mapping)]) == 0
        rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert rows[0] == "t,l,fp_at_1,N,F_in"
        N = np.array([float(r.split(",")[3]) for r in rows[1:]])
        assert N.size == 51
        np.testing.assert_allclose(N, np.linspace(1.0, 1.02, 51), rtol=0.0, atol=1e-12)

    def test_csv_function_spec(self, tmp_path):
        x = np.linspace(0.0, 1.0, 21)
        prof = F_PE + 0.01 * np.sin(np.pi * x)
        lines = ["x,fp"] + [f"{xi},{vi}" for xi, vi in zip(x, prof)]
        (tmp_path / "prof.csv").write_text("\n".join(lines) + "\n")
        mapping = base_simulate_cfg(tmp_path)
        mapping["data.f0_p"] = "csv:prof.csv"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["simulate", cfg]) == 0

    def test_march_stops_at_the_grid_cap(self, tmp_path, capsys, monkeypatch):
        # the speed at t = 0 sizes the march at about 2,222 CFL steps on 1001
        # nodes, but the interface falls and the speed grows: uncapped, the
        # march keeps about 29,700 rows before its step collapses at t = 0.106
        assert cli.MAX_GRID_POINTS is oracle.MAX_GRID_POINTS
        monkeypatch.setattr(oracle, "MAX_GRID_POINTS", 3_000_000)
        mapping = base_simulate_cfg(tmp_path)
        mapping.update({
            "data.f0_p": "constant:0.9",
            "data.F_in": "constant:0.9",
            "numerics.dx": "0.001",
            "numerics.dt": "0.005",
            "mode.T": "0.15",
            "mode.method": "upwind",
        })
        assert run(["simulate", write_cfg(tmp_path, "c.cfg", mapping)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: upwind march stopped at t=")
        assert "2997 CFL steps on 1001 nodes pass MAX_GRID_POINTS=3000000" in err
        assert not (tmp_path / "out").exists()

    def test_incompatible_corner_is_solver_error(self, tmp_path, capsys):
        mapping = base_simulate_cfg(tmp_path)
        mapping["data.f0_p"] = "constant:0.4"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["simulate", cfg]) == 3
        assert "compatibility" in capsys.readouterr().err

    def test_lf_endings_and_digits(self, tmp_path):
        # at T = 2 the t column holds fractions at or above 1, which the block
        # formatter hands to format_value, so both of its paths write these files
        for T in ("0.5", "2.0"):
            mapping = dict(base_simulate_cfg(tmp_path, out=f"out{T}"), **{"mode.T": T})
            assert run(["simulate", write_cfg(tmp_path, f"{T}.cfg", mapping)]) == 0
            for name in ("trace.csv", "field.csv"):
                blob = (tmp_path / f"out{T}" / name).read_bytes()
                assert b"\r" not in blob
                rows = [line.split(",") for line in blob.decode("ascii").splitlines()[1:]]
                tokens = [tok for row in rows for tok in row if tok not in PROVENANCE_NAMES]
                assert [tok for tok in tokens if tok != format(float(tok), ".12g")] == []
            # the t column of the trace is the output grid, which takes the
            # fallback past t = 1: a formatter that drops the point fails here
            trace = (tmp_path / f"out{T}" / "trace.csv").read_text().splitlines()[1:]
            grid = np.linspace(0.0, float(T), len(trace))
            assert [line.partition(",")[0] for line in trace] == [format(t, ".12g") for t in grid]
        blob = (tmp_path / "out0.5" / "trace.csv").read_bytes()
        assert b"0.333333333333" in blob  # 12 significant digits


    def test_error_inside_a_segment_names_the_segment(self, tmp_path, capsys):
        # a full feed: the second probe map swings the interface out of the
        # machine, and the error names the segment, the value and its time
        mapping = dict(segment_error_cfg(), **{"mode.out": str(tmp_path / "out")})
        assert run(["simulate", write_cfg(tmp_path, "c.cfg", mapping)]) == 3
        assert capsys.readouterr().err == f"error: {SEGMENT_ERROR}\n"
        assert not (tmp_path / "out").exists()


def segment_error_cfg():
    """Inputs on which segment 0 of the characteristic solver fails."""
    return {
        "equilibrium.N_e": "1",
        "equilibrium.l_e": "0.5",
        "data.l0": "0.5",
        "data.f0_p": "constant:0.99",
        "data.F_in": "constant:0.99",
        "data.N": "constant:eq",
        "numerics.dt": "0.005",
        "numerics.dx": "0.01",
        "mode.T": "1",
    }


SEGMENT_ERROR = "segment 0: interface trace must stay inside (0, L): l=-3.44 at t=0.06"


class TestControlCommand:
    def test_writes_controls_and_certificate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.cfg", base_control_cfg(tmp_path))
        assert run(["control", cfg]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out.splitlines()[0])
        assert summary["iterations"] == 2
        assert sorted(summary) == sorted(cli._SUMMARY_FIELDS)
        controls = (tmp_path / "out" / "controls.csv").read_text().splitlines()
        assert controls[0] == "t,N,F_in"
        cert = (tmp_path / "out" / "certificate.csv").read_text().splitlines()
        assert cert[0] == (
            "char_l_error,char_fp_error,upwind_l_error,upwind_fp_error,nfn_value,nfn_ratio"
        )
        values = [float(v) for v in cert[1].split(",")]
        assert values[0] <= 1e-6  # characteristic replay interface error
        assert values[1] <= 1e-6  # characteristic replay profile error
        assert values[5] == pytest.approx(10.6316882001, rel=1e-9)

    def test_short_horizon_names_critical_time(self, tmp_path, capsys):
        mapping = base_control_cfg(tmp_path)
        mapping["mode.T"] = "0.4"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["control", cfg]) == 3
        assert "critical time 0.5" in capsys.readouterr().err

    def test_long_horizon_failure_names_its_stage(self, tmp_path, capsys):
        # over T = 1200 the integrating factor of the first candidate's
        # Newton steps overflows, the Picard image stands and its interface
        # leaves (0, L): the error names the stage, the step, the time and l;
        # T = 5 synthesizes
        mapping = base_control_cfg(tmp_path)
        mapping.update({"mode.T": "1200", "numerics.dt": "0.1", "numerics.dx": "0.05"})
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["control", cfg]) == 3
        err = capsys.readouterr().err
        assert err == (
            "error: first candidate: interface Newton step 2: l=1.00177 at t=24.0234 lies "
            "outside (0, L=1.0)\n"
        )
        mapping = dict(base_control_cfg(tmp_path), **{"mode.T": "5"})
        assert run(["control", write_cfg(tmp_path, "c5.cfg", mapping)]) == 0

    @staticmethod
    def certificate(tmp_path, capsys, **keys):
        """The certificate of the README example with keys replaced, after
        checking that it synthesizes, with warnings as errors, inside the
        certificate bounds of the benchmark's control check."""
        mapping = dict(base_control_cfg(tmp_path), **keys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["control", write_cfg(tmp_path, "c.cfg", mapping)]) == 0
        assert capsys.readouterr().err == ""
        cert = (tmp_path / "out" / "certificate.csv").read_text().splitlines()
        values = dict(zip(cert[0].split(","), map(float, cert[1].split(","))))
        assert values["char_l_error"] <= 1e-6 and values["char_fp_error"] <= 1e-6
        assert values["upwind_l_error"] <= 5e-3 and values["upwind_fp_error"] <= 5e-3
        return values

    @pytest.mark.parametrize("T, nfn_ratio", [("6", 1.36983014272), ("7", 1.40470357753),
                                              ("8", 1.42213431901), ("10", 1.4335462752)])
    def test_readme_example_control_size(self, tmp_path, capsys, T, nfn_ratio):
        # the bump construction's control size grew with T (1.27 at T = 6,
        # 2.67 at T = 10); the prescribed interface's stays near 1.4
        values = self.certificate(tmp_path, capsys, **{"mode.T": T})
        assert values["nfn_ratio"] == pytest.approx(nfn_ratio, rel=1e-9)

    @pytest.mark.parametrize("T", ["1", "2", "3", "5", "8", "10", "12"])
    def test_readme_example_synthesizes_up_to_T_12(self, tmp_path, capsys, T):
        # the README example is base_control_cfg; from T = 8 on the control
        # size stays within 1.5 nu
        values = self.certificate(tmp_path, capsys, **{"mode.T": T})
        assert float(T) < 8.0 or values["nfn_ratio"] <= 1.5

    @pytest.mark.parametrize("T", ["13", "16", "20", "30"])
    def test_readme_example_synthesizes_from_T_13(self, tmp_path, capsys, T):
        # the bump construction left the eps1 ball from T = 13 on; the
        # prescribed interface reads a flat outlet trace off a path of
        # length PATH_WINDOW, whatever the horizon
        values = self.certificate(tmp_path, capsys, **{"mode.T": T})
        assert values["nfn_ratio"] <= 1.5

    def test_falling_step_synthesizes_at_T_20(self, tmp_path, capsys):
        # the step 0.51 -> 0.49 fights the interface's drift up toward the
        # balance point, so its control is dearer than the rising step's
        values = self.certificate(tmp_path, capsys, **{"mode.T": "20", "data.l0": "0.51",
                                                        "data.l1": "0.49"})
        assert values["nfn_ratio"] == pytest.approx(3.70077421417, rel=1e-9)

    def test_stiff_die_solves_settle_at_their_rounding_floor(self, tmp_path, capsys):
        # K_d = 1e6 puts f_pe at 0.999998: g is the difference of terms near
        # zeta f_pe/(1 - f_pe) = 5e5, so the running integral rounds far above
        # 1e-13; the first candidate settles there, and the interface path
        # leaves the eps1 ball of 6.7e-7
        mapping = {**base_control_cfg(tmp_path), "params.K_d": "1e6",
                   "data.f0_p": "constant:eq", "data.f1_p": "constant:eq"}
        assert run(["control", write_cfg(tmp_path, "c.cfg", mapping)]) == 3
        assert capsys.readouterr().err == (
            "error: target out of reach: pass 1, path candidate moves the interface to "
            "[0.49, 0.512163]; it must stay within eps1=6.66665e-07 of its equilibrium "
            "value 0.5\n"
        )

    @pytest.mark.parametrize("key", ["data.f0_p", "data.f1_p"])
    def test_profile_that_reaches_1_is_a_config_error(self, tmp_path, capsys, monkeypatch, key):
        # simulate admits a profile of 1 away from x = 1; the ratios that
        # control steers between stay below 1 everywhere
        def unreachable(*args, **kwargs):
            raise AssertionError("control synthesized from a profile that reaches 1")

        monkeypatch.setattr(control, "synthesize", unreachable)
        mapping = base_control_cfg(tmp_path)
        mapping[key] = f"linear:1,{F_PE - 0.01!r}"
        assert run(["control", write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: {key}: control needs the samples of "
                                f"'linear:1,{F_PE - 0.01!r}' in [0, 1)\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestVerifyCommand:
    def test_all_invariants_pass(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.cfg", base_verify_cfg(tmp_path))
        assert run(["verify", cfg]) == 0
        out = capsys.readouterr().out
        for name in (
            "equilibrium-identity",
            "fixed-point-contraction",
            "cross-validation",
            "ratio-range",
        ):
            assert f"ok {name}" in out

    def test_error_inside_a_segment_names_the_segment(self, tmp_path, capsys):
        assert run(["verify", write_cfg(tmp_path, "c.cfg", segment_error_cfg())]) == 3
        out = capsys.readouterr().out
        assert f"FAIL fixed-point-contraction: {SEGMENT_ERROR}\n" in out

    def test_failed_check_exits_3(self, tmp_path, capsys, monkeypatch):
        # an upwind field shifted by 0.01 fails the 5e-3 cross-validation
        def shifted(data, T, cfg):
            l_trace, field = upwind(data, T, cfg)
            moved = SolutionField(field.t_grid, field.x_grid, field.values + 0.01, field.provenance)
            return l_trace, moved

        upwind = cli.simulate_upwind
        monkeypatch.setattr(cli, "simulate_upwind", shifted)
        cfg = write_cfg(tmp_path, "c.cfg", base_verify_cfg(tmp_path))
        assert run(["verify", cfg]) == 3
        out = capsys.readouterr().out
        assert "ok fixed-point-contraction" in out
        assert "FAIL cross-validation: final profile deviation 0.01" in out

    @pytest.mark.parametrize(
        "changes,code,lines",
        [
            (
                {"numerics.dt": "0.1"},
                3,
                ["FAIL fixed-point-contraction: segment 0: contraction interval 0.06 fell below "
                 "the grid step 0.1"],
            ),
            (
                {"data.l0": "0.62"},
                3,
                ["FAIL fixed-point-contraction: segment 0 on [0, 0.06]: iterate 1 left the "
                 "eps1=0.111 ball"],
            ),
            (
                {"data.N": "sine-perturbation:eq,0.5,3"},
                3,
                [
                    "ok fixed-point-contraction (9 segments, worst factor 0.0372)",
                    "FAIL cross-validation: final profile deviation 0.0503",
                    "ok ratio-range",
                ],
            ),
            (
                {"data.F_in": "sine-perturbation:eq,0.3,3", "numerics.dx": "0.5"},
                3,
                [
                    "ok fixed-point-contraction (9 segments, worst factor 0.0289)",
                    "FAIL cross-validation: interface deviation 0.0106",
                    "ok ratio-range",
                ],
            ),
            (
                # N dips to 0.1, so the inflow ratio passes 1: a config error
                # before any check
                {"data.N": "sine-perturbation:eq,0.9,2"},
                2,
                [],
            ),
        ],
        ids=["coarse-dt", "eps1-ball", "profile-deviation", "interface-deviation", "junction"],
    )
    def test_failed_check_lines(self, tmp_path, capsys, changes, code, lines):
        # a solver that raises ends the checks; a deviation does not
        mapping = {**base_verify_cfg(tmp_path), **changes}
        assert run(["verify", write_cfg(tmp_path, "c.cfg", mapping)]) == code
        out = capsys.readouterr().out.splitlines()
        if code == 2:
            assert out == lines
        else:
            assert out[0].startswith("ok equilibrium-identity (residual ")
            assert out[1:] == lines

    def test_equilibrium_inside_the_scaled_bound_passes(self, tmp_path, capsys):
        # at zeta = 1e5 the two terms of g are of size 5e4 and |g| rounds to
        # 1.46e-11; verify holds it to the bound `equilibrium` accepts it by
        changes = {"params.zeta": "100000", "numerics.dt": "1e-7", "numerics.dx": "0.1",
                   "mode.T": "1e-5"}
        mapping = {**base_verify_cfg(tmp_path), **changes}
        assert run(["verify", write_cfg(tmp_path, "c.cfg", mapping)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ok equilibrium-identity (residual 1.46e-11)"
        assert [line.split()[0] for line in out] == ["ok"] * 4

    def test_march_cap_fails_cross_validation(self, tmp_path, capsys, monkeypatch):
        # the march of the base config keeps about 57 rows of 51 nodes
        monkeypatch.setattr(oracle, "MAX_GRID_POINTS", 2000)
        assert run(["verify", write_cfg(tmp_path, "c.cfg", base_verify_cfg(tmp_path))]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out[1].startswith("ok fixed-point-contraction")
        assert out[2].startswith("FAIL cross-validation: upwind march stopped at t=")
        assert out[2].endswith("39 CFL steps on 51 nodes pass MAX_GRID_POINTS=2000")
        assert len(out) == 3


class TestSweepCommand:
    def test_grid_of_cases(self, tmp_path, capsys):
        mapping = base_simulate_cfg(tmp_path, out="sweep")
        mapping["sweep.run"] = "simulate"
        mapping["sweep.vary.data.l0"] = "0.48,0.5"
        mapping["sweep.vary.equilibrium.N_e"] = "1.0,1.2"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["sweep", cfg]) == 0
        root = tmp_path / "sweep"
        dirs = sorted(p.name for p in root.iterdir())
        assert dirs == ["case_000", "case_001", "case_002", "case_003"]
        for d in dirs:
            assert (root / d / "trace.csv").exists()
            assert (root / d / "config.txt").exists()
        # first declared axis varies slowest
        cfg0 = (root / "case_000" / "config.txt").read_text()
        cfg3 = (root / "case_003" / "config.txt").read_text()
        assert "data.l0=0.48" in cfg0 and "equilibrium.N_e=1\n" in cfg0
        assert "data.l0=0.5" in cfg3 and "equilibrium.N_e=1.2" in cfg3

    def test_swept_values_are_not_rounded(self, tmp_path, monkeypatch):
        # 12 significant digits would write both as data.l0=0.5
        values = [0.4999999999999999, 0.49999999999999, 0.5, 1e-5 / 3.0]
        monkeypatch.setitem(cli._DISPATCH, "simulate", lambda typed, base_dir: 0)
        mapping = base_simulate_cfg(tmp_path, out="sweep")
        mapping["sweep.run"] = "simulate"
        mapping["sweep.vary.data.l0"] = ",".join(repr(v) for v in values)
        assert run(["sweep", write_cfg(tmp_path, "c.cfg", mapping)]) == 0
        texts = []
        for index, value in enumerate(values):
            lines = (tmp_path / "sweep" / f"case_{index:03d}" / "config.txt").read_text()
            text = next(line for line in lines.splitlines() if line.startswith("data.l0="))
            texts.append(text)
            assert float(text.partition("=")[2]) == value
        assert len(set(texts)) == len(values)

    def _axes_cfg(self, tmp_path, *lengths):
        mapping = base_simulate_cfg(tmp_path, out="sweep")
        mapping["sweep.run"] = "simulate"
        bases = (("data.l0", 0.45), ("equilibrium.N_e", 1.0), ("mode.T", 0.5))
        for (key, base), n in zip(bases, lengths):
            mapping[f"sweep.vary.{key}"] = ",".join(repr(base + 0.001 * i) for i in range(n))
        return write_cfg(tmp_path, "c.cfg", mapping)

    def test_case_cap_passes_exactly(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_CASES", 4)
        monkeypatch.setitem(cli._DISPATCH, "simulate", lambda typed, base_dir: 0)
        assert run(["sweep", self._axes_cfg(tmp_path, 2, 2)]) == 0
        assert len(list((tmp_path / "sweep").iterdir())) == 4

    def test_case_cap_one_more_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_CASES", 4)
        monkeypatch.setitem(cli._DISPATCH, "simulate", _no_allocation)
        assert run(["sweep", self._axes_cfg(tmp_path, 1, 5)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep.vary.equilibrium.N_e:")
        assert "5 cases" in err and "MAX_SWEEP_CASES=4" in err
        assert not (tmp_path / "sweep").exists()

    def test_case_cap_names_longest_axis(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._DISPATCH, "simulate", _no_allocation)
        # 7 * 13 * 11 = 1001 cases, one above the cap
        assert run(["sweep", self._axes_cfg(tmp_path, 7, 13, 11)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep.vary.equilibrium.N_e:")
        assert f"1001 cases, more than MAX_SWEEP_CASES={cli.MAX_SWEEP_CASES}" in err
        assert cli.MAX_SWEEP_CASES == 1000
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "dropped,message",
        [
            ("mode.T", "mode.T: required by 'simulate' but missing"),
            (
                "equilibrium.l_e",
                "equilibrium.l_e: exactly one of equilibrium.l_e/equilibrium.f_pe is required",
            ),
        ],
        ids=["no-horizon", "no-anchor"],
    )
    def test_missing_key_fails_before_any_case(
        self, tmp_path, capsys, monkeypatch, dropped, message
    ):
        monkeypatch.setitem(cli._DISPATCH, "simulate", _no_allocation)
        mapping = base_simulate_cfg(tmp_path, out="sweep")
        mapping["sweep.run"] = "simulate"
        mapping["sweep.vary.data.l0"] = "0.48,0.5"
        del mapping[dropped]
        assert run(["sweep", write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "key,plain", [("mode.T", None), ("equilibrium.l_e", "0.5")], ids=["swept-only", "both"]
    )
    def test_swept_key_counts_once(self, tmp_path, capsys, monkeypatch, key, plain):
        seen = []
        monkeypatch.setitem(
            cli._DISPATCH, "simulate", lambda typed, base_dir: seen.append(typed[key]) or 0
        )
        mapping = base_simulate_cfg(tmp_path, out="sweep")
        mapping.pop(key)
        if plain is not None:
            mapping[key] = plain
        mapping["sweep.run"] = "simulate"
        mapping[f"sweep.vary.{key}"] = "0.4,0.6"
        assert run(["sweep", write_cfg(tmp_path, "c.cfg", mapping)]) == 0
        assert seen == [0.4, 0.6]
        assert capsys.readouterr().out.endswith("2 cases, 0 failed\n")

    def test_failed_cases_are_counted(self, tmp_path, capsys):
        # l0 = 0.62 leaves the solver's eps1 ball; l0 = 1.5 lies outside the barrel
        mapping = base_simulate_cfg(tmp_path, out="sweep")
        mapping["sweep.run"] = "simulate"
        mapping["sweep.vary.data.l0"] = "0.5,0.62,1.5"
        assert run(["sweep", write_cfg(tmp_path, "c.cfg", mapping)]) == 3
        captured = capsys.readouterr()
        out = [line for line in captured.out.splitlines() if not line.startswith("wrote ")]
        assert out == ["case_000: done", "3 cases, 2 failed"]
        err = captured.err.splitlines()
        assert err[0].startswith("case_001: error: segment 0 on [0, 0.06]: iterate 1 left")
        assert err[1] == "case_002: config error: data.l0: must lie in (0, params.L=1)"
        assert len(err) == 2
        assert (tmp_path / "sweep" / "case_000" / "trace.csv").exists()
        assert not (tmp_path / "sweep" / "case_001" / "trace.csv").exists()

    @pytest.mark.parametrize("blocked", [0, 2])
    def test_case_path_held_by_a_file(self, tmp_path, capsys, monkeypatch, blocked):
        # a file where a case directory goes is a config error naming it,
        # found before any case directory is made or any case runs
        monkeypatch.setitem(cli._DISPATCH, "simulate", _no_allocation)
        mapping = base_simulate_cfg(tmp_path, out="sweep")
        mapping["sweep.run"] = "simulate"
        mapping["sweep.vary.data.l0"] = "0.48,0.49,0.5"
        root = tmp_path / "sweep"
        root.mkdir()
        blocker = root / f"case_{blocked:03d}"
        blocker.write_text("a file\n")
        assert run(["sweep", write_cfg(tmp_path, "c.cfg", mapping)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: mode.out: {blocker} is not a directory\n"
        assert captured.out == ""
        assert [p.name for p in root.iterdir()] == [blocker.name]
        assert blocker.read_text() == "a file\n"

    def test_sweeping_function_spec_rejected(self, tmp_path, capsys):
        mapping = base_simulate_cfg(tmp_path)
        mapping["sweep.run"] = "simulate"
        mapping["sweep.vary.data.f0_p"] = "a,b"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["sweep", cfg]) == 2
        assert "sweep.vary.data.f0_p" in capsys.readouterr().err


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path):
        cfg1 = write_cfg(tmp_path, "a.cfg", base_simulate_cfg(tmp_path, out="a"))
        cfg2 = write_cfg(tmp_path, "b.cfg", base_simulate_cfg(tmp_path, out="b"))
        assert run(["simulate", cfg1]) == 0
        assert run(["simulate", cfg2]) == 0
        for name in ("trace.csv", "field.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_control_byte_identical(self, tmp_path):
        cfg1 = write_cfg(tmp_path, "a.cfg", base_control_cfg(tmp_path, out="a"))
        cfg2 = write_cfg(tmp_path, "b.cfg", base_control_cfg(tmp_path, out="b"))
        assert run(["control", cfg1]) == 0
        assert run(["control", cfg2]) == 0
        for name in ("controls.csv", "certificate.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestHelpText:
    def test_help_names_exactly_the_accepted_keys(self, capsys):
        assert run(["--help"]) == 0
        key_pattern = r"\b(?:params|equilibrium|data|numerics|mode|sweep)\.[\w<>.]*\w>?"
        named = set(re.findall(key_pattern, capsys.readouterr().out))
        assert named - {"sweep.vary.<key>"} == set(cli._KEYS)
        assert "sweep.vary.<key>" in named
        for key in sorted(named - {"sweep.vary.<key>"}):
            try:
                cli._parse_value(key, "x")
            except SchemaError as exc:
                assert "unknown key" not in str(exc)


# mutations of the simulate and control configs on coarse grids: each key
# may be dropped or take a value from a mix of valid and invalid strings
_MUTATIONS = {
    "params.K_d": ["1.0", "2.0", "-1", "abc"],
    "equilibrium.N_e": ["1.0", "0.5", "2.0", "0", "inf"],
    "equilibrium.l_e": ["0.5", "0.3", "0.7", "1.5"],
    "data.l0": ["0.5", "0.45", "0.49", "0.99", "1.5"],
    "data.l1": ["0.51", "0.5", "0.6", "-1"],
    "data.f0_p": [
        "constant:eq", "sine-perturbation:eq,0.01", "sine-perturbation:eq,0.3,2",
        "linear:0.3,0.35", "linear:1", "constant:0.99", "constant:1.5", "csv:missing.csv",
        "spline:1",
    ],
    "data.f1_p": ["constant:eq", "sine-perturbation:eq,0.01", "linear:0.3,0.35", "constant:1.5"],
    "data.F_in": [
        "constant:eq", "sine-perturbation:eq,0.004,2", "linear:0.3,0.4", "constant:-1",
        "constant:10",
    ],
    "data.N": ["constant:eq", "linear:1.0,1.02", "constant:0.01", "constant:-1"],
    "numerics.dt": ["0.05", "0.1", "0.25", "0.3"],
    "numerics.dx": ["0.05", "0.1", "0.25", "0.5", "1.0", "0.3"],
    "mode.T": ["0.5", "1.0", "2.0", "-1", "0", "nan", "1e300"],
    "mode.nu": ["0.01", "0.05", "1e-6", "-1"],
    "mode.method": ["characteristics", "upwind", "spectral"],
    "bogus.key": ["1"],
}


@st.composite
def mutated_configs(draw):
    sub = draw(st.sampled_from(["simulate", "control", "verify"]))
    mapping = base_cfg(sub, Path("."))
    mapping.update({"numerics.dt": "0.05", "numerics.dx": "0.1"})
    for key in draw(st.lists(st.sampled_from(sorted(_MUTATIONS)), max_size=4, unique=True)):
        choice = draw(st.sampled_from([None, *_MUTATIONS[key]]))
        if choice is None:
            mapping.pop(key, None)
        else:
            mapping[key] = choice
    return sub, mapping


# extreme but legal values: tiny and huge constants, the screw speed, l0
# near 0 and near L, and sine inputs of very high frequency
_EXTREMES = {
    **{key: ["5e-324", "1e-300", "1e-150", "1e150", "1e300", "1.7e308"]
       for key in (*_PARAMS, "equilibrium.N_e")},
    "data.l0": ["5e-324", "1e-300", "1e-12", "0.999999999999"],
    "data.f0_p": ["sine-perturbation:eq,0.01,1e6", "sine-perturbation:eq,0.01,1e300"],
    "data.F_in": ["sine-perturbation:eq,0.004,1e6", "sine-perturbation:eq,0.004,1e300"],
    "data.N": ["sine-perturbation:eq,0.01,1e300", "linear:1e-300,1"],
}


@st.composite
def extreme_configs(draw):
    """A coarse base config of simulate, control or verify with one or two
    of the keys it reads set to an extreme value."""
    sub = draw(st.sampled_from(["simulate", "control", "verify"]))
    mapping = base_cfg(sub, Path("."))
    mapping.update({"numerics.dt": "0.05", "numerics.dx": "0.1"})
    keys = sorted(set(_EXTREMES) & set(chain(*_READS[sub])))
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True)):
        mapping[key] = draw(st.sampled_from(_EXTREMES[key]))
    return sub, mapping


def run_quietly(sub, mapping):
    """Exit code and output of sub on mapping, in a temporary directory
    whose path is dropped from the output."""
    with tempfile.TemporaryDirectory() as tmp:
        if "mode.out" in mapping:
            mapping["mode.out"] = str(Path(tmp) / "out")
        cfg = write_cfg(Path(tmp), "c.cfg", mapping)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = run([sub, cfg])
    return code, sink.getvalue().replace(tmp, "<work>")


class TestContract:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(mutated_configs())
    def test_mutated_configs_exit_0_2_or_3(self, case):
        sub, mapping = case
        code, _ = run_quietly(sub, mapping)
        assert code in (0, 2, 3)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(extreme_configs())
    def test_extreme_configs_exit_0_2_or_3_without_warnings(self, case):
        # a numpy warning is raised as an error in this suite, and no
        # message may carry a NaN
        sub, mapping = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_quietly(sub, mapping)
        assert code in (0, 2, 3)
        assert not re.search(r"\bnan\b", out, re.IGNORECASE), out

    @pytest.mark.parametrize("sub, keys, code, last", [
        # K_d*B*rho0 and D*D pass the float range in the die kernel's l-slope,
        # which then comes from the shares K_d/D and B*rho0/D
        ("simulate", {"params.K_d": "1e300", "params.B": "1e300"}, 0,
         "wrote <work>/out/field.csv (2601 rows)"),
        ("verify", {"params.K_d": "1e-300", "params.B": "1e-300"}, 0, "ok ratio-range"),
        # F on the eps1 box passes the float range
        ("simulate", {"params.zeta": "1e300", "equilibrium.N_e": "1e150"}, 3,
         "error: the W1inf size of F on the eps1 box (eps1=0.111111) passes the float range"),
        # the transport speed at t = 0 passes the float range
        ("verify", {"params.zeta": "1e300", "equilibrium.N_e": "1e150"}, 2,
         "config error: numerics.dx: the upwind march to mode.T=0.5 takes about inf CFL "
         "steps on 51 nodes, more than MAX_GRID_POINTS=10000000; coarsen numerics.dx or "
         "shorten mode.T"),
        # Q's increments underflow to 0
        ("simulate", {"equilibrium.N_e": "5e-324", "params.B": "1e300"}, 3,
         "error: segment 0: Q is not monotone on the cell at t=0: its increment is 0"),
        ("equilibrium", {"params.K_d": "1e300", "params.L": "1e300"}, 2,
         "config error: equilibrium.l_e: no admissible equilibrium: B*rho0 + K_d*(L - l_e) = "
         "inf leaves the float range"),
        ("control", {"params.zeta": "5e-324", "equilibrium.N_e": "5e-324"}, 2,
         "config error: equilibrium.N_e, params.zeta: zeta*N_e, the scale of the transport "
         "speed, underflows to 0 (zeta=5e-324, N_e=5e-324)"),
    ])
    def test_extreme_values_are_named_without_warnings(self, sub, keys, code, last):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out = run_quietly(sub, dict(base_cfg(sub, Path(".")), **keys))
        assert (got, out.splitlines()[-1]) == (code, last)

    @staticmethod
    def fresh_simulate(tmp_path, sub="simulate", **keys):
        """sub (simulate by default) on its base config with keys replaced,
        in a fresh interpreter, whose stderr shows warnings."""
        mapping = dict(base_cfg(sub, tmp_path), **keys)
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "extrusim.cli", sub, cfg], env=env,
                              capture_output=True, text=True)
        assert "Warning" not in proc.stderr and "nan" not in proc.stderr
        return proc

    def test_huge_die_resistance_is_out_of_reach_without_warnings(self, tmp_path):
        # B*rho0 = 1e300 squares past the float range in the die kernel's
        # l-slope, which underflows toward 0; eps1 is of order 1e-301, so the
        # outlet ratio of the first pass's path is out of reach
        proc = self.fresh_simulate(tmp_path, "control", **{
            "params.B": "1e300", "data.f0_p": "constant:0", "data.f1_p": "constant:0",
        })
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: target out of reach: pass 1, path candidate moves the outlet ratio to "
            "[-0.0889713, 8.28905e-317]; it must stay within eps1=1.66667e-301 of its "
            "equilibrium value 5e-301\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("l0", ["1e-6", "1e-12", "1e-308"])
    def test_tiny_interface_is_a_range_error(self, tmp_path, l0):
        # F/l is of order 1/l0, so P, its integral, passes the float range in
        # segment 0; at 1e-308 F/l stays finite and its integral overflows
        proc = self.fresh_simulate(tmp_path, **{"data.l0": l0})
        assert proc.returncode == 3
        assert re.fullmatch(r"error: segment 0: P, the integral of F/l, must stay inside "
                            r"\[-354, 354\]: P=\S+ at t=\S+\n", proc.stderr)

    def test_subnormal_interface_is_a_range_error_on_F_over_l(self, tmp_path):
        # F/l overflows at t = 0, before P is integrated
        proc = self.fresh_simulate(tmp_path, **{"data.l0": "5e-324"})
        assert proc.returncode == 3
        assert proc.stderr == ("error: segment 0: F/l, the rate of P, must stay finite: "
                               "F/l=inf at t=0\n")

    def test_subnormal_interface_on_a_balanced_die_is_a_range_error_on_q(self, tmp_path):
        # f_p(1) = 1/2 balances the die, so F/l and P stay finite, and zeta*N/l
        # overflows at t = 0
        proc = self.fresh_simulate(tmp_path, **{
            "data.l0": "1e-306", "data.f0_p": "constant:0.5", "data.F_in": "constant:350",
            "data.N": "constant:700", "mode.T": "1", "numerics.dx": "0.1",
        })
        assert proc.returncode == 3
        assert proc.stderr == ("error: segment 0: q, the slope of Q, must stay finite: "
                               "q=inf at t=0\n")

    def test_inflow_ratio_past_the_float_range_is_a_config_error(self, tmp_path):
        # F_in/(rho0*V_eff*N) overflows from t = 0.01 on
        proc = self.fresh_simulate(tmp_path, **{"params.V_eff": "1e-300",
                                                "data.F_in": "linear:0,1e300"})
        assert proc.returncode == 2
        assert proc.stderr == ("config error: data.F_in, data.N: inflow ratio "
                               "F_in/(rho0*V_eff*N) reaches inf at t=0.01; it must stay below 1\n")
