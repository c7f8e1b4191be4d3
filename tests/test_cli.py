import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extrusim import cli, control
from extrusim.cli import MAX_GRID_POINTS, run
from extrusim.errors import SchemaError
from extrusim.fields import SolutionField

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


def _no_allocation(*args, **kwargs):
    raise AssertionError("grid arrays allocated before the grid cap was checked")


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
        for sub, base in (("simulate", base_simulate_cfg), ("verify", base_simulate_cfg),
                          ("control", base_control_cfg)):
            mapping = base(tmp_path)
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
        assert cli._grids(typed, float(steps))[2:] == (steps + 1, 2)
        with pytest.raises(SchemaError, match="numerics.dt"):
            cli._grids(typed, float(steps + 1))

    @pytest.mark.parametrize("sub", ["simulate", "verify"])
    def test_upwind_march_bound_names_dx_and_T(self, tmp_path, capsys, monkeypatch, sub):
        # a 1001 x 101 output grid passes the grid cap, but the march takes
        # a CFL step of about 0.9*dx/2: some 2e7 steps on 101 nodes
        def unreachable(*args, **kwargs):
            raise AssertionError("upwind march started past its bound")

        monkeypatch.setattr(cli, "simulate_upwind", unreachable)
        mapping = base_simulate_cfg(tmp_path)
        mapping.update({"mode.T": "1e5", "numerics.dt": "100", "numerics.dx": "0.01"})
        mapping["mode.method"] = "upwind"
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

        monkeypatch.setattr(cli, "synthesize", unreachable)
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
        mapping = base_simulate_cfg(tmp_path)
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

    def test_incompatible_corner_is_solver_error(self, tmp_path, capsys):
        mapping = base_simulate_cfg(tmp_path)
        mapping["data.f0_p"] = "constant:0.4"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["simulate", cfg]) == 3
        assert "compatibility" in capsys.readouterr().err

    def test_lf_endings_and_digits(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.cfg", base_simulate_cfg(tmp_path))
        assert run(["simulate", cfg]) == 0
        blob = (tmp_path / "out" / "trace.csv").read_bytes()
        assert b"\r" not in blob
        assert b"0.333333333333" in blob  # 12 significant digits


class TestControlCommand:
    def test_writes_controls_and_certificate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.cfg", base_control_cfg(tmp_path))
        assert run(["control", cfg]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out.splitlines()[0])
        assert summary["iterations"] == 2
        assert summary["amplitude"] == pytest.approx(-0.0161414160118, rel=1e-9)
        controls = (tmp_path / "out" / "controls.csv").read_text().splitlines()
        assert controls[0] == "t,N,F_in"
        cert = (tmp_path / "out" / "certificate.csv").read_text().splitlines()
        assert cert[0] == (
            "char_l_error,char_fp_error,upwind_l_error,upwind_fp_error,nfn_value,nfn_ratio"
        )
        values = [float(v) for v in cert[1].split(",")]
        assert values[0] <= 1e-6  # characteristic replay interface error
        assert values[1] <= 1e-6  # characteristic replay profile error
        assert values[5] == pytest.approx(11.5440947768, rel=1e-9)

    def test_short_horizon_names_critical_time(self, tmp_path, capsys):
        mapping = base_control_cfg(tmp_path)
        mapping["mode.T"] = "0.4"
        cfg = write_cfg(tmp_path, "c.cfg", mapping)
        assert run(["control", cfg]) == 3
        assert "critical time 0.5" in capsys.readouterr().err


class TestVerifyCommand:
    def test_all_invariants_pass(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.cfg", base_simulate_cfg(tmp_path))
        assert run(["verify", cfg]) == 0
        out = capsys.readouterr().out
        for name in (
            "equilibrium-identity",
            "fixed-point-contraction",
            "cross-validation",
            "ratio-range",
        ):
            assert f"ok {name}" in out

    def test_failed_check_exits_3(self, tmp_path, capsys, monkeypatch):
        # an upwind field shifted by 0.01 fails the 5e-3 cross-validation
        def shifted(data, T, cfg):
            l_trace, field = upwind(data, T, cfg)
            moved = SolutionField(field.t_grid, field.x_grid, field.values + 0.01, field.provenance)
            return l_trace, moved

        upwind = cli.simulate_upwind
        monkeypatch.setattr(cli, "simulate_upwind", shifted)
        cfg = write_cfg(tmp_path, "c.cfg", base_simulate_cfg(tmp_path))
        assert run(["verify", cfg]) == 3
        out = capsys.readouterr().out
        assert "ok fixed-point-contraction" in out
        assert "FAIL cross-validation: final profile deviation 0.01" in out


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
        accepted = (
            set(cli._FLOAT_KEYS) | set(cli._SPEC_KEYS) | set(cli._ENUM_KEYS) | set(cli._STR_KEYS)
        )
        assert named - {"sweep.vary.<key>"} == accepted
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
    mapping = (base_control_cfg if sub == "control" else base_simulate_cfg)(Path("."))
    mapping.update({"numerics.dt": "0.05", "numerics.dx": "0.1"})
    for key in draw(st.lists(st.sampled_from(sorted(_MUTATIONS)), max_size=4, unique=True)):
        choice = draw(st.sampled_from([None, *_MUTATIONS[key]]))
        if choice is None:
            mapping.pop(key, None)
        else:
            mapping[key] = choice
    return sub, mapping


class TestContract:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(mutated_configs())
    def test_mutated_configs_exit_0_2_or_3(self, case):
        sub, mapping = case
        with tempfile.TemporaryDirectory() as tmp:
            mapping["mode.out"] = str(Path(tmp) / "out")
            cfg = write_cfg(Path(tmp), "c.cfg", mapping)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = run([sub, cfg])
        assert code in (0, 2, 3)
