"""Acceptance suite: one test per shipped guarantee, one line of output each.

Each test prints `criterion NN <slug>: PASS/FAIL (<numbers>)` before its
assertions, so a red run still reports the measured values.  Budgeted
runtimes are wall-clock on the executing machine.
"""

import time

import numpy as np
import pytest

from extrusim.characteristics import (
    TraceContext,
    backtrace,
    dbeta_dx,
    dtau_dx,
    xi,
    xi_rk4,
)
from extrusim.cli import run as cli_run
from extrusim.control import ControlTarget, feasibility_check, synthesize, verify_control
from extrusim.errors import DomainError
from extrusim.fields import SampledFunction, SpaceProfile, field_norm
from extrusim.lintransport import (
    LinearTransportProblem,
    check_compatibility,
    derivative_fields,
    solve_linear_transport,
    weak_form_residual,
)
from extrusim.model import PhysicalParams, eval_g, solve_equilibrium
from extrusim.oracle import UpwindConfig, convergence_study, simulate_upwind
from extrusim.wellposed import (
    CauchyData,
    check_estimates,
    local_fixed_point,
    solve_semiglobal,
)

UNIT = PhysicalParams()
EQ = solve_equilibrium(UNIT, N_e=1.0, l_e=0.5)


def emit(num, slug, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} {slug}: {status} ({detail})")


def sine_data(amp, T_inputs=2.0):
    f0 = SpaceProfile.from_callable(lambda x: EQ.f_pe + amp * np.sin(np.pi * x), 201)
    F_in = SampledFunction.constant(EQ.f_pe * UNIT.rho0 * UNIT.V_eff * EQ.N_e, 0.0, T_inputs, 401)
    N = SampledFunction.constant(EQ.N_e, 0.0, T_inputs, 401)
    return CauchyData(float(EQ.l_e), f0, F_in, N, UNIT, EQ)


def wavy_ctx(n=1001):
    tg = np.linspace(0.0, 1.0, n)
    l = 0.5 + 0.05 * np.sin(1.7 * np.pi * tg + 0.3)
    N = 1.0 + 0.3 * np.sin(2.0 * np.pi * tg)
    b = EQ.f_pe + 0.05 * np.cos(2.3 * tg)
    return TraceContext(0.0, 1.0, np.stack((l, b)), N, UNIT)


def bump_data(amp, support, n):
    lo, hi = support

    def fn(x):
        z = np.asarray(x, float)
        s = np.clip((z - lo) / (hi - lo), 0.0, 1.0)
        return EQ.f_pe + np.where((z >= lo) & (z < hi), amp * np.sin(np.pi * s) ** 2, 0.0)

    f0 = SpaceProfile.from_callable(fn, n)
    N = SampledFunction.constant(EQ.N_e, 0.0, 0.6, 121)
    F_in = SampledFunction.constant(EQ.f_pe * UNIT.rho0 * UNIT.V_eff * EQ.N_e, 0.0, 0.6, 121)
    return CauchyData(EQ.l_e, f0, F_in, N, UNIT, EQ)


def test_criterion_01_equilibrium_identity():
    rng = np.random.default_rng(20260822)
    started = time.perf_counter()
    worst = 0.0
    for i in range(100):
        params = PhysicalParams(*np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=6)))
        N_e = rng.uniform(0.5, 4.0)
        if i % 2 == 0:
            eq = solve_equilibrium(params, N_e=N_e, l_e=rng.uniform(0.1, 0.9) * params.L)
        else:
            cap = params.K_d * params.L / (params.B * params.rho0 + params.K_d * params.L)
            eq = solve_equilibrium(params, N_e=N_e, f_pe=rng.uniform(0.05, 0.95) * cap)
        worst = max(worst, abs(eval_g(eq.l_e, eq.f_pe, params)))
    elapsed = time.perf_counter() - started
    emit(1, "equilibrium-identity", worst <= 1e-12 and elapsed < 1.0,
         f"max residual {worst:.3g} over 100 draws, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_characteristic_cross_validation():
    ctx = wavy_ctx(n=1001)  # grid step 1e-3
    rng = np.random.default_rng(7)
    worst_xi = 0.0
    accepted = 0
    while accepted < 1000:
        t = rng.uniform(0.05, 1.0)
        s = rng.uniform(0.0, t)
        x = rng.uniform(0.05, 0.999)
        try:
            closed = xi(s, t, x, ctx)
            stepped = xi_rk4(s, t, x, ctx)
        except DomainError:
            continue
        worst_xi = max(worst_xi, abs(closed - stepped))
        accepted += 1

    # wide enough that the origin solver's own tolerance stays invisible
    h = 1e-5

    def relative_errors(count, t_range, x_range, want_boundary):
        errors = []
        while len(errors) < count:
            t = rng.uniform(*t_range)
            x = rng.uniform(*x_range)
            origins = [backtrace(t, xx, ctx) for xx in (x - h, x, x + h)]
            if any(o.is_initial == want_boundary for o in origins):
                continue
            if want_boundary:
                fd = (origins[2].tau - origins[0].tau) / (2.0 * h)
                an = dtau_dx(t, x, ctx)
            else:
                fd = (origins[2].beta - origins[0].beta) / (2.0 * h)
                an = dbeta_dx(t, x, ctx)
            errors.append(abs(an - fd) / abs(fd))
        return max(errors)

    worst_tau = relative_errors(50, (0.55, 1.0), (0.3, 0.95), want_boundary=True)
    worst_beta = relative_errors(50, (0.05, 0.45), (0.55, 0.95), want_boundary=False)
    ok = worst_xi <= 1e-6 and worst_tau <= 1e-6 and worst_beta <= 1e-6
    emit(2, "characteristic-cross-validation", ok,
         f"xi dev {worst_xi:.3g} over 1000 points, dtau rel {worst_tau:.3g}, dbeta rel {worst_beta:.3g}")
    assert worst_xi <= 1e-6
    assert worst_tau <= 1e-6
    assert worst_beta <= 1e-6


def test_criterion_03_fixed_point_wellposedness():
    started = time.perf_counter()
    data = sine_data(0.01)
    report = local_fixed_point(data, 0.06)
    factors_ok = all(f <= 0.5 for f in report.contraction_factors[1:])
    sol = solve_semiglobal(data, 1.0)
    l_up, field_up = simulate_upwind(data, 1.0, UpwindConfig(dx=1e-3))
    dev_l = float(np.max(np.abs(sol.l.values - l_up(sol.l.grid))))
    final_up = np.interp(sol.field.x_grid, field_up.x_grid, field_up.values[-1])
    dev_fp = float(np.max(np.abs(sol.field.values[-1] - final_up)))
    elapsed = time.perf_counter() - started
    ok = (factors_ok and report.residual <= 1e-10
          and dev_l <= 5e-3 and dev_fp <= 5e-3 and elapsed < 30.0)
    emit(3, "fixed-point-wellposedness", ok,
         f"residual {report.residual:.3g}, worst factor "
         f"{max(report.contraction_factors[1:]):.3g}, upwind dev l {dev_l:.3g} "
         f"fp {dev_fp:.3g}, {elapsed:.1f}s")
    assert factors_ok
    assert report.residual <= 1e-10
    assert dev_l <= 5e-3
    assert dev_fp <= 5e-3
    assert elapsed < 30.0


def test_criterion_04_apriori_estimate_scaling():
    audits = []
    for eps in (1e-3, 5e-4):
        data = sine_data(eps)
        sol = solve_semiglobal(data, 1.0)
        audits.append(check_estimates(sol, data, EQ, eps))
    a, b = audits
    drift_l = abs(b.ratio_l - a.ratio_l) / max(a.ratio_l, 1e-12)
    drift_fp = abs(b.ratio_fp - a.ratio_fp) / a.ratio_fp
    ok = drift_l <= 0.1 and drift_fp <= 0.1
    emit(4, "apriori-estimate-scaling", ok,
         f"ratio_l {a.ratio_l:.4g}->{b.ratio_l:.4g} ({drift_l:.1%}), "
         f"ratio_fp {a.ratio_fp:.4g}->{b.ratio_fp:.4g} ({drift_fp:.1%})")
    assert drift_l <= 0.1
    assert drift_fp <= 0.1


def test_criterion_05_regularity_fields():
    data = bump_data(0.02, (0.3, 0.9), n=1001)
    sol = solve_semiglobal(data, 0.12, n_t=49, n_x=1001)
    fx, _ = derivative_fields(sol, data)
    dx = sol.field.x_grid[1] - sol.field.x_grid[0]
    central = (sol.field.values[:, 2:] - sol.field.values[:, :-2]) / (2.0 * dx)
    dev_fx = float(np.max(np.abs(fx.values[:, 1:-1] - central)))

    clean = sine_data(0.0)
    defect0 = check_compatibility(clean, 0).defect
    slope = CauchyData(
        EQ.l_e,
        SpaceProfile.from_callable(lambda x: EQ.f_pe + 0.01 * x, 201),
        clean.F_in,
        clean.N,
        UNIT,
        EQ,
    )
    defect1 = check_compatibility(slope, 1).defect
    ok = dev_fx <= 1e-4 and defect0 == 0.0 and abs(defect1 - 0.01) <= 1e-10
    emit(5, "regularity-fields", ok,
         f"f_px vs FD {dev_fx:.3g} at dx=1e-3, clean defect {defect0:.3g}, "
         f"slope defect {defect1:.12g}")
    assert dev_fx <= 1e-4
    assert defect0 == 0.0
    assert abs(defect1 - 0.01) <= 1e-10


def test_criterion_06_linear_transport():
    one = lambda t, x: np.ones_like(np.asarray(t, float) + np.asarray(x, float))
    zero = lambda t, x: np.zeros_like(np.asarray(t, float) + np.asarray(x, float))
    zero_profile = SpaceProfile.constant(0.0)
    zero_inflow = SampledFunction.constant(0.0, 0.0, 1.0)
    p = LinearTransportProblem(T=1.0, a=one, b=zero, c=one, u0=zero_profile, h=zero_inflow)
    tg = np.linspace(0.0, 1.0, 81)
    xg = np.linspace(0.0, 1.0, 51)
    sol = solve_linear_transport(p, tg, xg)
    tm, xm = np.meshgrid(tg, xg, indexing="ij")
    dev_min = float(np.max(np.abs(sol.values - np.minimum(tm, xm))))

    residuals = []
    for n in (41, 81, 161):
        tgn = np.linspace(0.0, 1.0, n)
        xgn = np.linspace(0.0, 1.0, (n - 1) // 2 + 1)
        residuals.append(weak_form_residual(solve_linear_transport(p, tgn, xgn), p))
    orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]

    def a_var(t, x):
        return 1.0 + 0.3 * np.sin(2.1 * np.asarray(t, float)) * np.cos(1.7 * np.asarray(x, float))

    u01 = SpaceProfile.from_callable(lambda x: np.sin(2 * np.pi * x), 101)
    u02 = SpaceProfile.from_callable(lambda x: x**2, 101)
    h1 = SampledFunction.from_callable(lambda t: 0.2 * t, 0.0, 1.0, 101)
    h2 = SampledFunction.from_callable(lambda t: np.cos(t) - 1.0, 0.0, 1.0, 101)
    c1 = lambda t, x: np.sin(np.asarray(t, float)) * np.asarray(x, float)
    c2 = lambda t, x: np.cos(3 * np.asarray(x, float)) + 0.0 * np.asarray(t, float)
    b_var = lambda t, x: 0.4 * np.cos(np.asarray(t, float) + np.asarray(x, float))
    pa = LinearTransportProblem(T=1.0, a=a_var, b=b_var, c=c1, u0=u01, h=h1)
    pb = LinearTransportProblem(T=1.0, a=a_var, b=b_var, c=c2, u0=u02, h=h2)
    ps = LinearTransportProblem(
        T=1.0,
        a=a_var,
        b=b_var,
        c=lambda t, x: c1(t, x) + c2(t, x),
        u0=SpaceProfile(u01.values + u02.values),
        h=SampledFunction(0.0, 1.0, h1.values + h2.values),
    )
    tgs = np.linspace(0.0, 1.0, 41)
    xgs = np.linspace(0.0, 1.0, 31)
    ua = solve_linear_transport(pa, tgs, xgs)
    ub = solve_linear_transport(pb, tgs, xgs)
    us = solve_linear_transport(ps, tgs, xgs)
    scale = max(1.0, float(np.max(np.abs(us.values))))
    lin_defect = float(np.max(np.abs(us.values - ua.values - ub.values))) / scale

    ok = dev_min <= 1e-8 and min(orders) >= 1.0 and lin_defect <= 1e-12
    emit(6, "linear-transport", ok,
         f"min(t,x) dev {dev_min:.3g}, weak-form orders "
         f"{orders[0]:.2f}/{orders[1]:.2f}, linearity {lin_defect:.3g}")
    assert dev_min <= 1e-8
    assert min(orders) >= 1.0
    assert lin_defect <= 1e-12


def test_criterion_07_controllability():
    started = time.perf_counter()
    nu = 1e-2
    prof = SpaceProfile.constant(EQ.f_pe - nu, 257)
    target = ControlTarget(l0=0.49, l1=0.51, f0_p=prof, f1_p=prof, T=1.0, nu=nu)
    report = synthesize(target, UNIT, EQ)
    cert = verify_control(target, report, UNIT, EQ, dx=1e-3)

    half = nu / 2.0
    prof_h = SpaceProfile.constant(EQ.f_pe - half, 257)
    target_h = ControlTarget(l0=0.5 - half, l1=0.5 + half, f0_p=prof_h, f1_p=prof_h, T=1.0, nu=half)
    report_h = synthesize(target_h, UNIT, EQ)
    ratio = report.control_size / nu
    ratio_h = report_h.control_size / half
    drift = abs(ratio_h - ratio) / ratio
    elapsed = time.perf_counter() - started

    accuracy_ok = (report.iterations <= 200
                   and cert.char_l_error <= 1e-8 and cert.char_fp_error <= 1e-6
                   and cert.upwind_l_error <= 5e-3 and cert.upwind_fp_error <= 5e-3
                   and elapsed < 60.0)
    ok = accuracy_ok and drift <= 0.2
    emit(7, "controllability", ok,
         f"{report.iterations} iterations, char replay l {cert.char_l_error:.3g} "
         f"fp {cert.char_fp_error:.3g}, upwind l {cert.upwind_l_error:.3g} "
         f"fp {cert.upwind_fp_error:.3g}, nFN ratio {ratio:.4g}->{ratio_h:.4g} "
         f"drift {drift:.1%}, {elapsed:.1f}s")
    assert report.iterations <= 200
    assert cert.char_l_error <= 1e-8
    assert cert.char_fp_error <= 1e-6
    assert cert.upwind_l_error <= 5e-3
    assert cert.upwind_fp_error <= 5e-3
    assert elapsed < 60.0
    # the screw holds N_e and the feed follows an outlet trace read off an
    # interface path from l0 to l1, a step of 2 nu, so the control size
    # shrinks with the budget
    assert drift <= 0.2, f"nFN ratio drift {drift:.1%} exceeds 20%"


def test_criterion_08_critical_time():
    short = feasibility_check(0.4, EQ)
    long = feasibility_check(0.6, EQ)
    ok = (not short.feasible and short.witness == pytest.approx(0.8, abs=1e-12)
          and long.feasible)
    emit(8, "critical-time", ok,
         f"T=0.4 witness {short.witness:.12g}, T=0.6 feasible {long.feasible}")
    assert not short.feasible
    assert short.witness == pytest.approx(0.8, abs=1e-12)
    assert long.feasible


def test_criterion_09_upwind_order():
    data = bump_data(0.05, (0.2, 0.8), n=1001)
    study = convergence_study(data, 0.3, (4e-3, 2e-3, 1e-3))
    ok = (not study.degenerate and not study.inconclusive
          and abs(study.order - 1.0) <= 0.2)
    emit(9, "upwind-order", ok,
         f"observed order {study.order:.3f} on dx 4e-3/2e-3/1e-3, "
         f"errors {study.errors[0]:.3g}/{study.errors[1]:.3g}/{study.errors[2]:.3g}")
    assert not study.degenerate
    assert not study.inconclusive
    assert study.order == pytest.approx(1.0, abs=0.2)


def test_criterion_10_determinism(tmp_path):
    sim_keys = {
        "equilibrium.N_e": "1.0",
        "equilibrium.l_e": "0.5",
        "data.l0": "0.5",
        "data.f0_p": "sine-perturbation:eq,0.01",
        "data.F_in": "constant:eq",
        "data.N": "constant:eq",
        "numerics.dt": "0.01",
        "numerics.dx": "0.02",
        "mode.T": "0.5",
    }
    ctl_keys = {
        "equilibrium.N_e": "1.0",
        "equilibrium.l_e": "0.5",
        "data.l0": "0.49",
        "data.l1": "0.51",
        "data.f0_p": "constant:0.3233333333333333",
        "data.f1_p": "constant:0.3233333333333333",
        "numerics.dt": "0.01",
        "numerics.dx": "0.01",
        "mode.T": "1.0",
        "mode.nu": "0.01",
    }

    def run_twice(sub, keys, names):
        blobs = []
        for tag in ("a", "b"):
            mapping = dict(keys)
            mapping["mode.out"] = str(tmp_path / f"{sub}_{tag}")
            cfg = tmp_path / f"{sub}_{tag}.cfg"
            cfg.write_text("".join(f"{k}={v}\n" for k, v in mapping.items()))
            assert cli_run([sub, str(cfg)]) == 0
            blobs.append([(tmp_path / f"{sub}_{tag}" / n).read_bytes() for n in names])
        return all(x == y for x, y in zip(*blobs))

    sim_same = run_twice("simulate", sim_keys, ("trace.csv", "field.csv"))
    ctl_same = run_twice("control", ctl_keys, ("controls.csv", "certificate.csv"))
    emit(10, "determinism", sim_same and ctl_same,
         f"simulate byte-identical {sim_same}, control byte-identical {ctl_same}")
    assert sim_same
    assert ctl_same
