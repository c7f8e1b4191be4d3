import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extrusim import control
from extrusim.characteristics import TraceContext, backtrace, backtrace_times, crossing_time_rk4
from extrusim.control import (
    ControlTarget,
    critical_time,
    feasibility_check,
    synthesize,
    validate_target,
    verify_control,
)
from extrusim.errors import (
    DivergenceError,
    DomainError,
    FeasibilityError,
)
from extrusim.fields import SampledFunction, SpaceProfile, norm
from extrusim.model import PhysicalParams, eps1_radius, eval_g, solve_equilibrium
from extrusim.quadrature import cumulative_integral

UNIT = PhysicalParams()
EQ = solve_equilibrium(UNIT, N_e=1.0, l_e=0.5)
NU = 1e-2


def const_profile(value, n=257):
    return SpaceProfile.constant(value, n)


@pytest.fixture(scope="module")
def ramp_target():
    prof = const_profile(EQ.f_pe - NU)
    return ControlTarget(l0=0.49, l1=0.51, f0_p=prof, f1_p=prof, T=1.0, nu=NU)


@pytest.fixture(scope="module")
def ramp_report(ramp_target):
    return synthesize(ramp_target, UNIT, EQ)


@pytest.fixture(scope="module")
def ramp_certificate(ramp_target, ramp_report):
    return verify_control(ramp_target, ramp_report, UNIT, EQ)


def sine_target():
    # a sine initial profile reaches the outlet before t0, so the outlet
    # trace moves with the characteristic field and the passes do not
    # collapse onto a fixed point after the first update
    f0 = SpaceProfile.from_callable(lambda x: EQ.f_pe - NU + NU * np.sin(np.pi * x), 257)
    return ControlTarget(
        l0=0.49, l1=0.51, f0_p=f0, f1_p=const_profile(EQ.f_pe - NU), T=1.0, nu=0.05
    )


# out of reach: the outlet ratio would have to fall far below the eps1 ball
WIDE_TARGET = ControlTarget(
    l0=0.45,
    l1=0.55,
    f0_p=const_profile(1.0 / 3.0),
    f1_p=const_profile(0.30),
    T=1.0,
    nu=0.05,
)


@pytest.fixture(scope="module")
def wide_report():
    tgt = sine_target()
    return tgt, synthesize(tgt, UNIT, EQ)


def report_context(rep):
    return TraceContext(rep.l, rep.N, rep.b_outlet, UNIT)


def interface_defect(l0, rep):
    """Largest gap between l and l0 + integral N g(l, b) on the report's grid."""
    F = rep.N.values * eval_g(rep.l.values, rep.b_outlet.values, UNIT)
    return float(np.max(np.abs(rep.l.values - l0 - cumulative_integral(F, rep.l.dt))))


class TestCriticalTime:
    def test_unit_equilibrium(self):
        assert critical_time(EQ) == pytest.approx(0.5, abs=1e-15)

    def test_doubling_speed_halves_it(self):
        eq2 = solve_equilibrium(UNIT, N_e=2.0, l_e=0.5)
        assert critical_time(eq2) == pytest.approx(critical_time(EQ) / 2.0, abs=1e-15)

    def test_pitch_scaling(self):
        params = PhysicalParams(zeta=2.0)
        eq = solve_equilibrium(params, N_e=1.0, l_e=0.5)
        assert critical_time(eq) == pytest.approx(0.25, abs=1e-15)


class TestFeasibilityCheck:
    def test_short_horizon_fails_with_witness(self):
        res = feasibility_check(0.4, EQ)
        assert not res.feasible
        assert res.T_e == pytest.approx(0.5, abs=1e-15)
        assert res.witness == pytest.approx(0.8, abs=1e-12)
        assert "fixed by the initial data" in res.detail

    def test_critical_time_itself_fails(self):
        # the horizon condition is strict
        res = feasibility_check(0.5, EQ)
        assert not res.feasible
        assert res.witness == pytest.approx(1.0, abs=1e-12)

    def test_long_horizon_passes(self):
        assert feasibility_check(0.6, EQ).feasible


class TestTargetValidation:
    def test_shape_checks_at_construction(self):
        prof = const_profile(EQ.f_pe)
        with pytest.raises(DomainError):
            ControlTarget(l0=0.49, l1=0.51, f0_p=prof, f1_p=prof, T=-1.0, nu=NU)
        with pytest.raises(DomainError):
            ControlTarget(
                l0=0.49, l1=0.51, f0_p=const_profile(1.0), f1_p=prof, T=1.0, nu=NU
            )

    def test_interface_deviation_budget(self):
        prof = const_profile(EQ.f_pe - NU)
        tgt = ControlTarget(l0=0.45, l1=0.51, f0_p=prof, f1_p=prof, T=1.0, nu=NU)
        with pytest.raises(DomainError, match="budget"):
            validate_target(tgt, UNIT, EQ)

    def test_profile_deviation_budget(self):
        prof = const_profile(EQ.f_pe - 0.02)
        tgt = ControlTarget(l0=0.49, l1=0.51, f0_p=prof, f1_p=prof, T=1.0, nu=NU)
        with pytest.raises(DomainError, match="budget"):
            validate_target(tgt, UNIT, EQ)

    def test_horizon_below_critical_time(self):
        prof = const_profile(EQ.f_pe - NU)
        tgt = ControlTarget(l0=0.49, l1=0.51, f0_p=prof, f1_p=prof, T=0.4, nu=NU)
        with pytest.raises(FeasibilityError, match="critical time"):
            validate_target(tgt, UNIT, EQ)

    def test_interface_outside_machine(self):
        prof = const_profile(EQ.f_pe - NU)
        tgt = ControlTarget(l0=1.49, l1=0.51, f0_p=prof, f1_p=prof, T=1.0, nu=NU)
        with pytest.raises(DomainError, match="outside"):
            validate_target(tgt, UNIT, EQ)

    def test_admissible_target_accepted(self, ramp_target):
        validate_target(ramp_target, UNIT, EQ)


class TestSynthesizeRamp:
    def test_converges_immediately(self, ramp_report):
        # constant end profiles leave only t0 to settle: the second pass
        # already reproduces the outlet trace of the first
        assert ramp_report.iterations == 2
        assert ramp_report.residual <= 1e-10

    def test_initial_speed_is_the_quotient(self, ramp_report):
        # no quotient any more: the screw holds its equilibrium speed
        assert np.all(ramp_report.N.values == EQ.N_e)

    def test_final_speed(self, ramp_report):
        assert ramp_report.N.values[-1] == EQ.N_e

    def test_interface_endpoints_exact(self, ramp_report):
        assert ramp_report.l.values[0] == 0.49
        assert abs(ramp_report.l.values[-1] - 0.51) <= 1e-12

    def test_landmarks(self, ramp_report):
        ctx = report_context(ramp_report)
        assert ramp_report.t0 == pytest.approx(crossing_time_rk4(ctx), abs=1e-9)
        origin = backtrace(1.0, 1.0, ctx)
        assert not origin.is_initial
        assert ramp_report.t1 == pytest.approx(origin.tau, abs=1e-12)
        assert 0.0 < ramp_report.t0 < 1.0
        assert 0.0 < ramp_report.t1 < 1.0

    def test_g_floor_never_approached(self, ramp_report):
        # the interface is driven by N_e g(l, b) directly, with no division
        # by g, and both traces stay inside the replay's eps1 ball
        assert interface_defect(0.49, ramp_report) <= 1e-14
        eps1 = eps1_radius(EQ)
        assert float(np.max(np.abs(ramp_report.b_outlet.values - EQ.f_pe))) <= eps1
        assert float(np.max(np.abs(ramp_report.l.values - EQ.l_e))) <= eps1

    def test_final_errors_vanish(self, ramp_report):
        assert ramp_report.final_errors[0] <= 1e-12
        assert ramp_report.final_errors[1] <= 1e-12

    def test_control_size(self, ramp_report):
        r = ramp_report.F_in.values / (UNIT.rho0 * UNIT.V_eff * ramp_report.N.values)
        size = norm("W1inf", SampledFunction(0.0, 1.0, r - EQ.f_pe)) + float(
            np.max(np.abs(ramp_report.N.values - EQ.N_e))
        )
        assert ramp_report.control_size == pytest.approx(size, rel=1e-12)
        assert ramp_report.control_size == pytest.approx(0.11544094776809288, rel=1e-9)

    def test_outlet_trace_constant(self, ramp_report):
        # the constant profile reaches the outlet until t0; after it only
        # the bump A*phi moves the trace, and phi vanishes before T
        b = ramp_report.b_outlet.values
        before = ramp_report.b_outlet.grid < ramp_report.t0
        assert np.all(b[before] == EQ.f_pe - NU)
        assert b[-1] == pytest.approx(EQ.f_pe - NU, abs=1e-15)
        dev = b - (EQ.f_pe - NU)
        assert float(np.max(np.abs(dev))) <= abs(ramp_report.amplitude) * (1.0 + 1e-12)
        assert np.all(dev * ramp_report.amplitude >= 0.0)


class TestSynthesizeWide:
    def test_first_iterate_speed_formula(self, wide_report):
        _, rep = wide_report
        # every pass holds the screw at N_e, so the converged speed is the
        # first iterate's
        assert np.all(rep.N.values == EQ.N_e)

    def test_iteration_count_and_residual(self, wide_report):
        _, rep = wide_report
        assert rep.iterations == 6
        assert rep.residual <= 1e-10

    def test_contraction_factors(self, wide_report):
        _, rep = wide_report
        assert all(f <= 0.5 for f in rep.contraction_factors[-3:])

    def test_interface_component_is_candidate_independent(self, wide_report):
        # the interface is no longer fixed in advance; it is the solution of
        # the interface equation on the accepted outlet trace
        tgt, rep = wide_report
        assert interface_defect(tgt.l0, rep) <= 1e-14
        assert abs(rep.l.values[-1] - tgt.l1) <= 1e-12

    def test_outlet_trace_pinning(self, wide_report):
        tgt, rep = wide_report
        assert rep.b_outlet.values[0] == pytest.approx(tgt.f0_p(1.0), abs=1e-15)
        assert rep.b_outlet.values[-1] == pytest.approx(tgt.f1_p(1.0), abs=1e-15)
        # before t0 the outlet shows the initial profile carried along the
        # characteristics of the accepted candidate
        is_bnd, origin = backtrace_times(rep.b_outlet.grid, 1.0, report_context(rep))
        carried = tgt.f0_p(origin[~is_bnd])
        assert float(np.ptp(carried)) > 1e-3
        assert float(np.max(np.abs(rep.b_outlet.values[~is_bnd] - carried))) <= 1e-10

    def test_landmark_ordering(self, wide_report):
        tgt, rep = wide_report
        ctx = report_context(rep)
        assert 0.0 < rep.t0 < tgt.T
        assert 0.0 < rep.t1 < tgt.T
        # closed form against the Runge-Kutta march: the Simpson-type P and
        # Q see the sampled sine trace, 6.9e-10 apart here
        assert rep.t0 == pytest.approx(crossing_time_rk4(ctx), abs=1e-8)
        assert rep.t1 == pytest.approx(backtrace(tgt.T, 1.0, ctx).tau, abs=1e-12)


class TestLandmarkGeometry:
    def test_outlet_origins_monotone(self, ramp_report):
        ctx = TraceContext(ramp_report.l, ramp_report.N, ramp_report.b_outlet, UNIT)
        ts = np.linspace(ramp_report.t0 + 1e-6, 1.0, 400)
        is_boundary, origins = backtrace_times(ts, 1.0, ctx)
        assert np.all(is_boundary)
        assert np.all(np.diff(origins) > 0.0)
        assert origins[0] >= 0.0
        assert origins[-1] <= ramp_report.t1 + 1e-9


class TestDegenerateTargets:
    def test_equilibrium_roundtrip_uses_detour(self):
        # l1 = l0 needs no detour: the construction holds the equilibrium
        prof = const_profile(EQ.f_pe)
        tgt = ControlTarget(l0=EQ.l_e, l1=EQ.l_e, f0_p=prof, f1_p=prof, T=1.2, nu=NU)
        rep = synthesize(tgt, UNIT, EQ)
        assert rep.amplitude == 0.0
        assert float(np.ptp(rep.N.values)) == 0.0
        assert rep.N.values[0] == EQ.N_e
        assert float(np.ptp(rep.F_in.values)) == 0.0
        assert rep.F_in.values[0] == pytest.approx(
            EQ.f_pe * UNIT.rho0 * UNIT.V_eff * EQ.N_e, rel=1e-15
        )
        assert rep.t0 == pytest.approx(0.5, abs=1e-12)
        assert rep.t1 == pytest.approx(0.7, abs=1e-12)
        cert = verify_control(tgt, rep, UNIT, EQ)
        assert cert.char_l_error <= 1e-8
        assert cert.char_fp_error <= 1e-8
        assert cert.upwind_l_error <= 5e-3
        assert cert.upwind_fp_error <= 5e-3

    def test_offequilibrium_roundtrip_reports_leg_failure(self):
        # a round trip away from equilibrium no longer needs two legs: the
        # outlet bump holds the interface against its drift back to l_e
        prof = const_profile(1.0 / 3.0)
        tgt = ControlTarget(l0=0.45, l1=0.45, f0_p=prof, f1_p=prof, T=2.4, nu=0.06)
        rep = synthesize(tgt, UNIT, EQ)
        assert rep.final_errors[0] <= 1e-12
        assert rep.final_errors[1] <= 1e-12
        assert rep.control_size / tgt.nu == pytest.approx(1.705499493236889, rel=1e-9)
        # the longer horizon needs the finer replay time grid for 1e-8
        cert = verify_control(tgt, rep, UNIT, EQ, n_t=1601)
        assert cert.char_l_error <= 1e-8
        assert cert.char_fp_error <= 1e-8
        assert cert.upwind_l_error <= 5e-3
        assert cert.upwind_fp_error <= 5e-3

    def test_default_replay_grid_follows_horizon(self):
        # the default replay step is fixed, so the T = 2.4 round trip gets
        # 1921 time nodes and meets 1e-8 on the interface without help
        prof = const_profile(1.0 / 3.0)
        tgt = ControlTarget(l0=0.45, l1=0.45, f0_p=prof, f1_p=prof, T=2.4, nu=0.06)
        cert = verify_control(tgt, synthesize(tgt, UNIT, EQ), UNIT, EQ)
        assert cert.char_l_error <= 1e-8
        assert cert.char_fp_error <= 1e-8


class TestGuards:
    def test_balanced_trace_hits_g_floor(self):
        # profiles on the balance curve at l=0.5 no longer make anything
        # singular; the guard left is reach: the wide step needs the outlet
        # ratio to fall out of the eps1 ball
        prof = const_profile(EQ.f_pe)
        tgt = ControlTarget(l0=0.49, l1=0.51, f0_p=prof, f1_p=prof, T=1.0, nu=NU)
        assert synthesize(tgt, UNIT, EQ).final_errors[0] <= 1e-12
        with pytest.raises(FeasibilityError, match="bump amplitude A=-0.2"):
            synthesize(WIDE_TARGET, UNIT, EQ)

    def test_speed_box_violation(self):
        prof = const_profile(0.28)
        tgt = ControlTarget(l0=0.40, l1=0.60, f0_p=prof, f1_p=prof, T=1.0, nu=0.1)
        with pytest.raises(FeasibilityError, match="out of reach: bump amplitude"):
            synthesize(tgt, UNIT, EQ)

    def test_margin_above_critical_time(self, ramp_target):
        tgt = dataclasses.replace(ramp_target, T=0.52)
        with pytest.raises(FeasibilityError, match="margin"):
            synthesize(tgt, UNIT, EQ)


class TestVerifyControl:
    def test_characteristic_replay(self, ramp_certificate):
        assert ramp_certificate.char_l_error <= 1e-8
        assert ramp_certificate.char_fp_error <= 1e-6

    def test_upwind_replay(self, ramp_certificate):
        assert ramp_certificate.upwind_l_error <= 5e-3
        assert ramp_certificate.upwind_fp_error <= 5e-3

    def test_control_size_matches_report(self, ramp_report, ramp_certificate):
        assert ramp_certificate.nfn_value == pytest.approx(
            ramp_report.control_size, rel=1e-12
        )
        assert ramp_certificate.nfn_ratio == pytest.approx(11.544094776809288, rel=1e-9)

    def test_inadmissible_controls_reported(self, ramp_target, ramp_report):
        bad_N = SampledFunction(0.0, 1.0, ramp_report.N.values - 5.0)
        bad = dataclasses.replace(ramp_report, N=bad_N)
        with pytest.raises(DivergenceError, match="not admissible"):
            verify_control(ramp_target, bad, UNIT, EQ)


class TestDeviationScaling:
    def test_nfn_ratio_stable_under_nu_halving(self, ramp_report):
        # bounded-constant audit: the control-size-to-budget ratio should be
        # stable as the deviation budget halves.  The screw holds N_e and
        # the feed carries an O(nu) outlet bump, so the ratio settles
        # (11.54 -> 10.95, a 5.1% drift).
        half = NU / 2.0
        prof = const_profile(EQ.f_pe - half)
        tgt = ControlTarget(
            l0=0.5 - half, l1=0.5 + half, f0_p=prof, f1_p=prof, T=1.0, nu=half
        )
        rep_half = synthesize(tgt, UNIT, EQ)
        ratio_full = ramp_report.control_size / NU
        ratio_half = rep_half.control_size / half
        drift = abs(ratio_half - ratio_full) / ratio_full
        assert drift <= 0.2, (
            f"nFN ratio drifts {drift:.1%} under nu-halving "
            f"({ratio_full:.6g} -> {ratio_half:.6g}); bound 20%"
        )


# a profile deviation a*wave(k*pi*x), wave sin or cos, whose W1inf norm is the
# given share of 0.8*nu
waves = st.tuples(
    st.sampled_from(["sin", "cos"]),
    st.integers(1, 3),
    st.floats(0.05, 0.99),
    st.sampled_from([1.0, -1.0]),
)


def near_target(offsets, profiles, nu):
    """Target with the interface offsets and profile waves in shares of 0.8*nu."""
    x = np.linspace(0.0, 1.0, 257)
    devs = []
    for wave, k, share, sign in profiles:
        shape = SpaceProfile(getattr(np, wave)(k * np.pi * x))
        devs.append(sign * share * 0.8 * nu / norm("W1inf", shape) * shape.values)
    (d0, d1), (f0, f1) = offsets, devs
    return ControlTarget(
        l0=EQ.l_e + 0.8 * nu * d0,
        l1=EQ.l_e + 0.8 * nu * d1,
        f0_p=SpaceProfile(EQ.f_pe + f0),
        f1_p=SpaceProfile(EQ.f_pe + f1),
        T=1.0,
        nu=nu,
    )


class TestExactControllability:
    # exact controllability near the equilibrium: synthesis lands on every
    # target in the 0.8*nu ball, and the control size is O(nu)
    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(
        offsets=st.tuples(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99)),
        profiles=st.tuples(waves, waves),
    )
    def test_synthesis_reaches_targets_near_equilibrium(self, offsets, profiles):
        report = synthesize(near_target(offsets, profiles, NU), UNIT, EQ)
        half = synthesize(near_target(offsets, profiles, NU / 2.0), UNIT, EQ)
        assert max(report.final_errors) <= 1e-12
        assert max(half.final_errors) <= 1e-12
        ratio, ratio_half = report.control_size / NU, half.control_size / (NU / 2.0)
        assert abs(ratio_half - ratio) <= 0.2 * ratio


class TestOptions:
    def test_iteration_cap_enforced(self, ramp_target, monkeypatch):
        # the sine target needs six passes
        monkeypatch.setattr(control, "SYNTH_MAX_ITER", 3)
        from extrusim.errors import ConvergenceError

        with pytest.raises(ConvergenceError):
            synthesize(sine_target(), UNIT, EQ)

    def test_coarse_grid_still_pins_endpoints(self, ramp_target, monkeypatch):
        monkeypatch.setattr(control, "SYNTH_N_T", 513)
        rep = synthesize(ramp_target, UNIT, EQ)
        assert abs(rep.l.values[-1] - 0.51) <= 1e-12
        assert rep.b_outlet.values[0] == EQ.f_pe - NU
