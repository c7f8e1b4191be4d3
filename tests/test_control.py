import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extrusim import control
from extrusim.characteristics import (
    TraceContext,
    _xi_from,
    backtrace,
    backtrace_batch,
    backtrace_times,
    carry,
    crossing_time_rk4,
)
from extrusim.control import (
    ControlTarget,
    critical_time,
    feasibility_check,
    synthesize,
    validate_target,
    verify_control,
)
from extrusim.errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    FeasibilityError,
    SingularityError,
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
    lb = np.stack((rep.l.values, rep.b_outlet.values))
    return TraceContext(rep.l.t_start, rep.l.t_end, lb, rep.N.values, UNIT)


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
        assert ramp_report.control_size == pytest.approx(0.10631688200112421, rel=1e-9)

    def test_outlet_trace_constant(self, ramp_report):
        # the constant profile reaches the outlet until t0, where the path
        # starts; the hold window, the last tenth of [t0, T], holds f1_p(1)
        b, t = ramp_report.b_outlet.values, ramp_report.b_outlet.grid
        t0 = ramp_report.t0
        assert np.all(b[t < t0] == EQ.f_pe - NU)
        assert np.all(b[t >= 1.0 - 0.1 * (1.0 - t0)] == EQ.f_pe - NU)
        # the path is read off the quintic in between, and joins both ends
        # to rounding
        assert float(np.max(np.abs(np.diff(b)))) <= 1e-3
        assert float(np.max(np.abs(b - (EQ.f_pe - NU)))) > 1e-3


class TestSynthesizeWide:
    def test_first_iterate_speed_formula(self, wide_report):
        _, rep = wide_report
        # every pass holds the screw at N_e, so the converged speed is the
        # first iterate's
        assert np.all(rep.N.values == EQ.N_e)

    def test_iteration_count_and_residual(self, wide_report):
        _, rep = wide_report
        assert rep.iterations == 5
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
        is_bnd, origin = backtrace_times(1.0, report_context(rep))
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
        ctx = report_context(ramp_report)
        ts = np.linspace(ramp_report.t0 + 1e-6, 1.0, 400)
        is_boundary, origins = backtrace_batch(ts, 1.0, ctx)
        assert np.all(is_boundary)
        assert np.all(np.diff(origins) > 0.0)
        assert origins[0] >= 0.0
        assert origins[-1] <= ramp_report.t1 + 1e-9


class TestDegenerateTargets:
    def test_equilibrium_roundtrip_uses_detour(self):
        # l1 = l0 needs no detour: the construction holds the equilibrium,
        # the feed to the rounding of the outlet ratio read off the path
        prof = const_profile(EQ.f_pe)
        tgt = ControlTarget(l0=EQ.l_e, l1=EQ.l_e, f0_p=prof, f1_p=prof, T=1.2, nu=NU)
        rep = synthesize(tgt, UNIT, EQ)
        assert float(np.ptp(rep.N.values)) == 0.0
        assert rep.N.values[0] == EQ.N_e
        assert float(np.ptp(rep.F_in.values)) <= 1e-15
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
        # path and the hold window hold the interface against its drift back
        # to l_e
        prof = const_profile(1.0 / 3.0)
        tgt = ControlTarget(l0=0.45, l1=0.45, f0_p=prof, f1_p=prof, T=2.4, nu=0.06)
        rep = synthesize(tgt, UNIT, EQ)
        assert rep.final_errors[0] <= 1e-12
        assert rep.final_errors[1] <= 1e-12
        assert rep.control_size / tgt.nu == pytest.approx(1.6254395078002897, rel=1e-9)
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
        with pytest.raises(FeasibilityError, match=r"pass 1, path candidate moves the outlet "
                                                   r"ratio to \[0\.0185946, 0\.333333\]"):
            synthesize(WIDE_TARGET, UNIT, EQ)

    def test_speed_box_violation(self):
        # the outlet ratio that the path asks for leaves the eps1 ball
        prof = const_profile(0.28)
        tgt = ControlTarget(l0=0.40, l1=0.60, f0_p=prof, f1_p=prof, T=1.0, nu=0.1)
        with pytest.raises(FeasibilityError) as exc:
            synthesize(tgt, UNIT, EQ)
        assert str(exc.value) == (
            "target out of reach: pass 1, path candidate moves the outlet ratio to "
            "[-0.395553, 0.28]; it must stay within eps1=0.111111 of its equilibrium value "
            "0.333333"
        )

    def test_interface_out_of_the_ball_is_named(self):
        # a stiff die (K_d = 1000) puts f_pe near 1 and shrinks eps1 to
        # 6.7e-4: the outlet ratio stays in the ball, the interface cannot
        params = PhysicalParams(K_d=1e3)
        eq = solve_equilibrium(params, N_e=1.0, l_e=0.5)
        prof = const_profile(eq.f_pe)
        tgt = ControlTarget(l0=0.49, l1=0.51, f0_p=prof, f1_p=prof, T=1.0, nu=NU)
        with pytest.raises(FeasibilityError) as exc:
            synthesize(tgt, params, eq)
        assert str(exc.value) == (
            "target out of reach: pass 1, path candidate moves the interface to "
            "[0.49, 0.512157]; it must stay within eps1=0.000665336 of its equilibrium value 0.5"
        )

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
        assert ramp_certificate.nfn_ratio == pytest.approx(10.631688200112421, rel=1e-9)

    def test_inadmissible_controls_reported(self, ramp_target, ramp_report):
        bad_N = SampledFunction(0.0, 1.0, ramp_report.N.values - 5.0)
        bad = dataclasses.replace(ramp_report, N=bad_N)
        with pytest.raises(DivergenceError, match="not admissible"):
            verify_control(ramp_target, bad, UNIT, EQ)


class TestDeviationScaling:
    def test_nfn_ratio_stable_under_nu_halving(self, ramp_report):
        # bounded-constant audit: the control-size-to-budget ratio should be
        # stable as the deviation budget halves.  The screw holds N_e and
        # the feed follows an outlet trace read off an interface path from
        # l0 to l1, a step of 2 nu, so the ratio settles (10.63 -> 10.12, a
        # 4.8% drift).
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


def reference_interface(l0, b_vals, start, N_e, dt, params):
    """The interface solve as it was before it ran as one pass over node
    arrays (eval_g and one running integral a sweep), from the same start:
    plain Picard sweeps, kept as the oracle of the Newton solve."""
    l = start
    for _ in range(control.NEWTON_MAX_ITER):
        l_new = l0 + cumulative_integral(N_e * eval_g(l, b_vals, params), dt)
        step = np.max(np.abs(l_new - l)) / max(1.0, np.max(np.abs(l_new)))
        l = l_new
        if step <= 1e-15:
            return l
    raise ConvergenceError(f"Picard sweeps did not settle (last step {step:.3e})")


def bump_interface_args(b_shift=0.0):
    """A hand-made outlet trace with a bump, and the arguments `synthesize`
    passes with it."""
    t = np.linspace(0.0, 1.0, control.SYNTH_N_T)
    phi = np.sin(np.pi * np.clip((t - 0.4) / 0.5, 0.0, 1.0)) ** 2
    b = EQ.f_pe - NU + 0.004 * phi + b_shift
    return 0.49, b, np.full(t.size, 0.49), EQ.N_e, t[1], UNIT


class TestOnePassInterface:
    """`control._interface` settles where the reference Picard sweeps do,
    and raises their errors."""

    def test_seven_calls_of_a_control_run_match_the_picard_reference(self, monkeypatch):
        # the seed-1 control workload, a centred step of 0.0165: the first
        # candidate, then a free run, a hold window run backwards and a
        # re-solve in each of two passes
        calls = []
        interface = control._interface

        def recorded(*args):
            out = interface(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(control, "_interface", recorded)
        prof = SpaceProfile.constant(0.3233333333333333, 257)
        synthesize(ControlTarget(0.49175, 0.50825, prof, prof, 1.0, NU), UNIT, EQ)
        assert len(calls) == 7
        assert [args[3] < 0.0 for args, _ in calls] == [False] + [False, True, False] * 2
        for args, l in calls:
            assert np.abs(l - reference_interface(*args)).max() <= 1e-13

    def test_bump_trace_matches_the_picard_reference(self):
        args = bump_interface_args()
        l, l_ref = control._interface(*args), reference_interface(*args)
        assert np.ptp(l_ref) > 1e-3
        assert np.abs(l - l_ref).max() <= 1e-13

    @pytest.mark.parametrize(
        "b_shift, error", [(1.0, SingularityError), (-1.0, DomainError)]
    )
    def test_bad_outlet_ratio_raises_as_the_reference(self, b_shift, error):
        args = bump_interface_args(b_shift)
        with pytest.raises(error) as ref:
            reference_interface(*args)
        with pytest.raises(error) as new:
            control._interface(*args)
        assert type(new.value) is type(ref.value)
        assert str(new.value) == str(ref.value)

    def test_step_cap_names_the_last_step(self, monkeypatch):
        # the cap counts Newton steps: one fewer than the bump trace needs
        # raises, and names a step above the stop rule's
        die_kernel = control.die_kernel
        steps = []

        def counted(*args, **kwargs):
            steps.append(None)
            return die_kernel(*args, **kwargs)

        monkeypatch.setattr(control, "die_kernel", counted)
        args = bump_interface_args()
        control._interface(*args)
        monkeypatch.setattr(control, "NEWTON_MAX_ITER", len(steps) - 1)
        with pytest.raises(ConvergenceError) as exc:
            control._interface(*args)
        message = str(exc.value)
        match = re.fullmatch(r"interface Newton steps did not settle \(last step (\S+)\)", message)
        assert match, message
        assert float(match[1]) > 1e-15

    def test_interface_leaving_the_machine_names_sweep_time_and_value(self):
        # an outlet ratio above 0.62 drains the interface faster than l0/T
        # wherever it is, so l leaves (0, L) before T: the first node
        # outside is named
        l0, b, start, N_e, _, params = bump_interface_args(0.3)
        T = 2.0
        assert l0 + T * N_e * eval_g(1e-12, float(b.min()), params) < 0.0
        args = (l0, b, start, N_e, T / (b.size - 1), params)
        with pytest.raises(DomainError, match="strictly inside"):
            reference_interface(*args)
        with pytest.raises(DomainError) as new:
            control._interface(*args)
        message = str(new.value)
        match = re.fullmatch(
            r"interface Newton step (\d+): l=(\S+) at t=(\S+) lies outside \(0, L=1\.0\)",
            message
        )
        assert match, message
        sweep, value, t = int(match[1]), float(match[2]), float(match[3])
        assert sweep > 1 and not 0.0 < value < 1.0 and 0.0 < t <= T

    def test_long_horizon_solves_stop_at_their_rounding_floor(self, monkeypatch):
        # over T = 200 the running integral rounds above a step of 1e-15:
        # the solves stop where their step no longer shrinks, and what they
        # return is the discrete fixed point to that rounding
        interface, steps = control._interface, []

        def recorded(l0, b, start, N_e, dt, params):
            l = interface(l0, b, start, N_e, dt, params)
            image = l0 + cumulative_integral(N_e * eval_g(l, b, params), dt)
            steps.append(np.abs(image - l).max() / max(1.0, np.abs(image).max()))
            return l

        monkeypatch.setattr(control, "_interface", recorded)
        prof = SpaceProfile.constant(0.3233333333333333, 257)
        report = synthesize(ControlTarget(0.49, 0.51, prof, prof, 200.0, NU), UNIT, EQ)
        assert report.final_errors[0] <= 1e-12
        assert 1e-15 < max(steps) <= 1e-12

    def test_stiff_die_solves_stop_at_their_rounding_floor(self):
        # K_d = 1e6 puts f_pe at 0.999998: g is the difference of terms near
        # zeta f_pe/(1 - f_pe) = 5e5, and the running integral rounds at a
        # step near 1e-12 that scales with them; a step of 4e-7 inside the
        # eps1 ball then synthesizes in one pass
        params = PhysicalParams(K_d=1e6)
        eq = solve_equilibrium(params, N_e=1.0, l_e=0.5)
        prof = const_profile(eq.f_pe)
        target = ControlTarget(0.4999998, 0.5000002, prof, prof, 1.0, 1e-6)
        report = synthesize(target, params, eq)
        assert report.iterations == 1
        assert report.final_errors[0] <= 1e-12

    def test_very_long_horizon_ends_in_a_named_error(self):
        # over T = 1500, e^-A of the Newton step overflows: the Picard image
        # stands, its sweeps leave (0, L), and no numpy warning escapes
        prof = SpaceProfile.constant(0.3233333333333333, 257)
        target = ControlTarget(0.49, 0.51, prof, prof, 1500.0, NU)
        stage = (r"^first candidate: interface Newton step \d+: l=\S+ at t=\S+ lies outside "
                 r"\(0, L=1\.0\)$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=stage):
                synthesize(target, UNIT, EQ)

    def test_synthesis_names_the_failing_pass(self, monkeypatch):
        # an interface error past the first candidate names the pass and
        # the piece that failed
        interface = control._interface
        prof = const_profile(EQ.f_pe - NU)
        for fail, piece in enumerate(["free run", "hold window (t counted back from T)",
                                      "re-solve"], 2):
            calls = []

            def failing(*args):
                calls.append(None)
                if len(calls) == fail:
                    raise DomainError("interface Newton step 1: stand-in")
                return interface(*args)

            monkeypatch.setattr(control, "_interface", failing)
            stage = f"^pass 1, {re.escape(piece)}: interface Newton step 1: stand-in$"
            with pytest.raises(DomainError, match=stage):
                synthesize(ControlTarget(0.49, 0.51, prof, prof, 1.0, NU), UNIT, EQ)


class TestWarmStart:
    """Each interface solve starts from a trace near its own: the free run
    from the last interface, the re-solve from the path candidate."""

    def test_each_solve_starts_from_the_last_one(self, monkeypatch):
        # the README example: 17 Newton steps in 7 solves, and one slope
        # call a pass for the ends of the path (21 under the bump shooting)
        die_kernel = control.die_kernel
        sweeps = []

        def counted(*args, **kwargs):
            if kwargs.get("slopes"):
                sweeps.append(None)
            return die_kernel(*args, **kwargs)

        monkeypatch.setattr(control, "die_kernel", counted)
        prof = SpaceProfile.constant(0.3233333333333333, 257)
        synthesize(ControlTarget(0.49, 0.51, prof, prof, 1.0, NU), UNIT, EQ)
        assert len(sweeps) <= 30


def reference_printing(report, target, params):
    """The inflow printing and final-state read-back of `synthesize` before
    `characteristics.carry` and the array `xi`, kept as the bit-for-bit
    reference: the boundary ratio from the closed form with the landing
    clipped, evaluated at every probe origin, and f0_p at the clipped
    origins.  Returns (inflow ratio on the grid, read-back values)."""
    T = target.T
    l_vals, b_vals, N_vals = report.l.values, report.b_outlet.values, report.N.values
    ctx = TraceContext(0.0, T, np.stack((l_vals, b_vals)), N_vals, params)
    is_bnd, origin = backtrace_times(1.0, ctx)
    t1 = float(origin[-1])
    tau_pts = np.concatenate([[0.0], origin[is_bnd]])
    b_pts = np.concatenate([[float(target.f0_p.values[0])], b_vals[is_bnd]])

    def boundary_ratio(ts):
        ts = np.asarray(ts, dtype=float)
        landing = np.clip(np.asarray(_xi_from(0.0, *ctx._PQ(ts), *ctx._PQ(T)), dtype=float),
                          0.0, 1.0)
        return np.where(ts <= t1, np.interp(ts, tau_pts, b_pts), target.f1_p(landing))

    x_probe = np.linspace(0.0, 1.0, control.FINAL_PROBE_POINTS)
    probe_bnd, probe_org = backtrace_batch(T, x_probe, ctx)
    final_vals = np.where(probe_bnd, boundary_ratio(probe_org),
                          target.f0_p(np.clip(probe_org, 0.0, 1.0)))
    return boundary_ratio(np.linspace(0.0, T, l_vals.size)), final_vals


class TestOneCarryReadBack:
    """`synthesize` prints the inflow through `characteristics.xi` on an
    array of times and reads the final state back with `carry`, with the
    bits of the reference."""

    @pytest.mark.parametrize(
        "l0, l1, T, wave",
        [(0.49175, 0.50825, 1.0, 0.0), (0.495, 0.505, 0.8, 0.0), (0.49, 0.51, 1.0, 0.005)],
    )
    def test_printing_and_read_back_are_bit_identical(self, monkeypatch, l0, l1, T, wave):
        # the first case is the seed-1 control workload, a centred step of
        # 0.0165; a wave in the final profile makes the landing points count
        calls = []

        def recorded(*args):
            out = carry(*args)
            calls.append((args[0].copy(), out.copy()))
            return out

        monkeypatch.setattr(control, "carry", recorded)
        prof = SpaceProfile.constant(0.3233333333333333, 257)
        final = SpaceProfile.from_callable(lambda x: prof(x) + wave * np.sin(np.pi * x), 257)
        target = ControlTarget(l0, l1, prof, final, T, NU if wave == 0.0 else 0.05)
        report = synthesize(target, UNIT, EQ)
        r_ref, final_ref = reference_printing(report, target, UNIT)
        F_in_ref = r_ref * UNIT.rho0 * UNIT.V_eff * report.N.values
        assert report.F_in.values.tobytes() == F_in_ref.tobytes()
        [(probe_bnd, final_vals)] = calls
        # past the critical time every curve at T entered through the inlet
        assert probe_bnd.all()
        assert final_vals.tobytes() == final_ref.tobytes()
        x_probe = np.linspace(0.0, 1.0, control.FINAL_PROBE_POINTS)
        assert report.final_errors[1] == float(np.max(np.abs(final_ref - final(x_probe))))
