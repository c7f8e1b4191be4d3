import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from extrusim import wellposed
from extrusim.characteristics import TraceContext, backtrace, backtrace_times, xi_forward
from extrusim.errors import (
    CompatibilityError,
    DivergenceError,
    DomainError,
    ResolutionError,
)
from extrusim.fields import SampledFunction, SpaceProfile
from extrusim.model import PhysicalParams, eval_F, inflow_value, solve_equilibrium
from extrusim.quadrature import cumulative_integral
from extrusim.wellposed import (
    PROBE_POINTS,
    CauchyData,
    _probe_contraction,
    _resample,
    assemble_field,
    check_estimates,
    compute_delta,
    eps1_bound,
    local_fixed_point,
    solve_semiglobal,
)

UNIT = PhysicalParams()
EQ = solve_equilibrium(UNIT, N_e=1.0, l_e=0.5)


def sine_data(amp, n_profile=201, T_inputs=2.0):
    """Profile f_pe + amp*sin(pi x); inflow pinned at the equilibrium ratio.

    sin vanishes at both ends, so the corner is compatible and the outlet
    value starts from f_pe regardless of amp.
    """
    f0 = SpaceProfile.from_callable(lambda x: EQ.f_pe + amp * np.sin(np.pi * x), n_profile)
    F_in = SampledFunction.constant(EQ.f_pe * UNIT.rho0 * UNIT.V_eff * EQ.N_e, 0.0, T_inputs, 401)
    N = SampledFunction.constant(EQ.N_e, 0.0, T_inputs, 401)
    return CauchyData(float(EQ.l_e), f0, F_in, N, UNIT, EQ)


class TestCauchyData:
    def test_corner_compatibility_enforced(self):
        f0 = SpaceProfile.constant(EQ.f_pe + 0.1, 11)
        F_in = SampledFunction.constant(EQ.f_pe, 0.0, 1.0, 11)
        N = SampledFunction.constant(1.0, 0.0, 1.0, 11)
        with pytest.raises(CompatibilityError):
            CauchyData(0.5, f0, F_in, N, UNIT, EQ)

    def test_validation_can_be_deferred(self):
        f0 = SpaceProfile.constant(EQ.f_pe + 0.1, 11)
        F_in = SampledFunction.constant(EQ.f_pe, 0.0, 1.0, 11)
        N = SampledFunction.constant(1.0, 0.0, 1.0, 11)
        data = CauchyData(0.5, f0, F_in, N, UNIT, EQ, validate=False)
        assert data.f0_p.values[0] == pytest.approx(EQ.f_pe + 0.1)

    def test_interface_position_range(self):
        f0 = SpaceProfile.constant(EQ.f_pe, 11)
        F_in = SampledFunction.constant(EQ.f_pe, 0.0, 1.0, 11)
        N = SampledFunction.constant(1.0, 0.0, 1.0, 11)
        with pytest.raises(DomainError):
            CauchyData(1.5, f0, F_in, N, UNIT, EQ)

    def test_full_outlet_rejected(self):
        f0 = SpaceProfile(np.linspace(EQ.f_pe, 1.0, 11))
        F_in = SampledFunction.constant(EQ.f_pe, 0.0, 1.0, 11)
        N = SampledFunction.constant(1.0, 0.0, 1.0, 11)
        with pytest.raises(DomainError):
            CauchyData(0.5, f0, F_in, N, UNIT, EQ)


class TestEps1Bound:
    def test_unit_equilibrium(self):
        assert eps1_bound(EQ) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_symmetric_case(self):
        # K_d=2 puts the balanced ratio at 1/2, all four margins equal
        params = PhysicalParams(K_d=2.0)
        eq = solve_equilibrium(params, N_e=1.0, l_e=0.5)
        assert eq.f_pe == pytest.approx(0.5, abs=1e-15)
        assert eps1_bound(eq) == pytest.approx(0.5, abs=1e-15)

    def test_interface_near_die(self):
        params = PhysicalParams(K_d=5.0)
        eq = solve_equilibrium(params, N_e=1.0, l_e=0.9)
        assert eq.f_pe == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert eps1_bound(eq) == pytest.approx(0.1, abs=1e-15)


class TestComputeDelta:
    def test_arithmetic_of_the_four_terms(self):
        # min{1, 0.4/1.1, 0.4/2, 0.4/2} halved
        delta = compute_delta(sine_data(0.0), 0.1, 1.0, f_norm=2.0)
        assert delta == pytest.approx(0.1, abs=1e-12)

    def test_decreasing_in_radius(self):
        data = sine_data(0.0)
        d1 = compute_delta(data, 0.1, 1.0, f_norm=2.0)
        d2 = compute_delta(data, 0.2, 1.0, f_norm=2.0)
        assert d2 < d1
        # with the real box norm the denominators grow too
        assert compute_delta(data, 0.2, 1.0) < compute_delta(data, 0.1, 1.0)

    def test_horizon_binds(self):
        delta = compute_delta(sine_data(0.0), 0.1, 0.05, f_norm=2.0)
        assert delta == pytest.approx(0.025, abs=1e-12)

    def test_radius_outside_admissible_range(self):
        with pytest.raises(DomainError):
            compute_delta(sine_data(0.0), 0.5, 1.0)

    def test_coarse_inputs_rejected(self):
        f0 = SpaceProfile.constant(EQ.f_pe, 11)
        F_in = SampledFunction.constant(EQ.f_pe, 0.0, 2.0, 2)  # grid step 2.0
        N = SampledFunction.constant(1.0, 0.0, 2.0, 2)
        data = CauchyData(0.5, f0, F_in, N, UNIT, EQ)
        with pytest.raises(ResolutionError):
            compute_delta(data, 0.1, 1.0)


class TestLocalFixedPoint:
    def test_equilibrium_is_fixed(self):
        report = local_fixed_point(sine_data(0.0), 0.06)
        assert report.iterations == 1
        assert report.contraction_factors == ()
        assert report.residual <= 1e-12
        assert np.max(np.abs(report.context.l.values - EQ.l_e)) <= 1e-12
        assert np.max(np.abs(report.context.b.values - EQ.f_pe)) <= 1e-12

    def test_perturbed_contracts(self):
        report = local_fixed_point(sine_data(0.01), 0.06)
        assert report.iterations < 100
        assert all(f <= 0.5 for f in report.contraction_factors)
        assert report.residual <= 1e-10

    def test_iterate_escaping_ball_is_flagged(self):
        # data whose own deviation exceeds the radius: the outlet trace
        # leaves the ball as soon as the profile is carried to x=1
        with pytest.raises(DivergenceError):
            local_fixed_point(sine_data(0.05), 0.06, eps1=0.01)

    def test_uniqueness_of_the_fixed_point(self):
        data = sine_data(0.01)
        r1 = local_fixed_point(data, 0.06)
        r2 = local_fixed_point(data, 0.06, initial=(EQ.l_e + 0.02, EQ.f_pe - 0.02))
        assert np.max(np.abs(r1.context.l.values - r2.context.l.values)) <= 1e-9
        assert np.max(np.abs(r1.context.b.values - r2.context.b.values)) <= 1e-9


def reference_picard(data, delta, n):
    """Picard loop with one context per map and F evaluated on its own.

    Returns (iterations, factors, converged l, converged b, residual).
    """
    N_vals = data.N(np.linspace(0.0, delta, n))
    N_sf = SampledFunction(0.0, delta, N_vals)
    l_vals = np.full(n, data.l0)
    b_vals = np.full(n, float(data.f0_p.values[-1]))

    def apply_map(l_vals, b_vals):
        l_sf = SampledFunction(0.0, delta, l_vals)
        ctx = TraceContext(l_sf, N_sf, SampledFunction(0.0, delta, b_vals), UNIT)
        F_vals = np.asarray(eval_F(l_vals, N_vals, b_vals, UNIT), dtype=float)
        is_boundary, origin = backtrace_times(l_sf.grid, 1.0, ctx)
        b_new = np.where(is_boundary, data.inflow(origin), data.f0_p(origin))
        return data.l0 + cumulative_integral(F_vals, l_sf.dt), b_new

    factors, prev = [], None
    for iterations in range(1, 101):
        l_new, b_new = apply_map(l_vals, b_vals)
        dist = float(max(np.max(np.abs(l_new - l_vals)), np.max(np.abs(b_new - b_vals))))
        if prev:
            factors.append(dist / prev)
        l_vals, b_vals, prev = l_new, b_new, dist
        if dist <= 1e-11:
            l_chk, b_chk = apply_map(l_vals, b_vals)
            residual = float(max(np.max(np.abs(l_chk - l_vals)), np.max(np.abs(b_chk - b_vals))))
            return iterations, tuple(factors), l_vals, b_vals, residual
    raise AssertionError("reference loop did not converge")


class TestOneIteration:
    """The probe, the Picard loop and assembly read one sequence of maps."""

    def test_report_matches_a_reference_loop(self):
        data = sine_data(0.01)
        report = local_fixed_point(data, 0.06)
        iterations, factors, l_vals, b_vals, residual = reference_picard(data, 0.06, 257)
        assert (report.iterations, report.contraction_factors) == (iterations, factors)
        assert report.residual == residual
        # the context assembly uses holds the converged iterate itself
        np.testing.assert_array_equal(report.context.l.values, l_vals)
        np.testing.assert_array_equal(report.context.b.values, b_vals)

    def test_probe_factor_is_the_first_picard_factor(self):
        data = sine_data(0.01)
        report = local_fixed_point(data, 0.06, n_t=PROBE_POINTS)
        assert _probe_contraction(data, 0.06) == report.contraction_factors[0]

    def test_assembly_matches_a_rebuilt_context(self):
        data = sine_data(0.01)
        report = local_fixed_point(data, 0.06)
        l_sf, b_sf = report.context.l, report.context.b
        rebuilt = TraceContext(l_sf, _resample(data.N, 0.0, 0.06, l_sf.values.size), b_sf, UNIT)
        tg = np.linspace(0.0, 0.06, 13)
        xg = np.linspace(0.0, 1.0, 101)
        got = assemble_field(report, data, tg, xg)
        want = assemble_field(dataclasses.replace(report, context=rebuilt), data, tg, xg)
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.provenance, want.provenance)


class TestAssembleField:
    def test_initial_slice_is_the_datum(self):
        data = sine_data(0.01)
        report = local_fixed_point(data, 0.06)
        xg = np.linspace(0.0, 1.0, 41)
        fld = assemble_field(report, data, np.linspace(0.0, 0.06, 7), xg)
        assert np.max(np.abs(fld.values[0] - data.f0_p(xg))) == 0.0
        assert np.all(fld.provenance[0] == 0)

    def test_equilibrium_field_constant(self):
        data = sine_data(0.0)
        report = local_fixed_point(data, 0.06)
        fld = assemble_field(report, data, np.linspace(0.0, 0.06, 7), np.linspace(0.0, 1.0, 41))
        assert np.max(np.abs(fld.values - EQ.f_pe)) <= 1e-14

    def test_constancy_along_characteristics(self):
        data = sine_data(0.01)
        report = local_fixed_point(data, 0.06)
        ctx = TraceContext(
            report.context.l,
            SampledFunction.constant(EQ.N_e, 0.0, 0.06, report.context.l.values.size),
            report.context.b,
            UNIT,
        )
        rng = np.random.default_rng(5)
        xg = np.linspace(0.0, 1.0, 101)
        tg = np.linspace(0.0, 0.06, 31)
        fld = assemble_field(report, data, tg, xg)
        for _ in range(100):
            i = rng.integers(0, tg.size)
            j = rng.integers(0, xg.size)
            origin = backtrace(float(tg[i]), float(xg[j]), ctx)
            if origin.is_initial:
                datum = data.f0_p(origin.beta)
            else:
                datum = data.inflow(origin.tau)
            assert abs(fld.values[i, j] - datum) <= 1e-8


class TestSemiglobal:
    def test_equilibrium_constant_solution(self):
        sol = solve_semiglobal(sine_data(0.0), 2.0)
        assert np.max(np.abs(sol.l.values - EQ.l_e)) == 0.0
        assert np.max(np.abs(sol.field.values - EQ.f_pe)) == 0.0
        # segment count is the ceiling of horizon over the snapped interval
        dt_out = sol.field.t_grid[1] - sol.field.t_grid[0]
        cells = round(sol.reports[0].delta / dt_out)
        assert len(sol.reports) == int(np.ceil((sol.field.t_grid.size - 1) / cells))

    def test_horizon_below_contraction_interval(self):
        sol = solve_semiglobal(sine_data(0.0), 0.04, n_t=5)
        assert len(sol.reports) == 1

    def test_physical_ranges_hold(self):
        sol = solve_semiglobal(sine_data(0.02), 1.0)
        assert np.all(sol.l.values > 0.0) and np.all(sol.l.values < UNIT.L)
        assert np.all(sol.field.values >= 0.0) and np.all(sol.field.values <= 1.0)

    def test_junction_corner_compatibility(self):
        # the x=0 column must equal the inflow ratio at every output time
        data = sine_data(0.01)
        sol = solve_semiglobal(data, 1.0)
        tg = sol.field.t_grid
        expected = np.array([data.inflow(t) for t in tg[1:]])
        assert np.max(np.abs(sol.field.values[1:, 0] - expected)) <= 1e-9

    def test_provenance_tracks_the_separating_characteristic(self):
        data = sine_data(0.01)
        sol = solve_semiglobal(data, 1.0)
        nT = sol.field.t_grid.size
        ctx = TraceContext(
            sol.l,
            SampledFunction.constant(EQ.N_e, 0.0, 1.0, nT),
            SampledFunction(0.0, 1.0, sol.field.values[:, -1].copy()),
            UNIT,
        )
        dx = sol.field.x_grid[1] - sol.field.x_grid[0]
        for i, t in enumerate(sol.field.t_grid):
            sep = xi_forward(float(t), 0.0, 0.0, ctx)
            boundary = sol.field.provenance[i] == 1
            if sep >= 1.0 + dx:
                assert np.all(boundary)
            else:
                # tags must split at the separator within one cell
                for j, x in enumerate(sol.field.x_grid):
                    if x < sep - dx:
                        assert boundary[j]
                    elif x > sep + dx:
                        assert not boundary[j]


def load_tracer():
    """The perfbench tracer module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerAttribution:
    """The perfbench tracer counts probe and Picard maps by the calls of
    `backtrace_times` under `compute_delta` and `local_fixed_point`; a
    solver that stops calling it through `wellposed`'s binding zeroes them."""

    def test_every_traced_name_resolves(self):
        for layer, entries in load_tracer().TRACED.items():
            module = importlib.import_module(f"extrusim.{layer}")
            for path, _ in entries:
                target = module
                for part in path.split("."):
                    target = getattr(target, part)
                assert callable(target), f"{layer}.{path}"

    def test_one_residual_map_per_segment(self):
        tracer = load_tracer().Tracer()
        tracer.install()
        try:
            # through the module, whose binding the tracer wraps
            sol = wellposed.solve_semiglobal(sine_data(0.01), 0.3, n_t=61)
        finally:
            tracer.uninstall()
        m = tracer.layer_metrics(0, len(tracer.start))
        assert m["wellposed.segments"] == len(sol.reports) > 1
        assert m["wellposed.picard_iters"] == sum(r.iterations for r in sol.reports)
        assert m["wellposed.probe_maps"] > 0
        assert m["wellposed.picard_maps"] == m["wellposed.picard_iters"] + m["wellposed.segments"]


class TestEstimates:
    def test_equilibrium_ratios_vanish(self):
        data = sine_data(0.0)
        sol = solve_semiglobal(data, 1.0)
        audit = check_estimates(sol, data, EQ, 0.01)
        assert audit.ratio_l == 0.0
        assert audit.ratio_fp == 0.0

    def test_sup_deviation_never_exceeds_data_size(self):
        eps = 0.01
        data = sine_data(eps)
        sol = solve_semiglobal(data, 1.0)
        audit = check_estimates(sol, data, EQ, eps)
        assert audit.sup_fp_linf <= eps * (1.0 + 1e-12)

    def test_ratios_stable_under_eps_halving(self):
        audits = []
        for eps in (1e-3, 5e-4):
            data = sine_data(eps)
            sol = solve_semiglobal(data, 1.0)
            audits.append(check_estimates(sol, data, EQ, eps))
        a, b = audits
        assert abs(b.ratio_l - a.ratio_l) <= 0.1 * max(a.ratio_l, 1e-12)
        assert abs(b.ratio_fp - a.ratio_fp) <= 0.1 * a.ratio_fp
