import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from extrusim import wellposed
from extrusim.characteristics import TraceContext, backtrace, backtrace_times, xi
from extrusim.errors import (
    CompatibilityError,
    DivergenceError,
    DomainError,
    ResolutionError,
)
from extrusim.fields import SampledFunction, SpaceProfile
from extrusim.model import (
    PhysicalParams,
    eps1_bound,
    eps1_radius,
    eval_F,
    inflow_value,
    norm_F_box,
    solve_equilibrium,
)
from extrusim.quadrature import cumulative_integral
from extrusim.wellposed import (
    PROBE_POINTS,
    CauchyData,
    _assemble_rows,
    _resample,
    check_estimates,
    compute_delta,
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

    def test_working_radius_is_a_third(self):
        # the radius every solver uses, to the bit
        for eq in (EQ, solve_equilibrium(PhysicalParams(K_d=5.0), N_e=1.0, l_e=0.9)):
            assert eps1_radius(eq) == eps1_bound(eq) / 3.0


class TestComputeDelta:
    def test_arithmetic_of_the_three_terms(self):
        ends = np.linspace(0.0, 1.0, 100_001)
        for f_norm, half_min in (
            # eps1 = 1/9: min{(7/18)/(10/9), (7/18)/2, (7/18)/2} halved
            (2.0, 7.0 / 72.0),
            # the boundary-characteristic travel time binds: 0.35 halved
            (0.5, 0.175),
        ):
            delta = compute_delta(sine_data(0.0), f_norm, ends, 1e-5).delta
            assert delta == ends[int(np.floor(half_min / 1e-5 + 1e-12))]
            assert delta == pytest.approx(half_min, abs=1e-5)

    def test_horizon_binds(self):
        # the last node of ends caps the interval: six nodes 0.005 apart
        ends = np.linspace(0.0, 0.025, 6)
        probe = compute_delta(sine_data(0.0), 2.0, ends, 0.005)
        assert (probe.delta, probe.cells) == (0.025, 5)

    def test_coarse_inputs_rejected(self):
        f0 = SpaceProfile.constant(EQ.f_pe, 11)
        F_in = SampledFunction.constant(EQ.f_pe, 0.0, 2.0, 2)  # grid step 2.0
        N = SampledFunction.constant(1.0, 0.0, 2.0, 2)
        data = CauchyData(0.5, f0, F_in, N, UNIT, EQ)
        f_norm = norm_F_box(UNIT, EQ, eps1_radius(EQ))
        with pytest.raises(ResolutionError, match="fell below the grid step 2"):
            compute_delta(data, f_norm, data.N.grid, data.N.dt)


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
        # an interface 0.12 from l_e starts outside the ball of radius 1/9,
        # so the first iterate, which keeps l(0) = l0, leaves it
        data = dataclasses.replace(sine_data(0.01), l0=0.62)
        with pytest.raises(DivergenceError, match="iterate 1 left the eps1=0.111 ball"):
            local_fixed_point(data, 0.06)

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
        is_boundary, origin = backtrace_times(1.0, ctx)
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
        ends = np.linspace(0.0, 0.06, 13)
        probe = compute_delta(data, norm_F_box(UNIT, EQ, eps1_radius(EQ)), ends, 0.005)
        assert probe.cells + 1 <= PROBE_POINTS
        report = local_fixed_point(data, probe)
        assert probe.factor == report.contraction_factors[0]

    def test_assembly_matches_a_rebuilt_context(self):
        data = sine_data(0.01)
        report = local_fixed_point(data, 0.06)
        l_sf, b_sf = report.context.l, report.context.b
        rebuilt = TraceContext(l_sf, _resample(data.N, 0.0, 0.06, l_sf.values.size), b_sf, UNIT)
        tg = np.linspace(0.0, 0.06, 13)
        xg = np.linspace(0.0, 1.0, 101)
        got = _assemble_rows(report.context, data, tg, xg)
        want = _assemble_rows(rebuilt, data, tg, xg)
        for got_part, want_part in zip(got, want, strict=True):
            np.testing.assert_array_equal(got_part, want_part)


class TestAssembleField:
    def test_initial_slice_is_the_datum(self):
        data = sine_data(0.01)
        report = local_fixed_point(data, 0.06)
        xg = np.linspace(0.0, 1.0, 41)
        values, is_boundary, _ = _assemble_rows(
            report.context, data, np.linspace(0.0, 0.06, 7), xg
        )
        assert np.max(np.abs(values[0] - data.f0_p(xg))) == 0.0
        assert not is_boundary[0].any()

    def test_equilibrium_field_constant(self):
        data = sine_data(0.0)
        report = local_fixed_point(data, 0.06)
        values, _, _ = _assemble_rows(
            report.context, data, np.linspace(0.0, 0.06, 7), np.linspace(0.0, 1.0, 41)
        )
        assert np.max(np.abs(values - EQ.f_pe)) <= 1e-14

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
        values, _, _ = _assemble_rows(report.context, data, tg, xg)
        for _ in range(100):
            i = rng.integers(0, tg.size)
            j = rng.integers(0, xg.size)
            origin = backtrace(float(tg[i]), float(xg[j]), ctx)
            if origin.is_initial:
                datum = data.f0_p(origin.beta)
            else:
                datum = data.inflow(origin.tau)
            assert abs(values[i, j] - datum) <= 1e-8


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
            sep = xi(float(t), 0.0, 0.0, ctx)
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


def reference_delta(data, eps1, f_norm, step):
    """Contraction interval probed on PROBE_POINTS nodes of the unsnapped candidate."""
    eq = data.eq
    terms = (
        (eq.l_e - eps1) / (UNIT.zeta * (eq.N_e + eps1)),
        (eq.l_e - eps1) / f_norm,
        (UNIT.L - eq.l_e - eps1) / f_norm,
    )
    delta = wellposed.DELTA_SAFETY * min(terms)
    while True:
        assert delta >= step - 1e-12
        steps = wellposed._iterates(data, delta, PROBE_POINTS, None)
        d1 = next(steps)[3]
        if d1 <= wellposed.PICARD_TOL or next(steps)[3] / d1 <= 0.5:
            return delta
        delta *= 0.5


def reference_semiglobal(data, T, n_t, n_x=101):
    """Segment loop with two sequences per segment: the probe's and Picard's.

    Each segment probes the contraction factor on the unsnapped interval,
    snaps it down to an output node and caps it at the horizon, then starts
    a fresh Picard sequence on the snapped interval.
    """
    eq = data.eq
    eps1 = eps1_radius(eq)
    f_norm = norm_F_box(UNIT, eq, eps1)
    t_grid = np.linspace(0.0, T, n_t)
    x_grid = np.linspace(0.0, 1.0, n_x)
    dt_out = t_grid[1] - t_grid[0]
    F_in_g = _resample(data.F_in, 0.0, T, n_t)
    N_g = _resample(data.N, 0.0, T, n_t)
    values = np.empty((n_t, n_x))
    provenance = np.zeros((n_t, n_x), dtype=bool)
    l_out = np.empty(n_t)
    reports = []
    seg_data = CauchyData(data.l0, data.f0_p, F_in_g, N_g, UNIT, eq)
    i_lo = 0
    while i_lo < n_t - 1:
        delta_c = reference_delta(seg_data, eps1, f_norm, dt_out)
        cells = int(np.floor(delta_c / dt_out + 1e-12))
        i_hi = min(i_lo + cells, n_t - 1)
        delta = t_grid[i_hi] - t_grid[i_lo]
        report = local_fixed_point(seg_data, delta, n_t=max(i_hi - i_lo + 1, 65))
        rows = t_grid[i_lo:i_hi + 1] - t_grid[i_lo]
        seg_vals, seg_flags, seg_orig = _assemble_rows(report.context, seg_data, rows, x_grid)
        j = np.clip(np.round(seg_orig / (x_grid[1] - x_grid[0])).astype(int), 0, n_x - 1)
        values[i_lo:i_hi + 1] = seg_vals
        provenance[i_lo:i_hi + 1] = seg_flags | provenance[i_lo][j]
        l_out[i_lo:i_hi + 1] = report.context.l(rows)
        reports.append(report)
        if i_hi < n_t - 1:
            seg_data = CauchyData(
                float(report.context.l(report.context.l.t_end)),
                SpaceProfile(values[i_hi].copy()),
                SampledFunction(0.0, T - t_grid[i_hi], F_in_g.values[i_hi:]),
                SampledFunction(0.0, T - t_grid[i_hi], N_g.values[i_hi:]),
                UNIT,
                eq,
            )
        i_lo = i_hi
    return l_out, values, provenance, reports


class TestOneSequencePerSegment:
    """The probe's maps are the first Picard maps of each segment."""

    @pytest.mark.parametrize("T, n_t", [(1.0, 201), (0.3, 61)])
    def test_matches_the_two_sequence_loop(self, T, n_t):
        data = sine_data(0.01)
        sol = solve_semiglobal(data, T, n_t=n_t)
        l_out, values, provenance, reports = reference_semiglobal(data, T, n_t)
        np.testing.assert_array_equal(sol.l.values, l_out)
        np.testing.assert_array_equal(sol.field.values, values)
        np.testing.assert_array_equal(sol.field.provenance, provenance)
        assert len(sol.reports) == len(reports) > 1
        for got, want in zip(sol.reports, reports):
            assert got.delta == want.delta
            assert got.iterations == want.iterations
            assert got.contraction_factors == want.contraction_factors
            assert got.residual == want.residual
        # the last segment is cut at the horizon at T = 1; 0.3 is five whole ones
        assert (sol.reports[-1].delta < sol.reports[0].delta) == (T == 1.0)

    def test_each_segment_costs_its_iterations_plus_one_map(self, monkeypatch):
        maps, marks = [0], []
        solve_times, delta_of = wellposed.backtrace_times, wellposed.compute_delta

        def counted(*args, **kwargs):
            maps[0] += 1
            return solve_times(*args, **kwargs)

        def marked(*args, **kwargs):
            marks.append(maps[0])
            return delta_of(*args, **kwargs)

        monkeypatch.setattr(wellposed, "backtrace_times", counted)
        monkeypatch.setattr(wellposed, "compute_delta", marked)
        sol = wellposed.solve_semiglobal(sine_data(0.01), 0.3, n_t=61)
        per_segment = np.diff(marks + [maps[0]])
        assert len(sol.reports) > 1
        assert list(per_segment) == [r.iterations + 1 for r in sol.reports]

    def test_halving_hands_on_the_accepted_probe(self, monkeypatch):
        probes, sequences = [], []
        delta_of, iterates = wellposed.compute_delta, wellposed._iterates

        def recorded(*args, **kwargs):
            probes.append(delta_of(*args, **kwargs))
            return probes[-1]

        def started(data, delta, n, initial):
            sequences.append(delta)
            return iterates(data, delta, n, initial)

        # on sine_data(0.05) the first candidate, 0.516, snaps to 0.515 and
        # fails the probe; its half, 0.258, snaps to 0.255 and passes
        monkeypatch.setattr(wellposed, "DELTA_SAFETY", 4.3)
        monkeypatch.setattr(wellposed, "compute_delta", recorded)
        monkeypatch.setattr(wellposed, "_iterates", started)
        sol = wellposed.solve_semiglobal(sine_data(0.05), 1.0)
        assert sequences[:2] == [0.515, 0.255]
        assert len(sequences) > len(sol.reports)
        t_grid = sol.field.t_grid
        assert sol.reports[0].delta == t_grid[probes[0].cells] - t_grid[0] == 0.255
        for probe, report in zip(probes, sol.reports, strict=True):
            assert report.delta == probe.delta
            assert probe.factor <= 0.5
            assert report.contraction_factors[0] == probe.factor


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
        # the probe's two maps are the first Picard maps: no map runs twice
        assert m["wellposed.probe_maps"] == 2 * m["wellposed.segments"]
        assert (
            m["wellposed.probe_maps"] + m["wellposed.picard_maps"]
            == m["wellposed.picard_iters"] + m["wellposed.segments"]
        )


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
