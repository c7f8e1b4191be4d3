import dataclasses
import importlib
import re
import types
from pathlib import Path

import numpy as np
import pytest

from extrusim import characteristics, cli, model, wellposed
from extrusim.characteristics import TraceContext, backtrace, backtrace_times, xi
from extrusim.errors import (
    CompatibilityError,
    DivergenceError,
    DomainError,
    ResolutionError,
    SingularityError,
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

    @pytest.mark.parametrize("n_N", [11, 7])
    def test_inflow_ratio_must_stay_below_one(self, n_N):
        # N falls linearly from 1 to 0.2 while F_in holds the equilibrium
        # feed: the ratio passes 1 where N < f_pe, first on the node t = 0.9
        f0 = SpaceProfile.constant(EQ.f_pe, 11)
        F_in = SampledFunction.constant(EQ.f_pe, 0.0, 1.0, 11)
        N = SampledFunction(0.0, 1.0, np.linspace(1.0, 0.2, n_N))
        assert wellposed.inflow_peak(F_in, N, UNIT) == (EQ.f_pe / 0.2, 1.0)
        with pytest.raises(DomainError, match=r"^inflow ratio F_in/\(rho0\*V_eff\*N\) "
                                              r"reaches 1\.66667 at t=1; it must stay below 1$"):
            CauchyData(0.5, f0, F_in, N, UNIT, EQ)
        # a ratio of exactly 1 is rejected too, one just below it is not
        for top in (1.0, np.nextafter(1.0, 0.0)):
            F_top = SampledFunction(0.0, 1.0, np.r_[EQ.f_pe, top * np.ones(10)])
            N_one = SampledFunction.constant(1.0, 0.0, 1.0, n_N)
            assert wellposed.inflow_peak(F_top, N_one, UNIT) == (top, 0.1)
            if top == 1.0:
                with pytest.raises(DomainError, match=r"reaches 1 at t=0\.1;"):
                    CauchyData(0.5, f0, F_top, N_one, UNIT, EQ)
            else:
                CauchyData(0.5, f0, F_top, N_one, UNIT, EQ)

    def test_inflow_peak_between_unshared_nodes_lies_on_a_node(self):
        # N on 5 nodes, F_in on 4: the ratio of the two piecewise-linear
        # inputs is largest on a node of one of them
        F_in = SampledFunction(0.0, 1.0, np.array([0.30, 0.45, 0.20, 0.35]))
        N = SampledFunction(0.0, 1.0, np.array([1.0, 0.6, 1.2, 0.5, 0.9]))
        peak, t_peak = wellposed.inflow_peak(F_in, N, UNIT)
        fine = np.linspace(0.0, 1.0, 120_001)
        ratio = F_in(fine) / N(fine)
        assert peak == pytest.approx(ratio.max(), rel=1e-12)
        assert t_peak in np.union1d(F_in.grid, N.grid)


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
    l_vals = np.full(n, data.l0)
    b_vals = np.full(n, float(data.f0_p.values[-1]))

    def apply_map(l_vals, b_vals):
        ctx = TraceContext(0.0, delta, np.stack((l_vals, b_vals)), N_vals, UNIT)
        F_vals = np.asarray(eval_F(l_vals, N_vals, b_vals, UNIT), dtype=float)
        is_boundary, origin = backtrace_times(1.0, ctx)
        b_new = np.where(is_boundary, data.inflow(origin), data.f0_p(origin))
        return data.l0 + cumulative_integral(F_vals, ctx.dt), b_new

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
        rebuilt = TraceContext(0.0, 0.06, report.context.lb, data.N(report.context.l.grid), UNIT)
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
        lb = report.context.lb
        ctx = TraceContext(0.0, 0.06, lb, np.full(lb.shape[1], EQ.N_e), UNIT)
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
    @pytest.mark.parametrize("error", [DomainError, DivergenceError, SingularityError])
    @pytest.mark.parametrize(
        "stage, prefix",
        [
            ("compute_delta", r"segment 1 from t=0\.06: "),
            ("local_fixed_point", r"segment 1 on \[0\.06, 0\.12\]: "),
        ],
    )
    def test_any_error_in_a_segment_names_it(self, monkeypatch, stage, prefix, error):
        # the second segment's stage fails: the error keeps its type and its
        # cause, and gains the segment (and, past the probe, its interval)
        real = getattr(wellposed, stage)
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                raise error("stand-in")
            return real(*args)

        monkeypatch.setattr(wellposed, stage, failing)
        with pytest.raises(error, match=f"^{prefix}stand-in$") as info:
            solve_semiglobal(sine_data(0.01), 2.0)
        assert type(info.value.__cause__) is error

    def test_equilibrium_constant_solution(self):
        sol = solve_semiglobal(sine_data(0.0), 2.0)
        assert np.max(np.abs(sol.l.values - EQ.l_e)) == 0.0
        assert np.max(np.abs(sol.field.values - EQ.f_pe)) == 0.0
        # segment count is the ceiling of horizon over the snapped interval
        dt_out = sol.field.t_grid[1] - sol.field.t_grid[0]
        cells = round(sol.reports[0].delta / dt_out)
        assert len(sol.reports) == int(np.ceil((sol.field.t_grid.size - 1) / cells))

    @pytest.mark.parametrize("short, name", [("F_in", "feed rate F_in"), ("N", "screw speed N")])
    def test_horizon_past_an_input_is_refused(self, short, name):
        # one input ends at 1: past it, it would hold its last sample
        data = sine_data(0.01)
        cut = getattr(data, short)
        data = dataclasses.replace(data, **{short: SampledFunction(0.0, 1.0, cut.values[:201])})
        with pytest.raises(DomainError, match=rf"^horizon \[0, 1\.5\] runs past the {name} "
                                              r"input, sampled on \[0, 1\]$"):
            solve_semiglobal(data, 1.5)
        assert solve_semiglobal(data, 1.0).field.t_grid[-1] == 1.0

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
        lb = np.stack((sol.l.values, sol.field.values[:, -1]))
        ctx = TraceContext(0.0, 1.0, lb, np.full(nT, EQ.N_e), UNIT)
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


class TestExactProvenance:
    """A point is boundary-fed exactly when its characteristic starts below
    the inlet-corner characteristic, so the tags do not depend on the grid."""

    def test_tags_agree_at_the_shared_nodes(self):
        data = dataclasses.replace(sine_data(0.015), F_in=wavy_inflow_data(0.008, 1).F_in)
        tags = []
        for n_t in (201, 801):
            for n_x in (101, 1601):
                prov = solve_semiglobal(data, 1.0, n_t=n_t, n_x=n_x).field.provenance
                tags.append(prov[::(n_t - 1) // 200, ::(n_x - 1) // 100])
        assert 0 < tags[0].sum() < tags[0].size
        for other in tags[1:]:
            np.testing.assert_array_equal(other, tags[0])


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
        steps = wellposed._iterates(data, data.t0 + delta, PROBE_POINTS, None)
        d1 = next(steps)[3]
        if d1 <= wellposed.PICARD_TOL or next(steps)[3] / d1 <= 0.5:
            return delta
        delta *= 0.5


def reference_semiglobal(data, T, n_t, n_x=101):
    """Segment loop with two sequences per segment: the probe's and Picard's.

    Each segment probes the contraction factor on the unsnapped interval,
    snaps it down to an output node and caps it at the horizon, then starts
    a fresh Picard sequence on the snapped interval, on the run's clock.
    """
    eq = data.eq
    eps1 = eps1_radius(eq)
    f_norm = norm_F_box(UNIT, eq, eps1)
    t_grid = np.linspace(0.0, T, n_t)
    x_grid = np.linspace(0.0, 1.0, n_x)
    dt_out = t_grid[1] - t_grid[0]
    values = np.empty((n_t, n_x))
    provenance = np.zeros((n_t, n_x), dtype=bool)
    l_out = np.empty(n_t)
    reports = []
    seg_data = data
    i_lo = 0
    while i_lo < n_t - 1:
        delta_c = reference_delta(seg_data, eps1, f_norm, dt_out)
        cells = int(np.floor(delta_c / dt_out + 1e-12))
        i_hi = min(i_lo + cells, n_t - 1)
        delta = t_grid[i_hi] - t_grid[i_lo]
        report = local_fixed_point(seg_data, delta, n_t=max(i_hi - i_lo + 1, 65))
        rows = t_grid[i_lo:i_hi + 1]
        seg_vals, seg_flags, seg_orig = _assemble_rows(report.context, seg_data, rows, x_grid)
        j = np.clip(np.round(seg_orig / (x_grid[1] - x_grid[0])).astype(int), 0, n_x - 1)
        values[i_lo:i_hi + 1] = seg_vals
        provenance[i_lo:i_hi + 1] = seg_flags | provenance[i_lo][j]
        l_out[i_lo:i_hi + 1] = report.context.l(rows)
        reports.append(report)
        if i_hi < n_t - 1:
            seg_data = seg_data.restarted(float(t_grid[i_hi]),
                                          float(report.context.l(report.context.l.t_end)),
                                          SpaceProfile(values[i_hi].copy()))
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


def wavy_inflow_data(amp=0.004, freq=3):
    """sine_data(0.01) with a feed rate that varies in time, so that outlet
    origins on the inflow face carry different data; compatible at t = 0."""
    t = np.linspace(0.0, 2.0, 401)
    feed = EQ.f_pe * UNIT.rho0 * UNIT.V_eff * EQ.N_e * (1.0 + amp * np.sin(freq * np.pi * t))
    return dataclasses.replace(sine_data(0.01), F_in=SampledFunction(0.0, 2.0, feed))


def reference_datum_at(data, is_boundary, origin):
    """Datum carried along each characteristic: f0_p at beta, inflow at tau."""
    values = np.empty(origin.shape)
    for on_side, datum in ((~is_boundary, data.f0_p), (is_boundary, data.inflow)):
        # a side no characteristic came from is not evaluated
        if on_side.any():
            values[on_side] = datum(origin[on_side])
    return values


# the sim-char benchmark input of seed 1
SIM_CHAR_SEED_1 = {
    "equilibrium.N_e": "1.0",
    "equilibrium.l_e": "0.5",
    "data.l0": "0.5",
    "data.f0_p": "sine-perturbation:eq,0.01",
    "data.F_in": "sine-perturbation:eq,0.0,2",
    "data.N": "constant:eq",
    "numerics.dt": "0.005",
    "numerics.dx": "0.01",
    "mode.T": "1.0",
    "mode.method": "characteristics",
}


class TestOneCarry:
    """Maps and assembly carry the datum with `characteristics.carry`, with
    the bits of the masked reference."""

    def test_seed_1_sim_char_solve(self, tmp_path, monkeypatch):
        calls = []

        def recorded(is_boundary, origin, initial, inflow):
            out = characteristics.carry(is_boundary, origin, initial, inflow)
            calls.append((is_boundary.copy(), origin.copy(), initial, inflow.__self__, out.copy()))
            return out

        monkeypatch.setattr(wellposed, "carry", recorded)
        mapping = dict(SIM_CHAR_SEED_1, **{"mode.out": str(tmp_path / "out")})
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
        assert cli.run(["simulate", str(cfg)]) == 0
        maps = [call for call in calls if call[1].ndim == 1]
        rows = [call for call in calls if call[1].ndim == 2]
        assert len(maps) > 100 and len(rows) > 10
        for is_boundary, origin, initial, data, out in calls:
            assert initial is data.f0_p
            assert out.tobytes() == reference_datum_at(data, is_boundary, origin).tobytes()
        # a segment is shorter than the outlet transit time, so only the
        # rows reach the inflow face (the maps' inflow face is
        # `TestOnePassMap`'s long-interval case)
        assert not any(call[0].any() for call in maps)
        assert all(call[0].any() and not call[0].all() for call in rows)


def reference_iterates(data, t_end, n, initial):
    """The solution map before it ran as one pass over node arrays, kept as
    the bit-for-bit reference: per map two `SampledFunction`s and a context
    built from them, separate 1-d running integrals, and the datum by masks.
    The maps run on [data.t0, t_end] and read N at their node times.
    Yields (ctx, l_next, b_next, dist)."""
    if initial is None:
        initial = (data.l0, float(data.f0_p.values[-1]))
    t0 = data.t0
    N_sf = SampledFunction(t0, t_end, data.N(np.linspace(t0, t_end, n)))
    # every iterate lives on the grid of N_sf
    dt = N_sf.dt
    l_vals = np.full(n, float(initial[0]))
    b_vals = np.full(n, float(initial[1]))
    while True:
        ctx = TraceContext(t0, t_end, np.stack((l_vals, b_vals)), N_sf.values, data.params)
        l_next = data.l0 + cumulative_integral(ctx._F_nodes, dt)
        is_boundary, origin = backtrace_times(1.0, ctx)
        b_next = reference_datum_at(data, is_boundary, origin)
        dist = float(max(np.abs(l_next - l_vals).max(), np.abs(b_next - b_vals).max()))
        yield ctx, l_next, b_next, dist
        l_vals, b_vals = l_next, b_next


def reference_steps(data, t_end, n, initial):
    """`reference_iterates` in the form `_iterates` yields, with the eps1-ball
    distance taken per trace, as `local_fixed_point` took it."""
    eq = data.eq
    for ctx, l_next, b_next, dist in reference_iterates(data, t_end, n, initial):
        deviation = max(np.abs(l_next - eq.l_e).max(), np.abs(b_next - eq.f_pe).max())
        yield ctx, np.stack((l_next, b_next)), float(deviation), dist


def reference_PQ_nodes(l, N, b, dt):
    """P and Q at the nodes, each integrated alone from F evaluated on its own."""
    P = cumulative_integral(np.asarray(eval_F(l, N, b, UNIT)) / l, dt)
    return P, cumulative_integral(UNIT.zeta * N / l * np.exp(P), dt)


MAP_CASES = {
    # a probe-sized interval: every outlet origin on the initial axis
    "short": (sine_data(0.01), 0.06, 65, None),
    # outlet origins past t = 0.5 on the inflow face, with a varying feed
    "inflow-face": (wavy_inflow_data(), 0.6, 65, None),
    "long": (wavy_inflow_data(0.008, 2), 0.8, 129, None),
    "given-start": (sine_data(0.02), 0.3, 33, (EQ.l_e + 0.01, EQ.f_pe - 0.01)),
}


class TestOnePassMap:
    """The map as one pass over node arrays reproduces the map it replaced
    bit for bit, and raises each error of a trace context as it did."""

    @pytest.mark.parametrize("case", MAP_CASES)
    def test_iterates_are_bit_identical(self, case):
        data, delta, n, initial = MAP_CASES[case]
        got = wellposed._iterates(data, delta, n, initial)
        want = reference_iterates(data, delta, n, initial)
        inflow_face = False
        for _ in range(8):
            ctx, block, deviation, dist = next(got)
            ref_ctx, l_next, b_next, ref_dist = next(want)
            assert block.shape == (2, n)
            assert block[0].tobytes() == l_next.tobytes()
            assert block[1].tobytes() == b_next.tobytes()
            assert dist == ref_dist
            assert deviation == max(np.abs(l_next - EQ.l_e).max(), np.abs(b_next - EQ.f_pe).max())
            P, Q = reference_PQ_nodes(ref_ctx.l.values, ref_ctx.N.values, ref_ctx.b.values, ctx.dt)
            for nodes in (ctx._P_nodes, ctx._P.nodes, ref_ctx._P.nodes):
                assert nodes.tobytes() == P.tobytes()
            for nodes in (ctx._Q_nodes, ctx._Q.nodes, ref_ctx._Q.nodes):
                assert nodes.tobytes() == Q.tobytes()
            # the lazily built views hold the iterate and the resampled N
            assert ctx.l.values.tobytes() == ref_ctx.l.values.tobytes()
            assert ctx.b.values.tobytes() == ref_ctx.b.values.tobytes()
            assert ctx.N.values.tobytes() == ref_ctx.N.values.tobytes()
            inflow_face |= bool(backtrace_times(1.0, ctx)[0].any())
        assert inflow_face == (delta > 0.5)

    @pytest.mark.parametrize("case", MAP_CASES)
    def test_report_is_bit_identical(self, case, monkeypatch):
        data, delta, n, initial = MAP_CASES[case]
        report = local_fixed_point(data, delta, n, initial)
        monkeypatch.setattr(wellposed, "_iterates", reference_steps)
        want = local_fixed_point(data, delta, n, initial)
        assert report.iterations == want.iterations
        assert report.contraction_factors == want.contraction_factors
        assert report.residual == want.residual
        for name in ("_P_nodes", "_Q_nodes", "_F_nodes"):
            assert getattr(report.context, name).tobytes() == getattr(want.context, name).tobytes()
        assert report.context.lb.tobytes() == want.context.lb.tobytes()

    @pytest.mark.parametrize("data, T", [(sine_data(0.01), 1.0), (wavy_inflow_data(), 2.0)])
    def test_solution_is_bit_identical(self, data, T, monkeypatch):
        sol = solve_semiglobal(data, T)
        monkeypatch.setattr(wellposed, "_iterates", reference_steps)
        want = solve_semiglobal(data, T)
        assert sol.l.values.tobytes() == want.l.values.tobytes()
        assert sol.field.values.tobytes() == want.field.values.tobytes()
        assert np.array_equal(sol.field.provenance, want.field.provenance)
        assert len(sol.reports) == len(want.reports) > 1
        for got, ref in zip(sol.reports, want.reports):
            assert (got.delta, got.iterations, got.contraction_factors, got.residual) == (
                ref.delta, ref.iterations, ref.contraction_factors, ref.residual
            )

    @staticmethod
    def error_case(name):
        """(data, delta, n, initial) whose first map fails in its context."""
        data = sine_data(0.0)
        if name == "interface":
            return data, 0.06, 65, (UNIT.L, EQ.f_pe)
        if name == "die ratio":
            return data, 0.06, 65, (EQ.l_e, 1.0)
        if name == "screw speed":
            # CauchyData rejects such an N, so it is put in past the check
            N = np.ones(401)
            N[2:5] = 0.0
            object.__setattr__(data, "N", SampledFunction(0.0, 2.0, N))
            return data, 0.06, 65, None
        if name == "transport speed":
            # with K_d = 1e20 and b = 0 the die balance rounds to g = zeta
            return dataclasses.replace(data, params=PhysicalParams(K_d=1e20)), 0.06, 65, (0.5, 0.0)
        # N jumps 1 -> 30 at node 40 of 101: Q decreases on cell 38
        N = np.ones(101)
        N[40:] = 30.0
        return dataclasses.replace(data, N=SampledFunction(0.0, 1.0, N)), 1.0, 101, (EQ.l_e, EQ.f_pe)

    @pytest.mark.parametrize(
        "name, error, message",
        [
            ("interface", DomainError, "interface trace must stay inside (0, L)"),
            ("die ratio", DomainError, "die ratio trace must stay inside [0, 1)"),
            ("screw speed", DomainError, "screw speed trace must stay positive"),
            ("transport speed", DomainError, "transport speed must stay positive up to x=1"),
            ("Q", DivergenceError, "Q is not monotone on the cell at t=0.38: "),
        ],
    )
    def test_each_context_error_is_raised(self, name, error, message):
        data, delta, n, initial = self.error_case(name)
        with pytest.raises(error) as want:
            next(reference_iterates(data, delta, n, initial))
        assert str(want.value).startswith(message)
        pattern = f"^{re.escape(str(want.value))}$"
        with pytest.raises(error, match=pattern):
            next(wellposed._iterates(data, delta, n, initial))
        with pytest.raises(error, match=pattern):
            local_fixed_point(data, delta, n, initial)


class TestJunctionRows:
    """Past segment 0 assembly starts one row after the junction: the row it
    would rewrite is the stored junction row, bit for bit (xi(t_lo; t_lo, x)
    = x, and the junction profile is read at its own nodes).  The whole
    solution against the full-row assembly is
    `test_matches_the_two_sequence_loop`."""

    @pytest.mark.parametrize("data", [sine_data(0.01), wavy_inflow_data()])
    def test_skipped_row_is_the_stored_row(self, data, monkeypatch):
        calls = []
        assemble = wellposed._assemble_rows

        def recorded(ctx, seg_data, t_rows, x_grid):
            calls.append((ctx, seg_data, np.array(t_rows)))
            return assemble(ctx, seg_data, t_rows, x_grid)

        monkeypatch.setattr(wellposed, "_assemble_rows", recorded)
        sol = solve_semiglobal(data, 2.0)
        tg, xg = sol.field.t_grid, sol.field.x_grid
        assert len(calls) == len(sol.reports) > 1
        i_lo = 0
        for k, (ctx, seg_data, rows) in enumerate(calls):
            cells = round(sol.reports[k].delta / (tg[1] - tg[0]))
            # rows, context and data are on the run's clock
            assert rows.tobytes() == tg[i_lo + int(k > 0):i_lo + cells + 1].tobytes()
            assert (seg_data.t0, ctx.t_start, ctx.t_end) == (tg[i_lo], tg[i_lo], tg[i_lo + cells])
            # the full-row assembly's first row: its characteristics start at
            # their own nodes, on the initial axis
            vals, flags, orig = assemble(ctx, seg_data, tg[i_lo:i_lo + 1], xg)
            assert vals[0].tobytes() == sol.field.values[i_lo].tobytes()
            assert not flags[0].any() and orig[0].tobytes() == xg.tobytes()
            assert ctx.l(tg[i_lo]) == sol.l.values[i_lo]
            i_lo += cells
        assert i_lo == tg.size - 1


def varying_run_data(n=11):
    """Data on [0, 1] whose F_in and N share one n-node grid and vary in
    time; the inflow ratio is f_pe*(1 + 0.3 t), compatible at t = 0."""
    t = np.linspace(0.0, 1.0, n)
    N = EQ.N_e * (1.0 + 0.1 * t)
    feed = EQ.f_pe * UNIT.rho0 * UNIT.V_eff * N * (1.0 + 0.3 * t)
    return CauchyData(0.5, SpaceProfile.constant(EQ.f_pe, 11),
                      SampledFunction(0.0, 1.0, feed), SampledFunction(0.0, 1.0, N), UNIT, EQ)


class TestRerooted:
    """The data a junction re-roots on (`CauchyData.restarted`): the run's
    inputs and a later start, with only the start checks, each with the
    message of a full construction; the corner is read at the junction time."""

    def test_inputs_are_the_stored_samples(self):
        run = varying_run_data()
        profile = SpaceProfile.constant(run.inflow(0.4), 11)
        seg = run.restarted(0.4, 0.45, profile)
        assert seg.F_in is run.F_in and seg.N is run.N
        assert (seg.t0, seg.l0, seg.f0_p, seg.params, seg.eq) == (0.4, 0.45, profile, UNIT, EQ)
        # the run's data keep their start
        assert (run.t0, run.l0) == (0.0, 0.5)

    def test_full_outlet_rejected(self):
        full_outlet = SpaceProfile(np.linspace(EQ.f_pe, 1.0, 11))
        with pytest.raises(DomainError, match=r"^initial profile must take values in "
                                              r"\[0,1\] with f0_p\(1\) < 1$"):
            varying_run_data().restarted(0.4, 0.5, full_outlet)

    def test_corner_mismatch_rejected(self):
        # the inflow ratio at t = 0.4 is f_pe*1.12 = 0.37333
        with pytest.raises(CompatibilityError, match=r"^corner compatibility violated: "
                                                     r"inflow 0\.37333\d* vs profile 0\.33333"):
            varying_run_data().restarted(0.4, 0.5, SpaceProfile.constant(EQ.f_pe, 11))

    @pytest.mark.parametrize("l", [0.0, 1.0, -0.25, 1.5])
    def test_interface_outside_the_zone_rejected(self, l):
        run = varying_run_data()
        with pytest.raises(DomainError, match=rf"^l0={l} outside \(0, L=1\.0\)$"):
            run.restarted(0.4, l, SpaceProfile.constant(run.inflow(0.4), 11))

    def test_inputs_on_two_grids_are_read_at_the_junction_time(self):
        # N on 6 nodes and F_in on 11: t = 0.35 is a node of neither
        run = varying_run_data()
        coarse = dataclasses.replace(run, N=SampledFunction.constant(EQ.N_e, 0.0, 1.0, 6))
        ratio = float(coarse.F_in(0.35)) / (UNIT.rho0 * UNIT.V_eff * EQ.N_e)
        assert coarse.restarted(0.35, 0.5, SpaceProfile.constant(ratio, 11)).t0 == 0.35
        with pytest.raises(CompatibilityError, match=f"inflow {ratio:.12g} vs"):
            coarse.restarted(0.35, 0.5, SpaceProfile.constant(EQ.f_pe, 11))

    @pytest.mark.parametrize("data", [sine_data(0.01), wavy_inflow_data()])
    def test_inflow_peak_runs_once_per_solve(self, data, monkeypatch):
        # once when the caller builds the data, never inside the solve
        calls = []
        peak = model.inflow_peak

        def counted(F_in, N, params):
            calls.append(F_in.values.size)
            return peak(F_in, N, params)

        monkeypatch.setattr(model, "inflow_peak", counted)
        data = dataclasses.replace(data)
        assert calls == [401]
        sol = solve_semiglobal(data, 1.0)
        assert len(sol.reports) > 1
        assert calls == [401]


def fine_input_data(N_of_t, T=1.0, n=2049):
    """sine_data(0.01) with N = N_of_t(t) sampled on n nodes of [0, T] and
    the feed that keeps the inflow ratio at f_pe."""
    t = np.linspace(0.0, T, n)
    N = N_of_t(t)
    feed = EQ.f_pe * UNIT.rho0 * UNIT.V_eff * N
    return dataclasses.replace(sine_data(0.01), F_in=SampledFunction(0.0, T, feed),
                               N=SampledFunction(0.0, T, N))


class TestRunClock:
    """Every segment runs on the run's clock and reads the inputs at run times."""

    def test_segment_contexts_read_N_at_their_node_times(self):
        data = fine_input_data(lambda t: EQ.N_e * (1.0 + 0.002 * np.sin(3.0 * np.pi * t)))
        sol = solve_semiglobal(data, 1.0, n_t=101)
        tg = sol.field.t_grid
        assert len(sol.reports) > 2
        i_lo = 0
        for report in sol.reports:
            ctx = report.context
            i_hi = i_lo + round(report.delta / (tg[1] - tg[0]))
            assert (ctx.t_start, ctx.t_end) == (tg[i_lo], tg[i_hi])
            assert ctx.N_nodes.tobytes() == data.N(ctx.l.grid).tobytes()
            i_lo = i_hi

    def test_range_error_in_segment_2_names_a_run_time(self):
        # N jumps from 1 to 1000 after t = 0.125, inside segment 2, [0.12, 0.18]:
        # the probe's second map drives the interface out of (0, L)
        data = fine_input_data(lambda t: np.where(t <= 0.125, 1.0, 1000.0), T=2.0, n=201)
        with pytest.raises(DomainError, match=r"^segment 2 from t=0\.12: interface trace "
                                              r"must stay inside \(0, L\): ") as info:
            solve_semiglobal(data, 2.0)
        t = float(re.search(r"at t=(\S+)$", str(info.value)).group(1))
        assert 0.12 <= t <= 0.18


def load_tracer():
    """The perfbench tracer module, compiled from its source text: nothing
    under perfbench/ is written, not even a bytecode cache."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
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

    def test_traced_names_are_where_install_reads_them(self):
        # install wraps owner.__dict__[attr] of each TRACED entry, so a name
        # that a refactor drops, inherits or moves fails here, not in a
        # traced benchmark run
        tracer = load_tracer().Tracer()
        targets = list(tracer._targets())
        assert len(targets) == len(tracer.names)
        originals = {}
        for name, (home, owner, attr, _) in zip(tracer.names, targets):
            assert home.__name__ == f"extrusim.{name.partition('.')[0]}", name
            assert callable(owner.__dict__.get(attr)), name
            originals[name] = owner.__dict__[attr]
        # the maps are counted by backtrace_times under wellposed's binding
        assert wellposed.backtrace_times is characteristics.backtrace_times
        tracer.install()
        try:
            assert wellposed.backtrace_times is characteristics.backtrace_times
            assert wellposed.backtrace_times is not originals["characteristics.backtrace_times"]
        finally:
            tracer.uninstall()
        for name, (_, owner, attr, _) in zip(tracer.names, targets):
            assert owner.__dict__[attr] is originals[name], name

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
