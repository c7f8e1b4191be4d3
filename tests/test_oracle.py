import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extrusim.control import ControlTarget, synthesize
from extrusim.errors import DomainError, SchemeError
from extrusim.fields import SampledFunction, SolutionField, SpaceProfile
from extrusim import model, oracle
from extrusim.model import (
    PhysicalParams,
    eps1_bound,
    eval_alpha_p,
    eval_F,
    inflow_value,
    solve_equilibrium,
    transport_speed,
)
from extrusim.oracle import (
    MAX_PRINCIPLE_SLACK,
    RESAMPLE_BLOCK_ROWS,
    UpwindConfig,
    convergence_study,
    resample_rows,
    simulate_upwind,
    upwind_step_estimate,
)
from extrusim.wellposed import CauchyData, solve_semiglobal

UNIT = PhysicalParams()
EQ = solve_equilibrium(UNIT, N_e=1.0, l_e=0.5)


def make_data(profile_fn, n=201, T_inputs=0.6):
    f0 = SpaceProfile.from_callable(profile_fn, n)
    N = SampledFunction.constant(EQ.N_e, 0.0, T_inputs, 121)
    F_in = SampledFunction.constant(
        EQ.f_pe * UNIT.rho0 * UNIT.V_eff * EQ.N_e, 0.0, T_inputs, 121
    )
    return CauchyData(EQ.l_e, f0, F_in, N, UNIT, EQ)


def smooth_bump(x):
    """C1 bump on [0.2, 0.8]; flat near both ends of the channel."""
    z = np.asarray(x, float)
    s = np.clip((z - 0.2) / 0.6, 0.0, 1.0)
    return np.where((z >= 0.2) & (z < 0.8), np.sin(np.pi * s) ** 2, 0.0)


def reference_simulate_upwind(data, T, cfg):
    """The march with per-step copies, flag masks and two F evaluations a
    step, kept as the bit-level reference; also says whether it resampled."""
    params = data.params
    x = np.linspace(0.0, 1.0, cfg.n_nodes)
    f = np.asarray(data.f0_p(x), dtype=float)
    l = float(data.l0)
    bnd = x == 0.0
    t = 0.0
    rows, flags, ts, ls = [f.copy()], [bnd.copy()], [0.0], [l]
    lo = float(min(f.min(), data.inflow(0.0)))
    hi = float(max(f.max(), data.inflow(0.0)))
    while t < T - 1e-12 * T:
        N_now = float(data.N(t))
        b_out = float(f[-1])
        alpha = np.asarray(eval_alpha_p(x, N_now, l, b_out, params), dtype=float)
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise SchemeError("transport speed lost positivity; upwinding is invalid")
        dt = min(oracle.CFL * cfg.dx / float(alpha.max()), T - t)
        if dt < 1e-14 * max(T, 1.0):
            raise SchemeError(f"CFL time step collapsed at t={t:.6g}")
        lam = dt / cfg.dx * alpha[1:]
        f_new = np.empty_like(f)
        f_new[1:] = f[1:] - lam * (f[1:] - f[:-1])
        if f_new[1:].min() < lo - MAX_PRINCIPLE_SLACK or f_new[1:].max() > hi + MAX_PRINCIPLE_SLACK:
            raise SchemeError("discrete maximum principle violated")
        l += dt * float(eval_F(l, N_now, b_out, params))
        if not (0.0 < l < params.L):
            raise SchemeError(f"interface position {l:.6g} left (0, L)")
        t += dt
        f_new[0] = float(inflow_value(float(data.F_in(t)), float(data.N(t)), params))
        lo = min(lo, f_new[0])
        hi = max(hi, f_new[0])
        bnd = np.concatenate(([True], bnd[1:] | bnd[:-1]))
        f = f_new
        rows.append(f.copy())
        flags.append(bnd.copy())
        ts.append(t)
        ls.append(l)
    ts = np.asarray(ts)
    values = np.asarray(rows)
    prov = np.asarray(flags)
    l_vals = np.asarray(ls)
    t_grid = np.linspace(0.0, T, ts.size)
    dts = np.diff(ts)
    resampled = bool(np.max(dts) - np.min(dts) > 1e-9 * np.mean(dts))
    if resampled:
        values = np.stack([np.interp(t_grid, ts, values[:, j]) for j in range(x.size)], axis=1)
        l_vals = np.interp(t_grid, ts, l_vals)
        nearest = np.clip(np.searchsorted(ts, t_grid), 0, ts.size - 1)
        prov = prov[nearest]
    field = SolutionField(t_grid, x, values, prov.astype(np.uint8))
    return (SampledFunction(0.0, T, l_vals), field), resampled


def sine_feed_data(f0_amp, fin_amp, freq, T, n=101, n_amp=0.0):
    """Sine profile, feed and screw speed around the equilibrium, corner-compatible."""
    feed = EQ.f_pe * UNIT.rho0 * UNIT.V_eff * EQ.N_e
    f0 = SpaceProfile(EQ.f_pe + f0_amp * np.sin(np.pi * np.linspace(0.0, 1.0, n)))
    tt = np.linspace(0.0, 1.0, 201)
    F_in = SampledFunction(0.0, T, feed + fin_amp * np.sin(freq * np.pi * tt))
    N = SampledFunction(0.0, T, EQ.N_e + n_amp * np.sin(np.pi * tt))
    return CauchyData(EQ.l_e, f0, F_in, N, UNIT, EQ)


class TestUpwindConfig:
    def test_dx_must_divide_unit_interval(self):
        with pytest.raises(DomainError):
            UpwindConfig(dx=0.03)
        with pytest.raises(DomainError):
            UpwindConfig(dx=-0.1)
        assert UpwindConfig(dx=0.02).n_nodes == 51


class TestSimulateUpwind:
    def test_equilibrium_is_a_discrete_steady_state(self):
        data = make_data(lambda x: EQ.f_pe + 0.0 * np.asarray(x, float))
        l_trace, field = simulate_upwind(data, 0.3, UpwindConfig(dx=0.02))
        assert np.max(np.abs(field.values - EQ.f_pe)) == 0.0
        assert np.max(np.abs(l_trace.values - EQ.l_e)) == 0.0

    def test_unit_courant_constant_speed_shifts_exactly(self, monkeypatch):
        # the bump never reaches the outlet, so the outlet value stays at
        # f_pe, the interface stays put, and the speed is globally constant;
        # with cfl=1 the update degenerates to a one-node shift per step
        data = make_data(
            lambda x: EQ.f_pe + 0.05 * np.where(
                np.asarray(x, float) < 0.6,
                np.sin(np.pi * np.clip(np.asarray(x, float) / 0.6, 0, 1)) ** 2,
                0.0,
            ),
            n=51,
        )
        monkeypatch.setattr(oracle, "CFL", 1.0)
        l_trace, field = simulate_upwind(data, 0.1, UpwindConfig(dx=0.02))
        init = np.asarray(data.f0_p(field.x_grid))
        n = init.size
        for k in range(field.values.shape[0]):
            shifted = np.concatenate((np.full(min(k, n), EQ.f_pe), init[: n - min(k, n)]))
            assert np.max(np.abs(field.values[k] - shifted)) == 0.0
        assert np.max(np.abs(l_trace.values - EQ.l_e)) == 0.0

    def test_smooth_case_close_to_characteristics(self):
        data = make_data(
            lambda x: EQ.f_pe + 0.05 * np.sin(np.pi * np.asarray(x, float)), n=1001
        )
        _, field = simulate_upwind(data, 0.3, UpwindConfig(dx=1e-3))
        ref = solve_semiglobal(data, 0.3, n_t=121, n_x=1001)
        gap = np.max(np.abs(field.values[-1] - ref.field.values[-1]))
        assert gap <= 5e-3

    def test_interface_trace_matches_characteristics(self):
        data = make_data(lambda x: EQ.f_pe + 0.05 * smooth_bump(x), n=401)
        l_up, _ = simulate_upwind(data, 0.3, UpwindConfig(dx=0.005))
        ref = solve_semiglobal(data, 0.3, n_t=121, n_x=201)
        probes = np.linspace(0.0, 0.3, 13)
        assert np.max(np.abs(l_up(probes) - ref.l(probes))) <= 5e-3

    def test_maximum_principle_no_new_extrema(self):
        data = make_data(
            lambda x: EQ.f_pe
            + 0.08 * smooth_bump(x)
            - 0.05 * np.sin(np.pi * np.asarray(x, float)) ** 4,
            n=401,
        )
        _, field = simulate_upwind(data, 0.4, UpwindConfig(dx=0.01))
        lo = min(float(np.min(data.f0_p.values)), data.inflow(0.0))
        hi = max(float(np.max(data.f0_p.values)), data.inflow(0.0))
        assert field.values.min() >= lo - 1e-12
        assert field.values.max() <= hi + 1e-12

    def test_provenance_spreads_from_the_inflow_node(self):
        data = make_data(lambda x: EQ.f_pe + 0.05 * smooth_bump(x), n=101)
        _, field = simulate_upwind(data, 0.2, UpwindConfig(dx=0.02))
        assert np.all(field.provenance[0, 1:] == 0)
        assert np.all(field.provenance[:, 0] == 1)
        # influence front moves one node per step at most
        k = field.values.shape[0] // 2
        assert np.all(field.provenance[k, k + 1 :] == 0)

    def test_runaway_interface_is_flagged(self):
        # heavily overfilled channel: strong negative F empties the barrel
        c = 0.95 / (UNIT.rho0 * UNIT.V_eff)
        f0 = SpaceProfile.constant(0.95, 51)
        N = SampledFunction.constant(1.0, 0.0, 1.0, 11)
        F_in = SampledFunction.constant(c, 0.0, 1.0, 11)
        data = CauchyData(EQ.l_e, f0, F_in, N, UNIT, EQ)
        with pytest.raises(SchemeError):
            simulate_upwind(data, 0.5, UpwindConfig(dx=0.02))

    def test_horizon_must_be_positive(self):
        data = make_data(lambda x: EQ.f_pe + 0.0 * np.asarray(x, float))
        with pytest.raises(DomainError):
            simulate_upwind(data, 0.0, UpwindConfig(dx=0.02))

    def test_horizon_past_the_inputs_is_refused(self):
        # the inputs end at 0.6: the march would hold their last samples
        data = make_data(lambda x: EQ.f_pe + 0.0 * np.asarray(x, float))
        with pytest.raises(DomainError, match=r"^horizon \[0, 0\.8\] runs past the feed rate "
                                              r"F_in input, sampled on \[0, 0\.6\]$"):
            simulate_upwind(data, 0.8, UpwindConfig(dx=0.02))


class TestBitIdenticalMarch:
    def _assert_same(self, data, T, cfg, resampled):
        (l_ref, field_ref), did_resample = reference_simulate_upwind(data, T, cfg)
        assert did_resample is resampled
        l_new, field = simulate_upwind(data, T, cfg)
        for name in ("t_grid", "x_grid", "values", "provenance"):
            assert np.array_equal(getattr(field, name), getattr(field_ref, name)), name
        assert field.provenance.dtype == field_ref.provenance.dtype
        assert np.array_equal(l_new.values, l_ref.values)
        assert (l_new.t_start, l_new.t_end) == (l_ref.t_start, l_ref.t_end)

    def test_even_steps(self, monkeypatch):
        # constant feed at equilibrium and a bump on [0.13, 0.53] whose
        # upwind front (one node a step, 20 steps) stays off the outlet: the
        # speed never changes, so every CFL step is the same
        data = make_data(lambda x: EQ.f_pe + 0.05 * smooth_bump(1.5 * np.asarray(x, float)), n=51)
        monkeypatch.setattr(oracle, "CFL", 0.5)
        self._assert_same(data, 0.1, UpwindConfig(dx=0.02), resampled=False)

    def test_uneven_steps(self):
        data = sine_feed_data(0.01, 0.006, 2, T=0.5, n_amp=0.05)
        self._assert_same(data, 0.5, UpwindConfig(dx=0.01), resampled=True)

    def test_one_F_and_one_inflow_ratio_a_step(self, monkeypatch):
        # through the module's bindings, so that a wrapper installed on them
        # (perfbench/tracer.py) counts one of each a CFL step
        calls = {"eval_F": 0, "inflow_value": 0}
        for name in calls:
            def counted(*args, _fn=getattr(oracle, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(oracle, name, counted)
        data = sine_feed_data(0.01, 0.006, 2, T=0.5, n_amp=0.05)
        _, field = simulate_upwind(data, 0.5, UpwindConfig(dx=0.01))
        steps = field.t_grid.size - 1
        assert steps > 50
        assert calls == {"eval_F": steps, "inflow_value": steps}

    def test_falling_screw_and_fast_feed_on_a_fine_grid(self):
        # N falls while F_in swings at frequency 5, so the speed, the CFL step
        # and the inflow node change every step, over 400 cells
        data = sine_feed_data(0.02, 0.01, 5, T=0.4, n=81, n_amp=-0.06)
        self._assert_same(data, 0.4, UpwindConfig(dx=0.0025), resampled=True)

    def test_varying_screw_speed_read_on_its_nodes(self, monkeypatch):
        # at the equilibrium the speed is 2 at both ends, so with CFL 0.5 and
        # dx = 2^-5 every step is 2^-7 and every march time is an input node;
        # N and F_in zigzag, off equilibrium at the odd nodes, which no step reads
        monkeypatch.setattr(oracle, "CFL", 0.5)
        n_in, T = 41, 12 * 2.0**-7
        zig = np.arange(n_in) % 2
        feed = EQ.f_pe * UNIT.rho0 * UNIT.V_eff * EQ.N_e
        data = CauchyData(
            EQ.l_e,
            SpaceProfile.from_callable(lambda x: EQ.f_pe + 0.05 * smooth_bump(1.5 * x), 51),
            SampledFunction(0.0, (n_in - 1) * 2.0**-8, feed * (1.0 - 0.01 * zig)),
            SampledFunction(0.0, (n_in - 1) * 2.0**-8, EQ.N_e * (1.0 + 0.01 * zig)),
            UNIT,
            EQ,
        )
        cfg = UpwindConfig(dx=2.0**-5)
        self._assert_same(data, T, cfg, resampled=False)
        _, field = simulate_upwind(data, T, cfg)
        assert field.t_grid.size == 13
        assert np.isin(field.t_grid, data.N.grid[::2]).all()

    def test_inputs_of_two_samples(self):
        # one cell per input: every read but the ends interpolates in it, and
        # the last march time may round past its end
        feed = EQ.f_pe * UNIT.rho0 * UNIT.V_eff * EQ.N_e
        data = CauchyData(
            EQ.l_e,
            SpaceProfile(EQ.f_pe + 0.01 * np.sin(np.pi * np.linspace(0.0, 1.0, 101))),
            SampledFunction(0.0, 0.5, [feed, 1.03 * feed]),
            SampledFunction(0.0, 0.5, [EQ.N_e, 1.04 * EQ.N_e]),
            UNIT,
            EQ,
        )
        self._assert_same(data, 0.5, UpwindConfig(dx=0.01), resampled=True)

    def test_control_replay_size(self):
        # the replay march of `verify_control` on the README control target:
        # 101 nodes to T = 1, on the 2,049-node inputs that synthesize returns
        prof = SpaceProfile.constant(EQ.f_pe - 0.01, 257)
        target = ControlTarget(l0=0.491, l1=0.509, f0_p=prof, f1_p=prof, T=1.0, nu=0.01)
        report = synthesize(target, UNIT, EQ)
        assert report.N.values.size == report.F_in.values.size == 2049
        data = CauchyData(target.l0, prof, report.F_in, report.N, UNIT, EQ)
        self._assert_same(data, 1.0, UpwindConfig(dx=0.01), resampled=True)

    @staticmethod
    def _first_step_rows(data, T, cfg):
        # the rows the march's buffer is made with: (T - t)/dt of the first
        # step and a ROW_MARGIN share more
        steps = upwind_step_estimate(data.l0, data.f0_p, data.N(0.0), data.params, T, cfg)
        return math.ceil((1.0 + oracle.ROW_MARGIN) * steps) + 1

    def test_rising_screw_outruns_the_buffer(self):
        # N rises by 40% over the run, and the speed with it: the march takes
        # about 1.2 times the steps of its first dt, past the buffer's margin,
        # and grows the buffer on the way
        T = 0.5
        feed = EQ.f_pe * UNIT.rho0 * UNIT.V_eff * EQ.N_e
        data = CauchyData(
            EQ.l_e,
            SpaceProfile(EQ.f_pe + 0.01 * np.sin(np.pi * np.linspace(0.0, 1.0, 101))),
            SampledFunction.constant(feed, 0.0, T, 11),
            SampledFunction(0.0, T, EQ.N_e * np.linspace(1.0, 1.4, 101)),
            UNIT,
            EQ,
        )
        cfg = UpwindConfig(dx=0.01)
        self._assert_same(data, T, cfg, resampled=True)
        _, field = simulate_upwind(data, T, cfg)
        assert field.t_grid.size > self._first_step_rows(data, T, cfg)

    def test_buffer_without_margin_grows_row_by_row(self, monkeypatch):
        data = sine_feed_data(0.01, 0.006, 2, T=0.5, n_amp=0.05)
        cfg = UpwindConfig(dx=0.01)
        monkeypatch.setattr(oracle, "ROW_MARGIN", 0.0)
        self._assert_same(data, 0.5, cfg, resampled=True)
        _, field = simulate_upwind(data, 0.5, cfg)
        assert field.t_grid.size > self._first_step_rows(data, 0.5, cfg)

    def test_runaway_interface_raises_the_same_error(self):
        c = 0.95 / (UNIT.rho0 * UNIT.V_eff)
        data = CauchyData(
            EQ.l_e,
            SpaceProfile.constant(0.95, 51),
            SampledFunction.constant(c, 0.0, 1.0, 11),
            SampledFunction.constant(1.0, 0.0, 1.0, 11),
            UNIT,
            EQ,
        )
        cfg = UpwindConfig(dx=0.02)
        with pytest.raises(SchemeError) as ref:
            reference_simulate_upwind(data, 0.5, cfg)
        with pytest.raises(SchemeError) as new:
            simulate_upwind(data, 0.5, cfg)
        assert type(new.value) is type(ref.value)
        assert str(new.value) == str(ref.value)


def _same_bits(a: float, b) -> bool:
    return float(a).hex() == float(b).hex()


class TestSampledFunctionFloatRead:
    """A SampledFunction read at a Python float, as the march reads N and
    F_in, is bit for bit np.interp."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        n=st.integers(2, 300),
        t_start=st.sampled_from([0.0, 0.25]),
        length=st.floats(1e-3, 10.0),
    )
    def test_matches_np_interp(self, data, n, t_start, length):
        # few distinct values, so that neighbouring samples are often equal
        value = st.one_of(st.sampled_from([0.0, 0.3, 1.0]), st.floats(-5.0, 5.0))
        values = data.draw(st.lists(value, min_size=n, max_size=n))
        fn = SampledFunction(t_start, t_start + length, values)
        grid = fn.grid
        i = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20))
        u = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(i), max_size=len(i)))
        inner = [grid[k] + w * (grid[min(k + 1, n - 1)] - grid[k]) for k, w in zip(i, u)]
        nodes = grid[i]
        ends = [grid[0], grid[-1],
                np.nextafter(grid[0], -math.inf), np.nextafter(grid[-1], math.inf)]
        times = np.concatenate((
            nodes, np.nextafter(nodes, -math.inf), np.nextafter(nodes, math.inf), inner, ends
        ))
        # increasing, as the march issues them
        for t in np.sort(times).tolist():
            assert _same_bits(fn(t), np.interp(t, grid, fn.values)), t

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 300), steps=st.integers(1, 400))
    def test_march_times(self, data, n, steps):
        # uneven positive steps whose sum lands on T, or rounds an ulp past it
        T = data.draw(st.floats(0.05, 3.0))
        fn = SampledFunction(0.0, T, np.random.default_rng(n).uniform(0.2, 1.2, n))
        weights = np.random.default_rng(steps).uniform(0.5, 1.5, steps)
        times = np.cumsum(weights / weights.sum() * T).tolist()
        times[-1] = data.draw(st.sampled_from([T, np.nextafter(T, math.inf)]))
        for t in [0.0] + times:
            assert _same_bits(fn(t), np.interp(t, fn.grid, fn.values)), t

    @pytest.mark.parametrize("values", [[2.0, 2.0], [2.0, -1.0]])
    def test_nan_fallback(self, values):
        # on a cell wider than the largest double, t - t_j overflows near its
        # right end and the zero slope makes slope*(t - t_j) NaN; np.interp
        # then reads from t_j+1.  No uniform grid of finite length spans such
        # a cell, so the function's grid is set in its place
        fn = SampledFunction(0.0, 1.0, values)
        vars(fn)["grid"] = np.array([-1e308, 1e308])
        for t in (-0.9e308, -1.0, 0.0, 0.9e308):
            assert _same_bits(fn(t), np.interp(t, fn.grid, fn.values)), t


class TestResampleRows:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        n_rows=st.sampled_from(
            [2, 3, RESAMPLE_BLOCK_ROWS - 1, RESAMPLE_BLOCK_ROWS + 1, 3 * RESAMPLE_BLOCK_ROWS + 7]
        ),
        n_cols=st.integers(1, 6),
        end=st.sampled_from(["ulp below", "equal", "ulp above"]),
    )
    def test_matches_np_interp_per_column(self, data, n_rows, n_cols, end):
        # uneven steps; steps of 0.5 and 1 put some march times on output nodes
        step = st.one_of(st.floats(1e-3, 2.0), st.sampled_from([0.5, 1.0]))
        steps = data.draw(st.lists(step, min_size=n_rows - 1, max_size=n_rows - 1))
        ts = np.concatenate(([0.0], np.cumsum(steps)))
        # the march stops within rounding of T, on either side
        T = {"ulp below": np.nextafter(ts[-1], math.inf), "equal": ts[-1],
             "ulp above": np.nextafter(ts[-1], -math.inf)}[end]
        t_grid = np.linspace(0.0, T, n_rows)
        values = np.random.default_rng(n_rows * 7 + n_cols).uniform(0.0, 1.0, (n_rows, n_cols))
        self._assert_matches(t_grid, ts, values)

    @staticmethod
    def _assert_matches(t_grid, ts, values):
        rows = values.copy()
        assert resample_rows(t_grid, ts, rows) is None
        expected = np.stack(
            [np.interp(t_grid, ts, values[:, j]) for j in range(values.shape[1])], axis=1
        )
        assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("shape", ["lead", "lag", "cross"])
    @pytest.mark.parametrize("n_rows", [2 * RESAMPLE_BLOCK_ROWS + 1, 5 * RESAMPLE_BLOCK_ROWS + 3])
    def test_march_times_lead_lag_and_cross_the_grid(self, shape, n_rows):
        # steps that shrink put the march times ahead of the uniform grid, so
        # output rows read rows their block has already passed (set aside);
        # steps that grow put them behind it, and steps that swing both ways
        # cross it
        u = np.linspace(0.0, 1.0, n_rows - 1)
        steps = {"lead": 2.0 - 1.5 * u, "lag": 0.5 + 1.5 * u,
                 "cross": 1.0 + 0.8 * np.sin(3.0 * np.pi * u)}[shape]
        ts = np.concatenate(([0.0], np.cumsum(steps)))
        t_grid = np.linspace(0.0, ts[-1], n_rows)
        lo = np.clip(np.searchsorted(ts, t_grid, side="right") - 1, 0, n_rows - 2)
        behind = lo < np.arange(n_rows) - np.arange(n_rows) % RESAMPLE_BLOCK_ROWS
        ahead = lo > np.arange(n_rows)
        assert {"lead": behind.any(), "lag": ahead.any(),
                "cross": ahead.any() and (lo < np.arange(n_rows)).any()}[shape]
        values = np.random.default_rng(n_rows).uniform(0.0, 1.0, (n_rows, 3))
        self._assert_matches(t_grid, ts, values)

    def test_march_holds_the_field_once(self):
        # a sim-upwind-size march: dx = 2e-3 over T = 1, about 1,120 uneven
        # CFL steps of 501 nodes
        data = sine_feed_data(0.01, 0.004, 2, T=1.0, n=201)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, field = simulate_upwind(data, 1.0, UpwindConfig(dx=2e-3))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert field.values.shape[0] > 1000 and field.values.shape[1] == 501
        assert peak < 1.5 * field.values.nbytes


class TestSpeedExtremaAtTheEnds:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        sign=st.sampled_from([-1.0, 0.0, 1.0]),
        F_abs=st.floats(1e-12, 1e3),
        N=st.floats(0.05, 20.0),
        l=st.floats(1e-3, 1.0),
        zeta=st.floats(0.1, 10.0),
        n=st.integers(2, 600),
    )
    def test_min_and_max_sit_at_the_ends(self, sign, F_abs, N, l, zeta, n):
        x = np.linspace(0.0, 1.0, n)
        alpha = transport_speed(x, N, l, sign * F_abs, PhysicalParams(zeta=zeta))
        ends = (alpha[0], alpha[-1])
        assert alpha.min() == min(ends)
        assert alpha.max() == max(ends)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("end", [0, -1])
    def test_bad_end_speed_raises_as_the_reference(self, monkeypatch, end, bad):
        # the speed goes bad at one end from the first step on; both marches
        # must stop at that step, not one later on a NaN the step let through
        data = sine_feed_data(0.01, 0.004, 2, T=0.2)
        speed = model.transport_speed
        calls = []

        def spoiled(*args):
            calls.append(None)
            alpha = speed(*args)
            alpha[end] = bad
            return alpha

        monkeypatch.setattr(model, "transport_speed", spoiled)
        monkeypatch.setattr(oracle, "transport_speed", spoiled)
        cfg = UpwindConfig(dx=0.02)
        with pytest.raises(SchemeError) as ref:
            reference_simulate_upwind(data, 0.2, cfg)
        assert len(calls) == 1
        with pytest.raises(SchemeError) as new:
            simulate_upwind(data, 0.2, cfg)
        assert len(calls) == 2
        assert type(new.value) is type(ref.value)
        assert str(new.value) == str(ref.value)


class TestMaximumPrinciple:
    @settings(max_examples=40, deadline=None)
    @given(
        f0_amp=st.floats(-0.5, 0.5),
        fin_amp=st.floats(-0.5, 0.5),
        freq=st.integers(1, 4),
        cfl=st.floats(0.02, 1.0),
    )
    def test_rows_stay_within_data_seen_so_far(self, f0_amp, fin_amp, freq, cfl):
        # amplitudes are fractions of the admissibility radius eps1
        eps1 = eps1_bound(EQ)
        T = 0.3
        data = sine_feed_data(f0_amp * eps1, fin_amp * eps1 * UNIT.rho0 * UNIT.V_eff, freq, T, n=41)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "CFL", cfl)
            _, field = simulate_upwind(data, T, UpwindConfig(dx=0.025))
        # the feed is linear between its samples (N is constant), so its range
        # up to time t is that of its samples up to t and of its value at t
        nodes = data.F_in.grid
        feed = data.inflow(nodes)
        upto = np.searchsorted(nodes, field.t_grid, side="right") - 1
        now = data.inflow(field.t_grid)
        lo = np.minimum(min(data.f0_p.values), np.minimum(np.minimum.accumulate(feed)[upto], now))
        hi = np.maximum(max(data.f0_p.values), np.maximum(np.maximum.accumulate(feed)[upto], now))
        # interior nodes only mix earlier rows; the inflow node interpolates
        # the feed between two march times, so it stays in the feed's range
        assert np.all(field.values[:, 1:].min(axis=1) >= lo - 1e-12)
        assert np.all(field.values[:, 1:].max(axis=1) <= hi + 1e-12)
        assert field.values[:, 0].min() >= feed.min() - 1e-12
        assert field.values[:, 0].max() <= feed.max() + 1e-12


class TestStepEstimate:
    def test_matches_march_at_constant_speed(self):
        data = make_data(lambda x: EQ.f_pe + 0.0 * np.asarray(x, float))
        cfg = UpwindConfig(dx=0.02)
        _, field = simulate_upwind(data, 0.3, cfg)
        steps = upwind_step_estimate(data.l0, data.f0_p, data.N(0.0), data.params, 0.3, cfg)
        assert field.t_grid.size - 1 == math.ceil(steps - 1e-9)


class TestConvergenceStudy:
    def test_smooth_case_order_near_one(self):
        data = make_data(lambda x: EQ.f_pe + 0.05 * smooth_bump(x), n=1001)
        study = convergence_study(data, 0.3, (0.02, 0.01, 0.005))
        assert not study.degenerate
        assert not study.inconclusive
        assert study.order == pytest.approx(1.0, abs=0.2)

    def test_equilibrium_reports_degenerate(self):
        data = make_data(lambda x: EQ.f_pe + 0.0 * np.asarray(x, float))
        study = convergence_study(data, 0.3, (0.02, 0.01, 0.005))
        assert study.degenerate
        assert study.orders == ()
        assert np.isnan(study.order)
        assert max(study.errors) <= 1e-10

    def test_two_grids_rejected(self):
        data = make_data(lambda x: EQ.f_pe + 0.0 * np.asarray(x, float))
        with pytest.raises(DomainError):
            convergence_study(data, 0.3, (0.02, 0.01))

    def test_sequence_must_halve(self):
        data = make_data(lambda x: EQ.f_pe + 0.0 * np.asarray(x, float))
        with pytest.raises(DomainError):
            convergence_study(data, 0.3, (0.02, 0.01, 0.004))
