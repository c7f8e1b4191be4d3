"""Characteristic tracing against the closed-form equilibrium picture and
an independent Runge-Kutta integration on wavy coefficient traces."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from extrusim.characteristics import (
    TraceContext,
    _boundary_times,
    _check_monotone,
    _origins,
    _rk4_span,
    _xi_from,
    backtrace,
    backtrace_batch,
    backtrace_times,
    crossing_time,
    crossing_time_rk4,
    dbeta_dx,
    dtau_dx,
    flow_stretch,
    xi,
    xi_rk4,
)
from extrusim.errors import DivergenceError, DomainError
from extrusim.model import PhysicalParams, die_balance, solve_equilibrium
from extrusim.quadrature import HermiteAntiderivative, cumulative_integral, hermite_basis

UNIT = PhysicalParams()
EQ = solve_equilibrium(UNIT, N_e=1.0, l_e=0.5)


def equilibrium_ctx(t_end=1.0, n=201, N=None):
    lb = np.stack((np.full(n, EQ.l_e), np.full(n, EQ.f_pe)))
    return TraceContext(0.0, t_end, lb, np.full(n, N if N is not None else EQ.N_e), UNIT)


def wavy_ctx(t_end=1.0, n=2001, t0=0.0):
    """Time-varying traces, still safely inside the physical ranges."""
    tg = np.linspace(0.0, t_end - t0, n)
    l = 0.5 + 0.05 * np.sin(1.7 * np.pi * tg + 0.3)
    N = 1.0 + 0.3 * np.sin(2.0 * np.pi * tg)
    b = EQ.f_pe + 0.05 * np.cos(2.3 * tg)
    return TraceContext(t0, t_end, np.stack((l, b)), N, UNIT)


def constant_ctx(l, N, b):
    """Context of constant traces on eleven nodes of [0, 1]."""
    return TraceContext(0.0, 1.0, np.stack((np.full(11, l), np.full(11, b))), np.full(11, N), UNIT)


def reference_rk4_span(ctx, t_from, x_from, t_to):
    """RK4 on the characteristic ODE with one scalar coefficient call per stage."""
    span = t_to - t_from
    n = max(1, int(np.ceil(abs(span) / ctx.dt - 1e-12)))
    h = span / n
    xi_v, sigma = x_from, t_from
    for _ in range(n):
        a1, b1 = ctx.coefficients_at(sigma)
        a2, b2 = ctx.coefficients_at(sigma + 0.5 * h)
        a4, b4 = ctx.coefficients_at(sigma + h)
        k1 = a1 - b1 * xi_v
        k2 = a2 - b2 * (xi_v + 0.5 * h * k1)
        k3 = a2 - b2 * (xi_v + 0.5 * h * k2)
        k4 = a4 - b4 * (xi_v + h * k3)
        xi_v += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sigma += h
    return xi_v


class TestTraceContext:
    def test_interface_range(self):
        with pytest.raises(DomainError):
            constant_ctx(1.0, 1.0, 0.3)

    def test_die_ratio_range(self):
        with pytest.raises(DomainError):
            constant_ctx(0.5, 1.0, 1.0)

    def test_transport_speed_must_stay_positive(self):
        # a huge die ratio drives F so negative that zeta*N - F < 0 is
        # impossible; instead stall the screw to kill the speed
        with pytest.raises(DomainError):
            constant_ctx(0.5, -1.0, 0.3)

    @pytest.mark.parametrize(
        "trace,value,message",
        [
            ("l", 0.0, "interface trace must stay inside (0, L)"),
            ("l", 1.0, "interface trace must stay inside (0, L)"),
            ("b", 1.0, "die ratio trace must stay inside [0, 1)"),
            ("N", 0.0, "screw speed trace must stay positive"),
        ],
    )
    def test_each_range_rejects_its_end_value(self, trace, value, message):
        # one node of eleven sits on the excluded end of its range; the
        # message names that value and its time
        values = {"l": np.full(11, 0.5), "N": np.ones(11), "b": np.full(11, 0.3)}
        values[trace][7] = value
        detail = f"{message}: {trace}={value:.6g} at t=0.7"
        with pytest.raises(DomainError, match=f"^{re.escape(detail)}$"):
            TraceContext(0.0, 1.0, np.stack((values["l"], values["b"])), values["N"], UNIT)

    def test_zero_speed_at_the_outlet_is_rejected(self):
        # with K_d = 1e20 and b = 0 the die balance rounds to g = zeta, so
        # zeta*N - F is exactly 0 on the outlet
        params = PhysicalParams(K_d=1e20)
        l, N, b = np.linspace(0.3, 0.7, 11), np.ones(11), np.zeros(11)
        speed = params.zeta * N - N * die_balance(l, b, params)
        assert speed.min() == speed[0] == 0.0
        message = r"^transport speed must stay positive up to x=1: zeta\*N - F=0 at t=0$"
        with pytest.raises(DomainError, match=message):
            TraceContext(0.0, 1.0, np.stack((l, b)), N, params)

    @pytest.mark.parametrize("b, sign", [(0.3, 1.0), (0.7, -1.0)])
    def test_P_past_the_float_range_is_rejected(self, b, sign):
        # on l = 1e-6, F/l is of order 1e5, positive below b = 1/2 and negative
        # above, so P leaves [-354, 354] before exp(P) can overflow or
        # underflow; the message names its extreme, at the end of [0.5, 0.56]
        lb = np.stack((np.full(65, 1e-6), np.full(65, b)))
        message = r"^P, the integral of F/l, must stay inside \[-354, 354\]: P=(\S+) at t=0\.56$"
        with pytest.raises(DomainError, match=message) as info:
            TraceContext(0.5, 0.56, lb, np.ones(65), UNIT)
        assert sign * float(re.match(message, str(info.value)).group(1)) > 1e4

    @pytest.mark.parametrize("l, N, t_end, message", [
        # with b = 1/2 the die balances, so g = 0 and P = 0 whatever l is:
        # zeta*N/l overflows at every node
        (1e-306, 700.0, 1.0, "q, the slope of Q, must stay finite: q=inf at t=0"),
        # q = 1e307 stays finite, and its running integral passes the float range
        (1e-300, 1e7, 100.0, "Q, the integral of q, must stay finite: Q=inf at t=20"),
    ])
    def test_q_or_Q_past_the_float_range_is_named(self, l, N, t_end, message):
        lb = np.stack((np.full(11, l), np.full(11, 0.5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=f"^{re.escape(message)}$"):
                TraceContext(0.0, t_end, lb, np.full(11, N), UNIT)


class TestEquilibriumPicture:
    """At (l_e, N_e, f_pe) the speed is constant 2, so xi = x - 2(t-s)."""

    def test_quarter_time(self):
        ctx = equilibrium_ctx()
        assert xi(0.0, 0.25, 1.0, ctx) == pytest.approx(0.5, abs=1e-12)

    def test_backtrace_initial(self):
        o = backtrace(0.2, 1.0, equilibrium_ctx())
        assert o.kind == "initial"
        assert o.beta == pytest.approx(0.6, abs=1e-12)

    def test_backtrace_boundary(self):
        o = backtrace(0.75, 1.0, equilibrium_ctx())
        assert o.kind == "boundary"
        assert o.tau == pytest.approx(0.25, abs=1e-9)

    def test_dtau_dx(self):
        assert dtau_dx(0.75, 1.0, equilibrium_ctx()) == pytest.approx(-0.5, abs=1e-12)

    def test_dbeta_dx(self):
        assert dbeta_dx(0.2, 1.0, equilibrium_ctx()) == pytest.approx(1.0, abs=1e-12)

    # each case holds on both routes to the corner crossing: the closed
    # form and the RK4 march
    CROSSING_ROUTES = (crossing_time, crossing_time_rk4)

    def test_crossing_time(self):
        for route in self.CROSSING_ROUTES:
            assert route(equilibrium_ctx()) == pytest.approx(0.5, abs=1e-9), route.__name__

    def test_crossing_time_doubled_speed(self):
        for route in self.CROSSING_ROUTES:
            assert route(equilibrium_ctx(N=2.0)) == pytest.approx(0.25, abs=1e-9), route.__name__

    def test_crossing_beyond_horizon(self):
        for route in self.CROSSING_ROUTES:
            assert route(equilibrium_ctx(t_end=0.3)) is None, route.__name__


class TestArgumentChecking:
    def test_xi_rejects_outside_interval(self):
        with pytest.raises(DomainError):
            xi(0.0, 2.0, 1.0, equilibrium_ctx())

    def test_dtau_requires_boundary_origin(self):
        with pytest.raises(DomainError):
            dtau_dx(0.2, 1.0, equilibrium_ctx())  # this one hits the initial axis

    def test_dbeta_requires_initial_origin(self):
        with pytest.raises(DomainError):
            dbeta_dx(0.75, 1.0, equilibrium_ctx())

    def test_origin_accessors_guard_kind(self):
        o = backtrace(0.2, 1.0, equilibrium_ctx())
        with pytest.raises(DomainError):
            o.tau


class TestInvariants:
    def test_semigroup_equilibrium(self):
        ctx = equilibrium_ctx()
        mid = xi(0.7, 0.9, 1.0, ctx)
        assert abs(xi(0.6, 0.7, mid, ctx) - xi(0.6, 0.9, 1.0, ctx)) <= 1e-9

    def test_semigroup_wavy(self):
        ctx = wavy_ctx()
        mid = xi(0.7, 0.9, 0.9, ctx)
        assert abs(xi(0.55, 0.7, mid, ctx) - xi(0.55, 0.9, 0.9, ctx)) <= 1e-9

    def test_xi_after_t_is_the_closed_form(self):
        # the closed form holds either way round: with s after t, xi is the
        # forward landing point, and tracing it back returns x
        ctx = wavy_ctx()
        for s, t, x in [(0.9, 0.7, 0.2), (0.95, 0.0, 0.0), (0.5, 0.25, 1.0)]:
            assert xi(s, t, x, ctx) == float(_xi_from(x, *ctx._PQ(t), *ctx._PQ(s)))
        landing = xi(0.9, 0.7, 0.2, ctx)
        assert 0.2 < landing < 1.0
        assert xi(0.7, 0.9, landing, ctx) == pytest.approx(0.2, abs=1e-12)

    def test_monotone_in_x(self):
        ctx = wavy_ctx()
        xs = np.linspace(0.0, 1.0, 101)
        vals = np.array([xi(0.8, 0.95, float(x), ctx) for x in xs])
        assert np.all(np.diff(vals) > 0.0)

    def test_rk4_matches_closed_form(self):
        # grid step 1e-3; the two routes are independent discretizations
        ctx = wavy_ctx(n=1001)
        for s, t, x in [(0.0, 0.9, 0.95), (0.2, 0.8, 0.9), (0.6, 0.95, 0.5)]:
            assert abs(xi(s, t, x, ctx) - xi_rk4(s, t, x, ctx)) <= 1e-6

    def test_rk4_equals_scalar_reference(self):
        # one vectorized coefficient evaluation per span, same arithmetic
        ctx = wavy_ctx(n=201)
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = rng.uniform(0.05, 1.0)
            s, x = rng.uniform(0.0, t), rng.uniform(0.05, 0.5)
            assert xi_rk4(s, t, x, ctx) == reference_rk4_span(ctx, t, x, s)
            assert _rk4_span(ctx, s, x, t) == reference_rk4_span(ctx, s, x, t)
        assert _rk4_span(ctx, 0.3, 0.2, 0.3 + 1e-3) == reference_rk4_span(ctx, 0.3, 0.2, 0.3 + 1e-3)

    def test_rk4_equilibrium_exact(self):
        ctx = equilibrium_ctx()
        assert xi_rk4(0.0, 0.25, 1.0, ctx) == pytest.approx(0.5, abs=1e-12)

    def test_dtau_sign(self):
        ctx = wavy_ctx()
        assert dtau_dx(0.9, 0.8, ctx) < 0.0

    def test_dbeta_sign(self):
        ctx = wavy_ctx()
        assert dbeta_dx(0.35, 0.9, ctx) > 0.0

    def test_dtau_matches_finite_difference(self):
        ctx = wavy_ctx()
        t, x, h = 0.9, 0.8, 1e-6
        fd = (backtrace(t, x + h, ctx).tau - backtrace(t, x - h, ctx).tau) / (2.0 * h)
        an = dtau_dx(t, x, ctx)
        assert abs(an - fd) / abs(fd) <= 1e-6

    def test_dbeta_matches_finite_difference(self):
        ctx = wavy_ctx()
        t, x, h = 0.35, 0.9, 1e-6
        fd = (backtrace(t, x + h, ctx).beta - backtrace(t, x - h, ctx).beta) / (2.0 * h)
        an = dbeta_dx(t, x, ctx)
        assert abs(an - fd) / abs(fd) <= 1e-6

    def test_backtrace_residual(self):
        # the reported boundary crossing satisfies |xi(tau; t, x)| <= 1e-12
        ctx = wavy_ctx()
        o = backtrace(0.9, 0.3, ctx)
        assert o.kind == "boundary"
        assert abs(xi(o.tau, 0.9, 0.3, ctx)) <= 1e-12


class TestBatch:
    def test_matches_scalar(self):
        ctx = wavy_ctx()
        xs = np.linspace(0.0, 1.0, 101)
        is_boundary, origin = backtrace_batch(0.9, xs, ctx)
        for x, ib, ov in zip(xs, is_boundary, origin):
            o = backtrace(0.9, float(x), ctx)
            assert (o.kind == "boundary") == bool(ib)
            assert o.value == pytest.approx(float(ov), abs=1e-9)

    def test_origin_split_is_a_single_cut(self):
        # boundary points sit below the separating characteristic
        ctx = wavy_ctx()
        is_boundary, _ = backtrace_batch(0.9, np.linspace(0.0, 1.0, 201), ctx)
        flips = np.sum(np.abs(np.diff(is_boundary.astype(int))))
        assert flips <= 1

    def test_broadcast_matches_rows_and_times(self):
        ctx = wavy_ctx()
        ts = np.linspace(0.0, 1.0, 21)
        xs = np.linspace(0.0, 1.0, 11)
        is_boundary, origin = backtrace_batch(ts[:, None], xs, ctx)
        assert origin.shape == (21, 11)
        assert np.any(is_boundary) and not np.all(is_boundary)
        for i, t in enumerate(ts):
            row_b, row_o = backtrace_batch(float(t), xs, ctx)
            np.testing.assert_array_equal(row_b, is_boundary[i])
            np.testing.assert_array_equal(row_o, origin[i])
        for j, x in enumerate(xs):
            col_b, col_o = backtrace_batch(ts, float(x), ctx)
            np.testing.assert_array_equal(col_b, is_boundary[:, j])
            np.testing.assert_array_equal(col_o, origin[:, j])

    def test_boundary_origins_solve_xi_zero(self):
        ctx = wavy_ctx()
        # t_start, grid nodes (step 5e-4) and off-node times; x = 0 included
        ts = np.array([0.0, 0.05, 0.12345, 0.5, 0.77771, 0.9, 1.0])
        xs = np.array([0.0, 1e-9, 0.1, 0.3, 0.6, 1.0])
        is_boundary, origin = backtrace_batch(ts[:, None], xs, ctx)
        # x = 0 leaves the boundary at the observation time itself
        assert not is_boundary[0, 0] and origin[0, 0] == 0.0
        assert np.all(is_boundary[1:, 0])
        np.testing.assert_allclose(origin[1:, 0], ts[1:], rtol=0.0, atol=1e-12)
        t_b, x_b = np.broadcast_arrays(ts[:, None], xs)
        points = list(zip(t_b[is_boundary], x_b[is_boundary], origin[is_boundary]))
        assert len(points) >= 20
        for t, x, tau in points:
            assert ctx.t_start <= tau <= t
            assert abs(xi(float(tau), float(t), float(x), ctx)) <= 1e-12
            # the independent Runge-Kutta route also lands on x = 0 at tau
            assert abs(xi_rk4(float(tau), float(t), float(x), ctx)) <= 1e-6


class TestQMonotonicity:
    """Every Hermite cell of Q must increase (Fritsch-Carlson region)."""

    def test_step_in_screw_speed_raises(self):
        # N jumps 1 -> 30 at node 40 of 101: the parabolic cell rule gives
        # Q a decreasing node increment on cell 38, which the context's node
        # pass rejects before any origin is solved on it
        N = np.ones(101)
        N[40:] = 30.0
        lb = np.stack((np.full(101, EQ.l_e), np.full(101, EQ.f_pe)))
        with pytest.raises(DivergenceError, match=r"t=0\.38: \(alpha, beta\)"):
            TraceContext(0.0, 1.0, lb, N, UNIT)

    @pytest.mark.parametrize("nodes, slopes, message", [
        # an infinite slope, which the four clauses took as monotone
        ([0.0, 1.0, 2.0], [1.0, np.inf, 1.0], "q, the slope of Q, must stay finite: q=inf at t=2.5"),
        ([0.0, 1.0, 2.0], [1.0, np.nan, 1.0], "q, the slope of Q, must stay finite: q is undefined "
                                              "at t=2.5"),
        # an infinite increment of Q: (alpha, beta) read (-0, nan), and q is named first
        ([0.0, np.inf], [-1.0, np.inf], "q, the slope of Q, must stay finite: q=inf at t=2.5"),
        ([0.0, -np.inf], [1.0, 1.0], "Q, the integral of q, must stay finite: Q=-inf at t=2.5"),
        # (alpha, beta) read (nan, nan)
        ([0.0, 1.0, np.nan], [1.0, 1.0, 1.0], "Q, the integral of q, must stay finite: Q is "
                                              "undefined at t=3"),
        # an infinite q with an infinite increment of Q, q dt = inf <= 3 inf
        ([0.0, np.inf], [1.0, np.inf], "q, the slope of Q, must stay finite: q=inf at t=2.5"),
        # two infinite nodes, whose difference is undefined
        ([0.0, 1.0, np.inf, np.inf], [1.0, 1.0, 1.0, 1.0], "Q, the integral of q, must stay "
                                                          "finite: Q=inf at t=3"),
        ([0.0, 1.0, -np.inf, -np.inf], [1.0, 1.0, 1.0, 1.0], "Q, the integral of q, must stay "
                                                            "finite: Q=-inf at t=3"),
    ])
    def test_non_finite_Q_or_q_is_named(self, nodes, slopes, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                _check_monotone(np.array(nodes), np.array(slopes), 2.0, 0.5)
        assert str(exc.value) == message

    def test_smooth_context_passes(self):
        ctx = wavy_ctx()
        assert np.all(np.diff(ctx._Q.nodes) > 0.0)

    def test_region_matches_the_cubic_slope(self):
        # one cell from Q = 0 to 1 with end slopes (alpha, beta): the cubic's
        # slope is the quadratic a s^2 + b s + alpha, whose minimum on [0, 1]
        # decides monotonicity independently of the four-clause test
        rng = np.random.default_rng(3)
        for alpha, beta in rng.uniform(0.0, 4.0, size=(2000, 2)):
            a = 3.0 * (alpha + beta) - 6.0
            b = 6.0 - 4.0 * alpha - 2.0 * beta
            low = min(alpha, beta)
            if a > 0.0 and 0.0 < -b / (2.0 * a) < 1.0:
                low = min(low, alpha - b * b / (4.0 * a))
            if abs(low) < 1e-9:
                continue
            try:
                _check_monotone(np.array([0.0, 1.0]), np.array([alpha, beta]), 0.0, 1.0)
                inside = True
            except DivergenceError:
                inside = False
            assert inside == (low > 0.0), (alpha, beta)

    @pytest.mark.parametrize("inc", [1.0, 0.1, 7.3])
    def test_square_edges_pass(self, inc):
        # the square 0 <= alpha, beta <= 3 lies in the region, so its edges
        # and the points just inside them pass, each with slopes q dt tested
        # against 3 (Q_{k+1} - Q_k) as given: at inc = 0.1, 3 * inc rounds
        # up, so alpha reads 3.0000000000000004 after a division
        top = 3.0 * inc
        below = np.nextafter(top, 0.0)
        ends = [0.0, 1e-300, 0.5 * top, below, top]
        nodes = np.array([0.0, inc, 2.0 * inc])
        for left in ends:
            for right in ends:
                _check_monotone(nodes, np.array([left, right, left]), 0.0, 1.0)

    @pytest.mark.parametrize(
        "alpha,beta,inside",
        [
            # past the square's corners (3, 0) and (0, 3) the region ends
            (3.001, 0.0, False),
            (0.0, 3.001, False),
            # past its side alpha = 3 the ellipse clause still holds
            (3.0 + 1e-9, 1.5, True),
            (3.5, 1.0, True),
            (-1e-300, 1.0, False),
        ],
    )
    def test_points_off_the_square_take_the_four_clauses(self, alpha, beta, inside):
        nodes, slopes = np.array([0.0, 1.0]), np.array([alpha, beta])
        if inside:
            _check_monotone(nodes, slopes, 0.0, 1.0)
        else:
            with pytest.raises(DivergenceError, match=r"^Q is not monotone on the cell at t=0: "):
                _check_monotone(nodes, slopes, 0.0, 1.0)


@st.composite
def sine_contexts(draw):
    """Sine traces around the equilibrium on 3 to 400 nodes of [t0, t0 + T]."""
    n = draw(st.integers(3, 400))
    t0 = draw(st.floats(0.0, 2.0))
    T = draw(st.floats(0.05, 3.0))
    tg = np.linspace(0.0, T, n)
    traces = []
    for base, amp in ((EQ.l_e, 0.45), (EQ.N_e, 0.9), (EQ.f_pe, 0.3)):
        a = draw(st.floats(0.0, amp))
        freq = draw(st.floats(0.0, 12.0))
        phase = draw(st.floats(0.0, 6.3))
        traces.append(base + a * np.sin(freq * tg + phase))
    l, N, b = traces
    try:
        ctx = TraceContext(t0, t0 + T, np.stack((l, b)), N, UNIT)
        ctx._Q
    except (DomainError, DivergenceError):
        assume(False)
    return ctx


class TestOriginRoundTrip:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ctx=sine_contexts(), seed=st.integers(0, 2**32 - 1))
    def test_forward_from_origin_lands_on_the_foot_point(self, ctx, seed):
        rng = np.random.default_rng(seed)
        ts = rng.uniform(ctx.t_start, ctx.t_end, 200)
        xs = rng.uniform(0.0, 1.0, 200)
        is_boundary, origin = backtrace_batch(ts, xs, ctx)
        # the closed form run forward from (t_start, beta) or (tau, 0)
        t_from = np.where(is_boundary, origin, ctx.t_start)
        x_from = np.where(is_boundary, 0.0, origin)
        landed = xi(ts, t_from, x_from, ctx)
        assert np.max(np.abs(landed - xs)) <= 1e-12


def reference_growth(ts, is_boundary, origin, ctx):
    """The flow stretch as `derivative_fields` computed it before
    `flow_stretch`, for a 1-d array of row times, kept as the bit-for-bit
    reference."""
    P_origin = np.full(origin.shape, ctx._P_nodes[0])
    P_origin[is_boundary] = ctx._P(origin[is_boundary])
    return np.exp(ctx._P(ts)[:, None] - P_origin)


def reference_dbeta_dx(t, ctx):
    """`dbeta_dx` before `flow_stretch`, past its origin check."""
    return float(np.exp(ctx._P(t) - ctx._P(ctx.t_start)))


class TestFlowStretch:
    """`flow_stretch` gives the bits of the two forms it replaced."""

    def check(self, ctx, ts, xs):
        is_boundary, origin = backtrace_batch(ts[:, None], xs, ctx)
        new = flow_stretch(ts[:, None], is_boundary, origin, ctx)
        assert new.tobytes() == reference_growth(ts, is_boundary, origin, ctx).tobytes()
        for t, row_boundary in zip(ts, is_boundary):
            for x in xs[~row_boundary]:
                assert dbeta_dx(t, x, ctx) == reference_dbeta_dx(t, ctx)
        return is_boundary

    def test_wavy_rows_on_both_faces(self):
        ctx = wavy_ctx()
        is_boundary = self.check(ctx, np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 11))
        assert is_boundary.any() and not is_boundary.all()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ctx=sine_contexts(), seed=st.integers(0, 2**32 - 1))
    def test_sine_contexts(self, ctx, seed):
        rng = np.random.default_rng(seed)
        self.check(ctx, rng.uniform(ctx.t_start, ctx.t_end, 12), rng.uniform(0.0, 1.0, 7))


class TestNodeTimeRoute:
    """`backtrace_times` reads P and Q at the context's node times from the
    stored nodes, where `backtrace_batch` evaluates the Hermite cubics; the
    two differ in the last bits, so the origins agree to a few ulps."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ctx=sine_contexts(), x=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    def test_matches_the_general_route(self, ctx, x):
        is_boundary, origin = backtrace_times(x, ctx)
        ref_boundary, ref_origin = backtrace_batch(ctx.l.grid, x, ctx)
        # a curve within 1e-12 of the inlet corner may fall either way
        xi0 = _xi_from(x, ctx._P.nodes, ctx._Q.nodes, ctx._P_nodes[0], ctx._Q_nodes[0])
        clear = np.abs(xi0) > 1e-12
        assert np.array_equal(is_boundary[clear], ref_boundary[clear])
        same = is_boundary == ref_boundary
        # ulps at the scale max(1, |origin|): over 400 contexts the gap
        # reached 4.5 on the initial axis and 8 on the inflow face
        ulp = np.spacing(np.maximum(1.0, np.abs(ref_origin[same])))
        assert np.all(np.abs(origin[same] - ref_origin[same]) <= 16.0 * ulp)

    def test_rejects_a_foot_point_off_the_strip(self):
        ctx = wavy_ctx()
        for x in (-1e-12, 1.0 + 1e-12):
            with pytest.raises(DomainError, match=r"^x must lie in \[0, 1\]$"):
                backtrace_times(x, ctx)


def reference_hermite(H, t):
    """Value and slope of H at t by the clipped-index formula the one-lookup
    kernel replaced, kept here as the bit-for-bit reference."""
    t_arr = np.asarray(t, dtype=float)
    u = (t_arr - H.t0) / H.dt
    k = np.clip(np.floor(u).astype(int), 0, H.nodes.size - 2)
    s = u - k
    h = H.dt
    f0 = H.nodes[k]
    f1 = H.nodes[k + 1]
    d0 = H.slopes[k] * h
    d1 = H.slopes[k + 1] * h
    s2 = s * s
    s3 = s2 * s
    value = (
        f0 * (2.0 * s3 - 3.0 * s2 + 1.0)
        + d0 * (s3 - 2.0 * s2 + s)
        + f1 * (-2.0 * s3 + 3.0 * s2)
        + d1 * (s3 - s2)
    )
    slope = (
        (H.nodes[k] - H.nodes[k + 1]) * 6.0 * s * (s - 1.0) / H.dt
        + H.slopes[k] * (3.0 * s - 1.0) * (s - 1.0)
        + H.slopes[k + 1] * s * (3.0 * s - 2.0)
    )
    return value, slope


def shifted_wavy_ctx():
    """`wavy_ctx` on [0.3, 1.3], so that the cell lookup subtracts t0."""
    return wavy_ctx(t_end=1.3, n=257, t0=0.3)


class TestIntegralsStartAtZero:
    """P and Q are running integrals from the context's start, so their first
    nodes are exactly 0.0, from either constructor: the origin solver and
    the crossing time take P(t_start) = Q(t_start) = 0 without reading them."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ctx=sine_contexts())
    def test_first_nodes_are_zero(self, ctx):
        rebuilt = TraceContext(ctx.t_start, ctx.t_end, ctx.lb, ctx.N_nodes, UNIT)
        for made in (ctx, rebuilt):
            for nodes in (made._P_nodes, made._Q_nodes):
                assert nodes[0] == 0.0 and not np.signbit(nodes[0])
        assert np.array_equal(rebuilt._P_nodes, ctx._P_nodes)
        assert np.array_equal(rebuilt._Q_nodes, ctx._Q_nodes)


def kernel_times(ctx):
    """Times that probe every branch of the cell lookup, by shape."""
    grid = ctx.l.grid
    t0, t1 = ctx.t_start, ctx.t_end
    edges = [
        t0, t1,
        np.nextafter(t0, -np.inf), np.nextafter(t1, np.inf),
        t0 - 1e-13, t1 + 1e-13, t0 - 0.5 * ctx.dt, t1 + 0.5 * ctx.dt,
    ]
    rng = np.random.default_rng(11)
    inside = rng.uniform(t0, t1, 60)
    one_d = np.concatenate([grid, edges, inside])
    return [
        ("scalar", 0.5 * (t0 + t1)),
        ("scalar node", float(grid[17])),
        ("scalar start", t0),
        ("scalar end", t1),
        ("scalar below", float(np.nextafter(t0, -np.inf))),
        ("scalar above", t1 + 1e-13),
        ("0-d", np.asarray(grid[40])),
        ("1-d", one_d),
        ("2-d", np.stack([inside[:30], inside[30:]])),
        ("2-d column", grid[::16, None]),
    ]


def reference_cumulative_integral(f, dx):
    """The 1-d running integral as it was before the rule took 2-d blocks,
    kept as the bit-for-bit reference."""
    n = f.size
    inc = np.empty(n - 1)
    if n == 2:
        inc[0] = 0.5 * dx * (f[0] + f[1])
    else:
        right = dx / 12.0 * (5.0 * f[:-2] + 8.0 * f[1:-1] - f[2:])
        left = dx / 12.0 * (-f[:-2] + 8.0 * f[1:-1] + 5.0 * f[2:])
        inc[0] = right[0]
        inc[-1] = left[-1]
        inc[1:-1] = 0.5 * (left[:-1] + right[1:])
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


class TestStackedIntegral:
    """The rows of a 2-d `cumulative_integral` are the 1-d calls on them, and
    those are the rule they replaced, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        values=st.tuples(st.integers(1, 4), st.integers(2, 70)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=st.floats(-1e6, 1e6))
        ),
        dx=st.floats(1e-6, 10.0),
    )
    def test_rows_are_the_1d_calls(self, values, dx):
        block = cumulative_integral(values, dx)
        assert block.shape == values.shape
        # the same bits whatever the memory order of the block
        assert cumulative_integral(np.asfortranarray(values), dx).tobytes() == block.tobytes()
        for row, got in zip(values, block):
            one = cumulative_integral(row, dx)
            assert one.tobytes() == got.tobytes()
            assert one.tobytes() == reference_cumulative_integral(row, dx).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synthesis_size_blocks_are_the_old_rule(self, seed):
        # the (2, 2049) block of an interface sweep: N_e g and the
        # sensitivity source, one smooth and one with a kink and rough noise
        t = np.linspace(0.0, 1.0, 2049)
        rng = np.random.default_rng(seed)
        block = np.stack((np.sin(3.0 * t + seed) * 1e-2,
                          np.abs(t - 0.5) + rng.uniform(-1.0, 1.0, t.size)))
        dx = t[1]
        got = cumulative_integral(block, dx)
        for row, out in zip(block, got):
            assert out.tobytes() == reference_cumulative_integral(row, dx).tobytes()

    @pytest.mark.parametrize("shape", [(1,), (3, 1), (2, 2, 5), ()])
    def test_shapes_without_a_row_of_two_samples_rejected(self, shape):
        with pytest.raises(ValueError, match="at least two samples per row"):
            cumulative_integral(np.zeros(shape), 0.1)


class TestOneLookupKernel:
    """The one-lookup Hermite kernel and `TraceContext._PQ` reproduce the
    clipped-index formula bit for bit, so outputs stay byte-identical."""

    @pytest.mark.parametrize("make_ctx", [shifted_wavy_ctx, wavy_ctx])
    def test_value_and_slope_are_bit_identical(self, make_ctx):
        ctx = make_ctx()
        for H in (ctx._P, ctx._Q):
            for label, t in kernel_times(ctx):
                value, slope = reference_hermite(H, t)
                assert np.array_equal(H(t), value), label
                assert np.array_equal(H.derivative(t), slope), label
                assert np.shape(H(t)) == np.shape(value), label

    def test_pair_is_bit_identical(self):
        ctx = shifted_wavy_ctx()
        for label, t in kernel_times(ctx):
            P, Q = ctx._PQ(t)
            assert np.array_equal(P, reference_hermite(ctx._P, t)[0]), label
            assert np.array_equal(Q, reference_hermite(ctx._Q, t)[0]), label
        # both integrals start at the context's start, where the closed
        # forms of the origins take them to be exactly zero
        P0, Q0 = ctx._PQ(ctx.t_start)
        assert P0 == reference_hermite(ctx._P, ctx.t_start)[0] == 0.0
        assert Q0 == reference_hermite(ctx._Q, ctx.t_start)[0] == 0.0

    def test_scalar_time_gives_a_float(self):
        ctx = shifted_wavy_ctx()
        for t in (0.7, np.asarray(0.7), np.float64(0.7)):
            assert type(ctx._P(t)) is float
            assert type(ctx._Q.derivative(t)) is float

    def test_origins_do_not_depend_on_the_batch(self):
        # the outlet foot points of a Picard map: early times reach the
        # initial axis, late ones the inflow face; each part alone, the
        # broadcast form and the scalar route give the same bits
        ctx = shifted_wavy_ctx()
        grid = ctx.l.grid
        is_boundary, origin = backtrace_batch(grid, 1.0, ctx)
        assert is_boundary.any() and not is_boundary.all()
        wide_b, wide_o = backtrace_batch(grid, np.ones(grid.size), ctx)
        assert np.array_equal(wide_b, is_boundary) and np.array_equal(wide_o, origin)
        for part in (~is_boundary, is_boundary):
            part_b, part_o = backtrace_batch(grid[part], 1.0, ctx)
            assert np.array_equal(part_b, is_boundary[part])
            assert np.array_equal(part_o, origin[part])
        for t, ib, ov in zip(grid[::8], is_boundary[::8], origin[::8]):
            o = backtrace(float(t), 1.0, ctx)
            assert o.kind == ("boundary" if ib else "initial")
            assert o.value == ov


class TestLookupCount:
    """One origin solve reads P and Q at the foot points once, Q and Q' once
    per Newton step, and P and Q at the roots once for the residual check;
    at t_start P and Q are zero and take no lookup."""

    @staticmethod
    def count(monkeypatch, ctx, ts, xs):
        calls = {"_cell": 0, "_slope": 0}
        for name in calls:
            original = getattr(HermiteAntiderivative, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(HermiteAntiderivative, name, counted)
        is_boundary, _ = _origins(ts, xs, ctx)
        monkeypatch.undo()
        return calls["_cell"], calls["_slope"], int(np.count_nonzero(is_boundary))

    def test_initial_origins_take_one_lookup(self, monkeypatch):
        ctx = shifted_wavy_ctx()
        early = np.linspace(ctx.t_start, ctx.t_start + 0.2, 40)
        cells, newton, boundary = self.count(monkeypatch, ctx, early, 1.0)
        assert boundary == 0
        assert (cells, newton) == (1, 0)

    @pytest.mark.parametrize("x", [1.0, np.linspace(0.0, 1.0, 7)])
    def test_boundary_origins_take_one_lookup_per_newton_step(self, monkeypatch, x):
        ctx = shifted_wavy_ctx()
        ts = ctx.l.grid[:, None] if np.ndim(x) else ctx.l.grid
        cells, newton, boundary = self.count(monkeypatch, ctx, ts, x)
        assert boundary > 0 and newton >= 1
        assert cells == 1 + newton + 1
        # a second solve counts the same
        assert self.count(monkeypatch, ctx, ts, x) == (cells, newton, boundary)


def reference_boundary_times(ts, xs, Pt, Qt, ctx, live=None):
    """The Newton loop that runs every step on every root, converged or not,
    kept as the bit-for-bit reference of `_boundary_times`.  When live is a
    list, the count of roots not yet converged before each step is appended."""
    Q = ctx._Q
    target = Qt - xs * np.exp(Pt)
    k = np.searchsorted(Q.nodes, target, side="right") - 1
    k = np.minimum(np.maximum(k, 0), Q.nodes.size - 2)
    hi = np.minimum(Q.t0 + (k + 1) * Q.dt, ts)
    lo = np.minimum(Q.t0 + k * Q.dt, hi)
    frac = (target - Q.nodes[k]) / (Q.nodes[k + 1] - Q.nodes[k])
    tau = np.minimum(np.maximum(Q.t0 + (k + frac) * Q.dt, lo), hi)
    done = np.zeros(tau.shape, dtype=bool)
    for _ in range(100):
        if live is not None:
            live.append(int(np.count_nonzero(~done)))
        cell, s = Q._cell(tau)
        r = Q._value(cell, hermite_basis(s)) - target
        lo = np.where(r < 0.0, tau, lo)
        hi = np.where(r > 0.0, tau, hi)
        new = tau - r / Q._slope(cell, s)
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        new = np.where(done, tau, new)
        done |= np.abs(new - tau) <= 4e-16 * np.maximum(1.0, np.abs(tau))
        tau = new
        if done.all():
            break
    return tau


def boundary_feet(ctx, ts, xs):
    """(ts, xs, Pt, Qt) of the foot points of the ts x xs batch whose
    characteristics left through x = 0, as 1-d arrays."""
    t_b, x_b = np.broadcast_arrays(ts[:, None], xs)
    P, Q = ctx._PQ(t_b)
    bnd = _xi_from(x_b, P, Q, ctx._P_nodes[0], ctx._Q_nodes[0]) < 0.0
    return t_b[bnd], x_b[bnd], P[bnd], Q[bnd]


class TestActiveNewton:
    """Newton steps run only on the roots that have not converged, and P and
    Q are read at the foot times before they broadcast against x; the
    origins stay those of the loop over every root, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ctx=sine_contexts(), n_t=st.integers(1, 9), n_x=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_roots_and_batches_are_bit_identical(self, ctx, n_t, n_x, seed):
        rng = np.random.default_rng(seed)
        # node times and times between them; x = 0 and 1 included
        ts = np.concatenate([rng.choice(ctx.l.grid, n_t), rng.uniform(ctx.t_start, ctx.t_end, n_t)])
        xs = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n_x)])
        feet = boundary_feet(ctx, ts, xs)
        if feet[0].size:
            tau = _boundary_times(*feet, ctx)
            assert np.array_equal(tau, reference_boundary_times(*feet, ctx))
            # each root alone gives the same bits as in the batch
            for i in rng.choice(tau.size, min(tau.size, 5), replace=False):
                one = [a[i : i + 1] for a in feet]
                assert np.array_equal(_boundary_times(*one, ctx), tau[i : i + 1])
        is_boundary, origin = backtrace_batch(ts[:, None], xs, ctx)
        assert origin.shape == (ts.size, xs.size)
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                o = backtrace(float(t), float(x), ctx)
                assert o.is_initial != is_boundary[i, j] and o.value == origin[i, j]

    def test_lookups_see_the_rows_and_then_the_moving_roots(self, monkeypatch):
        ctx = shifted_wavy_ctx()
        ts = ctx.l.grid[::4, None]
        xs = np.linspace(0.0, 1.0, 33)
        sizes = []
        original = HermiteAntiderivative._cell

        def counted(self, t):
            sizes.append(np.size(t))
            return original(self, t)

        monkeypatch.setattr(HermiteAntiderivative, "_cell", counted)
        is_boundary, _ = backtrace_batch(ts, xs, ctx)
        monkeypatch.undo()
        live = []
        reference_boundary_times(*boundary_feet(ctx, ts[:, 0], xs), ctx, live)
        boundary = int(np.count_nonzero(is_boundary))
        # P and Q at the foot times: one lookup of the rows, not rows x xs
        assert sizes[0] == ts.shape[0]
        # one lookup per Newton step, of the roots still moving, and the
        # residual check of every root
        assert sizes[1:] == [*live, boundary]
        assert live[0] == boundary and live[-1] < boundary
        assert all(a >= b for a, b in zip(live, live[1:]))
