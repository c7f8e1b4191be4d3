import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extrusim.errors import DomainError, ExtrusimError, SingularityError
from extrusim.model import (
    EquilibriumPoint,
    PhysicalParams,
    die_balance,
    die_kernel,
    eps1_bound,
    eval_F,
    eval_alpha_p,
    eval_g,
    float_F,
    float_inflow,
    inflow_value,
    norm_F_box,
    solve_equilibrium,
)

UNIT = PhysicalParams()


@pytest.fixture
def eq_unit():
    return solve_equilibrium(UNIT, N_e=1.0, l_e=0.5)


class TestPhysicalParams:
    def test_defaults_are_unit(self):
        assert UNIT.zeta == UNIT.L == UNIT.K_d == UNIT.B == UNIT.rho0 == UNIT.V_eff == 1.0

    @pytest.mark.parametrize("field", ["zeta", "L", "K_d", "B", "rho0", "V_eff"])
    def test_rejects_nonpositive(self, field):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                PhysicalParams(**{field: bad})


class TestEvalG:
    def test_vanishes_at_equilibrium_ratio(self):
        # f = K_d(L-l)/(B rho0 + K_d(L-l)) makes the two terms cancel
        assert abs(eval_g(0.5, 1.0 / 3.0, UNIT)) <= 1e-12

    def test_overfull_die(self):
        assert eval_g(0.5, 0.5, UNIT) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_underfull_die(self):
        assert eval_g(0.45, 1.0 / 3.0, UNIT) == pytest.approx(0.0322581, abs=1e-6)

    def test_full_die_is_singular(self):
        with pytest.raises(SingularityError):
            eval_g(0.5, 1.0, UNIT)

    @pytest.mark.parametrize("l", [0.0, 1.0, -0.2, 1.3])
    def test_interface_outside_barrel(self, l):
        with pytest.raises(DomainError):
            eval_g(l, 0.3, UNIT)

    def test_broadcasts(self):
        ls = np.array([0.45, 0.5, 0.55])
        out = eval_g(ls, 1.0 / 3.0, UNIT)
        assert out.shape == (3,)
        assert out[0] > 0.0 > out[2]


class TestEvalF:
    def test_zero_at_equilibrium(self):
        assert abs(eval_F(0.5, 1.0, 1.0 / 3.0, UNIT)) <= 1e-12

    def test_scales_with_speed(self):
        assert eval_F(0.5, 2.0, 0.5, UNIT) == pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_feed_example(self):
        assert eval_F(0.45, 3.1, 1.0 / 3.0, UNIT) == pytest.approx(0.1, abs=1e-3)

    def test_is_exactly_speed_times_g(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            l = rng.uniform(0.05, 0.95)
            n = rng.uniform(0.1, 5.0)
            f = rng.uniform(0.0, 0.95)
            assert eval_F(l, n, f, UNIT) == n * eval_g(l, f, UNIT)


class TestAlphaP:
    def test_at_inflow_face(self):
        assert eval_alpha_p(0.0, 1.0, 0.5, 0.7, UNIT) == pytest.approx(2.0)

    def test_at_equilibrium_any_x(self):
        for x in (0.0, 0.3, 1.0):
            assert eval_alpha_p(x, 1.0, 0.5, 1.0 / 3.0, UNIT) == pytest.approx(2.0, abs=1e-12)

    def test_at_interface(self):
        assert eval_alpha_p(1.0, 1.0, 0.5, 0.5, UNIT) == pytest.approx(8.0 / 3.0, abs=1e-15)

    def test_nonpositive_interface_rejected(self):
        with pytest.raises(DomainError):
            eval_alpha_p(0.5, 1.0, 0.0, 0.3, UNIT)

    def test_affine_in_x(self):
        l, n, f = 0.45, 1.3, 0.4
        a0 = eval_alpha_p(0.0, n, l, f, UNIT)
        F = eval_F(l, n, f, UNIT)
        for x in np.linspace(0.0, 1.0, 17):
            assert eval_alpha_p(x, n, l, f, UNIT) == pytest.approx(a0 - x * F / l, abs=1e-14)


class TestInflow:
    @pytest.mark.parametrize(
        "F_in,N,expect", [(1.0 / 3.0, 1.0, 1.0 / 3.0), (0.0, 1.0, 0.0), (0.5, 2.0, 0.25)]
    )
    def test_ratio(self, F_in, N, expect):
        assert inflow_value(F_in, N, UNIT) == pytest.approx(expect, abs=1e-15)

    def test_stalled_screw_rejected(self):
        with pytest.raises(DomainError):
            inflow_value(0.3, 0.0, UNIT)


def _outcome(fn, *args):
    try:
        return "ok", np.float64(np.squeeze(fn(*args))).tobytes()
    except ExtrusimError as exc:
        return type(exc), str(exc)


class TestScalarPath:
    """Python floats take a numpy-scalar path; it must agree bit for bit,
    and error for error, with the same inputs given as arrays."""

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(-0.2, 1.2),
        N=st.floats(-1.0, 5.0),
        l=st.floats(-0.2, 1.2),
        f=st.floats(-0.2, 1.2),
        F_in=st.floats(0.0, 3.0),
        K_d=st.floats(0.1, 10.0),
    )
    def test_scalars_match_arrays(self, x, N, l, f, F_in, K_d):
        params = PhysicalParams(K_d=K_d, B=0.7, zeta=1.3)
        a = np.array
        # a subnormal l overflows alpha to inf on both paths alike
        with np.errstate(over="ignore"):
            for fn, args in (
                (eval_g, (l, f)),
                (eval_F, (l, N, f)),
                (eval_alpha_p, (x, N, l, f)),
                (inflow_value, (F_in, N)),
            ):
                scalar = _outcome(fn, *args, params)
                assert scalar == _outcome(fn, *(a([v]) for v in args), params)
                assert scalar == _outcome(fn, *(a(v) for v in args), params)
                if scalar[0] == "ok":
                    assert type(fn(*args, params)) is float


class TestFloatEntryPoints:
    """The upwind march's F and inflow ratio on Python floats: the bits and
    the errors of eval_F and inflow_value, and a Python float as the result."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        N=st.floats(-1.0, 5.0),
        l=st.floats(-0.2, 1.2),
        f=st.floats(-0.2, 1.2),
        F_in=st.floats(0.0, 3.0),
        K_d=st.floats(0.1, 10.0),
    )
    def test_same_outcome_as_the_general_functions(self, N, l, f, F_in, K_d):
        params = PhysicalParams(K_d=K_d, B=0.7, zeta=1.3)
        for fast, general, args in ((float_F, eval_F, (l, N, f)),
                                    (float_inflow, inflow_value, (F_in, N))):
            outcome = _outcome(fast, *args, params)
            assert outcome == _outcome(general, *args, params)
            if outcome[0] == "ok":
                assert type(fast(*args, params)) is float

    @pytest.mark.parametrize("l, N, f", [(math.nan, 1.0, 0.3), (0.5, math.nan, 0.3),
                                         (0.5, 1.0, math.nan), (1.0, 1.0, 0.3), (0.5, 1.0, 1.0)])
    def test_nan_and_range_edges(self, l, N, f):
        assert _outcome(float_F, l, N, f, UNIT) == _outcome(eval_F, l, N, f, UNIT)
        assert _outcome(float_inflow, f, N, UNIT) == _outcome(inflow_value, f, N, UNIT)


class TestSolveEquilibrium:
    def test_from_interface(self, eq_unit):
        assert eq_unit.f_pe == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_from_ratio(self):
        eq = solve_equilibrium(UNIT, N_e=1.0, f_pe=1.0 / 3.0)
        assert eq.l_e == pytest.approx(0.5, abs=1e-15)
        assert abs(eval_g(eq.l_e, eq.f_pe, UNIT)) <= 1e-12

    def test_nearly_full_die_is_infeasible(self):
        # l_e = L - B rho0 f/(K_d (1-f)) drops below zero as f -> 1
        with pytest.raises(DomainError):
            solve_equilibrium(UNIT, N_e=1.0, f_pe=1.0 - 1e-6)

    def test_closure_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            l_e = rng.uniform(0.05, 0.95)
            eq = solve_equilibrium(UNIT, N_e=rng.uniform(0.2, 4.0), l_e=l_e)
            assert abs(eval_g(eq.l_e, eq.f_pe, UNIT)) <= 1e-12

    def test_requires_exactly_one_given(self):
        with pytest.raises(DomainError):
            solve_equilibrium(UNIT, N_e=1.0)
        with pytest.raises(DomainError):
            solve_equilibrium(UNIT, N_e=1.0, l_e=0.5, f_pe=0.3)


class TestEquilibriumPoint:
    def test_rejects_non_equilibrium_triple(self):
        with pytest.raises(DomainError):
            EquilibriumPoint(l_e=0.5, N_e=1.0, f_pe=0.4, params=UNIT)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            EquilibriumPoint(l_e=1.5, N_e=1.0, f_pe=0.3, params=UNIT)

    def test_unit_scale_anchor_keeps_its_tolerance(self):
        # N_e*zeta*f_pe/(1 - f_pe) = 0.5 at f_pe = 1/3: the bound stays 1e-12
        with pytest.raises(DomainError, match=r"^not an equilibrium: \|F\| = \S+ > 1e-12$"):
            EquilibriumPoint(l_e=0.5, N_e=1.0, f_pe=1.0 / 3.0 + 1e-11, params=UNIT)

    def test_tolerance_scales_with_the_outflow_term(self):
        # g is the difference of two terms of zeta*f_pe/(1 - f_pe) = 420, so
        # F rounds by ulps of N_e*420 = 3780 at the solved point, and the
        # bound is 1e-12 of that; a point off by 1e-9 in f_pe still fails it
        params = PhysicalParams(zeta=2.0, L=7.0, K_d=10.0, B=0.25)
        eq = solve_equilibrium(params, N_e=9.0, l_e=1.75)
        assert abs(eval_F(eq.l_e, eq.N_e, eq.f_pe, params)) > 1e-12
        with pytest.raises(DomainError, match=r"^not an equilibrium: \|F\| = \S+ > 3\.78e-09$"):
            EquilibriumPoint(l_e=eq.l_e, N_e=eq.N_e, f_pe=eq.f_pe - 1e-9, params=params)


class TestNormFBox:
    def test_degenerate_box(self, eq_unit):
        # at the equilibrium point F and dF/dN vanish; the ratio partial
        # N_e*g_f = 1.5 dominates, times the default 1.25 inflation
        assert norm_F_box(UNIT, eq_unit, 0.0) == pytest.approx(1.875, rel=1e-12)

    def test_monotone_in_radius(self, eq_unit):
        vals = [norm_F_box(UNIT, eq_unit, e) for e in (0.05, 0.10, 0.20)]
        assert vals[0] <= vals[1] <= vals[2]
        assert all(math.isfinite(v) for v in vals)

    def test_radius_must_fit_physical_ranges(self, eq_unit):
        with pytest.raises(DomainError):
            norm_F_box(UNIT, eq_unit, 0.4)

    def test_bounds_F_on_random_box_points(self, eq_unit):
        eps1 = 0.1
        bound = norm_F_box(UNIT, eq_unit, eps1)
        rng = np.random.default_rng(23)
        ls = eq_unit.l_e + rng.uniform(-eps1, eps1, 10_000)
        ns = eq_unit.N_e + rng.uniform(-eps1, eps1, 10_000)
        fs = eq_unit.f_pe + rng.uniform(-eps1, eps1, 10_000)
        F = eval_F(ls, ns, fs, UNIT)
        assert np.max(np.abs(F)) <= bound


def reference_die_balance(l, f_p1, params):
    """g as `die_balance` computed it before the kernel, kept as the
    bit-for-bit reference."""
    remaining = params.K_d * (params.L - l)
    empty = 1.0 - f_p1
    denom = (params.B * params.rho0 + remaining) * empty
    return params.zeta * remaining / denom - params.zeta * f_p1 / empty


def reference_g_partials(l, f_p1, params):
    """dg/dl and dg/df as `_g_partials` computed them before the kernel
    (`norm_F_box` now takes them from the kernel)."""
    D = params.B * params.rho0 + params.K_d * (params.L - l)
    one_minus = 1.0 - f_p1
    dg_dl = -params.zeta * params.K_d * params.B * params.rho0 / (D * D * one_minus)
    dg_df = -params.zeta * params.B * params.rho0 / (D * one_minus * one_minus)
    return dg_dl, dg_df


def reference_norm_F_box(params, eq, eps1):
    """`norm_F_box` as it sampled the eps1 box, 101 points an axis, before it
    took the corners, kept as the bit-for-bit reference."""
    ls = np.linspace(eq.l_e - eps1, eq.l_e + eps1, 101)
    fs = np.linspace(eq.f_pe - eps1, eq.f_pe + eps1, 101)
    lg, fg = np.meshgrid(ls, fs, indexing="ij")
    g = reference_die_balance(lg, fg, params)
    dg_dl, dg_df = reference_g_partials(lg, fg, params)
    n_hi = np.max(np.abs(np.linspace(eq.N_e - eps1, eq.N_e + eps1, 101)))
    sups = (n_hi * np.max(np.abs(g)), n_hi * np.max(np.abs(dg_dl)),
            np.max(np.abs(g)), n_hi * np.max(np.abs(dg_df)))
    return float(1.25 * max(sups))


positive = st.floats(0.05, 20.0)


@st.composite
def in_range_arrays(draw):
    """Parameters, and l in (0, L) and f_p1 in [0, 1) as float arrays."""
    params = PhysicalParams(zeta=draw(positive), L=draw(positive), K_d=draw(positive),
                            B=draw(positive), rho0=draw(positive))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 300))
    l = params.L * rng.uniform(1e-6, 1.0 - 1e-6, n)
    f = rng.uniform(0.0, 0.999, n)
    f[rng.random(n) < 0.1] = 0.0
    return params, l, f


class TestDieKernel:
    """g and its partials come from one kernel, `die_kernel`, with the bits
    of the formulas it replaced."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=in_range_arrays())
    def test_balance_and_partials_are_the_old_bits(self, case):
        params, l, f = case
        g = die_balance(l, f, params)
        assert g.tobytes() == reference_die_balance(l, f, params).tobytes()
        empty = 1.0 - f
        full = die_kernel(l, empty, params.zeta * f / empty, params, slopes=True)
        assert full[0].tobytes() == g.tobytes()
        for new, old in zip(full[1:], reference_g_partials(l, f, params), strict=True):
            assert new.tobytes() == old.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=in_range_arrays())
    def test_python_floats_give_the_array_bits(self, case):
        # the upwind march evaluates g on Python floats
        params, l, f = case
        for l_i, f_i, g_i in zip(l.tolist(), f.tolist(), die_balance(l, f, params).tolist()):
            assert die_balance(l_i, f_i, params) == g_i
            assert eval_g(l_i, f_i, params) == reference_die_balance(l_i, f_i, params)

    def test_norm_F_box_is_the_old_bits(self):
        # norm_F_box takes g and both partials from one kernel call, not
        # from eval_g and the old partials, and only on the box's corners
        for params in (UNIT, PhysicalParams(zeta=0.7, L=2.0, K_d=3.0, B=0.4, rho0=1.3)):
            eq = solve_equilibrium(params, N_e=1.2, l_e=0.45 * params.L)
            for eps1 in (0.0, 0.01, 0.1):
                assert norm_F_box(params, eq, eps1) == reference_norm_F_box(params, eq, eps1)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(params=st.builds(PhysicalParams, zeta=positive, L=positive, K_d=positive,
                            B=positive, rho0=positive),
           N_e=st.floats(0.01, 20.0), place=st.floats(0.001, 0.999),
           share=st.floats(0.0, 0.999))
    def test_corner_bound_is_the_sampled_bound(self, params, N_e, place, share):
        # the supremum of the 101 x 101 sampled (l, f) box lies on its corners
        try:
            eq = solve_equilibrium(params, N_e=N_e, l_e=place * params.L)
        except DomainError:
            # f_pe near 1 can leave a residual above EquilibriumPoint's 1e-12
            assume(False)
        eps1 = share * eps1_bound(eq)
        assert norm_F_box(params, eq, eps1) == reference_norm_F_box(params, eq, eps1)
