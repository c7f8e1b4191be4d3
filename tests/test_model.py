import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extrusim.errors import DomainError, ExtrusimError, SingularityError
from extrusim.model import (
    EquilibriumPoint,
    PhysicalParams,
    eval_F,
    eval_alpha_p,
    eval_g,
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
