import numpy as np
import pytest

from extrusim.errors import DomainError, SchemeError
from extrusim.fields import SampledFunction, SpaceProfile
from extrusim.model import PhysicalParams, solve_equilibrium
from extrusim.oracle import UpwindConfig, convergence_study, simulate_upwind
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


class TestUpwindConfig:
    def test_courant_number_range(self):
        with pytest.raises(DomainError):
            UpwindConfig(dx=0.02, cfl=0.0)
        with pytest.raises(DomainError):
            UpwindConfig(dx=0.02, cfl=1.5)
        assert UpwindConfig(dx=0.02, cfl=1.0).cfl == 1.0

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

    def test_unit_courant_constant_speed_shifts_exactly(self):
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
        l_trace, field = simulate_upwind(data, 0.1, UpwindConfig(dx=0.02, cfl=1.0))
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
