"""First-order upwind reference solver for the coupled system.

Deliberately unsophisticated: explicit upwind differences for the filling
ratio, forward Euler for the interface, time step chosen from the CFL
condition each step.  With a Courant number at most one every update is a
convex combination of neighbor values, so the scheme is monotone and makes
a trustworthy cross-check for the characteristics machinery; accuracy is
bought with grid refinement, not with scheme order.

The march keeps one row per CFL step, so its memory follows the step
count, about T*max(alpha)/(cfl*dx), not the output grid;
`upwind_step_estimate` gives that count before the march starts.  The
scalar state (interface, screw speed, outlet ratio, F) stays in Python
floats, and provenance is a count of inflow-driven nodes per row rather
than a per-step mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SchemeError
from .fields import SampledFunction, SolutionField
from .model import eval_F, eval_alpha_p, inflow_value, transport_speed

MAX_PRINCIPLE_SLACK = 1e-12


@dataclass(frozen=True)
class UpwindConfig:
    """Grid and Courant settings for one upwind run."""

    dx: float
    cfl: float = 0.9

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise DomainError(f"cfl={self.cfl} outside (0, 1]")
        if self.dx <= 0.0:
            raise DomainError("dx must be positive")
        cells = round(1.0 / self.dx)
        if cells < 1 or abs(cells * self.dx - 1.0) > 1e-12:
            raise DomainError(f"dx={self.dx} does not divide the unit interval")

    @property
    def n_nodes(self) -> int:
        return round(1.0 / self.dx) + 1


def upwind_step_estimate(data, T: float, cfg: UpwindConfig) -> float:
    """CFL steps of the march to T at the speed of t = 0: T*max alpha/(cfl*dx).

    alpha_p is affine in x, so its maximum over [0, 1] sits at an end.  The
    speed moves with the state, so this sizes the march before it starts
    rather than bounding it.
    """
    N0 = float(data.N(0.0))
    alpha = eval_alpha_p(np.array([0.0, 1.0]), N0, float(data.l0), data.f0_p(1.0), data.params)
    return T * float(alpha.max()) / (cfg.cfl * cfg.dx)


def simulate_upwind(data, T: float, cfg: UpwindConfig):
    """March the coupled system to time T; returns (l trace, ratio field).

    The inflow node is set from the feed data at the new time level, the
    outlet value of the previous row drives both the interface velocity and
    the transport speed, through one evaluation of F per step.  The march
    records one row per accepted CFL step and resamples the rows onto a
    uniform grid only when the steps came out uneven.  Each step carries
    the inflow's influence one node further, so row k has k + 1
    inflow-driven nodes; the provenance mask is built from that count once
    the march is done.
    """
    if T <= 0.0:
        raise DomainError("horizon must be positive")
    params = data.params
    x = np.linspace(0.0, 1.0, cfg.n_nodes)
    f = np.asarray(data.f0_p(x), dtype=float)
    l = float(data.l0)
    t = 0.0
    # the inputs are read by np.interp directly; N at the new time level
    # serves both the inflow node and the next step
    N_grid, N_vals = data.N.grid, data.N.values
    F_grid, F_vals = data.F_in.grid, data.F_in.values
    N_now = float(np.interp(t, N_grid, N_vals))

    rows = [f]
    ts = [t]
    ls = [l]
    lo = float(min(f.min(), data.inflow(0.0)))
    hi = float(max(f.max(), data.inflow(0.0)))

    while t < T - 1e-12 * T:
        b_out = float(f[-1])
        F = eval_F(l, N_now, b_out, params)
        alpha = transport_speed(x, N_now, l, F, params)
        a_min, a_max = float(alpha.min()), float(alpha.max())
        # min and max propagate NaN, so this rejects any non-finite speed
        if not (a_min > 0.0 and a_max < math.inf):
            raise SchemeError("transport speed lost positivity; upwinding is invalid")
        dt = min(cfg.cfl * cfg.dx / a_max, T - t)
        if dt < 1e-14 * max(T, 1.0):
            # dt -> 0 happens when the state degenerates (interface collapse
            # drives the speed to infinity); the horizon is unreachable
            raise SchemeError(f"CFL time step collapsed at t={t:.6g}")
        lam = dt / cfg.dx * alpha[1:]

        f_new = np.empty_like(f)
        f_new[1:] = f[1:] - lam * (f[1:] - f[:-1])
        if f_new[1:].min() < lo - MAX_PRINCIPLE_SLACK or f_new[1:].max() > hi + MAX_PRINCIPLE_SLACK:
            raise SchemeError("discrete maximum principle violated")
        l += dt * F
        if not (0.0 < l < params.L):
            raise SchemeError(f"interface position {l:.6g} left (0, L)")
        t += dt
        N_now = float(np.interp(t, N_grid, N_vals))
        f_new[0] = inflow_value(float(np.interp(t, F_grid, F_vals)), N_now, params)
        lo = min(lo, f_new[0])
        hi = max(hi, f_new[0])

        f = f_new
        rows.append(f)
        ts.append(t)
        ls.append(l)

    ts = np.asarray(ts)
    values = np.asarray(rows)
    l_vals = np.asarray(ls)
    row_of = np.arange(ts.size)
    t_grid = np.linspace(0.0, T, ts.size)
    dts = np.diff(ts)
    if np.max(dts) - np.min(dts) > 1e-9 * np.mean(dts):
        # uneven CFL steps: interpolate rows onto the uniform output grid
        values = np.stack([np.interp(t_grid, ts, values[:, j]) for j in range(x.size)], axis=1)
        l_vals = np.interp(t_grid, ts, l_vals)
        row_of = np.clip(np.searchsorted(ts, t_grid), 0, ts.size - 1)
    # output row i takes the provenance of march row row_of[i]
    field = SolutionField(t_grid, x, values, np.arange(x.size) <= row_of[:, None])
    return SampledFunction(0.0, T, l_vals), field


@dataclass(frozen=True)
class ConvergenceStudy:
    """Observed order of the upwind error against the characteristics field."""

    dx: tuple
    errors: tuple
    orders: tuple
    order: float
    degenerate: bool
    inconclusive: bool


def convergence_study(data, T: float, dx_sequence) -> ConvergenceStudy:
    """L-infinity error at time T on a halving dx sequence, Richardson style.

    The reference field comes from the characteristics solver on the finest
    node set, so the sequence must be nested: every dx halves the previous
    one and all of them divide the unit interval.
    """
    from .wellposed import solve_semiglobal

    dxs = tuple(float(d) for d in dx_sequence)
    if len(dxs) < 3:
        raise DomainError("need at least three grids to measure an order")
    for dcoarse, dfine in zip(dxs, dxs[1:]):
        if abs(dfine - 0.5 * dcoarse) > 1e-12 * dcoarse:
            raise DomainError("dx sequence must halve at every refinement")
    configs = [UpwindConfig(dx=d) for d in dxs]

    n_ref = configs[-1].n_nodes
    ref = solve_semiglobal(data, T, n_t=161, n_x=n_ref)
    ref_final = ref.field.values[-1]

    errors = []
    for cfg in configs:
        _, field = simulate_upwind(data, T, cfg)
        stride = round(cfg.dx / dxs[-1])
        errors.append(float(np.max(np.abs(field.values[-1] - ref_final[::stride]))))

    errors = tuple(errors)
    if max(errors) <= 1e-10:
        return ConvergenceStudy(
            dx=dxs, errors=errors, orders=(), order=float("nan"),
            degenerate=True, inconclusive=False,
        )
    inconclusive = any(e_fine >= e_coarse for e_coarse, e_fine in zip(errors, errors[1:]))
    orders = tuple(
        float(np.log2(e_coarse / e_fine))
        for e_coarse, e_fine in zip(errors, errors[1:])
        if e_fine > 0.0
    )
    order = float("nan") if inconclusive or not orders else float(np.mean(orders))
    return ConvergenceStudy(
        dx=dxs, errors=errors, orders=orders, order=order,
        degenerate=False, inconclusive=inconclusive,
    )
