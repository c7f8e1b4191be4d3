"""First-order upwind reference solver for the coupled system.

Deliberately unsophisticated: explicit upwind differences for the filling
ratio, forward Euler for the interface, time step chosen from the CFL
condition each step.  With a Courant number at most one every update is a
convex combination of neighbor values, so the scheme is monotone and makes
a trustworthy cross-check for the characteristics machinery; accuracy is
bought with grid refinement, not with scheme order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SchemeError
from .fields import (
    PROVENANCE_BOUNDARY,
    PROVENANCE_INITIAL,
    SampledFunction,
    SolutionField,
)
from .model import eval_F, eval_alpha_p, inflow_value

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


def simulate_upwind(data, T: float, cfg: UpwindConfig):
    """March the coupled system to time T; returns (l trace, ratio field).

    The inflow node is set from the feed data at the new time level, the
    outlet value of the previous row drives both the interface velocity and
    the transport speed.  Rows are recorded at every accepted step and
    resampled onto a uniform grid only when the CFL steps came out uneven.
    """
    if T <= 0.0:
        raise DomainError("horizon must be positive")
    params = data.params
    x = np.linspace(0.0, 1.0, cfg.n_nodes)
    f = np.asarray(data.f0_p(x), dtype=float)
    l = float(data.l0)
    bnd = x == 0.0  # nodes already driven by the inflow face
    t = 0.0

    rows = [f.copy()]
    flags = [bnd.copy()]
    ts = [0.0]
    ls = [l]
    lo = float(min(f.min(), data.inflow(0.0)))
    hi = float(max(f.max(), data.inflow(0.0)))

    while t < T - 1e-12 * T:
        N_now = float(data.N(t))
        b_out = float(f[-1])
        alpha = np.asarray(eval_alpha_p(x, N_now, l, b_out, params), dtype=float)
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise SchemeError("transport speed lost positivity; upwinding is invalid")
        dt = min(cfg.cfl * cfg.dx / float(alpha.max()), T - t)
        if dt < 1e-14 * max(T, 1.0):
            # dt -> 0 happens when the state degenerates (interface collapse
            # drives the speed to infinity); the horizon is unreachable
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
    prov = np.where(np.asarray(flags), PROVENANCE_BOUNDARY, PROVENANCE_INITIAL)
    l_vals = np.asarray(ls)
    t_grid = np.linspace(0.0, T, ts.size)
    dts = np.diff(ts)
    if np.max(dts) - np.min(dts) > 1e-9 * np.mean(dts):
        # uneven CFL steps: interpolate rows onto the uniform output grid
        values = np.stack([np.interp(t_grid, ts, values[:, j]) for j in range(x.size)], axis=1)
        l_vals = np.interp(t_grid, ts, l_vals)
        nearest = np.clip(np.searchsorted(ts, t_grid), 0, ts.size - 1)
        prov = prov[nearest]
    field = SolutionField(t_grid, x, values, prov.astype(np.uint8))
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


def convergence_study(data, T: float, dx_sequence, cfl: float = 0.9) -> ConvergenceStudy:
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
    configs = [UpwindConfig(dx=d, cfl=cfl) for d in dxs]

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
