"""First-order upwind reference solver for the coupled system.

Deliberately unsophisticated: explicit upwind differences for the filling
ratio, forward Euler for the interface, time step chosen from the CFL
condition each step.  With a Courant number at most one every update is a
convex combination of neighbor values, so the scheme is monotone and makes
a trustworthy cross-check for the characteristics machinery; accuracy is
bought with grid refinement, not with scheme order.

The Courant number is the module constant CFL.  The march keeps one row
per CFL step, so its memory follows the step count, about
T*max(alpha)/(CFL*dx), not the output grid;
`upwind_step_estimate` gives that count before the march starts, and the
march stops once its rows hold more than MAX_GRID_POINTS values.  That
memory is the list of rows plus one output array: uneven steps are
resampled from the list a block of output rows at a time, with no copy of
the rows as one array and no column copies, and each row is released once
no later output row reads it.  The scalar state (interface, screw speed,
outlet ratio, F, the inflow value and the range of the data) stays in
Python floats, and `eval_F` and `inflow_value` compute on those floats,
without numpy's per-call overhead on scalars.  Provenance is a count of
inflow-driven nodes per row rather than a per-step mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SchemeError
from .fields import SampledFunction, SolutionField
from .model import eval_F, eval_alpha_p, inflow_value, transport_speed

MAX_PRINCIPLE_SLACK = 1e-12

# Courant number of every march; in (0, 1], where the update is monotone
CFL = 0.9

# largest n_t * n_x an output grid or the rows of a march may have (8 bytes
# a value, so 80 MB a field array)
MAX_GRID_POINTS = 10**7

# output rows interpolated at a time when uneven CFL steps are resampled
RESAMPLE_BLOCK_ROWS = 64


@dataclass(frozen=True)
class UpwindConfig:
    """Grid of one upwind run: dx must divide the unit interval."""

    dx: float

    def __post_init__(self):
        if self.dx <= 0.0:
            raise DomainError("dx must be positive")
        cells = round(1.0 / self.dx)
        if cells < 1 or abs(cells * self.dx - 1.0) > 1e-12:
            raise DomainError(f"dx={self.dx} does not divide the unit interval")

    @property
    def n_nodes(self) -> int:
        return round(1.0 / self.dx) + 1


def upwind_step_estimate(l0: float, f0_p, N0: float, params, T: float, cfg: UpwindConfig) -> float:
    """CFL steps of the march to T at the speed of t = 0: T*max alpha/(CFL*dx).

    The speed at t = 0 reads the interface l0, the outlet ratio f0_p(1) and
    the screw speed N0.  alpha_p is affine in x, so its maximum over [0, 1]
    sits at an end.  The speed moves with the state, so this sizes the march
    before it starts; the march itself stops at MAX_GRID_POINTS.
    """
    alpha = eval_alpha_p(np.array([0.0, 1.0]), float(N0), float(l0), f0_p(1.0), params)
    return T * float(alpha.max()) / (CFL * cfg.dx)


def simulate_upwind(data, T: float, cfg: UpwindConfig):
    """March the coupled system to time T; returns (l trace, ratio field).

    The inflow node is set from the feed data at the new time level, the
    outlet value of the previous row drives both the interface velocity and
    the transport speed, through one evaluation of F per step.  The CFL
    step reads the speed's extrema at the two ends of the grid.  The march
    records one row per accepted CFL step and resamples the rows onto a
    uniform grid (`resample_rows`, bit for bit np.interp of each column)
    only when the steps came out uneven, so it holds the rows and one output
    array, never a column copy.  Each step carries the inflow's influence
    one node further, so row k has k + 1 inflow-driven nodes; the
    provenance mask is built from that count once the march is done.
    A march whose rows would hold more than MAX_GRID_POINTS values stops
    with a SchemeError.
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
    max_rows = MAX_GRID_POINTS // cfg.n_nodes

    while t < T - 1e-12 * T:
        # one more step keeps len(rows) + 1 rows
        if len(rows) >= max_rows:
            raise SchemeError(
                f"upwind march stopped at t={t:.6g}: {len(rows)} CFL steps on {cfg.n_nodes} "
                f"nodes pass MAX_GRID_POINTS={MAX_GRID_POINTS}"
            )
        b_out = float(f[-1])
        F = eval_F(l, N_now, b_out, params)
        alpha = transport_speed(x, N_now, l, F, params)
        # the speed is (zeta*N - x*F)/l with l > 0: every rounded operation is
        # monotone in x, so on the sorted grid its extrema are at the ends.
        # Each end is tested on its own, since min and max can hide a NaN.
        a_first, a_last = float(alpha[0]), float(alpha[-1])
        if not (0.0 < a_first < math.inf and 0.0 < a_last < math.inf):
            raise SchemeError("transport speed lost positivity; upwinding is invalid")
        dt = min(CFL * cfg.dx / max(a_first, a_last), T - t)
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
        f_new[0] = inflow = inflow_value(float(np.interp(t, F_grid, F_vals)), N_now, params)
        lo = min(lo, inflow)
        hi = max(hi, inflow)

        f = f_new
        rows.append(f)
        ts.append(t)
        ls.append(l)

    ts = np.asarray(ts)
    l_vals = np.asarray(ls)
    row_of = np.arange(ts.size)
    t_grid = np.linspace(0.0, T, ts.size)
    dts = np.diff(ts)
    if np.max(dts) - np.min(dts) > 1e-9 * np.mean(dts):
        # uneven CFL steps: interpolate rows onto the uniform output grid
        values = resample_rows(t_grid, ts, rows)
        l_vals = np.interp(t_grid, ts, l_vals)
        row_of = np.clip(np.searchsorted(ts, t_grid), 0, ts.size - 1)
    else:
        values = np.asarray(rows)
    del rows
    # output row i takes the provenance of march row row_of[i]
    field = SolutionField(t_grid, x, values, np.arange(x.size) <= row_of[:, None])
    return SampledFunction(0.0, T, l_vals), field


def resample_rows(t_grid, ts, rows) -> np.ndarray:
    """np.interp(t_grid, ts, column) of every column of the rows, bit for bit.

    ts must increase strictly and the rows must be finite.  The rows are read
    straight from the list, RESAMPLE_BLOCK_ROWS output rows at a time, and each
    entry is set to None once no later output row reads it, so the rows and
    the output are never both held whole.  The arithmetic is np.interp's: on
    ts[j] <= t < ts[j+1] the value is (fp[j+1]-fp[j])/(ts[j+1]-ts[j]) *
    (t-ts[j]) + fp[j], and it is fp[j] itself where t equals ts[j], where j is
    the last node, or where t lies outside [ts[0], ts[-1]].
    """
    last = ts.size - 1
    j = np.searchsorted(ts, t_grid, side="right") - 1
    lo = np.clip(j, 0, last - 1)
    copied = (j < 0) | (j >= last) | (ts[lo] == t_grid)
    src = np.clip(j, 0, last)
    out = np.empty((t_grid.size, rows[0].size))
    released = 0
    for start in range(0, t_grid.size, RESAMPLE_BLOCK_ROWS):
        stop = min(start + RESAMPLE_BLOCK_ROWS, t_grid.size)
        k = lo[start:stop]
        left = np.array([rows[i] for i in k])
        right = np.array([rows[i + 1] for i in k])
        # slope * (t - ts[j]) + fp[j], computed in the output block
        block = np.subtract(right, left, out=out[start:stop])
        block /= (ts[k + 1] - ts[k])[:, None]
        block *= (t_grid[start:stop] - ts[k])[:, None]
        block += left
        for i in start + np.flatnonzero(copied[start:stop]):
            out[i] = rows[src[i]]
        # lo never decreases, so no later output row reads a row before lo[stop]
        keep = lo[stop] if stop < t_grid.size else len(rows)
        rows[released:keep] = [None] * (keep - released)
        released = keep
    return out


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
