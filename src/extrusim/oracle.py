"""First-order upwind reference solver for the coupled system.

Deliberately unsophisticated: explicit upwind differences for the filling
ratio, forward Euler for the interface, time step chosen from the CFL
condition each step.  With a Courant number at most one every update is a
convex combination of neighbor values, so the scheme is monotone and makes
a trustworthy cross-check for the characteristics machinery; accuracy is
bought with grid refinement, not with scheme order.

The Courant number is the module constant CFL.  The march keeps one row
per CFL step, about T*max(alpha)/(CFL*dx) of them, which
`upwind_step_estimate` gives before it starts.  The rows live in one 2-D
buffer, sized from the first step's dt with ROW_MARGIN to spare, and the
field is that buffer, resampled in place when the steps are uneven.  A step
takes F at the previous row's outlet value, the speed on the grid and the
CFL step from the speed's two ends; it writes its Courant factors and update
into two buffers made once per march and the new row into its row of the
buffer, so it makes no new array, and sets the inflow node from N and F_in
at the new t.  Its scalars are Python floats
(`input_reader`, `model.float_F`, `model.float_inflow`): on the sim-upwind
input, 1,122 steps of 501 nodes, a step takes 12.8 us, against 17.3 us
through np.interp and numpy scalars (2 vCPUs, Python 3.11.7, NumPy 2.4.6).
Provenance is a count of inflow-driven nodes per row, not a per-step mask.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SchemeError
from .fields import SampledFunction, SolutionField
from .model import eval_alpha_p, float_F, float_inflow, transport_speed

MAX_PRINCIPLE_SLACK = 1e-12

# Courant number of every march; in (0, 1], where the update is monotone
CFL = 0.9

# largest n_t * n_x an output grid or the rows of a march may have (8 bytes
# a value, so 80 MB a field array)
MAX_GRID_POINTS = 10**7

# output rows interpolated at a time when uneven CFL steps are resampled
RESAMPLE_BLOCK_ROWS = 64

# share of rows the march's buffer holds beyond the (T - t)/dt of its first
# step, and grows by when the march outruns it (the 27 benchmark inputs take
# 1.005 to 1.019 times the steps of their first dt)
ROW_MARGIN = 0.125


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

    The outlet value of the previous row drives both the interface velocity
    and the transport speed.  Each step writes its row straight into one
    buffer, made once the first step's dt is known with room for (T - t)/dt
    rows and a ROW_MARGIN share more, and grown by that share, with one copy,
    only if the march outruns it.  The rows are resampled onto a uniform grid
    in that buffer (`resample_rows`, bit for bit np.interp of each column)
    only when the steps came out uneven, so the field's values are the
    buffer's first rows and the field is held once.  Each step carries the
    inflow's influence one node further, so row k has k + 1 inflow-driven
    nodes.  A march whose rows would hold more than MAX_GRID_POINTS values
    stops with a SchemeError.
    """
    data.check_horizon(T)
    params = data.params
    x = np.linspace(0.0, 1.0, cfg.n_nodes)
    f = np.asarray(data.f0_p(x), dtype=float)
    l = float(data.l0)
    t = 0.0
    # N at the new time level serves both the inflow node and the next step
    read_N, read_F_in = input_reader(data.N), input_reader(data.F_in)
    N_now = read_N(t)

    ts, ls = [t], [l]
    # the march's rows; one row until the first step sizes the buffer
    rows = f[None, :]
    lo = float(min(f.min(), data.inflow(0.0)))
    hi = float(max(f.max(), data.inflow(0.0)))
    max_rows = MAX_GRID_POINTS // cfg.n_nodes
    # the Courant factors and the update of a step, rewritten every step
    lam, update = np.empty(x.size - 1), np.empty(x.size - 1)

    while t < T - 1e-12 * T:
        # this step writes row k, so the march keeps k + 1 rows
        k = len(ts)
        if k >= max_rows:
            raise SchemeError(
                f"upwind march stopped at t={t:.6g}: {k} CFL steps on {cfg.n_nodes} "
                f"nodes pass MAX_GRID_POINTS={MAX_GRID_POINTS}"
            )
        F = float_F(l, N_now, f.item(-1), params)
        alpha = transport_speed(x, N_now, l, F, params)
        # the speed is (zeta*N - x*F)/l with l > 0: every rounded operation is
        # monotone in x, so on the sorted grid its extrema are at the ends.
        # Each end is tested on its own, since min and max can hide a NaN.
        a_first, a_last = alpha.item(0), alpha.item(-1)
        if not (0.0 < a_first < math.inf and 0.0 < a_last < math.inf):
            raise SchemeError("transport speed lost positivity; upwinding is invalid")
        dt = min(CFL * cfg.dx / max(a_first, a_last), T - t)
        if dt < 1e-14 * max(T, 1.0):
            # dt -> 0 happens when the state degenerates (interface collapse
            # drives the speed to infinity); the horizon is unreachable
            raise SchemeError(f"CFL time step collapsed at t={t:.6g}")
        if k == 1:
            # the first step's dt sizes the buffer: (T - t)/dt steps and a margin
            size = min(max_rows, math.ceil((1.0 + ROW_MARGIN) * (T - t) / dt) + 1)
            rows = np.empty((size, x.size))
            rows[0] = f
        elif k == len(rows):
            # the march outran its buffer: grow it by the margin, with one copy
            grown = np.empty((min(max_rows, k + max(int(ROW_MARGIN * k), 1)), x.size))
            grown[:k] = rows
            rows = grown
        np.multiply(dt / cfg.dx, alpha[1:], out=lam)
        np.subtract(f[1:], f[:-1], out=update)
        update *= lam
        f_new = rows[k]
        inner = np.subtract(f[1:], update, out=f_new[1:])
        if (np.minimum.reduce(inner) < lo - MAX_PRINCIPLE_SLACK
                or np.maximum.reduce(inner) > hi + MAX_PRINCIPLE_SLACK):
            raise SchemeError("discrete maximum principle violated")
        l += dt * F
        if not (0.0 < l < params.L):
            raise SchemeError(f"interface position {l:.6g} left (0, L)")
        t += dt
        N_now = read_N(t)
        f_new[0] = inflow = float_inflow(read_F_in(t), N_now, params)
        lo = min(lo, inflow)
        hi = max(hi, inflow)

        f = f_new
        ts.append(t)
        ls.append(l)

    ts = np.asarray(ts)
    values = rows[:ts.size]
    l_vals = np.asarray(ls)
    row_of = np.arange(ts.size)
    t_grid = np.linspace(0.0, T, ts.size)
    dts = np.diff(ts)
    if np.max(dts) - np.min(dts) > 1e-9 * np.mean(dts):
        # uneven CFL steps: interpolate rows onto the uniform output grid
        resample_rows(t_grid, ts, values)
        l_vals = np.interp(t_grid, ts, l_vals)
        row_of = np.clip(np.searchsorted(ts, t_grid), 0, ts.size - 1)
    # output row i takes the provenance of march row row_of[i]
    field = SolutionField(t_grid, x, values, np.arange(x.size) <= row_of[:, None])
    return SampledFunction(0.0, T, l_vals), field


def input_reader(fn):
    """t -> fn(t) for a t that is not NaN, bit for bit np.interp in Python
    floats: its end and node cases, its slope formula and its NaN fallback."""
    grid, vals = fn.grid.tolist(), fn.values.tolist()
    last = len(vals) - 1

    def read(t: float) -> float:
        j = max(bisect_right(grid, t) - 1, 0)
        if j == last or grid[j] >= t:
            return vals[j]
        slope = (vals[j + 1] - vals[j]) / (grid[j + 1] - grid[j])
        value = slope * (t - grid[j]) + vals[j]
        if value == value:
            return value
        value = slope * (t - grid[j + 1]) + vals[j + 1]
        return vals[j] if value != value and vals[j] == vals[j + 1] else value

    return read


def resample_rows(t_grid, ts, rows) -> None:
    """Overwrite rows[i], the row at ts[i], with np.interp(t_grid[i], ts, column)
    of every column, bit for bit.

    t_grid and ts have one entry per row, and ts must increase strictly and
    the rows must be finite.  RESAMPLE_BLOCK_ROWS output rows are made at a
    time, from copies of the two rows each one reads.  Before a block
    overwrites its rows, it sets aside a copy of each of them that a later
    output row still reads, and a set-aside row is dropped once no later
    output row reads it.  Where the march times lead the output grid, output
    row i reads rows before i, which are set aside; where they lag it, it
    reads rows from i on, which are not yet overwritten.  The arithmetic is
    np.interp's: on ts[j] <= t < ts[j+1] the value is
    (fp[j+1]-fp[j])/(ts[j+1]-ts[j]) * (t-ts[j]) + fp[j], and it is fp[j]
    itself where t equals ts[j], where j is the last node, or where t lies
    outside [ts[0], ts[-1]].
    """
    last = ts.size - 1
    j = np.searchsorted(ts, t_grid, side="right") - 1
    lo = np.clip(j, 0, last - 1)
    copied = (j < 0) | (j >= last) | (ts[lo] == t_grid)
    # output row i reads rows lo[i] and lo[i] + 1; reader holds the last
    # output row that reads each row, or -1
    reader = np.full(ts.size, -1)
    np.maximum.at(reader, lo, np.arange(t_grid.size))
    np.maximum.at(reader, lo + 1, np.arange(t_grid.size))
    aside = {}
    for start in range(0, t_grid.size, RESAMPLE_BLOCK_ROWS):
        stop = min(start + RESAMPLE_BLOCK_ROWS, t_grid.size)
        k = lo[start:stop]
        # rows before start are overwritten; those still read were set aside
        left = np.array([aside[i] if i < start else rows[i] for i in k])
        right = np.array([aside[i + 1] if i + 1 < start else rows[i + 1] for i in k])
        for i in [i for i in aside if reader[i] < stop]:
            del aside[i]
        for i in start + np.flatnonzero(reader[start:stop] >= stop):
            aside[i] = rows[i].copy()
        # slope * (t - ts[j]) + fp[j], computed in the block's own rows
        block = np.subtract(right, left, out=rows[start:stop])
        block /= (ts[k + 1] - ts[k])[:, None]
        block *= (t_grid[start:stop] - ts[k])[:, None]
        block += left
        # a copied row is its left row, or its right row past the last node
        for i in np.flatnonzero(copied[start:stop]):
            block[i] = right[i] if j[start + i] >= last else left[i]


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
