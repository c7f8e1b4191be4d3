"""Local and semi-global solution of the coupled interface/transport system.

The coupled unknowns are the interface trace l(t) and the outlet ratio
b(t) = f_p(t,1).  The solver Picard-iterates the map

    l   |->  l0 + integral of F(l, N, b)
    b   |->  datum carried to (t,1) along the characteristic

on a short interval whose length is chosen so the map provably contracts,
then restarts the Cauchy data at the junction (`model.CauchyData.restarted`,
which replaces the start time, interface position and profile, and checks
only those) and repeats until the requested horizon is covered.  Every
segment runs on the run's clock: its trace contexts span its own
[t_lo, t_hi] and read the inputs at run times.  The interval starts from
three admissibility terms (boundary-characteristic travel time and the two
interface budgets, all in the eps1 ball of radius `eps1_radius`); the
horizon is not a term, since each segment's interval is capped at the
last output node.  Each segment runs one sequence of iterates
(`_iterates`) on the interval it will actually cover, snapped to the
output grid: `compute_delta` runs its first two maps to probe the
contraction factor, `local_fixed_point` continues it to convergence, one
more step measures the residual, and that step's trace context, built
from the converged iterate, is the one the field f_p is assembled on by
tracing every grid point back to its datum.
A map is one pass over node arrays: the iterate (l, b) is one (2, n) block,
its context is a `TraceContext` of the block, one 2-d running integral
gives both the interface displacement and P, and no `SampledFunction` or
Hermite object is built until assembly looks up times between nodes.
Maps and assembly carry data with `carry`; an error in a segment names it
and, past segment 0, its start, and the times inside its message are run
times too.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .characteristics import TraceContext, backtrace_batch, backtrace_times, carry, xi
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    ExtrusimError,
    ResolutionError,
)
from .fields import SampledFunction, SolutionField, SpaceProfile, field_norm, norm
# the Cauchy data and their checks live in model, which loads no solver;
# wellposed.CauchyData and wellposed.inflow_peak are the same objects
from .model import CauchyData, EquilibriumPoint, eps1_radius, inflow_peak, norm_F_box

# Picard iteration stops once successive iterates are within PICARD_TOL,
# within PICARD_MAX_ITER maps
PICARD_TOL = 1e-11
PICARD_MAX_ITER = 100
# the contraction interval starts at this share of the smallest
# admissibility term, and its maps run on at least PROBE_POINTS nodes
DELTA_SAFETY = 0.5
PROBE_POINTS = 65


@dataclass(frozen=True)
class LocalSolveReport:
    """Outcome of the Picard iteration on [0, delta].

    `residual` is the distance of one map step past convergence, and
    `context` is that step's trace context: its l and b are the converged
    traces, so assembly traces characteristics on it without rebuilding it.
    """

    delta: float
    iterations: int
    contraction_factors: tuple
    context: TraceContext
    residual: float

    def __post_init__(self):
        # factors beyond the second iterate certify the contraction regime
        for f in self.contraction_factors[1:]:
            if f > 1.0 + 1e-9:
                raise DivergenceError(f"contraction factor {f:.3g} exceeds 1 past iteration 2")
        if self.residual > PICARD_TOL:
            raise ConvergenceError(
                f"fixed-point residual {self.residual:.3g} above {PICARD_TOL:.3g}"
            )


class SemiglobalSolution(NamedTuple):
    l: SampledFunction
    field: SolutionField
    reports: list


@dataclass(frozen=True)
class EstimateAudit:
    eps: float
    dev_l: float
    dev_fp: float
    sup_fp_linf: float

    @property
    def ratio_l(self) -> float:
        return self.dev_l / self.eps

    @property
    def ratio_fp(self) -> float:
        return self.dev_fp / self.eps


def _iterates(data: CauchyData, t_end: float, n: int, initial):
    """Picard iterates of the solution map on n nodes of [data.t0, t_end].

    Starts from the constant pair `initial` (the data at t0 if None) and
    reads N at the node times.  The iterate (l, b) is one (2, n) block and
    a map is one pass over node arrays: the context of the block
    (a `TraceContext`, whose running integrals give P and the
    interface displacement), the outlet origins and their datum.  Yields
    (ctx, next block, deviation, dist), in the maximum norm: the next
    block's distance from the equilibrium and from this one.
    """
    if initial is None:
        initial = (data.l0, float(data.f0_p.values[-1]))
    N = data.N(np.linspace(data.t0, t_end, n))
    center = np.array([[data.eq.l_e], [data.eq.f_pe]])
    lb = np.empty((2, n))
    lb[0], lb[1] = initial
    while True:
        ctx = TraceContext(data.t0, t_end, lb, N, data.params)
        nxt = np.empty((2, n))
        np.add(data.l0, ctx._displacement, out=nxt[0])
        # outlet origins at the context's node times, P and Q from its nodes;
        # called through this module's binding, so that a wrapper installed
        # on it (perfbench/tracer.py) sees one call per map
        is_boundary, origin = backtrace_times(1.0, ctx)
        nxt[1] = carry(is_boundary, origin, data.f0_p, data.inflow)
        yield ctx, nxt, float(np.abs(nxt - center).max()), float(np.abs(nxt - lb).max())
        lb = nxt


class Probe(NamedTuple):
    """An accepted interval of `cells` grid steps, its first contraction
    factor, and its iterates: `steps` replays the probe's maps, then goes
    on with the same sequence (for one `local_fixed_point` call)."""

    delta: float
    cells: int
    factor: float
    steps: Iterator


def compute_delta(data: CauchyData, f_norm: float, ends: np.ndarray, step: float) -> Probe:
    """Interval on which the solution map contracts, with its live iterates.

    Starts from DELTA_SAFETY times the smallest of the three admissibility
    terms in the ball of radius `eps1_radius` (boundary-characteristic
    travel time, and the two interface travel-distance budgets at the
    F-box norm `f_norm`), snaps it down to a node of `ends` (run times from
    data.t0, `step` apart; the last node caps it) and halves it until the
    contraction factor of the first two maps, on max(cells + 1,
    PROBE_POINTS) nodes, is at most 1/2.  `local_fixed_point` continues the
    returned `Probe`'s sequence rather than starting another.
    """
    eq = data.eq
    eps1 = eps1_radius(eq)
    delta = DELTA_SAFETY * min(
        (eq.l_e - eps1) / (data.params.zeta * (eq.N_e + eps1)),
        (eq.l_e - eps1) / f_norm,
        (data.params.L - eq.l_e - eps1) / f_norm,
    )
    while True:
        # the last node caps the interval, also one past the float range
        cells = int(min(np.floor(delta / step + 1e-12), ends.size - 1))
        if cells < 1:
            raise ResolutionError(
                f"contraction interval {delta:.3g} fell below the grid step {step:.3g}"
            )
        t_hi = float(ends[cells])
        steps = _iterates(data, t_hi, max(cells + 1, PROBE_POINTS), None)
        head = [next(steps)]
        d1 = head[0][3]
        factor = 0.0
        if d1 > PICARD_TOL:
            head.append(next(steps))
            factor = head[1][3] / d1
        if factor <= 0.5:
            return Probe(t_hi - data.t0, cells, factor, chain(head, steps))
        delta *= 0.5


def local_fixed_point(
    data: CauchyData,
    delta: float | Probe,
    n_t: int = 257,
    initial: tuple | None = None,
) -> LocalSolveReport:
    """Picard iteration for the coupled traces on [t0, t0 + delta], t0 = data.t0.

    `delta` is the interval length, or a `Probe` whose sequence (with its
    n_t and initial pair) is continued.  The initial candidate is the
    constant extension of the data at t0 unless another admissible pair
    is supplied.  Iterates must stay inside the eps1 ball of radius
    `eps1_radius` around the equilibrium; the loop stops when
    successive iterates are within PICARD_TOL in the maximum norm, and
    fails after PICARD_MAX_ITER maps.  The residual is the distance of one
    more step of the same sequence, and that step's trace context, built
    from the converged iterate, is the report's `context`, on which the
    field is assembled.
    """
    eq = data.eq
    eps1 = eps1_radius(eq)
    if isinstance(delta, Probe):
        delta, steps = delta.delta, delta.steps
    else:
        steps = _iterates(data, data.t0 + delta, n_t, initial)
    factors = []
    prev_dist = None
    for iterations, (_, _, deviation, dist) in enumerate(islice(steps, PICARD_MAX_ITER), 1):
        if deviation > eps1:
            raise DivergenceError(f"iterate {iterations} left the eps1={eps1:.3g} ball")
        if prev_dist is not None and prev_dist > 0.0:
            factors.append(dist / prev_dist)
        if dist <= PICARD_TOL:
            context, _, _, residual = next(steps)
            return LocalSolveReport(delta, iterations, tuple(factors), context, residual)
        prev_dist = dist
    raise ConvergenceError(
        f"no fixed point within {PICARD_MAX_ITER} iterations (last step {dist:.3g})"
    )


def _assemble_rows(ctx: TraceContext, data: CauchyData, t_rows, x_grid):
    """Datum transport to each requested row; returns values, flags, origins."""
    is_boundary, origin = backtrace_batch(np.asarray(t_rows, dtype=float)[:, None], x_grid, ctx)
    return carry(is_boundary, origin, data.f0_p, data.inflow), is_boundary, origin


def solve_semiglobal(
    data: CauchyData,
    T: float,
    n_t: int = 201,
    n_x: int = 101,
) -> SemiglobalSolution:
    """Cover [0, T] by chained contraction intervals.

    Every segment works in the eps1 ball of radius `eps1_radius` and runs
    one sequence of iterates, from the probe's maps to the assembly context,
    on the run's clock: its contexts span its own [t_lo, t_hi] and read the
    inputs at run times.

    Each junction restarts the data (`CauchyData.restarted`) at its time,
    with the current interface position and the field row stored there; the
    inputs stay those checked once for the run.  So consecutive
    segments share that row exactly, and a segment past the first assembles
    only the rows after it: its own first row would repeat the stored one
    bit for bit, since xi(t_lo; t_lo, x) = x and the junction profile is read
    at its own nodes.  Provenance is exact: each junction carries the
    position of the inlet-corner characteristic, advanced by the closed-form
    forward map `xi` and capped at 1, and a point whose characteristic
    starts on a segment's first row is boundary-fed exactly when it starts
    below that position.  Row 0 is all initial.
    """
    data.check_horizon(T)
    eq = data.eq
    # the F-box bound depends on params and eq alone: one per solve
    f_norm = norm_F_box(data.params, eq, eps1_radius(eq))
    t_grid = np.linspace(0.0, T, n_t)
    x_grid = np.linspace(0.0, 1.0, n_x)
    dt_out = t_grid[1] - t_grid[0]

    values = np.empty((n_t, n_x))
    provenance = np.zeros((n_t, n_x), dtype=bool)
    l_out = np.empty(n_t)
    reports = []

    seg_data = data
    # position at the segment's start of the characteristic from the inlet corner
    front = 0.0
    i_lo = 0
    while i_lo < n_t - 1:
        try:
            probe = compute_delta(seg_data, f_norm, t_grid[i_lo:], dt_out)
        except ExtrusimError as exc:
            start = f" from t={t_grid[i_lo]:.6g}" if i_lo else ""
            raise type(exc)(f"segment {len(reports)}{start}: {exc}") from exc
        i_hi = i_lo + probe.cells
        try:
            report = local_fixed_point(seg_data, probe)
        except ExtrusimError as exc:
            raise type(exc)(f"segment {len(reports)} on [{t_grid[i_lo]:.6g}, "
                            f"{t_grid[i_hi]:.6g}]: {exc}") from exc
        l_seg = report.context.l
        # past segment 0 the first row is the stored junction row
        first = int(i_lo > 0)
        rows = t_grid[i_lo + first:i_hi + 1]
        seg_vals, seg_flags, seg_orig = _assemble_rows(report.context, seg_data, rows, x_grid)
        values[i_lo + first:i_hi + 1] = seg_vals
        provenance[i_lo + first:i_hi + 1] = seg_flags | (seg_orig < front)
        l_out[i_lo + first:i_hi + 1] = l_seg(rows)
        reports.append(report)

        if i_hi < n_t - 1:
            front = min(1.0, xi(t_grid[i_hi], t_grid[i_lo], front, report.context))
            seg_data = seg_data.restarted(float(t_grid[i_hi]), float(l_seg.values[-1]),
                                          SpaceProfile(values[i_hi].copy()))
        i_lo = i_hi

    field = SolutionField(t_grid, x_grid, values, provenance)
    field.check_unit_range()
    l_sf = SampledFunction(0.0, T, l_out)
    return SemiglobalSolution(l=l_sf, field=field, reports=reports)


def check_estimates(
    solution: SemiglobalSolution, data: CauchyData, eq: EquilibriumPoint, eps: float
) -> EstimateAudit:
    """Deviation sizes of the computed solution relative to the data size eps."""
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    dev_l = norm("W1inf", solution.l.shifted_by(eq.l_e))
    dev_fp = field_norm("W1inf", solution.field, shift=eq.f_pe)
    sup_linf = field_norm("Linf", solution.field, shift=eq.f_pe)
    return EstimateAudit(eps=eps, dev_l=dev_l, dev_fp=dev_fp, sup_fp_linf=sup_linf)
