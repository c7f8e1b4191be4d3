"""Local and semi-global solution of the coupled interface/transport system.

The coupled unknowns are the interface trace l(t) and the outlet ratio
b(t) = f_p(t,1).  The solver Picard-iterates the map

    l   |->  l0 + integral of F(l, N, b)
    b   |->  datum carried to (t,1) along the characteristic

on a short interval whose length is chosen so the map provably contracts,
then re-roots the Cauchy data at the junction and repeats until the
requested horizon is covered.  The interval starts from three admissibility
terms (boundary-characteristic travel time and the two interface budgets,
all in the eps1 ball of radius `eps1_radius`); the horizon is not a term,
since each segment's interval is capped at the last output node.  Each
segment runs one sequence of iterates (`_iterates`) on the interval it
will actually cover, snapped to the output grid: `compute_delta` runs its
first two maps to probe the contraction factor, `local_fixed_point`
continues it to convergence, one more step measures the residual, and that
step's trace context, built from the converged iterate, is the one the
field f_p is assembled on by tracing every grid point back to its datum.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .characteristics import TraceContext, backtrace_batch, backtrace_times
from .errors import (
    CompatibilityError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    ResolutionError,
)
from .fields import SampledFunction, SolutionField, SpaceProfile, field_norm, norm
from .model import EquilibriumPoint, PhysicalParams, eps1_radius, inflow_value, norm_F_box
from .quadrature import cumulative_integral

COMPAT_TOL = 1e-10
# Picard iteration stops once successive iterates are within PICARD_TOL,
# within PICARD_MAX_ITER maps
PICARD_TOL = 1e-11
PICARD_MAX_ITER = 100
# the contraction interval starts at this share of the smallest
# admissibility term, and its maps run on at least PROBE_POINTS nodes
DELTA_SAFETY = 0.5
PROBE_POINTS = 65


def inflow_peak(F_in: SampledFunction, N: SampledFunction, params: PhysicalParams):
    """Largest inflow ratio F_in/(rho0*V_eff*N) over the inputs' interval, and
    the first time it is reached.

    Between the joint nodes of the two piecewise-linear inputs the ratio is
    a linear-fractional function of t with a positive denominator, so it is
    monotone there and its maximum lies on a node.  N must be positive.
    """
    # the joint nodes, unsorted: a first np.sort or np.union1d in the
    # process pages in sort code (np.union1d imports numpy.ma too)
    t = np.concatenate((F_in.grid, N.grid))
    ratio = F_in(t) / (params.rho0 * params.V_eff * N(t))
    peak = ratio.max()
    return float(peak), float(t[ratio == peak].min())


@dataclass(frozen=True)
class CauchyData:
    """Initial interface position and profile plus the boundary inputs.

    Every instance is corner-compatible: the inflow ratio at the first
    input time matches f0_p(0) to COMPAT_TOL.  The inflow ratio, the
    boundary value of f_p, stays below 1 on the whole input interval.
    """

    l0: float
    f0_p: SpaceProfile
    F_in: SampledFunction
    N: SampledFunction
    params: PhysicalParams
    eq: EquilibriumPoint

    def __post_init__(self):
        if not (0.0 < self.l0 < self.params.L):
            raise DomainError(f"l0={self.l0} outside (0, L={self.params.L})")
        vals = self.f0_p.values
        if np.min(vals) < 0.0 or np.max(vals) > 1.0 or vals[-1] >= 1.0:
            raise DomainError("initial profile must take values in [0,1] with f0_p(1) < 1")
        if np.any(self.N.values <= 0.0):
            raise DomainError("screw speed input must stay positive")
        if np.any(self.F_in.values < 0.0):
            raise DomainError("feed rate input must be nonnegative")
        peak, t_peak = inflow_peak(self.F_in, self.N, self.params)
        if peak >= 1.0:
            raise DomainError(f"inflow ratio F_in/(rho0*V_eff*N) reaches {peak:.6g} at "
                              f"t={t_peak:.6g}; it must stay below 1")
        corner = inflow_value(self.F_in(self.F_in.t_start), self.N(self.N.t_start), self.params)
        if abs(corner - float(vals[0])) > COMPAT_TOL:
            raise CompatibilityError(
                f"corner compatibility violated: inflow {corner:.12g} vs profile {vals[0]:.12g}"
            )

    def inflow(self, t):
        return inflow_value(self.F_in(t), self.N(t), self.params)


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


def _resample(sf: SampledFunction, t_start: float, t_end: float, n: int) -> SampledFunction:
    grid = np.linspace(t_start, t_end, n)
    return SampledFunction(t_start, t_end, np.asarray(sf(grid), dtype=float))


def _datum_at(data: CauchyData, is_boundary, origin):
    """Datum carried along each characteristic: f0_p at beta, inflow at tau."""
    values = np.empty(origin.shape)
    for on_side, datum in ((~is_boundary, data.f0_p), (is_boundary, data.inflow)):
        # a side no characteristic came from is not evaluated
        if on_side.any():
            values[on_side] = datum(origin[on_side])
    return values


def _iterates(data: CauchyData, delta: float, n: int, initial):
    """Picard iterates of the solution map on n nodes of [0, delta].

    Starts from the constant pair `initial` (the data at t=0 if None).  Each
    step builds the trace context of the current iterate (l, b) and yields
    (ctx, l_next, b_next, dist), where dist is the maximum-norm distance
    between the two iterates.
    """
    if initial is None:
        initial = (data.l0, float(data.f0_p.values[-1]))
    N_sf = _resample(data.N, 0.0, delta, n)
    # every iterate lives on the grid of N_sf
    dt = N_sf.dt
    l_vals = np.full(n, float(initial[0]))
    b_vals = np.full(n, float(initial[1]))
    while True:
        ctx = TraceContext(
            SampledFunction(0.0, delta, l_vals),
            N_sf,
            SampledFunction(0.0, delta, b_vals),
            data.params,
        )
        l_next = data.l0 + cumulative_integral(ctx._F_nodes, dt)
        # outlet origins at the context's node times, P and Q from its nodes;
        # called through this module's binding, so that a wrapper installed
        # on it (perfbench/tracer.py) sees one call per map
        is_boundary, origin = backtrace_times(1.0, ctx)
        b_next = _datum_at(data, is_boundary, origin)
        dist = float(max(np.abs(l_next - l_vals).max(), np.abs(b_next - b_vals).max()))
        yield ctx, l_next, b_next, dist
        l_vals, b_vals = l_next, b_next


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
    F-box norm `f_norm`), snaps it down to a node of `ends` (times from 0,
    `step` apart; the last node caps it) and halves it until the
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
        cells = int(np.floor(delta / step + 1e-12))
        if cells < 1:
            raise ResolutionError(
                f"contraction interval {delta:.3g} fell below the grid step {step:.3g}"
            )
        cells = min(cells, ends.size - 1)
        snapped = float(ends[cells])
        steps = _iterates(data, snapped, max(cells + 1, PROBE_POINTS), None)
        head = [next(steps)]
        d1 = head[0][3]
        factor = 0.0
        if d1 > PICARD_TOL:
            head.append(next(steps))
            factor = head[1][3] / d1
        if factor <= 0.5:
            return Probe(snapped, cells, factor, chain(head, steps))
        delta *= 0.5


def local_fixed_point(
    data: CauchyData,
    delta: float | Probe,
    n_t: int = 257,
    initial: tuple | None = None,
) -> LocalSolveReport:
    """Picard iteration for the coupled traces on [0, delta].

    `delta` is the interval length, or a `Probe` whose sequence (with its
    n_t and initial pair) is continued.  The initial candidate is the
    constant extension of the data at t=0 unless another admissible pair
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
        steps = _iterates(data, delta, n_t, initial)
    factors = []
    prev_dist = None
    for iterations, (_, l_vals, b_vals, dist) in enumerate(islice(steps, PICARD_MAX_ITER), 1):
        if np.abs(l_vals - eq.l_e).max() > eps1 or np.abs(b_vals - eq.f_pe).max() > eps1:
            raise DivergenceError(f"iterate {iterations} left the eps1={eps1:.3g} ball")
        if prev_dist is not None and prev_dist > 0.0:
            factors.append(dist / prev_dist)
        if dist <= PICARD_TOL:
            context, _, _, residual = next(steps)
            return LocalSolveReport(
                delta=delta,
                iterations=iterations,
                contraction_factors=tuple(factors),
                context=context,
                residual=residual,
            )
        prev_dist = dist
    raise ConvergenceError(
        f"no fixed point within {PICARD_MAX_ITER} iterations (last step {dist:.3g})"
    )


def _assemble_rows(ctx: TraceContext, data: CauchyData, t_rows, x_grid):
    """Datum transport to each requested row; returns values, flags, origins."""
    is_boundary, origin = backtrace_batch(np.asarray(t_rows, dtype=float)[:, None], x_grid, ctx)
    return _datum_at(data, is_boundary, origin), is_boundary, origin


def solve_semiglobal(
    data: CauchyData,
    T: float,
    n_t: int = 201,
    n_x: int = 101,
) -> SemiglobalSolution:
    """Cover [0, T] by chained contraction intervals.

    Every segment works in the eps1 ball of radius `eps1_radius` and runs
    one sequence of iterates, from the probe's maps to the assembly context.

    Each junction re-roots the Cauchy data with the current interface
    position and the field row at the junction time, so consecutive
    segments share that row exactly: a segment rewrites its first row with
    the same values, since xi(0; 0, x) = x and the junction profile is read
    at its own nodes.  Provenance is propagated globally: a point fed from
    a segment's first row inherits the tag of the node its characteristic
    came from, and row 0 is all initial.
    """
    if T <= 0.0:
        raise DomainError("horizon must be positive")
    eq = data.eq
    # the F-box bound depends on params and eq alone: one per solve
    f_norm = norm_F_box(data.params, eq, eps1_radius(eq))
    t_grid = np.linspace(0.0, T, n_t)
    x_grid = np.linspace(0.0, 1.0, n_x)
    dt_out = t_grid[1] - t_grid[0]
    # inputs resampled once so every junction lands on a shared grid node
    F_in_g = _resample(data.F_in, 0.0, T, n_t)
    N_g = _resample(data.N, 0.0, T, n_t)

    values = np.empty((n_t, n_x))
    provenance = np.zeros((n_t, n_x), dtype=bool)
    l_out = np.empty(n_t)
    reports = []

    seg_data = CauchyData(data.l0, data.f0_p, F_in_g, N_g, data.params, eq)
    i_lo = 0
    while i_lo < n_t - 1:
        ends = t_grid[i_lo:] - t_grid[i_lo]
        try:
            probe = compute_delta(seg_data, f_norm, ends, dt_out)
        except ResolutionError as exc:
            raise ResolutionError(f"segment {len(reports)}: {exc}") from exc
        i_hi = i_lo + probe.cells
        try:
            report = local_fixed_point(seg_data, probe)
        except (DivergenceError, ConvergenceError) as exc:
            raise type(exc)(f"segment {len(reports)} on [{t_grid[i_lo]:.6g}, "
                            f"{t_grid[i_hi]:.6g}]: {exc}") from exc
        l_seg = report.context.l
        rows = ends[:probe.cells + 1]
        seg_vals, seg_flags, seg_orig = _assemble_rows(report.context, seg_data, rows, x_grid)
        # initial-origin points inherit the tag of the row-i_lo node their
        # characteristic started from
        j = np.clip(np.round(seg_orig / (x_grid[1] - x_grid[0])).astype(int), 0, n_x - 1)
        values[i_lo:i_hi + 1] = seg_vals
        provenance[i_lo:i_hi + 1] = seg_flags | provenance[i_lo][j]
        l_out[i_lo:i_hi + 1] = l_seg(rows)
        reports.append(report)

        if i_hi < n_t - 1:
            junction_profile = SpaceProfile(values[i_hi].copy())
            l_junction = float(l_seg(l_seg.t_end))
            try:
                seg_data = CauchyData(
                    l_junction,
                    junction_profile,
                    SampledFunction(0.0, T - t_grid[i_hi], F_in_g.values[i_hi:]),
                    SampledFunction(0.0, T - t_grid[i_hi], N_g.values[i_hi:]),
                    data.params,
                    eq,
                )
            except (DomainError, CompatibilityError) as exc:
                raise type(exc)(f"segment {len(reports)} at the junction "
                                f"t={t_grid[i_hi]:.6g}: {exc}") from exc
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
