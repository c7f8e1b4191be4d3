"""Local and semi-global solution of the coupled interface/transport system.

The coupled unknowns are the interface trace l(t) and the outlet ratio
b(t) = f_p(t,1).  The solver Picard-iterates the map

    l   |->  l0 + integral of F(l, N, b)
    b   |->  datum carried to (t,1) along the characteristic

on a short interval whose length is chosen so the map provably contracts,
then re-roots the Cauchy data at the junction and repeats until the
requested horizon is covered.  One sequence of iterates (`_iterates`)
serves every use of the map: its first two steps probe the contraction
factor, the Picard loop runs it to convergence, one more step measures the
residual, and that step's trace context, built from the converged iterate,
is the one the field f_p is assembled on by tracing every grid point back
to its datum.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import islice
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
from .model import EquilibriumPoint, PhysicalParams, inflow_value, norm_F_box
from .quadrature import cumulative_integral

COMPAT_TOL = 1e-10
# Picard iteration stops once successive iterates are within PICARD_TOL,
# within PICARD_MAX_ITER maps
PICARD_TOL = 1e-11
PICARD_MAX_ITER = 100
# the contraction interval starts at this share of the smallest
# admissibility term, and its probe maps run on PROBE_POINTS nodes
DELTA_SAFETY = 0.5
PROBE_POINTS = 65


@dataclass(frozen=True)
class CauchyData:
    """Initial interface position and profile plus the boundary inputs.

    validate=False skips the corner-compatibility check so that defect
    reporting code can hold intentionally inconsistent data; every solver
    entry point assumes validated data.
    """

    l0: float
    f0_p: SpaceProfile
    F_in: SampledFunction
    N: SampledFunction
    params: PhysicalParams
    eq: EquilibriumPoint
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        if not (0.0 < self.l0 < self.params.L):
            raise DomainError(f"l0={self.l0} outside (0, L={self.params.L})")
        vals = self.f0_p.values
        if np.min(vals) < 0.0 or np.max(vals) > 1.0 or vals[-1] >= 1.0:
            raise DomainError("initial profile must take values in [0,1] with f0_p(1) < 1")
        if np.any(self.N.values <= 0.0):
            raise DomainError("screw speed input must stay positive")
        if np.any(self.F_in.values < 0.0):
            raise DomainError("feed rate input must be nonnegative")
        if validate:
            corner = inflow_value(self.F_in(self.F_in.t_start), self.N(self.N.t_start), self.params)
            gap = abs(corner - float(vals[0]))
            if gap > COMPAT_TOL:
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


def eps1_bound(eq: EquilibriumPoint) -> float:
    """Strict upper bound for the admissible deviation radius around eq."""
    return float(min(eq.l_e, eq.params.L - eq.l_e, eq.f_pe, 1.0 - eq.f_pe))


def eps1_radius(eq: EquilibriumPoint) -> float:
    """Radius of the eps1 ball the solvers work in: a third of `eps1_bound`."""
    return eps1_bound(eq) / 3.0


def _resample(sf: SampledFunction, t_start: float, t_end: float, n: int) -> SampledFunction:
    grid = np.linspace(t_start, t_end, n)
    return SampledFunction(t_start, t_end, np.asarray(sf(grid), dtype=float))


def _datum_at(data: CauchyData, is_boundary, origin):
    """Datum carried along each characteristic: f0_p at beta, inflow at tau."""
    values = np.empty(origin.shape)
    values[~is_boundary] = data.f0_p(origin[~is_boundary])
    values[is_boundary] = data.inflow(origin[is_boundary])
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
    l_vals = np.full(n, float(initial[0]))
    b_vals = np.full(n, float(initial[1]))
    while True:
        l_sf = SampledFunction(0.0, delta, l_vals)
        ctx = TraceContext(l_sf, N_sf, SampledFunction(0.0, delta, b_vals), data.params)
        l_next = data.l0 + cumulative_integral(ctx._F_nodes, l_sf.dt)
        # through this module's binding, so that a wrapper installed on it
        # (perfbench/tracer.py) sees one call per map
        is_boundary, origin = backtrace_times(l_sf.grid, 1.0, ctx)
        b_next = _datum_at(data, is_boundary, origin)
        dist = float(max(np.max(np.abs(l_next - l_vals)), np.max(np.abs(b_next - b_vals))))
        yield ctx, l_next, b_next, dist
        l_vals, b_vals = l_next, b_next


def compute_delta(
    data: CauchyData,
    eps1: float,
    T: float,
    f_norm: float | None = None,
    grid_step: float | None = None,
) -> float:
    """Interval length on which the solution map contracts.

    Starts from DELTA_SAFETY times the smallest of the four admissibility
    terms (horizon, boundary-characteristic travel time, and the two
    interface travel-distance budgets), then halves until the first-iterate
    contraction factor, measured on PROBE_POINTS nodes, is at most 1/2.
    """
    eq = data.eq
    bound = eps1_bound(eq)
    if not (0.0 < eps1 < bound):
        raise DomainError(f"eps1 must lie in (0, {bound:.6g})")
    if T <= 0.0:
        raise DomainError("horizon must be positive")
    if f_norm is None:
        f_norm = norm_F_box(data.params, eq, eps1)
    zeta = data.params.zeta
    L = data.params.L
    terms = (
        T,
        (eq.l_e - eps1) / (zeta * (eq.N_e + eps1)),
        (eq.l_e - eps1) / f_norm,
        (L - eq.l_e - eps1) / f_norm,
    )
    delta = DELTA_SAFETY * min(terms)
    step = grid_step if grid_step is not None else data.N.dt
    while True:
        if delta < step - 1e-12:
            raise ResolutionError(
                f"contraction interval {delta:.3g} fell below the grid step {step:.3g}"
            )
        factor = _probe_contraction(data, delta)
        if factor <= 0.5:
            return float(delta)
        delta *= 0.5


def _probe_contraction(data: CauchyData, delta: float) -> float:
    """First contraction factor d2/d1 of the iterates from the data at t=0."""
    steps = _iterates(data, delta, PROBE_POINTS, None)
    d1 = next(steps)[3]
    if d1 <= PICARD_TOL:
        return 0.0
    return next(steps)[3] / d1


def local_fixed_point(
    data: CauchyData,
    delta: float,
    eps1: float | None = None,
    n_t: int = 257,
    initial: tuple | None = None,
) -> LocalSolveReport:
    """Picard iteration for the coupled traces on [0, delta].

    The initial candidate is the constant extension of the data at t=0
    unless another admissible pair is supplied.  Iterates must stay inside
    the eps1 ball around the equilibrium (of radius `eps1_radius` unless
    given); the loop stops when successive iterates are within PICARD_TOL
    in the maximum norm, and fails after PICARD_MAX_ITER maps.  The residual
    is the distance of one more step of the same sequence, and that step's
    trace context, built from the converged iterate, is the report's
    `context`, on which the field is assembled.
    """
    eq = data.eq
    if eps1 is None:
        eps1 = eps1_radius(eq)
    steps = _iterates(data, delta, n_t, initial)
    factors = []
    prev_dist = None
    for iterations, (_, l_vals, b_vals, dist) in enumerate(islice(steps, PICARD_MAX_ITER), 1):
        if np.max(np.abs(l_vals - eq.l_e)) > eps1 or np.max(np.abs(b_vals - eq.f_pe)) > eps1:
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


def assemble_field(
    report: LocalSolveReport, data: CauchyData, t_grid, x_grid
) -> SolutionField:
    """Evaluate f_p on a tensor grid from the converged traces."""
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    values, flags, _ = _assemble_rows(report.context, data, t_grid, x_grid)
    out = SolutionField(t_grid, x_grid, values, flags)
    out.check_unit_range()
    return out


def solve_semiglobal(
    data: CauchyData,
    T: float,
    n_t: int = 201,
    n_x: int = 101,
) -> SemiglobalSolution:
    """Cover [0, T] by chained contraction intervals.

    Every segment works in the eps1 ball of radius `eps1_radius`.

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
    eps1 = eps1_radius(eq)
    # the F-box bound depends on params, eq and eps1 alone: one per solve
    f_norm = norm_F_box(data.params, eq, eps1)
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
        # the horizon term is dropped here (inf): segments are truncated at
        # the horizon instead, and a shorter interval contracts as well.
        # The contraction probe may then read the inputs past their last
        # sample, where interpolation holds the edge value; the per-segment
        # report still certifies the factors on the actual data.
        try:
            delta_c = compute_delta(seg_data, eps1, float("inf"), f_norm=f_norm, grid_step=dt_out)
        except ResolutionError as exc:
            raise ResolutionError(f"segment {len(reports)}: {exc}") from exc
        cells = int(np.floor(delta_c / dt_out + 1e-12))
        if cells < 1:
            raise ResolutionError(
                f"segment {len(reports)}: contraction interval {delta_c:.3g} "
                f"below the output grid step {dt_out:.3g}"
            )
        i_hi = min(i_lo + cells, n_t - 1)
        delta = t_grid[i_hi] - t_grid[i_lo]
        n_local = max(i_hi - i_lo + 1, 65)
        try:
            report = local_fixed_point(seg_data, delta, eps1=eps1, n_t=n_local)
        except (DivergenceError, ConvergenceError) as exc:
            raise type(exc)(f"segment {len(reports)} on [{t_grid[i_lo]:.6g}, "
                            f"{t_grid[i_hi]:.6g}]: {exc}") from exc
        l_seg = report.context.l
        rows = t_grid[i_lo:i_hi + 1] - t_grid[i_lo]
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
            seg_data = CauchyData(
                l_junction,
                junction_profile,
                SampledFunction(0.0, T - t_grid[i_hi], F_in_g.values[i_hi:]),
                SampledFunction(0.0, T - t_grid[i_hi], N_g.values[i_hi:]),
                data.params,
                eq,
            )
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
