"""Characteristic curves of the filling-ratio transport equation.

For a given coefficient trace (interface position l, screw speed N, die
ratio b) the transport speed alpha_p is affine in x, so the characteristic
through (t, x) solves a scalar linear ODE and has the closed form

    xi(s; t, x) = x * exp(P(t) - P(s)) - exp(-P(s)) * (Q(t) - Q(s)),

where P is the running integral of F/l and Q the running integral of
(zeta*N/l) * exp(P).  A context is built from node arrays, l and b as one
(2, n) block and N.  It computes both in one pass over them with a
Simpson-type rule (P in one 2-d call with the running integral of F) and
reads them off the nodes from C1 Hermite interpolants built on first
use, which keeps the analytic derivative formulas for the
origin maps consistent with finite differences of the traced origins.
P and Q share the trace grid, so `TraceContext._PQ` reads both from one
cell lookup and one Hermite basis.  At the grid's own node times P and Q
are the stored node values, with no lookup.  Both integrals start at the
context's t_start, so P(t_start) = Q(t_start) = 0 exactly: a curve traced
back to the initial axis reaches it at beta = x*exp(P(t)) - Q(t).

Origins come from one solver with two entries: `backtrace_batch` reads P
and Q once at any foot points, at the foot times before they broadcast
against the foot positions (so a column of row times against a row of x
reads them once per row), and `backtrace_times`, for one x at the node
times (the outlet of every Picard map), reads the nodes.  The curve
reaches the start of the interval at beta = xi(t_start; t, x) =
x*exp(P(t)) - Q(t) when that lies in [0, 1]; otherwise it left x = 0 at
the tau solving Q(tau) = Q(t) - x*exp(P(t)).  Q is strictly increasing (every
Hermite cell is checked against the Fritsch-Carlson monotone region), so
`searchsorted` on its nodes finds the cell and safeguarded Newton steps on
that cell's Hermite cubic give tau, each step reading Q and its slope from
one lookup, for the roots that have not converged.  The crossing time of
the inlet-corner characteristic at x = 1 solves exp(P(t)) = Q(t),
bracketed by the outlet node times, where P and Q are again the nodes.
Other modules reach P and Q only through `xi`, `carry` and `flow_stretch`.

A classical Runge-Kutta integration of the same ODE, and a crossing time
marched along it, are provided as independent routes for cross-checking
the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError
from .fields import SampledFunction
from .model import PhysicalParams, die_balance, eval_F
from .quadrature import HermiteAntiderivative, cumulative_integral, hermite_basis

ORIGIN_INITIAL = "initial"
ORIGIN_BOUNDARY = "boundary"

# residual tolerance for root-finding on characteristic positions
ROOT_TOL = 1e-12


@dataclass(frozen=True)
class CharOrigin:
    """Origin of a characteristic: the initial axis or the inflow boundary."""

    kind: str
    value: float

    @property
    def is_initial(self) -> bool:
        return self.kind == ORIGIN_INITIAL

    @property
    def beta(self) -> float:
        if self.kind != ORIGIN_INITIAL:
            raise DomainError("origin is on the boundary, beta undefined")
        return self.value

    @property
    def tau(self) -> float:
        if self.kind != ORIGIN_BOUNDARY:
            raise DomainError("origin is on the initial axis, tau undefined")
        return self.value


class TraceContext:
    """Coefficient traces that determine the characteristic field.

    l = lb[0], b = lb[1] and N are node values on len(N) uniform nodes of
    [t_start, t_end], as the solution map holds its iterate; the arrays are
    kept, not copied.  Between nodes the traces are the piecewise-linear
    interpolants from `fields`.  Construction checks the ranges that make
    the transport speed positive on the whole strip.

    Construction is one pass over the node arrays: the range checks, F, F/l
    and its finiteness, the running integrals of F and F/l (the latter is P)
    from one 2-d `cumulative_integral`, the range of P, then Q and its
    monotone check.  The views `l`, `N`, `b` and the Hermite `_P`, `_Q` are
    built on first use.
    """

    def __init__(self, t_start: float, t_end: float, lb: np.ndarray, N: np.ndarray,
                 params: PhysicalParams):
        l, b = lb
        dt = (t_end - t_start) / (N.size - 1)
        self.t_start, self.t_end, self.dt, self.params = t_start, t_end, dt, params
        (l_min, b_min), (l_max, b_max) = lb.min(axis=1), lb.max(axis=1)
        if not (l_min > 0.0 and l_max < params.L):
            raise self._range_error("interface trace must stay inside (0, L)", "l", l, l_min <= 0.0)
        if not (b_min >= 0.0 and b_max < 1.0):
            raise self._range_error("die ratio trace must stay inside [0, 1)", "b", b, b_min < 0.0)
        if not N.min() > 0.0:
            raise self._range_error("screw speed trace must stay positive", "N", N, True)
        zeta_N = params.zeta * N
        # F = N*g, and F/l the integrand of P; the ranges g needs are checked
        rates = np.empty(lb.shape)
        F = np.multiply(N, die_balance(l, b, params), out=rates[0])
        # alpha_p is affine in x, so positivity on [0,1] reduces to x=0,1
        if not (zeta_N - F).min() > 0.0:
            raise self._range_error("transport speed must stay positive up to x=1", "zeta*N - F",
                                    zeta_N - F, True)
        # F/l overflows on a subnormal l, and so can zeta*N/l where F/l stays
        # finite (g = 0) and Q on a huge q: each is named by the check after
        # it (q and Q by `_check_monotone`), with no numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(F, l, out=rates[1])
            if not np.isfinite(rates[1]).all():
                raise self._range_error("F/l, the rate of P, must stay finite", "F/l", rates[1],
                                        rates[1].min() == -np.inf)
            displacement, P = cumulative_integral(rates, dt)
            # exp(P) scales q, Q and every origin; with |P| within about half
            # the exponent range of a float, they stay finite and nonzero
            if not np.abs(P).max() <= 354.0:
                raise self._range_error("P, the integral of F/l, must stay inside [-354, 354]",
                                        "P", P, P.min() < -P.max())
            q = zeta_N / l * np.exp(P)
            Q = cumulative_integral(q, dt)
        _check_monotone(Q, q, t_start, dt)
        self.lb, self.N_nodes, self._F_nodes, self._rates, self._q = lb, N, F, rates, q
        # the running integral of F is the interface displacement since t_start
        self._displacement, self._P_nodes, self._Q_nodes = displacement, P, Q

    def _range_error(self, message, name, values, low) -> DomainError:
        """Range error naming the trace's least value (or greatest) and its time."""
        i = int(values.argmin() if low else values.argmax())
        t = self.t_start + i * self.dt
        return DomainError(f"{message}: {name}={values[i]:.6g} at t={t:.6g}")

    l = cached_property(lambda self: SampledFunction(self.t_start, self.t_end, self.lb[0]))
    N = cached_property(lambda self: SampledFunction(self.t_start, self.t_end, self.N_nodes))
    b = cached_property(lambda self: SampledFunction(self.t_start, self.t_end, self.lb[1]))

    @cached_property
    def _P(self) -> HermiteAntiderivative:
        return HermiteAntiderivative(self.t_start, self.dt, self._P_nodes, self._rates[1])

    @cached_property
    def _Q(self) -> HermiteAntiderivative:
        return HermiteAntiderivative(self.t_start, self.dt, self._Q_nodes, self._q)

    def _PQ(self, t):
        """P(t) and Q(t) from one cell lookup and one Hermite basis (one trace grid)."""
        k, s = self._P._cell(t)
        basis = hermite_basis(s)
        return self._P._value(k, basis), self._Q._value(k, basis)

    def coefficients_at(self, sigma):
        """(A, B) of the characteristic ODE dxi/ds = A(s) - B(s)*xi at time(s) sigma."""
        l_s, n_s, b_s = self.l(sigma), self.N(sigma), self.b(sigma)
        F_s = eval_F(l_s, n_s, b_s, self.params)
        return self.params.zeta * n_s / l_s, F_s / l_s

    def _check_foot(self, x, *times) -> None:
        """Foot points (t, x), scalars or arrays, must lie on the context's strip."""
        for t in map(np.asarray, times):
            inside = (t >= self.t_start - 1e-12) & (t <= self.t_end + 1e-12)
            if not inside.all():
                raise DomainError(f"time {t[~inside][0]} outside context interval "
                                  f"[{self.t_start}, {self.t_end}]")
        x = np.asarray(x)
        if not ((x >= 0.0) & (x <= 1.0)).all():
            raise DomainError("x must lie in [0, 1]")


def _check_monotone(nodes: np.ndarray, slopes: np.ndarray, t0: float, dt: float) -> None:
    """Fritsch-Carlson test that every Hermite cell of Q increases.

    With secant m_k = (Q_{k+1} - Q_k)/dt, the cubic on cell k is monotone
    exactly when m_k > 0 and (alpha, beta) = (q_k, q_{k+1})/m_k lies in the
    region of Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980): alpha,
    beta >= 0 and either alpha + beta <= 2, 2 alpha + beta <= 3,
    alpha + 2 beta <= 3, or alpha - (2 alpha + beta - 3)^2 / (3 (alpha +
    beta - 2)) >= 0.  The origin solver's `searchsorted` on the nodes of Q
    needs exactly that.

    The region contains the square 0 <= alpha, beta <= 3 (Fritsch & Carlson's
    sufficient condition), which smooth traces meet on every cell, so the
    test first checks m_k > 0 and 0 <= q dt <= 3 (Q_{k+1} - Q_k) at both ends
    of every cell, with no division, and returns when all hold.  Q is a
    running integral of q from 0, so its last node is finite exactly when
    every q and Q is: the test first reads that node, and takes the node
    differences only when it is finite.  Otherwise a q or Q that is not
    finite is named first (q before Q, since Q integrates q), then the four
    clauses decide, and the first cell outside is reported.
    """
    ends = slopes * dt
    # an infinite or undefined last node fails the check of every q and Q
    # below, so inc is set wherever the four clauses read it
    if abs(nodes[-1]) < np.inf:
        inc = nodes[1:] - nodes[:-1]
        if ends.min() >= 0.0 and inc.min() > 0.0 and (
            np.maximum(ends[:-1], ends[1:]) <= 3.0 * inc
        ).all():
            return
    for name, what, values in (("q", "the slope of Q", slopes), ("Q", "the integral of q", nodes)):
        finite = np.isfinite(values)
        if not finite.all():
            # an infinity is named before a NaN, which arithmetic on it makes
            infinite = np.isinf(values)
            i = int(infinite.argmax() if infinite.any() else finite.argmin())
            value = f"={values[i]:.6g}" if infinite[i] else " is undefined"
            raise DivergenceError(f"{name}, {what}, must stay finite: "
                                  f"{name}{value} at t={t0 + i * dt:.6g}")
    with np.errstate(all="ignore"):
        alpha = ends[:-1] / inc
        beta = ends[1:] / inc
        excess = alpha + beta - 2.0
        left = 2.0 * alpha + beta - 3.0
        inside = (
            (excess <= 0.0)
            | (left <= 0.0)
            | (alpha + 2.0 * beta <= 3.0)
            # the last clause with (alpha + beta - 2) > 0 multiplied through
            | (3.0 * alpha * excess >= left * left)
        )
    bad = np.nonzero(~((inc > 0.0) & (alpha >= 0.0) & (beta >= 0.0) & inside))[0]
    if bad.size:
        k = int(bad[0])
        cell = f"Q is not monotone on the cell at t={t0 + k * dt:.6g}"
        if inc[k] == 0.0:
            raise DivergenceError(f"{cell}: its increment is 0")
        raise DivergenceError(f"{cell}: (alpha, beta) = ({alpha[k]:.6g}, {beta[k]:.6g})")


def _xi_from(x, Pt, Qt, Ps, Qs):
    """Position at time s of the characteristic through (t, x), from P and Q at t and s."""
    return np.asarray(x, dtype=float) * np.exp(Pt - Ps) - np.exp(-Ps) * (Qt - Qs)


def xi(s, t, x, ctx: TraceContext):
    """Position at time s of the characteristic passing through (t, x).

    s, t and x may be arrays, and s may lie before or after t (closed form).
    """
    ctx._check_foot(x, s, t)
    out = _xi_from(x, *ctx._PQ(t), *ctx._PQ(s))
    return float(out) if out.ndim == 0 else out


def _rk4_span(ctx: TraceContext, t_from: float, x_from: float, t_to: float) -> float:
    """RK4 integration of the characteristic ODE from t_from to t_to (either direction).

    The coefficients of all steps come from one vectorized evaluation at the
    step nodes (accumulated as sigma += h) and midpoints (sigma + h/2); the
    recurrence itself stays scalar.
    """
    span = t_to - t_from
    if span == 0.0:
        return x_from
    n = max(1, int(np.ceil(abs(span) / ctx.dt - 1e-12)))
    h = span / n
    nodes = np.add.accumulate(np.r_[t_from, np.full(n, h)])
    A, B = ctx.coefficients_at(np.concatenate([nodes, nodes[:-1] + 0.5 * h]))
    a_node, a_mid = A[: n + 1].tolist(), A[n + 1 :].tolist()
    b_node, b_mid = B[: n + 1].tolist(), B[n + 1 :].tolist()
    xi_v = x_from
    for a1, b1, a2, b2, a4, b4 in zip(a_node, b_node, a_mid, b_mid, a_node[1:], b_node[1:]):
        k1 = a1 - b1 * xi_v
        k2 = a2 - b2 * (xi_v + 0.5 * h * k1)
        k3 = a2 - b2 * (xi_v + 0.5 * h * k2)
        k4 = a4 - b4 * (xi_v + h * k3)
        xi_v += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return xi_v


def xi_rk4(s: float, t: float, x: float, ctx: TraceContext) -> float:
    """Runge-Kutta route to xi(s; t, x), stepping at the ctx grid step."""
    if s > t:
        raise DomainError(f"need s <= t, got s={s} > t={t}")
    ctx._check_foot(x, s, t)
    return _rk4_span(ctx, t, x, s)


def crossing_time_rk4(ctx: TraceContext):
    """Runge-Kutta route to `crossing_time`, kept as an independent oracle.

    Marches the trajectory from the lower-left corner forward on the grid,
    then bisects inside the bracketing step until the position matches 1
    within 1e-12.  Returns None when the trajectory has not reached x=1 by
    the end of the context interval.
    """
    t0 = ctx.t_start
    n = ctx.l.values.size
    pos = 0.0
    t_prev = t0
    hit = False
    for k in range(1, n):
        t_next = t0 + k * ctx.dt
        pos_next = _rk4_span(ctx, t_prev, pos, t_next)
        if pos_next >= 1.0:
            hit = True
            break
        t_prev, pos = t_next, pos_next
    if not hit:
        return None
    lo, hi = t_prev, t_next
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = _rk4_span(ctx, t_prev, pos, mid)
        if abs(val - 1.0) <= ROOT_TOL:
            return mid
        if val < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _boundary_times(ts, xs, Pt, Qt, ctx: TraceContext) -> np.ndarray:
    """Times tau at which the characteristics through (ts, xs) left x = 0.

    Pt and Qt are P and Q at ts, 1-d arrays (xs may be a scalar).
    xi(tau; t, x) = 0 is Q(tau) = Q(t) - x*exp(P(t)), and Q is strictly
    increasing, so its node values locate the cell of each root.  Newton
    steps on that cell's Hermite cubic start from the linear interpolant of
    the nodes; a step that leaves the sign bracket falls back to its
    midpoint.  A root stops when its step moves it by at most 4e-16 (relative
    above 1), or after 100 steps.  The steps run only on the roots still
    moving, so each root's iterates are those of its own solve, whatever
    else the batch holds.
    """
    Q = ctx._Q
    target = Qt - xs * np.exp(Pt)
    k = np.searchsorted(Q.nodes, target, side="right") - 1
    k = np.minimum(np.maximum(k, 0), Q.nodes.size - 2)
    hi = np.minimum(Q.t0 + (k + 1) * Q.dt, ts)
    lo = np.minimum(Q.t0 + k * Q.dt, hi)
    frac = (target - Q.nodes[k]) / (Q.nodes[k + 1] - Q.nodes[k])
    tau = np.minimum(np.maximum(Q.t0 + (k + frac) * Q.dt, lo), hi)
    del k, frac  # only the first iterate reads them; not held through the steps
    # the moving roots: their places in tau, iterates, brackets and targets
    live, t, goal = np.arange(tau.size), tau, target
    for _ in range(100):
        cell, s = Q._cell(t)
        r = Q._value(cell, hermite_basis(s)) - goal
        lo = np.where(r < 0.0, t, lo)
        hi = np.where(r > 0.0, t, hi)
        new = t - r / Q._slope(cell, s)
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        moving = ~(np.abs(new - t) <= 4e-16 * np.maximum(1.0, np.abs(t)))
        tau[live] = new
        if not moving.any():
            break
        live, t, lo, hi, goal = live[moving], new[moving], lo[moving], hi[moving], goal[moving]
    res = np.abs(_xi_from(xs, Pt, Qt, *ctx._PQ(tau))).max()
    if res > 1e-9:
        raise DivergenceError(f"origin solver left residual {res:.3g} at the boundary crossing")
    return tau


def _initial_origins(xs, Pt, Qt):
    """(is_boundary, beta) of the characteristics through xs at the times where
    P and Q are Pt and Qt; beta = xs*exp(Pt) - Qt, since P and Q vanish at
    t_start, and is 0 where the curve left through x = 0, for the caller to
    fill in tau."""
    xi0 = np.asarray(xs * np.exp(Pt) - Qt, dtype=float)
    is_boundary = xi0 < 0.0
    return is_boundary, np.where(is_boundary, 0.0, np.maximum(xi0, 0.0))


def _origins(ts, xs, ctx: TraceContext):
    """Trace the characteristics through (ts, xs) back to their origins.

    ts and xs broadcast against each other.  Returns (is_boundary, origin)
    arrays of the broadcast shape: origin holds beta where the curve reaches
    the start of the context interval inside [0, 1], and tau where it left
    through x = 0 (alpha_p > 0, so every curve has exactly one of the two).
    """
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ctx._check_foot(xs, ts)
    # P and Q at the foot times as given: a (rows, 1) column of times reads
    # them once per row, not once per point of the rows x xs batch
    Pt, Qt = ctx._PQ(ts)
    # a scalar x (one foot point over many times) broadcasts as it is
    if xs.ndim:
        ts, xs, Pt, Qt = np.broadcast_arrays(ts, xs, Pt, Qt)
    is_boundary, origin = _initial_origins(xs, Pt, Qt)
    if is_boundary.any():
        bnd = is_boundary
        # rebound, so that P and Q at the other foot points are freed
        Pt, Qt = Pt[bnd], Qt[bnd]
        origin[bnd] = _boundary_times(ts[bnd], xs[bnd] if xs.ndim else xs, Pt, Qt, ctx)
    return is_boundary, origin


# public name of the solver for any foot points.  `backtrace` calls
# `_origins` directly, so that a wrapper installed on a public name sees
# every origin once.
backtrace_batch = _origins


def backtrace_times(x: float, ctx: TraceContext):
    """Origins of the characteristics through x at every node time of ctx.

    At its own node times P and Q are the stored node values, so only the
    origins on the inflow face take cell lookups, in their Newton steps.
    This is the origin call of every solution map, at the outlet x = 1.
    Returns (is_boundary, origin) as `backtrace_batch` does.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError("x must lie in [0, 1]")
    Pt, Qt = ctx._P_nodes, ctx._Q_nodes
    is_boundary, origin = _initial_origins(x, Pt, Qt)
    if is_boundary.any():
        bnd = is_boundary
        origin[bnd] = _boundary_times(ctx.l.grid[bnd], x, Pt[bnd], Qt[bnd], ctx)
    return is_boundary, origin


def carry(is_boundary, origin, initial, inflow):
    """Datum carried along the characteristics with origins (is_boundary,
    origin) of `backtrace_batch`: `initial` is read at every origin, and
    `inflow` overwrites it at each tau."""
    values = initial(origin)
    if is_boundary.any():
        values[is_boundary] = inflow(origin[is_boundary])
    return values


def flow_stretch(t, is_boundary, origin, ctx: TraceContext):
    """exp(P(t) - P(s0)), the flow's stretch of x along the characteristics
    through foot times t with origins (is_boundary, origin) of `backtrace_batch`:
    s0 is t_start (P = 0) on the initial axis, tau on the inflow face."""
    P_origin = np.zeros(origin.shape)
    P_origin[is_boundary] = ctx._P(origin[is_boundary])
    return np.exp(ctx._P(t) - P_origin)


def backtrace(t: float, x: float, ctx: TraceContext) -> CharOrigin:
    """Origin of the characteristic through (t, x): Initial(beta) or Boundary(tau)."""
    is_boundary, origin = _origins(t, x, ctx)
    return CharOrigin(ORIGIN_BOUNDARY if is_boundary else ORIGIN_INITIAL, float(origin))


def dtau_dx(t: float, x: float, ctx: TraceContext) -> float:
    """Sensitivity of the boundary crossing time to the spatial foot point.

    dtau/dx = -(l(tau)/(zeta*N(tau))) * exp(integral_tau^t F/l), negative
    because raising the foot point delays the crossing.  The speed factor is
    taken as the slope of the stored antiderivative, so the value is the
    exact derivative of the crossing time backtrace reports.
    """
    origin = backtrace(t, x, ctx)
    if origin.is_initial:
        raise DomainError("characteristic originates from the initial axis; tau undefined")
    tau = origin.value
    return float(-np.exp(ctx._P(t)) / ctx._Q.derivative(tau))


def dbeta_dx(t: float, x: float, ctx: TraceContext) -> float:
    """Sensitivity of the initial foot point: dbeta/dx = exp(integral_0^t F/l)."""
    origin = backtrace(t, x, ctx)
    if not origin.is_initial:
        raise DomainError("characteristic originates from the boundary; beta undefined")
    return float(flow_stretch(t, False, np.asarray(origin.value), ctx))


def crossing_time(ctx: TraceContext):
    """Time at which the characteristic from the inlet corner reaches x = 1.

    Solves xi(t_start; t, 1) = exp(P(t)) - Q(t) = 0.  The outlet nodes of the
    context grid bracket the root: the last one whose characteristic starts
    on the initial axis and the first one whose characteristic left the
    inflow face.  Newton steps on the Hermite P and Q stay inside that
    bracket.  Returns None when the corner characteristic has not reached
    x = 1 by the end of the context interval.
    """
    t_grid = ctx.l.grid
    # P and Q at the node times are the stored node values
    is_bnd = np.exp(ctx._P_nodes) - ctx._Q_nodes < 0.0
    k = int(np.argmax(is_bnd))
    if not is_bnd[k]:
        return None
    lo, hi = float(t_grid[k - 1]), float(t_grid[k])
    t = lo
    P, Q = ctx._P, ctx._Q
    for _ in range(100):
        # P, Q and their slopes at t from one cell lookup and one basis
        cell, s = P._cell(t)
        basis = hermite_basis(s)
        exp_P = np.exp(P._value(cell, basis))
        r = float(exp_P - Q._value(cell, basis))
        if r > 0.0:
            lo = t
        else:
            hi = t
        slope = float(exp_P * P._slope(cell, s) - Q._slope(cell, s))
        new = t - r / slope
        if not (lo <= new <= hi):
            new = 0.5 * (lo + hi)
        if abs(new - t) <= 4e-16 * max(1.0, abs(t)):
            return new
        t = new
    raise ConvergenceError(f"corner crossing time did not settle in [{lo:.12g}, {hi:.12g}]")
