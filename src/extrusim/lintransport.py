"""Generic linear transport along characteristics, weak-form residuals,
and the x-derivative fields of the filling ratio.

The scalar problem is

    u_t + a(t,x) u_x = b(t,x) u + c(t,x),   u(0,.) = u0,   u(t,0) = h(t),

with a > 0 so every backward characteristic leaves through the initial
axis or the inflow face.  One classical Runge-Kutta step advances the
carried state (X, B, I) backward in time: the foot X with X' = a, the
growth exponent B with b and the source integral I with c e^B.  A step
that crosses x = 0 finds the crossing time on the cubic through its two
end states and is taken again, short, up to that time.  This generic
solver serves given coefficients and stands as an independent check of
the closed forms.

The derivative fields of the filling ratio need no marching: their speed
is the filling ratio's own, so they are closed form along the origins that
`characteristics` solves for, carried by `carry` and scaled by powers of
`flow_stretch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristics import TraceContext, backtrace_batch, carry, flow_stretch
from .errors import CompatibilityError, DomainError, GridError
from .fields import SampledFunction, SolutionField, SpaceProfile
from .model import inflow_value

# highest power of t and of x in the weak-form trial family
TRIAL_DEGREE = 3
# largest corner-compatibility defect that check_compatibility passes
COMPATIBILITY_TOL = 1e-8


@dataclass(frozen=True)
class LinearTransportProblem:
    """Coefficients and data of one linear transport problem on [0,T]x[0,1].

    a, b, c are callables (t, x) -> value with numpy broadcasting.
    """

    T: float
    a: object
    b: object
    c: object
    u0: SpaceProfile
    h: SampledFunction

    def __post_init__(self):
        if not 0.0 < self.T < np.inf:
            raise DomainError("horizon must be positive and finite")
        # probe the coefficient signs and finiteness on a coarse lattice
        ts = np.linspace(0.0, self.T, 9)
        xs = np.linspace(0.0, 1.0, 9)
        tm, xm = np.meshgrid(ts, xs, indexing="ij")
        av = np.asarray(self.a(tm, xm), dtype=float)
        if not np.all(np.isfinite(av)) or np.any(av <= 0.0):
            raise DomainError("transport coefficient a must be positive and finite")
        for name, fn in (("b", self.b), ("c", self.c)):
            v = np.asarray(fn(tm, xm), dtype=float)
            if not np.all(np.isfinite(v)):
                raise DomainError(f"coefficient {name} must be finite")


def _rk4_step(p, s, width, X, B, I):
    """One classical RK4 step of the carried state (X, B, I) from time s back
    to s - width, a scalar or one width per point; also returns a at the
    start.  Stages read the coefficients at max(x, 0), since a step may cross
    x = 0; a must stay positive at the first and last stages."""

    def rates(sigma, x, growth):
        x = np.maximum(x, 0.0)
        a, b, c = (np.asarray(fn(sigma, x), dtype=float) for fn in (p.a, p.b, p.c))
        return a, b, c * np.exp(growth)

    half = 0.5 * width
    a1, b1, c1 = rates(s, X, B)
    a2, b2, c2 = rates(s - half, X - half * a1, B + half * b1)
    a3, b3, c3 = rates(s - half, X - half * a2, B + half * b2)
    a4, b4, c4 = rates(s - width, X - width * a3, B + width * b3)
    if np.any(a1 <= 0.0) or np.any(a4 <= 0.0):
        raise DomainError("transport coefficient a must stay positive")
    w6 = width / 6.0
    return (X - w6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            B + w6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
            I + w6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4), a1)


def solve_linear_transport(p: LinearTransportProblem, t_grid, x_grid) -> SolutionField:
    """Characteristic solution of the transport problem on a tensor grid.

    All grid points march backward through one shared sweep, one RK4 step
    of (X, B, I) per time cell: a row joins the sweep when the time front
    reaches its node, so every step advances one batch instead of re-tracing
    rows separately.  A point whose step crosses x = 0 takes the same step
    again from its start, short, to the crossing time tau, and reads
    u = h(tau) e^B + I there.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if t_grid[0] != 0.0 or abs(t_grid[-1] - p.T) > 1e-12:
        raise GridError("time grid must span [0, T]")
    if not np.all((x_grid >= 0.0) & (x_grid <= 1.0)):
        raise GridError("space grid must lie in [0, 1]")
    nt, nx = t_grid.size, x_grid.size
    dt = t_grid[1] - t_grid[0]
    if np.max(np.abs(np.diff(t_grid) - dt)) > 1e-9 * dt:
        raise GridError("time grid must be uniform")

    m = nt * nx
    X = np.tile(x_grid, nt)
    B = np.zeros(m)  # integral of b from current s back up to the row time
    I = np.zeros(m)  # accumulated source integral with the growth factor
    u = np.empty(m)
    active = np.zeros(m, dtype=bool)
    crossed = np.zeros(m, dtype=bool)
    for k in range(nt - 1, 0, -1):
        active[k * nx : (k + 1) * nx] = True
        s = t_grid[k]
        idx = np.nonzero(active)[0]
        Xa, Ba, Ia = X[idx], B[idx], I[idx]
        X_new, B_new, I_new, a1 = _rk4_step(p, s, dt, Xa, Ba, Ia)
        hit = X_new < 0.0
        keep = ~hit
        j = idx[keep]
        X[j], B[j], I[j] = X_new[keep], B_new[keep], I_new[keep]
        if np.any(hit):
            j = idx[hit]
            a_end = np.asarray(p.a(s - dt, np.zeros(j.size)), dtype=float)  # at max(X_new, 0)
            tau = _refine_crossing(s - dt, s, X_new[hit], Xa[hit], a_end, a1[hit])
            _, B_tau, I_tau, _ = _rk4_step(p, s, s - tau, Xa[hit], Ba[hit], Ia[hit])
            u[j] = np.asarray(p.h(tau), dtype=float) * np.exp(B_tau) + I_tau
            crossed[j] = True
            active[j] = False
    if np.any(active):
        beta = np.clip(X[active], 0.0, 1.0)
        u[active] = p.u0(beta) * np.exp(B[active]) + I[active]

    values = u.reshape(nt, nx)
    values[0] = p.u0(x_grid)
    return SolutionField(t_grid, x_grid, values, crossed.reshape(nt, nx))


def _refine_crossing(s_lo, s_hi, x_lo, x_hi, m_lo, m_hi):
    """Zero of the cubic through the bracketing states and their slopes.

    The cubic is written in coefficient form on z = (sigma - s_lo)/w and the
    root is located by Newton steps clamped to a shrinking bisection bracket;
    a dozen iterations land on machine precision.
    """
    w = s_hi - s_lo
    dx = x_hi - x_lo
    c1 = w * m_lo
    c2 = 3.0 * dx - w * (2.0 * m_lo + m_hi)
    c3 = -2.0 * dx + w * (m_lo + m_hi)
    lo = np.zeros(x_lo.shape)
    hi = np.ones(x_lo.shape)
    z = x_lo / (x_lo - x_hi)  # secant guess; x_lo < 0 <= x_hi keeps it in (0,1]
    for _ in range(12):
        val = x_lo + z * (c1 + z * (c2 + z * c3))
        neg = val < 0.0
        lo = np.where(neg, z, lo)
        hi = np.where(neg, hi, z)
        dval = c1 + z * (2.0 * c2 + 3.0 * c3 * z)
        safe = np.where(dval != 0.0, dval, 1.0)
        z_next = z - np.where(dval != 0.0, val / safe, 0.0)
        # strict comparison: a step landing exactly on a bracket end is a root hit
        outside = (z_next < lo) | (z_next > hi) | ~np.isfinite(z_next)
        z = np.where(outside, 0.5 * (lo + hi), z_next)
    return s_lo + z * w


@dataclass(frozen=True)
class PolyTrial:
    """One trial function t^i x^j (1-x); vanishes at x=1 by construction."""

    i: int
    j: int

    def phi(self, t, x):
        return t**self.i * x**self.j * (1.0 - x)

    def phi_t(self, t, x):
        if self.i == 0:
            return np.zeros_like(np.asarray(t, dtype=float) * np.asarray(x, dtype=float))
        return self.i * t ** (self.i - 1) * x**self.j * (1.0 - x)

    def phi_x(self, t, x):
        j = self.j
        if j == 0:
            return -(t**self.i) * np.ones_like(np.asarray(x, dtype=float))
        return t**self.i * (j * x ** (j - 1) - (j + 1) * x**j)


def polynomial_trial_family():
    return [PolyTrial(i, j) for i in range(TRIAL_DEGREE + 1) for j in range(TRIAL_DEGREE + 1)]


def weak_form_residual(u: SolutionField, p: LinearTransportProblem) -> float:
    """Largest weak-identity defect over the trial family and partial horizons.

    For each trial function phi of `polynomial_trial_family` (all vanish at
    x=1) and each tau in
    {T/4, T/2, T} (snapped to grid nodes) evaluates

        int u(tau) phi(tau) - int u0 phi(0)
        - int int u (phi_t + a phi_x + a_x phi + b phi) - int int c phi
        - int a(t,0) h(t) phi(t,0)

    by tensor trapezoid quadrature and returns the maximum absolute value;
    a_x is the second-order difference quotient of a on the grid.
    """
    tg, xg = u.t_grid, u.x_grid
    tm, xm = np.meshgrid(tg, xg, indexing="ij")
    av = np.asarray(p.a(tm, xm), dtype=float)
    bv = np.asarray(p.b(tm, xm), dtype=float)
    cv = np.asarray(p.c(tm, xm), dtype=float)
    axv = np.gradient(av, xg, axis=1, edge_order=2)
    hv = np.asarray(p.h(tg), dtype=float)
    u0v = np.asarray(p.u0(xg), dtype=float)
    a0 = np.asarray(p.a(tg, np.zeros_like(tg)), dtype=float)

    worst = 0.0
    for trial in polynomial_trial_family():
        phi = np.asarray(trial.phi(tm, xm), dtype=float)
        phi_t = np.asarray(trial.phi_t(tm, xm), dtype=float)
        phi_x = np.asarray(trial.phi_x(tm, xm), dtype=float)
        interior = u.values * (phi_t + av * phi_x + axv * phi + bv * phi) + cv * phi
        boundary = a0 * hv * phi[:, 0]
        for frac in (0.25, 0.5, 1.0):
            k = int(round(frac * (tg.size - 1)))
            term_final = np.trapezoid(u.values[k] * phi[k], xg)
            term_initial = np.trapezoid(u0v * phi[0], xg)
            term_interior = np.trapezoid(
                np.trapezoid(interior[: k + 1], xg, axis=1), tg[: k + 1]
            )
            term_boundary = np.trapezoid(boundary[: k + 1], tg[: k + 1])
            res = term_final - term_initial - term_interior - term_boundary
            worst = max(worst, abs(res))
    return worst


@dataclass(frozen=True)
class CompatibilityCheck:
    order: int
    defect: float

    @property
    def passed(self) -> bool:
        return self.defect <= COMPATIBILITY_TOL


def _dt_quotient(vals: np.ndarray, dt: float) -> np.ndarray:
    return np.gradient(vals, dt, edge_order=2)


def check_compatibility(data, order: int) -> CompatibilityCheck:
    """Corner conditions at (0,0): datum match (order 0) or slope match (order 1).

    Derivatives are one-sided difference quotients at the corner, so the
    check is meaningful for sampled data exactly as given.
    """
    if order == 0:
        defect = abs(data.inflow(data.N.t_start) - float(data.f0_p.values[0]))
        return CompatibilityCheck(order=0, defect=float(defect))
    if order == 1:
        f0 = data.f0_p
        slope0 = (f0.values[1] - f0.values[0]) / f0.dx
        dt = min(data.N.dt, data.F_in.dt)
        t0 = data.N.t_start
        r_rate = (data.inflow(t0 + dt) - data.inflow(t0)) / dt
        N0 = data.N(t0)
        defect = abs(slope0 + data.l0 / (data.params.zeta * N0) * r_rate)
        return CompatibilityCheck(order=1, defect=float(defect))
    raise DomainError("order must be 0 or 1")


def derivative_fields(solution, data):
    """First and second x-derivative fields of the filling ratio.

    alpha_p is affine in x with alpha_x = -F/l, so differentiating the
    transport equation once and twice in x gives transport along the same
    characteristics with growth rates F/l and 2F/l.  Each derivative is
    therefore its value at the origin times exp(k*(P(t) - P(s0))), k = 1, 2,
    where P is the running integral of F/l and s0 the origin time (0 on the
    initial axis, tau on the inflow face).  The origin value is the datum
    slope at beta, or at tau the boundary value that time derivatives of
    the inflow ratio drive.  Origins and P come from one trace context on
    the solution's grids, and the provenance tags follow the origins.
    `CauchyData` holds the order-0 corner condition; order 1 is checked here.
    """
    chk = check_compatibility(data, 1)
    if not chk.passed:
        raise CompatibilityError(
            f"order-1 corner compatibility defect {chk.defect:.3g} "
            f"exceeds {COMPATIBILITY_TOL:.0e}"
        )
    field = solution.field
    tg, xg = field.t_grid, field.x_grid
    T = float(tg[-1])
    zeta = data.params.zeta
    N_vals = np.asarray(data.N(tg), dtype=float)
    l_vals = np.asarray(solution.l(tg), dtype=float)
    ctx = TraceContext(0.0, T, np.stack((l_vals, field.values[:, -1])), N_vals, data.params)
    is_boundary, origin = backtrace_batch(tg[:, None], xg, ctx)
    growth = flow_stretch(tg[:, None], is_boundary, origin, ctx)

    def carried(datum_vals, inflow_vals, k):
        at_origin = carry(is_boundary, origin, SpaceProfile(datum_vals),
                          SampledFunction(0.0, T, inflow_vals))
        return SolutionField(tg, xg, at_origin * growth**k, is_boundary)

    r_vals = inflow_value(np.asarray(data.F_in(tg), dtype=float), N_vals, data.params)
    dt_out = tg[1] - tg[0]
    r1 = _dt_quotient(r_vals, dt_out)
    ratio_lN = l_vals / (zeta * N_vals)
    w = ratio_lN * r1
    h1_vals = -w
    h2_vals = -ratio_lN * (ctx._F_nodes / (zeta * N_vals) * r1 - _dt_quotient(w, dt_out))

    dx0 = data.f0_p.dx
    d1_vals = np.gradient(data.f0_p.values, dx0, edge_order=2)
    d2_vals = np.gradient(d1_vals, dx0, edge_order=2)
    return carried(d1_vals, h1_vals, 1), carried(d2_vals, h2_vals, 2)
