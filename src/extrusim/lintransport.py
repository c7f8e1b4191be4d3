"""Generic linear transport along characteristics, weak-form residuals,
and the x-derivative fields of the filling ratio.

The scalar problem is

    u_t + a(t,x) u_x = b(t,x) u + c(t,x),   u(0,.) = u0,   u(t,0) = h(t),

with a > 0 so every backward characteristic leaves through the initial
axis or the inflow face.  Trajectories are integrated with classical
Runge-Kutta, the zero crossing is refined on a cubic Hermite dense output,
and the integrating-factor integrals accumulate with Simpson increments on
the same parameterization.  This generic solver serves given coefficients
and stands as an independent check of the closed forms.

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
from .quadrature import hermite_basis

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
        if self.T <= 0.0:
            raise DomainError("horizon must be positive")
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


def _dense_output(z, width, y_lo, y_hi, m_lo, m_hi):
    """The cubic matching values y and slopes m at both ends of a step of the
    given width, at local coordinate z in [0, 1]."""
    h00, h10, h01, h11 = hermite_basis(z)
    return h00 * y_lo + width * h10 * m_lo + h01 * y_hi + width * h11 * m_hi


def solve_linear_transport(p: LinearTransportProblem, t_grid, x_grid) -> SolutionField:
    """Characteristic solution of the transport problem on a tensor grid.

    All grid points march backward through one shared sweep, one RK4 step
    per time cell: a row joins the sweep when the time front reaches its
    node, so every step advances one batch instead of re-tracing rows
    separately.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if t_grid[0] != 0.0 or abs(t_grid[-1] - p.T) > 1e-12:
        raise GridError("time grid must span [0, T]")
    nt, nx = t_grid.size, x_grid.size
    dt = t_grid[1] - t_grid[0]
    if np.max(np.abs(np.diff(t_grid) - dt)) > 1e-9 * dt:
        raise GridError("time grid must be uniform")

    m = nt * nx
    X = np.empty(m)
    B = np.zeros(m)  # integral of b from current s back up to the row time
    I = np.zeros(m)  # accumulated source integral with the growth factor
    u = np.empty(m)
    a_c = np.empty(m)  # a at the current state, reused between steps
    active = np.zeros(m, dtype=bool)
    crossed = np.zeros(m, dtype=bool)
    for k in range(nt - 1, 0, -1):
        row = slice(k * nx, (k + 1) * nx)
        X[row] = x_grid
        B[row] = 0.0
        I[row] = 0.0
        active[row] = True
        a_c[row] = np.asarray(p.a(t_grid[k], x_grid), dtype=float)
        s = t_grid[k]
        s_new = s - dt
        idx = np.nonzero(active)[0]
        Xa = X[idx]
        a1 = a_c[idx]
        # classical RK4 with step -dt
        k1 = a1
        k2 = np.asarray(p.a(s - 0.5 * dt, Xa - 0.5 * dt * k1), dtype=float)
        k3 = np.asarray(p.a(s - 0.5 * dt, Xa - 0.5 * dt * k2), dtype=float)
        k4 = np.asarray(p.a(s_new, Xa - dt * k3), dtype=float)
        X_new = Xa - dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a_new = np.asarray(p.a(s_new, X_new), dtype=float)
        if np.any(a_new <= 0.0) or np.any(a1 <= 0.0):
            raise DomainError("transport coefficient a must stay positive")
        X_mid = _dense_output(0.5, dt, X_new, Xa, a_new, a1)

        hit = X_new < 0.0
        keep = ~hit
        if np.any(keep):
            j = idx[keep]
            b_old = np.asarray(p.b(s, Xa[keep]), dtype=float)
            b_mid = np.asarray(p.b(s - 0.5 * dt, X_mid[keep]), dtype=float)
            b_new = np.asarray(p.b(s_new, X_new[keep]), dtype=float)
            dB = dt / 6.0 * (b_old + 4.0 * b_mid + b_new)
            B_mid = B[j] + 0.25 * dt * (b_old + b_mid)
            c_old = np.asarray(p.c(s, Xa[keep]), dtype=float)
            c_mid = np.asarray(p.c(s - 0.5 * dt, X_mid[keep]), dtype=float)
            c_new = np.asarray(p.c(s_new, X_new[keep]), dtype=float)
            I[j] += dt / 6.0 * (
                c_old * np.exp(B[j])
                + 4.0 * c_mid * np.exp(B_mid)
                + c_new * np.exp(B[j] + dB)
            )
            B[j] += dB
            X[j] = X_new[keep]
            a_c[j] = a_new[keep]
        if np.any(hit):
            j = idx[hit]
            tau = _refine_crossing(s_new, s, X_new[hit], Xa[hit], a_new[hit], a1[hit])
            u[j] = _boundary_value(
                p, tau, s, Xa[hit], a1[hit], X_new[hit], a_new[hit], s_new, B[j], I[j]
            )
            crossed[j] = True
            active[j] = False
    rest = active
    if np.any(rest):
        beta = np.clip(X[rest], 0.0, 1.0)
        u[rest] = p.u0(beta) * np.exp(B[rest]) + I[rest]

    values = u.reshape(nt, nx)
    values[0] = p.u0(x_grid)
    return SolutionField(t_grid, x_grid, values, crossed.reshape(nt, nx))


def _refine_crossing(s_lo, s_hi, x_lo, x_hi, m_lo, m_hi):
    """Zero of the dense-output cubic between the bracketing states.

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


def _boundary_value(p, tau, s, x_s, a_s, x_new, a_new, s_new, B, I):
    """Datum pickup at the inflow face plus the partial-interval integrals."""
    width = s - tau
    sig_m = 0.5 * (tau + s)
    step = s - s_new
    x_m = _dense_output((sig_m - s_new) / step, step, x_new, x_s, a_new, a_s)
    x_tau = np.zeros_like(tau)
    b_s = np.asarray(p.b(s, x_s), dtype=float)
    b_m = np.asarray(p.b(sig_m, x_m), dtype=float)
    b_tau = np.asarray(p.b(tau, x_tau), dtype=float)
    dB = width / 6.0 * (b_s + 4.0 * b_m + b_tau)
    B_m = B + 0.25 * width * (b_s + b_m)
    c_s = np.asarray(p.c(s, x_s), dtype=float)
    c_m = np.asarray(p.c(sig_m, x_m), dtype=float)
    c_tau = np.asarray(p.c(tau, x_tau), dtype=float)
    dI = width / 6.0 * (
        c_s * np.exp(B) + 4.0 * c_m * np.exp(B_m) + c_tau * np.exp(B + dB)
    )
    h_tau = np.asarray(p.h(tau), dtype=float)
    return h_tau * np.exp(B + dB) + I + dI


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
