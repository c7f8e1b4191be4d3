"""Boundary-control synthesis for the interface position and filling profile.

The steering problem: drive the state from (l0, f0_p) to (l1, f1_p) over a
horizon T using the two boundary inputs, screw speed N(t) and feed rate
F_in(t).  The construction is the forward/backward printing of Li
Tatsien's constructive method (Controllability and Observability for
Quasilinear Hyperbolic Systems, 2010), with the interface prescribed:

  * The screw speed is held at N_e.  Every deviation is carried by the
    feed, so the control size stays of the order of the data.
  * The interface l is prescribed, and the outlet trace b = f_p(., 1) is
    read off dl/dt = N_e g(l, b) in closed form (choose the output, read the
    input off the ODE: the flatness of Fliess, Levine, Martin and Rouchon,
    Int. J. Control 61, 1995).  The die kernel is g(l, b) =
    (g(l, 0) - zeta b)/(1 - b), so b = (g(l, 0) - v)/(zeta - v), v = l'/N_e.
  * Free run: b is f0_p carried along characteristics before the crossing
    time t0 of the inlet-corner characteristic and v0 = f0_p(0) after it;
    l solves the interface equation from l0.  Hold window: on the last
    w = min(0.5, 0.1 (T - t0)) b holds v1 = f1_p(1), and l solves the
    equation backwards from its aim.  Path: on [max(t0, T - w -
    PATH_WINDOW), T - w], l is the quintic that matches l, l' and l'' of
    the free run at its start and of the hold window at its end, and b is
    read off it.  l is then solved again on that b, so that it is the
    discrete fixed point the replay solver also iterates, and the next pass
    aims the hold window at l1 minus this pass's miss of l(T).
  * An interface solve is Newton steps on l = l0 + integral N_e g(l, b),
    each one pass over node arrays whose linear step is solved in closed
    form through its integrating factor; its errors name the pass and piece.
  * t0 depends on the characteristic field, which depends on (l, b), so
    the passes repeat on each new candidate until b is a fixed point.
    t0 comes from the closed form xi(0; t0, 1) = 0
    (`characteristics.crossing_time`).
  * The feed rate prints b backwards: the characteristic through (t, 1),
    t >= t0, left the inlet at tau(t), so the inflow ratio at tau(t) is
    b(t), up to t1 = tau(T).  After t1 the inflow is f1_p at the landing
    point at time T (`xi`), so the final profile is reproduced along
    characteristics (read back with `carry`).

A target is out of reach when a pass's outlet trace or interface leaves the
eps1 ball of the equilibrium that the replay solver works in; `synthesize`
then raises a FeasibilityError that names the pass and the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristics import (
    TraceContext,
    backtrace_batch,
    backtrace_times,
    carry,
    crossing_time,
    xi,
)
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    ExtrusimError,
    FeasibilityError,
    SingularityError,
)
from .fields import SampledFunction, SpaceProfile, norm
from .model import (EquilibriumPoint, PhysicalParams, die_balance, die_kernel, eps1_radius,
                    inflow_value)
from .oracle import UpwindConfig, simulate_upwind
from .quadrature import cumulative_integral
from .wellposed import CauchyData, solve_semiglobal


def critical_time(eq: EquilibriumPoint) -> float:
    """Transit time of the outlet characteristic at equilibrium speed.

    Below this horizon the boundary data cannot reach the whole normalized
    domain, so no boundary control can prescribe the full final profile.
    """
    return eq.l_e / (eq.params.zeta * eq.N_e)


@dataclass(frozen=True)
class ControlTarget:
    """End states and horizon of one steering problem.

    Construction checks only shape and sign; the state-dependent
    admissibility conditions (deviation budget nu, horizon above the
    critical time, interface positions inside the machine) need the
    parameter set and are checked by `validate_target`, which `synthesize`
    calls on entry.
    """

    l0: float
    l1: float
    f0_p: SpaceProfile
    f1_p: SpaceProfile
    T: float
    nu: float

    def __post_init__(self):
        for name in ("l0", "l1", "T", "nu"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name}={v} must be positive and finite")
        for name in ("f0_p", "f1_p"):
            vals = getattr(self, name).values
            if np.min(vals) < 0.0 or np.max(vals) >= 1.0:
                raise DomainError(f"{name} must take values in [0, 1)")


def validate_target(target: ControlTarget, params: PhysicalParams, eq: EquilibriumPoint) -> None:
    """Admissibility of a target for the synthesis construction."""
    L = params.L
    for name, v in (("l0", target.l0), ("l1", target.l1)):
        if not (0.0 < v < L):
            raise DomainError(f"{name}={v} outside (0, L={L})")
    T_e = critical_time(eq)
    if not (target.T > T_e):
        raise FeasibilityError(
            f"horizon T={target.T} does not exceed the critical time {T_e:.12g}"
        )
    nu = target.nu
    devs = {
        "l0": abs(target.l0 - eq.l_e),
        "l1": abs(target.l1 - eq.l_e),
        "f0_p": norm("W1inf", target.f0_p.shifted_by(eq.f_pe)),
        "f1_p": norm("W1inf", target.f1_p.shifted_by(eq.f_pe)),
    }
    slack = 1.0 + 1e-12
    for name, d in devs.items():
        if d > nu * slack:
            raise DomainError(
                f"{name} deviates from equilibrium by {d:.6g}, over the budget nu={nu:.6g}"
            )


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    T: float
    T_e: float
    witness: float
    detail: str


def feasibility_check(T: float, eq: EquilibriumPoint):
    """Strict horizon test T > T_e, with the unreachable-region witness.

    The witness is the landing point of the forward characteristic from the
    inlet corner at equilibrium speed zeta*N_e/l_e (constant, so the
    position is explicit).  When it is below 1, everything to its right at
    time T is a function of the initial profile alone.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise DomainError(f"horizon T={T} must be positive and finite")
    T_e = critical_time(eq)
    witness = min(eq.params.zeta * eq.N_e * T / eq.l_e, 1.0)
    if T > T_e:
        detail = "boundary data reaches the whole domain before the final time"
        return FeasibilityResult(True, T, T_e, witness, detail)
    detail = (
        f"forward characteristic from the inlet corner reaches only x={witness:.12g} "
        f"by t={T}; the final profile on x > {witness:.12g} is fixed by the initial data"
    )
    return FeasibilityResult(False, T, T_e, witness, detail)


@dataclass(frozen=True)
class SynthesisReport:
    """Synthesized controls with the landmarks and audit quantities.

    b_outlet is the fixed-point outlet trace (the predicted f_p(t, 1));
    together with l and N it reconstructs the characteristic field the
    construction was built on.  final_errors is the internal consistency check
    (|l(T) - l1|, sup |f_p(T, .) - f1_p|) evaluated through that field;
    `verify_control` recomputes both through independent solvers.
    control_size is the deviation measure ||F_in/(rho0 V_eff N) -
    f_pe||_W1inf + ||N - N_e||_Linf.
    """

    N: SampledFunction
    F_in: SampledFunction
    l: SampledFunction
    b_outlet: SampledFunction
    t0: float
    t1: float
    iterations: int
    residual: float
    contraction_factors: tuple
    final_errors: tuple
    control_size: float


# synthesis time grid: nodes on [0, T]
SYNTH_N_T = 2049
# the passes stop once the outlet trace moves by at most SYNTH_TOL, within
# SYNTH_MAX_ITER passes
SYNTH_TOL = 1e-10
SYNTH_MAX_ITER = 200
# the horizon must exceed the critical time by this fraction of it
HORIZON_MARGIN = 0.1
# nodes on [0, 1] at which the final profile is read back
FINAL_PROBE_POINTS = 257
# length of the path on which the interface is steered from the free run to
# the hold window
PATH_WINDOW = 4.0
# cap on Newton steps of an interface solve
NEWTON_MAX_ITER = 200
# default time step of the replay in verify_control (n_t = T/REPLAY_DT + 1)
REPLAY_DT = 1.0 / 800.0


def _candidate_field(T, a_vals, b_vals, N_vals, params):
    """Characteristic field of a candidate: its context, the origins of the
    outlet nodes and the crossing time t0 of the inlet-corner characteristic."""
    try:
        ctx = TraceContext(0.0, T, np.stack((a_vals, b_vals)), N_vals, params)
    except DomainError as exc:
        raise DivergenceError(f"candidate coefficients rejected: {exc}") from exc
    is_bnd, origin = backtrace_times(1.0, ctx)
    t0 = crossing_time(ctx)
    if t0 is None:
        raise FeasibilityError("the inlet-corner characteristic never reaches the outlet")
    return ctx, is_bnd, origin, t0


def _interface(l0, b_vals, start, N_e, dt, params):
    """Interface trace driven by the outlet trace b: l = l0 + integral
    N_e g(l, b), the fixed point the replay solver also iterates (same node
    quadrature), by Newton steps from the trace start.  A negative N_e runs
    the equation backwards on reversed nodes.

    b is checked once, as `eval_g` checks it, and 1 - b and zeta*b/(1 - b)
    are computed once.  A step integrates N_e g and a = N_e g_l (one
    `die_kernel` call) as one block: the Picard image of l, its residual r
    and A, the integral of a.  The linearized step d = r + integral a d is
    solved through its integrating factor, so l moves to the image plus
    e^A integral e^-A a r; where e^-A overflows, to the image alone.  The
    steps stop at a residual of 1e-15, or at the rounding floor of the
    running integral: a residual that no longer shrinks and is at most
    1e-13 times the size of the integral of g's terms, max(1, |N_e| times
    the trace's length times max zeta b/(1 - b)); the last image is returned.
    """
    if (b_vals >= 1.0).any():
        raise SingularityError("f_p1 >= 1 makes the die balance singular")
    if (b_vals < 0.0).any():
        raise DomainError("f_p1 must be a ratio in [0, 1)")
    empty = 1.0 - b_vals
    outflow = params.zeta * b_vals / empty
    # g is the difference of terms up to zeta b/(1 - b): the running
    # integral rounds at this size
    floor = 1e-13 * max(1.0, abs(N_e) * dt * (b_vals.size - 1) * float(outflow.max()))
    l = start
    rates = np.empty((2, l.size))
    last = np.inf
    for step_no in range(1, NEWTON_MAX_ITER + 1):
        outside = (l <= 0.0) | (l >= params.L)
        if outside.any():
            i = int(outside.argmax())
            raise DomainError(f"interface Newton step {step_no}: l={l[i]:.6g} at t={i * dt:.6g} "
                              f"lies outside (0, L={params.L})")
        g, g_l, _ = die_kernel(l, empty, outflow, params, slopes=True)
        np.multiply(N_e, g, out=rates[0])
        slope = np.multiply(N_e, g_l, out=rates[1])
        image, A = cumulative_integral(rates, dt)
        image += l0
        res = image - l
        step = float(np.abs(res).max()) / max(1.0, float(np.abs(image).max()))
        if step <= 1e-15 or last <= step <= floor:
            # copied, so that the returned trace does not keep the row of A
            return image.copy()
        last = step
        # e^-A overflows and e^A underflows on long horizons: the correction
        # is then not finite, and the Picard image stands
        with np.errstate(over="ignore", invalid="ignore"):
            factor = np.exp(-A)
            factor *= slope
            res *= factor
            correction = cumulative_integral(res, dt)
            correction *= np.exp(A, out=factor)
        if np.isfinite(correction).all():
            image += correction
        l = image
    raise ConvergenceError(f"interface Newton steps did not settle (last step {step:.3e})")


def _solve(stage, *args):
    """`_interface`, with the stage named in its errors."""
    try:
        return _interface(*args)
    except (DomainError, ConvergenceError) as exc:
        raise type(exc)(f"{stage}: {exc}") from exc


def _check_reach(stage, eq, eps1, b_vals=None, l_vals=None):
    """The outlet and interface traces must stay in the replay's eps1 ball."""
    for name, vals, centre in (("outlet ratio", b_vals, eq.f_pe), ("interface", l_vals, eq.l_e)):
        if vals is not None and not float(np.max(np.abs(vals - centre))) <= eps1:
            raise FeasibilityError(
                f"target out of reach: {stage} moves the {name} to "
                f"[{np.min(vals):.6g}, {np.max(vals):.6g}]; it must stay within "
                f"eps1={eps1:.6g} of its equilibrium value {centre:.6g}"
            )


def _quintic(ends, h, n):
    """Values and slopes, at n uniform nodes on [0, h], of the quintic that
    takes value, slope and curvature ends[:, 0] at 0 and ends[:, 1] at h."""
    (p0, p1), (d0, d1), (a0, a1) = ends
    # l = c0 + c1 s + ... + c5 s^5 in s = t/h: c0, c1, c2 from the start, and
    # c3, c4, c5 from what the end still asks of value m, slope e, curvature k
    c1, c2 = h * d0, 0.5 * h * h * a0
    m = p1 - p0 - c1 - c2
    e = h * d1 - c1 - 2.0 * c2
    k = h * h * a1 - 2.0 * c2
    c3 = 10.0 * m - 4.0 * e + 0.5 * k
    c4 = -15.0 * m + 7.0 * e - k
    c5 = 6.0 * m - 3.0 * e + 0.5 * k
    s = np.linspace(0.0, 1.0, n)
    value = p0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5))))
    slope = (c1 + s * (2.0 * c2 + s * (3.0 * c3 + s * (4.0 * c4 + s * 5.0 * c5)))) / h
    return value, slope


def _control_size(r_vals, N: SampledFunction, eq: EquilibriumPoint) -> float:
    """||r - f_pe||_W1inf + max|N - N_e| for inflow ratios r_vals on N's grid."""
    r = SampledFunction(N.t_start, N.t_end, r_vals)
    return norm("W1inf", r.shifted_by(eq.f_pe)) + float(np.max(np.abs(N.values - eq.N_e)))


def synthesize(
    target: ControlTarget,
    params: PhysicalParams,
    eq: EquilibriumPoint,
) -> SynthesisReport:
    """Compute boundary controls steering the target, with a certificate trail.

    The construction runs on SYNTH_N_T time nodes.  The passes stop once
    the outlet trace moves by at most SYNTH_TOL, within SYNTH_MAX_ITER
    passes.  The horizon must exceed the critical time by HORIZON_MARGIN,
    and the final profile is read back at FINAL_PROBE_POINTS nodes.

    Raises FeasibilityError for horizon and landmark problems and for
    targets whose outlet trace or interface leaves the eps1 ball (the
    message names the pass and the trace), ConvergenceError when the passes
    or an interface solve hit their caps, and DivergenceError when a
    candidate trace is rejected by the characteristic machinery; an
    interface solve's error names its pass and piece.
    """
    validate_target(target, params, eq)
    T_e = critical_time(eq)
    if target.T <= T_e * (1.0 + HORIZON_MARGIN):
        raise FeasibilityError(
            f"horizon T={target.T} must exceed the critical time {T_e:.6g} "
            f"by the margin HORIZON_MARGIN ({HORIZON_MARGIN:.0%})"
        )
    l0, l1, f0_p, f1_p, T = target.l0, target.l1, target.f0_p, target.f1_p, target.T
    eps1 = eps1_radius(eq)
    n_t = SYNTH_N_T
    t_grid = np.linspace(0.0, T, n_t)
    dt = T / (n_t - 1)
    N_vals = np.full(n_t, eq.N_e)
    v0 = float(f0_p.values[0])
    v1 = float(f1_p.values[-1])

    # first candidate: the outlet holds its initial value
    b_vals = np.full(n_t, float(f0_p.values[-1]))
    l_vals = _solve("first candidate", l0, b_vals, np.full(n_t, l0), eq.N_e, dt, params)
    # the path starts where b holds v0 and ends where it holds v1
    empty = 1.0 - np.array([v0, v1])
    outflow = params.zeta * (1.0 - empty) / empty
    aim = l1
    factors: list[float] = []
    prev_dist = None
    for iterations in range(1, SYNTH_MAX_ITER + 1):
        stage = f"pass {iterations}"
        _, is_bnd, origin, t0 = _candidate_field(T, l_vals, b_vals, N_vals, params)
        # free run: the initial profile carried to the outlet before t0, v0 after it
        b_new = np.where(is_bnd, v0, f0_p(origin))
        hold = min(0.5, 0.1 * (T - t0))
        i_h = min(int(np.searchsorted(t_grid, T - hold)), n_t - 2)
        i_p = min(int(np.searchsorted(t_grid, max(t0, T - hold - PATH_WINDOW))), i_h - 1)
        l_new = np.empty(n_t)
        l_new[:i_p + 1] = _solve(f"{stage}, free run", l0, b_new[:i_p + 1], l_vals[:i_p + 1],
                                 eq.N_e, dt, params)
        # hold window: b holds v1, and l runs back from the aim
        b_new[i_h:] = v1
        l_new[i_h:] = _solve(f"{stage}, hold window (t counted back from T)", aim, b_new[i_h:],
                             np.full(n_t - i_h, aim), -eq.N_e, dt, params)[::-1]
        # path: the quintic that matches l, l' = N_e g and l'' = N_e g_l l'
        # at both ends; b is read off l' = N_e g(l, b) in closed form
        ends = l_new[[i_p, i_h]]
        g, g_l, _ = die_kernel(ends, empty, outflow, params, slopes=True)
        rate = eq.N_e * g
        path, slope = _quintic((ends, rate, eq.N_e * g_l * rate), t_grid[i_h] - t_grid[i_p],
                               i_h - i_p + 1)
        v = slope[:-1] / eq.N_e
        l_new[i_p:i_h] = path[:-1]
        b_new[i_p:i_h] = (die_balance(path[:-1], 0.0, params) - v) / (params.zeta - v)
        _check_reach(f"{stage}, path candidate", eq, eps1, b_new, l_new)
        # the discrete fixed point on the new b; the next pass aims the hold
        # window past l1 by this pass's miss
        l_vals = _solve(f"{stage}, re-solve", l0, b_new, l_new, eq.N_e, dt, params)
        _check_reach(f"{stage}, re-solved interface", eq, eps1, l_vals=l_vals)
        aim -= float(l_vals[-1]) - l1
        dist = float(np.max(np.abs(b_new - b_vals)))
        if prev_dist is not None and prev_dist > 0.0:
            factors.append(dist / prev_dist)
        prev_dist = dist
        b_vals = b_new
        if dist <= SYNTH_TOL:
            break
    else:
        raise ConvergenceError(
            f"outlet trace did not settle below {SYNTH_TOL:.3e} within "
            f"{SYNTH_MAX_ITER} iterations (last update {dist:.3e})"
        )

    # print the inflow on the accepted candidate: b backwards along the
    # outlet characteristics up to t1, the target profile after it
    ctx, is_bnd, origin, t0 = _candidate_field(T, l_vals, b_vals, N_vals, params)
    t1 = float(origin[-1])
    tau_pts = np.concatenate([[0.0], origin[is_bnd]])
    b_pts = np.concatenate([[v0], b_vals[is_bnd]])

    def boundary_ratio(ts: np.ndarray) -> np.ndarray:
        """Inflow filling ratio at ts in [0, T]: outlet trace printed backwards, then the target."""
        return np.where(ts <= t1, np.interp(ts, tau_pts, b_pts), f1_p(xi(T, ts, 0.0, ctx)))

    r_vals = boundary_ratio(t_grid)
    F_in_vals = r_vals * params.rho0 * params.V_eff * N_vals

    # internal consistency: read the final state back through the candidate field
    x_probe = np.linspace(0.0, 1.0, FINAL_PROBE_POINTS)
    final_vals = carry(*backtrace_batch(T, x_probe, ctx), f0_p, boundary_ratio)
    err_fp = float(np.max(np.abs(final_vals - f1_p(x_probe))))
    err_l = abs(float(l_vals[-1]) - l1)

    N = SampledFunction(0.0, T, N_vals)
    return SynthesisReport(
        N=N,
        F_in=SampledFunction(0.0, T, F_in_vals),
        l=SampledFunction(0.0, T, l_vals),
        b_outlet=SampledFunction(0.0, T, b_vals),
        t0=t0,
        t1=t1,
        iterations=iterations,
        residual=dist,
        contraction_factors=tuple(factors),
        final_errors=(err_l, err_fp),
        control_size=_control_size(r_vals, N, eq),
    )


@dataclass(frozen=True)
class VerificationCertificate:
    """Final-state errors of both replay solvers plus the control-size audit."""

    char_l_error: float
    char_fp_error: float
    upwind_l_error: float
    upwind_fp_error: float
    nfn_value: float
    nfn_ratio: float


def verify_control(
    target: ControlTarget,
    report: SynthesisReport,
    params: PhysicalParams,
    eq: EquilibriumPoint,
    dx: float = 1e-3,
    n_t: int | None = None,
    n_x: int = 1601,
) -> VerificationCertificate:
    """Replay the synthesized controls through two independent solvers.

    The characteristic route uses the nonlinear semi-global solver; the
    second route is the first-order upwind scheme at grid step dx.  Both
    start from the target's initial data and are compared against the
    target's final data.  The certificate also reports the control
    deviation size ||F_in/(rho0 V_eff N) - f_pe||_W1inf + ||N - N_e||_Linf
    and its ratio to the deviation budget nu.

    The replay carries its own discretization error into the interface.
    The semi-global solver restarts at each junction from the profile
    stored on its n_x grid, read by linear interpolation, so that error
    falls like dx^2; it reads the controls at their own samples, so n_t
    adds no input term.  On the unit-scale target 0.49 -> 0.51 at nu = 0.01
    the interface error is 7.9e-8, 3.0e-8, 6.4e-9 and 3.1e-10 at n_x = 201,
    401, 801 and 1601 (n_t = 801); the defaults keep it well below 1e-8
    there.  At n_x = 101 and n_t = 101, 51 and 21 (the CLI's grids at
    numerics.dx = 0.01 and numerics.dt = 0.01, 0.02 and 0.05) it is 4.23e-7,
    4.23e-7 and 4.63e-7.  The default n_t holds the replay time step at
    REPLAY_DT whatever the horizon, so the certificate means the same on
    long targets.
    """
    try:
        data = CauchyData(
            l0=target.l0,
            f0_p=target.f0_p,
            F_in=report.F_in,
            N=report.N,
            params=params,
            eq=eq,
        )
    except ExtrusimError as exc:
        raise DivergenceError(f"replayed controls are not admissible: {exc}") from exc
    T = target.T
    if n_t is None:
        n_t = math.ceil(T / REPLAY_DT - 1e-9) + 1
    try:
        sol = solve_semiglobal(data, T, n_t=n_t, n_x=n_x)
    except ExtrusimError as exc:
        raise DivergenceError(f"characteristic replay failed: {exc}") from exc
    char_l = abs(float(sol.l(T)) - target.l1)
    char_fp = float(np.max(np.abs(sol.field.values[-1] - target.f1_p(sol.field.x_grid))))
    try:
        l_up, field_up = simulate_upwind(data, T, UpwindConfig(dx=dx))
    except ExtrusimError as exc:
        raise DivergenceError(f"upwind replay failed: {exc}") from exc
    up_l = abs(float(l_up(T)) - target.l1)
    up_fp = float(np.max(np.abs(field_up.values[-1] - target.f1_p(field_up.x_grid))))
    r_vals = inflow_value(report.F_in.values, report.N.values, params)
    nfn = _control_size(r_vals, report.N, eq)
    return VerificationCertificate(
        char_l_error=char_l,
        char_fp_error=char_fp,
        upwind_l_error=up_l,
        upwind_fp_error=up_fp,
        nfn_value=nfn,
        nfn_ratio=float(nfn / target.nu),
    )
