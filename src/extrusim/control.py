"""Boundary-control synthesis for the interface position and filling profile.

The steering problem: drive the state from (l0, f0_p) to (l1, f1_p) over a
horizon T using the two boundary inputs, screw speed N(t) and feed rate
F_in(t).  The construction is the forward/backward printing of Li
Tatsien's constructive method (Controllability and Observability for
Quasilinear Hyperbolic Systems, 2010), with the interface left free:

  * The screw speed is held at N_e.  Every deviation is carried by the
    feed, so the control size stays of the order of the data.
  * The outlet trace b = f_p(., 1) is prescribed.  Before the crossing
    time t0 of the inlet-corner characteristic it is f0_p carried along
    characteristics.  On [t0, T] it is a smoothstep from f0_p(0) to
    f1_p(1) plus A*phi, where phi = sin^2 is a bump on the first 90% of
    [t0, T], so it vanishes before T.
  * The interface solves dl/dt = N_e g(l, b) from l0.  The amplitude A is
    shot (Newton, with the sensitivity dl/dA) until l(T) = l1; no PDE
    solve is needed for this.  l and dl/dA are solved by Newton steps on
    the interface equation, each one pass over node arrays (g and its
    partials from `model.die_kernel`) whose linear step is solved in closed
    form through its integrating factor; a failed solve names the
    candidate, step, time and l.  The first candidate's solve starts from
    the flat l0.  Each later solve starts from the last one's pair (l, s),
    with l advanced along s by the Newton step dA of the amplitude:
    (l + dA*s, s), the first-order prediction of the new interface.
  * t0 depends on the characteristic field, which depends on (l, b), so
    the passes repeat on each new candidate until b is a fixed point.
    t0 comes from the closed form xi(0; t0, 1) = 0
    (`characteristics.crossing_time`).
  * The feed rate prints b backwards: the characteristic through (t, 1),
    t >= t0, left the inlet at tau(t), so the inflow ratio at tau(t) is
    b(t), up to t1 = tau(T).  After t1 the inflow is f1_p at the landing
    point at time T (`xi`), so the final profile is reproduced along
    characteristics (read back with `carry`).

A target is out of reach when the required outlet trace or interface
leaves the eps1 ball of the equilibrium that the replay solver works in;
`synthesize` then raises a FeasibilityError that names the amplitude.
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
from .model import EquilibriumPoint, PhysicalParams, die_kernel, eps1_radius, inflow_value
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
    construction was built on.  amplitude is the shooting unknown A of the
    outlet bump.  final_errors is the internal consistency check
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
    amplitude: float
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
# fraction of [t0, T] covered by the outlet bump; the bump vanishes before T
BUMP_WINDOW = 0.9
# shooting stops once the interface misses l1 by at most this much (relative
# to max(1, l1))
SHOOT_TOL = 1e-14
# caps on Newton steps for the amplitude and for the interface l(t)
SHOOT_MAX_ITER = 50
PICARD_MAX_ITER = 200
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


def _interface(l0, b_vals, phi_vals, start, N_e, dt, params):
    """Interface trace driven by the outlet trace b, and its bump sensitivity.

    l = l0 + integral N_e g(l, b), the fixed point the replay solver also
    iterates (same node quadrature), and s = dl/dA, which solves the
    linearized equation with the bump phi as source, are solved together by
    Newton steps from the pair start = (l, s).
    b is checked once, as `eval_g` checks it, and 1 - b and zeta*b/(1 - b)
    are computed once.  A step takes g and its partials from one
    `die_kernel` call and integrates N_e g, N_e (g_l s + g_b phi) and
    a = N_e g_l as one block: the Picard image of the pair, its residual r
    (image minus pair) and A, the integral of a.  The step d solves the
    linearized equation d = r + integral a d (s's dependence on l left
    out) through its integrating factor, d = r + e^A integral e^-A a r,
    so the pair moves to the image plus e^A integral e^-A a r; where e^-A
    overflows, to the image alone.  The steps stop at a residual of 1e-15,
    or at the rounding floor of the running integral: a residual of at most
    1e-13 that no longer shrinks; the last image is returned.
    """
    if (b_vals >= 1.0).any():
        raise SingularityError("f_p1 >= 1 makes the die balance singular")
    if (b_vals < 0.0).any():
        raise DomainError("f_p1 must be a ratio in [0, 1)")
    empty = 1.0 - b_vals
    outflow = params.zeta * b_vals / empty
    ls = np.stack(start)  # the iterate (l, s)
    rates = np.empty((3, ls.shape[1]))
    last = np.inf
    for sweep in range(1, PICARD_MAX_ITER + 1):
        l, s = ls
        outside = (l <= 0.0) | (l >= params.L)
        if outside.any():
            i = int(outside.argmax())
            raise DomainError(f"interface sweep {sweep}: l={l[i]:.6g} at t={i * dt:.6g} "
                              f"lies outside (0, L={params.L})")
        g, g_l, g_b = die_kernel(l, empty, outflow, params, slopes=True)
        slope = np.multiply(N_e, g_l, out=rates[2])
        np.multiply(N_e, g, out=rates[0])
        np.multiply(N_e, g_l * s + g_b * phi_vals, out=rates[1])
        nxt = cumulative_integral(rates, dt)
        nxt[0] += l0
        image, A = nxt[:2], nxt[2]
        res = np.subtract(image, ls, out=ls)
        # each row's largest move, relative to max(1, its largest value)
        (dl, ds), (nl, ns) = np.abs(res).max(axis=1), np.abs(image).max(axis=1)
        step = max(dl / max(1.0, nl), ds / max(1.0, ns))
        if step <= 1e-15 or last <= step <= 1e-13:
            # copied, so that the returned pair does not keep the row of A
            l, s = image.copy()
            return l, s
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
        ls = image
    raise ConvergenceError(f"interface sweep did not settle (last step {step:.3e})")


def _check_reach(A, b_vals, l_vals, eq, eps1):
    """The outlet and interface traces must stay in the replay's eps1 ball."""
    dev_b = float(np.max(np.abs(b_vals - eq.f_pe)))
    dev_l = float(np.max(np.abs(l_vals - eq.l_e)))
    if dev_b > eps1 or dev_l > eps1:
        raise FeasibilityError(
            f"target out of reach: bump amplitude A={A:.6g} moves the outlet ratio to "
            f"[{np.min(b_vals):.6g}, {np.max(b_vals):.6g}] and the interface to "
            f"[{np.min(l_vals):.6g}, {np.max(l_vals):.6g}]; both must stay within "
            f"eps1={eps1:.6g} of the equilibrium ({eq.f_pe:.6g}, {eq.l_e:.6g})"
        )


def _shoot(l0, l1, base, phi, A, start, eq, eps1, dt, params, stage):
    """Newton on the bump amplitude A until the interface lands on l1.

    The first solve starts from the pair start = (l, s).  After a miss the
    step is dA = -miss/s(T), and the next solve starts from (l + dA*s, s),
    the first-order prediction of the new interface and the last
    sensitivity; from the unshifted l if that prediction leaves (0, L).
    Returns A, the outlet trace and the converged pair (l, s)."""
    # a new b is checked beside the last solved interface, not a prediction
    l_vals = start[0]
    for _ in range(SHOOT_MAX_ITER):
        b_vals = base + A * phi
        _check_reach(A, b_vals, l_vals, eq, eps1)
        try:
            l_vals, sens = _interface(l0, b_vals, phi, start, eq.N_e, dt, params)
        except (DomainError, ConvergenceError) as exc:
            raise type(exc)(f"{stage}, amplitude A={A:.6g}: {exc}") from exc
        _check_reach(A, b_vals, l_vals, eq, eps1)
        miss = float(l_vals[-1]) - l1
        if abs(miss) <= SHOOT_TOL * max(1.0, abs(l1)):
            return A, b_vals, (l_vals, sens)
        step = -miss / float(sens[-1])
        A += step
        guess = l_vals + step * sens
        inside = ((guess > 0.0) & (guess < params.L)).all()
        start = (guess if inside else l_vals, sens)
    raise ConvergenceError(
        f"amplitude shooting did not land the interface on l1={l1} "
        f"(last miss {miss:.3e} at A={A:.6g})"
    )


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
    targets whose outlet bump leaves the admissible range (the message
    names the amplitude), ConvergenceError when the passes or the shooting
    hit their caps, and DivergenceError when a candidate trace is rejected
    by the characteristic machinery; an interface solve's error names its
    candidate.
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

    # first candidate: the outlet holds its initial value, no bump; its
    # solve starts from the flat l0
    b_vals = np.full(n_t, float(f0_p.values[-1]))
    A = 0.0
    zeros = np.zeros(n_t)
    try:
        # with no bump the sensitivity stays 0: the start of pass 1
        l_vals, sens = _interface(l0, b_vals, zeros, (np.full(n_t, l0), zeros), eq.N_e, dt,
                                  params)
    except (DomainError, ConvergenceError) as exc:
        raise type(exc)(f"first candidate: {exc}") from exc
    factors: list[float] = []
    prev_dist = None
    for iterations in range(1, SYNTH_MAX_ITER + 1):
        _, is_bnd, origin, t0 = _candidate_field(T, l_vals, b_vals, N_vals, params)
        # initial profile carried to the outlet before t0; after it a
        # smoothstep v0 -> v1 plus the bump that steers l(T) onto l1
        s = np.clip((t_grid - t0) / (T - t0), 0.0, 1.0)
        w = np.clip((t_grid - t0) / (BUMP_WINDOW * (T - t0)), 0.0, 1.0)
        phi = np.sin(np.pi * w) ** 2
        base = np.where(is_bnd, v0 + (v1 - v0) * s * s * (3.0 - 2.0 * s), f0_p(origin))
        A, b_new, (l_vals, sens) = _shoot(l0, l1, base, phi, A, (l_vals, sens), eq, eps1,
                                          dt, params, f"pass {iterations}")
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
        amplitude=float(A),
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
    the interface error is 7.8e-8, 3.0e-8, 6.1e-9 and 5.5e-10 at n_x = 201,
    401, 801 and 1601 (n_t = 801); the defaults keep it well below 1e-8
    there.  At n_x = 101 and n_t = 101, 51 and 21 (the CLI's grids at
    numerics.dx = 0.01 and numerics.dt = 0.01, 0.02 and 0.05) it is 4.59e-7,
    4.59e-7 and 4.93e-7.  The default n_t holds the replay time step at
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
