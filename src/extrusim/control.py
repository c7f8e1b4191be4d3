"""Boundary-control synthesis for the interface position and filling profile.

The steering problem: drive the state from (l0, f0_p) to (l1, f1_p) over a
horizon T using the two boundary inputs, screw speed N(t) and feed rate
F_in(t).  The construction fixes the interface path first and derives the
inputs from it:

  * l(t) interpolates l0 -> l1 linearly, so the fill rate F is the constant
    (l1 - l0)/T.
  * Along a candidate pair (a, b) = (interface trace, outlet trace) the
    screw speed is the quotient N(t) = F / g(a(t), b(t)).  By construction
    eval_F(a, N, b) returns exactly that constant F, so the characteristic
    field of the candidate coefficients can be computed by the closed-form
    machinery in `characteristics`.
  * The feed rate prints the target profile backwards: boundary values that
    leave x=0 after time t1 (the departure time of the characteristic that
    lands at (T, 1)) are chosen as f1_p evaluated at the landing point, so
    the final profile is reproduced exactly along characteristics.  Before
    t1 the boundary value follows an artificial ramp h joining the corner
    datum f0_p(0) to f1_p(1).
  * The outlet trace b is then updated to what the transport equation would
    actually deliver at x=1 (initial profile before the crossing time t0,
    ramp values after), and the loop repeats until the update is a fixed
    point in C0.

Only the outlet component moves during the iteration; the interface
component is the same linear path every time.

The quotient N = F/g is the soft spot: g vanishes at equilibrium pairs
(a, b*(a)), so candidates touching equilibrium make N blow up.  We guard
with a floor on |g| and a clamp box on N and abort with diagnostics rather
than regularize, since a regularized run would report success the
construction cannot actually deliver.  For degenerate targets (l1 = l0 up
to eta) the quotient collapses entirely; `synthesize` then switches to a
documented detour branch, flagged on the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .characteristics import (
    TraceContext,
    _xi_closed,
    backtrace_batch,
    backtrace_times,
    crossing_time,
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
from .model import EquilibriumPoint, PhysicalParams, eval_g
from .oracle import UpwindConfig, simulate_upwind
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


def feasibility_check(T: float, eq: EquilibriumPoint, target: ControlTarget | None = None):
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


def build_h(
    v0: float,
    v1: float,
    t1: float,
    nu1: float,
    eq: EquilibriumPoint,
    T: float | None = None,
    n: int = 2049,
) -> SampledFunction:
    """Boundary ramp: cubic smoothstep v0 -> v1 on [0, t1], constant after.

    The ramp window is snapped down to the sampling grid so that both
    endpoint values are reproduced exactly by the piecewise-linear
    interpolant (the nodes bracketing t1 both carry v1).  The worst-case
    deviation in W1inf is max(|v0 - f_pe|, |v1 - f_pe|, 1.5|v1 - v0|/w)
    with w the snapped window; if that exceeds the budget nu1 the ramp is
    declared infeasible, which a longer horizon (hence a later t1) fixes.
    """
    f_pe = eq.f_pe
    if not (t1 > 0.0):
        raise DomainError(f"ramp end t1={t1} must be positive")
    if T is None:
        T = t1
    if T < t1:
        raise DomainError(f"horizon T={T} must not precede the ramp end t1={t1}")
    if abs(v0 - f_pe) > nu1 or abs(v1 - f_pe) > nu1:
        raise DomainError("ramp endpoints must deviate from f_pe by at most nu1")
    grid = np.linspace(0.0, T, n)
    dt = T / (n - 1)
    window = max(math.floor(t1 / dt + 1e-12), 1) * dt
    bound = max(abs(v0 - f_pe), abs(v1 - f_pe), 1.5 * abs(v1 - v0) / window)
    if bound > nu1 * (1.0 + 1e-12):
        raise FeasibilityError(
            f"boundary ramp needs W1inf size {bound:.6g} > nu1={nu1:.6g}; "
            "a larger horizon T stretches the ramp window"
        )
    s = np.clip(grid / window, 0.0, 1.0)
    values = v0 + (v1 - v0) * s * s * (3.0 - 2.0 * s)
    return SampledFunction(0.0, T, values)


@dataclass(frozen=True)
class SynthesisOptions:
    """Tunables of the fixed-point synthesis.

    None means derive the default from the problem: g_min = 1e-6*zeta,
    N bounds N_e/10 and 10*N_e, eta = 1e-6*L, eta_detour =
    1e-2*min(l0, L - l0), nu1 = 2*nu.
    """

    n_t: int = 2049
    tol: float = 1e-10
    max_iterations: int = 200
    g_min: float | None = None
    N_min: float | None = None
    N_max: float | None = None
    margin: float = 0.1
    eta: float | None = None
    eta_detour: float | None = None
    nu1: float | None = None
    probe_points: int = 257

    def __post_init__(self):
        if self.n_t < 3:
            raise DomainError("need at least 3 time nodes")
        if not (self.tol > 0.0):
            raise DomainError("tolerance must be positive")
        if self.max_iterations < 1:
            raise DomainError("need at least one iteration")
        if self.probe_points < 2:
            raise DomainError("need at least two probe points")


@dataclass(frozen=True)
class SynthesisReport:
    """Synthesized controls with the landmarks and audit quantities.

    b_outlet is the fixed-point outlet trace (the predicted f_p(t, 1));
    together with l and N it reconstructs the characteristic field the
    construction was built on.  final_errors is the internal consistency
    check (|l(T) - l1|, sup |f_p(T, .) - f1_p|) evaluated through that
    field; `verify_control` recomputes both through independent solvers.
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
    g_min_encountered: float
    final_errors: tuple
    control_size: float
    detour: bool = False


def _resolved_guards(opts: SynthesisOptions, params: PhysicalParams, eq: EquilibriumPoint):
    g_floor = opts.g_min if opts.g_min is not None else 1e-6 * params.zeta
    n_lo = opts.N_min if opts.N_min is not None else eq.N_e / 10.0
    n_hi = opts.N_max if opts.N_max is not None else 10.0 * eq.N_e
    return g_floor, n_lo, n_hi


def _quotient_speed(a_vals, b_vals, t_grid, F_target, g_floor, n_lo, n_hi, params):
    """N = F/g on the nodes, with the floor and clamp guards."""
    g_vals = np.asarray(eval_g(a_vals, b_vals, params), dtype=float)
    g_small = float(np.min(np.abs(g_vals)))
    if g_small < g_floor:
        k = int(np.argmin(np.abs(g_vals)))
        raise SingularityError(
            f"die imbalance g shrank to {g_vals[k]:.3e} at t={t_grid[k]:.6g} "
            f"(floor {g_floor:.3e}); the screw-speed quotient is singular there"
        )
    N_vals = F_target / g_vals
    if np.min(N_vals) < n_lo or np.max(N_vals) > n_hi:
        k = int(np.argmin(N_vals)) if np.min(N_vals) < n_lo else int(np.argmax(N_vals))
        raise DivergenceError(
            f"synthesized screw speed {N_vals[k]:.6g} at t={t_grid[k]:.6g} left the "
            f"admissible box [{n_lo:.6g}, {n_hi:.6g}]"
        )
    return g_vals, N_vals, g_small


def _candidate_context(T, a_vals, b_vals, N_vals, params) -> TraceContext:
    a_sf = SampledFunction(0.0, T, a_vals)
    b_sf = SampledFunction(0.0, T, b_vals)
    n_sf = SampledFunction(0.0, T, N_vals)
    try:
        return TraceContext(a_sf, n_sf, b_sf, params)
    except DomainError as exc:
        raise DivergenceError(f"candidate coefficients rejected: {exc}") from exc


def _synthesize_core(l0, l1, f0_p, f1_p, T, nu, params, eq, opts: SynthesisOptions):
    """One run of the fixed-point construction on [0, T].  No detour logic."""
    n_t = opts.n_t
    t_grid = np.linspace(0.0, T, n_t)
    F_target = (l1 - l0) / T
    a_vals = l0 + (l1 - l0) * t_grid / T
    a_vals[-1] = l1
    g_floor, n_lo, n_hi = _resolved_guards(opts, params, eq)
    nu1 = opts.nu1 if opts.nu1 is not None else 2.0 * nu

    # data values that pin the candidate ends and the ramp
    b_start = float(f0_p.values[-1])
    b_end = float(f1_p.values[-1])
    v0 = float(f0_p.values[0])

    b_vals = np.linspace(b_start, b_end, n_t)
    g_min_seen = math.inf
    factors: list[float] = []
    prev_dist = None
    residual = math.inf
    iterations = 0

    for _ in range(opts.max_iterations):
        iterations += 1
        g_vals, N_vals, g_small = _quotient_speed(
            a_vals, b_vals, t_grid, F_target, g_floor, n_lo, n_hi, params
        )
        g_min_seen = min(g_min_seen, g_small)
        ctx = _candidate_context(T, a_vals, b_vals, N_vals, params)
        is_bnd, origin = backtrace_times(t_grid, 1.0, ctx)
        if not is_bnd[-1]:
            raise FeasibilityError(
                "the outlet characteristic at the final time reaches back to the "
                "initial axis; the horizon is too short for this candidate"
            )
        t1 = float(origin[-1])
        h = build_h(v0, b_end, t1, nu1, eq, T=T, n=n_t)
        b_new = np.where(is_bnd, h(origin), f0_p(np.clip(origin, 0.0, 1.0)))
        # the sweep reproduces both ends, but pin them against root noise
        b_new[0] = b_start
        b_new[-1] = b_end
        dist = float(np.max(np.abs(b_new - b_vals)))
        if prev_dist is not None and prev_dist > 0.0:
            factors.append(dist / prev_dist)
        prev_dist = dist
        b_vals = b_new
        residual = dist
        if dist <= opts.tol:
            break
    else:
        raise ConvergenceError(
            f"outlet trace did not settle below {opts.tol:.3e} within "
            f"{opts.max_iterations} iterations (last update {residual:.3e})"
        )

    # assemble the controls of the accepted candidate
    g_vals, N_vals, g_small = _quotient_speed(
        a_vals, b_vals, t_grid, F_target, g_floor, n_lo, n_hi, params
    )
    g_min_seen = min(g_min_seen, g_small)
    ctx = _candidate_context(T, a_vals, b_vals, N_vals, params)
    t0 = crossing_time(ctx)
    if t0 is None:
        raise FeasibilityError("the inlet-corner characteristic never reaches the outlet")
    is_bnd, origin = backtrace_times(t_grid, 1.0, ctx)
    t1 = float(origin[-1])
    if not (0.0 < t0 < t1 < T):
        raise FeasibilityError(f"landmark ordering failed: t0={t0:.6g}, t1={t1:.6g}, T={T}")
    h = build_h(v0, b_end, t1, nu1, eq, T=T, n=n_t)

    def boundary_ratio(ts: np.ndarray) -> np.ndarray:
        """Inflow filling ratio: ramp up to t1, printed target after."""
        ts = np.asarray(ts, dtype=float)
        landing = np.clip(np.asarray(_xi_closed(T, ts, 0.0, ctx), dtype=float), 0.0, 1.0)
        return np.where(ts <= t1, h(ts), f1_p(landing))

    r_vals = boundary_ratio(t_grid)
    scale = params.rho0 * params.V_eff
    F_in_vals = r_vals * scale * N_vals

    # internal consistency: read the final state back through the candidate field
    x_probe = np.linspace(0.0, 1.0, opts.probe_points)
    probe_bnd, probe_org = backtrace_batch(T, x_probe, ctx)
    final_vals = np.where(
        probe_bnd,
        boundary_ratio(probe_org),
        f0_p(np.clip(probe_org, 0.0, 1.0)),
    )
    err_fp = float(np.max(np.abs(final_vals - f1_p(x_probe))))
    err_l = abs(float(a_vals[-1]) - l1)

    r_sf = SampledFunction(0.0, T, r_vals)
    size = norm("W1inf", r_sf.shifted_by(eq.f_pe)) + float(np.max(np.abs(N_vals - eq.N_e)))

    return SynthesisReport(
        N=SampledFunction(0.0, T, N_vals),
        F_in=SampledFunction(0.0, T, F_in_vals),
        l=SampledFunction(0.0, T, a_vals),
        b_outlet=SampledFunction(0.0, T, b_vals),
        t0=float(t0),
        t1=t1,
        iterations=iterations,
        residual=residual,
        contraction_factors=tuple(factors),
        g_min_encountered=g_min_seen,
        final_errors=(err_l, err_fp),
        control_size=float(size),
        detour=False,
    )


def _equilibrium_report(target: ControlTarget, params, eq, opts: SynthesisOptions, T_e):
    """Degenerate target sitting exactly on the equilibrium: hold it there.

    The quotient construction is singular here (g vanishes identically on
    the data), but the constant equilibrium inputs steer the target with
    zero error, and they are the limit of the construction as the target
    approaches equilibrium.  g_min_encountered is reported as 0.0: the
    quotient was never taken.
    """
    T = target.T
    n_t = opts.n_t
    t_grid = np.linspace(0.0, T, n_t)
    l_vals = target.l0 + (target.l1 - target.l0) * t_grid / T
    l_vals[-1] = target.l1
    scale = params.rho0 * params.V_eff
    N_sf = SampledFunction(0.0, T, np.full(n_t, eq.N_e))
    F_in_sf = SampledFunction(0.0, T, np.full(n_t, eq.f_pe * scale * eq.N_e))
    b_sf = SampledFunction(0.0, T, np.full(n_t, eq.f_pe))
    err_fp = float(np.max(np.abs(target.f1_p.values - eq.f_pe)))
    return SynthesisReport(
        N=N_sf,
        F_in=F_in_sf,
        l=SampledFunction(0.0, T, l_vals),
        b_outlet=b_sf,
        t0=T_e,
        t1=T - T_e,
        iterations=0,
        residual=0.0,
        contraction_factors=(),
        g_min_encountered=0.0,
        final_errors=(0.0, err_fp),
        control_size=0.0,
        detour=True,
    )


def _synthesize_detour(target: ControlTarget, params, eq, opts: SynthesisOptions, T_e, eta):
    """Two-leg route for targets whose interface barely moves.

    Leg 1 pushes the interface to a nearby waypoint l_m over [0, T/2] while
    flattening the profile to the constant f0_p(1); leg 2 returns to l1 and
    prints f1_p.  Each leg reuses the main construction on its half
    horizon, so each must individually clear the critical time.

    A return trip requires the outlet ratio to cross its equilibrium value
    b*(l) between the legs, and the quotient N = F/g blows up at that
    crossing, so away from the exact-equilibrium case this route generally
    trips the guards; the failure is surfaced, not patched.
    """
    l0, l1, T = target.l0, target.l1, target.T
    if (
        abs(l0 - eq.l_e) <= eta
        and abs(l1 - eq.l_e) <= eta
        and float(np.max(np.abs(target.f0_p.values - eq.f_pe))) <= 1e-12
        and float(np.max(np.abs(target.f1_p.values - eq.f_pe))) <= 1e-12
    ):
        return _equilibrium_report(target, params, eq, opts, T_e)

    T_leg = T / 2.0
    if T_leg <= T_e * (1.0 + opts.margin):
        raise FeasibilityError(
            f"detour halves the horizon; each leg needs more than "
            f"{T_e * (1.0 + opts.margin):.6g}, got {T_leg:.6g}"
        )
    g_start = float(eval_g(l0, float(target.f0_p.values[-1]), params))
    if g_start == 0.0:
        raise SingularityError(
            "initial data sits on an equilibrium pair; the detour cannot choose "
            "a direction for the waypoint"
        )
    step = opts.eta_detour if opts.eta_detour is not None else 1e-2 * min(l0, params.L - l0)
    l_m = l0 + math.copysign(step, g_start)
    if not (0.0 < l_m < params.L):
        raise DomainError(f"detour waypoint l_m={l_m} left (0, L)")
    mid_profile = SpaceProfile.constant(float(target.f0_p.values[-1]))
    n_leg = (opts.n_t + 1) // 2
    leg_opts = replace(opts, n_t=n_leg)
    try:
        leg1 = _synthesize_core(
            l0, l_m, target.f0_p, mid_profile, T_leg, target.nu, params, eq, leg_opts
        )
    except (SingularityError, DivergenceError, ConvergenceError, FeasibilityError) as exc:
        raise type(exc)(f"detour leg 1 failed: {exc}") from exc
    try:
        leg2 = _synthesize_core(
            l_m, l1, mid_profile, target.f1_p, T_leg, target.nu, params, eq, leg_opts
        )
    except (SingularityError, DivergenceError, ConvergenceError, FeasibilityError) as exc:
        raise type(exc)(f"detour leg 2 failed: {exc}") from exc

    def stitch(u1: SampledFunction, u2: SampledFunction) -> SampledFunction:
        # junction node takes the second leg's value; the jump is genuine
        vals = np.concatenate([u1.values[:-1], u2.values])
        return SampledFunction(0.0, T, vals)

    N_sf = stitch(leg1.N, leg2.N)
    F_in_sf = stitch(leg1.F_in, leg2.F_in)
    l_sf = stitch(leg1.l, leg2.l)
    b_sf = stitch(leg1.b_outlet, leg2.b_outlet)
    r_vals = F_in_sf.values / (params.rho0 * params.V_eff * N_sf.values)
    r_sf = SampledFunction(0.0, T, r_vals)
    size = norm("W1inf", r_sf.shifted_by(eq.f_pe)) + float(
        np.max(np.abs(N_sf.values - eq.N_e))
    )
    return SynthesisReport(
        N=N_sf,
        F_in=F_in_sf,
        l=l_sf,
        b_outlet=b_sf,
        t0=leg1.t0,
        t1=T_leg + leg2.t1,
        iterations=leg1.iterations + leg2.iterations,
        residual=max(leg1.residual, leg2.residual),
        contraction_factors=leg1.contraction_factors + leg2.contraction_factors,
        g_min_encountered=min(leg1.g_min_encountered, leg2.g_min_encountered),
        final_errors=(abs(float(l_sf.values[-1]) - l1), leg2.final_errors[1]),
        control_size=float(size),
        detour=True,
    )


def synthesize(
    target: ControlTarget,
    params: PhysicalParams,
    eq: EquilibriumPoint,
    opts: SynthesisOptions | None = None,
) -> SynthesisReport:
    """Compute boundary controls steering the target, with a certificate trail.

    Raises SingularityError when the die-imbalance quotient degenerates,
    DivergenceError when the synthesized screw speed leaves its clamp box,
    ConvergenceError at the iteration cap, FeasibilityError for horizon and
    landmark problems, and propagates the infeasible-ramp error of build_h.
    """
    if opts is None:
        opts = SynthesisOptions()
    validate_target(target, params, eq)
    T_e = critical_time(eq)
    if target.T <= T_e * (1.0 + opts.margin):
        raise FeasibilityError(
            f"horizon T={target.T} must exceed the critical time {T_e:.6g} "
            f"by the configured margin ({opts.margin:.0%})"
        )
    eta = opts.eta if opts.eta is not None else 1e-6 * params.L
    if abs(target.l1 - target.l0) <= eta:
        return _synthesize_detour(target, params, eq, opts, T_e, eta)
    return _synthesize_core(
        target.l0,
        target.l1,
        target.f0_p,
        target.f1_p,
        target.T,
        target.nu,
        params,
        eq,
        opts,
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
    n_t: int = 801,
    n_x: int = 201,
) -> VerificationCertificate:
    """Replay the synthesized controls through two independent solvers.

    The characteristic route uses the nonlinear semi-global solver; the
    second route is the first-order upwind scheme at grid step dx.  Both
    start from the target's initial data and are compared against the
    target's final data.  The certificate also reports the control
    deviation size ||F_in/(rho0 V_eff N) - f_pe||_W1inf + ||N - N_e||_Linf
    and its ratio to the deviation budget nu.

    The semi-global solver represents the inputs piecewise-linearly on its
    own n_t grid, which biases the recovered interface by O(dt^2); the
    default n_t keeps that bias a few times below 1e-8 on unit-scale runs.
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
    r_vals = report.F_in.values / (params.rho0 * params.V_eff * report.N.values)
    r_sf = SampledFunction(report.N.t_start, report.N.t_end, r_vals)
    nfn = norm("W1inf", r_sf.shifted_by(eq.f_pe)) + float(
        np.max(np.abs(report.N.values - eq.N_e))
    )
    return VerificationCertificate(
        char_l_error=char_l,
        char_fp_error=char_fp,
        upwind_l_error=up_l,
        upwind_fp_error=up_fp,
        nfn_value=float(nfn),
        nfn_ratio=float(nfn / target.nu),
    )
