"""Physical parameters and constitutive relations of the extruder model.

The melt conveying section is split at the moving interface l(t) into a
partially filled zone (normalized coordinate x in [0,1]) and a fully filled
zone.  The interface moves with velocity

    dl/dt = F(l, N, f_p1) = N * g(l, f_p1),

where f_p1 is the filling ratio arriving at the interface and g balances
the die conductance against the conveying capacity of the screw.  Material
inside the partially filled zone is transported with the normalized speed

    alpha_p(x) = (zeta*N - x*F) / l,

and the filling ratio fed at the hopper is F_in / (rho0 * V_eff * N).
This module holds those algebraic pieces plus the equilibrium algebra,
which are pure and numpy-broadcastable (on Python floats, `eval_F` and
`inflow_value` compute in float arithmetic, the operations of their array
path, as the upwind march calls them once a step), and the Cauchy data of the
coupled problem, (l0, f0_p, F_in, N) with their admissibility checks
(`CauchyData`, `inflow_peak`).  It needs no solver, so a process that
only checks data or runs the upwind oracle loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CompatibilityError, DomainError, SingularityError
from .fields import SampledFunction, SpaceProfile

# norm_F_box's margin over the supremum of F on the eps1 box; it sets the
# length of the interval on which the solution map contracts
F_BOX_SAFETY = 1.25
COMPAT_TOL = 1e-10


@dataclass(frozen=True)
class PhysicalParams:
    """Geometry and material constants of the extruder."""

    zeta: float = 1.0    # screw pitch
    L: float = 1.0       # extruder length
    K_d: float = 1.0     # die conductance
    B: float = 1.0       # geometric parameter of the screw channel
    rho0: float = 1.0    # melt density
    V_eff: float = 1.0   # effective conveying volume per turn

    def __post_init__(self):
        for name in ("zeta", "L", "K_d", "B", "rho0", "V_eff"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise DomainError(f"parameter {name} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class EquilibriumPoint:
    """Steady operating point (l_e, N_e, f_pe) with F(l_e, N_e, f_pe) = 0.

    Keeps a reference to the parameter set it was solved under so that
    downstream code (admissibility radii, critical times) does not need the
    parameters passed separately.
    """

    l_e: float
    N_e: float
    f_pe: float
    params: PhysicalParams

    def __post_init__(self):
        if not (0.0 < self.l_e < self.params.L):
            raise DomainError(f"l_e={self.l_e} outside (0, L={self.params.L})")
        if self.N_e <= 0.0:
            raise DomainError(f"N_e={self.N_e} must be positive")
        # zeta*N_e scales the transport speed; the solvers divide by it
        if not self.params.zeta * self.N_e > 0.0:
            raise DomainError(f"zeta*N_e, the scale of the transport speed, underflows to 0 "
                              f"(zeta={self.params.zeta}, N_e={self.N_e})")
        if not (0.0 < self.f_pe < 1.0):
            raise DomainError(f"f_pe={self.f_pe} outside (0, 1)")
        residual, bound = self.residual()
        if residual > bound:
            raise DomainError(f"not an equilibrium: |F| = {residual:.3e} > {bound:.3g}")

    def residual(self) -> tuple[float, float]:
        """|F(l_e, N_e, f_pe)| and the bound an equilibrium holds it to.

        F = N*g, and g is the difference of two terms of size
        zeta*f_pe/(1 - f_pe), so F rounds on the scale of N times that term:
        the bound is 1e-12*max(1, N_e*zeta*f_pe/(1 - f_pe)).
        """
        scale = self.N_e * self.params.zeta * self.f_pe / (1.0 - self.f_pe)
        return abs(eval_F(self.l_e, self.N_e, self.f_pe, self.params)), 1e-12 * max(1.0, scale)


def eval_g(l, f_p1, params: PhysicalParams):
    """Interface velocity per unit screw speed.

    g(l, f_p1) = zeta*K_d*(L-l) / ((B*rho0 + K_d*(L-l)) * (1-f_p1))
                 - zeta*f_p1 / (1-f_p1)

    Positive when the die is under-filled relative to the equilibrium of
    the current interface position, negative when over-filled.
    """
    l_arr = np.asarray(l, dtype=float)
    f_arr = np.asarray(f_p1, dtype=float)
    if (f_arr >= 1.0).any():
        raise SingularityError("f_p1 >= 1 makes the die balance singular")
    if (f_arr < 0.0).any():
        raise DomainError("f_p1 must be a ratio in [0, 1)")
    if (l_arr <= 0.0).any() or (l_arr >= params.L).any():
        raise DomainError(f"l must lie strictly inside (0, L={params.L})")
    out = die_balance(l_arr, f_arr, params)
    if np.isscalar(l) and np.isscalar(f_p1):
        return float(out)
    return out


def die_balance(l, f_p1, params: PhysicalParams):
    """g(l, f_p1) of `eval_g` for float arrays whose ranges the caller has checked."""
    empty = 1.0 - f_p1
    return die_kernel(l, empty, params.zeta * f_p1 / empty, params)


def die_kernel(l, empty, outflow, params: PhysicalParams, slopes: bool = False):
    """g, or with slopes (g, dg/dl, dg/df_p1), from l, empty = 1 - f_p1 and
    outflow = zeta*f_p1/empty; K_d*(L - l), D = B*rho0 + K_d*(L - l) and D*empty
    are shared, and a caller sweeping l over one f_p1 reuses empty and outflow."""
    remaining = params.K_d * (params.L - l)
    D = params.B * params.rho0 + remaining
    D_empty = D * empty
    g = params.zeta * remaining / D_empty - outflow
    if not slopes:
        return g
    # with a huge B*rho0, D*D overflows and the slopes underflow toward 0;
    # the reach check that follows names the failure
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dg_dl = -params.zeta * params.K_d * params.B * params.rho0 / (D * D * empty)
        dg_df = -params.zeta * params.B * params.rho0 / (D_empty * empty)
        if not (np.isfinite(dg_dl).all() and np.isfinite(dg_df).all()):
            # K_d*B*rho0 or D*D passed the float range (inf/inf or 0/0): the
            # same slopes from the shares K_d/D and B*rho0/D, which stay in it
            die_share = 1.0 / (1.0 + remaining / (params.B * params.rho0))
            dg_dl = np.where(np.isfinite(dg_dl), dg_dl,
                             -params.zeta * (params.K_d / D) * die_share / empty)
            dg_df = np.where(np.isfinite(dg_df), dg_df,
                             -params.zeta * die_share / (empty * empty))
    return g, dg_dl, dg_df


def eval_F(l, N, f_p1, params: PhysicalParams):
    """Interface velocity N*g(l, f_p1).  Python floats inside eval_g's ranges
    take float arithmetic, the operations of the array path; every other
    input takes eval_g's checks and errors."""
    if (type(l) is float and type(N) is float and type(f_p1) is float
            and 0.0 <= f_p1 < 1.0 and 0.0 < l < params.L):
        return N * die_balance(l, f_p1, params)
    g = eval_g(l, f_p1, params)
    if np.isscalar(g) and np.isscalar(N):
        return float(N * g)
    return np.asarray(N, dtype=float) * g


def eval_alpha_p(x, N, l, f_p1, params: PhysicalParams):
    """Normalized transport speed (zeta*N - x*F)/l in the partially filled zone."""
    l_arr = np.asarray(l, dtype=float)
    if (l_arr <= 0.0).any():
        raise DomainError("l must be positive")
    x_arr = np.asarray(x, dtype=float)
    if (x_arr < 0.0).any() or (x_arr > 1.0).any():
        raise DomainError("x is a normalized position in [0, 1]")
    F = eval_F(l, N, f_p1, params)
    out = transport_speed(x_arr, np.asarray(N, dtype=float), l_arr, F, params)
    return float(out) if np.ndim(out) == 0 else out


def transport_speed(x, N, l, F, params: PhysicalParams):
    """(zeta*N - x*F)/l for an interface velocity F already evaluated."""
    return (params.zeta * N - x * F) / l


def inflow_value(F_in, N, params: PhysicalParams):
    """Filling ratio fed at the hopper, F_in/(rho0*V_eff*N).

    The caller is responsible for checking the result lands in (0,1)
    before using it as boundary data.  Python floats with a positive divisor
    take float arithmetic, the operations of the array path.
    """
    if type(F_in) is float and type(N) is float:
        rate = params.rho0 * params.V_eff * N
        if rate > 0.0:
            return F_in / rate
    # the divisor is checked, not N: a product that underflows is zero too
    rate = params.rho0 * params.V_eff * np.asarray(N, dtype=float)
    if (rate <= 0.0).any():
        raise DomainError("N must be positive to define the fed ratio")
    out = np.asarray(F_in, dtype=float) / rate
    if np.isscalar(F_in) and np.isscalar(N):
        return float(out)
    return out


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
    # a ratio past the float range reads inf, which the caller refuses
    with np.errstate(over="ignore"):
        ratio = inflow_value(F_in(t), N(t), params)
    peak = ratio.max()
    return float(peak), float(t[ratio == peak].min())


@dataclass(frozen=True)
class CauchyData:
    """Initial interface position and profile plus the boundary inputs.

    Every instance is corner-compatible: the inflow ratio at the start time
    t0 matches f0_p(0) to COMPAT_TOL.  The inflow ratio, the boundary value
    of f_p, stays below 1 on the whole input interval.  The data start at
    t0 = 0; only `restarted`, the junction of the semi-global solver, sets a
    later start, and the inputs are always read at run times.  The checks
    come in two parts: those of the inputs (`_check_inputs`) and those of
    the start (`_check_start`), which `restarted` runs alone.
    """

    l0: float
    f0_p: SpaceProfile
    F_in: SampledFunction
    N: SampledFunction
    params: PhysicalParams
    eq: EquilibriumPoint
    t0: float = field(default=0.0, init=False)

    def __post_init__(self):
        self._check_inputs()
        self._check_start()

    def _check_inputs(self):
        if np.any(self.N.values <= 0.0):
            raise DomainError("screw speed input must stay positive")
        if np.any(self.F_in.values < 0.0):
            raise DomainError("feed rate input must be nonnegative")
        peak, t_peak = inflow_peak(self.F_in, self.N, self.params)
        if peak >= 1.0:
            raise DomainError(f"inflow ratio F_in/(rho0*V_eff*N) reaches {peak:.6g} at "
                              f"t={t_peak:.6g}; it must stay below 1")

    def _check_start(self):
        if not (0.0 < self.l0 < self.params.L):
            raise DomainError(f"l0={self.l0} outside (0, L={self.params.L})")
        vals = self.f0_p.values
        if np.min(vals) < 0.0 or np.max(vals) > 1.0 or vals[-1] >= 1.0:
            raise DomainError("initial profile must take values in [0,1] with f0_p(1) < 1")
        corner = self.inflow(self.t0)
        if abs(corner - float(vals[0])) > COMPAT_TOL:
            raise CompatibilityError(
                f"corner compatibility violated: inflow {corner:.12g} vs profile {vals[0]:.12g}"
            )

    def restarted(self, t0: float, l0: float, f0_p: SpaceProfile) -> "CauchyData":
        """The data that start from (l0, f0_p) at time t0, with the same
        inputs: those this instance has checked, so only the start checks run."""
        data = object.__new__(CauchyData)
        vars(data).update(vars(self), t0=t0, l0=l0, f0_p=f0_p)
        data._check_start()
        return data

    def check_horizon(self, T: float):
        """Refuse a run on [0, T] that is empty or passes the samples of an
        input, where the input would hold its end value rather than be read."""
        if T <= 0.0:
            raise DomainError("horizon must be positive")
        for name, sf in (("feed rate F_in", self.F_in), ("screw speed N", self.N)):
            if not (sf.t_start <= 0.0 and T <= sf.t_end):
                raise DomainError(f"horizon [0, {T:.6g}] runs past the {name} input, sampled "
                                  f"on [{sf.t_start:.6g}, {sf.t_end:.6g}]")

    def inflow(self, t):
        return inflow_value(self.F_in(t), self.N(t), self.params)


def solve_equilibrium(
    params: PhysicalParams,
    N_e: float,
    l_e: float | None = None,
    f_pe: float | None = None,
) -> EquilibriumPoint:
    """Closed-form equilibrium from either the interface position or the ratio.

    g(l_e, f_pe) = 0 is equivalent to

        f_pe = K_d*(L-l_e) / (B*rho0 + K_d*(L-l_e))
        l_e  = L - B*rho0*f_pe / (K_d*(1-f_pe))

    so one of {l_e, f_pe} determines the other.  N_e only scales F and is
    free at equilibrium.
    """
    if (l_e is None) == (f_pe is None):
        raise DomainError("give exactly one of l_e, f_pe")
    if N_e <= 0.0:
        raise DomainError("N_e must be positive")
    if l_e is not None:
        if not (0.0 < l_e < params.L):
            raise DomainError(f"l_e={l_e} outside (0, L)")
        remaining = params.K_d * (params.L - l_e)
        D = params.B * params.rho0 + remaining
        if not 0.0 < D < math.inf:
            raise DomainError(f"no admissible equilibrium: B*rho0 + K_d*(L - l_e) = {D:.6g} "
                              f"leaves the float range")
        f_pe = remaining / D
    else:
        if not (0.0 < f_pe < 1.0):
            raise DomainError(f"f_pe={f_pe} outside (0, 1)")
        l_e = params.L - params.B * params.rho0 * f_pe / (params.K_d * (1.0 - f_pe))
        if not (0.0 < l_e < params.L):
            raise DomainError(
                f"no admissible equilibrium: f_pe={f_pe} forces l_e={l_e:.6g} outside (0, L)"
            )
    return EquilibriumPoint(l_e=float(l_e), N_e=float(N_e), f_pe=float(f_pe), params=params)


def eps1_bound(eq: EquilibriumPoint) -> float:
    """Strict upper bound for the admissible deviation radius around eq."""
    return float(min(eq.l_e, eq.params.L - eq.l_e, eq.f_pe, 1.0 - eq.f_pe))


def eps1_radius(eq: EquilibriumPoint) -> float:
    """Radius of the eps1 ball the solvers work in: a third of `eps1_bound`."""
    return eps1_bound(eq) / 3.0


def norm_F_box(params: PhysicalParams, eq: EquilibriumPoint, eps1: float) -> float:
    """Bound for the W1-infinity size of F over an eps1 box.

    Takes the supremum of |F| and its three partials over the box
    |l - l_e| <= eps1, |N - N_e| <= eps1, |f - f_pe| <= eps1 with the
    analytic derivatives of F, times the margin F_BOX_SAFETY.  On the box
    g falls in l and in f, while |dg/dl| and |dg/df| rise in both, and N
    enters each term as a factor, so every supremum lies on a corner: g and
    its partials are evaluated on the 2 x 2 (l, f) corners and N at its two
    ends.  The ratio axis is deliberately boxed around f_pe: g blows up as
    the ratio approaches 1, and the fixed-point argument never leaves the
    eps1 ball anyway.
    """
    if eps1 < 0.0:
        raise DomainError("eps1 must be nonnegative")
    bound = eps1_bound(eq)
    if eps1 >= bound:
        raise DomainError(f"eps1={eps1} must stay below min(l_e, L-l_e, f_pe, 1-f_pe)={bound:.6g}")
    # the box lies inside the ranges g needs (eps1 is below the bound)
    lg = np.array([[eq.l_e - eps1], [eq.l_e + eps1]])
    fg = np.array([eq.f_pe - eps1, eq.f_pe + eps1])
    empty = 1.0 - fg
    g, dg_dl, dg_df = die_kernel(lg, empty, params.zeta * fg / empty, params, slopes=True)
    n_hi = max(abs(eq.N_e - eps1), abs(eq.N_e + eps1))
    # F = N*g; partials: F_l = N*g_l, F_N = g, F_f = N*g_f
    sup_g = np.max(np.abs(g))
    # a product past the float range reads inf, and np.max keeps a NaN, so
    # the check below refuses either
    with np.errstate(over="ignore"):
        sups = (n_hi * sup_g, n_hi * np.max(np.abs(dg_dl)), sup_g, n_hi * np.max(np.abs(dg_df)))
        bound = float(F_BOX_SAFETY * np.max(sups))
    if not math.isfinite(bound):
        raise DomainError(f"the W1inf size of F on the eps1 box (eps1={eps1:.6g}) passes the "
                          f"float range")
    return bound
