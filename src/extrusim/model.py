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
This module holds those algebraic pieces plus the equilibrium algebra;
everything is pure and numpy-broadcastable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError

# norm_F_box samples each axis of the eps1 box at F_BOX_SAMPLES points and
# inflates the sampled supremum by F_BOX_SAFETY
F_BOX_SAMPLES = 101
F_BOX_SAFETY = 1.25


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
        if not (0.0 < self.f_pe < 1.0):
            raise DomainError(f"f_pe={self.f_pe} outside (0, 1)")
        residual = abs(eval_F(self.l_e, self.N_e, self.f_pe, self.params))
        if residual > 1e-12:
            raise DomainError(f"not an equilibrium: |F| = {residual:.3e} > 1e-12")


def _float64(v):
    """v as float64: a float as it is, anything else as an array.

    Python floats round as float64 arrays do, at a fraction of numpy's call
    overhead, which scalar loops such as the upwind march pay once per step.
    Their overflow gives inf silently, as numpy's does under the errstate of
    the callers that allow it.  The checks below keep every divisor
    positive, so both give the same bits and the same errors; only in
    `eval_g`, for B*rho0 below 2^-1021, could a product underflow to a zero
    divisor, where a float raises ZeroDivisionError and numpy returns inf.
    """
    return v if isinstance(v, float) else np.asarray(v, dtype=float)


def _any(mask) -> bool:
    """np.any, without its reduction call on a scalar comparison."""
    return bool(mask) if isinstance(mask, (bool, np.bool_)) else bool(mask.any())


def eval_g(l, f_p1, params: PhysicalParams):
    """Interface velocity per unit screw speed.

    g(l, f_p1) = zeta*K_d*(L-l) / ((B*rho0 + K_d*(L-l)) * (1-f_p1))
                 - zeta*f_p1 / (1-f_p1)

    Positive when the die is under-filled relative to the equilibrium of
    the current interface position, negative when over-filled.
    """
    l_arr = _float64(l)
    f_arr = _float64(f_p1)
    if _any(f_arr >= 1.0):
        raise SingularityError("f_p1 >= 1 makes the die balance singular")
    if _any(f_arr < 0.0):
        raise DomainError("f_p1 must be a ratio in [0, 1)")
    if _any(l_arr <= 0.0) or _any(l_arr >= params.L):
        raise DomainError(f"l must lie strictly inside (0, L={params.L})")
    out = die_balance(l_arr, f_arr, params)
    if np.isscalar(l) and np.isscalar(f_p1):
        return float(out)
    return out


def die_balance(l, f_p1, params: PhysicalParams):
    """g(l, f_p1) of `eval_g` for float arrays whose ranges the caller has checked."""
    remaining = params.K_d * (params.L - l)
    denom = (params.B * params.rho0 + remaining) * (1.0 - f_p1)
    return params.zeta * remaining / denom - params.zeta * f_p1 / (1.0 - f_p1)


def eval_F(l, N, f_p1, params: PhysicalParams):
    """Interface velocity N*g(l, f_p1)."""
    g = eval_g(l, f_p1, params)
    if np.isscalar(g) and np.isscalar(N):
        return float(N * g)
    return np.asarray(N, dtype=float) * g


def eval_alpha_p(x, N, l, f_p1, params: PhysicalParams):
    """Normalized transport speed (zeta*N - x*F)/l in the partially filled zone."""
    l_arr = _float64(l)
    if _any(l_arr <= 0.0):
        raise DomainError("l must be positive")
    x_arr = _float64(x)
    if _any(x_arr < 0.0) or _any(x_arr > 1.0):
        raise DomainError("x is a normalized position in [0, 1]")
    F = eval_F(l, N, f_p1, params)
    out = transport_speed(x_arr, _float64(N), l_arr, F, params)
    return float(out) if np.ndim(out) == 0 else out


def transport_speed(x, N, l, F, params: PhysicalParams):
    """(zeta*N - x*F)/l for an interface velocity F already evaluated."""
    return (params.zeta * N - x * F) / l


def inflow_value(F_in, N, params: PhysicalParams):
    """Filling ratio fed at the hopper, F_in/(rho0*V_eff*N).

    The caller is responsible for checking the result lands in (0,1)
    before using it as boundary data.
    """
    # the divisor is checked, not N: a product that underflows is zero too
    rate = params.rho0 * params.V_eff * _float64(N)
    if _any(rate <= 0.0):
        raise DomainError("N must be positive to define the fed ratio")
    out = _float64(F_in) / rate
    if np.isscalar(F_in) and np.isscalar(N):
        return float(out)
    return out


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
        f_pe = remaining / (params.B * params.rho0 + remaining)
    else:
        if not (0.0 < f_pe < 1.0):
            raise DomainError(f"f_pe={f_pe} outside (0, 1)")
        l_e = params.L - params.B * params.rho0 * f_pe / (params.K_d * (1.0 - f_pe))
        if not (0.0 < l_e < params.L):
            raise DomainError(
                f"no admissible equilibrium: f_pe={f_pe} forces l_e={l_e:.6g} outside (0, L)"
            )
    return EquilibriumPoint(l_e=float(l_e), N_e=float(N_e), f_pe=float(f_pe), params=params)


def _g_partials(l, f_p1, params: PhysicalParams):
    # d g/dl and dg/df along the closed forms; D = B*rho0 + K_d*(L-l)
    D = params.B * params.rho0 + params.K_d * (params.L - l)
    one_minus = 1.0 - f_p1
    dg_dl = -params.zeta * params.K_d * params.B * params.rho0 / (D * D * one_minus)
    dg_df = -params.zeta * params.B * params.rho0 / (D * one_minus * one_minus)
    return dg_dl, dg_df


def eps1_bound(eq: EquilibriumPoint) -> float:
    """Strict upper bound for the admissible deviation radius around eq."""
    return float(min(eq.l_e, eq.params.L - eq.l_e, eq.f_pe, 1.0 - eq.f_pe))


def eps1_radius(eq: EquilibriumPoint) -> float:
    """Radius of the eps1 ball the solvers work in: a third of `eps1_bound`."""
    return eps1_bound(eq) / 3.0


def norm_F_box(params: PhysicalParams, eq: EquilibriumPoint, eps1: float) -> float:
    """Sampled bound for the W1-infinity size of F over an eps1 box.

    Takes the supremum of |F| and its three partials over the box
    |l - l_e| <= eps1, |N - N_e| <= eps1, |f - f_pe| <= eps1, evaluated on
    a grid of F_BOX_SAMPLES points per axis with the analytic derivatives
    of F, then inflates by the safety factor F_BOX_SAFETY.  The ratio axis
    is deliberately boxed around f_pe: g blows up as the ratio approaches
    1, and the fixed-point argument never leaves the eps1 ball anyway.
    """
    if eps1 < 0.0:
        raise DomainError("eps1 must be nonnegative")
    bound = eps1_bound(eq)
    if eps1 >= bound:
        raise DomainError(f"eps1={eps1} must stay below min(l_e, L-l_e, f_pe, 1-f_pe)={bound:.6g}")
    ls = np.linspace(eq.l_e - eps1, eq.l_e + eps1, F_BOX_SAMPLES)
    Ns = np.linspace(eq.N_e - eps1, eq.N_e + eps1, F_BOX_SAMPLES)
    fs = np.linspace(eq.f_pe - eps1, eq.f_pe + eps1, F_BOX_SAMPLES)
    lg, fg = np.meshgrid(ls, fs, indexing="ij")
    g = eval_g(lg, fg, params)
    dg_dl, dg_df = _g_partials(lg, fg, params)
    n_hi = np.max(np.abs(Ns))
    # F = N*g; partials: F_l = N*g_l, F_N = g, F_f = N*g_f.  N enters each
    # term monotonically so the N axis reduces to its endpoints.
    sup_F = n_hi * np.max(np.abs(g))
    sup_Fl = n_hi * np.max(np.abs(dg_dl))
    sup_FN = np.max(np.abs(g))
    sup_Ff = n_hi * np.max(np.abs(dg_df))
    return float(F_BOX_SAFETY * max(sup_F, sup_Fl, sup_FN, sup_Ff))
