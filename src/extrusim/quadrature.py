"""Composite quadrature helpers on uniform grids.

The characteristic machinery needs running integrals of sampled integrands,
evaluated anywhere in the interval, with a derivative that stays consistent
with the integrand.  ``cumulative_integral`` fills the nodes with a
Simpson-type rule (local parabolas, exact for quadratics) and
``HermiteAntiderivative`` interpolates between nodes with cubic Hermite
pieces whose slopes are the integrand samples themselves, so the result is
C1 across the whole interval.
"""

from __future__ import annotations

import numpy as np


def cumulative_integral(values: np.ndarray, dx: float) -> np.ndarray:
    """Running integral at every node of a uniformly sampled integrand.

    Each cell integral comes from the parabola through the three nearest
    samples; interior cells average the left- and right-leaning parabolas.
    Matches the classical composite Simpson rule to fourth order while
    providing a value at every node, not just every other one.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError("need a 1d array with at least two samples")
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    n = f.size
    inc = np.empty(n - 1)
    if n == 2:
        # only two samples: trapezoid is all we have
        inc[0] = 0.5 * dx * (f[0] + f[1])
    else:
        # parabola through (k, k+1, k+2) integrated over [k, k+1]
        right = dx / 12.0 * (5.0 * f[:-2] + 8.0 * f[1:-1] - f[2:])
        # parabola through (k-1, k, k+1) integrated over [k, k+1]
        left = dx / 12.0 * (-f[:-2] + 8.0 * f[1:-1] + 5.0 * f[2:])
        inc[0] = right[0]
        inc[-1] = left[-1]
        inc[1:-1] = 0.5 * (left[:-1] + right[1:])
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


class HermiteAntiderivative:
    """C1 evaluation of a running integral known at uniform nodes.

    Stores nodal antiderivative values F_k and the integrand samples f_k,
    and evaluates in between with the cubic Hermite piece matching both at
    each end of the cell.  The object is callable on scalars or arrays and
    also exposes ``derivative``, the exact slope of the interpolant, for
    callers that need the pair evaluated consistently.
    """

    def __init__(self, t0: float, dt: float, nodes: np.ndarray, slopes: np.ndarray):
        nodes = np.asarray(nodes, dtype=float)
        slopes = np.asarray(slopes, dtype=float)
        if nodes.shape != slopes.shape or nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("nodes and slopes must be matching 1d arrays")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.t0 = float(t0)
        self.dt = float(dt)
        self.nodes = nodes
        self.slopes = slopes
        self.t1 = self.t0 + self.dt * (nodes.size - 1)

    @classmethod
    def from_samples(cls, t0: float, dt: float, integrand: np.ndarray) -> "HermiteAntiderivative":
        integrand = np.asarray(integrand, dtype=float)
        return cls(t0, dt, cumulative_integral(integrand, dt), integrand)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        u = (t_arr - self.t0) / self.dt
        k = np.clip(np.floor(u).astype(int), 0, self.nodes.size - 2)
        s = u - k
        h = self.dt
        f0 = self.nodes[k]
        f1 = self.nodes[k + 1]
        d0 = self.slopes[k] * h
        d1 = self.slopes[k + 1] * h
        s2 = s * s
        s3 = s2 * s
        val = (
            f0 * (2.0 * s3 - 3.0 * s2 + 1.0)
            + d0 * (s3 - 2.0 * s2 + s)
            + f1 * (-2.0 * s3 + 3.0 * s2)
            + d1 * (s3 - s2)
        )
        if np.isscalar(t) or t_arr.ndim == 0:
            return float(val)
        return val

    def derivative(self, t):
        """Exact slope of the interpolant at t; matches the samples at nodes."""
        t_arr = np.asarray(t, dtype=float)
        u = (t_arr - self.t0) / self.dt
        k = np.clip(np.floor(u).astype(int), 0, self.nodes.size - 2)
        s = u - k
        val = (
            (self.nodes[k] - self.nodes[k + 1]) * 6.0 * s * (s - 1.0) / self.dt
            + self.slopes[k] * (3.0 * s - 1.0) * (s - 1.0)
            + self.slopes[k + 1] * s * (3.0 * s - 2.0)
        )
        if np.isscalar(t) or t_arr.ndim == 0:
            return float(val)
        return val
