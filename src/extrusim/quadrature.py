"""Composite quadrature helpers on uniform grids.

The characteristic machinery needs running integrals of sampled integrands,
evaluated anywhere in the interval, with a derivative that stays consistent
with the integrand.  ``cumulative_integral`` fills the nodes with a
Simpson-type rule (local parabolas, exact for quadratics) and
``HermiteAntiderivative`` interpolates between nodes with cubic Hermite
pieces whose slopes are the integrand samples themselves, so the result is
C1 across the whole interval.  A cell lookup (`_cell`) gives the cell index
and local coordinate of each time once; the value and the slope of the
cubic are then read from it, so antiderivatives on one grid share it, and
share the cubic Hermite basis at that coordinate too (`hermite_basis`).
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


def hermite_basis(s):
    """Cubic Hermite basis at s: weights of left value, left slope, right value, right slope."""
    s2 = s * s
    s3 = s2 * s
    s2_3 = 3.0 * s2
    return 2.0 * s3 - s2_3 + 1.0, s3 - 2.0 * s2 + s, -2.0 * s3 + s2_3, s3 - s2


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

    def _cell(self, t):
        """Cell index k and local coordinate s in [0, 1] of each t.

        t outside [t0, t1] lands in the end cell, with s outside [0, 1].
        """
        u = (np.asarray(t, dtype=float) - self.t0) / self.dt
        k = np.minimum(np.maximum(np.floor(u).astype(int), 0), self.nodes.size - 2)
        return k, u - k

    def _value(self, k, basis):
        """The Hermite cubic of cell k, from `hermite_basis` at its local coordinate."""
        h00, h10, h01, h11 = basis
        h = self.dt
        k1 = k + 1
        return (
            self.nodes[k] * h00
            + self.slopes[k] * h * h10
            + self.nodes[k1] * h01
            + self.slopes[k1] * h * h11
        )

    def _slope(self, k, s):
        """The slope of the Hermite cubic of cell k at local coordinate s."""
        k1 = k + 1
        s_1 = s - 1.0
        s_3 = 3.0 * s
        return (
            (self.nodes[k] - self.nodes[k1]) * 6.0 * s * s_1 / self.dt
            + self.slopes[k] * (s_3 - 1.0) * s_1
            + self.slopes[k1] * s * (s_3 - 2.0)
        )

    def __call__(self, t):
        k, s = self._cell(t)
        val = self._value(k, hermite_basis(s))
        return float(val) if val.ndim == 0 else val

    def derivative(self, t):
        """Exact slope of the interpolant at t; matches the samples at nodes."""
        val = self._slope(*self._cell(t))
        return float(val) if val.ndim == 0 else val
