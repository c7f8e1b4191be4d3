"""Composite quadrature helpers on uniform grids.

The characteristic machinery needs running integrals of sampled integrands,
evaluated anywhere in the interval, with a derivative that stays consistent
with the integrand.  ``cumulative_integral`` fills the nodes with a
Simpson-type rule (local parabolas, exact for quadratics) and
``HermiteAntiderivative`` interpolates between nodes with cubic Hermite
pieces whose slopes are the integrand samples themselves, so the result is
C1 across the whole interval.  ``cumulative_integral`` also takes a 2-d
block and integrates its rows in one call, each bit for bit as alone, and
builds both stencils in place from one 5 f.  A cell lookup (`_cell`)
gives the cell index and local coordinate of each time once; the value
and the slope of the cubic are then read from it, so antiderivatives on
one grid share it, and share the cubic Hermite basis at that coordinate
too (`hermite_basis`).
"""

from __future__ import annotations

import numpy as np


def cumulative_integral(values: np.ndarray, dx: float) -> np.ndarray:
    """Running integral at every node of a uniformly sampled integrand.

    Each cell integral comes from the parabola through the three nearest
    samples; interior cells average the left- and right-leaning parabolas.
    Matches the classical composite Simpson rule to fourth order while
    providing a value at every node, not just every other one.  The rows of
    a 2-d block are integrated along the last axis, each bit for bit as alone.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] < 2:
        raise ValueError("need a 1d or 2d array with at least two samples per row")
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    n = f.shape[-1]
    out = np.empty(f.shape)
    if n == 2:
        # only two samples: trapezoid is all we have
        out[..., 1] = 0.5 * dx * (f[..., 0] + f[..., 1])
    else:
        flat = np.ravel(f)
        five, eight, scale = 5.0 * flat, 8.0 * flat[1:-1], dx / 12.0
        # on [k, k+1] the parabola through (k, k+1, k+2) integrates to right,
        # dx/12 (5 f_k + 8 f_k+1 - f_k+2), and the one through (k-1, k, k+1)
        # to left, dx/12 (8 f_k - f_k-1 + 5 f_k+1), built in the buffer of 8 f
        right = np.add(five[:-2], eight)
        left = np.subtract(eight, flat[:-2], out=eight)
        right -= flat[2:]
        left += five[2:]
        right *= scale
        left *= scale
        # interior cells average the two; the cells that straddle two rows
        # are overwritten by the end cells and the zero start of each row
        mid = np.add(left[:-1], right[1:], out=out.reshape(-1)[2:-1])
        mid *= 0.5
        out[..., 1] = right[::n]
        out[..., -1] = left[n - 3::n]
    out[..., 0] = 0.0
    inc = out[..., 1:]
    np.add.accumulate(inc, axis=-1, out=inc)
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
        self.t0, self.dt, self.nodes, self.slopes = float(t0), float(dt), nodes, slopes

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
