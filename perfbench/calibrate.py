"""CPU speed probe, run between operations to scale their times.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes, which moves every wall time with it.  `probe` times a
fixed piece of work of the same kind as the program's (small NumPy
arrays, interpolation, ufuncs, Python-level loops and float formatting);
the ratio of its time to `REFERENCE_S` is the machine's slowness at that
moment.  Dividing an operation's wall time by the slowness around it gives
its time at the reference speed.  The probe does not touch extrusim, so a
change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# median probe time on the machine the benchmark was defined on (2 vCPUs,
# Python 3.11.7, NumPy 2.4.6); only sets the scale of the reported seconds
REFERENCE_S = 0.08

_X = np.linspace(0.0, 1.0, 101)
_Y = np.sin(3.0 * _X)
_XL = np.linspace(0.0, 1.0, 40001)
_YL = np.sin(3.0 * _XL)


def probe() -> float:
    """Wall time of one fixed unit of work.

    Two parts: many calls on 101-point arrays with float formatting, where
    the interpreter dominates, and a few calls on 40k-point arrays, where
    NumPy's loops dominate.  The second part tracks the program's slowdowns
    more closely than the first.
    """
    acc = 0.0  # consumes every result, as the program consumes its own
    lines = []
    t0 = time.perf_counter()
    for i in range(1200):
        u = np.interp(_X * 0.75 + 1e-6 * i, _X, _Y)
        v = np.exp(-u) * _X - np.where(u > 0.5, u, 0.0)
        acc += float(np.max(np.abs(v)))
        lines.append(",".join(format(float(w), ".12g") for w in v[:8]))
    acc += len("\n".join(lines))
    for i in range(60):
        u = np.interp(_XL * 0.75 + 1e-6 * i, _XL, _YL)
        v = np.exp(-u) * _XL - np.where(u > 0.5, u, 0.0)
        acc += float(np.max(np.abs(v)))
    return time.perf_counter() - t0
