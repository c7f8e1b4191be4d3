"""Sampled scalar functions, discrete norms, and coordinate denormalization.

Everything downstream works with uniformly sampled, piecewise-linear
functions: traces in time (interface position, screw speed, feed rate, die
ratio) and profiles in the normalized space coordinate.  Linear
interpolants live in W1-infinity, which is exactly the regularity class the
data is supposed to carry, and they make the difference-quotient norms
below exact rather than approximate.

CSV contract, shared by every file the CLI writes: a header line, then one
line per row; values carry 12 significant digits (`FLOAT_FORMAT`) with a
plain '.' and lines end in LF.  Each float is formatted exactly once: the
field writer formats each t once per row and each x once, and puts only the
field values through the format spec cell by cell.  The field writer
streams: each row of the field goes to the open file as soon as it is
formatted, so writing a field costs one row of text, not the whole file.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, GridError

# formatting contract shared with the CLI: 12 significant digits, plain '.'
FLOAT_FORMAT = ".12g"

# roundoff a filling-ratio field may show outside [0, 1]
UNIT_RANGE_SLACK = 1e-9


def format_value(x: float) -> str:
    return format(float(x), FLOAT_FORMAT)


def csv_text(header: str, *columns) -> str:
    """CSV text of a header line and one line per row of equal-length columns."""
    line = ",".join([f"%{FLOAT_FORMAT}"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns), strict=True)
    return "".join([header + "\n", *(line % row for row in rows)])


@dataclass(frozen=True)
class SampledFunction:
    """Scalar function of time on a uniform grid, piecewise linear."""

    t_start: float
    t_end: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 2:
            raise GridError("need at least two samples")
        if not np.all(np.isfinite(values)):
            raise DomainError("samples must be finite")
        if not (self.t_end > self.t_start):
            raise GridError(f"empty interval [{self.t_start}, {self.t_end}]")

    @classmethod
    def from_callable(cls, fn, t_start: float, t_end: float, n: int) -> "SampledFunction":
        grid = np.linspace(t_start, t_end, n)
        return cls(t_start, t_end, np.asarray([fn(t) for t in grid], dtype=float))

    @classmethod
    def constant(cls, value: float, t_start: float, t_end: float, n: int = 2) -> "SampledFunction":
        return cls(t_start, t_end, np.full(n, float(value)))

    @cached_property
    def grid(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.values.size)

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.values.size - 1)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.interp(t_arr, self.grid, self.values)
        if np.isscalar(t) or t_arr.ndim == 0:
            return float(out)
        return out

    def restrict(self, t_start: float, t_end: float) -> "SampledFunction":
        """Restriction to a subinterval whose ends sit on grid nodes."""
        i0 = self._node_index(t_start)
        i1 = self._node_index(t_end)
        if i1 <= i0:
            raise GridError("restriction interval is empty")
        return SampledFunction(self.grid[i0], self.grid[i1], self.values[i0 : i1 + 1])

    def _node_index(self, t: float) -> int:
        pos = (t - self.t_start) / self.dt
        idx = int(round(pos))
        if idx < 0 or idx >= self.values.size or abs(pos - idx) > 1e-9:
            raise GridError(f"t={t} is not a grid node of this function")
        return idx

    def shifted_by(self, c: float) -> "SampledFunction":
        return SampledFunction(self.t_start, self.t_end, self.values - c)

    def to_csv(self, header: str = "t,value") -> str:
        return csv_text(header, self.grid, self.values)


@dataclass(frozen=True)
class SpaceProfile:
    """Scalar profile on the normalized coordinate interval [0,1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 2:
            raise GridError("need at least two samples")
        if not np.all(np.isfinite(values)):
            raise DomainError("samples must be finite")

    @classmethod
    def from_callable(cls, fn, n: int) -> "SpaceProfile":
        grid = np.linspace(0.0, 1.0, n)
        return cls(np.asarray([fn(x) for x in grid], dtype=float))

    @classmethod
    def constant(cls, value: float, n: int = 2) -> "SpaceProfile":
        return cls(np.full(n, float(value)))

    # share the SampledFunction call/grid conventions on [0,1]
    t_start = 0.0
    t_end = 1.0

    @cached_property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.size)

    @property
    def dx(self) -> float:
        return 1.0 / (self.values.size - 1)

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = np.interp(x_arr, self.grid, self.values)
        if np.isscalar(x) or x_arr.ndim == 0:
            return float(out)
        return out

    def shifted_by(self, c: float) -> "SpaceProfile":
        return SpaceProfile(self.values - c)


PROVENANCE_INITIAL = 0
PROVENANCE_BOUNDARY = 1
PROVENANCE_NAMES = {PROVENANCE_INITIAL: "initial", PROVENANCE_BOUNDARY: "boundary"}


@dataclass(frozen=True)
class SolutionField:
    """Space-time field on a tensor grid with per-point provenance.

    provenance[i,j] records whether the characteristic through
    (t_grid[i], x_grid[j]) originates from the initial profile (0) or from
    the inflow boundary (1).  The container is also reused for derived
    fields (spatial derivatives), which are signed, so the unit-range check
    for filling ratios is a separate method rather than a constructor
    invariant.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    provenance: np.ndarray

    def __post_init__(self):
        t_grid = np.asarray(self.t_grid, dtype=float)
        x_grid = np.asarray(self.x_grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        provenance = np.asarray(self.provenance, dtype=np.uint8)
        object.__setattr__(self, "t_grid", t_grid)
        object.__setattr__(self, "x_grid", x_grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "provenance", provenance)
        if values.shape != (t_grid.size, x_grid.size):
            raise GridError(f"values shape {values.shape} does not match grids")
        if provenance.shape != values.shape:
            raise GridError("provenance shape does not match values")
        if not np.all(np.isfinite(values)):
            raise DomainError("field values must be finite")

    def check_unit_range(self) -> None:
        """Assert every value is a filling ratio in [0,1], up to UNIT_RANGE_SLACK."""
        lo = float(np.min(self.values))
        hi = float(np.max(self.values))
        if lo < -UNIT_RANGE_SLACK or hi > 1.0 + UNIT_RANGE_SLACK:
            raise DomainError(f"field leaves [0,1]: range [{lo:.6g}, {hi:.6g}]")

    def row(self, i: int) -> SpaceProfile:
        """Spatial slice at t_grid[i] as a profile (x-grid must be [0,1] uniform)."""
        return SpaceProfile(self.values[i].copy())

    def write_csv(self, fh, header: str = "t,x,value,provenance") -> None:
        """Write one line "t,x,value,tag" per grid point to fh, rows of t outermost.

        Each row is one %-template: the formatted t joins the cells, each
        carrying its formatted x and a slot for the value and for the tag.
        Rows go to fh as they are formatted, so the writer holds one row of
        text at a time whatever the size of the field.
        """
        cells = [f",{format_value(x)},%{FLOAT_FORMAT}%s" for x in self.x_grid.tolist()]
        tags = np.array([f",{PROVENANCE_NAMES[k]}" for k in range(len(PROVENANCE_NAMES))], object)
        slots = [None] * (2 * len(cells))
        fh.write(header + "\n")
        for t, row, prov in zip(self.t_grid.tolist(), self.values, self.provenance):
            t_text = format_value(t)
            slots[0::2] = row.tolist()
            slots[1::2] = tags[prov].tolist()
            fh.write((t_text + ("\n" + t_text).join(cells) + "\n") % tuple(slots))

    def to_csv(self, header: str = "t,x,value,provenance") -> str:
        """The text `write_csv` writes, as one string."""
        buf = io.StringIO()
        self.write_csv(buf, header)
        return buf.getvalue()


@dataclass(frozen=True)
class PhysicalProfile:
    """Profile mapped back to the physical axis of the machine."""

    x_phys: np.ndarray
    values: np.ndarray


def _domain_length(f) -> float:
    return float(f.t_end - f.t_start)


def norm(kind: str, f) -> float:
    """Discrete norm of a sampled function or profile.

    Linf:  max |f|
    W1inf: max(Linf, max |forward difference quotient|)
    L2:    trapezoid rule of f^2, square-rooted
    H2:    sqrt(L2^2 + L2(Df)^2 + L2(D2f)^2) with difference quotients

    The derivative surrogates are exact for the piecewise-linear
    interpolants these containers represent; H2 is a seminorm-inclusive
    stand-in for the Sobolev norm of the underlying data.
    """
    values = np.asarray(f.values, dtype=float)
    n = values.size
    h = _domain_length(f) / (n - 1)
    if kind == "Linf":
        return float(np.max(np.abs(values)))
    if kind == "W1inf":
        if n < 3:
            raise GridError("W1inf needs at least three samples")
        quotients = np.abs(np.diff(values)) / h
        return float(max(np.max(np.abs(values)), np.max(quotients)))
    if kind == "L2":
        return float(np.sqrt(np.trapezoid(values * values, dx=h)))
    if kind == "H2":
        if n < 3:
            raise GridError("H2 needs at least three samples")
        d1 = np.diff(values) / h
        d2 = np.diff(values, n=2) / (h * h)
        total = np.trapezoid(values * values, dx=h)
        total += np.trapezoid(d1 * d1, dx=h)
        if d2.size >= 2:
            total += np.trapezoid(d2 * d2, dx=h)
        elif d2.size == 1:
            total += float(d2[0] ** 2) * h
        return float(np.sqrt(total))
    raise DomainError(f"unknown norm kind {kind!r}")


def field_norm(kind: str, field: SolutionField, shift: float = 0.0) -> float:
    """Linf or W1inf of a space-time field (optionally around a constant)."""
    values = field.values - shift
    if kind == "Linf":
        return float(np.max(np.abs(values)))
    if kind == "W1inf":
        dt = field.t_grid[1] - field.t_grid[0]
        dx = field.x_grid[1] - field.x_grid[0]
        sup = np.max(np.abs(values))
        sup_t = np.max(np.abs(np.diff(values, axis=0))) / dt if values.shape[0] > 1 else 0.0
        sup_x = np.max(np.abs(np.diff(values, axis=1))) / dx if values.shape[1] > 1 else 0.0
        return float(max(sup, sup_t, sup_x))
    raise DomainError(f"unknown field norm kind {kind!r}")


def to_physical_coordinates(profile: SpaceProfile, l: float, zone: str, params) -> PhysicalProfile:
    """Undo the zone normalization: PFZ covers [0,l], FFZ covers [l,L]."""
    if not (0.0 < l < params.L):
        raise DomainError(f"interface position l={l} outside (0, L={params.L})")
    y = profile.grid
    if zone == "PFZ":
        x_phys = y * l
    elif zone == "FFZ":
        x_phys = l + y * (params.L - l)
    else:
        raise DomainError(f"zone must be 'PFZ' or 'FFZ', got {zone!r}")
    return PhysicalProfile(x_phys=x_phys, values=profile.values.copy())
