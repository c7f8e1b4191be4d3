"""Sampled scalar functions, discrete norms, and coordinate denormalization.

Everything downstream works with uniformly sampled, piecewise-linear
functions of one type, `SampledFunction`: traces in time (interface
position, screw speed, feed rate, die ratio) and, fixed on [0, 1] as
`SpaceProfile`, profiles in the normalized space coordinate.  Linear
interpolants live in W1-infinity, which is exactly the regularity class the
data is supposed to carry, and they make the difference-quotient norms
below exact rather than approximate.

CSV contract, shared by every file the CLI writes: a header line, then one
line per row; values carry 12 significant digits (`FLOAT_FORMAT`) with a
plain '.' and lines end in LF.  Each float is formatted exactly once.  The
field writer formats each t once per row and each x once with
`format_value`, and the field values in numpy blocks (`_value_chars`): a
value's 12 digits come from one product by an exact power of ten and a
table of three-digit groups, laid out as `%.12g` lays them out.  A value
the block formatter cannot prove exact (zero, non-finite, outside the fixed
notation range, a carry to the next power of ten, or within 1e-3 of a
rounding tie) goes through `format_value` one at a time, so the text is
that of `format(v, FLOAT_FORMAT)` for every value.  The field writer
streams: each block of rows goes to the open file as soon as it is
formatted, so writing a field costs one block of text
(`FIELD_BLOCK_CELLS` cells), not the whole file.
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


# cells of the field formatted and written at a time: sets the writer's memory
FIELD_BLOCK_CELLS = 4096


def format_value(x: float) -> str:
    return format(float(x), FLOAT_FORMAT)


def csv_text(header: str, *columns) -> str:
    """CSV text of a header line and one line per row of equal-length columns."""
    line = ",".join([f"%{FLOAT_FORMAT}"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns), strict=True)
    return "".join([header + "\n", *(line % row for row in rows)])


# Block formatting of field values.  For |v| with e = floor(log10|v|) in
# [E_MIN, E_MAX], %.12g prints fixed notation from D = rint(|v| * 10^(11-e)),
# the 12 significant digits.  10^k is exact for k <= 15 and the product is
# below 2^40, so its one rounding is at most 2^-14 < 6.2e-5.  Where D lies in
# [1e11, 1e12) (else log10 was off by one or the digits carried into the next
# power of ten) and the product lies within TIE_MARGIN of D, so 1e-3 or more
# from a half-integer tie, D is the correctly rounded digit string that
# format() prints.
E_MIN, E_MAX = -4, 11
TIE_MARGIN = 0.499
_POW10 = np.array([float(10**k) for k in range(E_MAX - E_MIN + 1)])


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The text of each three-digit group 000..999, and the significant digits table.

    sig[k][g] counts the significant digits of D up to its k-th group when
    that group is g, and is 0 when g is 0.
    """
    digits = np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10
    text = (digits + ord("0")).astype(np.uint8).view("S3")[:, 0]
    last = np.max(np.where(digits > 0, np.arange(1, 4), 0), axis=1)
    sig = np.where(last > 0, last + np.arange(0, 12, 3)[:, None], 0)
    return text, sig.astype(np.int8)


_TRIPLES, _SIG = _group_tables()
# a value's text: a prefix (sign, and "0." and zeros when e < 0), then a body
# that holds the digits and the point; NUL bytes pad both.  VALUE_WIDTH is
# also the longest %.12g text, as in -4.94065645841e-324.
PREFIX_WIDTH, BODY_WIDTH = 6, 13
VALUE_WIDTH = PREFIX_WIDTH + BODY_WIDTH
_PREFIXES = np.array(
    [sign + ("0." + "0" * (-e - 1) if e < 0 else "")
     for sign in ("", "-") for e in range(E_MIN, E_MAX + 1)],
    dtype=f"S{PREFIX_WIDTH}",
)


def _body_masks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Byte masks (keep, shift, point) of the body, indexed by (e - E_MIN) * 13 + sig.

    Body byte j is digit j where keep is set, digit j-1 where shift is, and
    else the byte of point (the point or NUL).  The integer digits stay
    whole; the fraction ends at the last significant digit, and the point
    stands only before a fraction digit.
    """
    e, sig, j = np.ix_(np.arange(E_MIN, E_MAX + 1), np.arange(13), np.arange(BODY_WIDTH))
    fraction = (e >= 0) & (sig > e + 1)
    keep = np.where(e < 0, j < sig, j <= e)
    shift = fraction & (j >= e + 2) & (j <= sig)
    point = np.where(fraction & (j == e + 1), ord("."), 0)
    masks = (np.where(keep, 0xFF, 0), np.where(shift, 0xFF, 0), point)
    return tuple(
        m.astype(np.uint8).reshape(-1, BODY_WIDTH).view(f"V{BODY_WIDTH}")[:, 0] for m in masks
    )


_KEEP, _SHIFT, _POINT = _body_masks()


def _value_chars(values) -> np.ndarray:
    """`format_value` of each value as one NUL-padded item of VALUE_WIDTH bytes.

    NUL bytes may sit anywhere in an item; dropping them leaves the text.
    Values the digit path cannot vouch for go through `format_value`.
    """
    v = np.ravel(np.asarray(values, dtype=float))
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(a))
        fast = (e >= E_MIN) & (e <= E_MAX)
        e = np.where(fast, e, 0.0).astype(np.intp)
        m = a * np.take(_POW10, E_MAX - e)
        d = np.rint(m)
        fast &= (d >= 1e11) & (d < 1e12) & (np.abs(m - d) < TIE_MARGIN)
    d[~fast] = 1e11  # keeps the lookups below in range; the fallback rewrites these items
    # D's three-digit groups, most significant first.  floor(d / 1000) is exact
    # for a whole d below 1e12: the quotient rounds by less than 1e-7, and a
    # quotient that is not whole lies 1e-3 or more from every integer.
    groups = np.empty((v.size, 4), np.intp)
    for k in range(3, 0, -1):
        q = np.floor(d / 1000.0)
        groups[:, k] = d - 1000.0 * q
        d = q
    groups[:, 0] = d
    sig = np.take(_SIG[0], groups[:, 0])
    for k in range(1, 4):
        np.maximum(sig, np.take(_SIG[k], groups[:, k]), out=sig)
    # each value's 12 digits and a NUL from byte 1 on; from byte 0 on, the
    # same bytes read one place to the right
    digits = np.zeros(v.size * BODY_WIDTH + 1, np.uint8)
    slots = digits[1:].view([("digits", "S12"), ("pad", f"V{BODY_WIDTH - 12}")])
    slots["digits"] = np.take(_TRIPLES, groups).view("S12")[:, 0]
    key = (e - E_MIN) * 13 + sig
    body = digits[1:] & np.take(_KEEP, key).view(np.uint8)
    body |= digits[:-1] & np.take(_SHIFT, key).view(np.uint8)
    body |= np.take(_POINT, key).view(np.uint8)
    out = np.empty(v.size, [("prefix", f"S{PREFIX_WIDTH}"), ("body", f"V{BODY_WIDTH}")])
    out["prefix"] = np.take(_PREFIXES, (e - E_MIN) + (v < 0) * (E_MAX - E_MIN + 1))
    out["body"] = body.view(f"V{BODY_WIDTH}")
    out = out.view(f"V{VALUE_WIDTH}")
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [format_value(x) for x in v[slow].tolist()]
        out[slow] = np.array(texts, dtype=f"S{VALUE_WIDTH}").view(out.dtype)
    return out


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

    def shifted_by(self, c: float) -> "SampledFunction":
        return SampledFunction(self.t_start, self.t_end, self.values - c)

    def to_csv(self, header: str = "t,value") -> str:
        return csv_text(header, self.grid, self.values)


class SpaceProfile(SampledFunction):
    """Sampled function on the normalized coordinate interval [0,1]."""

    def __init__(self, values):
        super().__init__(0.0, 1.0, values)

    @classmethod
    def from_callable(cls, fn, n: int) -> "SpaceProfile":
        return cls(np.asarray([fn(x) for x in np.linspace(0.0, 1.0, n)], dtype=float))

    @classmethod
    def constant(cls, value: float, n: int = 2) -> "SpaceProfile":
        return cls(np.full(n, float(value)))

    dx = SampledFunction.dt


PROVENANCE_INITIAL = 0
PROVENANCE_BOUNDARY = 1
PROVENANCE_NAMES = ("initial", "boundary")  # indexed by the tag


@dataclass(frozen=True)
class SolutionField:
    """Space-time field on a tensor grid with per-point provenance.

    provenance[i,j] records whether the characteristic through
    (t_grid[i], x_grid[j]) originates from the initial profile (0) or from
    the inflow boundary (1).  Producers pass the boolean mask "entered
    through x = 0", stored as uint8 tags; any other tag is a DomainError.
    The container is also reused for derived fields (spatial derivatives),
    which are signed, so the unit-range check for filling ratios is a
    separate method rather than a constructor invariant.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    provenance: np.ndarray

    def __post_init__(self):
        t_grid = np.asarray(self.t_grid, dtype=float)
        x_grid = np.asarray(self.x_grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        tags = np.asarray(self.provenance)
        object.__setattr__(self, "t_grid", t_grid)
        object.__setattr__(self, "x_grid", x_grid)
        object.__setattr__(self, "values", values)
        if values.shape != (t_grid.size, x_grid.size):
            raise GridError(f"values shape {values.shape} does not match grids")
        if tags.shape != values.shape:
            raise GridError("provenance shape does not match values")
        if not np.all((tags == 0) | (tags == 1)):
            raise DomainError("provenance tags must be 0 (initial) or 1 (boundary)")
        object.__setattr__(self, "provenance", tags.astype(np.uint8, copy=False))
        if not np.all(np.isfinite(values)):
            raise DomainError("field values must be finite")

    def check_unit_range(self) -> None:
        """Assert every value is a filling ratio in [0,1], up to UNIT_RANGE_SLACK."""
        lo = float(np.min(self.values))
        hi = float(np.max(self.values))
        if lo < -UNIT_RANGE_SLACK or hi > 1.0 + UNIT_RANGE_SLACK:
            raise DomainError(f"field leaves [0,1]: range [{lo:.6g}, {hi:.6g}]")

    def write_csv(self, fh, header: str = "t,x,value,provenance") -> None:
        """Write one line "t,x,value,tag" per grid point to fh, rows of t outermost.

        A block of rows is one array of fixed-width records: the t text, the
        ",x," text, the value text and the ",tag" line end, each NUL-padded.
        Dropping the NUL bytes gives the block's lines, and each block goes to
        fh as it is formatted, so the writer holds one block of text
        (FIELD_BLOCK_CELLS cells, or one row if longer) whatever the size of
        the field.
        """
        n_t, n_x = self.values.shape
        t_texts = np.array([format_value(t) for t in self.t_grid.tolist()], dtype="S")
        x_texts = np.array([f",{format_value(x)}," for x in self.x_grid.tolist()], dtype="S")
        tags = np.array([f",{name}\n" for name in PROVENANCE_NAMES], dtype="S")
        record = np.dtype([("t", t_texts.dtype), ("x", x_texts.dtype),
                           ("value", f"V{VALUE_WIDTH}"), ("tag", tags.dtype)])
        step = max(1, FIELD_BLOCK_CELLS // max(1, n_x))
        fh.write(header + "\n")
        for i in range(0, n_t, step):
            rows = slice(i, i + step)
            block = np.empty(self.values[rows].shape, record)
            block["t"] = t_texts[rows, None]
            block["x"] = x_texts
            block["value"] = _value_chars(self.values[rows]).reshape(block.shape)
            block["tag"] = np.take(tags, self.provenance[rows])
            fh.write(block.tobytes().translate(None, b"\0").decode("ascii"))

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
    h = float(f.t_end - f.t_start) / (n - 1)
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
