"""Sampled scalar functions, space-time fields, discrete norms and CSV text.

Everything downstream works with uniformly sampled, piecewise-linear
functions of one type, `SampledFunction`: traces in time (interface
position, screw speed, feed rate, die ratio) and, fixed on [0, 1] as
`SpaceProfile`, profiles in the normalized space coordinate.  Linear
interpolants live in W1-infinity, which is exactly the regularity class the
data is supposed to carry, and they make the difference-quotient norms
below exact rather than approximate.  A function reads its samples with
np.interp; at a Python float, as the upwind march reads its inputs once a
step, it reads them in float arithmetic by bisection over node lists, with
np.interp's arithmetic bit for bit.

CSV contract, shared by every file the CLI writes: a header line, then one
line per row; values carry 12 significant digits (`FLOAT_FORMAT`) with a
plain '.' and lines end in LF.  Each float is formatted exactly once: the
values of every CSV by one block formatter (`_value_chars`), and the t and
x of the field's rows and columns by `format_value`.  The block formatter
takes a value's 12 digits from one product by an exact power of ten and a
table of three-digit groups, laid out as `%.12g` lays them out.  A value
the block formatter cannot prove exact (zero, non-finite, outside the fixed
notation range, a carry to the next power of ten, or within 1e-3 of a
rounding tie) goes through `format_value` one at a time, so the text is
that of `format(v, FLOAT_FORMAT)` for every value.  Every table lookup of
the formatter copies items of 1, 4, 8 or 16 bytes, the widths that numpy's
take moves as whole words; items of other widths it moves with one memmove
call each, at two to three times the cost.  The block formatter writes each
value's text in place, into the value field of the block's records, so no
second copy of the text is made.  The records of every CSV view one
bytearray (`_record_block`), and the text is that bytearray with its NUL
padding dropped by its own `translate` (`_compact`), with no copy of the
records made first.  The field writer (`SolutionField.write_csv`) streams
bytes: each block of rows goes to the open binary file as soon as it is
formatted, from one block made once per field, so writing a field costs
one block of records and its text (`FIELD_BLOCK_CELLS` cells), not the
whole file.  The writer's cost is partly fixed per block, so fewer, larger
blocks are faster.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, GridError

# formatting contract shared with the CLI: 12 significant digits, plain '.'
FLOAT_FORMAT = ".12g"

# roundoff a filling-ratio field may show outside [0, 1]
UNIT_RANGE_SLACK = 1e-9


# cells of the field formatted and written at a time: sets the writer's memory
# (a block's records and its text: 0.70 MB traced for the 5,010-cell blocks
# of a 1,125 x 501 field) and its number of blocks, each of which costs a
# fixed time of its own
FIELD_BLOCK_CELLS = 5120

# the floating-point warnings the block formatter expects (log10 of 0,
# products with non-finite values); its callers run it under this state
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


def format_value(x: float) -> str:
    return format(float(x), FLOAT_FORMAT)


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

    Each group's text is a uint32 whose bytes read "ddd" and a NUL, so a
    value's four groups fill one 16-byte slot.  sig[k][g] counts the
    significant digits of D up to its k-th group when that group is g, and
    is 0 when g is 0.
    """
    digits = np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10
    text = np.zeros((1000, 4), np.uint8)
    text[:, :3] = digits + ord("0")
    last = np.max(np.where(digits > 0, np.arange(1, 4), 0), axis=1)
    sig = np.where(last > 0, last + np.arange(0, 12, 3)[:, None], 0)
    return text.view("<u4")[:, 0], sig.astype(np.int8)


_TRIPLES, _SIG = _group_tables()
# a value's text: a prefix (sign, and "0." and zeros when e < 0), then a body
# that holds the digits and the point; NUL bytes pad both.  The widths are
# powers of two because numpy's take moves items of 1, 2, 4, 8 or 16 bytes as
# whole words and items of any other width with one memmove call each, two
# to three times slower.  VALUE_WIDTH also holds the longest %.12g text, as
# in -4.94065645841e-324.
PREFIX_WIDTH, BODY_WIDTH = 8, 16
VALUE_WIDTH = PREFIX_WIDTH + BODY_WIDTH
VALUE_DTYPE = np.dtype([("prefix", f"S{PREFIX_WIDTH}"), ("body", f"V{BODY_WIDTH}")])
_PREFIXES = np.array(
    [sign + ("0." + "0" * (-e - 1) if e < 0 else "")
     for sign in ("", "-") for e in range(E_MIN, E_MAX + 1)],
    dtype=f"S{PREFIX_WIDTH}",
)


def _body_masks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Byte masks (keep, shift, point) of the body, indexed by (e - E_MIN) * 13 + sig.

    Digit k of the 12 sits at byte 4*(k//3) + k%3 of the group slots, with
    a NUL after every third digit.  Body byte j is byte j of the slots where
    keep is set, byte j-1 of them where shift is, and else the byte of point
    (the point or NUL).  The integer digits stay whole; the fraction ends at
    the last significant digit, and the point stands after digit e only
    before a fraction digit.  The point takes the byte after digit e, and
    every fraction digit moves one byte right, within its group's slot: the
    byte after a digit is the next digit's or the group's NUL.
    """
    e, sig, k, j = np.ix_(np.arange(E_MIN, E_MAX + 1), np.arange(13), np.arange(12),
                          np.arange(BODY_WIDTH))
    slot = 4 * (k // 3) + k % 3
    fraction = (e >= 0) & (sig > e + 1)
    shown = k < np.where(e < 0, sig, np.maximum(e + 1, sig))
    moved = fraction & (k > e)
    keep = np.any(shown & ~moved & (j == slot), axis=2)
    shift = np.any(shown & moved & (j == slot + 1), axis=2)
    point = np.any(fraction & (k == e) & (j == slot + 1), axis=2)
    masks = (keep * 0xFF, shift * 0xFF, point * ord("."))
    return tuple(
        m.astype(np.uint8).reshape(-1, BODY_WIDTH).view(f"V{BODY_WIDTH}")[:, 0] for m in masks
    )


_KEEP, _SHIFT, _POINT = _body_masks()


def _digit_slots(d):
    """The 12 digits of each whole d in [1e11, 1e12) in its four group slots,
    as two little-endian 64-bit words, and the count of its significant digits.

    A function of its own so that the group indices, the largest temporary,
    are freed before `_value_chars` applies its masks.
    """
    # d's three-digit groups, most significant first.  floor(d / 1000) is exact
    # for a whole d below 1e12: the quotient rounds by less than 1e-7, and a
    # quotient that is not whole lies 1e-3 or more from every integer.
    groups = np.empty((d.size, 4), np.intp)
    for k in range(3, 0, -1):
        q = np.floor(d / 1000.0)
        groups[:, k] = d - 1000.0 * q
        d = q
    groups[:, 0] = d
    sig = _SIG[0].take(groups[:, 0])
    for k in range(1, 4):
        np.maximum(sig, _SIG[k].take(groups[:, k]), out=sig)
    return _TRIPLES.take(groups).view("<u8"), sig


def _value_chars(values, out=None) -> np.ndarray:
    """`format_value` of each value as one NUL-padded VALUE_DTYPE item.

    NUL bytes may sit anywhere in an item; dropping them leaves the text.
    Every lookup copies items of a power-of-two width, and the body's masks
    apply to the digit slots as two 64-bit words, in place where they can.
    Values the digit path cannot vouch for go through `format_value`.  The
    items are written into out, a one-dimensional VALUE_DTYPE array (or
    field of a record array) with one item per value, when it is given; out
    is returned.  Run it under `np.errstate(**_QUIET)`: the caller enters
    that state once for all its blocks.
    """
    v = np.ravel(np.asarray(values, dtype=float))
    m = np.abs(v)
    e = np.floor(np.log10(m))
    fast = (e >= E_MIN) & (e <= E_MAX)
    e = np.where(fast, e, 0.0).astype(np.intp)
    m *= _POW10.take(E_MAX - e)
    d = np.rint(m)
    fast &= (d >= 1e11) & (d < 1e12) & (np.abs(m - d) < TIE_MARGIN)
    del m  # 8 bytes a value fewer at the formatter's peak, in `_digit_slots`
    d[~fast] = 1e11  # keeps the lookups below in range; the fallback rewrites these items
    words, sig = _digit_slots(d)
    # a byte moves one to the right as its word shifts left by 8 bits, and no
    # shifted byte leaves its group's slot
    key = (e - E_MIN) * 13 + sig
    body = words & _KEEP.take(key).view("<u8").reshape(words.shape)
    words <<= 8
    words &= _SHIFT.take(key).view("<u8").reshape(words.shape)
    body |= words
    body |= _POINT.take(key).view("<u8").reshape(words.shape)
    if out is None:
        out = np.empty(v.size, VALUE_DTYPE)
    out["prefix"] = _PREFIXES.take((e - E_MIN) + (v < 0) * (E_MAX - E_MIN + 1))
    out["body"] = body.view(f"V{BODY_WIDTH}")[:, 0]
    slow = (~fast).nonzero()[0]
    if slow.size:
        texts = [format_value(x) for x in v[slow].tolist()]
        out[slow] = np.array(texts, dtype=f"S{VALUE_WIDTH}").view(VALUE_DTYPE)
    return out


def _record_block(shape, dtype) -> tuple[bytearray, np.ndarray]:
    """A zeroed bytearray and a record array of the given shape that views it.

    The records are written through the array, and `_compact` reads their
    text from the bytearray itself, so no copy of the records is made.
    """
    dtype = np.dtype(dtype)
    buf = bytearray(math.prod(shape) * dtype.itemsize)
    return buf, np.frombuffer(buf, dtype).reshape(shape)


def _compact(buf: bytearray, nbytes: int) -> bytearray:
    """The first nbytes of buf with their NUL bytes dropped: the whole of buf
    by its own translate, a shorter prefix through a copy of that prefix."""
    return (buf if nbytes == len(buf) else buf[:nbytes]).translate(None, b"\0")


def csv_text(header: str, *columns) -> str:
    """CSV text of a header line and one line per row of equal-length columns.

    The rows are one array of records, a value text (`_value_chars`) and its
    "," or line end each, so every CSV formats its values one way and drops
    its padding one way (`_compact`).
    """
    values = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    buf, cells = _record_block(values.shape, [("value", VALUE_DTYPE), ("end", "S1")])
    with np.errstate(**_QUIET):
        _value_chars(values, out=cells.reshape(-1)["value"])
    cells["end"] = b","
    cells["end"][:, -1] = b"\n"
    return f"{header}\n" + _compact(buf, len(buf)).decode("ascii")


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
        if not np.isfinite(values).all():
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

    @cached_property
    def _nodes(self) -> tuple:
        """grid and values as lists of Python floats, and the last index, for
        scalar reads."""
        return self.grid.tolist(), self.values.tolist(), self.values.size - 1

    def __call__(self, t):
        """np.interp of the samples at t.  A Python float t that is not NaN is
        read in Python floats, bit for bit np.interp: its end and node cases,
        its slope formula and its NaN fallback."""
        if type(t) is float and t == t:
            grid, vals, last = self._nodes
            j = bisect_right(grid, t) - 1
            if j < 0:
                return vals[0]
            if j == last or grid[j] >= t:
                return vals[j]
            slope = (vals[j + 1] - vals[j]) / (grid[j + 1] - grid[j])
            value = slope * (t - grid[j]) + vals[j]
            if value == value:
                return value
            value = slope * (t - grid[j + 1]) + vals[j + 1]
            return vals[j] if value != value and vals[j] == vals[j + 1] else value
        t_arr = np.asarray(t, dtype=float)
        out = np.interp(t_arr, self.grid, self.values)
        if np.isscalar(t) or t_arr.ndim == 0:
            return float(out)
        return out

    def shifted_by(self, c: float) -> "SampledFunction":
        return SampledFunction(self.t_start, self.t_end, self.values - c)


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


PROVENANCE_NAMES = ("initial", "boundary")  # indexed by the tag


@dataclass(frozen=True)
class SolutionField:
    """Space-time field on a tensor grid with per-point provenance.

    provenance[i,j] records whether the characteristic through
    (t_grid[i], x_grid[j]) originates from the initial profile (0) or from
    the inflow boundary (1).  Producers pass the boolean mask "entered
    through x = 0", stored as uint8 tags (a view of the mask, not a copy);
    any other tag is a DomainError.
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
        if tags.dtype == np.bool_:
            tags = tags.view(np.uint8)
        # min and max reductions make no field-sized boolean array: a NaN tag or
        # value reaches both, and an infinite value one of them
        whole = tags.dtype.kind in "biu" or np.array_equal(tags, np.floor(tags))
        if tags.size and not (tags.min() >= 0 and tags.max() <= 1 and whole):
            raise DomainError("provenance tags must be 0 (initial) or 1 (boundary)")
        object.__setattr__(self, "provenance", tags.astype(np.uint8, copy=False))
        if values.size and not (-math.inf < values.min() and values.max() < math.inf):
            raise DomainError("field values must be finite")

    def check_unit_range(self) -> None:
        """Assert every value is a filling ratio in [0,1], up to UNIT_RANGE_SLACK."""
        lo = float(np.min(self.values))
        hi = float(np.max(self.values))
        if lo < -UNIT_RANGE_SLACK or hi > 1.0 + UNIT_RANGE_SLACK:
            raise DomainError(f"field leaves [0,1]: range [{lo:.6g}, {hi:.6g}]")

    def write_csv(self, fh, header: str = "t,x,value,provenance") -> None:
        """Write one line "t,x,value,tag" per grid point to the binary file fh,
        rows of t outermost.

        A block of rows is one array of fixed-width records: the t text, the
        ",x," text, the value text and the ",tag" line end, each NUL-padded.
        One block of records (`_record_block`) serves every block of rows,
        and the last block is a prefix of it; every block holds whole rows,
        so its x texts are set once.  The value texts are formatted straight
        into the block's value field.  Dropping the NUL bytes (`_compact`)
        gives the block's lines as bytes, and each block goes to fh as it is
        formatted, so the writer holds one block of records and its text
        (FIELD_BLOCK_CELLS cells, or one row if longer) whatever the size of
        the field.
        """
        n_t, n_x = self.values.shape
        t_texts = np.array([format_value(t) for t in self.t_grid.tolist()], dtype="S")
        x_texts = np.array([f",{format_value(x)}," for x in self.x_grid.tolist()], dtype="S")
        tags = np.array([f",{name}\n" for name in PROVENANCE_NAMES], dtype="S")
        record = np.dtype([("t", t_texts.dtype), ("x", x_texts.dtype),
                           ("value", VALUE_DTYPE), ("tag", tags.dtype)])
        step = max(1, FIELD_BLOCK_CELLS // max(1, n_x))
        buf, records = _record_block((min(step, n_t), n_x), record)
        records["x"] = x_texts
        value_items = records.reshape(-1)["value"]
        fh.write(f"{header}\n".encode())
        with np.errstate(**_QUIET):
            for i in range(0, n_t, step):
                rows = slice(i, i + step)
                values = self.values[rows]
                block = records[:len(values)]
                block["t"] = t_texts[rows, None]
                _value_chars(values, out=value_items[:values.size])
                block["tag"] = tags.take(self.provenance[rows])
                fh.write(_compact(buf, block.nbytes))

    def to_csv(self, header: str = "t,x,value,provenance") -> str:
        """The text `write_csv` writes, as one string."""
        buf = io.BytesIO()
        self.write_csv(buf, header)
        return buf.getvalue().decode("ascii")


def _norm(kind: str, values: np.ndarray, *steps: float) -> float:
    """Linf (max |values|) or W1inf (also max |difference| / step along each
    axis, steps in order); max |d| / step is max(|d| / step) bit for bit, as
    rounded division by a positive step is monotone."""
    if kind not in ("Linf", "W1inf"):
        raise DomainError(f"unknown norm kind {kind!r}")
    sup = np.max(np.abs(values))
    for axis, step in enumerate(steps if kind == "W1inf" else ()):
        sup = max(sup, np.max(np.abs(np.diff(values, axis=axis))) / step)
    return float(sup)


def norm(kind: str, f) -> float:
    """Discrete norm of a sampled function or profile.

    Linf:  max |f|
    W1inf: max(Linf, max |forward difference quotient|)

    The difference quotients are exact for the piecewise-linear
    interpolants these containers represent.
    """
    values = np.asarray(f.values, dtype=float)
    if kind == "W1inf" and values.size < 3:
        raise GridError("W1inf needs at least three samples")
    return _norm(kind, values, f.dt)


def field_norm(kind: str, field: SolutionField, shift: float = 0.0) -> float:
    """Linf or W1inf of a space-time field (optionally around a constant)."""
    t, x = field.t_grid, field.x_grid
    steps = (t[1] - t[0], x[1] - x[0]) if kind == "W1inf" else ()
    return _norm(kind, field.values - shift, *steps)

