import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from extrusim import cli, fields
from extrusim.errors import DomainError, GridError
from extrusim.fields import (
    E_MAX,
    E_MIN,
    FIELD_BLOCK_CELLS,
    FLOAT_FORMAT,
    PROVENANCE_NAMES,
    SampledFunction,
    SolutionField,
    SpaceProfile,
    csv_text,
    field_norm,
    format_value,
    norm,
    _QUIET,
    _value_chars,
)


class TestSampledFunction:
    def test_nodal_exactness(self):
        f = SampledFunction(0.0, 2.0, np.array([1.0, 3.0, -2.0, 0.5, 4.0]))
        for t, v in zip(f.grid, f.values):
            assert f(t) == v

    def test_interpolation_is_convex_combination(self):
        f = SampledFunction(0.0, 1.0, np.array([0.0, 1.0, 0.0]))
        assert f(0.25) == pytest.approx(0.5)
        assert f(0.75) == pytest.approx(0.5)
        # never overshoots the neighboring samples
        ts = np.linspace(0.0, 1.0, 333)
        assert np.all(f(ts) >= 0.0) and np.all(f(ts) <= 1.0)

    def test_needs_two_samples(self):
        with pytest.raises(GridError):
            SampledFunction(0.0, 1.0, np.array([1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            SampledFunction(0.0, 1.0, np.array([0.0, np.nan]))

    def test_rejects_empty_interval(self):
        with pytest.raises(GridError):
            SampledFunction(1.0, 1.0, np.array([0.0, 1.0]))

    def test_csv_roundtrip_format(self):
        f = SampledFunction(0.0, 1.0, np.array([0.0, 0.5]))
        assert csv_text("t,value", f.grid, f.values) == "t,value\n0,0\n1,0.5\n"


class TestSpaceProfile:
    def test_grid_spans_unit_interval(self):
        p = SpaceProfile.from_callable(lambda x: x, 5)
        assert p.grid[0] == 0.0 and p.grid[-1] == 1.0
        assert p(0.5) == pytest.approx(0.5)

    def test_shifted_by(self):
        p = SpaceProfile.constant(0.4, 3).shifted_by(0.1)
        assert np.allclose(p.values, 0.3)

    def test_is_a_sampled_function_on_the_unit_interval(self):
        p = SpaceProfile(np.array([0.1, 0.4, 0.2, 0.3]))
        assert isinstance(p, SampledFunction)
        assert p.t_start == 0.0 and p.t_end == 1.0
        assert p.dx == p.dt == pytest.approx(1.0 / 3.0)
        assert np.array_equal(p.grid, np.linspace(0.0, 1.0, 4))


class TestNorms:
    def test_constant_function(self):
        f = SampledFunction.constant(-2.5, 0.0, 4.0, 9)
        assert norm("Linf", f) == 2.5
        assert norm("W1inf", f) == 2.5

    def test_unit_ramp(self):
        f = SampledFunction(0.0, 1.0, np.linspace(0.0, 1.0, 11))
        assert norm("Linf", f) == 1.0
        assert norm("W1inf", f) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["Linf", "W1inf"])
    def test_absolute_homogeneity(self, kind):
        vals = np.sin(np.linspace(0.0, 3.0, 41)) + 0.3
        f = SampledFunction(0.0, 1.5, vals)
        lam = -3.7
        g = SampledFunction(0.0, 1.5, lam * vals)
        assert norm(kind, g) == pytest.approx(abs(lam) * norm(kind, f), rel=1e-12)

    @pytest.mark.parametrize("kind", ["Linf", "W1inf"])
    def test_refinement_consistency(self, kind):
        # smooth input: successive grid doublings must converge at
        # first order or better in the grid step
        fn = lambda x: math.sin(2.0 * x) * math.exp(-x)
        jumps = []
        for n in (51, 101, 201):
            a = norm(kind, SampledFunction.from_callable(fn, 0.0, 2.0, n))
            b = norm(kind, SampledFunction.from_callable(fn, 0.0, 2.0, 2 * n - 1))
            jumps.append(abs(b - a))
        if jumps[0] > 1e-13:
            assert jumps[1] <= jumps[0] * 0.55
        if jumps[1] > 1e-13:
            assert jumps[2] <= jumps[1] * 0.55

    def test_w1inf_needs_three_points(self):
        with pytest.raises(GridError):
            norm("W1inf", SampledFunction(0.0, 1.0, np.array([0.0, 1.0])))

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            norm("L7", SampledFunction.constant(1.0, 0.0, 1.0))


class TestSolutionField:
    def _make(self, nt=3, nx=4):
        t = np.linspace(0.0, 1.0, nt)
        x = np.linspace(0.0, 1.0, nx)
        vals = np.full((nt, nx), 0.25)
        prov = np.zeros((nt, nx), dtype=np.uint8)
        return SolutionField(t, x, vals, prov)

    def test_shape_mismatch(self):
        with pytest.raises(GridError):
            SolutionField(
                np.linspace(0, 1, 3),
                np.linspace(0, 1, 4),
                np.zeros((3, 3)),
                np.zeros((3, 3), dtype=np.uint8),
            )

    @pytest.mark.parametrize("tag", [2, 255, -1, 0.5, np.nan])
    def test_unknown_provenance_tag_rejected(self, tag):
        with pytest.raises(DomainError, match="provenance"):
            SolutionField([0.0], [0.0, 1.0], [[0.3, 0.4]], np.array([[0, tag]]))

    @pytest.mark.parametrize("tag", [2, 0.5, np.nan])
    @pytest.mark.parametrize("at", [0, -1])
    def test_bad_tag_message(self, tag, at):
        tags = np.zeros((3, 4))
        tags.flat[at] = tag
        with pytest.raises(DomainError) as exc:
            SolutionField(np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4), np.zeros((3, 4)), tags)
        assert str(exc.value) == "provenance tags must be 0 (initial) or 1 (boundary)"

    def test_boolean_mask_with_other_bytes_rejected(self):
        # a bool array whose bytes are not 0 or 1, made through a view
        mask = np.array([[0, 2]], dtype=np.uint8).view(np.bool_)
        with pytest.raises(DomainError, match="provenance"):
            SolutionField([0.0], [0.0, 1.0], [[0.3, 0.4]], mask)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 5, -1])
    def test_nonfinite_value_message(self, bad, at):
        values = np.full((3, 4), 0.25)
        values.flat[at] = bad
        with pytest.raises(DomainError) as exc:
            SolutionField(np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4), values,
                          np.zeros((3, 4), dtype=bool))
        assert str(exc.value) == "field values must be finite"

    def test_boolean_mask_becomes_tags(self):
        mask = np.array([[False, True], [True, True]])
        f = SolutionField([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)), mask)
        assert f.provenance.dtype == np.uint8
        assert f.provenance.tolist() == [[0, 1], [1, 1]]
        # the tags view the mask's bytes rather than copy them
        assert np.shares_memory(f.provenance, mask)

    def test_unit_range_check(self):
        f = self._make()
        f.check_unit_range()
        bad = SolutionField(f.t_grid, f.x_grid, f.values + 1.0, f.provenance)
        with pytest.raises(DomainError):
            bad.check_unit_range()

    def test_csv_long_format(self):
        t = np.array([0.0, 1.0])
        x = np.array([0.0, 1.0])
        vals = np.array([[0.0, 0.5], [0.25, 1.0]])
        prov = np.array([[0, 0], [1, 0]], dtype=np.uint8)
        csv = SolutionField(t, x, vals, prov).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "t,x,value,provenance"
        assert lines[1] == "0,0,0,initial"
        assert lines[3] == "1,0,0.25,boundary"

    def test_field_norm_shift(self):
        f = self._make()
        assert field_norm("Linf", f, shift=0.25) == 0.0
        assert field_norm("W1inf", f, shift=0.25) == 0.0


def reference_norm(f):
    """`norm` W1inf before its shared helper: every quotient, then the max."""
    values = np.asarray(f.values, dtype=float)
    quotients = np.abs(np.diff(values)) / f.dt
    return float(max(np.max(np.abs(values)), np.max(quotients)))


def reference_field_norm(field, shift=0.0):
    """`field_norm` W1inf before its shared helper."""
    values = field.values - shift
    dt = field.t_grid[1] - field.t_grid[0]
    dx = field.x_grid[1] - field.x_grid[0]
    sup = np.max(np.abs(values))
    sup_t = np.max(np.abs(np.diff(values, axis=0))) / dt if values.shape[0] > 1 else 0.0
    sup_x = np.max(np.abs(np.diff(values, axis=1))) / dx if values.shape[1] > 1 else 0.0
    return float(max(sup, sup_t, sup_x))


class TestW1infNorms:
    """Both W1inf norms read max |difference| / step from one helper, with
    the bits of the per-quotient forms they replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        values=arrays(np.float64, st.integers(3, 60), elements=st.floats(-1e3, 1e3)),
        t_end=st.floats(1e-3, 1e3),
    )
    def test_sampled_function(self, values, t_end):
        f = SampledFunction(0.0, t_end, values)
        assert norm("W1inf", f) == reference_norm(f)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
        seed=st.integers(0, 2**32 - 1),
        ends=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
        scale=st.floats(1e-6, 1e3),
    )
    def test_field(self, shape, seed, ends, scale):
        rng = np.random.default_rng(seed)
        values = scale * rng.standard_normal(shape)
        field = SolutionField(np.linspace(0.0, ends[0], shape[0]),
                              np.linspace(0.0, ends[1], shape[1]),
                              values, np.zeros(shape, dtype=bool))
        shift = float(values.flat[0])
        assert field_norm("W1inf", field) == reference_field_norm(field)
        assert field_norm("W1inf", field, shift=shift) == reference_field_norm(field, shift)


def test_format_value_is_12_sig_digits():
    assert format_value(1.0 / 3.0) == "0.333333333333"
    assert format_value(2.0) == "2"


def reference_field_csv(field: SolutionField, header: str = "t,x,value,provenance") -> str:
    """The field writer as one formatted line per cell, kept as the byte-level reference."""
    lines = [header]
    for i, t in enumerate(field.t_grid):
        for j, x in enumerate(field.x_grid):
            tag = PROVENANCE_NAMES[int(field.provenance[i, j])]
            lines.append(
                f"{format_value(t)},{format_value(x)},{format_value(field.values[i, j])},{tag}"
            )
    return "\n".join(lines) + "\n"


def reference_rows_csv(header: str, *columns) -> str:
    """The small-CSV writer as one joined line per row, kept as the byte-level reference."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


EDGE_VALUES = [-0.0, 1e-5, 9.99999999999e-5, 1e16, 123456789012.5, 5e-324, 1.0]


class TestFieldCsvBytes:
    def test_edge_values_and_both_tags(self):
        n = len(EDGE_VALUES)
        t = np.array([-0.0, 1e-5, 9.99999999999e-5])
        x = np.array(EDGE_VALUES)
        vals = np.array([EDGE_VALUES, EDGE_VALUES[::-1], [-v for v in EDGE_VALUES]])
        prov = np.arange(3 * n).reshape(3, n) % 2
        field = SolutionField(t, x, vals, prov)
        text = field.to_csv()
        assert text == reference_field_csv(field)
        assert "\n-0,-0,-0,initial\n" in text
        assert ",1e+16," in text and ",4.94065645841e-324," in text and ",123456789012," in text
        assert text.count(",boundary\n") == 3 * n // 2

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1)])
    def test_single_row_and_single_column(self, shape):
        rng = np.random.default_rng(5)
        field = SolutionField(
            rng.uniform(0.0, 1.0, shape[0]),
            rng.uniform(0.0, 1.0, shape[1]),
            rng.standard_normal(shape),
            rng.integers(0, 2, shape),
        )
        text = field.to_csv(header="t,x,fp,provenance")
        assert text == reference_field_csv(field, header="t,x,fp,provenance")
        assert text.count("\n") == 1 + shape[0] * shape[1]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference_on_random_fields(self, data):
        n_t = data.draw(st.integers(1, 5))
        n_x = data.draw(st.integers(1, 6))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        field = SolutionField(
            data.draw(arrays(float, n_t, elements=finite)),
            data.draw(arrays(float, n_x, elements=finite)),
            data.draw(arrays(float, (n_t, n_x), elements=finite)),
            data.draw(arrays(np.uint8, (n_t, n_x), elements=st.sampled_from([0, 1]))),
        )
        assert field.to_csv() == reference_field_csv(field)

    def test_upwind_simulate_writes_reference_bytes(self, tmp_path, monkeypatch):
        returned = []

        def recording_upwind(*args, **kwargs):
            out = cli_upwind(*args, **kwargs)
            returned.append(out[1])
            return out

        cli_upwind = cli.simulate_upwind
        monkeypatch.setattr(cli, "simulate_upwind", recording_upwind)
        mapping = {
            "equilibrium.N_e": "1.0",
            "equilibrium.l_e": "0.5",
            "data.l0": "0.5",
            "data.f0_p": "sine-perturbation:eq,0.01",
            "data.F_in": "sine-perturbation:eq,0.005,2",
            "data.N": "constant:eq",
            "numerics.dt": "0.01",
            "numerics.dx": "0.02",
            "mode.T": "0.5",
            "mode.method": "upwind",
            "mode.out": str(tmp_path / "out"),
        }
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in mapping.items()))
        assert cli.run(["simulate", str(cfg)]) == 0
        (field,) = returned
        assert "boundary" in reference_field_csv(field)
        blob = (tmp_path / "out" / "field.csv").read_bytes()
        assert blob == reference_field_csv(field, header="t,x,fp,provenance").encode()


class TestFieldCsvStreaming:
    def test_peak_memory_is_one_row(self, tmp_path):
        # the size of the sim-upwind field: 1125 rows of 501 nodes, 25 MB of text
        n_t, n_x = 1125, 501
        rng = np.random.default_rng(3)
        field = SolutionField(
            np.linspace(0.0, 1.0, n_t),
            np.linspace(0.0, 1.0, n_x),
            rng.uniform(0.3, 0.4, (n_t, n_x)),
            np.arange(n_x) <= np.arange(n_t)[:, None],
        )
        path = tmp_path / "field.csv"
        tracemalloc.start()
        try:
            with open(path, "wb") as fh:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                field.write_csv(fh, header="t,x,fp,provenance")
                peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        blob = path.read_bytes()
        assert len(blob) > 20 * 2**20
        assert blob == field.to_csv(header="t,x,fp,provenance").encode()
        assert blob == reference_field_csv(field, header="t,x,fp,provenance").encode()



class CountingWrites(io.BytesIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(data)


class TestFieldCsvBlocks:
    """The writer's block edges, with blocks of a few cells; values include
    the edge values that leave the digit path."""

    @pytest.mark.parametrize("block_cells, shape, blocks", [
        (3, (3, 5), 3),  # a row longer than a block: one row per block
        (6, (4, 3), 2),  # rows that fill the last block exactly
        (6, (5, 3), 3),  # a partial last block of one row
        (6, (1, 3), 1),  # a single row, shorter than a block
        (2, (1, 7), 1),  # a single row, longer than a block
    ], ids=["row-longer-than-block", "last-block-full", "partial-last-block",
            "single-row", "single-long-row"])
    def test_blocks_match_the_reference(self, monkeypatch, block_cells, shape, blocks):
        monkeypatch.setattr(fields, "FIELD_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(block_cells * 100 + shape[0])
        values = rng.standard_normal(shape)
        values.flat[::2] = (EDGE_VALUES * shape[0] * shape[1])[:values.size][::2]
        field = SolutionField(rng.uniform(0.0, 1.0, shape[0]), rng.uniform(0.0, 1.0, shape[1]),
                              values, rng.integers(0, 2, shape))
        fh = CountingWrites()
        field.write_csv(fh)
        assert fh.getvalue() == reference_field_csv(field).encode()
        assert fh.writes == 1 + blocks  # the header, then one write per block
        columns = (field.t_grid, *values.T)
        header = ",".join(f"c{k}" for k in range(len(columns)))
        assert csv_text(header, *columns) == reference_rows_csv(header, *columns)


class TestCsvText:
    def test_matches_row_join_reference(self):
        cols = (np.linspace(0.0, 1.0, 4), np.array(EDGE_VALUES[:4]), [1.0 / 3.0, 2, -0.0, 1e16])
        assert csv_text("a,b,c", *cols) == reference_rows_csv("a,b,c", *cols)

    def test_single_row_of_scalars(self):
        assert csv_text("p,q", [0.1], [2.0]) == "p,q\n0.1,2\n"

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            csv_text("a,b", [1.0, 2.0], [1.0])

    def test_sampled_function_csv_matches_reference(self):
        f = SampledFunction(0.0, 0.3, np.array([1.0 / 3.0, -0.0, 5e-324, 1e16]))
        text = csv_text("t,value", f.grid, f.values)
        assert text == reference_rows_csv("t,value", f.grid, f.values)


def value_texts(values) -> list:
    """The text of each item `_value_chars` makes, NUL bytes dropped, under
    the floating-point state its callers give it."""
    with np.errstate(**_QUIET):
        items = _value_chars(values)
    return [item.tobytes().replace(b"\0", b"").decode() for item in items]


def assert_formats_like_format(values):
    values = np.asarray(values, dtype=float)
    assert value_texts(values) == [format(v, FLOAT_FORMAT) for v in values.tolist()]


# digits that carry into the next power of ten when rounded to 12 of them
CARRIES = [0.99999999999951, 9999999.99999951, 999999999999.5]
FORMATTER_EDGES = [1e-4, 9.99999999999e-5, 5e-324, 0.0, 1.0, 120.0, 1e11, 1e12, math.inf]


class TestValueChars:
    """The block formatter against `format(v, FLOAT_FORMAT)`, value by value."""

    def test_carries_and_edges(self):
        values = CARRIES + FORMATTER_EDGES
        assert_formats_like_format(values + [-v for v in values] + [math.nan])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(arrays(float, st.integers(1, 40),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_any_finite_double(self, values):
        assert_formats_like_format(values)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(10**11, 10**12 - 1), st.integers(E_MIN, E_MAX))
    def test_trailing_five_and_neighbours(self, digits, e):
        # the 0.x, x.5 and 0.000x forms, and one drawn exponent
        values = []
        for exp in (-1, E_MAX, E_MIN, e):
            tie = float(f"{digits}5e{exp - 12}")  # 13 digits: halfway at the 12th
            twelve = float(f"{digits // 10 * 10 + 5}e{exp - 11}")  # 12 digits, last one 5
            for v in (tie, twelve):
                values += [v, np.nextafter(v, -math.inf), np.nextafter(v, math.inf)]
        assert_formats_like_format(values + [-v for v in values])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-(10**12) + 1, 10**12 - 1), min_size=1, max_size=40))
    def test_integers_below_1e12(self, ints):
        assert_formats_like_format([float(i) for i in ints])

    def test_every_mask_key(self, monkeypatch):
        # each exponent e and each count s of significant digits, both signs:
        # ratios below 1 (e < 0) and whole numbers (s <= e + 1) stay on the
        # digit path, and exactly the fractions at or above 1 (e >= 0 and
        # s > e + 1, as 3.7 and 314.7) go to format_value
        calls = []
        monkeypatch.setattr(fields, "format_value", lambda x: calls.append(x) or format_value(x))
        keys = [(e, s) for e in range(E_MIN, E_MAX + 1) for s in range(1, 13)]
        values = [float(f"{'314159265358'[:s - 1]}7e{e - s + 1}") for e, s in keys]
        assert_formats_like_format(values + [-v for v in values])
        fractions = [v for (e, s), v in zip(keys, values) if e >= 0 and s > e + 1]
        assert calls == fractions + [-v for v in fractions]

    def test_fast_path_formats_a_field_block(self, monkeypatch):
        # an all-fallback formatter writes the same bytes; only this count tells
        calls = []

        def counting(x):
            calls.append(x)
            return format_value(x)

        monkeypatch.setattr(fields, "format_value", counting)
        values = np.random.default_rng(3).uniform(0.3, 0.4, FIELD_BLOCK_CELLS)
        assert_formats_like_format(values)
        assert len(calls) <= 0.01 * values.size
