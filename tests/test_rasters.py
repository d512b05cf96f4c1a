"""Raster and table text I/O: exact bytes and readable diagnostics."""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spikedozer.rasters import fmt, read_raster, write_raster, write_table, write_text

# decimal values one digit past the 9 that %.9g keeps, ending in 5: the
# rounding edge, as near as a double can sit to it
ROUNDING_EDGE = st.builds(lambda d, e: float(f"{d}5e{e}"),
                          st.integers(10**8, 10**9 - 1), st.integers(-330, 290))
SPECIAL = st.sampled_from([
    float("nan"), 0.0, -0.0, float("inf"), -float("inf"), 5e-324, -2.2250738585072014e-308,
    1e300, -1e300, 1e-300, -1e-300, 0.5, 123456789.5, 999999999.5])

GRIDS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
               elements=st.one_of(st.floats(), SPECIAL, ROUNDING_EDGE)),
    hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
               elements=st.floats(width=32)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6)),
)


def worked_map_rows(seed, rows=20, cols=288):
    """A raster as wide as a drive's map: bands of repeated rows, and fresh
    rows drawn from a few values they share with each other and with the
    repeated rows, with 0.0 beside -0.0, NaNs of several payloads and
    signs, and long runs of one value."""
    rng = np.random.default_rng(seed)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                     0x7FF0000000000001, 0xFFF00000DEAD0000], dtype=np.uint64).view(np.float64)
    values = np.concatenate([[0.0, -0.0, 0.1, np.nextafter(0.1, 1.0), -0.035, 1e-300,
                              123456789.5, np.inf], nans])
    grid = values[rng.integers(0, values.size, (rows, cols))]
    grid[:, :2] = [0.0, -0.0]
    grid[2, 100], grid[7, -1] = 0.0, nans[0]
    grid[3:7] = grid[2]  # a band of repeated rows,
    grid[6, 100] = -0.0  # then a row that differs only in a zero's sign
    grid[8:12] = grid[7]
    grid[11, -1] = nans[2]  # or only in a NaN's payload
    grid[12] = grid[7]  # a fresh row equal to an earlier repeated one
    grid[13] = np.where(grid[12] == 0.0, -grid[12], grid[12])
    grid[15:19, 40:250] = 0.0  # long runs, broken by -0.0 or a NaN,
    grid[16, 100:120] = -0.0
    grid[17, 249] = nans[3]
    grid[18, 200:] = 0.1  # or running to the row's end
    return grid


def reference_raster_text(grid, cell_size, origin):
    """The raster text of a writer that formats one value at a time."""
    rows, cols = grid.shape
    lines = [f"# {rows} {cols} {fmt(float(cell_size))} "
             f"{fmt(float(origin[0]))} {fmt(float(origin[1]))}"]
    for i in range(rows):
        lines.append(",".join(fmt(float(v)) for v in grid[i]))
    return "\n".join(lines) + "\n"


def written_bytes(grid, cell_size=0.25, origin=(-1.5, 2.0)):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        write_raster(path, grid, cell_size, origin)
        with open(path, "rb") as fh:
            return fh.read()


class TestWriteRaster:
    @settings(max_examples=300, deadline=None)
    @given(grid=GRIDS)
    @example(grid=np.zeros((0, 4)))
    @example(grid=np.zeros((3, 0)))
    @example(grid=np.full((1, 1), -0.0))
    @example(grid=np.array([[np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e-300]]))
    @example(grid=np.array([[True, False]]))
    @example(grid=np.array([[2**63 - 1, -2**63]], dtype=np.int64))
    # runs of repeated rows, whose text the writer reuses
    @example(grid=np.array([[0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]]))
    @example(grid=np.full((2, 3), np.nan))
    @example(grid=np.vstack([np.ones((3, 3)), [[1.0, 1.0, 1.5]]]))
    @example(grid=np.array([[0.0, -0.0, 5.0]] * 3).T)
    @example(grid=np.array([[0.5, 9.0, 0.0], [0.5, 9.0, -0.0]] * 2)[:, ::2])
    @example(grid=np.array([[1.0, 2.0], [3.0, 4.0]] * 3)[::2])
    @example(grid=np.full((3, 2), 0.1, dtype=np.float32))
    @example(grid=np.full((3, 2), -2**63, dtype=np.int64))
    @example(grid=np.array([[True, False]] * 3 + [[False, False]]))
    # as wide as a drive's map
    @example(grid=worked_map_rows(0))
    @example(grid=worked_map_rows(1))
    @example(grid=worked_map_rows(2)[:, ::-1])
    @example(grid=np.tile(worked_map_rows(3)[:1], (20, 1)))
    def test_same_bytes_as_formatting_each_value(self, grid):
        expected = reference_raster_text(grid, 0.25, (-1.5, 2.0)).encode("utf-8")
        assert written_bytes(grid) == expected

    def test_round_trip(self, tmp_path):
        grid = np.array([[0.1, -2.5e-7, np.nan], [1e300, -0.0, 3.0]])
        path = tmp_path / "grid.csv"
        write_raster(str(path), grid, 0.25, (-1.5, 2.0))
        back, cell, origin = read_raster(str(path))
        np.testing.assert_array_equal(back, grid)
        assert (cell, origin) == (0.25, (-1.5, 2.0))

    def test_rejects_a_grid_that_is_not_two_dimensional(self, tmp_path):
        with pytest.raises(ValueError, match="two-dimensional"):
            write_raster(str(tmp_path / "line.csv"), np.zeros(3), 0.25)


# every kind of value `fmt` takes, numpy scalars among them
TABLE_VALUES = st.one_of(
    st.booleans(), st.integers(), st.integers(-2**70, 2**70), st.floats(), SPECIAL, ROUNDING_EDGE,
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),  # '%' too
    st.sampled_from(["%s", "%d", "%%", ""]),
    st.booleans().map(np.bool_), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-128, 127).map(np.int8), st.floats().map(np.float64),
    st.floats(width=32).map(np.float32))


class TestWriteTable:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), width=st.integers(1, 5))
    @example(data=None, width=4)
    def test_same_bytes_as_formatting_each_value(self, data, width):
        if data is None:  # one table whose value types change partway
            rows = [(1, 0.5, "a", -0.0), (True, np.float64(0.5), "a", np.True_),
                    (2, float("nan"), "%d", float("-inf")), (2**80, 3, np.int64(-7), "")]
        else:
            rows = data.draw(st.lists(st.tuples(*[TABLE_VALUES] * width), max_size=8),
                             label="rows")
        fields = [f"c{k}" for k in range(width)]
        expected = "\n".join([",".join(fields)] + [",".join(fmt(v) for v in row)
                                                    for row in rows]) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.csv")
            write_table(path, fields, rows)
            with open(path, "rb") as fh:
                assert fh.read() == expected.encode("utf-8")

    def test_numpy_bool_prints_as_text(self):
        # `fmt` reads a bool as 0 or 1, but numpy's bool is no bool
        assert fmt(True) == "1" and fmt(np.True_) == "True"

    def test_rejects_a_row_of_the_wrong_width(self, tmp_path):
        with pytest.raises(ValueError, match="row width"):
            write_table(str(tmp_path / "t.csv"), ("a", "b"), [(1, 2), (3,)])


class TestReadRaster:
    def test_value_that_does_not_parse_names_file_and_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# 2 3 0.5 0 0\n0,0,0\n0,abc,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} row 1: ") + ".*'abc'"):
            read_raster(str(path))

    def test_malformed_header_names_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# two 3 0.5 0 0\n0,0,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} has a malformed raster header")):
            read_raster(str(path))

    def test_rows_beyond_the_header_count_name_file(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("# 2 3 0.5 0 0\n0,0,0\n0,0,0\n0,0,0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path} has rows beyond the 2 its header gives")):
            read_raster(str(path))


class TestWriteText:
    def test_rewriting_with_shorter_text_leaves_no_stale_tail(self, tmp_path):
        text = "x,y\n1,2\n\u00b0\n"
        fresh = tmp_path / "fresh.txt"
        write_text(str(fresh), text)
        assert fresh.read_bytes() == text.encode("utf-8")
        rewritten = tmp_path / "sub" / "rewritten.txt"
        write_text(str(rewritten), "a much longer first text\n" * 50)
        write_text(str(rewritten), text)
        assert rewritten.read_bytes() == fresh.read_bytes()
