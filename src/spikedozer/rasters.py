"""Deterministic text I/O for rasters and log tables.

Everything numeric is formatted with %.9g so a run writes byte-identical
artifacts every time the inputs and seed repeat.  Rasters are CSV grids
with one metadata comment line; NaN marks no-data cells.  A raster value
is formatted by `"%.9g" % x` on its Python value, which goes through the
same float formatter as `fmt`'s `f"{x:.9g}"`.

Untouched ground leaves whole bands of equal rows, so a row whose bytes
equal the previous row's reuses its text.  The other rows are written
run by run, each run of equal values formatted once: on worked flat
ground most runs are long, while a row of a sloped plane is all one-cell
runs and costs about what formatting value by value does.  Rows and
values are told apart by their bytes, not their values: 0.0 and -0.0
compare equal but print `0` and `-0`, and a NaN compares unequal to
itself.
"""

from __future__ import annotations

import operator
import os
from typing import Iterable, Sequence

import numpy as np

from .earthworks import check_grid_size


def fmt(value) -> str:
    """Canonical text for one value: floats via %.9g, the rest via str."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# `%` conversions that give `fmt`'s text for a value of exactly this type
_CONVERSION = {int: "%d", float: "%.9g", str: "%s"}


def write_table(path: str, fields: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with a header row; one line per row, its values `fmt`ed and
    comma-joined.

    A row whose values are all exactly int, float or str is formatted by
    one `%` template, made once per sequence of value types; any other
    row goes value by value through `fmt`.
    """
    lines = [",".join(fields)]
    templates: dict[tuple, str | None] = {}
    for row in rows:
        if len(row) != len(fields):
            raise ValueError("row width does not match the header")
        types = tuple(map(type, row))
        if types not in templates:
            conversions = [_CONVERSION.get(t) for t in types]
            templates[types] = None if None in conversions else ",".join(conversions)
        template = templates[types]
        lines.append(",".join(map(fmt, row)) if template is None else template % tuple(row))
    write_text(path, "\n".join(lines) + "\n")


def write_raster(
    path: str,
    grid: np.ndarray,
    cell_size: float,
    origin: tuple[float, float] = (0.0, 0.0),
) -> None:
    """CSV grid; first line is `# rows cols cell_size origin_x origin_y`."""
    if grid.ndim != 2:
        raise ValueError("raster must be two-dimensional")
    rows, cols = grid.shape
    lines = [f"# {rows} {cols} {fmt(float(cell_size))} "
             f"{fmt(float(origin[0]))} {fmt(float(origin[1]))}"]
    # a fresh row is one whose bytes differ from the row above's
    bits = np.ascontiguousarray(grid).view(f"u{grid.itemsize}")
    fresh = np.ones(rows, dtype=bool)
    fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    # The fresh rows are written run by run, a run being equal values
    # side by side in a row: a row's run values are formatted by one `%`
    # call, one to a line, and each text is repeated by its run's length.
    # A row of one-cell runs needs no repeats and is formatted as it is.
    fresh_bits = bits[fresh]
    starts = np.ones(fresh_bits.shape, dtype=bool)
    starts[:, 1:] = fresh_bits[:, 1:] != fresh_bits[:, :-1]
    at = np.flatnonzero(starts)
    values = fresh_bits.ravel()[at].view(grid.dtype).tolist()
    lengths = np.diff(at, append=fresh_bits.size).tolist()
    firsts = np.searchsorted(at, np.arange(len(fresh_bits) + 1) * cols).tolist()
    del fresh_bits, starts, at  # as large as the fresh rows: freed early, for the peak
    template = ",".join(["%.9g"] * cols)
    fresh_lines = [
        template % tuple(values[a:b]) if b - a == cols
        else "".join(map(operator.mul, (("%.9g,\n" * (b - a)) % tuple(values[a:b])).splitlines(),
                         lengths[a:b]))[:-1]
        for a, b in zip(firsts, firsts[1:])]
    lines += [fresh_lines[k] for k in (np.cumsum(fresh) - 1).tolist()]
    lines.append("")  # the last line's end
    write_text(path, "\n".join(lines))


def read_raster(path: str) -> tuple[np.ndarray, float, tuple[float, float]]:
    """Inverse of write_raster; returns (grid, cell_size, origin)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError(f"{path} is missing the raster header line")
        parts = header[1:].split()
        if len(parts) != 5:
            raise ValueError(f"{path} has a malformed raster header")
        try:
            rows, cols = int(parts[0]), int(parts[1])
            cell_size = float(parts[2])
            origin = (float(parts[3]), float(parts[4]))
            check_grid_size(rows, cols, f"a {rows} x {cols} cell grid")
            grid = np.empty((rows, cols))
        except ValueError as exc:
            raise ValueError(f"{path} has a malformed raster header: {exc}") from None
        for i in range(rows):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path} ended before row {i}")
            vals = line.strip().split(",")
            if len(vals) != cols:
                raise ValueError(f"{path} row {i} has {len(vals)} of {cols} columns")
            try:
                grid[i] = [float(v) for v in vals]
            except ValueError as exc:
                raise ValueError(f"{path} row {i}: {exc}") from None
        if fh.read().strip():
            raise ValueError(f"{path} has rows beyond the {rows} its header gives")
    return grid, cell_size, origin


def write_text(path: str, text: str) -> None:
    """Write `text` as UTF-8 with newline line endings, making its directory.

    An existing file is written over in place and then cut to length,
    since truncating it first costs more than the write.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()
