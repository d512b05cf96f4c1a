"""Deterministic text I/O for rasters and log tables.

Everything numeric is formatted with %.9g so a run writes byte-identical
artifacts every time the inputs and seed repeat.  Rasters are CSV grids
with one metadata comment line; NaN marks no-data cells.  A raster row is
formatted by one `%` call on its Python floats: `"%.9g" % x` and
`fmt`'s `f"{x:.9g}"` go through the same float formatter, so the text is
that of formatting value by value.

Untouched ground leaves whole bands of equal rows, so a row whose bytes
equal the previous row's reuses its text.  The test is on bytes, not
values: 0.0 and -0.0 compare equal but print `0` and `-0`, and a NaN row
compares unequal to itself.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np


def fmt(value) -> str:
    """Canonical text for one value: floats via %.9g, the rest via str."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_table(path: str, fields: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with a header row; one line per row, fields comma-joined."""
    lines = [",".join(fields)]
    for row in rows:
        if len(row) != len(fields):
            raise ValueError("row width does not match the header")
        lines.append(",".join(fmt(v) for v in row))
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
    template = ",".join(["%.9g"] * cols)
    prev_bytes, text = None, ""
    for row in grid:  # row by row: a whole-grid tolist() costs memory
        row_bytes = row.tobytes()
        if row_bytes != prev_bytes:
            prev_bytes, text = row_bytes, template % tuple(row.tolist())
        lines.append(text)
    write_text(path, "\n".join(lines) + "\n")


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
    """Write `text` as UTF-8 with newline line endings, making its directory."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
