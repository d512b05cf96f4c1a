"""Heightfield terrain, cut and fill bookkeeping, and the ripper draft.

The ground is a raster of square cells.  Each cell carries a bank floor
elevation (top of undisturbed material) and a loose depth (disturbed
spoil resting on it); the walking surface is their sum.  Cutting bank
material swells it by a fixed factor as it turns to spoil, so volumes are
audited in bank-equivalent terms: every cubic meter of bank removed must
reappear as `swell` cubic meters of loose somewhere on the map.

The ripper's draft model is the narrow-tool kind: proportional to the
cut cross-section times the material's penetration resistance.  The
blade's draft, face force plus the carried prism's ground drag, is
priced by the machine in `locomotion`.
"""

from __future__ import annotations

import functools
import math
from array import array
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .soils import SoilField, SoilProfile

SWELL_FACTOR = 1.3
DEFAULT_CELL_SIZE = 0.25  # m
REPOSE_SLACK_DEG = 0.5  # relaxation trigger slack above the repose angle
MAX_RELAX_PASSES = 10000  # sweeps before relaxation gives up as unsettled

# Most cells a grid built from outside input may hold, a 2048-cell
# square: planning a pad whose grid nears it peaks at about 500 MB.
MAX_GRID_CELLS = 2048 * 2048

# Neighbor scan order for the relaxation sweep: clockwise from north.
_NEIGHBORS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


@functools.lru_cache(maxsize=64)
def _neighbour_tests(repose_angle_deg: float, cell_size: float) -> tuple:
    """Per neighbour of a cell, in scan order: its offset and the drops (m)
    that trigger a move to it and that the move settles to."""
    tan_repose = math.tan(math.radians(repose_angle_deg))
    tan_trigger = math.tan(math.radians(repose_angle_deg + REPOSE_SLACK_DEG))
    return tuple((di, dj, tan_trigger * dist, tan_repose * dist) for di, dj in _NEIGHBORS
                 for dist in [cell_size * (math.sqrt(2.0) if di and dj else 1.0)])


def check_grid_size(rows, cols, needs: str) -> None:
    """Refuse a `rows` x `cols` grid over `MAX_GRID_CELLS`; `needs` opens the message."""
    if rows * cols > MAX_GRID_CELLS:
        raise ValueError(f"{needs}, over the {MAX_GRID_CELLS} cell limit")


def on_grid(shape, cell_size: float, origin, x: float, y: float) -> bool:
    """Whether (x, y) lies on a `shape` grid of `cell_size` cells whose
    corner is at `origin`."""
    rows, cols = shape
    return (origin[0] <= x < origin[0] + cols * cell_size
            and origin[1] <= y < origin[1] + rows * cell_size)


def bilinear(s, tx, ty):
    """Blend corner heights stacked on the first axis of `s`, in the order
    (i0, j0), (i0, j1), (i1, j0), (i1, j1), at fractions `tx` from j0
    toward j1 and `ty` from i0 toward i1.  Floats or arrays."""
    wx = 1.0 - tx
    top = s[0] * wx + s[1] * tx
    bot = s[2] * wx + s[3] * tx
    return top * (1.0 - ty) + bot * ty


def ripper_draft(
    width: float,
    depth: float,
    q_bank: float,
    cutting_coeff: float = 1.0,
) -> float:
    """Horizontal force to drag ripper tines seated `depth` into bank (N)."""
    if width <= 0.0:
        raise ValueError("tine width must be positive")
    if depth < 0.0:
        raise ValueError("ripping depth must be non-negative")
    return cutting_coeff * width * depth * q_bank


@dataclass
class VolumeAudit:
    """Mass balance of a terrain since construction."""

    bank_removed: float  # m^3 of undisturbed material cut
    loose_present: float  # m^3 of spoil resting on the map
    loose_carried: float  # m^3 of spoil checked out by machines

    @property
    def bank_equivalent_spoil(self) -> float:
        return (self.loose_present + self.loose_carried) / SWELL_FACTOR

    @property
    def residual(self) -> float:
        """Relative conservation error; zero for a closed earthworks."""
        scale = max(abs(self.bank_removed), abs(self.bank_equivalent_spoil), 1e-30)
        return abs(self.bank_removed - self.bank_equivalent_spoil) / scale


class Terrain:
    """Square-cell heightfield with bank, spoil, and crust state.

    Row index i maps to y, column index j to x; cell (0, 0) has its center
    at (origin_x + cell/2, origin_y + cell/2).  The tools name a cell by
    its flat index i * cols + j.

    The soil of a cell is the profile at its center, and it does not
    change during a run, so it is looked up once for the whole map:
    `cell_soils` holds the field's profiles and a raster of the index of
    each cell's profile among them.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        cell_size: float = DEFAULT_CELL_SIZE,
        origin: tuple[float, float] = (0.0, 0.0),
        soil: SoilField | SoilProfile | None = None,
        initial_surface: np.ndarray | None = None,
    ):
        if cell_size <= 0.0:
            raise ValueError("cell size must be positive")
        rows, cols = shape
        if rows < 1 or cols < 1:
            raise ValueError("terrain needs at least one cell")
        self.cell_size = float(cell_size)
        self.cell_area = self.cell_size * self.cell_size
        self.origin = (float(origin[0]), float(origin[1]))
        if isinstance(soil, SoilProfile):
            soil = SoilField(soil)
        if soil is None:
            from .soils import SOFT
            soil = SoilField(SOFT)
        self.soil = soil
        self.cell_soils = soil.profiles_on_grid(shape, self.cell_size, self.origin)

        if initial_surface is None:
            self.bank_floor = np.zeros(shape, dtype=float)
        else:
            if initial_surface.shape != shape:
                raise ValueError("initial surface shape mismatch")
            self.bank_floor = initial_surface.astype(float).copy()
        self.loose_depth = np.zeros(shape, dtype=float)
        # the same two maps by flat cell, for the tools' writes
        self._bank, self._loose = self.bank_floor.reshape(-1), self.loose_depth.reshape(-1)
        self.crust_broken = np.zeros(shape, dtype=bool)
        self._initial_bank = self.bank_floor.copy()
        # Spoil removed from the map surface and not yet put back (blade
        # loads); a stroke that takes back its tool work sets it back too.
        self.carried_out = 0.0

    @property
    def shape(self) -> tuple[int, int]:
        return self.bank_floor.shape

    # ------------------------------------------------------------------
    # Coordinates

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Cell containing the point; raises ValueError off the map."""
        j = (x - self.origin[0]) / self.cell_size
        i = (y - self.origin[1]) / self.cell_size
        rows, cols = self.shape
        # floor(v) is in [0, n) just when v is, which a NaN or inf is not
        if not (0.0 <= i < rows and 0.0 <= j < cols):
            raise ValueError(f"point ({x}, {y}) is off the map")
        return int(i), int(j)

    def cells_of(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """`cell_of` over arrays of points, with the same arithmetic, as
        flat indices i * cols + j: -1 where `cell_of` would raise."""
        rows, cols = self.shape
        j = np.floor((np.asarray(xs, dtype=float) - self.origin[0]) / self.cell_size)
        i = np.floor((np.asarray(ys, dtype=float) - self.origin[1]) / self.cell_size)
        on = (0 <= i) & (i < rows) & (0 <= j) & (j < cols)
        # a point off the map counts as row 0, column -1, so no arithmetic
        # meets an infinite coordinate
        return (np.where(on, i, 0) * cols + np.where(on, j, -1)).astype(np.intp)

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return (
            self.origin[0] + (j + 0.5) * self.cell_size,
            self.origin[1] + (i + 0.5) * self.cell_size,
        )

    def contains(self, x: float, y: float) -> bool:
        return on_grid(self.shape, self.cell_size, self.origin, x, y)

    # ------------------------------------------------------------------
    # Heights

    def surface(self) -> np.ndarray:
        return self.bank_floor + self.loose_depth

    def height_at(self, x: float, y: float) -> float:
        """Walking surface height, bilinear between cell centers.

        Interpolating keeps grades finite when a track crosses a cell
        boundary with a step in it.
        """
        if not self.contains(x, y):
            raise ValueError(f"point ({x}, {y}) is off the map")
        rows, cols = self.shape
        fx = (x - self.origin[0]) / self.cell_size - 0.5
        fy = (y - self.origin[1]) / self.cell_size - 0.5
        j0 = min(max(int(math.floor(fx)), 0), cols - 1)
        i0 = min(max(int(math.floor(fy)), 0), rows - 1)
        j1 = min(j0 + 1, cols - 1)
        i1 = min(i0 + 1, rows - 1)
        tx = min(max(fx - j0, 0.0), 1.0)
        ty = min(max(fy - i0, 0.0), 1.0)
        bank, loose = self.bank_floor, self.loose_depth
        return bilinear([bank.item(i, j) + loose.item(i, j) for i in (i0, i1) for j in (j0, j1)],
                        tx, ty)

    def bilinear_weights(self, points: np.ndarray) -> tuple[
            np.ndarray, np.ndarray, np.ndarray | None]:
        """The cells and weights `height_at` blends at each point.

        `points` stacks the x and the y coordinates on its first axis, and
        every step below works on both at once.  Returns (corners, t,
        inside): `corners` stacks the flat indices of the (i0, j0),
        (i0, j1), (i1, j0) and (i1, j1) cells on a new first axis, and `t`
        the fractions tx from j0 toward j1 and ty from i0 toward i1.  They
        depend on the points alone, so `bilinear` can blend heights read
        afresh after the terrain changes.  `inside` is False at points off the
        map, whose weights are clamped onto it.

        When every point lies half a cell or more inside the map, as its
        (i0, j0) cell shows, no clamp changes anything and none is applied,
        and `inside` is None: every point is on the map.
        """
        points = np.asarray(points, dtype=float)
        rows, cols = self.shape
        size = self.cell_size
        at = (slice(None),) + (None,) * (points.ndim - 1)  # one value per axis
        origin = np.array(self.origin)[at]
        f = (points - origin) / size - 0.5
        c0 = np.floor(f)
        if points[0].size:
            # the lowest and highest (j0, i0); a NaN fails every test below
            flat = c0.reshape(2, -1)
            (j_lo, i_lo), (j_hi, i_hi) = flat.min(axis=1).tolist(), flat.max(axis=1).tolist()
            if 0.0 <= j_lo and j_hi <= cols - 2 and 0.0 <= i_lo and i_hi <= rows - 2:
                corner = (c0[1] * cols + c0[0]).astype(np.intp)
                return np.add.outer((0, 1, cols, cols + 1), corner), f - c0, None
        last = np.array((cols - 1.0, rows - 1.0))[at]
        inside = (origin <= points) & (points < origin + np.array((cols, rows))[at] * size)
        # fmax and fmin clamp even a NaN coordinate onto the map
        c0 = np.fmin(np.fmax(c0, 0.0), last)
        t = np.fmin(np.fmax(f - c0, 0.0), 1.0)
        (j0, i0), (j1, i1) = c0, np.fmin(c0 + 1.0, last)
        row0, row1 = i0 * cols, i1 * cols
        corners = np.stack((row0 + j0, row0 + j1, row1 + j0, row1 + j1)).astype(np.intp)
        return corners, t, inside[0] & inside[1]

    def profile_at_cell(self, cell: int) -> SoilProfile:
        """The soil profile at the flat `cell`'s center, read from `cell_soils`."""
        profiles, index = self.cell_soils
        return profiles[index.item(cell)]

    # ------------------------------------------------------------------
    # Cut, fill, rip

    def rip(self, cell: int, depth_below_surface: float) -> float:
        """Loosen bank under the flat `cell` down to `depth_below_surface`.

        Tines pass through existing spoil for free; only bank below it is
        converted.  Returns the bank thickness loosened (m).
        """
        if depth_below_surface < 0.0:
            raise ValueError("ripping depth must be non-negative")
        loose = self.loose_depth.item(cell)
        bank_cut = max(0.0, depth_below_surface - loose)
        if bank_cut > 0.0:
            self._bank[cell] = self.bank_floor.item(cell) - bank_cut
            self._loose[cell] = loose + bank_cut * SWELL_FACTOR
        return bank_cut

    def excavate(self, cell: int, thickness: float) -> tuple[float, float]:
        """Remove `thickness` of material from the flat `cell`'s surface
        downward.

        Spoil is taken first, then bank.  Returns (loose_m3, bank_m3); the
        caller now carries loose_m3 + bank_m3 * SWELL_FACTOR of spoil.
        """
        if thickness < 0.0:
            raise ValueError("cut thickness must be non-negative")
        loose = self.loose_depth.item(cell)
        loose_cut = min(thickness, loose)
        bank_cut = thickness - loose_cut
        self._loose[cell] = loose - loose_cut
        self._bank[cell] = self.bank_floor.item(cell) - bank_cut
        loose_m3 = loose_cut * self.cell_area
        bank_m3 = bank_cut * self.cell_area
        self.carried_out += loose_m3 + bank_m3 * SWELL_FACTOR
        return loose_m3, bank_m3

    def deposit(self, cell: int, loose_m3: float) -> None:
        """Return carried spoil to the map at the flat `cell`."""
        if loose_m3 < 0.0:
            raise ValueError("deposited volume must be non-negative")
        self._loose[cell] = self.loose_depth.item(cell) + loose_m3 / self.cell_area
        self.carried_out -= loose_m3

    # ------------------------------------------------------------------
    # Spoil relaxation

    def relax(self, window: tuple[int, int, int, int] | None = None) -> int:
        """Avalanche over-steep spoil until every slope is at repose.

        Cells are swept in row-major order; each over-steep pair moves
        just enough spoil downhill to settle to the repose grade, so the
        result is deterministic and conserves spoil exactly.  A pair only
        triggers when its slope exceeds repose by more than the slack,
        which guarantees termination.  Spoil moves within the window and
        onto the one-cell rim around it.  Returns the number of sweeps.
        """
        rows, cols = self.shape
        i_lo, j_lo, i_hi, j_hi = (0, 0, rows, cols) if window is None else window
        i_lo, j_lo = min(max(i_lo, 0), rows), min(max(j_lo, 0), cols)
        i_hi, j_hi = min(max(i_hi, i_lo), rows), min(max(j_hi, j_lo), cols)
        # The sweep works on the columns of the window and its rim, c_lo:c_hi,
        # and a column's index below is its place among them.
        c_lo, c_hi = max(j_lo - 1, 0), min(j_hi + 1, cols)
        width = c_hi - c_lo
        # Every window cell that holds spoil now, row by row
        at, cs = divmod(np.flatnonzero(self.loose_depth[i_lo:i_hi, j_lo:j_hi] > 0.0),
                        max(j_hi - j_lo, 1))
        starts = np.searchsorted(at, np.arange(i_hi - i_lo + 1)).tolist()
        spoil_cols = (cs + (j_lo - c_lo)).tolist()

        # A row is taken up when the sweep first works next to it.  Spoil
        # moves in the map's own rows, through memoryviews; heights are
        # read from a copy of each row with one cell of infinite height at
        # its end, which no pair test triggers on.  Python's indexing puts
        # column -1, column `width`, row -1 and row `rows` all on such cells.
        edge = array("d", [math.inf]).tobytes()
        height: list = [None] * rows + [array("d", edge * (width + 1))]
        bank, loose = [None] * rows, [None] * rows
        # A cell found stable stays stable until a neighbour, or the cell,
        # loses spoil, so it is skipped until then; that skips only visits
        # that would move nothing, as a neighbour gaining spoil only makes
        # the cell's drops smaller.  The edge row's flags are never read.
        unsettled: list = [None] * rows + [bytearray(width + 1)]
        # Per window row, the columns that hold or have held spoil, in
        # order, a flag per column listed or outside the window, and per
        # column the index of its soil in `cell_soils`, whose neighbour
        # tests `by_soil` holds.  Only cells with spoil are visited, and
        # during a row's scan only the east neighbour of the visited cell
        # can gain spoil ahead of it.  Rim rows list nothing.
        spoil, listed, soil = [None] * rows, [None] * rows, [None] * rows
        profiles, index = self.cell_soils
        by_soil = [_neighbour_tests(p.repose_angle_deg, self.cell_size) for p in profiles]
        outside = bytearray(b"\x01") * (width + 1)
        outside[j_lo - c_lo:j_hi - c_lo] = bytes(j_hi - j_lo)

        def take_up(r: int) -> None:
            b, lo = self.bank_floor[r, c_lo:c_hi], self.loose_depth[r, c_lo:c_hi]
            bank[r], loose[r] = memoryview(b), memoryview(lo)
            height[r] = array("d", (b + lo).tobytes() + edge)
            unsettled[r] = bytearray(b"\x01") * (width + 1)
            if not i_lo <= r < i_hi:
                listed[r] = bytearray(b"\x01") * (width + 1)
                return
            spoil[r] = spoil_cols[starts[r - i_lo]:starts[r - i_lo + 1]]
            listed[r] = bytearray(outside)
            for c in spoil[r]:
                listed[r][c] = 1
            soil[r] = index[r, c_lo:c_hi].tolist()

        for sweeps in range(1, MAX_RELAX_PASSES + 1):
            moved = False
            for i in range(i_lo, i_hi):
                if not (spoil[i] or spoil[i] is None  # the row is not taken up
                        and starts[i - i_lo] < starts[i - i_lo + 1]):
                    continue
                for r in (i - 1, i, i + 1):
                    if height[r] is None:
                        take_up(r)
                bank_row, loose_row, height_row = bank[i], loose[i], height[i]
                unsettled_row, soil_row, behind = unsettled[i], soil[i], []
                # a column inserted ahead of j is the next this loop visits
                for j in spoil[i]:
                    if loose_row[j] <= 0.0 or not unsettled_row[j]:
                        continue
                    unsettled_row[j] = 0
                    h_c = height_row[j]
                    for di, dj, trigger, repose in by_soil[soil_row[j]]:
                        drop = h_c - height[i + di][j + dj]
                        if drop <= trigger:
                            continue
                        move = min(loose_row[j], 0.5 * (drop - repose))
                        if move <= 0.0:
                            continue
                        ni, nj = i + di, j + dj
                        loose_n = loose[ni]
                        loose_row[j] = left = loose_row[j] - move
                        loose_n[nj] = got = loose_n[nj] + move
                        h_c -= move
                        height_row[j] = bank_row[j] + left
                        height[ni][nj] = bank[ni][nj] + got
                        moved = True
                        if not listed[ni][nj]:
                            listed[ni][nj] = 1
                            if ni == i and nj < j:
                                behind.append(nj)
                            else:
                                insort(spoil[ni], nj)
                        for row in unsettled[i - 1], unsettled_row, unsettled[i + 1]:
                            row[j - 1] = row[j] = row[j + 1] = 1  # the 3x3 around the cell
                        if left <= 0.0:
                            break
                for c in behind:
                    insort(spoil[i], c)
            if not moved:
                return sweeps
        raise RuntimeError(f"spoil relaxation did not settle in rows {i_lo}:{i_hi}, "
                           f"columns {j_lo}:{j_hi} after {MAX_RELAX_PASSES} sweeps")

    def max_surface_slope_deg(self) -> float:
        """Steepest center-to-center surface grade on the map."""
        s = self.surface()
        worst = 0.0
        rows, cols = self.shape
        for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1)):
            a = s[max(0, -di):rows - max(0, di), max(0, -dj):cols - max(0, dj)]
            b = s[max(0, di):rows - max(0, -di), max(0, dj):cols - max(0, -dj)]
            dist = self.cell_size * (math.sqrt(2.0) if di and dj else 1.0)
            if a.size:
                worst = max(worst, float(np.max(np.abs(a - b))) / dist)
        return math.degrees(math.atan(worst))

    # ------------------------------------------------------------------
    # Audit

    def audit(self) -> VolumeAudit:
        bank_removed = float(np.sum(self._initial_bank - self.bank_floor)) * self.cell_area
        loose_present = float(np.sum(self.loose_depth)) * self.cell_area
        return VolumeAudit(
            bank_removed=bank_removed,
            loose_present=loose_present,
            loose_carried=self.carried_out,
        )
