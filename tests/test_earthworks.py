"""Terrain raster, cut/fill audit, spoil relaxation, tool drafts."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spikedozer import earthworks
from spikedozer.earthworks import (
    SWELL_FACTOR,
    Terrain,
    VolumeAudit,
    bilinear,
    ripper_draft,
)
from spikedozer.locomotion import CONSTRUCTION, price_steps
from spikedozer.soils import (
    EARTH,
    HARD,
    MEDIUM,
    MOON,
    SOFT,
    PatchSoilField,
    SoilField,
    SoilPatch,
    SoilProfile,
)


class TestBladeDraft:
    """The blade draft as the machine prices it: the face force of the
    cut plus the carried prism's ground drag."""

    def test_face_plus_prism_drag(self):
        # k_b w (d_l q_l + d_b q_b) + mu rho V g on level ground
        face = 0.01 * 3.0 * (0.1 * 50e3 + 0.05 * 960e3)
        drag = 0.8 * 1200.0 * 0.5 * 9.81
        draft, _, _ = price_steps(0.0, 1200.0, None, face, None, 0.5, 0.0,
                                  CONSTRUCTION, EARTH.gravity, None)
        assert draft == pytest.approx(face + drag)

    def test_empty_blade_off_the_ground_is_free(self):
        draft, _, _ = price_steps(0.0, 1200.0, None, 0.0, None, 0.0, 0.0,
                                  CONSTRUCTION, MOON.gravity, None)
        assert draft == 0.0

    def test_drag_scales_with_gravity(self):
        assert CONSTRUCTION.prism_drag(1.0, 1200.0, 9.81) \
            == pytest.approx(6.0 * CONSTRUCTION.prism_drag(1.0, 1200.0, 9.81 / 6.0))

    def test_validation(self):
        # blade width, cut depth and the capacity that bounds the prism
        with pytest.raises(ValueError):
            replace(CONSTRUCTION, blade_width=0.0)
        with pytest.raises(ValueError):
            replace(CONSTRUCTION, blade_max_cut=-0.1)
        with pytest.raises(ValueError):
            replace(CONSTRUCTION, blade_capacity=-1.0)


class TestRipperDraft:
    def test_linear_in_depth_and_resistance(self):
        assert ripper_draft(0.3, 0.2, 960e3) == pytest.approx(0.3 * 0.2 * 960e3)
        assert ripper_draft(0.3, 0.0, 960e3) == 0.0

    def test_cutting_coeff(self):
        assert ripper_draft(0.3, 0.2, 1e6, cutting_coeff=1.5) \
            == pytest.approx(1.5 * 0.3 * 0.2 * 1e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ripper_draft(0.0, 0.2, 1e6)
        with pytest.raises(ValueError):
            ripper_draft(0.3, -0.2, 1e6)


class TestTerrainGrid:
    def test_cell_round_trip(self):
        t = Terrain((8, 12), cell_size=0.5, origin=(-1.0, 2.0))
        assert t.cell_center(0, 0) == (-0.75, 2.25)
        assert t.cell_center(7, 11) == (4.75, 5.75)
        for i, j in [(0, 0), (7, 11), (3, 5)]:
            x, y = t.cell_center(i, j)
            assert t.cell_of(x, y) == (i, j)

    def test_off_map_raises(self):
        t = Terrain((4, 4), cell_size=1.0)
        with pytest.raises(ValueError):
            t.cell_of(-0.01, 2.0)
        with pytest.raises(ValueError):
            t.cell_of(2.0, 4.01)
        assert t.contains(0.0, 0.0)
        assert not t.contains(4.0, 0.0)

    def test_flat_ground_is_level_everywhere(self):
        t = Terrain((6, 6), cell_size=0.5)
        assert t.height_at(1.3, 2.7) == 0.0
        assert t.max_surface_slope_deg() == 0.0

    def test_height_interpolates_between_cell_centers(self):
        t = Terrain((2, 2), cell_size=1.0)
        t.bank_floor[:, 1] = 1.0
        # centers at x = 0.5 and 1.5; halfway should blend
        assert t.height_at(0.5, 0.5) == pytest.approx(0.0)
        assert t.height_at(1.5, 0.5) == pytest.approx(1.0)
        assert t.height_at(1.0, 0.5) == pytest.approx(0.5)

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_array_sampling_matches_point_sampling_exactly(self, data):
        rows = data.draw(st.integers(1, 6), label="rows")
        cols = data.draw(st.integers(1, 6), label="cols")
        size = data.draw(st.sampled_from([0.1, 0.25, 0.3, 1.0]), label="size")
        ox = data.draw(st.floats(-5.0, 5.0), label="ox")
        oy = data.draw(st.floats(-5.0, 5.0), label="oy")
        t = Terrain((rows, cols), cell_size=size, origin=(ox, oy))
        heights = st.floats(-2.0, 2.0)
        t.bank_floor[:] = np.reshape(data.draw(st.lists(
            heights, min_size=rows * cols, max_size=rows * cols)), (rows, cols))
        t.loose_depth[:] = np.abs(np.reshape(data.draw(st.lists(
            heights, min_size=rows * cols, max_size=rows * cols)), (rows, cols)))

        def coordinate(lo, n):
            hi = lo + n * size
            return st.one_of(
                st.floats(lo - size, hi + size),  # anywhere, off the map too
                st.integers(0, n - 1).map(lambda k: lo + (k + 0.5) * size),  # center lines
                st.integers(0, n).map(lambda k: lo + k * size),  # cell edges
                st.sampled_from([lo, hi, math.nextafter(hi, lo),
                                 math.nextafter(lo, -math.inf)]),  # the border
                st.sampled_from([math.inf, -math.inf, math.nan]),  # off any map
            )

        points = data.draw(st.lists(st.tuples(coordinate(ox, cols), coordinate(oy, rows)),
                                    min_size=1, max_size=40), label="points")
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        corners, w, inside = t.bilinear_weights(np.stack((xs, ys)))
        h = bilinear(t.bank_floor.take(corners) + t.loose_depth.take(corners), *w)
        cells = t.cells_of(xs, ys)
        for k, (x, y) in enumerate(points):
            try:
                expected = t.height_at(x, y)
            except ValueError:
                assert not inside[k]
            else:
                assert (inside is None or inside[k]) and h[k] == expected
            try:
                cell = t.cell_of(x, y)
            except ValueError:
                assert cells[k] == -1
            else:
                assert divmod(int(cells[k]), cols) == cell

    @pytest.mark.parametrize("x, y", [(0.0, 2.3), (-0.6, 2.75)], ids=["far_column", "far_row"])
    def test_a_point_on_a_far_edge_is_off_the_map_in_any_batch(self, x, y):
        # The other points of the batch are on the map, so only the far
        # edge itself takes this one off: `cells_of` gives -1 where
        # `cell_of` refuses it.
        t = Terrain((3, 4), cell_size=0.25, origin=(-1.0, 2.0))
        xs, ys = [-1.0, -0.6, x], [2.0, 2.6, y]
        with pytest.raises(ValueError, match="off the map"):
            t.cell_of(x, y)
        on = [i * 4 + j for i, j in map(t.cell_of, xs[:2], ys[:2])]
        assert t.cells_of(np.array(xs), np.array(ys)).tolist() == on + [-1]

    @given(st.data())
    # no shrinking: a failing draw is reported as found, not minutes later
    @settings(deadline=None, max_examples=300,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    def test_weights_equal_the_clamped_formula_inside_and_across_the_edge(self, data):
        # A batch wholly half a cell or more inside the map skips the
        # clamps; one point nearer the edge, or a NaN, takes them all, and
        # so do batches of points each near an edge.
        rows = data.draw(st.integers(2, 8), label="rows")
        cols = data.draw(st.integers(2, 8), label="cols")
        size = data.draw(st.sampled_from([0.1, 0.125, 0.15, 0.2, 0.25, 0.3, 1.0]), label="size")
        ox = data.draw(st.floats(-5.0, 5.0), label="ox")
        oy = data.draw(st.floats(-5.0, 5.0), label="oy")
        t = Terrain((rows, cols), cell_size=size, origin=(ox, oy))
        t.bank_floor[:] = np.reshape(data.draw(st.lists(
            st.floats(-2.0, 2.0), min_size=rows * cols, max_size=rows * cols)), (rows, cols))

        def inner(lo, n):
            return st.floats(lo + 0.5 * size, lo + (n - 0.5) * size, exclude_max=True)

        def ulps(edge):  # the edge and its neighbours 1 and 2 ulp away
            down, up = math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)
            return st.sampled_from([math.nextafter(down, -math.inf), down, edge, up,
                                    math.nextafter(up, math.inf)])

        def near_edge(lo, n):
            return st.one_of(st.floats(lo - size, lo + size),
                             st.floats(lo + (n - 1) * size, lo + (n + 1) * size),
                             ulps(lo), ulps(lo + n * size))

        m = data.draw(st.integers(1, 20), label="m")
        points = data.draw(st.lists(st.tuples(inner(ox, cols), inner(oy, rows)),
                                    min_size=2 * m, max_size=2 * m), label="points")
        # "edges" twice, as an ulp from an edge only some origins and sizes
        # round a point across it
        kind = data.draw(st.sampled_from(["inside", "straddle", "edges", "edges", "nan"]),
                         label="kind")
        near = st.one_of(st.tuples(near_edge(ox, cols), inner(oy, rows)),
                         st.tuples(inner(ox, cols), near_edge(oy, rows)))
        if kind == "edges":
            points = data.draw(st.lists(near, min_size=2 * m, max_size=2 * m), label="edges")
        elif kind != "inside":
            k = data.draw(st.integers(0, 2 * m - 1), label="k")
            if kind == "nan":
                points[k] = data.draw(st.sampled_from(
                    [(math.nan, points[k][1]), (points[k][0], math.nan)]), label="nan")
            else:
                points[k] = data.draw(near, label="edge")
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        if data.draw(st.booleans(), label="as a stroke"):  # (fore, aft) x steps
            xs, ys = xs.reshape(2, m), ys.reshape(2, m)

        # the clamped formula, coordinate by coordinate, as every batch took it before
        fx = (xs - ox) / size - 0.5
        fy = (ys - oy) / size - 0.5
        j0 = np.fmin(np.fmax(np.floor(fx), 0.0), cols - 1)
        i0 = np.fmin(np.fmax(np.floor(fy), 0.0), rows - 1)
        j1 = np.fmin(j0 + 1.0, cols - 1)
        i1 = np.fmin(i0 + 1.0, rows - 1)
        corners = np.stack((i0 * cols + j0, i0 * cols + j1, i1 * cols + j0,
                            i1 * cols + j1)).astype(np.intp)
        w = np.stack((np.fmin(np.fmax(fx - j0, 0.0), 1.0), np.fmin(np.fmax(fy - i0, 0.0), 1.0)))
        # on the map by the cell rule, as `cell_of` reads it
        inside = ((0.0 <= (xs - ox) / size) & ((xs - ox) / size < cols)
                  & (0.0 <= (ys - oy) / size) & ((ys - oy) / size < rows))
        # the clamps change nothing just when every (i0, j0) is at least
        # one cell from the far edges; a NaN never is
        unclamped = bool(np.all((0.0 <= np.floor(fx)) & (np.floor(fx) <= cols - 2)
                                & (0.0 <= np.floor(fy)) & (np.floor(fy) <= rows - 2)))

        got_corners, got_w, got_inside = t.bilinear_weights(np.stack((xs, ys)))
        for a, b in ((got_corners, corners), (got_w, w)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
        if unclamped:
            assert got_inside is None and inside.all()
        else:
            assert got_inside.dtype == inside.dtype and got_inside.shape == inside.shape
            assert np.array_equal(got_inside, inside)
        heights = bilinear(t.bank_floor.take(got_corners) + t.loose_depth.take(got_corners),
                           *got_w).ravel()
        # Five answers to whether a point is on the map, which agree even an
        # ulp from an edge: `contains`, `cell_of`, `cells_of`, `height_at`
        # and, where it is given, `inside`.
        cells = t.cells_of(xs, ys).ravel().tolist()
        given_inside = [None] * len(cells) if got_inside is None else got_inside.ravel().tolist()
        for h, x, y, cell, on in zip(heights, xs.ravel().tolist(), ys.ravel().tolist(), cells,
                                     given_inside):
            answers = {t.contains(x, y), cell != -1} | ({on} if on is not None else set())
            for ask in t.cell_of, t.height_at:
                try:
                    ask(x, y)
                except ValueError as err:
                    assert "off the map" in str(err)
                    answers.add(False)
                else:
                    answers.add(True)
            assert len(answers) == 1, (x, y)
            if answers == {True}:
                assert h == t.height_at(x, y)

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_soil_index_is_the_profile_at_every_cell_center(self, data):
        rows = data.draw(st.integers(1, 8), label="rows")
        cols = data.draw(st.integers(1, 8), label="cols")
        size = data.draw(st.sampled_from([0.1, 0.125, 0.25, 0.3, 1.0]), label="size")
        ox = data.draw(st.floats(-5.0, 5.0), label="ox")
        oy = data.draw(st.floats(-5.0, 5.0), label="oy")

        def bound(lo, n):
            return st.one_of(
                st.integers(0, n - 1).map(lambda k: lo + (k + 0.5) * size),  # on a center
                st.integers(-1, n + 1).map(lambda k: lo + k * size),  # on a cell edge
                st.floats(lo - 2.0 * size, lo + (n + 2) * size),  # off the map too
                st.sampled_from([-1e9, 1e9]))  # past either side

        def span(lo, n):  # a zero width when both ends are drawn alike
            return st.lists(bound(lo, n), min_size=2, max_size=2).map(sorted)

        # HARD's twin is equal to HARD but another object, so `is` tells them apart
        twin = SoilProfile(name="hard", layers=HARD.layers,
                           anchor_work_slope=HARD.anchor_work_slope)
        patches = data.draw(st.lists(st.builds(
            lambda x, y, p: SoilPatch(x[0], y[0], x[1], y[1], p),
            span(ox, cols), span(oy, rows), st.sampled_from([HARD, MEDIUM, twin])),
            max_size=6), label="patches")
        soil = data.draw(st.sampled_from([PatchSoilField(SOFT, patches), SoilField(SOFT)]),
                         label="field")
        t = Terrain((rows, cols), cell_size=size, origin=(ox, oy), soil=soil)
        profiles, index = t.cell_soils
        assert profiles == [SOFT] + [p.profile for p in soil.patches]
        assert index.shape == (rows, cols)
        assert index.dtype == np.min_scalar_type(len(soil.patches))
        for i in range(rows):
            for j in range(cols):
                want = soil.profile_at(*t.cell_center(i, j))
                assert t.profile_at_cell(i * cols + j) is want
                assert profiles[index[i, j]] is want

    def test_initial_surface_copied_not_aliased(self):
        init = np.ones((3, 3))
        t = Terrain((3, 3), initial_surface=init)
        t.bank_floor[0, 0] = 5.0
        assert init[0, 0] == 1.0
        assert t.audit().bank_removed == pytest.approx(-4.0 * t.cell_area)


class TestCutFillAudit:
    def test_rip_swells_bank_into_spoil(self):
        t = Terrain((3, 3))
        cut = t.rip(4, 0.2)  # cell (1, 1), flat index 1 * 3 + 1
        assert cut == pytest.approx(0.2)
        assert t.bank_floor[1, 1] == pytest.approx(-0.2)
        assert t.loose_depth[1, 1] == pytest.approx(0.2 * SWELL_FACTOR)
        assert t.audit().residual < 1e-12

    def test_rip_passes_through_existing_spoil(self):
        t = Terrain((3, 3))
        t.rip(4, 0.2)
        loose0 = float(t.loose_depth[1, 1])
        # tines reach 0.1 below the surface; that is all spoil already
        assert t.rip(4, 0.1) == 0.0
        assert t.loose_depth[1, 1] == loose0

    def test_excavate_takes_spoil_before_bank(self):
        t = Terrain((3, 3))
        t.rip(4, 0.1)  # 0.13 of loose on top
        loose_m3, bank_m3 = t.excavate(4, 0.2)
        assert loose_m3 == pytest.approx(0.13 * t.cell_area)
        assert bank_m3 == pytest.approx(0.07 * t.cell_area)

    def test_carry_and_deposit_closes_the_books(self):
        t = Terrain((5, 5))
        _, bank_m3 = t.excavate(12, 0.3)  # cell (2, 2)
        carried = bank_m3 * SWELL_FACTOR
        audit = t.audit()
        assert audit.loose_carried == pytest.approx(carried)
        assert audit.residual < 1e-12
        t.deposit(0, carried)
        audit = t.audit()
        assert audit.loose_carried == pytest.approx(0.0)
        assert audit.residual < 1e-12

    def test_deposit_negative_rejected(self):
        t = Terrain((3, 3))
        with pytest.raises(ValueError):
            t.deposit(0, -0.1)

    @given(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4),
                  st.floats(min_value=0.0, max_value=0.4)),
        min_size=1, max_size=12))
    @settings(deadline=None)
    def test_any_cut_sequence_conserves_volume(self, ops):
        t = Terrain((5, 5))
        carried = 0.0
        for i, j, thick in ops:
            loose_m3, bank_m3 = t.excavate(i * 5 + j, thick)
            carried += loose_m3 + bank_m3 * SWELL_FACTOR
        t.deposit(4, carried)
        assert t.audit().residual < 1e-9


class TestRelaxation:
    def _piled(self):
        t = Terrain((15, 15), cell_size=0.25, soil=SOFT)
        t.loose_depth[7, 7] = 2.0  # far steeper than repose over 0.25 m
        return t

    def test_settles_to_repose(self):
        t = self._piled()
        t.relax()
        limit = SOFT.repose_angle_deg + 0.5 + 1e-6
        assert t.max_surface_slope_deg() <= limit

    def test_conserves_spoil_exactly(self):
        t = self._piled()
        before = float(np.sum(t.loose_depth))
        t.relax()
        assert float(np.sum(t.loose_depth)) == pytest.approx(before, abs=1e-10)

    def test_deterministic(self):
        a = self._piled()
        b = self._piled()
        a.relax()
        b.relax()
        assert np.array_equal(a.loose_depth, b.loose_depth)

    def test_window_limits_the_sweep(self):
        t = Terrain((20, 20), cell_size=0.25, soil=SOFT)
        t.loose_depth[3, 3] = 2.0
        t.loose_depth[16, 16] = 2.0
        t.relax(window=(0, 0, 8, 8))
        assert t.loose_depth[3, 3] < 2.0
        assert t.loose_depth[16, 16] == 2.0

    def test_below_trigger_does_not_move(self):
        t = Terrain((9, 9), cell_size=0.25, soil=SOFT)
        # just under the repose grade over one cell pitch
        t.loose_depth[4, 4] = 0.25 * math.tan(math.radians(40.0))
        before = t.loose_depth.copy()
        t.relax()
        assert np.array_equal(t.loose_depth, before)

    def test_steep_bank_step_without_spoil_is_stable(self):
        t = Terrain((6, 6), cell_size=0.25, soil=SOFT)
        t.bank_floor[:3, :] = 1.0
        before = t.bank_floor.copy()
        t.relax()
        assert np.array_equal(t.bank_floor, before)
        assert float(np.sum(t.loose_depth)) == 0.0


def reference_relax(t, window=None):
    """`Terrain.relax` written plainly, as the oracle for its bytes.

    Every sweep visits every cell of the window that holds spoil, in
    row-major order, and works out its thresholds afresh; spoil may move
    onto the one-cell rim around the window but no further.  The pair
    trigger, the move arithmetic (the visited cell's height is carried
    down by each move, not re-read), the sweep count and the partial
    sweep written back on giving up are those of the simulator's.
    """
    rows, cols = t.shape
    i_lo, j_lo, i_hi, j_hi = (0, 0, rows, cols) if window is None else window
    i_lo, j_lo, i_hi, j_hi = max(i_lo, 0), max(j_lo, 0), min(i_hi, rows), min(j_hi, cols)
    r_lo, c_lo = max(i_lo - 1, 0), max(j_lo - 1, 0)
    r_hi, c_hi = min(i_hi + 1, rows), min(j_hi + 1, cols)
    bank, loose = t.bank_floor.tolist(), t.loose_depth.tolist()
    neighbors = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
    try:
        for sweeps in range(1, earthworks.MAX_RELAX_PASSES + 1):
            moved = False
            for i in range(i_lo, i_hi):
                for j in range(j_lo, j_hi):
                    if loose[i][j] <= 0.0:
                        continue
                    profile = t.profile_at_cell(i * cols + j)
                    tan_repose = math.tan(math.radians(profile.repose_angle_deg))
                    tan_trigger = math.tan(math.radians(
                        profile.repose_angle_deg + earthworks.REPOSE_SLACK_DEG))
                    h_c = bank[i][j] + loose[i][j]
                    for di, dj in neighbors:
                        ni, nj = i + di, j + dj
                        if not (r_lo <= ni < r_hi and c_lo <= nj < c_hi):
                            continue
                        dist = t.cell_size * (math.sqrt(2.0) if di and dj else 1.0)
                        drop = h_c - (bank[ni][nj] + loose[ni][nj])
                        if drop <= tan_trigger * dist:
                            continue
                        move = min(loose[i][j], 0.5 * (drop - tan_repose * dist))
                        if move <= 0.0:
                            continue
                        loose[i][j] -= move
                        loose[ni][nj] += move
                        h_c -= move
                        moved = True
                        if loose[i][j] <= 0.0:
                            break
            if not moved:
                return sweeps
    finally:
        t.loose_depth[...] = loose
    raise RuntimeError("spoil relaxation did not settle")


REPOSE_ANGLES = st.sampled_from([25.0, 34.0, 41.0, 50.0])
# thin layers and tall piles, which avalanche over many sweeps
SPOIL = st.one_of(st.just(0.0), st.just(-0.0), st.floats(1e-6, 0.05), st.floats(0.3, 3.0))
WINDOW_BOUND = st.integers(-6, 30)


@st.composite
def relax_cases(draw):
    """A terrain with spoil on stepped bank over patchy soil, and a window."""
    rows = draw(st.integers(1, 24), label="rows")
    cols = draw(st.integers(1, 24), label="cols")
    size = draw(st.sampled_from([0.1, 0.125, 0.25]), label="size")
    patches = []
    for _ in range(draw(st.integers(0, 3), label="patches")):
        x0 = draw(st.floats(0.0, cols * size))
        y0 = draw(st.floats(0.0, rows * size))
        x1 = draw(st.floats(x0, cols * size))
        y1 = draw(st.floats(y0, rows * size))
        profile = replace(SOFT, repose_angle_deg=draw(REPOSE_ANGLES))
        patches.append(SoilPatch(x0, y0, x1, y1, profile))
    t = Terrain((rows, cols), cell_size=size, origin=(0.0, 0.0),
                soil=PatchSoilField(replace(SOFT, repose_angle_deg=draw(REPOSE_ANGLES)),
                                    patches))
    t.bank_floor[...] = draw(hnp.arrays(
        np.float64, (rows, cols), elements=st.sampled_from([0.0, 0.0, 0.1, -0.2, 0.35])),
        label="bank")
    t.loose_depth[...] = draw(hnp.arrays(
        np.float64, (rows, cols), elements=st.one_of(st.just(0.0), SPOIL), fill=st.nothing()),
        label="spoil")
    window = draw(st.one_of(st.none(), st.tuples(WINDOW_BOUND, WINDOW_BOUND,
                                                 WINDOW_BOUND, WINDOW_BOUND)), label="window")
    return t, window


def piled_with_audit(shape=(14, 14), pile=(7, 7), dug=tuple((1, j) for j in range(12)),
                     soil=SOFT):
    """A terrain whose spoil was dug from bank and dumped in one cell, so
    that `audit` closes."""
    t = Terrain(shape, cell_size=0.125, soil=soil)
    carried = 0.0
    for i, j in dug:
        loose_m3, bank_m3 = t.excavate(i * shape[1] + j, 0.4)
        carried += loose_m3 + bank_m3 * SWELL_FACTOR
    t.deposit(pile[0] * shape[1] + pile[1], carried)
    return t


def _copy(t):
    c = Terrain(t.shape, cell_size=t.cell_size, origin=t.origin, soil=t.soil,
                initial_surface=t.bank_floor)
    c.loose_depth[...] = t.loose_depth
    return c


class TestRelaxationOracle:
    @settings(max_examples=100, deadline=None)
    @given(case=relax_cases())
    @example(case=(piled_with_audit(), None))
    @example(case=(piled_with_audit(), (7, 7, 8, 8)))
    @example(case=(piled_with_audit(), (-3, 5, 9, 30)))
    @example(case=(piled_with_audit(), (20, 20, 30, 30)))
    @example(case=(piled_with_audit(), (-9, -9, -2, -2)))
    @example(case=(piled_with_audit(), (8, 8, 6, 9)))
    @example(case=(piled_with_audit((1, 9), (0, 4), ((0, 0),)), None))
    @example(case=(piled_with_audit((9, 1), (4, 0), ((0, 0),)), None))
    # the pile sits on steep soil whose patch starts east of the window's
    # first column, over shallow soil west of it
    @example(case=(piled_with_audit(soil=PatchSoilField(
        replace(SOFT, repose_angle_deg=25.0),
        [SoilPatch(0.75, 0.0, 1.75, 1.75, replace(SOFT, repose_angle_deg=50.0))])),
        (2, 5, 12, 12)))
    def test_same_bytes_and_sweeps_as_the_reference(self, case):
        t, window = case
        ref = _copy(t)
        bank = t.bank_floor.tobytes()
        sweeps = t.relax(window)
        assert sweeps == reference_relax(ref, window)
        assert t.loose_depth.tobytes() == ref.loose_depth.tobytes()
        assert t.bank_floor.tobytes() == bank

    @pytest.mark.parametrize("limit", [1, 3, 6])
    @pytest.mark.parametrize("window, where", [
        (None, "rows 0:14, columns 0:14"),
        ((4, 3, 11, 12), "rows 4:11, columns 3:12"),
        ((-2, 5, 30, 12), "rows 0:14, columns 5:12"),
    ])
    def test_giving_up_keeps_the_partial_sweep_and_names_the_window(
            self, monkeypatch, limit, window, where):
        monkeypatch.setattr(earthworks, "MAX_RELAX_PASSES", limit)
        t = piled_with_audit()
        ref = _copy(t)
        with pytest.raises(RuntimeError) as err:
            t.relax(window)
        with pytest.raises(RuntimeError):
            reference_relax(ref, window)
        assert t.loose_depth.tobytes() == ref.loose_depth.tobytes()
        assert t.loose_depth[7, 7] < piled_with_audit().loose_depth[7, 7]
        assert t.audit().residual < 1e-9
        assert str(err.value) == (
            f"spoil relaxation did not settle in {where} after {limit} sweeps")


class TestSlopes:
    def test_slope_of_uniform_ramp(self):
        t = Terrain((9, 9), cell_size=0.5)
        for j in range(9):
            t.bank_floor[:, j] = 0.1 * j * 0.5
        # tan(theta) = 0.1; the diagonals are shallower
        assert t.max_surface_slope_deg() == pytest.approx(math.degrees(math.atan(0.1)))

    def test_max_slope_sees_diagonals(self):
        t = Terrain((4, 4), cell_size=1.0)
        t.bank_floor[2:, 2:] = 0.5
        assert t.max_surface_slope_deg() \
            == pytest.approx(math.degrees(math.atan(0.5)))


class TestVolumeAudit:
    def test_residual_zero_when_closed(self):
        audit = VolumeAudit(bank_removed=2.0, loose_present=1.3,
                            loose_carried=1.3)
        assert audit.bank_equivalent_spoil == pytest.approx(2.0)
        assert audit.residual < 1e-15

    def test_residual_is_relative(self):
        audit = VolumeAudit(bank_removed=100.0, loose_present=129.99,
                            loose_carried=0.0)
        # 0.01 m^3 of loose shortfall is 0.01/1.3 bank-equivalent
        assert audit.residual == pytest.approx(0.01 / 1.3 / 100.0, rel=1e-6)
