"""Pad mission planning: layout, budget, validation, and execution."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikedozer.earthworks import SWELL_FACTOR
from spikedozer import planner
from spikedozer.locomotion import CONSTRUCTION, REFERENCE, price_steps
from spikedozer.errors import SimulationError
from spikedozer.planner import (
    CLAIM_MARGIN,
    LANE_ALIGNMENT_MARGIN,
    PadSpec,
    Trip,
    _claim_lanes,
    describe_plan,
    estimate_energy,
    execute_plan,
    plan_pad_mission,
    predict_peak_draft,
    validate_plan,
)
from spikedozer.sensing import PenetrationRecorder
from spikedozer.soils import (
    EARTH,
    MARS,
    MOON,
    SOFT,
    MEDIUM,
    Duricrust,
    SoilField,
    SoilLayer,
    SoilProfile,
)
from spikedozer.traction import flip_margin


@pytest.fixture(scope="module")
def plan():
    return plan_pad_mission(PadSpec(), CONSTRUCTION, MOON, SOFT)


@pytest.fixture(scope="module")
def small_result():
    plan = plan_pad_mission(PadSpec(radius=4.0), CONSTRUCTION, MOON, SOFT)
    recorder = PenetrationRecorder(SoilField(SOFT))
    return plan, execute_plan(plan, MOON, SOFT, recorder=recorder)


class TestPadSpec:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            PadSpec(radius=-1.0)
        with pytest.raises(ValueError):
            PadSpec(cell_size=0.0)
        with pytest.raises(ValueError):
            PadSpec(berm_setback=-2.0)
        with pytest.raises(ValueError):
            PadSpec(max_push_distance=0.0)

    def test_depth_doctrine_band(self):
        # too shallow to contain exhaust scour, too deep to be worth it
        with pytest.raises(ValueError, match="depth"):
            PadSpec(depth=0.2)
        with pytest.raises(ValueError, match="depth"):
            PadSpec(depth=0.6)
        assert PadSpec(depth=0.2, force_depth_override=True).depth == 0.2


class TestPlanLayout:
    def test_lane_and_lift_counts(self, plan):
        assert plan.n_lanes == 63
        assert plan.n_lifts == 2
        assert plan.lift_depth == pytest.approx(0.2)
        assert len(plan.trips) == 504

    def test_planned_volume_matches_the_disk(self, plan):
        analytic = math.pi * 20.0**2 * 0.4
        assert plan.planned_bank_volume == pytest.approx(analytic, rel=0.02)

    def test_claims_partition_the_pad(self, plan):
        owned = int(np.sum(plan.claims >= 0))
        assert owned * plan.pad.cell_size**2 == pytest.approx(
            math.pi * 400.0, rel=0.01)
        # each trip's cells belong to its own lane
        for trip in plan.trips[::37]:
            assert all(plan.claims[c] == trip.lane for c in trip.cells)

    def test_trip_volumes_respect_the_blade(self, plan):
        for trip in plan.trips:
            assert trip.volume_loose <= CONSTRUCTION.blade_capacity + 1e-9

    def test_deposits_retreat_along_each_lane(self, plan):
        for lane in (0, 17, 62):
            deposits = [t.deposit_r for t in plan.trips if t.lane == lane]
            assert all(a > b for a, b in zip(deposits, deposits[1:]))
            assert min(deposits) >= plan.pad.radius + plan.pad.berm_setback

    def test_lift_targets(self, plan):
        assert sorted({t.target_elevation for t in plan.trips}) == [-0.4, -0.2]

    def test_azimuths_fan_the_circle(self, plan):
        lanes = {t.lane: t.azimuth_deg for t in plan.trips}
        assert lanes[0] == 0.0
        assert lanes[21] == pytest.approx(120.0)

    def test_zero_radius_is_an_empty_plan(self):
        plan = plan_pad_mission(PadSpec(radius=0.0), CONSTRUCTION, MOON, SOFT)
        assert plan.trips == []
        assert plan.planned_bank_volume == 0.0
        assert plan.energy_budget == 0.0

    def test_push_cap_binds_at_planning_time(self):
        with pytest.raises(ValueError, match="push cap"):
            plan_pad_mission(PadSpec(max_push_distance=25.0),
                             CONSTRUCTION, MOON, SOFT)

    @given(radius=st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 14.0)),
           cap=st.floats(3.0, 10.0),
           cell_size=st.sampled_from([0.125, 0.25, 0.5]),
           depth=st.sampled_from([0.25, 0.4]))
    @settings(deadline=None, max_examples=80)
    def test_early_push_cap_rejection_is_sound(self, radius, cap, cell_size,
                                               depth):
        # The cap is checked twice: from the pad geometry before the claim
        # pass, and on every planned trip.  Either way a plan is refused
        # exactly when one of its trips pushes farther than the cap.  In
        # one lift the innermost trip's push is close to the longest.
        pad = PadSpec(radius=radius, cell_size=cell_size, depth=depth,
                      max_push_distance=cap, force_depth_override=True)
        lifted = plan_pad_mission(replace(pad, max_push_distance=1000.0),
                                  CONSTRUCTION, MOON, SOFT)
        longest = max((t.deposit_r - t.start_r for t in lifted.trips),
                      default=0.0)
        try:
            plan_pad_mission(pad, CONSTRUCTION, MOON, SOFT)
        except ValueError as err:
            assert "push cap binds" in str(err)
            assert longest > cap
        else:
            assert longest <= cap

    def test_push_cap_binds_before_the_claim_pass(self, monkeypatch):
        # The claim window of a 1 km pad at 0.25 m cells is 8002 x 8002.
        def claim(*args):
            raise AssertionError("the claim pass ran")
        monkeypatch.setattr(planner, "_claim_lanes", claim)
        with pytest.raises(ValueError, match="nearest the pad center"):
            plan_pad_mission(PadSpec(radius=1000.0), CONSTRUCTION, MOON, SOFT)

    def test_describe_is_a_full_listing(self, plan):
        text = describe_plan(plan)
        assert text.startswith("pad mission plan")
        assert len(text.strip().splitlines()) == 7 + len(plan.trips)


def full_grid_layout(pad, vehicle):
    """Claims and trips laid out the slow way: a claim pass over the pad
    window for the lane loads, then a second pass, one lane at a time,
    over the whole grid, and a (-R, i, j) key sort of each lane's cells.
    Trip spans come from that pass's radius array."""
    cell = pad.cell_size
    n_lanes = max(4, math.ceil(2.0 * math.pi * pad.radius
                               / (vehicle.blade_width - LANE_ALIGNMENT_MARGIN)))
    lane_width = 2.0 * math.pi * pad.radius / n_lanes
    n_lifts = max(1, math.ceil(pad.depth / vehicle.blade_max_cut))
    lift_depth = pad.depth / n_lifts
    vol_per_cell = cell * cell * lift_depth * SWELL_FACTOR
    cells_per_trip = max(1, math.floor(vehicle.blade_capacity / vol_per_cell))

    def claim(n_cells, origin):
        idx = (np.arange(n_cells) + 0.5) * cell
        X = origin + idx[np.newaxis, :]
        Y = origin + idx[:, np.newaxis]
        R = np.hypot(X, Y)
        claims = np.full((n_cells, n_cells), -1, dtype=np.int32)
        in_pad = R <= pad.radius
        for lane in range(n_lanes):
            az = 2.0 * math.pi * lane / n_lanes
            dx, dy = math.cos(az), math.sin(az)
            along = X * dx + Y * dy
            perp = -X * dy + Y * dx
            wedge = in_pad & (claims < 0) & (along >= 0.0) \
                & (np.abs(perp) <= 0.5 * lane_width)
            claims[wedge] = lane
        assert not np.any(in_pad & (claims < 0))
        return claims, R

    local_half = math.ceil((pad.radius + cell) / cell)
    local, _ = claim(2 * local_half, -local_half * cell)
    lane_trips = [n_lifts * math.ceil(int(np.sum(local == lane)) / cells_per_trip)
                  for lane in range(n_lanes)]
    reach = 0.5 * (vehicle.base_separation + vehicle.stroke_length) \
        + vehicle.blade_lead
    deposit_r_max = pad.radius + pad.berm_setback \
        + pad.berm_ring_spacing * max(0, max(lane_trips) - 1)
    cells_half = math.ceil((deposit_r_max + reach + 6.0) / cell)
    claims, R = claim(2 * cells_half, -cells_half * cell)

    trips = []
    for lane in range(n_lanes):
        ii, jj = np.nonzero(claims == lane)
        order = sorted(
            range(len(ii)),
            key=lambda k: (-float(R[ii[k], jj[k]]), int(ii[k]), int(jj[k])))
        cells = [(int(ii[k]), int(jj[k])) for k in order]
        seq = 0
        for lift in range(n_lifts):
            for s in range(0, len(cells), cells_per_trip):
                group = cells[s:s + cells_per_trip]
                radii = [float(R[c]) for c in group]
                trips.append(Trip(
                    lane=lane, lift=lift, seq=seq,
                    azimuth_deg=360.0 * lane / n_lanes,
                    start_r=min(radii) - cell - reach - 0.3,
                    deposit_r=pad.radius + pad.berm_setback
                    + pad.berm_ring_spacing * (lane_trips[lane] - 1 - seq),
                    target_elevation=-lift_depth * (lift + 1),
                    cells=frozenset(group),
                    volume_loose=len(group) * vol_per_cell,
                    r_in=min(radii), r_out=max(radii)))
                seq += 1
    return claims, trips


def columns_of(trips):
    """The trip columns of a plan holding `trips`, less the cell ranges."""
    names = ("lane", "lift", "seq", "start_r", "deposit_r", "target_elevation",
             "volume_loose", "r_in", "r_out")
    return {name: np.array([getattr(t, name) for t in trips]) for name in names}


# The reference blade is too narrow for a lane once the alignment margin
# is taken off, so a widened copy stands in for the small machine.
WIDE_REFERENCE = replace(REFERENCE, blade_width=2.0)


class TestLayoutOracle:
    @given(radius=st.one_of(st.just(0.0), st.floats(0.0, 0.5),
                            st.floats(0.0, 14.0)),
           cell_size=st.sampled_from([0.125, 0.25, 0.5]),
           vehicle=st.sampled_from([CONSTRUCTION, REFERENCE, WIDE_REFERENCE]))
    @settings(deadline=None, max_examples=60)
    def test_layout_matches_the_full_grid_reference(self, radius, cell_size,
                                                    vehicle):
        pad = PadSpec(radius=radius, cell_size=cell_size,
                      max_push_distance=1000.0)
        if vehicle.blade_width <= LANE_ALIGNMENT_MARGIN:
            with pytest.raises(ValueError, match="blade too narrow"):
                plan_pad_mission(pad, vehicle, MOON, SOFT)
            return
        plan = plan_pad_mission(pad, vehicle, MOON, SOFT)
        claims, trips = full_grid_layout(pad, vehicle)
        assert np.array_equal(plan.claims, claims)
        assert plan.trips == trips
        assert plan.energy_budget == estimate_energy(
            replace(plan, **columns_of(trips)), MOON, SOFT)

    @pytest.mark.parametrize("cell_size", [0.1, 0.125, 0.2, 0.25, 0.3, 0.5])
    @pytest.mark.parametrize("radius", [3.7, 9.979845551933689])
    def test_trips_partition_each_lanes_claim(self, radius, cell_size):
        # One claim pass sizes the lane loads and lays the trips, so each
        # lane's dump line ends exactly at the setback for any cell size.
        # At 9.9798 m and 0.2 m cells, a count pass and a claim pass over
        # differently placed grids disagree on one cell.
        pad = PadSpec(radius=radius, cell_size=cell_size)
        plan = plan_pad_mission(pad, CONSTRUCTION, MOON, SOFT)
        for lane in range(plan.n_lanes):
            trips = [t for t in plan.trips if t.lane == lane]
            assert [t.seq for t in trips] == list(range(len(trips)))
            assert trips[-1].deposit_r == pad.radius + pad.berm_setback
            claimed = set(map(tuple, np.argwhere(plan.claims == lane).tolist()))
            for lift in range(plan.n_lifts):
                groups = [t.cells for t in trips if t.lift == lift]
                assert sum(len(g) for g in groups) == len(claimed)
                assert set().union(*groups) == claimed


def claim_per_lane(local_half, cell_size, radius, n_lanes, lane_width):
    """The claim pass done the slow way: every pad cell of the window is
    tested against every lane in lane order, and the first lane whose
    wedge holds it keeps it.  A cell no wedge holds keeps lane -1."""
    coord = -local_half * cell_size \
        + (np.arange(2 * local_half) + 0.5) * cell_size
    ii, jj = np.nonzero(np.hypot(coord[np.newaxis, :],
                                 coord[:, np.newaxis]) <= radius)
    X, Y = coord[jj], coord[ii]
    lanes = np.full(len(ii), -1, dtype=np.intp)
    for lane in range(n_lanes):
        az = 2.0 * math.pi * lane / n_lanes
        dx, dy = math.cos(az), math.sin(az)
        along = X * dx + Y * dy
        perp = -X * dy + Y * dx
        wedge = (lanes < 0) & (along >= 0.0) \
            & (np.abs(perp) <= 0.5 * lane_width)
        lanes[wedge] = lane
    return ii, jj, lanes


def window_of(radius, cell_size, n_lanes, lane_width):
    """`_claim_lanes`' arguments for a pad, over the planner's window."""
    return (math.ceil((radius + cell_size) / cell_size), cell_size, radius,
            n_lanes, lane_width)


def assert_claims_match_per_lane(radius, cell_size, n_lanes, lane_width):
    args = window_of(radius, cell_size, n_lanes, lane_width)
    got, want = _claim_lanes(*args), claim_per_lane(*args)
    assert np.all(want[2] >= 0)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def arc_ends(radius, cell_size, n_lanes, lane_width):
    """The arc of lanes [b - s, b + s] that may hold each pad cell beyond
    one lane width of the center, with the bearing b in [0, n_lanes), and
    the cell radii."""
    local_half = math.ceil((radius + cell_size) / cell_size)
    coord = -local_half * cell_size \
        + (np.arange(2 * local_half) + 0.5) * cell_size
    x, y = np.meshgrid(coord, coord)
    r = np.hypot(x, y)
    far = (r <= radius) & (r > lane_width)
    x, y, r = x[far], y[far], r[far]
    per_radian = n_lanes / (2.0 * math.pi)
    bearing = np.arctan2(y, x) * per_radian
    bearing = np.where(bearing < 0.0, bearing + n_lanes, bearing)
    spread = np.arcsin(0.5 * lane_width / r) * per_radian
    return bearing - spread, bearing + spread, r


def off_by(ends, whole):
    """How far each arc end lies from the whole lane `whole`, or from the
    nearest whole lane."""
    return np.abs(ends - (np.rint(ends) if whole is None else whole))


def lanes_of(radius, cell_size, n_lanes):
    """A pad and its lane count, with the lane width the planner gives it."""
    return radius, cell_size, n_lanes, 2.0 * math.pi * radius / n_lanes


@st.composite
def pad_lanes(draw):
    """A pad radius and cell size, and the lane count and width the planner
    gives that radius at a drawn lane pitch."""
    radius = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5),
                            st.floats(0.0, 24.5)))
    cell_size = draw(st.sampled_from([0.1, 0.125, 0.2, 0.25, 0.3, 0.35, 0.5]))
    n_lanes = max(4, math.ceil(2.0 * math.pi * radius
                               / draw(st.floats(0.5, 6.0))))
    return lanes_of(radius, cell_size, n_lanes)


# Pads with a cell whose arc ends within CLAIM_MARGIN of a whole lane but
# not on it, so the claim pass must test that cell with the wedge: rim
# cells away from the seam, and cells whose arc touches the lane-0 seam
# from above (low end near lane 0) and from below (high end near lane
# n_lanes), with even and odd lane counts.
NEAR_A_LANE = [lanes_of(22.353658, 0.125, 72), lanes_of(18.202369, 0.1, 25),
               lanes_of(13.344606, 0.25, 98)]
NEAR_THE_SEAM = [lanes_of(21.48595, 0.1, 54), lanes_of(14.212512, 0.1, 47),
                 lanes_of(3.501411, 0.25, 8)]


class TestClaimLanes:
    @given(case=pad_lanes())
    @settings(deadline=None, max_examples=400)
    def test_claims_match_the_per_lane_reference(self, case):
        assert_claims_match_per_lane(*case)

    @pytest.mark.parametrize("case", NEAR_A_LANE)
    def test_rim_cell_within_the_margin_of_a_lane(self, case):
        low, high, r = arc_ends(*case)
        rim = r > case[0] - case[1]
        near = [off_by(ends[rim], None) for ends in (low, high)]
        assert any(np.any((1e-12 < d) & (d < CLAIM_MARGIN)) for d in near)
        assert_claims_match_per_lane(*case)

    @pytest.mark.parametrize("case", NEAR_THE_SEAM)
    def test_arcs_within_the_margin_of_the_seam(self, case):
        low, high, _ = arc_ends(*case)
        for d in (off_by(low, 0), off_by(high, case[2])):
            assert np.any((1e-12 < d) & (d < CLAIM_MARGIN))
        assert_claims_match_per_lane(*case)

    # Half a lane width is an odd number of half cells, so rows and
    # columns of cell centres lie exactly on the strip edges of the lanes
    # along the axes, with the lane count whole at that width.  The rows
    # at y = +-h put arc ends on the lane-0 seam from either side, and odd
    # lane counts have no lane along the negative x axis.
    @pytest.mark.parametrize("n_lanes, lane_width, cell_size", [
        (16, 2.25, 0.25), (40, 2.25, 0.25), (68, 2.25, 0.25),
        (20, 2.5, 0.5), (100, 0.75, 0.25), (200, 0.3, 0.1),
        (17, 2.25, 0.25), (18, 2.25, 0.25), (41, 2.25, 0.25),
        (25, 2.5, 0.5), (101, 0.75, 0.25), (201, 0.3, 0.1)])
    def test_cell_centres_on_strip_edges(self, n_lanes, lane_width,
                                         cell_size):
        radius = n_lanes * lane_width / (2.0 * math.pi)
        low, high, _ = arc_ends(radius, cell_size, n_lanes, lane_width)
        assert np.any(off_by(low, 0) < 1e-12)
        assert np.any(off_by(high, n_lanes) < 1e-12)
        assert_claims_match_per_lane(radius, cell_size, n_lanes, lane_width)

    # Lanes narrower than their pitch leave rim cells that no wedge holds.
    # The pass must refuse them, not give them the lane after the arc.
    @pytest.mark.parametrize("radius, cell_size, share", [
        (5.0, 0.1, 0.97), (8.0, 0.25, 0.95), (9.5, 0.125, 0.98),
        (12.0, 0.1, 0.99)])
    def test_cells_between_narrowed_lanes_are_refused(self, radius,
                                                     cell_size, share):
        n_lanes = math.ceil(2.0 * math.pi * radius / 2.0)
        args = window_of(radius, cell_size, n_lanes,
                         share * 2.0 * math.pi * radius / n_lanes)
        assert np.any(claim_per_lane(*args)[2] < 0)
        with pytest.raises(SimulationError, match="unowned"):
            _claim_lanes(*args)


class TestTripRows:
    @pytest.fixture
    def fresh_plan(self):
        return plan_pad_mission(PadSpec(radius=8.0), CONSTRUCTION, MOON, SOFT)

    def test_planning_validating_and_listing_build_no_trips(self, fresh_plan):
        # plan_pad_mission prices the plan itself.
        validate_plan(fresh_plan, MOON, SOFT)
        describe_plan(fresh_plan)
        assert "trips" not in vars(fresh_plan)

    def test_lifts_share_one_cell_set(self, fresh_plan):
        trips = fresh_plan.trips
        assert fresh_plan.n_lifts == 2
        for lane in range(fresh_plan.n_lanes):
            lifts = [[t for t in trips if t.lane == lane and t.lift == lift]
                     for lift in range(2)]
            assert len(lifts[0]) == len(lifts[1]) > 0
            for first, second in zip(*lifts):
                assert type(first.cells) is frozenset
                assert first.cells is second.cells
        assert len({id(t.cells) for t in trips}) == len(trips) // 2
        assert fresh_plan.trips is trips


class TestEnergyBudget:
    def test_budget_is_positive_and_scales_with_ground(self, plan):
        assert plan.energy_budget > 0.0
        firmer = plan_pad_mission(PadSpec(), CONSTRUCTION, MOON, MEDIUM)
        assert firmer.energy_budget > plan.energy_budget

    def test_gravity_raises_the_bill(self, plan):
        earth = estimate_energy(plan, EARTH, SOFT)
        assert earth > plan.energy_budget

    def test_face_resistance_is_read_at_the_cut_thickness(self):
        # Two 0.2 m lifts over a layer boundary at 0.3 m: the blade never
        # cuts more than a lift below the floor it stands on, so neither
        # lift reaches the stronger layer, and the budget and the findings
        # are those of the top layer alone.
        top = SoilLayer(thickness=0.3, resistance=960e3)
        layered = SoilProfile(name="layered", anchor_work_slope=0.10,
                              layers=(top, SoilLayer(thickness=10.0, resistance=2e6)))
        uniform = replace(layered, layers=(top,))
        plan = plan_pad_mission(PadSpec(radius=8.0), CONSTRUCTION, MOON, layered)
        assert plan.lift_depth < 0.3 < plan.pad.depth
        assert plan.energy_budget == estimate_energy(plan, MOON, uniform)
        for target in (-plan.lift_depth, -plan.pad.depth):
            assert predict_peak_draft(CONSTRUCTION, target, 1.5, MOON, layered) \
                == predict_peak_draft(CONSTRUCTION, target, 1.5, MOON, uniform)


class TestPeakDraft:
    def test_bigger_prism_pulls_harder(self, plan):
        target = plan.trips[0].target_elevation
        assert predict_peak_draft(CONSTRUCTION, target, 1.5, MOON, SOFT) \
            > predict_peak_draft(CONSTRUCTION, target, 0.5, MOON, SOFT)

    @pytest.mark.parametrize("target", [0, -1])
    def test_an_integer_target_prices_as_its_float(self, target):
        # a 0-d rise of any type is one step
        got = predict_peak_draft(CONSTRUCTION, target, 1.0, MOON, SOFT)
        assert type(got) is float
        assert got.hex() == predict_peak_draft(CONSTRUCTION, float(target), 1.0, MOON,
                                               SOFT).hex()
        drafts, held, _ = price_steps(np.float64(-target), SOFT.loose_density, None, 0.0, None,
                                      1.0, 0.0, CONSTRUCTION, MOON.gravity, None)
        assert (type(drafts), held) == (float, 1)

    def test_all_terms_positive(self, plan):
        trip = plan.trips[0]
        assert predict_peak_draft(CONSTRUCTION, trip.target_elevation,
                                  trip.volume_loose, MOON, SOFT) > 0.0

    @pytest.mark.parametrize("env", [MOON, MARS, EARTH], ids=lambda e: e.name)
    @pytest.mark.parametrize("vehicle", [REFERENCE, CONSTRUCTION], ids=lambda v: v.name)
    def test_whole_draft_is_the_simulators(self, plan, vehicle, env):
        # The prediction is the draft the machine prices for one step up
        # the pit rim, pushing the full prism behind a full-width cut at
        # the blade's thickness limit.
        face = vehicle.blade_cut_coeff * vehicle.blade_width * vehicle.blade_max_cut \
            * SOFT.resistance_at(vehicle.blade_max_cut)
        for trip in (plan.trips[0], plan.trips[-1]):
            depth = -trip.target_elevation
            simulated, _, _ = price_steps(depth, SOFT.loose_density, None, face, None,
                                          trip.volume_loose, 0.0, vehicle, env.gravity, None)
            assert predict_peak_draft(vehicle, trip.target_elevation,
                                      trip.volume_loose, env, SOFT) == simulated


class TestValidatePlan:
    def test_default_mission_is_clear(self, plan):
        assert validate_plan(plan, MOON, SOFT) == []

    def test_impenetrable_crust_is_flagged(self, plan):
        armored = SoilProfile(
            name="armored",
            layers=(SoilLayer(thickness=10.0, resistance=960e3),),
            anchor_work_slope=0.10,
            duricrust=Duricrust(strength=60e6))
        findings = validate_plan(plan, MOON, armored)
        assert any("duricrust" in f for f in findings)

    def test_over_long_push_is_flagged(self, plan):
        deposit_r = plan.deposit_r.copy()
        deposit_r[0] = plan.start_r[0] + 61.0
        findings = validate_plan(replace(plan, deposit_r=deposit_r), MOON, SOFT)
        assert any(f.startswith("trip 0: push distance") for f in findings)

    def test_overfull_blade_is_flagged(self, plan):
        volume = plan.volume_loose.copy()
        volume[0] = 2.0
        findings = validate_plan(replace(plan, volume_loose=volume), MOON, SOFT)
        assert any(f.startswith("trip 0: planned prism") for f in findings)

    def test_findings_price_each_load_like_each_trip(self):
        # Anchoring in this ground only just holds: the full prisms lose
        # their grip and the part-filled ones keep it.
        plan = plan_pad_mission(PadSpec(radius=8.0), CONSTRUCTION, MOON, SOFT)
        thin = SoilProfile(
            name="thin", layers=(SoilLayer(thickness=10.0, resistance=67.75e3),),
            anchor_work_slope=0.10, loose_resistance=500.0)
        spike = CONSTRUCTION.spike
        n_spikes = len(CONSTRUCTION.spike_offsets)
        weight = CONSTRUCTION.mass * MOON.gravity
        expected = []
        for n, trip in enumerate(plan.trips):
            draft = predict_peak_draft(CONSTRUCTION, trip.target_elevation,
                                       trip.volume_loose, MOON, thin)
            depth = spike.depth_for_capacity(draft / n_spikes, thin)
            if depth is None:
                expected.append(
                    f"trip {n}: predicted draft {draft:.9g} N exceeds spike "
                    "holding capacity at full seating depth")
            elif flip_margin(weight, draft, spike.thrust_angle_deg(depth)) <= 0.0:
                expected.append(
                    f"trip {n}: predicted draft {draft:.9g} N lifts the machine "
                    "at the seated thrust angle; flip risk")
        assert validate_plan(plan, MOON, thin) == expected
        full = max(t.volume_loose for t in plan.trips)
        flagged = {int(f.split(":")[0].split()[1]) for f in expected}
        assert flagged == {n for n, t in enumerate(plan.trips)
                           if t.volume_loose == full}


class TestExecution:
    def test_books_close(self, small_result):
        plan, result = small_result
        assert result.trips_run == len(plan.trips)
        assert result.audit_residual < 1e-9
        assert result.excavated_bank == pytest.approx(
            plan.planned_bank_volume, rel=0.02)

    def test_pit_reaches_grade(self, small_result):
        plan, result = small_result
        i, j = result.terrain.cell_of(1.0, 0.5)
        assert result.terrain.surface()[i, j] == pytest.approx(-0.4)

    def test_energy_ledger_is_sane(self, small_result):
        plan, result = small_result
        assert 0.0 < result.energy["efficiency"] <= 1.0
        assert result.energy["total"] == pytest.approx(
            result.energy["useful"] + result.energy["anchoring"]
            + result.energy["extraction"])
        # budget from the same force models lands near the metered total
        assert result.energy["total"] == pytest.approx(
            plan.energy_budget, rel=0.35)

    def test_seatings_were_surveyed(self, small_result):
        _, result = small_result
        assert len(result.machine.recorder.events) > 100

    def test_execution_is_deterministic(self, small_result):
        plan, result = small_result
        again = execute_plan(plan, MOON, SOFT)
        assert again.excavated_bank == result.excavated_bank
        assert again.audit_residual == result.audit_residual
        assert np.array_equal(again.terrain.surface(),
                              result.terrain.surface())
