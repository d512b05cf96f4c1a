"""Half-cycle mechanics, compound moves, turning, and the stuck/flip guards."""

import gc
import hashlib
import json
import math
import re
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spikedozer import locomotion
from spikedozer.earthworks import SWELL_FACTOR, Terrain
from spikedozer.errors import FlipInstability, SimulationError, VehicleStuck
from spikedozer.locomotion import (
    CONSTRUCTION,
    REFERENCE,
    VEHICLES,
    AnchorState,
    Machine,
    VehicleSpec,
    _StrokePath,
    conventional_drawbar_per_mass,
    price_steps,
    traverse_check,
)
from spikedozer.scenario import load_scenario, run_scenario
from spikedozer.soils import (
    EARTH,
    HARD,
    MEDIUM,
    MOON,
    SOFT,
    Duricrust,
    PatchSoilField,
    SoilLayer,
    SoilPatch,
    SoilProfile,
)

GRID = 200
CELL = 0.25
ORIGIN = (-10.0, -10.0)


def flat(soil=SOFT, surface=None, n=GRID):
    return Terrain((n, n), CELL, ORIGIN, soil, surface)


def ramp_surface(x_start, slope, n=GRID):
    """Flat floor that tilts up with `slope` for x beyond `x_start`."""
    xs = ORIGIN[0] + (np.arange(n) + 0.5) * CELL
    row = np.maximum(0.0, xs - x_start) * slope
    return np.tile(row, (n, 1))


def seat_rear(m, force):
    """Seat the rear row against `force`, with no slip, on a fresh reading
    of its ground."""
    return m._seat_frame("rear", m._spike_ground("rear", m.spec.spike_offsets[0]), force, 0.0)


class TestVehicleSpec:
    def test_registry_has_both_presets(self):
        assert set(VEHICLES) == {"reference", "construction"}
        assert VEHICLES["reference"] is REFERENCE

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            replace(REFERENCE, mass=0.0)
        with pytest.raises(ValueError):
            replace(REFERENCE, stroke_length=-1.0)
        with pytest.raises(ValueError):
            replace(REFERENCE, spike_offsets=())
        with pytest.raises(ValueError):
            replace(REFERENCE, extraction_ratio=1.5)
        with pytest.raises(ValueError):
            replace(REFERENCE, heading_tolerance_deg=0.0)
        with pytest.raises(ValueError):
            replace(REFERENCE, heading_tolerance_deg=15.0)
        with pytest.raises(ValueError):
            replace(REFERENCE, ripper_rake_deg=90.0)
        with pytest.raises(ValueError):
            replace(REFERENCE, ripper_rake_deg=-1.0)

    @pytest.mark.parametrize("key", ["blade_cut_coeff", "ripper_cut_coeff",
                                     "prism_friction"])
    def test_rejects_negative_cutting_coefficients(self, key):
        # A negative coefficient prices a cut or a pushed prism below zero.
        with pytest.raises(ValueError, match="must be non-negative"):
            replace(REFERENCE, **{key: -0.01})
        with pytest.raises(ValueError, match="must be non-negative"):
            replace(CONSTRUCTION, **{key: -1e-300})
        assert getattr(replace(REFERENCE, **{key: 0.0}), key) == 0.0

    def test_shared_draft_terms(self):
        assert CONSTRUCTION.gauge == 0.8 + 0.5 * 4.0
        assert CONSTRUCTION.loaded_weight(0.0, 1200.0, 9.81) == 3000.0 * 9.81
        assert CONSTRUCTION.loaded_weight(0.5, 1200.0, 9.81) == (3000.0 + 600.0) * 9.81
        assert CONSTRUCTION.prism_drag(0.5, 1200.0, 9.81) == 0.8 * 1200.0 * 0.5 * 9.81

    def test_shared_hold_terms(self):
        spike = CONSTRUCTION.spike
        depth, capacity, tan_beta = CONSTRUCTION.seat(600.0, SOFT, 2)
        assert depth == spike.depth_for_capacity(300.0, SOFT)
        assert capacity == 2 * spike.holding_capacity(depth, SOFT) >= 600.0
        assert tan_beta == math.tan(spike.thrust_angle_rad(depth))
        assert CONSTRUCTION.seat(1e9, SOFT, 2) is None
        weight = 3000.0 * 1.62
        assert CONSTRUCTION.hold_down(500.0, 1.62, False) == weight
        drafts = np.array([0.0, 500.0, 2000.0])
        held = CONSTRUCTION.hold_down(drafts, 1.62, True)
        assert held.tolist() == [
            weight + d * math.tan(math.radians(35.0)) for d in drafts.tolist()]
        press = (7.0 / 9.81) * 1.62
        assert CONSTRUCTION.crust_press(1.62) == press + 0.5 * weight
        assert replace(CONSTRUCTION, has_crust_actuator=False).crust_press(1.62) == press

    def test_skid_friction_is_the_friction_anchors_and_the_pivots(self):
        # a frame that cannot seat on crust holds on skid friction alone
        spec = replace(REFERENCE, has_crust_actuator=False)
        m = Machine(spec, flat(soil=CRUSTED_SLICK), EARTH)
        seat_rear(m, 0.0)
        assert m.anchors["rear"].by_friction
        assert m.anchors["rear"].capacity == spec.skid_friction(CRUSTED_SLICK, EARTH.gravity) \
            == 0.1 * 0.5 * (spec.mass * EARTH.gravity)
        # a pivot's pin seats against the skid friction of the swung frame
        m = Machine(REFERENCE, flat(soil=MEDIUM), MOON)
        pins = []
        seat = m._seat_frame

        def spy(frame, ground, force, slip, offsets=None):
            pins.append(force)
            return seat(frame, ground, force, slip, offsets)

        m._seat_frame = spy
        m.turn_to(90.0)
        assert pins and set(pins) == {REFERENCE.skid_friction(MEDIUM, MOON.gravity)}


class TestHalfCycle:
    def test_loaded_half_ledger(self):
        # 300 N over a 2.2 m stroke in soft ground: 0.2 m seats the
        # spikes, 2.0 m is delivered, and anchoring costs k F = 30 J.
        m = Machine(REFERENCE, flat(), EARTH)
        m.extra_draft = 300.0
        rec = m.half_cycle(stroke=2.2)
        assert rec.mode == "expand"
        assert rec.slip == pytest.approx(0.2)
        assert rec.free_advance == pytest.approx(2.0)
        assert rec.center_advance == pytest.approx(0.9)
        assert rec.seat_depth == pytest.approx(0.1)
        assert rec.useful_work == pytest.approx(600.0, rel=1e-9)
        assert rec.anchoring_work == pytest.approx(30.0)
        assert rec.extraction_work == pytest.approx(15.0)
        assert rec.efficiency == pytest.approx(600.0 / 645.0)

    def test_free_half_spends_nothing(self):
        m = Machine(REFERENCE, flat(), EARTH)
        rec = m.half_cycle()
        assert rec.slip == 0.0
        assert rec.free_advance == pytest.approx(4.0, abs=1e-9)
        assert rec.center_advance == pytest.approx(2.0, abs=1e-9)
        assert rec.useful_work == 0.0
        assert rec.efficiency == 1.0
        assert m.separation == pytest.approx(4.6, abs=1e-9)

    def test_phases_alternate(self):
        m = Machine(REFERENCE, flat(), EARTH)
        modes = [m.half_cycle().mode for _ in range(4)]
        assert modes == ["expand", "contract", "expand", "contract"]

    def test_reverse_half_moves_backward(self):
        m = Machine(REFERENCE, flat(), EARTH)
        rec = m.half_cycle(reverse=True)
        assert rec.center_advance == pytest.approx(-2.0, abs=1e-9)
        assert m.x == pytest.approx(-2.0, abs=1e-9)
        # expansion either way: the ram extended
        assert m.separation > REFERENCE.base_separation

    def test_stroke_validation(self):
        m = Machine(REFERENCE, flat(), EARTH)
        with pytest.raises(ValueError):
            m.half_cycle(stroke=0.0)
        with pytest.raises(ValueError):
            m.half_cycle(stroke=4.5)

    def test_ram_at_stop_refuses_the_phase(self):
        m = Machine(REFERENCE, flat(), EARTH)
        m.separation = 0.05 * REFERENCE.base_separation  # contraction floor
        m._expanded = True  # force the next phase to contract
        with pytest.raises(ValueError, match="ram is at its stop"):
            m.half_cycle()

    def test_reverse_requires_raised_tools(self):
        m = Machine(REFERENCE, flat(), EARTH)
        m.set_blade(-0.05)
        with pytest.raises(ValueError, match="raised"):
            m.half_cycle(reverse=True)
        m.set_blade(None)
        m.set_ripper(0.1)
        with pytest.raises(ValueError, match="raised"):
            m.half_cycle(reverse=True)


class TestAdvance:
    def test_lands_on_target(self):
        m = Machine(REFERENCE, flat(), EARTH)
        moved = m.advance(5.0)
        assert moved == pytest.approx(5.0, abs=1e-9)
        assert m.x == pytest.approx(5.0, abs=1e-9)
        assert len(m.cycles) == 3  # 2 + 2 + trimmed 1

    def test_loaded_trim_compensates_slip(self):
        m = Machine(REFERENCE, flat(), EARTH)
        m.extra_draft = 300.0
        moved = m.advance(5.0)
        assert moved == pytest.approx(5.0, abs=1e-9)
        assert all(c.slip == pytest.approx(0.2) for c in m.cycles)

    def test_reverse(self):
        m = Machine(REFERENCE, flat(), EARTH)
        moved = m.advance(2.0, reverse=True)
        assert moved == pytest.approx(2.0, abs=1e-9)
        assert m.x == pytest.approx(-2.0, abs=1e-9)

    def test_lands_on_target_when_the_frame_holds_by_friction(self):
        # the crust keeps the spikes out, so the frame holds by skid
        # friction and does not slip: the stroke is not trimmed for one
        spec = replace(REFERENCE, has_crust_actuator=False)
        m = Machine(spec, flat(soil=replace(SOFT, duricrust=Duricrust(1e12)), n=80), MOON)
        m.extra_draft = 20.0
        moved = m.advance(1.0)
        assert moved == pytest.approx(1.0, abs=1e-9)
        assert m.x == pytest.approx(1.0, abs=1e-9)
        assert all(c.slip == 0.0 for c in m.cycles)

    def test_rejects_nonpositive_distance(self):
        m = Machine(REFERENCE, flat(), EARTH)
        with pytest.raises(ValueError):
            m.advance(0.0)

    def test_dead_phase_is_skipped_not_fatal(self):
        # ram parked at the expansion stop: the interlock swaps frames
        # and drives off on the contraction stroke
        m = Machine(REFERENCE, flat(), EARTH)
        m.separation = REFERENCE.base_separation + REFERENCE.stroke_length
        moved = m.advance(1.0)
        assert moved == pytest.approx(1.0, abs=1e-9)
        assert m.cycles[0].mode == "contract"

    @pytest.mark.parametrize("parked, skipped", [(False, 0), (True, 1)])
    def test_prices_each_zero_length_draft_once(self, parked, skipped):
        # advance prices a phase's zero-length draft to predict its slip
        # and hands it to the half-cycle; a skipped phase prices its own.
        # Pricing it leaves the tools as it finds them.
        m = Machine(REFERENCE, flat(), EARTH)
        if parked:
            m.separation = REFERENCE.base_separation + REFERENCE.stroke_length
        m.set_blade(-0.02)
        fresh_draft, calls = m._fresh_draft, []

        def spy(*args):
            before = (m.tools.snapshot(), m.tools.face_run, m.tools.last_cell)
            draft = fresh_draft(*args)
            calls.append(before == (m.tools.snapshot(), m.tools.face_run, m.tools.last_cell))
            return draft

        m._fresh_draft = spy
        m.advance(3.0)
        assert len(calls) == len(m.cycles) + skipped
        m.set_blade(None)
        m.half_cycle()
        assert len(calls) == len(m.cycles) + skipped
        assert all(calls)

    @pytest.mark.parametrize("parked, skipped", [(False, 0), (True, 1)])
    def test_prices_each_seating_slip_once(self, parked, skipped, monkeypatch):
        # advance prices a straight seating's slip once, trims its stroke
        # with it and hands it to the half-cycle, whose anchor slips just
        # that; a skipped phase and a bare half-cycle price their own.
        m = Machine(REFERENCE, flat(), EARTH)
        m.extra_draft = 300.0  # a steady draft: no anchor deepens
        if parked:
            m.separation = REFERENCE.base_separation + REFERENCE.stroke_length
        anchoring_slip, half_cycle, priced, seated = locomotion.anchoring_slip, m.half_cycle, [], []

        def price(*args):
            priced.append(anchoring_slip(*args))
            return priced[-1]

        def half(stroke=None, reverse=False, *, _seat=None):
            record = half_cycle(stroke, reverse, _seat=_seat)
            frame = "rear" if record.mode == "expand" else "front"
            seated.append((m.anchors[frame].slipped, _seat[2]))
            return record

        monkeypatch.setattr(locomotion, "anchoring_slip", price)
        m.half_cycle = half
        m.advance(3.0)
        assert len(priced) == len(m.cycles) + skipped
        assert len(seated) == len(m.cycles)
        assert all(slipped == slip > 0.0 for slipped, slip in seated)
        half_cycle()
        assert len(priced) == len(m.cycles) + skipped

    def test_a_machine_given_no_recorder_records_its_seatings(self):
        m = Machine(REFERENCE, flat(), EARTH)
        m.extra_draft = 300.0
        m.set_blade(-0.02)
        m.half_cycle()
        events = m.recorder.events
        assert len(events) == len(REFERENCE.spike_offsets) and m.recorder.rng is None
        assert all(e.depth == m.cycles[0].seat_depth > 0.0 for e in events)

    @pytest.mark.parametrize("parked, skipped", [(False, 0), (True, 1)])
    def test_reads_each_seating_ground_once(self, parked, skipped):
        # advance reads the seating frame's ground to predict its slip and
        # hands that reading to the half-cycle, which seats on it without
        # reading again; a skipped phase reads its own.  A turn and a bare
        # half-cycle read their own, once per seating.  Every seating's
        # ground is what a fresh read at the seating gives.
        m = Machine(REFERENCE, flat(), MOON)
        if parked:
            m.separation = REFERENCE.base_separation + REFERENCE.stroke_length
        m.set_blade(-0.02)
        spike_ground, seat_frame, reads, fresh = m._spike_ground, m._seat_frame, [], []

        def read(*args):
            reads.append(args)
            return spike_ground(*args)

        def seat(frame, ground, force, slip, offsets=None):
            first = (offsets or m.spec.spike_offsets)[0]
            fresh.append(ground == Machine._spike_ground(m, frame, first))
            return seat_frame(frame, ground, force, slip, offsets)

        m._spike_ground, m._seat_frame = read, seat
        m.advance(3.0)
        assert len(reads) == len(fresh) + skipped == len(m.cycles) + skipped
        m.set_blade(None)
        halves = m.turn_to(30.0)
        assert halves and len(reads) == len(fresh) + skipped == len(m.cycles) + skipped
        m.half_cycle()
        assert len(reads) == len(fresh) + skipped == len(m.cycles) + skipped
        assert all(fresh)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.05, max_value=9.0))
    def test_any_distance_lands_on_target(self, distance):
        m = Machine(REFERENCE, flat(n=120), EARTH)
        moved = m.advance(distance)
        assert moved == pytest.approx(distance, abs=1e-9)


class TestStallGuards:
    def test_slip_consuming_both_phases_is_stuck(self):
        # 0.2 m stroke against 0.4 m of seating slip: neither phase can
        # pay its own seating cost
        spec = replace(REFERENCE, stroke_length=0.2)
        m = Machine(spec, flat(), EARTH)
        m.separation = 0.42
        m.extra_draft = 300.0
        with pytest.raises(VehicleStuck, match="slip consumes"):
            m.advance(1.0)

    def test_no_progress_over_consecutive_halves_is_stuck(self):
        spec = replace(REFERENCE, stroke_length=0.3)
        m = Machine(spec, flat(), EARTH)
        m.extra_draft = 300.0
        with pytest.raises(VehicleStuck, match="no progress"):
            m.advance(1.0)

    def test_drive_along_a_patch_edge_runs_to_completion(self, tmp_path):
        # The 1 m carry after the first cut runs south with the machine
        # center just west of a patch whose anchoring slope is 0.12, against
        # the base soil's 0.10, and the seating spike point inside it.  A
        # slip predicted from the soil at the center trimmed its stroke for
        # 0.2 m; it slipped 0.24 m and the trimmed halves after it moved 0.
        soil = {"preset": "soft", "name": "soft_loose", "repose_angle_deg": 34.0,
                "anchor_work_slope": 0.12}
        boxes = [
            (-6.572359570026437, 0.5764826872856528, -2.3063242808060824, 5.869233319604819),
            (-1.2450970889424546, -8.03300980324179, 2.815140994087722, -0.07315057594632712),
            (1.2949208493761155, -7.32052508958162, 8.15117794507351, -5.191917479503766),
            (-0.3817488990994189, -5.491517309365339, 1.904225122403893, 0.26884283498986683),
        ]
        segments = [(-0.04377511237740604, 3.146366687225458, 79.80584602020956,
                     0.051970257510351295, 2.447115557206606),
                    (-0.04136478632076893, 3.6112097651418305, 94.58352271812188,
                     0.07172099744397928, 2.031978220620746)]
        drive = []
        for cut, push, turn, rip, rip_run in segments:
            drive += [
                {"op": "blade", "target_elevation": cut},
                {"op": "advance", "distance": push},
                {"op": "blade", "target_elevation": None},
                {"op": "advance", "distance": 1.0},
                {"op": "dump"},
                {"op": "turn_by", "delta_deg": turn},
                {"op": "ripper", "depth": rip},
                {"op": "advance", "distance": rip_run},
                {"op": "ripper", "depth": 0.0},
                {"op": "relax"},
            ]
        doc = {
            "name": "patch_edge", "environment": "moon", "vehicle": "reference",
            "soil": {"preset": "soft", "patches": [
                dict(zip(("x_min", "y_min", "x_max", "y_max"), box), soil=soil)
                for box in boxes]},
            "seed": 1782639437, "sensing": {"noise_rel": 0.02},
            "terrain": {"extent": [36.0, 36.0], "cell_size": 0.125},
            "start": {"x": -1.0598859428248644, "y": -0.9194038486460272,
                      "heading_deg": 264.73749633867874},
            "drive": drive,
        }
        path = tmp_path / "patch_edge.json"
        path.write_text(json.dumps(doc))
        carry = run_scenario(load_scenario(str(path))).machine.cycles[2]
        assert carry.slip == pytest.approx(0.24)
        assert carry.center_advance == pytest.approx(1.0, abs=1e-9)


class TestGradeDraft:
    def test_uniform_slope_draft(self):
        s = 0.1
        m = Machine(REFERENCE, flat(surface=ramp_surface(-9.0, s)), EARTH)
        rec = m.half_cycle()
        expected = REFERENCE.mass * EARTH.gravity * s / math.hypot(1.0, s)
        assert rec.draft_peak == pytest.approx(expected, rel=1e-9)
        assert rec.useful_work > 0.0

    def test_skid_friction_carries_a_small_midstroke_rise(self):
        # grade appears mid-stroke but stays under the seated frame's
        # friction share: no re-seating, no slip
        m = Machine(REFERENCE, flat(surface=ramp_surface(2.0, 0.2)), MOON)
        rec = m.half_cycle()
        assert rec.draft_peak > 100.0
        assert rec.slip == 0.0
        assert rec.anchoring_work == 0.0
        assert rec.center_advance == pytest.approx(2.0, abs=1e-9)

    def test_large_midstroke_rise_reseats_the_anchor(self):
        m = Machine(REFERENCE, flat(surface=ramp_surface(2.0, 0.9)), MOON)
        rec = m.half_cycle()
        assert rec.slip == pytest.approx(0.2)
        assert rec.anchoring_work > 0.0
        assert rec.center_advance == pytest.approx(1.8, abs=1e-9)

    def test_footprint_bridges_a_single_cell_step(self):
        surface = np.zeros((GRID, GRID))
        xs = ORIGIN[0] + (np.arange(GRID) + 0.5) * CELL
        surface[:, xs >= 4.0] = 0.2
        m = Machine(REFERENCE, flat(surface=surface), EARTH)
        m.advance(6.0)
        peak = max(c.draft_peak for c in m.cycles)
        gauge = REFERENCE.base_separation + 0.5 * REFERENCE.stroke_length
        bridged = REFERENCE.mass * EARTH.gravity * 0.2 / math.hypot(gauge, 0.2)
        raw_cell = REFERENCE.mass * EARTH.gravity * 0.2 / math.hypot(CELL, 0.2)
        assert peak == pytest.approx(bridged, rel=1e-6)
        assert peak < 0.2 * raw_cell

    def test_stroke_reads_the_terrain_as_it_stands(self):
        # A step written between two half-cycles, just past the cells the
        # first one's fore grade sample read, must price the second one
        # exactly as on a terrain that held the step from the start.
        late, level, early = (Machine(REFERENCE, flat(), MOON) for _ in range(3))
        first = late.half_cycle()
        assert level.half_cycle() == first
        gauge = REFERENCE.base_separation + 0.5 * REFERENCE.stroke_length
        fore_x = late.x + 0.5 * gauge
        beyond = math.floor((fore_x - ORIGIN[0]) / CELL - 0.5) + 2  # past both read columns
        late.terrain.bank_floor[:, beyond:] += 0.1
        early.terrain.bank_floor[:, beyond:] += 0.1
        assert early.half_cycle() == first
        second = early.half_cycle()
        assert late.half_cycle() == second
        # the step does reach the second half-cycle's grade
        assert level.half_cycle() != second


def step_sums(n, start=0.0):
    """`start` plus `n` steps, added one at a time."""
    for _ in range(n):
        start += locomotion.STEP
    return start


class TestStrokePathLayout:
    """`_StrokePath`'s layout against moving one step at a time."""

    @staticmethod
    def stepped(m, move_frame, motion, travelled, advance_total):
        """The layout as a plain loop makes it: each full step adds the same
        increments in the same order, while a full step of travel is left."""
        step = locomotion.STEP
        ux, uy = m._unit()
        signed = motion * step
        d_sep = signed if move_frame == "front" else -signed
        dx, dy = 0.5 * signed * ux, 0.5 * signed * uy
        t, x, y, sep = travelled, m.x, m.y, m.separation
        ts, xs, ys, seps = [t], [x], [y], [sep]
        while advance_total - t >= step:
            t, x, y, sep = t + step, x + dx, y + dy, sep + d_sep
            ts.append(t)
            xs.append(x)
            ys.append(y)
            seps.append(sep)
        n = len(ts) - 1
        ds = [step] * n + ([advance_total - t] if t < advance_total - 1e-12 else [])
        stop = next((k for k in range(n) if seps[k + 1] <= 0.0), n)
        return ts, xs, ys, seps, ds, stop

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_layout_is_the_step_by_step_sums(self, data):
        m = Machine(REFERENCE, flat(), MOON, data.draw(st.floats(-5.0, 30.0)),
                    data.draw(st.floats(-5.0, 30.0)), data.draw(st.floats(-360.0, 360.0)))
        move_frame = data.draw(st.sampled_from(["front", "rear"]))
        motion = data.draw(st.sampled_from([1.0, -1.0]))
        # travel so far: whole steps, as a stroke's next span starts, or any
        if data.draw(st.booleans()):
            travelled = step_sums(data.draw(st.integers(1, 300)))
        else:
            travelled = data.draw(st.floats(1e-9, 3.0))
        # the travel left ends on a step multiple, within 1e-12 of one, or anywhere
        k = data.draw(st.integers(1, 400))
        end = data.draw(st.sampled_from(["sum", "product", "near", "any"]))
        if end == "sum":
            advance_total = step_sums(k, travelled)
        elif end == "product":
            advance_total = travelled + k * locomotion.STEP
        elif end == "near":
            advance_total = (travelled + k * locomotion.STEP
                             + data.draw(st.sampled_from([-1e-12, -5e-13, -1e-13, 1e-13,
                                                          5e-13, 1e-12, 2e-12])))
        else:
            advance_total = travelled + data.draw(st.floats(2e-12, 4.0))
        assume(advance_total > travelled + 1e-12)
        # closing frames that may collide partway: separation under the travel
        closing = (move_frame == "front") == (motion < 0.0)
        if closing and data.draw(st.booleans()):
            m.separation = (advance_total - travelled) * data.draw(st.floats(1e-3, 1.0))
        else:
            m.separation = data.draw(st.floats(0.05, 5.0))
        path = _StrokePath(m, move_frame, motion, travelled, advance_total, False, False)
        ts, xs, ys, seps, ds, stop = self.stepped(m, move_frame, motion, travelled,
                                                  advance_total)
        assert path.travelled.tolist() == ts
        assert path.xs.tolist() == xs
        assert path.ys.tolist() == ys
        assert path.seps.tolist() == seps
        assert path.ds.tolist() == ds
        assert path.stop == stop

    @pytest.mark.parametrize("move_frame,motion,stop", [
        ("rear", 1.0, 50), ("front", -1.0, 50), ("front", 1.0, 99), ("rear", -1.0, 99)])
    def test_only_closing_frames_collide(self, move_frame, motion, stop):
        # 0.505 m apart, closing frames reach 0.005 m after 50 steps and
        # collide on the 51st; opening ones take 99 full steps of the metre
        # (100 sums of 0.01 overshoot it) and a trimmed last one
        m = Machine(REFERENCE, flat(), MOON, 5.0, 5.0, 30.0)
        m.separation = 0.505
        path = _StrokePath(m, move_frame, motion, 0.0, 1.0, False, False)
        assert path.stop == self.stepped(m, move_frame, motion, 0.0, 1.0)[5] == stop
        assert len(path.ds) == 100


class TestStrokePathSoil:
    @pytest.mark.parametrize("env", [MOON, EARTH])
    @pytest.mark.parametrize("tool", ["blade", "ripper", None])
    def test_density_and_friction_are_the_per_step_lookups(self, tool, env):
        def laid(soil):
            m = Machine(REFERENCE, flat(soil), env)
            if tool == "blade":
                m.set_blade(-0.05)
            elif tool == "ripper":
                m.set_ripper(0.05)
                m.separation = REFERENCE.base_separation + REFERENCE.stroke_length
            return m, _StrokePath(m, "rear" if tool == "ripper" else "front", 1.0, 0.0,
                                  REFERENCE.stroke_length, cutting=tool == "blade",
                                  ripping=tool == "ripper")

        # a patch whose near edge sits exactly on the center before step 37,
        # and over steps 60-80 a patch listed first, of an equal but distinct
        # twin of the base profile: the lookups go by position in the list
        _, plain = laid(SOFT)
        edge, twin_from, twin_to = (float(plain.xs[k]) for k in (37, 60, 80))
        patch = SoilProfile(
            name="patch", anchor_work_slope=0.08, loose_density=1100.0,
            layers=(SoilLayer(thickness=10.0, resistance=2e6, friction_mu=0.4),))
        twin = replace(SOFT)
        assert twin == SOFT and twin is not SOFT
        field = PatchSoilField(SOFT, [SoilPatch(twin_from, -1.0, twin_to, 1.0, twin),
                                      SoilPatch(edge, -1.0, edge + 5.0, 1.0, patch)])
        m, path = laid(field)
        profiles = m.terrain.cell_soils[0]
        assert len(profiles) == 3
        assert profiles[0] is SOFT and profiles[1] is twin and profiles[2] is patch
        steps = [field.profile_at(x, y) for x, y in zip(path.xs.tolist(), path.ys.tolist())]
        assert steps[36] is SOFT and steps[37] is patch
        assert steps[60] is twin and steps[80] is twin and steps[81] is patch
        assert np.all(path.density == [p.loose_density for p in steps])
        assert np.all(path.friction == [m.spec.skid_friction(p, env.gravity) for p in steps])


class TestTurning:
    @pytest.mark.parametrize("spec,env,soil,halves", [
        (REFERENCE, MOON, MEDIUM, 4),
        (CONSTRUCTION, MOON, SOFT, 5),
        (REFERENCE, EARTH, HARD, 5),
    ])
    def test_half_turn_half_counts(self, spec, env, soil, halves):
        m = Machine(spec, flat(soil=soil), env)
        used = m.turn_to(180.0)
        assert used == halves
        assert abs(Machine._wrap(math.pi - m.heading)) < 1e-9
        assert m.max_pin_drift < 1e-9

    def test_quarter_turn_is_no_harder(self):
        m180 = Machine(REFERENCE, flat(soil=MEDIUM), MOON)
        m90 = Machine(REFERENCE, flat(soil=MEDIUM), MOON)
        assert m90.turn_to(90.0) <= m180.turn_to(180.0)

    def test_pivot_needs_holding_capacity(self):
        # half the Earth weight on friction is beyond what one spike can
        # hold in soft ground at full seating depth
        m = Machine(REFERENCE, flat(), EARTH)
        with pytest.raises(VehicleStuck, match="holding capacity"):
            m.turn_to(180.0)

    def test_the_pin_is_pressed_in_without_slip(self):
        m = Machine(REFERENCE, flat(soil=MEDIUM), MOON)
        turn_half, pins = m._turn_half, []

        def half(side, err):
            turned = turn_half(side, err)
            if turned:
                pins.append([a for a in m.anchors.values() if a is not None])
            return turned

        m._turn_half = half
        m.turn_to(90.0)
        assert pins and all(len(seated) == 1 for seated in pins)
        assert all(pin.depth > 0.0 and pin.slipped == 0.0 for pin, in pins)

    def test_turn_by_and_negative_turns(self):
        m = Machine(REFERENCE, flat(soil=MEDIUM), MOON)
        m.turn_by(-90.0)
        assert m.heading_deg == pytest.approx(-90.0, abs=1e-7)

    def test_within_tolerance_is_free(self):
        m = Machine(REFERENCE, flat(soil=MEDIUM), MOON)
        assert m.turn_to(1.5) == 0  # stock tolerance is 2 degrees
        assert m.heading == 0.0

    def test_tight_tolerance_forces_the_move(self):
        m = Machine(REFERENCE, flat(soil=MEDIUM), MOON)
        assert m.turn_to(1.5, tol_deg=0.02) > 0
        assert m.heading_deg == pytest.approx(1.5, abs=1e-7)

    def test_tolerance_must_be_positive(self):
        m = Machine(REFERENCE, flat(soil=MEDIUM), MOON)
        with pytest.raises(ValueError):
            m.turn_to(90.0, tol_deg=0.0)

    def test_axial_spikes_cannot_pivot(self):
        spec = replace(REFERENCE, spike_offsets=(0.0,))
        m = Machine(spec, flat(soil=MEDIUM), MOON)
        with pytest.raises(ValueError, match="offset spike"):
            m.turn_to(90.0)

    @pytest.mark.parametrize("heading", [math.inf, -math.inf, math.nan])
    def test_non_finite_heading_rejected(self, heading):
        m = Machine(REFERENCE, flat(soil=MEDIUM), MOON)
        with pytest.raises(ValueError, match="finite"):
            m.turn_to(heading)
        with pytest.raises(ValueError, match="finite"):
            m.turn_by(heading)
        assert m.cycles == []

    @pytest.mark.parametrize("heading", [-9.5e8, 9.5e8])
    def test_largest_resolvable_headings_turn(self, heading):
        # just under 2**24 rad, where half an ulp of the target is 1e-9 rad
        m = Machine(REFERENCE, flat(soil=MEDIUM), MOON)
        assert m.turn_to(heading) <= 4
        assert abs(Machine._wrap(math.radians(heading) - m.heading)) <= 1e-9

    @pytest.mark.parametrize("heading", [-9.7e8, 9.7e8, 1e9, 1e15, 1e300])
    def test_heading_too_large_to_resolve_is_rejected(self, heading):
        # from 1e9 degrees the half-turns chase rounding and fail
        m = Machine(REFERENCE, flat(soil=MEDIUM), MOON)
        message = f"target heading {heading} deg is too large"
        with pytest.raises(ValueError, match=re.escape(message)):
            m.turn_to(heading)
        assert m.cycles == []

    @given(st.floats(min_value=-3.0 * math.pi, max_value=3.0 * math.pi,
                     exclude_min=True, exclude_max=True))
    def test_wrap_equals_stepping_by_full_turns(self, angle):
        # At +-3 pi, a tie, remainder rounds to the even turn and lands on
        # the other end of [-pi, pi] than stepping does.
        stepped = angle
        while stepped > math.pi:
            stepped -= 2.0 * math.pi
        while stepped < -math.pi:
            stepped += 2.0 * math.pi
        wrapped = Machine._wrap(angle)
        # equal to the bit, up to the sign of a zero
        assert wrapped == stepped and -math.pi <= wrapped <= math.pi


CRUSTED_SLICK = SoilProfile(
    name="crusted-slick",
    layers=(SoilLayer(thickness=10.0, resistance=960e3, friction_mu=0.1),),
    anchor_work_slope=0.10,
    duricrust=Duricrust(strength=150e3),
)


class TestDuricrust:
    def test_stuck_under_load_with_zero_displacement(self):
        spec = replace(REFERENCE, has_crust_actuator=False)
        m = Machine(spec, flat(soil=CRUSTED_SLICK), EARTH)
        m.extra_draft = 600.0
        x0, y0 = m.x, m.y
        with pytest.raises(VehicleStuck, match="crust resists"):
            m.half_cycle()
        assert (m.x, m.y) == (x0, y0)

    def test_weight_transfer_actuator_unsticks(self):
        m = Machine(REFERENCE, flat(soil=CRUSTED_SLICK), EARTH)
        m.extra_draft = 600.0
        rec = m.half_cycle()
        assert rec.seat_depth == pytest.approx(0.2)
        assert rec.center_advance > 0.0

    def test_unloaded_machine_rides_friction_over_crust(self):
        spec = replace(REFERENCE, has_crust_actuator=False)
        m = Machine(spec, flat(soil=CRUSTED_SLICK), EARTH)
        rec = m.half_cycle()
        assert rec.seat_depth == 0.0
        assert rec.center_advance == pytest.approx(2.0, abs=1e-9)


    def test_crust_holds_by_friction_until_a_press_breaks_it(self):
        terrain = flat(soil=CRUSTED_SLICK)
        m = Machine(replace(REFERENCE, has_crust_actuator=False), terrain, EARTH)
        seat_rear(m, 50.0)
        assert m.anchors["rear"].by_friction and not terrain.crust_broken.any()
        # the weight-transfer actuator's press breaks the crust under the spikes
        pressed = Machine(REFERENCE, terrain, EARTH)
        seat_rear(pressed, 50.0)
        assert not pressed.anchors["rear"].by_friction and terrain.crust_broken.any()
        # and spikes without the press now seat where it was broken
        seat_rear(m, 50.0)
        assert not m.anchors["rear"].by_friction
        assert m.anchors["rear"].depth == pressed.anchors["rear"].depth > 0.0

    def test_no_crust_profile_seats_spikes(self):
        m = Machine(replace(REFERENCE, has_crust_actuator=False), flat(soil=SOFT), EARTH)
        seat_rear(m, 50.0)
        assert not m.anchors["rear"].by_friction and m.anchors["rear"].depth > 0.0

    @pytest.mark.parametrize("x0, y0, by_friction", [(-2.0, 0.0, True), (5.0, 5.0, False)],
                             ids=["under_the_spikes", "elsewhere"])
    def test_patchy_crust_is_read_at_the_spike_point(self, x0, y0, by_friction):
        # a crust patch under the rear spikes keeps them out; one
        # elsewhere on the map does not
        field = PatchSoilField(SOFT, [SoilPatch(x0, y0, x0 + 2.0, y0 + 2.0, CRUSTED_SLICK)])
        m = Machine(replace(REFERENCE, has_crust_actuator=False), flat(soil=field), EARTH)
        seat_rear(m, 50.0)
        assert m.anchors["rear"].by_friction == by_friction

    def test_crust_edge_is_read_at_the_spike_point_not_the_cell_center(self):
        # The rear spike's surface point (-0.8671, 0.4) lies in the crust
        # patch while its cell's center (-0.875, 0.375) does not: the
        # press cannot break the crust, so the spikes stay out.
        crust = replace(SOFT, duricrust=Duricrust(1e12))
        field = PatchSoilField(SOFT, [SoilPatch(-0.871, 0.0, 0.0, 1.0, crust)])
        terrain = Terrain((80, 80), CELL, ORIGIN, field)
        m = Machine(replace(REFERENCE, has_crust_actuator=False), terrain, MOON)
        sx, sy = m.spike_point("rear", REFERENCE.spike_offsets[0], 0.0)
        i, j = terrain.cell_of(sx, sy)
        assert sx == pytest.approx(-0.8671, abs=1e-4) and sy == 0.4
        assert terrain.cell_center(i, j) == (-0.875, 0.375)
        m.extra_draft = 50.0
        rec = m.half_cycle()
        assert m.anchors["rear"].by_friction and rec.seat_depth == 0.0
        assert not terrain.crust_broken[i, j]


class TestFlipGuard:
    def test_deep_anchor_lift_beats_lunar_weight(self):
        m = Machine(REFERENCE, flat(), MOON)
        m.extra_draft = 1400.0
        with pytest.raises(FlipInstability, match="lift"):
            m.half_cycle()

    def test_a_deepened_anchor_flips_on_the_step_it_deepens(self):
        # The cut face lifts the draft past the towed anchor mid-stroke;
        # the spikes deepen, and their steeper arm flips the machine
        # before it moves on.
        class Recording(Machine):
            def _deepen_anchor(self, frame, new_force):
                self.deepened_at = (self.x, self.y)
                return super()._deepen_anchor(frame, new_force)

        m = Recording(REFERENCE, flat(), MOON)
        m.extra_draft = 900.0
        m.set_blade(-0.05)
        with pytest.raises(FlipInstability, match="lift"):
            m.half_cycle()
        assert (m.x, m.y) == m.deepened_at

    def test_same_draft_is_stable_under_earth_weight(self):
        m = Machine(REFERENCE, flat(), EARTH)
        m.extra_draft = 1400.0
        rec = m.half_cycle()
        assert rec.draft_peak == pytest.approx(1400.0)


# The error text and end state of the two strokes `TestFailureState` runs.
FLIP_TEXT = "drawbar lift at beta=37.2 deg exceeds 1635 N of hold-down"
FLIP_STATE = (
    {"bank_floor": "10a90108cfa3650e9bbcf4c69dcd060b632380cdb7d338f38d0dc4331df4702d",
     "loose_depth": "939a87a98d2ac61ff52e0ac6400eb45272c9cb8694a0d994b7ceb082a18bc6fc",
     "crust_broken": "c6a807f940a2b7312a22fe085ea9bc4e607c1e91246642ec05583794363f85bd"},
    (0.134375, 0.07468749999999988, 0.1),
    (0.8383347030088989, 0.3909218921101479, 0.4363323129985824, 2.649999999999987),
    0.1, 0.07468749999999988)
STUCK_TEXT = "sliding friction anchor cannot react 240.0 N"
STUCK_STATE = (
    {"bank_floor": "c589f3a228fa323f7df1350f4617dd6ad4f9d2f89ce58ea9044de9cc18190f8a",
     "loose_depth": "8887c447249d6af8014e6b9d86ba464b36ccdbf6e0eb76e31e2ae86b0c9392c7",
     "crust_broken": "9202e68fbe5587e30738f2f118e87e10202a6eabd7297e1299978ed53c3a8f46"},
    (0.006875000000000001, 18.5264375, 0.0),
    (2.5042808343944585, 0.9114836819629127, 0.3490658503988659, 3.269999999999974),
    0.0, 0.0)


class TestFailureState:
    """What a stroke that fails partway leaves behind: the error, every
    terrain array, the volume audit and the machine's pose and load,
    pinned bit for bit."""

    @staticmethod
    def state(m):
        t = m.terrain
        arrays = {name: hashlib.sha256(getattr(t, name).tobytes()).hexdigest()
                  for name in ("bank_floor", "loose_depth", "crust_broken")}
        return (arrays, astuple(t.audit()), (m.x, m.y, m.heading, m.separation), m.tools.prism,
                m.tools.spill)

    def test_a_flip_partway_through_a_cutting_stroke(self):
        # Oblique on medium ground: the blade overflows and spills, then
        # meets hard ground and the deepened spikes flip the machine with
        # two metres of stroke left.
        soil = PatchSoilField(MEDIUM, [SoilPatch(2.5, -20.0, 20.0, 20.0, HARD)])
        m = Machine(replace(REFERENCE, blade_capacity=0.1),
                    Terrain((160, 160), CELL, (-20.0, -20.0), soil), MOON, heading_deg=25.0)
        m.set_blade(-0.05)
        with pytest.raises(FlipInstability) as failure:
            m.half_cycle()
        assert str(failure.value) == FLIP_TEXT
        assert self.state(m) == FLIP_STATE

    def test_stuck_on_friction_partway_through_a_ripping_stroke(self):
        # The press cannot break the crust, so the front frame holds by
        # friction; the tines rip a thin bank under laid spoil, then meet
        # bare bank whose draft the friction cannot react.
        m = Machine(replace(REFERENCE, has_crust_actuator=False),
                    Terrain((120, 120), CELL, (-15.0, -15.0), CRUSTED_SLICK), MOON,
                    heading_deg=20.0)
        m.set_ripper(0.05)
        m.half_cycle()
        ux, uy = m._unit()
        px, py = m._tool_point(False, m.x, m.y, m.separation)
        centres = -15.0 + (np.arange(120) + 0.5) * CELL
        along = (centres[None, :] - px) * ux + (centres[:, None] - py) * uy
        m.terrain.loose_depth[along < 1.2] = 0.04
        with pytest.raises(VehicleStuck) as failure:
            m.half_cycle()
        assert str(failure.value) == STUCK_TEXT
        assert self.state(m) == STUCK_STATE


class TestTools:
    """The machine's tools, called directly."""

    @staticmethod
    def state(m):
        """The terrain the tools write and every tool field, as bytes or values."""
        t, tools = m.terrain, m.tools
        return {"bank_floor": t.bank_floor.tobytes(), "loose_depth": t.loose_depth.tobytes(),
                "carried_out": t.carried_out, "target": tools.blade.target_elevation,
                "cuts": tools.blade.cuts.tobytes(), "rip_depth": tools.rip_depth,
                "prism": tools.prism, "face_force": tools.face_force,
                "face_run": tools.face_run, "rip_face": tools.rip_face,
                "visited": list(tools.visited), "spill": tools.spill,
                "journal": list(tools.journal), "last_cell": tools.last_cell,
                "band_offsets": tools.band_offsets.tobytes()}

    def test_a_dropped_machine_frees_its_terrain(self):
        # the tools hold their machine weakly, so no reference cycle keeps
        # a map alive until the cyclic collector runs
        terrain = flat()
        m = Machine(REFERENCE, terrain, MOON)
        m.set_blade(-0.05)
        m.half_cycle()
        dropped = weakref.ref(terrain)
        gc.disable()
        try:
            del m, terrain
            assert dropped() is None
        finally:
            gc.enable()

    def test_a_tool_free_half_cycle_keeps_no_journal(self):
        # A stroke with its tools raised works nothing, so it journals
        # nothing and takes nothing back: from the reset that starts it,
        # the tool state, the journal a cutting stroke left, the face run
        # and the last tool cell stay as they are.
        m = Machine(REFERENCE, flat(), MOON)
        m.set_blade(-0.05)
        m.half_cycle()
        m.set_blade(None)
        tools, reset, started = m.tools, m.tools.reset, []

        def state():
            return tools.snapshot(), list(tools.journal), tools.face_run, tools.last_cell

        def spy():
            reset()
            started.append(state())

        assert tools.journal and tools.prism > 0.0
        tools.reset = spy
        m.half_cycle(reverse=True)
        assert started == [state()]
        assert m.cycles[-1].free_advance < 0.0

    def test_restore_takes_back_cuts_spills_and_rips_bit_for_bit(self):
        rng = np.random.default_rng(7)
        terrain = flat(surface=rng.uniform(0.0, 0.04, (GRID, GRID)))
        terrain.loose_depth[:] = rng.uniform(0.0, 0.02, (GRID, GRID))
        m = Machine(replace(REFERENCE, blade_capacity=0.05), terrain, MOON)
        m.set_blade(-0.05)
        m.set_ripper(0.1)
        tools = m.tools
        bx, by = m.blade_point()
        bands = tools.blade_cells(bx + CELL * np.arange(6), np.full(6, by))
        # work before the snapshot, so that it holds no fresh tool state
        tools.enter_blade_cell(bands[0])
        tools.enter_ripper_cell(int(terrain.cells_of(bx, by - 2.0)))
        tools.face_run, tools.last_cell = 0.3, 5
        snap, before = tools.snapshot(), self.state(m)
        assert 0.0 < tools.prism < 0.05 and tools.spill == 0.0
        for band in bands[1:]:
            assert tools.enter_blade_cell(band)
        for j in range(4):
            tools.enter_ripper_cell(int(terrain.cells_of(bx + CELL * j, by + 2.0)))
        after = self.state(m)
        assert tools.spill > 0.0 and tools.prism == 0.05
        assert {key for key in before if before[key] != after[key]} == {
            "bank_floor", "loose_depth", "carried_out", "prism", "face_force", "rip_face",
            "visited", "spill", "journal"}
        tools.restore(snap)
        assert self.state(m) == before
        assert tools.snapshot() == snap


class TestHoldRules:
    """The hold rule of `price_steps`, priced at one step and over a run,
    on a rear anchor set by hand."""

    @staticmethod
    def machine(env, rake, anchor):
        m = Machine(replace(REFERENCE, ripper_rake_deg=rake), flat(n=40), env)
        m.anchors["rear"] = anchor
        return m

    @staticmethod
    def anchors():
        """A friction anchor and spike anchors seated by `VehicleSpec.seat`,
        also with power-of-two tan(beta), so that a draft can sit exactly
        on the flip bound; at 4 the frame flips before the spikes give."""
        friction = REFERENCE.skid_friction(SOFT, MOON.gravity)
        yield AnchorState(0.0, 0.0, 0.0, friction, 0.0, by_friction=True)
        for force in (0.0, 300.0, 1400.0):
            depth, capacity, tan_beta = REFERENCE.seat(force, SOFT, 2)
            for tb in (tan_beta, 0.5, 4.0):
                yield AnchorState(0.0, 0.0, depth, capacity, 0.0, tan_beta=tb)

    @staticmethod
    def frictions(m):
        return [m.spec.skid_friction(p, m.env.gravity) for p in (SOFT, CRUSTED_SLICK)]

    @staticmethod
    def bounds(m, friction, ripping):
        """Drafts at capacity, capacity + friction and the flip bounds."""
        anchor = m.anchors["rear"]
        weight = m.spec.mass * m.env.gravity
        out = [anchor.capacity, anchor.capacity + friction]
        lift = anchor.tan_beta - (math.tan(math.radians(m.spec.ripper_rake_deg))
                                  if ripping else 0.0)
        if lift > 0.0:
            out.append(weight / lift)
        return out

    @staticmethod
    def around(bound):
        """The bound and the two floats either side of it."""
        out = [bound]
        below = above = bound
        for _ in range(2):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            out += [below, above]
        return out

    @staticmethod
    def clears(m, draft, friction):
        """True when `draft` clears the anchor's capacity: a friction
        anchor gives, or spikes must deepen past capacity plus friction."""
        anchor = m.anchors["rear"]
        if anchor.by_friction:
            return draft > anchor.capacity
        return draft > anchor.capacity + friction

    @classmethod
    def event(cls, m, draft, friction, ripping):
        """True when the anchor clears its capacity, or when the spikes'
        lift draft * tan(beta) reaches the weight plus, when ripping, the
        tine downforce draft * tan(rake)."""
        anchor = m.anchors["rear"]
        if cls.clears(m, draft, friction):
            return True
        hold = m.spec.mass * m.env.gravity
        if ripping:
            hold += draft * math.tan(math.radians(m.spec.ripper_rake_deg))
        return not anchor.by_friction and draft * anchor.tan_beta >= hold

    @staticmethod
    def price(m, drafts, friction, ripping):
        """`price_steps` on level ground with each draft as the tow load:
        one step for a float, a run for a list."""
        if isinstance(drafts, float):
            zero = 0.0
        else:
            drafts, friction = np.array(drafts), np.array(friction)
            zero = np.zeros(len(drafts))
        return price_steps(zero, SOFT.loose_density, friction, None, zero if ripping else None,
                           0.0, drafts, m.spec, m.env.gravity, m.anchors["rear"])

    @pytest.mark.parametrize("env", [MOON, EARTH])
    @pytest.mark.parametrize("rake", [0.0, 5.0, 35.0])
    @pytest.mark.parametrize("ripping", [False, True])
    def test_each_bound_and_its_neighbours_alike(self, env, rake, ripping):
        for anchor in self.anchors():
            m = self.machine(env, rake, anchor)
            for f in self.frictions(m):
                for bound in self.bounds(m, f, ripping):
                    for tow in self.around(bound):
                        draft = max(tow, 0.0)  # drafts are floored at 0
                        held = 0 if self.event(m, draft, f, ripping) else 1
                        clears = self.clears(m, draft, f)
                        assert self.price(m, tow, f, ripping) == (draft, held, clears)
                        drafts, run_held, run_clears = self.price(m, [tow], [f], ripping)
                        assert drafts.tolist() == [draft]
                        assert (run_held, run_clears.tolist()) == (held, [clears])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_run_rule_finds_the_first_single_step_event(self, data):
        # A run of steps, each with its own grade, blade load, face and
        # tine force, against the same steps priced one at a time.  The
        # tow sets each step's draft near a drawn target, often an exact
        # bound, and is exact where the step adds no other force.
        m = self.machine(data.draw(st.sampled_from([MOON, EARTH])),
                         data.draw(st.sampled_from([0.0, 5.0, 35.0])),
                         data.draw(st.sampled_from(list(self.anchors()))))
        spec, g = m.spec, m.env.gravity
        ripping = data.draw(st.booleans())
        cutting = data.draw(st.booleans())
        frictions = self.frictions(m)
        top = 1.5 * max(max(self.bounds(m, f, ripping)) for f in frictions)
        density = SOFT.loose_density
        steps = []  # per step: rise, friction, face, rip, prism, tow
        for _ in range(data.draw(st.integers(1, 12))):
            f = data.draw(st.sampled_from(frictions))
            if data.draw(st.booleans()):
                bound = data.draw(st.sampled_from(self.bounds(m, f, ripping)))
                draft = data.draw(st.sampled_from(self.around(bound)))
            else:
                draft = data.draw(st.floats(0.0, top))
            prism = data.draw(st.sampled_from([0.0, 0.0, 0.37, 1.5]))
            face = data.draw(st.sampled_from([0.0, 0.0, 0.25 * top])) if cutting else None
            rip = data.draw(st.sampled_from([0.0, 0.0, 0.1 * top])) if ripping else None
            rise = data.draw(st.sampled_from([0.0, -0.0, 0.03, -0.2]))
            tools = ((face + spec.prism_drag(prism, density, g) if cutting else 0.0)
                     + (rip if ripping else 0.0))
            steps.append((rise, f, face, rip, prism, draft - tools))
        singles = [price_steps(rise, density, f, face, rip, prism, tow, spec, g,
                               m.anchors["rear"])
                   for rise, f, face, rip, prism, tow in steps]
        held = next((i for i, step in enumerate(singles) if step[1] == 0), len(steps))
        rise, f, face, rip, prism, tow = (np.array(col) for col in zip(*steps))
        run, run_held, clears = price_steps(
            rise, np.full(len(steps), density), f, face if cutting else None,
            rip if ripping else None, prism, tow, spec, g, m.anchors["rear"])
        assert run.tolist() == [step[0] for step in singles]
        assert run_held == held
        assert clears.tolist() == [step[2] for step in singles]


class TestBlade:
    def test_cut_fills_the_prism_and_closes_the_books(self):
        terrain = flat()
        m = Machine(REFERENCE, terrain, MOON)
        m.set_blade(-0.05)
        rec = m.half_cycle()
        assert m.tools.prism > 0.0
        assert rec.prism_volume == m.tools.prism
        audit = terrain.audit()
        carried_bank = (audit.loose_present + m.tools.prism) / SWELL_FACTOR
        assert audit.bank_removed == pytest.approx(carried_bank, rel=1e-12)

    def test_blade_cuts_only_on_expansion(self):
        terrain = flat()
        m = Machine(REFERENCE, terrain, MOON)
        m.set_blade(-0.05)
        m.half_cycle()
        removed = terrain.audit().bank_removed
        m.half_cycle()  # contraction: prism rides, face is idle
        assert terrain.audit().bank_removed == removed

    def test_capacity_overflow_spills_off_the_ends(self):
        spec = replace(REFERENCE, blade_capacity=0.15)
        terrain = flat()
        m = Machine(spec, terrain, MOON)
        m.set_blade(-0.05)
        m.advance(4.0)
        spilled = sum(c.spill_volume for c in m.cycles)
        assert m.tools.prism == pytest.approx(0.15)
        assert spilled > 0.0
        audit = terrain.audit()
        carried_bank = (audit.loose_present + m.tools.prism) / SWELL_FACTOR
        assert audit.bank_removed == pytest.approx(carried_bank, rel=1e-12)

    def test_mask_limits_the_cut_to_its_cells(self):
        terrain = flat()
        m = Machine(REFERENCE, terrain, MOON)
        i, j = terrain.cell_of(*m.blade_point())
        cells = frozenset((i, j + k) for k in range(1, 5))
        m.set_blade(-0.05, mask=cells)
        m.half_cycle()
        cut = terrain.bank_floor < 0.0
        assert {tuple(c) for c in np.argwhere(cut).tolist()} == set(cells)
        assert np.all(terrain.bank_floor[cut] == pytest.approx(-0.05))

    @pytest.mark.parametrize("extra", ["none", "off the map", "empty"])
    def test_mask_cuts_its_cells_and_leaves_raised_cells_outside_it(self, extra):
        terrain = flat()
        m = Machine(REFERENCE, terrain, MOON)
        i, j = terrain.cell_of(*m.blade_point())
        # raised cells in the blade's path, across the rows under its span
        terrain.bank_floor[i - 2:i + 3, j:j + 8] = 0.03
        before = terrain.bank_floor.copy()
        cells = frozenset((i, j + k) for k in range(1, 5))
        mask = cells
        if extra == "off the map":
            # a lookup that wrapped these indices would reach (i + 1, j + k)
            # and the row after
            mask = cells | {(i, j + k + GRID) for k in range(1, 5)} \
                | {(i + 1 - GRID, j + k) for k in range(1, 5)} | {(-1, -1), (GRID, GRID)}
        elif extra == "empty":
            mask, cells = frozenset(), frozenset()
        m.set_blade(-0.05, mask=mask)
        m.half_cycle()
        cut = terrain.bank_floor != before
        assert {tuple(c) for c in np.argwhere(cut).tolist()} == set(cells)
        assert np.all(terrain.bank_floor[cut] == pytest.approx(-0.05))
        if not cells:
            assert m.tools.prism == 0.0

    def test_masked_stroke_that_slips_mid_cut_matches_an_unmasked_one(self):
        # Only the strip stands above the target, so the unmasked blade
        # cuts the cells the mask names; it also works every crossing the
        # masked blade drops.
        def run(masked):
            terrain = flat(surface=np.full((GRID, GRID), -0.05))
            m = Machine(REFERENCE, terrain, MOON)
            i, j = terrain.cell_of(*m.blade_point())
            strip = frozenset((i + di, j + dj) for di in (-1, 0, 1) for dj in range(3, 7))
            for cell in strip:
                terrain.bank_floor[cell] = 0.03
            m.set_blade(-0.05, mask=strip if masked else None)
            m.advance(2.0)
            return m

        masked, unmasked = run(True), run(False)
        # the anchor seats unloaded, so any slip is a deepening mid-cut
        assert any(c.mode == "expand" and c.slip > 0.0 for c in masked.cycles)
        assert [astuple(c) for c in masked.cycles] == [astuple(c) for c in unmasked.cycles]
        assert np.array_equal(masked.terrain.bank_floor, unmasked.terrain.bank_floor)
        assert np.array_equal(masked.terrain.loose_depth, unmasked.terrain.loose_depth)
        assert (masked.x, masked.y, masked.separation, masked.tools.prism) \
            == (unmasked.x, unmasked.y, unmasked.separation, unmasked.tools.prism)

    def test_clearing_the_blade(self):
        m = Machine(REFERENCE, flat(), MOON)
        m.set_blade(-0.05)
        m.set_blade(None)
        assert m.tools.blade is None

    @pytest.mark.parametrize("spec,soil,target", [
        (REFERENCE, SOFT, -0.05),
        (CONSTRUCTION, SOFT, -0.05),
        (REFERENCE, MEDIUM, -0.02),
    ])
    def test_a_cut_converges_as_the_step_shrinks(self, spec, soil, target, monkeypatch):
        # one full cutting stroke on the Moon at three integration steps
        totals = []
        for step in (0.02, 0.01, 0.005):
            monkeypatch.setattr(locomotion, "STEP", step)
            m = Machine(spec, flat(soil), MOON)
            m.set_blade(target)
            m.half_cycle()
            totals.append(m.energy_totals())
        for key in ("useful", "total"):
            values = [t[key] for t in totals]
            assert values[0] > 0.0
            assert max(values) <= 1.005 * min(values)


class TestRipper:
    def test_rips_only_on_contraction(self):
        terrain = flat()
        m = Machine(REFERENCE, terrain, EARTH)
        m.set_ripper(0.10)
        expand = m.half_cycle()
        assert float(np.sum(terrain.loose_depth)) == 0.0
        assert expand.draft_peak == 0.0
        contract = m.half_cycle()
        assert float(np.sum(terrain.loose_depth)) > 0.0
        assert contract.draft_peak > 0.0

    def test_depth_validation(self):
        m = Machine(REFERENCE, flat(), EARTH)
        with pytest.raises(ValueError):
            m.set_ripper(-0.1)


class TestDumpAndLedger:
    def test_dump_returns_spoil_to_the_ground(self):
        terrain = flat()
        m = Machine(REFERENCE, terrain, MOON)
        m.tools.prism = 0.4
        assert m.dump_prism() == pytest.approx(0.4)
        assert m.tools.prism == 0.0
        on_ground = float(np.sum(terrain.loose_depth)) * terrain.cell_area
        assert on_ground == pytest.approx(0.4, rel=1e-12)

    def test_empty_dump_is_a_noop(self):
        m = Machine(REFERENCE, flat(), MOON)
        assert m.dump_prism() == 0.0

    def test_dump_off_the_map_is_a_runtime_failure(self):
        m = Machine(REFERENCE, flat(), MOON, x=39.5)
        m.tools.prism = 0.4
        with pytest.raises(SimulationError, match=r"dump point \(40\.30, 0\.00\) is off the map"):
            m.dump_prism()

    def test_energy_totals_sum_the_records(self):
        m = Machine(REFERENCE, flat(), EARTH)
        m.extra_draft = 300.0
        m.advance(5.0)
        totals = m.energy_totals()
        assert totals["useful"] == pytest.approx(
            sum(c.useful_work for c in m.cycles))
        assert totals["total"] == pytest.approx(
            totals["useful"] + totals["anchoring"] + totals["extraction"])
        assert 0.0 < totals["efficiency"] <= 1.0

    def test_energy_totals_add_in_record_order(self):
        # Since Python 3.12 the builtin sum compensates: ten 0.1 J cycles
        # give 1.0 there and 0.9999999999999999 added in order.
        m = Machine(REFERENCE, flat(), EARTH)
        m.advance(1.0)
        m.cycles = [replace(m.cycles[0], useful_work=0.1, anchoring_work=0.1,
                            extraction_work=0.1)] * 10
        in_order = 0.0
        for _ in m.cycles:
            in_order += 0.1
        totals = m.energy_totals()
        assert totals["useful"] == totals["anchoring"] \
            == totals["extraction"] == in_order
        assert totals["total"] == 3.0 * in_order

    def test_fresh_machine_reports_unity_efficiency(self):
        m = Machine(REFERENCE, flat(), EARTH)
        totals = m.energy_totals()
        assert totals["total"] == 0.0
        assert totals["efficiency"] == 1.0


class TestTraverseDoctrine:
    def test_loaded_cap(self):
        assert traverse_check(20.0, loaded=True, repose_angle_deg=41.0)
        assert not traverse_check(20.1, loaded=True, repose_angle_deg=41.0)
        # soil weaker than the doctrine cap binds first
        assert not traverse_check(16.0, loaded=True, repose_angle_deg=15.0)

    def test_unloaded_repose_climb(self):
        assert traverse_check(41.0, loaded=False, repose_angle_deg=41.0)
        assert not traverse_check(45.0, loaded=False, repose_angle_deg=41.0)
        # chassis tilt limit still applies on firmer ground
        assert traverse_check(40.0, loaded=False, repose_angle_deg=30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            traverse_check(-1.0, loaded=True, repose_angle_deg=41.0)
        with pytest.raises(ValueError):
            traverse_check(90.0, loaded=False, repose_angle_deg=41.0)
        with pytest.raises(ValueError):
            traverse_check(10.0, loaded=True, repose_angle_deg=0.0)


class TestConventionalBaseline:
    def test_per_mass_pull(self):
        assert conventional_drawbar_per_mass(EARTH) == pytest.approx(3.924)
        assert conventional_drawbar_per_mass(MOON) == pytest.approx(0.34335)

    def test_unknown_environment(self):
        from spikedozer.soils import MARS
        with pytest.raises(ValueError):
            conventional_drawbar_per_mass(MARS)
