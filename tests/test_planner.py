"""Pad mission planning: layout, budget, validation, and execution."""

import math
from dataclasses import replace

import numpy as np
import pytest

from spikedozer.earthworks import Terrain
from spikedozer.locomotion import CONSTRUCTION, Machine
from spikedozer.planner import (
    PadSpec,
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
    MOON,
    SOFT,
    MEDIUM,
    Duricrust,
    SoilField,
    SoilLayer,
    SoilProfile,
)


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
        with pytest.raises(ValueError):
            PadSpec(max_loaded_slope_deg=95.0)

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
            assert trip.volume_bank == pytest.approx(trip.volume_loose / 1.3)

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

    def test_describe_is_a_full_listing(self, plan):
        text = describe_plan(plan)
        assert text.startswith("pad mission plan")
        assert len(text.strip().splitlines()) == 7 + len(plan.trips)


class TestEnergyBudget:
    def test_budget_is_positive_and_scales_with_ground(self, plan):
        assert plan.energy_budget > 0.0
        firmer = plan_pad_mission(PadSpec(), CONSTRUCTION, MOON, MEDIUM)
        assert firmer.energy_budget > plan.energy_budget

    def test_gravity_raises_the_bill(self, plan):
        earth = estimate_energy(plan, CONSTRUCTION, EARTH, SOFT)
        assert earth > plan.energy_budget


class TestPeakDraft:
    def test_bigger_prism_pulls_harder(self, plan):
        light = replace(plan.trips[0], volume_loose=0.5)
        heavy = replace(plan.trips[0], volume_loose=1.5)
        assert predict_peak_draft(plan, heavy, MOON, SOFT) \
            > predict_peak_draft(plan, light, MOON, SOFT)

    def test_all_terms_positive(self, plan):
        assert predict_peak_draft(plan, plan.trips[0], MOON, SOFT) > 0.0

    @pytest.mark.parametrize("env", [MOON, EARTH])
    def test_drag_and_climb_are_the_simulators(self, plan, env):
        # With the face term zeroed the prediction is the prism drag plus
        # the rim climb, which the machine prices with the same terms.
        vehicle = replace(plan.vehicle, blade_cut_coeff=0.0)
        plan = replace(plan, vehicle=vehicle)
        trip = plan.trips[-1]
        depth = -trip.target_elevation
        machine = Machine(vehicle, Terrain((4, 4), soil=SOFT), env)
        grade = float(machine._grades(np.array([depth]), False, 1.0)[0])
        simulated = float(machine._drafts(grade, SOFT.loose_density,
                                          trip.volume_loose, 0.0, None))
        assert predict_peak_draft(plan, trip, env, SOFT) == simulated


class TestValidatePlan:
    def test_default_mission_is_clear(self, plan):
        assert validate_plan(plan, MOON, SOFT) == []

    def test_impenetrable_crust_is_flagged(self, plan):
        armored = SoilProfile(
            name="armored",
            layers=(SoilLayer(thickness=10.0, resistance=960e3),),
            anchor_work_slope=0.10,
            duricrust=Duricrust(strength=60e6, thickness=0.05))
        findings = validate_plan(plan, MOON, armored)
        assert any("duricrust" in f for f in findings)

    def test_over_long_push_is_flagged(self, plan):
        stretched = replace(plan.trips[0],
                            deposit_r=plan.trips[0].start_r + 61.0)
        plan.trips[0], original = stretched, plan.trips[0]
        try:
            findings = validate_plan(plan, MOON, SOFT)
        finally:
            plan.trips[0] = original
        assert any("push distance" in f for f in findings)

    def test_overfull_blade_is_flagged(self, plan):
        heaped = replace(plan.trips[0], volume_loose=2.0)
        plan.trips[0], original = heaped, plan.trips[0]
        try:
            findings = validate_plan(plan, MOON, SOFT)
        finally:
            plan.trips[0] = original
        assert any("blade capacity" in f for f in findings)

    def test_steep_start_terrain_is_flagged(self, plan):
        n = 40
        xs = (np.arange(n) + 0.5) * 0.25
        surface = np.tile(xs * 0.6, (n, 1))  # ~31 degree grade
        terrain = Terrain((n, n), 0.25, (0.0, 0.0), SOFT, surface)
        findings = validate_plan(plan, MOON, SOFT, terrain=terrain)
        assert any("starting terrain" in f for f in findings)


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
        assert result.terrain.surface_at_cell(i, j) == pytest.approx(-0.4)

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
