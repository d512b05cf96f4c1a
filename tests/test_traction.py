"""Spike anchoring statics: geometry, capacity, energetics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spikedozer.locomotion import CONSTRUCTION
from spikedozer.soils import HARD, MEDIUM, SOFT, SoilLayer, SoilProfile
from spikedozer.traction import (
    DEPTH_INCREMENT,
    REFERENCE_GEOMETRY,
    SpikeGeometry,
    anchoring_slip,
    anchoring_work,
    derated_pull_weight_ratio,
    flip_margin,
    lift_force,
    pull_weight_ratio,
    ripper_downforce,
    tractive_efficiency,
)

angles = st.floats(min_value=1.0, max_value=89.0)
forces = st.floats(min_value=0.0, max_value=1e6)

LAYERED = SoilProfile(
    name="layered", anchor_work_slope=0.1,
    layers=(SoilLayer(0.07, 200e3), SoilLayer(0.12, 900e3), SoilLayer(10.0, 2.5e6)))
# capacity falls at 0.1 m and passes its shallow peak again from 0.3 m
INVERTED = SoilProfile(
    name="inverted", anchor_work_slope=0.1,
    layers=(SoilLayer(0.1, 2e6), SoilLayer(10.0, 600e3)), allow_inversion=True)


class TestPullWeightRatio:
    def test_thirty_degrees_is_sqrt3(self):
        # 1/tan(30 deg) = sqrt(3)
        assert pull_weight_ratio(30.0) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_forty_five_degrees_is_unity(self):
        assert pull_weight_ratio(45.0) == pytest.approx(1.0)

    def test_shallower_arm_pulls_more(self):
        assert pull_weight_ratio(10.0) > pull_weight_ratio(30.0)

    @given(angles)
    def test_reciprocal_of_tan(self, beta):
        assert pull_weight_ratio(beta) * math.tan(math.radians(beta)) \
            == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [0.0, 90.0, -5.0, 180.0])
    def test_rejects_degenerate_angles(self, bad):
        with pytest.raises(ValueError):
            pull_weight_ratio(bad)

    def test_derating_halves_the_geometric_ratio(self):
        assert derated_pull_weight_ratio(30.0) \
            == pytest.approx(0.5 * math.sqrt(3.0))

    def test_derating_below_one_rejected(self):
        with pytest.raises(ValueError):
            derated_pull_weight_ratio(30.0, derating=0.5)


class TestLiftAndFlip:
    def test_lift_is_drawbar_times_tan(self):
        assert lift_force(100.0, 45.0) == pytest.approx(100.0)
        assert lift_force(300.0, 30.0) == pytest.approx(300.0 * math.tan(math.radians(30.0)))

    def test_flip_margin_positive_when_weight_dominates(self):
        assert flip_margin(1000.0, 100.0, 30.0) > 0.0

    def test_flip_margin_crosses_zero_at_balance(self):
        # W = F * tan(beta) exactly
        w = 200.0 * math.tan(math.radians(40.0))
        assert flip_margin(w, 200.0, 40.0) == pytest.approx(0.0, abs=1e-9)

    @given(forces, angles)
    def test_margin_decreases_with_drawbar(self, f, beta):
        m0 = flip_margin(5000.0, f, beta)
        m1 = flip_margin(5000.0, f + 10.0, beta)
        assert m1 < m0

    def test_ripper_downforce_tan_law(self):
        assert ripper_downforce(500.0, 45.0) == pytest.approx(500.0)
        assert ripper_downforce(500.0, 0.0) == 0.0

    def test_ripper_downforce_rejects_negative_draft(self):
        with pytest.raises(ValueError):
            ripper_downforce(-1.0, 30.0)


class TestSpikeGeometry:
    def test_reference_angle_at_surface(self):
        assert REFERENCE_GEOMETRY.thrust_angle_deg(0.0) == pytest.approx(10.0, abs=1e-9)

    def test_reference_angle_seated(self):
        assert REFERENCE_GEOMETRY.thrust_angle_deg(0.20) == pytest.approx(30.0, abs=1e-9)

    def test_angle_grows_monotonically_with_depth(self):
        angles_out = [REFERENCE_GEOMETRY.thrust_angle_deg(d / 100.0) for d in range(0, 51)]
        assert all(b > a for a, b in zip(angles_out, angles_out[1:]))

    def test_reach_shrinks_as_it_seats(self):
        assert REFERENCE_GEOMETRY.reach(0.2) < REFERENCE_GEOMETRY.reach(0.0)

    def test_calibration_round_trip(self):
        geo = SpikeGeometry.from_thrust_angles(12.0, 35.0, 0.25, 0.08)
        assert geo.thrust_angle_deg(0.0) == pytest.approx(12.0)
        assert geo.thrust_angle_deg(0.25) == pytest.approx(35.0)

    def test_calibration_rejects_shrinking_angle(self):
        with pytest.raises(ValueError):
            SpikeGeometry.from_thrust_angles(30.0, 10.0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            REFERENCE_GEOMETRY.reach(-0.01)


class TestHoldingCapacity:
    def test_reference_capacity_at_full_seat(self):
        # q * w * d = 960e3 * 1.5625e-3 * 0.2 = 300 N
        assert REFERENCE_GEOMETRY.holding_capacity(0.2, SOFT) == pytest.approx(300.0)

    def test_zero_depth_holds_nothing(self):
        assert REFERENCE_GEOMETRY.holding_capacity(0.0, SOFT) == 0.0

    def test_firmer_ground_holds_more(self):
        assert REFERENCE_GEOMETRY.holding_capacity(0.1, HARD) \
            > REFERENCE_GEOMETRY.holding_capacity(0.1, SOFT)

    def test_depth_for_capacity_inverts(self):
        depth = REFERENCE_GEOMETRY.depth_for_capacity(300.0, SOFT)
        assert depth == pytest.approx(0.2)

    def test_depth_for_zero_force_is_zero(self):
        assert REFERENCE_GEOMETRY.depth_for_capacity(0.0, SOFT) == 0.0

    def test_unreachable_load_returns_none(self):
        # soft capacity tops out at 960e3 * 1.5625e-3 * 0.5 = 750 N
        assert REFERENCE_GEOMETRY.depth_for_capacity(751.0, SOFT) is None

    def test_depth_quantized_upward(self):
        # 200 N needs 0.1333... m; next 1 cm step is 0.14
        depth = REFERENCE_GEOMETRY.depth_for_capacity(200.0, SOFT)
        assert depth == pytest.approx(0.14)
        assert REFERENCE_GEOMETRY.holding_capacity(depth, SOFT) >= 200.0

    @given(st.floats(min_value=1.0, max_value=700.0))
    def test_returned_depth_always_suffices(self, force):
        depth = REFERENCE_GEOMETRY.depth_for_capacity(force, SOFT)
        assert depth is not None
        assert REFERENCE_GEOMETRY.holding_capacity(depth, SOFT) >= force

    @pytest.mark.parametrize("spike", [REFERENCE_GEOMETRY, CONSTRUCTION.spike,
                                       SpikeGeometry.from_thrust_angles(max_depth=0.237)],
                             ids=["reference", "construction", "odd_max_depth"])
    @pytest.mark.parametrize("profile", [SOFT, MEDIUM, HARD, LAYERED, INVERTED],
                             ids=lambda p: p.name)
    def test_depth_for_capacity_is_the_first_of_the_1cm_walk(self, spike, profile):
        def walk(force):
            # every depth down from the surface, 1 cm at a time
            for i in range(1, round(spike.max_depth / DEPTH_INCREMENT) + 1):
                depth = i * DEPTH_INCREMENT
                if spike.holding_capacity(depth, profile) >= force:
                    return depth
            return None

        capacities = [spike.holding_capacity(i * DEPTH_INCREMENT, profile)
                      for i in range(1, round(spike.max_depth / DEPTH_INCREMENT) + 1)]
        forces = [1e-9, 1e9, math.inf, math.nan]
        for c, d in zip(capacities, capacities[1:] + capacities[-1:]):
            forces += [c, math.nextafter(c, 0.0), math.nextafter(c, math.inf), 0.5 * (c + d)]
        for force in forces:
            got = spike.depth_for_capacity(force, profile)
            assert got == walk(force), force
            assert got is None or type(got) is float



class TestAnchoringEnergetics:
    def test_soft_reference_case(self):
        # k = 0.1 J/N: 300 N costs 30 J
        assert anchoring_work(300.0, SOFT) == pytest.approx(30.0, abs=1e-12)

    def test_work_scales_linearly(self):
        base = anchoring_work(300.0, SOFT)
        for a in (0.5, 2.0, 10.0):
            assert anchoring_work(a * 300.0, SOFT) == pytest.approx(a * base)

    def test_profile_slopes(self):
        assert anchoring_work(300.0, MEDIUM) == pytest.approx(15.0)
        assert anchoring_work(300.0, HARD) == pytest.approx(9.9)

    def test_work_of_an_array_is_the_work_of_each_force(self):
        forces = np.array([0.0, 1.0, 300.0, 1234.5678])
        assert anchoring_work(forces, MEDIUM).tolist() == [
            anchoring_work(f, MEDIUM) for f in forces.tolist()]
        with pytest.raises(ValueError):
            anchoring_work(np.array([300.0, -1e-300, 2.0]), MEDIUM)

    def test_slip_is_twice_the_slope(self):
        # W = F s / 2 with W = k F gives s = 2 k
        assert anchoring_slip(300.0, SOFT) == pytest.approx(0.2)
        assert anchoring_slip(1.0, SOFT) == pytest.approx(0.2)

    def test_unloaded_seat_does_not_slip(self):
        assert anchoring_slip(0.0, SOFT) == 0.0

    def test_slip_rejects_negative_force(self):
        with pytest.raises(ValueError):
            anchoring_slip(-1.0, SOFT)

    @given(st.floats(min_value=0.0, max_value=1e5))
    def test_slip_consistent_with_ramp_energy(self, force):
        # the ramp model ties work and slip together: W = F * s / 2
        s = anchoring_slip(force, MEDIUM)
        w = anchoring_work(force, MEDIUM)
        assert force * s / 2.0 == pytest.approx(w, abs=1e-9)


class TestTractiveEfficiency:
    def test_reference_cycle(self):
        # 600 J useful, 30 J anchoring: 600/630
        assert tractive_efficiency(600.0, 30.0) == pytest.approx(600.0 / 630.0)

    def test_extraction_lowers_efficiency(self):
        assert tractive_efficiency(600.0, 30.0, 15.0) \
            < tractive_efficiency(600.0, 30.0)

    def test_zero_energy_cycle_rejected(self):
        with pytest.raises(ValueError):
            tractive_efficiency(0.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e6),
           st.floats(min_value=0.0, max_value=1e6))
    def test_bounded_by_unity(self, useful, anchoring, extraction):
        eff = tractive_efficiency(useful, anchoring, extraction)
        assert 0.0 <= eff < 1.0
