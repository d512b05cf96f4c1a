"""Gravity environments and layered strength profiles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spikedozer.soils import (
    EARTH,
    ENVIRONMENTS,
    HARD,
    MEDIUM,
    MOON,
    SOFT,
    SOILS,
    Duricrust,
    Environment,
    PatchSoilField,
    SoilField,
    SoilLayer,
    SoilPatch,
    SoilProfile,
    crust_breaks,
)


class TestEnvironments:
    def test_moon_is_one_sixth_earth(self):
        assert EARTH.gravity / MOON.gravity == pytest.approx(6.0)

    def test_registry_covers_all(self):
        assert set(ENVIRONMENTS) == {"earth", "moon", "mars"}

    def test_nonpositive_gravity_rejected(self):
        with pytest.raises(ValueError):
            Environment("void", 0.0)

    @pytest.mark.parametrize("gravity", [math.nan, math.inf])
    def test_non_finite_gravity_rejected(self, gravity):
        with pytest.raises(ValueError, match="finite"):
            Environment("custom", gravity)


class TestLayers:
    def test_validation(self):
        with pytest.raises(ValueError):
            SoilLayer(thickness=0.0, resistance=1e6)
        with pytest.raises(ValueError):
            SoilLayer(thickness=1.0, resistance=-5.0)
        with pytest.raises(ValueError):
            SoilLayer(thickness=1.0, resistance=1e6, friction_mu=2.5)

    def test_boundary_belongs_to_deeper_layer(self):
        prof = SoilProfile(
            name="two",
            layers=(SoilLayer(0.3, 1e6), SoilLayer(1.0, 2e6)),
            anchor_work_slope=0.1,
        )
        assert prof.resistance_at(0.29) == 1e6
        assert prof.resistance_at(0.3) == 2e6
        assert prof.resistance_at(5.0) == 2e6

    def test_last_layer_unbounded(self):
        assert SOFT.resistance_at(100.0) == SOFT.resistance_at(0.0)

    def test_inversion_rejected_by_default(self):
        layers = (SoilLayer(0.3, 2e6), SoilLayer(1.0, 1e6))
        with pytest.raises(ValueError):
            SoilProfile(name="inv", layers=layers, anchor_work_slope=0.1)
        prof = SoilProfile(name="inv", layers=layers, anchor_work_slope=0.1,
                           allow_inversion=True)
        assert prof.resistance_at(0.5) == 1e6

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            SOFT.resistance_at(-0.1)

    @given(st.floats(min_value=0.0, max_value=9.9))
    def test_resistance_constant_within_reference_layer(self, depth):
        assert SOFT.resistance_at(depth) == 960e3


class TestReferenceProfiles:
    def test_registry(self):
        assert set(SOILS) == {"soft", "medium", "hard"}

    def test_ordering(self):
        assert SOFT.resistance_at(0.1) < MEDIUM.resistance_at(0.1) \
            < HARD.resistance_at(0.1)
        assert SOFT.anchor_work_slope > MEDIUM.anchor_work_slope \
            > HARD.anchor_work_slope

    def test_soft_numbers(self):
        assert SOFT.resistance_at(0.2) == pytest.approx(960e3)
        assert SOFT.anchor_work_slope == pytest.approx(0.10)
        assert SOFT.surface_friction == pytest.approx(0.6)

    def test_loose_always_weaker_than_bank(self):
        for prof in SOILS.values():
            assert prof.loose_resistance < prof.resistance_at(0.0)

    def test_spoil_stronger_than_bank_rejected(self):
        with pytest.raises(ValueError):
            SoilProfile(
                name="bad",
                layers=(SoilLayer(1.0, 40e3),),
                anchor_work_slope=0.1,
            )


class TestDuricrust:
    def test_no_crust_never_blocks(self):
        assert crust_breaks(None, 0.0, 1e-4)

    def test_pressure_threshold(self):
        crust = Duricrust(strength=150e3)
        assert not crust_breaks(crust, 14.9, 1e-4)
        assert crust_breaks(crust, 15.0, 1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            Duricrust(strength=0.0)
        crust = Duricrust(strength=150e3)
        with pytest.raises(ValueError):
            crust_breaks(crust, 10.0, 0.0)


class TestSoilFields:
    def test_uniform_field(self):
        field = SoilField(SOFT)
        assert field.profile_at(123.0, -456.0) is SOFT

    def test_patch_override(self):
        patch = SoilPatch(0.0, 0.0, 10.0, 10.0, HARD)
        field = PatchSoilField(SOFT, [patch])
        assert field.profile_at(5.0, 5.0) is HARD
        assert field.profile_at(-1.0, 5.0) is SOFT

    def test_first_patch_wins(self):
        inner = SoilPatch(0.0, 0.0, 5.0, 5.0, HARD)
        outer = SoilPatch(0.0, 0.0, 10.0, 10.0, MEDIUM)
        field = PatchSoilField(SOFT, [inner, outer])
        assert field.profile_at(2.0, 2.0) is HARD
        assert field.profile_at(8.0, 8.0) is MEDIUM


# A patch whose profile equals HARD but is another object, so `is` tells
# the two apart, and overlaps in both orders.
HARD_TWIN = SoilProfile(name="hard", layers=HARD.layers,
                        anchor_work_slope=HARD.anchor_work_slope)
PATCHES = [SoilPatch(0.0, 0.0, 5.0, 5.0, HARD),
           SoilPatch(2.5, -1.0, 10.0, 5.0, MEDIUM),
           SoilPatch(-3.0, 4.0, 1.0, 8.0, HARD_TWIN),
           SoilPatch(0.0, 0.0, 5.0, 5.0, SOFT),
           SoilPatch(-2.0, -2.0, -2.0, 3.0, MEDIUM)]
EDGES = sorted({v for p in PATCHES for v in (p.x_min, p.y_min, p.x_max, p.y_max)})
COORDS = st.one_of(
    st.sampled_from(EDGES + [math.nextafter(v, d) for v in EDGES for d in (-math.inf, math.inf)]
                    + [math.nan]),
    st.floats(-12.0, 12.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
POINTS = st.lists(st.tuples(COORDS, COORDS), max_size=40)


def assert_profiles_match(field, points):
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    profiles, at = field.profiles_at(xs, ys)
    assert at.shape == xs.shape
    for (x, y), n in zip(points, at.tolist()):
        assert profiles[n] is field.profile_at(x, y)


class TestProfilesAt:
    @given(points=POINTS)
    @example(points=[(v, w) for v in EDGES for w in EDGES])  # every edge and corner
    @example(points=[(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_patch_field_matches_profile_at(self, points):
        assert_profiles_match(PatchSoilField(SOFT, PATCHES), points)

    @given(points=POINTS)
    def test_reversed_overlaps_match_profile_at(self, points):
        assert_profiles_match(PatchSoilField(MEDIUM, PATCHES[::-1]), points)

    @given(points=POINTS)
    def test_fields_without_patches_match_profile_at(self, points):
        assert_profiles_match(PatchSoilField(HARD), points)
        assert_profiles_match(SoilField(SOFT), points)

    def test_first_patch_wins_on_a_shared_corner(self):
        field = PatchSoilField(SOFT, PATCHES)
        profiles, at = field.profiles_at(np.array([5.0, 2.5, 5.0]), np.array([5.0, 5.0, -1.0]))
        assert all(profiles[n] is want for n, want in zip(at, (HARD, HARD, MEDIUM)))
