"""Penetration survey: traces, events, rasters, and the log round trip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikedozer.rasters import write_table
from spikedozer.sensing import (
    EVENT_FIELDS,
    GroundTemperatureField,
    PenetrationEvent,
    PenetrationRecorder,
    load_events,
    penetration_trace,
    rasterize_events,
)
from spikedozer.soils import (
    HARD,
    SOFT,
    PatchSoilField,
    SoilField,
    SoilLayer,
    SoilPatch,
    SoilProfile,
)

LAYERED = SoilProfile(
    name="layered",
    layers=(SoilLayer(thickness=0.1, resistance=100e3),
            SoilLayer(thickness=10.0, resistance=960e3)),
    anchor_work_slope=0.10,
)


class TestTemperatureField:
    def test_linear_in_depth(self):
        field = GroundTemperatureField()
        assert field.at(0.0) == 250.0
        assert field.at(0.2) == pytest.approx(242.0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            GroundTemperatureField().at(-0.1)


class TestPenetrationTrace:
    def test_uniform_ground_reads_flat(self):
        trace = penetration_trace(SoilField(SOFT), 0.0, 0.0, 0.2)
        assert trace.shape == (20,)
        assert np.all(trace == 960e3)

    def test_layer_boundary_shows_in_the_trace(self):
        trace = penetration_trace(SoilField(LAYERED), 0.0, 0.0, 0.2)
        # boundary sample belongs to the deeper, stronger layer
        assert float(np.min(trace)) == 100e3
        assert float(np.mean(trace)) == pytest.approx(
            (9 * 100e3 + 11 * 960e3) / 20)

    def test_probe_reads_the_weakest_neighbor(self):
        # probe just inside a hard patch still feels the soft ground one
        # sample step to the side
        field = PatchSoilField(SOFT, [SoilPatch(0.0, 0.0, 1.0, 1.0, HARD)])
        trace = penetration_trace(field, 0.005, 0.5, 0.2)
        assert float(np.min(trace)) == 960e3

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            penetration_trace(SoilField(SOFT), 0.0, 0.0, 0.0)


class TestRecorder:
    def test_events_accumulate_with_indices(self):
        rec = PenetrationRecorder(SoilField(SOFT))
        rec.record(0.5, 0.5, 0.2)
        ev = rec.record(1.5, 0.5, 0.1)
        assert [e.index for e in rec.events] == [0, 1]
        assert ev.min_q == 960e3
        assert ev.min_q <= ev.mean_q
        assert ev.temperature_K == pytest.approx(246.0)

    def test_seeded_recorders_agree(self):
        kw = dict(rng=np.random.default_rng(3), noise_rel=0.1)
        a = PenetrationRecorder(SoilField(LAYERED), **kw)
        b = PenetrationRecorder(
            SoilField(LAYERED), rng=np.random.default_rng(3), noise_rel=0.1)
        assert a.record(0.5, 0.5, 0.25) == b.record(0.5, 0.5, 0.25)

    def test_noise_is_seed_deterministic(self):
        a, b = (PenetrationRecorder(SoilField(SOFT), rng=np.random.default_rng(7), noise_rel=0.2)
                for _ in range(2))
        event = a.record(0.0, 0.0, 0.3)
        assert event == b.record(0.0, 0.0, 0.3)
        assert event.min_q < 960e3  # the clean trace reads 960e3 throughout

    @pytest.mark.parametrize("noise_rel", [0.02, 0.3])
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_noisy_events_are_the_two_draws_in_turn(self, seed, noise_rel):
        # The recorder draws its noise in one call.  Its events are, to
        # the bit, those of drawing the trace's noise first, each sample
        # scaled by 1 + its draw and floored at 1, and then the
        # temperature's, with mean_q the trace's mean.  Depths of 1 to 40
        # samples, on both sides of a patch edge.
        field = PatchSoilField(SOFT, [SoilPatch(0.0, 0.0, 1.0, 1.0, LAYERED)])
        temperature = GroundTemperatureField()
        rec = PenetrationRecorder(field, rng=np.random.default_rng(seed), noise_rel=noise_rel)
        rng = np.random.default_rng(seed)
        for x, y, depth in [(0.5, 0.5, 0.004), (1.005, 0.5, 0.137), (0.995, 0.25, 0.25),
                            (-0.3, 2.0, 0.4), (0.5, 0.5, 0.031), (0.5, 0.5, 0.031)]:
            trace = penetration_trace(field, x, y, depth)
            trace = np.maximum(trace * (1 + rng.uniform(-noise_rel, noise_rel, len(trace))), 1.0)
            temperature_K = temperature.at(depth) * (1.0 + rng.uniform(-noise_rel, noise_rel))
            event = rec.record(x, y, depth)
            assert event.mean_q == float(trace.mean())
            assert event == PenetrationEvent(event.index, x, y, depth, float(trace.min()),
                                             float(trace.mean()), temperature_K)
        assert rec.rng.random() == rng.random()


class TestEventLog:
    def test_round_trip(self, tmp_path):
        rec = PenetrationRecorder(SoilField(SOFT))
        rec.record(0.5, 0.25, 0.2)
        rec.record(-1.5, 3.0, 0.1)
        path = str(tmp_path / "events.csv")
        write_table(path, EVENT_FIELDS, [e.as_row() for e in rec.events])
        assert load_events(path) == rec.events

    def test_missing_columns_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        write_table(path, ("index", "x", "y"), [(0, 1.0, 2.0)])
        with pytest.raises(ValueError, match="lacks event columns"):
            load_events(path)


def _event(index, x, y, q_lo, q_hi):
    return PenetrationEvent(index=index, x=x, y=y, depth=0.2,
                            min_q=min(q_lo, q_hi),
                            mean_q=0.5 * (q_lo + q_hi),
                            temperature_K=242.0)


class TestRasterize:
    def test_cell_aggregation(self):
        events = [_event(0, 0.1, 0.1, 100.0, 300.0),
                  _event(1, 0.2, 0.1, 50.0, 400.0),
                  _event(2, 0.8, 0.8, 700.0, 900.0)]
        min_q, mean_q = rasterize_events(events, (2, 2), 0.5)
        assert min_q[0, 0] == 50.0
        assert mean_q[0, 0] == pytest.approx((200.0 + 225.0) / 2)
        assert min_q[1, 1] == 700.0
        assert np.isnan(min_q[0, 1]) and np.isnan(mean_q[1, 0])

    def test_off_raster_events_are_ignored(self):
        events = [_event(0, 9.0, 9.0, 100.0, 300.0)]
        min_q, mean_q = rasterize_events(events, (2, 2), 0.5)
        assert np.all(np.isnan(min_q)) and np.all(np.isnan(mean_q))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=1.0, max_value=1e6)), max_size=12))
    def test_min_never_exceeds_mean(self, raw):
        events = [_event(i, x, y, a, b) for i, (x, y, a, b) in enumerate(raw)]
        min_q, mean_q = rasterize_events(events, (4, 4), 0.25)
        touched = ~np.isnan(min_q)
        assert np.array_equal(touched, ~np.isnan(mean_q))
        assert np.all(min_q[touched] <= mean_q[touched] + 1e-9)
