"""Acceptance gate: one check per shipped guarantee.

Each test covers one headline number or behavior of the package, at the
tolerance the guarantee states, and prints a single PASS line when it
holds (run with -s to see them; under plain -v the test name itself is
the per-criterion verdict). Timed criteria assert their wall-clock
budget around the core computation.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from spikedozer import cli
from spikedozer.earthworks import Terrain
from spikedozer.errors import VehicleStuck
from spikedozer.locomotion import (
    CONSTRUCTION,
    REFERENCE,
    Machine,
    conventional_drawbar_per_mass,
    traverse_check,
)
from spikedozer.planner import PadSpec, execute_plan, plan_pad_mission
from spikedozer.sensing import PenetrationEvent, rasterize_events
from spikedozer.soils import (
    EARTH,
    ENVIRONMENTS,
    MOON,
    SOFT,
    Duricrust,
    SoilLayer,
    SoilProfile,
    SOILS,
)
from spikedozer.traction import (
    anchoring_work,
    derated_pull_weight_ratio,
    flip_margin,
    pull_weight_ratio,
    tractive_efficiency,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# low-friction ground under an unbroken crust: sliding friction cannot
# react a 600 N draft and the bare 7 N press cannot break through
CRUSTED_SLICK = SoilProfile(
    name="crusted slick",
    layers=(SoilLayer(thickness=10.0, resistance=960e3, friction_mu=0.1),),
    anchor_work_slope=0.10,
    duricrust=Duricrust(strength=150e3),
)


def _pass(n: int, msg: str) -> None:
    print(f"PASS criterion {n:2d}: {msg}")


def flat(soil=SOFT, n=200):
    half = n * 0.25 / 2.0
    return Terrain((n, n), cell_size=0.25, origin=(-half, -half), soil=soil)


def test_criterion_01_pull_weight_ratio():
    ratio = pull_weight_ratio(30.0)
    assert ratio == pytest.approx(1.7321, abs=1e-4)
    operational = derated_pull_weight_ratio(30.0, derating=2.0)
    assert operational == pytest.approx(ratio / 2.0, abs=1e-12)
    assert abs(operational - 0.85) / 0.85 < 0.02
    _pass(1, f"pull/weight(30 deg) = {ratio:.4f}, derated {operational:.3f}")


def test_criterion_02_thrust_angle_endpoints():
    spike = REFERENCE.spike
    assert spike.thrust_angle_deg(0.0) == pytest.approx(10.0, abs=0.1)
    assert spike.thrust_angle_deg(0.20) == pytest.approx(30.0, abs=0.1)
    _pass(2, "thrust angle 10 deg at the surface, 30 deg at 0.20 m")


def test_criterion_03_anchoring_energy():
    base = anchoring_work(300.0, SOILS["soft"])
    assert base == pytest.approx(30.0, abs=0.5)
    for a in (0.5, 2.0, 10.0):
        assert anchoring_work(a * 300.0, SOILS["soft"]) == a * base
    _pass(3, f"anchoring 300 N on soft = {base:.1f} J, linear in force")


def test_criterion_04_tractive_efficiency():
    t0 = time.perf_counter()
    # one half-cycle whose working frame gains exactly 2 m against 300 N
    spec = dataclasses.replace(REFERENCE, extraction_ratio=0.0)
    m = Machine(spec, flat(), MOON)
    m.extra_draft = 300.0
    rec = m.half_cycle(stroke=2.2)
    assert rec.free_advance == pytest.approx(2.0, abs=1e-12)
    eff = m.energy_totals()["efficiency"]
    assert eff == pytest.approx(0.952, abs=0.005)
    assert eff == pytest.approx(
        tractive_efficiency(600.0, anchoring_work(300.0, SOFT)), abs=1e-12)

    # the command-level 2 m advance stays inside the same band
    m_cmd = Machine(spec, flat(), MOON)
    m_cmd.extra_draft = 300.0
    m_cmd.advance(2.0)
    assert m_cmd.energy_totals()["efficiency"] == pytest.approx(0.952, abs=0.005)

    # any paid extraction strictly lowers it
    m_eps = Machine(REFERENCE, flat(), MOON)  # extraction_ratio 0.5
    m_eps.extra_draft = 300.0
    m_eps.half_cycle(stroke=2.2)
    assert m_eps.energy_totals()["efficiency"] < eff
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(4, f"efficiency {eff:.4f} at zero extraction, lower with it, "
             f"{elapsed * 1e3:.0f} ms")


def test_criterion_05_turn_in_place():
    t0 = time.perf_counter()
    m = Machine(REFERENCE, flat(soil=SOILS["medium"]), MOON)
    halves = m.turn_to(180.0)
    elapsed = time.perf_counter() - t0
    cycles = math.ceil(halves / 2.0)
    assert cycles <= 3
    assert abs(Machine._wrap(math.pi - m.heading)) < 1e-9
    assert m.max_pin_drift < 1e-9
    assert elapsed < 1.0
    _pass(5, f"180 deg in {cycles} cycles, pin drift {m.max_pin_drift:.1e} m, "
             f"{elapsed * 1e3:.0f} ms")


def test_criterion_06_gravity_invariance_and_scaling():
    # flip-limited pull scales with weight, so pull/weight carries no
    # gravity term: the margin zeroes at the same ratio in any preset
    ratio = pull_weight_ratio(30.0)
    for env in (ENVIRONMENTS["earth"], ENVIRONMENTS["moon"],
                ENVIRONMENTS["mars"]):
        weight = REFERENCE.mass * env.gravity
        assert flip_margin(weight, weight * ratio, 30.0) == \
            pytest.approx(0.0, abs=1e-9 * weight)

    # a friction-limited machine at one coefficient loses pull in direct
    # proportion to gravity
    assert EARTH.gravity / MOON.gravity == pytest.approx(6.0, abs=1e-9)

    # per-kg drawbar of the tracked comparison baseline
    earth_pull = conventional_drawbar_per_mass(ENVIRONMENTS["earth"])
    moon_pull = conventional_drawbar_per_mass(ENVIRONMENTS["moon"])
    assert earth_pull == pytest.approx(3.92, abs=0.005)
    assert moon_pull == pytest.approx(0.343, abs=0.0005)
    assert abs(earth_pull - 4.0) / 4.0 < 0.02
    assert abs(moon_pull - 0.35) / 0.35 < 0.02
    _pass(6, f"pull/weight gravity-free; friction baseline ratio 6, "
             f"{earth_pull:.3f} and {moon_pull:.4f} N/kg")


def test_criterion_07_full_pad_mission_mass_audit():
    pad = PadSpec(radius=20.0, depth=0.40, cell_size=0.25)
    t0 = time.perf_counter()
    plan = plan_pad_mission(pad, CONSTRUCTION, MOON, SOFT)
    result = execute_plan(plan, MOON, SOFT)
    elapsed = time.perf_counter() - t0
    analytic = math.pi * pad.radius ** 2 * pad.depth
    # the audit residual is already relative to the volume moved
    assert result.audit_residual < 1e-9
    assert abs(result.excavated_bank - analytic) / analytic < 0.02
    assert elapsed < 60.0
    _pass(7, f"{result.excavated_bank:.1f} m3 vs {analytic:.1f} analytic, "
             f"residual {result.audit_residual:.1e}, {elapsed:.1f} s")


def test_criterion_08_slope_suite():
    t0 = time.perf_counter()
    assert traverse_check(20.0, loaded=True, repose_angle_deg=41.0)
    assert traverse_check(41.0, loaded=False, repose_angle_deg=41.0)
    assert not traverse_check(21.0, loaded=True, repose_angle_deg=41.0)
    assert not traverse_check(45.0, loaded=False, repose_angle_deg=41.0)

    t = Terrain((15, 15), cell_size=0.25, soil=SOFT)
    t.loose_depth[7, 7] = 2.0
    t.relax()
    slope = t.max_surface_slope_deg()
    assert slope <= SOFT.repose_angle_deg + 0.5 + 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass(8, f"20 deg loaded / 41 deg unloaded hold, relaxed spoil at "
             f"{slope:.1f} deg, {elapsed * 1e3:.0f} ms")


def test_criterion_09_crust_stuck_and_recovery():
    t0 = time.perf_counter()
    # the seating press is exactly 7 N under Earth gravity
    assert REFERENCE.spike_press_mass * EARTH.gravity == \
        pytest.approx(7.0, abs=1e-9)

    bare = dataclasses.replace(REFERENCE, has_crust_actuator=False)
    m = Machine(bare, flat(soil=CRUSTED_SLICK, n=80), EARTH)
    m.extra_draft = 600.0
    x0, y0 = m.x, m.y
    with pytest.raises(VehicleStuck, match="crust"):
        m.advance(1.0)
    assert m.x == x0 and m.y == y0

    recovered = Machine(REFERENCE, flat(soil=CRUSTED_SLICK, n=80), EARTH)
    recovered.extra_draft = 600.0
    recovered.advance(1.0)
    assert recovered.x == pytest.approx(1.0, abs=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(9, f"bare press stuck at zero displacement, actuator advances, "
             f"{elapsed * 1e3:.0f} ms")


def test_criterion_10_survey_raster_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    events = [
        PenetrationEvent(
            index=k,
            x=float(rng.uniform(-6.0, 6.0)),
            y=float(rng.uniform(-6.0, 6.0)),
            depth=float(rng.uniform(0.05, 0.5)),
            min_q=float(rng.uniform(50e3, 900e3)),
            mean_q=float(rng.uniform(900e3, 2e6)),
            temperature_K=250.0,
        )
        for k in range(400)
    ]
    shape, cell, origin = (40, 40), 0.25, (-5.0, -5.0)
    min_q, mean_q = rasterize_events(events, shape, cell, origin)

    # independent recomputation, same event order
    ref_min = np.full(shape, np.nan)
    ref_sum = np.zeros(shape)
    ref_n = np.zeros(shape, dtype=int)
    for ev in events:
        j = int(math.floor((ev.x - origin[0]) / cell))
        i = int(math.floor((ev.y - origin[1]) / cell))
        if not (0 <= i < shape[0] and 0 <= j < shape[1]):
            continue
        if ref_n[i, j] == 0 or ev.min_q < ref_min[i, j]:
            ref_min[i, j] = ev.min_q
        ref_sum[i, j] += ev.mean_q
        ref_n[i, j] += 1
    ref_mean = np.full(shape, np.nan)
    ref_mean[ref_n > 0] = ref_sum[ref_n > 0] / ref_n[ref_n > 0]

    assert np.array_equal(min_q, ref_min, equal_nan=True)
    assert np.array_equal(mean_q, ref_mean, equal_nan=True)
    covered = ~np.isnan(min_q)
    assert covered.any()
    assert np.all(min_q[covered] <= mean_q[covered])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass(10, f"rasters bit-exact over {len(events)} events, min <= mean, "
              f"{elapsed * 1e3:.0f} ms")


def test_criterion_11_preset_determinism(tmp_path):
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        rc = cli.main(["simulate", "--scenario",
                       str(SCENARIOS / "strip_cut.json"), "--out", str(out)])
        assert rc == 0
        outs.append({p.name: p.read_bytes()
                     for p in sorted(out.iterdir()) if p.is_file()})
    assert outs[0].keys() == outs[1].keys()
    assert outs[0] == outs[1]
    _pass(11, f"{len(outs[0])} artifacts byte-identical across equal-seed runs")
