"""Tests of the benchmark itself: inputs, tracer, metric names, one pass.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import os
import re
from types import SimpleNamespace as NS

import numpy as np
import pytest

import calibrate
import passes
import run
import tracer as tracing
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = workloads.generate(workload, 3)
    assert first == workloads.generate(workload, 3)
    assert first != workloads.generate(workload, 4)
    assert json.loads(json.dumps(first)) == [list(p) for p in first]


def test_sweep_sizes():
    assert len(workloads.generate("pad_r6", 0)) == 1
    assert len(workloads.generate("drive_sweep", 0)) == 40
    assert len(workloads.generate("plan_sweep", 0)) == 45


def test_plan_depths_cover_the_band_for_every_radius():
    plans = [doc["pad"] for _, doc in workloads.generate("plan_sweep", 11)]
    for k in range(0, 45, 9):
        depths = sorted(p["depth"] for p in plans[k:k + 9])
        for n, depth in enumerate(depths):
            assert 0.30 + 0.20 * n / 9 <= depth <= 0.30 + 0.20 * (n + 1) / 9


def test_plan_check_needs_every_claimed_cell_in_exactly_one_trip():
    claims = np.array([[0, 0], [-1, 1]])
    pad = NS(radius=1.0, depth=1.0)
    volume = np.pi

    def plan(*cells):
        return NS(claims=claims, n_lifts=1, pad=pad, planned_bank_volume=volume,
                  trips=[NS(lift=0, cells=frozenset(c)) for c in cells])

    assert passes._check_plan(plan({(0, 0), (0, 1)}, {(1, 1)})) == []
    # A cell held twice and a cell missed give the right count but fail.
    assert passes._check_plan(plan({(0, 0), (0, 1)}, {(0, 1)}))
    assert passes._check_plan(plan({(0, 0), (0, 1)}, {(1, 1), (0, 0)}))


class _Toy:
    def __init__(self, ticks):
        self.ticks = ticks

    def inner(self):
        self.ticks.append("inner")
        return 1

    def outer(self):
        self.ticks.append("outer")
        return self.inner() + self.inner()


def test_tracer_self_time_on_nested_calls():
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]

    tr = tracing.Tracer(clock=clock)
    toy = _Toy([])
    toy.inner = tr.wrap("toy.inner", toy.inner)
    toy.outer = tr.wrap("toy.outer", _Toy.outer.__get__(toy))
    assert toy.outer() == 2
    # outer reads the clock at 1 and 6; the two inner spans are 2-3 and 4-5.
    stats = tr.stats()
    assert stats["toy.inner"] == (2, 2.0)
    assert stats["toy.outer"] == (1, 3.0)
    assert list(tr.span_parent) == [-1, 0, 0]
    assert list(tr.span_start) == [1.0, 2.0, 4.0]
    assert list(tr.span_end) == [6.0, 3.0, 5.0]


def test_tracer_install_rebinds_imported_names_and_uninstall_restores():
    mods = passes.import_program()
    original = mods.rasters.write_raster
    assert mods.cli.write_raster is original
    tr = tracing.Tracer()
    tr.install(passes.PACKAGE)
    try:
        assert mods.cli.write_raster is mods.rasters.write_raster
        assert mods.cli.write_raster.__wrapped__ is original
        assert mods.earthworks.Terrain.height_at.__wrapped__ is not None
    finally:
        tr.uninstall()
    assert mods.cli.write_raster is original
    assert not hasattr(mods.earthworks.Terrain.height_at, "__wrapped__")


def test_metric_names_and_units_are_well_formed():
    units = dict(run.END_TO_END)
    units.update(run.per_layer_units())
    assert len(units) == len(run.END_TO_END) + len(run.per_layer_units())
    for name, unit in units.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_one_item_traced_and_plain(workload, tmp_path):
    paths = workloads.write_inputs(workloads.generate(workload, 5)[:1],
                                   str(tmp_path / "in"))
    mods = passes.import_program()
    clock = passes.ItemClock(calibrate.probe)
    plain = passes.run_pass(workload, paths, str(tmp_path / "out"), mods, clock)
    assert plain.failures == []
    assert plain.attempted == 1
    items = [seg for seg in plain.segments if seg[2]]
    assert items and all(s > 0.0 and p > 0.0 for s, p, _ in plain.segments)
    if workload == "pad_r6":
        # Items run from one dump to the next: the first and last segments,
        # which hold set-up and the end of the mission, are not trips.
        assert not plain.segments[0][2] and not plain.segments[-1][2]
        assert len(items) == len(plain.segments) - 2
    traced, stats, written, n_spans = run._traced_pass(
        workload, paths, str(tmp_path / "out"), mods, clock,
        str(tmp_path / "spans.npz"))
    assert traced.failures == []
    assert traced.digest == plain.digest
    assert n_spans > 0 and os.path.getsize(tmp_path / "spans.npz") > 0
    metrics = run._layer_metrics(stats, traced.counters, written, 2.0, 1.0)
    assert set(metrics) == set(run.per_layer_units())
    if workload == "plan_sweep":
        assert metrics["locomotion.Machine.half_cycle.calls"] == 0
        assert metrics["planner.trips"] > 0
    else:
        assert metrics["locomotion.half_cycles"] > 0
        assert metrics["rasters.bytes"] > 0
