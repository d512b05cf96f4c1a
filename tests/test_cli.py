"""End-to-end checks of the command line front end.

Runs the shipped scenario presets through cli.main and inspects exit
codes, artifact files, and determinism. main() takes an argv list and
returns the exit code directly; only the checks that guard against a
hang run the CLI in a child process, under a timeout.
"""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spikedozer import cli
from spikedozer.locomotion import RECORD_FIELDS
from spikedozer.rasters import read_raster
from spikedozer.scenario import load_scenario
from spikedozer.sensing import EVENT_FIELDS, load_events
from spikedozer.traction import SpikeGeometry

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"

DRIVE_ARTIFACTS = {"trajectory.csv", "energy.csv", "events.csv",
                   "surface.csv", "bank.csv", "loose.csv"}


def run_cli(argv, timeout=60.0, max_memory=None):
    """Run the CLI in a child process, so a hang fails the test instead
    of stalling the suite; returns (exit code, stderr).  `max_memory`
    caps the child's address space in bytes, so a run that would take
    too much memory fails on its first large allocation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (max_memory, max_memory))

    proc = subprocess.run([sys.executable, "-m", "spikedozer.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout,
                          preexec_fn=cap_memory if max_memory else None)
    return proc.returncode, proc.stderr


def test_the_package_runs_as_a_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "spikedozer", "--help"],
                          capture_output=True, text=True, env=env, timeout=60.0)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: spikedozer ")


def write_scenario(tmp_path, doc):
    """Write a scenario document, or JSON text verbatim; returns its path."""
    path = tmp_path / "scenario.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def tree_bytes(root):
    """Map every file under root to its bytes, keyed by relative path."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def strip_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("strip")
    rc = cli.main(["simulate", "--scenario",
                   str(SCENARIOS / "strip_cut.json"), "--out", str(out)])
    assert rc == 0
    return out


class TestSimulate:
    def test_drive_artifact_set(self, strip_run):
        names = {p.name for p in strip_run.iterdir()}
        # a drive script has no plan, so no plan.txt
        assert names == DRIVE_ARTIFACTS

    def test_trajectory_table(self, strip_run):
        lines = (strip_run / "trajectory.csv").read_text().splitlines()
        assert lines[0] == ",".join(RECORD_FIELDS)
        assert len(lines) >= 6
        for line in lines[1:]:
            assert len(line.split(",")) == len(RECORD_FIELDS)

    def test_energy_table(self, strip_run):
        lines = (strip_run / "energy.csv").read_text().splitlines()
        assert lines[0] == "category,value"
        table = dict(line.split(",") for line in lines[1:])
        assert set(table) == {"useful", "anchoring", "extraction", "total",
                              "efficiency"}
        assert float(table["total"]) == pytest.approx(
            float(table["useful"]) + float(table["anchoring"])
            + float(table["extraction"]), rel=1e-9)

    def test_events_recorded(self, strip_run):
        events = load_events(str(strip_run / "events.csv"))
        assert len(events) > 0
        for ev in events:
            assert -15.0 <= ev.x <= 15.0
            assert -15.0 <= ev.y <= 15.0
            assert ev.min_q <= ev.mean_q

    def test_surface_raster(self, strip_run):
        grid, cell, origin = read_raster(str(strip_run / "surface.csv"))
        assert grid.shape == (120, 120)
        assert cell == 0.25
        assert origin == (-15.0, -15.0)
        # the strip leaves a cut below grade and dumped loose above it
        assert grid.min() < -0.01
        assert grid.max() > 0.01

    def test_same_seed_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = cli.main(["simulate", "--scenario",
                           str(SCENARIOS / "strip_cut.json"),
                           "--out", str(out)])
            assert rc == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    def test_seed_override_touches_sensing_only(self, strip_run, tmp_path):
        rc = cli.main(["simulate", "--scenario",
                       str(SCENARIOS / "strip_cut.json"),
                       "--out", str(tmp_path), "--seed", "11"])
        assert rc == 0
        # probe noise is reseeded, the mechanics are untouched
        assert ((tmp_path / "events.csv").read_bytes()
                != (strip_run / "events.csv").read_bytes())
        assert ((tmp_path / "trajectory.csv").read_bytes()
                == (strip_run / "trajectory.csv").read_bytes())

    def test_multi_scenario_jobs(self, tmp_path):
        rc = cli.main(["simulate",
                       "--scenario", str(SCENARIOS / "strip_cut.json"),
                       "--scenario", str(SCENARIOS / "crust_breaker.json"),
                       "--out", str(tmp_path), "--jobs", "2"])
        assert rc == 0
        assert (tmp_path / "strip_cut" / "trajectory.csv").is_file()
        assert (tmp_path / "crust_breaker" / "trajectory.csv").is_file()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_1(self, tmp_path, jobs):
        rc, err = run_cli(["simulate",
                           "--scenario", str(SCENARIOS / "strip_cut.json"),
                           "--scenario", str(SCENARIOS / "crust_breaker.json"),
                           "--out", str(tmp_path / "out"), "--jobs", jobs])
        assert rc == 1
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / "out").exists()

    def test_duplicate_scenario_names_rejected(self, tmp_path, capsys):
        rc = cli.main(["simulate",
                       "--scenario", str(SCENARIOS / "strip_cut.json"),
                       "--scenario", str(SCENARIOS / "strip_cut.json"),
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_stuck_scenario_exits_2(self, tmp_path, capsys):
        out = tmp_path / "stuck"
        rc = cli.main(["simulate", "--scenario",
                       str(SCENARIOS / "crust_stuck.json"),
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "runtime failure" in err
        assert "crust" in err
        assert not out.exists()

    def test_machine_off_the_map_exits_2(self, tmp_path):
        # the map the planner sizes for an r = 2 m pad is too small for
        # the legs that enter its lanes
        path = write_scenario(tmp_path, {
            "name": "r2", "environment": "moon", "soil": "soft",
            "vehicle": "construction", "pad": {"radius": 2.0, "depth": 0.4}})
        rc, err = run_cli(["simulate", "--scenario", str(path),
                           "--out", str(tmp_path / "out")])
        assert rc == 2
        assert err == ("runtime failure: seating spike point (-2.99, 17.50) "
                       "is off the map\n")

    def test_crust_breaker_preset_advances(self, tmp_path):
        rc = cli.main(["simulate", "--scenario",
                       str(SCENARIOS / "crust_breaker.json"),
                       "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) >= 2

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc = cli.main(["simulate", "--scenario", str(bad),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "column" in err  # the JSON diagnostic keeps line and column

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        doc = {"name": "typo", "drive": [], "bogus": 1}
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["simulate", "--scenario", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_non_finite_number_exits_1(self, tmp_path, capsys):
        path = write_scenario(tmp_path, (
            '{"name": "nan", "environment": {"gravity": NaN}, '
            '"drive": [{"op": "advance", "distance": 0.5}]}'))
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--scenario", str(path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(path) in err and "non-finite number NaN" in err
        assert not out.exists()

    def test_overflowing_number_exits_1(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, '{"name": "big", "drive": [{"op": "advance", "distance": 1e400}]}')
        rc = cli.main(["simulate", "--scenario", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "overflows" in capsys.readouterr().err

    def test_oversize_integer_exits_1(self, tmp_path):
        path = write_scenario(tmp_path, (
            '{"name": "big", "drive": [{"op": "advance", "distance": 1%s}]}' % ("0" * 400)))
        rc, err = run_cli(["simulate", "--scenario", str(path),
                           "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "Traceback" not in err
        assert f"{path}: number 10000000000000000000... of 401 characters overflows" in err

    @pytest.mark.parametrize("text, message", [
        ("# 3 4 0.5 -1 -0.75\n0,0,0,0\n0,0,nan,0\n0,0,0,0\n",
         "row 1 column 2 is nan; heights must be finite"),
        ("# 3 4 0.5 -1 -0.75\n0,0,0,0\n0,0,-inf,0\n0,0,0,0\n",
         "row 1 column 2 is -inf; heights must be finite"),
        ("# 3 4 0.5 -1 -0.75\n0,0,0,0\n0,0,0.1x,0\n0,0,0,0\n",
         "row 1: could not convert string to float: '0.1x'"),
        ("0,0,0,0\n", "is missing the raster header line"),
        ("# 3 4 0.5 -1\n0,0,0,0\n", "has a malformed raster header"),
        ("# 3 four 0.5 -1 -0.75\n0,0,0,0\n",
         "has a malformed raster header: invalid literal for int() with base 10: 'four'"),
        ("# -3 -4 0.5 -1 -0.75\n",
         "has a malformed raster header: negative dimensions are not allowed"),
        ("# 3 4 0.5 -1 -0.75\n0,0,0,0\n", "ended before row 1"),
        ("# 3 4 0.5 -1 -0.75\n0,0,0,0\n0,0,0\n0,0,0,0\n", "row 1 has 3 of 4 columns"),
        ("# 3 4 0.5 -1 -0.75\n0,0,0,0\n0,0,0,0\n0,0,0,0\n0,0,0,0\n",
         "has rows beyond the 3 its header gives"),
        ("# 100000000 100000000 0.5 -1 -0.75\n0,0,0,0\n",
         "has a malformed raster header: a 100000000 x 100000000 cell grid, over the "
         "4194304 cell limit"),
    ], ids=["nan", "-inf", "text", "no_header", "short_header", "header_text",
            "negative_shape", "short_file", "ragged_row", "extra_row", "oversize"])
    def test_bad_surface_raster_exits_1(self, tmp_path, text, message):
        raster = tmp_path / "surface.csv"
        raster.write_text(text)
        path = write_scenario(tmp_path, {
            "name": "raster", "terrain": {"surface_raster": str(raster)},
            "start": {"x": 0.0, "y": 0.0}, "drive": [{"op": "advance", "distance": 0.1}]})
        out = tmp_path / "out"
        rc, err = run_cli(["simulate", "--scenario", str(path), "--out", str(out)])
        assert rc == 1
        assert "Traceback" not in err
        assert f"{raster} {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("heading", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_heading_exits_1(self, tmp_path, heading):
        path = write_scenario(tmp_path, (
            '{"name": "spin", "soil": "medium", '
            f'"drive": [{{"op": "turn_to", "heading_deg": {heading}}}]}}'))
        rc, err = run_cli(["simulate", "--scenario", str(path),
                           "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"non-finite number {heading}" in err

    def test_huge_heading_ends(self, tmp_path):
        # finite, but far beyond the precision of a heading in radians
        path = write_scenario(tmp_path, {
            "name": "spin", "soil": "medium",
            "drive": [{"op": "turn_to", "heading_deg": 1e300}]})
        rc, err = run_cli(["simulate", "--scenario", str(path),
                           "--out", str(tmp_path / "out")])
        assert rc == 1
        assert err == ("error: target heading 1e+300 deg is too large "
                       "to resolve to 1e-09 rad\n")

    def test_misspelt_drive_key_exits_1(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "typo", "drive": [{"op": "blade", "target_elevation": -0.05},
                                      {"op": "advance", "distanc": 1.0}]})
        rc = cli.main(["simulate", "--scenario", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{path}: drive[1]: unknown keys ['distanc'] for 'advance'" in err

    @pytest.mark.parametrize("cmd", [{"op": "advance", "reverse": True},
                                     {"op": "turn_by"}])
    def test_missing_drive_key_exits_1(self, tmp_path, capsys, cmd):
        path = write_scenario(tmp_path, {"name": "short", "drive": [cmd]})
        rc = cli.main(["simulate", "--scenario", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"drive[0]: '{cmd['op']}' needs one of" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, message", [
        ({"op": "advance", "distance": [1]}, "'distance' must be a positive number, got list"),
        ({"op": "advance", "distance": True}, "'distance' must be a positive number, got bool"),
        ({"op": "advance", "halves": -1}, "'halves' must be a non-negative int, got -1"),
        ({"op": "advance", "halves": 1.5}, "'halves' must be a non-negative int, got 1.5"),
        ({"op": "advance", "distance": 1.0, "reverse": "yes"},
         "'reverse' must be a bool, got str"),
        ({"op": "blade", "target_elevation": "low"},
         "'target_elevation' must be a number or null, got str"),
        ({"op": "tow", "force": None}, "'force' must be a non-negative number, got null"),
        # values of the right type that no command could run with
        ({"op": "tow", "force": -5}, "'force' must be a non-negative number, got -5"),
        ({"op": "ripper", "depth": -0.1}, "'depth' must be a non-negative number, got -0.1"),
        ({"op": "advance", "distance": -1}, "'distance' must be a positive number, got -1"),
        ({"op": "advance", "halves": 1, "stroke": 0.0},
         "'stroke' must be a positive number, got 0.0"),
        ({"op": "advance", "halves": 1, "stroke": 9.0},
         "'stroke' must be at most the ram stroke 4, got 9.0"),
        # a stroke that an advance by distance would drop
        ({"op": "advance", "distance": 2.0, "stroke": 1.0},
         "'stroke' sets the length of each of 'halves'; an advance by "
         "'distance' takes none"),
    ])
    def test_drive_value_of_wrong_type_exits_1(self, tmp_path, cmd, message):
        path = write_scenario(tmp_path, {"name": "typed", "drive": [cmd]})
        rc, err = run_cli(["simulate", "--scenario", str(path),
                           "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "Traceback" not in err
        assert f"{path}: drive[0]: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["blade_cut_coeff", "ripper_cut_coeff",
                                     "prism_friction"])
    def test_negative_cutting_coefficient_exits_1(self, tmp_path, key):
        # A negative coefficient would let the blade or ripper cut for free.
        path = write_scenario(tmp_path, {
            "name": "free", "vehicle": {"preset": "reference", key: -0.01},
            "drive": [{"op": "blade", "target_elevation": -0.05},
                      {"op": "ripper", "depth": 0.05},
                      {"op": "advance", "distance": 2.0}]})
        rc, err = run_cli(["simulate", "--scenario", str(path),
                           "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "Traceback" not in err
        assert err == (f"error: {path}: cutting coefficients and prism "
                       "friction must be non-negative\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, key", [
        ({"sensing": {"surface_K": "nan"}}, "'surface_K' must be a number, got str"),
        ({"environment": {"gravity": "1.62"}}, "'gravity' must be a number, got str"),
        ({"soil": {"preset": "soft", "allow_inversion": "false"}},
         "'allow_inversion' must be a bool, got str"),
        ({"seed": 1.5}, "'seed' must be a non-negative int, got 1.5"),
        ({"seed": "3"}, "'seed' must be a non-negative int, got str"),
        ({"soil": {"layers": [{"thickness": True, "resistance": 1e6}],
                   "anchor_work_slope": 0.1}},
         "soil.layers[0]: 'thickness' must be a number, got bool"),
        ({"soil": {"layers": [{"thickness": 10.0, "resistance": 1e6, "density": 1500.0}],
                   "anchor_work_slope": 0.1}},
         "unknown keys in soil.layers[0]: ['density']"),
        ({"soil": {"preset": "soft", "duricrust": {"strength": 1e5, "thickness": 0.02}}},
         "unknown keys in soil.duricrust: ['thickness']"),
        ({"start": {"x": "nan"}}, "start: 'x' must be a number, got str"),
        ({"vehicle": {"spike": 5}}, "vehicle.spike must be an object, got 5"),
        ({"vehicle": {"spike": {"hinge_height": "0.12"}}},
         "vehicle.spike: 'hinge_height' must be a number, got str"),
        ({"vehicle": {"spike_offsets": 0.4}}, "vehicle.spike_offsets must be a list"),
        ({"terrain": {"shape": [1]}}, "terrain.shape must be a list of 2 values"),
        ({"terrain": {"shape": [0, 5]}},
         "terrain.shape must be a list of 2 values, each a positive int, got [0, 5]"),
        ({"terrain": {"extent": [-10.0, 5.0]}},
         "terrain.extent must be a list of 2 values, each a positive number, got [-10.0, 5.0]"),
        ({"terrain": {"extent": [10.0, 10.0]}, "start": {"x": 100.0}},
         "start (100, 0) is off the terrain, which spans x [-5, 5) and y [-5, 5)"),
        ({"terrain": {"shape": [100000000, 100000000]}},
         "terrain needs a 100000000 x 100000000 cell grid, over the 4194304 cell limit"),
        ({"terrain": {"extent": [1e7, 1e7], "cell_size": 0.001}},
         "terrain needs a 10000000000 x 10000000000 cell grid, over the 4194304 cell limit"),
        ({"terrain": {"extent": [1e300, 1.0], "cell_size": 1e-10}},
         "cannot convert float infinity to integer"),
        ({"vehicle": {"preset": "nope"}},
         "unknown vehicle preset 'nope'; have ['construction', 'reference']"),
        (None, "No such file or directory"),
        ({"terrain": {"surface_raster": "absent.csv"}}, "absent.csv"),
        ({"soil": {"patches": [
            {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0, "soil": "hard"},
            {"x_min": 3, "x_max": -3, "y_min": -1.0, "y_max": 1.0, "soil": "hard"}]}},
         "soil.patches[1]: x_min 3.0 exceeds x_max -3.0"),
        ({"soil": {"patches": [
            {"x_min": -1.0, "x_max": 1.0, "y_min": 2, "y_max": 1.5, "soil": "medium"}]}},
         "soil.patches[0]: y_min 2.0 exceeds y_max 1.5"),
        ({"terrain": {"shape": [40, 40], "extent": [100.0, 100.0]}},
         "terrain: give 'shape' or 'extent', not both"),
        ({"terrain": {"extent": [10.0, 10.0], "slope_azimuth_deg": 30.0}},
         "terrain: 'slope_azimuth_deg' needs 'slope_deg'"),
        ({"terrain": {"surface_raster": "surface.csv", "slope_deg": 10.0}},
         "terrain: 'surface_raster' sets the grid and its heights; drop ['slope_deg']"),
        ({"terrain": {"surface_raster": "surface.csv", "cell_size": 0.5, "origin": [3, 3]}},
         "terrain: 'surface_raster' sets the grid and its heights; "
         "drop ['cell_size', 'origin']"),
        ({"terrain": {"surface_raster": "surface.csv", "extent": [2.0, 2.0],
                      "shape": [2, 3], "slope_azimuth_deg": 0.0}},
         "drop ['extent', 'shape', 'slope_azimuth_deg']"),
        ({"terrain": {"extent": [10.0, 10.0]}, "start": {"x": -4.9}},
         "start (-4.9, 0) puts the rear frame's spike point (-5.77, 0.40) off the terrain, "
         "which spans x [-5, 5) and y [-5, 5)"),
        ({"terrain": {"extent": [10.0, 10.0]}, "start": {"y": 4.8},
          "drive": [{"op": "turn_by", "delta_deg": 30.0}]},
         "start (0, 4.8) puts the rear frame's spike point (-0.87, 5.20) off the terrain"),
        ({"terrain": {"extent": [10.0, 10.0]}, "start": {"x": 4.9, "heading_deg": 180.0}},
         "start (4.9, 0) puts the rear frame's spike point (5.77, -0.40) off the terrain"),
    ], ids=["surface_K", "gravity", "allow_inversion", "seed_fraction", "seed_text",
            "layer_thickness", "layer_density", "crust_thickness", "start_x", "spike",
            "spike_text", "spike_offsets", "shape", "empty_shape", "negative_extent",
            "start_off_terrain", "oversize_shape", "oversize_extent", "overflowing_extent",
            "vehicle_preset", "missing_scenario", "missing_raster",
            "inverted_patch_x", "inverted_patch_y", "shape_and_extent",
            "azimuth_without_slope", "raster_and_slope", "raster_and_header",
            "raster_and_grid", "spike_off_terrain_x", "spike_off_terrain_y",
            "spike_off_terrain_heading_back"])
    def test_input_hole_exits_1(self, tmp_path, doc, key):
        # a raster the terrain cases may name, so that only their keys are wrong
        (tmp_path / "surface.csv").write_text("# 2 3 0.5 -0.75 -0.5\n0,0.1,0\n0,0,0\n")
        path = tmp_path / "scenario.json"
        if doc is not None:
            path.write_text(json.dumps(
                {"name": "hole", "drive": [{"op": "advance", "distance": 0.5}], **doc}))
        out = tmp_path / "out"
        rc, err = run_cli(["simulate", "--scenario", str(path), "--out", str(out)])
        assert rc == 1
        assert "Traceback" not in err
        assert f"error: {path}: " in err and key in err
        assert not out.exists()

    def test_start_with_every_spike_on_the_terrain_runs(self, tmp_path):
        # 0.1 m from the edge of a 10 m map, but the spikes trail their frames
        path = write_scenario(tmp_path, {
            "name": "edge", "terrain": {"extent": [10.0, 10.0]}, "start": {"x": 4.9},
            "drive": [{"op": "advance", "distance": 0.5}]})
        rc, err = run_cli(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0, err

    def test_relative_raster_loads_from_the_scenario_directory(self, tmp_path, monkeypatch):
        # 2.5 m x 2 m: a map the machine's spikes stand on at the start
        (tmp_path / "maps").mkdir()
        (tmp_path / "maps" / "surface.csv").write_text(
            "# 4 5 0.5 -1.25 -1.0\n0,0.1,0,0,0\n" + "0,0,0,0,0\n" * 3)
        path = write_scenario(tmp_path, {
            "name": "raster", "terrain": {"surface_raster": "maps/surface.csv"},
            "drive": [{"op": "relax"}]})
        monkeypatch.chdir(tmp_path / "maps")  # the raster is not at maps/maps/
        scn = load_scenario(str(path))
        assert scn.terrain_shape == (4, 5)
        assert scn.initial_surface[0, 1] == 0.1

    def test_spike_object_calibrates_from_thrust_angles(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "spike", "drive": [{"op": "relax"}],
            "vehicle": {"spike": {"surface_angle_deg": 12, "seated_angle_deg": 35.0,
                                  "seated_depth": 0.25, "hinge_height": 0.12,
                                  "bearing_width": 2e-3, "tip_area": 2e-4,
                                  "max_depth": 0.4}}})
        assert load_scenario(str(path)).vehicle.spike == SpikeGeometry.from_thrust_angles(
            surface_angle_deg=12.0, seated_angle_deg=35.0, seated_depth=0.25,
            hinge_height=0.12, bearing_width=2e-3, tip_area=2e-4, max_depth=0.4)

    def test_json_integers_in_number_fields_read_as_floats(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "ints", "environment": {"gravity": 2}, "seed": 3,
            "start": {"x": 1}, "drive": [{"op": "advance", "distance": 1}]})
        scn = load_scenario(str(path))
        assert type(scn.environment.gravity) is float
        assert type(scn.start[0]) is float
        assert type(scn.drive[0]["distance"]) is float
        assert type(scn.seed) is int

    @pytest.mark.parametrize("preset", sorted(SCENARIOS.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_every_preset_loads(self, preset):
        assert load_scenario(str(preset)).name == preset.stem

    @pytest.mark.parametrize("vehicle", [
        {"rolling_coeff": 0.1}, {"curvature_gain": 0.2},
        {"curvature_balance_offset": 0.1},
        {"spike": {"rake_surface_deg": 45.0}}, {"spike": {"rake_full_deg": 65.0}}])
    def test_knobs_the_physics_never_read_exit_1(self, tmp_path, capsys, vehicle):
        path = write_scenario(tmp_path, {
            "name": "knob", "vehicle": vehicle,
            "drive": [{"op": "advance", "distance": 0.5}]})
        rc = cli.main(["simulate", "--scenario", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_mission_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "empty"}))
        rc = cli.main(["simulate", "--scenario", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "'drive' or 'pad'" in capsys.readouterr().err


class TestPlan:
    def test_writes_plan_file(self, tmp_path, capsys):
        rc = cli.main(["plan", "--scenario",
                       str(SCENARIOS / "pad_quick.json"),
                       "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "plan.txt").read_text()
        assert text.endswith("findings\nnone\n")
        assert "lanes" in text
        assert "trips" in capsys.readouterr().out

    def test_console_line_ends_with_elapsed_time(self, tmp_path, capsys):
        plans = []
        for run in ("a", "b"):
            out = tmp_path / run
            rc = cli.main(["plan", "--scenario",
                           str(SCENARIOS / "pad_quick.json"), "--out", str(out)])
            assert rc == 0
            line = capsys.readouterr().out.strip()
            assert re.fullmatch(
                r"pad_quick: \d+ trips over \d+ lanes, budget \S+ J, "
                rf"\d+ findings, \d+\.\d s -> {re.escape(str(out))}", line)
            plans.append((out / "plan.txt").read_bytes())
        # the time goes to the console only, so the plan file repeats
        assert plans[0] == plans[1]

    def test_rejects_drive_scenario(self, tmp_path, capsys):
        rc = cli.main(["plan", "--scenario",
                       str(SCENARIOS / "strip_cut.json"),
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "needs a scenario with a 'pad'" in capsys.readouterr().err

    def test_depth_band_gate_and_override(self, tmp_path, capsys):
        doc = {"name": "shallow", "environment": "moon", "soil": "soft",
               "vehicle": "construction",
               "pad": {"radius": 4.0, "depth": 0.20}}
        path = tmp_path / "shallow.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["plan", "--scenario", str(path),
                       "--out", str(tmp_path / "a")])
        assert rc == 1
        assert "depth" in capsys.readouterr().err
        doc["pad"]["force_depth_override"] = True
        path.write_text(json.dumps(doc))
        rc = cli.main(["plan", "--scenario", str(path),
                       "--out", str(tmp_path / "b")])
        assert rc == 0
        assert (tmp_path / "b" / "plan.txt").is_file()

    def test_binding_push_cap_exits_1_before_claiming(self, tmp_path):
        # Claiming a 1 km pad would take gigabytes; under a 512 MB cap
        # only a refusal made before the claim pass ends cleanly.
        doc = {"name": "wide", "environment": "moon", "soil": "soft",
               "vehicle": "construction", "pad": {"radius": 1000.0}}
        rc, err = run_cli(["plan", "--scenario",
                           str(write_scenario(tmp_path, doc)),
                           "--out", str(tmp_path / "out")],
                          max_memory=512 * 2**20)
        assert rc == 1
        assert "push cap binds" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pad, refusal", [
        ({"radius": 1000.0, "max_push_distance": 5000.0},
         "a 1000 m pad at 0.25 m cells needs a 8002 x 8002 cell claim "
         "window, over the 4194304 cell limit"),
        ({"radius": 2.0, "berm_ring_spacing": 1000.0,
          "max_push_distance": 1e6},
         "a 2 m pad at 0.25 m cells needs a 8120 x 8120 cell grid, over "
         "the 4194304 cell limit")], ids=["claim_window", "grid"])
    def test_pad_too_large_to_grid_exits_1(self, tmp_path, pad, refusal):
        # With the push cap lifted, only the cell bound keeps these pads
        # from allocating gigabytes; under a 1 GiB cap a refusal made
        # before each allocation is the only clean end.
        doc = {"name": "wide", "environment": "moon", "soil": "soft",
               "vehicle": "construction", "pad": pad}
        rc, err = run_cli(["plan", "--scenario",
                           str(write_scenario(tmp_path, doc)),
                           "--out", str(tmp_path / "out")],
                          max_memory=2**30)
        assert rc == 1
        assert err == f"error: {refusal}\n"
        assert not (tmp_path / "out").exists()

    def test_rejects_more_than_one_scenario(self, tmp_path, capsys):
        # the second file has no pad, so planning only the first would
        # drop it without a word
        rc = cli.main(["plan",
                       "--scenario", str(SCENARIOS / "pad_quick.json"),
                       "--scenario", str(SCENARIOS / "strip_cut.json"),
                       "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: the plan subcommand plans one scenario; "
            "got 2 --scenario files\n")
        assert not (tmp_path / "plan.txt").exists()


class TestMap:
    def test_rasters_from_run_events(self, strip_run, tmp_path):
        rc = cli.main(["map", "--events", str(strip_run / "events.csv"),
                       "--out", str(tmp_path), "--cell-size", "0.5"])
        assert rc == 0
        min_q, cell, origin = read_raster(str(tmp_path / "min_q.csv"))
        mean_q, cell2, origin2 = read_raster(str(tmp_path / "mean_q.csv"))
        assert cell == cell2 == 0.5
        assert origin == origin2
        assert min_q.shape == mean_q.shape
        covered = ~np.isnan(min_q)
        assert covered.any()
        assert np.all(min_q[covered] <= mean_q[covered] + 1e-12)

    def test_empty_event_log_exits_1(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text(",".join(EVENT_FIELDS) + "\n")
        rc = cli.main(["map", "--events", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "no events" in capsys.readouterr().err

    @pytest.mark.parametrize("cell_size", ["0", "-0.25", "nan", "inf"])
    def test_bad_cell_size_exits_1(self, strip_run, tmp_path, cell_size):
        rc, err = run_cli(["map", "--events", str(strip_run / "events.csv"),
                           "--cell-size", cell_size,
                           "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "--cell-size must be a positive finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def write_events(path, points):
        path.write_text(",".join(EVENT_FIELDS) + "\n" + "".join(
            f"{k},{x},{y},0.1,1e5,2e5,250\n" for k, (x, y) in enumerate(points)))
        return path

    @pytest.mark.parametrize("row, message", [
        ("1,inf,1.0,0.1,1e5,2e5,250", "x not finite"),
        ("1,0.5,-inf,0.1,1e5,2e5,250", "y not finite"),
        ("1,0.5,1.0,0.1,nan,2e5,nan", "min_q, temperature_K not finite"),
        ("1,0.5,1.0,0.1,1e5,2e5,warm", "could not convert string to float: 'warm'"),
        ("1,0.5,1.0,0.1,1e5", "float() argument must be"),
    ], ids=["inf", "-inf", "nan", "text", "short_row"])
    def test_bad_event_value_exits_1(self, tmp_path, row, message):
        path = tmp_path / "events.csv"
        path.write_text(",".join(EVENT_FIELDS) + "\n0,0.5,0.5,0.1,1e5,2e5,250\n" + row + "\n")
        rc, err = run_cli(["map", "--events", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "Traceback" not in err
        assert f"error: {path} line 3: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("points, cell_size", [
        ([(0.0, 0.0), (1e308, 0.0)], "0.25"),
        ([(-1.7e308, 0.0), (1.7e308, 0.0)], "1e300"),
        ([(0.0, 0.0), (1000.0, 1000.0)], "0.001"),
    ], ids=["overflow", "span_overflow", "1km_at_1mm"])
    def test_raster_over_the_cell_limit_exits_1(self, tmp_path, points, cell_size):
        # the 1 km square at 1 mm cells would take terabytes; under a
        # 512 MB cap only a refusal made before allocating ends cleanly
        path = self.write_events(tmp_path / "events.csv", points)
        rc, err = run_cli(["map", "--events", str(path), "--cell-size", cell_size,
                           "--out", str(tmp_path / "out")], max_memory=512 * 2**20)
        assert rc == 1
        assert "Traceback" not in err
        assert "over the 4194304 cell limit" in err
        assert not (tmp_path / "out").exists()

    def test_wrong_columns_exit_1(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text("a,b,c\n1,2,3\n")
        rc = cli.main(["map", "--events", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "lacks event columns" in capsys.readouterr().err


class TestReport:
    def test_reference_numbers(self, tmp_path, capsys):
        rc = cli.main(["report", "--vehicle", "reference",
                       "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "report.txt").read_text()
        assert capsys.readouterr().out == text
        # geometry: beta 10 deg at the surface, 30 deg at 0.2 m
        assert "depth 0 m -> beta 10 deg" in text
        assert "beta 30 deg" in text
        # pull/weight at 30 deg and its derated operating value
        assert "30,1.73205081,0.866025404" in text
        # anchoring work to hold 300 N on soft ground
        assert "soft: 30 J" in text
        # cycle efficiency for the 2 m / 300 N case
        assert "0.952380952" in text
        # friction-limited baselines
        assert "earth: 3.924 N/kg" in text
        assert "moon: 0.34335 N/kg" in text

    @pytest.mark.parametrize("vehicle", ["reference", "construction"])
    def test_all_presets_render(self, vehicle, tmp_path):
        rc = cli.main(["report", "--vehicle", vehicle, "--out",
                       str(tmp_path / vehicle)])
        assert rc == 0
        assert (tmp_path / vehicle / "report.txt").is_file()
