"""Byte-identity of the shipped presets' outputs.

The artifacts of a fixed scenario and seed stay byte for byte the same
across refactors.  These sha256 digests pin the `simulate` artifacts of
three presets, of a drive on a large patch-soil map, of a drive that
takes many steps alone and of an oblique drive that slips, spills and
rips, the `plan` listings of the pad mission, of two more pad layouts
and of a pad with findings, and the stuck preset's and a flipping tow's
failures.  A change meant to alter an output updates its digest here
and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from spikedozer import cli
from spikedozer.scenario import load_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SIMULATE = {
    "strip_cut": {
        "bank.csv": "959ab9624c7e71ec5db75efee7e64ab39da89f51469664c8437553f8832f2b1f",
        "energy.csv": "2cf4f844f0366ced24ff250f4d06362de2ca90c8ee8758e30b085506a9ffd849",
        "events.csv": "0896e539524663fb6f66524bd93fa48a4021fca30ad8a914c143fcdba59adaa6",
        "loose.csv": "9585c72a1daa5c2536ab661f6b4d4cd28f9bcbc9418021b0916f14c76c2b5ced",
        "surface.csv": "c12a9af69c299ca94d0482deaf070c5ba12565312e48e0ffd9acd72b13df912f",
        "trajectory.csv": "8b6acdc2af672dde0e0fe51411821a9ce28842b84b448d12a517f677825c51b7",
    },
    "pad_quick": {
        "bank.csv": "9534ff10fe4a51e7cb577220c05c378f289f111ea1b6c2fb2fd9ac754358b499",
        "energy.csv": "abe518c0ba057070487ad1aa7c3a087cb3ff50d42c0cb6e6eccc607f141af346",
        "events.csv": "3eb5417c4805762dc647124a27716ab9b1794bbddffd20e3db7709457b065095",
        "loose.csv": "3c849df816d993b01bcbd00eb28d878aa91b0800cc31b93d87d5f1007d656e9a",
        "plan.txt": "e261cf30ef48a44e143639cbbc96bf5906f360d1cde621573bdb840010965b21",
        "surface.csv": "872de369e0b21481a2f6d97bb4d3d002bf08f1a6573fd4fedf52ce393e4a1110",
        "trajectory.csv": "64768686235165d56623a9553b799d31d969a37d3adc065ae94394eb22dcbb55",
    },
    "crust_breaker": {
        "bank.csv": "98faf76236b2abe92066773acafe8dace474df0877a005fad4a9728550d60ad1",
        "energy.csv": "91cf53510e1a5a2ad23c7a41c2d61f2005b435295f8f22c46779f97a69c0c44d",
        "events.csv": "8d239d62c69dd01edf8da5345852f2e448490401a9c746b03e6de6de6187ae38",
        "loose.csv": "98faf76236b2abe92066773acafe8dace474df0877a005fad4a9728550d60ad1",
        "surface.csv": "98faf76236b2abe92066773acafe8dace474df0877a005fad4a9728550d60ad1",
        "trajectory.csv": "cd97e8e91b70a6a7242f31bedc324195c2c10e9fe756b04efe08f366cdcc9cf7",
    },
}
# A drive_sweep script: two cut, carry, dump, turn and rip segments on a
# 288 x 288 map with two soft-soil patches.  Its rasters hold long runs of
# untouched equal rows between rows the drive changed.
LOOSE = {"preset": "soft", "name": "soft_loose", "repose_angle_deg": 34.0}
LARGE_MAP_DRIVE = {
    "name": "drive_00", "environment": "moon", "vehicle": "reference",
    "soil": {"preset": "soft", "patches": [
        {"x_min": -3.097839169342823, "y_min": 2.8646112430904225,
         "x_max": -0.43682145490436763, "y_max": 7.141258494157049, "soil": LOOSE},
        {"x_min": -9.574379668785314, "y_min": 0.39321458972105283,
         "x_max": -2.058534179266527, "y_max": 4.861828319524546, "soil": LOOSE}]},
    "seed": 1220192092, "sensing": {"noise_rel": 0.02},
    "terrain": {"extent": [36.0, 36.0], "cell_size": 0.125},
    "start": {"x": -0.1627409453699591, "y": -1.4375738674928802,
              "heading_deg": 130.31299711481745},
    "drive": [
        {"op": "blade", "target_elevation": -0.048647650310826435},
        {"op": "advance", "distance": 3.3651864212125666},
        {"op": "blade", "target_elevation": None},
        {"op": "advance", "distance": 1.0},
        {"op": "dump"},
        {"op": "turn_by", "delta_deg": 81.12568040774696},
        {"op": "ripper", "depth": 0.05265802874396971},
        {"op": "advance", "distance": 2.988794837026634},
        {"op": "ripper", "depth": 0.0},
        {"op": "relax"},
        {"op": "blade", "target_elevation": -0.049885134782591545},
        {"op": "advance", "distance": 3.0776911260342814},
        {"op": "blade", "target_elevation": None},
        {"op": "advance", "distance": 1.0},
        {"op": "dump"},
        {"op": "turn_by", "delta_deg": 98.63426814611242},
        {"op": "ripper", "depth": 0.07138927104570608},
        {"op": "advance", "distance": 2.6902121371715353},
        {"op": "ripper", "depth": 0.0},
        {"op": "relax"},
    ],
}
LARGE_MAP = {
    "bank.csv": "b4e5e0c2ab6f01b83a85b510283878033c7c5b6c7669b1404108ef71fa65a85f",
    "energy.csv": "964d796baeaf8a44faf25726391597539880965997e5b2b736881d855a9b3124",
    "events.csv": "f5fdd9f60633989465e8f71808d2b6a6935481ad0e882bb1b9c9f0d3611e9e35",
    "loose.csv": "a10568c8f7048a97c91c136aed6619fb966eb370ba9fec0ab94ce3a7abace014",
    "surface.csv": "3ea6a90bc1f4438420ddb34acee27dac765b3e8915b190779ef9085b9517dedc",
    "trajectory.csv": "fa5d130b147a07a9a09e414cac3dd03f609cd9db78f749547a554d08e764c82f",
}
# A drive on a 1-degree slope whose steps are often taken alone: a tow
# load plus a cut that deepens the anchor mid-stroke, a cut from an
# unloaded seat that deepens with slip, a reverse advance, trimmed halves,
# ripping into a loose patch and a towed leg anchored by friction on a
# crust the bare press cannot break.
CRUST = {"name": "crusted slick", "anchor_work_slope": 0.1,
         "layers": [{"thickness": 10.0, "resistance": 960000.0,
                     "friction_mu": 0.1}],
         "duricrust": {"strength": 150000.0}}
SINGLE_STEP_DRIVE = {
    "name": "single_steps", "environment": "moon",
    "vehicle": {"preset": "reference", "name": "reference bare",
                "has_crust_actuator": False},
    "soil": {"preset": "soft", "patches": [
        {"x_min": 5.0, "y_min": 1.0, "x_max": 9.0, "y_max": 4.0, "soil": LOOSE},
        {"x_min": -8.0, "y_min": 4.5, "x_max": 3.5, "y_max": 7.0, "soil": CRUST}]},
    "seed": 5, "sensing": {"noise_rel": 0.02},
    "terrain": {"extent": [20.0, 20.0], "cell_size": 0.25, "slope_deg": 1.0,
                "slope_azimuth_deg": 30.0},
    "start": {"x": 0.0, "y": -3.0, "heading_deg": 0.0},
    "drive": [
        {"op": "tow", "force": 100.0},
        {"op": "blade", "target_elevation": 0.0},
        {"op": "advance", "distance": 3.0},
        {"op": "blade", "target_elevation": None},
        {"op": "tow", "force": 0.0},
        {"op": "dump"},
        {"op": "advance", "distance": 1.7, "reverse": True},
        {"op": "advance", "halves": 3, "stroke": 1.3},
        {"op": "blade", "target_elevation": 0.0},
        {"op": "advance", "distance": 1.5},
        {"op": "blade", "target_elevation": None},
        {"op": "dump"},
        {"op": "turn_by", "delta_deg": 90.0},
        {"op": "ripper", "depth": 0.06},
        {"op": "tow", "force": 100.0},
        {"op": "advance", "distance": 6.0},
        {"op": "ripper", "depth": 0.0},
        {"op": "turn_by", "delta_deg": 90.0},
        {"op": "tow", "force": 0.0},
        {"op": "blade", "target_elevation": 0.09},
        {"op": "advance", "distance": 2.5},
        {"op": "blade", "target_elevation": None},
        {"op": "dump"},
        {"op": "tow", "force": 40.0},
        {"op": "advance", "distance": 4.5},
        {"op": "relax"},
    ],
}
SINGLE_STEPS = {
    "bank.csv": "d7dda68b9e5cafc9a5885d00aa3bee109f0c793d020ef616c6b4ab4e4946285e",
    "energy.csv": "b355ea9f326d99431e739225866f76462efb4600e8cd186f2ec31964c675adfc",
    "events.csv": "3cd9f59e89bddd2d8eaa66d7349f08c0123215eaca688ce40bda500257d8784a",
    "loose.csv": "e42c5a41722829877d977cc4b8f42de9226087e8d36c9b839f53356406c3a800",
    "surface.csv": "929b8ba04cb6ab54c2fbda63286d7acff2b7a862f90575173239fa7726a1214a",
    "trajectory.csv": "c6e3d2ff4ec931ff131c08e0dbb59214a4c90b449920825ca949d0714b0131b0",
}
# An oblique drive with a small blade: its first cut deepens the spikes
# the rear frame seated unloaded, and they slip; the blade overflows
# partway through that stroke and spills beside its band; then the
# tines rip across the ground.
OBLIQUE_DRIVE = {
    "name": "oblique_overflow", "environment": "moon",
    "vehicle": {"preset": "reference", "name": "reference small blade",
                "blade_capacity": 0.15},
    "soil": {"preset": "soft", "patches": [
        {"x_min": 1.0, "y_min": -1.0, "x_max": 4.0, "y_max": 6.0, "soil": LOOSE}]},
    "seed": 11, "sensing": {"noise_rel": 0.02},
    "terrain": {"extent": [16.0, 16.0], "cell_size": 0.2},
    "start": {"x": -2.0, "y": -2.5, "heading_deg": 37.0},
    "drive": [
        {"op": "blade", "target_elevation": -0.04},
        {"op": "advance", "distance": 3.0},
        {"op": "blade", "target_elevation": None},
        {"op": "dump"},
        {"op": "ripper", "depth": 0.05},
        {"op": "advance", "distance": 4.0},
        {"op": "ripper", "depth": 0.0},
        {"op": "relax"},
    ],
}
OBLIQUE = {
    "bank.csv": "154ced7cacc0c5d7abfb9dfd4f2692abd50bd6c644eadde17096658f61490615",
    "energy.csv": "79199663ccf1c5b8f52c19b65fd0294319cf7907f3124d0125bbdbb8d04e4b81",
    "events.csv": "3654f7861b5266813c435f230ea179fc6139bfae9429120935b59ddf0d9248ff",
    "loose.csv": "838543c33300de294ea3f534d5740125208feff033b0596cad3abb0e9bbc08f5",
    "surface.csv": "45a7869943be6cbf7f8aff654899fbce643bc33a89902a717fa32d26bbd3b525",
    "trajectory.csv": "49ce25d513e2b92d91a6f38ab593aa9a6f62a76a70590ed86f876874a2a7a79a",
}
PLAN = "c0e82c3c84fadeaa01dde8ccf9c08121cd41a02514a19d04ef44195d0df89776"
# `plan` listings of two soft lunar pads, keyed by (radius, cell size):
# the widest benchmark pad, with 77 lanes, and a pad whose 0.2 m cells are
# not exact in binary, so more cell centres fall within an ulp of a lane's
# strip edge.
PAD_PLANS = {
    (24.5, 0.25): "1a6d08d07d99358c8e6310915339a7ca358d474295ddd9b440fd610265c41d85",
    (9.979845551933689, 0.2):
        "94dd26d347958c6749a4e448dd8bd88b0f70807c4c67ade8fcba0ee33bc0a68c",
}
# The `plan` listing of a medium-soil Mars pad, r = 10 m and d = 0.30 m,
# whose fuller prisms lift the machine: 76 findings over its 128 trips
# pin the findings' text and order.
MARS_PLAN = "8ce9d5f0a35980e2ba61b3ee30b05115021d73043da645a6f383032538a2d4ea"
STUCK = ("runtime failure: crust resists the spike press and sliding "
         "friction cannot react 600.0 N\n")
# A 1,400 N tow on the reference machine under lunar gravity.
FLIP = ("runtime failure: drawbar lift at beta=51.4 deg exceeds 1635 N of "
        "hold-down\n")


def digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())}


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_artifacts(name, tmp_path):
    rc = cli.main(["simulate", "--scenario", str(SCENARIOS / f"{name}.json"),
                   "--out", str(tmp_path)])
    assert rc == 0
    assert digests(tmp_path) == SIMULATE[name]


def test_drive_of_single_steps(tmp_path):
    path = tmp_path / "drive.json"
    path.write_text(json.dumps(SINGLE_STEP_DRIVE))
    rc = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert digests(tmp_path / "out") == SINGLE_STEPS


def test_oblique_drive_that_slips_spills_and_rips(tmp_path):
    path = tmp_path / "drive.json"
    path.write_text(json.dumps(OBLIQUE_DRIVE))
    cycles = run_scenario(load_scenario(str(path))).machine.cycles
    first = cycles[0]  # the first cut: an unloaded seat slips nothing itself
    assert (first.mode, first.slip > 0.0, first.spill_volume > 0.0) == ("expand", True, True)
    assert any(c.mode == "contract" and c.draft_peak > 0.0 and c.prism_volume == 0.0
               for c in cycles)  # a ripping stroke
    rc = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert digests(tmp_path / "out") == OBLIQUE


def test_drive_on_a_large_patch_map(tmp_path):
    path = tmp_path / "drive.json"
    path.write_text(json.dumps(LARGE_MAP_DRIVE))
    rc = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert digests(tmp_path / "out") == LARGE_MAP


def test_pad_mission_plan(tmp_path):
    rc = cli.main(["plan", "--scenario", str(SCENARIOS / "pad_mission.json"),
                   "--out", str(tmp_path)])
    assert rc == 0
    assert digests(tmp_path) == {"plan.txt": PLAN}


@pytest.mark.parametrize("radius, cell_size", sorted(PAD_PLANS))
def test_pad_layout_plan(radius, cell_size, tmp_path):
    path = tmp_path / "pad.json"
    path.write_text(json.dumps({
        "name": "pad", "environment": "moon", "soil": "soft",
        "vehicle": "construction", "seed": 0,
        "pad": {"radius": radius, "depth": 0.40, "cell_size": cell_size}}))
    rc = cli.main(["plan", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert digests(tmp_path / "out") == {"plan.txt": PAD_PLANS[radius, cell_size]}


def test_pad_plan_with_findings(tmp_path):
    path = tmp_path / "pad.json"
    path.write_text(json.dumps({
        "name": "pad", "environment": "mars", "soil": "medium",
        "vehicle": "construction", "seed": 0,
        "pad": {"radius": 10.0, "depth": 0.30, "cell_size": 0.25}}))
    rc = cli.main(["plan", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert digests(tmp_path / "out") == {"plan.txt": MARS_PLAN}


def test_crust_stuck_failure(tmp_path, capsys):
    rc = cli.main(["simulate", "--scenario", str(SCENARIOS / "crust_stuck.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == STUCK


def test_tow_flip_failure(tmp_path, capsys):
    path = tmp_path / "flip.json"
    path.write_text(json.dumps({
        "name": "flip", "environment": "moon", "vehicle": "reference", "soil": "soft",
        "terrain": {"extent": [20.0, 20.0]},
        "drive": [{"op": "tow", "force": 1400.0}, {"op": "advance", "distance": 1.0}]}))
    rc = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == FLIP
