"""Byte-identity of the shipped presets' outputs.

The artifacts of a fixed scenario and seed stay byte for byte the same
across refactors.  These sha256 digests pin the `simulate` artifacts of
three presets, the `plan` listing of the pad mission and the stuck
preset's failure.  A change meant to alter an output updates its digest
here and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from spikedozer import cli

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
PLAN = "c0e82c3c84fadeaa01dde8ccf9c08121cd41a02514a19d04ef44195d0df89776"
STUCK = ("runtime failure: crust resists the spike press and sliding "
         "friction cannot react 600.0 N\n")


def digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())}


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_artifacts(name, tmp_path):
    rc = cli.main(["simulate", "--scenario", str(SCENARIOS / f"{name}.json"),
                   "--out", str(tmp_path)])
    assert rc == 0
    assert digests(tmp_path) == SIMULATE[name]


def test_pad_mission_plan(tmp_path):
    rc = cli.main(["plan", "--scenario", str(SCENARIOS / "pad_mission.json"),
                   "--out", str(tmp_path)])
    assert rc == 0
    assert digests(tmp_path) == {"plan.txt": PLAN}


def test_crust_stuck_failure(tmp_path, capsys):
    rc = cli.main(["simulate", "--scenario", str(SCENARIOS / "crust_stuck.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == STUCK
