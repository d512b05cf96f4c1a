"""Seeded scenario generators for the benchmark workloads.

Each generator turns a seed into a list of ``(file_name, scenario)``
pairs; the program only ever sees the JSON files written from them.
The same seed always gives the same documents.

pad_r6
    The ``pad_quick`` mission (6 m x 0.40 m lunar pad, construction
    vehicle, soft soil) with sensing noise on so the seed reaches the
    event log.  One scenario; its ~60 trips are the items.
drive_sweep
    Forty drive scripts on the ``strip_cut`` template over a flat
    36 m x 36 m map at 0.125 m cells (288 x 288 rasters) with 2-5
    rectangular patches of soft soil with a 34 deg repose angle.  Two
    segments each of a 3-5 cm blade cut, carry, dump, left turn, rip and
    a full-map relax.
plan_sweep
    Forty-five pad plans, no execution: radii 8-24 m crossed with the
    soft, medium and hard soils and Moon, Mars and Earth gravity, with
    depth and radius jittered by the seed.  Each radius gets one depth
    from each ninth of the 0.30-0.50 m band and one radius offset from
    each ninth of +-0.5 m, so the amount of planning work barely moves
    from seed to seed.

The drive template stays inside the region where every script runs to
completion: medium-soil patches, sloped maps or right turns made a
large share of scripts flip, stall or leave the map, and 6 cm cuts or
patches with a steeper anchoring slope (0.12) made about one script in
a hundred flip or stall.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("pad_r6", "drive_sweep", "plan_sweep")

DRIVE_SCRIPTS = 40
PLAN_RADII = (8.0, 12.0, 16.0, 20.0, 24.0)
PLAN_SOILS = ("soft", "medium", "hard")
PLAN_GRAVITIES = ("moon", "mars", "earth")

# Soft variant with a lower repose angle, used for drive_sweep patches.
LOOSE_SOFT = {"preset": "soft", "name": "soft_loose", "repose_angle_deg": 34.0}


def pad_r6(seed: int) -> list[tuple[str, dict]]:
    """The single pad mission."""
    return [("pad_r6.json", {
        "name": "pad_r6",
        "environment": "moon",
        "soil": "soft",
        "vehicle": "construction",
        "seed": seed,
        "sensing": {"noise_rel": 0.02},
        "pad": {"radius": 6.0, "depth": 0.40},
    })]


def _segment(rng: random.Random) -> list[dict]:
    cut = rng.uniform(0.03, 0.05)
    return [
        {"op": "blade", "target_elevation": -cut},
        {"op": "advance", "distance": rng.uniform(3.0, 4.0)},
        {"op": "blade", "target_elevation": None},
        {"op": "advance", "distance": 1.0},
        {"op": "dump"},
        {"op": "turn_by", "delta_deg": rng.uniform(70.0, 110.0)},
        {"op": "ripper", "depth": rng.uniform(0.05, 0.08)},
        {"op": "advance", "distance": rng.uniform(2.0, 3.0)},
        {"op": "ripper", "depth": 0.0},
        {"op": "relax"},
    ]


def _patch(rng: random.Random) -> dict:
    w, h = rng.uniform(2.0, 8.0), rng.uniform(2.0, 8.0)
    x0, y0 = rng.uniform(-10.0, 10.0 - w), rng.uniform(-10.0, 10.0 - h)
    return {"x_min": x0, "y_min": y0, "x_max": x0 + w, "y_max": y0 + h,
            "soil": dict(LOOSE_SOFT)}


def drive_sweep(seed: int) -> list[tuple[str, dict]]:
    """The drive scripts of one sweep."""
    rng = random.Random(f"drive_sweep/{seed}")
    out = []
    for k in range(DRIVE_SCRIPTS):
        patches = [_patch(rng) for _ in range(rng.randint(2, 5))]
        start = {"x": rng.uniform(-2.0, 2.0), "y": rng.uniform(-2.0, 2.0),
                 "heading_deg": rng.uniform(0.0, 360.0)}
        drive = _segment(rng) + _segment(rng)
        out.append((f"drive_{k:02d}.json", {
            "name": f"drive_{k:02d}",
            "environment": "moon",
            "soil": {"preset": "soft", "patches": patches},
            "vehicle": "reference",
            "seed": rng.randrange(2**31),
            "sensing": {"noise_rel": 0.02},
            "terrain": {"extent": [36.0, 36.0], "cell_size": 0.125},
            "start": start,
            "drive": drive,
        }))
    return out


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def plan_sweep(seed: int) -> list[tuple[str, dict]]:
    """Radius x soil x gravity grid."""
    rng = random.Random(f"plan_sweep/{seed}")
    combos = [(soil, env) for soil in PLAN_SOILS for env in PLAN_GRAVITIES]
    out = []
    for radius in PLAN_RADII:
        depths = _strata(rng, 0.30, 0.50, len(combos))
        radii = _strata(rng, radius - 0.5, radius + 0.5, len(combos))
        for (soil, env), depth, r in zip(combos, depths, radii):
            k = len(out)
            out.append((f"plan_{k:02d}.json", {
                "name": f"plan_{k:02d}",
                "environment": env,
                "soil": soil,
                "vehicle": "construction",
                "seed": seed,
                "pad": {"radius": r, "depth": depth},
            }))
    return out


# How strongly each workload's speed follows the probe of calibrate.py
# (slope of log time on log probe time).  Planning spends much of its
# time in numpy array passes that other tenants slow far less.
PROBE_EXPONENT = {"pad_r6": 1.0, "drive_sweep": 1.0, "plan_sweep": 0.6}

GENERATORS = {"pad_r6": pad_r6, "drive_sweep": drive_sweep,
              "plan_sweep": plan_sweep}


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """Scenario documents for one workload."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; have {list(WORKLOADS)}")
    return GENERATORS[workload](seed)


def write_inputs(docs: list[tuple[str, dict]], out_dir: str) -> list[str]:
    """Write (file name, scenario) documents and return their paths in order."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, doc in docs:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths
