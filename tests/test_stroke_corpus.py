"""A seeded corpus of short drive scripts that pins the stroke engine.

Each script is drawn from its seed: a vehicle (either preset, with or
without the crust actuator, with a varied blade), a gravity (Moon, Mars
or Earth), a small map of 0.1-0.3 m cells that is flat, planar, bumpy or
stepped, a soil with crust, patches and laid spoil, and a few ops:
blade cuts, some through a mask, along oblique headings, strokes
trimmed by hand, turns, ripping, tows, dumps and relaxes.  A script runs
until its ops end or one raises.

Per bucket of scripts, a sha256 digest covers every script's cycle
records, penetration events, terrain arrays, `carried_out`, the pose,
anchors and blade load it ends with, and the type and text of what it
raised.  A change meant to alter these updates the digests and says why
in CHANGES.md.  The runs also count how often they reach the hard paths
of the engine, so that the corpus cannot drift off them unseen.
"""

import hashlib
import math
import random
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest

from spikedozer.earthworks import Terrain
from spikedozer.errors import FlipInstability, SimulationError, VehicleStuck
from spikedozer.locomotion import CONSTRUCTION, REFERENCE, Machine
from spikedozer.sensing import PenetrationRecorder
from spikedozer.soils import (
    EARTH,
    HARD,
    MARS,
    MEDIUM,
    MOON,
    SOFT,
    Duricrust,
    PatchSoilField,
    SoilLayer,
    SoilPatch,
    SoilProfile,
)

BUCKETS = 8
PER_BUCKET = 100

LOOSE = replace(SOFT, name="soft loose", repose_angle_deg=34.0, loose_density=1100.0)
CRUSTED = SoilProfile(
    name="crusted", anchor_work_slope=0.08,
    layers=(SoilLayer(thickness=10.0, resistance=1.5e6, friction_mu=0.35),),
    duricrust=Duricrust(strength=150000.0))
SLICK = SoilProfile(
    name="slick", anchor_work_slope=0.1,
    layers=(SoilLayer(thickness=0.06, resistance=960e3, friction_mu=0.1),
            SoilLayer(thickness=10.0, resistance=4e6, friction_mu=0.1)),
    duricrust=Duricrust(strength=150000.0))
PROFILES = (SOFT, MEDIUM, HARD, LOOSE, CRUSTED, SLICK)


def surface(rng, kind, shape, cell):
    """An initial bank surface of the given kind."""
    rows, cols = shape
    xs = (np.arange(cols) + 0.5) * cell
    ys = (np.arange(rows) + 0.5) * cell
    if kind == "flat":
        return None
    if kind == "planar":
        az = rng.uniform(0.0, 2.0 * math.pi)
        slope = math.tan(math.radians(rng.uniform(-6.0, 6.0)))
        return slope * (xs[None, :] * math.cos(az) + ys[:, None] * math.sin(az))
    if kind == "bumpy":
        # math.sin, not numpy's, whose SIMD loops may round differently
        out = np.zeros(shape)
        for _ in range(3):
            kx, ky, px, py = (rng.uniform(0.5, 3.0) for _ in range(4))
            wx = np.array([math.sin(kx * x + px) for x in xs.tolist()])
            wy = np.array([math.sin(ky * y + py) for y in ys.tolist()])
            out += rng.uniform(0.01, 0.05) * (wy[:, None] * wx[None, :])
        return out
    # stepped: one straight step across the map
    az = rng.uniform(0.0, 2.0 * math.pi)
    along = xs[None, :] * math.cos(az) + ys[:, None] * math.sin(az)
    return np.where(along > float(np.median(along)), rng.uniform(-0.12, 0.12), 0.0)


def script(seed):
    """The machine, recorder and ops of one corpus script."""
    rng = random.Random(seed)
    env = rng.choice((MOON, MOON, MOON, MARS, EARTH))
    spec = rng.choice((REFERENCE, REFERENCE, CONSTRUCTION))
    spec = replace(
        spec, has_crust_actuator=rng.random() < 0.6,
        blade_capacity=spec.blade_capacity * rng.choice((0.1, 0.3, 1.0)),
        blade_width=spec.blade_width * rng.choice((0.25, 1.0, 1.0)),
        blade_lead=rng.choice((0.1, spec.blade_lead)),
        blade_max_cut=rng.choice((0.04, spec.blade_max_cut)))
    cell = rng.choice((0.1, 0.15, 0.2, 0.25, 0.3))
    n = int(rng.uniform(9.0, 15.0) / cell)
    shape = (n, n)
    origin = (-0.5 * n * cell, -0.5 * n * cell)
    base = rng.choice(PROFILES)
    patches = []
    for _ in range(rng.randint(0, 3)):
        x0, y0 = rng.uniform(-4.0, 3.0), rng.uniform(-4.0, 3.0)
        patches.append((x0, y0, x0 + rng.uniform(0.5, 4.0), y0 + rng.uniform(0.5, 4.0),
                        rng.choice(PROFILES)))
    field = PatchSoilField(base, [SoilPatch(*p) for p in patches])
    kind = rng.choice(("flat", "planar", "bumpy", "stepped"))
    terrain = Terrain(shape, cell, origin, field, surface(rng, kind, shape, cell))
    if rng.random() < 0.4:  # laid spoil
        i0, j0 = rng.randrange(n), rng.randrange(n)
        terrain.loose_depth[i0:i0 + n // 3, j0:j0 + n // 3] = rng.uniform(0.01, 0.08)
    heading = rng.choice((0.0, 90.0, rng.uniform(-180.0, 180.0)))
    recorder = PenetrationRecorder(field, rng=np.random.default_rng(seed), noise_rel=0.02)
    m = Machine(spec, terrain, env, x=rng.uniform(-2.0, 2.0), y=rng.uniform(-2.0, 2.0),
                heading_deg=heading, recorder=recorder)

    ops = []
    for _ in range(rng.randint(2, 5)):
        kind = rng.choice(("cut", "cut", "cut", "rip", "rip", "turn", "tow", "halves",
                           "reverse", "relax"))
        if kind == "cut":
            target = rng.uniform(-0.1, 0.02)
            mask = None
            if rng.random() < 0.4:
                i0, j0 = rng.randrange(n), rng.randrange(n)
                mask = frozenset((i, j) for i in range(i0 - n // 3, i0 + n // 3)
                                 for j in range(j0 - n // 3, j0 + n // 3)
                                 if rng.random() < 0.8)
            ops += [("blade", target, mask), ("advance", rng.uniform(0.5, 4.0)),
                    ("blade", None, None)]
            if rng.random() < 0.6:
                ops.append(("dump",))
        elif kind == "rip":
            ops += [("ripper", rng.uniform(0.02, 0.1)), ("advance", rng.uniform(0.5, 4.0)),
                    ("ripper", 0.0)]
        elif kind == "turn":
            ops.append(("turn_by", rng.uniform(-110.0, 110.0)))
        elif kind == "tow":
            ops += [("tow", rng.choice((50.0, 200.0, 600.0, 1500.0)) * env.gravity / MOON.gravity),
                    ("advance", rng.uniform(0.5, 3.0)), ("tow", 0.0)]
        elif kind == "halves":
            if rng.random() < 0.5:
                ops.append(("blade", rng.uniform(-0.08, 0.0), None))
            ops += [("half", rng.uniform(0.1, 1.0) * spec.stroke_length)
                    for _ in range(rng.randint(1, 3))]
            ops.append(("blade", None, None))
        elif kind == "reverse":
            ops.append(("reverse", rng.uniform(0.5, 2.0)))
        else:
            ops.append(("relax",))
    return m, recorder, ops


def run(m, op):
    """Run one op of a corpus script on its machine."""
    name, *args = op
    if name == "blade":
        m.set_blade(*args)
    elif name == "ripper":
        m.set_ripper(*args)
    elif name == "advance":
        m.advance(*args)
    elif name == "reverse":
        m.advance(*args, reverse=True)
    elif name == "half":
        m.half_cycle(stroke=args[0])
    elif name == "turn_by":
        m.turn_by(*args)
    elif name == "tow":
        m.extra_draft = args[0]
    elif name == "dump":
        m.dump_prism()
    else:
        m.terrain.relax()


def outcome(seed, counts):
    """Run the script of `seed` and return the bytes its digest covers;
    tally the hard paths it reached in `counts`."""
    m, recorder, ops = script(seed)
    deepen = m._deepen_anchor

    def counted_deepen(frame, force):
        slip, work = deepen(frame, force)
        if slip > 0.0 and m.tools.blade is not None and not m._expanded:
            counts["slips while cutting"] += 1
        return slip, work

    m._deepen_anchor = counted_deepen
    seat = m._seat_frame

    def counted_seat(frame, ground, force, slip, offsets=None):
        out = seat(frame, ground, force, slip, offsets)
        counts["seats by friction"] += m.anchors[frame].by_friction
        return out

    m._seat_frame = counted_seat
    blade_cells = m.tools.blade_cells
    mask = None

    def counted_blade_cells(px, py):
        bands = blade_cells(px, py)
        if mask is not None:
            cols = m.terrain.shape[1]
            counts["masked crossings off the mask"] += sum(
                not any(c >= 0 and divmod(c, cols) in mask for c in band) for band in bands)
        return bands

    m.tools.blade_cells = counted_blade_cells
    error = None
    try:
        for op in ops:
            if op[0] == "blade":
                mask = op[2]
            before = len(m.cycles)
            run(m, op)
            for record in m.cycles[before:]:
                counts["spills"] += record.spill_volume > 0.0
                counts["ripping strokes"] += record.mode == "contract" and m.tools.rip_depth > 0.0
    except (SimulationError, ValueError) as err:
        error = (type(err).__name__, str(err))
        kind = ("off the map" if "off the map" in str(err) else type(err).__name__)
        counts[kind] += 1
    counts["half-cycles"] += len(m.cycles)
    t = m.terrain
    anchors = tuple(None if a is None else astuple(a) for _, a in sorted(m.anchors.items()))
    return b"".join((
        repr([astuple(c) for c in m.cycles]).encode(),
        repr([e.as_row() for e in recorder.events]).encode(),
        t.bank_floor.tobytes(), t.loose_depth.tobytes(), t.crust_broken.tobytes(),
        repr((t.carried_out, m.x, m.y, m.heading, m.separation, anchors, m.tools.prism,
              error)).encode()))


@pytest.fixture(scope="module")
def corpus():
    counts = Counter()
    out = []
    for b in range(BUCKETS):
        h = hashlib.sha256()
        for seed in range(b * PER_BUCKET, (b + 1) * PER_BUCKET):
            h.update(outcome(seed, counts))
        out.append(h.hexdigest())
    return out, counts


DIGESTS = [
    "d5c4c0b279c29a3b2a738a5a02dab23348232a4cf4fa0a28e3aeaebaf2f2b1e2",
    "7cbc15d30ca0ec47540ac6840181915676ccfde5789a91a69aaa7927ae8feaca",
    "b1b731405e43ccf8adeb964218d7a787bb355b7edf9e1c207ec70ade2d2dc7f1",
    "769b55a587e01f30bf8505fc5d04f992e33eb9ce7ab0081fb7cc2a3e11a46f2e",
    "15343c3421cbda24ab7749890b591af67533918568e8056e78e4bb885d357a7a",
    "2eaca9caa56454ea1df5c86bbb92fb349af7a3402f0c39ba5d62a4b9b3d112d3",
    "fec04c0f7522d1055a337c94fda61f916189bca2348aa540eaa2a4ffa229d590",
    "bd2aa06a2ae66f828f686e71e8762904f76ba6e15c099246e7908581c21fc4c1",
]

# At least about four in five of what the corpus reaches now: 127 slips
# while cutting, 282 seats held by friction (in 108 scripts), 114 spills,
# 262 ripping strokes, 267 runs off the map, 116 stalls and 22 flips,
# over 3,149 half-cycles, and 2,444 masked blade crossings laid out with
# no mask cell under the blade.
MIN_COUNTS = {
    "slips while cutting": 100,
    "seats by friction": 220,
    "masked crossings off the mask": 1950,
    "spills": 90,
    "ripping strokes": 200,
    "off the map": 200,
    VehicleStuck.__name__: 90,
    FlipInstability.__name__: 15,
}


@pytest.mark.parametrize("bucket", range(BUCKETS))
def test_bucket_digest(corpus, bucket):
    assert corpus[0][bucket] == DIGESTS[bucket]


def test_the_corpus_reaches_the_hard_paths(corpus):
    counts = corpus[1]
    for name, least in MIN_COUNTS.items():
        assert counts[name] >= least, name
