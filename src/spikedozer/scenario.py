"""Scenario documents: one JSON file fully describing a run.

A scenario binds an environment, a soil field, a vehicle, a terrain, and
exactly one mission: either a drive script (a list of commands executed
in order) or a pad specification handed to the mission planner.  The
seed pins every stochastic element, so a scenario plus a seed is a
complete, replayable experiment.

Parsing is strict, so a typo cannot silently change an experiment:

- unknown keys are rejected;
- numbers are JSON numbers and bools are JSON bools: ``"1.62"`` is not
  a gravity, ``"false"`` is not a bool and ``1.5`` is not a seed;
- a section's keys, their types and the value an absent key takes all
  come from the dataclass the section fills (`Environment`,
  `SoilProfile`, `SoilLayer`, `Duricrust`, `VehicleSpec`,
  `GroundTemperatureField`, `PadSpec`);
- no key may override another: a ``surface_raster`` sets the grid and
  its heights alone, ``shape`` and ``extent`` exclude each other, and
  ``slope_azimuth_deg`` needs ``slope_deg``;
- a drive's start puts the machine and each of its spikes on the terrain;
- a relative ``surface_raster`` path is relative to the scenario file.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .earthworks import DEFAULT_CELL_SIZE, Terrain, cell_at, cell_centers, check_grid_size
from .locomotion import VEHICLES, Machine, VehicleSpec
from .planner import (
    MissionPlan,
    MissionResult,
    PadSpec,
    execute_plan,
    plan_pad_mission,
    validate_plan,
)
from .rasters import read_raster
from .sensing import GroundTemperatureField, PenetrationRecorder
from .soils import (
    ENVIRONMENTS,
    SOILS,
    Duricrust,
    Environment,
    PatchSoilField,
    SoilField,
    SoilLayer,
    SoilPatch,
    SoilProfile,
)
from .traction import SpikeGeometry

_TOP_KEYS = {"name", "environment", "soil", "vehicle", "terrain", "start",
             "sensing", "seed", "drive", "pad"}

# What a JSON value of each kind must be: kind -> (description, test).
# json.load gives only int, float, bool, str, None, list and dict, and a
# bool does not pass for a number.
_KINDS = {
    float: ("a number", lambda v: type(v) is float or type(v) is int),
    int: ("a non-negative int", lambda v: type(v) is int and v >= 0),
    bool: ("a bool", lambda v: type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
    float | None: ("a number or null",
                   lambda v: v is None or type(v) is float or type(v) is int),
    "positive": ("a positive number", lambda v: type(v) in (float, int) and v > 0),
    "positive int": ("a positive int", lambda v: type(v) is int and v > 0),
    "non-negative": ("a non-negative number", lambda v: type(v) in (float, int) and v >= 0),
}

# drive op -> the kind of each key it takes besides "op"; a value out of a
# command's range is refused when the scenario is read, not when it runs
DRIVE_KEYS = {
    "advance": {"distance": "positive", "halves": int, "stroke": "positive",
                "reverse": bool},
    "turn_to": {"heading_deg": float},
    "turn_by": {"delta_deg": float},
    "blade": {"target_elevation": float | None},
    "ripper": {"depth": "non-negative"},
    "dump": {},
    "tow": {"force": "non-negative"},
    "relax": {},
}
# drive ops that cannot run without one of these keys
_DRIVE_NEEDS = {
    "advance": {"distance", "halves"},
    "turn_to": {"heading_deg"},
    "turn_by": {"delta_deg"},
}


@dataclass
class Scenario:
    """A parsed, validated scenario ready to run."""

    name: str
    environment: Environment
    soil: SoilField
    base_profile: SoilProfile
    vehicle: VehicleSpec
    seed: int
    noise_rel: float
    temperature: GroundTemperatureField
    start: tuple[float, float, float]
    terrain_shape: tuple[int, int]
    cell_size: float
    origin: tuple[float, float]
    initial_surface: np.ndarray | None
    drive: list[dict] | None
    pad: PadSpec | None


@dataclass
class RunResult:
    """Everything a finished run leaves behind for the artifact writers."""

    scenario: Scenario
    terrain: Terrain
    machine: Machine
    recorder: PenetrationRecorder
    plan: MissionPlan | None = None
    mission: MissionResult | None = None
    violations: list[str] | None = None


def _got(value) -> str:
    if value is None:
        return "null"
    return str(value) if type(value) in (int, float) else type(value).__name__


def _value(value, kind, where: str, key: str):
    """`value` of `key` checked against `kind`, a number as a float unless
    the kind is int.  A kind not in _KINDS reads a list or an object."""
    check = _KINDS.get(kind)
    if check is None:
        return kind(value, f"{where}.{key}")
    if not check[1](value):
        raise ValueError(f"{where}: {key!r} must be {check[0]}, got {_got(value)}")
    return float(value) if type(value) is int and kind is not int else value


class _Fields(dict):
    """JSON key -> kind for the section that fills dataclass `cls`.

    A field's kind is its type; `kinds` adds keys, or gives the reader of
    a field that holds a list or another object.  A reader is a function
    called with the JSON value and where it sits.  A field without a
    default is required, except a name: an object given without one is
    called "custom".
    """

    def __init__(self, cls=None, **kinds):
        fields = dataclasses.fields(cls) if cls else ()
        hints = inspect.get_annotations(cls, eval_str=True) if cls else {}
        super().__init__({f.name: hints[f.name] for f in fields}, **kinds)
        for key, kind in self.items():
            if kind not in _KINDS and (isinstance(kind, type) or not callable(kind)):
                raise TypeError(f"key {key!r} needs a kind or a reader, not {kind!r}")
        self.cls = cls
        self.required = frozenset(
            f.name for f in fields
            if f.default is dataclasses.MISSING and f.name != "name")


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    if not obj.keys() <= allowed:
        raise ValueError(f"unknown keys in {where}: {sorted(obj.keys() - allowed)}")


def _read(node, fields: _Fields, where: str) -> dict:
    """The values of the JSON object `node`, each checked against its kind.
    An object that names a preset to adjust needs no other key."""
    if type(node) is not dict:
        raise ValueError(f"{where} must be an object, got {_got(node)}")
    _reject_unknown(node, fields.keys(), where)
    if fields.required and "preset" not in node and not fields.required <= node.keys():
        raise ValueError(f"{where} needs {sorted(fields.required - node.keys())}")
    return {key: _value(value, fields[key], where, key)
            for key, value in node.items()}


def _named(node, presets: dict, fields: _Fields, where: str, base=None):
    """A preset by name, or a JSON object.  An object whose "preset" (or
    else `base`) names a preset adjusts it; any other fills fields.cls."""
    given = None
    if type(node) is not str:
        given = _read(node, fields, where)
        node = given.pop("preset", base)
        if node is None:
            return fields.cls(**{"name": "custom", **given})
    if type(node) is str and node in presets:
        return presets[node] if given is None else dataclasses.replace(
            presets[node], **given)
    raise ValueError(f"unknown {where} preset {node!r}; have {sorted(presets)}")


def _section(doc: dict, key: str, default):
    """A top-level section, or `default` where it is absent or null."""
    node = doc.get(key)
    return default if node is None else node


def _scalars(kind, length: int | None = None):
    """Reader of a JSON list of `kind` values, `length` of them if given."""
    desc, valid = _KINDS[kind]

    def read(value, where: str) -> tuple:
        if (type(value) is not list or length not in (None, len(value))
                or not all(map(valid, value))):
            got = json.dumps(value)[:40] if type(value) is list else _got(value)
            count = "" if length is None else f"{length} "
            raise ValueError(f"{where} must be a list of {count}values, each "
                             f"{desc}, got {got}")
        return tuple(float(v) if kind in (float, "positive") else v for v in value)
    return read


def _objects(read_one):
    """Reader of a JSON list of objects, each built by `read_one`."""
    def read(value, where: str) -> list:
        if type(value) is not list:
            raise ValueError(f"{where} must be a list, got {_got(value)}")
        return [read_one(item, f"{where}[{n}]") for n, item in enumerate(value)]
    return read


def _profile(node, where: str = "soil") -> SoilProfile:
    if type(node) is dict and "preset" in node and "layers" in node:
        raise ValueError(f"{where}: give either a preset to adjust or "
                         "explicit layers, not both")
    return _named(node, SOILS, _PROFILE, where)


def _patch(node, where: str) -> SoilPatch:
    given = _read(node, _PATCH, where)
    try:
        return SoilPatch(profile=given.pop("soil"), **given)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _soil(node) -> tuple[SoilField, SoilProfile]:
    if type(node) is dict and "patches" in node:
        body = dict(node)
        patches = body.pop("patches")
        base = _profile(body or "soft")
        return PatchSoilField(base, _objects(_patch)(patches, "soil.patches")), base
    base = _profile(node)
    return SoilField(base), base


_ENVIRONMENT = _Fields(Environment)
_LAYER = _Fields(SoilLayer)
_CRUST = _Fields(Duricrust)
_LAYERS = _objects(lambda node, where: SoilLayer(**_read(node, _LAYER, where)))
_PROFILE = _Fields(
    SoilProfile, preset=str,
    layers=lambda node, where: tuple(_LAYERS(node, where)),
    duricrust=lambda node, where: None if node is None else Duricrust(
        **_read(node, _CRUST, where)))
# A patch gives its profile as "soil", like the scenario's own section.
_PATCH = _Fields(x_min=float, y_min=float, x_max=float, y_max=float,
                 soil=_profile)
_PATCH.required = frozenset(_PATCH)
# A spike is calibrated from two thrust angles instead of being given its
# reach; the rest of its geometry passes through to SpikeGeometry.
_SPIKE = _Fields(surface_angle_deg=float, seated_angle_deg=float,
                 seated_depth=float, hinge_height=float, bearing_width=float,
                 tip_area=float, max_depth=float)
_VEHICLE = _Fields(
    VehicleSpec, preset=str, spike_offsets=_scalars(float),
    spike=lambda node, where: SpikeGeometry.from_thrust_angles(
        **_read(node, _SPIKE, where)))
_VEHICLE.required = frozenset()  # every key adjusts a preset
_SENSING = _Fields(GroundTemperatureField, noise_rel=float)
_PAD = _Fields(PadSpec)
_START = _Fields(x=float, y=float, heading_deg=float)
_TERRAIN = _Fields(
    extent=_scalars("positive", 2), shape=_scalars("positive int", 2), cell_size=float,
    origin=_scalars(float, 2), slope_deg=float, slope_azimuth_deg=float,
    surface_raster=str)


def _parse_terrain(node: dict, base_dir: str) -> tuple[
        tuple[int, int], float, tuple[float, float], np.ndarray | None]:
    given = _read(node, _TERRAIN, "terrain")
    # keys that another key would silently override, or that do nothing alone
    if "surface_raster" in given and given.keys() - {"surface_raster"}:
        raise ValueError("terrain: 'surface_raster' sets the grid and its heights; "
                         f"drop {sorted(given.keys() - {'surface_raster'})}")
    if "shape" in given and "extent" in given:
        raise ValueError("terrain: give 'shape' or 'extent', not both")
    if "slope_azimuth_deg" in given and "slope_deg" not in given:
        raise ValueError("terrain: 'slope_azimuth_deg' needs 'slope_deg'")

    if "surface_raster" in given:
        path = os.path.join(base_dir, given["surface_raster"])
        grid, cell, origin = read_raster(path)
        if not (0.0 < cell < math.inf and all(map(math.isfinite, origin))):
            raise ValueError(f"surface raster {path} needs a positive finite "
                             f"cell size and a finite origin")
        bad = np.argwhere(~np.isfinite(grid))
        if bad.size:
            i, j = bad[0].tolist()
            raise ValueError(f"surface raster {path} row {i} column {j} "
                             f"is {grid[i, j]}; heights must be finite")
        return grid.shape, cell, origin, grid

    cell = given.get("cell_size", DEFAULT_CELL_SIZE)
    if not cell > 0.0:
        raise ValueError(f"terrain: 'cell_size' must be positive, got {cell}")
    if "shape" in given:
        rows, cols = given["shape"]
    else:
        ex, ey = given.get("extent", (40.0, 40.0))
        cols = max(1, round(ex / cell))
        rows = max(1, round(ey / cell))
    check_grid_size(rows, cols, f"terrain needs a {rows} x {cols} cell grid")
    origin = given.get("origin", (-0.5 * cols * cell, -0.5 * rows * cell))

    surface = None
    slope_deg = given.get("slope_deg", 0.0)
    if slope_deg != 0.0:
        if not -60.0 < slope_deg < 60.0:
            raise ValueError("terrain slope must be within (-60, 60) degrees")
        az = math.radians(given.get("slope_azimuth_deg", 0.0))
        xs, ys = cell_centers(cols, cell, origin[0]), cell_centers(rows, cell, origin[1])
        plane = math.tan(math.radians(slope_deg)) * (
            xs[np.newaxis, :] * math.cos(az) + ys[:, np.newaxis] * math.sin(az))
        surface = plane.astype(float)
    return (rows, cols), cell, origin, surface


def _command(cmd, where: str) -> dict:
    """One drive command, its values checked."""
    if type(cmd) is not dict or "op" not in cmd:
        raise ValueError(f"{where} needs an 'op' field")
    op = cmd["op"]
    kinds = DRIVE_KEYS.get(op) if type(op) is str else None
    if kinds is None:
        raise ValueError(f"{where}: unknown op {op!r}; have {list(DRIVE_KEYS)}")
    checked = {}
    for key, value in cmd.items():
        kind = kinds.get(key)
        if kind is not None:
            checked[key] = _value(value, kind, where, key)
        elif key == "op":
            checked[key] = op
        else:
            unknown = sorted(cmd.keys() - kinds.keys() - {"op"})
            raise ValueError(f"{where}: unknown keys {unknown} for {op!r}; "
                             f"it takes {sorted(kinds)}")
    needs = _DRIVE_NEEDS.get(op)
    if needs and needs.isdisjoint(cmd):
        raise ValueError(f"{where}: {op!r} needs one of {sorted(needs)}")
    return checked


def load_scenario(path: str, seed_override: int | None = None) -> Scenario:
    """Parse and validate one scenario file.

    Raises ValueError with a diagnostic for anything malformed, and for a
    scenario or surface raster file that cannot be read.  JSON syntax
    errors keep their line and column.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite_float, parse_int=_finite_int,
                            parse_constant=_reject_constant)
        if not isinstance(doc, dict):
            raise ValueError("scenario must be a JSON object")
        return _build_scenario(doc, seed_override, os.path.dirname(path))
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"{path}: {err}") from err


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows to {value}")
    return value


def _finite_int(text: str) -> int:
    value = int(text)
    try:
        float(value)  # the bound _finite_float keeps
    except OverflowError:
        raise ValueError(
            f"number {text[:20]}... of {len(text)} characters overflows to inf") from None
    return value


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name} is not allowed")


def _build_scenario(doc: dict, seed_override: int | None, base_dir: str) -> Scenario:
    _reject_unknown(doc, _TOP_KEYS, "scenario")

    has_drive = "drive" in doc
    has_pad = "pad" in doc
    if has_drive == has_pad:
        raise ValueError("a scenario needs exactly one of 'drive' or 'pad'")

    environment = _named(_section(doc, "environment", "moon"), ENVIRONMENTS,
                         _ENVIRONMENT, "environment")
    soil, base_profile = _soil(_section(doc, "soil", "soft"))
    vehicle = _named(_section(doc, "vehicle", "reference"), VEHICLES,
                     _VEHICLE, "vehicle", base="reference")
    seed = _value(doc.get("seed", 0) if seed_override is None else seed_override,
                  int, "scenario", "seed")

    sensing = _read(_section(doc, "sensing", {}), _SENSING, "sensing")
    noise_rel = sensing.pop("noise_rel", 0.0)
    if not 0.0 <= noise_rel < 1.0:
        raise ValueError("sensing noise must be in [0, 1)")
    temperature = GroundTemperatureField(**sensing)

    pad = drive = None
    if has_pad:
        if "terrain" in doc or "start" in doc:
            raise ValueError(
                "pad missions size their own terrain and place the machine; "
                "drop the 'terrain' and 'start' sections")
        pad = PadSpec(**_read(_section(doc, "pad", {}), _PAD, "pad"))
        shape, cell, origin = (1, 1), pad.cell_size, (0.0, 0.0)
        surface = None
        start = (0.0, 0.0, 0.0)
    else:
        drive = _objects(_command)(doc["drive"], "drive")
        for n, cmd in enumerate(drive):
            if "stroke" in cmd and "halves" not in cmd:
                raise ValueError(f"drive[{n}]: 'stroke' sets the length of each of "
                                 "'halves'; an advance by 'distance' takes none")
            if cmd.get("stroke", 0.0) > vehicle.stroke_length:
                raise ValueError(f"drive[{n}]: 'stroke' must be at most the ram stroke "
                                 f"{vehicle.stroke_length:g}, got {_got(cmd['stroke'])}")
        shape, cell, origin, surface = _parse_terrain(
            _section(doc, "terrain", {}), base_dir)
        given = _read(_section(doc, "start", {}), _START, "start")
        start = (given.get("x", 0.0), given.get("y", 0.0),
                 given.get("heading_deg", 0.0))
        _check_start(start, vehicle, shape, cell, origin)

    return Scenario(
        name=_value(doc.get("name", "scenario"), str, "scenario", "name"),
        environment=environment,
        soil=soil,
        base_profile=base_profile,
        vehicle=vehicle,
        seed=seed,
        noise_rel=noise_rel,
        temperature=temperature,
        start=start,
        terrain_shape=shape,
        cell_size=cell,
        origin=origin,
        initial_surface=surface,
        drive=drive,
        pad=pad,
    )


def _check_start(start: tuple[float, float, float], vehicle: VehicleSpec,
                 shape: tuple[int, int], cell: float, origin: tuple[float, float]) -> None:
    """Refuse a start pose whose center, or any spike of either frame as
    the machine first stands (frames at the base separation, spikes at the
    surface), is off the terrain.  The rear frame, which a forward drive
    seats first, is tested first."""
    x, y, heading_deg = start
    (rows, cols), (x0, y0) = shape, origin
    spans = (f"the terrain, which spans x [{x0:g}, {x0 + cols * cell:g}) "
             f"and y [{y0:g}, {y0 + rows * cell:g})")
    if cell_at(shape, cell, origin, x, y) is None:
        raise ValueError(f"start ({x:g}, {y:g}) is off {spans}")
    heading = math.radians(heading_deg)
    unit = (math.cos(heading), math.sin(heading))
    for frame in ("rear", "front"):
        for offset in vehicle.spike_offsets:
            px, py = vehicle.spike_point(x, y, unit, vehicle.base_separation,
                                         frame, offset, 0.0)
            if cell_at(shape, cell, origin, px, py) is None:
                raise ValueError(f"start ({x:g}, {y:g}) puts the {frame} frame's spike "
                                 f"point ({px:.2f}, {py:.2f}) off {spans}")


def _run_command(machine: Machine, terrain: Terrain, cmd: dict) -> None:
    """Run one drive command whose values `_command` checked."""
    op = cmd["op"]
    if op == "advance":
        reverse = cmd.get("reverse", False)
        if "halves" in cmd:
            for _ in range(cmd["halves"]):
                machine.half_cycle(stroke=cmd.get("stroke"), reverse=reverse)
        else:
            machine.advance(cmd["distance"], reverse=reverse)
    elif op == "turn_to":
        machine.turn_to(cmd["heading_deg"])
    elif op == "turn_by":
        machine.turn_by(cmd["delta_deg"])
    elif op == "blade":
        machine.set_blade(cmd.get("target_elevation"))
    elif op == "ripper":
        machine.set_ripper(cmd.get("depth", 0.0))
    elif op == "dump":
        machine.dump_prism()
    elif op == "tow":
        machine.extra_draft = cmd.get("force", 0.0)
    else:  # relax, the last op DRIVE_KEYS names
        terrain.relax()


def plan_and_validate(scn: Scenario) -> tuple[MissionPlan, list[str]]:
    """The scenario's pad plan and its findings, both from the base soil profile."""
    plan = plan_pad_mission(scn.pad, scn.vehicle, scn.environment,
                            scn.base_profile)
    return plan, validate_plan(plan, scn.environment, scn.base_profile)


def run_scenario(scn: Scenario) -> RunResult:
    """Execute a parsed scenario and return its full end state."""
    rng = np.random.default_rng(scn.seed)
    recorder = PenetrationRecorder(scn.soil, scn.temperature, rng, scn.noise_rel)

    if scn.pad is not None:
        plan, violations = plan_and_validate(scn)
        mission = execute_plan(plan, scn.environment, scn.soil, recorder)
        return RunResult(
            scenario=scn,
            terrain=mission.terrain,
            machine=mission.machine,
            recorder=recorder,
            plan=plan,
            mission=mission,
            violations=violations,
        )

    terrain = Terrain(scn.terrain_shape, cell_size=scn.cell_size,
                      origin=scn.origin, soil=scn.soil,
                      initial_surface=scn.initial_surface)
    machine = Machine(scn.vehicle, terrain, scn.environment,
                      x=scn.start[0], y=scn.start[1], heading_deg=scn.start[2],
                      recorder=recorder)
    for cmd in scn.drive or []:
        _run_command(machine, terrain, cmd)
    return RunResult(scenario=scn, terrain=terrain, machine=machine,
                     recorder=recorder)
