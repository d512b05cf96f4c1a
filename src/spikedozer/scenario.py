"""Scenario documents: one JSON file fully describing a run.

A scenario binds an environment, a soil field, a vehicle, a terrain, and
exactly one mission: either a drive script (a list of commands executed
in order) or a pad specification handed to the mission planner.  The
seed pins every stochastic element, so a scenario plus a seed is a
complete, replayable experiment.

Parsing is strict: unknown keys are rejected so a typo cannot silently
change an experiment.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .earthworks import DEFAULT_CELL_SIZE, Terrain
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

_TOP_KEYS = {"name", "environment", "soil", "vehicle", "terrain", "start",
             "sensing", "seed", "drive", "pad"}
_TERRAIN_KEYS = {"extent", "shape", "cell_size", "origin", "slope_deg",
                 "slope_azimuth_deg", "surface_raster"}
_START_KEYS = {"x", "y", "heading_deg"}
_SENSING_KEYS = {"noise_rel", "surface_K", "gradient_K_per_m"}
_PROFILE_KEYS = {"name", "preset", "layers", "anchor_work_slope", "duricrust",
                 "loose_resistance", "loose_density", "repose_angle_deg",
                 "allow_inversion"}
_LAYER_KEYS = {"thickness", "resistance", "friction_mu", "density"}
_PATCH_KEYS = {"x_min", "y_min", "x_max", "y_max", "soil"}

# drive op -> the keys it takes besides "op"
DRIVE_KEYS = {
    "advance": {"distance", "halves", "stroke", "reverse"},
    "turn_to": {"heading_deg"},
    "turn_by": {"delta_deg"},
    "blade": {"target_elevation"},
    "ripper": {"depth"},
    "dump": set(),
    "tow": {"force"},
    "relax": set(),
}
# drive ops that cannot run without one of these keys
_DRIVE_NEEDS = {
    "advance": {"distance", "halves"},
    "turn_to": {"heading_deg"},
    "turn_by": {"delta_deg"},
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what each drive value must be: (description, test); every key not
# named here takes a number
_DRIVE_VALUES = {
    "reverse": ("a bool", lambda v: isinstance(v, bool)),
    "halves": ("a non-negative int",
               lambda v: _is_number(v) and isinstance(v, int) and v >= 0),
    "target_elevation": ("a number or null",
                         lambda v: v is None or _is_number(v)),
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


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")


def _parse_environment(node) -> Environment:
    if node is None:
        return ENVIRONMENTS["moon"]
    if isinstance(node, str):
        try:
            return ENVIRONMENTS[node]
        except KeyError:
            raise ValueError(
                f"unknown environment preset {node!r}; "
                f"have {sorted(ENVIRONMENTS)}")
    if isinstance(node, dict):
        _reject_unknown(node, {"name", "gravity"}, "environment")
        if "gravity" not in node:
            raise ValueError("a custom environment needs a gravity value")
        return Environment(str(node.get("name", "custom")),
                           float(node["gravity"]))
    raise ValueError("environment must be a preset name or an object")


def _parse_profile(node, where: str = "soil") -> SoilProfile:
    if isinstance(node, str):
        try:
            return SOILS[node]
        except KeyError:
            raise ValueError(
                f"unknown soil preset {node!r}; have {sorted(SOILS)}")
    if not isinstance(node, dict):
        raise ValueError(f"{where} must be a preset name or an object")
    _reject_unknown(node, _PROFILE_KEYS, where)

    crust = None
    if node.get("duricrust") is not None:
        c = node["duricrust"]
        _reject_unknown(c, {"strength", "thickness"}, f"{where}.duricrust")
        crust = Duricrust(float(c["strength"]), float(c["thickness"]))

    if "preset" in node:
        base = _parse_profile(node["preset"], where)
        changes = {}
        for key in ("anchor_work_slope", "loose_resistance", "loose_density",
                    "repose_angle_deg"):
            if key in node:
                changes[key] = float(node[key])
        if "allow_inversion" in node:
            changes["allow_inversion"] = bool(node["allow_inversion"])
        if "name" in node:
            changes["name"] = str(node["name"])
        if "layers" in node:
            raise ValueError(
                f"{where}: give either a preset to adjust or explicit "
                "layers, not both")
        if "duricrust" in node:
            changes["duricrust"] = crust
        return dataclasses.replace(base, **changes)

    if "layers" not in node or "anchor_work_slope" not in node:
        raise ValueError(
            f"{where}: a custom profile needs layers and anchor_work_slope")
    layers = []
    for n, lnode in enumerate(node["layers"]):
        _reject_unknown(lnode, _LAYER_KEYS, f"{where}.layers[{n}]")
        layers.append(SoilLayer(
            thickness=float(lnode["thickness"]),
            resistance=float(lnode["resistance"]),
            friction_mu=float(lnode.get("friction_mu", 0.6)),
            density=float(lnode.get("density", 1500.0)),
        ))
    return SoilProfile(
        name=str(node.get("name", "custom")),
        layers=tuple(layers),
        anchor_work_slope=float(node["anchor_work_slope"]),
        duricrust=crust,
        loose_resistance=float(node.get("loose_resistance", 50e3)),
        loose_density=float(node.get("loose_density", 1200.0)),
        repose_angle_deg=float(node.get("repose_angle_deg", 41.0)),
        allow_inversion=bool(node.get("allow_inversion", False)),
    )


def _parse_soil(node) -> tuple[SoilField, SoilProfile]:
    if isinstance(node, dict) and "patches" in node:
        body = dict(node)
        patches_node = body.pop("patches")
        base = _parse_profile(body if body else "soft", "soil")
        patches = []
        for n, pnode in enumerate(patches_node):
            _reject_unknown(pnode, _PATCH_KEYS, f"soil.patches[{n}]")
            patches.append(SoilPatch(
                x_min=float(pnode["x_min"]), y_min=float(pnode["y_min"]),
                x_max=float(pnode["x_max"]), y_max=float(pnode["y_max"]),
                profile=_parse_profile(pnode["soil"], f"soil.patches[{n}].soil"),
            ))
        return PatchSoilField(base, patches), base
    base = _parse_profile(node if node is not None else "soft", "soil")
    return SoilField(base), base


def _parse_vehicle(node) -> VehicleSpec:
    if node is None:
        return VEHICLES["reference"]
    if isinstance(node, str):
        try:
            return VEHICLES[node]
        except KeyError:
            raise ValueError(
                f"unknown vehicle preset {node!r}; have {sorted(VEHICLES)}")
    if not isinstance(node, dict):
        raise ValueError("vehicle must be a preset name or an object")
    body = dict(node)
    base = VEHICLES[str(body.pop("preset", "reference"))]
    spike_node = body.pop("spike", None)
    changes: dict = {}
    if spike_node is not None:
        from .traction import SpikeGeometry
        changes["spike"] = SpikeGeometry.from_thrust_angles(
            **{k: float(v) for k, v in spike_node.items()})
    if "spike_offsets" in body:
        changes["spike_offsets"] = tuple(
            float(v) for v in body.pop("spike_offsets"))
    if "name" in body:
        changes["name"] = str(body.pop("name"))
    if "has_crust_actuator" in body:
        changes["has_crust_actuator"] = bool(body.pop("has_crust_actuator"))
    scalar_fields = {
        f.name for f in dataclasses.fields(VehicleSpec)
        if f.type in ("float", "int")}
    for key, value in body.items():
        if key not in scalar_fields:
            raise ValueError(f"unknown vehicle field {key!r}")
        changes[key] = float(value)
    return dataclasses.replace(base, **changes)


def _parse_terrain(node) -> tuple[tuple[int, int], float, tuple[float, float],
                                  np.ndarray | None]:
    if node is None:
        node = {}
    _reject_unknown(node, _TERRAIN_KEYS, "terrain")

    if "surface_raster" in node:
        path = str(node["surface_raster"])
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

    cell = float(node.get("cell_size", DEFAULT_CELL_SIZE))
    if "shape" in node:
        rows, cols = (int(v) for v in node["shape"])
    else:
        ex, ey = node.get("extent", (40.0, 40.0))
        cols = max(1, round(float(ex) / cell))
        rows = max(1, round(float(ey) / cell))
    if "origin" in node:
        origin = (float(node["origin"][0]), float(node["origin"][1]))
    else:
        origin = (-0.5 * cols * cell, -0.5 * rows * cell)

    surface = None
    slope_deg = float(node.get("slope_deg", 0.0))
    if slope_deg != 0.0:
        if not -60.0 < slope_deg < 60.0:
            raise ValueError("terrain slope must be within (-60, 60) degrees")
        az = math.radians(float(node.get("slope_azimuth_deg", 0.0)))
        xs = origin[0] + (np.arange(cols) + 0.5) * cell
        ys = origin[1] + (np.arange(rows) + 0.5) * cell
        plane = math.tan(math.radians(slope_deg)) * (
            xs[np.newaxis, :] * math.cos(az) + ys[:, np.newaxis] * math.sin(az))
        surface = plane.astype(float)
    return (rows, cols), cell, origin, surface


def _validate_drive(commands) -> list[dict]:
    if not isinstance(commands, list):
        raise ValueError("drive must be a list of command objects")
    out = []
    for n, cmd in enumerate(commands):
        if not isinstance(cmd, dict) or "op" not in cmd:
            raise ValueError(f"drive[{n}] needs an 'op' field")
        op = cmd["op"]
        if op not in DRIVE_KEYS:
            raise ValueError(
                f"drive[{n}]: unknown op {op!r}; have {list(DRIVE_KEYS)}")
        unknown = set(cmd) - DRIVE_KEYS[op] - {"op"}
        if unknown:
            raise ValueError(
                f"drive[{n}]: unknown keys {sorted(unknown)} for {op!r}; "
                f"it takes {sorted(DRIVE_KEYS[op])}")
        for key, value in cmd.items():
            kind, valid = _DRIVE_VALUES.get(key, ("a number", _is_number))
            if key != "op" and not valid(value):
                got = value if _is_number(value) else (
                    "null" if value is None else type(value).__name__)
                raise ValueError(f"drive[{n}]: {key!r} must be {kind}, got {got}")
        needs = _DRIVE_NEEDS.get(op)
        if needs and needs.isdisjoint(cmd):
            raise ValueError(f"drive[{n}]: {op!r} needs one of {sorted(needs)}")
        out.append(cmd)
    return out


def load_scenario(
    path: str,
    seed_override: int | None = None,
    force_depth_override: bool = False,
) -> Scenario:
    """Parse and validate one scenario file.

    Raises ValueError with a diagnostic (JSON syntax errors keep their
    line and column) for anything malformed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=_finite_float, parse_int=_finite_int,
                            parse_constant=_reject_constant)
        except ValueError as err:  # JSONDecodeError is a ValueError too
            raise ValueError(f"{path}: {err}") from err
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: scenario must be a JSON object")
    try:
        return _build_scenario(doc, seed_override, force_depth_override)
    except (KeyError, TypeError, ValueError) as err:
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


def _build_scenario(doc: dict, seed_override: int | None,
                    force_depth_override: bool) -> Scenario:
    _reject_unknown(doc, _TOP_KEYS, "scenario")

    has_drive = "drive" in doc
    has_pad = "pad" in doc
    if has_drive == has_pad:
        raise ValueError("a scenario needs exactly one of 'drive' or 'pad'")

    environment = _parse_environment(doc.get("environment"))
    soil, base_profile = _parse_soil(doc.get("soil"))
    vehicle = _parse_vehicle(doc.get("vehicle"))

    seed = seed_override if seed_override is not None else int(doc.get("seed", 0))
    if seed < 0:
        raise ValueError("seed must be non-negative")

    sensing_node = doc.get("sensing") or {}
    _reject_unknown(sensing_node, _SENSING_KEYS, "sensing")
    noise_rel = float(sensing_node.get("noise_rel", 0.0))
    if not 0.0 <= noise_rel < 1.0:
        raise ValueError("sensing noise must be in [0, 1)")
    temperature = GroundTemperatureField(
        surface_K=float(sensing_node.get("surface_K", 250.0)),
        gradient_K_per_m=float(sensing_node.get("gradient_K_per_m", -40.0)),
    )

    pad = None
    drive = None
    if has_pad:
        if "terrain" in doc or "start" in doc:
            raise ValueError(
                "pad missions size their own terrain and place the machine; "
                "drop the 'terrain' and 'start' sections")
        pad_node = dict(doc["pad"] or {})
        field_names = {f.name for f in dataclasses.fields(PadSpec)}
        _reject_unknown(pad_node, field_names, "pad")
        if force_depth_override:
            pad_node["force_depth_override"] = True
        pad = PadSpec(**pad_node)
        shape, cell, origin = (1, 1), pad.cell_size, (0.0, 0.0)
        surface = None
        start = (0.0, 0.0, 0.0)
    else:
        drive = _validate_drive(doc["drive"])
        shape, cell, origin, surface = _parse_terrain(doc.get("terrain"))
        start_node = doc.get("start") or {}
        _reject_unknown(start_node, _START_KEYS, "start")
        start = (float(start_node.get("x", 0.0)),
                 float(start_node.get("y", 0.0)),
                 float(start_node.get("heading_deg", 0.0)))

    return Scenario(
        name=str(doc.get("name", "scenario")),
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


def _run_command(machine: Machine, terrain: Terrain, cmd: dict) -> None:
    op = cmd["op"]
    if op == "advance":
        reverse = bool(cmd.get("reverse", False))
        if "halves" in cmd:
            for _ in range(int(cmd["halves"])):
                machine.half_cycle(stroke=cmd.get("stroke"), reverse=reverse)
        else:
            machine.advance(float(cmd["distance"]), reverse=reverse)
    elif op == "turn_to":
        machine.turn_to(float(cmd["heading_deg"]))
    elif op == "turn_by":
        machine.turn_by(float(cmd["delta_deg"]))
    elif op == "blade":
        target = cmd.get("target_elevation")
        machine.set_blade(None if target is None else float(target))
    elif op == "ripper":
        machine.set_ripper(float(cmd.get("depth", 0.0)))
    elif op == "dump":
        machine.dump_prism()
    elif op == "tow":
        force = float(cmd.get("force", 0.0))
        if force < 0.0:
            raise ValueError("tow force must be non-negative")
        machine.extra_draft = force
    elif op == "relax":
        terrain.relax()
    else:
        raise ValueError(f"unknown drive op {op!r}")


def run_scenario(scn: Scenario) -> RunResult:
    """Execute a parsed scenario and return its full end state."""
    rng = np.random.default_rng(scn.seed)
    recorder = PenetrationRecorder(scn.soil, scn.temperature, rng, scn.noise_rel)

    if scn.pad is not None:
        plan = plan_pad_mission(scn.pad, scn.vehicle, scn.environment,
                                scn.base_profile)
        violations = validate_plan(plan, scn.environment, scn.base_profile)
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
