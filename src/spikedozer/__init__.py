"""Quasi-static simulator and planner for a push-pull spike-anchored
bulldozer building landing pads and berms in weak regolith.

The drive alternates between two spike-anchored frames on a shared
prismatic axis: one frame seats its spikes and holds while the actuator
moves the other, so drawbar pull is set by spike geometry rather than
by weight on the running gear. The package models that anchoring
mechanics (``traction``), soil columns and environments (``soils``),
a height-field terrain with volume accounting (``earthworks``), the
cycle-level machine simulation (``locomotion``), strength surveying as
a by-product of spike seatings (``sensing``), pad mission planning and
execution (``planner``), scenario files (``scenario``), and a command
line front end (``cli``).
"""

from .earthworks import SWELL_FACTOR, Terrain, VolumeAudit
from .errors import FlipInstability, SimulationError, VehicleStuck
from .locomotion import (
    CONSTRUCTION,
    RECORD_FIELDS,
    REFERENCE,
    VEHICLES,
    CycleRecord,
    Machine,
    VehicleSpec,
    conventional_drawbar_per_mass,
    traverse_check,
)
from .planner import (
    MissionPlan,
    MissionResult,
    PadSpec,
    Trip,
    describe_plan,
    estimate_energy,
    execute_plan,
    plan_pad_mission,
    predict_peak_draft,
    validate_plan,
)
from .scenario import RunResult, Scenario, load_scenario, run_scenario
from .sensing import (
    EVENT_FIELDS,
    PenetrationEvent,
    PenetrationRecorder,
    load_events,
    penetration_trace,
    rasterize_events,
)
from .soils import (
    EARTH,
    ENVIRONMENTS,
    HARD,
    MARS,
    MEDIUM,
    MOON,
    SOFT,
    SOILS,
    Environment,
    PatchSoilField,
    SoilLayer,
    SoilPatch,
    SoilProfile,
    crust_breaks,
)
from .traction import (
    REFERENCE_GEOMETRY,
    SpikeGeometry,
    anchoring_slip,
    anchoring_work,
    derated_pull_weight_ratio,
    flip_margin,
    lift_force,
    pull_weight_ratio,
    ripper_downforce,
    tractive_efficiency,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTRUCTION",
    "EARTH",
    "ENVIRONMENTS",
    "EVENT_FIELDS",
    "HARD",
    "MARS",
    "MEDIUM",
    "MOON",
    "RECORD_FIELDS",
    "REFERENCE",
    "REFERENCE_GEOMETRY",
    "SOFT",
    "SOILS",
    "SWELL_FACTOR",
    "VEHICLES",
    "CycleRecord",
    "Environment",
    "FlipInstability",
    "Machine",
    "MissionPlan",
    "MissionResult",
    "PadSpec",
    "PatchSoilField",
    "PenetrationEvent",
    "PenetrationRecorder",
    "RunResult",
    "Scenario",
    "SimulationError",
    "SoilLayer",
    "SoilPatch",
    "SoilProfile",
    "SpikeGeometry",
    "Terrain",
    "Trip",
    "VehicleSpec",
    "VehicleStuck",
    "VolumeAudit",
    "anchoring_slip",
    "anchoring_work",
    "conventional_drawbar_per_mass",
    "crust_breaks",
    "derated_pull_weight_ratio",
    "describe_plan",
    "estimate_energy",
    "execute_plan",
    "flip_margin",
    "lift_force",
    "load_events",
    "load_scenario",
    "penetration_trace",
    "plan_pad_mission",
    "predict_peak_draft",
    "pull_weight_ratio",
    "rasterize_events",
    "ripper_downforce",
    "run_scenario",
    "tractive_efficiency",
    "traverse_check",
    "validate_plan",
]
