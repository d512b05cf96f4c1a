"""Landing pad mission planning and execution.

A circular pad is excavated in radial lanes.  One claim pass over the
pad window gives each cell to the first lane whose wedge holds it; the
lane loads, the claim map and the trips all come from that pass, so the
sum of lane volumes is exactly the pad volume and no cell is cut twice.
Lanes are worked outermost strip first: the machine backs to the
inner end of a strip, cuts outward along the ray with the blade limited
to the strip's claimed cells, pushes the prism past the rim, and dumps
it on a berm ring staged over several radii so no single pile grows tall
enough to avalanche back onto the pad.  Deep pads are taken in equal
lifts sized to the blade's single-pass cut.

The full depth is reached in lifts, every trip is packed to the blade's
carry capacity from the claim map, and the machine turns in place at a
hub near the pad center between lanes.

A plan keeps its trips as numpy columns, one entry per trip, and each
trip's cells as a range of the planner's lane-sorted cell arrays; the
trips of one lane group share that range in every lift.  Listing,
pricing and validating a plan read only the columns.  The `Trip` rows,
with one frozenset of (i, j) cells per group, are built the first time
a caller reads `MissionPlan.trips`, as executing the plan does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .earthworks import SWELL_FACTOR, Terrain, check_grid_size
from .errors import SimulationError
from .locomotion import Machine, VehicleSpec, ordered_sum, price_steps
from .sensing import PenetrationRecorder
from .soils import Environment, SoilField, SoilProfile, crust_breaks
from .traction import anchoring_slip, anchoring_work

# Pads shallower than this fail to trap engine exhaust recirculation and
# deeper ones waste mission energy for no blast benefit.
MIN_PAD_DEPTH = 0.30
MAX_PAD_DEPTH = 0.50

# Width given up on each lane so small lateral drift from in-place turns
# never lets a lane edge escape the blade.
LANE_ALIGNMENT_MARGIN = 1.0
LANE_HEADING_TOL_DEG = 0.02
CLAIM_MARGIN = 1e-6  # lanes an arc end clears; see _claim_lanes


@dataclass(frozen=True)
class PadSpec:
    """What to build, the berm layout, and the operating caps.

    Spoil is dumped on a retreating line along each lane ray: the first
    trip of a lane carries to the outermost dump spot and every later
    trip stops one `berm_ring_spacing` short of the previous one, so no
    pile is ever climbed or ploughed through and the spoil settles into
    concentric berm rings starting `berm_setback` beyond the rim.
    """

    radius: float = 20.0
    depth: float = 0.40
    cell_size: float = 0.25
    berm_setback: float = 4.0
    berm_ring_spacing: float = 2.0
    hub_radius: float = 2.0
    max_push_distance: float = 60.0
    force_depth_override: bool = False

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError("pad radius must be non-negative")
        if self.depth <= 0.0:
            raise ValueError("pad depth must be positive")
        if self.cell_size <= 0.0:
            raise ValueError("cell size must be positive")
        if self.berm_setback <= 0.0:
            raise ValueError("berm setback must be positive")
        if self.berm_ring_spacing <= 0.0:
            raise ValueError("berm ring spacing must be positive")
        if self.max_push_distance <= 0.0:
            raise ValueError("push distance cap must be positive")
        if not (MIN_PAD_DEPTH <= self.depth <= MAX_PAD_DEPTH
                or self.force_depth_override):
            raise ValueError(
                f"pad depth {self.depth} m is outside the {MIN_PAD_DEPTH}-"
                f"{MAX_PAD_DEPTH} m band that keeps exhaust scour contained "
                "at sane cost; set force_depth_override to plan it anyway")


@dataclass(frozen=True)
class Trip:
    """One cut-carry-dump pass along a lane.

    The trips that cut the same cells in successive lifts share one
    `cells` frozenset of (i, j) grid cells.
    """

    lane: int
    lift: int
    seq: int  # order within the lane
    azimuth_deg: float
    start_r: float
    deposit_r: float
    target_elevation: float
    cells: frozenset[tuple[int, int]]
    volume_loose: float  # m^3 the blade will carry
    r_in: float  # radius of the innermost cell center
    r_out: float  # radius of the outermost cell center


@dataclass
class MissionPlan:
    """A laid-out pad mission.

    The trips are columns named as `Trip` fields, one entry per trip in
    run order: by lane, then lift, then cell group.  Trip n cuts the
    cells `rows[k]`, `cols[k]` for k in `cell_start[n]:cell_stop[n]`.
    """

    pad: PadSpec
    vehicle: VehicleSpec
    n_lanes: int
    n_lifts: int
    lift_depth: float
    shape: tuple[int, int]
    origin: tuple[float, float]
    claims: np.ndarray  # lane id per cell, -1 outside the pad
    rows: np.ndarray  # claimed cells by lane, each lane's outermost first
    cols: np.ndarray
    lane: np.ndarray
    lift: np.ndarray
    seq: np.ndarray
    start_r: np.ndarray
    deposit_r: np.ndarray
    target_elevation: np.ndarray
    volume_loose: np.ndarray
    r_in: np.ndarray
    r_out: np.ndarray
    cell_start: np.ndarray
    cell_stop: np.ndarray
    planned_bank_volume: float
    energy_budget: float = 0.0

    def lane_azimuth_deg(self, lane: int) -> float:
        return 360.0 * lane / self.n_lanes

    @cached_property
    def trips(self) -> list[Trip]:
        """The trips as `Trip` rows, built from the columns on first read."""
        rows, cols = self.rows.tolist(), self.cols.tolist()
        groups: dict[int, frozenset[tuple[int, int]]] = {}
        trips = []
        for (lane, lift, seq, start_r, deposit_r, target, volume, r_in, r_out,
             s, e) in zip(*(column.tolist() for column in (
                 self.lane, self.lift, self.seq, self.start_r, self.deposit_r,
                 self.target_elevation, self.volume_loose, self.r_in,
                 self.r_out, self.cell_start, self.cell_stop))):
            if s not in groups:
                groups[s] = frozenset(zip(rows[s:e], cols[s:e]))
            trips.append(Trip(lane, lift, seq, self.lane_azimuth_deg(lane),
                              start_r, deposit_r, target, groups[s], volume,
                              r_in, r_out))
        return trips


@dataclass
class MissionResult:
    plan: MissionPlan
    terrain: Terrain
    machine: Machine
    excavated_bank: float
    audit_residual: float
    trips_run: int
    energy: dict[str, float]


def _claim_lanes(local_half: int, cell_size: float, radius: float,
                 n_lanes: int, lane_width: float,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign every pad cell to a lane in one pass over the pad window,
    the `2*local_half` square of cells around the center: the first lane
    whose wedge holds the cell center wins, so claims partition the pad
    exactly.  Returns the window row, column and lane of each pad cell.

    A wedge is the half-strip of half-width h = lane_width / 2 along the
    lane's azimuth, so it holds a cell at radius r > h only if that
    azimuth lies within asin(h / r) of the cell's bearing.  In lanes, a
    cell with r > 2h (an arc under 30 degrees on each side) and bearing b
    in [0, n_lanes) is held by the lanes in [b - s, b + s], the lowest
    being ceil(b - s).  That lane is taken by arithmetic when the low end
    is more than `CLAIM_MARGIN` from a whole lane, the lane is more than
    the margin below the high end, and the arc clears the lane-0 seam by
    the margin at both ends.  The 1e-6 lane margin is a sideways offset
    of over 8e-7 lane_width^2 / radius at the cell; the bearing, the arc,
    the lane azimuths and the wedge's products round by a few ulp of the
    angle or of r, and with 0.5 m lanes on a 25 m pad the margin is over
    1e5 times that.  Every other such cell is tested with the wedge
    against the lanes of its arc, widened by one lane each side and
    wrapped past n_lanes - 1, and the lowest lane that holds it wins.
    Cells with r <= 2h are tested against every lane."""
    coord = -local_half * cell_size \
        + (np.arange(2 * local_half) + 0.5) * cell_size
    R = np.hypot(coord[np.newaxis, :], coord[:, np.newaxis])
    ii, jj = np.nonzero(R <= radius)
    X, Y, R = coord[jj], coord[ii], R[ii, jj]
    # The scalar math.cos and math.sin the claims have always used; numpy's
    # vectorised versions are not bound to round the same way.
    azimuths = [2.0 * math.pi * lane / n_lanes for lane in range(n_lanes)]
    DX = np.array([math.cos(az) for az in azimuths])
    DY = np.array([math.sin(az) for az in azimuths])

    def wedge(x, y, dx, dy):
        along = x * dx + y * dy
        perp = -x * dy + y * dx
        return (along >= 0.0) & (np.abs(perp) <= 0.5 * lane_width)

    lanes = np.full(len(ii), n_lanes, dtype=np.intp)
    near = np.flatnonzero(R <= lane_width)
    held = wedge(X[near, np.newaxis], Y[near, np.newaxis], DX, DY)
    lanes[near] = np.where(held.any(axis=1), held.argmax(axis=1), n_lanes)

    far = np.flatnonzero(R > lane_width)
    per_radian = n_lanes / (2.0 * math.pi)
    bearing = np.arctan2(Y[far], X[far]) * per_radian
    bearing[bearing < 0.0] += n_lanes
    spread = np.arcsin(0.5 * lane_width / R[far]) * per_radian
    low, high = bearing - spread, bearing + spread
    first = np.ceil(low)
    sure = (np.abs(low - np.rint(low)) > CLAIM_MARGIN) \
        & (first < high - CLAIM_MARGIN) \
        & (low > CLAIM_MARGIN) & (high < n_lanes - CLAIM_MARGIN)
    lanes[far[sure]] = first[sure]

    rest = far[~sure]
    first = first[~sure].astype(np.intp) - 1
    count = np.floor(high[~sure]).astype(np.intp) + 2 - first
    x, y, best = X[rest], Y[rest], np.full(len(rest), n_lanes, dtype=np.intp)
    for k in range(int(count.max(initial=0))):
        lane = (first + k) % n_lanes
        held = wedge(x, y, DX[lane], DY[lane]) & (k < count)
        np.minimum(best, np.where(held, lane, n_lanes), out=best)
    lanes[rest] = best
    if np.any(lanes == n_lanes):
        raise SimulationError("lane claiming left pad cells unowned")
    return ii, jj, lanes


def _check_grid_size(pad: PadSpec, what: str, n: int) -> None:
    """Refuse an `n` x `n` cell `what` before it is allocated."""
    check_grid_size(n, n, f"a {pad.radius:.9g} m pad at {pad.cell_size:.9g} m "
                    f"cells needs a {n} x {n} cell {what}")


def plan_pad_mission(
    pad: PadSpec,
    vehicle: VehicleSpec,
    env: Environment,
    soil: SoilProfile,
) -> MissionPlan:
    """Lay out lanes, claims, and trips for a circular pad."""
    lane_pitch = vehicle.blade_width - LANE_ALIGNMENT_MARGIN
    if lane_pitch <= 0.0:
        raise ValueError("blade too narrow for the lane alignment margin")
    n_lanes = max(4, math.ceil(2.0 * math.pi * pad.radius / lane_pitch))
    lane_width = 2.0 * math.pi * pad.radius / n_lanes

    n_lifts = max(1, math.ceil(pad.depth / vehicle.blade_max_cut))
    lift_depth = pad.depth / n_lifts

    cell_area = pad.cell_size * pad.cell_size
    vol_per_cell = cell_area * lift_depth * SWELL_FACTOR  # loose
    cells_per_trip = max(1, math.floor(vehicle.blade_capacity / vol_per_cell))

    max_blade_reach = 0.5 * (vehicle.base_separation + vehicle.stroke_length) \
        + vehicle.blade_lead

    def start_r_of(r_in: float) -> float:
        """Where a trip whose innermost cell center is at `r_in` starts."""
        return r_in - pad.cell_size - max_blade_reach - 0.3

    # The cell nearest the center lies under one cell from it, so the
    # trip that cuts it starts behind start_r_of(cell_size) and dumps at
    # the berm setback or beyond.  A cap that push meets binds before
    # the claim pass is paid for.
    least_push = pad.radius + pad.berm_setback - start_r_of(pad.cell_size)
    if pad.radius >= pad.cell_size and least_push >= pad.max_push_distance:
        raise ValueError(
            f"the trip nearest the pad center needs over a {least_push:.1f} m "
            f"push; the {pad.max_push_distance:.9g} m push cap binds at this "
            "pad radius and berm layout")

    # One claim pass over the pad window gives the per-lane cell loads,
    # which size the grid, and then the claims on that grid.
    local_half = math.ceil((pad.radius + pad.cell_size) / pad.cell_size)
    _check_grid_size(pad, "claim window", 2 * local_half)
    ii, jj, lanes = _claim_lanes(local_half, pad.cell_size, pad.radius,
                                 n_lanes, lane_width)
    lane_cells = np.bincount(lanes, minlength=n_lanes)
    lane_groups = -(-lane_cells // cells_per_trip)
    lane_trips = n_lifts * lane_groups

    deposit_r_max = pad.radius + pad.berm_setback \
        + pad.berm_ring_spacing * max(0, int(lane_trips.max()) - 1)
    half_extent = deposit_r_max + max_blade_reach + 6.0
    cells_half = math.ceil(half_extent / pad.cell_size)
    n_cells = 2 * cells_half
    _check_grid_size(pad, "grid", n_cells)
    origin = (-cells_half * pad.cell_size, -cells_half * pad.cell_size)
    shape = (n_cells, n_cells)

    ii += cells_half - local_half
    jj += cells_half - local_half
    claims = np.full(shape, -1, dtype=np.int32)
    claims[ii, jj] = lanes
    # Radii from the full grid's own cell-center expression.
    R = np.hypot(origin[0] + (jj + 0.5) * pad.cell_size,
                 origin[1] + (ii + 0.5) * pad.cell_size)
    # Each lane's cells outermost first; the sorts are stable and the cells
    # come in row-major order, so ties go by row then column.  Lane keys of
    # 16 bits or fewer sort by radix.
    order = np.argsort(-R, kind="stable")
    order = order[np.argsort(lanes[order].astype(np.min_scalar_type(n_lanes)), kind="stable")]
    rows, cols, radii = ii[order], jj[order], R[order]

    # A lane's cells are cut in groups of cells_per_trip, the same groups
    # in every lift; its trips run lift by lift and group by group.
    lane = np.repeat(np.arange(n_lanes), lane_trips)
    seq = np.arange(len(lane)) - (np.cumsum(lane_trips) - lane_trips)[lane]
    lift, group = np.divmod(seq, lane_groups[lane])
    lane_end = np.cumsum(lane_cells)
    cell_start = (lane_end - lane_cells)[lane] + group * cells_per_trip
    cell_stop = np.minimum(cell_start + cells_per_trip, lane_end[lane])
    r_in = radii[cell_stop - 1]
    start_r = start_r_of(r_in)
    # retreating dump line: later trips stop short of all earlier piles
    # on their lane
    deposit_r = pad.radius + pad.berm_setback \
        + pad.berm_ring_spacing * (lane_trips[lane] - 1 - seq)
    volume = (cell_stop - cell_start) * vol_per_cell

    push = deposit_r - start_r
    over = np.flatnonzero(push > pad.max_push_distance)
    if len(over):
        n = over[0]
        raise ValueError(
            f"lane {lane[n]} lift {lift[n]} needs a {push[n]:.1f} m push; "
            f"the {pad.max_push_distance:.9g} m push cap binds at this "
            "pad radius and berm layout")

    plan = MissionPlan(
        pad=pad, vehicle=vehicle,
        n_lanes=n_lanes, n_lifts=n_lifts, lift_depth=lift_depth,
        shape=shape, origin=origin, claims=claims, rows=rows, cols=cols,
        lane=lane, lift=lift, seq=seq, start_r=start_r, deposit_r=deposit_r,
        target_elevation=-lift_depth * (lift + 1), volume_loose=volume,
        r_in=r_in, r_out=radii[cell_start],
        cell_start=cell_start, cell_stop=cell_stop,
        planned_bank_volume=ordered_sum(volume / SWELL_FACTOR),
    )
    plan.energy_budget = estimate_energy(plan, vehicle, env, soil)
    return plan


def estimate_energy(
    plan: MissionPlan,
    vehicle: VehicleSpec,
    env: Environment,
    soil: SoilProfile,
) -> float:
    """Predicted mission energy (J) from the machine's own force terms.

    Walks every trip's push leg in closed form instead of stepping the
    terrain.  The prism ramps from empty to the trip's full load across
    the cut span (taken from the claimed cell radii), then rides at full
    load to the dump spot, so drag is charged at half weight over the
    cut and full weight over the carry.  Face work is cutting resistance,
    read at the lift's cut thickness as the blade reads it, times bank
    volume; the rim climb lifts machine plus load out of the pit, and
    anchoring plus its prepaid extraction are charged per half-cycle over
    the loaded span at that span's mean draft.  Return legs, hub
    approaches and lane-entry turns are not priced; the only charge off
    the push legs is skid friction swept through one half-rotation per
    lane change.  The budget therefore reads low, most on small pads.
    """
    g = env.gravity
    cell = plan.pad.cell_size
    r_lo = plan.r_in - 0.5 * cell
    r_hi = plan.r_out + 0.5 * cell
    face_work = vehicle.blade_cut_coeff * soil.resistance_at(plan.lift_depth) \
        * (plan.volume_loose / SWELL_FACTOR)
    drag_full = vehicle.prism_drag(plan.volume_loose, soil.loose_density, g)
    drag_work = drag_full * (0.5 * (r_hi - r_lo)
                             + np.maximum(0.0, plan.deposit_r - r_hi))
    climb = vehicle.loaded_weight(plan.volume_loose, soil.loose_density, g) \
        * -plan.target_elevation
    useful = face_work + drag_work + climb
    loaded_span = np.maximum(plan.deposit_r - r_lo, cell)
    mean_draft = useful / loaded_span
    slip = anchoring_slip(mean_draft, soil)
    stroke_gain = np.maximum(vehicle.stroke_length - 2.0 * slip, 1e-6)
    halves = np.ceil(2.0 * loaded_span / stroke_gain)
    anchoring = halves * anchoring_work(mean_draft, soil)
    total = ordered_sum(useful + anchoring * (1.0 + vehicle.extraction_ratio))
    lane_changes = int(np.count_nonzero(np.diff(plan.lane, prepend=-1)))
    pivot_friction = vehicle.skid_friction(soil, g)
    return total + lane_changes * pivot_friction * math.pi * vehicle.gauge


def predict_peak_draft(vehicle: VehicleSpec, target_elevation: float,
                       volume_loose: float, env: Environment,
                       soil: SoilProfile) -> float:
    """Worst draft a trip carrying `volume_loose` m^3 down to
    `target_elevation` should see, as `price_steps` prices it: a full-width
    cut at the per-pass thickness limit and resistance, full prism drag,
    and the climb over the pit rim across the machine's support footprint."""
    face = vehicle.blade_cut_coeff * vehicle.blade_width * vehicle.blade_max_cut \
        * soil.resistance_at(vehicle.blade_max_cut)
    return price_steps(-target_elevation, soil.loose_density, None, face, None,
                       volume_loose, 0.0, vehicle, env.gravity, None)[0]


def validate_plan(
    plan: MissionPlan,
    env: Environment,
    soil: SoilProfile,
) -> list[str]:
    """Feasibility findings for a plan; empty means clear to execute.

    Checks every trip against the push-distance cap, blade capacity,
    and anchoring capacity and flip stability at the predicted peak
    draft, and the crust against the spike press.  Findings are data
    for the operator, not errors.
    """
    vehicle = plan.vehicle
    violations: list[str] = []

    if soil.duricrust is not None:
        press = vehicle.crust_press(env.gravity)
        if not crust_breaks(soil.duricrust, press, vehicle.spike.tip_area):
            violations.append(
                f"duricrust at {soil.duricrust.strength:.9g} Pa resists the "
                f"{press:.9g} N spike press; spikes cannot seat")

    cap = plan.pad.max_push_distance
    push = plan.deposit_r - plan.start_r
    long_push = push > cap + 1e-9
    heaped = plan.volume_loose > vehicle.blade_capacity + 1e-9
    # The peak draft depends only on the lift and the load: one complex
    # key, target + 1j * volume, per distinct load.
    loads, load_of = np.unique(plan.target_elevation + 1j * plan.volume_loose,
                               return_inverse=True)
    load_findings: dict[int, str] = {}
    for k, load in enumerate(loads.tolist()):
        draft = predict_peak_draft(vehicle, load.real, load.imag, env, soil)
        seated = vehicle.seat(draft, soil, len(vehicle.spike_offsets))
        if seated is None:
            load_findings[k] = (f"predicted draft {draft:.9g} N exceeds spike "
                                "holding capacity at full seating depth")
        elif vehicle.flips(draft, seated[2], env.gravity, False):
            load_findings[k] = (f"predicted draft {draft:.9g} N lifts the "
                                "machine at the seated thrust angle; flip risk")
    flagged = long_push | heaped | np.isin(load_of, list(load_findings))
    for n in np.flatnonzero(flagged).tolist():
        if long_push[n]:
            violations.append(f"trip {n}: push distance {push[n]:.9g} m "
                              f"exceeds the {cap:.9g} m cap")
        if heaped[n]:
            violations.append(
                f"trip {n}: planned prism {plan.volume_loose[n]:.9g} m3 "
                f"exceeds blade capacity {vehicle.blade_capacity:.9g} m3")
        if load_of[n] in load_findings:
            violations.append(f"trip {n}: {load_findings[load_of[n]]}")
    return violations


def describe_plan(plan: MissionPlan) -> str:
    """Deterministic human-readable plan listing."""
    pad = plan.pad
    lines = [
        "pad mission plan",
        f"radius {pad.radius:.9g} m, depth {pad.depth:.9g} m, "
        f"cell {pad.cell_size:.9g} m",
        f"lanes {plan.n_lanes}, lifts {plan.n_lifts} of "
        f"{plan.lift_depth:.9g} m, trips {len(plan.lane)}",
        f"planned bank volume {plan.planned_bank_volume:.9g} m3",
        f"energy budget {plan.energy_budget:.9g} J",
        "",
        "trip,lane,lift,azimuth_deg,start_r,deposit_r,target_z,cells,volume_loose",
    ]
    columns = (plan.lane, plan.lift, plan.lane_azimuth_deg(plan.lane),
               plan.start_r, plan.deposit_r, plan.target_elevation,
               plan.cell_stop - plan.cell_start, plan.volume_loose)
    lines.extend("%d,%d,%d,%.9g,%.9g,%.9g,%.9g,%d,%.9g" % row for row in zip(
        range(len(plan.lane)), *(column.tolist() for column in columns)))
    return "\n".join(lines) + "\n"


def execute_plan(
    plan: MissionPlan,
    env: Environment,
    soil: SoilProfile | SoilField,
    recorder: PenetrationRecorder | None = None,
) -> MissionResult:
    """Run the planned mission on a fresh flat terrain."""
    terrain = Terrain(plan.shape, cell_size=plan.pad.cell_size,
                      origin=plan.origin, soil=soil)
    if recorder is None:
        recorder = PenetrationRecorder(terrain.soil)
    machine = Machine(plan.vehicle, terrain, env,
                      heading_deg=plan.lane_azimuth_deg(0), recorder=recorder)
    lane_margin = 0.5 * (plan.vehicle.blade_width
                         - 2.0 * math.pi * plan.pad.radius / plan.n_lanes)

    current_lane = 0
    trips_run = 0
    for trip in plan.trips:
        az = math.radians(trip.azimuth_deg)
        dx, dy = math.cos(az), math.sin(az)
        if trip.lane != current_lane:
            # Retreat to the hub, aim straight at an entry point on the
            # new ray, drive that leg, then square up on the ray.  The
            # entry point stays several metres ahead of the hub even when
            # the trip itself starts behind it, so the leg is never
            # degenerate and the squaring turn stays small; reverse
            # positioning below covers the remaining distance.  Turning
            # translates the center, so the aim is recomputed until it
            # survives its own turn, and the whole pass repeats if the
            # squaring pivot still walked the machine off the claim.
            _move_to_r(machine, plan.lane_azimuth_deg(current_lane), plan.pad.hub_radius)
            r_entry = max(trip.start_r, plan.pad.hub_radius + 4.0)
            tol = math.radians(LANE_HEADING_TOL_DEG)
            guard = max(lane_margin - plan.pad.cell_size, 0.0)
            offset = 0.0
            for _ in range(3):
                ex = r_entry * dx
                ey = r_entry * dy
                for _ in range(4):
                    if math.hypot(ex - machine.x, ey - machine.y) <= 1e-6:
                        break
                    bearing = math.atan2(ey - machine.y, ex - machine.x)
                    if abs(Machine._wrap(bearing - machine.heading)) <= tol:
                        break
                    machine.turn_to(math.degrees(bearing),
                                    tol_deg=LANE_HEADING_TOL_DEG)
                leg = math.hypot(ex - machine.x, ey - machine.y)
                if leg > 1e-6:
                    machine.advance(leg)
                machine.turn_to(trip.azimuth_deg, tol_deg=LANE_HEADING_TOL_DEG)
                offset = -machine.x * dy + machine.y * dx
                if abs(offset) <= guard:
                    break
                r_entry = machine.x * dx + machine.y * dy + 6.0
            else:
                raise SimulationError(
                    f"lane {trip.lane}: lateral drift {offset:.3f} m exceeds "
                    "the claim margin")
            current_lane = trip.lane
        _move_to_r(machine, trip.azimuth_deg, trip.start_r)
        machine.set_blade(trip.target_elevation, mask=trip.cells)
        machine.advance(trip.deposit_r - trip.start_r)
        machine.set_blade(None)
        machine.dump_prism()
        trips_run += 1

    audit = terrain.audit()
    return MissionResult(
        plan=plan,
        terrain=terrain,
        machine=machine,
        excavated_bank=audit.bank_removed,
        audit_residual=audit.residual,
        trips_run=trips_run,
        energy=machine.energy_totals(),
    )


def _move_to_r(machine: Machine, azimuth_deg: float, r_target: float) -> None:
    """Drive forward or back along the ray from the pad center at
    `azimuth_deg` until the machine is `r_target` out along it."""
    az = math.radians(azimuth_deg)
    dx, dy = math.cos(az), math.sin(az)
    r_now = machine.x * dx + machine.y * dy
    delta = r_target - r_now
    if delta > 1e-9:
        machine.advance(delta)
    elif delta < -1e-9:
        machine.advance(-delta, reverse=True)
