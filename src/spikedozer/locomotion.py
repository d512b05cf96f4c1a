"""Push-pull locomotion on interlocking ground spikes.

The machine is two frames sharing one prismatic axis.  Rams push the
frames apart (expansion) or pull them together (contraction).  Raked
spikes on each frame wedge into the ground when their frame is shoved
against the rake, so one frame anchors while the other slides:

    expansion    rear frame seats and holds, front frame advances
    contraction  front frame seats and holds, rear frame advances

Seating is not free.  The seating frame slips backward while its spikes
ram in against a draft that grows linearly from zero to the stroke load,
which costs both stroke (the slip) and energy (the anchoring work).
Unseating costs a configured fraction of the seating energy and every
seated spike comes out exactly once, so that charge is carried in the
same half-cycle that seats it.  Those terms against the drawbar work
delivered define tractive efficiency.

Turning anchors a single spike on one side as a pin and strokes the axis
so the free frame swings around it.  Pose updates during a turn are
reconstructed from the pin position, so the anchor point cannot drift.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .earthworks import SWELL_FACTOR, Terrain, bilinear, ripper_draft
from .errors import FlipInstability, SimulationError, VehicleStuck
from .sensing import PenetrationRecorder
from .soils import Environment, SoilProfile, crust_breaks
from .traction import SpikeGeometry, anchoring_slip, anchoring_work, ripper_downforce

STEP = 0.01  # m, quasi-static integration increment
TURN_CLOSE = 1e-9  # rad, heading error a turn closes to before it stops
LOADED_SLOPE_LIMIT_DEG = 20.0
UNLOADED_TILT_LIMIT_DEG = 40.0

# Drawbar pull per unit mass of a conventional tracked machine, used as
# the comparison baseline: its traction follows ground pressure, so low
# gravity cuts the pull ratio on top of cutting the weight.
CONVENTIONAL_PULL_RATIO = {"earth": 0.4, "moon": 0.21}


def ordered_sum(values) -> float:
    """Sum `values` left to right from 0.0, as the builtin `sum` did
    before Python 3.12 made it compensated, so artifacts keep their bits
    on every supported Python."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def conventional_drawbar_per_mass(env: Environment) -> float:
    """Drawbar pull per kilogram for a tracked comparison vehicle (N/kg)."""
    try:
        ratio = CONVENTIONAL_PULL_RATIO[env.name]
    except KeyError:
        raise ValueError(f"no tracked-vehicle baseline for {env.name!r}")
    return ratio * env.gravity


def traverse_check(slope_deg: float, loaded: bool, repose_angle_deg: float) -> bool:
    """Static go/no-go for holding a grade.

    Loaded, the blade load caps the climb well below the machine's own
    limit.  Unloaded, the spikes anchor in material that is itself stable
    up to its repose angle, so a soil at repose can be climbed even past
    the bare chassis tilt limit.
    """
    if not 0.0 <= slope_deg < 90.0:
        raise ValueError("slope must be in [0, 90) degrees")
    if not 0.0 < repose_angle_deg < 90.0:
        raise ValueError("repose angle must be in (0, 90) degrees")
    if loaded:
        limit = min(LOADED_SLOPE_LIMIT_DEG, repose_angle_deg)
    else:
        limit = max(UNLOADED_TILT_LIMIT_DEG, repose_angle_deg)
    return slope_deg <= limit + 1e-12


@dataclass(frozen=True)
class VehicleSpec:
    """Geometry, masses, and tool limits of one machine.

    spike_offsets       lateral spike positions on each frame (m, +left)
    blade_capacity      most spoil the blade can push (m^3, loose)
    blade_max_cut       deepest single-pass cut (m)
    extraction_ratio    energy to unseat a spike as a fraction of the
                        energy that seated it
    spike_press_mass    mass equivalent of the seating press (kg); press
                        force is this times local gravity
    crust_press_share   fraction of vehicle weight the hold-down actuator
                        can add on top of the press when crust resists
    """

    name: str
    mass: float
    stroke_length: float
    base_separation: float
    spike: SpikeGeometry
    spike_offsets: tuple[float, ...] = (0.4, -0.4)
    blade_width: float = 1.0
    blade_max_cut: float = 0.10
    blade_capacity: float = 0.5
    blade_lead: float = 0.5
    ripper_width: float = 0.5
    ripper_rake_deg: float = 35.0
    ripper_lead: float = 0.5
    extraction_ratio: float = 0.5
    spike_press_mass: float = 7.0 / 9.81
    crust_press_share: float = 0.5
    has_crust_actuator: bool = True
    heading_tolerance_deg: float = 2.0
    # cutting coefficients scale penetration resistance down to a wide
    # shallow-cut face pressure; raw q is a narrow-probe value
    blade_cut_coeff: float = 0.01
    prism_friction: float = 0.8
    ripper_cut_coeff: float = 0.01

    def __post_init__(self) -> None:
        if self.mass <= 0.0:
            raise ValueError("vehicle mass must be positive")
        if self.stroke_length <= 0.0:
            raise ValueError("stroke length must be positive")
        if self.base_separation <= 0.0:
            raise ValueError("frame separation must be positive")
        if not self.spike_offsets:
            raise ValueError("each frame needs at least one spike")
        if self.blade_width <= 0.0 or self.ripper_width <= 0.0:
            raise ValueError("tool widths must be positive")
        if self.blade_max_cut <= 0.0 or self.blade_capacity <= 0.0:
            raise ValueError("blade cut depth and capacity must be positive")
        if not 0.0 <= self.extraction_ratio <= 1.0:
            raise ValueError("extraction ratio must be in [0, 1]")
        if self.spike_press_mass <= 0.0:
            raise ValueError("press mass must be positive")
        if not 0.0 <= self.crust_press_share <= 1.0:
            raise ValueError("actuator weight share must be in [0, 1]")
        if not 0.0 <= self.ripper_rake_deg < 90.0:
            raise ValueError("ripper rake must be in [0, 90) degrees")
        if not 0.0 < self.heading_tolerance_deg <= 10.0:
            raise ValueError("heading tolerance must be in (0, 10] degrees")
        if min(self.blade_cut_coeff, self.ripper_cut_coeff,
               self.prism_friction) < 0.0:
            raise ValueError("cutting coefficients and prism friction must be "
                             "non-negative")

    def spike_point(self, x: float, y: float, unit: tuple[float, float],
                    separation: float, frame: str, offset: float,
                    depth: float) -> tuple[float, float]:
        """World position of a spike tip with the center at (x, y), heading
        along `unit` and the frames `separation` apart: arm reach behind
        `frame`'s ref, `offset` to the left of the axis."""
        ux, uy = unit
        sign = 0.5 if frame == "front" else -0.5
        fx, fy = x + sign * separation * ux, y + sign * separation * uy
        reach = self.spike.reach(depth)
        return (fx - reach * ux - offset * uy, fy - reach * uy + offset * ux)

    # The draft, skid friction and hold terms below are shared by the
    # simulator, the planner's energy budget and its validator.  Seated spikes
    # and their frame's skid friction hold a draft up to their sum; the frame
    # flips once draft * tan(beta) reaches its hold-down.

    @property
    def gauge(self) -> float:
        """Length of the support footprint the machine bridges (m)."""
        return self.base_separation + 0.5 * self.stroke_length

    def loaded_weight(self, prism, density, g: float):
        """Weight of the machine plus `prism` m^3 of spoil at `density` (N).
        `prism` and `density` are floats or arrays.  An empty blade adds
        exactly nothing: at `prism` 0 this is `mass * g` to the bit."""
        return (self.mass + prism * density) * g

    def prism_drag(self, prism, density, g: float):
        """Ground drag of `prism` m^3 of spoil at `density` on the blade (N)."""
        return self.prism_friction * density * prism * g

    def skid_friction(self, profile: SoilProfile, g: float) -> float:
        """Draft a seated frame holds by skid friction on `profile`, on half the weight (N)."""
        return profile.surface_friction * 0.5 * (self.mass * g)

    def seat(self, force: float, profile: SoilProfile,
             n_spikes: int) -> tuple[float, float, float] | None:
        """Seat `n_spikes` spikes sharing `force` in `profile`: the
        shallowest depth that holds, the row's capacity there and the
        arm's tan(beta), as (depth, capacity, tan_beta).  None when even
        the full seating depth cannot hold."""
        depth = self.spike.depth_for_capacity(force / n_spikes, profile)
        if depth is None:
            return None
        return (depth, n_spikes * self.spike.holding_capacity(depth, profile),
                math.tan(self.spike.thrust_angle_rad(depth)))

    def hold_down(self, draft, g: float, ripping: bool):
        """Force holding a spike-anchored frame down against the drawbar
        lift (N): the machine's weight, plus the raked tine's downforce
        draft * tan(gamma) when ripping.  `draft` is a float or an array."""
        hold = self.mass * g
        if ripping:
            hold = hold + ripper_downforce(draft, self.ripper_rake_deg)
        return hold

    def flips(self, draft, tan_beta: float, g: float, ripping: bool):
        """Whether `draft` flips a frame whose spikes are seated at
        `tan_beta`: the lift draft * tan(beta) reaches the hold-down.
        `draft` is a float or an array."""
        return draft * tan_beta >= self.hold_down(draft, g, ripping)

    def crust_press(self, g: float) -> float:
        """Normal force a spike tip presses on intact crust (N): the
        seating press, plus the actuator's share of the weight if fitted."""
        press = self.spike_press_mass * g
        if self.has_crust_actuator:
            press += self.crust_press_share * (self.mass * g)
        return press


REFERENCE = VehicleSpec(
    name="reference",
    mass=1000.0,
    stroke_length=4.0,
    base_separation=0.6,
    spike=SpikeGeometry.from_thrust_angles(),
)

# Pad-building variant: wide blade, bigger prism, spike pairs sized for
# the heavier draft.
CONSTRUCTION = VehicleSpec(
    name="construction",
    mass=3000.0,
    stroke_length=4.0,
    base_separation=0.8,
    spike=SpikeGeometry.from_thrust_angles(bearing_width=0.05),
    spike_offsets=(1.0, -1.0),
    blade_width=3.0,
    blade_max_cut=0.25,
    blade_capacity=1.5,
    blade_lead=0.6,
    ripper_width=1.5,
    ripper_lead=0.6,
)

VEHICLES = {v.name: v for v in (REFERENCE, CONSTRUCTION)}


@dataclass
class AnchorState:
    """One frame's seated spikes: where, how deep, and what seating cost."""

    x: float
    y: float
    depth: float
    capacity: float
    stored_work: float
    by_friction: bool = False
    slipped: float = 0.0
    tan_beta: float = 0.0  # thrust angle at depth, cached for the flip check


@dataclass
class CycleRecord:
    """Log row for one half-cycle."""

    index: int
    mode: str  # expand | contract | turn-expand | turn-contract
    x: float
    y: float
    heading_deg: float
    free_advance: float
    center_advance: float
    draft_peak: float
    seat_depth: float
    slip: float
    useful_work: float
    anchoring_work: float
    extraction_work: float
    prism_volume: float
    spill_volume: float = 0.0  # m^3 pushed off the blade ends at capacity

    @property
    def total_work(self) -> float:
        return self.useful_work + self.anchoring_work + self.extraction_work

    @property
    def efficiency(self) -> float:
        total = self.total_work
        return self.useful_work / total if total > 0.0 else 1.0


RECORD_FIELDS = tuple(f.name for f in fields(CycleRecord))


@dataclass
class BladeSetting:
    """Grading mode: cut whatever stands above `target_elevation`, up to
    the per-pass limit, in the cells `cuts` marks.

    `cuts` is a boolean lookup by flat cell index i * cols + j, built
    once by `Machine.set_blade` from its mask (every cell without one),
    with one more entry, always False, where the -1 of a point off the
    map lands.  The stroke engine filters the cells under the blade
    through it before it works them, so no other cell is tested or
    visited."""

    target_elevation: float
    cuts: np.ndarray


def price_steps(rise, density, friction, face, rip, prism,
                extra_draft: float, spec: VehicleSpec, g: float,
                anchor: AnchorState | None):
    """Price straight steps: the draft of each and whether `anchor` holds it.

    Per-step inputs are arrays over a run of steps, or floats for one
    step, which stays scalar work; each step of a run comes out with the
    bits it has priced alone.  `rise` is the fore-minus-aft height
    difference, along the travel direction, of samples half a footprint
    either side of the center, so the rigid machine bridges single-cell
    steps; a step whose footprint leaves the map has a rise of 0, so it
    prices as level ground.  `density` is the loose density under the
    center and `friction` the seated frame's skid friction, which reacts
    draft in parallel with its spikes.  `face` (plus the prism's ground
    drag) and `rip` are the blade and tine forces, None for a raised
    tool.  `prism` is the blade load, per step or one float for all, and
    `extra_draft` the tow load.

    Returns (drafts, held, clears): the drafts (N, floored at 0); how many
    steps the anchor holds before the first it cannot, all of them with
    no anchor; and per step whether the draft clears the anchor's
    capacity, so its spikes must deepen or its sliding friction gives.
    A step the anchor cannot hold and whose draft does not clear it
    flips the machine.
    """
    one = isinstance(rise, float)
    gauge = spec.gauge
    if one:
        grade = rise / math.hypot(gauge, rise)
    else:
        hyp = np.full(rise.shape, gauge)  # hypot(gauge, 0) is gauge
        tilted = rise.nonzero()[0]
        hyp[tilted] = [math.hypot(gauge, d) for d in rise[tilted].tolist()]
        grade = rise / hyp
    total = extra_draft + spec.loaded_weight(prism, density, g) * grade
    if face is not None:
        total = total + (face + spec.prism_drag(prism, density, g))
    if rip is not None:
        total = total + rip
    drafts = (total if total > 0.0 else 0.0) if one else np.where(total > 0.0, total, 0.0)
    if anchor is None:
        return drafts, 1 if one else len(drafts), False
    if anchor.by_friction:
        clears = event = drafts > anchor.capacity
    else:
        clears = drafts > anchor.capacity + friction
        event = clears | spec.flips(drafts, anchor.tan_beta, g, rip is not None)
    if one:
        return drafts, int(not event), clears
    first = int(event.argmax())
    return drafts, first if event[first] else len(drafts), clears


class _StrokePath:
    """The steps left in a stroke, laid out ahead of the machine, and the
    tool work of each span of them.

    Between anchor slips the heading and the per-step pose increment are
    fixed, so the center, separation and travel before each remaining
    full `STEP` follow by running sums: the same additions, in the same
    order, as moving one step at a time.  `ds` holds the length of each
    step to be taken: the `n` full ones, then step `n` trimmed to the
    travel left, unless that travel is a rounding error.  The layout is
    one array of four running sums.  The fore and aft grade samples of
    every step are located once, as `footprint`, by one pass of
    `Terrain.bilinear_weights` over the stacked (x, y) x (fore, aft)
    sample array.  A step whose footprint leaves the map takes its fore
    sample's cells and weights for its aft one too, so its rise is
    exactly 0 and `price_steps` prices it as level ground.  The skid
    friction and loose density under the center are found once too, and
    `price_steps` takes them along with the heights.

    This is the one place that finds the cells the tools enter, each as
    its flat index i * cols + j, -1 off the map: `cells` holds the cell
    the working tool's edge reaches at the end of each step, and
    `crossings` the steps at which it enters a new one, where it may
    change the terrain and its load.  `blade_cells` gives the cells under
    the blade span at each crossing that the blade may cut; a blade
    crossing with none is dropped, as working it would change nothing.
    The path starts from the tools' last cell, and `settle` leaves it as
    the last cell of `cells` on the map up to its step, where there is
    one.  `stop` is the step that ends the
    path: step `n`, or an earlier step that would collide the frames and
    so raises; the machine takes it by moving itself, not by being
    placed.  `k` is the next step to take.  A slip shoves the seated
    frame and so lays the path again.

    `work` does the tool work of the span of steps `k`..`last` before they
    are priced, crossing by crossing in order, the machine placed before
    each one's step.  The span runs to the path's last step, or, while
    the blade works and the seated anchor can still slip, to the first
    crossing whose step, priced alone, that anchor does not hold: a slip
    lays the path again, and the blade work past it would be taken back.
    Ripping spans run to the end and take back what a slip invalidates,
    since a crossing of the tines loosens one cell.

    The steps see what they would see priced alone in the same order: a
    step reads the heights and the blade load left by the crossings
    before it, and the face and tine forces left by the crossings up to
    and including it.  `work` makes one forward pass that sets these as
    it reaches each step, reading a step's heights before its crossing is
    worked.  The tools' journal serves only `settle`, which takes back
    the work past any step through `states` and `crossed`.
    """

    def __init__(self, machine: Machine, move_frame: str, motion: float,
                 travelled: float, advance_total: float,
                 cutting: bool, ripping: bool):
        terrain, tools = machine.terrain, machine.tools
        ux, uy = machine._unit()
        bound = int((advance_total - travelled) / STEP) + 2
        signed = motion * STEP
        d_sep = signed if move_frame == "front" else -signed
        # travel, center and separation before each step, as running sums
        lay = np.empty((4, bound + 1))
        lay[:, 0] = travelled, machine.x, machine.y, machine.separation
        lay[:, 1:] = [[STEP], [0.5 * signed * ux], [0.5 * signed * uy], [d_sep]]
        lay.cumsum(axis=1, out=lay)
        ts = lay[0]
        n = int(np.count_nonzero(advance_total - ts >= STEP))
        self.machine, self.tools, self.cutting, self.ripping = machine, tools, cutting, ripping
        self.motion = motion
        self.travelled, self.xs, self.ys, self.seps = lay = lay[:, :n + 1]
        collide = (self.seps[1:] <= 0.0).nonzero()[0]
        self.stop = int(collide[0]) if collide.size else n
        self.ds = np.full(n + 1 if ts[n] < advance_total - 1e-12 else n, STEP)
        self.ds[n:] = advance_total - ts[n]
        self.crossings = []
        self.cells = None
        if cutting or ripping:
            # the working tool's edge at the end of each step
            taken = len(self.ds)
            px, py = machine._tool_point(cutting, self.xs[:taken], self.ys[:taken],
                                         self.seps[:taken])
            travel = motion * self.ds
            px, py = px + travel * ux, py + travel * uy
            self.cells = terrain.cells_of(px, py)
            on = (self.cells >= 0).nonzero()[0]
            seq = self.cells[on]
            prev = np.concatenate(([tools.last_cell], seq[:-1]))
            self.crossings = on[seq != prev].tolist()
            if cutting:
                bands = tools.blade_cells(px[self.crossings], py[self.crossings])
                self.blade_cells = {c: band for c, band in zip(self.crossings, bands) if band}
                self.crossings = list(self.blade_cells)
        # the fore and aft grade samples of each step, stacked as (x, y)
        hx, hy = machine._grade_offset()
        corners, t, inside = terrain.bilinear_weights(
            lay[1:3, None] + np.array((hx, -hx, hy, -hy)).reshape(2, 2, 1))
        if inside is not None:
            off = ~(inside[0] & inside[1])
            corners[:, 1, off], t[:, 1, off] = corners[:, 0, off], t[:, 0, off]
        self.footprint = corners, t
        # the soil under the machine center before each step: its skid
        # friction capacity, and the loose density of a prism carried on it
        profiles, at = terrain.soil.profiles_at(self.xs, self.ys)
        g = machine.env.gravity
        self.friction = np.array([machine.spec.skid_friction(p, g) for p in profiles])[at]
        self.density = np.array([p.loose_density for p in profiles])[at]
        self.k = 0

    def place(self, step: int) -> None:
        """Put the machine at its pose before `step`."""
        machine = self.machine
        machine.x = float(self.xs[step])
        machine.y = float(self.ys[step])
        machine.separation = float(self.seps[step])

    def work(self, may_slip: AnchorState | None) -> int:
        """Work the crossings of the span from step `k` and return its last
        step; `may_slip` is the seated anchor when the blade works and it
        can still slip.  This leaves the per-step inputs of `price`."""
        tools, cutting, k = self.tools, self.cutting, self.k
        terrain, (corners, t) = self.machine.terrain, self.footprint
        bank, loose = terrain.bank_floor, terrain.loose_depth
        tools.journal.clear()
        # the tool state as the span starts, then after each crossing
        self.states = [tools.snapshot()]
        self.crossed = []  # the crossings worked, from k
        last = min(self.stop, len(self.ds) - 1)
        n = last - k + 1
        # Per step, as the work reaches it: the surface at its grade
        # samples before its own crossing, the blade load before its cut,
        # and the face or tine force after it.  The face run restarts at a
        # cut and runs down by whole steps.
        surface = np.empty((4, 2, n))
        seen = k  # the first step whose surface is not yet read
        prism = np.full(n, tools.prism)
        force = np.full(n, tools.face_force if cutting else tools.rip_face)
        down = np.full(n, -STEP)
        down[0] = terrain.cell_size
        since_cut = down.cumsum()
        down[0] = tools.face_run
        run = down.cumsum()
        crossings = self.crossings
        for c in crossings[bisect_left(crossings, k):bisect_right(crossings, last)]:
            i, at = c - k, corners[..., seen:c + 1]
            surface[..., seen - k:i + 1] = bank.take(at) + loose.take(at)
            seen, gives = c + 1, False
            if cutting:
                self.place(c)
                if tools.enter_blade_cell(self.blade_cells[c]):
                    run[i:] = since_cut[:n - i]
                    if may_slip is not None:
                        fore, aft = bilinear(surface[..., i], *t[..., c])
                        gives = not self._holds(c, self.motion * float(fore - aft),
                                                float(prism[i]), may_slip)
                prism[i + 1:] = tools.prism
                force[i:] = tools.face_force
            else:
                tools.enter_ripper_cell(int(self.cells[c]))
                force[i:] = tools.rip_face
            self.crossed.append(i)
            self.states.append(tools.snapshot())
            if gives:
                last = c
                break
        self.last, n = last, last - k + 1
        at = corners[..., seen:last + 1]
        surface[..., seen - k:n] = bank.take(at) + loose.take(at)
        fore, aft = bilinear(surface[..., :n], *t[..., k:last + 1])
        self.rise = self.motion * (fore - aft)
        self.prism, self.face, self.rip, self.run = tools.prism, None, None, None
        if self.ripping:
            self.rip = np.where(self.cells[k:last + 1] >= 0, force[:n], 0.0)
        elif cutting:
            self.prism, self.run = prism[:n], run[:n]
            self.face = np.where(self.run > 0.0, force[:n], 0.0)
        return last

    def _holds(self, step: int, rise: float, prism: float, anchor: AnchorState) -> bool:
        """Whether `anchor` holds the step of a crossing that cut, priced
        alone: its grade and blade load before the cut, its face after."""
        machine = self.machine
        return bool(price_steps(
            rise, float(self.density[step]), float(self.friction[step]),
            self.tools.face_force, None, prism,
            machine.extra_draft, machine.spec, machine.env.gravity, anchor)[1])

    def price(self, i: int, anchor: AnchorState):
        """`price_steps` over steps `i`..`last` of the span, held by `anchor`."""
        machine, a, b = self.machine, i - self.k, self.last + 1
        return price_steps(
            self.rise[a:], self.density[i:b],
            self.friction[i:b], None if self.face is None else self.face[a:],
            None if self.rip is None else self.rip[a:],
            self.prism[a:] if self.cutting else self.prism, machine.extra_draft,
            machine.spec, machine.env.gravity, anchor)

    def settle(self, step: int) -> None:
        """Leave the tools as taking `step` leaves them: take back the work
        of the span's crossings after it, and set the face run and the
        last tool cell."""
        tools = self.tools
        tools.restore(self.states[bisect_right(self.crossed, step - self.k)])
        if self.run is not None:
            tools.face_run = float(self.run[step - self.k]) - float(self.ds[step])
        if self.cells is not None:
            on = np.flatnonzero(self.cells[:step + 1] >= 0)
            if on.size:
                tools.last_cell = int(self.cells[on[-1]])


class _ToolState(NamedTuple):
    """What a stroke's tools have left at one point of the stroke."""

    journal: int  # terrain writes journaled so far
    prism: float
    face_force: float
    rip_face: float
    carried_out: float  # the terrain's
    spill: float
    visited: int  # band cells the blade has visited


class _Tools:
    """The blade and the ripper tines: their settings, the spoil on the
    blade, and what they have done this stroke.

    A stroke resets the tools once, works them crossing by crossing, and
    takes work back with `snapshot` and `restore`; before each terrain
    write they journal the cell as (flat cell, bank, loose).  The tools
    ride on `machine`, whose pose places them, and hold it weakly, so
    that no cycle keeps a machine and its terrain alive.
    """

    def __init__(self, machine: Machine):
        spec, terrain = machine.spec, machine.terrain
        self.machine, self.spec, self.terrain = weakref.proxy(machine), spec, terrain
        self.blade: BladeSetting | None = None
        self.rip_depth = 0.0
        self.prism = 0.0  # m^3 loose, carried on the blade
        self.journal: list[tuple[int, float, float]] = []
        # blade width sampled finely enough that no covered cell is missed
        half_w = 0.5 * spec.blade_width
        n_samples = max(2, int(round(spec.blade_width / (0.5 * terrain.cell_size))) + 1)
        self.band_offsets = np.array(
            [-half_w + k * spec.blade_width / (n_samples - 1) for k in range(n_samples)])
        self.reset()

    def reset(self) -> None:
        """Start a stroke with nothing cut, ripped, spilled or entered."""
        # the blade's face force from its last cut and the travel left over
        # which it acts, which `_StrokePath` runs down; the tines' force
        self.face_force = 0.0
        self.face_run = 0.0
        self.rip_face = 0.0
        # the band cells the blade has visited, a dict used as an ordered
        # set so that taking back tool work can pop the newest
        self.visited: dict[int, None] = {}
        self.spill = 0.0  # m^3 cast off the blade ends
        # flat index of the cell the working tool last entered, kept by
        # `_StrokePath`; `Machine._phase` never works the blade and the
        # ripper in one half-cycle
        self.last_cell = -1

    def blade_cells(self, px: np.ndarray, py: np.ndarray) -> list[list[int]]:
        """For each blade center (px, py): the flat cells under the blade
        span that the blade setting lets it cut, in order along the span."""
        ux, uy = self.machine._unit()
        band = self.band_offsets
        cells = self.terrain.cells_of(px[:, None] - band * uy, py[:, None] + band * ux)
        cuts = self.blade.cuts[cells]
        kept = cells[cuts].tolist()
        ends = cuts.sum(axis=1).cumsum().tolist()
        return [kept[a:b] for a, b in zip([0] + ends, ends)]

    def enter_blade_cell(self, band: list[int]) -> bool:
        """Cut the flat `band` cells under the blade as its center enters
        a new cell.  True when anything was cut.

        Every not yet visited cell under the blade span takes one blade
        pass, down to the target and at most the cut limit, in one loop
        that reads each cell by its flat index.  Its cut work is cutting
        resistance times material volume, and material beyond the prism
        capacity is cast off the blade ends.  The work is spread over one
        cell length of travel as a constant face force, which for a
        full-width uniform cut reduces to

            F = k_b * w * (d_loose * q_loose + d_bank * q_bank)
        """
        terrain, spec, visited = self.terrain, self.spec, self.visited
        bank, loose, area = terrain.bank_floor, terrain.loose_depth, terrain.cell_area
        target = self.blade.target_elevation
        work = 0.0
        for cell in band:
            if cell in visited:
                continue
            visited[cell] = None
            bank_d, loose_d = bank.item(cell), loose.item(cell)
            thickness = bank_d + loose_d - target
            if thickness <= 1e-12:
                continue
            self.journal.append((cell, bank_d, loose_d))
            loose_m3, bank_m3 = terrain.excavate(cell, min(thickness, spec.blade_max_cut))
            self.prism += loose_m3 + bank_m3 * SWELL_FACTOR
            excess = self.prism - spec.blade_capacity
            if excess > 1e-12:
                self.prism -= excess
                self._spill(excess, cell)
            loose_cut, bank_cut = loose_m3 / area, bank_m3 / area
            profile = terrain.profile_at_cell(cell)
            q_bank = profile.resistance_at(bank_cut) if bank_cut > 0.0 else 0.0
            work += spec.blade_cut_coeff * area * (
                loose_cut * profile.loose_resistance + bank_cut * q_bank)
        if work <= 0.0:
            return False
        self.face_force = work / terrain.cell_size
        return True

    def _spill(self, volume: float, fallback_cell: int) -> None:
        """Cast overflow spoil half to each cell just beyond the blade ends,
        or to the flat `fallback_cell` where that is off the map."""
        terrain = self.terrain
        bx, by = self.machine.blade_point()
        ux, uy = self.machine._unit()
        off = (0.5 * self.spec.blade_width + 0.5 * terrain.cell_size) * np.array((1.0, -1.0))
        for cell in terrain.cells_of(bx - off * uy, by + off * ux).tolist():
            cell = cell if cell >= 0 else fallback_cell  # keep the volume on the map
            self._note(cell)
            terrain.deposit(cell, 0.5 * volume)
        self.spill += volume

    def _note(self, cell: int) -> None:
        """Journal the flat `cell` as it stands before the tools write it."""
        terrain = self.terrain
        self.journal.append((cell, terrain.bank_floor.item(cell), terrain.loose_depth.item(cell)))

    def enter_ripper_cell(self, cell: int) -> None:
        """Loosen the flat `cell` as the ripper tines enter it.

        The tine force for a cell is set by its composition as the tines
        enter it and held for the whole traverse of that cell.
        """
        terrain, spec, depth = self.terrain, self.spec, self.rip_depth
        loose_d = terrain.loose_depth.item(cell)
        self._note(cell)
        bank_d = terrain.rip(cell, depth)
        profile = terrain.profile_at_cell(cell)
        q_bank = profile.resistance_at(bank_d) if bank_d > 0.0 else 0.0
        face = ripper_draft(spec.ripper_width, bank_d, q_bank,
                            spec.ripper_cut_coeff) if bank_d > 0.0 else 0.0
        drag = ripper_draft(spec.ripper_width, min(depth, loose_d),
                            profile.loose_resistance,
                            spec.ripper_cut_coeff) if loose_d > 0.0 else 0.0
        self.rip_face = face + drag

    def snapshot(self) -> _ToolState:
        """What the tools have left so far this stroke."""
        return _ToolState(len(self.journal), self.prism, self.face_force, self.rip_face,
                          self.terrain.carried_out, self.spill, len(self.visited))

    def restore(self, state: _ToolState) -> None:
        """Take back the tool work done since `state` was taken: the
        journaled writes, newest first, and the tool state."""
        bank, loose = self.terrain.bank_floor.flat, self.terrain.loose_depth.flat
        for cell, old_bank, old_loose in reversed(self.journal[state.journal:]):
            bank[cell] = old_bank
            loose[cell] = old_loose
        del self.journal[state.journal:]
        while len(self.visited) > state.visited:
            self.visited.popitem()
        self.prism, self.face_force = state.prism, state.face_force
        self.rip_face, self.spill = state.rip_face, state.spill
        self.terrain.carried_out = state.carried_out


class Machine:
    """Quasi-static machine state bound to a terrain and environment."""

    def __init__(
        self,
        spec: VehicleSpec,
        terrain: Terrain,
        env: Environment,
        x: float = 0.0,
        y: float = 0.0,
        heading_deg: float = 0.0,
        recorder: PenetrationRecorder | None = None,
    ):
        self.spec = spec
        self.terrain = terrain
        self.env = env
        self.x = float(x)
        self.y = float(y)
        self.heading = math.radians(heading_deg)
        self.separation = spec.base_separation  # start contracted
        # each frame's seated spikes; unseating a frame sets None at no
        # charge, as each spike's pull-out was charged when it seated
        self.anchors: dict[str, AnchorState | None] = {"front": None, "rear": None}
        self.extra_draft: float = 0.0
        self.cycles: list[CycleRecord] = []
        self.recorder = recorder
        self.max_pin_drift = 0.0
        self._expanded = False
        self._unit_for = float("nan")
        self._unit_vec = (1.0, 0.0)
        self.tools = _Tools(self)

    # ------------------------------------------------------------------
    # Pose helpers

    @property
    def heading_deg(self) -> float:
        return math.degrees(self.heading)

    def _unit(self) -> tuple[float, float]:
        # memoized; the stroke integrator asks for this on every step it takes alone
        if self._unit_for != self.heading:
            self._unit_for = self.heading
            self._unit_vec = (math.cos(self.heading), math.sin(self.heading))
        return self._unit_vec

    def spike_point(self, frame: str, offset: float, depth: float) -> tuple[float, float]:
        """World position of a spike tip at the present pose."""
        return self.spec.spike_point(self.x, self.y, self._unit(), self.separation,
                                     frame, offset, depth)

    def _tool_point(self, blade: bool, x, y, separation):
        """Working edge of the blade (`blade`) or of the ripper tines, with
        the center at (x, y) and the frames `separation` apart: the blade
        leads the front frame, the tines trail the rear one.  Floats or
        arrays."""
        ux, uy = self._unit()
        sign, lead = (0.5, self.spec.blade_lead) if blade else (-0.5, -self.spec.ripper_lead)
        fx = x + sign * separation * ux
        fy = y + sign * separation * uy
        return fx + lead * ux, fy + lead * uy

    def blade_point(self) -> tuple[float, float]:
        return self._tool_point(True, self.x, self.y, self.separation)

    def ram_travel(self, expand: bool) -> float:
        """Frame travel left before the ram reaches its stop.

        Separation runs between a small hard floor and the base
        separation plus one full stroke; alternating full strokes swing
        between the ends, while trimmed strokes leave the ram partway.
        """
        if expand:
            return max(0.0, self.spec.base_separation
                       + self.spec.stroke_length - self.separation)
        return max(0.0, self.separation - 0.05 * self.spec.base_separation)

    # ------------------------------------------------------------------
    # Anchoring

    def _spike_ground(self, frame: str, offset: float):
        """A spike's ground at the surface, read once for seating and for
        `advance`'s slip prediction: the point, its cell (None off the map),
        the soil profile there, and whether intact crust resists the press."""
        x, y = self.spike_point(frame, offset, 0.0)
        try:
            cell = self.terrain.cell_of(x, y)
        except ValueError:
            cell = None
        profile = self.terrain.soil.profile_at(x, y)
        resists = (profile.duricrust is not None and cell is not None
                   and not self.terrain.crust_broken[cell]
                   and not crust_breaks(profile.duricrust, self.spec.crust_press(self.env.gravity),
                                        self.spec.spike.tip_area))
        return (x, y), cell, profile, resists

    def _seat_frame(self, frame: str, force: float, slip_allowed: bool,
                    offsets: tuple[float, ...] | None = None) -> tuple[float, float]:
        """Seat `frame`'s spikes against `force`.

        `offsets` restricts which spikes seat; straight driving seats the
        whole row, a turn pins a single off-axis spike so the frame can
        yaw around it.  Returns (slip, anchoring_work).  `_spike_ground`
        reads the first spike's ground for the row: where intact crust
        resists the press the frame falls back to sliding friction; raises
        VehicleStuck when neither spikes nor friction can react the load.
        """
        if offsets is None:
            offsets = self.spec.spike_offsets
        (sx, sy), cell, profile, resists = self._spike_ground(frame, offsets[0])
        if cell is None:
            raise SimulationError(f"seating spike point ({sx:.2f}, {sy:.2f}) is off the map")
        if resists:
            friction = self.spec.skid_friction(self.terrain.soil.profile_at(self.x, self.y),
                                               self.env.gravity)
            if force <= friction:
                self.anchors[frame] = AnchorState(
                    x=sx, y=sy, depth=0.0, capacity=friction,
                    stored_work=0.0, by_friction=True)
                return 0.0, 0.0
            raise VehicleStuck(
                "crust resists the spike press and sliding friction "
                f"cannot react {force:.1f} N")
        if profile.duricrust is not None:
            self.terrain.crust_broken[cell] = True
        seated = self.spec.seat(force, profile, len(offsets))
        if seated is None:
            raise VehicleStuck(
                f"holding capacity exhausted at max seating depth for {force:.1f} N")
        depth, capacity, tan_beta = seated
        work = anchoring_work(force, profile)
        slip = anchoring_slip(force, profile) if slip_allowed else 0.0
        for off in offsets:
            px, py = self.spike_point(frame, off, depth)
            try:
                self.terrain.crust_broken[self.terrain.cell_of(px, py)] = True
            except ValueError:
                pass
            if self.recorder is not None and depth > 0.0:
                self.recorder.record(px, py, depth)
        self.anchors[frame] = AnchorState(
            x=sx, y=sy, depth=depth, capacity=capacity,
            stored_work=work, slipped=slip, tan_beta=tan_beta)
        return slip, work

    def _deepen_anchor(self, frame: str, new_force: float) -> tuple[float, float]:
        """Grow a seated anchor to react a draft that rose mid-stroke.

        The extra seating work is k * dF above the force the anchor was
        rated for.  Mobilization displacement is a property of the
        engagement, not the load: the ramp law W = F s / 2 with W = k F
        fixes the total slip of any loaded anchor at 2 k, so deepening
        only tops the anchor up to that figure.  An anchor that already
        slipped its ramp deepens without shoving the frame again.
        """
        anchor = self.anchors[frame]
        profile = self.terrain.soil.profile_at(anchor.x, anchor.y)
        seated = self.spec.seat(new_force, profile, len(self.spec.spike_offsets))
        if seated is None:
            raise VehicleStuck(
                f"holding capacity exhausted deepening anchor to {new_force:.1f} N")
        rated = anchor.stored_work / profile.anchor_work_slope
        extra_work = anchoring_work(max(0.0, new_force - rated), profile)
        extra_slip = 0.0
        if extra_work > 0.0:
            extra_slip = max(0.0, anchoring_slip(new_force, profile) - anchor.slipped)
            anchor.slipped += extra_slip
        anchor.depth, anchor.capacity, anchor.tan_beta = seated
        anchor.stored_work += extra_work
        return extra_slip, extra_work

    # ------------------------------------------------------------------
    # Draft model

    def _grade_offset(self) -> tuple[float, float]:
        """From the center to the fore height sample, half a footprint
        along the present heading; the aft sample lies as far behind."""
        half = 0.5 * self.spec.gauge
        ux, uy = self._unit()
        return half * ux, half * uy

    def _fresh_draft(self, cutting: bool, motion: float) -> float:
        """The draft at the present pose over a zero-length step, before
        any face is cut or any cell is ripped."""
        hx, hy = self._grade_offset()
        x, y = self.x, self.y
        try:
            rise = motion * (self.terrain.height_at(x + hx, y + hy)
                             - self.terrain.height_at(x - hx, y - hy))
        except ValueError:
            rise = 0.0  # off the map: level ground
        density = self.terrain.soil.profile_at(self.x, self.y).loose_density
        return price_steps(rise, density, None, 0.0 if cutting else None,
                           None, self.tools.prism, self.extra_draft,
                           self.spec, self.env.gravity, None)[0]

    def _check_flip(self, seat_frame: str, draft: float, ripping: bool) -> None:
        """Raise FlipInstability when `draft` flips the seated frame."""
        anchor, g = self.anchors[seat_frame], self.env.gravity
        if not anchor.by_friction and self.spec.flips(draft, anchor.tan_beta, g, ripping):
            beta = self.spec.spike.thrust_angle_deg(anchor.depth)
            hold = self.spec.hold_down(draft, g, ripping)
            raise FlipInstability(
                f"drawbar lift at beta={beta:.1f} deg exceeds {hold:.0f} N of hold-down")

    # ------------------------------------------------------------------
    # Linear half-cycle

    def half_cycle(self, stroke: float | None = None, reverse: bool = False, *,
                   _draft: float | None = None) -> CycleRecord:
        """Run one half-cycle and return its log row.

        Alternates expansion and contraction automatically.  `stroke`
        limits the relative frame travel for a partial move; it defaults
        to the full ram stroke.

        The free frame advances in `STEP` increments and a trimmed last
        step, all laid out by a `_StrokePath` and priced by `price_steps`.
        The tools work first: the path works every crossing of a span of
        the steps left in order, keeping a journal of what it writes, and
        then prices the whole span in one pass, each step on the terrain,
        blade load and tool forces it would meet taken alone.  The steps
        are taken up to the first the seated frame cannot simply hold.
        There the anchor deepens first, then the machine flips or the
        frame slides; a deepening that does not slip prices the rest of
        the span again with the deeper anchor, since no tool work
        depends on the anchor.  A slip shoves the seated frame off
        the path, and a flip or a stall ends the stroke, so each first
        takes back the tool work past its step.  An anchor seated
        unloaded slips at its first deepening, so while it can, a cutting
        span ends at the first cut whose step it does not hold.  The
        numbers are those of taking every step on its own.

        `_draft` is for `advance` alone: the zero-length draft it already
        had `_fresh_draft` price for this phase at the present pose.
        """
        expand, seat_frame, cutting, ripping = self._phase(reverse)
        if stroke is None:
            stroke = self.spec.stroke_length
        if not 0.0 < stroke <= self.spec.stroke_length + 1e-12:
            raise ValueError("stroke must be in (0, ram stroke]")
        stroke = min(stroke, self.spec.stroke_length, self.ram_travel(expand))
        if stroke <= 0.0:
            raise ValueError("ram is at its stop for this phase")
        if reverse and (self.tools.blade is not None or self.tools.rip_depth > 0.0):
            raise ValueError("tools must be raised to drive in reverse")

        motion = -1.0 if reverse else 1.0
        move_frame = "front" if seat_frame == "rear" else "rear"
        self.tools.reset()

        self.anchors[move_frame] = None

        x0, y0 = self.x, self.y
        ux, uy = self._unit()

        draft = self._fresh_draft(cutting, motion) if _draft is None else _draft
        slip, anchor_work = self._seat_frame(seat_frame, draft, slip_allowed=True)
        slip = min(slip, stroke)
        slip_total = slip
        # Seating shoves the seating frame opposite the travel direction.
        if slip > 0.0:
            self._shift_frame(seat_frame, -motion * slip)

        advance_total = stroke - slip
        useful = 0.0
        draft_peak = draft
        travelled = 0.0
        anchor = self.anchors[seat_frame]
        path = None
        while travelled < advance_total - 1e-12:
            if path is None:
                path = _StrokePath(self, move_frame, motion, travelled, advance_total,
                                   cutting, ripping)
            # slip is 2k for any load, so only an anchor seated unloaded
            # and not yet deepened can still slip
            can_slip = cutting and not anchor.by_friction and anchor.slipped == 0.0
            last, step = path.work(anchor if can_slip else None), path.k
            slipped = False
            while step <= last:
                drafts, held, clears = path.price(step, anchor)
                if held:
                    taken = drafts[:held]
                    useful = float(np.concatenate(([useful], taken * path.ds[step:step + held]))
                                   .cumsum()[-1])
                    draft_peak = max(draft_peak, float(taken.max()))
                step += held
                if step > last:
                    break
                # The seated frame cannot simply hold this step.
                draft = float(drafts[held])
                path.place(step)
                try:
                    if clears[held]:
                        if anchor.by_friction:
                            raise VehicleStuck(
                                f"sliding friction anchor cannot react {draft:.1f} N")
                        # Deepening rates the spikes for the whole measured draft.
                        extra_slip, extra_work = self._deepen_anchor(seat_frame, draft)
                        anchor_work += extra_work
                        extra_slip = min(extra_slip,
                                         advance_total - float(path.travelled[step]))
                        if extra_slip > 0.0:
                            self._shift_frame(seat_frame, -motion * extra_slip)
                            advance_total -= extra_slip
                            slip_total += extra_slip
                            slipped = True
                    self._check_flip(seat_frame, draft, ripping)
                except (SimulationError, ValueError):
                    path.settle(step)
                    raise
                draft_peak = max(draft_peak, draft)
                useful += draft * float(path.ds[step])
                if slipped:
                    break
                step += 1
            path.settle(step if slipped else last)
            if not slipped:
                # The path goes on in a new span, or what is left of it is
                # a rounding error.
                if last < path.stop:
                    path.k = last + 1
                    path.place(last + 1)
                    travelled = float(path.travelled[last + 1])
                    continue
                step = last
                path.place(step)
            # The machine moves itself over the step that slipped or that
            # ends the path, and a new path is laid from where it stops.
            ds = float(path.ds[step])
            self._shift_frame(move_frame, motion * ds)
            travelled = float(path.travelled[step]) + ds
            path = None

        self._expanded = expand
        return self._log("expand" if expand else "contract", motion * travelled,
                         (self.x - x0) * ux + (self.y - y0) * uy, draft_peak,
                         self.anchors[seat_frame].depth, slip_total, useful,
                         anchor_work, self.tools.spill)

    def _phase(self, reverse: bool) -> tuple[bool, str, bool, bool]:
        """The next half-cycle's phase: whether it expands, which frame
        seats, and whether the blade cuts and the ripper rips."""
        expand = not self._expanded
        seat_frame = "rear" if expand != reverse else "front"
        cutting = not reverse and expand and self.tools.blade is not None
        ripping = not reverse and not expand and self.tools.rip_depth > 0.0
        return expand, seat_frame, cutting, ripping

    def _log(self, mode: str, free_advance: float, center_advance: float,
             draft_peak: float, seat_depth: float, slip: float, useful: float,
             anchor_work: float, spill: float = 0.0) -> CycleRecord:
        """Append a half-cycle's log row at the pose it ended in.  Every
        spike it seated comes out once, so its extraction is charged here."""
        record = CycleRecord(
            len(self.cycles), mode, self.x, self.y, self.heading_deg,
            free_advance, center_advance, draft_peak, seat_depth, slip, useful,
            anchor_work, self.spec.extraction_ratio * anchor_work, self.tools.prism, spill)
        self.cycles.append(record)
        return record

    def _shift_frame(self, frame: str, signed_ds: float) -> None:
        """Move one frame along the axis; center and separation follow."""
        ux, uy = self._unit()
        self.x += 0.5 * signed_ds * ux
        self.y += 0.5 * signed_ds * uy
        if frame == "front":
            self.separation += signed_ds
        else:
            self.separation -= signed_ds
        if self.separation <= 0.0:
            raise ValueError("frames collided; stroke bookkeeping is broken")

    # ------------------------------------------------------------------
    # Compound moves

    def advance(self, distance: float, reverse: bool = False) -> float:
        """Drive the machine center `distance` along its heading.

        Runs half-cycles, trimming the last stroke for the seating slip,
        none where the frame holds by friction, so the center lands on the
        target.  Returns the center travel actually achieved.
        """
        if distance <= 0.0:
            raise ValueError("advance distance must be positive")
        sign = -1.0 if reverse else 1.0
        moved = 0.0
        skips = 0
        no_gain = 0
        budget = 64 + int(16.0 * distance / self.spec.stroke_length)
        while True:
            remaining = distance - moved
            if remaining <= 1e-9:
                break
            budget -= 1
            if budget < 0:
                raise VehicleStuck(
                    "half-cycle budget exhausted without reaching the target")
            expand, seat_frame, cutting, _ = self._phase(reverse)
            # Predict the seating slip as the half-cycle will seat: from
            # the same zero-length draft and the same reading of the ground
            # at the spike point; a frame held by friction does not slip.
            draft0 = self._fresh_draft(cutting, -1.0 if reverse else 1.0)
            _, _, profile, resists = self._spike_ground(seat_frame, self.spec.spike_offsets[0])
            slip = 0.0 if resists else anchoring_slip(draft0, profile)
            # A phase whose remaining ram travel cannot beat its own
            # seating slip is skipped: the interlock simply swaps which
            # frame holds and the opposite phase gets the full stroke.
            if self.ram_travel(expand) <= 2.0 * slip + 1e-9:
                skips += 1
                if skips >= 2:
                    raise VehicleStuck(
                        "anchor slip consumes the available ram travel in "
                        "both phases")
                self._expanded = expand
                continue
            skips = 0
            # The center moves (stroke - 2 slip) / 2 per half-cycle.
            stroke_needed = 2.0 * remaining + 2.0 * slip
            record = self.half_cycle(
                stroke=min(self.spec.stroke_length, stroke_needed),
                reverse=reverse, _draft=draft0)
            gained = record.center_advance * sign
            moved += gained
            # One dead half is not a stall: a mid-stroke draft rise can
            # eat a trimmed stroke as anchor slip, and the opposite phase
            # then reseats at the risen draft and recovers the loss.
            if gained <= 1e-12:
                no_gain += 1
                if no_gain >= 2:
                    raise VehicleStuck(
                        "no progress over consecutive half-cycles")
            else:
                no_gain = 0
        return moved

    # ------------------------------------------------------------------
    # Turning

    def turn_to(self, heading_deg: float, tol_deg: float | None = None) -> int:
        """Rotate in place to a heading; returns half-cycles used.

        One spike on the inside of the turn anchors as a pin; the ram
        stroke swings the free frame around it.  The pin side stays fixed
        for the whole maneuver and the pinned frame alternates, expansion
        pinning the rear and contraction the front.  The last stroke is
        trimmed to land on the target heading.

        `tol_deg` overrides the vehicle's stock heading tolerance; lane
        work passes a tight one because a degree of residual heading
        walks the machine off its lane over a long leg.
        """
        if tol_deg is None:
            tol_deg = self.spec.heading_tolerance_deg
        if tol_deg <= 0.0:
            raise ValueError("heading tolerance must be positive")
        if not math.isfinite(heading_deg):
            raise ValueError(f"target heading must be finite, got {heading_deg}")
        target = math.radians(heading_deg)
        # The heading error rounds by up to half an ulp of the target; past
        # the closing bound the half-turns chase that rounding.
        if 0.5 * math.ulp(target) > TURN_CLOSE:
            raise ValueError(f"target heading {heading_deg} deg is too large "
                             f"to resolve to {TURN_CLOSE} rad")
        tol = math.radians(tol_deg)
        err = self._wrap(target - self.heading)
        if abs(err) <= tol:
            return 0
        # a clockwise (negative) turn pins on the left (+offset)
        side = (max(self.spec.spike_offsets) if err < 0.0
                else min(self.spec.spike_offsets))
        if side == 0.0:
            raise ValueError("turning needs a laterally offset spike")
        halves = 0
        for _ in range(64):
            err = self._wrap(target - self.heading)
            if abs(err) <= TURN_CLOSE:
                break
            if self._turn_half(side, err):
                halves += 1
        if abs(self._wrap(target - self.heading)) > tol:
            raise VehicleStuck("turn failed to converge on the target heading")
        return halves

    def turn_by(self, delta_deg: float) -> int:
        return self.turn_to(self.heading_deg + delta_deg)

    @staticmethod
    def _wrap(angle: float) -> float:
        return math.remainder(angle, 2.0 * math.pi)

    def _turn_half(self, side: float, err: float) -> bool:
        """One pinned half-stroke rotating toward closing `err`.

        Returns False when the ram was already at this phase's stop and
        the half degenerated to swapping the holding frame."""
        expand = not self._expanded
        pin_frame = "rear" if expand else "front"
        free_frame = "front" if expand else "rear"

        avail = min(self.spec.stroke_length, self.ram_travel(expand))
        if avail <= 1e-9:
            self._expanded = expand
            return False

        self.anchors[free_frame] = self.anchors[pin_frame] = None

        profile = self.terrain.soil.profile_at(*self.spike_point(pin_frame, side, 0.0))
        f_turn = self.spec.skid_friction(profile, self.env.gravity)
        # The pin is pressed in, not dragged in: no stroke is lost to slip.
        # Only the pin seats; the frame yaws around it, so its other
        # spikes would sweep an arc and cannot hold ground.
        _, anchor_work = self._seat_frame(pin_frame, f_turn, slip_allowed=False,
                                          offsets=(side,))

        anchor = self.anchors[pin_frame]
        depth = anchor.depth
        reach = self.spec.spike.reach(depth)
        pin = self.spike_point(pin_frame, side, depth)

        # The axial distance a from the pin to the free frame ref grows by
        # sigma * delta over a ram stroke delta, and the heading changes by
        # sigma * (psi1 - psi0), psi = atan2(side, a); negating is exact.
        sigma = 1.0 if expand else -1.0
        a0 = self.separation + sigma * reach
        psi0 = math.atan2(side, a0)
        r0 = math.hypot(a0, side)
        psi_t = psi0 + sigma * err
        tan_t = math.tan(psi_t)
        a1 = side / tan_t if abs(tan_t) > 1e-12 else (math.inf if expand else 0.0)
        delta = sigma * (a1 - a0)
        # expansion cannot carry the bearing across the axis
        if not 0.0 < delta <= avail or (expand and psi_t * psi0 <= 0.0):
            delta = avail
            a1 = a0 + sigma * delta
        sep1 = self.separation + sigma * delta
        psi1 = math.atan2(side, a1)
        heading1 = self.heading + sigma * (psi1 - psi0)

        # Rebuild the pose off the pin so the anchor cannot drift.
        ux, uy = math.cos(heading1), math.sin(heading1)
        ref_x = pin[0] + reach * ux + side * uy
        ref_y = pin[1] + reach * uy - side * ux
        cx = ref_x + sigma * 0.5 * sep1 * ux
        cy = ref_y + sigma * 0.5 * sep1 * uy

        r1 = math.hypot(a1, side)
        useful = f_turn * abs(r1 - r0)

        self.heading = heading1
        self.x, self.y = cx, cy
        self.separation = sep1
        self._expanded = expand
        self._check_flip(pin_frame, f_turn, ripping=False)

        pin_after = self.spike_point(pin_frame, side, depth)
        self.max_pin_drift = max(
            self.max_pin_drift, math.hypot(pin_after[0] - pin[0], pin_after[1] - pin[1]))

        self._log("turn-expand" if expand else "turn-contract", abs(r1 - r0), 0.0,
                  f_turn, depth, 0.0, useful, anchor_work)
        return True

    # ------------------------------------------------------------------
    # Blade and spoil

    def set_blade(self, target_elevation: float | None,
                  mask: frozenset[tuple[int, int]] | None = None) -> None:
        """Cut down to `target_elevation` in the (i, j) cells of `mask`,
        or anywhere on the map when it is None; mask cells off the map
        are ignored.  A `target_elevation` of None raises the blade."""
        if target_elevation is None:
            self.tools.blade = None
            return
        rows, cols = self.terrain.shape
        cuts = np.zeros(rows * cols + 1, dtype=bool)
        if mask is None:
            cuts[:-1] = True
        else:
            i, j = np.array(list(mask), dtype=np.intp).reshape(-1, 2).T
            on = (0 <= i) & (i < rows) & (0 <= j) & (j < cols)
            cuts[i[on] * cols + j[on]] = True
        self.tools.blade = BladeSetting(float(target_elevation), cuts)

    def set_ripper(self, depth: float) -> None:
        if depth < 0.0:
            raise ValueError("ripping depth must be non-negative")
        self.tools.rip_depth = float(depth)

    def dump_prism(self) -> float:
        """Deposit the carried spoil at the blade and settle it."""
        if self.tools.prism <= 0.0:
            return 0.0
        x, y = self.blade_point()
        try:
            i, j = self.terrain.cell_of(x, y)
        except ValueError:
            raise SimulationError(f"dump point ({x:.2f}, {y:.2f}) is off the map") from None
        volume = self.tools.prism
        self.terrain.deposit(i * self.terrain.shape[1] + j, volume)
        self.tools.prism = 0.0
        pad = 12
        self.terrain.relax(window=(i - pad, j - pad, i + pad + 1, j + pad + 1))
        return volume

    # ------------------------------------------------------------------
    # Ledger

    def energy_totals(self) -> dict[str, float]:
        useful = ordered_sum([c.useful_work for c in self.cycles])
        anchoring = ordered_sum([c.anchoring_work for c in self.cycles])
        extraction = ordered_sum([c.extraction_work for c in self.cycles])
        total = useful + anchoring + extraction
        return {
            "useful": useful,
            "anchoring": anchoring,
            "extraction": extraction,
            "total": total,
            "efficiency": useful / total if total > 0.0 else 1.0,
        }
