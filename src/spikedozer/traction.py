"""Spike anchoring statics: thrust geometry, holding capacity, energetics.

A drawbar force F_d transmitted through an inclined spike arm pulls the
anchor both along the ground and out of it.  With thrust angle beta
between arm and ground, the vertical component is

    F_m = F_d * tan(beta)

so a shallow arm buys drawbar capacity: the anchored frame can react

    F_d / W = 1 / tan(beta)

times its own weight before the arm starts to lift it.  The arm pivots on
a hinge above the ground, so beta grows as the spike seats deeper and the
horizontal reach of the tip shrinks.

Seating a spike costs energy in proportion to the load it must hold,
because stronger holds need deeper penetration through resisting ground.
That cost is charged against every stroke and is what tractive efficiency
measures.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .soils import SoilProfile

DEPTH_INCREMENT = 0.01  # m, seating depth resolution


def pull_weight_ratio(thrust_angle_deg: float) -> float:
    """Drawbar force per unit anchored weight, 1/tan(beta)."""
    if not 0.0 < thrust_angle_deg < 90.0:
        raise ValueError(f"thrust angle must be in (0, 90) deg, got {thrust_angle_deg}")
    return 1.0 / math.tan(math.radians(thrust_angle_deg))


def derated_pull_weight_ratio(thrust_angle_deg: float, derating: float = 2.0) -> float:
    """Geometric ratio knocked down for seating losses and joint friction."""
    if derating < 1.0:
        raise ValueError("derating factor must be >= 1")
    return pull_weight_ratio(thrust_angle_deg) / derating


def lift_force(drawbar: float, thrust_angle_deg: float) -> float:
    """Vertical pull-out component F_m = F_d * tan(beta) of a drawbar load."""
    if drawbar < 0.0:
        raise ValueError("drawbar force must be non-negative")
    if not 0.0 < thrust_angle_deg < 90.0:
        raise ValueError(f"thrust angle must be in (0, 90) deg, got {thrust_angle_deg}")
    return drawbar * math.tan(math.radians(thrust_angle_deg))


def flip_margin(weight: float, drawbar: float, thrust_angle_deg: float) -> float:
    """Weight left holding the anchored frame down under drawbar lift.

    Positive means stable; zero or negative means the frame rotates out of
    the ground instead of reacting the pull.
    """
    if weight <= 0.0:
        raise ValueError("anchored weight must be positive")
    return weight - lift_force(drawbar, thrust_angle_deg)


def _any_negative(value) -> bool:
    """Whether a float, or any element of an array, is below zero."""
    return bool((value < 0.0).any()) if isinstance(value, np.ndarray) else value < 0.0


def ripper_downforce(draft, rake_angle_deg: float):
    """Extra hold-down from dragging a raked tine: F_dr * tan(gamma).

    The soil reaction on a tine raked at gamma from vertical has a
    downward component, so ripping transfers weight onto the machine
    instead of lifting it.  `draft` is a float or an array.
    """
    if _any_negative(draft):
        raise ValueError("ripper draft must be non-negative")
    if not 0.0 <= rake_angle_deg < 90.0:
        raise ValueError(f"rake angle must be in [0, 90) deg, got {rake_angle_deg}")
    return draft * math.tan(math.radians(rake_angle_deg))


@dataclass(frozen=True)
class SpikeGeometry:
    """Arm and tip geometry of one interlocking spike.

    The arm hinges at `hinge_height` above grade and the tip's horizontal
    reach shrinks affinely as it seats:

        reach(d) = reach_at_zero + reach_slope * d
        beta(d)  = atan((hinge_height + d) / reach(d))

    bearing_width    effective width of the tip face that bears on the soil
                     when loaded in shear (m)
    tip_area         end area pressed on the surface while seating (m^2)
    max_depth        mechanical seating limit (m)
    """

    hinge_height: float
    reach_at_zero: float
    reach_slope: float
    bearing_width: float = 1.5625e-3
    tip_area: float = 1e-4
    max_depth: float = 0.5

    def __post_init__(self) -> None:
        if self.hinge_height <= 0.0:
            raise ValueError("hinge height must be positive")
        if self.reach_at_zero <= 0.0:
            raise ValueError("reach at zero depth must be positive")
        if self.bearing_width <= 0.0:
            raise ValueError("bearing width must be positive")
        if self.tip_area <= 0.0:
            raise ValueError("tip area must be positive")
        if not 0.0 < self.max_depth <= 1.0:
            raise ValueError("max seating depth must be in (0, 1] m")
        if self.reach(self.max_depth) <= 0.0:
            raise ValueError("reach must stay positive over the seating range")

    @classmethod
    def from_thrust_angles(
        cls,
        surface_angle_deg: float = 10.0,
        seated_angle_deg: float = 30.0,
        seated_depth: float = 0.20,
        hinge_height: float = 0.10,
        **kwargs,
    ) -> "SpikeGeometry":
        """Calibrate the affine reach from two known thrust angles."""
        if not 0.0 < surface_angle_deg < seated_angle_deg < 90.0:
            raise ValueError("thrust angle must grow with seating depth")
        if seated_depth <= 0.0:
            raise ValueError("seated calibration depth must be positive")
        reach0 = hinge_height / math.tan(math.radians(surface_angle_deg))
        reach1 = (hinge_height + seated_depth) / math.tan(math.radians(seated_angle_deg))
        slope = (reach1 - reach0) / seated_depth
        return cls(hinge_height=hinge_height, reach_at_zero=reach0,
                   reach_slope=slope, **kwargs)

    def reach(self, depth: float) -> float:
        """Horizontal distance hinge-to-tip at seating depth `depth` (m)."""
        if depth < 0.0:
            raise ValueError("seating depth must be non-negative")
        return self.reach_at_zero + self.reach_slope * depth

    def thrust_angle_rad(self, depth: float) -> float:
        return math.atan((self.hinge_height + depth) / self.reach(depth))

    def thrust_angle_deg(self, depth: float) -> float:
        """Arm angle from ground at seating depth `depth`."""
        return math.degrees(self.thrust_angle_rad(depth))

    def holding_capacity(self, depth: float, profile: SoilProfile) -> float:
        """Horizontal shear load the seated tip can react, q(d) * w * d (N)."""
        if depth < 0.0:
            raise ValueError("seating depth must be non-negative")
        if depth == 0.0:
            return 0.0
        return profile.resistance_at(depth) * self.bearing_width * depth

    def depth_for_capacity(self, force: float, profile: SoilProfile) -> float | None:
        """Shallowest seating depth whose capacity reacts `force`.

        Depth is quantized to `DEPTH_INCREMENT`.  None when even the full
        mechanical range cannot hold the load.
        """
        if force < 0.0:
            raise ValueError("required force must be non-negative")
        if force == 0.0:
            return 0.0
        depths, most = _capacity_table(self, profile)
        # a NaN force fails this test too
        if not (most and force <= most[-1]):
            return None
        # the first depth whose capacity reacts the force is the first at
        # which the most capacity so far does
        return depths[bisect_left(most, force)]


@functools.lru_cache(maxsize=64)
def _capacity_table(spike: SpikeGeometry, profile: SoilProfile) -> tuple[tuple, tuple]:
    """The seating depths, every `DEPTH_INCREMENT` down to the spike's
    `max_depth`, and the most capacity any depth down to each holds in
    `profile`: a capacity may fall with depth where the profile allows
    inversion."""
    steps = round(spike.max_depth / DEPTH_INCREMENT)
    depths = tuple(i * DEPTH_INCREMENT for i in range(1, steps + 1))
    capacities = (spike.holding_capacity(depth, profile) for depth in depths)
    return depths, tuple(itertools.accumulate(capacities, max))


REFERENCE_GEOMETRY = SpikeGeometry.from_thrust_angles()


def anchoring_work(force, profile: SoilProfile):
    """Energy to seat one spike against `force` of drawbar load (J).

    Linear in the load: W = k * F with k the profile's anchor work slope.
    `force` is a float, giving a float, or an array.
    """
    if _any_negative(force):
        raise ValueError("anchored force must be non-negative")
    return profile.anchor_work_slope * force


def anchoring_slip(force, profile: SoilProfile):
    """Stroke length lost to seating against `force`, per event (m).

    The frame being seated is pushed backward against a draft that ramps
    linearly from zero up to the stroke load F, so the seating energy is
    W = F * s / 2 over the slip distance s.  With W = k * F the slip is
    2k for every positive load; an unloaded frame seats without slipping
    at all.  `force` is a float, giving a float, or an array.
    """
    if _any_negative(force):
        raise ValueError("anchored force must be non-negative")
    slip = 2.0 * profile.anchor_work_slope
    if isinstance(force, np.ndarray):
        return np.where(force == 0.0, 0.0, slip)
    return 0.0 if force == 0.0 else slip


def tractive_efficiency(useful: float, anchoring: float, extraction: float = 0.0) -> float:
    """Fraction of cycle energy delivered to the drawbar."""
    if useful < 0.0 or anchoring < 0.0 or extraction < 0.0:
        raise ValueError("work terms must be non-negative")
    total = useful + anchoring + extraction
    if total <= 0.0:
        raise ValueError("cannot compute efficiency for a zero-energy cycle")
    return useful / total
