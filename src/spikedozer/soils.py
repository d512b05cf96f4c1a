"""Gravity environments and layered regolith strength models.

Soil strength is expressed as penetration resistance q (Pa), the
quasi-static pressure a narrow tool must overcome to advance through the
material.  Profiles are piecewise constant in depth so that every query
reduces to a table walk; there is no state here, which keeps the rest of
the simulator free to treat soil as a pure function of position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRAVITY_EARTH = 9.81  # m/s^2


@dataclass(frozen=True)
class Environment:
    """A gravity environment. All body forces scale linearly with g."""

    name: str
    gravity: float  # m/s^2

    def __post_init__(self) -> None:
        if not 0.0 < self.gravity < math.inf:
            raise ValueError(f"gravity must be positive and finite, got {self.gravity}")


EARTH = Environment("earth", GRAVITY_EARTH)
MOON = Environment("moon", GRAVITY_EARTH / 6.0)
MARS = Environment("mars", 0.38 * GRAVITY_EARTH)

ENVIRONMENTS = {env.name: env for env in (EARTH, MOON, MARS)}


@dataclass(frozen=True)
class SoilLayer:
    """One homogeneous horizon of the profile.

    thickness        layer extent in depth (m); the last layer of a profile
                     is treated as unbounded below
    resistance       penetration resistance q (Pa)
    friction_mu      sliding friction coefficient tool-on-soil
    """

    thickness: float
    resistance: float
    friction_mu: float = 0.6

    def __post_init__(self) -> None:
        if self.thickness <= 0.0:
            raise ValueError("layer thickness must be positive")
        if self.resistance <= 0.0:
            raise ValueError("layer resistance must be positive")
        if not 0.0 < self.friction_mu < 2.0:
            raise ValueError("friction coefficient must be in (0, 2)")


@dataclass(frozen=True)
class Duricrust:
    """A brittle cemented surface crust.

    The crust does not yield to pressure below `strength` (Pa) applied over
    the tool tip area.  Once broken at a location it stays broken; that
    bookkeeping lives with the terrain, not here.
    """

    strength: float  # Pa

    def __post_init__(self) -> None:
        if self.strength <= 0.0:
            raise ValueError("crust strength must be positive")


@dataclass(frozen=True)
class SoilProfile:
    """A vertical strength profile: stacked layers plus optional crust.

    anchor_work_slope  J per N of holding capacity: the energy cost of
                       seating a spike scales linearly with the load it
                       must react.  Softer ground needs deeper seating and
                       therefore a steeper slope.
    loose_resistance   penetration resistance of freshly disturbed spoil
                       (Pa); always well below the weakest bank material
    loose_density      bulk density of disturbed spoil (kg/m^3)
    repose_angle_deg   angle of repose of the disturbed material
    allow_inversion    ground densifies fast with depth, so a profile that
                       weakens downward is almost always a data error;
                       set this to build one deliberately
    """

    name: str
    layers: tuple[SoilLayer, ...]
    anchor_work_slope: float  # J/N
    duricrust: Duricrust | None = None
    loose_resistance: float = 50e3
    loose_density: float = 1200.0
    repose_angle_deg: float = 41.0
    allow_inversion: bool = False

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("profile needs at least one layer")
        if self.anchor_work_slope <= 0.0:
            raise ValueError("anchor work slope must be positive")
        if self.loose_resistance <= 0.0:
            raise ValueError("loose resistance must be positive")
        if not 0.0 < self.repose_angle_deg <= 60.0:
            raise ValueError("repose angle must be in (0, 60] degrees")
        if self.loose_resistance >= min(l.resistance for l in self.layers):
            raise ValueError("disturbed spoil cannot be stronger than the bank")
        if not self.allow_inversion:
            for upper, lower in zip(self.layers, self.layers[1:]):
                if lower.resistance < upper.resistance:
                    raise ValueError(
                        "resistance drops with depth; pass allow_inversion "
                        "to model it anyway")

    def layer_at(self, depth: float) -> SoilLayer:
        """Layer containing `depth`. A boundary belongs to the deeper layer."""
        if depth < 0.0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        bottom = 0.0
        for layer in self.layers[:-1]:
            bottom += layer.thickness
            if depth < bottom:
                return layer
        return self.layers[-1]

    def resistance_at(self, depth: float) -> float:
        """Penetration resistance q (Pa) at `depth` below the bank surface."""
        return self.layer_at(depth).resistance

    @property
    def surface_friction(self) -> float:
        return self.layers[0].friction_mu


def crust_breaks(crust: Duricrust | None, normal_force: float, tip_area: float) -> bool:
    """True when `normal_force` over `tip_area` exceeds the crust strength.

    No crust means nothing to break.
    """
    if crust is None:
        return True
    if tip_area <= 0.0:
        raise ValueError("tip area must be positive")
    return normal_force / tip_area >= crust.strength


def _uniform(name: str, resistance: float, anchor_work_slope: float,
             **kwargs) -> SoilProfile:
    return SoilProfile(
        name=name,
        layers=(SoilLayer(thickness=10.0, resistance=resistance),),
        anchor_work_slope=anchor_work_slope,
        **kwargs,
    )


# Reference profiles.  Anchoring a spike against 300 N in the soft profile
# costs 30 J, which fixes the 0.1 J/N slope; firmer ground seats shallower.
SOFT = _uniform("soft", 960e3, 0.10)
MEDIUM = _uniform("medium", 3.9e6, 0.05)
HARD = _uniform("hard", 6.0e6, 0.033)

SOILS = {p.name: p for p in (SOFT, MEDIUM, HARD)}


class SoilField:
    """Maps plan position to a strength profile.

    The base class is uniform: it has no `patches`, and every point has
    the base profile.  `PatchSoilField` adds rectangular patches.
    Simulation code calls `profile_at` for one point, `profiles_at` for
    the steps of a stroke and `profiles_on_grid` for the cells of a map;
    the last two serve both classes, as a uniform field is a patch field
    with no patches.
    """

    patches: tuple = ()

    def __init__(self, base: SoilProfile):
        self.base = base

    def profile_at(self, x: float, y: float) -> SoilProfile:
        return self.base

    def profiles_at(self, xs: np.ndarray, ys: np.ndarray) -> tuple[list[SoilProfile], np.ndarray]:
        """The field's profiles, the base then each patch's, and for each
        point the index of the one `profile_at` returns there."""
        # masks go on in reverse so the first matching patch wins
        at = np.zeros(np.shape(xs), dtype=np.intp)
        for n in range(len(self.patches), 0, -1):
            p = self.patches[n - 1]
            at[(p.x_min <= xs) & (xs <= p.x_max) & (p.y_min <= ys) & (ys <= p.y_max)] = n
        return [self.base] + [p.profile for p in self.patches], at

    def profiles_on_grid(self, shape: tuple[int, int], cell_size: float,
                         origin: tuple[float, float]) -> tuple[list[SoilProfile], np.ndarray]:
        """The field's profiles, as `profiles_at` lists them, and a raster
        of the index of the one at each cell center of the grid."""
        # A patch holds the cell centers of a block of rows and columns, as
        # centers rise along each axis.  The patches fill their blocks in
        # reverse so the first holding a center wins, as in `profile_at`.
        rows, cols = shape
        xs = origin[0] + (np.arange(cols) + 0.5) * cell_size
        ys = origin[1] + (np.arange(rows) + 0.5) * cell_size
        index = np.zeros(shape, dtype=np.min_scalar_type(len(self.patches)))
        for n in range(len(self.patches), 0, -1):
            p = self.patches[n - 1]
            i0, i1 = np.searchsorted(ys, p.y_min), np.searchsorted(ys, p.y_max, side="right")
            j0, j1 = np.searchsorted(xs, p.x_min), np.searchsorted(xs, p.x_max, side="right")
            index[i0:i1, j0:j1] = n
        return [self.base] + [p.profile for p in self.patches], index


@dataclass(frozen=True)
class SoilPatch:
    """Axis-aligned rectangular region with its own profile."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    profile: SoilProfile

    def __post_init__(self) -> None:
        if not self.x_min <= self.x_max:
            raise ValueError(f"x_min {self.x_min} exceeds x_max {self.x_max}")
        if not self.y_min <= self.y_max:
            raise ValueError(f"y_min {self.y_min} exceeds y_max {self.y_max}")

    def contains(self, x: float, y: float) -> bool:
        return (self.x_min <= x <= self.x_max) and (self.y_min <= y <= self.y_max)


class PatchSoilField(SoilField):
    """Uniform base with rectangular overrides; first matching patch wins."""

    def __init__(self, base: SoilProfile, patches: list[SoilPatch] | None = None):
        super().__init__(base)
        self.patches = list(patches or [])

    def profile_at(self, x: float, y: float) -> SoilProfile:
        for patch in self.patches:
            if patch.contains(x, y):
                return patch.profile
        return self.base
