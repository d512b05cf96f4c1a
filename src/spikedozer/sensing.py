"""Opportunistic ground sensing from spike penetrations.

Every seating event is also a free cone-penetration test: the press knows
the force-depth trace of the spike going in.  Readings carry lower-bound
semantics: a spike stopping early proves the ground is at least that
strong at that depth, and the weakest reading over a footprint governs
anchoring there.  Events aggregate onto a survey raster per cell, with
NaN marking cells never touched.
"""

from __future__ import annotations

import csv
import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .earthworks import cell_at
from .soils import SoilField

SAMPLE_STEP = 0.01  # m, depth resolution of a penetration trace


@dataclass(frozen=True)
class GroundTemperatureField:
    """Linear subsurface temperature model T(depth) = surface + slope * d."""

    surface_K: float = 250.0
    gradient_K_per_m: float = -40.0

    def at(self, depth: float) -> float:
        if depth < 0.0:
            raise ValueError("depth must be non-negative")
        return self.surface_K + self.gradient_K_per_m * depth


@dataclass(frozen=True)
class PenetrationEvent:
    """One spike seating reduced to survey quantities.

    min_q and mean_q summarize the resistance trace over the seated
    depth; both are lower bounds on what a wider tool would feel, since
    the spike follows the locally weakest path.
    """

    index: int
    x: float
    y: float
    depth: float
    min_q: float
    mean_q: float
    temperature_K: float

    def as_row(self) -> tuple:
        return tuple(getattr(self, name) for name in EVENT_FIELDS)


# column -> the type its text parses to, in field order
_EVENT_TYPES = inspect.get_annotations(PenetrationEvent, eval_str=True)
EVENT_FIELDS = tuple(_EVENT_TYPES)


def penetration_trace(field: SoilField, x: float, y: float, depth: float) -> np.ndarray:
    """Noise-free resistance samples every SAMPLE_STEP from the surface to
    `depth`, as a shared read-only array.

    The probe reads the weakest material in its immediate neighborhood,
    so the sample at each step is the minimum profile resistance over the
    probe point and four laterally offset points.
    """
    if depth <= 0.0:
        raise ValueError("trace depth must be positive")
    offsets = ((0.0, 0.0), (SAMPLE_STEP, 0.0), (-SAMPLE_STEP, 0.0),
               (0.0, SAMPLE_STEP), (0.0, -SAMPLE_STEP))
    return _clean_trace(tuple(field.profile_at(x + ox, y + oy) for ox, oy in offsets), depth)


@functools.lru_cache(maxsize=1024)
def _clean_trace(profiles: tuple, depth: float) -> np.ndarray:
    """The noise-free samples of `penetration_trace` through the probed
    `profiles`, read-only as every caller shares them."""
    steps = max(1, round(depth / SAMPLE_STEP))
    out = np.array([min(p.resistance_at((k + 1) * depth / steps) for p in profiles)
                    for k in range(steps)])
    out.flags.writeable = False
    return out


class PenetrationRecorder:
    """Collects penetration events during a mission."""

    def __init__(
        self,
        field: SoilField,
        temperature: GroundTemperatureField | None = None,
        rng: np.random.Generator | None = None,
        noise_rel: float = 0.0,
    ):
        self.field = field
        self.temperature = temperature or GroundTemperatureField()
        self.rng = rng
        self.noise_rel = noise_rel
        self.events: list[PenetrationEvent] = []

    def record(self, x: float, y: float, depth: float) -> PenetrationEvent:
        """Log a spike seated `depth` deep at (x, y).  One noise draw gives
        the relative noise of each trace sample, each noisy sample floored
        at 1, then the temperature's."""
        trace = penetration_trace(self.field, x, y, depth)
        temperature = self.temperature.at(depth)
        if self.rng is not None and self.noise_rel > 0.0:
            noise = self.rng.uniform(-self.noise_rel, self.noise_rel, len(trace) + 1)
            trace = trace * (1.0 + noise[:-1])
            np.maximum(trace, 1.0, out=trace)
            temperature *= 1.0 + noise.item(-1)
        event = PenetrationEvent(
            index=len(self.events),
            x=x, y=y, depth=depth,
            min_q=float(trace.min()),
            mean_q=float(trace.sum()) / len(trace),  # trace.mean() to the bit
            temperature_K=temperature,
        )
        self.events.append(event)
        return event


def load_events(path: str) -> list[PenetrationEvent]:
    """Read an event log CSV written with EVENT_FIELDS back into events.
    A value that does not parse, or is not finite, is an error naming the
    file and the line."""
    events: list[PenetrationEvent] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(EVENT_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path} lacks event columns: {sorted(missing)}")
        for row in reader:
            try:
                values = {name: kind(row[name]) for name, kind in _EVENT_TYPES.items()}
            except (TypeError, ValueError) as exc:  # TypeError: a short row's None
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
            bad = [name for name, value in values.items() if not math.isfinite(value)]
            if bad:
                raise ValueError(f"{path} line {reader.line_num}: {', '.join(bad)} not finite")
            events.append(PenetrationEvent(**values))
    return events


def rasterize_events(
    events: list[PenetrationEvent],
    shape: tuple[int, int],
    cell_size: float,
    origin: tuple[float, float] = (0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Survey rasters (min_q, mean_q) from a list of events.

    Cell min is the minimum of event minima, keeping the lower-bound
    reading; cell mean is the mean of event means.  Cells without any
    event are NaN.  An event counts in its `earthworks.cell_at` cell, and an
    event off the raster nowhere; a `map` survey's raster holds every event.
    """
    min_q = np.full(shape, np.nan)
    sum_q = np.zeros(shape)
    count = np.zeros(shape, dtype=int)
    for ev in events:
        cell = cell_at(shape, cell_size, origin, ev.x, ev.y)
        if cell is None:
            continue
        if count[cell] == 0 or ev.min_q < min_q[cell]:
            min_q[cell] = ev.min_q
        sum_q[cell] += ev.mean_q
        count[cell] += 1
    mean_q = np.full(shape, np.nan)
    touched = count > 0
    mean_q[touched] = sum_q[touched] / count[touched]
    return min_q, mean_q
