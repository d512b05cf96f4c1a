"""Span tracing from outside the program.

The tracer replaces chosen functions and methods of the loaded
``spikedozer`` modules with wrappers that record one span per call:
name, start, end, parent span and the item (trip, scenario or plan)
being worked on.  Spans stay in memory in compact arrays and are
written out once at the end.  Self time, the span's duration minus the
time covered by its child spans, and call counts are accumulated as
the spans close.

Nothing inside ``src/`` changes: the wrappers are installed on the
module and class attributes the program looks up at call time, and
every module that imported a wrapped function by name gets the wrapper
too, so calls are seen whichever module makes them.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable

# (module, class or None, attribute) of every wrapped layer boundary.
TARGETS = (
    ("scenario", None, "load_scenario"),
    ("scenario", None, "run_scenario"),
    ("planner", None, "plan_pad_mission"),
    ("planner", None, "estimate_energy"),
    ("planner", None, "validate_plan"),
    ("planner", None, "describe_plan"),
    ("planner", None, "execute_plan"),
    ("locomotion", "Machine", "advance"),
    ("locomotion", "Machine", "half_cycle"),
    ("locomotion", "Machine", "turn_to"),
    ("locomotion", "Machine", "dump_prism"),
    ("earthworks", "Terrain", "height_at"),
    ("earthworks", "Terrain", "cell_of"),
    ("earthworks", "Terrain", "profile_at_cell"),
    ("earthworks", "Terrain", "excavate"),
    ("earthworks", "Terrain", "rip"),
    ("earthworks", "Terrain", "deposit"),
    ("earthworks", "Terrain", "relax"),
    ("earthworks", "Terrain", "audit"),
    ("soils", "SoilField", "profile_at"),
    ("soils", "PatchSoilField", "profile_at"),
    ("soils", "SoilProfile", "resistance_at"),
    ("traction", None, "anchoring_slip"),
    ("traction", None, "lift_force"),
    ("traction", None, "ripper_downforce"),
    ("traction", None, "flip_margin"),
    ("traction", "SpikeGeometry", "depth_for_capacity"),
    ("traction", "SpikeGeometry", "holding_capacity"),
    ("sensing", None, "penetration_trace"),
    ("sensing", "PenetrationRecorder", "record"),
    ("rasters", None, "write_raster"),
    ("rasters", None, "write_table"),
    ("cli", None, "write_run_artifacts"),
)

MODULES = tuple(dict.fromkeys(t[0] for t in TARGETS))


def target_name(module: str, cls: str | None, attr: str) -> str:
    return ".".join(p for p in (module, cls, attr) if p)


class Tracer:
    """Wraps callables and keeps their spans; one thread only."""

    def __init__(self, item_of: Callable[[], int] = lambda: -1,
                 clock: Callable[[], float] = time.perf_counter):
        self.item_of = item_of
        self.clock = clock
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             observe: Callable | None = None) -> Callable:
        """A wrapper around `fn` that records a span named `name`.

        `observe(args, result)` runs after each call, outside the span,
        so derived metrics can read arguments and return values.
        """
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        s_name, s_parent, s_item = self.span_name, self.span_parent, self.span_item
        s_start, s_end = self.span_start, self.span_end
        item_of = self.item_of
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_item.append(item_of())
            s_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_end[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str,
                observers: dict[str, Callable] | None = None) -> None:
        """Wrap every target of the loaded `package` in place.

        `observers` maps a target name to its `observe` callback.
        """
        observers = observers or {}
        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == package or n.startswith(package + "."))]
        for module, cls, attr in TARGETS:
            owner = sys.modules[f"{package}.{module}"]
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            name = target_name(module, cls, attr)
            wrapper = self.wrap(name, original, observers.get(name))
            self._patch(owner, attr, wrapper)
            if cls is None:
                # Rebind names other modules imported with `from .x import f`.
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def stats(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        return {name: (n, s)
                for name, n, s in zip(self.names, self.calls, self.self_s)}

    def write(self, path: str) -> int:
        """Write every span as a compressed numpy archive; returns the count."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            item=np.frombuffer(self.span_item, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_start)
