"""One timed pass of a workload through the program's user-facing calls.

``simulate --jobs 1`` is ``load_scenario -> run_scenario ->
cli.write_run_artifacts`` for each scenario file; ``plan`` is
``load_scenario -> plan_pad_mission -> validate_plan -> plan.txt``.
Each operation (the pad mission, one drive scenario, one plan) is timed
from its first load to its last artifact written; its correctness checks
run afterwards, outside the timed region.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import re
import shutil
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

PACKAGE = "spikedozer"
AUDIT_LIMIT = 1e-9
VOLUME_TOLERANCE = 0.02
_NON_FINITE = re.compile(rb"(?i)(?<![a-z])(nan|inf)(?![a-z])")


def import_program() -> SimpleNamespace:
    """Import the package afresh and return its modules by short name."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    return SimpleNamespace(**{
        n.split(".", 1)[1]: m for n, m in sys.modules.items()
        if n.startswith(PACKAGE + ".")})


class ItemClock:
    """Times the segments of each operation, with a speed probe between them.

    ``begin()`` starts an operation's first segment and ``mark()`` ends
    the current segment and starts the next.  Each boundary runs
    ``probe()``, whose own time falls between segments and is never
    counted.  A segment is stored as (seconds, probe seconds averaged over
    its two ends, whether it is an item).
    """

    def __init__(self, probe: Callable[[], float]):
        self.probe = probe
        self.reset()

    def reset(self) -> None:
        self.segments: list[tuple[float, float, bool]] = []
        self.item = 0  # index of the current segment: trip, scenario or plan
        self._start = 0.0
        self._probe = 0.0

    def begin(self) -> None:
        self._probe = self.probe()
        self._start = time.perf_counter()

    def mark(self, is_item: bool = True) -> None:
        end = time.perf_counter()
        probe = self.probe()
        self.segments.append((end - self._start, 0.5 * (self._probe + probe),
                              is_item))
        self.item = len(self.segments)
        self._probe = probe
        self._start = time.perf_counter()


def hook_trip_ends(mods: SimpleNamespace, clock: ItemClock):
    """Mark a segment each time ``Machine.dump_prism`` returns (one per trip).

    Items run from one dump to the next.  The segment that ends at the
    first dump also holds loading, planning and terrain set-up, so it is
    not an item.  Returns a function that removes the hook.
    """
    machine = mods.locomotion.Machine
    original = machine.__dict__["dump_prism"]
    dumped = [False]

    def dump_prism(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        finally:
            clock.mark(is_item=dumped[0])
            dumped[0] = True

    machine.dump_prism = dump_prism
    return lambda: setattr(machine, "dump_prism", original)


@dataclass
class PassResult:
    """Segments are (seconds, probe seconds, is_item) as ItemClock keeps them."""

    segments: list[tuple[float, float, bool]] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    counters: dict[str, float] = field(default_factory=dict)


def _artifact_problems(out_dir: str) -> list[str]:
    problems = []
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            if _NON_FINITE.search(fh.read()):
                problems.append(f"{name} holds a non-finite value")
    return problems


def digest_tree(root: str) -> str:
    """sha256 over every file under `root`, by relative path and content."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def _machine_counters(result, counters: dict[str, float]) -> None:
    cycles = result.machine.cycles
    counters["half_cycles"] += len(cycles)
    counters["frame_travel_m"] += sum(abs(c.free_advance) for c in cycles)
    counters["sensing_events"] += len(result.recorder.events)


def _check_pad(result) -> list[str]:
    mission, plan = result.mission, result.plan
    problems = []
    if not mission.audit_residual < AUDIT_LIMIT:
        problems.append(f"mass audit residual {mission.audit_residual:.3g}")
    planned = plan.planned_bank_volume
    if not abs(mission.excavated_bank - planned) <= VOLUME_TOLERANCE * planned:
        problems.append(f"excavated {mission.excavated_bank:.6g} m3 of "
                        f"{planned:.6g} m3 planned")
    if mission.trips_run != len(plan.trips):
        problems.append(f"{mission.trips_run} of {len(plan.trips)} trips run")
    return problems


def _check_drive(result) -> list[str]:
    residual = result.terrain.audit().residual
    if not residual < AUDIT_LIMIT:
        return [f"mass audit residual {residual:.3g}"]
    return []


def _check_plan(plan) -> list[str]:
    problems = []
    ii, jj = (plan.claims >= 0).nonzero()
    claimed = set(zip(ii.tolist(), jj.tolist()))
    for lift in range(plan.n_lifts):
        trips = [t.cells for t in plan.trips if t.lift == lift]
        held = sum(len(cells) for cells in trips)
        covered = set().union(*trips)
        # Equal sets and equal counts: every claimed cell in exactly one trip.
        if covered != claimed or held != len(claimed):
            problems.append(f"lift {lift}: trips hold {held} cells, "
                            f"{len(covered & claimed)} of {len(claimed)} "
                            f"claimed and {len(covered - claimed)} unclaimed")
    pad = plan.pad
    expected = math.pi * pad.radius ** 2 * pad.depth
    if not abs(plan.planned_bank_volume - expected) <= VOLUME_TOLERANCE * expected:
        problems.append(f"planned bank {plan.planned_bank_volume:.6g} m3 "
                        f"against pi r^2 d = {expected:.6g} m3")
    return problems


def run_pass(workload: str, paths: list[str], out_root: str,
             mods: SimpleNamespace, clock: ItemClock) -> PassResult:
    """Run every scenario of the workload once; `out_root` is emptied first."""
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    res = PassResult(counters=dict.fromkeys(
        ("half_cycles", "frame_travel_m", "sensing_events", "planner_trips"),
        0.0))
    clock.reset()
    unhook = (hook_trip_ends(mods, clock) if workload == "pad_r6"
              else (lambda: None))
    try:
        for path in paths:
            _run_and_check(workload, path, out_root, mods, clock, res)
    finally:
        unhook()
    res.digest = digest_tree(out_root)
    return res


def _run_and_check(workload: str, path: str, out_root: str,
                   mods: SimpleNamespace, clock: ItemClock,
                   res: PassResult) -> None:
    """Run one operation and add its time, checks and counts to `res`."""
    res.attempted += 1
    name = os.path.splitext(os.path.basename(path))[0]
    out_dir = out_root if workload == "pad_r6" else os.path.join(out_root, name)
    first = len(clock.segments)
    try:
        done, problems = _run_op(workload, path, out_dir, mods, clock)
    except Exception as err:  # one failed operation must not end the pass
        res.failures.append(f"{name}: {type(err).__name__}: {err}")
        return
    res.segments.extend(clock.segments[first:])
    problems += _artifact_problems(out_dir)
    res.failures.extend(f"{name}: {p}" for p in problems)
    if workload == "plan_sweep":
        res.counters["planner_trips"] += len(done.trips)
    else:
        _machine_counters(done, res.counters)
        if done.plan is not None:
            res.counters["planner_trips"] += len(done.plan.trips)


def _run_op(workload: str, path: str, out_dir: str, mods: SimpleNamespace,
            clock: ItemClock) -> tuple[object, list[str]]:
    """Run one operation, timed by `clock` from first load to last artifact.

    Returns the plan or run result and the failed checks.
    """
    scenario, planner, cli = mods.scenario, mods.planner, mods.cli
    clock.begin()
    if workload == "plan_sweep":
        scn = scenario.load_scenario(path)
        plan = planner.plan_pad_mission(scn.pad, scn.vehicle, scn.environment,
                                        scn.base_profile)
        violations = planner.validate_plan(plan, scn.environment,
                                           scn.base_profile)
        cli._write_plan_file(os.path.join(out_dir, "plan.txt"), plan, violations)
        clock.mark()
        return plan, _check_plan(plan)
    result = scenario.run_scenario(scenario.load_scenario(path))
    cli.write_run_artifacts(result, out_dir)
    if workload == "drive_sweep":
        clock.mark()
        return result, _check_drive(result)
    # What follows the last dump is not a trip.
    clock.mark(is_item=False)
    return result, _check_pad(result)
