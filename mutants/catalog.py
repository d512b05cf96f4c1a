"""Recorded mutants of the simulator, so that claims about test strength
can be run again.

Each mutant is one exact text edit to one file under `src/`: `old`, found
exactly once in `file`, becomes `new`.  A "killed" mutant makes at least
one test of `tests` fail; an "equivalent" one fails none of them, and
`reason` says why and what, outside pytest, sees it.  `recorded` names the
CHANGES.md entry that recorded the mutant, by its opening words.

    python3 mutants/run.py             # every mutant, two workers

`tests/test_mutant_catalog.py` checks in tier-1 that every `old` text
still occurs exactly once, so a change that moves mutated code updates
this catalog in the open.
"""

from __future__ import annotations

from typing import NamedTuple

EARTHWORKS = "src/spikedozer/earthworks.py"
LOCOMOTION = "src/spikedozer/locomotion.py"
SENSING = "src/spikedozer/sensing.py"
SCENARIO = "src/spikedozer/scenario.py"
CLI = "src/spikedozer/cli.py"

# the stroke-focused subset
STROKES = ("tests/test_stroke_corpus.py", "tests/test_golden.py", "tests/test_locomotion.py")

HALF_CYCLE_FIXED_COST = "A half-cycle's stroke path builds only what its tool prices"
ROUND_TWO = "A half-cycle's fixed cost, round two"
ONE_GRID_RULE = "One grid rule"
ONE_SEATING = "One path from a seating to its event"


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest paths or node ids, relative to the root
    recorded: str
    status: str  # "killed" or "equivalent"
    reason: str = ""  # for an equivalent mutant


MUTANTS = (
    Mutant(
        "closing-frames-never-collide", LOCOMOTION,
        "collides = self.seps.item(n) <= 0.0",
        "collides = self.seps.item(0) <= 0.0",
        ("tests/test_locomotion.py::TestStrokePathLayout",),
        HALF_CYCLE_FIXED_COST, "killed"),
    Mutant(
        "soil-table-reversed", LOCOMOTION,
        "for p in terrain.cell_soils[0]]).T",
        "for p in terrain.cell_soils[0][::-1]]).T",
        ("tests/test_locomotion.py::TestStrokePathSoil",),
        HALF_CYCLE_FIXED_COST, "killed"),
    Mutant(
        "ripping-force-from-the-blade", LOCOMOTION,
        "force = np.full(n, tools.face_force if cutting else tools.rip_face)",
        "force = np.full(n, tools.face_force)",
        ("tests/test_stroke_corpus.py",),
        HALF_CYCLE_FIXED_COST, "killed"),
    Mutant(
        "useful-work-restarts-each-span", LOCOMOTION,
        "worked[0] += useful  # the running sum goes on from `useful`",
        "worked[0] += 0.0",
        ("tests/test_golden.py", "tests/test_stroke_corpus.py"),
        HALF_CYCLE_FIXED_COST, "killed"),
    Mutant(
        "full-step-walk-never-steps-back", LOCOMOTION,
        "while n and advance_total - ts.item(n - 1) < STEP:",
        "while False:",
        ("tests/test_locomotion.py::TestStrokePathLayout",),
        HALF_CYCLE_FIXED_COST, "killed"),
    Mutant(
        "one-step-only-for-floats", LOCOMOTION,
        "one = not isinstance(rise, np.ndarray) or rise.ndim == 0",
        "one = isinstance(rise, float)",
        ("tests/test_planner.py::TestPeakDraft",),
        HALF_CYCLE_FIXED_COST, "killed"),
    Mutant(
        "noise-draw-split-in-the-wrong-order", SENSING,
        "trace = trace * (1.0 + noise[:-1])\n"
        "            np.maximum(trace, 1.0, out=trace)\n"
        "            temperature *= 1.0 + noise.item(-1)",
        "trace = trace * (1.0 + noise[1:])\n"
        "            np.maximum(trace, 1.0, out=trace)\n"
        "            temperature *= 1.0 + noise.item(0)",
        ("tests/test_sensing.py",),
        ROUND_TWO, "killed"),
    Mutant(
        "stale-seating-ground-after-the-pose-moved", LOCOMOTION,
        "seating = self._seating(seat_frame, cutting, sign)",
        "seating = seating if moved else self._seating(seat_frame, cutting, sign)",
        ("tests/test_locomotion.py::TestAdvance",),
        ROUND_TWO, "killed"),
    Mutant(
        "ripping-path-settles-nothing", LOCOMOTION,
        "if self.cells is None:\n            return",
        "if not self.cutting:\n            return",
        STROKES,
        ROUND_TWO, "killed"),
    Mutant(
        "grade-offsets-kept-through-a-turn", LOCOMOTION,
        "if self._grade_for != self.heading:",
        "if self._grade_for != self._grade_for:",
        STROKES,
        ROUND_TWO, "killed"),
    Mutant(
        "cells-of-takes-the-far-column", EARTHWORKS,
        "and j.max() < cols and",
        "and j.max() <= cols and",
        ("tests/test_earthworks.py",),
        ROUND_TWO, "killed"),
    Mutant(
        "cell-rule-takes-the-far-column", EARTHWORKS,
        "0.0 <= i < rows and 0.0 <= j < cols else None",
        "0.0 <= i < rows and 0.0 <= j <= cols else None",
        ("tests/test_earthworks.py::TestTerrainGrid",),
        ONE_GRID_RULE, "killed"),
    Mutant(
        "start-check-tests-only-the-center", SCENARIO,
        'for frame in ("rear", "front"):',
        "for frame in ():",
        ("tests/test_cli.py::TestSimulate::test_input_hole_exits_1",),
        ONE_GRID_RULE, "killed"),
    Mutant(
        "survey-origin-never-steps-down", CLI,
        "for origin in (float(fmt(k * cell)), float(fmt((k - 1) * cell))):",
        "for origin in (float(fmt(k * cell)),):",
        ("tests/test_cli.py::TestMap",),
        ONE_GRID_RULE, "killed"),
    Mutant(
        "survey-origin-not-as-printed", CLI,
        "for origin in (float(fmt(k * cell)), float(fmt((k - 1) * cell))):",
        "for origin in (k * cell, (k - 1) * cell):",
        ("tests/test_cli.py::TestMap",),
        ONE_GRID_RULE, "killed"),
    Mutant(
        "cell-centers-on-the-low-edges", EARTHWORKS,
        "return lo + (np.arange(n) + 0.5) * size",
        "return lo + np.arange(n) * size",
        ("tests/test_earthworks.py::TestTerrainGrid", "tests/test_golden.py"),
        ONE_GRID_RULE, "killed"),
    Mutant(
        "survey-cell-not-as-printed", CLI,
        "cell = float(fmt(cell))",
        "cell = float(cell)",
        ("tests/test_cli.py::TestMap",),
        ONE_GRID_RULE, "killed"),
    Mutant(
        "friction-hold-slips", LOCOMOTION,
        "return draft, ground, 0.0 if resists else anchoring_slip(draft, profile)",
        "return draft, ground, anchoring_slip(draft, profile)",
        ("tests/test_locomotion.py::TestAdvance"
         "::test_lands_on_target_when_the_frame_holds_by_friction",
         "tests/test_stroke_corpus.py"),
        ONE_SEATING, "killed"),
    Mutant(
        "turn-pin-slips", LOCOMOTION,
        "anchor_work = self._seat_frame(pin_frame, ground, f_turn, 0.0, offsets=(side,))",
        "anchor_work = self._seat_frame(pin_frame, ground, f_turn,"
        " anchoring_slip(f_turn, ground[2]), offsets=(side,))",
        ("tests/test_locomotion.py::TestTurning::test_the_pin_is_pressed_in_without_slip",
         "tests/test_stroke_corpus.py"),
        ONE_SEATING, "killed"),
)
