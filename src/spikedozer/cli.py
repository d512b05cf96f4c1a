"""Command-line front end: run scenarios, emit artifacts, print tables.

Subcommands
    simulate  execute one or more scenario files and write the full
              artifact set per run: trajectory.csv, energy.csv,
              events.csv, surface/bank/loose rasters, and plan.txt for
              pad missions
    plan      plan a pad mission without executing it; writes plan.txt
    map       build min/mean strength survey rasters from an event log, each
              event in its cell of the grid that the raster header prints
    report    tabulate the operating numbers of a vehicle preset

Every artifact is deterministic for a fixed (scenario, seed): numeric
output is fixed at nine significant digits and wall-clock time never
enters a file (timings go to the console only).

Exit codes: 0 success, 1 bad input, 2 runtime failure (stuck, flip,
unsettled ground).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import SimulationError
from .locomotion import RECORD_FIELDS, VEHICLES, conventional_drawbar_per_mass
from .earthworks import cell_at, check_grid_size
from .planner import describe_plan
from .rasters import fmt, write_raster, write_table, write_text
from .scenario import RunResult, load_scenario, plan_and_validate, run_scenario
from .sensing import EVENT_FIELDS, load_events, rasterize_events
from .soils import ENVIRONMENTS, SOILS
from .traction import (
    anchoring_work,
    derated_pull_weight_ratio,
    pull_weight_ratio,
    tractive_efficiency,
)


def write_run_artifacts(result: RunResult, out_dir: str) -> None:
    """Write the standard artifact set for one finished run."""
    machine = result.machine
    terrain = result.terrain
    write_table(
        os.path.join(out_dir, "trajectory.csv"), RECORD_FIELDS,
        [[getattr(c, f) for f in RECORD_FIELDS] for c in machine.cycles])
    totals = machine.energy_totals()
    write_table(
        os.path.join(out_dir, "energy.csv"), ("category", "value"),
        [[k, v] for k, v in totals.items()])
    write_table(
        os.path.join(out_dir, "events.csv"), EVENT_FIELDS,
        [ev.as_row() for ev in result.recorder.events])
    cell, origin = terrain.cell_size, terrain.origin
    write_raster(os.path.join(out_dir, "surface.csv"), terrain.surface(),
                 cell, origin)
    write_raster(os.path.join(out_dir, "bank.csv"), terrain.bank_floor,
                 cell, origin)
    write_raster(os.path.join(out_dir, "loose.csv"), terrain.loose_depth,
                 cell, origin)
    if result.plan is not None:
        _write_plan_file(os.path.join(out_dir, "plan.txt"),
                         result.plan, result.violations or [])


def _write_plan_file(path: str, plan, violations: list[str]) -> None:
    text = describe_plan(plan)
    if violations:
        text += "\nfindings\n" + "\n".join(violations) + "\n"
    else:
        text += "\nfindings\nnone\n"
    write_text(path, text)


def _run_one(path: str, out_dir: str, seed: int | None) -> str:
    """Worker for one scenario run; returns a console summary line."""
    started = time.perf_counter()
    scn = load_scenario(path, seed_override=seed)
    result = run_scenario(scn)
    write_run_artifacts(result, out_dir)
    elapsed = time.perf_counter() - started
    summary = (f"{scn.name}: {len(result.machine.cycles)} half-cycles, "
               f"{len(result.recorder.events)} events")
    if result.mission is not None:
        summary += (f", excavated {result.mission.excavated_bank:.9g} m3 bank, "
                    f"audit residual {result.mission.audit_residual:.3g}")
    return f"{summary}, {elapsed:.1f} s -> {out_dir}"


def _cmd_simulate(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    paths = args.scenario
    if len(paths) == 1:
        targets = [(paths[0], args.out)]
    else:
        targets = [
            (p, os.path.join(args.out, os.path.splitext(os.path.basename(p))[0]))
            for p in paths]
        if len({t[1] for t in targets}) != len(targets):
            raise ValueError("scenario files must have distinct names "
                             "to share one output directory")
    if args.jobs > 1 and len(targets) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [
                pool.submit(_run_one, p, out, args.seed) for p, out in targets]
            for future in futures:
                print(future.result())
    else:
        for p, out in targets:
            print(_run_one(p, out, args.seed))
    return 0


def _cmd_plan(args) -> int:
    started = time.perf_counter()
    if len(args.scenario) > 1:
        raise ValueError(f"the plan subcommand plans one scenario; got "
                         f"{len(args.scenario)} --scenario files")
    scn = load_scenario(args.scenario[0], seed_override=args.seed)
    if scn.pad is None:
        raise ValueError("the plan subcommand needs a scenario with a 'pad'")
    plan, violations = plan_and_validate(scn)
    _write_plan_file(os.path.join(args.out, "plan.txt"), plan, violations)
    print(f"{scn.name}: {len(plan.lane)} trips over {plan.n_lanes} lanes, "
          f"budget {plan.energy_budget:.9g} J, "
          f"{len(violations)} findings, "
          f"{time.perf_counter() - started:.1f} s -> {args.out}")
    return 0


def _survey_axis(values: list[float], cell: float) -> tuple[float, float]:
    """Origin and cell count of one axis of a survey raster over `values`: a whole
    number of cells as the header prints it, one lower where rounding leaves the lowest
    value below it, so `cell_at` puts every value on the axis; inf cells on overflow."""
    low, high, row = min(values), max(values), (1, math.inf)  # one unbounded row
    k = math.floor(low / cell) if math.isfinite(low / cell) else 0  # the lattice from 0
    for origin in (float(fmt(k * cell)), float(fmt((k - 1) * cell))):
        if cell_at(row, cell, (origin, 0.0), low, 0.0) is not None:
            top = cell_at(row, cell, (origin, 0.0), high, 0.0)
            return origin, math.inf if top is None else top[1] + 1
    raise ValueError(f"no raster header origin lies within a {cell:.9g} m cell below {low!r}")


def _cmd_map(args) -> int:
    cell = args.cell_size
    if not (math.isfinite(cell) and cell > 0.0):
        raise ValueError(f"--cell-size must be a positive finite number, "
                         f"got {cell!r}")
    cell = float(fmt(cell))  # the cell size as the raster header prints it
    events = load_events(args.events)
    if not events:
        raise ValueError(f"{args.events} holds no events to map")
    ox, cols = _survey_axis([ev.x for ev in events], cell)
    oy, rows = _survey_axis([ev.y for ev in events], cell)
    check_grid_size(rows, cols, f"the events need a {rows} x {cols} raster of "
                    f"{cell:.9g} m cells")
    min_q, mean_q = rasterize_events(events, (rows, cols), cell, (ox, oy))
    write_raster(os.path.join(args.out, "min_q.csv"), min_q, cell, (ox, oy))
    write_raster(os.path.join(args.out, "mean_q.csv"), mean_q, cell, (ox, oy))
    covered = int(np.sum(~np.isnan(min_q)))
    print(f"{len(events)} events -> {rows}x{cols} raster, "
          f"{covered} cells covered -> {args.out}")
    return 0


def _cmd_report(args) -> int:
    vehicle = VEHICLES[args.vehicle]
    spike = vehicle.spike
    lines = [f"operating numbers for the {vehicle.name} vehicle", ""]

    lines.append("thrust angle calibration")
    for depth in (0.0, 0.10, 0.20, spike.max_depth):
        lines.append(f"  depth {fmt(depth)} m -> "
                     f"beta {fmt(spike.thrust_angle_deg(depth))} deg")
    lines.append("")

    lines.append("pull/weight against thrust angle (derating factor 2)")
    lines.append("  beta_deg,pull_weight,operational")
    for beta in (5, 10, 15, 20, 25, 30, 35, 40, 45):
        lines.append(
            f"  {beta},{fmt(pull_weight_ratio(beta))},"
            f"{fmt(derated_pull_weight_ratio(beta))}")
    lines.append("")

    lines.append("anchoring work to hold 300 N")
    for name, soil in sorted(SOILS.items()):
        lines.append(f"  {name}: {fmt(anchoring_work(300.0, soil))} J")
    lines.append("")

    lines.append("cycle efficiency, 2 m advance against 300 N on soft ground")
    useful = 300.0 * 2.0
    anchoring = anchoring_work(300.0, SOILS["soft"])
    for eps in (0.0, 0.5):
        eff = tractive_efficiency(useful, anchoring, eps * anchoring)
        lines.append(f"  extraction ratio {fmt(eps)}: "
                     f"efficiency {fmt(eff)}")
    lines.append("")

    lines.append("drawbar pull per kg, friction-limited tracked baseline")
    for name in ("earth", "moon"):
        env = ENVIRONMENTS[name]
        lines.append(f"  {name}: {fmt(conventional_drawbar_per_mass(env))} N/kg")
    lines.append("  spike drive: pull/weight set by geometry alone, "
                 "identical in any gravity")

    text = "\n".join(lines) + "\n"
    write_text(os.path.join(args.out, "report.txt"), text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikedozer",
        description="Quasi-static push-pull bulldozer simulator and planner.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", action="append", required=True,
                           help="scenario JSON file (repeatable for sweeps)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")

    p_sim = sub.add_parser("simulate", help="run scenarios, write artifacts")
    add_common(p_sim)
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="run scenarios concurrently")
    p_sim.set_defaults(func=_cmd_simulate)

    p_plan = sub.add_parser("plan", help="plan a pad mission only")
    add_common(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    p_map = sub.add_parser("map", help="survey rasters from an event log")
    p_map.add_argument("--events", required=True, help="events.csv from a run")
    p_map.add_argument("--cell-size", type=float, default=0.25)
    p_map.add_argument("--out", default="out")
    p_map.set_defaults(func=_cmd_map)

    p_rep = sub.add_parser("report", help="tabulate vehicle operating numbers")
    p_rep.add_argument("--vehicle", default="reference",
                       choices=sorted(VEHICLES))
    p_rep.add_argument("--out", default="out")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (SimulationError, RuntimeError) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
