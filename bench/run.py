"""Benchmark entry point for the spikedozer simulator and planner.

    python3 bench/run.py --workload pad_r6 --seed 0 --seconds 35 --trace 0

Generates the workload's scenario files from the seed, imports the
program from ``src/`` of this checkout, and drives it through the calls
the ``simulate --jobs 1`` and ``plan`` commands make, in one process and
one thread.  Every operation's output is checked.  A table of metrics
goes to standard output, and its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` repeats whole passes for about ``--seconds`` and reports the
end-to-end metrics (medians over passes, percentiles over items).  Each
timed stretch is scaled to the machine's reference speed by the probe of
``calibrate.py`` run next to it; the table also prints unscaled seconds.
``--trace 1`` makes one plain pass, then one pass with the tracer of
``tracer.py`` wrapped round every layer boundary, and reports per-layer
self time and work counts; both passes must write identical artifacts.

Scratch files go under ``.bench_work/`` in the checkout and are removed
at the end, except the traced run's spans in ``.bench_work/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import calibrate
import passes
import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 8  # set-ups timed before each pass
SETUP_SAMPLES = 48  # fewest set-ups the setup_s median rests on

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_ms_p50": "ms",
    "item_ms_p75": "ms",
    "peak_rss_mb": "MB",
}

DERIVED = {
    "locomotion.half_cycles": "count",
    "locomotion.frame_travel_m": "m",
    "locomotion.Machine.half_cycle.us_per_m": "us/m",
    "earthworks.Terrain.height_at.ns_per_call": "ns",
    "earthworks.Terrain.relax.passes": "count",
    "earthworks.Terrain.relax.useful_pass_ratio": "ratio",
    "sensing.events": "count",
    "rasters.bytes": "B",
    "rasters.write_raster.MB_per_s": "MB/s",
    "planner.trips": "count",
    "trace.wall_s": "s",
    "trace_overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for target in tracing.TARGETS:
        name = tracing.target_name(*target)
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for module in tracing.MODULES:
        units[f"{module}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _timed_setup(paths: list[str], repeats: int, samples: list, probe):
    """Import the program and parse every input, `repeats` times over.

    Appends (seconds, probe seconds) for each to `samples` and returns
    the last import.
    """
    for _ in range(repeats):
        before = probe()
        t0 = time.perf_counter()
        mods = passes.import_program()
        for path in paths:
            mods.scenario.load_scenario(path)
        elapsed = time.perf_counter() - t0
        samples.append((elapsed, 0.5 * (before + probe())))
    return mods


def _scaled(samples, exponent: float) -> list[float]:
    """Seconds of each (seconds, probe seconds, ...) sample, scaled to the
    reference machine speed by (reference / probe) ** exponent.

    Exponent 1 assumes the work slows exactly as the probe does; 0 leaves
    the seconds as measured.
    """
    ref = calibrate.REFERENCE_PROBE_S
    return [s[0] * (ref / s[1]) ** exponent for s in samples]


def _no_probe() -> float:
    return calibrate.REFERENCE_PROBE_S


def _p75(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[2]


def _layer_metrics(stats, counters, written, traced_wall, plain_wall):
    out = {}
    for name, (calls, self_s) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for module in tracing.MODULES:
        out[f"{module}.self_s"] = sum(
            s for name, (_, s) in stats.items() if name.split(".")[0] == module)
    hc_calls, hc_self = stats["locomotion.Machine.half_cycle"]
    h_calls, h_self = stats["earthworks.Terrain.height_at"]
    relax_calls = stats["earthworks.Terrain.relax"][0]
    relax_passes = written["relax_passes"]
    raster_bytes = sum(os.path.getsize(p) for p in set(written["raster"]))
    table_bytes = sum(os.path.getsize(p) for p in set(written["table"]))
    raster_self = stats["rasters.write_raster"][1]
    travel = counters["frame_travel_m"]
    out.update({
        "locomotion.half_cycles": counters["half_cycles"],
        "locomotion.frame_travel_m": travel,
        "locomotion.Machine.half_cycle.us_per_m":
            1e6 * hc_self / travel if travel > 0 else 0.0,
        "earthworks.Terrain.height_at.ns_per_call":
            1e9 * h_self / h_calls if h_calls else 0.0,
        "earthworks.Terrain.relax.passes": relax_passes,
        "earthworks.Terrain.relax.useful_pass_ratio":
            (relax_passes - relax_calls) / relax_passes if relax_passes else 0.0,
        "sensing.events": counters["sensing_events"],
        "rasters.bytes": raster_bytes + table_bytes,
        "rasters.write_raster.MB_per_s":
            raster_bytes / 1e6 / raster_self if raster_self > 0 else 0.0,
        "planner.trips": counters["planner_trips"],
        "trace.wall_s": traced_wall,
        "trace_overhead_s": traced_wall - plain_wall,
    })
    return out


def _traced_pass(workload, paths, out_dir, mods, clock, spans_path):
    written = {"relax_passes": 0, "raster": [], "table": []}

    def count_passes(args, result):
        written["relax_passes"] += result

    observers = {
        "earthworks.Terrain.relax": count_passes,
        "rasters.write_raster": lambda args, result: written["raster"].append(args[0]),
        "rasters.write_table": lambda args, result: written["table"].append(args[0]),
    }
    tr = tracing.Tracer(item_of=lambda: clock.item)
    tr.install(passes.PACKAGE, observers=observers)
    try:
        res = passes.run_pass(workload, paths, out_dir, mods, clock)
    finally:
        tr.uninstall()
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    n_spans = tr.write(spans_path)
    return res, tr.stats(), written, n_spans


def _report(res_list):
    """Operation counts, failure lines and digests over a run's passes."""
    attempted = sum(r.attempted for r in res_list)
    failed = sum(len({f.split(":", 1)[0] for f in r.failures}) for r in res_list)
    failures = [f for r in res_list for f in r.failures]
    digests = {r.digest for r in res_list}
    correct = not failures and len(digests) == 1
    return attempted, failed, failures, digests, correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, passes.PACKAGE, "__init__.py")):
        print(f"error: no {passes.PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        docs = workloads.generate(args.workload, args.seed)
        paths = workloads.write_inputs(docs, os.path.join(run_dir, "inputs"))
        out_dir = os.path.join(run_dir, "out")
        if args.trace:
            return _run_traced(args, paths, out_dir)
        return _run_plain(args, paths, out_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run_plain(args, paths, out_dir) -> int:
    results, durations, setup = [], [], []
    clock = passes.ItemClock(calibrate.probe)
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # Set-up is sampled before every pass so that its median, like the
        # passes', spans the whole run rather than its first second.
        mods = _timed_setup(paths, SETUP_REPEATS, setup, calibrate.probe)
        results.append(passes.run_pass(args.workload, paths, out_dir, mods, clock))
        durations.append(time.perf_counter() - t0)
        if len(results) == 1:
            # Peak memory as one simulate or plan command holds it.  Each
            # later pass adds allocator growth from re-imports, and how
            # many passes fit depends on the machine's speed.
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0)
        # Start another pass only if it should end within --seconds.
        if time.perf_counter() - started + max(durations) > args.seconds:
            break
    # Slow spells leave few passes, so set up again until the median of
    # set-up times rests on enough samples.
    while len(setup) < SETUP_SAMPLES:
        _timed_setup(paths, 1, setup, calibrate.probe)

    attempted, failed, failures, digests, correct = _report(results)
    table = {}
    for scale in (True, False):
        k = workloads.PROBE_EXPONENT[args.workload] if scale else 0.0
        items = [x for r in results
                 for x in _scaled([g for g in r.segments if g[2]], k)]
        items = items or [0.0]
        table[scale] = {
            "setup_s": statistics.median(_scaled(setup, 1.0 if scale else 0.0)),
            "wall_s": statistics.median(
                sum(_scaled(r.segments, k)) for r in results),
            "item_ms_p50": 1e3 * statistics.median(items),
            "item_ms_p75": 1e3 * _p75(items),
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = table[True]

    print(f"workload {args.workload} seed {args.seed}: {len(results)} passes, "
          f"{len(items)} items, {attempted} operations")
    for digest in sorted(digests):
        print(f"artifact digest {digest}")
    for failure in failures:
        print(f"failed {failure}")
    print(f"{'metric':16s} {'value':>14s} {'unit':6s} {'unscaled':>14s}")
    for name, value in metrics.items():
        print(f"{name:16s} {value:14.6f} {END_TO_END[name]:6s} "
              f"{table[False][name]:14.6f}")
    print(f"{'ops_failed_ratio':16s} {failed / attempted:14.6f} ratio  "
          f"({failed} of {attempted})")
    print(f"{'item samples':16s} {len(items):14d} count")
    print(f"{'setup samples':16s} {len(setup):14d} count")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": END_TO_END[n]}
                    for n, v in metrics.items()},
    }))
    return 0


def _run_traced(args, paths, out_dir) -> int:
    # Probing would add to the traced spans' self time, so both passes here
    # report unscaled seconds.
    mods = _timed_setup(paths, 1, [], _no_probe)
    clock = passes.ItemClock(_no_probe)
    plain = passes.run_pass(args.workload, paths, out_dir, mods, clock)
    spans_path = os.path.join(WORK, "trace", f"{args.workload}.npz")
    t0 = time.perf_counter()
    traced, stats, written, n_spans = _traced_pass(
        args.workload, paths, out_dir, mods, clock, spans_path)
    t_traced = time.perf_counter() - t0
    attempted, failed, failures, digests, correct = _report([plain, traced])
    units = per_layer_units()
    metrics = _layer_metrics(stats, traced.counters, written,
                             sum(_scaled(traced.segments, 0.0)),
                             sum(_scaled(plain.segments, 0.0)))

    print(f"workload {args.workload} seed {args.seed}: traced pass "
          f"{t_traced:.3f} s, {n_spans} spans -> {spans_path}")
    for digest in sorted(digests):
        print(f"artifact digest {digest}")
    for failure in failures:
        print(f"failed {failure}")
    for name in units:
        print(f"{name:48s} {metrics[name]:16.6f} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
