"""Closed-loop benchmark of the daccbs planner.

    python3 perfbench/run.py --workload {starved,contested,offline-cbs} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from `src/`.  One run
generates its workload's MovingAI files under `.bench_build/perfbench/`, sets
the instances up several times, then repeats passes over them (in an order
drawn from --seed) until S seconds have gone.  Every operation is checked by
`gate.py`.  With --trace 0 it reports the end-to-end metrics; with --trace 1
it alternates untraced and traced passes and reports per-layer metrics.

End-to-end timings are scaled to a nominal machine speed: a `speed.Meter`
times a fixed reference computation after every control step, solve and
set-up, and gives the factor that scales it (see `speed.py`).  Per-layer
timings are raw, and a traced run takes no references.

The second-to-last line of output is a report-only JSON object (raw timings,
reference times, sample counts, failures); the last line is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPS = 7


def import_program() -> None:
    if not (SRC / "daccbs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no daccbs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import daccbs

    if Path(daccbs.__file__).resolve().parent != SRC / "daccbs":
        sys.exit(f"perfbench: imported daccbs from {daccbs.__file__}, not {SRC}")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_share")):
        return "ratio"
    return {
        "factorization.region_size_mean": "vertices",
        "factorization.groups_mean": "groups",
        "cbs.h_r_mean": "steps",
    }.get(name, "count")


def end_to_end(passes, setups, nominal=True) -> dict[str, tuple[float, str]]:
    """End-to-end metrics, with timings at nominal speed unless `nominal` is
    false.  `setups` is a list of (wall, nominal wall) pairs."""
    results = [r for _, _, rs in passes for r in rs]
    walls = [w for r in results for w in (r.nominal_walls if nominal else r.step_walls)]
    op_s = sum(r.nominal_s if nominal else r.wall_s for r in results)
    deciles = statistics.quantiles(walls, n=10, method="inclusive")
    increments = [sum(r.soc_increment or 0 for r in rs) for _, _, rs in passes]
    return {
        "setup_s": (statistics.median(n if nominal else w for w, n in setups), "s"),
        "step_p50_ms": (deciles[4] * 1000.0, "ms"),
        "step_p90_ms": (deciles[8] * 1000.0, "ms"),
        "deadline_miss_frac": (sum(r.missed for r in results) / len(walls), "ratio"),
        "steps_per_s": (len(walls) / op_s, "1/s"),
        "soc_increment": (statistics.median(increments), "moves"),
        "solve_s": (op_s / len(passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    perfbench_dir = str(Path(__file__).resolve().parent)
    if perfbench_dir not in sys.path:
        sys.path.insert(0, perfbench_dir)
    import_program()
    import gate
    import layers
    import speed
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    work = workloads.WORKLOADS[args.workload]
    files = workloads.write_files(work, WORK_DIR / work.name)

    setup_tracer = layers.Tracer()
    meter = speed.Meter(enabled=not args.trace)
    setups = []  # (wall, nominal wall)
    for _ in range(SETUP_REPS):
        gc.collect()  # each set-up starts from the same heap state
        with layers.install(setup_tracer) if args.trace else contextlib.nullcontext():
            loaded, wall = workloads.set_up(work, files)
        setups.append((wall, wall * meter.tick()))

    # Whole passes only, stopping at the pass count that ends nearest to the
    # requested time.  In a traced run, odd passes are traced and even ones
    # are not, so both see the same machine conditions and their ratio is the
    # tracing overhead.  A pass's wall excludes the meter's references.
    rng = random.Random(args.seed)
    tally = gate.Tally()
    tracer = layers.Tracer()
    passes = []  # (traced, wall, [OpResult])
    start = perf_counter()
    while (
        not passes
        or perf_counter() - start + passes[-1][1] / 2 < args.seconds
        or (args.trace and len(passes) < 2)
    ):
        traced = bool(args.trace) and len(passes) % 2 == 1
        order = rng.sample(loaded, len(loaded))
        with layers.install(tracer) if traced else contextlib.nullcontext():
            spent = meter.spent_s
            t0 = perf_counter()
            results = [workloads.run_op(work, item, tally, meter) for item in order]
            passes.append((traced, perf_counter() - t0 - (meter.spent_s - spent), results))

    plain = [p for p in passes if not p[0]]
    if args.trace:
        traced_passes = [p for p in passes if p[0]]
        metrics = layers.layer_metrics(tracer, len(traced_passes))
        metrics["grid.load_s"] = setup_tracer.total_s["grid.load_map"] / SETUP_REPS
        metrics["grid.instance_s"] = setup_tracer.total_s["grid.load_scenario"] / SETUP_REPS
        metrics["trace.overhead_frac"] = (
            statistics.median(p[1] for p in traced_passes)
            / statistics.median(p[1] for p in plain) - 1.0
        )
        metrics["trace.attributed_frac"] = tracer.root_s() / sum(p[1] for p in traced_passes)
        named = {k: (v, unit_of(k)) for k, v in sorted(metrics.items())}
        layers.write_spans(tracer, WORK_DIR / f"spans-{work.name}.tsv")
        layers.write_spans(setup_tracer, WORK_DIR / f"spans-{work.name}-setup.tsv")
    else:
        named = end_to_end(plain, setups)

    report = {
        "workload": work.name,
        "seed": args.seed,
        "instance_seeds": list(work.instance_seeds),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "raw": {k: v for k, (v, _) in end_to_end(plain, setups, nominal=False).items()
                if k.endswith(("_s", "_ms"))},
        "reference_s": {
            "nominal": speed.NOMINAL_S,
            "median": statistics.median(meter.times) if meter.times else None,
            "min": min(meter.times, default=None),
            "max": max(meter.times, default=None),
        },
        "pass_s": [round(p[1], 4) for p in passes],
        "samples": sum(len(r.step_walls) for _, _, rs in plain for r in rs),
        "fail_frac": tally.failed / tally.attempted,
        "failures": tally.reasons[:20],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
