"""One-off baseline report: the three step-deadline rows of ROADMAP.md.

    python3 perfbench/baseline.py

Runs one daccbs episode per row (seed-0 instance, serial group planning) and
prints step wall p50 and max, and the number of steps over 1.5 x t_max.  The
48x48 row takes tens of seconds.  This is a report, not a benchmark workload:
each row is a single run.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (puts src/ on the path)

ROWS = (  # height, width, agents, block_prob, t_max_ms
    (16, 16, 30, 0.0, 1.0),
    (32, 32, 50, 0.1, 5.0),
    (48, 48, 200, 0.0, 2.0),
)


def main() -> int:
    run.import_program()
    import gate
    import instances
    from daccbs import ControllerConfig, FleetController, load_map, load_scenario, run_episode
    from workloads import time_steps

    print("| Instance | t_max | Steps | Step wall p50 | Step wall max | Steps over 1.5 t_max "
          "| Episode wall | Gate |")
    print("|---|---|---|---|---|---|---|---|")
    for height, width, agents, block, t_max_ms in ROWS:
        map_path, scen_path = instances.write(
            run.WORK_DIR / "baseline", 0, height, width, agents, block
        )
        instance = load_scenario(scen_path, load_map(map_path), agents)
        controller = FleetController(instance, ControllerConfig(t_max_ms=t_max_ms))
        walls: list[float] = []
        time_steps(controller, walls)
        t0 = perf_counter()
        result = run_episode(instance, controller)
        episode_s = perf_counter() - t0
        over = sum(1 for w in walls if w > 1.5 * t_max_ms / 1000.0)
        errors = gate.episode_errors(result)
        label = f"{height}x{width}" + (f" {round(block * 100)}%-blocked" if block else "")
        print(f"| {label}, N={agents} | {t_max_ms:g} ms | {len(walls)} "
              f"| {statistics.median(walls) * 1000:.1f} ms | {max(walls) * 1000:.1f} ms "
              f"| {over}/{len(walls)} | {episode_s:.1f} s | {'; '.join(errors) or 'ok'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
