"""Workload definitions and the operations the benchmark times.

Every workload runs serially in one process on one thread: group planning
uses the library default `parallel_groups=False`, and episodes never overlap.
Each plan_step is timed against a wall-clock deadline, so two episodes
sharing the CPU (as `daccbs.bench.run_suite` threads do) would each see less
time than their deadline and skew every timing-dependent result.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import daccbs.cbs as cbs
import daccbs.grid as grid
import daccbs.simulate as simulate
from daccbs import ControllerConfig, FleetController, MapfInstance
from daccbs.cbs import ExpansionCapExceeded

import gate
import instances
import speed


@dataclass(frozen=True)
class Workload:
    name: str
    height: int
    width: int
    agents: int
    block_prob: float
    instance_seeds: tuple[int, ...]
    t_max_ms: float | None = None  # closed loop at this deadline; None = offline solve
    expansion_cap: int | None = None


WORKLOADS = {
    # Starvation regime of the paper: factorization does most of the work.
    "starved": Workload("starved", 32, 32, 50, 0.1, (0, 1, 2), t_max_ms=1.0),
    # Search, candidate rollouts and certificate improvement change SOC here.
    "contested": Workload("contested", 16, 16, 30, 0.0, (0, 1, 2, 3, 4), t_max_ms=25.0),
    # Full-horizon CBS: no certificate, factorization or deadline.
    "offline-cbs": Workload(
        "offline-cbs", 16, 16, 12, 0.1, tuple(range(8)), expansion_cap=400
    ),
}

# Optimal SOC of each offline-cbs instance, recorded with run_classic_cbs
# without an expansion cap.  Instance 4 needs more than 400 expansions, so its
# solve is counted as failed while the cap holds.
REFERENCE_SOC = {0: 143, 1: 157, 2: 139, 3: 117, 4: 140, 5: 149, 6: 143, 7: 115}


@dataclass
class Loaded:
    seed: int
    instance: MapfInstance


def write_files(work: Workload, out_dir: Path) -> list[tuple[int, Path, Path]]:
    return [
        (seed, *instances.write(out_dir, seed, work.height, work.width, work.agents,
                                work.block_prob))
        for seed in work.instance_seeds
    ]


def set_up(work: Workload, files) -> tuple[list[Loaded], float]:
    """Load every instance and build its controller; return the wall time."""
    t0 = perf_counter()
    loaded = []
    for seed, map_path, scen_path in files:
        instance = grid.load_scenario(scen_path, grid.load_map(map_path), work.agents)
        if work.t_max_ms is not None:
            new_controller(work, instance)
        loaded.append(Loaded(seed, instance))
    return loaded, perf_counter() - t0


def new_controller(work: Workload, instance: MapfInstance,
                   factor: float = 1.0) -> FleetController:
    """A controller whose deadline is the workload's t_max at nominal speed:
    on a machine running at `factor` of nominal speed it gets t_max / factor
    of wall time, so it can search as far as at nominal speed."""
    config = ControllerConfig(t_max_ms=work.t_max_ms / factor, mode="daccbs")
    return FleetController(instance, config)


def time_steps(controller: FleetController, walls: list[float], factors: list[float],
               meter: speed.Meter) -> None:
    """Time each plan_step call from outside, appending seconds to walls and
    the meter's speed factor for the step to factors."""
    plan_step = controller.plan_step

    def timed(state):
        t0 = perf_counter()
        out = plan_step(state)
        walls.append(perf_counter() - t0)
        factors.append(meter.tick())
        return out

    controller.plan_step = timed


@dataclass
class OpResult:
    wall_s: float  # excludes the meter's references
    soc_increment: int | None  # None when the operation failed
    step_walls: list[float]  # plan_step walls, or the solve wall
    missed: int  # steps over their deadline, or 1 for a capped solve
    nominal_s: float  # wall_s at nominal speed
    nominal_walls: list[float]  # step_walls at nominal speed


def run_episode(work: Workload, item: Loaded, tally: gate.Tally,
                meter: speed.Meter) -> OpResult:
    factor = meter.factor()
    controller = new_controller(work, item.instance, factor)
    walls: list[float] = []
    factors: list[float] = []
    time_steps(controller, walls, factors, meter)
    spent = meter.spent_s
    t0 = perf_counter()
    result = None
    try:
        result = simulate.run_episode(item.instance, controller)
    except Exception as exc:  # MovementDefect and any planner error
        errors = [gate.describe(exc)]
    wall = perf_counter() - t0 - (meter.spent_s - spent)
    if result is not None:
        errors = gate.episode_errors(result)
    tally.record(f"{work.name}#{item.seed}", errors)
    limit = work.t_max_ms / 1000.0 / factor  # the wall-clock deadline it was given
    nominal_walls = [w * k for w, k in zip(walls, factors)]
    # Time outside plan_step (movement validation) is scaled by the last factor.
    outside = (wall - sum(walls)) * (factors[-1] if factors else 1.0)
    return OpResult(
        wall,
        None if errors else result.soc - result.gamma_sum,
        walls,
        sum(1 for w in walls if w > limit),
        sum(nominal_walls) + outside,
        nominal_walls,
    )


def run_solve(work: Workload, item: Loaded, tally: gate.Tally,
              meter: speed.Meter) -> OpResult:
    instance = item.instance
    t0 = perf_counter()
    joint = None
    try:
        joint = cbs.run_classic_cbs(instance, expansion_cap=work.expansion_cap)
    except ExpansionCapExceeded:
        errors = [gate.CAP]
    except Exception as exc:
        errors = [gate.describe(exc)]
    wall = perf_counter() - t0
    factor = meter.tick()
    if joint is not None:
        errors = gate.solution_errors(instance, joint, REFERENCE_SOC[item.seed])
    tally.record(f"{work.name}#{item.seed}", errors)
    gamma_sum = sum(g[s] for g, s in zip(instance.gammas, instance.starts))
    return OpResult(
        wall,
        None if errors else REFERENCE_SOC[item.seed] - gamma_sum,
        [wall],
        errors == [gate.CAP],
        wall * factor,
        [wall * factor],
    )


def run_op(work: Workload, item: Loaded, tally: gate.Tally, meter: speed.Meter) -> OpResult:
    op = run_episode if work.t_max_ms is not None else run_solve
    return op(work, item, tally, meter)
