"""Correctness gate: every operation the benchmark runs is checked here, and
every operation is counted, whether it passes, fails a check or raises.

An operation is a closed-loop episode or an offline solve.  A solve that hits
its expansion cap is a failed operation but not a wrong answer; every other
failure also makes the run incorrect.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from pathlib import Path

CAP = "cap"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed other than by a cap hit
    reasons: list[str] = field(default_factory=list)

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.wrong += errors != [CAP]
            self.reasons.extend(f"{label}: {e}" for e in errors)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def describe(exc: BaseException) -> str:
    """Exception type, message and the frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({Path(frame.filename).name}:{frame.lineno})"


def episode_errors(result) -> list[str]:
    """Certificate invariants of one finished `daccbs.EpisodeResult`."""
    errors = []
    if result.termination != "all-at-goals":
        errors.append(f"termination {result.termination!r}")
    if result.initial_budget is None or result.soc > result.initial_budget:
        errors.append(f"SOC {result.soc} above initial budget {result.initial_budget}")
    budgets = [b for _, b, _ in result.budget_trace]
    if len(budgets) != result.makespan:
        errors.append(f"{len(budgets)} budget entries for {result.makespan} steps")
    if budgets and result.initial_budget is not None and budgets[0] > result.initial_budget:
        errors.append("first budget above the initial budget")
    # Every recorded step was taken with some agent off its goal, so each
    # budget must be strictly below the one before it.
    for t, (a, b) in enumerate(zip(budgets, budgets[1:]), start=1):
        if b >= a:
            errors.append(f"budget did not decrease at step {t}: {a} -> {b}")
            break
    return errors


def solution_errors(instance, joint, reference_soc: int) -> list[str]:
    """Check an offline solution against the grid, independently of the
    planner's own conflict detection, and its SOC against a reference."""
    coords = instance.graph.coords
    paths = [traj.vertices for traj in joint.trajectories]
    if len(paths) != instance.n_agents:
        return [f"{len(paths)} paths for {instance.n_agents} agents"]
    if any(not 0 <= v < len(coords) for path in paths for v in path):
        return ["vertex id out of range"]
    errors = []
    for a, path in enumerate(paths):
        if path[0] != instance.starts[a] or path[-1] != instance.goals[a]:
            errors.append(f"agent {a} does not go from its start to its goal")
        for u, v in zip(path, path[1:]):
            (r0, c0), (r1, c1) = coords[u], coords[v]
            if abs(r0 - r1) + abs(c0 - c1) > 1:
                errors.append(f"agent {a}: {u} -> {v} is not a grid move")
                break
    makespan = max(len(p) for p in paths) - 1
    prev: list[int] = []
    for t in range(makespan + 1):
        here = [p[min(t, len(p) - 1)] for p in paths]
        if len(set(here)) != len(here):
            errors.append(f"vertex conflict at t={t}")
            break
        moves = {(u, v) for u, v in zip(prev, here) if u != v}
        if any((v, u) in moves for u, v in moves):
            errors.append(f"swap conflict at t={t}")
            break
        prev = here
    cost = sum(sum(1 for v in p if v != instance.goals[a]) for a, p in enumerate(paths))
    if cost != reference_soc:
        errors.append(f"SOC {cost} != reference {reference_soc}")
    return errors
