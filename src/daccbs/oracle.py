"""Brute-force optimal solvers for desk-scale verification.

optimal_soc and exhaustive_exclusion_check search the joint configuration
space exhaustively with one A* (the per-agent shortest-path sum is its
admissible heuristic); it is the independent reference the planner is
checked against and deliberately shares no search code with it.  Limits are
enforced: at most 3 agents and 16 vertices.
"""

from __future__ import annotations

import heapq
from itertools import product

from .grid import INF, MapfInstance

MAX_AGENTS = 3
MAX_VERTICES = 16


class OracleLimitError(ValueError):
    """Input exceeds the deliberate desk-scale limits of the oracle."""


def _check_limits(instance: MapfInstance) -> None:
    if instance.n_agents > MAX_AGENTS:
        raise OracleLimitError(f"oracle supports at most {MAX_AGENTS} agents")
    if instance.graph.vertex_count > MAX_VERTICES:
        raise OracleLimitError(f"oracle supports at most {MAX_VERTICES} vertices")


def default_makespan_cap(instance: MapfInstance) -> int:
    gamma_sum = sum(g[s] for g, s in zip(instance.gammas, instance.starts))
    return gamma_sum + instance.graph.vertex_count


def _joint_successors(instance: MapfInstance, config: tuple[int, ...]):
    """All conflict-free one-step successor configurations."""
    options = [instance.graph.neighbors(v) for v in config]
    for nxt in product(*options):
        if len(set(nxt)) != len(nxt):
            continue
        swap = False
        pos = {v: i for i, v in enumerate(config)}
        for i, v in enumerate(nxt):
            j = pos.get(v)
            if j is not None and j != i and nxt[j] == config[i] and v != config[i]:
                swap = True
                break
        if not swap:
            yield nxt


def optimal_soc(instance: MapfInstance, makespan_cap: int | None = None) -> int:
    """Minimal sum-of-costs over all conflict-free joint trajectories reaching
    all goals within the makespan cap; INF if none exists."""
    return _cheapest(instance, makespan_cap)


def exhaustive_exclusion_check(
    instance: MapfInstance,
    budget: int,
    agent: int,
    vertex: int,
    makespan_cap: int | None = None,
) -> bool:
    """True iff every conflict-free goal-reaching joint trajectory within the
    cap in which `agent` visits `vertex` costs strictly more than `budget`."""
    return _cheapest(instance, makespan_cap, agent, vertex) > budget


def _cheapest(
    instance: MapfInstance,
    makespan_cap: int | None,
    agent: int | None = None,
    vertex: int | None = None,
) -> int:
    """Minimal sum-of-costs over the conflict-free joint trajectories that
    reach all goals within the makespan cap and, when `vertex` is given, in
    which `agent` visits it; INF if there is none.

    A* over (configuration, time, visited), where `visited` says whether
    `agent` has stood on `vertex` yet (true throughout when no vertex is
    asked for).
    """
    _check_limits(instance)
    if makespan_cap is None:
        makespan_cap = default_makespan_cap(instance)
    goals = instance.goals
    start = instance.starts

    def heuristic(config) -> int:
        return sum(instance.gammas[i][v] for i, v in enumerate(config))

    def step_cost(config) -> int:
        return sum(1 for i, v in enumerate(config) if v != goals[i])

    visited = vertex is None or start[agent] == vertex
    heap = [(heuristic(start), 0, 0, start, visited)]
    best: dict[tuple[tuple[int, ...], int, bool], int] = {(start, 0, visited): 0}
    while heap:
        f, g, t, config, visited = heapq.heappop(heap)
        if config == goals and visited:
            return g
        if best.get((config, t, visited), INF) < g:
            continue
        if t >= makespan_cap:
            continue
        g2 = g + step_cost(config)
        for nxt in _joint_successors(instance, config):
            hit = visited or nxt[agent] == vertex
            key = (nxt, t + 1, hit)
            if g2 < best.get(key, INF):
                best[key] = g2
                heapq.heappush(heap, (g2 + heuristic(nxt), g2, t + 1, nxt, hit))
    return INF
