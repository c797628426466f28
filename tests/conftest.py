"""Shared builders for graphs, grids, and random feasible instances, and
reference checks on paths that the library itself does not need."""

from __future__ import annotations

import random

import pytest

from daccbs import (
    ConstraintSet,
    DistanceField,
    Graph,
    JointTrajectory,
    MapfInstance,
    Trajectory,
    WorkClock,
    parse_map,
)
import daccbs.backup
import daccbs.controller
from daccbs.grid import sat_add


def make_grid(height: int, width: int, blocked: set[tuple[int, int]] | None = None) -> Graph:
    """Grid graph via the map parser so ids match row-major convention."""
    blocked = blocked or set()
    rows = [
        "".join("@" if (r, c) in blocked else "." for c in range(width))
        for r in range(height)
    ]
    text = f"type octile\nheight {height}\nwidth {width}\nmap\n" + "\n".join(rows) + "\n"
    return parse_map(text)


class CountingAdjacency(tuple):
    """Adjacency that counts the rows read from it."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return tuple.__getitem__(self, v)


def chain_graph(n: int) -> Graph:
    """Path graph v0 - v1 - ... - v(n-1) with self-loops."""
    adjacency = []
    for v in range(n):
        nbrs = {v}
        if v > 0:
            nbrs.add(v - 1)
        if v < n - 1:
            nbrs.add(v + 1)
        adjacency.append(tuple(sorted(nbrs)))
    return Graph(tuple(adjacency))


def cycle_graph(n: int) -> Graph:
    adjacency = []
    for v in range(n):
        nbrs = {v, (v - 1) % n, (v + 1) % n}
        adjacency.append(tuple(sorted(nbrs)))
    return Graph(tuple(adjacency))


def cross_instance() -> MapfInstance:
    """3x3 grid; one agent crosses top-to-bottom, the other left-to-right,
    meeting at the center.  Optimal SOC is 5."""
    g = make_grid(3, 3)
    # row-major ids on the open 3x3 grid: (r, c) -> 3r + c
    return MapfInstance(g, (1, 3), (7, 5))


def random_instance(
    rng: random.Random,
    height: int,
    width: int,
    n_agents: int,
    block_prob: float = 0.0,
    max_tries: int = 500,
) -> MapfInstance:
    """A feasible random instance: distinct starts/goals, reachable goals.

    On blocked maps small enough for the brute-force oracle, joint
    feasibility is verified exhaustively (individually reachable goals do not
    guarantee a conflict-free joint solution, e.g. two agents forced to swap
    on a chain component).
    """
    from daccbs import INF, optimal_soc

    for _ in range(max_tries):
        blocked = {
            (r, c)
            for r in range(height)
            for c in range(width)
            if rng.random() < block_prob
        }
        try:
            graph = make_grid(height, width, blocked)
        except Exception:
            continue
        if graph.vertex_count < 2 * n_agents or graph.vertex_count == 0:
            continue
        vertices = list(range(graph.vertex_count))
        starts = rng.sample(vertices, n_agents)
        goals = rng.sample(vertices, n_agents)
        try:
            instance = MapfInstance(graph, tuple(starts), tuple(goals))
        except Exception:
            continue
        if block_prob > 0 and n_agents <= 3 and graph.vertex_count <= 16:
            if optimal_soc(instance) >= INF:
                continue
        return instance
    raise RuntimeError("could not generate a feasible instance")


def prefix_cost(path: tuple[int, ...], h_r: int, gamma: DistanceField) -> int:
    """Running cost over the first h_r steps plus cost-to-go at step h_r.

    gamma must be the to-goal field of the path's agent; its anchor is the
    goal vertex used by the running cost.
    """
    if h_r > len(path) - 1:
        raise ValueError(f"h_r {h_r} exceeds path length {len(path) - 1}")
    goal = gamma.anchor
    running = sum(1 for v in path[:h_r] if v != goal)
    return sat_add(running, gamma[path[h_r]])


def joint(paths: dict[int, tuple[int, ...]]) -> JointTrajectory:
    """The padded view of a path dict (a rollout's result), for the checks
    that read one: soc, makespan and positions_at."""
    return JointTrajectory([Trajectory(a, path) for a, path in paths.items()])


def positions_at(joint: JointTrajectory, t: int) -> tuple[int, ...]:
    """Every agent's vertex at time t, read from the padded rows."""
    return tuple(row[t] for row in joint.rows)


def satisfies(path: tuple[int, ...], constraints: ConstraintSet) -> bool:
    """True iff the path obeys every constraint of its agent's set."""
    n = len(path)
    for t, v in constraints.vertex_constraints:
        if t < n and path[t] == v:
            return False
    for t, (u, w) in constraints.edge_constraints:
        if t + 1 < n and path[t] == u and path[t + 1] == w:
            return False
    return True


def count_configurations(monkeypatch) -> list[int]:
    """Make LaCAM count in `counter[0]` the configurations it creates.

    A rollout that creates exactly as many configurations as its result
    holds (makespan + 1) never revisited one."""
    counter = [0]

    class Counted(daccbs.backup._HighNode):
        def __init__(self, *args):
            super().__init__(*args)
            counter[0] += 1

    monkeypatch.setattr(daccbs.backup, "_HighNode", Counted)
    return counter


def cap_searches(monkeypatch: pytest.MonkeyPatch, expansion_cap: int) -> None:
    """Hand every controller search a WorkClock of `expansion_cap`
    expansions instead of its WallClock, so an episode does the same work,
    and gives the same outputs, on any machine."""
    monkeypatch.setattr(daccbs.controller, "WallClock",
                        lambda seconds: WorkClock(expansion_cap))


@pytest.fixture
def fixed_work(monkeypatch):
    """Call with an expansion cap to cap every controller search of the
    test (cap_searches)."""
    return lambda expansion_cap: cap_searches(monkeypatch, expansion_cap)


@pytest.fixture
def grid3() -> Graph:
    return make_grid(3, 3)


@pytest.fixture
def chain5() -> Graph:
    return chain_graph(5)
