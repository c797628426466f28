"""Shared builders for graphs, grids, and random feasible instances."""

from __future__ import annotations

import random

import pytest

from daccbs import Graph, MapfInstance, parse_map


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


@pytest.fixture
def grid3() -> Graph:
    return make_grid(3, 3)


@pytest.fixture
def chain5() -> Graph:
    return chain_graph(5)
