"""Slackness, budget-limited reachable regions, and group partitioning.

The slackness of a group is its budget minus the sum of per-agent
shortest-path costs from the current state: the detour allowance any future
budget-respecting plan must fit into.  An agent's reachable region is the set
of vertices whose excess cost D(v) = cp(x, v) + gamma(v) - gamma(x) fits the
slack, where cp is the cost-distance: the cheapest running cost of walking
from x to v, which equals the plain hop distance except that standing on the
agent's own goal is free.  (Using the hop distance here would under-count the
goal-crossing discount; an agent parked at its goal and later routed away
could then see its region grow, breaking region shrinkage and with it the
inheritability of the partition.)  Agents whose regions are disjoint can
never interact again under the current budget, so connected components of
region overlap form independently plannable groups.
"""

from __future__ import annotations

from collections import deque

from .grid import INF, DistanceField, Graph


class BudgetInvariantError(RuntimeError):
    """Budget fell below the shortest-path lower bound (corrupted budget)."""


def slackness(group: tuple[int, ...], budget: int, state, gammas) -> int:
    """budget minus the sum of gamma(x(a)) over the group; never negative."""
    lower = sum(gammas[a][state[a]] for a in group)
    slack = budget - lower
    if slack < 0:
        raise BudgetInvariantError(f"budget {budget} below shortest-path bound {lower}")
    return slack


def cost_distance_from(graph: Graph, source: int, free_vertex: int) -> tuple[int, ...]:
    """Cheapest running cost of walking from `source` to each vertex.

    Every position along the walk costs 1 except `free_vertex` (the agent's
    goal), which costs 0; the destination itself is not charged.  Computed
    with a 0-1 BFS over forward edges.
    """
    dist = [INF] * graph.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        step = 0 if u == free_vertex else 1
        base = dist[u]
        for w in graph.neighbors(u):
            if w != u and base + step < dist[w]:
                dist[w] = base + step
                if step == 0:
                    queue.appendleft(w)
                else:
                    queue.append(w)
    return tuple(dist)


def reachable_region(
    graph: Graph, agent: int, state, slack: int, gamma: DistanceField
) -> frozenset[int]:
    """Vertices the agent can occupy in any future plan within the budget."""
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    here = state[agent]
    dist = cost_distance_from(graph, here, gamma.anchor)
    base = gamma[here]
    return frozenset(
        v
        for v in range(graph.vertex_count)
        if dist[v] < INF and gamma[v] < INF and dist[v] + gamma[v] - base <= slack
    )


class DisjointSet:
    """Union-find over a fixed universe of items."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def partition(regions: dict[int, frozenset[int]]) -> list[tuple[int, ...]]:
    """Groups of agents whose reachable regions form connected overlaps.

    Any two agents sharing a region vertex are united; resulting groups are
    ordered by their smallest member agent id.
    """
    agents = sorted(regions)
    index = {a: i for i, a in enumerate(agents)}
    dsu = DisjointSet(len(agents))
    owner: dict[int, int] = {}
    for a in agents:
        for v in regions[a]:
            if v in owner:
                dsu.union(index[a], owner[v])
            else:
                owner[v] = index[a]
    groups: dict[int, list[int]] = {}
    for a in agents:
        groups.setdefault(dsu.find(index[a]), []).append(a)
    return [tuple(members) for _, members in sorted(groups.items())]


def should_refactor(last_slack: int, current_slack: int, threshold: int) -> bool:
    """True iff slack dropped by at least `threshold` since the last
    factorization."""
    return last_slack - current_slack >= threshold
