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


def reachable_region(
    graph: Graph, agent: int, state, slack: int, gamma: DistanceField
) -> frozenset[int]:
    """Vertices the agent can occupy in any future plan within the budget.

    A 0-1 BFS from the agent's vertex (a step costs 1 except from the goal)
    that admits a vertex only while its excess fits the slack.  The excess
    never decreases along a walk: a step from an off-goal vertex u to w costs
    1 and gamma(u) <= 1 + gamma(w), and a step from the goal is free but
    starts from gamma = 0.  So every prefix of a cheapest walk to a vertex
    that fits also fits, and the bounded search settles exactly the vertices
    that fit, each at its full-map cost-distance.
    """
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    here = state[agent]
    goal = gamma.anchor
    cost_to_go = gamma.values
    adjacency = graph.adjacency
    # Below INF, so a vertex that cannot reach the goal never fits.
    limit = min(slack + cost_to_go[here], INF - 1)
    dist = {here: 0} if cost_to_go[here] <= limit else {}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        if u == goal:
            # The free step can lower a distance found one step dearer.
            d = dist[u]
            for w in adjacency[u]:
                if d + cost_to_go[w] <= limit and d < dist.get(w, INF):
                    dist[w] = d
                    queue.appendleft(w)
        else:
            # Pops come in nondecreasing distance, so a vertex already
            # found is already at d or less.
            d = dist[u] + 1
            for w in adjacency[u]:
                if w not in dist and d + cost_to_go[w] <= limit:
                    dist[w] = d
                    queue.append(w)
    return frozenset(dist)


def partition(regions: dict[int, frozenset[int]]) -> list[tuple[int, ...]]:
    """Groups of agents whose reachable regions form connected overlaps.

    Each agent's region is merged with every group whose covered vertices it
    meets; groups are ordered by their smallest member agent id.
    """
    groups: list[tuple[list[int], set[int]]] = []
    for a in sorted(regions):
        members, covered = [a], set(regions[a])
        apart = []
        for group in groups:
            if covered.isdisjoint(group[1]):
                apart.append(group)
            else:
                members += group[0]
                covered |= group[1]
        apart.append((members, covered))
        groups = apart
    return sorted(tuple(sorted(members)) for members, _ in groups)


def should_refactor(last_slack: int, current_slack: int, threshold: int) -> bool:
    """True iff slack dropped by at least `threshold` since the last
    factorization."""
    return last_slack - current_slack >= threshold
