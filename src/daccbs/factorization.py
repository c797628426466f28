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


def partition(
    graph: Graph, agents: tuple[int, ...], state, slack: int, gammas
) -> list[tuple[int, ...]]:
    """Groups of agents whose reachable regions form connected overlaps.

    Runs the agents' `reachable_region` searches in lock-step, one
    cost-distance level per agent per round, with the same admission rule
    and the same free step from the goal.  Each vertex records the first
    agent that discovered it; when a second agent discovers it, the two
    agents' components are joined in a union-find.  A vertex is admitted at
    a distance no less than its final one, so a discovered vertex is in the
    agent's region and a join only links agents whose regions overlap.
    Every region vertex is discovered by its agent once, so every overlap
    is seen at the shared vertex, whichever agent reaches it first.  The
    components are therefore the connected components of region overlap
    whatever the search order.  Joins are never undone, so once a single
    component is left the function returns without finishing the searches.
    Groups are ordered by their smallest member agent id.
    """
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    if len(agents) <= 1:
        return [tuple(agents)] if agents else []
    everyone = [tuple(sorted(agents))]
    adjacency = graph.adjacency
    root = list(range(len(agents)))  # union-find over indices into agents
    components = len(agents)
    owner: dict[int, int] = {}  # vertex -> index of the agent that found it first

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    def join(i: int, j: int) -> bool:
        """Unite i's and j's components; true once a single one is left."""
        nonlocal components
        i, j = find(i), find(j)
        if i != j:
            root[max(i, j)] = min(i, j)
            components -= 1
        return components == 1

    # One search per agent: [index, goal, cost_to_go, limit, dist, frontier].
    searches = []
    for i, a in enumerate(agents):
        here = state[a]
        cost_to_go = gammas[a].values
        # Below INF, so a vertex that cannot reach the goal never fits.
        limit = min(slack + cost_to_go[here], INF - 1)
        if cost_to_go[here] > limit:
            continue  # empty region: the agent stays a group of its own
        searches.append([i, gammas[a].anchor, cost_to_go, limit, {here: 0}, [here]])
        first = owner.setdefault(here, i)
        if first != i and join(first, i):
            return everyone

    d = 0
    while searches:
        d1 = d + 1
        for search in searches:
            i, goal, cost_to_go, limit, dist, frontier = search
            nxt = []
            # The frontier holds the vertices at distance d; the free step
            # from the goal appends more of them while the loop runs.  A
            # vertex it lowers from d + 1 stays in nxt too, where its second
            # visit finds every neighbor already discovered.
            for u in frontier:
                if u == goal:
                    for w in adjacency[u]:
                        if d + cost_to_go[w] <= limit and d < dist.get(w, INF):
                            if w not in dist:
                                first = owner.setdefault(w, i)
                                if first != i and join(first, i):
                                    return everyone
                            dist[w] = d
                            frontier.append(w)
                else:
                    for w in adjacency[u]:
                        if w not in dist and d1 + cost_to_go[w] <= limit:
                            dist[w] = d1
                            nxt.append(w)
                            first = owner.setdefault(w, i)
                            if first != i and join(first, i):
                                return everyone
            search[5] = nxt
        searches = [search for search in searches if search[5]]
        d = d1

    members: dict[int, list[int]] = {}
    for i, a in enumerate(agents):
        members.setdefault(find(i), []).append(a)
    return sorted(tuple(sorted(group)) for group in members.values())


def should_refactor(last_slack: int, current_slack: int, threshold: int) -> bool:
    """True iff slack dropped by at least `threshold` since the last
    factorization."""
    return last_slack - current_slack >= threshold
