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

Most partitions find one group, and the goal distance fields the instance
already holds often prove that before any region search runs.  An agent's
own goal lies in its region (its excess is 0), and agent k's goal lies in
agent i's region whenever gamma_k(x_i) + gamma_i(g_k) - gamma_i(x_i) fits
the slack: gamma_k(x_i) is the hop distance from x_i to g_k, which bounds
the cost-distance cp(x_i, g_k) from above, on directed graphs too.  Such a
goal witnesses an overlap, so joining its two agents never changes the
components.
"""

from __future__ import annotations

from itertools import chain

from .grid import INF, DistanceField, Graph


class BudgetInvariantError(RuntimeError):
    """Budget fell below the shortest-path lower bound (corrupted budget)."""


def slackness(group: tuple[int, ...], budget: int, state, gammas) -> int:
    """budget minus the sum of gamma(x(a)) over the group; never negative."""
    lower = sum(gammas[a].values[state[a]] for a in group)
    slack = budget - lower
    if slack < 0:
        raise BudgetInvariantError(f"budget {budget} below shortest-path bound {lower}")
    return slack


def reachable_region(
    graph: Graph, agent: int, state, slack: int, gamma: DistanceField
) -> frozenset[int]:
    """Vertices the agent can occupy in any future plan within the budget:
    those whose excess fits the slack, settled by `_region_levels`."""
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    levels = _region_levels(graph.adjacency, state[agent], gamma, slack)
    return frozenset(chain.from_iterable(levels))


def _region_levels(adjacency, here: int, gamma: DistanceField, slack: int):
    """Yield the agent's region as [here], then, for each cost-distance
    level settled, the vertices first admitted while settling it.  Each
    region vertex is yielded exactly once; an empty region yields nothing.

    A level-by-level BFS from `here` (a step costs 1 except from the goal)
    that admits a vertex only while its excess fits the slack.  The excess
    never decreases along a walk: a step from an off-goal vertex u to w
    costs 1 and gamma(u) <= 1 + gamma(w), and a step from the goal is free
    but starts from gamma = 0.  So every prefix of a cheapest walk to a
    vertex that fits also fits, and the bounded search settles exactly the
    vertices that fit.  The goal is settled first in its level, so its free
    step admits its neighbors into that level before any other vertex of it
    can admit them one step dearer: each vertex is admitted once, at its
    full-map cost-distance.
    """
    goal = gamma.anchor
    cost_to_go = gamma.values
    # Below INF, so a vertex that cannot reach the goal never fits.
    limit = min(slack + cost_to_go[here], INF - 1)
    if cost_to_go[here] > limit:
        return
    seen = {here}
    level = [here]
    yield [here]
    d = 0
    while level:
        nxt, new = [], []
        for u in level:
            if u == goal:
                e, into = d, level
            else:
                e, into = d + 1, nxt
            for w in adjacency[u]:
                if w not in seen and e + cost_to_go[w] <= limit:
                    seen.add(w)
                    new.append(w)
                    if w == goal:
                        into.insert(0, w)
                    else:
                        into.append(w)
        if new:
            yield new
        level = nxt
        d += 1


def partition(
    graph: Graph, agents: tuple[int, ...], state, slack: int, gammas
) -> list[tuple[int, ...]]:
    """Groups of agents whose reachable regions form connected overlaps.

    First joins agents through goal witnesses (`_goal_witnesses`): each is
    a region vertex two agents provably share, read from the distance
    fields alone, so it only adds joins the searches would make anyway.  If
    that leaves one component, no region search runs.  Otherwise advances
    the agents' region searches in lock-step, one level per agent per
    round.  Each vertex records the first agent that admitted it; when
    a second agent admits it, the two agents' components are joined in a
    union-find.  Every region vertex is admitted by its agent exactly once,
    so every overlap is seen at the shared vertex, whichever agent reaches
    it first, and the components are the connected components of region
    overlap whatever the search order.  Joins are never undone, so once a
    single component is left the function returns without finishing the
    searches.  Groups are ordered by their smallest member agent id.
    """
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    if len(agents) <= 1:
        return [tuple(agents)] if agents else []
    adjacency = graph.adjacency
    root = list(range(len(agents)))  # union-find over indices into agents
    components = len(agents)
    owner: dict[int, int] = {}  # vertex -> index of the agent that admitted it first

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

    for i, j, _ in _goal_witnesses(agents, state, slack, gammas):
        if join(i, j):
            return [tuple(sorted(agents))]
    searches = [
        (i, _region_levels(adjacency, state[a], gammas[a], slack))
        for i, a in enumerate(agents)
    ]
    while searches:
        running = []
        for i, levels in searches:
            level = next(levels, None)
            if level is None:
                continue  # region complete (or empty: the agent's own group)
            running.append((i, levels))
            for v in level:
                first = owner.setdefault(v, i)
                # Agents with one parent are already in one component.
                if first != i and root[first] != root[i] and join(first, i):
                    return [tuple(sorted(agents))]
        searches = running

    members: dict[int, list[int]] = {}
    for i, a in enumerate(agents):
        members.setdefault(find(i), []).append(a)
    return sorted(tuple(sorted(group)) for group in members.values())


def _goal_witnesses(agents, state, slack: int, gammas):
    """Yield (i, j, goal) where `goal` lies in the regions of agents[i] and
    agents[j]: one component grown in rounds from the first agent whose
    region is nonempty, each pending agent tested once against each agent
    that joined in the round before.  An agent whose goal is out of reach
    has an empty region and takes no part."""
    probes = []  # (index, vertex, goal, cost-to-go, limit)
    for i, a in enumerate(agents):
        here, gamma = state[a], gammas[a]
        if gamma[here] < INF:
            # Below INF, as in _region_levels, so no sum with an unreachable
            # distance fits.
            probes.append((i, here, gamma.anchor, gamma.values,
                           min(slack + gamma[here], INF - 1)))
    frontier, pending = probes[:1], probes[1:]
    while frontier and pending:
        joined, left = [], []
        for probe in pending:
            i, here, goal, cost_to_go, limit = probe
            for j, there, other, to_other, bound in frontier:
                # to_other[here] is the hop distance from here to the other
                # agent's goal, an upper bound on this agent's cost-distance
                if to_other[here] + cost_to_go[other] <= limit:
                    yield i, j, other
                elif cost_to_go[there] + to_other[goal] <= bound:
                    yield i, j, goal
                else:
                    continue
                joined.append(probe)
                break
            else:
                left.append(probe)
        frontier, pending = joined, left


def should_refactor(last_slack: int, current_slack: int, threshold: int) -> bool:
    """True iff slack dropped by at least `threshold` since the last
    factorization."""
    return last_slack - current_slack >= threshold
