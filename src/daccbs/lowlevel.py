"""Single-agent space-time planning under vertex and edge constraint sets.

plan_constrained returns a path minimizing the finite-horizon cost
(running cost plus terminal cost-to-go) subject to the constraints.  Beyond
the largest constrained timestep the returned suffix is gamma-greedy: each
step satisfies p(v_t) + gamma(v_{t+1}) = gamma(v_t), so the prefix cost is
invariant under horizon extension.  The suffix ends where it reaches the
goal; only a walk cut off by the horizon runs to H_max.

The DP stores each time layer of the cost-to-go as its differences from
gamma, so a replan pays for the cells its constraints change, not for a
dense t_c x V table.  It also skips every state (v, t) the agent cannot
reach from (start, 0) by time t: the returned path never visits one,
so a constraint that raises the cost of a far-off cone costs nothing.
Those arrival times come from a Reach, a BFS from the start grown one
level at a time and only as far as a replan reads it; a constraint-tree
search keeps one per replanned agent, so reach is found once per agent per
search rather than once per replan.  A plan reads only its agent's own
constraints (ConstraintSet.only), so the search also plans each (agent, own
constraints) pair once.

Constraint time conventions: a vertex constraint (a, t, v) forbids occupying
v at time t; an edge constraint (a, t, (u, w)) forbids traversing u -> w from
time t to t+1 (departure-time convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import INF, DistanceField, Graph, sat_add

VertexConstraint = tuple[int, int, int]  # (agent, time, vertex)
EdgeConstraint = tuple[int, int, tuple[int, int]]  # (agent, time, (u, w))


class ConstraintError(ValueError):
    """Constraint set misuse (bad times, constraint at the known state, ...)."""


@dataclass(frozen=True)
class ConstraintSet:
    """Immutable set of vertex and edge constraints across agents."""

    vertex_constraints: frozenset[VertexConstraint] = field(default_factory=frozenset)
    edge_constraints: frozenset[EdgeConstraint] = field(default_factory=frozenset)

    def with_vertex(self, agent: int, time: int, vertex: int) -> "ConstraintSet":
        if time < 0:
            raise ConstraintError(f"negative constraint time {time}")
        return ConstraintSet(
            self.vertex_constraints | {(agent, time, vertex)}, self.edge_constraints
        )

    def with_edge(self, agent: int, time: int, edge: tuple[int, int]) -> "ConstraintSet":
        if time < 0:
            raise ConstraintError(f"negative constraint time {time}")
        return ConstraintSet(
            self.vertex_constraints, self.edge_constraints | {(agent, time, edge)}
        )

    def only(self, agent: int) -> "ConstraintSet":
        """The agent's own constraints, in one pass over the set.

        A plan for the agent reads only these, so planning under them gives
        the plan under the whole set, and they key a search's plans."""
        return ConstraintSet(
            frozenset(c for c in self.vertex_constraints if c[0] == agent),
            frozenset(c for c in self.edge_constraints if c[0] == agent),
        )


def greedy_path(graph: Graph, start: int, gamma: DistanceField, length: int) -> list[int]:
    """Gamma-greedy walk of at most `length` steps: descend gamma via the
    smallest-id neighbor and stop at the goal."""
    dist = gamma.values
    adjacency = graph.adjacency
    path = [start]
    v = start
    d = dist[v]
    while d and len(path) <= length:
        d -= 1
        v = min(w for w in adjacency[v] if dist[w] == d)
        path.append(v)
    return path


class Reach:
    """Earliest arrival times from one start vertex, constraints ignored.

    The BFS is grown one level at a time, only as far as `grow` is asked,
    and every level is kept: replans of one agent within one search share
    its start, so they share this object and pay for each level once.
    """

    def __init__(self, graph: Graph, start: int) -> None:
        self.start = start
        self._adjacency = graph.adjacency
        self._arrival = [INF] * len(graph.adjacency)
        self._arrival[start] = 0
        self._frontier = [start]
        self._depth = 0

    def grow(self, t: int) -> list[int]:
        """Arrival times through level t: arrival[v] is v's earliest arrival
        when that is at most t, and larger than t otherwise.  The graph is
        reflexive, so (v, t) is reachable from (start, 0) iff arrival[v] <= t."""
        arrival, adjacency = self._arrival, self._adjacency
        frontier, depth = self._frontier, self._depth
        while depth < t and frontier:
            depth += 1
            reached = []
            for u in frontier:
                for w in adjacency[u]:
                    if arrival[w] == INF:
                        arrival[w] = depth
                        reached.append(w)
            frontier = reached
        self._frontier, self._depth = frontier, depth
        return arrival


def plan_constrained(
    graph: Graph,
    agent: int,
    start: int,
    constraints: ConstraintSet,
    h_max: int,
    gamma: DistanceField,
    reach: Reach | None = None,
) -> tuple[tuple[int, ...], int] | None:
    """Optimal constrained path for one agent, with its cost.

    The path runs through the last constrained step and then follows gamma
    to the goal, where it ends; read past its end, the agent waits at its
    last vertex.  Returns None when no path satisfies the constraints
    within h_max.
    Among equal-cost optima, the lexicographically smallest vertex sequence is
    returned, built by dynamic programming over (vertex, time) up to the last
    constrained step followed by the gamma-greedy suffix.

    Unconstrained, the cost-to-go from (v, t) is gamma(v), and constraints
    only raise it.  So each layer t of the DP is a dict holding only the
    vertices whose cost-to-go differs from gamma.  Layer t can differ only at
    vertices blocked at t, at sources of edges cut at t, and at in-neighbors
    of vertices that differ in layer t + 1; only those are recomputed.  Of
    those, a vertex the agent cannot reach by time t is skipped: no
    reachable state reads its value.  Arrival times come from `reach`, a
    Reach from `start` that a search keeps across all replans of this agent
    so that reach is found once per agent per search; without one, a fresh
    Reach serves this call alone.
    """
    if reach is None:
        reach = Reach(graph, start)
    elif reach.start != start:
        raise ValueError(f"reach from {reach.start} given for a plan from {start}")
    # The agent's own constraints, read in one pass: blocked[t] holds the
    # vertices forbidden at t, cut[t] the edges forbidden from t to t + 1.
    blocked: dict[int, set[int]] = {}
    for a, t, v in constraints.vertex_constraints:
        if a == agent:
            blocked.setdefault(t, set()).add(v)
    cut: dict[int, set[tuple[int, int]]] = {}
    for a, t, edge in constraints.edge_constraints:
        if a == agent:
            cut.setdefault(t, set()).add(edge)
    if start in blocked.get(0, ()):
        raise ConstraintError(f"agent {agent}: vertex constraint at the known state (0, {start})")
    for t in blocked:
        if t > h_max:
            raise ConstraintError(f"vertex constraint time {t} beyond horizon {h_max}")
    for t in cut:
        if t > h_max - 1:
            raise ConstraintError(f"edge constraint time {t} beyond horizon {h_max - 1}")
    # The last constrained step: a cut edge departing at t constrains t + 1.
    t_c = max([*blocked, *(t + 1 for t in cut)], default=0)

    goal = gamma.anchor
    dist = gamma.values
    adjacency = graph.adjacency
    reverse = graph.reverse
    arrival = reach.grow(t_c)
    # diffs[t][v]: optimal cost from (v, t) through t_c with terminal gamma,
    # stored only where it differs from gamma[v] and only for reachable
    # (v, t).  Successors of a reachable state are reachable, so every value
    # a reachable state or the extraction below reads is exact.
    diffs: list[dict[int, int]] = [{} for _ in range(t_c)]
    diffs.append(
        {v: INF for v in blocked.get(t_c, ()) if dist[v] < INF and arrival[v] <= t_c}
    )
    for t in range(t_c - 1, -1, -1):
        nxt = diffs[t + 1]
        recompute = {u for w in nxt for u in reverse[w]}
        cut_t = cut.get(t, ())
        recompute.update(u for u, _ in cut_t)
        blocked_t = blocked.get(t, ())
        recompute.update(blocked_t)
        layer = diffs[t]
        for v in recompute:
            if arrival[v] > t:
                continue
            if v in blocked_t:
                value = INF
            else:
                best = INF
                for w in adjacency[v]:
                    c = nxt[w] if w in nxt else dist[w]
                    if c < best and (v, w) not in cut_t:
                        best = c
                value = sat_add(1 if v != goal else 0, best)
            if value != dist[v]:
                layer[v] = value

    cost = diffs[0].get(start, dist[start])
    if cost >= INF:
        return None
    prefix = [start]
    v = start
    for t in range(t_c):
        # The value at (v, t) is finite, so a successor keeps it exactly
        # when its own value is that minus this step's running cost.
        target = diffs[t].get(v, dist[v]) - (1 if v != goal else 0)
        nxt = diffs[t + 1]
        cut_t = cut.get(t, ())
        v = min(
            w
            for w in adjacency[v]
            if (v, w) not in cut_t and nxt.get(w, dist[w]) == target
        )
        prefix.append(v)

    # The gamma-greedy suffix keeps the cost-to-go, so the DP value at the
    # start is the prefix cost of the returned path at any horizon.
    suffix = greedy_path(graph, prefix[-1], gamma, h_max - t_c)
    return tuple(prefix[:-1] + suffix), cost
