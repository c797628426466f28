"""Single-agent space-time planning under vertex and edge constraint sets.

plan_constrained returns a fixed-length trajectory minimizing the
finite-horizon cost (running cost plus terminal cost-to-go) subject to the
constraints.  Beyond the largest constrained timestep the returned suffix is
gamma-greedy: each step satisfies p(v_t) + gamma(v_{t+1}) = gamma(v_t), so the
prefix cost is invariant under horizon extension.

Constraint time conventions: a vertex constraint (a, t, v) forbids occupying
v at time t; an edge constraint (a, t, (u, w)) forbids traversing u -> w from
time t to t+1 (departure-time convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import INF, DistanceField, Graph, sat_add
from .trajectory import Trajectory, prefix_cost

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

    def for_agent(self, agent: int) -> tuple[set[tuple[int, int]], set[tuple[int, int, int]]]:
        """(forbidden (t, v) pairs, forbidden (t, u, w) departures) for one agent."""
        vtx = {(t, v) for a, t, v in self.vertex_constraints if a == agent}
        edg = {(t, u, w) for a, t, (u, w) in self.edge_constraints if a == agent}
        return vtx, edg

    def max_time(self, agent: int) -> int:
        """Largest timestep the agent's trajectory is constrained at (0 if none)."""
        times = [t for a, t, _ in self.vertex_constraints if a == agent]
        times += [t + 1 for a, t, _ in self.edge_constraints if a == agent]
        return max(times, default=0)

    def __len__(self) -> int:
        return len(self.vertex_constraints) + len(self.edge_constraints)


def satisfies(traj: Trajectory, constraints: ConstraintSet) -> bool:
    """True iff the trajectory obeys every constraint addressed to its agent."""
    n = len(traj)
    for agent, t, v in constraints.vertex_constraints:
        if agent == traj.agent and t < n and traj[t] == v:
            return False
    for agent, t, (u, w) in constraints.edge_constraints:
        if agent == traj.agent and t + 1 < n and traj[t] == u and traj[t + 1] == w:
            return False
    return True


def greedy_path(graph: Graph, start: int, gamma: DistanceField, length: int) -> list[int]:
    """Gamma-greedy walk of `length` steps: descend gamma via the smallest-id
    neighbor, then wait at the goal."""
    path = [start]
    v = start
    for _ in range(length):
        if gamma[v] == 0:
            path.append(v)
            continue
        v = min(w for w in graph.neighbors(v) if gamma[w] == gamma[v] - 1)
        path.append(v)
    return path


def plan_constrained(
    graph: Graph,
    agent: int,
    start: int,
    constraints: ConstraintSet,
    h_max: int,
    gamma: DistanceField,
) -> tuple[Trajectory, int] | None:
    """Optimal constrained H_max-step trajectory for one agent, with its cost.

    Returns None when no trajectory satisfies the constraints within h_max.
    Among equal-cost optima, the lexicographically smallest vertex sequence is
    returned, built by dynamic programming over (vertex, time) up to the last
    constrained step followed by the gamma-greedy suffix.
    """
    forbidden_vtx, forbidden_edg = constraints.for_agent(agent)
    if (0, start) in forbidden_vtx:
        raise ConstraintError(f"agent {agent}: vertex constraint at the known state (0, {start})")
    t_c = min(constraints.max_time(agent), h_max)
    for t, _ in forbidden_vtx:
        if t > h_max:
            raise ConstraintError(f"vertex constraint time {t} beyond horizon {h_max}")
    for t, _, _ in forbidden_edg:
        if t > h_max - 1:
            raise ConstraintError(f"edge constraint time {t} beyond horizon {h_max - 1}")

    goal = gamma.anchor
    n = graph.vertex_count
    # cost_to_go[t][v]: optimal cost from (v, t) through t_c, terminal gamma.
    terminal = [gamma[v] if (t_c, v) not in forbidden_vtx else INF for v in range(n)]
    if t_c == 0:
        if terminal[start] >= INF:
            return None
        prefix = [start]
    else:
        layers = [terminal]
        for t in range(t_c - 1, -1, -1):
            nxt = layers[-1]
            layer = []
            for v in range(n):
                if (t, v) in forbidden_vtx:
                    layer.append(INF)
                    continue
                best = INF
                for w in graph.neighbors(v):
                    if (t, v, w) in forbidden_edg:
                        continue
                    if nxt[w] < best:
                        best = nxt[w]
                layer.append(sat_add(1 if v != goal else 0, best))
            layers.append(layer)
        layers.reverse()  # layers[t][v] for t in 0..t_c
        if layers[0][start] >= INF:
            return None
        prefix = [start]
        v = start
        for t in range(t_c):
            step = 1 if v != goal else 0
            target = layers[t][v]
            v = min(
                w
                for w in graph.neighbors(v)
                if (t, v, w) not in forbidden_edg
                and sat_add(step, layers[t + 1][w]) == target
            )
            prefix.append(v)

    suffix = greedy_path(graph, prefix[-1], gamma, h_max - t_c)
    traj = Trajectory(agent, tuple(prefix[:-1] + suffix))
    return traj, prefix_cost(traj, h_max, gamma)
