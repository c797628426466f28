"""Trajectory containers, padding semantics, conflict detection, and costs.

The running cost p(v) charges 1 for every timestep an agent occupies a vertex
other than its goal, evaluated literally per timestep: intermediate goal
visits cost 0 even if the agent leaves again.  The finite-horizon cost of a
prefix is the running cost over the first h_r steps plus the shortest-path
cost-to-go at the prefix terminal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import INF, DistanceField, Graph, sat_add


@dataclass(frozen=True)
class Trajectory:
    """One agent's vertex sequence, one entry per timestep."""

    agent: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("trajectory must be non-empty")

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, t: int) -> int:
        return self.vertices[t]

    def validate_edges(self, graph: Graph) -> None:
        for u, v in zip(self.vertices, self.vertices[1:]):
            if not graph.has_edge(u, v):
                raise ValueError(f"agent {self.agent}: ({u}, {v}) is not a graph edge")


@dataclass(frozen=True)
class Conflict:
    """First-collision record between two trajectories.

    For kind "vertex", location is the shared vertex occupied at `time`.
    For kind "edge", location is the ordered edge (u, w) traversed by the
    first agent between time-1 and time while the second traverses (w, u).
    """

    kind: str
    agents: tuple[int, int]
    time: int
    location: int | tuple[int, int]


class JointTrajectory:
    """Per-agent trajectories padded with terminal waits to a common makespan."""

    def __init__(self, trajectories: list[Trajectory] | tuple[Trajectory, ...]):
        trajectories = list(trajectories)
        makespan = max((len(t) - 1 for t in trajectories), default=0)
        padded = []
        for traj in trajectories:
            pad = makespan + 1 - len(traj)
            if pad:
                traj = Trajectory(traj.agent, traj.vertices + (traj.vertices[-1],) * pad)
            padded.append(traj)
        self.trajectories: tuple[Trajectory, ...] = tuple(padded)
        self.makespan = makespan

    def __len__(self) -> int:
        return len(self.trajectories)

    def __getitem__(self, i: int) -> Trajectory:
        return self.trajectories[i]

    def positions_at(self, t: int) -> tuple[int, ...]:
        return tuple(traj[t] for traj in self.trajectories)


def detect_first_conflict(joint: JointTrajectory, horizon: int) -> Conflict | None:
    """Earliest conflict within timesteps 0..horizon, or None.

    Tie order at equal time: vertex conflicts before edge conflicts; among
    same-kind conflicts, the lowest (i, j) pair in lexicographic member order.
    """
    trajs = joint.trajectories
    if horizon > joint.makespan:
        raise ValueError(f"horizon {horizon} exceeds makespan {joint.makespan}")
    for t in range(horizon + 1):
        occupied: dict[int, int] = {}
        vertex_hits: list[tuple[int, int, int]] = []
        for i, traj in enumerate(trajs):
            v = traj[t]
            if v in occupied:
                vertex_hits.append((occupied[v], i, v))
            else:
                occupied[v] = i
        if vertex_hits:
            i, j, v = min(vertex_hits)
            return Conflict("vertex", (i, j), t, v)
        if t == 0:
            continue
        moves: dict[tuple[int, int], int] = {}
        edge_hits: list[tuple[int, int, tuple[int, int]]] = []
        for j, traj in enumerate(trajs):
            u, w = traj[t - 1], traj[t]
            if u == w:
                continue
            other = moves.get((w, u))
            if other is not None:
                edge_hits.append((other, j, (traj[t], traj[t - 1])))
            moves[(u, w)] = j
        if edge_hits:
            i, j, edge = min(edge_hits)
            return Conflict("edge", (i, j), t, edge)
    return None


def count_conflicts(joint: JointTrajectory, horizon: int) -> int:
    """Number of (pair, time) collision events within the horizon prefix."""
    trajs = joint.trajectories
    total = 0
    for t in range(min(horizon, joint.makespan) + 1):
        seen: dict[int, int] = {}
        for traj in trajs:
            v = traj[t]
            hits = seen.get(v, 0)
            total += hits
            seen[v] = hits + 1
        if t > 0:
            moves = {}
            for traj in trajs:
                u, w = traj[t - 1], traj[t]
                if u == w:
                    continue
                if (w, u) in moves:
                    total += 1
                moves[(u, w)] = True
    return total


def prefix_cost(traj: Trajectory, h_r: int, gamma: DistanceField) -> int:
    """Running cost over the first h_r steps plus cost-to-go at step h_r.

    gamma must be the to-goal field of the trajectory's agent; its anchor is
    the goal vertex used by the running cost.
    """
    if h_r > len(traj) - 1:
        raise ValueError(f"h_r {h_r} exceeds trajectory length {len(traj) - 1}")
    goal = gamma.anchor
    running = sum(1 for v in traj.vertices[:h_r] if v != goal)
    return sat_add(running, gamma[traj[h_r]])


def path_cost(vertices: tuple[int, ...] | list[int], goal: int) -> int:
    """Running cost of a full vertex sequence (its terminal assumed at goal)."""
    return sum(1 for v in vertices if v != goal)


def soc(joint: JointTrajectory, goals) -> int:
    """Sum-of-costs of a solution: off-goal timesteps over all agents."""
    total = 0
    for traj in joint.trajectories:
        goal = goals[traj.agent]
        if traj[len(traj) - 1] != goal:
            raise ValueError(f"agent {traj.agent} does not end at its goal")
        total += path_cost(traj.vertices, goal)
    return total


def is_conflict_free(joint: JointTrajectory) -> bool:
    return detect_first_conflict(joint, joint.makespan) is None


__all__ = [
    "Trajectory",
    "JointTrajectory",
    "Conflict",
    "detect_first_conflict",
    "count_conflicts",
    "prefix_cost",
    "path_cost",
    "soc",
    "is_conflict_free",
    "INF",
]
