"""Trajectory containers, padding semantics, conflict detection, and costs.

Read past a path's end, its agent waits at the last vertex; JointTrajectory
pads paths with those waits to a common makespan.  A plan's path ends at the
goal, where its agent arrives for good, and strip_goal_waits drops any waits
after that arrival.

The running cost p(v) charges 1 for every timestep an agent occupies a vertex
other than its goal, evaluated literally per timestep: intermediate goal
visits cost 0 even if the agent leaves again.  The finite-horizon cost of a
prefix is the running cost over the first h_r steps plus the shortest-path
cost-to-go at the prefix terminal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


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
    """Per-agent trajectories padded with terminal waits to a common makespan.

    `rows[i]` is trajectory i's vertex tuple padded to makespan + 1 entries;
    the conflict scans read these.  The padded Trajectory objects are built
    on first access, since a search builds a joint per node and scans it once.
    """

    def __init__(self, trajectories: list[Trajectory] | tuple[Trajectory, ...]):
        self._given = tuple(trajectories)
        makespan = max((len(t.vertices) - 1 for t in self._given), default=0)
        rows = []
        for traj in self._given:
            vertices = traj.vertices
            pad = makespan + 1 - len(vertices)
            rows.append(vertices + (vertices[-1],) * pad if pad else vertices)
        self.rows: tuple[tuple[int, ...], ...] = tuple(rows)
        self.makespan = makespan

    @cached_property
    def trajectories(self) -> tuple[Trajectory, ...]:
        return tuple(
            traj if traj.vertices is row else Trajectory(traj.agent, row)
            for traj, row in zip(self._given, self.rows)
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> Trajectory:
        return self.trajectories[i]


def detect_first_conflict(
    joint: JointTrajectory, horizon: int, start: int = 0
) -> Conflict | None:
    """Earliest conflict within timesteps start..horizon, or None.

    A caller that knows no conflict precedes `start` passes it: the scan
    then finds the whole prefix's first conflict.  An edge conflict at t
    reads rows t - 1 and t, so the scan reads row start - 1 too.
    Tie order at equal time: vertex conflicts before edge conflicts; among
    same-kind conflicts, the lowest (i, j) pair in lexicographic member order.
    """
    if horizon > joint.makespan:
        raise ValueError(f"horizon {horizon} exceeds makespan {joint.makespan}")
    rows = joint.rows
    for t in range(start, horizon + 1):
        occupied: dict[int, int] = {}
        vertex_hits: list[tuple[int, int, int]] = []
        for i, row in enumerate(rows):
            v = row[t]
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
        for j, row in enumerate(rows):
            u, w = row[t - 1], row[t]
            if u == w:
                continue
            other = moves.get((w, u))
            if other is not None:
                edge_hits.append((other, j, (w, u)))
            moves[(u, w)] = j
        if edge_hits:
            i, j, edge = min(edge_hits)
            return Conflict("edge", (i, j), t, edge)
    return None


def count_conflicts(joint: JointTrajectory, horizon: int, start: int = 0) -> int:
    """Number of (pair, time) collision events at timesteps start..horizon.

    A caller that knows the joint's first conflict passes its time as
    `start`: no event precedes it, so the count is the whole prefix's.
    """
    rows = joint.rows
    total = 0
    for t in range(start, min(horizon, joint.makespan) + 1):
        seen: dict[int, int] = {}
        for row in rows:
            v = row[t]
            hits = seen.get(v, 0)
            total += hits
            seen[v] = hits + 1
        if t > 0:
            moves = set()
            for row in rows:
                u, w = row[t - 1], row[t]
                if u == w:
                    continue
                if (w, u) in moves:
                    total += 1
                moves.add((u, w))
    return total


def strip_goal_waits(vertices: tuple[int, ...]) -> tuple[int, ...]:
    """The path without the waits at its last vertex (its goal, in a plan):
    it ends when its agent arrives there for good."""
    end = len(vertices) - 1
    while end > 0 and vertices[end - 1] == vertices[-1]:
        end -= 1
    return vertices[: end + 1]


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
