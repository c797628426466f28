"""Paths, padding semantics, conflict detection, and costs.

A path is one agent's vertex tuple, one entry per timestep.  Read past its
end, its agent waits at the last vertex; pad extends a set of paths with
those waits to a common makespan, and the conflict scans read the padded
rows.  A plan's path ends at the goal, where its agent arrives for good, and
strip_goal_waits drops any waits after that arrival.

The running cost p(v) charges 1 for every timestep an agent occupies a vertex
other than its goal, evaluated literally per timestep: intermediate goal
visits cost 0 even if the agent leaves again.  The finite-horizon cost of a
prefix is the running cost over the first h_r steps plus the shortest-path
cost-to-go at the prefix terminal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Trajectory:
    """One agent's path, as run_classic_cbs returns it."""

    agent: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("trajectory must be non-empty")


@dataclass(frozen=True)
class Conflict:
    """First-collision record between two paths.

    For kind "vertex", location is the shared vertex occupied at `time`.
    For kind "edge", location is the ordered edge (u, w) traversed by the
    first agent between time-1 and time while the second traverses (w, u).
    """

    kind: str
    agents: tuple[int, int]
    time: int
    location: int | tuple[int, int]


def pad(paths: Iterable[tuple[int, ...]]) -> Rows:
    """The paths as rows of one length, the longest's: each is extended with
    waits at its last vertex.  A path already that long is its own row."""
    paths = tuple(paths)
    length = max(map(len, paths), default=0)
    return tuple(
        path if len(path) == length else path + (path[-1],) * (length - len(path))
        for path in paths
    )


def makespan(rows: Rows) -> int:
    """Last timestep of padded rows (0 for none)."""
    return len(rows[0]) - 1 if rows else 0


class JointTrajectory:
    """A solution: per-agent trajectories and their padded rows."""

    def __init__(self, trajectories: Iterable[Trajectory]):
        self.trajectories = tuple(trajectories)
        self.rows = pad(traj.vertices for traj in self.trajectories)
        self.makespan = makespan(self.rows)


def detect_first_conflict(rows: Rows, horizon: int, start: int = 0) -> Conflict | None:
    """Earliest conflict of padded rows within timesteps start..horizon, or None.

    A caller that knows no conflict precedes `start` passes it: the scan
    then finds the whole prefix's first conflict.  An edge conflict at t
    reads rows t - 1 and t, so the scan reads row start - 1 too.
    Tie order at equal time: vertex conflicts before edge conflicts; among
    same-kind conflicts, the lowest (i, j) pair in lexicographic member order.
    """
    if horizon > makespan(rows):
        raise ValueError(f"horizon {horizon} exceeds makespan {makespan(rows)}")
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


def count_conflicts(rows: Rows, horizon: int, start: int = 0) -> int:
    """Number of (pair, time) collision events of padded rows at timesteps
    start..horizon.

    A caller that knows the rows' first conflict passes its time as
    `start`: no event precedes it, so the count is the whole prefix's.
    """
    total = 0
    for t in range(start, min(horizon, makespan(rows)) + 1):
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
        if traj.vertices[-1] != goal:
            raise ValueError(f"agent {traj.agent} does not end at its goal")
        total += path_cost(traj.vertices, goal)
    return total


def is_conflict_free(paths: Iterable[tuple[int, ...]]) -> bool:
    """True iff the paths, padded to a common makespan, never conflict."""
    rows = pad(paths)
    return detect_first_conflict(rows, makespan(rows)) is None
