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
from operator import eq
from typing import Iterable

Rows = tuple[tuple[int, ...], ...]
# A conflict event, the one conflict record: (t, 0 for vertex or 1 for edge,
# i, j, location) with i < j member indices.  A vertex event's location is
# the vertex both rows occupy at t; an edge event's is the edge (u, w) that
# row i moves along from t - 1 to t while row j moves (w, u).  Sorted, the
# first is the first conflict in detect_first_conflict's tie order.
Event = tuple[int, int, int, int, object]


@dataclass(frozen=True)
class Trajectory:
    """One agent's path, as run_classic_cbs returns it."""

    agent: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("trajectory must be non-empty")


def waiting(path: tuple[int, ...], length: int) -> tuple[int, ...]:
    """The path extended with waits at its last vertex to `length` entries;
    a path at least that long is returned as it is."""
    return path + (path[-1],) * (length - len(path)) if len(path) < length else path


def pad(paths: Iterable[tuple[int, ...]]) -> Rows:
    """The paths as rows of one length, the longest's: each is extended with
    waits at its last vertex.  A path already that long is its own row."""
    paths = tuple(paths)
    length = max(map(len, paths), default=0)
    return tuple(waiting(path, length) for path in paths)


def makespan(rows: Rows) -> int:
    """Last timestep of padded rows (0 for none)."""
    return len(rows[0]) - 1 if rows else 0


class JointTrajectory:
    """A solution: per-agent trajectories and their padded rows."""

    def __init__(self, trajectories: Iterable[Trajectory]):
        self.trajectories = tuple(trajectories)
        self.rows = pad(traj.vertices for traj in self.trajectories)
        self.makespan = makespan(self.rows)


def detect_first_conflict(rows: Rows, horizon: int) -> Event | None:
    """Earliest conflict event of padded rows within timesteps 0..horizon,
    or None.

    Tie order at equal time: vertex conflicts before edge conflicts; among
    same-kind conflicts, the lowest (i, j) pair in lexicographic member order.
    """
    if horizon > makespan(rows):
        raise ValueError(f"horizon {horizon} exceeds makespan {makespan(rows)}")
    for t in range(horizon + 1):
        occupied: dict[int, int] = {}
        vertex_hits: list[tuple[int, int, int]] = []
        for i, row in enumerate(rows):
            v = row[t]
            if v in occupied:
                vertex_hits.append((occupied[v], i, v))
            else:
                occupied[v] = i
        if vertex_hits:
            return (t, 0, *min(vertex_hits))
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
            return (t, 1, *min(edge_hits))
    return None


def count_conflicts(rows: Rows, horizon: int) -> int:
    """Number of (pair, time) collision events of padded rows at timesteps
    0..horizon."""
    total = 0
    for t in range(min(horizon, makespan(rows)) + 1):
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


def count_events(events: list[Event], horizon: int) -> int:
    """count_conflicts' count of sorted conflict events at or before
    `horizon`: each vertex pair once, and each row that meets an earlier
    row's reverse move once at a step, however many rows made that move."""
    count = 0
    reversing: set[tuple[int, int]] = set()
    for t, kind, _, j, _ in events:
        if t > horizon:
            break
        if kind:
            reversing.add((t, j))
        else:
            count += 1
    return count + len(reversing)


class OccupancyTable:
    """Where a fixed set of paths is at each step, and which edges they move
    along: a space-time index in the manner of a conflict avoidance table.

    Each path is read as waiting at its last vertex past its end.  The
    table is grown one timestep at a time, only as far as it is read, and
    each timestep also keeps the conflict events among its own paths.  A
    set of rows in which some paths have been replaced is scanned against
    it: `replaced` holds the indices of the replaced rows (any container,
    such as a constraint-tree node's constraint mapping), which are
    compared directly; every other row is the table's path, and is found
    through the table.
    """

    def __init__(self, paths) -> None:
        self.paths = tuple(paths)
        self.end = max(map(len, self.paths)) - 1  # past it, no path moves
        # Per timestep: vertex -> the members there, and edge (u, w) -> the
        # members that move u -> w into the step.
        self._at: list[dict[int, list[int]]] = []
        self._moves: list[dict[tuple[int, int], list[int]]] = []
        self._events: list[list[Event]] = []

    def __len__(self) -> int:
        """Timesteps built so far."""
        return len(self._at)

    def _grow(self, t: int) -> None:
        """Build the timesteps through t (at most through the end)."""
        for s in range(len(self._at), min(t, self.end) + 1):
            at: dict[int, list[int]] = {}
            moves: dict[tuple[int, int], list[int]] = {}
            events: list[Event] = []
            for j, path in enumerate(self.paths):
                v = path[s] if s < len(path) else path[-1]
                here = at.get(v)
                if here is None:
                    at[v] = [j]
                else:
                    events.extend((s, 0, i, j, v) for i in here)
                    here.append(j)
                if 0 < s < len(path) and path[s - 1] != v:
                    u = path[s - 1]
                    events.extend((s, 1, i, j, (v, u)) for i in moves.get((v, u), ()))
                    moves.setdefault((u, v), []).append(j)
            events.sort()
            self._at.append(at)
            self._moves.append(moves)
            self._events.append(events)

    def events(self, rows, lo: int, hi: int, replaced, first_only: bool = False) -> list[Event]:
        """Every conflict event of `rows` at timesteps lo..hi, sorted; with
        `first_only`, those of the first of these steps that has any.

        rows[k] replaces the table's path k for each k in `replaced`.  The
        scan goes step by step, and the table grows only through the last
        step scanned.
        """
        end, own, at, moves = self.end, self._events, self._at, self._moves
        # In member order, so that an event between two replaced rows keeps
        # i < j.
        changed = [(r, waiting(rows[r], hi + 1)) for r in sorted(replaced)]
        events: list[Event] = []
        for t in range(lo, hi + 1):
            if t <= end:
                if t >= len(at):
                    self._grow(t)
                if own[t]:
                    events += [e for e in own[t] if e[2] not in replaced and e[3] not in replaced]
                at_t, moves_t = at[t], moves[t]
            else:
                # Past the end every path waits where it is: only the vertex
                # pairs of the last step remain.
                self._grow(end)
                events += [
                    (t, 0, i, j, v) for _, kind, i, j, v in own[end]
                    if not kind and i not in replaced and j not in replaced
                ]
                at_t, moves_t = at[end], {}
            # The replaced rows against the table's through the table, and
            # against each other as a scan of this step does.
            here: dict[int, list[int]] = {}
            moved: dict[tuple[int, int], list[int]] = {}
            for r, row in changed:
                v = row[t]
                for k in at_t.get(v, ()):
                    if k not in replaced:
                        events.append((t, 0, k, r, v) if k < r else (t, 0, r, k, v))
                others = here.get(v)
                if others is None:
                    here[v] = [r]
                else:
                    events.extend((t, 0, k, r, v) for k in others)
                    others.append(r)
                if t:
                    u = row[t - 1]
                    if u != v:
                        for k in moves_t.get((v, u), ()):
                            if k not in replaced:
                                events.append(
                                    (t, 1, k, r, (v, u)) if k < r else (t, 1, r, k, (u, v))
                                )
                        others = moved.get((v, u))
                        if others:
                            events.extend((t, 1, k, r, (v, u)) for k in others)
                        moved.setdefault((u, v), []).append(r)
            if first_only and events:
                break
        events.sort()
        return events

    def row_events(self, rows, r: int, lo: int, hi: int, replaced) -> list[Event]:
        """Conflict events at timesteps lo..hi between rows[r], which is in
        `replaced`, and each other row: the table's found through the
        table, the other replaced ones compared directly.  Unsorted."""
        events: list[Event] = []
        if lo > hi:
            return events
        others = [k for k in replaced if k != r]
        self._grow(hi)
        end, at, moves = self.end, self._at, self._moves
        row = waiting(rows[r], hi + 1)
        for t in range(lo, hi + 1):
            v = row[t]
            for k in at[t if t < end else end].get(v, ()):
                if k not in replaced:
                    events.append((t, 0, k, r, v) if k < r else (t, 0, r, k, v))
            if 0 < t <= end:
                u = row[t - 1]
                if u != v:
                    for k in moves[t].get((v, u), ()):
                        if k not in replaced:
                            events.append(
                                (t, 1, k, r, (v, u)) if k < r else (t, 1, r, k, (u, v))
                            )
        first = max(lo, 1)
        for k in others:
            other = waiting(rows[k], hi + 1)
            i, j = (k, r) if k < r else (r, k)
            if any(map(eq, row[lo:hi + 1], other[lo:hi + 1])):
                events.extend(
                    (t, 0, i, j, row[t]) for t in range(lo, hi + 1) if row[t] == other[t]
                )
            # An edge event at t: row r moves u -> v while the other moves v -> u.
            if any(map(eq, row[first - 1:hi], other[first:hi + 1])):
                low = row if i == r else other
                events.extend(
                    (t, 1, i, j, (low[t - 1], low[t]))
                    for t in range(first, hi + 1)
                    if row[t - 1] == other[t] and row[t] == other[t - 1] != row[t - 1]
                )
        return events


class Occupancy:
    """Which path occupies each vertex at each step, for paths that never
    share a vertex at a step (a certificate's): the other members as a
    certificate repair reads them.

    Each path is read as waiting at its last vertex past its end, so past
    the last path's end every step is that end's.  The per-step index is
    built one step at a time, only as far as it is read, and a path replaced
    changes only its own entries in the steps already built.
    """

    def __init__(self, paths) -> None:
        self.paths = tuple(paths)
        self._members = range(len(self.paths))
        self._at: list[dict[int, int]] = []
        self._pad()

    def _pad(self) -> None:
        """Set the end, and pad the paths to it from the first step not yet
        indexed (none when the end has come before it)."""
        self.end = max(map(len, self.paths)) - 1  # past it, no path moves
        built = len(self._at)
        self._columns = zip(*(waiting(path, self.end + 1)[built:] for path in self.paths))

    def at(self, t: int) -> dict[int, int]:
        """vertex -> the index of the path there at timestep t."""
        t = min(t, self.end)
        at = self._at
        while len(at) <= t:
            at.append(dict(zip(next(self._columns), self._members)))
        return at[t]

    def replace(self, member: int, path: tuple[int, ...]) -> None:
        """Put `path` in the place of the path of index `member`; together
        they must still never share a vertex at a step."""
        old = self.paths[member]
        self.paths = self.paths[:member] + (path,) + self.paths[member + 1:]
        # A built step holds every path at that step, or at its last vertex
        # past its end, whatever the end of them all.
        for t, occupied in enumerate(self._at):
            del occupied[old[min(t, len(old) - 1)]]
            occupied[path[min(t, len(path) - 1)]] = member
        self._pad()

    def meets(self, member: int, path: tuple[int, ...]) -> bool:
        """Whether `path`, in the place of the path of index `member`, would
        meet another path: at a vertex at a step, or moving along an edge
        while the other moves along it the other way.  Read past its end, it
        waits at its last vertex, so it also meets any later visit there."""
        last = len(path) - 1
        before = before_occupied = None  # the path's vertex and the index at t - 1
        for t in range(max(last, self.end) + 1):
            v = path[min(t, last)]
            occupied = self.at(t)
            k = occupied.get(v, member)
            if k != member:
                return True
            if before is not None and v != before:
                k = before_occupied.get(v, member)
                if k != member and occupied.get(before) == k:
                    return True
            before, before_occupied = v, occupied
        return False


def strip_goal_waits(vertices: tuple[int, ...]) -> tuple[int, ...]:
    """The path without the waits at its last vertex (its goal, in a plan):
    it ends when its agent arrives there for good."""
    end = len(vertices) - 1
    while end > 0 and vertices[end - 1] == vertices[-1]:
        end -= 1
    return vertices[: end + 1]


def path_cost(vertices: tuple[int, ...] | list[int], goal: int) -> int:
    """Running cost of a full vertex sequence (its terminal assumed at goal)."""
    return len(vertices) - vertices.count(goal)


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
