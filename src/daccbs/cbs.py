"""Constraint-tree search over agent groups.

run_adaptive implements the finite-horizon best-first search with a growing
running horizon: nodes store goal-terminated paths (each ends where its
agent reaches its goal for good, or at H_max when cut off there),
conflicts are resolved only inside the active prefix, and whenever the
dequeued node's prefix is conflict-free the horizon jumps to that node's
first conflict (or to H_max).  Because paths are gamma-greedy past their
last constrained step, node costs are invariant under horizon extension and
the tree is reused across increments.

A node costs one low-level plan at most and one scan of the row it
replanned.  A search plans each (agent, own constraints) pair once
(Replanner).  A counted node carries its conflict events (ConflictIndex): a
child keeps its parent's events that do not involve its replanned row, and
looks that row up in an occupancy table of the root's rows from the first
step where it leaves its parent's, since no conflict can lie before it.
No node reads its rows further than its first conflict and its count need.

run_classic_cbs drives the same machinery to a horizon long enough to cover
an optimal solution, which makes it plain full-horizon CBS.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from .backup import BackupError, LacamBackup
from .certificate import plan_cost
from .clock import WallClock, WorkClock
from .grid import INF, InfeasibleInstanceError, MapfInstance, sat_add
from .lowlevel import ConstraintSet, Reach, greedy_path, plan_constrained
from .trajectory import (
    Conflict,
    Event,
    JointTrajectory,
    OccupancyTable,
    Trajectory,
    count_conflicts,
    count_events,
    detect_first_conflict,
    path_cost,
    strip_goal_waits,
)

__all__ = [
    "ConflictIndex", "ConstraintTreeNode", "ExpansionCapExceeded", "NodeConflicts",
    "Replanner", "SearchOutcome", "expand", "make_root", "run_adaptive",
    "run_classic_cbs",
    # The full-row scans.  The search no longer calls them, but the
    # benchmark's layer trace (perfbench/layers.py) wraps them by these names.
    "detect_first_conflict", "count_conflicts",
]


class ExpansionCapExceeded(RuntimeError):
    """run_classic_cbs hit the caller-imposed node expansion cap."""


@dataclass
class ConstraintTreeNode:
    """Constraint set, per-agent goal-terminated paths, and prefix cost.

    A path ends at its agent's goal, or at H_max when cut off there; read
    past its end, the agent waits at its last vertex.  Its cost is the
    running cost before its last vertex plus gamma there, and `cost` sums
    those over the members.
    """

    constraints: ConstraintSet
    paths: dict[int, tuple[int, ...]]  # agent id -> goal-terminated path
    cost: int
    # No conflict lies before this step, so the node's scan starts here: 0 at
    # a root, and in a child the first step at which its replanned row
    # differs from its parent's (at the latest the parent's conflict time).
    scan_from: int = 0
    # Member index of the row replanned from the parent; -1 at a root.
    replanned: int = -1


@dataclass
class SearchOutcome:
    """Result of an adaptive search run.

    best_node / best_h describe the longest conflict-free prefix found
    (best_node is None when not even an h_r = 1 prefix was certified).
    reason is one of: "horizon", "deadline", "exhausted", "no-prefix", "cap".
    """

    best_node: ConstraintTreeNode | None
    best_h: int
    reason: str
    expansions: int = 0
    dequeues: int = 0


def make_root(
    instance: MapfInstance,
    state,
    h_max: int,
    agents: tuple[int, ...] | None = None,
) -> ConstraintTreeNode:
    """Root node: empty constraints, each agent's gamma-greedy walk to its
    goal (cut off at h_max steps)."""
    if agents is None:
        agents = tuple(range(instance.n_agents))
    paths: dict[int, tuple[int, ...]] = {}
    total = 0
    for a in agents:
        gamma = instance.gammas[a]
        start = state[a]
        if gamma[start] >= INF:
            raise InfeasibleInstanceError(f"agent {a} cannot reach its goal from {start}")
        paths[a] = tuple(greedy_path(instance.graph, start, gamma, h_max))
        total = sat_add(total, gamma[start])
    return ConstraintTreeNode(ConstraintSet(), paths, total)


class Replanner:
    """One search's low-level plans from `state`.

    A plan reads only its agent's own constraints: the agent's start, h_max,
    gamma and Reach are fixed for the whole search.  So each (agent, own
    constraints) pair is planned once and its result kept, an infeasible
    None included, and each agent's Reach is grown once.  Paths are tuples,
    so the children that share a plan share one object.
    """

    def __init__(self, instance: MapfInstance, state, h_max: int) -> None:
        self._instance = instance
        self._state = state
        self._h_max = h_max
        self._reaches: dict[int, Reach] = {}
        self._plans: dict[tuple, tuple[tuple[int, ...], int] | None] = {}

    def plan(
        self, agent: int, constraints: ConstraintSet
    ) -> tuple[tuple[int, ...], int] | None:
        own = constraints.only(agent)
        key = (agent, own)
        if key in self._plans:
            return self._plans[key]
        reach = self._reaches.get(agent)
        if reach is None:
            reach = self._reaches[agent] = Reach(self._instance.graph, self._state[agent])
        plan = self._plans[key] = plan_constrained(
            self._instance.graph, agent, self._state[agent], own, self._h_max,
            self._instance.gammas[agent], reach=reach,
        )
        return plan


def _first_change(old: tuple[int, ...], new: tuple[int, ...], end: int) -> int:
    """First step before `end` at which two paths, each read as waiting at
    its last vertex past its end, differ; `end` when they agree up to it."""
    old = old[:end] + old[-1:] * (end - len(old))
    new = new[:end] + new[-1:] * (end - len(new))
    for t in range(1, end):
        if old[t] != new[t]:
            return t
    return end


def expand(
    node: ConstraintTreeNode,
    conflict: Conflict,
    instance: MapfInstance,
    state,
    h_max: int,
    agents: tuple[int, ...],
    replanner: Replanner | None = None,
) -> list[ConstraintTreeNode]:
    """Children resolving the conflict, one added constraint each.

    Only the newly constrained agent is replanned; children whose replan is
    infeasible are omitted.  Edge conflicts reported at arrival time t become
    departure-time constraints at t - 1.  `replanner` is the search's
    (without one, a fresh one serves this call alone).

    A child's rows equal its parent's before the first step at which the
    replanned row changes, and the parent had no conflict before its own
    conflict's time; an edge conflict at t reads rows t - 1 and t.  So the
    child has no conflict before the earlier of the two, and its scan_from
    is that step.
    """
    if replanner is None:
        replanner = Replanner(instance, state, h_max)
    children: list[ConstraintTreeNode] = []
    i, j = conflict.agents
    members = (agents[i], agents[j])
    for k, agent in enumerate(members):
        if conflict.kind == "vertex":
            constraints = node.constraints.with_vertex(agent, conflict.time, conflict.location)
        else:
            u, w = conflict.location
            edge = (u, w) if k == 0 else (w, u)
            constraints = node.constraints.with_edge(agent, conflict.time - 1, edge)
        plan = replanner.plan(agent, constraints)
        if plan is None:
            continue
        path, cost = plan
        old = node.paths[agent]
        old_cost = path_cost(old[:-1], instance.goals[agent]) + instance.gammas[agent][old[-1]]
        paths = dict(node.paths)
        paths[agent] = path
        children.append(ConstraintTreeNode(
            constraints, paths, node.cost - old_cost + cost,
            _first_change(old, path, conflict.time), conflict.agents[k],
        ))
    return children


class NodeConflicts:
    """A counted node's conflict events: every one at timesteps 0..known,
    sorted, and the first of them (None when there is none to H_max)."""

    __slots__ = ("events", "known", "first")

    def __init__(self, events: list[Event], known: int, first: Conflict | None) -> None:
        self.events = events
        self.known = known
        self.first = first


class ConflictIndex:
    """One search's conflict bookkeeping: an occupancy table of the root's
    rows, from which each node's events are found.

    A child keeps its parent's events that do not involve its replanned
    row, up to the parent's `known` step, and adds that row's events
    against the others from its scan_from up to there; a root starts with
    none.  Past that, a node reads every row, through its count horizon and
    then step by step only until its first conflict.  A row still the
    root's is found through the table, and a replanned one is compared
    directly.
    """

    def __init__(self, root: ConstraintTreeNode, agents: tuple[int, ...], h_max: int) -> None:
        self.agents = agents
        self.h_max = h_max
        self.table = OccupancyTable(root.paths[a] for a in agents)

    def count(
        self,
        node: ConstraintTreeNode,
        inherited: NodeConflicts | None,
        horizon: int,
    ) -> tuple[int, NodeConflicts]:
        """(conflict events in 0..horizon, the node's events) of a root
        (`inherited` None) or of a child, from its parent's events.  The
        count is count_conflicts' on the node's padded rows: 0 when the
        first conflict lies past `horizon`."""
        table = self.table
        rows = [node.paths[a] for a in self.agents]
        live = [row is own for row, own in zip(rows, table.paths)]
        end = min(self.h_max, max(map(len, rows)) - 1)
        if inherited is None:
            events: list[Event] = []
            known = -1
        else:
            m = node.replanned
            live[m] = False  # its row is new, whatever object it is
            known = min(inherited.known, end)
            events = [
                e for e in inherited.events
                if e[0] <= known and e[2] != m and e[3] != m
            ]
            events += table.row_events(rows, m, node.scan_from, known, live)
            events.sort()
        # The steps through the count horizon are read either way: they hold
        # the events to count, or show that the first conflict lies past it.
        stop = min(horizon, end)
        if known < stop:
            events += table.events(rows, known + 1, stop, live)
            known = stop
        if not events and known < end:
            events = table.events(rows, known + 1, end, live, first_only=True)
            known = events[0][0] if events else end
        if not events:
            return 0, NodeConflicts(events, known, None)
        t, kind, i, j, location = events[0]
        conflict = Conflict("edge" if kind else "vertex", (i, j), t, location)
        if t > horizon:
            return 0, NodeConflicts(events, known, conflict)
        return count_events(events, horizon), NodeConflicts(events, known, conflict)


def run_adaptive(
    instance: MapfInstance,
    state,
    h_max: int,
    clock: WallClock | WorkClock | None,
    on_prefix_found: Callable[[ConstraintTreeNode, int], None] | None = None,
    agents: tuple[int, ...] | None = None,
) -> SearchOutcome:
    """Best-first adaptive-horizon search over the constraint tree.

    A node's first conflict is looked for in 0..min(H_max, makespan).  Past
    the group's makespan every agent waits at its own goal, and goals are
    distinct, so no conflict can appear there.
    When a dequeued node's first conflict lies outside the active prefix
    0..h_r, the prefix is conflict-free and h_r jumps to that conflict's
    time (H_max when there is none); the node is then expanded on that
    conflict.

    on_prefix_found is invoked with (node, h_r) whenever a dequeued node's
    active prefix is conflict-free, and once more at h_r = H_max before the
    final break.  The clock (None = no limit) is asked before every dequeue
    and every conflict count; once it has expired the search stops with the
    clock's reason.

    Nodes leave the queue in (cost, conflicts within the push-time h_r,
    push order).  A child's conflicts are counted only when its cost level
    is reached: it is pushed with the count -1, which sorts it ahead of
    every counted node of its cost, and with its parent's conflict events.
    When it reaches the top, ConflictIndex.count derives its events from
    its parent's (see ConflictIndex).  Its first conflict is the smallest
    event; no event precedes it, so the count is 0 when it lies past the
    push-time h_r, and otherwise the events from it to h_r, counted as
    count_conflicts counts a scan of the padded rows.  The entry goes back
    with the count and the node's events; the dequeue reads the first
    conflict from them, and the node's children are pushed with them.  The
    root is pushed the same way, with no events to inherit.  The order is
    the one eager counting gives, but children that are never dequeued are
    never counted, and no node is counted twice.  Each replanned agent's
    Reach is kept for the whole search, and so is each (agent, own
    constraints) pair's plan, so no pair is planned twice.
    """
    if agents is None:
        agents = tuple(range(instance.n_agents))
    if not agents:
        root = ConstraintTreeNode(ConstraintSet(), {}, 0)
        return SearchOutcome(root, h_max, "horizon")
    root = make_root(instance, state, h_max, agents)
    seq = 0
    h_r = 1
    # (cost, conflicts at the push-time h_r or -1 until counted, seq, node,
    # push-time h_r, the node's events once counted and its parent's until
    # then)
    heap: list[tuple[int, int, int, ConstraintTreeNode, int, NodeConflicts | None]] = [
        (root.cost, -1, seq, root, h_r, None)
    ]
    replanner = Replanner(instance, state, h_max)
    index = ConflictIndex(root, agents, h_max)
    best_node: ConstraintTreeNode | None = None
    best_h = 0
    expansions = 0
    dequeues = 0
    reason = "exhausted"
    while heap:
        if clock is not None and clock.expired(expansions):
            reason = clock.reason
            break
        cost, conflicts, node_seq, node, pushed_h, events = heap[0]
        if conflicts < 0:
            conflicts, events = index.count(node, events, pushed_h)
            heapq.heapreplace(heap, (cost, conflicts, node_seq, node, pushed_h, events))
            continue
        heapq.heappop(heap)
        dequeues += 1
        conflict = events.first
        if conflict is None or conflict.time > h_r:
            if on_prefix_found is not None:
                on_prefix_found(node, h_r)
            if conflict is None:  # conflict-free up to h_max
                best_node, best_h = node, h_max
                if on_prefix_found is not None:
                    on_prefix_found(node, h_max)
                reason = "horizon"
                break
            h_r = conflict.time
            if h_r - 1 > best_h:
                best_node, best_h = node, h_r - 1
        for child in expand(node, conflict, instance, state, h_max, agents, replanner):
            seq += 1
            heapq.heappush(heap, (child.cost, -1, seq, child, h_r, events))
        expansions += 1
    if best_node is None and reason in ("exhausted", "deadline"):
        reason = "no-prefix"
    return SearchOutcome(best_node, best_h, reason, expansions, dequeues)


def run_classic_cbs(
    instance: MapfInstance,
    h_max: int | None = None,
    expansion_cap: int | None = None,
) -> JointTrajectory:
    """Full-horizon CBS: SOC-optimal conflict-free solution, each trajectory
    ending where its agent reaches its goal for good.

    When h_max is not given, a backup rollout supplies a sound horizon bound
    (its cost upper-bounds the optimal SOC, which upper-bounds the optimal
    makespan).  A given h_max must cover a solution: when the search's
    conflict-free plan leaves an agent short of its goal at h_max,
    InfeasibleInstanceError is raised.
    """
    if instance.n_agents == 0:
        return JointTrajectory([])
    agents = tuple(range(instance.n_agents))
    if h_max is None:
        try:
            paths = LacamBackup(seed=0).rollout(instance, agents, instance.starts)
        except BackupError as exc:
            raise InfeasibleInstanceError(str(exc)) from exc
        h_max = max(plan_cost(paths, instance), 1)
    clock = None if expansion_cap is None else WorkClock(expansion_cap)
    outcome = run_adaptive(instance, instance.starts, h_max, clock)
    if outcome.reason == "cap":
        raise ExpansionCapExceeded(f"expansion cap {expansion_cap} exceeded")
    if outcome.best_node is None or outcome.best_h < h_max:
        raise InfeasibleInstanceError("no conflict-free solution found (infeasible instance?)")
    paths = {a: strip_goal_waits(outcome.best_node.paths[a]) for a in agents}
    for a in agents:
        if paths[a][-1] != instance.goals[a]:
            raise InfeasibleInstanceError(
                f"h_max {h_max} is too short: agent {a} does not reach its goal"
            )
    return JointTrajectory([Trajectory(a, paths[a]) for a in agents])
