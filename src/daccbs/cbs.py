"""Constraint-tree search over agent groups.

run_adaptive implements the finite-horizon best-first search with a growing
running horizon: nodes store goal-terminated paths (each ends where its
agent reaches its goal for good, or at H_max when cut off there),
conflicts are resolved only inside the active prefix, and whenever the
dequeued node's prefix is conflict-free the horizon jumps to that node's
first conflict (or to H_max).  Because paths are gamma-greedy past their
last constrained step, node costs are invariant under horizon extension and
the tree is reused across increments.

A node holds one constraint set per constrained member, and costs one
low-level plan at most and one scan of the row it replanned.  A search
plans each (agent, constraint set) pair once (Replanner), and a node's
paths are those plans, so a child reads the cost of the path it replaces
from them.  A counted node carries its conflict events (ConflictIndex): a
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
    Event,
    JointTrajectory,
    OccupancyTable,
    Trajectory,
    count_conflicts,
    count_events,
    detect_first_conflict,
    strip_goal_waits,
    waiting,
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


@dataclass(slots=True)
class ConstraintTreeNode:
    """Per-agent constraint sets, goal-terminated paths, and prefix cost.

    A constrained member's path is its plan under its constraint set, and
    an unconstrained member's is its gamma-greedy walk.  A path ends at its
    agent's goal, or at H_max when cut off there; read past its end, the
    agent waits at its last vertex.  Its cost is the running cost before
    its last vertex plus gamma there, and `cost` sums those over the
    members.
    """

    constraints: dict[int, ConstraintSet]  # agent id -> its constraints, if any
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
    held is the number of nodes the search's queue held when it stopped,
    all freed when it returns: 0 when its clock had expired before the root
    was built.
    A daccbs group's step record reports it as its `search`; a group that
    runs no search reports "skipped" (slack 0), "repair" (its clock expired
    before a search began) or None (no share) there instead.
    """

    best_node: ConstraintTreeNode | None
    best_h: int
    reason: str
    expansions: int = 0
    dequeues: int = 0
    held: int = 0


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
    return ConstraintTreeNode({}, paths, total)


class Replanner:
    """One search's low-level plans from `state`.

    The agent's start, h_max, gamma and Reach are fixed for the whole
    search, so each (agent, constraint set) pair is planned once and its
    result kept, an infeasible None included, and each agent's Reach is
    grown once.  Paths are tuples, so the children that share a plan share
    one object.
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
        key = (agent, constraints)
        if key in self._plans:
            return self._plans[key]
        reach = self._reaches.get(agent)
        if reach is None:
            reach = self._reaches[agent] = Reach(self._instance.graph, self._state[agent])
        plan = self._plans[key] = plan_constrained(
            self._instance.graph, self._state[agent], constraints, self._h_max,
            self._instance.gammas[agent], reach=reach,
        )
        return plan


def _first_change(old: tuple[int, ...], new: tuple[int, ...], end: int) -> int:
    """First step before `end` at which two paths, each read as waiting at
    its last vertex past its end, differ; `end` when they agree up to it."""
    old, new = waiting(old, end), waiting(new, end)
    for t in range(1, end):
        if old[t] != new[t]:
            return t
    return end


def expand(
    node: ConstraintTreeNode,
    conflict: Event,
    instance: MapfInstance,
    state,
    h_max: int,
    agents: tuple[int, ...],
    replanner: Replanner,
) -> list[ConstraintTreeNode]:
    """Children resolving the conflict, one added constraint each.

    Only the newly constrained agent is replanned, by the search's
    `replanner`; children whose replan is infeasible are omitted.  Edge
    conflicts reported at arrival time t become departure-time constraints
    at t - 1.  The replaced path costs gamma at the agent's start when the
    agent had no constraints (it is the root's gamma-greedy walk), and
    otherwise what the replanner's plan under them costs.

    A child's rows equal its parent's before the first step at which the
    replanned row changes, and the parent had no conflict before its own
    conflict's time; an edge conflict at t reads rows t - 1 and t.  So the
    child has no conflict before the earlier of the two, and its scan_from
    is that step.
    """
    children: list[ConstraintTreeNode] = []
    t, kind, i, j, location = conflict
    for m in (i, j):
        agent = agents[m]
        before = node.constraints.get(agent)
        own = ConstraintSet() if before is None else before
        if kind:
            u, w = location
            constraints = own.with_edge(t - 1, (u, w) if m == i else (w, u))
        else:
            constraints = own.with_vertex(t, location)
        plan = replanner.plan(agent, constraints)
        if plan is None:
            continue
        path, cost = plan
        if before is None:
            old_cost = instance.gammas[agent][state[agent]]
        else:
            old_cost = replanner.plan(agent, before)[1]
        children.append(ConstraintTreeNode(
            {**node.constraints, agent: constraints}, {**node.paths, agent: path},
            node.cost - old_cost + cost, _first_change(node.paths[agent], path, t), m,
        ))
    return children


class NodeConflicts:
    """A counted node's conflict events: every one at timesteps 0..known,
    sorted, so the first is its first conflict (none when there is none to
    H_max).  It also keeps the node's member rows and which of them are
    still the root's (`live`), so a child copies them and changes only its
    replanned row."""

    __slots__ = ("events", "known", "rows", "live")

    def __init__(
        self, events: list[Event], known: int, rows: list[tuple[int, ...]], live: list[bool]
    ) -> None:
        self.events = events
        self.known = known
        self.rows = rows
        self.live = live


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
        if inherited is None:
            rows = list(table.paths)
            live = [True] * len(rows)
            end = min(self.h_max, table.end)
            events: list[Event] = []
            known = -1
        else:
            m = node.replanned
            rows = inherited.rows.copy()
            rows[m] = node.paths[self.agents[m]]
            live = inherited.live.copy()
            live[m] = False  # its row is new, whatever object it is
            end = min(self.h_max, max(map(len, rows)) - 1)
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
        carried = NodeConflicts(events, known, rows, live)
        if not events or events[0][0] > horizon:
            return 0, carried
        return count_events(events, horizon), carried


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
    final break; a node conflict-free to H_max whose paths all end at their
    goals is offered only at H_max.  The clock (None = no limit) is asked
    once before the root is built, with nothing made or held, and then
    before every dequeue and every conflict count, with the expansions made
    and the nodes queued; once it has expired the search stops with the
    clock's reason.  A search whose clock has expired before the root is
    built returns at once, holding nothing, with the reason its first check
    in the loop would give.

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
    Reach is kept for the whole search, and so is each (agent, constraint
    set) pair's plan, so no pair is planned twice.
    """
    if agents is None:
        agents = tuple(range(instance.n_agents))
    if not agents:
        root = ConstraintTreeNode({}, {}, 0)
        return SearchOutcome(root, h_max, "horizon")
    if clock is not None and clock.expired(0):
        return SearchOutcome(None, 0, "no-prefix" if clock.reason == "deadline" else clock.reason)
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
    goals = instance.goals
    best_node: ConstraintTreeNode | None = None
    best_h = 0
    expansions = 0
    dequeues = 0
    reason = "exhausted"
    while heap:
        if clock is not None and clock.expired(expansions, len(heap)):
            reason = clock.reason
            break
        cost, conflicts, node_seq, node, pushed_h, carried = heap[0]
        if conflicts < 0:
            conflicts, carried = index.count(node, carried, pushed_h)
            heapq.heapreplace(heap, (cost, conflicts, node_seq, node, pushed_h, carried))
            continue
        heapq.heappop(heap)
        dequeues += 1
        conflict = carried.events[0] if carried.events else None
        if conflict is None or conflict[0] > h_r:
            # With every path at its goal, the offer at H_max costs node.cost,
            # a lower bound on every completion of the h_r prefix: an offer
            # at h_r could not undercut it.
            if on_prefix_found is not None and not (
                conflict is None and all(node.paths[a][-1] == goals[a] for a in agents)
            ):
                on_prefix_found(node, h_r)
            if conflict is None:  # conflict-free up to h_max
                best_node, best_h = node, h_max
                if on_prefix_found is not None:
                    on_prefix_found(node, h_max)
                reason = "horizon"
                break
            h_r = conflict[0]
            if h_r - 1 > best_h:
                best_node, best_h = node, h_r - 1
        for child in expand(node, conflict, instance, state, h_max, agents, replanner):
            seq += 1
            heapq.heappush(heap, (child.cost, -1, seq, child, h_r, carried))
        expansions += 1
    if best_node is None and reason in ("exhausted", "deadline"):
        reason = "no-prefix"
    return SearchOutcome(best_node, best_h, reason, expansions, dequeues, len(heap))


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
