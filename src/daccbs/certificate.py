"""Incumbent certificate plans and their budget bookkeeping.

A certificate is a mutually conflict-free path set from the group's
current positions to its goals, together with its cost (the fleet budget).
Across timesteps it is inherited by dropping the executed first step, which
decreases the budget by exactly the number of off-goal agents; within a
timestep it is replaced only by a strictly cheaper conflict-free candidate.
Candidates come from a constraint-tree prefix joined to a backup tail
(build_candidate), or from one member replanned against the others' paths
(repair).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from .backup import BackupError, LacamBackup
from .clock import WallClock, WorkClock
from .grid import DistanceField, Graph, InfeasibleInstanceError, MapfInstance
from .trajectory import Occupancy, is_conflict_free, path_cost, strip_goal_waits, waiting


class CertificateError(RuntimeError):
    """Certificate contract violation (invalid update, inconsistent plan, ...)."""


Movement = dict[int, tuple[int, int]]  # agent id -> (from, to)


@dataclass(frozen=True)
class Certificate:
    """Conflict-free full plan for a group of agents plus its budget.

    paths[a] is agent a's vertex sequence from its current position to its
    goal (a singleton once the agent sits at the goal).  budget equals the
    total running cost of the paths.  settled holds the members that
    `repair` found no cheaper path for against these paths; a certificate
    made from new paths starts with none.
    """

    agents: tuple[int, ...]
    paths: dict[int, tuple[int, ...]]
    budget: int
    settled: frozenset[int] = frozenset()

    def restricted(self, agents: tuple[int, ...]) -> "Certificate":
        """Sub-certificate for a subset of the group; budget is the cost of
        the subset's own paths (budgets are additive per agent).

        The subset keeps its settled members.  That holds for a part of a
        partition: a cheaper path lies in its member's region, and the other
        parts' paths lie in theirs, disjoint from it."""
        paths = {a: self.paths[a] for a in agents}
        budget = sum(path_cost(paths[a], paths[a][-1]) for a in agents)
        return Certificate(agents, paths, budget, self.settled.intersection(agents))

    def validate(self, instance: MapfInstance, state) -> None:
        """Re-check all certificate conditions; raises CertificateError on violation."""
        for a in self.agents:
            path = self.paths[a]
            if path[0] != state[a]:
                raise CertificateError(f"agent {a}: certificate does not start at its state")
            if path[-1] != instance.goals[a]:
                raise CertificateError(f"agent {a}: certificate does not end at its goal")
            for u, v in zip(path, path[1:]):
                if not instance.graph.has_edge(u, v):
                    raise CertificateError(f"agent {a}: ({u}, {v}) is not a graph edge")
        if not is_conflict_free(self.paths[a] for a in self.agents):
            raise CertificateError("certificate paths conflict")
        if self.budget != plan_cost(self.paths, instance):
            raise CertificateError("budget disagrees with path cost")


def plan_cost(paths: dict[int, tuple[int, ...]], instance: MapfInstance) -> int:
    """Total running cost of full per-agent plans (terminal cost-to-go is 0)."""
    return sum(path_cost(path, instance.goals[a]) for a, path in paths.items())


def init_certificate(
    backup: LacamBackup, instance: MapfInstance, state, group: tuple[int, ...]
) -> Certificate:
    """Certificate from a backup rollout at the current state.

    The backup is complete, so when it fails the group has no conflict-free
    plan from this state and InfeasibleInstanceError is raised.
    """
    try:
        paths = backup.rollout(instance, group, tuple(state[a] for a in group))
    except BackupError as exc:
        raise InfeasibleInstanceError(f"no plan for group {group}: {exc}") from exc
    return Certificate(group, paths, plan_cost(paths, instance))


def advance(cert: Certificate, executed_state) -> Certificate:
    """Across-timesteps inheritance: drop the executed first step.

    executed_state must equal the certificate's second configuration; the
    budget decreases by exactly the number of off-goal agents.  Settled
    members stay settled: a cheaper path from the next state, after the
    executed step, would have been a cheaper path from this one.
    """
    paths: dict[int, tuple[int, ...]] = {}
    spent = 0
    for a in cert.agents:
        path = cert.paths[a]
        expected = path[1] if len(path) > 1 else path[0]
        if executed_state[a] != expected:
            raise CertificateError(
                f"agent {a}: executed state {executed_state[a]} is not the "
                f"certificate's next step {expected}"
            )
        if path[0] != path[-1]:
            spent += 1
        paths[a] = path[1:] if len(path) > 1 else path
    return Certificate(cert.agents, paths, cert.budget - spent, cert.settled)


def try_improve(
    cert: Certificate, candidate: dict[int, tuple[int, ...]], instance: MapfInstance, state
) -> tuple[Certificate, bool]:
    """Within-timestep update: adopt the candidate iff, goal waits stripped,
    it costs strictly less than the incumbent budget and passes validate.

    It is the gate for a candidate of the whole group; a candidate that
    `build_candidate` built under the same budget is priced the same way,
    so only validation can reject it.  A candidate that changes one
    member's path goes through `try_improve_member` instead."""
    if set(candidate) != set(cert.agents) or not all(candidate.values()):
        return cert, False
    paths = {a: strip_goal_waits(candidate[a]) for a in cert.agents}
    cost = plan_cost(paths, instance)
    if cost >= cert.budget:
        return cert, False
    improved = Certificate(cert.agents, paths, cost)
    try:
        improved.validate(instance, state)
    except CertificateError:
        return cert, False
    return improved, True


def try_improve_member(
    cert: Certificate,
    agent: int,
    path: tuple[int, ...],
    instance: MapfInstance,
    state,
    table: Occupancy,
) -> tuple[Certificate, bool]:
    """try_improve for the candidate that changes only `agent`'s path to
    `path`, checking that one row: `table` holds the certificate's paths
    in member order.

    The path, goal waits stripped, must start at the agent's state, end at
    its goal, follow graph edges, cost less than the agent's current path,
    and meet no other path of the table (Occupancy.meets).  The others'
    paths are the certificate's, valid and stripped, so these are the
    checks validate makes of the changed row, and the candidate is adopted,
    at the budget less the saving, exactly when try_improve would adopt it.
    """
    if not path:
        return cert, False
    path = strip_goal_waits(path)
    goal = instance.goals[agent]
    saving = path_cost(cert.paths[agent], goal) - path_cost(path, goal)
    if (
        saving <= 0
        or path[0] != state[agent]
        or path[-1] != goal
        or not all(map(instance.graph.has_edge, path, path[1:]))
        or table.meets(cert.agents.index(agent), path)
    ):
        return cert, False
    return Certificate(cert.agents, {**cert.paths, agent: path}, cert.budget - saving), True


def build_candidate(
    prefix: dict[int, tuple[int, ...]],
    backup: LacamBackup,
    instance: MapfInstance,
    group: tuple[int, ...],
    budget: int,
    clock: WallClock | WorkClock | None = None,
) -> dict[int, tuple[int, ...]] | None:
    """Concatenate a conflict-free prefix with a backup tail to the goals,
    or None when the result would not cost less than `budget`.

    Heads that all end at their goals are the candidate as they are.
    Otherwise each head waits at its last vertex until the longest ends, and
    the tail starts there.  The cost up to that junction covers each head
    without its last vertex plus its pad of waits at that vertex; the tail's
    rollout gets `budget` minus that cost as its `cost_limit`, so a rollout
    that cannot end under the budget stops early.  Costs are off-goal
    agent-steps, as `plan_cost` and `try_improve` count them.  The rollout
    also gets `clock`, and stops once it has expired.  Returns None also
    when the backup cannot produce a tail, or its clock expires first;
    either way the caller keeps the incumbent certificate.
    """
    terminal = {a: prefix[a][-1] for a in group}
    if all(terminal[a] == instance.goals[a] for a in group):
        return dict(prefix) if plan_cost(prefix, instance) < budget else None
    junction = max(len(prefix[a]) for a in group)
    heads = {a: waiting(prefix[a], junction)[:-1] for a in group}
    try:
        tail = backup.rollout(
            instance,
            group,
            tuple(terminal[a] for a in group),
            cost_limit=budget - plan_cost(heads, instance),
            clock=clock,
        )
    except BackupError:
        return None
    return {a: heads[a] + tail[a] for a in group}


def repair(
    cert: Certificate, instance: MapfInstance, state, clock: WallClock | WorkClock
) -> tuple[Certificate, int, int]:
    """Replan single members against the others' paths, held fixed.

    Returns the certificate after it, carrying the members settled against
    it (those that found no cheaper path), and the numbers of members
    planned and accepted.

    A pass takes the members whose path costs more than gamma at the state,
    in order of that excess (largest first, ties in member order), and plans
    each by `_replan`, pruned at its current path cost.  The cheaper path,
    the others' kept, is offered to try_improve_member, so every acceptance
    strictly lowers the budget; passes repeat while one of them improves.
    A plan depends only on the certificate, so a member in `cert.settled`
    is not planned, and one settled is not planned again until the
    certificate changes.  The other members are read through one Occupancy
    of the certificate's paths, made when the first member is planned,
    grown only as far as the plans and checks read it, and kept across
    acceptances, each of which replaces its member's row.

    The clock is asked before each member and every 32 pops of a plan, with
    no expansions: repair makes none, so a WorkClock never stops it, and it
    runs until every member with excess is settled.
    """
    goals, gammas = instance.goals, instance.gammas
    planned = accepted = 0
    settled = set(cert.settled)
    table = None
    improved = True
    while improved:
        improved = False
        cost = {a: path_cost(cert.paths[a], goals[a]) for a in cert.agents}
        excess = {a: cost[a] - gammas[a][state[a]] for a in cert.agents}
        order = sorted((a for a in cert.agents if excess[a] > 0), key=lambda a: -excess[a])
        for a in order:
            if a in settled:
                continue
            if clock.expired(0):
                improved = False
                break
            planned += 1
            if table is None:
                table = Occupancy(cert.paths[m] for m in cert.agents)
            member = cert.agents.index(a)
            path = _replan(instance.graph, gammas[a], table, member, cost[a], clock)
            if path is None:
                if clock.expired(0):  # the plan may have stopped short
                    improved = False
                    break
            else:
                cert, ok = try_improve_member(cert, a, path, instance, state, table)
                if ok:
                    accepted += 1
                    improved = True
                    table.replace(member, cert.paths[a])
                    settled.clear()
                    continue
            settled.add(a)
    if settled != cert.settled:
        cert = replace(cert, settled=frozenset(settled))
    return cert, planned, accepted


def _replan(
    graph: Graph,
    gamma: DistanceField,
    table: Occupancy,
    member: int,
    limit: int,
    clock: WallClock | WorkClock,
) -> tuple[int, ...] | None:
    """Member `member` of `table`'s cheapest path from where its path starts
    to its goal that costs less than `limit` and meets no other path of the
    table; None when there is none, or when the clock expires first.

    A space-time A*: a state's g counts the off-goal vertices before it and
    its h is gamma, so f bounds the cost of every completion from below and
    the search drops any state whose f reaches `limit`.  The table's other
    paths wait at their last vertex past their ends.  The member may stop
    at its goal, and wait there for good, only after the last visit there by
    another path.  Past the table's end no path moves, so every later time
    is one state.  Ties go to the state nearer the goal, then the earlier.
    """
    goal = gamma.anchor
    cost_to_go = gamma.values
    adjacency = graph.adjacency
    start = table.paths[member][0]
    last = -1  # the last visit to the goal by another path
    for k, other in enumerate(table.paths):
        if k != member and goal in other:
            last = max(last, len(other) - 1 - other[::-1].index(goal))
    horizon = table.end + 1
    h = cost_to_go[start]
    if h >= limit:
        return None
    # (f, h, time, vertex); g is f - h.  seen: state -> (g, predecessor).
    heap = [(h, h, 0, start)]
    seen: dict[tuple[int, int], tuple[int, tuple[int, int] | None]] = {(start, 0): (0, None)}
    pops = 0
    while heap:
        f, h, t, u = heapq.heappop(heap)
        g = f - h
        if seen[(u, t)][0] < g:
            continue
        if u == goal and t > last:
            path = [u]
            prev = seen[(u, t)][1]
            while prev is not None:
                path.append(prev[0])
                prev = seen[prev][1]
            return tuple(reversed(path))
        pops += 1
        if pops % 32 == 0 and clock.expired(0):
            return None
        nt = min(t + 1, horizon)
        at, after = table.at(t), table.at(nt)
        ng = g + (u != goal)
        for w in adjacency[u]:
            hw = cost_to_go[w]
            if ng + hw >= limit:
                continue
            k = after.get(w)
            if k is not None and k != member:
                continue
            # Another path moving w -> u meets this move on the edge.
            k = at.get(w)
            if w != u and k is not None and k != member and after.get(u) == k:
                continue
            key = (w, nt)
            known = seen.get(key)
            if known is not None and known[0] <= ng:
                continue
            seen[key] = (ng, (u, t))
            heapq.heappush(heap, (ng + hw, hw, nt, w))
    return None


def first_movement(paths: dict[int, tuple[int, ...]]) -> Movement:
    """Each agent's first-step edge along its path (a self-loop for a
    one-vertex path: the agent is at its goal)."""
    return {a: (path[0], path[1] if len(path) > 1 else path[0]) for a, path in paths.items()}
