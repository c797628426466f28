"""Incumbent certificate plans and their budget bookkeeping.

A certificate is a mutually conflict-free path set from the group's
current positions to its goals, together with its cost (the fleet budget).
Across timesteps it is inherited by dropping the executed first step, which
decreases the budget by exactly the number of off-goal agents; within a
timestep it is replaced only by a strictly cheaper conflict-free candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backup import BackupError, LacamBackup
from .grid import InfeasibleInstanceError, MapfInstance
from .trajectory import is_conflict_free, path_cost, strip_goal_waits


class CertificateError(RuntimeError):
    """Certificate contract violation (invalid update, inconsistent plan, ...)."""


Movement = dict[int, tuple[int, int]]  # agent id -> (from, to)


@dataclass(frozen=True)
class Certificate:
    """Conflict-free full plan for a group of agents plus its budget.

    paths[a] is agent a's vertex sequence from its current position to its
    goal (a singleton once the agent sits at the goal).  budget equals the
    total running cost of the paths.
    """

    agents: tuple[int, ...]
    paths: dict[int, tuple[int, ...]]
    budget: int

    def restricted(self, agents: tuple[int, ...]) -> "Certificate":
        """Sub-certificate for a subset of the group; budget is the cost of
        the subset's own paths (budgets are additive per agent)."""
        paths = {a: self.paths[a] for a in agents}
        budget = sum(path_cost(paths[a], paths[a][-1]) for a in agents)
        return Certificate(agents, paths, budget)

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
    budget decreases by exactly the number of off-goal agents.
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
    return Certificate(cert.agents, paths, cert.budget - spent)


def try_improve(
    cert: Certificate, candidate: dict[int, tuple[int, ...]], instance: MapfInstance, state
) -> tuple[Certificate, bool]:
    """Within-timestep update: adopt the candidate iff, goal waits stripped,
    it costs strictly less than the incumbent budget and passes validate.

    It is the one gate that prices and validates a candidate; a candidate
    that `build_candidate` built under the same budget is priced the same
    way, so only validation can reject it."""
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


def build_candidate(
    prefix: dict[int, tuple[int, ...]],
    backup: LacamBackup,
    instance: MapfInstance,
    group: tuple[int, ...],
    budget: int,
) -> dict[int, tuple[int, ...]] | None:
    """Concatenate a conflict-free prefix with a backup tail to the goals,
    or None when the result would not cost less than `budget`.

    Heads that all end at their goals are the candidate as they are.
    Otherwise each head waits at its last vertex until the longest ends, and
    the tail starts there.  The cost up to that junction covers each head
    without its last vertex plus its pad of waits at that vertex; the tail's
    rollout gets `budget` minus that cost as its `cost_limit`, so a rollout
    that cannot end under the budget stops early.  Costs are off-goal
    agent-steps, as `plan_cost` and `try_improve` count them.  Returns None
    also when the backup cannot produce a tail; either way the caller keeps
    the incumbent certificate.
    """
    terminal = {a: prefix[a][-1] for a in group}
    if all(terminal[a] == instance.goals[a] for a in group):
        return dict(prefix) if plan_cost(prefix, instance) < budget else None
    junction = max(len(prefix[a]) for a in group)
    heads = {a: prefix[a][:-1] + (terminal[a],) * (junction - len(prefix[a])) for a in group}
    try:
        tail = backup.rollout(
            instance,
            group,
            tuple(terminal[a] for a in group),
            cost_limit=budget - plan_cost(heads, instance),
        )
    except BackupError:
        return None
    return {a: heads[a] + tail[a] for a in group}


def first_movement(paths: dict[int, tuple[int, ...]]) -> Movement:
    """Each agent's first-step edge along its path (a self-loop for a
    one-vertex path: the agent is at its goal)."""
    return {a: (path[0], path[1] if len(path) > 1 else path[0]) for a, path in paths.items()}
