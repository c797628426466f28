"""Per-timestep orchestration: certificate inheritance, certificate repair
and adaptive search with certificate improvement, slackness-triggered
factorization, and movement extraction.

Two modes are provided:
  * "daccbs" - certificates + repair + adaptive search + factorization;
  * "accbs"  - certificate-free adaptive search (ablation baseline).

A daccbs group with slack above 0 gets one clock of its share of t_max.
Repair runs first under it: single members replanned against the others'
certificate paths.  What repair found settled travels on the certificate
(`Certificate.settled`) through advance and factorization, so a group
keeps only its certificate and slack.  The search gets what is left of
the same clock, and none starts once repair has spent it.

A step also has one deadline, t_max after plan_step is entered (at step
0, after the initial certificate is built).  The search stops no later
than it, less a reserve: the time to free the nodes the search holds,
which a search pays when it returns, and the step's tail after its groups
(movement and step record).  Both are running upper estimates learnt from
the controller's earlier searches and steps (`_estimate`).  Repair keeps
its share, and under a WorkClock the deadline changes nothing.  Every step
record carries its `wall_ms` and `overrun_ms`, wall_ms less t_max.

Each group's step record says how its repair and search went: its
`search` is the search's SearchOutcome.reason, "skipped" when the slack
is 0 (before or after repair), "repair" when repair spent the share, or
None when t_max is 0.  Its `repairs` counts the members repair planned
and `repaired` those it accepted; `prefixes`, `candidates` and `accepted`
count the search's offers, candidates built and acceptances.  At t_max 0
a daccbs group runs neither and follows its certificate.

A group whose budget is 0 parks after the step's partition, when
slack_threshold is above 0: every member holds its goal with slack 0, so
it can never change or be partitioned again.  A parked group costs a step
nothing: its members take the precomputed self-loop at their goals, and it
gets no advance, slackness, search or step record of its own.  It still
counts in the share, t_max over all groups in effect, so that the active
groups get the time they got when every group was planned.  At
slack_threshold 0 every group is partitioned each step, and nothing parks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .backup import LacamBackup
from .cbs import run_adaptive
from .certificate import (
    Certificate,
    Movement,
    advance,
    build_candidate,
    first_movement,
    init_certificate,
    repair,
    try_improve,
)
from .clock import WallClock
from .factorization import partition, reachable_region, should_refactor, slackness
from .grid import INF, MapfInstance


MODES = ("daccbs", "accbs")
# A search keeps back this multiple of its estimated time to free the nodes
# it holds.  The per-node time varies by about half from search to search
# (0.63-0.92 us on the contested workload's instances).
FREE_MARGIN = 1.5


@dataclass
class ControllerConfig:
    h_max: int = 128
    t_max_ms: float = 100.0
    slack_threshold: int = 1
    mode: str = "daccbs"
    seed: int = 0
    debug_checks: bool = False

    def __post_init__(self) -> None:
        if self.h_max < 1:
            raise ValueError("h_max must be >= 1")
        if not (math.isfinite(self.t_max_ms) and self.t_max_ms >= 0):
            raise ValueError("t_max_ms must be finite and >= 0")
        if self.slack_threshold < 0:
            raise ValueError("slack_threshold must be >= 0")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")


@dataclass
class GroupState:
    """An agent group (its certificate's agents) with its certificate and
    last-factorization slack."""

    group_id: int
    certificate: Certificate
    slack_last: int


class FleetController:
    """Closed-loop controller answering one movement query per timestep."""

    def __init__(self, instance: MapfInstance, config: ControllerConfig):
        self.instance = instance
        self.config = config
        self.backup = LacamBackup(seed=config.seed)
        self.groups: list[GroupState] | None = None
        self.t = 0
        self.initial_budget: int | None = None
        self.budget_trace: list[tuple[int, int, bool]] = []
        self.factorization_trace: list[dict] = []
        self._next_group_id = 0
        self._prev_regions: dict[int, frozenset[int]] = {}
        # Groups that can never change again (see the module docstring):
        # their states, read only by the debug checks, their members'
        # self-loops at their goals, and their sizes.  The sizes list is
        # replaced, never appended to, since step records share it.
        self.parked: list[GroupState] = []
        self._parked_movement: Movement = {}
        self._parked_sizes: list[int] = []
        # The step deadline's reserve, learnt from earlier searches and steps
        # (see the module docstring): the seconds to free one node a search
        # held, and the step's tail after its groups.
        self._free_s = 0.0
        self._tail_s = 0.0

    # -- daccbs ---------------------------------------------------------------

    def plan_step(self, state) -> tuple[Movement, dict]:
        """Movement for the current state plus a step telemetry record."""
        t0 = time.perf_counter()
        if self.config.mode == "accbs":
            movement, telem = self._plan_step_accbs(state)
            self._stamp(telem, t0, time.perf_counter())
            self.t += 1
            return movement, telem

        start = t0
        if self.groups is None:
            self._initialize(state)
            start = time.perf_counter()  # step 0's deadline runs from here
        deadline = start + self.config.t_max_ms / 1000.0
        groups = self.groups
        assert groups is not None
        # Groups are planned one after another, so each gets an equal share;
        # parked groups still count in it.
        share = self.config.t_max_ms / 1000.0 / max(len(groups) + len(self._parked_sizes), 1)

        new_groups: list[GroupState] = []
        parking: list[GroupState] = []
        searches = []
        for group in groups:
            parts, search, trace = self._plan_group(group, state, share, deadline)
            for part in parts:
                # A budget-0 part's slack_last is already below a positive
                # threshold, so it is never partitioned again.
                if part.certificate.budget == 0 and self.config.slack_threshold > 0:
                    parking.append(part)
                else:
                    new_groups.append(part)
            searches.append(search)
            if trace is not None:
                self.factorization_trace.append(trace)
        self.groups = new_groups
        if parking:
            self._park(parking)
        improved_any = any(search["improved"] for search in searches)

        if self.config.debug_checks:
            self._debug_assertions(state)

        tail_start = time.perf_counter()
        total_budget = sum(g.certificate.budget for g in new_groups)
        self.budget_trace.append((self.t, total_budget, improved_any))

        movement = self._parked_movement.copy()
        for g in new_groups:
            movement.update(first_movement(g.certificate.paths))
        telem = {
            "t": self.t,
            "mode": self.config.mode,
            "k_groups": len(new_groups) + len(self._parked_sizes),
            "budget": total_budget,
            "improved": improved_any,
            "groups": [
                {
                    "id": g.group_id,
                    "size": len(g.certificate.agents),
                    "budget": g.certificate.budget,
                    "slack": g.slack_last,
                }
                for g in new_groups
            ],
            "searches": searches,
            "parked": self._parked_sizes,
        }
        end = time.perf_counter()
        self._tail_s = _estimate(self._tail_s, end - tail_start)
        self._stamp(telem, t0, end)
        self.t += 1
        return movement, telem

    def _stamp(self, telem: dict, t0: float, end: float) -> None:
        """Record the step's wall time, from `t0` to `end`, and its overrun."""
        telem["wall_ms"] = (end - t0) * 1000.0
        telem["overrun_ms"] = telem["wall_ms"] - self.config.t_max_ms

    def _initialize(self, state) -> None:
        agents = tuple(range(self.instance.n_agents))
        if agents:
            cert = init_certificate(self.backup, self.instance, state, agents)
            self.groups = [GroupState(self._take_group_id(), cert, INF)]
            self.initial_budget = cert.budget
        else:
            self.groups = []
            self.initial_budget = 0

    def _park(self, groups: list[GroupState]) -> None:
        """Move groups that can never change again into the parked set."""
        goals = self.instance.goals
        self.parked.extend(groups)
        self._parked_sizes = self._parked_sizes + [len(g.certificate.agents) for g in groups]
        for g in groups:
            self._parked_movement.update((a, (goals[a], goals[a])) for a in g.certificate.agents)

    def _take_group_id(self) -> int:
        gid = self._next_group_id
        self._next_group_id += 1
        return gid

    def _plan_group(
        self, group: GroupState, state, share: float, deadline: float
    ) -> tuple[list[GroupState], dict, dict | None]:
        """The group's parts after this step, one record of its search, and
        a factorization trace entry if a split was attempted."""
        instance = self.instance
        cert = group.certificate
        agents = cert.agents
        if self.t > 0:
            cert = advance(cert, state)
        # `search` says why the search stopped: a SearchOutcome.reason,
        # "skipped" when the group's slack is 0 (before or after repair),
        # "repair" when repair spent the share before a search began, or None
        # when a zero share runs neither.
        record = {
            "group": group.group_id, "h_r": 0, "improved": False, "search": None,
            "expansions": 0, "dequeues": 0, "prefixes": 0, "candidates": 0, "accepted": 0,
            "repairs": 0, "repaired": 0,
        }
        # A candidate costs at least the gamma sum, so a group whose budget
        # already equals it (slack 0) can never be improved: skip its repair
        # and search.
        slack = slackness(agents, cert.budget, state, instance.gammas)
        if share > 0:
            if slack > 0:
                clock = WallClock(share)
                cert, repairs, repaired = repair(cert, instance, state, clock)
                record["repairs"], record["repaired"] = repairs, repaired
                if repaired:
                    record["improved"] = True
                    slack = slackness(agents, cert.budget, state, instance.gammas)
            if slack == 0:
                record["search"] = "skipped"
            elif clock.expired(0):
                record["search"] = "repair"
            else:
                search_clock = clock.within(deadline - self._tail_s, FREE_MARGIN * self._free_s)
                searched = self._search(cert, state, search_clock, record)
                if searched is not cert:
                    cert = searched
                    slack = slackness(agents, cert.budget, state, instance.gammas)
        trace = None
        if should_refactor(group.slack_last, slack, self.config.slack_threshold):
            parts = partition(instance.graph, agents, state, slack, instance.gammas)
            groups = []
            for part in parts:
                sub_cert = cert.restricted(part)
                sub_slack = slackness(part, sub_cert.budget, state, instance.gammas)
                groups.append(GroupState(self._take_group_id(), sub_cert, sub_slack))
            trace = {
                "t": self.t,
                "group": group.group_id,
                "slack": slack,
                "k": len(parts),
                "sizes": [len(p) for p in parts],
            }
        else:
            groups = [GroupState(group.group_id, cert, group.slack_last)]
        record["factorized"] = trace is not None
        return groups, record, trace

    def _search(self, cert: Certificate, state, clock: WallClock, record: dict) -> Certificate:
        """Run the group's adaptive search under what is left of `clock`,
        offering each conflict-free prefix to the certificate; return the
        certificate after it.  The search's fields of the group's step
        record count what it did."""
        instance = self.instance
        agents = cert.agents

        def on_prefix(node, h_r: int) -> None:
            nonlocal cert
            record["prefixes"] += 1
            record["h_r"] = max(record["h_r"], h_r)
            # Node cost equals prefix running cost plus the gamma sum at the
            # prefix terminal, a lower bound on any completion's cost.
            if node.cost >= cert.budget:
                return
            # A head shorter than h_r + 1 has reached its goal; build_candidate
            # joins the heads to the backup tail at one time.
            prefix = {a: node.paths[a][: h_r + 1] for a in agents}
            candidate = build_candidate(prefix, self.backup, instance, agents, cert.budget)
            if candidate is None:
                return
            record["candidates"] += 1
            cert2, ok = try_improve(cert, candidate, instance, state)
            if ok:
                cert = cert2
                record["improved"] = True
                record["accepted"] += 1

        outcome = run_adaptive(
            instance, state, self.config.h_max, clock, on_prefix_found=on_prefix, agents=agents
        )
        if outcome.reason == "deadline" and outcome.held:
            freed = time.perf_counter() - clock.expired_at
            self._free_s = _estimate(self._free_s, freed / outcome.held)
        record["search"] = outcome.reason
        record["expansions"], record["dequeues"] = outcome.expansions, outcome.dequeues
        return cert

    # -- accbs ----------------------------------------------------------------

    def _plan_step_accbs(self, state) -> tuple[Movement, dict]:
        agents = tuple(range(self.instance.n_agents))
        outcome = run_adaptive(
            self.instance, state, self.config.h_max, WallClock(self.config.t_max_ms / 1000.0),
            agents=agents,
        )
        if outcome.best_node is not None and outcome.best_h >= 1:
            movement = first_movement(outcome.best_node.paths)
        else:
            movement = {a: (state[a], state[a]) for a in agents}
        telem = {
            "t": self.t,
            "mode": "accbs",
            "h_r": outcome.best_h,
            "reason": outcome.reason,
            "expansions": outcome.expansions,
        }
        return movement, telem

    # -- debug assertions (certificates, shrinkage, disjointness) -------------

    def _debug_assertions(self, state) -> None:
        assert self.groups is not None
        regions: dict[int, frozenset[int]] = {}
        owner: dict[int, int] = {}
        for g in self.groups + self.parked:
            cert = g.certificate
            cert.validate(self.instance, state)
            slack = slackness(cert.agents, cert.budget, state, self.instance.gammas)
            for a in cert.agents:
                region = reachable_region(
                    self.instance.graph, a, state, slack, self.instance.gammas[a]
                )
                regions[a] = region
                prev = self._prev_regions.get(a)
                if prev is not None and not region <= prev:
                    raise AssertionError(
                        f"t={self.t}: region of agent {a} grew (shrinkage violated)"
                    )
                for v in region:
                    other = owner.get(v)
                    if other is not None and other != g.group_id:
                        raise AssertionError(
                            f"t={self.t}: regions of groups {other} and "
                            f"{g.group_id} intersect at vertex {v}"
                        )
                    owner[v] = g.group_id
        self._prev_regions = regions


def _estimate(previous: float, observed: float) -> float:
    """A running upper estimate of a cost: the latest observation when it
    exceeds the estimate, which otherwise decays toward it."""
    return max(observed, previous - (previous - observed) / 8)
