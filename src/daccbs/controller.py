"""Per-timestep orchestration: certificate inheritance, certificate repair
and adaptive search with certificate improvement, slackness-triggered
factorization, and movement extraction.

Two modes are provided:
  * "daccbs" - certificates + repair + adaptive search + factorization;
  * "accbs"  - certificate-free adaptive search (ablation baseline).

A daccbs step runs in four phases, each one loop over the active groups:
  1. floor: every certificate advances along the last movement and gets
     its slack.  A certificate is always a valid fallback, so this alone
     gives the step its movement;
  2. improvement: group by group, a group with slack above 0 gets one
     clock, made once, of its share of t_max ending no later than the
     step's stop point (below).  Repair runs first under it, single
     members replanned against the others' certificate paths, and the
     search gets what is left of it, starting only if some is; the backup
     rollout of each candidate the search builds asks the same clock;
  3. factorization: in group order, so new group ids come out in it, a
     group whose slack fell enough is partitioned, and a group whose
     budget is 0 parks;
  4. tail: movement, budget trace and step record.
Groups are disjoint and each backup rollout draws from its own seeded
generator, so under a WorkClock the phase order changes no output.  What
repair found settled travels on the certificate (`Certificate.settled`)
through advance and factorization, so a group keeps only its certificate
and its slack at the last factorization.

A step also has one deadline, t_max after plan_step is entered (at step
0, after the initial certificate is built), and one stop point, the
deadline less the step's tail (factorization and phase 4).  One clock per
group: a daccbs group's clock is made once, ending no later than the stop
point, and its repair, search and candidate rollouts all ask it, so they
all stop by then; each is optional, since the certificate already gives
the movement.  The clock also keeps back the time to free the nodes a
search holds, paid when the search returns; only the search asks with
nodes held, so repair and the rollouts see the clock's plain end.  The
accbs fleet's search gets one such clock per step (its tail is the
movement and step record).  Every search runs through `_search`.  Both
reserves are running upper estimates learnt from the controller's earlier
searches and steps (`_estimate`).  A unit of improvement work (a replan,
an acceptance check, a unit of search) can run past its clock's end, so
the tail is timed from the stop point whenever improvement ran past it,
and the reserve also covers the clocks' own overrun; it is timed from
where improvement began when the stop point had already passed by then,
so that a late floor does not compound it.  Under a WorkClock the
deadline changes nothing.  The initial certificate's rollout has no
clock: the complete backup must finish.  Every step record carries its
`wall_ms`, its `overrun_ms`, wall_ms less t_max, and its `reserve_ms`,
the tail reserve its stop point kept back; the debug checks run after the
step is timed.

Each group's step record says how its repair and search went: its
`search` is the search's SearchOutcome.reason, "skipped" when the slack
is 0 (before or after repair), "repair" when the group's clock expired
before a search began, or None when t_max is 0.  Its `repairs` counts the
members repair planned and `repaired` those it accepted; `prefixes`,
`candidates` and `accepted` count the search's offers, candidates built
and acceptances.  At t_max 0 a daccbs group runs neither and follows its
certificate.

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

import itertools
import math
import time
from dataclasses import dataclass

from .backup import LacamBackup
from .cbs import SearchOutcome, run_adaptive
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
    last-factorization slack.  A step's floor and improvement phases
    replace the certificate in place."""

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
        self._group_ids = itertools.count()
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
        # held, and the step's tail after its searches.
        self._free_s = 0.0
        self._tail_s = 0.0

    def plan_step(self, state) -> tuple[Movement, dict]:
        """Movement for the current state plus a step telemetry record."""
        t0 = time.perf_counter()
        t_max = self.config.t_max_ms / 1000.0
        reserve = self._tail_s  # what the step's stop point keeps back
        if self.config.mode == "accbs":
            fleet = tuple(range(self.instance.n_agents))
            improve_start, stop = t0, t0 + t_max - reserve
            clock = WallClock(t_max, stop, FREE_MARGIN * self._free_s)
            outcome = self._search(fleet, state, clock)
            improve_end = time.perf_counter()
            if outcome.best_node is not None and outcome.best_h >= 1:
                movement = first_movement(dict(zip(fleet, outcome.best_node.paths)))
            else:
                movement = {a: (state[a], state[a]) for a in fleet}
            telem = {
                "t": self.t,
                "mode": "accbs",
                "h_r": outcome.best_h,
                "reason": outcome.reason,
                "expansions": outcome.expansions,
            }
        else:
            start = t0
            if self.groups is None:
                self._initialize(state)
                start = time.perf_counter()  # step 0's deadline runs from here
            stop = start + t_max - reserve
            groups = self.groups
            assert groups is not None
            instance = self.instance
            gammas = instance.gammas
            threshold = self.config.slack_threshold

            # Floor: every certificate follows the fleet's last movement.
            slacks = []
            for g in groups:
                if self.t > 0:
                    g.certificate = advance(g.certificate, state)
                slacks.append(slackness(g.certificate.agents, g.certificate.budget, state, gammas))

            # Improvement: the groups take their shares one after another;
            # parked groups still count in the share.
            share = t_max / max(len(groups) + len(self._parked_sizes), 1)
            searches = []
            improve_start = time.perf_counter()
            for i, g in enumerate(groups):
                g.certificate, slacks[i], record = self._improve(
                    g.group_id, g.certificate, slacks[i], state, share, stop
                )
                searches.append(record)
            improve_end = time.perf_counter()

            # Factorization, in group order so that new ids come out in it.
            new_groups: list[GroupState] = []
            parking: list[GroupState] = []
            for g, slack, record in zip(groups, slacks, searches):
                parts = [g]
                record["factorized"] = should_refactor(g.slack_last, slack, threshold)
                if record["factorized"]:
                    cert, parts = g.certificate, []
                    for part in partition(instance.graph, cert.agents, state, slack, gammas):
                        sub = cert.restricted(part)
                        sub_slack = slackness(part, sub.budget, state, gammas)
                        parts.append(GroupState(next(self._group_ids), sub, sub_slack))
                    self.factorization_trace.append({
                        "t": self.t, "group": g.group_id, "slack": slack,
                        "k": len(parts), "sizes": [len(p.certificate.agents) for p in parts],
                    })
                for part in parts:
                    # A budget-0 part's slack_last is already below a positive
                    # threshold, so it is never partitioned again.
                    if part.certificate.budget == 0 and threshold > 0:
                        parking.append(part)
                    else:
                        new_groups.append(part)
            self.groups = new_groups
            if parking:
                self._park(parking)

            # Tail: movement and step record.
            improved_any = any(record["improved"] for record in searches)
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
                    {"id": g.group_id, "size": len(g.certificate.agents),
                     "budget": g.certificate.budget, "slack": g.slack_last}
                    for g in new_groups
                ],
                "searches": searches,
                "parked": self._parked_sizes,
            }
        end = time.perf_counter()
        # From the stop point if improvement ran past it, but not from before
        # improvement began (see the module docstring).
        tail_start = min(improve_end, max(stop, improve_start))
        self._tail_s = _estimate(reserve, end - tail_start)
        telem["wall_ms"] = (end - t0) * 1000.0
        telem["overrun_ms"] = telem["wall_ms"] - self.config.t_max_ms
        telem["reserve_ms"] = reserve * 1000.0
        if self.config.debug_checks and self.groups is not None:
            self._debug_assertions(state)
        self.t += 1
        return movement, telem

    def _initialize(self, state) -> None:
        agents = tuple(range(self.instance.n_agents))
        if agents:
            cert = init_certificate(self.backup, self.instance, state, agents)
            self.groups = [GroupState(next(self._group_ids), cert, INF)]
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

    def _improve(
        self, group_id: int, cert: Certificate, slack: int, state, share: float, stop: float
    ) -> tuple[Certificate, int, dict]:
        """Repair, then search, a group's certificate under one clock per
        group: made once, of `share` ending by `stop` (the step deadline
        less its tail, which also covers the clock's overrun), and asked by
        repair, the search and every candidate's rollout; return the
        certificate, its slack and the group's step record."""
        instance = self.instance
        agents = cert.agents
        # `search` says why the search stopped: a SearchOutcome.reason,
        # "skipped" when the group's slack is 0 (before or after repair),
        # "repair" when the clock expired before a search began, or None when
        # a zero share runs neither.
        record = {
            "group": group_id, "h_r": 0, "improved": False, "search": None,
            "expansions": 0, "dequeues": 0, "prefixes": 0, "candidates": 0, "accepted": 0,
            "repairs": 0, "repaired": 0,
        }
        if share == 0:
            return cert, slack, record
        # A candidate costs at least the gamma sum, so a group whose budget
        # already equals it (slack 0) can never be improved: skip its repair
        # and search.
        if slack > 0:
            clock = WallClock(share, stop, FREE_MARGIN * self._free_s)
            cert, record["repairs"], record["repaired"] = repair(cert, instance, state, clock)
            if record["repaired"]:
                record["improved"] = True
                slack = slackness(agents, cert.budget, state, instance.gammas)
        if slack == 0:
            record["search"] = "skipped"
            return cert, slack, record
        if clock.expired(0):
            record["search"] = "repair"
            return cert, slack, record

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
            prefix = {a: path[: h_r + 1] for a, path in zip(agents, node.paths)}
            candidate = build_candidate(prefix, self.backup, instance, agents, cert.budget, clock)
            if candidate is None:
                return
            record["candidates"] += 1
            cert2, ok = try_improve(cert, candidate, instance, state)
            if ok:
                cert = cert2
                record["improved"] = True
                record["accepted"] += 1

        outcome = self._search(agents, state, clock, on_prefix)
        record["search"] = outcome.reason
        record["expansions"], record["dequeues"] = outcome.expansions, outcome.dequeues
        if record["accepted"]:
            slack = slackness(agents, cert.budget, state, instance.gammas)
        return cert, slack, record

    def _search(
        self, agents: tuple[int, ...], state, clock: WallClock, on_prefix=None
    ) -> SearchOutcome:
        """Run an adaptive search over `agents` under its group's one clock,
        which keeps back the time to free the nodes it holds, offering each
        conflict-free prefix to `on_prefix`.  A stop on the clock teaches
        the controller the time to free a node."""
        outcome = run_adaptive(self.instance, state, self.config.h_max, clock,
                               on_prefix_found=on_prefix, agents=agents)
        if outcome.reason == "deadline" and outcome.held:
            freed = time.perf_counter() - clock.expired_at
            self._free_s = _estimate(self._free_s, freed / outcome.held)
        return outcome

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
