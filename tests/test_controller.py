"""Fleet controller orchestration across the three modes."""

import dataclasses
import random
import time

import pytest

import daccbs.backup
import daccbs.controller
from daccbs import (
    INF,
    CertificateError,
    ControllerConfig,
    FleetController,
    MapfInstance,
    WorkClock,
    optimal_soc,
    run_adaptive,
    run_episode,
)
from daccbs.certificate import advance, build_candidate, try_improve

from conftest import chain_graph, cross_instance, make_grid, random_instance


def episode(inst, **config_kwargs):
    defaults = dict(t_max_ms=20.0, seed=0)
    defaults.update(config_kwargs)
    controller = FleetController(inst, ControllerConfig(**defaults))
    return run_episode(inst, controller), controller


def count_calls(monkeypatch) -> dict:
    """Count the on_prefix calls, candidates built (not None) and acceptances
    that the controller actually makes."""
    calls = {"prefixes": 0, "candidates": 0, "accepted": 0}

    def searched(*args, on_prefix_found, **kwargs):
        def counted(node, h_r):
            calls["prefixes"] += 1
            on_prefix_found(node, h_r)

        return run_adaptive(*args, on_prefix_found=counted, **kwargs)

    def built(*args):
        candidate = build_candidate(*args)
        calls["candidates"] += candidate is not None
        return candidate

    def improved(*args):
        cert, ok = try_improve(*args)
        calls["accepted"] += ok
        return cert, ok

    monkeypatch.setattr(daccbs.controller, "run_adaptive", searched)
    monkeypatch.setattr(daccbs.controller, "build_candidate", built)
    monkeypatch.setattr(daccbs.controller, "try_improve", improved)
    return calls


class TestConfig:
    def test_defaults(self):
        cfg = ControllerConfig()
        assert cfg.h_max == 128
        assert cfg.t_max_ms == 100.0
        assert cfg.slack_threshold == 1

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ControllerConfig(mode="nope")

    def test_bad_hmax(self):
        with pytest.raises(ValueError):
            ControllerConfig(h_max=0)

    def test_negative_slack_threshold(self):
        with pytest.raises(ValueError, match="slack_threshold"):
            ControllerConfig(slack_threshold=-1)
        assert ControllerConfig(slack_threshold=0).slack_threshold == 0


class TestDaccbsMode:
    def test_fleet_at_goals(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0, 4), (0, 4))
        result, controller = episode(inst)
        assert result.soc == 0
        assert result.makespan == 0
        # a direct query at the goal configuration: all waits, budget 0
        controller2 = FleetController(inst, ControllerConfig(t_max_ms=5.0))
        movement, telem = controller2.plan_step(inst.starts)
        assert movement == {0: (0, 0), 1: (4, 4)}
        assert telem["budget"] == 0
        assert controller2.initial_budget == 0

    def test_single_agent_shortest_path(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        result, _ = episode(inst)
        assert result.soc == 4
        assert result.makespan == 4

    def test_deadline_starved_follows_certificate(self):
        inst = cross_instance()
        result, controller = episode(inst, t_max_ms=0.0)
        assert result.termination == "all-at-goals"
        assert result.soc == controller.initial_budget  # pure backup plan

    def test_soc_bounded_by_initial_budget(self):
        rng = random.Random(0)
        for _ in range(5):
            inst = random_instance(rng, 5, 5, 4)
            result, controller = episode(inst, t_max_ms=5.0)
            assert result.termination == "all-at-goals"
            assert result.soc <= controller.initial_budget

    def test_budget_trace_strictly_decreasing(self):
        inst = cross_instance()
        result, _ = episode(inst, t_max_ms=10.0)
        budgets = [b for _, b, _ in result.budget_trace]
        assert all(b2 < b1 for b1, b2 in zip(budgets, budgets[1:]))

    def test_idealized_optimality(self):
        inst = cross_instance()
        result, _ = episode(inst, t_max_ms=2000.0, h_max=16)
        assert result.soc == optimal_soc(inst) == 5

    def test_serial_replay_identical(self):
        rng = random.Random(5)
        inst = random_instance(rng, 4, 4, 3)
        r1, _ = episode(inst, t_max_ms=0.0)
        r2, _ = episode(inst, t_max_ms=0.0)
        assert r1.soc == r2.soc
        assert r1.budget_trace == r2.budget_trace

    def test_debug_checks_pass(self):
        rng = random.Random(9)
        inst = random_instance(rng, 5, 5, 4)
        result, _ = episode(inst, t_max_ms=2.0, debug_checks=True)
        assert result.termination == "all-at-goals"

    def test_debug_checks_validate_certificates(self, monkeypatch):
        # A lone agent's budget one above its path's cost: with no time to
        # search and slack one above its last value, nothing replaces the
        # certificate before the checks read it.
        def inflated(cert, state):
            cert = advance(cert, state)
            return dataclasses.replace(cert, budget=cert.budget + 1)

        monkeypatch.setattr(daccbs.controller, "advance", inflated)
        inst = MapfInstance(chain_graph(5), (0,), (4,))
        controller = FleetController(inst, ControllerConfig(t_max_ms=0.0, debug_checks=True))
        movement, _ = controller.plan_step(inst.starts)
        with pytest.raises(CertificateError, match="budget disagrees"):
            controller.plan_step((movement[0][1],))

    def test_group_split_budget_additive(self):
        g = make_grid(5, 5)
        inst = MapfInstance(g, (0, 24), (4, 20))
        result, controller = episode(inst, t_max_ms=5.0)
        # two independent row agents split at step 0 into singleton groups
        assert result.factorization_trace
        first = result.factorization_trace[0]
        assert first["k"] == 2
        # step-0 budget after split still equals the recorded total
        assert result.budget_trace[0][1] <= controller.initial_budget

    def test_zero_slack_group_skips_search(self, monkeypatch):
        # A lone agent's backup plan is a shortest path, so its budget equals
        # its gamma and no candidate can be strictly cheaper.
        def no_search(*args, **kwargs):
            raise AssertionError("run_adaptive called for a zero-slack group")

        monkeypatch.setattr(daccbs.controller, "run_adaptive", no_search)
        inst = MapfInstance(chain_graph(5), (0,), (4,))
        controller = FleetController(inst, ControllerConfig(t_max_ms=50.0))
        _, telem = controller.plan_step(inst.starts)
        (group,) = telem["groups"]
        assert group["slack"] == 0
        (search,) = telem["searches"]
        assert (search["search"], search["expansions"], search["dequeues"]) == ("skipped", 0, 0)
        assert (search["prefixes"], search["candidates"], search["accepted"]) == (0, 0, 0)

    def test_group_telemetry_reports_search(self, monkeypatch):
        outcomes = []

        def recorded(*args, **kwargs):
            outcome = run_adaptive(*args, **kwargs)
            outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(daccbs.controller, "run_adaptive", recorded)
        inst = cross_instance()
        controller = FleetController(inst, ControllerConfig(t_max_ms=2000.0, h_max=16))
        _, telem = controller.plan_step(inst.starts)
        (outcome,) = outcomes
        assert outcome.expansions > 0
        (search,) = telem["searches"]
        assert (search["search"], search["expansions"], search["dequeues"]) == (
            outcome.reason, outcome.expansions, outcome.dequeues
        )

    def test_group_telemetry_counts_candidates(self, monkeypatch):
        calls = count_calls(monkeypatch)
        inst = random_instance(random.Random(3), 5, 5, 4)
        controller = FleetController(inst, ControllerConfig(t_max_ms=2000.0, h_max=16))
        _, telem = controller.plan_step(inst.starts)
        (search,) = telem["searches"]
        assert {k: search[k] for k in calls} == calls
        assert 0 < calls["accepted"] <= calls["candidates"] <= calls["prefixes"], calls

        result, _ = episode(inst, t_max_ms=5.0)
        for step in result.telemetry:
            for search in step["searches"]:
                assert 0 <= search["accepted"] <= search["candidates"] <= search["prefixes"]

    def test_every_built_candidate_is_accepted(self):
        # build_candidate drops every candidate that cannot undercut the
        # budget it is given, so only validation could reject one it builds.
        rng = random.Random(6)
        built = 0
        for _ in range(6):
            inst = random_instance(rng, 6, 6, 6)
            result, _ = episode(inst, t_max_ms=10.0)
            for step in result.telemetry:
                for search in step["searches"]:
                    assert search["accepted"] == search["candidates"], (step["t"], search)
                    built += search["candidates"]
        assert built > 0

    def test_split_group_search_recorded_once(self, monkeypatch):
        calls = count_calls(monkeypatch)
        inst = random_instance(random.Random(8), 5, 5, 4)
        result, _ = episode(inst, t_max_ms=2000.0, h_max=16)
        # Step 0 searches the whole fleet, improves its certificate and splits it.
        first = result.telemetry[0]
        assert len(first["groups"]) > 1
        (search,) = first["searches"]
        assert search["accepted"] > 0
        # Each step records one search per group planned at it, and the
        # records add up to the calls made.
        planned = [0]
        for step in result.telemetry:
            assert [s["group"] for s in step["searches"]] == planned
            planned = [g["id"] for g in step["groups"]]
        totals = {
            k: sum(s[k] for step in result.telemetry for s in step["searches"]) for k in calls
        }
        assert totals == calls

    def test_factorized_marks_partition_calls(self):
        inst = random_instance(random.Random(8), 5, 5, 4)
        result, _ = episode(inst, t_max_ms=2000.0, h_max=16)
        assert any(entry["k"] > 1 for entry in result.factorization_trace)
        searches = [(step["t"], s) for step in result.telemetry for s in step["searches"]]
        assert not all(s["factorized"] for _, s in searches)
        factorized = {(t, s["group"]) for t, s in searches if s["factorized"]}
        traced = {(entry["t"], entry["group"]) for entry in result.factorization_trace}
        assert factorized == traced

    def test_candidate_prefixes_end_at_one_time(self, monkeypatch):
        # The controller hands build_candidate the node's unpadded heads,
        # never longer than the group's trajectories however large h_max is;
        # build_candidate pads them to one junction where the tail starts.
        prefixed, tails = [], []

        def searched(*args, on_prefix_found, **kwargs):
            def seen(node, h_r):
                prefixed.append((node, h_r))
                on_prefix_found(node, h_r)

            return run_adaptive(*args, on_prefix_found=seen, **kwargs)

        def recorded(prefix, backup, instance, group, budget, clock):
            node, h_r = prefixed[-1]
            assert prefix == {a: node.paths[a][: h_r + 1] for a in group}
            longest = max(len(node.paths[a]) for a in group)
            assert all(len(head) <= longest for head in prefix.values())
            candidate = build_candidate(prefix, backup, instance, group, budget, clock)
            if any(prefix[a][-1] != instance.goals[a] for a in group):
                # Under no budget the tail is built whatever it costs; under
                # the certificate's, the candidate is that one or None.
                unlimited = build_candidate(prefix, backup, instance, group, INF)
                assert candidate in (None, unlimited)
                junction = max(len(head) for head in prefix.values())
                tail = backup.rollout(instance, group, tuple(prefix[a][-1] for a in group))
                for a in group:
                    head = prefix[a] + (prefix[a][-1],) * (junction - len(prefix[a]))
                    assert unlimited[a] == head + tail[a][1:]
                tails.append(junction)
            return candidate

        monkeypatch.setattr(daccbs.controller, "run_adaptive", searched)
        monkeypatch.setattr(daccbs.controller, "build_candidate", recorded)
        inst = random_instance(random.Random(3), 5, 5, 4)
        controller = FleetController(inst, ControllerConfig(t_max_ms=2000.0, h_max=10**6))
        controller.plan_step(inst.starts)
        assert prefixed and tails

    def test_no_search_without_time(self):
        inst = cross_instance()
        controller = FleetController(inst, ControllerConfig(t_max_ms=0.0))
        _, telem = controller.plan_step(inst.starts)
        assert telem["searches"]
        for search in telem["searches"]:
            assert (search["search"], search["expansions"], search["dequeues"]) == (None, 0, 0)
            assert (search["prefixes"], search["candidates"], search["accepted"]) == (0, 0, 0)
            assert (search["repairs"], search["repaired"]) == (0, 0)

    def test_empty_fleet(self):
        g = chain_graph(3)
        inst = MapfInstance(g, (), ())
        result, controller = episode(inst)
        assert result.soc == 0
        assert controller.plan_step(())[0] == {}
        assert controller.initial_budget == 0


class TestParking:
    """Groups that can never change again park: they cost a step nothing
    but still count in the share and in the step record."""

    @staticmethod
    def contested_size():
        # The size of the contested benchmark workload: 16x16 open grid, 30
        # agents.  On this instance some groups still search after others
        # have parked.
        inst = random_instance(random.Random(6), 16, 16, 30)
        return inst, FleetController(inst, ControllerConfig(h_max=32, t_max_ms=25.0))

    def test_parked_groups_cost_nothing(self, monkeypatch, fixed_work):
        fixed_work(20)
        inst, controller = self.contested_size()
        seen = []  # (step, agents) of every advance, slackness and partition call

        def recording(name, agents_of):
            original = getattr(daccbs.controller, name)

            def recorded(*args):
                seen.append((controller.t, agents_of(*args)))
                return original(*args)

            monkeypatch.setattr(daccbs.controller, name, recorded)

        recording("advance", lambda cert, state: cert.agents)
        recording("slackness", lambda group, *rest: group)
        recording("partition", lambda graph, agents, *rest: agents)
        parked_at: dict[int, int] = {}  # agent -> step it parked at
        records, parked = [], []
        state = inst.starts
        while state != inst.goals:
            movement, telem = controller.plan_step(state)
            records.append(telem)
            parked.append(list(telem["parked"]))
            assert telem["k_groups"] == len(telem["groups"]) + len(telem["parked"])
            for g in controller.parked:
                for a in g.certificate.agents:
                    parked_at.setdefault(a, telem["t"])
            for a in parked_at:
                assert movement[a] == (inst.goals[a], inst.goals[a]), (telem["t"], a)
            state = tuple(movement[a][1] for a in range(inst.n_agents))
        assert len(parked_at) > inst.n_agents // 2
        for t, agents in seen:
            assert not [a for a in agents if parked_at.get(a, t) < t], t
        # An earlier step's record never changes.
        assert [telem["parked"] for telem in records] == parked

    def test_share_counts_parked_groups(self, monkeypatch):
        inst, controller = self.contested_size()
        shares = []  # (step, seconds) of every clock the controller makes

        def clock(seconds):
            shares.append((controller.t, seconds))
            return WorkClock(20)

        monkeypatch.setattr(daccbs.controller, "WallClock", clock)
        records = run_episode(inst, controller).telemetry
        checked = 0
        for t, seconds in shares:
            if t > 0 and records[t - 1]["parked"]:
                assert seconds == 25.0 / 1000 / records[t - 1]["k_groups"], t
                checked += 1
        assert checked > 0

    def test_debug_checks_cover_parked_agents(self, fixed_work):
        fixed_work(20)
        inst, controller = self.contested_size()
        controller.config.debug_checks = True
        plan_step = controller.plan_step
        regions = []

        def checked(state):
            step = plan_step(state)
            regions.append(len(controller._prev_regions))
            return step

        controller.plan_step = checked
        result = run_episode(inst, controller)
        assert controller.parked
        assert regions == [inst.n_agents] * result.makespan

    def test_threshold_zero_never_parks(self, fixed_work):
        fixed_work(20)
        inst = random_instance(random.Random(8), 5, 5, 4)
        result, controller = episode(inst, slack_threshold=0)
        assert result.termination == "all-at-goals"
        assert not controller.parked
        assert all(step["parked"] == [] for step in result.telemetry)


class FakeTime:
    """A perf_counter that reads `now`, moved on by `tick` before each read."""

    def __init__(self, tick: float) -> None:
        self.now = 100.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


class TestStepDeadline:
    """The search ends by the step deadline, t_max after plan_step is
    entered, less a reserve for freeing its nodes and for the step's tail.
    A fake perf_counter makes these checks independent of machine speed."""

    @staticmethod
    def searched(monkeypatch):
        """Record (step, the clock, the search's outcome, every check of the
        clock as (time, nodes held, verdict)) of each controller search."""
        searches = []

        def recorded(instance, state, h_max, clock, **kwargs):
            checks = []
            expired = clock.expired

            def checked(expansions, held=0):
                verdict = expired(expansions, held)
                checks.append((time.perf_counter.now, held, verdict))
                return verdict

            clock.expired = checked
            outcome = run_adaptive(instance, state, h_max, clock, **kwargs)
            searches.append((controller_t[0], clock, outcome, checks))
            return outcome

        controller_t = [0]
        monkeypatch.setattr(daccbs.controller, "run_adaptive", recorded)
        return searches, controller_t

    def test_measured_from_entry_after_the_initial_certificate(self, monkeypatch):
        # Time stands still except where the test moves it: building the
        # initial certificate takes 5 s, and each advance 2 ms.
        fake = FakeTime(0.0)
        monkeypatch.setattr(time, "perf_counter", fake)
        init_certificate, advance = (daccbs.controller.init_certificate,
                                     daccbs.controller.advance)

        def slow(seconds, fn):
            def run(*args):
                fake.now += seconds
                return fn(*args)
            return run

        monkeypatch.setattr(daccbs.controller, "init_certificate", slow(5.0, init_certificate))
        monkeypatch.setattr(daccbs.controller, "advance", slow(0.002, advance))
        # The certificate never improves, so every step has slack to search.
        monkeypatch.setattr(daccbs.controller, "repair", lambda cert, *args: (cert, 0, 0))
        monkeypatch.setattr(daccbs.controller, "try_improve", lambda cert, *args: (cert, False))
        searches, controller_t = self.searched(monkeypatch)
        inst = random_instance(random.Random(3), 5, 5, 4)
        controller = FleetController(inst, ControllerConfig(h_max=16, t_max_ms=10.0))
        state, entries = inst.starts, {}
        while state != inst.goals and controller.t < 3:
            fake.now = entries[controller.t] = 100.0 * (controller.t + 1)
            controller_t[0] = controller.t
            movement, telem = controller.plan_step(state)
            state = tuple(movement[a][1] for a in range(inst.n_agents))
        assert {t for t, *_ in searches} == {0, 1, 2}
        for t, clock, outcome, _ in searches:
            # Nothing stopped on the clock, so nothing is reserved.
            assert outcome.reason != "deadline"
            assert clock.free_s == 0.0
            # One group, so its share is all of t_max, and the share starts
            # after the advance; the deadline runs from entry at step 1 on,
            # and from when the initial certificate is built at step 0.
            start = entries[t] + (5.0 if t == 0 else 0.0)
            assert clock.end == start + 0.010

    def test_stops_with_the_estimated_margin_left(self, monkeypatch):
        fake = FakeTime(1e-5)
        monkeypatch.setattr(time, "perf_counter", fake)
        searches, controller_t = self.searched(monkeypatch)
        inst = random_instance(random.Random(0), 16, 16, 30)
        controller = FleetController(inst, ControllerConfig(h_max=32, t_max_ms=20.0))
        movement, _ = controller.plan_step(inst.starts)
        state = tuple(movement[a][1] for a in range(inst.n_agents))
        free_s, tail_s = controller._free_s, controller._tail_s = 4e-6, 1e-3
        controller_t[0] = 1
        entry = fake.now + fake.tick  # plan_step's first read
        controller.plan_step(state)
        ((_, clock, outcome, checks),) = [s for s in searches if s[0] == 1]
        deadline = entry + 0.020
        assert clock.end == deadline - tail_s
        assert clock.free_s == daccbs.controller.FREE_MARGIN * free_s
        # The search stops at its first check where the time left to the
        # deadline no longer covers the tail and freeing what it holds.
        assert outcome.reason == "deadline" and outcome.held > 0
        assert [verdict for *_, verdict in checks] == [False] * (len(checks) - 1) + [True]
        for now, held, verdict in checks:
            assert verdict == (deadline - now <= tail_s + held * clock.free_s)
        assert checks[-1][1] == outcome.held
        # What freeing took (one tick of the fake clock) updates the estimate.
        observed = fake.tick / outcome.held
        assert controller._free_s == pytest.approx(free_s - (free_s - observed) / 8)

    def test_accbs_stops_by_the_step_deadline(self, monkeypatch):
        # The accbs search keeps the same reserve: it ends t_max after entry,
        # less the tail, and a stop on the clock teaches the freeing time.
        fake = FakeTime(1e-5)
        monkeypatch.setattr(time, "perf_counter", fake)
        searches, _ = self.searched(monkeypatch)
        inst = random_instance(random.Random(0), 16, 16, 30)
        controller = FleetController(inst, ControllerConfig(mode="accbs", h_max=32, t_max_ms=20.0))
        free_s, tail_s = controller._free_s, controller._tail_s = 4e-6, 1e-3
        entry = fake.now + fake.tick  # plan_step's first read
        controller.plan_step(inst.starts)
        ((_, clock, outcome, checks),) = searches
        deadline = entry + 0.020
        assert clock.end == deadline - tail_s
        assert clock.free_s == daccbs.controller.FREE_MARGIN * free_s
        assert outcome.reason == "deadline" and outcome.held > 0
        for now, held, verdict in checks:
            assert verdict == (deadline - now <= tail_s + held * clock.free_s)
        observed = fake.tick / outcome.held
        assert controller._free_s == pytest.approx(free_s - (free_s - observed) / 8)

    def test_repair_and_rollouts_stop_by_the_step_deadline(self, monkeypatch):
        # A group's repair and its candidates' rollouts run under one clock
        # that ends at the step deadline less the tail.  Time stands still
        # except where the test moves it: each advance takes 2 ms, so the
        # share alone, which starts after the floor, would end 2 ms after the
        # deadline.  The initial certificate's rollout has no clock.
        fake = FakeTime(0.0)
        monkeypatch.setattr(time, "perf_counter", fake)
        advance, repair = daccbs.controller.advance, daccbs.controller.repair
        rollout = daccbs.backup.LacamBackup.rollout
        repairs, rollouts = [], []  # (step, clock) of every call

        def slow_advance(*args):
            fake.now += 0.002
            return advance(*args)

        def recorded_repair(cert, instance, state, clock):
            repairs.append((controller.t, clock))
            return repair(cert, instance, state, clock)

        def recorded_rollout(backup, instance, agents, start, cost_limit=None, clock=None):
            rollouts.append((controller.t, clock))
            return rollout(backup, instance, agents, start, cost_limit, clock)

        monkeypatch.setattr(daccbs.controller, "advance", slow_advance)
        monkeypatch.setattr(daccbs.controller, "repair", recorded_repair)
        monkeypatch.setattr(daccbs.backup.LacamBackup, "rollout", recorded_rollout)
        # The search's candidates are never accepted, so every step has slack
        # left to search.
        monkeypatch.setattr(daccbs.controller, "try_improve", lambda cert, *args: (cert, False))
        inst = random_instance(random.Random(3), 5, 5, 4)
        controller = FleetController(inst, ControllerConfig(h_max=16, t_max_ms=10.0))
        state, entries, tail_s = inst.starts, {}, 1e-3
        while state != inst.goals and controller.t < 3:
            fake.now = entries[controller.t] = 100.0 * (controller.t + 1)
            controller._tail_s = tail_s
            movement, _ = controller.plan_step(state)
            state = tuple(movement[a][1] for a in range(inst.n_agents))
        assert rollouts[0] == (0, None)
        clocked = rollouts[1:]
        assert {t for t, _ in repairs} == {0, 1, 2}
        assert {t for t, _ in clocked} == {0, 1, 2}
        for t, clock in repairs + clocked:
            assert clock.free_s == 0.0
            assert clock.end == entries[t] + 0.010 - tail_s

    def test_reserve_covers_a_repair_past_its_clock(self, monkeypatch):
        # Time stands still except where the test moves it: every repair ends
        # 3 ms after its clock.  The tail is timed from the clock's end, so
        # the next step's clocks end those 3 ms earlier, and its record says
        # so.
        fake = FakeTime(0.0)
        monkeypatch.setattr(time, "perf_counter", fake)
        repairs = []  # (step, the clock's end) of every repair

        def late_repair(cert, instance, state, clock):
            repairs.append((controller.t, clock.end))
            fake.now = clock.end + 0.003
            return cert, 0, 0

        monkeypatch.setattr(daccbs.controller, "repair", late_repair)
        inst = random_instance(random.Random(3), 5, 5, 4)
        controller = FleetController(inst, ControllerConfig(h_max=16, t_max_ms=10.0))
        state, entries, reserves = inst.starts, {}, {}
        while state != inst.goals and controller.t < 3:
            fake.now = entries[controller.t] = 100.0 * (controller.t + 1)
            reserves[controller.t] = controller._tail_s
            movement, telem = controller.plan_step(state)
            assert telem["reserve_ms"] == pytest.approx(1000.0 * reserves[telem["t"]])
            state = tuple(movement[a][1] for a in range(inst.n_agents))
        assert {t for t, _ in repairs} == {0, 1, 2}
        for t, end in repairs:
            assert end == pytest.approx(entries[t] + 0.010 - (0.003 if t else 0.0), abs=1e-9)

    def test_reserve_does_not_compound_a_late_floor(self, monkeypatch):
        # Each advance takes 12 ms, so improvement starts after the step's
        # deadline and its clocks have expired; every movement it builds in
        # the tail takes 1 ms.  The tail is timed from where improvement
        # began, so the reserve stays the tail's own time, step after step.
        fake = FakeTime(0.0)
        monkeypatch.setattr(time, "perf_counter", fake)
        advance, first_movement = (daccbs.controller.advance,
                                   daccbs.controller.first_movement)
        tail_calls = [0]

        def slow_advance(*args):
            fake.now += 0.012
            return advance(*args)

        def slow_movement(paths):
            tail_calls[0] += 1
            fake.now += 0.001
            return first_movement(paths)

        monkeypatch.setattr(daccbs.controller, "advance", slow_advance)
        monkeypatch.setattr(daccbs.controller, "first_movement", slow_movement)
        monkeypatch.setattr(daccbs.controller, "repair", lambda cert, *args: (cert, 0, 0))
        inst = random_instance(random.Random(3), 5, 5, 4)
        controller = FleetController(inst, ControllerConfig(h_max=16, t_max_ms=10.0))
        state = inst.starts
        while state != inst.goals and controller.t < 4:
            fake.now = 100.0 * (controller.t + 1)
            reserve, tail_calls[0] = controller._tail_s, 0
            movement, _ = controller.plan_step(state)
            tail_s = daccbs.controller._estimate(reserve, 0.001 * tail_calls[0])
            assert controller._tail_s == pytest.approx(tail_s, abs=1e-9)
            state = tuple(movement[a][1] for a in range(inst.n_agents))
        assert controller.t == 4

    def test_accbs_reserve_covers_a_search_past_its_clock(self, monkeypatch):
        # Time stands still except where the test moves it: the search returns
        # 2 ms after its narrowed clock ends, and the reserve learns them.
        fake = FakeTime(0.0)
        monkeypatch.setattr(time, "perf_counter", fake)
        ends = []

        def late_search(instance, state, h_max, clock, **kwargs):
            outcome = run_adaptive(instance, state, h_max, clock, **kwargs)
            ends.append(clock.end)
            fake.now = clock.end + 0.002
            return outcome

        monkeypatch.setattr(daccbs.controller, "run_adaptive", late_search)
        inst = random_instance(random.Random(3), 5, 5, 4)
        controller = FleetController(inst, ControllerConfig(mode="accbs", h_max=16, t_max_ms=10.0))
        movement, telem = controller.plan_step(inst.starts)
        assert telem["reserve_ms"] == 0.0
        assert controller._tail_s == pytest.approx(0.002, abs=1e-9)
        state = tuple(movement[a][1] for a in range(inst.n_agents))
        entry = fake.now = 200.0
        _, telem = controller.plan_step(state)
        assert telem["reserve_ms"] == pytest.approx(2.0)
        assert ends[1] == pytest.approx(entry + 0.010 - 0.002, abs=1e-9)

    def test_reserve_changes_nothing_under_a_work_clock(self, monkeypatch, fixed_work):
        fixed_work(20)

        def outputs():
            inst = random_instance(random.Random(0), 16, 16, 30)
            result, _ = episode(inst, h_max=32, t_max_ms=25.0)
            return result.soc, result.budget_trace, result.factorization_trace

        plain = outputs()
        # A reserve of a second a node and a second of tail.
        monkeypatch.setattr(daccbs.controller, "_estimate", lambda previous, observed: 1.0)
        assert outputs() == plain


class TestPhases:
    """A daccbs step runs in phases over all its groups: every advance, then
    each group's repair and search, then every partition, then the tail."""

    def test_every_group_advances_before_any_repair(self, monkeypatch, fixed_work):
        fixed_work(20)
        inst, controller = TestParking.contested_size()
        calls = []  # (step, name) of every phase call, in order

        def recording(name):
            original = getattr(daccbs.controller, name)

            def recorded(*args, **kwargs):
                calls.append((controller.t, name))
                return original(*args, **kwargs)

            monkeypatch.setattr(daccbs.controller, name, recorded)

        phase = {"advance": 0, "repair": 1, "run_adaptive": 1, "partition": 2}
        for name in phase:
            recording(name)
        run_episode(inst, controller)
        mixed = 0  # steps with more than one group and calls of every phase
        for t in range(controller.t):
            names = [name for step, name in calls if step == t]
            assert [phase[n] for n in names] == sorted(phase[n] for n in names), t
            mixed += names.count("advance") > 1 and {"repair", "partition"} <= set(names)
        assert mixed > 0

    def test_tail_covers_factorization_but_not_debug_checks(self, monkeypatch):
        # Time stands still except where the test moves it: every partition
        # takes 9 ms, and the debug checks 50 ms.
        fake = FakeTime(0.0)
        monkeypatch.setattr(time, "perf_counter", fake)
        partition = daccbs.controller.partition

        def slow_partition(*args):
            fake.now += 0.009
            return partition(*args)

        monkeypatch.setattr(daccbs.controller, "partition", slow_partition)
        # The certificate never improves, so every step has slack to search.
        monkeypatch.setattr(daccbs.controller, "repair", lambda cert, *args: (cert, 0, 0))
        monkeypatch.setattr(daccbs.controller, "try_improve", lambda cert, *args: (cert, False))
        searches, controller_t = TestStepDeadline.searched(monkeypatch)
        inst = random_instance(random.Random(3), 5, 5, 4)
        controller = FleetController(
            inst, ControllerConfig(h_max=16, t_max_ms=10.0, debug_checks=True)
        )
        debug_assertions = controller._debug_assertions

        def slow_checks(state):
            fake.now += 0.050
            debug_assertions(state)

        monkeypatch.setattr(controller, "_debug_assertions", slow_checks)
        # Step 0 partitions its one group after the search.
        movement, telem = controller.plan_step(inst.starts)
        assert controller.factorization_trace
        assert controller._tail_s == pytest.approx(0.009)
        assert telem["wall_ms"] == pytest.approx(9.0)
        # The next step's search stops the partition's time before its
        # deadline.
        state = tuple(movement[a][1] for a in range(inst.n_agents))
        entry = fake.now = 200.0
        controller_t[0] = 1
        controller.plan_step(state)
        clocks = [clock for t, clock, *_ in searches if t == 1]
        assert clocks
        for clock in clocks:
            assert clock.end == pytest.approx(entry + 0.010 - 0.009, abs=1e-9)


class TestAccbsMode:
    def test_terminates_with_ample_deadline(self):
        inst = cross_instance()
        result, _ = episode(inst, mode="accbs", t_max_ms=200.0)
        assert result.termination == "all-at-goals"
        assert result.soc == 5

    def test_starved_waits(self):
        inst = cross_instance()
        controller = FleetController(inst, ControllerConfig(mode="accbs", t_max_ms=0.0))
        movement, telem = controller.plan_step(inst.starts)
        assert movement == {0: (1, 1), 1: (3, 3)}

    def test_agent_already_at_goal(self):
        # Agent 1 starts on its goal, so its trajectory is a single vertex.
        inst = MapfInstance(make_grid(3, 3), (0, 8), (2, 8))
        controller = FleetController(inst, ControllerConfig(mode="accbs", t_max_ms=200.0))
        movement, telem = controller.plan_step(inst.starts)
        assert movement == {0: (0, 1), 1: (8, 8)}
        assert telem["h_r"] == controller.config.h_max
        result, _ = episode(inst, mode="accbs", t_max_ms=200.0)
        assert result.termination == "all-at-goals"
        assert result.soc == 2

    def test_no_budget_trace(self):
        inst = cross_instance()
        result, _ = episode(inst, mode="accbs", t_max_ms=50.0)
        assert result.initial_budget is None
        assert result.budget_trace == []


class TestZeroDeadline:
    def test_terminates(self):
        # With no search time every group follows its backup certificate.
        rng = random.Random(2)
        inst = random_instance(rng, 4, 4, 3)
        result, controller = episode(inst, t_max_ms=0.0)
        assert result.termination == "all-at-goals"
        assert result.soc == controller.initial_budget
        searches = [s for telem in result.telemetry for s in telem["searches"]]
        assert searches and all(s["search"] is None for s in searches)
