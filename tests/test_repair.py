"""Certificate repair: single members replanned against the others' paths."""

import random
from dataclasses import replace

import pytest

import daccbs.certificate
import daccbs.controller
from daccbs import (
    Certificate,
    ControllerConfig,
    FleetController,
    Graph,
    LacamBackup,
    MapfInstance,
    WorkClock,
    advance,
    init_certificate,
    is_conflict_free,
    reachable_region,
    repair,
    run_episode,
    slackness,
)
from daccbs.certificate import CertificateError, try_improve, try_improve_member
from daccbs.lowlevel import greedy_path
from daccbs.trajectory import Occupancy, path_cost

from conftest import random_instance

# A repair never counts an expansion, so this clock never stops it.
UNLIMITED = WorkClock(1)


def corridor_instance() -> MapfInstance:
    """The corridor 0 - 1 - ... - 6 with a pocket 7 off vertex 3.  Agent 0
    goes 0 -> 3; agent 1 goes 6 -> 7 and passes vertex 3 at t = 3."""
    edges = [(v, v + 1) for v in range(6)] + [(3, 7)]
    neighbors = {v: {v} for v in range(8)}
    for u, w in edges:
        neighbors[u].add(w)
        neighbors[w].add(u)
    graph = Graph(tuple(tuple(sorted(neighbors[v])) for v in range(8)))
    return MapfInstance(graph, (0, 6), (3, 7))


class TestCorridor:
    def test_cheaper_path_waits_for_the_goal_to_clear(self):
        inst = corridor_instance()
        # Agent 0 waits four steps before it goes; agent 1 takes its shortest
        # path, through agent 0's goal at t = 3.
        cert = Certificate((0, 1), {0: (0, 0, 0, 0, 1, 2, 3), 1: (6, 5, 4, 3, 7)}, 10)
        cert.validate(inst, inst.starts)
        # Its own shortest path would reach the goal at t = 3, as agent 1 does.
        assert not is_conflict_free([(0, 1, 2, 3), cert.paths[1]])

        repaired, planned, accepted = repair(cert, inst, inst.starts, UNLIMITED)

        path = repaired.paths[0]
        # It cannot reach the goal before t = 3, so it arrives at t = 4, one
        # wait dearer than its shortest path and two cheaper than before.
        assert (path[0], path[-1], len(path)) == (0, 3, 5)
        assert 3 not in path[:-1]
        assert path_cost(path, 3) == 4
        assert repaired.paths[1] == cert.paths[1]
        assert repaired.budget == 8
        repaired.validate(inst, inst.starts)
        # Agent 1 is on a shortest path, so only agent 0 is planned: once to
        # improve, and once more to find nothing cheaper.
        assert (planned, accepted, repaired.settled) == (2, 1, {0})
        # Settled, it is not planned again.
        assert repair(repaired, inst, inst.starts, UNLIMITED) == (repaired, 0, 0)

    def test_optimal_certificate_unchanged(self):
        inst = corridor_instance()
        cert = Certificate((0, 1), {0: (0, 1, 2, 2, 3), 1: (6, 5, 4, 3, 7)}, 8)
        assert repair(cert, inst, inst.starts, UNLIMITED) == (replace(cert, settled={0}), 1, 0)

    def test_expired_clock_plans_nothing(self):
        inst = corridor_instance()
        cert = Certificate((0, 1), {0: (0, 0, 0, 0, 1, 2, 3), 1: (6, 5, 4, 3, 7)}, 10)
        assert repair(cert, inst, inst.starts, WorkClock(0)) == (cert, 0, 0)


# (height, width, agents, block_prob) of the contested and starved workloads.
SIZES = {"contested": (16, 16, 30, 0.0), "starved": (32, 32, 50, 0.1)}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("size", sorted(SIZES))
def test_offered_paths(size, seed, monkeypatch):
    # A conflict-free certificate from a backup rollout, advanced part of the
    # way along it so that some members have already reached their goals.
    rng = random.Random(seed)
    inst = random_instance(rng, *SIZES[size])
    agents = tuple(range(inst.n_agents))
    cert = init_certificate(LacamBackup(seed=seed), inst, inst.starts, agents)
    for _ in range(rng.randrange(max(len(p) for p in cert.paths.values()) // 2)):
        cert = advance(cert, tuple(cert.paths[a][1] if len(cert.paths[a]) > 1
                                   else cert.paths[a][0] for a in agents))
    state = tuple(cert.paths[a][0] for a in agents)

    offers = []
    try_improve_member = daccbs.certificate.try_improve_member

    def offered(incumbent, a, path, instance, at, table):
        # Repair's index, kept across acceptances, holds the incumbent's paths.
        assert table.paths == tuple(incumbent.paths[m] for m in agents)
        improved, ok = try_improve_member(incumbent, a, path, instance, at, table)
        offers.append((incumbent, a, {**incumbent.paths, a: path}, improved, ok))
        return improved, ok

    monkeypatch.setattr(daccbs.certificate, "try_improve_member", offered)
    repaired, planned, accepted = repair(cert, inst, state, UNLIMITED)

    assert offers and accepted == len(offers) <= planned
    # Each acceptance goes through try_improve_member, and the next offer is
    # made to the certificate it returned.
    assert [offer[0] for offer in offers] == [cert] + [offer[3] for offer in offers[:-1]]
    assert repaired == replace(offers[-1][3], settled=repaired.settled)
    for incumbent, a, candidate, _, ok in offers:
        path, goal = candidate[a], inst.goals[a]
        assert ok
        assert (path[0], path[-1]) == (state[a], goal)
        assert path_cost(path, goal) < path_cost(incumbent.paths[a], goal)
        assert is_conflict_free(candidate.values())
        slack = slackness(agents, incumbent.budget, state, inst.gammas)
        assert set(path) <= reachable_region(inst.graph, a, state, slack, inst.gammas[a])
    repaired.validate(inst, state)
    # Repair stops only when every member with excess is settled.
    excess = {a for a in agents
              if path_cost(repaired.paths[a], inst.goals[a]) > inst.gammas[a][state[a]]}
    assert repaired.settled == excess
    # Settled members stay settled once the certificate advances: planned
    # afresh from the next state, none finds a cheaper path.
    moved = tuple(path[1] if len(path) > 1 else path[0] for path in
                  (repaired.paths[a] for a in agents))
    advanced = advance(repaired, moved)
    assert repair(replace(advanced, settled=frozenset()), inst, moved, UNLIMITED)[2] == 0
    # Carried, the set spares them the plan.
    assert repair(advanced, inst, moved, UNLIMITED)[1] == 0


@pytest.mark.parametrize("seed", range(4))
def test_debug_checked_episodes(seed, fixed_work):
    # The controller's debug checks validate every certificate and check that
    # regions shrink and groups stay disjoint at every step.
    fixed_work(20)
    inst = random_instance(random.Random(seed), 8, 8, 10, 0.1)
    controller = FleetController(inst, ControllerConfig(h_max=32, debug_checks=True))
    result = run_episode(inst, controller, step_cap=100)
    assert result.termination == "all-at-goals"
    assert result.soc <= controller.initial_budget
    budgets = [b for _, b, _ in result.budget_trace]
    assert all(b2 < b1 for b1, b2 in zip(budgets, budgets[1:]))
    searches = [s for step in result.telemetry for s in step["searches"]]
    assert all(0 <= s["repaired"] <= s["repairs"] for s in searches)
    assert sum(s["repaired"] for s in searches) > 0


def test_settled_members_carried_across_steps(fixed_work, monkeypatch):
    # Carrying the settled members from step to step only skips plans that
    # would find nothing: at a fixed work budget each episode is the same as
    # one that plans every member afresh at every step.
    fixed_work(20)
    instances = [random_instance(random.Random(seed), 8, 8, 10, 0.1) for seed in range(4)]

    def episodes():
        outputs, planned = [], 0
        for inst in instances:
            result = run_episode(inst, FleetController(inst, ControllerConfig(h_max=32)),
                                 step_cap=100)
            outputs.append((result.soc, result.budget_trace, result.factorization_trace))
            planned += sum(s["repairs"] for step in result.telemetry for s in step["searches"])
        return outputs, planned

    carried, carried_planned = episodes()
    monkeypatch.setattr(daccbs.controller, "repair",
                        lambda cert, instance, state, clock:
                        repair(replace(cert, settled=frozenset()), instance, state, clock))
    fresh, fresh_planned = episodes()
    assert carried == fresh
    assert carried_planned < fresh_planned


class TestController:
    def test_records_count_repairs(self, monkeypatch, fixed_work):
        fixed_work(20)
        returned = []

        def recorded(*args):
            out = repair(*args)
            returned.append(out[1:3])
            return out

        monkeypatch.setattr(daccbs.controller, "repair", recorded)
        inst = random_instance(random.Random(1), 8, 8, 10, 0.1)
        result = run_episode(inst, FleetController(inst, ControllerConfig(h_max=32)))
        counted = [(s["repairs"], s["repaired"])
                   for step in result.telemetry for s in step["searches"] if s["repairs"]]
        assert counted == [r for r in returned if r[0]]
        assert any(repaired for _, repaired in counted)

    def test_share_spent_by_repair_starts_no_search(self, monkeypatch):
        class Spent:
            """A clock that expires once repair has run."""
            reason = "deadline"
            expired_now = False

            def expired(self, expansions):
                return self.expired_now

        clocks = []

        def make_clock(seconds, stop, free_s):
            clocks.append(Spent())
            return clocks[-1]

        def spending(cert, instance, state, clock):
            out = repair(cert, instance, state, clock)
            clock.expired_now = True
            return out

        def no_search(*args, **kwargs):
            raise AssertionError("a search started after repair spent the share")

        monkeypatch.setattr(daccbs.controller, "WallClock", make_clock)
        monkeypatch.setattr(daccbs.controller, "repair", spending)
        monkeypatch.setattr(daccbs.controller, "run_adaptive", no_search)
        inst = random_instance(random.Random(3), 5, 5, 4)
        controller = FleetController(inst, ControllerConfig(t_max_ms=5.0))
        _, telem = controller.plan_step(inst.starts)
        (search,) = telem["searches"]
        assert search["search"] == "repair"
        assert (search["expansions"], search["prefixes"]) == (0, 0)
        assert search["repairs"] > 0


def corridor(starts, goals) -> MapfInstance:
    """corridor_instance's graph with other starts and goals."""
    return MapfInstance(corridor_instance().graph, starts, goals)


def offer(cert, agent, path, inst):
    """(try_improve's verdict, the one-row gate's) on changing one path."""
    table = Occupancy(cert.paths[a] for a in cert.agents)
    whole = try_improve(cert, {**cert.paths, agent: path}, inst, inst.starts)
    one = try_improve_member(cert, agent, path, inst, inst.starts, table)
    return whole, one


class TestOneRowGate:
    """Every one-row change that try_improve (Certificate.validate, then the
    price) rejects, the gate rejects too."""

    # Agent 0 goes 1 -> 5 along the corridor; agent 1 waits at 4 until t = 2,
    # then goes 4 -> 3 -> 7 into the pocket.
    SWAP = corridor((1, 4), (5, 7))
    SWAP_CERT = Certificate((0, 1), {0: (1, 1, 1, 1, 1, 2, 3, 4, 5), 1: (4, 4, 4, 3, 7)}, 12)
    # Agent 0 goes 0 -> 3; agent 1 waits at 6, then passes 3 at t = 4.
    VISIT = corridor((0, 6), (3, 7))
    VISIT_CERT = Certificate((0, 1), {0: (0, 0, 0, 0, 0, 1, 2, 3), 1: (6, 6, 5, 4, 3, 7)}, 12)

    @pytest.mark.parametrize("path", [(1, 2, 2, 2, 3, 4, 5), (1, 1, 1, 1, 2, 3, 4, 5, 5)])
    def test_accepts_a_cheaper_valid_path(self, path):
        whole, one = offer(self.SWAP_CERT, 0, path, self.SWAP)
        assert one == whole and one[1]
        one[0].validate(self.SWAP, self.SWAP.starts)

    @pytest.mark.parametrize("case, path", [
        ("start", (0, 1, 2, 3, 4, 5)),
        ("goal", (1, 0)),
        ("edge", (1, 2, 4, 5)),
        ("vertex", (1, 2, 2, 3, 4, 5)),  # both at 3 at t = 3
        ("swap", (1, 2, 3, 4, 5)),  # 3 -> 4 while agent 1 goes 4 -> 3
    ])
    def test_rejects_what_validate_rejects(self, case, path):
        cert, inst = self.SWAP_CERT, self.SWAP
        cert.validate(inst, inst.starts)
        assert path_cost(path, 5) < path_cost(cert.paths[0], 5)
        with pytest.raises(CertificateError):
            Certificate(cert.agents, {**cert.paths, 0: path}, 0).validate(inst, inst.starts)
        assert offer(cert, 0, path, inst) == ((cert, False), (cert, False))

    def test_rejects_a_visit_to_the_goal_after_arrival(self):
        # Agent 0 would wait at its goal 3 from t = 3; agent 1 passes it at t = 4.
        cert, inst = self.VISIT_CERT, self.VISIT
        cert.validate(inst, inst.starts)
        path = (0, 1, 2, 3)
        with pytest.raises(CertificateError):
            Certificate(cert.agents, {**cert.paths, 0: path}, 0).validate(inst, inst.starts)
        assert offer(cert, 0, path, inst) == ((cert, False), (cert, False))
        # Arriving at t = 5, after agent 1 has left, it is accepted.
        whole, one = offer(cert, 0, (0, 1, 2, 2, 2, 3), inst)
        assert one == whole and one[1]

    @pytest.mark.parametrize("path", [
        (1, 1, 1, 1, 1, 2, 3, 4, 5),  # the same path
        (1, 2, 1, 1, 1, 2, 3, 4, 5),  # as dear, by another way
        (1, 1, 1, 1, 1, 1, 2, 3, 4, 5),  # dearer
        (),
    ])
    def test_rejects_a_path_that_is_not_cheaper(self, path):
        cert = self.SWAP_CERT
        assert offer(cert, 0, path, self.SWAP) == ((cert, False), (cert, False))


def one_row_changes(rng, inst, cert, table, a):
    """Seeded changes of member `a`'s path in the certificate that `table`
    indexes: its cheapest path against the others (as repair plans it), that
    path and its own with one vertex moved to a neighbour, its own less one
    wait or from its next vertex on, and its shortest path."""
    path = cert.paths[a]
    changes = [tuple(greedy_path(inst.graph, path[0], inst.gammas[a], len(path) + 8))]
    limit = path_cost(path, inst.goals[a])
    replanned = daccbs.certificate._replan(
        inst.graph, inst.gammas[a], table, cert.agents.index(a), limit, UNLIMITED
    )
    for changed in (path, replanned):
        if changed is not None and len(changed) > 2:
            t = rng.randrange(1, len(changed) - 1)
            moved = rng.choice(inst.graph.adjacency[changed[t]])
            changes.append(changed[:t] + (moved,) + changed[t + 1:])
    waits = [t for t in range(1, len(path)) if path[t] == path[t - 1]]
    if waits:
        t = rng.choice(waits)
        changes.append(path[:t] + path[t + 1:])
    changes.append(path[1:])
    if replanned is not None:
        changes.append(replanned)
    return changes


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("size", sorted(SIZES))
def test_gate_accepts_what_try_improve_accepts(size, seed):
    rng = random.Random(seed)
    inst = random_instance(rng, *SIZES[size])
    agents = tuple(range(inst.n_agents))
    cert = init_certificate(LacamBackup(seed=seed), inst, inst.starts, agents)
    state = inst.starts
    table = Occupancy(cert.paths[a] for a in agents)
    verdicts = []
    for a in agents:
        for path in one_row_changes(rng, inst, cert, table, a):
            whole = try_improve(cert, {**cert.paths, a: path}, inst, state)
            one = try_improve_member(cert, a, path, inst, state, table)
            assert one == whole, (a, path)
            verdicts.append(one[1])
            if one[1]:
                # The same index serves the next offer, its one row replaced.
                cert = one[0]
                table.replace(agents.index(a), cert.paths[a])
    assert verdicts.count(True) > 1 and verdicts.count(False) > 1


@pytest.mark.parametrize("seed", range(3))
def test_replaced_rows_index_as_a_fresh_table(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, *SIZES["starved"])
    agents = tuple(range(inst.n_agents))
    cert = init_certificate(LacamBackup(seed=seed), inst, inst.starts, agents)
    # One index kept across every acceptance, as repair keeps it, and one
    # per acceptance that has indexed a random part of the steps before it.
    kept = Occupancy(cert.paths[a] for a in agents)
    replaced = 0
    for a in agents:
        for path in one_row_changes(rng, inst, cert, kept, a):
            partial = Occupancy(cert.paths[m] for m in agents)
            partial.at(rng.randrange(partial.end + 2))
            cert, ok = try_improve_member(cert, a, path, inst, inst.starts, kept)
            if not ok:
                continue
            replaced += 1
            fresh = Occupancy(cert.paths[m] for m in agents)
            for table in (kept, partial):
                table.replace(agents.index(a), cert.paths[a])
                assert (table.paths, table.end) == (fresh.paths, fresh.end)
                assert all(table.at(t) == fresh.at(t) for t in range(fresh.end + 2))
    assert replaced > 1
