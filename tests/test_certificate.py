"""Certificate lifecycle: init via backup, inheritance, improvement, movement."""

import random
from dataclasses import replace

import pytest

import daccbs.certificate
from daccbs import (
    INF,
    Certificate,
    CertificateError,
    LacamBackup,
    MapfInstance,
    WorkClock,
    advance,
    build_candidate,
    init_certificate,
    repair,
    try_improve,
)
from daccbs.certificate import first_movement, plan_cost

from conftest import (
    chain_graph,
    count_configurations,
    cross_instance,
    joint,
    make_grid,
    random_instance,
)


def chain_instance():
    g = chain_graph(5)
    return MapfInstance(g, (0,), (4,))


def disjoint_instance():
    g = make_grid(2, 5, {(0, 4)})
    return MapfInstance(g, (0, 4), (3, 8))  # gammas 3 and 4


BACKUP = LacamBackup(seed=0)
NO_BUDGET = INF  # a budget that no candidate reaches


class TestInit:
    def test_all_at_goals(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0, 4), (0, 4))
        cert = init_certificate(BACKUP, inst, inst.starts, (0, 1))
        assert cert.budget == 0
        assert all(len(cert.paths[a]) == 1 for a in (0, 1))

    def test_single_chain_agent(self):
        inst = chain_instance()
        cert = init_certificate(BACKUP, inst, inst.starts, (0,))
        assert cert.budget == 4
        assert cert.paths[0] == (0, 1, 2, 3, 4)

    def test_disjoint_chains(self):
        inst = disjoint_instance()
        cert = init_certificate(BACKUP, inst, inst.starts, (0, 1))
        assert cert.budget == 7
        cert.validate(inst, inst.starts)


class TestValidate:
    # On the cross instance the certificate {0: (1, 4, 7), 1: (3, 3, 4, 5)}
    # with budget 5 is valid; each case breaks one condition.
    @pytest.mark.parametrize(
        "paths, budget, message",
        [
            pytest.param({0: (4, 7), 1: (3, 3, 4, 5)}, 4, "start", id="wrong-start"),
            pytest.param({0: (1, 4), 1: (3, 3, 4, 5)}, 5, "end", id="wrong-end"),
            pytest.param({0: (1, 7), 1: (3, 3, 4, 5)}, 4, "edge", id="non-edge"),
            pytest.param({0: (1, 4, 7), 1: (3, 4, 5)}, 4, "conflict", id="conflict"),
            pytest.param({0: (1, 4, 7), 1: (3, 3, 4, 5)}, 6, "budget", id="budget-mismatch"),
        ],
    )
    def test_violation_raises(self, paths, budget, message):
        inst = cross_instance()
        Certificate((0, 1), {0: (1, 4, 7), 1: (3, 3, 4, 5)}, 5).validate(inst, inst.starts)
        with pytest.raises(CertificateError, match=message):
            Certificate((0, 1), paths, budget).validate(inst, inst.starts)


class TestAdvance:
    def test_chain_truncation(self):
        inst = chain_instance()
        cert = Certificate((0,), {0: (0, 1, 2, 3, 4)}, 4)
        cert2 = advance(cert, (1,))
        assert cert2.paths[0] == (1, 2, 3, 4)
        assert cert2.budget == 3

    def test_mixed_goal_agents(self):
        inst = disjoint_instance()
        cert = init_certificate(BACKUP, inst, inst.starts, (0, 1))
        state2 = tuple(cert.paths[a][1] for a in (0, 1))
        cert2 = advance(cert, state2)
        assert cert2.budget == cert.budget - 2  # both off-goal

    def test_at_goal_budget_unchanged(self):
        cert = Certificate((0,), {0: (4,)}, 0)
        assert advance(cert, (4,)).budget == 0

    def test_state_mismatch_rejected(self):
        cert = Certificate((0,), {0: (0, 1, 2)}, 2)
        with pytest.raises(CertificateError):
            advance(cert, (0,))


class TestTryImprove:
    def setup_method(self):
        self.inst = chain_instance()
        # deliberately wasteful incumbent: wait once, then go
        self.cert = Certificate((0,), {0: (0, 0, 1, 2, 3, 4)}, 5)

    def test_strictly_cheaper_accepted(self):
        cert2, ok = try_improve(self.cert, {0: (0, 1, 2, 3, 4)}, self.inst, (0,))
        assert ok
        assert cert2.budget == 4

    def test_equal_cost_rejected(self):
        cert2, ok = try_improve(self.cert, {0: (0, 0, 1, 2, 3, 4)}, self.inst, (0,))
        assert not ok
        assert cert2 is self.cert

    def test_conflicted_candidate_rejected(self):
        inst = cross_instance()
        cert = init_certificate(BACKUP, inst, inst.starts, (0, 1))
        # both agents routed through the center at t=1 -> vertex conflict
        bad = {0: (1, 4, 7), 1: (3, 4, 5)}
        cert2, ok = try_improve(cert, bad, inst, inst.starts)
        assert not ok
        assert cert2.budget == cert.budget

    def test_wrong_endpoint_rejected(self):
        _, ok = try_improve(self.cert, {0: (0, 1, 2, 3)}, self.inst, (0,))
        assert not ok

    def test_non_edge_rejected(self):
        # Cheaper than the incumbent, but 0 -> 2 is not a graph edge.
        cert2, ok = try_improve(self.cert, {0: (0, 2, 3, 4)}, self.inst, (0,))
        assert not ok
        assert cert2 is self.cert

    def test_empty_path_rejected(self):
        _, ok = try_improve(self.cert, {0: ()}, self.inst, (0,))
        assert not ok

    def test_idempotent_rejection(self):
        c1, ok1 = try_improve(self.cert, {0: (0, 0, 1, 2, 3, 4)}, self.inst, (0,))
        c2, ok2 = try_improve(c1, {0: (0, 0, 1, 2, 3, 4)}, self.inst, (0,))
        assert (ok1, ok2) == (False, False)
        assert c1 is c2 is self.cert


class TestBuildCandidate:
    def test_prefix_already_at_goals(self):
        inst = chain_instance()
        candidate = build_candidate({0: (0, 1, 2, 3, 4)}, BACKUP, inst, (0,), NO_BUDGET)
        assert candidate == {0: (0, 1, 2, 3, 4)}

    def test_chain_tail(self):
        inst = chain_instance()
        candidate = build_candidate({0: (0, 1)}, BACKUP, inst, (0,), NO_BUDGET)
        assert candidate[0][:2] == (0, 1)
        assert candidate[0][-1] == 4
        # a lone agent's backup tail is gamma-greedy
        assert candidate[0] == (0, 1, 2, 3, 4)

    def test_unequal_heads_join_at_one_time(self):
        # Agent 0's head ends at its goal first; it waits there until the
        # longer head ends, and the backup tail starts for both at time 4.
        # Agent 0's tail is its goal alone: the backup strips goal waits.
        inst = disjoint_instance()
        candidate = build_candidate(
            {0: (0, 1, 2, 3), 1: (4, 5, 6, 7, 7)}, BACKUP, inst, (0, 1), NO_BUDGET
        )
        assert candidate == {0: (0, 1, 2, 3, 3), 1: (4, 5, 6, 7, 7, 8)}

    def test_budget_drops_exactly_the_candidates_it_would_reject(self, monkeypatch):
        # Heads cut from an incumbent's paths at random lengths (ending at
        # distinct vertices), so some end off their goals before the junction
        # and pay for their pad.  build_candidate gives the candidate built
        # under no budget when that costs less than the budget, else None.
        created = count_configurations(monkeypatch)
        rng = random.Random(4)
        outcomes = {"built": 0, "dropped": 0}
        for _ in range(60):
            inst = random_instance(rng, 6, 6, rng.randint(2, 8))
            group = tuple(range(inst.n_agents))
            cert = init_certificate(BACKUP, inst, inst.starts, group)
            prefix = {a: cert.paths[a][: rng.randint(1, len(cert.paths[a]))] for a in group}
            if len({head[-1] for head in prefix.values()}) < len(group):
                continue
            created[0] = 0
            tail = BACKUP.rollout(inst, group, tuple(prefix[a][-1] for a in group))
            if created[0] > joint(tail).makespan + 1:
                continue  # LaCAM revisited a configuration
            unlimited = build_candidate(prefix, BACKUP, inst, group, NO_BUDGET)
            cost = plan_cost(unlimited, inst)
            for budget in range(cost - 2, cost + 3):
                candidate = build_candidate(prefix, BACKUP, inst, group, budget)
                if cost >= budget:
                    assert candidate is None, (budget, cost)
                    outcomes["dropped"] += 1
                else:
                    assert candidate == unlimited
                    outcomes["built"] += 1
        assert outcomes["built"] and outcomes["dropped"], outcomes

    def test_all_wait_prefix_never_improves(self):
        inst = chain_instance()
        cert = init_certificate(BACKUP, inst, inst.starts, (0,))
        assert build_candidate({0: (0, 0)}, BACKUP, inst, (0,), cert.budget) is None
        candidate = build_candidate({0: (0, 0)}, BACKUP, inst, (0,), NO_BUDGET)
        assert plan_cost({0: candidate[0]}, inst) >= cert.budget + 1
        _, ok = try_improve(cert, candidate, inst, inst.starts)
        assert not ok

    def test_prefix_at_goals_priced_against_the_budget(self):
        inst = chain_instance()
        assert build_candidate({0: (0, 1, 2, 3, 4)}, BACKUP, inst, (0,), 5) == {0: (0, 1, 2, 3, 4)}
        assert build_candidate({0: (0, 1, 2, 3, 4)}, BACKUP, inst, (0,), 4) is None


class TestSettled:
    """A certificate carries the members repair found settled against its
    paths while it is only advanced or restricted to a part; a certificate
    of new paths starts with none."""

    def test_advance_keeps_settled(self):
        moving = Certificate((0, 1), {0: (0, 1, 2), 1: (4,)}, 2, frozenset({0, 1}))
        assert advance(moving, (1, 4)).settled == {0, 1}
        # Every member on its goal: the settled members stay settled too.
        at_goals = Certificate((0, 1), {0: (2,), 1: (4,)}, 0, frozenset({1}))
        assert advance(at_goals, (2, 4)).settled == {1}

    def test_restricted_drops_members_outside_the_part(self):
        cert = Certificate((0, 1), {0: (1, 4, 7), 1: (3, 3, 4, 5)}, 5, frozenset({1}))
        assert cert.restricted((0,)).settled == frozenset()
        assert cert.restricted((1,)).settled == {1}

    def test_new_paths_start_unsettled(self):
        inst = chain_instance()
        assert init_certificate(BACKUP, inst, inst.starts, (0,)).settled == frozenset()
        cert = Certificate((0,), {0: (0, 0, 1, 2, 3, 4)}, 5, frozenset({0}))
        improved, ok = try_improve(cert, {0: (0, 1, 2, 3, 4)}, inst, (0,))
        assert ok and improved.settled == frozenset()

    def test_repair_skips_exactly_the_carried_members(self, monkeypatch):
        # Repaired to convergence, every member with excess is settled; of
        # those, repair plans exactly the ones its certificate does not carry.
        inst = random_instance(random.Random(1), 8, 8, 10, 0.1)
        agents = tuple(range(inst.n_agents))
        start = init_certificate(BACKUP, inst, inst.starts, agents)
        cert, _, _ = repair(start, inst, inst.starts, WorkClock(1))
        assert len(cert.settled) >= 2
        planned = []
        replan = daccbs.certificate._replan

        def recorded(graph, gamma, table, member, *rest):
            planned.append(cert.agents[member])
            return replan(graph, gamma, table, member, *rest)

        monkeypatch.setattr(daccbs.certificate, "_replan", recorded)
        carried = frozenset(sorted(cert.settled)[::2])
        out = repair(replace(cert, settled=carried), inst, inst.starts, WorkClock(1))
        assert out == (cert, len(cert.settled - carried), 0)
        assert set(planned) == cert.settled - carried
        assert len(planned) == len(set(planned))


class TestFirstMovement:
    def test_singleton_waits(self):
        cert = Certificate((0,), {0: (4,)}, 0)
        assert first_movement(cert.paths) == {0: (4, 4)}

    def test_first_edge(self):
        cert = Certificate((0,), {0: (0, 1, 2)}, 2)
        assert first_movement(cert.paths) == {0: (0, 1)}

    def test_movements_conflict_free(self):
        inst = cross_instance()
        cert = init_certificate(BACKUP, inst, inst.starts, (0, 1))
        mv = first_movement(cert.paths)
        targets = [mv[a][1] for a in (0, 1)]
        assert len(set(targets)) == 2
