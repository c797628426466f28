"""Backup solvers: conflict-freedom, goal attainment, determinism,
completeness on crowded instances."""

import platform
import random
import sys
import types
import typing

import pytest

import daccbs.backup
from daccbs import BackupError, Graph, LacamBackup, MapfInstance, optimal_soc, soc
from daccbs.backup import _pibt_step
from daccbs.trajectory import is_conflict_free

from conftest import (
    chain_graph,
    count_configurations,
    cross_instance,
    joint,
    make_grid,
    positions_at,
    random_instance,
)


BACKUP = LacamBackup(seed=0)


def rollout_all(backup, inst, state=None):
    agents = tuple(range(inst.n_agents))
    state = inst.starts if state is None else state
    return backup.rollout(inst, agents, tuple(state[a] for a in agents))


class TestLacamBasics:
    def test_all_at_goals(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0, 4), (0, 4))
        jt = joint(rollout_all(BACKUP, inst))
        assert jt.makespan == 0
        assert positions_at(jt, 0) == (0, 4)

    def test_single_agent_greedy(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        paths = rollout_all(BACKUP, inst)
        assert paths[0] == (0, 1, 2, 3, 4)

    def test_corridor_with_pocket(self):
        # 1x5 corridor with a side pocket above cell 2; two agents head-on
        g = make_grid(2, 5, {(0, 0), (0, 1), (0, 3), (0, 4)})
        inst = MapfInstance(g, (1, 5), (5, 1))
        jt = joint(rollout_all(BACKUP, inst))
        assert is_conflict_free(jt.rows)
        assert positions_at(jt, jt.makespan) == inst.goals
        assert soc(jt, inst.goals) >= optimal_soc(inst)

    def test_empty_group(self):
        g = chain_graph(3)
        inst = MapfInstance(g, (), ())
        jt = BACKUP.rollout(inst, (), ())
        assert len(jt) == 0

    def test_asymmetric_graph_rejected(self):
        from daccbs import Graph

        g = Graph(((0, 1), (1,)))  # edge 0->1 without 1->0
        inst = MapfInstance(g, (0,), (1,))
        with pytest.raises(BackupError):
            rollout_all(BACKUP, inst)

    def test_coinciding_start_rejected(self):
        inst = cross_instance()
        with pytest.raises(BackupError):
            BACKUP.rollout(inst, (0, 1), (1, 1))

    def test_node_type_hints_resolve(self):
        hints = typing.get_type_hints(daccbs.backup._HighNode)
        assert hints["parent"] == daccbs.backup._HighNode | None


class TestLacamProperties:
    def test_determinism_under_seed(self):
        rng = random.Random(3)
        inst = random_instance(rng, 4, 4, 4)
        a = rollout_all(LacamBackup(seed=5), inst)
        b = rollout_all(LacamBackup(seed=5), inst)
        assert a == b

    def test_cost_lower_bound(self):
        rng = random.Random(11)
        for _ in range(10):
            inst = random_instance(rng, 4, 4, 3)
            jt = joint(rollout_all(BACKUP, inst))
            gamma_sum = sum(g[s] for g, s in zip(inst.gammas, inst.starts))
            assert soc(jt, inst.goals) >= gamma_sum

    def test_crowded_grid_completeness(self):
        # 3x3 grid with 8 agents (one free cell) and reversed goals
        g = make_grid(3, 3)
        starts = (0, 1, 2, 3, 4, 5, 6, 7)
        goals = (7, 6, 5, 4, 3, 2, 1, 0)
        inst = MapfInstance(g, starts, goals)
        jt = joint(rollout_all(BACKUP, inst))
        assert is_conflict_free(jt.rows)
        assert positions_at(jt, jt.makespan) == goals

    def test_random_instances_conflict_free(self):
        rng = random.Random(42)
        for _ in range(15):
            inst = random_instance(rng, 5, 5, rng.randint(2, 6))
            paths = rollout_all(BACKUP, inst)
            jt = joint(paths)
            assert is_conflict_free(jt.rows)
            assert positions_at(jt, jt.makespan) == inst.goals
            # Goal waits are stripped: a path ends when its agent arrives.
            assert all(len(p) == 1 or p[-2] != p[-1] for p in paths.values())

    def test_mid_episode_restart(self):
        inst = cross_instance()
        jt = joint(rollout_all(BACKUP, inst))
        mid = positions_at(jt, 1)
        jt2 = joint(rollout_all(BACKUP, inst, mid))
        assert is_conflict_free(jt2.rows)
        assert positions_at(jt2, jt2.makespan) == inst.goals


class TestCostLimit:
    def probe(self, monkeypatch, inst, start, seed, cost_limit):
        """The rollout's paths (or its BackupError), the state of the
        rng it drew from, and the number of configurations it created."""
        rngs = []

        def recorded(seed):
            rngs.append(random.Random(seed))
            return rngs[-1]

        with monkeypatch.context() as m:
            m.setattr(daccbs.backup, "random", types.SimpleNamespace(Random=recorded))
            created = count_configurations(m)
            agents = tuple(range(inst.n_agents))
            try:
                result = LacamBackup(seed).rollout(inst, agents, start, cost_limit=cost_limit)
            except BackupError as exc:
                result = exc
        return result, rngs[0].getstate(), created[0]

    def test_cut_off_is_exact(self, monkeypatch):
        # Limits around each unlimited rollout's cost: a limited rollout
        # returns exactly the unlimited result below its cost and stops at
        # or above it; it stops early only after revisiting a configuration.
        rng = random.Random(2)
        outcomes = {"returned": 0, "cut": 0}
        for seed in range(60):
            inst = random_instance(rng, 6, 6, rng.randint(2, 12))
            start = tuple(rng.sample(range(inst.graph.vertex_count), inst.n_agents))
            full, full_state, created = self.probe(monkeypatch, inst, start, seed, None)
            cost = soc(joint(full), inst.goals)
            revisited = created > joint(full).makespan + 1
            for limit in range(max(cost - 3, 0), cost + 4):
                result, state, _ = self.probe(monkeypatch, inst, start, seed, limit)
                if isinstance(result, BackupError):
                    outcomes["cut"] += 1
                    assert cost >= limit or revisited, (seed, limit, cost)
                else:
                    outcomes["returned"] += 1
                    assert cost < limit, (seed, limit, cost)
                    assert result == full
                    assert state == full_state
        assert outcomes["returned"] and outcomes["cut"], outcomes

    def test_limit_at_root(self):
        # The start's distance sum already reaches the limit: nothing is drawn.
        inst = MapfInstance(chain_graph(5), (0,), (4,))
        with pytest.raises(BackupError):
            BACKUP.rollout(inst, (0,), (0,), cost_limit=4)
        assert rollout_all(BACKUP, inst)[0] == (0, 1, 2, 3, 4)
        assert BACKUP.rollout(inst, (0,), (0,), cost_limit=5)[0] == (0, 1, 2, 3, 4)


class TestRolloutMemory:
    @pytest.mark.skipif(
        platform.python_implementation() != "CPython",
        reason="counts CPython allocator blocks",
    )
    def test_repeated_rollouts_leave_no_blocks_behind(self):
        # Path tuples allocated at their final size are reused by later
        # rollouts; resized ones would pile up on tuple free lists, about ten
        # blocks per rollout.
        inst = random_instance(random.Random(0), 12, 12, 10)
        backup = LacamBackup(seed=0)
        for _ in range(10):
            rollout_all(backup, inst)
        before = sys.getallocatedblocks()
        for _ in range(100):
            rollout_all(backup, inst)
        assert sys.getallocatedblocks() - before < 100


class TestPibtStep:
    def test_push_chain_longer_than_recursion_limit(self):
        # 1,100 agents in a line on a chain, all heading right; the back of the
        # line plans first and pushes every agent ahead of it.
        n_vertices, n_agents = 2200, 1100
        g = chain_graph(n_vertices)
        gamma = [n_vertices - 1 - v for v in range(n_vertices)]
        config = tuple(range(n_agents))
        step = _pibt_step(g, config, config, [gamma] * n_agents, {}, random.Random(0))
        assert step == tuple(range(1, n_agents + 1))


    def test_candidate_shuffle_matches_random_shuffle(self):
        # The candidate list is shuffled by an inlined copy of
        # random.Random.shuffle; it must draw the same bits.  A lone agent sits
        # at the centre of a star whose vertices are all at distance 0, and
        # the distance sequence records the order in which the candidates
        # are sorted, which is the shuffled order.  A candidate list always
        # holds the agent's own vertex, so lengths start at 1.
        class Recorder(list):
            def __getitem__(self, v):
                self.order.append(v)
                return 0

        for length in range(1, 13):
            star = Graph((tuple(range(length)),) + tuple((0, v) for v in range(1, length)))
            for seed in range(2000):
                dists = Recorder()
                dists.order = []
                rng = random.Random(seed)
                _pibt_step(star, (0,), (0,), [dists], {}, rng)
                reference = random.Random(seed)
                expected = list(range(length))
                reference.shuffle(expected)
                assert dists.order == expected, (length, seed)
                assert rng.getstate() == reference.getstate(), (length, seed)

