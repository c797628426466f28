"""Backup solvers: conflict-freedom, goal attainment, determinism,
completeness on crowded instances."""

import platform
import random
import sys
import types
import typing

import pytest

import daccbs.backup
from daccbs import (
    BackupError,
    Graph,
    LacamBackup,
    MapfInstance,
    WallClock,
    WorkClock,
    optimal_soc,
    soc,
)
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
    def test_cut_off_is_exact(self, monkeypatch):
        # Limits around each unlimited rollout's cost: a limited rollout
        # returns exactly the unlimited result below its cost and stops at
        # or above it; it stops early only after revisiting a configuration.
        rng = random.Random(2)
        outcomes = {"returned": 0, "cut": 0}
        for seed in range(60):
            inst = random_instance(rng, 6, 6, rng.randint(2, 12))
            start = tuple(rng.sample(range(inst.graph.vertex_count), inst.n_agents))
            full, full_state, created = probe(monkeypatch, inst, start, seed, None)
            cost = soc(joint(full), inst.goals)
            revisited = created > joint(full).makespan + 1
            for limit in range(max(cost - 3, 0), cost + 4):
                result, state, _ = probe(monkeypatch, inst, start, seed, limit)
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


class ExpiresAt:
    """A clock that expires at its `ask`-th ask, and counts its asks."""

    reason = "deadline"

    def __init__(self, ask: int) -> None:
        self.ask = ask
        self.asks = 0

    def expired(self, expansions: int, held: int = 0) -> bool:
        self.asks += 1
        return self.asks >= self.ask


class TestClock:
    def test_expired_clock_stops_before_any_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a PIBT step ran")

        monkeypatch.setattr(daccbs.backup, "_pibt_step", no_step)
        inst = cross_instance()
        for clock in (WallClock(0.0), WorkClock(0)):
            with pytest.raises(BackupError):
                BACKUP.rollout(inst, (0, 1), inst.starts, clock=clock)

    def test_asked_before_every_step(self, monkeypatch):
        # A clock that expires at its k-th ask lets exactly k - 1 PIBT steps
        # run; one that expires after the last step changes nothing.
        steps = [0]

        def counted(*args):
            steps[0] += 1
            return _pibt_step(*args)

        monkeypatch.setattr(daccbs.backup, "_pibt_step", counted)
        inst = random_instance(random.Random(0), 6, 6, 8)
        expected = rollout_all(BACKUP, inst)
        total, steps[0] = steps[0], 0
        assert total > 1
        agents = tuple(range(inst.n_agents))
        for ask in range(1, total + 1):
            with pytest.raises(BackupError):
                BACKUP.rollout(inst, agents, inst.starts, clock=ExpiresAt(ask))
            assert steps[0] == ask - 1
            steps[0] = 0
        clock = ExpiresAt(total + 1)
        assert BACKUP.rollout(inst, agents, inst.starts, clock=clock) == expected
        assert (clock.asks, steps[0]) == (total, total)


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
        # at the centre of a star whose vertices are all at distance 1, so it
        # sorts its candidates, and the distance sequence records the order
        # in which they are sorted, which is the shuffled order, after the
        # one read at the agent's own vertex that finds it off its goal.  A
        # candidate list always holds the agent's own vertex, so lengths
        # start at 1.
        class Recorder(list):
            def __getitem__(self, v):
                self.order.append(v)
                return 1

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
                assert dists.order == [0] + expected, (length, seed)
                assert rng.getstate() == reference.getstate(), (length, seed)

    def test_goal_holder_draws_match_random_shuffle(self):
        # An agent at the centre of a star, which is its goal, keeps it
        # without sorting, but draws exactly what shuffling its candidates
        # would draw.
        for length in range(1, 13):
            star = Graph((tuple(range(length)),) + tuple((0, v) for v in range(1, length)))
            dists = [0] + [1] * (length - 1)
            for seed in range(2000):
                rng = random.Random(seed)
                assert _pibt_step(star, (0,), (0,), [dists], {}, rng) == (0,)
                reference = random.Random(seed)
                reference.shuffle(list(range(length)))
                assert rng.getstate() == reference.getstate(), (length, seed)


def pibt_step_reference(graph, config, order, dists, forced, rng):
    """_pibt_step without its draw-only path for goal holders: every member
    planned shuffles and sorts its candidates.  It shuffles with
    rng.shuffle, whose draws _pibt_step's inlined shuffle makes (pinned by
    TestPibtStep)."""
    n = len(config)
    occupant_now = dict(zip(config, range(n)))
    nxt = [None] * n
    occupied_next = {}
    for member, target in forced.items():
        if target not in graph.neighbors(config[member]):
            return None
        if target in occupied_next:
            return None
        nxt[member] = target
        occupied_next[target] = member

    def candidates(i):
        cands = list(graph.moves[config[i]])
        rng.shuffle(cands)
        cands.sort(key=dists[i].__getitem__)
        return iter(cands)

    def pibt(root):
        stack = [(root, candidates(root))]
        while stack:
            i, cands = stack[-1]
            for w in cands:
                if w in occupied_next:
                    continue
                j = occupant_now.get(w)
                if j is not None and j != i and nxt[j] == config[i]:
                    continue  # swap
                nxt[i] = w
                occupied_next[w] = i
                if j is not None and j != i and nxt[j] is None:
                    stack.append((j, candidates(j)))
                    break
                return
            else:
                nxt[i] = config[i]
                occupied_next[config[i]] = i
                stack.pop()

    for member in order:
        if nxt[member] is None:
            pibt(member)
    result = tuple(nxt)
    for member, target in forced.items():
        if result[member] != target:
            return None
    if len(set(result)) != n:
        return None
    for i in range(n):
        j = occupant_now.get(result[i])
        if j is not None and j != i and result[j] == config[i] and result[i] != config[i]:
            return None  # swap
    return result


def pibt_case(rng):
    """(graph, config, order, dists, forced) of one random step: a crowded
    grid where about half the members hold their goals, in random priority
    order, with no pins, random pins, or a pin onto a goal holder's goal."""
    height, width = rng.randint(2, 6), rng.randint(2, 6)
    inst = random_instance(rng, height, width, rng.randint(2, min(10, height * width // 3 + 1)),
                           rng.choice((0.0, 0.2)))
    graph, n = inst.graph, inst.n_agents
    holders = [a for a in range(n) if rng.random() < 0.5]
    free = sorted(set(range(graph.vertex_count)) - {inst.goals[a] for a in holders})
    placed = iter(rng.sample(free, n - len(holders)))
    config = tuple(inst.goals[a] if a in holders else next(placed) for a in range(n))
    order = tuple(rng.sample(range(n), n))
    dists = [gamma.values for gamma in inst.gammas]
    forced = {}
    pins = rng.choice(("none", "random", "onto-goal"))
    if pins == "random":
        for member in rng.sample(range(n), rng.randint(1, min(n, 3))):
            forced[member] = rng.choice(graph.moves[config[member]])
    elif pins == "onto-goal":
        for holder in holders:
            pushers = [a for a in range(n) if a != holder
                       and config[holder] in graph.neighbors(config[a])]
            if pushers:
                forced[rng.choice(pushers)] = config[holder]
                break
    return graph, config, order, dists, forced


def probe(monkeypatch, inst, start, seed, cost_limit, pibt_step=None):
    """The rollout's paths (or its BackupError), the state of the rng it
    drew from, and the number of configurations it created.  With a
    `pibt_step`, the rollout takes its successors from it."""
    rngs = []

    def recorded(seed):
        rngs.append(random.Random(seed))
        return rngs[-1]

    with monkeypatch.context() as m:
        m.setattr(daccbs.backup, "random", types.SimpleNamespace(Random=recorded))
        if pibt_step is not None:
            m.setattr(daccbs.backup, "_pibt_step", pibt_step)
        created = count_configurations(m)
        agents = tuple(range(inst.n_agents))
        try:
            result = LacamBackup(seed).rollout(inst, agents, start, cost_limit=cost_limit)
        except BackupError as exc:
            result = exc
    return result, rngs[0].getstate(), created[0]


class TestPibtStepMatchesReference:
    def test_random_steps(self):
        seen = {"none": 0, "pinned-goal": 0, "pushed-holder": 0, "chain": 0, "rejected": 0}
        for seed in range(2500):
            graph, config, order, dists, forced = pibt_case(random.Random(seed))
            rng, reference_rng = random.Random(seed), random.Random(seed)
            expected = pibt_step_reference(graph, config, order, dists, forced, reference_rng)
            assert _pibt_step(graph, config, order, dists, forced, rng) == expected, seed
            assert rng.getstate() == reference_rng.getstate(), seed
            # What the case exercised, read from the result.
            holders = [i for i, v in enumerate(config) if dists[i][v] == 0 and i not in forced]
            pinned = set(forced.values())
            seen["none"] += not forced
            seen["pinned-goal"] += any(config[h] in pinned for h in holders)
            if expected is None:
                seen["rejected"] += 1
                continue
            # An unpinned holder whose goal no pin claims keeps it unless a
            # member planned before it took it, pushing it.
            seen["pushed-holder"] += any(
                expected[h] != config[h] and config[h] not in pinned for h in holders
            )
            # Three members in a line, each moving into the vertex the next
            # one leaves: a push chain, or a member that follows one.
            follows = {i: config.index(v) for i, v in enumerate(expected)
                       if v != config[i] and v in config}
            seen["chain"] += any(j in follows for j in follows.values())
        assert all(count >= 50 for count in seen.values()), seen

    @pytest.mark.parametrize("height, width, agents, block_prob", [
        (32, 32, 50, 0.1),  # the starved benchmark workload's size
        (16, 16, 30, 0.0),  # the contested one's
    ])
    def test_rollouts(self, monkeypatch, height, width, agents, block_prob):
        # Whole rollouts, unlimited and with cost limits around their cost:
        # same paths or the same BackupError, and the same rng state.
        def key(result):
            return (type(result), str(result)) if isinstance(result, BackupError) else result

        for seed in range(2):
            inst = random_instance(random.Random(seed), height, width, agents, block_prob)
            start = inst.starts
            for _ in range(2):
                full, _, _ = probe(monkeypatch, inst, start, seed, None)
                cost = soc(joint(full), inst.goals)
                for limit in (None, cost - 2, cost - 1, cost, cost + 1, cost + 2):
                    result, state, _ = probe(monkeypatch, inst, start, seed, limit)
                    expected, reference_state, _ = probe(
                        monkeypatch, inst, start, seed, limit, pibt_step_reference
                    )
                    assert key(result) == key(expected), (seed, start, limit)
                    assert state == reference_state, (seed, start, limit)
                # Half-way along, where many agents hold their goals.
                start = positions_at(joint(full), joint(full).makespan // 2)
