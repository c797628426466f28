"""Slackness, reachable regions, partitioning, refactor trigger."""

import random
from collections import deque

import pytest

from daccbs import (
    INF,
    BudgetInvariantError,
    Graph,
    MapfInstance,
    goal_distance_field,
    partition,
    reachable_region,
    should_refactor,
    slackness,
)
from daccbs.factorization import _goal_witnesses, _region_levels

from conftest import CountingAdjacency, chain_graph, make_grid, random_instance


def full_map_region(graph, here, slack, gamma):
    """Reference region: a 0-1 BFS over the whole map, then a filter of
    every vertex by its excess cost."""
    dist = [INF] * graph.vertex_count
    dist[here] = 0
    queue = deque([here])
    while queue:
        u = queue.popleft()
        step = 0 if u == gamma.anchor else 1
        for w in graph.neighbors(u):
            if w != u and dist[u] + step < dist[w]:
                dist[w] = dist[u] + step
                if step == 0:
                    queue.appendleft(w)
                else:
                    queue.append(w)
    return frozenset(
        v
        for v in range(graph.vertex_count)
        if dist[v] < INF and gamma[v] < INF and dist[v] + gamma[v] - gamma[here] <= slack
    )


def overlap_components(regions):
    """Reference partition: connected components of pairwise region overlap."""
    unseen = set(regions)
    groups = []
    while unseen:
        stack = [min(unseen)]
        unseen.discard(stack[0])
        members = []
        while stack:
            a = stack.pop()
            members.append(a)
            for b in sorted(unseen):
                if not regions[a].isdisjoint(regions[b]):
                    unseen.discard(b)
                    stack.append(b)
        groups.append(tuple(sorted(members)))
    return sorted(groups)


class TestSlackness:
    def test_tight_budget(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        assert slackness((0,), 4, (0,), inst.gammas) == 0

    def test_single_agent_slack(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        assert slackness((0,), 7, (0,), inst.gammas) == 3

    def test_all_at_goals(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0, 4), (0, 4))
        assert slackness((0, 1), 0, (0, 4), inst.gammas) == 0

    def test_corrupted_budget_raises(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        with pytest.raises(BudgetInvariantError):
            slackness((0,), 3, (0,), inst.gammas)


class TestReachableRegion:
    def test_chain_slack_zero_covers_chain(self):
        g = chain_graph(5)
        gamma = goal_distance_field(g, 4)
        region = reachable_region(g, 0, (0,), 0, gamma)
        assert region == frozenset(range(5))

    def test_open_grid_row_slack_zero(self):
        g = make_grid(5, 5)
        gamma = goal_distance_field(g, 4)  # goal (0,4)
        region = reachable_region(g, 0, (0,), 0, gamma)  # agent at (0,0)
        assert region == frozenset(range(5))  # exactly row 0

    def test_open_grid_slack_two(self):
        g = make_grid(5, 5)
        gamma = goal_distance_field(g, 4)
        region = reachable_region(g, 0, (0,), 2, gamma)
        assert region == frozenset(range(10))  # rows 0 and 1

    def test_contains_current_vertex(self):
        g = make_grid(3, 3)
        gamma = goal_distance_field(g, 8)
        region = reachable_region(g, 0, (0,), 0, gamma)
        assert 0 in region
        assert 8 in region

    def test_negative_slack_rejected(self):
        g = chain_graph(3)
        gamma = goal_distance_field(g, 2)
        with pytest.raises(ValueError):
            reachable_region(g, 0, (0,), -1, gamma)

    def test_goal_unreachable_gives_empty_region(self):
        g = make_grid(3, 3, {(0, 1), (1, 1), (2, 1)})  # two disconnected columns
        gamma = goal_distance_field(g, 0)
        assert reachable_region(g, 0, (5,), 10, gamma) == frozenset()

    @pytest.mark.parametrize("block_prob", [0.0, 0.1, 0.25])
    def test_matches_full_map_reference(self, block_prob):
        rng = random.Random(int(block_prob * 100))
        for _ in range(12):
            size = rng.randint(8, 32)
            inst = random_instance(rng, size, size, 3, block_prob)
            g = inst.graph
            for a in range(3):
                gamma = inst.gammas[a]
                # start, own goal (free goal step), and any vertex
                for here in (inst.starts[a], inst.goals[a], rng.randrange(g.vertex_count)):
                    for slack in (0, 1, 2, rng.randint(3, 60)):
                        state = (here,)
                        assert reachable_region(g, 0, state, slack, gamma) == full_map_region(
                            g, here, slack, gamma
                        ), (size, here, slack)
                        # the levels partition reads hold each region vertex once
                        levels = _region_levels(g.adjacency, here, gamma, slack)
                        admitted = [v for level in levels for v in level]
                        assert len(admitted) == len(set(admitted)), (size, here, slack)


def partition_of(graph, state, goals, slack, agents=None):
    """partition() with every agent's goal field built from `goals`; agent ids
    index `state` and `goals`, and default to all of them."""
    gammas = [goal_distance_field(graph, g) for g in goals]
    agents = tuple(range(len(state))) if agents is None else agents
    return partition(graph, agents, state, slack, gammas)


def reference_partition(graph, state, goals, slack):
    gammas = [goal_distance_field(graph, g) for g in goals]
    return overlap_components(
        {a: full_map_region(graph, state[a], slack, gammas[a]) for a in range(len(state))}
    )


def random_digraph(rng, n):
    """Reflexive digraph with one-way random edges: no symmetry assumed."""
    adjacency = []
    for v in range(n):
        out = {v} | {rng.randrange(n) for _ in range(rng.randint(0, 3))}
        adjacency.append(tuple(sorted(out)))
    return Graph(tuple(adjacency))


class TestPartition:
    def test_disjoint_regions_split(self):
        # two separate chains, 0-1-2 and 3-4-5
        g = Graph(((0, 1), (0, 1, 2), (1, 2), (3, 4), (3, 4, 5), (4, 5)))
        assert partition_of(g, (0, 3), (2, 5), 10) == [(0,), (1,)]

    def test_shared_vertex_unites(self):
        g = chain_graph(5)  # regions {0, 1, 2} and {2, 3, 4} meet at 2
        assert partition_of(g, (0, 2), (2, 4), 0) == [(0, 1)]

    def test_grid_rows_split(self):
        g = make_grid(5, 5)
        inst = MapfInstance(g, (0, 24), (4, 20))  # row 0 and row 4 traversals
        assert partition(g, (0, 1), inst.starts, 0, inst.gammas) == [(0,), (1,)]

    def test_transitive_union(self):
        # on a chain at slack 0 a region is the interval from vertex to goal:
        # [0, 2], [2, 4], [4, 6] chain together; [8, 9] stays apart
        g = chain_graph(10)
        assert partition_of(g, (0, 2, 4, 9), (2, 4, 6, 8), 0) == [(0, 1, 2), (3,)]

    def test_deterministic_ordering(self):
        g = chain_graph(12)
        state, goals = (8, 0, 5), (9, 1, 6)  # regions {8, 9}, {0, 1}, {5, 6}
        for agents in ((2, 0, 1), (1, 2, 0), (0, 1, 2)):
            assert partition_of(g, state, goals, 0, agents) == [(0,), (1,), (2,)]
        # agents 2 and 0 united by the wider slack, listed in sorted order
        assert partition_of(g, state, goals, 2, (2, 1, 0)) == [(0, 2), (1,)]

    def test_empty(self):
        assert partition(chain_graph(3), (), (), 0, ()) == []

    def test_single_agent(self):
        g = chain_graph(5)
        assert partition_of(g, (0, 2), (4, 3), 3, (1,)) == [(1,)]
        # a lone agent whose goal it cannot reach is still its own group
        g = make_grid(3, 3, {(0, 1), (1, 1), (2, 1)})
        assert partition_of(g, (5,), (0,), 10) == [(0,)]

    def test_chain_joined_by_last_agent(self):
        # agents 0 ([0, 1]) and 2 ([3, 4]) overlap only through agent 4
        # ([1, 3]), the last one searched; agent 1 takes no part
        g = chain_graph(12)
        state, goals = (0, 6, 3, 10, 1), (1, 7, 4, 11, 3)
        agents = (0, 2, 3, 4)
        assert partition_of(g, state, goals, 0, agents) == [(0, 2, 4), (3,)]

    def test_all_disjoint(self):
        # every agent parked on its own goal: at slack 0 the free step from
        # the goal admits nothing, so each region is the goal alone
        g = chain_graph(10)
        parked = tuple(range(10))
        assert partition_of(g, parked, parked, 0) == [(a,) for a in range(10)]
        assert reference_partition(g, parked, parked, 0) == [(a,) for a in range(10)]

    def test_unreachable_goal_is_own_group(self):
        # two disconnected columns; agent 0 stands in the right column with
        # its goal in the left one, so its region is empty even though agent
        # 1's region covers its vertex
        g = make_grid(3, 3, {(0, 1), (1, 1), (2, 1)})
        state, goals = (5, 1, 2), (0, 3, 4)
        assert partition_of(g, state, goals, 10) == [(0,), (1,), (2,)]
        assert reference_partition(g, state, goals, 10) == [(0,), (1,), (2,)]

    def test_matches_overlap_components(self):
        # random grids at three blocking rates, and one-way random digraphs;
        # some agents parked on their goal, some unable to reach it.  Every
        # join the goal-witness phase makes names a goal in both agents'
        # regions.
        rng = random.Random(7)
        unreachable = joins = 0
        for trial in range(180):
            if trial % 4 == 3:
                g = random_digraph(rng, rng.randint(4, 80))
            else:
                size = rng.randint(4, 20)
                g = random_instance(rng, size, size, 1, (0.0, 0.1, 0.25)[trial % 4]).graph
            n = rng.randint(2, min(12, g.vertex_count))
            state = tuple(rng.sample(range(g.vertex_count), n))
            goals = list(rng.sample(range(g.vertex_count), n))
            for a in rng.sample(range(n), rng.randint(0, n)):
                if state[a] not in goals:
                    goals[a] = state[a]  # parked on its own goal
            gammas = [goal_distance_field(g, goal) for goal in goals]
            unreachable += sum(gammas[a][state[a]] >= INF for a in range(n))
            slack = rng.choice((0, 1, 2, rng.randint(0, 60)))
            agents = tuple(rng.sample(range(n), n))
            regions = {a: full_map_region(g, state[a], slack, gammas[a]) for a in range(n)}
            assert partition(g, agents, state, slack, gammas) == overlap_components(
                regions
            ), (trial, state, goals, slack)
            for i, j, goal in _goal_witnesses(agents, state, slack, gammas):
                joins += 1
                assert goal in regions[agents[i]] & regions[agents[j]], (trial, i, j, goal)
        assert unreachable > 0 and joins > 0

    def test_stops_once_one_group_is_left(self):
        # 48x48 grids: the regions meet long before the searches end, so
        # partition reads far fewer adjacency rows than full searches (at
        # least one row per region vertex) would.  With 200 agents at slack
        # 10 the goal witnesses alone prove one group; with 100 at slack 0
        # they leave at least two components, which the lock-step region
        # searches merge before they finish.
        for n, slack, searched in ((200, 10, False), (100, 0, True)):
            inst = random_instance(random.Random(0), 48, 48, n)
            agents = tuple(range(n))
            joins = list(_goal_witnesses(agents, inst.starts, slack, inst.gammas))
            assert (len(joins) < n - 1) == searched, (n, len(joins))
            covered = sum(
                len(reachable_region(inst.graph, a, inst.starts, slack, inst.gammas[a]))
                for a in agents
            )
            adjacency = CountingAdjacency(inst.graph.adjacency)
            assert partition(Graph(adjacency), agents, inst.starts, slack, inst.gammas) == [agents]
            assert (adjacency.reads > 0) == searched, (n, adjacency.reads)
            assert adjacency.reads < covered / 4, (n, adjacency.reads, covered)

    def test_witnesses_prove_one_group_without_region_search(self, monkeypatch):
        # the starved workload's shape: 32x32, 10% blocked, 50 agents at
        # their starts, slack 36
        def no_search(*args):
            raise AssertionError("region search started")

        monkeypatch.setattr("daccbs.factorization._region_levels", no_search)
        inst = random_instance(random.Random(0), 32, 32, 50, 0.1)
        agents = tuple(range(50))
        assert partition(inst.graph, agents, inst.starts, 36, inst.gammas) == [agents]

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            partition_of(chain_graph(3), (0, 1), (2, 1), -1)


class TestShouldRefactor:
    def test_no_drop(self):
        assert not should_refactor(10, 10, 1)

    def test_boundary_equality(self):
        assert should_refactor(10, 8, 2)

    def test_below_threshold(self):
        assert not should_refactor(10, 9, 2)
