"""Slackness, reachable regions, partitioning, refactor trigger."""

import random
from collections import deque

import pytest

from daccbs import (
    INF,
    BudgetInvariantError,
    MapfInstance,
    goal_distance_field,
    partition,
    reachable_region,
    should_refactor,
    slackness,
)

from conftest import chain_graph, make_grid, random_instance


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


class TestPartition:
    def test_disjoint_regions_split(self):
        assert partition({0: frozenset({1, 2}), 1: frozenset({5, 6})}) == [(0,), (1,)]

    def test_shared_vertex_unites(self):
        assert partition({0: frozenset({1, 2}), 1: frozenset({2, 3})}) == [(0, 1)]

    def test_grid_rows_split(self):
        g = make_grid(5, 5)
        inst = MapfInstance(g, (0, 24), (4, 20))  # row 0 and row 4 traversals
        regions = {
            a: reachable_region(g, a, inst.starts, 0, inst.gammas[a]) for a in (0, 1)
        }
        assert partition(regions) == [(0,), (1,)]

    def test_transitive_union(self):
        regions = {
            0: frozenset({1}),
            1: frozenset({1, 2}),
            2: frozenset({2, 3}),
            3: frozenset({9}),
        }
        assert partition(regions) == [(0, 1, 2), (3,)]

    def test_deterministic_ordering(self):
        regions = {2: frozenset({7}), 0: frozenset({5}), 1: frozenset({6})}
        assert partition(regions) == [(0,), (1,), (2,)]

    def test_empty(self):
        assert partition({}) == []

    def test_chain_joined_by_last_agent(self):
        # 0 and 2 overlap only through 4, which comes last in sorted order
        regions = {0: frozenset({1}), 2: frozenset({3}), 4: frozenset({1, 3}), 3: frozenset({9})}
        assert partition(regions) == overlap_components(regions) == [(0, 2, 4), (3,)]

    def test_all_disjoint(self):
        regions = {a: frozenset({a}) for a in range(10)}
        assert partition(regions) == overlap_components(regions) == [(a,) for a in range(10)]

    def test_matches_overlap_components(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(0, 60)
            universe = rng.randint(1, 400)
            regions = {
                a: frozenset(rng.sample(range(universe), rng.randint(1, min(8, universe))))
                for a in rng.sample(range(100), n)
            }
            assert partition(regions) == overlap_components(regions)


class TestShouldRefactor:
    def test_no_drop(self):
        assert not should_refactor(10, 10, 1)

    def test_boundary_equality(self):
        assert should_refactor(10, 8, 2)

    def test_below_threshold(self):
        assert not should_refactor(10, 9, 2)
