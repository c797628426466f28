"""Brute-force oracle sanity: known values, limits, cap behavior."""

import random

import pytest

from daccbs import INF, MapfInstance, OracleLimitError, exhaustive_exclusion_check, optimal_soc
from daccbs.oracle import default_makespan_cap

from conftest import chain_graph, cross_instance, make_grid

# Both oracle queries, each on vertex 0 for agent 0 where one is needed.
QUERIES = [
    pytest.param(optimal_soc, id="optimal_soc"),
    pytest.param(lambda inst: exhaustive_exclusion_check(inst, 0, 0, 0), id="exclusion"),
]


class TestOptimalSoc:
    def test_single_chain_agent(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        assert optimal_soc(inst) == 4

    def test_cross_instance(self):
        assert optimal_soc(cross_instance()) == 5

    def test_disjoint_chains_sum(self):
        g = make_grid(2, 5, {(0, 4)})
        inst = MapfInstance(g, (0, 4), (3, 8))
        assert optimal_soc(inst) == 7

    def test_all_at_goals(self):
        g = chain_graph(3)
        inst = MapfInstance(g, (0, 2), (0, 2))
        assert optimal_soc(inst) == 0

    @pytest.mark.parametrize("query", QUERIES)
    def test_agent_limit(self, query):
        g = make_grid(4, 4)
        inst = MapfInstance(g, (0, 1, 2, 3), (12, 13, 14, 15))
        with pytest.raises(OracleLimitError):
            query(inst)

    @pytest.mark.parametrize("query", QUERIES)
    def test_vertex_limit(self, query):
        g = make_grid(5, 5)
        inst = MapfInstance(g, (0,), (24,))
        with pytest.raises(OracleLimitError):
            query(inst)

    def test_cap_monotonicity(self):
        inst = cross_instance()
        cap = default_makespan_cap(inst)
        tight = optimal_soc(inst, makespan_cap=cap)
        assert optimal_soc(inst, makespan_cap=cap + 5) == tight
        assert optimal_soc(inst, makespan_cap=1) >= tight

    def test_infeasible_within_cap(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        assert optimal_soc(inst, makespan_cap=2) == INF


class TestExclusionCheck:
    def test_shortest_path_vertex_not_excluded(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        assert not exhaustive_exclusion_check(inst, 4, 0, 2)

    def test_over_budget_excluded(self):
        g = chain_graph(4)
        inst = MapfInstance(g, (0,), (3,))
        # visiting v3 costs at least 3; budget 2 excludes it
        assert exhaustive_exclusion_check(inst, 2, 0, 3)

    def test_detour_vertex_d_exceeds_slack(self):
        g = make_grid(2, 3)
        inst = MapfInstance(g, (0,), (2,))  # along row 0, gamma=2
        # vertex 4 = (1,1): D = d(0,4) + gamma(4) - gamma(0) = 2 + 2 - 2 = 2
        assert not exhaustive_exclusion_check(inst, 4, 0, 4)  # slack 2 admits it
        assert exhaustive_exclusion_check(inst, 3, 0, 4)  # slack 1 excludes it

    def test_infinite_budget_never_excludes(self):
        g = chain_graph(4)
        inst = MapfInstance(g, (0,), (3,))
        assert not exhaustive_exclusion_check(inst, INF, 0, 1)

    def test_agrees_with_optimal_soc(self):
        # Every plan costs at least the optimum, so a budget one below it
        # excludes every (agent, vertex); an optimal plan visits each
        # agent's start, so the optimum itself excludes none of them.
        rng = random.Random(12)
        checked = 0
        while checked < 20:
            h, w = rng.choice([(1, 5), (2, 3), (2, 4), (3, 3)])
            g = make_grid(h, w)
            cells = list(range(g.vertex_count))
            inst = MapfInstance(g, tuple(rng.sample(cells, 2)), tuple(rng.sample(cells, 2)))
            opt = optimal_soc(inst)
            if opt >= INF:
                continue
            checked += 1
            for a in range(inst.n_agents):
                for v in cells:
                    assert exhaustive_exclusion_check(inst, opt - 1, a, v), (inst, a, v)
                assert not exhaustive_exclusion_check(inst, opt, a, inst.starts[a]), (inst, a)
