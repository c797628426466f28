"""Map/scenario parsing, distance fields, instance invariants."""

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daccbs import (
    INF,
    Graph,
    InstanceError,
    MapFormatError,
    MapfInstance,
    goal_distance_field,
    parse_map,
    parse_scenario,
)
from daccbs.grid import is_symmetric

from conftest import chain_graph, make_grid


def bfs(adjacency, source):
    """Test-local BFS over the given out-lists; unreachable vertices get INF."""
    dist = [INF] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if dist[w] == INF:
                dist[w] = dist[v] + 1
                queue.append(w)
    return tuple(dist)


def reversed_edges(graph):
    incoming = [[] for _ in range(graph.vertex_count)]
    for u in range(graph.vertex_count):
        for w in graph.neighbors(u):
            incoming[w].append(u)
    return incoming


def symmetric_by_sets(graph):
    edges = {(u, w) for u in range(graph.vertex_count) for w in graph.neighbors(u)}
    return all((w, u) in edges for u, w in edges)


def random_directed_graph(rng, n, p_edge, p_back):
    """Reflexive graph on n vertices: each pair gets an edge with p_edge, and
    the reverse edge with p_back, so some edges are one-way and some vertices
    cannot reach others."""
    out = [{v} for v in range(n)]
    for u in range(n):
        for w in range(u + 1, n):
            if rng.random() < p_edge:
                a, b = (u, w) if rng.random() < 0.5 else (w, u)
                out[a].add(b)
                if rng.random() < p_back:
                    out[b].add(a)
    return Graph(tuple(tuple(sorted(nbrs)) for nbrs in out))


RANDOM_GRAPHS = [
    random_directed_graph(random.Random(seed), n, p_edge, p_back)
    for seed, (n, p_edge, p_back) in enumerate(
        itertools.product((1, 2, 5, 12, 30), (0.1, 0.3), (0.0, 0.5, 1.0))
    )
]


def map_text(rows, height=None, width=None):
    height = len(rows) if height is None else height
    width = len(rows[0]) if width is None else width
    return f"type octile\nheight {height}\nwidth {width}\nmap\n" + "\n".join(rows)


class TestParseMap:
    def test_two_by_two_with_block(self):
        g = parse_map(map_text([".@", ".."]))
        assert g.vertex_count == 3
        # vertex 0 is (0,0); neighbors are itself and (1,0) == vertex 1
        assert g.coords[0] == (0, 0)
        assert set(g.neighbors(0)) == {0, 1}

    def test_single_cell(self):
        g = parse_map(map_text(["."]))
        assert g.vertex_count == 1
        assert g.neighbors(0) == (0,)

    def test_fully_blocked(self):
        g = parse_map(map_text(["@@"]))
        assert g.vertex_count == 0

    def test_row_major_ids_stable(self):
        text = map_text(["..@", ".@.", "..."])
        assert parse_map(text).adjacency == parse_map(text).adjacency

    def test_symmetric(self):
        assert is_symmetric(parse_map(map_text(["...", ".@.", "..."])))

    def test_bad_header(self):
        with pytest.raises(MapFormatError):
            parse_map("height 2\nwidth 2\nmap\n..\n..")

    def test_row_length_mismatch(self):
        with pytest.raises(MapFormatError, match="line 6"):
            parse_map(map_text(["...", ".."], height=2, width=3))

    def test_unknown_cell(self):
        with pytest.raises(MapFormatError, match="line 5"):
            parse_map(map_text([".x"], height=1, width=2))

    def test_alternate_cell_classes(self):
        g = parse_map(map_text(["GS", "TW"]))
        assert g.vertex_count == 2


class TestSymmetry:
    @pytest.mark.parametrize("index", range(len(RANDOM_GRAPHS)))
    def test_random_directed_matches_set_check(self, index):
        g = RANDOM_GRAPHS[index]
        assert is_symmetric(g) == symmetric_by_sets(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_parsed_grids_match_set_check(self, seed):
        rng = random.Random(seed)
        h, w = rng.randint(1, 9), rng.randint(1, 9)
        rows = ["".join("@" if rng.random() < 0.25 else "." for _ in range(w)) for _ in range(h)]
        g = parse_map(map_text(rows))
        assert symmetric_by_sets(g)
        assert is_symmetric(g)

    def test_one_way_edge(self):
        g = Graph(((0, 1), (1,)))
        assert not is_symmetric(g)
        assert g.reverse == ((0,), (0, 1))

    def test_symmetric_reverse_is_adjacency(self):
        g = chain_graph(4)
        assert g.reverse is g.adjacency

    def test_unsorted_symmetric_adjacency(self):
        g = Graph(((1, 0), (1, 0)))
        assert is_symmetric(g)


class TestParseScenario:
    MAP = map_text([".@", ".."])

    def scen(self, rows):
        body = "\n".join(
            "\t".join(str(f) for f in ("0", "m.map", 2, 2, *row, "1.0")) for row in rows
        )
        return "version 1\n" + body

    def test_zero_agents(self):
        g = parse_map(self.MAP)
        inst = parse_scenario(self.scen([(0, 0, 0, 1)]), g, 0)
        assert inst.n_agents == 0

    def test_xy_to_col_row(self):
        g = parse_map(self.MAP)
        inst = parse_scenario(self.scen([(0, 0, 0, 1)]), g, 1)
        # start (x=0,y=0) -> cell (0,0) -> vertex 0; goal (x=0,y=1) -> (1,0) -> vertex 1
        assert inst.starts == (0,)
        assert inst.goals == (1,)

    def test_duplicate_goal_rejected(self):
        g = parse_map(self.MAP)
        with pytest.raises(MapFormatError):
            parse_scenario(self.scen([(0, 0, 0, 1), (1, 1, 0, 1)]), g, 2)

    def test_version_mismatch(self):
        with pytest.raises(MapFormatError):
            parse_scenario("version 2\n", parse_map(self.MAP), 0)

    def test_blocked_coordinate(self):
        g = parse_map(self.MAP)
        with pytest.raises(MapFormatError, match="row 0"):
            parse_scenario(self.scen([(1, 0, 0, 1)]), g, 1)

    def test_dimension_mismatch(self):
        g = parse_map(self.MAP)
        bad = "version 1\n0\tm.map\t3\t3\t0\t0\t0\t1\t1.0"
        with pytest.raises(MapFormatError):
            parse_scenario(bad, g, 1)


class TestDistanceFields:
    def test_chain_gamma(self):
        g = chain_graph(5)
        gamma = goal_distance_field(g, 4)
        assert gamma.values == (4, 3, 2, 1, 0)

    def test_anchor_zero(self):
        g = chain_graph(5)
        assert goal_distance_field(g, 2)[2] == 0

    def test_unreachable_is_inf(self):
        g = Graph(((0,), (1,)))  # two isolated vertices
        assert goal_distance_field(g, 0)[1] == INF

    def test_grid_symmetry_gamma_equals_d(self):
        g = make_grid(4, 4, {(1, 1), (2, 2)})
        for v in range(g.vertex_count):
            assert goal_distance_field(g, v).values == bfs(g.adjacency, v)

    @pytest.mark.parametrize("index", range(len(RANDOM_GRAPHS)))
    def test_random_directed_matches_reversed_bfs(self, index):
        g = RANDOM_GRAPHS[index]
        incoming = reversed_edges(g)
        for goal in range(g.vertex_count):
            assert goal_distance_field(g, goal).values == bfs(incoming, goal)

    def test_random_graphs_cover_one_way_and_unreachable(self):
        # The graphs above must exercise what a forward BFS would get wrong.
        assert any(not symmetric_by_sets(g) for g in RANDOM_GRAPHS)
        assert any(
            INF in goal_distance_field(g, v).values
            for g in RANDOM_GRAPHS
            for v in range(g.vertex_count)
        )
        assert any(
            goal_distance_field(g, v).values != bfs(g.adjacency, v)
            for g in RANDOM_GRAPHS
            for v in range(g.vertex_count)
        )

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_edge_consistency(self, h, w, seed):
        import random

        rng = random.Random(seed)
        blocked = {(r, c) for r in range(h) for c in range(w) if rng.random() < 0.2}
        g = make_grid(h, w, blocked)
        if g.vertex_count == 0:
            return
        gamma = goal_distance_field(g, 0)
        for u in range(g.vertex_count):
            for v in g.neighbors(u):
                if gamma[u] < INF and gamma[v] < INF:
                    assert abs(gamma[u] - gamma[v]) <= 1


class TestInstance:
    def test_duplicate_starts_rejected(self):
        g = chain_graph(5)
        with pytest.raises(InstanceError):
            MapfInstance(g, (0, 0), (3, 4))

    def test_unreachable_goal_rejected(self):
        g = Graph(((0,), (1,)))
        with pytest.raises(InstanceError):
            MapfInstance(g, (0,), (1,))

    def test_length_mismatch(self):
        g = chain_graph(5)
        with pytest.raises(InstanceError):
            MapfInstance(g, (0, 1), (4,))

    def test_gammas_precomputed(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        assert inst.gammas[0][0] == 4
