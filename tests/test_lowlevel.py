"""Constrained single-agent planning: optimality, constraint satisfaction,
suffix-greediness."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daccbs import ConstraintError, ConstraintSet, Graph, goal_distance_field, plan_constrained
from daccbs.grid import INF, sat_add
from daccbs.lowlevel import Reach, greedy_path

from conftest import CountingAdjacency, chain_graph, make_grid, prefix_cost, satisfies


def brute_force_best(graph, start, constraints, h_max, gamma):
    """Minimum cost over all constrained h_max-step walks (desk-scale only)."""
    goal = gamma.anchor
    best = None
    frontier = [(start,)]
    for _ in range(h_max):
        frontier = [
            walk + (w,) for walk in frontier for w in graph.neighbors(walk[-1])
        ]
    for walk in frontier:
        if not satisfies(0, walk, constraints):
            continue
        cost = sum(1 for t in range(h_max) if walk[t] != goal) + gamma[walk[h_max]]
        if best is None or cost < best:
            best = cost
    return best


def last_constrained_step(constraints, agent):
    """Largest timestep the agent's path is constrained at (0 if none)."""
    times = [t for a, t, _ in constraints.vertex_constraints if a == agent]
    times += [t + 1 for a, t, _ in constraints.edge_constraints if a == agent]
    return max(times, default=0)


def dense_plan_constrained(graph, agent, start, constraints, h_max, gamma):
    """Reference planner: the dense (t_c + 1) x V cost-to-go table that
    plan_constrained replaced, with the same checks and tie-break.  Its
    greedy suffix ends at the goal, so the cost is read at the path's last
    step."""
    forbidden_vtx = {(t, v) for a, t, v in constraints.vertex_constraints if a == agent}
    forbidden_edg = {(t, u, w) for a, t, (u, w) in constraints.edge_constraints if a == agent}
    if (0, start) in forbidden_vtx:
        raise ConstraintError(f"agent {agent}: vertex constraint at the known state (0, {start})")
    t_c = min(last_constrained_step(constraints, agent), h_max)
    for t, _ in forbidden_vtx:
        if t > h_max:
            raise ConstraintError(f"vertex constraint time {t} beyond horizon {h_max}")
    for t, _, _ in forbidden_edg:
        if t > h_max - 1:
            raise ConstraintError(f"edge constraint time {t} beyond horizon {h_max - 1}")
    goal = gamma.anchor
    n = graph.vertex_count
    layers = [[gamma[v] if (t_c, v) not in forbidden_vtx else INF for v in range(n)]]
    for t in range(t_c - 1, -1, -1):
        nxt = layers[-1]
        layer = []
        for v in range(n):
            if (t, v) in forbidden_vtx:
                layer.append(INF)
                continue
            best = min(
                (nxt[w] for w in graph.neighbors(v) if (t, v, w) not in forbidden_edg),
                default=INF,
            )
            layer.append(sat_add(1 if v != goal else 0, best))
        layers.append(layer)
    layers.reverse()
    if layers[0][start] >= INF:
        return None
    prefix = [start]
    v = start
    for t in range(t_c):
        step = 1 if v != goal else 0
        v = min(
            w
            for w in graph.neighbors(v)
            if (t, v, w) not in forbidden_edg
            and sat_add(step, layers[t + 1][w]) == layers[t][v]
        )
        prefix.append(v)
    suffix = reference_greedy_path(graph, prefix[-1], gamma, h_max - t_c)
    path = tuple(prefix[:-1] + suffix)
    return path, prefix_cost(path, len(path) - 1, gamma)


def reference_greedy_path(graph, start, gamma, length):
    """Reference walk: the step-by-step greedy_path loop it replaced, ending
    at the goal."""
    path = [start]
    v = start
    for _ in range(length):
        if gamma[v] == 0:
            break
        v = min(w for w in graph.neighbors(v) if gamma[w] == gamma[v] - 1)
        path.append(v)
    return path


def random_digraph(rng, n):
    """Reflexive digraph on n vertices; most edges are one-way."""
    p = rng.choice((0.15, 0.3, 0.5))
    adjacency = []
    for u in range(n):
        nbrs = {u} | {w for w in range(n) if w != u and rng.random() < p}
        adjacency.append(tuple(sorted(nbrs)))
    return Graph(tuple(adjacency))


def random_constraints(rng, graph, agent, start, goal, h_max):
    """Vertex and edge constraints on the planning agent and on another
    agent, biased toward the goal and t = 0; some are deliberately invalid."""
    n = graph.vertex_count
    cs = ConstraintSet()
    for _ in range(rng.randint(0, 8)):
        a = agent if rng.random() < 0.85 else agent + 1
        t = rng.randint(0, h_max)
        kind = rng.random()
        if kind < 0.55:
            v = goal if rng.random() < 0.25 else rng.randrange(n)
            if a == agent and t == 0 and v == start:
                continue
            cs = cs.with_vertex(a, t, v)
        elif t < h_max:
            u = rng.randrange(n)
            w = rng.choice(graph.neighbors(u)) if rng.random() < 0.9 else rng.randrange(n)
            cs = cs.with_edge(a, t, (u, w))
    roll = rng.random()
    if roll < 0.03:
        cs = cs.with_vertex(agent, 0, start)
    elif roll < 0.06:
        cs = cs.with_vertex(agent, h_max + rng.randint(1, 2), rng.randrange(n))
    elif roll < 0.09:
        cs = cs.with_edge(agent, h_max + rng.randint(0, 1), (start, rng.randrange(n)))
    return cs


def far_constraints(rng, graph, start, gamma, h_max):
    """Vertex and edge constraints on agent 0 at benchmark scale: at the
    goal near the agent's unconstrained arrival time, and at vertices
    farther than t from the start (states the agent cannot reach by t)."""
    n = graph.vertex_count
    hops = goal_distance_field(graph, start)  # grids are symmetric
    arrival = gamma[start]
    cs = ConstraintSet()
    for _ in range(rng.randint(1, 10)):
        roll = rng.random()
        if roll < 0.4:
            t = min(max(arrival + rng.randint(-3, 3), 1), h_max)
            cs = cs.with_vertex(0, t, gamma.anchor)
            continue
        t = rng.randint(1, h_max - 1)
        far = [v for v in range(n) if hops[v] > t]
        u = rng.choice(far) if far and roll < 0.8 else rng.randrange(n)
        if rng.random() < 0.5:
            cs = cs.with_vertex(0, t, u)
        else:
            cs = cs.with_edge(0, t, (u, rng.choice(graph.neighbors(u))))
    return cs


def planner_outcome(planner, *args, **kwargs):
    try:
        return planner(*args, **kwargs)
    except ConstraintError as exc:
        return ("error", str(exc))


def plan_through_one_reach(graph, start, gamma, h_max, sets, steps):
    """Plan agent 0 from start under each constraint set in turn, all through
    one Reach as a search's replans of one agent share it, and check each
    result against the dense planner.  Counts in `steps` how often t_c
    rises and falls from one set to the next."""
    reach = Reach(graph, start)
    last = None
    for cs in sets:
        args = (graph, 0, start, cs, h_max, gamma)
        got = planner_outcome(plan_constrained, *args, reach=reach)
        assert got == planner_outcome(dense_plan_constrained, *args), cs
        t_c = min(last_constrained_step(cs, 0), h_max)
        if last is not None and t_c != last:
            steps["rise" if t_c > last else "fall"] += 1
        last = t_c


class TestSparseMatchesDense:
    """plan_constrained against the dense DP it replaced."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_digraphs(self, seed):
        rng = random.Random(seed)
        others = random.Random(100 + seed)  # keeps rng's draws as they were
        kinds = {"plan": 0, "none": 0, "error": 0}
        steps = {"rise": 0, "fall": 0}
        for _ in range(600):
            graph = random_digraph(rng, rng.randint(1, 14))
            n = graph.vertex_count
            goal = rng.randrange(n)
            gamma = goal_distance_field(graph, goal)
            reach = [v for v in range(n) if gamma[v] < INF]
            start = rng.choice(reach) if rng.random() < 0.85 else rng.randrange(n)
            h_max = rng.randint(1, 8)
            cs = random_constraints(rng, graph, 0, start, goal, h_max)
            args = (graph, 0, start, cs, h_max, gamma)
            got = planner_outcome(plan_constrained, *args)
            assert got == planner_outcome(dense_plan_constrained, *args), (seed, cs)
            # A plan reads only its agent's own constraints, and the other
            # agent's constraints are left out of cs.only(0).
            only = cs.only(0)
            assert {c[0] for c in (*only.vertex_constraints, *only.edge_constraints)} <= {0}
            assert planner_outcome(plan_constrained, graph, 0, start, only, h_max, gamma) == got
            if got is None:
                kinds["none"] += 1
            else:
                kinds["error" if got[0] == "error" else "plan"] += 1
            sets = [random_constraints(others, graph, 0, start, goal, h_max) for _ in range(3)]
            plan_through_one_reach(graph, start, gamma, h_max, [*sets, cs], steps)
        assert kinds["plan"] > 300 and kinds["none"] > 20 and kinds["error"] > 10, kinds
        assert min(steps.values()) > 300, steps

    @pytest.mark.parametrize("seed", range(3))
    def test_grids(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(250):
            h, w = rng.randint(1, 5), rng.randint(1, 5)
            cells = [(r, c) for r in range(h) for c in range(w)]
            blocked = {cell for cell in cells if rng.random() < 0.2}
            if len(blocked) == len(cells):
                continue
            graph = make_grid(h, w, blocked)
            n = graph.vertex_count
            goal, start = rng.randrange(n), rng.randrange(n)
            gamma = goal_distance_field(graph, goal)
            h_max = rng.randint(1, 12)
            cs = random_constraints(rng, graph, 0, start, goal, h_max)
            args = (graph, 0, start, cs, h_max, gamma)
            assert planner_outcome(plan_constrained, *args) == planner_outcome(
                dense_plan_constrained, *args
            ), (seed, cs)

    @pytest.mark.parametrize("seed", range(3))
    def test_benchmark_scale_grids(self, seed):
        # Most states of a 12x12..16x16 grid are out of reach early on, so
        # these cases exercise the reach check the desk-scale ones cannot.
        rng = random.Random(2000 + seed)
        others = random.Random(2100 + seed)  # keeps rng's draws as they were
        raised = 0
        steps = {"rise": 0, "fall": 0}
        for _ in range(40):
            h, w = rng.randint(12, 16), rng.randint(12, 16)
            blocked = {(r, c) for r in range(h) for c in range(w) if rng.random() < 0.1}
            graph = make_grid(h, w, blocked)
            goal = rng.randrange(graph.vertex_count)
            gamma = goal_distance_field(graph, goal)
            start = rng.choice([v for v in range(graph.vertex_count) if gamma[v] < INF])
            h_max = rng.randint(20, 40)
            cs = far_constraints(rng, graph, start, gamma, h_max)
            args = (graph, 0, start, cs, h_max, gamma)
            got = planner_outcome(plan_constrained, *args)
            assert got == planner_outcome(dense_plan_constrained, *args), (seed, cs)
            raised += got is None or got[1] > gamma[start]
            sets = [far_constraints(others, graph, start, gamma, h_max) for _ in range(3)]
            plan_through_one_reach(graph, start, gamma, h_max, [*sets, cs], steps)
        assert raised >= 10, raised
        assert min(steps.values()) > 20, steps

    def test_goal_constraint_reads_a_fraction_of_the_cone(self):
        # 32x32 open grid, corner to corner.  Blocking the goal at the
        # arrival time T raises the cost-to-go of every (v, t) with
        # gamma(v) <= T - t, and a DP that ignored reachability would read at
        # least the in-neighbor row of each such state.  The agent can reach
        # only those on its own shortest paths, one anti-diagonal per t.
        graph = Graph(CountingAdjacency(make_grid(32, 32).adjacency))
        start, goal = 0, graph.vertex_count - 1
        gamma = goal_distance_field(graph, goal)
        arrival = gamma[start]
        cone = sum(
            1 for t in range(1, arrival + 1) for v in range(graph.vertex_count)
            if gamma[v] <= arrival - t
        )
        cs = ConstraintSet().with_vertex(0, arrival, goal)
        graph.adjacency.reads = 0
        got = plan_constrained(graph, 0, start, cs, 128, gamma)
        reads = graph.adjacency.reads
        assert got[1] == arrival + 1
        assert got == dense_plan_constrained(graph, 0, start, cs, 128, gamma)
        assert reads < cone / 4, (reads, cone)


class TestPlanConstrained:
    def test_unconstrained_chain(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        path, cost = plan_constrained(chain5, 0, 0, ConstraintSet(), 6, gamma)
        assert path == (0, 1, 2, 3, 4)
        assert cost == 4

    def test_vertex_constraint_forces_wait(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        cs = ConstraintSet().with_vertex(0, 1, 1)
        path, cost = plan_constrained(chain5, 0, 0, cs, 6, gamma)
        assert cost == 5
        assert path == (0, 0, 1, 2, 3, 4)

    def test_start_at_goal(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        path, cost = plan_constrained(chain5, 0, 4, ConstraintSet(), 3, gamma)
        assert path == (4,)
        assert cost == 0

    def test_t0_vertex_constraint_rejected(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        cs = ConstraintSet().with_vertex(0, 0, 0)
        with pytest.raises(ConstraintError):
            plan_constrained(chain5, 0, 0, cs, 4, gamma)

    def test_reach_from_another_start_rejected(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        with pytest.raises(ValueError):
            plan_constrained(chain5, 0, 0, ConstraintSet(), 4, gamma, reach=Reach(chain5, 1))

    def test_infeasible_returns_none(self):
        g = chain_graph(2)
        gamma = goal_distance_field(g, 1)
        # forbid both cells at t=1: nowhere to be
        cs = ConstraintSet().with_vertex(0, 1, 0).with_vertex(0, 1, 1)
        assert plan_constrained(g, 0, 0, cs, 3, gamma) is None

    def test_result_satisfies_constraints(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        cs = ConstraintSet().with_vertex(0, 2, 2).with_edge(0, 1, (1, 2))
        out = plan_constrained(chain5, 0, 0, cs, 8, gamma)
        assert out is not None
        path, _ = out
        assert satisfies(0, path, cs)

    def test_suffix_greedy(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        cs = ConstraintSet().with_vertex(0, 1, 1)
        traj, _ = plan_constrained(chain5, 0, 0, cs, 8, gamma)
        assert traj[len(traj) - 1] == 4  # the trajectory ends at the goal
        for t in range(1, len(traj) - 1):  # after the largest constraint time
            p = 1 if traj[t] != 4 else 0
            assert p + gamma[traj[t + 1]] == gamma[traj[t]]

    def test_unconstrained_cost_is_gamma(self):
        g = make_grid(3, 4, {(1, 1)})
        for start in range(g.vertex_count):
            gamma = goal_distance_field(g, 0)
            _, cost = plan_constrained(g, 0, start, ConstraintSet(), 12, gamma)
            assert cost == gamma[start]

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_optimal_vs_brute_force(self, seed):
        rng = random.Random(seed)
        g = make_grid(2, rng.randint(2, 4))
        goal = rng.randrange(g.vertex_count)
        start = rng.randrange(g.vertex_count)
        gamma = goal_distance_field(g, goal)
        h_max = rng.randint(2, 5)
        cs = ConstraintSet()
        for _ in range(rng.randint(0, 3)):
            t = rng.randint(1, h_max)
            v = rng.randrange(g.vertex_count)
            if t == 0 and v == start:
                continue
            cs = cs.with_vertex(0, t, v)
        try:
            out = plan_constrained(g, 0, start, cs, h_max, gamma)
        except ConstraintError:
            return
        expected = brute_force_best(g, start, cs, h_max, gamma)
        if out is None:
            assert expected is None or expected >= (1 << 30)
        else:
            path, cost = out
            assert cost == expected
            assert satisfies(0, path, cs)


class TestSatisfies:
    def test_vertex_violation(self):
        cs = ConstraintSet().with_vertex(0, 1, 1)
        assert not satisfies(0, (0, 1), cs)

    def test_edge_direction_matters(self):
        cs = ConstraintSet().with_edge(0, 0, (1, 0))
        assert satisfies(0, (0, 1), cs)
        assert not satisfies(0, (1, 0), cs)

    def test_empty_set(self):
        assert satisfies(0, (0, 1), ConstraintSet())


class TestGreedyPath:
    def test_follows_chain(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        assert greedy_path(chain5, 0, gamma, 6) == [0, 1, 2, 3, 4]

    def test_waits_at_goal(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        # The walk ends at the goal; a read past its end waits there.
        assert greedy_path(chain5, 4, gamma, 2) == [4]

    def test_truncated_before_goal(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        assert greedy_path(chain5, 0, gamma, 2) == [0, 1, 2]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_stepwise_walk(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            h, w = rng.randint(2, 9), rng.randint(2, 9)
            blocked = {(r, c) for r in range(h) for c in range(w) if rng.random() < 0.2}
            if len(blocked) == h * w:
                continue
            graph = make_grid(h, w, blocked)
            goal = rng.randrange(graph.vertex_count)
            gamma = goal_distance_field(graph, goal)
            starts = [v for v in range(graph.vertex_count) if gamma[v] < INF]
            for start in rng.sample(starts, min(4, len(starts))) + [goal]:
                d = gamma[start]
                for length in {0, max(d - 1, 0), d, d + 1, d + rng.randint(2, 6)}:
                    assert greedy_path(graph, start, gamma, length) == reference_greedy_path(
                        graph, start, gamma, length
                    )
