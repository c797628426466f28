"""Constraint-tree search: root generation, expansion, adaptive horizon,
classic full-horizon mode against the brute-force oracle."""

import heapq
import random
import time
from collections import Counter
from itertools import product

import pytest

import daccbs.cbs
from daccbs import (
    InfeasibleInstanceError,
    MapfInstance,
    WallClock,
    WorkClock,
    optimal_soc,
    run_adaptive,
    run_classic_cbs,
    soc,
)
from daccbs.cbs import ConstraintTreeNode, expand, make_root
from daccbs.lowlevel import ConstraintSet, plan_constrained
from daccbs.trajectory import (
    Conflict,
    count_conflicts,
    detect_first_conflict,
    is_conflict_free,
    makespan,
    pad,
    path_cost,
)

from conftest import (
    chain_graph,
    cross_instance,
    cycle_graph,
    make_grid,
    random_instance,
    satisfies,
)


def joint_rows(node, agents):
    """The members' paths padded to the group's own makespan."""
    return pad(node.paths[a] for a in agents)


def disjoint_chains_instance():
    """Two agents on disjoint chains of lengths 4 and 5 (gammas 3 and 4)."""
    g = make_grid(2, 5, {(0, 4)})  # row 0 has 4 cells, row 1 has 5
    # row-major ids: row 0 -> 0..3, row 1 -> 4..8; block (0,4)
    return MapfInstance(g, (0, 4), (3, 8))


class TestMakeRoot:
    def test_all_at_goals(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0, 4), (0, 4))
        assert make_root(inst, inst.starts, 4).cost == 0

    def test_single_chain_agent(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        assert make_root(inst, inst.starts, 6).cost == 4

    def test_disjoint_chains_sum(self):
        inst = disjoint_chains_instance()
        assert make_root(inst, inst.starts, 8).cost == 3 + 4

    def test_unreachable_raises(self):
        g = make_grid(1, 3, {(0, 1)})
        with pytest.raises(InfeasibleInstanceError):
            inst = MapfInstance.__new__(MapfInstance)  # bypass instance validation
            object.__setattr__(inst, "graph", g)
            object.__setattr__(inst, "starts", (0,))
            object.__setattr__(inst, "goals", (1,))
            from daccbs import goal_distance_field

            object.__setattr__(inst, "gammas", (goal_distance_field(g, 1),))
            make_root(inst, (0,), 4)


class TestExpand:
    def test_vertex_conflict_children(self):
        inst = cross_instance()
        root = make_root(inst, inst.starts, 8)
        conflict = Conflict("vertex", (0, 1), 1, 4)
        children = expand(root, conflict, inst, inst.starts, 8, (0, 1))
        assert len(children) == 2
        assert (0, 1, 4) in children[0].constraints.vertex_constraints
        assert (1, 1, 4) in children[1].constraints.vertex_constraints

    def test_edge_conflict_opposite_directions(self):
        g = chain_graph(4)
        inst = MapfInstance(g, (0, 3), (3, 0))
        root = make_root(inst, inst.starts, 8)
        conflict = Conflict("edge", (0, 1), 2, (1, 2))
        children = expand(root, conflict, inst, inst.starts, 8, (0, 1))
        edges = [next(iter(c.constraints.edge_constraints)) for c in children]
        assert (0, 1, (1, 2)) in edges
        assert (1, 1, (2, 1)) in edges

    def test_children_satisfy_constraints(self):
        inst = cross_instance()
        root = make_root(inst, inst.starts, 8)
        joint = joint_rows(root, (0, 1))
        conflict = detect_first_conflict(joint, 2)
        assert conflict is not None
        for child in expand(root, conflict, inst, inst.starts, 8, (0, 1)):
            for a, path in child.paths.items():
                assert satisfies(a, path, child.constraints)
            assert child.cost >= root.cost

    def test_child_scan_starts_where_its_row_changes(self):
        # Agent 0 waits at its goal 2, where agent 1 passes at t = 3.  Kept
        # off 1 and 3 at t = 3 as well, agent 0 must leave at t = 2: before
        # the conflict, and past the end of its parent's path, which is read
        # as waiting at its last vertex.
        inst = MapfInstance(chain_graph(6), (2, 5), (2, 0))
        root = make_root(inst, inst.starts, 8)
        node = ConstraintTreeNode(
            ConstraintSet(frozenset({(0, 3, 1), (0, 3, 3)})), root.paths, root.cost
        )
        conflict = detect_first_conflict(joint_rows(node, (0, 1)), 5)
        assert conflict == Conflict("vertex", (0, 1), 3, 2)
        dodged, waited = expand(node, conflict, inst, inst.starts, 8, (0, 1))
        assert dodged.paths[0] == (2, 2, 1, 0, 1, 2)
        assert dodged.scan_from == 2
        # Agent 1 waits one step; its rows first differ at the conflict.
        assert waited.paths[1] == (5, 4, 3, 3, 2, 1, 0)
        assert waited.scan_from == 3

    def test_corridor_one_child_survives(self):
        # 1-wide corridor: the constrained agent may have no alternative
        g = chain_graph(3)
        inst = MapfInstance(g, (0, 2), (2, 0))
        root = make_root(inst, inst.starts, 2)
        conflict = detect_first_conflict(joint_rows(root, (0, 1)), 1)
        assert conflict is not None
        children = expand(root, conflict, inst, inst.starts, 2, (0, 1))
        # with h_max=2 neither agent can both dodge and still exist... at
        # least one side is pruned
        assert len(children) <= 1 or all(
            satisfies(a, c.paths[a], c.constraints)
            for c in children
            for a in (0, 1)
        )


class TestRunAdaptive:
    def test_conflict_free_fleet_reaches_hmax(self):
        inst = disjoint_chains_instance()
        outcome = run_adaptive(inst, inst.starts, 8, None)
        assert outcome.reason == "horizon"
        assert outcome.best_h == 8
        assert outcome.expansions == 0

    def test_cross_instance_cost(self):
        inst = cross_instance()
        outcome = run_adaptive(inst, inst.starts, 10, None)
        assert outcome.reason == "horizon"
        assert outcome.best_node.cost == 5

    def test_zero_deadline(self):
        inst = cross_instance()
        outcome = run_adaptive(inst, inst.starts, 10, WallClock(0.0))
        assert outcome.best_node is None
        assert outcome.reason == "no-prefix"

    def test_callback_invoked(self):
        inst = cross_instance()
        seen = []
        run_adaptive(inst, inst.starts, 6, None, on_prefix_found=lambda n, h: seen.append(h))
        assert seen
        assert seen[-1] == 6

    def test_empty_group(self):
        inst = cross_instance()
        outcome = run_adaptive(inst, inst.starts, 6, None, agents=())
        assert outcome.best_h == 6

    def test_determinism(self, monkeypatch):
        # Two runs certify the same prefixes in the same order and stop in the
        # same state; the dense instance expands a few hundred nodes, and at
        # h_max 4 some of its paths are cut off short of their goals.
        nodes = []

        def expanded(node, *args):
            children = expand(node, *args)
            nodes.extend(children)
            return children

        monkeypatch.setattr(daccbs.cbs, "expand", expanded)
        dense = random_instance(random.Random(4), 5, 5, 8)
        cut_off = 0
        for inst, h_max in ((cross_instance(), 10), (dense, 12), (dense, 4)):
            nodes.append(make_root(inst, inst.starts, h_max))
            runs = []
            for _ in range(2):
                prefixes = []
                outcome = run_adaptive(
                    inst, inst.starts, h_max, None,
                    on_prefix_found=lambda n, h: prefixes.append((h, n.cost, n.constraints)),
                )
                runs.append((
                    prefixes,
                    outcome.expansions,
                    outcome.dequeues,
                    outcome.reason,
                    outcome.best_h,
                    outcome.best_node.paths,
                ))
            assert runs[0] == runs[1]
            assert runs[0][0]
            # A node's cost sums, over its paths, the running cost before
            # the last vertex plus gamma there.
            for node in nodes:
                assert node.cost == sum(
                    path_cost(p[:-1], inst.goals[a]) + inst.gammas[a][p[-1]]
                    for a, p in node.paths.items()
                )
            cut_off += sum(
                p[-1] != inst.goals[a]
                for node in nodes
                for a, p in node.paths.items()
            )
            nodes.clear()
        assert cut_off


def incremental_run_adaptive(inst, h_max, on_prefix_found, expansion_cap):
    """Reference search that extends the horizon one step at a time, each
    step rescanning the prefix from t=0 (no deadline).  Paths end at their
    goals, so each scan is clamped to the node's makespan."""
    agents = tuple(range(inst.n_agents))
    root = make_root(inst, inst.starts, h_max, agents)
    seq, h_r = 0, 1
    heap = [(root.cost, count_conflicts(joint_rows(root, agents), h_r), seq, root)]
    best_node, best_h = None, 0
    expansions = dequeues = 0
    reason = "exhausted"
    while heap:
        if expansions >= expansion_cap:
            reason = "cap"
            break
        node = heapq.heappop(heap)[3]
        dequeues += 1
        joint = joint_rows(node, agents)
        conflict = detect_first_conflict(joint, min(h_r, makespan(joint)))
        if conflict is None:
            on_prefix_found(node, h_r)
            if h_r > best_h:
                best_node, best_h = node, h_r
            while conflict is None and h_r < h_max:
                h_r += 1
                conflict = detect_first_conflict(joint, min(h_r, makespan(joint)))
            if conflict is None:
                best_node, best_h = node, h_r
                on_prefix_found(node, h_r)
                reason = "horizon"
                break
            if h_r - 1 > best_h:
                best_node, best_h = node, h_r - 1
        for child in expand(node, conflict, inst, inst.starts, h_max, agents):
            seq += 1
            heapq.heappush(
                heap, (child.cost, count_conflicts(joint_rows(child, agents), h_r), seq, child)
            )
        expansions += 1
    if best_node is None:
        reason = "no-prefix"
    return best_node, best_h, reason, expansions, dequeues


class TestHorizonScan:
    def test_matches_incremental_extension(self):
        # One scan to h_max per dequeue finds the first conflict at or after
        # h_r with the same tie order as re-scanning 0..h_r at every
        # extension, so the search makes the same decisions.
        h_max = 24
        reasons = set()
        for seed in range(8):
            inst = random_instance(random.Random(seed), 10, 10, 12)
            for cap in (5, 40, 200):
                seen, expected = [], []
                outcome = run_adaptive(
                    inst, inst.starts, h_max, WorkClock(cap),
                    on_prefix_found=lambda n, h: seen.append((h, n.cost, n.constraints)),
                )
                best_node, best_h, reason, expansions, dequeues = incremental_run_adaptive(
                    inst, h_max, lambda n, h: expected.append((h, n.cost, n.constraints)), cap
                )
                assert seen == expected
                assert (outcome.expansions, outcome.dequeues) == (expansions, dequeues)
                assert (outcome.reason, outcome.best_h) == (reason, best_h)
                assert outcome.best_node.paths == best_node.paths
                reasons.add(reason)
        assert reasons == {"horizon", "cap"}


def eager_run_adaptive(inst, h_max, on_prefix_found, expansion_cap):
    """Reference search that counts every child's conflicts when it is
    pushed, keyed (cost, conflicts, seq); otherwise run_adaptive's loop with
    no deadline."""
    agents = tuple(range(inst.n_agents))
    root = make_root(inst, inst.starts, h_max, agents)
    seq, h_r = 0, 1
    heap = [(root.cost, count_conflicts(joint_rows(root, agents), h_r), seq, root)]
    best_node, best_h = None, 0
    expansions = dequeues = 0
    reason = "exhausted"
    while heap:
        if expansions >= expansion_cap:
            reason = "cap"
            break
        node = heapq.heappop(heap)[3]
        dequeues += 1
        joint = joint_rows(node, agents)
        conflict = detect_first_conflict(joint, min(h_max, makespan(joint)))
        if conflict is None or conflict.time > h_r:
            on_prefix_found(node, h_r)
            if h_r > best_h:
                best_node, best_h = node, h_r
            if conflict is None:
                best_node, best_h = node, h_max
                on_prefix_found(node, h_max)
                reason = "horizon"
                break
            h_r = conflict.time
            if h_r - 1 > best_h:
                best_node, best_h = node, h_r - 1
        for child in expand(node, conflict, inst, inst.starts, h_max, agents):
            seq += 1
            heapq.heappush(
                heap, (child.cost, count_conflicts(joint_rows(child, agents), h_r), seq, child)
            )
        expansions += 1
    if best_node is None:
        reason = "no-prefix"
    return best_node, best_h, reason, expansions, dequeues


# (height, width, agents, block_prob) of the benchmark's three workloads:
# starved, contested and offline-cbs.
WORKLOAD_SHAPES = ((32, 32, 50, 0.1), (16, 16, 30, 0.0), (16, 16, 12, 0.1))

# (shape, seed) of the searches checked against eager_run_adaptive.
# offline-cbs searches end within a few dozen expansions, so they take more
# seeds; seeds 3 and 6 reorder if counted at the current h_r.
EAGER_CASES = [*product(WORKLOAD_SHAPES[:2], range(2)), *product(WORKLOAD_SHAPES[2:], range(8))]


def adaptive_outputs(inst, h_max, cap):
    """run_adaptive's prefixes (cost, h_r, paths) and outcome under a
    WorkClock of `cap` expansions, in eager_outputs' form."""
    seen = []
    outcome = run_adaptive(
        inst, inst.starts, h_max, WorkClock(cap),
        on_prefix_found=lambda n, h: seen.append((n.cost, h, n.paths)),
    )
    return (seen, outcome.reason, outcome.best_h, outcome.expansions, outcome.dequeues,
            outcome.best_node.paths)


def eager_outputs(inst, h_max, cap):
    expected = []
    best_node, best_h, reason, expansions, dequeues = eager_run_adaptive(
        inst, h_max, lambda n, h: expected.append((n.cost, h, n.paths)), cap
    )
    return expected, reason, best_h, expansions, dequeues, best_node.paths


class TestLazyConflictCount:
    def test_matches_eager_counting(self):
        # Counting a child's conflicts only when its cost level is reached
        # dequeues nodes in the same (cost, conflicts, seq) order.
        reasons = set()
        for shape, seed in EAGER_CASES:
            inst = random_instance(random.Random(seed), *shape)
            for cap in (5, 60, 300):
                got = adaptive_outputs(inst, 128, cap)
                assert got == eager_outputs(inst, 128, cap), (shape, cap)
                reasons.add(got[1])
        assert reasons == {"horizon", "cap"}

    def test_counts_fewer_nodes_than_it_pushes(self, monkeypatch):
        counts, pushed = [], []

        def counted(rows, horizon, start=0):
            counts.append((start, horizon))
            return count_conflicts(rows, horizon, start)

        def expanded(*args):
            children = expand(*args)
            pushed.append(len(children))
            return children

        monkeypatch.setattr(daccbs.cbs, "count_conflicts", counted)
        monkeypatch.setattr(daccbs.cbs, "expand", expanded)
        inst = random_instance(random.Random(1), *WORKLOAD_SHAPES[1])
        outcome = run_adaptive(inst, inst.starts, 128, WorkClock(300))
        assert outcome.expansions == len(pushed) > 0
        assert len(counts) < sum(pushed), (len(counts), sum(pushed))
        # A count starts at the node's first conflict, and a node whose first
        # conflict lies past its push-time h_r is not counted at all.
        assert all(0 < start <= horizon for start, horizon in counts), counts


class TestScanStart:
    def test_finds_what_a_scan_from_zero_finds(self, monkeypatch):
        # A child's scan starts where its replanned row first differs from
        # its parent's.  On every counted node it finds the conflict that a
        # scan from t = 0 finds.
        starts = []

        def checked(node, agents, h_max, horizon):
            joint = joint_rows(node, agents)
            full = detect_first_conflict(joint, min(h_max, makespan(joint)))
            count, conflict = first_conflict_and_count(node, agents, h_max, horizon)
            assert conflict == full, (node.scan_from, conflict, full)
            starts.append((node.scan_from, full))
            return count, conflict

        first_conflict_and_count = daccbs.cbs._first_conflict_and_count
        monkeypatch.setattr(daccbs.cbs, "_first_conflict_and_count", checked)
        for shape, seed in EAGER_CASES:
            inst = random_instance(random.Random(seed), *shape)
            for cap in (5, 60, 300):
                run_adaptive(inst, inst.starts, 128, WorkClock(cap))
        # Scans start late, and some find their conflict at the very step
        # they start from.
        assert sum(s > 1 for s, _ in starts) > len(starts) // 2, len(starts)
        assert any(c is not None and c.time == s for s, c in starts)


class TestPlanMemo:
    def test_plans_each_constraint_set_once(self, monkeypatch):
        # A plan reads only its agent's own constraints, so a search plans
        # each (agent, own constraints) pair once and keeps the result, None
        # included.  eager_run_adaptive calls expand without the search's
        # Replanner, so it replans every pair it meets; both searches must
        # meet the same pairs and end the same way.
        planned = []

        def recorded(graph, agent, start, constraints, h_max, gamma, reach=None):
            plan = plan_constrained(graph, agent, start, constraints, h_max, gamma, reach=reach)
            planned.append(((agent, *map(frozenset, constraints.for_agent(agent))), plan is None))
            return plan

        monkeypatch.setattr(daccbs.cbs, "plan_constrained", recorded)
        # A contested-shape and an offline-cbs-shape instance, and one on
        # which an infeasible replan repeats.
        cases = [(WORKLOAD_SHAPES[1], 1), (WORKLOAD_SHAPES[2], 0), ((8, 8, 10, 0.1), 1)]
        repeated_infeasible = 0
        for shape, seed in cases:
            inst = random_instance(random.Random(seed), *shape)
            planned.clear()
            got = adaptive_outputs(inst, 128, 300)
            searched = [key for key, _ in planned]
            assert len(searched) == len(set(searched)), shape
            planned.clear()
            assert got == eager_outputs(inst, 128, 300), shape
            replanned = Counter(key for key, _ in planned)
            assert set(searched) == set(replanned), shape
            assert len(replanned) < sum(replanned.values()), shape
            repeated_infeasible += sum(
                1 for key, infeasible in set(planned) if infeasible and replanned[key] > 1
            )
        assert repeated_infeasible > 0


class TestClassicCbs:
    def test_single_agent_shortest_path(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        solution = run_classic_cbs(inst)
        assert soc(solution, inst.goals) == 4

    def test_cross_instance(self):
        inst = cross_instance()
        solution = run_classic_cbs(inst)
        assert soc(solution, inst.goals) == 5
        assert is_conflict_free(solution.rows)

    def test_four_cycle_swap(self):
        g = cycle_graph(4)
        inst = MapfInstance(g, (0, 1), (1, 0))
        solution = run_classic_cbs(inst)
        assert soc(solution, inst.goals) == 4
        assert soc(solution, inst.goals) == optimal_soc(inst)

    def test_empty_fleet(self):
        g = chain_graph(3)
        inst = MapfInstance(g, (), ())
        assert len(run_classic_cbs(inst).trajectories) == 0

    def test_h_max_too_short_to_reach_the_goals(self):
        # The root's greedy walk is cut off at h_max and has no conflict, so
        # the search ends conflict-free at h_max without reaching the goal.
        inst = MapfInstance(chain_graph(6), (0,), (5,))
        with pytest.raises(InfeasibleInstanceError, match="h_max 2"):
            run_classic_cbs(inst, h_max=2)
        solution = run_classic_cbs(inst, h_max=5)
        assert [t.vertices for t in solution.trajectories] == [(0, 1, 2, 3, 4, 5)]

    def test_solution_ends_when_the_last_agent_arrives(self):
        # Agent 1 steps aside from agent 0's path and comes back; the
        # solution ends at its return, however long h_max is.
        inst = MapfInstance(make_grid(2, 3), (0, 1), (2, 1))
        solution = run_classic_cbs(inst, h_max=20)
        assert [t.vertices for t in solution.trajectories] == [(0, 1, 2), (1, 4, 1)]

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(30):
            inst = random_instance(rng, 3, 3, rng.randint(2, 3), block_prob=0.15)
            solution = run_classic_cbs(inst)
            assert is_conflict_free(solution.rows)
            assert soc(solution, inst.goals) == optimal_soc(inst)


class TestWorkClock:
    def test_search_never_reads_the_wall_clock(self, monkeypatch):
        # Under a work budget a search's outcome depends on the code alone:
        # with the wall clock unreadable, both searches end exactly as before.
        inst = random_instance(random.Random(1), *WORKLOAD_SHAPES[1])
        offline = random_instance(random.Random(0), *WORKLOAD_SHAPES[2])

        def outcomes():
            outcome = run_adaptive(inst, inst.starts, 128, WorkClock(50))
            solved = run_classic_cbs(offline, expansion_cap=400)  # solves within the cap
            return (outcome.reason, outcome.best_h, outcome.expansions, outcome.dequeues,
                    outcome.best_node.paths, solved.rows)

        expected = outcomes()
        assert (expected[0], expected[2]) == ("cap", 50)

        def unreadable():
            raise AssertionError("the wall clock was read")

        monkeypatch.setattr(time, "perf_counter", unreadable)
        assert outcomes() == expected
