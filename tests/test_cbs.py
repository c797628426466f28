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
from daccbs.cbs import (
    ConflictIndex,
    ConstraintTreeNode,
    Replanner,
    _first_change,
    expand,
    make_root,
)
from daccbs.lowlevel import ConstraintSet, greedy_path, plan_constrained
from daccbs.trajectory import (
    count_conflicts,
    count_events,
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


def first_conflict(carried):
    """A counted node's first conflict: the first of its events, if any."""
    return carried.events[0] if carried.events else None


def own_constraints(node, agent):
    """The agent's constraint set in the node (empty when it has none)."""
    return node.constraints.get(agent, ConstraintSet())


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
        conflict = (1, 0, 0, 1, 4)  # rows 0 and 1 meet at vertex 4 at t = 1
        replanner = Replanner(inst, inst.starts, 8)
        children = expand(root, conflict, inst, inst.starts, 8, (0, 1), replanner)
        assert len(children) == 2
        assert children[0].constraints == {0: ConstraintSet().with_vertex(1, 4)}
        assert children[1].constraints == {1: ConstraintSet().with_vertex(1, 4)}

    def test_edge_conflict_opposite_directions(self):
        g = chain_graph(4)
        inst = MapfInstance(g, (0, 3), (3, 0))
        root = make_root(inst, inst.starts, 8)
        conflict = (2, 1, 0, 1, (1, 2))  # row 0 moves 1 -> 2 as row 1 moves 2 -> 1
        replanner = Replanner(inst, inst.starts, 8)
        children = expand(root, conflict, inst, inst.starts, 8, (0, 1), replanner)
        edges = [
            (a, next(iter(cs.edge_constraints)))
            for c in children for a, cs in c.constraints.items()
        ]
        assert (0, (1, (1, 2))) in edges
        assert (1, (1, (2, 1))) in edges

    def test_children_satisfy_constraints(self):
        inst = cross_instance()
        root = make_root(inst, inst.starts, 8)
        joint = joint_rows(root, (0, 1))
        conflict = detect_first_conflict(joint, 2)
        assert conflict is not None
        replanner = Replanner(inst, inst.starts, 8)
        for child in expand(root, conflict, inst, inst.starts, 8, (0, 1), replanner):
            for a, path in child.paths.items():
                assert satisfies(path, own_constraints(child, a))
            assert child.cost >= root.cost

    def test_child_scan_starts_where_its_row_changes(self):
        # Agent 0 waits at its goal 2, where agent 1 passes at t = 3.  Kept
        # off 1 and 3 at t = 3 as well, agent 0 must leave at t = 2: before
        # the conflict, and past the end of its parent's path, which is read
        # as waiting at its last vertex.
        inst = MapfInstance(chain_graph(6), (2, 5), (2, 0))
        root = make_root(inst, inst.starts, 8)
        # Agent 0 at its goal costs 0 either way; its plan waits there
        # through its last constrained step.
        replanner = Replanner(inst, inst.starts, 8)
        kept_off = ConstraintSet(frozenset({(3, 1), (3, 3)}))
        path, cost = replanner.plan(0, kept_off)
        assert (path, cost) == ((2, 2, 2, 2), 0)
        node = ConstraintTreeNode({0: kept_off}, {**root.paths, 0: path}, root.cost + cost)
        conflict = detect_first_conflict(joint_rows(node, (0, 1)), 5)
        assert conflict == (3, 0, 0, 1, 2)
        dodged, waited = expand(node, conflict, inst, inst.starts, 8, (0, 1), replanner)
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
        replanner = Replanner(inst, inst.starts, 2)
        children = expand(root, conflict, inst, inst.starts, 2, (0, 1), replanner)
        # with h_max=2 neither agent can both dodge and still exist... at
        # least one side is pruned
        assert len(children) <= 1 or all(
            satisfies(c.paths[a], own_constraints(c, a))
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

    def test_expired_clock_builds_no_root(self, monkeypatch):
        # A clock that has expired before the search starts stops it before
        # the root's walks, holding nothing, with the reason the first check
        # in the loop would give.
        def no_root(*args):
            raise AssertionError("the root was built")

        monkeypatch.setattr(daccbs.cbs, "make_root", no_root)
        inst = cross_instance()
        for clock, reason in ((WallClock(0.0), "no-prefix"), (WorkClock(0), "cap")):
            outcome = run_adaptive(inst, inst.starts, 10, clock)
            assert (outcome.best_node, outcome.reason, outcome.held) == (None, reason, 0)
            assert (outcome.expansions, outcome.dequeues) == (0, 0)

    def test_callback_invoked(self):
        inst = cross_instance()
        seen = []
        run_adaptive(inst, inst.starts, 6, None, on_prefix_found=lambda n, h: seen.append(h))
        assert seen
        assert seen[-1] == 6

    def test_conflict_free_root_offered_once_at_goals(self):
        # Paths that all end at their goals are offered at h_max only: the
        # offer at h_r could not cost less.  Paths cut off at h_max are not
        # at their goals, so the h_r prefix is offered too.
        inst = disjoint_chains_instance()
        for h_max, offers in ((8, [8]), (1, [1, 1])):
            seen = []
            run_adaptive(inst, inst.starts, h_max, None,
                         on_prefix_found=lambda n, h: seen.append(h))
            assert seen == offers

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
            # the last vertex plus gamma there.  A constrained agent's path
            # and its cost are its plan under its own constraint set, and an
            # unconstrained agent's path is its gamma-greedy walk: expand
            # reads the cost of the path it replaces from them.
            for node in nodes:
                costs = {
                    a: path_cost(p[:-1], inst.goals[a]) + inst.gammas[a][p[-1]]
                    for a, p in node.paths.items()
                }
                assert node.cost == sum(costs.values())
                for a, p in node.paths.items():
                    start, gamma = inst.starts[a], inst.gammas[a]
                    if a in node.constraints:
                        assert (p, costs[a]) == plan_constrained(
                            inst.graph, start, node.constraints[a], h_max, gamma
                        )
                    else:
                        assert p == tuple(greedy_path(inst.graph, start, gamma, h_max))
            cut_off += sum(
                p[-1] != inst.goals[a]
                for node in nodes
                for a, p in node.paths.items()
            )
            nodes.clear()
        assert cut_off


def at_goals(inst, node):
    """True iff every path of the node ends at its agent's goal: a node
    conflict-free to h_max is then offered at h_max only."""
    return all(path[-1] == inst.goals[a] for a, path in node.paths.items())


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
            prefix_h = h_r
            if h_r > best_h:
                best_node, best_h = node, h_r
            while conflict is None and h_r < h_max:
                h_r += 1
                conflict = detect_first_conflict(joint, min(h_r, makespan(joint)))
            if conflict is None and at_goals(inst, node):
                best_node, best_h = node, h_r
                on_prefix_found(node, h_r)
                reason = "horizon"
                break
            on_prefix_found(node, prefix_h)
            if conflict is None:
                best_node, best_h = node, h_r
                on_prefix_found(node, h_r)
                reason = "horizon"
                break
            if h_r - 1 > best_h:
                best_node, best_h = node, h_r - 1
        replanner = Replanner(inst, inst.starts, h_max)  # one per expansion: no plan is kept
        for child in expand(node, conflict, inst, inst.starts, h_max, agents, replanner):
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
        if conflict is None or conflict[0] > h_r:
            if not (conflict is None and at_goals(inst, node)):
                on_prefix_found(node, h_r)
            if h_r > best_h:
                best_node, best_h = node, h_r
            if conflict is None:
                best_node, best_h = node, h_max
                on_prefix_found(node, h_max)
                reason = "horizon"
                break
            h_r = conflict[0]
            if h_r - 1 > best_h:
                best_node, best_h = node, h_r - 1
        replanner = Replanner(inst, inst.starts, h_max)  # one per expansion: no plan is kept
        for child in expand(node, conflict, inst, inst.starts, h_max, agents, replanner):
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

        def counted(events, horizon):
            counts.append((events[0][0], horizon))
            return count_events(events, horizon)

        def expanded(*args):
            children = expand(*args)
            pushed.append(len(children))
            return children

        monkeypatch.setattr(daccbs.cbs, "count_events", counted)
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

        def checked(index, node, inherited, horizon):
            joint = joint_rows(node, index.agents)
            full = detect_first_conflict(joint, min(index.h_max, makespan(joint)))
            count, events = first_conflict_and_count(index, node, inherited, horizon)
            assert first_conflict(events) == full, (node.scan_from, events.events, full)
            starts.append((node.scan_from, full))
            return count, events

        first_conflict_and_count = daccbs.cbs.ConflictIndex.count
        monkeypatch.setattr(daccbs.cbs.ConflictIndex, "count", checked)
        for shape, seed in EAGER_CASES:
            inst = random_instance(random.Random(seed), *shape)
            for cap in (5, 60, 300):
                run_adaptive(inst, inst.starts, 128, WorkClock(cap))
        # Scans start late, and some find their conflict at the very step
        # they start from.
        assert sum(s > 1 for s, _ in starts) > len(starts) // 2, len(starts)
        assert any(c is not None and c[0] == s for s, c in starts)


def full_scan(paths, agents, h_max, horizon):
    """(count, first conflict) from the node's padded rows, as a scan of all
    rows finds them: the reference for ConflictIndex.count."""
    rows = pad(paths[a] for a in agents)
    conflict = detect_first_conflict(rows, min(h_max, makespan(rows)))
    if conflict is None or conflict[0] > horizon:
        return 0, conflict
    return count_conflicts(rows, horizon, conflict[0]), conflict


def random_walk(rng, graph, path, length):
    """The path continued by random moves (waits included) to `length`."""
    path = list(path)
    while len(path) < length:
        path.append(rng.choice(graph.adjacency[path[-1]]))
    return tuple(path)


class TestCarriedConflicts:
    def test_three_agents_on_one_vertex(self):
        # Three rows meet at vertex 1 at t = 1: three pairs, one event each.
        paths = {7: (0, 1), 3: (2, 1), 5: (4, 1)}
        root = ConstraintTreeNode({}, paths, 0)
        agents = (7, 3, 5)
        count, events = ConflictIndex(root, agents, 4).count(root, None, 1)
        assert (count, first_conflict(events)) == full_scan(paths, agents, 4, 1) == (
            3, (1, 0, 0, 1, 1)
        )

    def test_two_rows_reversed_by_one_count_once(self):
        # Rows 0 and 1 both move 2 -> 1 at t = 2 while row 2 moves 1 -> 2:
        # rows 0 and 1 share vertex 2 at t = 1 and vertex 1 at t = 2, and row 2
        # meets a reverse move once, however many rows made it.  So the count
        # to t = 2 is 3 of the 4 events.  The child whose replanned row makes
        # the same case counts the same.
        paths = {0: (5, 2, 1), 1: (6, 2, 1), 2: (0, 1, 2)}
        agents = (0, 1, 2)
        root = ConstraintTreeNode({}, paths, 0)
        count, events = ConflictIndex(root, agents, 3).count(root, None, 2)
        assert (count, first_conflict(events)) == full_scan(paths, agents, 3, 2) == (
            3, (1, 0, 0, 1, 2)
        )
        assert len(events.events) == 4
        paths = {0: (5, 2, 1), 1: (6, 6, 6), 2: (0, 1, 2)}
        root = ConstraintTreeNode({}, paths, 0)
        index = ConflictIndex(root, agents, 3)
        _, parent = index.count(root, None, 2)
        assert first_conflict(parent) == (2, 1, 0, 2, (2, 1))
        child = ConstraintTreeNode({}, {**paths, 1: (6, 2, 1)}, 0, 1, 1)
        count, events = index.count(child, parent, 2)
        assert (count, first_conflict(events)) == full_scan(child.paths, agents, 3, 2)
        assert count == 3

    def test_matches_a_full_scan_of_the_same_rows(self):
        # Random constraint trees on a small grid, where rows meet often: each
        # child replaces one row with one that keeps a prefix of the old and
        # then walks at random, to any length up to h_max + 1, or now and
        # then with the root's own path object again.  Every node's carried
        # first conflict and count equal a full scan's at a random horizon.
        rng = random.Random(21)
        graph = make_grid(3, 4)
        seen = Counter()
        nodes = 0
        while nodes < 2000:
            n = rng.randint(2, 7)
            h_max = rng.randint(1, 9)
            agents = tuple(rng.sample(range(20), n))
            paths = {
                a: random_walk(rng, graph, [rng.randrange(12)], rng.randint(1, h_max + 1))
                for a in agents
            }
            root = ConstraintTreeNode({}, paths, 0)
            index = ConflictIndex(root, agents, h_max)
            root_end = max(map(len, paths.values())) - 1
            horizon = rng.randint(1, h_max)
            count, events = index.count(root, None, horizon)
            assert (count, first_conflict(events)) == full_scan(paths, agents, h_max, horizon)
            counted = [(root, events)]
            for _ in range(rng.randint(1, 30)):
                node, parent = rng.choice(counted)
                m = rng.randrange(n)
                old = node.paths[agents[m]]
                if rng.random() < 0.1 and old is not paths[agents[m]]:
                    new = paths[agents[m]]  # back to the root's own path
                else:
                    new = random_walk(
                        rng, graph, old[:rng.randint(1, len(old))], rng.randint(1, h_max + 1)
                    )
                # The child can have no conflict before its parent's first
                # one, nor before its new row leaves the old.
                first = parent.events[0][0] if parent.events else h_max + 1
                child = ConstraintTreeNode(
                    {}, {**node.paths, agents[m]: new}, 0,
                    _first_change(old, new, first), m,
                )
                horizon = rng.randint(1, h_max)
                count, events = index.count(child, parent, horizon)
                expected = full_scan(child.paths, agents, h_max, horizon)
                assert (count, first_conflict(events)) == expected, (child, parent.known, horizon)
                counted.append((child, events))
                rows = pad(child.paths[a] for a in agents)
                seen["counted"] += count > 0
                seen["edge first"] += bool(events.events) and events.events[0][1] == 1
                seen["conflict-free"] += not events.events
                seen["cut at h_max"] += len(new) == h_max + 1
                seen["longer than root"] += len(new) - 1 > root_end
                seen["shorter than root"] += len(new) - 1 < root_end
                for t in range(makespan(rows) + 1):
                    column = [row[t] for row in rows]
                    seen["three on a vertex"] += any(column.count(v) > 2 for v in column)
                    moves = Counter(zip([row[t - 1] for row in rows], column)) if t else {}
                    seen["shared reversed edge"] += any(
                        k > 1 and u != w and (w, u) in moves for (u, w), k in moves.items()
                    )
            nodes += len(counted)
        assert min(seen.values()) > 10, seen

    def test_root_count_reads_the_table_only_as_far_as_it_must(self, monkeypatch):
        # A starved-shape root: its first conflict is at t = 1 and its
        # makespan is 47.  Counting it at h_r = 1 grows the search's
        # occupancy table through t = 1, not through the makespan.
        inst = random_instance(random.Random(0), *WORKLOAD_SHAPES[0])
        reads = []

        def counted(index, node, inherited, horizon):
            count, events = conflict_count(index, node, inherited, horizon)
            reads.append((events.events[0][0], horizon, len(index.table), index.table.end))
            return count, events

        conflict_count = daccbs.cbs.ConflictIndex.count
        monkeypatch.setattr(daccbs.cbs.ConflictIndex, "count", counted)
        run_adaptive(inst, inst.starts, 64, WorkClock(1))
        (first, horizon, built, end), = reads
        assert (first, horizon, end) == (1, 1, 47)
        assert built <= max(first, horizon) + 1


class TestPlanMemo:
    def test_plans_each_constraint_set_once(self, monkeypatch):
        # A search plans each (agent, constraint set) pair once and keeps the
        # result, None included.  eager_run_adaptive gives each expansion a
        # Replanner of its own, so it replans every pair it meets; both
        # searches must meet the same pairs and end the same way.  Starts
        # are distinct, so a start names its agent.
        planned = []

        def recorded(graph, start, constraints, h_max, gamma, reach=None):
            plan = plan_constrained(graph, start, constraints, h_max, gamma, reach=reach)
            planned.append(((start, constraints), plan is None))
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
