"""Conflict detection, padding, prefix costs, and the SOC metric."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daccbs import (
    INF,
    JointTrajectory,
    Trajectory,
    detect_first_conflict,
    goal_distance_field,
    is_conflict_free,
    soc,
)
from daccbs.trajectory import Occupancy, count_conflicts, makespan, pad, path_cost

from conftest import positions_at, prefix_cost


def jt(*vertex_lists):
    return JointTrajectory([Trajectory(i, tuple(vs)) for i, vs in enumerate(vertex_lists)])


def rows(*vertex_lists):
    return pad(tuple(vs) for vs in vertex_lists)


class TestConflictDetection:
    def test_vertex_conflict(self):
        # (t, 0 for vertex, i, j, the shared vertex)
        assert detect_first_conflict(rows([0, 1], [2, 1]), 1) == (1, 0, 0, 1, 1)

    def test_edge_conflict(self):
        # (t, 1 for edge, i, j, row i's move)
        assert detect_first_conflict(rows([1, 2], [2, 1]), 1) == (1, 1, 0, 1, (1, 2))

    def test_no_conflict(self):
        assert detect_first_conflict(rows([0, 1], [3, 3]), 1) is None

    def test_vertex_before_edge_at_equal_time(self):
        # At t=1: agents 0/1 swap (edge conflict) and agents 2/3 collide on 9.
        t, kind, i, j, _ = detect_first_conflict(rows([1, 2], [2, 1], [8, 9], [9, 9]), 1)
        assert kind == 0
        assert (i, j) == (2, 3)

    def test_lowest_pair_wins(self):
        _, _, i, j, _ = detect_first_conflict(rows([0, 5], [1, 5], [2, 6], [3, 6]), 1)
        assert (i, j) == (0, 1)

    def test_horizon_beyond_makespan_rejected(self):
        with pytest.raises(ValueError):
            detect_first_conflict(rows([0, 1]), 2)

    def test_prefix_monotonicity(self):
        joint = rows([0, 1, 2], [2, 2, 2])
        assert detect_first_conflict(joint, 2) is not None
        assert detect_first_conflict(joint, 1) is None
        assert detect_first_conflict(joint, 0) is None


class TestGoalTerminatedScans:
    def test_same_as_padded_to_hmax(self):
        # Every path ends at its agent's goal, goals are distinct, and some
        # agents are cut off at H_max instead.  Scanning the paths padded
        # only to their own makespan, clamped there, finds what scanning the
        # same paths padded to H_max finds.  A handful of vertices makes
        # collisions common.  is_conflict_free, given the unpadded paths of
        # mixed lengths, agrees with the scan, and pad leaves an already
        # padded set as it is.
        rng = random.Random(0)
        seen = {"conflict": 0, "free": 0, "cut": 0, "short": 0}
        for _ in range(2000):
            h_max = rng.randint(1, 10)
            n = rng.randint(1, 6)
            n_vertices = n + rng.randint(0, 3)
            goals = rng.sample(range(n_vertices), n)
            paths = []
            for i in range(n):
                cut = rng.random() < 0.2
                length = h_max + 1 if cut else rng.randint(1, h_max + 1)
                vertices = [rng.randrange(n_vertices) for _ in range(length)]
                if not cut:
                    vertices[-1] = goals[i]
                paths.append(tuple(vertices))
            short = JointTrajectory([Trajectory(i, p) for i, p in enumerate(paths)])
            padded = tuple(p + (p[-1],) * (h_max + 1 - len(p)) for p in paths)
            assert makespan(padded) == h_max
            assert pad(padded) == padded and pad(short.rows) == short.rows
            first = detect_first_conflict(short.rows, short.makespan)
            assert is_conflict_free(paths) == (first is None), paths
            for h in range(h_max + 1):
                got = detect_first_conflict(short.rows, min(h, short.makespan))
                assert got == detect_first_conflict(padded, h), (paths, h)
                assert count_conflicts(short.rows, h) == count_conflicts(padded, h), (paths, h)
            seen["conflict" if got is not None else "free"] += 1
            seen["cut" if short.makespan == h_max else "short"] += 1
        assert min(seen.values()) > 300, seen


class TestPadding:
    def test_padded_to_common_makespan(self):
        joint = jt([0, 1, 2], [5])
        assert joint.makespan == 2
        assert joint.rows[1] == (5, 5, 5)

    def test_positions_at(self):
        joint = jt([0, 1], [3])
        assert positions_at(joint, 1) == (1, 3)


class TestCosts:
    def test_prefix_cost_chain(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        assert prefix_cost((0, 1), 1, gamma) == 4  # 1 + gamma(1)=3

    def test_prefix_cost_at_goal(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        assert prefix_cost((4,), 0, gamma) == 0

    def test_prefix_cost_wait(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        assert prefix_cost((0, 0), 1, gamma) == 5  # 1 + gamma(0)=4

    def test_prefix_cost_unreachable_saturates(self):
        from daccbs import Graph

        g = Graph(((0,), (1,)))
        gamma = goal_distance_field(g, 0)
        assert prefix_cost((1,), 0, gamma) == INF

    def test_goal_absorbing(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        assert prefix_cost((4, 4), 1, gamma) == 0
        assert prefix_cost((0, 1), 1, gamma) == 4

    def test_soc_chain(self):
        assert soc(jt([0, 1, 2, 3, 4]), [4]) == 4

    def test_soc_at_goal(self):
        assert soc(jt([4]), [4]) == 0

    def test_soc_leave_and_return(self):
        # literal per-position cost: goal occupancies are free even if the
        # agent leaves the goal again afterwards
        assert soc(jt([4, 3, 4]), [4]) == 1

    def test_soc_requires_goal_terminal(self):
        with pytest.raises(ValueError):
            soc(jt([0, 1]), [4])

    def test_soc_equals_prefix_cost_sum_at_makespan(self, chain5):
        gamma = goal_distance_field(chain5, 4)
        joint = jt([0, 1, 2, 3, 4], [2, 3, 4, 4, 4])
        assert soc(joint, [4, 4]) == sum(
            prefix_cost(row, joint.makespan, gamma) for row in joint.rows
        )

    def test_path_cost(self):
        assert path_cost((0, 1, 2, 4, 3, 4), 4) == 4


class TestTrajectory:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(0, ())


@given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_singleton_joint_never_conflicts(vertices):
    assert is_conflict_free([tuple(vertices)])


class TestOccupancy:
    @pytest.mark.parametrize("indexed", [-1, 0, 2, 3, 7])
    def test_replaced_row_indexes_as_a_fresh_table(self, indexed):
        # The longest path is replaced by a short one, then a short one by
        # the longest: the end shrinks, then grows, past the steps indexed.
        paths = [(0, 1, 2, 3), (10, 11), (20,)]
        table = Occupancy(paths)
        for member, path in ((0, (0, 1)), (1, (10, 11, 12, 13, 14, 15)), (2, (20, 21))):
            if indexed >= 0:
                table.at(indexed)
            table.replace(member, path)
            paths[member] = path
            fresh = Occupancy(paths)
            assert (table.paths, table.end) == (fresh.paths, fresh.end)
            assert [table.at(t) for t in range(fresh.end + 3)] == [
                fresh.at(t) for t in range(fresh.end + 3)
            ]

    def test_meets(self):
        # Path 0 goes 0 -> 3 along a chain; path 1 waits at 5, then goes to 4.
        table = Occupancy([(0, 1, 2, 3), (5, 5, 5, 4)])
        assert not table.meets(0, (0, 1, 2, 3))
        assert not table.meets(1, (5, 4))
        assert table.meets(0, (0, 1, 2, 3, 4))  # waits at 4 from t = 4, where path 1 is
        assert table.meets(1, (5, 5, 4, 3))  # at 3 where path 0 waits
        assert table.meets(1, (5, 4, 3, 2))  # 3 -> 2 while path 0 goes 2 -> 3
        # Past the table's end the others stand still.
        assert not table.meets(0, (0, 1, 2, 3, 2, 1, 0))
        assert table.meets(0, (0, 1, 2, 3, 3, 3, 4, 3))  # at 4, where path 1 stopped
