"""Episode and backup rollout outputs pinned at a fixed work budget.

Every search runs under a WorkClock of a fixed number of expansions instead
of its WallClock (the `fixed_work` fixture), and certificate repair, which
counts no expansions, runs until it improves nothing.  So an episode's
outputs depend only on the code, not on the machine's speed or on hash
randomization.  A change that must keep outputs identical keeps these
values; one that changes them on purpose says so and records them again.
"""

import hashlib
import random

import pytest

from daccbs import (
    BackupError,
    ControllerConfig,
    FleetController,
    LacamBackup,
    WallClock,
    WorkClock,
    run_episode,
    soc,
)

from conftest import joint, positions_at, random_instance


def outputs(instance, mode, fixed_work):
    """(soc, initial budget, termination, per-step budgets, factorization
    entries) of one episode, every search capped at 20 expansions."""
    fixed_work(20)
    controller = FleetController(instance, ControllerConfig(h_max=32, mode=mode, seed=0))
    result = run_episode(instance, controller, step_cap=100)
    budgets = [budget for _, budget, _ in result.budget_trace]
    return (result.soc, result.initial_budget, result.termination, budgets,
            len(result.factorization_trace))


# Keyed by the random_instance seed and the mode.
PINNED = {
    (0, "daccbs"): (50, 54, "all-at-goals", [50, 40, 30, 21, 15, 11, 7, 4, 2, 1], 2),
    (0, "accbs"): (50, None, "all-at-goals", [], 0),
    (1, "daccbs"): (60, 68, "all-at-goals", [61, 52, 43, 35, 24, 16, 11, 8, 6, 4, 1], 6),
    (1, "accbs"): (59, None, "all-at-goals", [], 0),
    (2, "daccbs"): (63, 77, "all-at-goals", [67, 56, 46, 37, 31, 25, 19, 13, 8, 4, 1], 7),
    (2, "accbs"): (65, None, "all-at-goals", [], 0),
    (3, "daccbs"): (56, 69, "all-at-goals", [57, 46, 36, 27, 20, 15, 11, 8, 6, 4, 2, 1], 3),
    (3, "accbs"): (56, None, "all-at-goals", [], 0),
    (4, "daccbs"): (67, 89, "all-at-goals", [67, 57, 47, 37, 27, 18, 11, 6, 3, 1], 1),
    (4, "accbs"): (67, None, "all-at-goals", [], 0),
    (5, "daccbs"): (61, 69, "all-at-goals", [65, 55, 43, 33, 23, 15, 9, 5, 1], 4),
    (5, "accbs"): (61, None, "all-at-goals", [], 0),
    (6, "daccbs"): (46, 56, "all-at-goals", [49, 39, 28, 21, 16, 11, 7, 3], 6),
    (6, "accbs"): (45, None, "all-at-goals", [], 0),
    (7, "daccbs"): (53, 71, "all-at-goals", [60, 43, 33, 24, 17, 11, 7, 5, 4, 3, 2, 1], 3),
    (7, "accbs"): (55, None, "all-at-goals", [], 0),
}


@pytest.mark.parametrize("mode", ["daccbs", "accbs"])
@pytest.mark.parametrize("seed", range(8))
def test_small_blocked_grids(seed, mode, fixed_work):
    instance = random_instance(random.Random(seed), 8, 8, 10, 0.1)
    assert outputs(instance, mode, fixed_work) == PINNED[(seed, mode)]


def test_contested_size_episode(fixed_work):
    # The size of the contested benchmark workload: 16x16 open grid, 30 agents.
    instance = random_instance(random.Random(0), 16, 16, 30)
    budgets = [288, 258, 229, 202, 175, 149, 125, 103, 86, 68, 51, 35, 27, 19, 15, 13, 11,
               10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
    assert outputs(instance, "daccbs", fixed_work) == (280, 318, "all-at-goals", budgets, 8)



def rollout_outcome(instance, start, cost_limit=None, clock=None):
    """(cost, digest of the paths) of a seed-0 rollout of every agent, or
    "cut" when it stops at its cost limit."""
    try:
        paths = LacamBackup(seed=0).rollout(
            instance, tuple(range(instance.n_agents)), start, cost_limit=cost_limit, clock=clock
        )
    except BackupError:
        return "cut"
    return soc(joint(paths), instance.goals), hashlib.sha256(repr(paths).encode()).hexdigest()[:16]


# Keyed by the start (the instance's, or half-way along the initial
# rollout, where many agents hold their goals) and the cost limit.
PINNED_ROLLOUTS = {
    ("initial", None): (1209, "f0a9c14083685aaf"),
    ("initial", 1189): "cut",
    ("initial", 1209): "cut",
    ("initial", 1210): (1209, "f0a9c14083685aaf"),
    ("half-way", None): (244, "07a0f57b7c055f6a"),
    ("half-way", 239): "cut",
    ("half-way", 244): "cut",
    ("half-way", 245): (244, "07a0f57b7c055f6a"),
}


def starved_size_outcomes(clock=None):
    """Every PINNED_ROLLOUTS key's outcome, each rollout under `clock`."""
    # The size of the starved benchmark workload: 32x32, 10% blocked, 50 agents.
    instance = random_instance(random.Random(0), 32, 32, 50, 0.1)
    initial = joint(LacamBackup(seed=0).rollout(instance, tuple(range(50)), instance.starts))
    starts = {
        "initial": instance.starts,
        "half-way": positions_at(initial, initial.makespan // 2),
    }
    return {
        (start, limit): rollout_outcome(instance, starts[start], limit, clock)
        for start, limit in PINNED_ROLLOUTS
    }


def test_starved_size_rollouts():
    assert starved_size_outcomes() == PINNED_ROLLOUTS


@pytest.mark.parametrize("clock", [WorkClock(1), WallClock(3600.0)], ids=["work", "wall"])
def test_starved_size_rollouts_under_a_clock_that_never_expires(clock):
    # Asking a clock draws nothing, so a clock that never expires changes no
    # rollout.
    assert starved_size_outcomes(clock) == PINNED_ROLLOUTS
