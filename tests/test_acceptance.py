"""Acceptance suite: end-to-end guarantees of the planner stack.

Each criterion prints a single pass/fail line.  Suites are shared through
session fixtures so the SOC upper-bound criterion can audit every daccbs
episode produced anywhere in this file.
"""

import math
import random

import pytest

from daccbs import (
    INF,
    ControllerConfig,
    FleetController,
    MapfInstance,
    exhaustive_exclusion_check,
    optimal_soc,
    reachable_region,
    run_classic_cbs,
    run_episode,
    soc,
)
from daccbs.oracle import default_makespan_cap

from conftest import cap_searches, make_grid, random_instance

# Expansions per search at each (mode, t_max in ms) of the starved episodes
# below: the median over the searches that stopped on that deadline under
# the wall clock (Intel Xeon, Python 3.11).  The episodes run under these
# caps instead, so they do the same work on any machine.
SEARCH_CAPS = {
    ("daccbs", 1.0): 3,
    ("daccbs", 5.0): 7,
    ("accbs", 5.0): 43,
    ("daccbs", 25.0): 105,
    ("accbs", 25.0): 266,
}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def feasible_small_instance(rng):
    """Random ≤4×4 instance with 2–3 agents, joint feasibility oracle-checked."""
    while True:
        h, w = rng.choice([(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)])
        n = rng.choice([2, 3])
        block_prob = rng.choice([0.0, 0.1])
        try:
            inst = random_instance(rng, h, w, n, block_prob=block_prob)
        except RuntimeError:
            continue
        opt = optimal_soc(inst)
        if opt < INF:
            return inst, opt


@pytest.fixture(scope="session")
def small_suite():
    rng = random.Random(20240817)
    return [feasible_small_instance(rng) for _ in range(200)]


@pytest.fixture(scope="session")
def idealized_runs(small_suite):
    runs = []
    for i, (inst, opt) in enumerate(small_suite):
        ctrl = FleetController(
            inst, ControllerConfig(t_max_ms=10_000.0, h_max=64, seed=i)
        )
        result = run_episode(inst, ctrl)
        runs.append((inst, opt, result, ctrl.initial_budget))
    return runs


@pytest.fixture(scope="session")
def starvation_runs():
    """50 closed-loop 16×16 N=30 episodes at a 1 ms deadline's work, debug
    checks on."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        cap_searches(mp, SEARCH_CAPS[("daccbs", 1.0)])
        for seed in range(50):
            rng = random.Random(seed)
            inst = random_instance(rng, 16, 16, 30, block_prob=0.0)
            ctrl = FleetController(
                inst, ControllerConfig(t_max_ms=1.0, seed=seed, debug_checks=True)
            )
            failure = None
            result = None
            try:
                result = run_episode(inst, ctrl)
            except Exception as exc:  # debug assertion or movement defect
                failure = f"seed {seed}: {exc!r}"
            runs.append((inst, result, ctrl.initial_budget, failure))
    return runs


@pytest.fixture(scope="session")
def sweep_runs():
    """32×32 maps with 10% random blocks, N=50: daccbs vs accbs t_max sweep,
    each search capped at its t_max's work."""
    t_maxes = (5.0, 25.0)
    episodes = {}  # (mode, t_max) -> list of (result, initial_budget)
    for t_max in t_maxes:
        for mode in ("daccbs", "accbs"):
            runs = []
            with pytest.MonkeyPatch.context() as mp:
                cap_searches(mp, SEARCH_CAPS[(mode, t_max)])
                for seed in range(10):
                    rng = random.Random(1000 + seed)
                    inst = random_instance(rng, 32, 32, 50, block_prob=0.10)
                    ctrl = FleetController(
                        inst, ControllerConfig(mode=mode, t_max_ms=t_max, seed=seed)
                    )
                    result = run_episode(inst, ctrl, step_cap=400)
                    runs.append((result, ctrl.initial_budget))
            episodes[(mode, t_max)] = runs
    return t_maxes, episodes


def test_criterion_1_classic_cbs_matches_oracle(small_suite):
    mismatches = []
    for inst, opt in small_suite:
        jt = run_classic_cbs(inst)
        got = soc(jt, inst.goals)
        if got != opt:
            mismatches.append((inst.starts, inst.goals, got, opt))
    report(
        1,
        not mismatches,
        f"classic CBS == oracle SOC on {len(small_suite)} instances"
        + (f"; mismatches: {mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_2_idealized_daccbs_optimal(small_suite, idealized_runs):
    bad = []
    for inst, opt, result, _ in idealized_runs:
        assert 64 >= default_makespan_cap(inst)  # horizon covers oracle makespan
        if result.soc != opt or result.termination != "all-at-goals":
            bad.append((inst.starts, inst.goals, result.soc, opt))
    report(
        2,
        not bad,
        f"daccbs episode SOC == oracle SOC on {len(idealized_runs)} instances"
        + (f"; mismatches: {bad[:3]}" if bad else ""),
    )


def test_criterion_3_completeness_under_starvation(starvation_runs):
    failures = []
    for i, (inst, result, b0, failure) in enumerate(starvation_runs):
        if failure is not None:
            failures.append(failure)
            continue
        if result.termination != "all-at-goals":
            failures.append(f"seed {i}: terminated {result.termination}")
        elif result.makespan > b0 + 1:
            failures.append(f"seed {i}: makespan {result.makespan} > budget {b0}+1")
        else:
            budgets = [b for _, b, _ in result.budget_trace]
            if not all(b2 < b1 for b1, b2 in zip(budgets, budgets[1:])):
                failures.append(f"seed {i}: budget trace not strictly decreasing")
    report(
        3,
        not failures,
        f"{len(starvation_runs)} starved 16×16 N=30 episodes reach goals within "
        f"budget+1 steps, conflict-free, budgets strictly decreasing"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_4_soc_bounded_by_initial_budget(
    idealized_runs, starvation_runs, sweep_runs
):
    episodes = []
    for _, _, result, b0 in idealized_runs:
        episodes.append((result, b0))
    for _, result, b0, failure in starvation_runs:
        if failure is None:
            episodes.append((result, b0))
    _, sweep = sweep_runs
    for (mode, _), runs in sweep.items():
        if mode == "daccbs":
            episodes.extend(runs)
    violations = [
        # b0 is None only for zero-step episodes (fleet starts at goals)
        (result.soc, b0)
        for result, b0 in episodes
        if result.soc > (0 if b0 is None else b0)
    ]
    report(
        4,
        not violations,
        f"SOC ≤ initial budget in all {len(episodes)} daccbs episodes"
        + (f"; violations: {violations[:3]}" if violations else ""),
    )


def test_criterion_5_budget_monotone_in_planning_time(fixed_work):
    # Planning time is counted in expansions, so the result does not depend
    # on the machine's speed.
    caps = (1, 10, 100, 1000)
    violations = []
    for i in range(20):
        rng = random.Random(500 + i)
        inst = random_instance(rng, 10, 10, 8, block_prob=0.0)
        budgets = []
        for cap in caps:
            fixed_work(cap)
            ctrl = FleetController(inst, ControllerConfig(seed=i))
            _, telem = ctrl.plan_step(inst.starts)
            budgets.append(telem["budget"])
        if not all(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
            violations.append((i, budgets))
    report(
        5,
        not violations,
        f"step-0 certified budget non-increasing over expansion caps {caps} on 20 instances"
        + (f"; violations: {violations[:3]}" if violations else ""),
    )


def small_exclusion_instance(rng):
    """Random ≤8-vertex 2-agent instance, joint feasibility oracle-checked."""
    while True:
        h, w = rng.choice([(1, 5), (2, 3), (2, 4), (3, 3)])
        blocked = set()
        if (h, w) == (3, 3):
            blocked = {(rng.randrange(3), rng.randrange(3))}
        try:
            g = make_grid(h, w, blocked)
            cells = list(range(g.vertex_count))
            starts = tuple(rng.sample(cells, 2))
            goals = tuple(rng.sample(cells, 2))
            inst = MapfInstance(g, starts, goals)
        except Exception:
            continue
        if optimal_soc(inst) < INF:
            return inst


def test_criterion_6_region_exclusion_exhaustive():
    rng = random.Random(77)
    violations = []
    checked = 0
    for _ in range(100):
        inst = small_exclusion_instance(rng)
        gamma_sum = sum(g[s] for g, s in zip(inst.gammas, inst.starts))
        for slack in range(4):
            budget = gamma_sum + slack
            for agent in range(2):
                region = reachable_region(
                    inst.graph, agent, inst.starts, slack, inst.gammas[agent]
                )
                for v in range(inst.graph.vertex_count):
                    if v in region:
                        continue
                    checked += 1
                    if not exhaustive_exclusion_check(inst, budget, agent, v):
                        violations.append((inst.starts, inst.goals, slack, agent, v))
    report(
        6,
        not violations,
        f"{checked} excluded (agent, vertex) pairs verified over 100 instances"
        + (f"; violations: {violations[:3]}" if violations else ""),
    )


def test_criterion_7_shrinkage_and_disjointness(starvation_runs):
    failures = [f for _, _, _, f in starvation_runs if f is not None]
    report(
        7,
        not failures,
        f"debug region-shrinkage and cross-group disjointness assertions held "
        f"over {len(starvation_runs)} episodes"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )


def k_at_half_makespan(result):
    half = math.ceil(result.makespan / 2)
    ks = [t["k_groups"] for t in result.telemetry if t["t"] <= half]
    return ks[-1]


def test_criterion_8_factorization_trend():
    def run(n, seed):
        rng = random.Random(seed)
        inst = random_instance(rng, 48, 48, n, block_prob=0.0)
        ctrl = FleetController(
            inst,
            ControllerConfig(t_max_ms=2.0, seed=seed, slack_threshold=0),
        )
        result = run_episode(inst, ctrl)
        assert result.termination == "all-at-goals"
        return k_at_half_makespan(result)

    ks_sparse = [run(10, seed) for seed in range(20)]
    ks_dense = [run(200, seed) for seed in range(5)]
    split = sum(k > 1 for k in ks_sparse)
    merged = sum(k == 1 for k in ks_dense)
    ok = split >= 16 and merged >= 4
    report(
        8,
        ok,
        f"48×48 half-makespan group counts: N=10 K>1 in {split}/20 (Ks={ks_sparse}), "
        f"N=200 K=1 in {merged}/5 (Ks={ks_dense})",
    )


def test_criterion_9_daccbs_beats_accbs_when_starved(sweep_runs):
    t_maxes, episodes = sweep_runs

    def mean_increment(mode, t_max):
        # capped episodes score their accumulated SOC, an undercount that can
        # only favor the baseline
        runs = episodes[(mode, t_max)]
        return sum(r.soc - r.gamma_sum for r, _ in runs) / len(runs)

    for t_max in t_maxes:
        d, a = mean_increment("daccbs", t_max), mean_increment("accbs", t_max)
        print(
            f"[criterion 9] t_max={t_max}ms: mean SOC increment "
            f"daccbs={d:.1f} accbs={a:.1f}"
        )
    smallest = t_maxes[0]
    d = mean_increment("daccbs", smallest)
    a = mean_increment("accbs", smallest)
    report(
        9,
        d <= a,
        f"at t_max={smallest}ms mean SOC increment daccbs={d:.1f} ≤ accbs={a:.1f} "
        f"(10 seeds, 32×32 10%-blocked, N=50)",
    )
