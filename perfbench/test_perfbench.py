"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import daccbs  # noqa: E402
import gate  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from daccbs import JointTrajectory, Trajectory, load_map, load_scenario  # noqa: E402


def _conftest():
    spec = importlib.util.spec_from_file_location(
        "daccbs_tests_conftest", ROOT / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "shape", [(16, 16, 30, 0.0), (32, 32, 50, 0.1), (48, 48, 200, 0.0)], ids=str
)
def test_generator_reproduces_conftest_instances(tmp_path, shape):
    height, width, agents, block = shape
    expected = _conftest().random_instance(random.Random(0), height, width, agents, block)
    map_path, scen_path = instances.write(tmp_path, 0, height, width, agents, block)
    graph = load_map(map_path)
    got = load_scenario(scen_path, graph, agents)
    assert graph.adjacency == expected.graph.adjacency
    assert graph.coords == expected.graph.coords
    assert got.starts == expected.starts
    assert got.goals == expected.goals


def _small_episode():
    work = workloads.Workload("small", 8, 8, 4, 0.0, (0,), t_max_ms=5.0)
    files = workloads.write_files(work, run.WORK_DIR / "test-small")
    loaded, _ = workloads.set_up(work, files)
    return work, loaded[0]


def test_episode_gate_counts_tampered_results():
    work, item = _small_episode()
    controller = workloads.new_controller(work, item.instance)
    result = daccbs.run_episode(item.instance, controller)
    assert gate.episode_errors(result) == []
    trace = result.budget_trace
    tampered = [
        dataclasses.replace(result, termination="step-cap"),
        dataclasses.replace(result, soc=result.initial_budget + 1),
        dataclasses.replace(result, budget_trace=trace[:1] + [trace[0]] + trace[2:]),
        dataclasses.replace(result, budget_trace=trace[:-1]),
    ]
    tally = gate.Tally()
    tally.record("honest", gate.episode_errors(result))
    for i, bad in enumerate(tampered):
        tally.record(f"tampered-{i}", gate.episode_errors(bad))
    assert (tally.attempted, tally.failed, tally.correct) == (5, 4, False)


def test_movement_defect_counts_as_failed_episode(monkeypatch):
    work, item = _small_episode()

    def teleport(self, state):  # every agent jumps straight to its goal
        return {a: (state[a], g) for a, g in enumerate(self.instance.goals)}, {}

    monkeypatch.setattr(daccbs.controller.FleetController, "plan_step", teleport)
    tally = gate.Tally()
    out = workloads.run_op(work, item, tally, speed.Meter())
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)
    assert out.soc_increment is None
    assert "MovementDefect" in tally.reasons[0]


def _offline():
    work = workloads.WORKLOADS["offline-cbs"]
    files = workloads.write_files(work, run.WORK_DIR / "test-offline")[:1]
    loaded, _ = workloads.set_up(work, files)
    return work, loaded[0]


def test_solution_gate_counts_tampered_solutions(monkeypatch):
    work, item = _offline()
    instance = item.instance
    joint = daccbs.run_classic_cbs(instance)
    reference = workloads.REFERENCE_SOC[item.seed]
    assert gate.solution_errors(instance, joint, reference) == []

    paths = [list(t.vertices) for t in joint.trajectories]

    def with_paths(new):
        return JointTrajectory([Trajectory(a, tuple(p)) for a, p in enumerate(new)])

    collide = [list(p) for p in paths]
    collide[1] = [paths[0][0]] + collide[1][1:]  # agent 1 starts on agent 0
    jump = [list(p) for p in paths]
    jump[0] = [jump[0][0], instance.goals[0]] if len(jump[0]) > 2 else jump[0] + [0]
    outside = [list(p) for p in paths]
    outside[2] = outside[2] + [instance.graph.vertex_count]
    tampered = [with_paths(collide), with_paths(jump), with_paths(paths[:-1]),
                with_paths(outside)]
    for bad in tampered:
        assert gate.solution_errors(instance, bad, reference)
    assert gate.solution_errors(instance, joint, reference + 1)

    # Through the workload: a wrong solution is failed and incorrect, a capped
    # solve is failed but correct.
    monkeypatch.setattr(daccbs.cbs, "run_classic_cbs", lambda inst, expansion_cap: tampered[0])
    tally = gate.Tally()
    workloads.run_op(work, item, tally, speed.Meter())
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)

    def capped(inst, expansion_cap):
        raise daccbs.cbs.ExpansionCapExceeded("cap")

    monkeypatch.setattr(daccbs.cbs, "run_classic_cbs", capped)
    tally = gate.Tally()
    out = workloads.run_op(work, item, tally, speed.Meter())
    assert (tally.attempted, tally.failed, tally.correct, out.missed) == (1, 1, True, 1)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("kind", ["closed-loop", "offline"])
def test_output_names_the_declared_metrics(monkeypatch, capsys, trace, key, kind):
    small = {
        "closed-loop": workloads.Workload("small", 8, 8, 4, 0.0, (0, 1), t_max_ms=5.0),
        "offline": workloads.Workload("small", 8, 8, 3, 0.0, (0, 1), expansion_cap=400),
    }[kind]
    monkeypatch.setitem(workloads.WORKLOADS, "small", small)
    if kind == "offline":
        refs = {}
        for seed in small.instance_seeds:
            m, s = instances.write(run.WORK_DIR / "test-ref", seed, 8, 8, 3, 0.0)
            inst = load_scenario(s, load_map(m), 3)
            refs[seed] = daccbs.soc(daccbs.run_classic_cbs(inst), inst.goals)
        monkeypatch.setattr(workloads, "REFERENCE_SOC", refs)
    assert run.main(["--workload", "small", "--seed", "3", "--seconds", "0.01",
                     "--trace", trace]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


class _FixedMeter(speed.Meter):
    """A meter that reads the machine as running at half nominal speed."""

    def __init__(self):
        super().__init__(enabled=False)

    def factor(self):
        return 0.5


def test_episode_times_and_deadline_at_nominal_speed(monkeypatch):
    work, item = _small_episode()
    given = []
    make = workloads.new_controller

    def spy(work, instance, factor=1.0):
        controller = make(work, instance, factor)
        given.append(controller.config.t_max_ms)
        return controller

    monkeypatch.setattr(workloads, "new_controller", spy)
    out = workloads.run_op(work, item, gate.Tally(), _FixedMeter())
    assert given == [2 * work.t_max_ms]
    assert out.nominal_walls == [w * 0.5 for w in out.step_walls]
    assert out.missed == sum(w > 2 * work.t_max_ms / 1000.0 for w in out.step_walls)
    assert out.nominal_s < out.wall_s
