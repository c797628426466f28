"""Closed-loop episode execution and movement validation."""

import pytest

from daccbs import (
    ControllerConfig,
    FleetController,
    InfeasibleInstanceError,
    MapfInstance,
    run_classic_cbs,
    run_episode,
    soc_increment,
)
from daccbs.simulate import MovementDefect, _validate_movement

from conftest import chain_graph, cross_instance


class TestValidateMovement:
    def setup_method(self):
        self.inst = cross_instance()

    def test_valid_movement(self):
        state = [1, 3]
        nxt = _validate_movement(self.inst, state, {0: (1, 4), 1: (3, 3)})
        assert nxt == [4, 3]

    def test_wrong_origin(self):
        with pytest.raises(MovementDefect):
            _validate_movement(self.inst, [1, 3], {0: (0, 1), 1: (3, 3)})

    def test_non_edge(self):
        with pytest.raises(MovementDefect):
            _validate_movement(self.inst, [1, 3], {0: (1, 8), 1: (3, 3)})

    def test_vertex_collision(self):
        with pytest.raises(MovementDefect):
            _validate_movement(self.inst, [1, 3], {0: (1, 4), 1: (3, 4)})

    def test_swap(self):
        g = chain_graph(3)
        inst = MapfInstance(g, (0, 1), (2, 0))
        with pytest.raises(MovementDefect):
            _validate_movement(inst, [0, 1], {0: (0, 1), 1: (1, 0)})

    def test_missing_agent(self):
        with pytest.raises(MovementDefect):
            _validate_movement(self.inst, [1, 3], {0: (1, 4)})


class TestRunEpisode:
    def test_all_at_goals_zero_steps(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0, 4), (0, 4))
        controller = FleetController(inst, ControllerConfig())
        result = run_episode(inst, controller)
        assert (result.soc, result.makespan) == (0, 0)
        assert result.termination == "all-at-goals"

    def test_single_chain_any_mode(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        for mode, t_max_ms in (("daccbs", 20.0), ("accbs", 20.0), ("daccbs", 0.0)):
            controller = FleetController(inst, ControllerConfig(mode=mode, t_max_ms=t_max_ms))
            result = run_episode(inst, controller)
            assert result.soc == 4
            assert result.makespan == 4

    def test_step_cap_reported(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        controller = FleetController(inst, ControllerConfig(t_max_ms=0.0))
        result = run_episode(inst, controller, step_cap=2)
        assert result.termination == "step-cap"
        assert result.makespan == 2

    def test_soc_increment(self):
        inst = cross_instance()
        controller = FleetController(inst, ControllerConfig(t_max_ms=500.0))
        result = run_episode(inst, controller)
        assert soc_increment(result) == result.soc - 4

    def test_soc_increment_requires_termination(self):
        g = chain_graph(5)
        inst = MapfInstance(g, (0,), (4,))
        controller = FleetController(inst, ControllerConfig())
        result = run_episode(inst, controller, step_cap=1)
        with pytest.raises(ValueError):
            soc_increment(result)
        assert result.to_dict()["soc_increment"] is None

    def test_result_round_trip(self):
        inst = cross_instance()
        controller = FleetController(inst, ControllerConfig(t_max_ms=5.0))
        result = run_episode(inst, controller)
        doc = result.to_dict()
        assert doc["soc"] == result.soc
        assert doc["soc_increment"] == result.soc - result.gamma_sum
        assert doc["termination"] == "all-at-goals"
        assert len(doc["budget_trace"]) == result.makespan

    def test_jointly_infeasible_instance(self):
        # Two agents swapping the ends of a 3-vertex corridor: each goal is
        # reachable alone, so the instance is accepted, but the complete
        # backup exhausts its tree and no conflict-free plan exists.
        inst = MapfInstance(chain_graph(3), (0, 2), (2, 0))
        with pytest.raises(InfeasibleInstanceError):
            run_classic_cbs(inst)
        for t_max_ms in (ControllerConfig.t_max_ms, 0.0):
            controller = FleetController(inst, ControllerConfig(t_max_ms=t_max_ms))
            with pytest.raises(InfeasibleInstanceError):
                run_episode(inst, controller)
