"""Closed-loop episode execution: query the controller each tick, validate and
apply movements, collect metrics, detect termination."""

from __future__ import annotations

from dataclasses import dataclass, field

from .controller import FleetController
from .grid import MapfInstance


class MovementDefect(RuntimeError):
    """Controller emitted a conflicting or non-adjacent movement."""


@dataclass
class EpisodeResult:
    """Metrics and traces of one closed-loop episode."""

    soc: int
    makespan: int
    termination: str  # "all-at-goals" | "step-cap"
    initial_budget: int | None
    gamma_sum: int
    telemetry: list[dict] = field(default_factory=list)
    budget_trace: list[tuple[int, int, bool]] = field(default_factory=list)
    factorization_trace: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "soc": self.soc,
            "soc_increment": soc_increment(self)
            if self.termination == "all-at-goals"
            else None,
            "makespan": self.makespan,
            "termination": self.termination,
            "initial_budget": self.initial_budget,
            "gamma_sum": self.gamma_sum,
            "budget_trace": [list(entry) for entry in self.budget_trace],
            "factorization_trace": self.factorization_trace,
            "telemetry": self.telemetry,
        }


def _validate_movement(instance: MapfInstance, state, movement) -> list[int]:
    n = instance.n_agents
    if set(movement) != set(range(n)):
        raise MovementDefect("movement does not cover exactly the fleet")
    targets: dict[int, int] = {}
    for a in range(n):
        u, v = movement[a]
        if u != state[a]:
            raise MovementDefect(f"agent {a}: movement origin {u} != state {state[a]}")
        if not instance.graph.has_edge(u, v):
            raise MovementDefect(f"agent {a}: ({u}, {v}) is not a graph edge")
        if v in targets:
            raise MovementDefect(f"agents {targets[v]} and {a} both move to vertex {v}")
        targets[v] = a
    for a in range(n):
        u, v = movement[a]
        if u != v:
            other = targets.get(u)
            if other is not None and other != a and movement[other][0] == v:
                raise MovementDefect(f"agents {a} and {other} swap along ({u}, {v})")
    return [movement[a][1] for a in range(n)]


def run_episode(
    instance: MapfInstance,
    controller: FleetController,
    step_cap: int | None = None,
) -> EpisodeResult:
    """Run the feedback loop until all agents reach their goals or the step
    cap is hit.  Invalid movements abort with MovementDefect."""
    state = list(instance.starts)
    goals = instance.goals
    gamma_sum = sum(g[s] for g, s in zip(instance.gammas, instance.starts))
    soc_acc = 0
    steps = 0
    termination = "all-at-goals"
    telemetry: list[dict] = []
    while any(state[a] != goals[a] for a in range(instance.n_agents)):
        if step_cap is not None and steps >= step_cap:
            termination = "step-cap"
            break
        movement, telem = controller.plan_step(tuple(state))
        telemetry.append(telem)
        if step_cap is None:
            # Generous default so suboptimal modes still terminate; the
            # certificate-driven mode needs at most its initial budget.
            base = controller.initial_budget
            if base is None:
                base = gamma_sum + instance.graph.vertex_count
            step_cap = 4 * base + 16
        next_state = _validate_movement(instance, state, movement)
        soc_acc += sum(1 for a in range(instance.n_agents) if state[a] != goals[a])
        state = next_state
        steps += 1
    return EpisodeResult(
        soc=soc_acc,
        makespan=steps,
        termination=termination,
        initial_budget=controller.initial_budget,
        gamma_sum=gamma_sum,
        telemetry=telemetry,
        budget_trace=list(controller.budget_trace),
        factorization_trace=list(controller.factorization_trace),
    )


def soc_increment(result: EpisodeResult) -> int:
    """Realized SOC minus the shortest-path lower bound; requires termination."""
    if result.termination != "all-at-goals":
        raise ValueError("SOC increment is undefined for a non-terminated episode")
    return result.soc - result.gamma_sum
