"""Complete backup solver producing conflict-free goal-reaching plans.

The solver follows the LaCAM scheme: a lazy depth-first search over joint
configurations whose successors are proposed by a PIBT-style one-step
generator (priority inheritance resolves pushes), with per-agent forced-move
constraints enumerated lazily to retain completeness.  It requires a
symmetric graph.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .grid import INF, Graph, MapfInstance, is_symmetric
from .trajectory import JointTrajectory, Trajectory

Configuration = tuple[int, ...]


class BackupError(RuntimeError):
    """Backup failure: unsupported graph class or infeasible sub-instance."""


class BackupDefect(RuntimeError):
    """Internal defect: the iteration cap or the makespan cap was exceeded."""


class BackupController:
    """Contract: rollout returns mutually conflict-free trajectories from the
    given positions to the agents' goals, for any feasible sub-instance."""

    def rollout(
        self, instance: MapfInstance, agents: tuple[int, ...], start: Configuration
    ) -> JointTrajectory:
        """Conflict-free goal-reaching trajectories for `agents` from `start`.

        `start` holds one vertex per member of `agents`, pairwise distinct.
        """
        raise NotImplementedError


@dataclass
class _LowNode:
    """Lazily enumerated forced-move constraints: the first `depth` agents in
    the parent's order are pinned to `where`."""

    who: tuple[int, ...] = ()
    where: tuple[int, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.who)


@dataclass
class _HighNode:
    config: Configuration
    parent: "._HighNode | None"
    order: tuple[int, ...]  # member indices, highest priority first
    elevation: tuple[int, ...]
    tree: deque = field(default_factory=deque)


class LacamBackup(BackupController):
    """Lazy configuration-tree search with priority-inheritance successors."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def rollout(
        self, instance: MapfInstance, agents: tuple[int, ...], start: Configuration
    ) -> JointTrajectory:
        graph = instance.graph
        if not is_symmetric(graph):
            raise BackupError("LaCAM requires a symmetric graph")
        n = len(agents)
        if n == 0:
            return JointTrajectory([])
        if len(set(start)) != n:
            raise BackupError("start configuration has coinciding agents")
        goals = tuple(instance.goals[a] for a in agents)
        gammas = [instance.gammas[a] for a in agents]
        for i, v in enumerate(start):
            if gammas[i][v] >= INF:
                raise BackupError(f"agent {agents[i]} cannot reach its goal from {v}")
        dists = [gamma.values for gamma in gammas]
        rng = random.Random(self.seed)
        makespan_cap = graph.vertex_count * n * 4
        iteration_cap = max(makespan_cap * 8 + 1000, 2_000_000)

        def make_order(elevation: tuple[int, ...]) -> tuple[int, ...]:
            # Highest elevation first, then larger initial gamma, then lower id.
            return tuple(
                sorted(range(n), key=lambda i: (-elevation[i], -gammas[i][start[i]], i))
            )

        root_elev = tuple(0 for _ in range(n))
        root = _HighNode(start, None, make_order(root_elev), root_elev, deque([_LowNode()]))
        explored: dict[Configuration, _HighNode] = {start: root}
        stack: list[_HighNode] = [root]

        iterations = 0
        while stack:
            iterations += 1
            if iterations > iteration_cap:
                raise BackupDefect("LaCAM iteration cap exceeded on a feasible input")
            node = stack[-1]
            if node.config == goals:
                return self._backtrack(node, agents, makespan_cap)
            if not node.tree:
                stack.pop()
                continue
            low = node.tree.popleft()
            if low.depth < n:
                member = node.order[low.depth]
                here = node.config[member]
                for u in (here, *sorted(w for w in graph.neighbors(here) if w != here)):
                    node.tree.append(_LowNode(low.who + (member,), low.where + (u,)))
            forced = dict(zip(low.who, low.where))
            config = _pibt_step(graph, node.config, node.order, dists, forced, rng)
            if config is None:
                continue
            known = explored.get(config)
            if known is not None:
                stack.append(known)
                continue
            elevation = tuple(
                0 if config[i] == goals[i] else node.elevation[i] + 1 for i in range(n)
            )
            child = _HighNode(config, node, make_order(elevation), elevation, deque([_LowNode()]))
            explored[config] = child
            stack.append(child)
        # LaCAM is complete: an exhausted tree proves the sub-instance infeasible.
        raise BackupError("LaCAM exhausted its search tree: no conflict-free plan exists")

    def _backtrack(
        self, node: _HighNode, agents: tuple[int, ...], makespan_cap: int
    ) -> JointTrajectory:
        configs: list[Configuration] = []
        cur: _HighNode | None = node
        while cur is not None:
            configs.append(cur.config)
            cur = cur.parent
        configs.reverse()
        if len(configs) - 1 > makespan_cap:
            raise BackupDefect(f"rollout makespan exceeds safety cap {makespan_cap}")
        # Built from a list, each trajectory tuple is allocated at its final
        # size.  tuple(<generator>) starts from a 10-slot tuple and resizes it,
        # so freed trajectories would pile up on the free lists of sizes that
        # such builds never draw from.
        return JointTrajectory(
            [
                Trajectory(a, tuple([cfg[i] for cfg in configs]))
                for i, a in enumerate(agents)
            ]
        )


def _pibt_step(
    graph: Graph,
    config: Configuration,
    order: tuple[int, ...],
    dists,
    forced: dict[int, int],
    rng: random.Random,
) -> Configuration | None:
    """One-step successor configuration via priority inheritance.

    `dists[i]` is member i's goal-distance sequence, indexed by vertex.
    `forced` pins members to target vertices (must be adjacent-or-same); the
    step fails (None) when the pins cannot be completed into a valid
    configuration (no coinciding agents, no swaps).
    """
    n = len(config)
    occupant_now = {v: i for i, v in enumerate(config)}
    nxt: list[int | None] = [None] * n
    occupied_next: dict[int, int] = {}

    # Pin forced members up front; the PIBT pass plans around them and the
    # final validation rejects configurations the pins made inconsistent.
    for member, target in forced.items():
        if target not in graph.neighbors(config[member]):
            return None
        if target in occupied_next:
            return None
        nxt[member] = target
        occupied_next[target] = member

    adjacency = graph.adjacency
    getrandbits = rng.getrandbits

    def candidates(i: int):
        here = config[i]
        cands = [here]
        cands += [w for w in adjacency[here] if w != here]
        # rng.shuffle(cands), inlined with the same getrandbits draws so
        # rollouts stay identical (tests/test_backup.py pins the draws).
        for k in range(len(cands) - 1, 0, -1):
            n_k = k + 1
            bits = n_k.bit_length()
            j = getrandbits(bits)
            while j >= n_k:
                j = getrandbits(bits)
            cands[k], cands[j] = cands[j], cands[k]
        cands.sort(key=dists[i].__getitem__)
        return iter(cands)

    def pibt(root: int) -> None:
        # Priority inheritance: taking the vertex of an unplanned agent pushes
        # that agent, which plans next; a pushed agent with no vertex left
        # stays put and its pusher tries its next candidate.  One success ends
        # the whole chain.  The stack is explicit because push chains can be
        # longer than Python's recursion limit.
        stack = [(root, candidates(root))]
        while stack:
            i, cands = stack[-1]
            for w in cands:
                if w in occupied_next:
                    continue
                j = occupant_now.get(w)
                if j is not None and j != i and nxt[j] == config[i]:
                    continue  # swap
                nxt[i] = w
                occupied_next[w] = i
                if j is not None and j != i and nxt[j] is None:
                    stack.append((j, candidates(j)))
                    break
                return
            else:
                nxt[i] = config[i]
                occupied_next[config[i]] = i
                stack.pop()

    for member in order:
        if nxt[member] is None:
            pibt(member)

    result = tuple(nxt)  # type: ignore[arg-type]
    for member, target in forced.items():
        if result[member] != target:
            return None
    if len(set(result)) != n:
        return None
    for i in range(n):
        j = occupant_now.get(result[i])
        if j is not None and j != i and result[j] == config[i] and result[i] != config[i]:
            return None  # swap
    return result

