"""Complete backup solver producing conflict-free goal-reaching plans.

LacamBackup.rollout hands back a plan in the certificate's format: for each
agent, its path from its start to its goal with goal waits stripped.  On any
feasible sub-instance the paths are mutually conflict-free (read past its
end, a path waits at its goal); on an infeasible one it raises BackupError.

The solver follows the LaCAM scheme: a lazy depth-first search over joint
configurations whose successors are proposed by a PIBT-style one-step
generator (priority inheritance resolves pushes), with per-agent forced-move
constraints enumerated lazily to retain completeness.  It requires a
symmetric graph.

A PIBT step plans its members in one pass over the priority order.  Each
member planned draws a shuffle of its moves from the rollout's generator and
tries them nearest-to-goal first.  A member that holds its goal, while no
one has claimed that goal, would keep it whatever the shuffle: it makes the
shuffle's draws and nothing else, so every draw, and so every plan, is what
shuffling and sorting would give.

A rollout may be given a `cost_limit`.  Each configuration then carries
g, the off-goal agent-steps along its parent chain, and h, the sum of its
members' goal distances.  f = g + h never decreases along a chain (an
off-goal member adds 1 to g and lowers its distance by at most 1; a member
at its goal adds 0 and its distance can only rise), and at the goal
configuration f is the plan's cost.  So once a configuration with
f >= cost_limit is created, the rollout stops with BackupError, and paths it
does return cost less than the limit.

A rollout may also be given a clock, asked before every PIBT step.  Once it
has expired, the rollout stops with BackupError, as at a cost cut-off: a
caller that keeps an incumbent plan loses nothing but the candidate.  The
asks draw nothing, so a rollout that returns gives the unclocked result.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from operator import getitem, ne

from .clock import WallClock, WorkClock
from .grid import INF, Graph, MapfInstance, is_symmetric
from .trajectory import strip_goal_waits

Configuration = tuple[int, ...]


class BackupError(RuntimeError):
    """Backup failure: unsupported graph class or infeasible sub-instance."""


class BackupDefect(RuntimeError):
    """Internal defect: the iteration cap or the makespan cap was exceeded."""


@dataclass
class _HighNode:
    config: Configuration
    parent: "_HighNode | None"
    order: tuple[int, ...]  # member indices, highest priority first
    elevation: tuple[int, ...]
    g: int  # off-goal agent-steps along the parent chain
    off: int  # members off their goals in `config`
    # Lazily enumerated low-level constraints, each a tuple of (member,
    # vertex) pins: the first len(low) members in `order` are pinned.
    tree: deque = field(default_factory=lambda: deque([()]))


class LacamBackup:
    """Lazy configuration-tree search with priority-inheritance successors."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def rollout(
        self,
        instance: MapfInstance,
        agents: tuple[int, ...],
        start: Configuration,
        cost_limit: int | None = None,
        clock: WallClock | WorkClock | None = None,
    ) -> dict[int, tuple[int, ...]]:
        """Conflict-free paths for `agents` from `start` to their goals, goal
        waits stripped, keyed by agent in the order of `agents`.

        `start` holds one vertex per member of `agents`, pairwise distinct.
        With a `cost_limit`, a rollout may raise BackupError instead of
        returning paths that cost (in off-goal agent-steps) at least the
        limit; paths it does return cost less than the limit.  The root and
        every configuration created are then priced, and the rollout raises
        BackupError at the first whose f = g + h reaches the limit.  Until
        then it draws and explores exactly as an unlimited rollout does, so a
        limited rollout that returns gives the unlimited result.  The cut-off
        is exact unless LaCAM revisits a configuration after the bound is
        crossed: the unlimited search could then still reach the goals along
        a chain that avoids the crossing configuration, and the limited one
        drops that tail.  Dropping a tail is always safe for a caller that
        keeps an incumbent plan.

        With a `clock`, the rollout asks it before every PIBT step, with no
        expansions, and raises BackupError once it has expired, as at the
        cost limit.  Asking draws nothing, so a rollout whose clock never
        expires returns the unclocked result.
        """
        graph = instance.graph
        if not is_symmetric(graph):
            raise BackupError("LaCAM requires a symmetric graph")
        n = len(agents)
        if n == 0:
            return {}
        if len(set(start)) != n:
            raise BackupError("start configuration has coinciding agents")
        goals = tuple(instance.goals[a] for a in agents)
        dists = [instance.gammas[a].values for a in agents]
        for i, v in enumerate(start):
            if dists[i][v] >= INF:
                raise BackupError(f"agent {agents[i]} cannot reach its goal from {v}")
        moves = graph.moves
        rng = random.Random(self.seed)
        makespan_cap = graph.vertex_count * n * 4
        iteration_cap = max(makespan_cap * 8 + 1000, 2_000_000)
        limited = cost_limit is not None
        if limited and sum(map(getitem, dists, start)) >= cost_limit:
            raise BackupError(f"rollout reached its cost limit {cost_limit}")

        # Highest elevation first, then larger initial gamma, then lower id.
        # The last two keys are fixed for the rollout; each node sorts this
        # order by elevation, and the stable sort keeps ties in it.
        by_gamma = sorted(range(n), key=lambda i: (-dists[i][start[i]], i))

        def make_order(elevation: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(sorted(by_gamma, key=elevation.__getitem__, reverse=True))

        root = _HighNode(start, None, tuple(by_gamma), (0,) * n, 0, sum(map(ne, start, goals)))
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
            if clock is not None and clock.expired(0):
                raise BackupError("rollout ran out of time")
            low = node.tree.popleft()
            if len(low) < n:
                member = node.order[len(low)]
                for u in moves[node.config[member]]:
                    node.tree.append(low + ((member, u),))
            forced = dict(low)
            config = _pibt_step(graph, node.config, node.order, dists, forced, rng)
            if config is None:
                continue
            known = explored.get(config)
            if known is not None:
                stack.append(known)
                continue
            g = node.g + node.off
            if limited and g + sum(map(getitem, dists, config)) >= cost_limit:
                raise BackupError(f"rollout reached its cost limit {cost_limit}")
            elevation = tuple(
                [0 if v == goal else e + 1 for v, goal, e in zip(config, goals, node.elevation)]
            )
            child = _HighNode(
                config, node, make_order(elevation), elevation, g, n - elevation.count(0)
            )
            explored[config] = child
            stack.append(child)
        # LaCAM is complete: an exhausted tree proves the sub-instance infeasible.
        raise BackupError("LaCAM exhausted its search tree: no conflict-free plan exists")

    def _backtrack(
        self, node: _HighNode, agents: tuple[int, ...], makespan_cap: int
    ) -> dict[int, tuple[int, ...]]:
        configs: list[Configuration] = []
        cur: _HighNode | None = node
        while cur is not None:
            configs.append(cur.config)
            cur = cur.parent
        configs.reverse()
        if len(configs) - 1 > makespan_cap:
            raise BackupDefect(f"rollout makespan exceeds safety cap {makespan_cap}")
        # Built from a list, each path tuple is allocated at its final size.
        # tuple(<generator>) starts from a 10-slot tuple and resizes it, so
        # freed paths would pile up on the free lists of sizes that such
        # builds never draw from.
        return {
            a: strip_goal_waits(tuple([cfg[i] for cfg in configs]))
            for i, a in enumerate(agents)
        }


# _SHUFFLE_STEPS[m] holds random.Random.shuffle's (k, k + 1, bit length of
# k + 1) triples for a list of m items, in the order it draws them; rows
# are added on first use.
_SHUFFLE_STEPS: list[tuple[tuple[int, int, int], ...]] = []


def _shuffle_steps(m: int) -> tuple[tuple[int, int, int], ...]:
    while len(_SHUFFLE_STEPS) <= m:
        size = len(_SHUFFLE_STEPS)
        _SHUFFLE_STEPS.append(
            tuple((k, k + 1, (k + 1).bit_length()) for k in range(size - 1, 0, -1))
        )
    return _SHUFFLE_STEPS[m]


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
    occupant_now = dict(zip(config, range(n)))
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

    moves = graph.moves
    getrandbits = rng.getrandbits

    def shuffle(m: int, cands: list[int] | None) -> None:
        # rng.shuffle(cands) of m items, inlined with the same getrandbits
        # draws so rollouts stay identical (tests/test_backup.py pins the
        # draws).  With no list, only the draws are made.
        try:
            steps = _SHUFFLE_STEPS[m]
        except IndexError:
            steps = _shuffle_steps(m)
        for k, n_k, bits in steps:
            j = getrandbits(bits)
            while j >= n_k:
                j = getrandbits(bits)
            if cands is not None:
                cands[k], cands[j] = cands[j], cands[k]

    def candidates(i: int):
        cands = list(moves[config[i]])
        shuffle(len(cands), cands)
        cands.sort(key=dists[i].__getitem__)
        return iter(cands)

    for root in order:
        if nxt[root] is not None:
            continue
        here = config[root]
        if dists[root][here] == 0 and here not in occupied_next:
            # The goal is the member's one candidate at distance 0, so it
            # sorts first, and nobody has claimed it: the member takes it.
            # Only the shuffle's draws are made, so later draws are unchanged.
            shuffle(len(moves[here]), None)
            nxt[root] = here
            occupied_next[here] = root
            continue
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
                else:
                    stack.clear()
                break
            else:
                nxt[i] = config[i]
                occupied_next[config[i]] = i
                stack.pop()

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

