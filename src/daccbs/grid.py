"""Graph and instance representation, BFS distance fields, MovingAI file ingestion.

Graphs are directed and reflexive: every vertex carries a self-loop so that
waiting is an ordinary move.  Grid maps produce 4-connected symmetric graphs
with vertex ids assigned row-major over passable cells.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

# Sentinel for "unreachable"; all arithmetic with it must saturate.
INF = 1 << 30

PASSABLE_CELLS = frozenset(".GS")
BLOCKED_CELLS = frozenset("@OTW")


def sat_add(a: int, b: int) -> int:
    """Saturating addition over nonnegative costs with the INF sentinel."""
    if a >= INF or b >= INF:
        return INF
    return a + b


class MapFormatError(ValueError):
    """Malformed .map or .scen input; message carries the offending line."""


class InstanceError(ValueError):
    """Instance violates its invariants (duplicates, unreachable goal, ...)."""


class InfeasibleInstanceError(RuntimeError):
    """The instance has no conflict-free solution from the given state."""


@dataclass(frozen=True)
class Graph:
    """Directed reflexive graph; immutable after construction.

    adjacency[v] is the sorted tuple of out-neighbors of v and always
    contains v itself.  For grid-derived graphs, coords[v] = (row, col)
    and height/width record the grid dimensions.  The in-neighbors
    (`reverse`) and the move lists (`moves`) are built on first use, not at
    construction, so `validate` still reports a malformed adjacency with its
    own error.
    """

    adjacency: tuple[tuple[int, ...], ...]
    coords: tuple[tuple[int, int], ...] | None = None
    height: int | None = None
    width: int | None = None

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @cached_property
    def reverse(self) -> tuple[tuple[int, ...], ...]:
        """reverse[v] is the sorted tuple of in-neighbors of v (v included).

        When the graph is symmetric this is the `adjacency` object itself.
        """
        incoming: list[list[int]] = [[] for _ in self.adjacency]
        for u, nbrs in enumerate(self.adjacency):
            for w in nbrs:
                incoming[w].append(u)
        if all(set(ins) == set(outs) for ins, outs in zip(incoming, self.adjacency)):
            return self.adjacency
        return tuple(map(tuple, incoming))

    @cached_property
    def moves(self) -> tuple[tuple[int, ...], ...]:
        """moves[v] is v followed by its other out-neighbors in sorted order:
        the order in which the backup lists an agent's next vertices."""
        return tuple((v, *(w for w in nbrs if w != v)) for v, nbrs in enumerate(self.adjacency))

    def validate(self) -> None:
        n = self.vertex_count
        for v, nbrs in enumerate(self.adjacency):
            if nbrs.count(v) != 1:
                raise InstanceError(f"vertex {v} must appear exactly once in its own adjacency")
            for w in nbrs:
                if not 0 <= w < n:
                    raise InstanceError(f"vertex {v} has out-of-range neighbor {w}")


def is_symmetric(graph: Graph) -> bool:
    """True iff u in adj(v) implies v in adj(u)."""
    return graph.reverse is graph.adjacency


@dataclass(frozen=True)
class DistanceField:
    """Per-vertex shortest-path lengths toward one anchor vertex
    (goal_distance_field).  Unreachable vertices hold INF.
    """

    anchor: int
    values: tuple[int, ...]

    def __getitem__(self, v: int) -> int:
        return self.values[v]


def _bfs(adjacency: tuple[tuple[int, ...], ...], source: int) -> tuple[int, ...]:
    dist = [INF] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for w in adjacency[v]:
            if dist[w] == INF:
                dist[w] = dv + 1
                queue.append(w)
    return tuple(dist)


def goal_distance_field(graph: Graph, goal: int) -> DistanceField:
    """Shortest-path lengths *to* goal, i.e. BFS over reversed edges."""
    if not 0 <= goal < graph.vertex_count:
        raise InstanceError(f"goal vertex {goal} out of range")
    return DistanceField(goal, _bfs(graph.reverse, goal))


@dataclass(frozen=True)
class MapfInstance:
    """Immutable problem statement: graph plus per-agent starts and goals.

    Construction validates distinctness and goal reachability and precomputes
    one to-goal distance field per agent (gammas).
    """

    graph: Graph
    starts: tuple[int, ...]
    goals: tuple[int, ...]
    gammas: tuple[DistanceField, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.graph.vertex_count
        if len(self.starts) != len(self.goals):
            raise InstanceError("starts and goals must have the same length")
        for label, seq in (("start", self.starts), ("goal", self.goals)):
            for i, v in enumerate(seq):
                if not 0 <= v < n:
                    raise InstanceError(f"agent {i}: {label} vertex {v} out of range")
            if len(set(seq)) != len(seq):
                raise InstanceError(f"{label}s must be pairwise distinct")
        gammas = tuple(goal_distance_field(self.graph, g) for g in self.goals)
        object.__setattr__(self, "gammas", gammas)
        for i, (s, gamma) in enumerate(zip(self.starts, gammas)):
            if gamma[s] >= INF:
                raise InstanceError(f"agent {i}: goal unreachable from start {s}")

    @property
    def n_agents(self) -> int:
        return len(self.starts)


def parse_map(text: str) -> Graph:
    """Parse a MovingAI .map character stream into a Graph.

    Passable cells (., G, S) become vertices; blocked cells (@, O, T, W) do
    not.  Edges are 4-connected plus one self-loop per vertex; vertex ids are
    row-major over passable cells.
    """
    lines = text.splitlines()

    def header(idx: int, key: str) -> str:
        if idx >= len(lines):
            raise MapFormatError(f"line {idx + 1}: missing '{key}' header line")
        parts = lines[idx].split()
        if not parts or parts[0] != key:
            raise MapFormatError(f"line {idx + 1}: expected '{key}', got {lines[idx]!r}")
        return parts[1] if len(parts) > 1 else ""

    header(0, "type")
    try:
        height = int(header(1, "height"))
        width = int(header(2, "width"))
    except ValueError as exc:
        raise MapFormatError(f"non-integer map dimensions: {exc}") from exc
    header(3, "map")
    if height < 0 or width < 0:
        raise MapFormatError("map dimensions must be nonnegative")
    if len(lines) < 4 + height:
        raise MapFormatError(f"expected {height} map rows, found {len(lines) - 4}")

    passable = [[False] * width for _ in range(height)]
    for r in range(height):
        row = lines[4 + r]
        if len(row) != width:
            raise MapFormatError(f"line {5 + r}: row length {len(row)} != width {width}")
        for c, cell in enumerate(row):
            if cell in PASSABLE_CELLS:
                passable[r][c] = True
            elif cell not in BLOCKED_CELLS:
                raise MapFormatError(f"line {5 + r}: unknown cell character {cell!r}")

    ids: dict[tuple[int, int], int] = {}
    coords: list[tuple[int, int]] = []
    for r in range(height):
        for c in range(width):
            if passable[r][c]:
                ids[(r, c)] = len(coords)
                coords.append((r, c))

    adjacency: list[tuple[int, ...]] = []
    for r, c in coords:
        v = ids[(r, c)]
        nbrs = [v]
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            rc = (r + dr, c + dc)
            if rc in ids:
                nbrs.append(ids[rc])
        adjacency.append(tuple(sorted(nbrs)))

    graph = Graph(tuple(adjacency), tuple(coords), height, width)
    graph.validate()
    return graph


def parse_scenario(text: str, graph: Graph, count: int) -> MapfInstance:
    """Parse a MovingAI .scen stream into an instance over the given graph.

    The first `count` rows become agents in row order.  Scenario (x, y)
    columns map to grid (col, row).
    """
    if graph.coords is None:
        raise MapFormatError("scenario parsing requires a grid-derived graph")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("version"):
        raise MapFormatError("line 1: expected 'version' header")
    version = lines[0].split()
    if len(version) != 2 or version[1] != "1":
        raise MapFormatError(f"line 1: unsupported scenario version {lines[0]!r}")
    rows = lines[1:]
    if count > len(rows):
        raise MapFormatError(f"requested {count} agents but scenario has {len(rows)} rows")

    cell_ids = {rc: v for v, rc in enumerate(graph.coords)}
    starts: list[int] = []
    goals: list[int] = []
    for i in range(count):
        fields = rows[i].split("\t")
        if len(fields) == 1:
            fields = rows[i].split()
        if len(fields) != 9:
            raise MapFormatError(f"scenario row {i}: expected 9 fields, got {len(fields)}")
        try:
            w, h = int(fields[2]), int(fields[3])
            sx, sy, gx, gy = (int(f) for f in fields[4:8])
        except ValueError as exc:
            raise MapFormatError(f"scenario row {i}: non-integer field: {exc}") from exc
        if (w, h) != (graph.width, graph.height):
            raise MapFormatError(
                f"scenario row {i}: dimensions {w}x{h} disagree with map "
                f"{graph.width}x{graph.height}"
            )
        start = cell_ids.get((sy, sx))
        goal = cell_ids.get((gy, gx))
        if start is None:
            raise MapFormatError(f"scenario row {i}: start ({sx}, {sy}) is not passable")
        if goal is None:
            raise MapFormatError(f"scenario row {i}: goal ({gx}, {gy}) is not passable")
        starts.append(start)
        goals.append(goal)

    try:
        return MapfInstance(graph, tuple(starts), tuple(goals))
    except InstanceError as exc:
        raise MapFormatError(f"scenario rejected: {exc}") from exc


def load_map(path: str | Path) -> Graph:
    return parse_map(Path(path).read_text())


def load_scenario(path: str | Path, graph: Graph, count: int) -> MapfInstance:
    return parse_scenario(Path(path).read_text(), graph, count)
