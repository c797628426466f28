"""Machine speed reference for normalising the benchmark's timings.

The benchmark runs on shared virtual machines whose speed changes by up to a
half for tens of seconds at a time, as other tenants come and go.  Wall
times measured in such a phase are slower by about the same factor, so the
run-to-run spread of raw timings is wider than a program change worth
detecting.

`reference_s()` times a fixed computation written here, sharing no code with
`daccbs`, that does what the planner spends its time on: breadth-first
distance fields over a grid held in dicts, and a time-expanded best-first
search with `heapq` and a set of (cell, time) states.  A `Meter` takes a
short reference after every timed interval (a control step, a solve, a
set-up) and gives the factor that takes the interval's wall time to what it
would have been at the speed where the reference takes `NOMINAL_S`.  The
speed is the median of the last few references, so that one reference slowed
by a passing interrupt does not set it.  A change to the program moves a
scaled timing by the factor it moves the raw one, because the reference runs
no program code.
"""

from __future__ import annotations

import heapq
import statistics
from collections import deque
from time import perf_counter

# Median time of one `reference_s()` on a 2-core Intel Xeon virtual machine
# with CPython 3.11 over its usual phases; scaled timings read in that
# machine's ms, and a workload's t_max is a deadline on that machine.
NOMINAL_S = 0.0065
WINDOW = 5

_SIDE = 24
_MOVES = ((0, 1), (1, 0), (0, -1), (-1, 0), (0, 0))
_SEARCH_CAP = 1500


def _grid() -> dict[tuple[int, int], list[tuple[int, int]]]:
    open_cells = {
        (r, c) for r in range(_SIDE) for c in range(_SIDE) if (r * 7 + c * 3) % 11
    }
    return {
        (r, c): [(r + dr, c + dc) for dr, dc in _MOVES if (r + dr, c + dc) in open_cells]
        for r, c in sorted(open_cells)
    }


_ADJ = _grid()
_CELLS = sorted(_ADJ)
_SOURCES = (_CELLS[0], _CELLS[len(_CELLS) // 2])


def _work() -> int:
    expanded = 0
    for i, src in enumerate(_SOURCES):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in _ADJ[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        goal = _CELLS[-1 - i]
        frontier = [(0, 0, src, 0)]
        seen = set()
        while frontier and expanded < _SEARCH_CAP * (i + 1):
            _, g, u, t = heapq.heappop(frontier)
            expanded += 1
            if (u, t) in seen:
                continue
            seen.add((u, t))
            for v in _ADJ[u]:
                if (v, t + 1) not in seen:
                    h = abs(v[0] - goal[0]) + abs(v[1] - goal[1])
                    heapq.heappush(frontier, (g + 1 + h, g + 1, v, t + 1))
    return expanded


def reference_s() -> float:
    """Wall time of the fixed reference computation."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


class Meter:
    """Reference times taken between the timed intervals of one run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.times = [reference_s()] if enabled else []
        self.spent_s = 0.0  # wall time spent on references

    def factor(self) -> float:
        """Current speed factor: nominal time over the measured time."""
        if not self.enabled:
            return 1.0
        return NOMINAL_S / statistics.median(self.times[-WINDOW:])

    def tick(self) -> float:
        """Take a reference; return the speed factor for the interval just ended."""
        if self.enabled:
            t0 = perf_counter()
            self.times.append(reference_s())
            self.spent_s += perf_counter() - t0
        return self.factor()
