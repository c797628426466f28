"""When a search stops.  A search asks its clock before each unit of work
whether it has expired, telling it how many expansions it has made and how
many nodes it holds, and then stops with the clock's `reason`."""

from __future__ import annotations

import math
import time


class WallClock:
    """Expires `seconds` of wall time after it is made, or at the
    perf_counter time `stop` if that is earlier.

    One clock per group: a group's repair, search and candidates' rollouts
    ask the same object, made once and never copied.  It keeps back
    `free_s` for every node the asker holds, so that a search has stopped
    and freed its nodes by the end; asks that hold none get the plain end.
    `expired_at` is when it last said it had expired."""

    reason = "deadline"
    expired_at: float | None = None

    def __init__(self, seconds: float, stop: float = math.inf, free_s: float = 0.0):
        self.end = min(time.perf_counter() + seconds, stop)
        self.free_s = free_s  # the time to free one node the search holds

    def expired(self, expansions: int, held: int = 0) -> bool:
        now = time.perf_counter()
        if now + held * self.free_s < self.end:
            return False
        self.expired_at = now
        return True


class WorkClock:
    """Expires once the search has made `expansions` expansions."""

    reason = "cap"

    def __init__(self, expansions: int):
        self.expansions = expansions

    def expired(self, expansions: int, held: int = 0) -> bool:
        return expansions >= self.expansions
