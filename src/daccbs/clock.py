"""When a search stops.  A search asks its clock before each unit of work
whether it has expired, telling it how many expansions it has made and how
many nodes it holds, and then stops with the clock's `reason`."""

from __future__ import annotations

import time
from copy import copy


class WallClock:
    """Expires `seconds` of wall time after it is made.

    A clock narrowed `within` an earlier end also keeps back the time to
    free the nodes a search holds, so that the search has stopped and freed
    them by that end.  `expired_at` is when it last said it had expired."""

    reason = "deadline"
    free_s = 0.0  # the time to free one node the search holds
    expired_at: float | None = None

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def expired(self, expansions: int, held: int = 0) -> bool:
        now = time.perf_counter()
        if now + held * self.free_s < self.end:
            return False
        self.expired_at = now
        return True

    def within(self, end: float, free_s: float) -> WallClock:
        """A clock that expires at the earlier of this clock's end and the
        perf_counter time `end`, less `free_s` for every node held."""
        clock = copy(self)
        clock.end = min(self.end, end)
        clock.free_s = free_s
        return clock


class WorkClock:
    """Expires once the search has made `expansions` expansions."""

    reason = "cap"

    def __init__(self, expansions: int):
        self.expansions = expansions

    def expired(self, expansions: int, held: int = 0) -> bool:
        return expansions >= self.expansions

    def within(self, end: float, free_s: float) -> WorkClock:
        """This clock: the work it allows does not depend on the time."""
        return self
