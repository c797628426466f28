"""When a search stops.  A search asks its clock before each unit of work
whether it has expired, and then stops with the clock's `reason`."""

from __future__ import annotations

import time


class WallClock:
    """Expires `seconds` of wall time after it is made."""

    reason = "deadline"

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def expired(self, expansions: int) -> bool:
        return time.perf_counter() >= self.end


class WorkClock:
    """Expires once the search has made `expansions` expansions."""

    reason = "cap"

    def __init__(self, expansions: int):
        self.expansions = expansions

    def expired(self, expansions: int) -> bool:
        return expansions >= self.expansions
