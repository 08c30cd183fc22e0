"""Wall-clock budget, checked by a `GameStore` whenever it allocates a node."""

from __future__ import annotations

import time

from .errors import TimeBudgetError


class Deadline:
    """Wall-clock budget; check() raises once it has passed. An unset
    Deadline() is "no budget" and never expires."""

    def __init__(self, seconds: float | None = None):
        self.seconds = seconds
        self._end = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        if self._end is not None and time.monotonic() > self._end:
            raise TimeBudgetError(f"time budget of {self.seconds}s exceeded")
