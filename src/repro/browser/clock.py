"""Virtual clock.

All browser time is virtual: milliseconds advance only when the event loop
moves to a task's ready time.  This gives perfectly reproducible runs (the
paper's nondeterminism is reintroduced deliberately, through seeded network
latencies and the scheduler) and lets a "20ms" ``setTimeout`` race with a
"fast" iframe load without any real-time sleeping — exactly the Fig. 4
scenario.
"""

from __future__ import annotations


class VirtualClock:
    """Monotonic virtual time in milliseconds."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move time forward to ``when`` (never backwards)."""
        if when > self._now:
            self._now = when

    def __repr__(self) -> str:
        return f"VirtualClock({self._now:.3f}ms)"
