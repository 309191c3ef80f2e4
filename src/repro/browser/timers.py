"""setTimeout / setInterval / clearTimeout / clearInterval (Section 3.1).

Timer callbacks are the ``cb(E)`` / ``cbi(E)`` operations of the paper's
model.  The registry remembers, for every pending timer, the operation that
*created* it — that is the source of the rule 16/17 happens-before edges —
and, for intervals, the operation of the previous firing (rule 17's
``cbi ≺ cbi+1`` chain).

``clearTimeout``/``clearInterval`` are implemented (the paper lists their
absence as a limitation of WebRacer's instrumentation, Section 7): a
cleared timer's task is cancelled and never becomes an operation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .event_loop import EventLoop, Task


@dataclass
class TimerEntry:
    """One pending timeout or interval."""

    timer_id: int
    callback: Any  # JS function value (or compiled source)
    delay: float
    repeating: bool
    #: Operation that called setTimeout/setInterval (rule 16/17 source).
    creator_op: int
    #: For intervals: firing count so far and the op id of the last firing.
    fire_count: int = 0
    last_fire_op: Optional[int] = None
    task: Optional[Task] = None
    cancelled: bool = False


class TimerRegistry:
    """Owns all timers of a page."""

    def __init__(self, loop: EventLoop):
        self.loop = loop
        self._ids = itertools.count(1)
        self.entries: Dict[int, TimerEntry] = {}
        #: Guard: intervals fire at most this many times per run, so pages
        #: that poll forever (the Ford pattern) terminate in experiments.
        self.max_interval_fires = 50

    def set_timeout(
        self,
        callback: Any,
        delay: float,
        creator_op: int,
        fire: Callable[[TimerEntry], None],
    ) -> int:
        """Register a one-shot timer; returns its id."""
        entry = TimerEntry(
            timer_id=next(self._ids),
            callback=callback,
            delay=max(delay, 0.0),
            repeating=False,
            creator_op=creator_op,
        )
        self.entries[entry.timer_id] = entry
        entry.task = self.loop.post(
            lambda: self._fire(entry, fire),
            delay=entry.delay,
            kind="timer",
            label=f"setTimeout#{entry.timer_id}",
        )
        return entry.timer_id

    def set_interval(
        self,
        callback: Any,
        delay: float,
        creator_op: int,
        fire: Callable[[TimerEntry], None],
    ) -> int:
        """Register a repeating timer; returns its id."""
        entry = TimerEntry(
            timer_id=next(self._ids),
            callback=callback,
            delay=max(delay, 0.1),
            repeating=True,
            creator_op=creator_op,
        )
        self.entries[entry.timer_id] = entry
        self._schedule_interval(entry, fire)
        return entry.timer_id

    def _schedule_interval(self, entry: TimerEntry, fire) -> None:
        entry.task = self.loop.post(
            lambda: self._fire(entry, fire),
            delay=entry.delay,
            kind="timer",
            label=f"setInterval#{entry.timer_id}[{entry.fire_count}]",
        )

    def _fire(self, entry: TimerEntry, fire) -> None:
        if entry.cancelled:
            return
        fire(entry)
        entry.fire_count += 1
        if entry.repeating and not entry.cancelled:
            if entry.fire_count >= self.max_interval_fires:
                entry.cancelled = True
                self._prune(entry)
                return
            self._schedule_interval(entry, fire)
        else:
            # One-shot fired (or an interval cancelled from its own
            # callback): the entry is dead, drop it from the registry.
            self._prune(entry)

    def clear(self, timer_id: int) -> None:
        """clearTimeout/clearInterval: cancel a pending timer."""
        entry = self.entries.get(timer_id)
        if entry is None:
            return
        entry.cancelled = True
        if entry.task is not None:
            entry.task.cancel()
        self._prune(entry)

    def _prune(self, entry: TimerEntry) -> None:
        """Forget a cleared/exhausted timer.

        Interval-heavy pages (the Ford polling pattern) otherwise grow
        ``entries`` without bound and make :meth:`pending_count` scan ever
        more dead timers.  Ids are never reused (``itertools.count``), so
        pruning cannot resurrect an id for a different timer.  The entry
        also drops its task, whose action holds the entry: the pair would
        otherwise wait for the cycle collector.
        """
        self.entries.pop(entry.timer_id, None)
        entry.task = None

    def clear_all(self) -> None:
        """Forget every timer, fired or not: the page closed."""
        for entry in self.entries.values():
            entry.task = None
        self.entries.clear()

    def pending_count(self) -> int:
        """Number of timers still scheduled to fire."""
        return sum(
            1
            for entry in self.entries.values()
            if not entry.cancelled and entry.task is not None and not entry.task.cancelled
        )
