"""Single-threaded event loop over virtual time.

Browsers interleave HTML parsing and script execution in one thread
(paper, Section 2.1); so does this loop.  Work is modelled as
:class:`Task` objects with a virtual ``ready_time``; the loop repeatedly
takes the set of tasks with the earliest ready time, lets the scheduler
pick one, advances the clock, and runs it to completion (operations are
atomic — a task is never preempted).

Task ``kind`` strings ("parse", "timer", "network", "user", "dispatch")
exist for the :class:`~repro.browser.scheduler.AdversarialScheduler` and
for debugging; the loop itself treats all kinds identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .clock import VirtualClock
from ..obs import NULL

#: Ready times closer than this are considered simultaneous, widening the
#: scheduler's choice set (models jitter in a real browser's queues).
TIE_EPSILON = 1e-9


class ScheduleDivergence(RuntimeError):
    """A replayed schedule no longer matches the run it was recorded from.

    Raised when a replaying scheduler asks for a task that is not among
    the loop's current candidates (or when a scheduler returns a task the
    loop never offered).  Bit-for-bit replay treats this as a hard error:
    a diverged replay silently produces a different execution, which is
    exactly what record/replay exists to rule out.
    """


@dataclass(eq=False)
class Task:
    """A unit of work for the event loop.

    Tasks compare by identity: ``seq`` is unique, so no two tasks are
    ever equal by value, and the loop's ``list.remove`` finds the chosen
    task without calling a field-by-field ``__eq__`` on each task ahead
    of it.
    """

    action: Callable[[], None]
    ready_time: float
    kind: str = "task"
    label: str = ""
    seq: int = field(default=0)
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the task so the loop skips it."""
        self.cancelled = True

    def __repr__(self) -> str:
        return f"Task({self.kind}:{self.label} @{self.ready_time:.1f}ms)"


class EventLoop:
    """The browser's single thread."""

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        scheduler=None,
        tie_window: float = TIE_EPSILON,
        obs=None,
    ):
        from .scheduler import FifoScheduler  # avoid import cycle

        self.clock = clock if clock is not None else VirtualClock()
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()
        self.obs = obs if obs is not None else NULL
        #: Tasks whose ready times fall within this window of the earliest
        #: are offered to the scheduler together.  The default models exact
        #: simultaneity; ``float("inf")`` offers *every* pending task —
        #: ready times become lower bounds, which is the right semantics
        #: for exhaustive schedule enumeration under unbounded delays.
        self.tie_window = tie_window
        self._tasks: List[Task] = []
        self._seq = itertools.count()
        self.executed_count = 0
        #: Picks where the scheduler genuinely had a choice (>1 candidate).
        #: This is the size of the schedule space the run actually explored
        #: — the number a schedule-exploration matrix wants to maximize.
        self.choice_points = 0
        #: Guard against runaway pages (interval loops never stop otherwise).
        self.max_tasks = 1_000_000

    # ------------------------------------------------------------------

    def post(
        self,
        action: Callable[[], None],
        delay: float = 0.0,
        kind: str = "task",
        label: str = "",
    ) -> Task:
        """Enqueue ``action`` to run ``delay`` virtual ms from now."""
        task = Task(
            action=action,
            ready_time=self.clock.now + max(delay, 0.0),
            kind=kind,
            label=label,
            seq=next(self._seq),
        )
        self._tasks.append(task)
        return task

    def pending(self) -> int:
        """Number of live (uncancelled) tasks in the queue."""
        return sum(1 for task in self._tasks if not task.cancelled)

    def has_pending(self, kind: Optional[str] = None) -> bool:
        """Any live task (optionally of the given kind)?"""
        return any(
            not task.cancelled and (kind is None or task.kind == kind)
            for task in self._tasks
        )

    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Run one task; returns False when the queue is empty."""
        live = [task for task in self._tasks if not task.cancelled]
        if not live:
            self._tasks.clear()
            return False
        if len(live) < len(self._tasks):
            # Prune cancelled tasks opportunistically: a cancelled task can
            # never run, and keeping it until the queue drains makes every
            # step an O(live+dead) scan on interval-heavy pages.
            self._tasks = live
        earliest = min(task.ready_time for task in live)
        candidates = [
            task for task in live if task.ready_time <= earliest + self.tie_window
        ]
        if len(candidates) > 1:
            self.choice_points += 1
            if self.obs.enabled:
                self.obs.count("loop.choice_points")
        chosen = self.scheduler.pick(candidates)
        if not any(chosen is task for task in candidates):
            raise ScheduleDivergence(
                f"scheduler picked {chosen!r}, which is not among the "
                f"{len(candidates)} ready candidate(s)"
            )
        self._tasks.remove(chosen)
        self.clock.advance_to(chosen.ready_time)
        self.executed_count += 1
        if self.obs.enabled:
            self.obs.count("loop.task." + chosen.kind)
            with self.obs.span(
                "task." + chosen.kind,
                cat="loop",
                label=chosen.label,
                vtime_ms=chosen.ready_time,
            ):
                chosen.action()
        else:
            chosen.action()
        return True

    def run(self, until: Optional[Callable[[], bool]] = None) -> int:
        """Drain the queue (or stop when ``until()`` turns true).

        Returns the number of tasks executed.  Raises ``RuntimeError`` if
        ``max_tasks`` is exceeded — pages with unbounded ``setInterval``
        loops must be stopped by their harness instead.
        """
        executed = 0
        while True:
            if until is not None and until():
                return executed
            if not self.step():
                return executed
            executed += 1
            if executed > self.max_tasks:
                raise RuntimeError(
                    f"event loop exceeded {self.max_tasks} tasks; runaway page?"
                )

    def run_for(self, duration: float) -> int:
        """Run tasks whose ready time falls within the next ``duration`` ms."""
        deadline = self.clock.now + duration

        def past_deadline() -> bool:
            live = [task for task in self._tasks if not task.cancelled]
            if not live:
                return True
            return min(task.ready_time for task in live) > deadline

        return self.run(until=past_deadline)
