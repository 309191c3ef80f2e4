"""Systematic schedule enumeration (bounded exploration).

WebRacer detects races from one observed execution via happens-before.
For *small* pages we can do more: enumerate every interleaving the event
loop could produce (bounded by a run budget) and observe each outcome
directly.  This gives a ground-truth oracle for the detector — if a race
is real, some enumerated schedule exhibits its effect (a crash, a lost
handler, an erased input) — and reproduces the paper's flakiness stories
exhaustively rather than by sampling seeds.

The mechanism: the event loop's only nondeterminism (besides seeded
latencies, which we hold fixed) is the scheduler's pick among
simultaneously-ready tasks.  Each path runs under a
:class:`~repro.browser.scheduler.DecisionScheduler` that follows a pick
prefix and falls back to a FIFO that logs the ready sets it decides; the
enumerator then does DFS over the decision tree, re-running the whole page
per path.  Paths are explored lazily, newest-first, so small pages are
covered exhaustively and big ones sampled breadth-first within budget.
Pages enumerate through :func:`repro.schedule_runner.enumerate_page_schedules`,
the same run path as every explore and predict run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .event_loop import Task
from .scheduler import DecisionScheduler, Scheduler


class _ReadySetLog(Scheduler):
    """FIFO that logs each ready set it decides, as sorted task seqs."""

    def __init__(self):
        self.ready: List[List[int]] = []

    def pick(self, candidates: Sequence[Task]) -> Task:
        ordered = sorted(candidates, key=lambda task: task.seq)
        self.ready.append([task.seq for task in ordered])
        return ordered[0]


@dataclass
class ScheduleOutcome:
    """Result of running the page under one schedule."""

    #: The task seq run at every step; ``DecisionScheduler(follow=picks)``
    #: replays the run strictly.
    picks: Tuple[int, ...]
    result: Any


class ScheduleEnumerator:
    """DFS over event-loop decision trees.

    ``run_page(scheduler)`` must build and run a page with the given
    scheduler and return any outcome object (races, crash kinds, final
    DOM state, ...).  Runs must be deterministic apart from the scheduler
    — fix the latency/seed configuration inside the factory — so a pick
    prefix always replays to the same ready sets.
    """

    def __init__(self, run_page: Callable[[DecisionScheduler], Any], max_runs: int = 200):
        self.run_page = run_page
        self.max_runs = max_runs
        self.outcomes: List[ScheduleOutcome] = []
        self.exhausted = False

    def explore(self) -> List[ScheduleOutcome]:
        """DFS over the decision tree; returns all outcomes found."""
        stack: List[Tuple[int, ...]] = [()]
        self.exhausted = True
        while stack:
            if len(self.outcomes) >= self.max_runs:
                self.exhausted = False
                break
            prefix = stack.pop()
            log = _ReadySetLog()
            scheduler = DecisionScheduler(log, follow=prefix)
            result = self.run_page(scheduler)
            picks = scheduler.picks
            self.outcomes.append(ScheduleOutcome(picks=tuple(picks), result=result))
            # The prefix replays exactly, so the log holds every later step;
            # FIFO ran ready[0] there, and each other ready task opens a new
            # subtree (a path is pushed once: the tree has no shared nodes).
            for step, ready in enumerate(log.ready, start=len(prefix)):
                stack.extend(tuple(picks[:step]) + (seq,) for seq in ready[1:])
        return self.outcomes

    def distinct_results(self, key: Optional[Callable[[Any], Any]] = None) -> Dict[Any, int]:
        """How many runs gave each outcome (optionally projected through
        ``key``)."""
        histogram: Dict[Any, int] = {}
        for outcome in self.outcomes:
            value = key(outcome.result) if key else outcome.result
            histogram[value] = histogram.get(value, 0) + 1
        return histogram
