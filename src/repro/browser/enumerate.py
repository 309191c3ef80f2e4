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
simultaneously-ready tasks.  :class:`DecisionPrefixScheduler` follows a
recorded decision prefix and falls back to FIFO, logging every choice point; the
enumerator then does DFS over the decision tree, re-running the whole page
per path.  Paths are explored lazily, newest-first, so small pages are
covered exhaustively and big ones sampled breadth-first within budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .scheduler import Scheduler


class DecisionPrefixScheduler(Scheduler):
    """Follows a decision prefix, then FIFO; records all choice points."""

    def __init__(self, decisions: Sequence[int] = ()):
        self.decisions = list(decisions)
        #: (decision_taken, candidate_count) per *branching* choice point.
        self.log: List[Tuple[int, int]] = []
        self._index = 0

    def pick(self, candidates):
        """Follow the decision prefix, then FIFO; log branch points."""
        ordered = sorted(candidates, key=lambda task: task.seq)
        if len(ordered) == 1:
            return ordered[0]
        if self._index < len(self.decisions):
            choice = self.decisions[self._index]
        else:
            choice = 0
        self._index += 1
        choice = min(choice, len(ordered) - 1)
        self.log.append((choice, len(ordered)))
        return ordered[choice]


@dataclass
class ScheduleOutcome:
    """Result of running the page under one decision sequence."""

    decisions: Tuple[int, ...]
    result: Any
    #: (choice, candidate_count) at each branching point of this run.
    log: List[Tuple[int, int]] = field(default_factory=list)


class ScheduleEnumerator:
    """DFS over event-loop decision trees.

    ``run_page(scheduler)`` must build and run a page with the given
    scheduler and return any outcome object (races, crash kinds, final
    DOM state, ...).  Runs must be deterministic apart from the scheduler
    — fix the latency/seed configuration inside the factory.
    """

    def __init__(self, run_page: Callable[[Scheduler], Any], max_runs: int = 200):
        self.run_page = run_page
        self.max_runs = max_runs
        self.outcomes: List[ScheduleOutcome] = []
        self.exhausted = False

    def explore(self) -> List[ScheduleOutcome]:
        """DFS over the decision tree; returns all outcomes found."""
        stack: List[Tuple[int, ...]] = [()]
        seen: set = set()
        self.exhausted = True
        while stack:
            if len(self.outcomes) >= self.max_runs:
                self.exhausted = False
                break
            prefix = stack.pop()
            if prefix in seen:
                continue
            seen.add(prefix)
            scheduler = DecisionPrefixScheduler(prefix)
            result = self.run_page(scheduler)
            outcome = ScheduleOutcome(
                decisions=prefix, result=result, log=list(scheduler.log)
            )
            self.outcomes.append(outcome)
            # Branch on every choice point at/after the prefix where other
            # alternatives exist.
            for depth in range(len(prefix), len(scheduler.log)):
                taken, count = scheduler.log[depth]
                base = list(scheduler.log[i][0] for i in range(depth))
                for alternative in range(count):
                    if alternative == taken:
                        continue
                    candidate = tuple(base + [alternative])
                    if candidate not in seen:
                        stack.append(candidate)
        return self.outcomes

    def distinct_results(self, key: Optional[Callable[[Any], Any]] = None) -> Dict[Any, int]:
        """How many runs gave each outcome (optionally projected through
        ``key``)."""
        histogram: Dict[Any, int] = {}
        for outcome in self.outcomes:
            value = key(outcome.result) if key else outcome.result
            histogram[value] = histogram.get(value, 0) + 1
        return histogram


def enumerate_page_schedules(
    html: str,
    resources: Optional[Dict[str, str]] = None,
    latencies: Optional[Dict[str, float]] = None,
    extract: Optional[Callable[[Any], Any]] = None,
    max_runs: int = 200,
    seed: int = 0,
) -> ScheduleEnumerator:
    """Enumerate interleavings of loading ``html``.

    ``extract(page)`` projects each finished page onto a comparable
    outcome; the default captures (race count, sorted crash kinds).
    """
    from .page import Browser

    def default_extract(page):
        return (
            len(page.races),
            tuple(sorted({crash.kind for crash in page.trace.crashes})),
        )

    extract = extract or default_extract

    def run(scheduler: Scheduler):
        browser = Browser(
            seed=seed,
            scheduler=scheduler,
            resources=dict(resources) if resources else None,
            latencies=dict(latencies) if latencies else None,
            # Ready times become lower bounds: any pending task may run
            # next, so the decision tree covers every delay assignment.
            tie_window=float("inf"),
        )
        page = browser.load(html)
        return extract(page)

    enumerator = ScheduleEnumerator(run, max_runs=max_runs)
    enumerator.explore()
    return enumerator
