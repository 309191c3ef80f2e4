"""Task schedulers — the event loop's tie-breaking policy.

Real browsers' event ordering varies with network bandwidth, CPU speed and
user timing (paper, Section 2.1).  In the simulator that nondeterminism has
two sources: seeded network latencies (which decide *when* tasks become
ready) and the scheduler (which decides *which* of several equally-ready
tasks runs first).  Three policies are provided:

* :class:`FifoScheduler` — deterministic enqueue order; the "everything is
  fast and orderly" browser.
* :class:`SeededRandomScheduler` — uniformly random among the ready set,
  from an explicit seed; different seeds explore different interleavings of
  the same page.
* :class:`AdversarialScheduler` — prefers task kinds by a priority list,
  e.g. run user events and timers before parser steps to force the
  partial-page-rendering interleavings that expose races.

On top of the policies sits **record/replay**: wrapping any policy in a
:class:`RecordingScheduler` captures the exact sequence of task ``seq``
picks as a :class:`ScheduleTrace` (JSON-serializable), and a
:class:`ReplayScheduler` over that trace reproduces the run bit-for-bit —
same operation stream, same races, same fingerprints.  A
:class:`DivergenceScheduler` replays only a *subset* of a trace's
divergences from FIFO order, which is the substrate schedule minimization
(ddmin) is built on (:mod:`repro.schedule_runner`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set

from .event_loop import ScheduleDivergence, Task

#: JSON format tag for serialized schedule traces.
SCHEDULE_TRACE_FORMAT = "webracer-schedule-trace"
SCHEDULE_TRACE_VERSION = 1


def derive_page_seed(seed: int, page_index: int) -> int:
    """Mix a base schedule seed with a page index, position-independently.

    Site K's schedule must depend on ``(seed, K)`` alone — never on how
    many tasks sites ``0..K-1`` happened to run (the same invariant the
    per-Browser allocation-id reset establishes for evidence).  A simple
    odd-multiplier mix keeps distinct ``(seed, index)`` pairs distinct
    without pulling in hashlib for a hot, tiny computation.
    """
    return (seed * 0x9E3779B1 + page_index * 0x85EBCA77 + 1) & 0x7FFFFFFF


class Scheduler:
    """Strategy interface: pick one task from the ready candidates."""

    def pick(self, candidates: Sequence[Task]) -> Task:
        """Choose which of the equally-ready tasks runs next."""
        raise NotImplementedError


class FifoScheduler(Scheduler):
    """First-enqueued first-run among equally-ready tasks."""

    def pick(self, candidates: Sequence[Task]) -> Task:
        """Pick the earliest-enqueued candidate."""
        return min(candidates, key=lambda task: task.seq)


class SeededRandomScheduler(Scheduler):
    """Uniform random choice from an explicit seed."""

    def __init__(self, seed: int = 0, rng: Optional[random.Random] = None):
        self.seed = seed
        self.rng = rng if rng is not None else random.Random(seed)

    def pick(self, candidates: Sequence[Task]) -> Task:
        """Pick uniformly at random from the candidates."""
        return self.rng.choice(list(candidates))


class AdversarialScheduler(Scheduler):
    """Prefer task kinds in a given order; FIFO within a kind.

    The default priority runs user events first, then timers, network
    completions, and parser steps last — maximally delaying page
    construction relative to everything else, which is the interleaving
    that makes HTML/function races bite.
    """

    DEFAULT_PRIORITY: List[str] = ["user", "timer", "network", "dispatch", "parse"]

    def __init__(self, priority: Optional[List[str]] = None):
        self.priority = list(priority) if priority is not None else list(self.DEFAULT_PRIORITY)

    def _rank(self, task: Task) -> int:
        try:
            return self.priority.index(task.kind)
        except ValueError:
            return len(self.priority)

    def pick(self, candidates: Sequence[Task]) -> Task:
        """Pick by kind priority, FIFO within a kind."""
        return min(candidates, key=lambda task: (self._rank(task), task.seq))


# ----------------------------------------------------------------------
# record / replay


@dataclass
class ScheduleTrace:
    """The complete scheduling decision record of one event-loop run.

    ``picks`` holds the ``seq`` of the task chosen at *every* loop step,
    in execution order; ``divergences`` indexes the steps where that
    choice differed from the FIFO choice (the minimum-``seq`` candidate).
    Together with the page's fixed inputs (html, resources, latency seed,
    tie window) the pick list determines the run completely, so a
    :class:`ReplayScheduler` over it reproduces the original execution
    bit-for-bit.
    """

    policy: str = "fifo"
    seed: Optional[int] = None
    page: str = ""
    tie_window: Optional[float] = None
    picks: List[int] = field(default_factory=list)
    divergences: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.picks)

    def to_dict(self) -> dict:
        """JSON-able representation (``inf`` tie windows stringified)."""
        tie: Optional[object] = self.tie_window
        if tie is not None and tie == float("inf"):
            tie = "inf"
        return {
            "format": SCHEDULE_TRACE_FORMAT,
            "version": SCHEDULE_TRACE_VERSION,
            "policy": self.policy,
            "seed": self.seed,
            "page": self.page,
            "tie_window": tie,
            "picks": list(self.picks),
            "divergences": list(self.divergences),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScheduleTrace":
        """Parse a trace dict; raises ``ValueError`` on foreign payloads."""
        if payload.get("format") != SCHEDULE_TRACE_FORMAT:
            raise ValueError(
                f"not a schedule trace: format {payload.get('format')!r}"
            )
        if payload.get("version") != SCHEDULE_TRACE_VERSION:
            raise ValueError(
                f"unsupported schedule trace version {payload.get('version')!r}"
            )
        tie = payload.get("tie_window")
        if tie == "inf":
            tie = float("inf")
        return cls(
            policy=payload.get("policy", "fifo"),
            seed=payload.get("seed"),
            page=payload.get("page", ""),
            tie_window=tie,
            picks=[int(seq) for seq in payload.get("picks", [])],
            divergences=[int(i) for i in payload.get("divergences", [])],
        )

    def to_json(self) -> str:
        """Serialize to a compact deterministic JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleTrace":
        """Parse a trace from its JSON string."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the trace as JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "ScheduleTrace":
        """Load a trace written by :meth:`save`."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


class RecordingScheduler(Scheduler):
    """Wrap any policy and record every pick into a :class:`ScheduleTrace`.

    Recording is pure observation — the inner policy makes every decision
    — so a recorded run is byte-identical to an unrecorded one.
    """

    def __init__(self, inner: Scheduler):
        self.inner = inner
        self.picks: List[int] = []
        self.divergences: List[int] = []

    def pick(self, candidates: Sequence[Task]) -> Task:
        """Delegate to the inner policy; log the chosen ``seq``."""
        chosen = self.inner.pick(candidates)
        if len(candidates) > 1:
            fifo_seq = min(task.seq for task in candidates)
            if chosen.seq != fifo_seq:
                self.divergences.append(len(self.picks))
        self.picks.append(chosen.seq)
        return chosen

    def trace(
        self,
        policy: str = "",
        seed: Optional[int] = None,
        page: str = "",
        tie_window: Optional[float] = None,
    ) -> ScheduleTrace:
        """Package the recorded picks as a :class:`ScheduleTrace`."""
        return ScheduleTrace(
            policy=policy or type(self.inner).__name__,
            seed=seed,
            page=page,
            tie_window=tie_window,
            picks=list(self.picks),
            divergences=list(self.divergences),
        )


class ReplayScheduler(Scheduler):
    """Replay a recorded :class:`ScheduleTrace` bit-for-bit.

    At every loop step the scheduler picks the task whose ``seq`` the
    trace recorded for that step.  Any mismatch — the recorded task is
    not among the candidates, or the trace runs out while tasks remain —
    raises :class:`~repro.browser.event_loop.ScheduleDivergence`: replay
    must reproduce the original run exactly or fail loudly, never settle
    for a silently different execution.
    """

    def __init__(self, trace: ScheduleTrace):
        self.trace = trace
        self._index = 0

    def pick(self, candidates: Sequence[Task]) -> Task:
        """Pick the recorded task for this step, or diverge."""
        if self._index >= len(self.trace.picks):
            raise ScheduleDivergence(
                f"schedule trace exhausted after {self._index} picks but "
                f"{len(candidates)} task(s) are still ready"
            )
        want = self.trace.picks[self._index]
        self._index += 1
        for task in candidates:
            if task.seq == want:
                return task
        raise ScheduleDivergence(
            f"pick #{self._index - 1} wants task seq {want}, not among the "
            f"{len(candidates)} ready candidate(s) "
            f"{sorted(task.seq for task in candidates)}"
        )


class DivergenceScheduler(Scheduler):
    """Replay only a subset of a trace's divergences; FIFO everywhere else.

    This is the test harness of schedule minimization (ddmin): each
    candidate subset of the recorded FIFO-divergences is applied as "at
    step *i*, prefer the recorded task if it is ready", with graceful
    FIFO fallback when dropping earlier divergences has shifted the
    execution so the recorded ``seq`` is absent.  Unlike
    :class:`ReplayScheduler` this is deliberately tolerant — ground truth
    is re-established by re-running the detector on the result, not by
    trusting the trace.
    """

    def __init__(self, trace: ScheduleTrace, keep: Iterable[int] = ()):
        self.trace = trace
        self.keep: Set[int] = set(keep)
        self._index = 0
        #: Divergence indices that actually bound to a ready task.
        self.applied: List[int] = []

    def pick(self, candidates: Sequence[Task]) -> Task:
        """Recorded pick at kept divergence steps, FIFO otherwise."""
        step = self._index
        self._index += 1
        if step in self.keep and step < len(self.trace.picks):
            want = self.trace.picks[step]
            for task in candidates:
                if task.seq == want:
                    self.applied.append(step)
                    return task
        return min(candidates, key=lambda task: task.seq)


def make_scheduler(policy: str = "fifo", seed: int = 0) -> Scheduler:
    """Factory: ``"fifo"``, ``"random"``, or ``"adversarial"``."""
    if policy == "fifo":
        return FifoScheduler()
    if policy == "random":
        return SeededRandomScheduler(seed)
    if policy == "adversarial":
        return AdversarialScheduler()
    raise ValueError(f"unknown scheduler policy {policy!r}")


#: Policies `make_scheduler` accepts (the CLI's `--scheduler` choices).
SCHEDULER_POLICIES = ("fifo", "random", "adversarial")
