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

On top of the policies sits one :class:`DecisionScheduler`: it follows a
decision list (loop step → task ``seq``) where the list names a ready
task, asks a fallback policy everywhere else, and records every pick as a
:class:`ScheduleTrace` (JSON-serializable).  Every re-run of a page is one
of its configurations (:mod:`repro.schedule_runner`):

* record — ``DecisionScheduler(policy)``: the policy decides, the
  scheduler only observes;
* replay — ``DecisionScheduler(follow=trace.picks)``: no fallback, so the
  run reproduces the recorded one bit-for-bit (same operation stream,
  races and fingerprints) or raises ``ScheduleDivergence``;
* schedule minimization (ddmin) — ``DecisionScheduler(FifoScheduler(),
  kept)``: a subset of a trace's divergences from FIFO order, FIFO
  everywhere else;
* enumeration — a decision prefix over a FIFO fallback that logs the
  ready sets the DFS branches on (:mod:`repro.browser.enumerate`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Union

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

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def pick(self, candidates: Sequence[Task]) -> Task:
        """Pick uniformly at random from the candidates."""
        return self.rng.choice(list(candidates))


#: Adversarial rank of each task kind (lower runs first; unknown kinds last).
KIND_RANK = {"user": 0, "timer": 1, "network": 2, "dispatch": 3, "parse": 4}


class AdversarialScheduler(Scheduler):
    """Prefer task kinds by :data:`KIND_RANK`; FIFO within a kind.

    User events run first, then timers, network completions, and parser
    steps last — maximally delaying page construction relative to
    everything else, which is the interleaving that makes HTML/function
    races bite.
    """

    def pick(self, candidates: Sequence[Task]) -> Task:
        """Pick by kind rank, FIFO within a kind."""
        return min(
            candidates,
            key=lambda task: (KIND_RANK.get(task.kind, len(KIND_RANK)), task.seq),
        )


# ----------------------------------------------------------------------
# decisions: record / replay / minimize / enumerate


@dataclass
class ScheduleTrace:
    """The complete scheduling decision record of one event-loop run.

    ``picks`` holds the ``seq`` of the task chosen at *every* loop step,
    in execution order; ``divergences`` indexes the steps where that
    choice differed from the FIFO choice (the minimum-``seq`` candidate).
    Together with the page's fixed inputs (html, resources, latency seed,
    tie window) the pick list determines the run completely, so a
    ``DecisionScheduler(follow=trace.picks)`` reproduces the original
    execution bit-for-bit.
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

    def save(self, path: str) -> None:
        """Write the trace as JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "ScheduleTrace":
        """Load a trace written by :meth:`save`."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


class DecisionScheduler(Scheduler):
    """Follow a decision list, ask ``fallback`` elsewhere; record every pick.

    ``follow`` maps a loop step to the ``seq`` of the task to run there; a
    sequence is a pick list (step ``i`` runs ``follow[i]``).  At a step it
    names, the scheduler runs that task if it is ready; otherwise it asks
    the ``fallback`` policy.  With no fallback it is a strict replay: a
    step the list does not name, or whose task is not ready, raises
    :class:`~repro.browser.event_loop.ScheduleDivergence` — replay must
    reproduce the original run exactly or fail loudly, never settle for a
    silently different execution.

    Every pick lands in ``picks`` and every step where the pick differs
    from FIFO (the minimum-``seq`` candidate) in ``divergences``, so any
    run packages as a :class:`ScheduleTrace`.  Recording is pure
    observation: a run under ``DecisionScheduler(policy)`` is
    byte-identical to one under ``policy``.
    """

    def __init__(
        self,
        fallback: Optional[Scheduler] = None,
        follow: Union[Mapping[int, int], Sequence[int]] = (),
    ):
        self.fallback = fallback
        self.follow = follow if isinstance(follow, Mapping) else dict(enumerate(follow))
        self.picks: List[int] = []
        self.divergences: List[int] = []

    def pick(self, candidates: Sequence[Task]) -> Task:
        """The followed task if it is ready, else the fallback's pick."""
        step = len(self.picks)
        want = self.follow.get(step)
        chosen = None
        if want is not None:
            chosen = next((task for task in candidates if task.seq == want), None)
        if chosen is None:
            if self.fallback is None:
                raise ScheduleDivergence(_divergence(step, want, candidates))
            chosen = self.fallback.pick(candidates)
        if len(candidates) > 1 and chosen.seq != min(task.seq for task in candidates):
            self.divergences.append(step)
        self.picks.append(chosen.seq)
        return chosen

    def trace(self, **fields) -> ScheduleTrace:
        """The recorded picks as a :class:`ScheduleTrace` with ``fields``
        (``policy``, ``seed``, ``page``, ``tie_window``)."""
        return ScheduleTrace(
            picks=list(self.picks), divergences=list(self.divergences), **fields
        )


def _divergence(step: int, want: Optional[int], candidates: Sequence[Task]) -> str:
    """Why a strict replay cannot make pick number ``step``."""
    if want is None:
        return (
            f"schedule trace exhausted after {step} picks but "
            f"{len(candidates)} task(s) are still ready"
        )
    return (
        f"pick #{step} wants task seq {want}, not among the "
        f"{len(candidates)} ready candidate(s) "
        f"{sorted(task.seq for task in candidates)}"
    )


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
