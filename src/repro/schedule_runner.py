"""Multi-schedule race exploration (``repro explore``).

WebRacer observes a *single* execution per page, so every race report is
conditioned on one arbitrary interleaving (paper, Section 2.1).  This
module composes the pieces the repo already has — three scheduler
policies, stable race fingerprints, the fork-based process pool — into a
**schedule exploration engine**:

1. every page runs under a *matrix* of schedules (FIFO + adversarial +
   N−2 seeded-random), each the fallback of a
   :class:`~repro.browser.scheduler.DecisionScheduler` so the exact
   sequence of task picks is captured as a replayable
   :class:`~repro.browser.scheduler.ScheduleTrace`;
2. the page×schedule matrix runs through the same fan-out as the corpus
   (:func:`repro.pool.fan_out`) — every cell is deterministic in its
   inputs, so ``--jobs N`` and ``--jobs 1`` merge byte-identically;
3. results merge by race fingerprint into a union report that marks each
   race **stable** (seen under every schedule that completed) or
   **schedule-sensitive** (seen under a proper subset), with the
   witnessing schedule ids and seeds;
4. **schedule minimization**: ddmin over a recorded schedule's
   divergences from FIFO order finds the smallest reordering that still
   reproduces a target fingerprint;
5. **schedule enumeration**: DFS over every interleaving of a small page
   (:mod:`repro.browser.enumerate`), the ground-truth oracle.

Every run — record, replay, ddmin attempt, enumeration path, predict's
base and witness runs — goes through :func:`run_page_once`.  Runs use
``tie_window=inf``: ready times become lower bounds, so the scheduler
chooses among *all* pending tasks and the matrix actually explores the
interleaving space instead of only breaking exact ties.

A replay that verifies a recorded schedule (:func:`replay_reproduces`)
records but does not detect: it passes when its trace equals the
recorded run's (:func:`run_identity`).  Races, filters, classification
and fingerprints are a function of that trace, so equal traces report
equal races; the check is stricter than comparing fingerprints, since it
also fails a replay that drifts in accesses no race touches.  Runs that
need races — recordings, :func:`replay_run`, ddmin attempts — detect.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .browser.enumerate import ScheduleEnumerator
from .browser.event_loop import ScheduleDivergence
from .browser.scheduler import (
    DecisionScheduler,
    FifoScheduler,
    ScheduleTrace,
    Scheduler,
    derive_page_seed,
    make_scheduler,
)
from .config import RunConfig, run_config
from .inputs import InputError, read_text
from .obs import NULL
from .pool import crash_line, fan_out

#: Exploration offers every pending task to the scheduler (see module doc).
EXPLORE_TIE_WINDOW = float("inf")


# ----------------------------------------------------------------------
# the schedule matrix


@dataclass(frozen=True)
class ScheduleSpec:
    """One column of the page×schedule matrix."""

    sid: str
    policy: str
    seed: Optional[int] = None

    def build(self) -> Scheduler:
        """Instantiate the scheduler this spec describes."""
        return make_scheduler(self.policy, seed=self.seed or 0)

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.sid, "policy": self.policy, "seed": self.seed}


def schedule_matrix(schedules: int, seed: int = 0) -> List[ScheduleSpec]:
    """The schedule columns for an exploration of width ``schedules``.

    FIFO and adversarial are always worth one run each (they are
    deterministic); the remaining width is spent on seeded-random
    schedules whose seeds derive from ``seed`` position-independently.
    """
    if schedules < 1:
        raise ValueError(f"schedules must be >= 1, got {schedules}")
    specs = [ScheduleSpec("fifo", "fifo")]
    if schedules >= 2:
        specs.append(ScheduleSpec("adversarial", "adversarial"))
    for index in range(schedules - 2):
        specs.append(
            ScheduleSpec(
                f"random-{index}", "random", derive_page_seed(seed, index)
            )
        )
    return specs


# ----------------------------------------------------------------------
# page inputs


@dataclass
class PageInput:
    """One page to explore: url, markup, and its sub-resources.

    ``sizes`` pins on-the-wire resource sizes (HAR captures).  Network
    settings are run settings: they ride on the
    :class:`~repro.config.RunConfig`, so every run of a page — record,
    replay, ddmin, predict — shares the exact same network physics.
    """

    url: str
    html: str
    resources: Dict[str, str] = field(default_factory=dict)
    sizes: Dict[str, float] = field(default_factory=dict)


def _har_page_input(
    path: str, resources: Optional[Dict[str, str]] = None
) -> PageInput:
    """One page input from a ``.har`` capture (see :mod:`repro.har`)."""
    from .har import load_har

    workload = load_har(path)
    merged = dict(workload.resources)
    merged.update(resources or {})
    return PageInput(
        url=path,
        html=workload.html,
        resources=merged,
        sizes={url: float(size) for url, size in workload.sizes.items()},
    )


def load_page_inputs(
    path: str, resources: Optional[Dict[str, str]] = None
) -> List[PageInput]:
    """Pages from an HTML/HAR file or a directory of pages.

    A file yields one page (``resources`` maps URL → content); ``.har``
    files go through the HAR front end, which supplies the page's own
    resources and on-the-wire sizes.  A directory yields one page per
    ``*.html`` file plus one per ``*.har`` capture (sorted by name);
    every *other* file in the directory is offered to every HTML page as
    a resource keyed by its basename, which is how the example pages
    reference their scripts (``<script src="hint.js">``).

    Raises :class:`~repro.inputs.InputError` when any file cannot be read
    as UTF-8 text, a HAR is malformed, or a directory holds no pages.
    """
    if not os.path.isdir(path):
        if path.endswith(".har"):
            return [_har_page_input(path, resources)]
        html = read_text(path, "page")
        return [PageInput(url=path, html=html, resources=dict(resources or {}))]
    try:
        names = sorted(os.listdir(path))
    except OSError as exc:
        raise InputError(
            f"cannot read directory {path!r}: {exc.strerror or exc}"
        ) from None
    contents: Dict[str, str] = {}
    for name in names:
        full = os.path.join(path, name)
        if os.path.isfile(full) and not name.endswith(".har"):
            what = "page" if name.endswith(".html") else "resource"
            contents[name] = read_text(full, what)
    pages: List[PageInput] = []
    for name in names:
        full = os.path.join(path, name)
        if name.endswith(".har") and os.path.isfile(full):
            pages.append(_har_page_input(full, resources))
            continue
        if not name.endswith(".html") or name not in contents:
            continue
        page_resources = {
            other: content
            for other, content in contents.items()
            if other != name
        }
        page_resources.update(resources or {})
        pages.append(
            PageInput(
                url=full,
                html=contents[name],
                resources=page_resources,
            )
        )
    pages.sort(key=lambda page: page.url)
    if not pages:
        raise InputError(f"no *.html or *.har pages under {path!r}")
    return pages


# ----------------------------------------------------------------------
# one matrix cell


@dataclass
class ScheduleRunResult:
    """Picklable outcome of one page×schedule cell."""

    page: str
    sid: str
    policy: str
    seed: Optional[int] = None
    error: Optional[str] = None
    #: Sorted distinct fingerprints of the filtered races.
    fingerprints: List[str] = field(default_factory=list)
    #: fingerprint → {race_type, harmful, location, description}.
    races: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: ``ScheduleTrace.to_dict()`` of the recorded schedule.
    trace_dict: Optional[Dict[str, Any]] = None
    #: Did the replay reproduce the recorded trace exactly (None = not
    #: attempted)?  See :func:`replay_reproduces`.
    replay_ok: Optional[bool] = None
    operations: int = 0
    choice_points: int = 0
    duration_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def trace(self) -> ScheduleTrace:
        """The recorded schedule as a live :class:`ScheduleTrace`."""
        if self.trace_dict is None:
            raise ValueError(f"run {self.page}@{self.sid} recorded no trace")
        return ScheduleTrace.from_dict(self.trace_dict)


def run_page_once(
    page: PageInput,
    scheduler: Scheduler,
    config: RunConfig,
    obs=None,
    detect: bool = True,
) -> Tuple[Any, Any, List[str], Dict[str, Dict[str, Any]]]:
    """One instrumented exploration run under ``config``: the page, its
    report, its sorted fingerprints and its races by fingerprint.

    Every recording, replay, minimization and enumeration run goes
    through here, so they all share the exact same page configuration —
    which is what makes a recorded trace replayable at all.
    ``detect=False`` only records: no detector sees the accesses, and
    the report is None, with no fingerprints or races.
    """
    from .webracer import WebRacer

    racer = WebRacer(config, obs=obs)
    page_obj = racer.run_page(
        page.html,
        page.url,
        config.seed,
        scheduler,
        tie_window=EXPLORE_TIE_WINDOW,
        resources=dict(page.resources),
        sizes=dict(page.sizes) if page.sizes else None,
        detect=detect,
    )
    if not detect:
        return page_obj, None, [], {}
    report = racer.report_for(page_obj, page.url)
    races = report.races_by_fingerprint()
    return page_obj, report, sorted(races), races


def run_identity(page_obj) -> Tuple[Any, Any]:
    """What a replay must reproduce of a finished run: its trace's
    :meth:`~repro.core.trace.Trace.identity` and its HB edges with their
    rules, in insertion order."""
    monitor = page_obj.monitor
    return monitor.trace.identity(), monitor.graph.rule_edges()


def _run_fingerprints(
    page: PageInput, scheduler: Scheduler, config: RunConfig, obs=None
) -> List[str]:
    """One :func:`run_page_once` run, closed; its sorted fingerprints."""
    page_obj, _report, fingerprints, _races = run_page_once(
        page, scheduler, config, obs=obs
    )
    page_obj.close()
    return fingerprints


def _crash_outcome(page) -> Tuple[int, Tuple[str, ...]]:
    """Default enumeration outcome: (race count, sorted crash kinds)."""
    crashes = sorted({crash.kind for crash in page.trace.crashes})
    return len(page.races), tuple(crashes)


def enumerate_page_schedules(
    page: PageInput,
    config: RunConfig,
    extract: Optional[Callable[[Any], Any]] = None,
    max_runs: int = 200,
) -> ScheduleEnumerator:
    """Enumerate the interleavings of ``page`` under ``config`` (DFS).

    Every path runs through :func:`run_page_once`, so it sees the same
    page configuration as explore and predict runs, and each outcome's
    pick list replays strictly.  ``extract(page)`` projects each finished
    page onto a comparable outcome; the default captures (race count,
    sorted crash kinds).
    """
    extract = extract or _crash_outcome

    def run(scheduler: Scheduler):
        page_obj, _report, _fingerprints, _races = run_page_once(
            page, scheduler, config
        )
        with closing(page_obj):
            return extract(page_obj)

    enumerator = ScheduleEnumerator(run, max_runs=max_runs)
    enumerator.explore()
    return enumerator


def run_page_schedule(
    page: PageInput,
    spec: ScheduleSpec,
    config: Optional[RunConfig] = None,
    verify_replay: bool = True,
    obs=None,
    **fields,
) -> ScheduleRunResult:
    """Run one page under one schedule; record, and optionally verify.

    ``config`` (or its fields as keywords, as :class:`~repro.WebRacer`
    takes them) configures the run.  Crash isolation mirrors the corpus
    runner: an exception inside the cell becomes an error result instead
    of taking down the matrix.
    """
    started = time.perf_counter()
    config = run_config(config, **fields)
    obs = obs if obs is not None else NULL
    try:
        result, trace, identity = _record_schedule(page, spec, config, obs)
        if verify_replay:
            result.replay_ok = replay_reproduces(
                page, trace, identity, config, obs=obs
            )
        if obs.enabled:
            obs.count("explore.schedules_run")
    except Exception as exc:  # crash isolation: record, don't propagate
        result = ScheduleRunResult(
            page=page.url,
            sid=spec.sid,
            policy=spec.policy,
            seed=spec.seed,
            error=crash_line(exc),
        )
    result.duration_ms = (time.perf_counter() - started) * 1000.0
    return result


def _record_schedule(
    page: PageInput, spec: ScheduleSpec, config: RunConfig, obs
) -> Tuple[ScheduleRunResult, ScheduleTrace, Tuple[Any, Any]]:
    """Run ``page`` under ``spec``, recording its schedule; the result,
    the schedule and the run's :func:`run_identity`.

    The run is closed, and its page dropped, before this returns, so a
    replay that follows never shares the process with it.
    """
    recorder = DecisionScheduler(spec.build())
    with obs.span("explore.run", cat="explore", page=page.url, schedule=spec.sid):
        page_obj, _report, fingerprints, races = run_page_once(
            page, recorder, config, obs=obs
        )
    with closing(page_obj):
        trace = recorder.trace(
            policy=spec.policy,
            seed=spec.seed,
            page=page.url,
            tie_window=EXPLORE_TIE_WINDOW,
        )
        result = ScheduleRunResult(
            page=page.url,
            sid=spec.sid,
            policy=spec.policy,
            seed=spec.seed,
            fingerprints=fingerprints,
            races=races,
            trace_dict=trace.to_dict(),
            operations=len(page_obj.trace.operations.operations),
            choice_points=page_obj.loop.choice_points,
        )
        identity = run_identity(page_obj)
    return result, trace, identity


def replay_run(
    page: PageInput,
    trace: ScheduleTrace,
    config: RunConfig = RunConfig(),
    obs=None,
) -> List[str]:
    """Replay a recorded schedule, detecting; returns the run's race
    fingerprints.

    Raises :class:`~repro.browser.event_loop.ScheduleDivergence` when the
    trace no longer matches the page — replay never silently drifts.
    """
    obs = obs if obs is not None else NULL
    with obs.span("explore.replay", cat="explore", page=page.url):
        fingerprints = _run_fingerprints(
            page, DecisionScheduler(follow=trace.picks), config, obs=obs
        )
    if obs.enabled:
        obs.count("explore.replays")
    return fingerprints


def replay_reproduces(
    page: PageInput,
    trace: ScheduleTrace,
    recorded: Tuple[Any, Any],
    config: RunConfig = RunConfig(),
    obs=None,
) -> bool:
    """Does replaying ``trace`` reproduce the recorded run's trace exactly?

    ``recorded`` is the recorded run's :func:`run_identity`.  The replay
    records with no race detector, and nothing is filtered, classified or
    fingerprinted: equal identities imply equal races (module doc).
    """
    obs = obs if obs is not None else NULL
    try:
        with obs.span("explore.replay", cat="explore", page=page.url):
            page_obj, _report, _fingerprints, _races = run_page_once(
                page,
                DecisionScheduler(follow=trace.picks),
                config,
                obs=obs,
                detect=False,
            )
            with closing(page_obj):
                reproduced = run_identity(page_obj) == recorded
    except ScheduleDivergence:
        if obs.enabled:
            obs.count("explore.replay_diverged")
        return False
    if obs.enabled:
        obs.count("explore.replays")
        if not reproduced:
            obs.count("explore.replay_mismatched")
    return reproduced


# ----------------------------------------------------------------------
# matrix execution + fingerprint merge


@dataclass
class PageExploration:
    """All schedules of one page, merged by race fingerprint."""

    url: str
    runs: List[ScheduleRunResult] = field(default_factory=list)
    #: Merged union entries, sorted by fingerprint (see ``merge_runs``).
    races: List[Dict[str, Any]] = field(default_factory=list)

    def stable(self) -> List[Dict[str, Any]]:
        """Races every completed schedule witnessed."""
        return [race for race in self.races if race["stable"]]

    def schedule_sensitive(self) -> List[Dict[str, Any]]:
        """Races only a proper subset of schedules witnessed."""
        return [race for race in self.races if not race["stable"]]


@dataclass
class ExploreReport:
    """The full matrix outcome: one :class:`PageExploration` per page."""

    seed: int
    specs: List[ScheduleSpec] = field(default_factory=list)
    pages: List[PageExploration] = field(default_factory=list)

    def union_count(self) -> int:
        return sum(len(page.races) for page in self.pages)

    def stable_count(self) -> int:
        return sum(len(page.stable()) for page in self.pages)

    def sensitive_count(self) -> int:
        return sum(len(page.schedule_sensitive()) for page in self.pages)

    def find_witness(
        self, prefix: str
    ) -> Tuple[PageExploration, ScheduleRunResult, str]:
        """The one witnessed fingerprint starting with ``prefix``, and the
        first run witnessing it.

        Raises :class:`~repro.inputs.InputError` when no fingerprint or
        more than one starts with ``prefix``.
        """
        witnesses: Dict[str, Tuple[PageExploration, ScheduleRunResult]] = {}
        for page in self.pages:
            for run in page.runs:
                for fingerprint in run.fingerprints:
                    if fingerprint.startswith(prefix):
                        witnesses.setdefault(fingerprint, (page, run))
        if not witnesses:
            raise InputError(
                f"fingerprint {prefix!r} was not witnessed by any schedule; "
                f"nothing to minimize"
            )
        if len(witnesses) > 1:
            raise InputError(
                f"fingerprint prefix {prefix!r} matches {len(witnesses)} "
                f"fingerprints ({', '.join(sorted(witnesses))}); "
                f"give more digits"
            )
        [(fingerprint, (page, run))] = witnesses.items()
        return page, run, fingerprint


def merge_runs(url: str, runs: List[ScheduleRunResult]) -> PageExploration:
    """Merge one page's schedule runs into a fingerprint-union report.

    A race is *stable* when every schedule that completed witnessed it,
    *schedule-sensitive* when only a proper subset did.  Witness lists
    preserve matrix column order; race metadata comes from the first
    witnessing run, so merged output is deterministic in the runs alone.
    """
    ok_runs = [run for run in runs if run.ok]
    witnesses: Dict[str, List[ScheduleRunResult]] = {}
    for run in ok_runs:
        for fingerprint in run.fingerprints:
            witnesses.setdefault(fingerprint, []).append(run)
    races: List[Dict[str, Any]] = []
    for fingerprint in sorted(witnesses):
        seen_by = witnesses[fingerprint]
        info = seen_by[0].races[fingerprint]
        races.append(
            {
                "fingerprint": fingerprint,
                **info,
                "stable": len(seen_by) == len(ok_runs),
                "witnesses": [run.sid for run in seen_by],
                "witness_seeds": [run.seed for run in seen_by],
                "replay_verified": all(
                    run.replay_ok for run in seen_by
                ) if all(run.replay_ok is not None for run in seen_by) else None,
            }
        )
    return PageExploration(url=url, runs=list(runs), races=races)


def _run_cell(
    config: RunConfig, verify_replay: bool, cell, obs=None
) -> ScheduleRunResult:
    """Fan-out task: run matrix cell ``cell = (page, spec)``."""
    page, spec = cell
    return run_page_schedule(
        page, spec, config, verify_replay=verify_replay, obs=obs
    )


def _cell_failed(cell, message: str) -> ScheduleRunResult:
    page, spec = cell
    return ScheduleRunResult(
        page=page.url, sid=spec.sid, policy=spec.policy, seed=spec.seed, error=message
    )


def explore_pages(
    pages: Sequence[PageInput],
    schedules: int = 8,
    jobs: int = 1,
    verify_replay: bool = True,
    config: Optional[RunConfig] = None,
    obs=None,
    **fields,
) -> ExploreReport:
    """Run the page×schedule matrix and merge by fingerprint.

    ``config`` (or its fields as keywords, as :class:`~repro.WebRacer`
    takes them) configures every cell.  The cells run through
    :func:`repro.pool.fan_out` over ``jobs`` workers; every cell is
    deterministic in its inputs and results merge in matrix order, so the
    output does not depend on ``jobs``.
    """
    config = run_config(config, **fields)
    obs = obs if obs is not None else NULL
    specs = schedule_matrix(schedules, seed=config.seed)
    results = fan_out(
        functools.partial(_run_cell, config, verify_replay),
        [(page, spec) for page in pages for spec in specs],
        jobs=jobs,
        obs=obs,
        lane=lambda result: f"{result.page}::{result.sid}",
        failed=_cell_failed,
    )
    by_page: Dict[str, List[ScheduleRunResult]] = {}
    for result in results:
        by_page.setdefault(result.page, []).append(result)
    report = ExploreReport(seed=config.seed, specs=specs)
    for page in pages:
        report.pages.append(merge_runs(page.url, by_page.get(page.url, [])))
    if obs.enabled:
        obs.count("explore.pages", len(report.pages))
        obs.count("explore.races_stable", report.stable_count())
        obs.count("explore.races_schedule_sensitive", report.sensitive_count())
    return report


# ----------------------------------------------------------------------
# schedule minimization (ddmin)


@dataclass
class MinimizationResult:
    """Outcome of minimizing one schedule against a target fingerprint."""

    fingerprint: str
    page: str
    original: ScheduleTrace
    minimized: ScheduleTrace
    #: Divergence subset (indices into ``original.picks``) that survived.
    kept_divergences: List[int] = field(default_factory=list)
    tests_run: int = 0

    @property
    def original_divergences(self) -> int:
        return len(self.original.divergences)

    @property
    def minimized_divergences(self) -> int:
        return len(self.minimized.divergences)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "page": self.page,
            "original_divergences": self.original_divergences,
            "minimized_divergences": self.minimized_divergences,
            "kept_divergences": list(self.kept_divergences),
            "tests_run": self.tests_run,
            "minimized_trace": self.minimized.to_dict(),
        }


def _ddmin(items: List[int], test) -> List[int]:
    """Zeller/Hildebrandt ddmin: a 1-minimal subset of ``items`` passing
    ``test``.  ``test`` must accept the full set (the caller checks)."""
    if test([]):
        return []
    current = list(items)
    granularity = 2
    while len(current) >= 2:
        chunk_size = max(1, len(current) // granularity)
        chunks = [
            current[i : i + chunk_size]
            for i in range(0, len(current), chunk_size)
        ]
        reduced = False
        for chunk in chunks:
            if len(chunk) < len(current) and test(chunk):
                current = list(chunk)
                granularity = 2
                reduced = True
                break
        if not reduced:
            for index in range(len(chunks)):
                complement = [
                    item
                    for chunk_index, chunk in enumerate(chunks)
                    if chunk_index != index
                    for item in chunk
                ]
                if len(complement) < len(current) and test(complement):
                    current = complement
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


def minimize_schedule(
    page: PageInput,
    trace: ScheduleTrace,
    fingerprint: str,
    config: RunConfig = RunConfig(),
    obs=None,
) -> MinimizationResult:
    """The smallest FIFO-divergence subset still reproducing ``fingerprint``.

    ddmin over the recorded schedule's divergences from FIFO order: each
    candidate subset replays under a
    :class:`~repro.browser.scheduler.DecisionScheduler` (recorded picks
    at kept divergence steps, FIFO everywhere else) and passes when the
    re-run detector still reports the target fingerprint.  Ground truth
    is always the re-run, never the trace, so dropped divergences that
    shift later picks cannot produce a false positive.

    Raises ``ValueError`` when the full recorded schedule itself does not
    reproduce the fingerprint (a stale trace or the wrong page).
    """
    obs = obs if obs is not None else NULL
    tests = {"count": 0}

    def attempt(keep: Sequence[int]) -> Optional[ScheduleTrace]:
        tests["count"] += 1
        recorder = DecisionScheduler(
            FifoScheduler(), {step: trace.picks[step] for step in keep}
        )
        if fingerprint not in _run_fingerprints(page, recorder, config):
            return None
        return recorder.trace(
            policy="replay-min",
            seed=trace.seed,
            page=trace.page,
            tie_window=trace.tie_window,
        )

    with obs.span(
        "explore.minimize", cat="explore", page=page.url, fingerprint=fingerprint
    ):
        if attempt(trace.divergences) is None:
            raise ValueError(
                f"recorded schedule does not reproduce fingerprint "
                f"{fingerprint!r} on {page.url!r}"
            )
        kept = _ddmin(
            list(trace.divergences), lambda keep: attempt(keep) is not None
        )
        minimized = attempt(kept)
        assert minimized is not None  # ddmin only returns passing subsets
    if obs.enabled:
        obs.count("explore.minimizations")
        obs.count("explore.minimize_tests", tests["count"])
    return MinimizationResult(
        fingerprint=fingerprint,
        page=page.url,
        original=trace,
        minimized=minimized,
        kept_divergences=list(kept),
        tests_run=tests["count"],
    )
