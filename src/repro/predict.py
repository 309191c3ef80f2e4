"""Single-trace race prediction with directed witnesses (``repro predict``).

``repro explore`` buys schedule coverage by brute force: N runs per page,
one per schedule.  This pipeline extracts comparable coverage from **one**
recorded execution:

1. run the page once under FIFO, recording the schedule and which loop
   step created each operation — this is the *observed* execution, the
   one the paper's tool would have seen;
2. sweep the trace with the schedulable-happens-before analysis
   (:func:`repro.core.hb.shb.predict_races`): conflicting rule-concurrent
   pairs the exact detector missed become *predictions*, classified
   ``schedulable`` (SHB leaves the pair unordered) or ``conditional``
   (ordered only via racy reads-from edges);
3. **filter first**: the Section 5.3 filters run over the predictions on
   the observed trace.  A prediction they remove is reported ``filtered``
   with the filter's name and costs nothing more: no evidence, no run;
4. **one directed witness per surviving prediction**, schedulable ones
   first, up to ``budget`` per page.  The witness follows the observed
   picks up to the step whose task ran the pair's earlier operation,
   then holds that task back (FIFO among the rest) until the task that
   ran the later operation has run, then continues FIFO — the
   reordering schedulable happens-before licenses.  Each witness is
   recorded and replay-verified
   (:func:`~repro.schedule_runner.replay_reproduces`).

A prediction is ``predicted+confirmed`` when its witness ran the two
operations in the flipped order (matched by kind, label and occurrence,
as fingerprints match labels), the pair still races there (its
fingerprint is among the witness trace's full-history races), and the
witness replays strictly.  A confirmed witness can be ddmin-minimized
(:func:`~repro.schedule_runner.minimize_schedule`).  Every other survivor
stays ``predicted-only``: the budget ran out, its later operation cannot
run first in this model (a post-load exploration event is queued only
after ``load``), or the operation-level SHB abstraction
over-approximated.  Replay is the ground truth; the report never promotes
an unconfirmed prediction.

Every run goes through :func:`~repro.schedule_runner.run_page_once`, the
single run-config authority, so recorded witnesses replay exactly.
"""

from __future__ import annotations

import bisect
import functools
import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import schedule_runner
from .browser.scheduler import (
    DecisionScheduler,
    FifoScheduler,
    HoldBackScheduler,
    ScheduleTrace,
)
from .config import RunConfig, run_config
from .core.filters import FilterChain
from .core.full_detector import FullHistoryDetector
from .core.hb.shb import (
    STATUS_CONDITIONAL,
    STATUS_SCHEDULABLE,
    ShbAnalysis,
    predict_races,
)
from .core.report import build_report
from .obs import NULL
from .pool import crash_line, fan_out
from .schedule_runner import (
    EXPLORE_TIE_WINDOW,
    PageInput,
    ScheduleRunResult,
    minimize_schedule,
    report_run,
    run_identity,
    run_page_once,
)

#: Default number of directed witnesses run per page.
DEFAULT_WITNESS_BUDGET = 6

#: Policy name of a directed witness schedule.
DIRECTED = "directed"

OUTCOME_CONFIRMED = "predicted+confirmed"
OUTCOME_PREDICTED_ONLY = "predicted-only"
OUTCOME_FILTERED = "filtered"

#: An operation named across runs: (kind, label, occurrence), where the
#: occurrence counts earlier operations with the same kind and label.
OpKey = Tuple[str, str, int]


@dataclass
class PredictionResult:
    """One SHB prediction with its confirmation outcome."""

    fingerprint: str
    status: str  # "schedulable" | "conditional"
    kind: str
    location: str
    description: str
    op_pair: List[int]
    race_type: str = ""
    harmful: bool = False
    #: Racy reads-from edges a reordering must break (conditional tier).
    blocking_rf: List[Dict[str, Any]] = field(default_factory=list)
    #: Name of the Section 5.3 filter that removed it on the observed
    #: trace (None: it survived and may get a witness).
    filtered_by: Optional[str] = None
    confirmed: bool = False
    #: Identity of the directed witness run for it (None: no witness ran).
    witness_sid: Optional[str] = None
    witness_policy: Optional[str] = None
    #: Recorded witness schedule (``ScheduleTrace.to_dict()``).
    witness_trace_dict: Optional[Dict[str, Any]] = None
    #: Did the witness run the pair's operations in the flipped order?
    flipped: Optional[bool] = None
    #: Does the pair still race in the witness trace?  Asked only of a
    #: flipped witness (None otherwise).
    raced: Optional[bool] = None
    #: Replay verification of the witness run (None = not attempted).
    replay_ok: Optional[bool] = None
    #: ``MinimizationResult.to_dict()`` when minimization ran.
    minimized: Optional[Dict[str, Any]] = None
    #: ``RaceEvidence.to_dict()`` built from the recorded trace (survivors
    #: only).
    evidence: Optional[Dict[str, Any]] = None

    @property
    def outcome(self) -> str:
        """``filtered``, ``predicted+confirmed`` or ``predicted-only``."""
        if self.filtered_by is not None:
            return OUTCOME_FILTERED
        return OUTCOME_CONFIRMED if self.confirmed else OUTCOME_PREDICTED_ONLY


@dataclass
class PredictReport:
    """Everything one prediction pass over a page produced."""

    page: str
    seed: int
    budget: int
    #: Filtered fingerprints of the observed (FIFO) run.
    observed_fingerprints: List[str] = field(default_factory=list)
    #: fingerprint → {race_type, harmful, location, description}.
    observed_race_info: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Exact-detector raw races replayed into the SHB ``observed`` tier.
    observed_pairs: int = 0
    predictions: List[PredictionResult] = field(default_factory=list)
    #: Directed witness runs actually executed, in trial order.
    witness_runs: List[ScheduleRunResult] = field(default_factory=list)
    #: The recorded observed schedule (``ScheduleTrace.to_dict()``).
    base_trace_dict: Optional[Dict[str, Any]] = None
    shb_summary: str = ""
    rf_edges: int = 0
    rf_racy: int = 0
    #: Total instrumented page executions (1 base + witnesses + replays).
    runs_executed: int = 0
    error: Optional[str] = None
    duration_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def confirmed(self) -> List[PredictionResult]:
        """Predictions a directed witness replay-confirmed."""
        return [p for p in self.predictions if p.confirmed]

    def filtered(self) -> List[PredictionResult]:
        """Predictions the Section 5.3 filters removed."""
        return [p for p in self.predictions if p.filtered_by is not None]

    def summary(self) -> str:
        """One-line prediction summary."""
        return (
            f"{self.page}: {len(self.observed_fingerprints)} observed, "
            f"{len(self.predictions)} predicted, "
            f"{len(self.filtered())} filtered, "
            f"{len(self.confirmed())} confirmed by replay"
        )


@dataclass(frozen=True)
class _Target:
    """What a directed witness needs to know about one survivor."""

    prediction: PredictionResult
    #: Loop steps of the observed run whose tasks created the earlier and
    #: the later operation.
    held_step: int
    until_step: int
    earlier: OpKey
    later: OpKey


class _StepRecorder(DecisionScheduler):
    """The observed run's FIFO recorder: also notes, at every pick, how
    many operations the run had created, so each operation maps to the
    loop step that created it (:meth:`step_of`)."""

    def __init__(self):
        super().__init__(FifoScheduler())
        self.operations = ()
        #: Operations created before each pick.
        self.marks: List[int] = []

    def attach(self, trace) -> None:
        self.operations = trace.operations

    def pick(self, candidates):
        self.marks.append(len(self.operations))
        return super().pick(candidates)

    def step_of(self, op_id: int) -> int:
        """The loop step whose task created ``op_id`` (-1: before the
        first step)."""
        return bisect.bisect_left(self.marks, op_id) - 1


def _op_keys(trace) -> Dict[int, OpKey]:
    """Every operation of ``trace`` by id, as an :data:`OpKey`."""
    seen: Dict[Tuple[str, str], int] = {}
    keys: Dict[int, OpKey] = {}
    for operation in trace.operations:
        name = (operation.kind, operation.label)
        occurrence = seen.get(name, 0)
        seen[name] = occurrence + 1
        keys[operation.op_id] = (*name, occurrence)
    return keys


def _prediction_entries(
    analysis: ShbAnalysis, page_obj, base_fingerprints: List[str], config: RunConfig
) -> List[PredictionResult]:
    """Fingerprint, dedup, filter and classify the raw SHB predictions,
    in witness order.  Only the survivors of the filters get evidence."""
    from .explain.evidence import EvidenceCache, build_race_evidence
    from .explain.fingerprint import race_fingerprint

    trace = page_obj.trace
    unique = []
    seen: set = set(base_fingerprints)
    for prediction in analysis.predictions:
        fingerprint = race_fingerprint(prediction.race, trace)
        if fingerprint not in seen:
            seen.add(fingerprint)
            unique.append((fingerprint, prediction))
    races = [prediction.race for _, prediction in unique]
    removed_by: Dict[int, str] = {}
    if config.apply_filters:
        chain = FilterChain()
        chain.apply(races, trace)
        for name, dropped in chain.removed.items():
            for race in dropped:
                removed_by[id(race)] = name
    cache = EvidenceCache(page_obj.monitor.graph)
    entries = []
    for (fingerprint, prediction), classified in zip(
        unique, build_report(races, trace).races
    ):
        race = prediction.race
        entry = PredictionResult(
            fingerprint=fingerprint,
            status=prediction.status,
            kind=race.kind,
            location=str(race.location),
            description=race.describe(),
            op_pair=list(prediction.op_pair()),
            race_type=classified.race_type,
            harmful=classified.harmful,
            blocking_rf=[
                {
                    "src": edge.src,
                    "dst": edge.dst,
                    "location": edge.location.describe(),
                }
                for edge in prediction.blocking_rf
            ],
            filtered_by=removed_by.get(id(race)),
        )
        if entry.filtered_by is None:
            entry.evidence = build_race_evidence(
                classified,
                trace,
                page_obj.monitor.graph,
                cache=cache,
                fingerprint=fingerprint,
            ).to_dict()
        entries.append(entry)
    # Schedulable predictions are the stronger claim; witness them first.
    tier = {STATUS_SCHEDULABLE: 0, STATUS_CONDITIONAL: 1}
    entries.sort(key=lambda e: (tier.get(e.status, 2), e.fingerprint))
    return entries


def predict_page(
    page: PageInput,
    config: RunConfig = RunConfig(),
    budget: int = DEFAULT_WITNESS_BUDGET,
    minimize: bool = False,
    obs=None,
) -> PredictReport:
    """Record one FIFO execution, predict races, filter them, and run one
    directed, replay-verified witness per surviving prediction.

    ``budget`` caps the witness runs on the page; surviving predictions
    beyond it stay ``predicted-only`` without a witness.
    """
    obs = obs if obs is not None else NULL
    started = time.perf_counter()
    report = PredictReport(page=page.url, seed=config.seed, budget=budget)
    try:
        targets = _observe(page, report, config, obs)
        for target in targets[:budget]:
            _witness(page, report, target, config, obs)
        if minimize:
            _minimize_confirmed(page, report, config, obs)
        if obs.enabled:
            obs.count("predict.pages")
            obs.count("predict.predicted", len(report.predictions))
            obs.count("predict.filtered", len(report.filtered()))
            obs.count("predict.confirmed", len(report.confirmed()))
    except Exception as exc:  # crash isolation, as in the explore matrix
        report.error = crash_line(exc)
    report.duration_ms = (time.perf_counter() - started) * 1000.0
    return report


def _observe(
    page: PageInput, report: PredictReport, config: RunConfig, obs
) -> List[_Target]:
    """Record the observed FIFO run, sweep and filter it, and fill in
    ``report``'s observed races and predictions; the witness targets of
    the surviving predictions, in witness order.

    A survivor whose two operations one loop step created, or which
    began before the first step, cannot be reordered by scheduling and
    gets no target.  The run is closed, and its page, report and SHB
    analysis dropped, before this returns, so no witness run shares the
    process with them.
    """
    with obs.span("predict.base_run", cat="predict", page=page.url):
        recorder = _StepRecorder()
        page_obj = run_page_once(page, recorder, config, obs=obs)
        page_report, base_fps, base_races = report_run(
            page_obj, page.url, config, obs
        )
    with closing(page_obj):
        report.runs_executed += 1
        report.observed_fingerprints = base_fps
        report.observed_race_info = base_races
        report.base_trace_dict = recorder.trace(
            policy="fifo",
            seed=None,
            page=page.url,
            tie_window=EXPLORE_TIE_WINDOW,
        ).to_dict()
        with obs.span("predict.shb_sweep", cat="predict", page=page.url):
            analysis = predict_races(
                page_obj.trace, page_obj.monitor.graph, page_report.raw_races
            )
        report.observed_pairs = len(analysis.observed)
        report.shb_summary = analysis.summary()
        report.rf_edges = len(analysis.rf_edges)
        report.rf_racy = sum(1 for edge in analysis.rf_edges if edge.racy)
        report.predictions = _prediction_entries(
            analysis, page_obj, base_fps, config
        )
        survivors = [p for p in report.predictions if p.filtered_by is None]
        keys = _op_keys(page_obj.trace) if survivors else {}
        targets = []
        for prediction in survivors:
            earlier, later = prediction.op_pair
            held, until = recorder.step_of(earlier), recorder.step_of(later)
            if 0 <= held < until:
                targets.append(
                    _Target(prediction, held, until, keys[earlier], keys[later])
                )
    return targets


def _witness(
    page: PageInput,
    report: PredictReport,
    target: _Target,
    config: RunConfig,
    obs,
) -> None:
    """Run, check and replay-verify ``target``'s directed witness, and
    record the outcome on its prediction."""
    prediction = target.prediction
    observed = report.base_trace_dict["picks"]
    sid = f"{DIRECTED}-{len(report.witness_runs)}"
    started = time.perf_counter()
    result = ScheduleRunResult(page=page.url, sid=sid, policy=DIRECTED)
    report.runs_executed += 1
    try:
        recorder = DecisionScheduler(
            HoldBackScheduler(
                held=observed[target.held_step],
                until=observed[target.until_step],
                patience=len(observed),
            ),
            follow=observed[: target.held_step],
        )
        with obs.span(
            "predict.witness", cat="predict", page=page.url, schedule=sid
        ):
            page_obj = run_page_once(page, recorder, config, obs=obs)
            _report, result.fingerprints, result.races = report_run(
                page_obj, page.url, config, obs
            )
        with closing(page_obj):
            trace = recorder.trace(
                policy=DIRECTED,
                seed=None,
                page=page.url,
                tie_window=EXPLORE_TIE_WINDOW,
            )
            result.trace_dict = trace.to_dict()
            result.operations = len(page_obj.trace.operations)
            result.choice_points = page_obj.loop.choice_points
            flipped, raced = _check_witness(page_obj, target)
            identity = run_identity(page_obj)
        # Looked up on its module, so a wrapper installed there (the
        # end-to-end benchmark's layer tracer) sees witness replays too.
        result.replay_ok = schedule_runner.replay_reproduces(
            page, trace, identity, config, obs=obs
        )
        report.runs_executed += 1
    except Exception as exc:  # crash isolation: record, don't propagate
        result.error = crash_line(exc)
        flipped, raced = False, None
    result.duration_ms = (time.perf_counter() - started) * 1000.0
    report.witness_runs.append(result)
    prediction.witness_sid = sid
    prediction.witness_policy = DIRECTED
    prediction.witness_trace_dict = result.trace_dict
    prediction.flipped = flipped
    prediction.raced = raced
    prediction.replay_ok = result.replay_ok
    prediction.confirmed = bool(flipped and raced and result.replay_ok)
    if obs.enabled:
        obs.count("predict.witness_budget_spent")


def _check_witness(page_obj, target: _Target) -> Tuple[bool, Optional[bool]]:
    """Did the finished witness run ``target``'s later operation before
    its earlier one, and if so, does the pair still race there (the
    full-history sweep runs only over a flipped witness)?"""
    from .explain.fingerprint import race_fingerprint

    trace = page_obj.trace
    found = {key: op_id for op_id, key in _op_keys(trace).items()}
    earlier, later = found.get(target.earlier), found.get(target.later)
    if earlier is None or later is None or later > earlier:
        return False, None
    sweep = FullHistoryDetector(trace, page_obj.monitor.graph).replay()
    raced = any(
        race_fingerprint(race, trace) == target.prediction.fingerprint
        for race in sweep.races
    )
    return True, raced


def _minimize_confirmed(
    page: PageInput, report: PredictReport, config: RunConfig, obs
) -> None:
    """ddmin every confirmed prediction's witness down to the smallest
    FIFO-divergence set that still fires its fingerprint."""
    for prediction in report.confirmed():
        try:
            result = minimize_schedule(
                page,
                ScheduleTrace.from_dict(prediction.witness_trace_dict),
                prediction.fingerprint,
                config,
                obs=obs,
            )
        except ValueError:
            # The witness confirms the pair through the full-history
            # sweep; its one-race-per-location report need not name it,
            # and minimization tests that report.  Keep the confirmation,
            # skip the minimization.
            continue
        prediction.minimized = result.to_dict()
        report.runs_executed += result.tests_run
        if obs.enabled:
            obs.count("predict.minimize_tests", result.tests_run)


def predict_pages(
    pages: List[PageInput],
    budget: int = DEFAULT_WITNESS_BUDGET,
    minimize: bool = False,
    config: Optional[RunConfig] = None,
    obs=None,
    **fields,
) -> List[PredictReport]:
    """Run the prediction pipeline over several pages, in-process.

    ``config`` (or its fields as keywords, as :class:`~repro.WebRacer`
    takes them) configures every run.  Pages go through
    :func:`repro.pool.fan_out` with ``jobs`` 1.
    """
    config = run_config(config, **fields)
    task = functools.partial(
        predict_page, config=config, budget=budget, minimize=minimize
    )
    return fan_out(task, pages, obs=obs)
