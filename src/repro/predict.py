"""Single-trace race prediction with replay confirmation (``repro predict``).

``repro explore`` buys schedule coverage by brute force: N runs per page,
one per schedule.  This pipeline extracts comparable coverage from **one**
recorded execution:

1. run the page once under FIFO, recording the schedule
   (:class:`~repro.browser.scheduler.DecisionScheduler`) — this is the
   *observed* execution, the one the paper's tool would have seen;
2. sweep the trace with the schedulable-happens-before analysis
   (:func:`repro.core.hb.shb.predict_races`): conflicting rule-concurrent
   pairs the exact detector missed become *predictions*, classified
   ``schedulable`` (SHB leaves the pair unordered) or ``conditional``
   (ordered only via racy reads-from edges);
3. **confirm by replay**: predictions are cross-validated against the
   explore machinery — witness schedules (adversarial, then seeded
   randoms up to ``budget``) run until one's filtered fingerprints
   contain the predicted fingerprint and
   :func:`~repro.schedule_runner.replay_reproduces` verifies the recorded
   witness replays to the same trace.  Confirmed predictions can be
   ddmin-minimized (:func:`~repro.schedule_runner.minimize_schedule`)
   down to the smallest FIFO-divergence set that still fires the race.

A prediction that no witness schedule confirmed stays ``predicted-only``:
either the budget was too small, the Section 5.3 filters suppress the
race in every witnessing schedule, or the operation-level SHB abstraction
over-approximated.  Replay is the ground truth; the report never promotes
an unconfirmed prediction.

Every run goes through :func:`~repro.schedule_runner.run_page_once`, the
single run-config authority, so recorded witnesses replay exactly.
"""

from __future__ import annotations

import functools
import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .browser.scheduler import DecisionScheduler, ScheduleTrace
from .config import RunConfig, run_config
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
    ScheduleSpec,
    minimize_schedule,
    report_run,
    run_page_once,
    run_page_schedule,
    schedule_matrix,
)

#: Default number of witness schedules tried per page (adversarial + randoms).
DEFAULT_WITNESS_BUDGET = 6

OUTCOME_CONFIRMED = "predicted+confirmed"
OUTCOME_PREDICTED_ONLY = "predicted-only"


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
    confirmed: bool = False
    #: Witness schedule identity when confirmed.
    witness_sid: Optional[str] = None
    witness_policy: Optional[str] = None
    witness_seed: Optional[int] = None
    #: Recorded witness schedule (``ScheduleTrace.to_dict()``).
    witness_trace_dict: Optional[Dict[str, Any]] = None
    #: Replay verification of the witness run (None = not attempted).
    replay_ok: Optional[bool] = None
    #: ``MinimizationResult.to_dict()`` when minimization ran.
    minimized: Optional[Dict[str, Any]] = None
    #: ``RaceEvidence.to_dict()`` built from the recorded trace.
    evidence: Optional[Dict[str, Any]] = None

    @property
    def outcome(self) -> str:
        """``predicted+confirmed`` or ``predicted-only``."""
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
    #: Witness schedule runs actually executed, in trial order.
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
        """Predictions a witness schedule replay-confirmed."""
        return [p for p in self.predictions if p.confirmed]

    def summary(self) -> str:
        """One-line prediction summary."""
        return (
            f"{self.page}: {len(self.observed_fingerprints)} observed, "
            f"{len(self.predictions)} predicted, "
            f"{len(self.confirmed())} confirmed by replay"
        )


def witness_schedule_specs(seed: int, budget: int) -> List[ScheduleSpec]:
    """The witness schedules tried for one page, in trial order.

    The explore matrix's columns without FIFO (the observed run):
    adversarial first (deterministic, and by construction the most
    reorder-happy policy), then the seeded randoms — so prediction
    witnesses and matrix columns are directly comparable.
    """
    if budget < 1:
        raise ValueError(f"witness budget must be >= 1, got {budget}")
    return schedule_matrix(budget + 1, seed)[1:]


def _prediction_entries(
    analysis: ShbAnalysis, page_obj, base_fingerprints: List[str]
) -> List[PredictionResult]:
    """Fingerprint, classify, and dedup the raw SHB predictions."""
    from .explain.evidence import EvidenceCache, build_race_evidence
    from .explain.fingerprint import race_fingerprint

    entries: List[PredictionResult] = []
    seen: set = set(base_fingerprints)
    cache = EvidenceCache(page_obj.monitor.graph)
    for prediction in analysis.predictions:
        fingerprint = race_fingerprint(prediction.race, page_obj.trace)
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        classified_report = build_report([prediction.race], page_obj.trace)
        classified = classified_report.races[0]
        evidence = build_race_evidence(
            classified,
            page_obj.trace,
            page_obj.monitor.graph,
            cache=cache,
            fingerprint=fingerprint,
        )
        entries.append(
            PredictionResult(
                fingerprint=fingerprint,
                status=prediction.status,
                kind=prediction.race.kind,
                location=prediction.race.location.describe(),
                description=prediction.race.describe(),
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
                evidence=evidence.to_dict(),
            )
        )
    # Schedulable predictions are the stronger claim; try them first.
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
    """Record one FIFO execution, predict races, confirm by replay.

    ``budget`` caps the number of witness schedules run; witness runs are
    shared across predictions (one adversarial run can confirm several),
    and the search stops early once every prediction is confirmed.
    """
    obs = obs if obs is not None else NULL
    started = time.perf_counter()
    report = PredictReport(page=page.url, seed=config.seed, budget=budget)
    try:
        _observe(page, report, config, obs)
        _confirm_predictions(page, report, config, obs)
        if minimize:
            _minimize_confirmed(page, report, config, obs)
        if obs.enabled:
            obs.count("predict.pages")
            obs.count("predict.predicted", len(report.predictions))
            obs.count("predict.confirmed", len(report.confirmed()))
    except Exception as exc:  # crash isolation, as in the explore matrix
        report.error = crash_line(exc)
    report.duration_ms = (time.perf_counter() - started) * 1000.0
    return report


def _observe(
    page: PageInput, report: PredictReport, config: RunConfig, obs
) -> None:
    """Record the observed FIFO run, sweep it, and fill in ``report``'s
    observed races and predictions.

    The run is closed, and its page, report and SHB analysis dropped,
    before this returns, so no witness run shares the process with them.
    """
    with obs.span("predict.base_run", cat="predict", page=page.url):
        recorder = DecisionScheduler(ScheduleSpec("fifo", "fifo").build())
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
        report.predictions = _prediction_entries(analysis, page_obj, base_fps)


def _confirm_predictions(
    page: PageInput, report: PredictReport, config: RunConfig, obs
) -> None:
    """Run witness schedules until every prediction is confirmed or the
    budget is spent.  Each witness run is recorded and replay-verified
    (:func:`~repro.schedule_runner.run_page_schedule` with
    ``verify_replay=True``), so a confirmation is backed by a replayable
    :class:`~repro.browser.scheduler.ScheduleTrace`, not a lucky run."""
    pending = {p.fingerprint: p for p in report.predictions}
    if not pending:
        return
    with obs.span(
        "predict.confirm",
        cat="predict",
        page=page.url,
        predictions=len(pending),
    ):
        for spec in witness_schedule_specs(config.seed, report.budget):
            run = run_page_schedule(
                page, spec, config, verify_replay=True, obs=obs
            )
            report.witness_runs.append(run)
            # One recorded run + one replay verification.
            report.runs_executed += 2 if run.ok else 1
            if obs.enabled:
                obs.count("predict.witness_budget_spent")
            if not run.ok:
                continue
            for fingerprint in list(pending):
                if (
                    fingerprint not in run.fingerprints
                    or run.replay_ok is False
                ):
                    continue
                prediction = pending.pop(fingerprint)
                prediction.confirmed = True
                prediction.witness_sid = run.sid
                prediction.witness_policy = run.policy
                prediction.witness_seed = run.seed
                prediction.witness_trace_dict = run.trace_dict
                prediction.replay_ok = run.replay_ok
            if not pending:
                return


def _minimize_confirmed(
    page: PageInput, report: PredictReport, config: RunConfig, obs
) -> None:
    """ddmin every confirmed prediction's witness down to the smallest
    FIFO-divergence set that still fires its fingerprint."""
    for prediction in report.confirmed():
        if prediction.witness_trace_dict is None:
            continue
        try:
            result = minimize_schedule(
                page,
                ScheduleTrace.from_dict(prediction.witness_trace_dict),
                prediction.fingerprint,
                config,
                obs=obs,
            )
        except ValueError:
            # The recorded witness no longer reproduces (should not
            # happen after replay verification); keep the confirmation,
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
