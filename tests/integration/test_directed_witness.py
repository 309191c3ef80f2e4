"""Directed witnesses (`repro predict`): the filters run first, then one
hold-back schedule per surviving prediction, recorded and replayed.

A directed witness follows the observed FIFO picks up to the step that
ran the predicted pair's earlier operation, holds that task back until
the task that ran the later operation has run, and continues FIFO.  It
confirms the prediction only when it really ran the pair in the flipped
order, the pair still races there, and it replays strictly.
"""

import pathlib
from contextlib import closing
from typing import Dict, List, Tuple

import pytest

from repro.browser.event_loop import Task
from repro.browser.scheduler import (
    DecisionScheduler,
    HoldBackScheduler,
    ScheduleTrace,
)
from repro.config import RunConfig
from repro.predict import (
    DIRECTED,
    OUTCOME_CONFIRMED,
    OUTCOME_FILTERED,
    predict_page,
    predict_pages,
)
from repro.schedule_runner import PageInput, load_page_inputs, run_page_once

from .test_chain_sweep import EXAMPLES, bounded_sites
from .test_explore import POLL_HTML, POLL_RESOURCES

#: The predict workload's witness budget.
BUDGET = 6
CONFIG = RunConfig(seed=0)

[WIDGET_POLL] = [
    page
    for page in load_page_inputs(str(EXAMPLES))
    if pathlib.Path(page.url).name == "widget_poll.html"
]


@pytest.fixture(scope="module")
def widget_report():
    return predict_page(WIDGET_POLL, CONFIG, budget=BUDGET)


@pytest.fixture(scope="module")
def workload():
    """The predict workload's pages (the example pages, then the first
    ten corpus sites that settle under every schedule) and their
    reports."""
    pages = load_page_inputs(str(EXAMPLES)) + bounded_sites(10)
    reports = predict_pages(pages, seed=0, budget=BUDGET)
    return list(zip(pages, reports))


def replay(page: PageInput, trace_dict) -> object:
    """Strictly replay a recorded schedule; the finished page."""
    trace = ScheduleTrace.from_dict(trace_dict)
    scheduler = DecisionScheduler(follow=trace.picks)
    page_obj = run_page_once(page, scheduler, CONFIG)
    assert scheduler.picks == trace.picks
    return page_obj


def op_keys(trace) -> Dict[int, Tuple[str, str, int]]:
    """Each operation as (kind, label, occurrence of that kind and label)."""
    counts: Dict[Tuple[str, str], int] = {}
    keys = {}
    for operation in trace.operations:
        name = (operation.kind, operation.label)
        keys[operation.op_id] = (*name, counts.get(name, 0))
        counts[name] = counts.get(name, 0) + 1
    return keys


def ops_labelled(trace, text: str) -> List[int]:
    return [op.op_id for op in trace.operations if text in op.label]


def init_widget(report):
    [prediction] = [
        p for p in report.predictions if "initWidget" in p.location
    ]
    return prediction


def task(seq: int) -> Task:
    return Task(action=lambda: None, ready_time=0.0, seq=seq)


class TestHoldBackScheduler:
    def test_passes_the_held_task_over_until_the_awaited_one_ran(self):
        policy = HoldBackScheduler(held=1, until=3, patience=10)
        assert policy.pick([task(1), task(2), task(3)]).seq == 2
        assert policy.pick([task(1), task(3), task(4)]).seq == 3
        # Released: FIFO again.
        assert policy.pick([task(1), task(4)]).seq == 1

    def test_runs_the_held_task_when_it_is_alone(self):
        policy = HoldBackScheduler(held=1, until=3, patience=10)
        assert policy.pick([task(1)]).seq == 1
        assert policy.pick([task(1), task(2)]).seq == 1

    def test_patience_bounds_the_hold(self):
        policy = HoldBackScheduler(held=1, until=9, patience=2)
        picks = [policy.pick([task(1), task(seq)]).seq for seq in (2, 3, 4)]
        assert picks == [2, 3, 1]

    def test_fifo_when_the_held_task_is_not_first(self):
        policy = HoldBackScheduler(held=5, until=9, patience=3)
        assert policy.pick([task(4), task(5)]).seq == 4


class TestInitWidgetWitness:
    def test_confirmed_by_a_strictly_replaying_witness(self, widget_report):
        prediction = init_widget(widget_report)
        assert prediction.outcome == OUTCOME_CONFIRMED
        assert prediction.witness_policy == DIRECTED
        assert prediction.flipped and prediction.raced
        assert prediction.replay_ok is True
        with closing(replay(WIDGET_POLL, prediction.witness_trace_dict)):
            pass

    def test_witness_runs_boot_before_lib(self, widget_report):
        """lib.js is held back until boot.js has run, so boot.js calls
        ``initWidget`` before any script declared it."""
        prediction = init_widget(widget_report)
        with closing(replay(WIDGET_POLL, prediction.witness_trace_dict)) as page:
            [boot] = ops_labelled(page.trace, "src=boot.js")
            [lib] = ops_labelled(page.trace, "src=lib.js")
            assert boot < lib
            assert any(
                str(crash.error) == "ReferenceError: initWidget is not defined"
                for crash in page.trace.crashes
            )

    def test_observed_run_runs_lib_first(self, widget_report):
        with closing(replay(WIDGET_POLL, widget_report.base_trace_dict)) as page:
            [boot] = ops_labelled(page.trace, "src=boot.js")
            [lib] = ops_labelled(page.trace, "src=lib.js")
            assert lib < boot


class TestWorkloadWitnesses:
    def test_every_witness_replays(self, workload):
        runs = [run for _, report in workload for run in report.witness_runs]
        assert runs
        for run in runs:
            assert run.ok, run.error
            assert run.policy == DIRECTED
            assert run.replay_ok is True, f"{run.page}@{run.sid}"

    def test_confirmed_witnesses_run_the_later_operation_first(self, workload):
        confirmed = 0
        for page, report in workload:
            if not report.confirmed():
                continue
            with closing(replay(page, report.base_trace_dict)) as observed:
                observed_keys = op_keys(observed.trace)
            for prediction in report.confirmed():
                earlier, later = (observed_keys[op] for op in prediction.op_pair)
                with closing(replay(page, prediction.witness_trace_dict)) as run:
                    found = {key: op for op, key in op_keys(run.trace).items()}
                assert found[later] < found[earlier], prediction.description
                confirmed += 1
        assert confirmed >= 1

    def test_filtered_predictions_carry_no_witness_and_no_evidence(self, workload):
        filtered = [
            prediction
            for _, report in workload
            for prediction in report.predictions
            if prediction.outcome == OUTCOME_FILTERED
        ]
        assert filtered
        for prediction in filtered:
            assert prediction.filtered_by in (
                "form_race_filter", "single_dispatch_filter",
            )
            assert prediction.evidence is None
            assert prediction.witness_sid is None
            assert prediction.witness_trace_dict is None
            assert not prediction.confirmed

    def test_at_most_one_witness_per_survivor_within_budget(self, workload):
        for _, report in workload:
            survivors = [p for p in report.predictions if p.filtered_by is None]
            assert len(report.witness_runs) <= min(BUDGET, len(survivors))
            witnessed = [p.witness_sid for p in survivors if p.witness_sid]
            assert sorted(witnessed) == sorted(
                run.sid for run in report.witness_runs
            )
            assert all(p.evidence is not None for p in survivors)

    def test_workload_counts(self, workload):
        """Filter first: 227 of the 256 predictions never cost a run."""
        reports = [report for _, report in workload]
        assert sum(len(r.predictions) for r in reports) == 256
        assert sum(len(r.filtered()) for r in reports) == 227
        assert sum(len(r.witness_runs) for r in reports) <= 27
        assert sum(r.runs_executed for r in reports) <= 67
        assert sum(len(r.confirmed()) for r in reports) >= 1

    def test_budget_caps_the_witnesses(self):
        [page] = [
            page for page in bounded_sites(4) if page.url == "Allstate"
        ]
        report = predict_page(page, CONFIG, budget=1)
        survivors = [p for p in report.predictions if p.filtered_by is None]
        assert len(survivors) > 1
        assert len(report.witness_runs) == 1


def test_polling_page_confirms_in_three_runs():
    page = PageInput(url="poll.html", html=POLL_HTML, resources=dict(POLL_RESOURCES))
    report = predict_page(page, CONFIG)
    assert [p.outcome for p in report.confirmed()] == [OUTCOME_CONFIRMED]
    # The observed run, one witness and its replay.
    assert report.runs_executed == 3
