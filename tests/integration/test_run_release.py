"""A closed page run leaves none of its bulk state to the cycle collector.

Every owner of a run (explore's recording and replay, predict's base
run, a corpus site) closes it once it has read what it needs.  The trace,
HB store, detector and operations hold no reference cycle, so closing a
run frees them at once; only the page, its DOM and its JS heap wait for
the collector.  Each owner runs here with automatic collection off and
``gc.DEBUG_SAVEALL`` on, so one ``gc.collect()`` afterwards lists every
object that only the collector could have freed.  A page parsed once
keeps none of its HTML tokens, even while its run is live.
"""

import gc
import pathlib
import types
import typing
from collections import Counter

import pytest

from repro import WebRacer
from repro.config import RunConfig
from repro.core.access import Access
from repro.core.detector import RaceDetector
from repro.core.hb.graph import HBGraph
from repro.core.locations import Location
from repro.core.operations import Operation
from repro.core.trace import Trace
from repro.html.parser import clear_token_cache
from repro.html.tokenizer import Comment, Doctype, EndTag, StartTag, Text
from repro.predict import predict_page
from repro.schedule_runner import ScheduleSpec, load_page_inputs, run_page_schedule
from repro.sites import corpus_builders

PAGES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "pages"

RUN_STATE = (Trace, HBGraph, RaceDetector, Operation, Access) + typing.get_args(
    Location
)


def left_to_collector(action) -> Counter:
    """Run-state objects, and functions of ``repro.js.scope``, that
    ``action()`` leaves for the cycle collector, counted by type."""
    gc.collect()
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    try:
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        action()
        gc.collect()
        found = Counter()
        for obj in gc.garbage:
            if isinstance(obj, RUN_STATE):
                found[type(obj).__name__] += 1
            elif (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == "repro.js.scope"
            ):
                found[obj.__qualname__] += 1
        return found
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def record_and_replay():
    [page] = load_page_inputs(str(PAGES / "form_race.html"))
    result = run_page_schedule(
        page, ScheduleSpec("fifo", "fifo"), RunConfig(), verify_replay=True
    )
    assert result.ok and result.replay_ok


def predict_widget_poll():
    [page] = [
        page
        for page in load_page_inputs(str(PAGES))
        if page.url.endswith("widget_poll.html")
    ]
    report = predict_page(page, RunConfig())
    assert report.ok and report.runs_executed > 1


def corpus_without_pages():
    corpus = WebRacer().check_corpus(corpus_builders(0, 3), keep_pages=False)
    assert len(corpus.ok()) == 3


@pytest.mark.parametrize(
    "action", [record_and_replay, predict_widget_poll, corpus_without_pages]
)
def test_closed_runs_leave_nothing_to_the_collector(action):
    assert left_to_collector(action) == Counter()


def test_check_page_hands_back_a_live_run():
    html = (PAGES / "form_race.html").read_text()
    hint = (PAGES / "hint.js").read_text()
    report = WebRacer().check_page(html, resources={"hint.js": hint})
    assert len(report.trace.accesses) == len(report.trace)
    assert report.page.races == report.raw_races != []


def test_kept_corpus_pages_stay_live():
    corpus = WebRacer().check_corpus(corpus_builders(0, 3), keep_pages=True)
    for result in corpus.reports:
        page = result.page_report.page
        assert len(page.trace.accesses) == result.accesses
        assert len(page.races) == sum(result.raw_counts().values())


def test_close_is_idempotent():
    html = (PAGES / "form_race.html").read_text()
    page = WebRacer().check_page(html).page
    page.close()
    page.close()
    assert page.trace is None


def test_a_page_checked_once_keeps_no_tokens():
    marker = "only-this-page-says-so"
    html = (
        f"<!doctype {marker}><div id='{marker}'>{marker}</div>"
        f"<!-- {marker} --><script>var said = '{marker}';</script>"
    )
    clear_token_cache()
    report = WebRacer().check_page(html)
    assert report.page.loaded()
    gc.collect()
    tokens = (Comment, Doctype, EndTag, StartTag, Text)
    assert [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, tokens) and marker in repr(obj)
    ] == []
