"""A closed page run leaves nothing of itself to the cycle collector.

Every owner of a run (explore's recording and replay, predict's base
run, a corpus site) closes it once it has read what it needs.  The trace,
HB store, detector and operations hold no reference cycle, and closing a
run cuts the ones the page, its DOM and its JS heap hold, so reference
counting frees the whole run at once.  Each owner runs here with
automatic collection off and ``gc.DEBUG_SAVEALL`` on, so one
``gc.collect()`` afterwards lists every object that only the collector
could have freed.  So does a run stopped by ``max_run_ms`` before its
event loop drained, whose queued tasks, timers and transfers close over
the page.  A page script can still link its own JS values into a
cycle, which no unlinking of the page cuts; one test names such a cycle.
A run that is not closed keeps its DOM and JS globals, and a page parsed
once keeps none of its HTML tokens, even while its run is live.
"""

import gc
import pathlib
import types
import typing
from collections import Counter

import pytest

from repro import WebRacer
from repro.browser import bindings
from repro.browser.dispatcher import Dispatcher
from repro.browser.event_loop import EventLoop
from repro.browser.exploration import AutoExplorer
from repro.browser.instrument import Monitor
from repro.browser.page import Browser, DocumentLoader, Page
from repro.browser.scheduler import FifoScheduler
from repro.browser.timers import TimerRegistry
from repro.browser.window import Window
from repro.browser.xhr import XhrBinding
from repro.config import RunConfig
from repro.core.access import Access
from repro.core.detector import RaceDetector
from repro.core.hb.graph import HBGraph
from repro.core.locations import Location
from repro.core.operations import Operation
from repro.core.trace import Trace
from repro.dom.document import Document
from repro.dom.element import Element
from repro.html.parser import clear_token_cache
from repro.html.tokenizer import Comment, Doctype, EndTag, StartTag, Text
from repro.js.interpreter import Interpreter
from repro.js.scope import ObjectScope, Scope
from repro.js.values import Cell, JSFunction, JSObject, NativeFunction
from repro.predict import predict_page
from repro.schedule_runner import ScheduleSpec, load_page_inputs, run_page_schedule
from repro.sites import corpus_builders

PAGES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "pages"

RUN_STATE = (Trace, HBGraph, RaceDetector, Operation, Access) + typing.get_args(
    Location
)

PAGE_STATE = (
    Page,
    Browser,
    Monitor,
    EventLoop,
    Interpreter,
    bindings.Bindings,
    bindings.ElementBinding,
    bindings.StyleBinding,
    bindings.DocumentBinding,
    bindings.WindowBinding,
    bindings.EventBinding,
    XhrBinding,
    Dispatcher,
    DocumentLoader,
    TimerRegistry,
    AutoExplorer,
    Document,
    Window,
    Element,
    JSObject,
    JSFunction,
    NativeFunction,
    Scope,
    ObjectScope,
    Cell,
)


def left_to_collector(action) -> Counter:
    """Run-state and page-state objects, and functions of
    ``repro.js.scope``, that ``action()`` leaves for the cycle collector,
    counted by type."""
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
            if isinstance(obj, RUN_STATE + PAGE_STATE):
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


def _stop_widget_poll_early(network):
    """Run ``widget_poll.html`` for 30 virtual ms only, then close it: its
    queued tasks, live interval and fetches in flight close over the
    page."""
    [page] = [
        page
        for page in load_page_inputs(str(PAGES))
        if page.url.endswith("widget_poll.html")
    ]
    run = WebRacer(max_run_ms=30.0, network=network).run_page(
        page.html, page.url, 0, FifoScheduler(), resources=page.resources
    )
    assert run.loop.pending() > 0 and run.timers.pending_count() > 0
    run.close()


def stopped_by_max_run_ms():
    _stop_widget_poll_early("uniform")


def stopped_by_max_run_ms_mid_transfer():
    _stop_widget_poll_early("connection")


@pytest.mark.parametrize(
    "action",
    [
        record_and_replay,
        predict_widget_poll,
        corpus_without_pages,
        stopped_by_max_run_ms,
        stopped_by_max_run_ms_mid_transfer,
    ],
)
def test_closed_runs_leave_nothing_to_the_collector(action):
    assert left_to_collector(action) == Counter()


def test_a_script_made_cycle_is_all_a_closed_run_leaves():
    """An object that holds itself, and a function kept in the scope it
    closes over, are cycles the page script made.  They wait for the
    collector with what they reach: that call's ``arguments`` and, up the
    scope chain, the global scope and its emptied global object.  Nothing
    else of the page does."""
    html = (
        "<script>var o = {}; o.self = o;"
        " function outer() { function inner() {} return inner; }"
        " var f = outer();</script>"
    )

    def check_and_close():
        WebRacer().check_page(html).page.close()

    assert left_to_collector(check_and_close) == Counter(
        {
            "JSObject": 2,
            "JSFunction": 1,
            "Scope": 1,
            "Cell": 2,
            "JSArray": 1,
            "ObjectScope": 1,
        }
    )


def assert_live(page):
    """The page's DOM and JS globals are intact."""
    document = page.document
    elements = document.all_elements()
    assert elements and document.body is not None
    assert all(element.parent is not None for element in elements)
    assert document.window is page.window and page.window.document is document
    global_object = page.interpreter.global_object
    assert global_object.get_own("document") is page.bindings.document(document)
    assert global_object.get_own("window") is page.bindings.window(page.window)


def test_check_page_hands_back_a_live_run():
    html = (PAGES / "form_race.html").read_text()
    hint = (PAGES / "hint.js").read_text()
    report = WebRacer().check_page(html, resources={"hint.js": hint})
    assert len(report.trace.accesses) == len(report.trace)
    assert report.page.races == report.raw_races != []
    assert_live(report.page)


def test_kept_corpus_pages_stay_live():
    corpus = WebRacer().check_corpus(corpus_builders(0, 3), keep_pages=True)
    for result in corpus.reports:
        page = result.page_report.page
        assert len(page.trace.accesses) == result.accesses
        assert len(page.races) == sum(result.raw_counts().values())
        assert_live(page)


def test_close_is_idempotent():
    html = (PAGES / "form_race.html").read_text()
    page = WebRacer().check_page(html).page
    document = page.document
    page.close()
    page.close()
    assert page.trace is None
    assert document.children == [] and document.window is None
    assert page.interpreter is None


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
