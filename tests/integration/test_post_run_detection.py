"""A run only records; races are detected over its rows afterwards.

:attr:`~repro.browser.instrument.Monitor.races` runs the detector over a
finished run's rows.  The reference here is the online wiring the monitor
had before: every row ``Monitor.record`` returns goes straight to a
``RaceDetector`` of the run's own, as the paper's instrumentation feeds
its detector (Section 5.2.1).  Its CHC queries finalize HB clocks while
the page is still running, so an HB edge into an operation that some
query already finalized would raise here; that every incoming edge
arrives before an operation's first access is what makes the two agree.
"""

import pathlib

import pytest

from repro import WebRacer
from repro.browser.instrument import Monitor
from repro.browser.page import Browser
from repro.config import RunConfig
from repro.core.detector import RaceDetector
from repro.schedule_runner import load_page_inputs, run_page_once, schedule_matrix
from repro.sites import build_corpus

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "pages"


def wire_live_detector(patch) -> None:
    """Give every monitor a ``live`` detector fed as each row is recorded."""
    init, record = Monitor.__init__, Monitor.record

    def live_init(monitor, *args, **kwargs):
        init(monitor, *args, **kwargs)
        monitor.live = RaceDetector(monitor.trace, monitor.graph)

    def live_record(monitor, *args, **kwargs):
        row = record(monitor, *args, **kwargs)
        if row is not None:
            monitor.live.on_access(row)
        return row

    patch.setattr(Monitor, "__init__", live_init)
    patch.setattr(Monitor, "record", live_record)


def outcome(detector, graph):
    return (
        [race.describe() for race in detector.races],
        detector.chc_queries,
        graph.chain_count,
        graph.memory_cells(),
    )


def assert_detected_alike(run) -> None:
    """``run()`` returns a finished page: detecting during the run and
    after it give the same races, CHC queries and HB clocks."""
    with pytest.MonkeyPatch.context() as patch:
        wire_live_detector(patch)
        page = run()
        assert page.monitor.detector is None
        live = outcome(page.monitor.live, page.monitor.graph)
    page = run()
    page.races
    assert outcome(page.monitor.detector, page.monitor.graph) == live
    page.close()


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(master_seed=0, limit=20)


@pytest.mark.parametrize("index", range(20))
def test_corpus_site(corpus, index):
    site = corpus[index]
    racer = WebRacer(seed=0)
    assert_detected_alike(
        lambda: racer.run_page(
            site.html,
            site.name,
            index * 101,
            racer.scheduler_for_page(index),
            resources=site.resources,
            latencies=site.latencies,
        )
    )


@pytest.mark.parametrize("network", ["uniform", "connection"])
@pytest.mark.parametrize("spec", schedule_matrix(4, seed=0), ids=lambda s: s.sid)
def test_example_pages_under_explore_schedules(spec, network):
    """FIFO, adversarial and two seeded-random schedules, with the
    explore tie window (``run_page_once``) and both network models."""
    config = RunConfig(seed=0, network=network)
    for page in load_page_inputs(str(EXAMPLES)):
        assert_detected_alike(lambda: run_page_once(page, spec.build(), config))


def test_heavy_page():
    html = "".join(
        f"<div id='d{i}'></div><script>t{i % 7} = {i};</script>" for i in range(300)
    )
    assert_detected_alike(lambda: Browser(seed=0).load(html))


RACY_PAGE = '<button id="b" onclick="x = 2">go</button><script>x = 1;</script>'


def test_run_only_records():
    page = Browser(seed=0).load(RACY_PAGE)
    page.queue_user_event("click", page.document.get_element_by_id("b"))
    page.run()
    assert page.monitor.detector is None
    assert page.monitor.graph.chain_count == 0  # nothing finalized yet
    assert [race.describe() for race in page.races] == [
        "write-write race on prop #1.x: op 3 (write) vs op 7 (write)"
    ]
    assert page.monitor.detector is not None


def test_detector_resumes_after_the_run_goes_on():
    """Races read, then more run: the next read adds the new rows' races
    instead of returning the first read's."""
    page = Browser(seed=0).load(RACY_PAGE)
    assert page.races == []
    page.queue_user_event("click", page.document.get_element_by_id("b"))
    page.run()
    assert [race.describe() for race in page.races] == [
        "write-write race on prop #1.x: op 3 (write) vs op 7 (write)"
    ]
    detector = page.monitor.detector
    queries = detector.chc_queries
    assert page.races is detector.races  # a read with no new rows adds nothing
    assert detector.chc_queries == queries
