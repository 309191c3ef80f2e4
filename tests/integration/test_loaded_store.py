"""Offline analysis rebuilds the live run's happens-before store.

A loaded trace (:func:`repro.core.serialize.trace_from_dict`) builds the
store a run builds, fed the same edges in the same order, and finalizes
it lazily in the order the detector's queries come, as the live run's
store did.  Detecting over a trace round-tripped through
:func:`~repro.core.serialize.trace_to_dict` therefore opens the same
chains, stores the same clocks and makes the same CHC queries as
detecting over the run itself.
"""

import pathlib

import pytest

from repro import WebRacer
from repro.core.serialize import dumps_trace, loads_trace
from repro.schedule_runner import load_page_inputs
from repro.sites import build_corpus

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "pages"


def assert_store_rebuilt(report) -> None:
    monitor = report.page.monitor
    loaded = loads_trace(dumps_trace(monitor.trace, monitor.graph))
    detector = loaded.detect()
    assert [race.describe() for race in detector.races] == [
        race.describe() for race in report.raw_races
    ]
    assert detector.chc_queries == monitor.detector.chc_queries
    assert loaded.graph.chain_count == monitor.graph.chain_count
    assert loaded.graph.stored_clocks() == monitor.graph.stored_clocks()
    assert loaded.graph.memory_cells() == monitor.graph.memory_cells()


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(master_seed=0, limit=20)


@pytest.mark.parametrize("index", range(20))
def test_corpus_site(corpus, index):
    assert_store_rebuilt(WebRacer(seed=0).check_site(corpus[index]))


@pytest.mark.parametrize(
    "page",
    load_page_inputs(str(EXAMPLES)),
    ids=lambda page: pathlib.Path(page.url).name,
)
def test_example_page(page):
    report = WebRacer(seed=0).check_page(
        page.html, resources=page.resources, url=page.url, sizes=page.sizes
    )
    assert_store_rebuilt(report)
