"""The post-run prediction pass over HB chains, against its references.

* The chain-indexed full-history sweep reports the pairwise sweep's races
  (:class:`~tests.core.detector_oracle.OracleFullHistoryDetector`), in
  the same order, with the same ``Access`` rows, on real runs, with no
  more HB lookups than the pairwise sweep's CHC queries.
* Its lookups grow with the trace, not with the square of the accesses
  per location.
* The evidence records of one pass share their steps and paths; the
  documents serialize as with a fresh build per race, and no consumer
  mutates a shared record.
* The common ancestors read off the chain clocks are
  :func:`~repro.core.hb.witness.race_witness`'s.
"""

import json
import pathlib

import pytest

from repro import WebRacer
from repro.browser.page import Browser
from repro.config import RunConfig
from repro.core.full_detector import FullHistoryDetector
from repro.core.hb.graph import HBGraph
from repro.core.hb.shb import predict_races
from repro.core.hb.witness import race_witness
from repro.core.locations import VarLocation
from repro.core.trace import Trace, location_key
from repro.explain import evidence as evidence_module
from repro.explain.evidence import EvidenceCache
from repro.explain.report_json import build_report_document
from repro.explain.schedule_report import (
    assemble_predict_document,
    render_predict_text,
)
from repro.explain import validate_predict_report
from repro.predict import predict_pages
from repro.schedule_runner import (
    PageInput,
    load_page_inputs,
    report_run,
    run_page_once,
    schedule_matrix,
)
from repro.sites import build_corpus
from repro.sites.corpus import corpus_specs

from ..core.detector_oracle import OracleFullHistoryDetector

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "pages"


def heavy_html(blocks: int) -> str:
    """The E8 operation-heavy page."""
    return "".join(
        f"<div id='d{i}'></div><script>t{i % 7} = {i};</script>"
        for i in range(blocks)
    )


def bounded_sites(count: int):
    """The first ``count`` corpus sites that settle under every schedule
    (the ``ford_polling`` sites poll forever under the adversarial one)."""
    indices = [
        index
        for index, spec in enumerate(corpus_specs(0))
        if not any(name == "ford_polling" for name, _ in spec.patterns)
    ][:count]
    sites = build_corpus(master_seed=0, limit=max(indices) + 1)
    return [
        PageInput(url=sites[i].name, html=sites[i].html, resources=dict(sites[i].resources))
        for i in indices
    ]


def assert_sweeps_agree(trace, graph) -> None:
    full = FullHistoryDetector(trace, graph).replay()
    oracle = OracleFullHistoryDetector(graph)
    for row in range(len(trace)):
        oracle.on_access(trace.access(row))
    assert full.races == oracle.races
    assert full.chc_queries <= oracle.chc_queries


# ----------------------------------------------------------------------
# (a) the sweep equals the pairwise sweep on real runs


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(master_seed=0, limit=20)


@pytest.mark.parametrize("index", range(20))
def test_corpus_site(corpus, index):
    page = WebRacer(seed=0).check_site(corpus[index]).page
    assert_sweeps_agree(page.trace, page.monitor.graph)


@pytest.mark.parametrize("spec", schedule_matrix(7, seed=0), ids=lambda s: s.sid)
def test_example_pages_under_predict_schedules(spec):
    """The observed FIFO run and six more schedules of the explore
    matrix (adversarial and seeded randoms)."""
    config = RunConfig(seed=0)
    for page_input in load_page_inputs(str(EXAMPLES)):
        page = run_page_once(page_input, spec.build(), config)
        page.races
        assert_sweeps_agree(page.trace, page.monitor.graph)
        page.close()


def test_heavy_page():
    page = Browser(seed=0).load(heavy_html(300))
    page.races
    assert_sweeps_agree(page.trace, page.monitor.graph)


# ----------------------------------------------------------------------
# (b) work follows the trace


def test_heavy_page_lookups_scale_linearly():
    """The pairwise sweep made 3.57 M CHC queries at 1,000 blocks and
    14.28 M at 2,000.  The E8 page is one HB chain, so every earlier row
    at a location sits on the row's own chain and the sweep needs no
    lookup at all."""
    lookups = {}
    for blocks in (1000, 2000):
        page = Browser(seed=0).load(heavy_html(blocks))
        page.races
        full = FullHistoryDetector(page.trace, page.monitor.graph).replay()
        assert full.races == []
        lookups[blocks] = full.chc_queries
        page.close()
    assert lookups[2000] <= 2.2 * lookups[1000]


def ladder(rungs: int):
    """Two HB chains in lockstep, every operation writing one variable:
    ``a_i ≺ a_{i+1}``, ``b_i ≺ b_{i+1}``, and each side's ``i`` before the
    other's ``i + 1``, so only the rung ``a_i || b_i`` races."""
    graph = HBGraph()
    graph.add_operation(1)
    trace = Trace()
    loc = trace.intern(location_key(VarLocation(1, "x")))
    for i in range(rungs):
        a, b = 2 * i + 2, 2 * i + 3
        previous = (2 * i, 2 * i + 1) if i else (1, 1)
        for src in previous:
            graph.add_edge(src, a)
            graph.add_edge(src, b)
        trace.record(a, loc, False, 0, {})
        trace.record(b, loc, False, 0, {})
    return trace, graph


def test_multi_chain_lookups_scale_linearly():
    lookups, oracle_queries = {}, {}
    for rungs in (250, 500):
        trace, graph = ladder(rungs)
        full = FullHistoryDetector(trace, graph).replay()
        oracle = OracleFullHistoryDetector(graph)
        for row in range(len(trace)):
            oracle.on_access(trace.access(row))
        assert full.races == oracle.races
        assert len(full.races) == rungs
        assert graph.chain_count == 2
        lookups[rungs], oracle_queries[rungs] = full.chc_queries, oracle.chc_queries
    assert 0 < lookups[500] <= 2.2 * lookups[250]
    assert oracle_queries[500] > 3.5 * oracle_queries[250]


# ----------------------------------------------------------------------
# (c) shared evidence records are invisible


def fresh_build_per_race(patch) -> None:
    """Every evidence record built with its own cache and fingerprint."""
    build = evidence_module.build_race_evidence

    def fresh(classified, trace, hb, obs=None, cache=None, fingerprint=None):
        return build(classified, trace, hb, obs=obs)

    patch.setattr(evidence_module, "build_race_evidence", fresh)


@pytest.fixture(scope="module")
def predict_inputs():
    return load_page_inputs(str(EXAMPLES)) + bounded_sites(5)


def predict_json(pages) -> str:
    document = assemble_predict_document(predict_pages(pages, seed=0, budget=1))
    return json.dumps(document, indent=2, sort_keys=True)


def test_predict_document_with_and_without_sharing(predict_inputs):
    shared = predict_json(predict_inputs)
    with pytest.MonkeyPatch.context() as patch:
        fresh_build_per_race(patch)
        assert predict_json(predict_inputs) == shared
    assert '"path_from_nca": [\n' in shared  # some record has a path


def test_consumers_leave_shared_records_alone(predict_inputs):
    document = assemble_predict_document(
        predict_pages(predict_inputs, seed=0, budget=1)
    )
    first = json.dumps(document, sort_keys=True)
    render_predict_text(document)
    validate_predict_report(document)
    assert json.dumps(document, sort_keys=True) == first


def test_report_document_with_and_without_sharing(corpus):
    def report_json():
        racer = WebRacer(seed=0)
        pages = [(site.name, racer.check_site(site)) for site in corpus[:5]]
        return json.dumps(build_report_document(pages), sort_keys=True)

    shared = report_json()
    with pytest.MonkeyPatch.context() as patch:
        fresh_build_per_race(patch)
        assert report_json() == shared


# ----------------------------------------------------------------------
# (d) common ancestors off the chain clocks


@pytest.mark.parametrize("page_input", [
    *load_page_inputs(str(EXAMPLES)),
    *bounded_sites(10),
], ids=lambda page: pathlib.Path(page.url).name)
def test_witness_matches_cone_walks(page_input):
    """Every prediction of predict's observed run on the predict
    workload's 13 pages."""
    config = RunConfig(seed=0)
    page = run_page_once(page_input, schedule_matrix(1)[0].build(), config)
    report = report_run(page, page_input.url, config)[0]
    graph = page.monitor.graph
    analysis = predict_races(page.trace, graph, report.raw_races)
    cache = EvidenceCache(graph)
    for prediction in analysis.predictions:
        a, b = prediction.race.op_pair()
        expected = race_witness(graph, a, b)
        nca, count, ordered = cache.witness(a, b)
        assert (nca, count, ordered) == (
            expected.nca, expected.common_ancestor_count, expected.ordered,
        )
        for op_id, path in ((a, expected.path_a), (b, expected.path_b)):
            assert cache.path(nca, op_id) == [
                {"src": step.src, "dst": step.dst, "rule": step.rule}
                for step in path
            ]
    page.close()
