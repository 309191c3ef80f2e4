"""Tests for the happens-before store factory and the incremental
invariants of the store it builds: ``make_backend`` yields the one
chain-clock :class:`HBGraph`, whose answers — given while the graph is still
growing or over the finished graph of a real page load — equal the
ancestor-set oracle's."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hb.backend import HB_STORE, make_backend
from repro.core.hb.graph import HBGraph
from repro.core.hb.witness import ancestor_closure

from .hb_oracle import ReachabilityOracle


def finalized(graph):
    """The operations whose chain positions are assigned, sorted."""
    return sorted(op for chain in graph.chain_members() for op in chain)


@pytest.fixture
def store():
    """A fresh store, built the way every run builds it."""
    return make_backend()


class TestBackendFactory:
    def test_names(self):
        assert HB_STORE == "graph"
        assert type(make_backend(HB_STORE)) is HBGraph
        with pytest.raises(ValueError, match="unknown hb backend"):
            make_backend("chains")


class TestIncrementalInvariants:
    def test_backward_edge_raises(self, store):
        with pytest.raises(ValueError, match="backward"):
            store.add_edge(5, 3)
        # The rejected edge leaves nothing behind.
        assert store.edge_count() == 0
        assert store.operation_ids() == []

    def test_chc_bottom_handling(self, store):
        store.add_edge(0, 1)
        store.add_operation(2)
        # ⊥ (id 0) is unordered with 2 yet never races with anything.
        assert store.concurrent(0, 2)
        assert not store.chc(0, 2) and not store.chc(2, 0)
        assert not store.chc(0, 1)
        assert store.chc(1, 2)

    def test_duplicate_edges_are_idempotent(self, store):
        single = make_backend()
        single.add_edge(1, 2, "a")
        assert store.add_edge(1, 2, "a")
        assert not store.add_edge(1, 2, "b")
        assert store.edge_count() == 1
        assert store.predecessors(2) == [1]
        assert store.edge_rule(1, 2) == "a"
        assert store.happens_before(1, 2) and single.happens_before(1, 2)
        assert [store.place(op) for op in (1, 2)] == [
            single.place(op) for op in (1, 2)
        ]
        assert store.memory_cells() == single.memory_cells()

    def test_edge_into_finalized_operation_raises(self, store):
        store.add_operation(1)
        store.add_operation(2)
        store.add_edge(1, 3)
        assert store.happens_before(1, 3)  # finalizes 3's clock
        with pytest.raises(ValueError, match="was queried"):
            store.add_edge(2, 3)
        # The refused edge changed no answer.
        assert store.predecessors(3) == [1]
        assert store.concurrent(2, 3)

    def test_lazy_finalization_is_partial(self):
        graph = HBGraph()
        for src, dst in [(1, 2), (3, 4)]:
            graph.add_edge(src, dst)
        graph.happens_before(1, 2)
        assert finalized(graph) == [1, 2]  # 3 and 4 untouched
        graph.happens_before(3, 4)
        assert finalized(graph) == [1, 2, 3, 4]

    def test_memory_cells_counts_clock_entries(self, store):
        for src, dst in [(1, 2), (1, 3), (2, 4), (3, 4)]:
            store.add_edge(src, dst)
        assert store.memory_cells() == 0  # nothing finalized yet
        assert store.happens_before(1, 2)
        assert store.memory_cells() == 2  # {c0: 0} and {c0: 1}
        places = [store.place(op) for op in store.operation_ids()]
        # 3 opens a second chain; 3 and 4 each cover both chains.
        assert store.chain_count == 2
        assert store.memory_cells() == 1 + 1 + 2 + 2
        assert store.memory_cells() == sum(len(clock) + 1 for *_, clock in places)

    def test_self_edge_rejected(self, store):
        assert not store.add_edge(4, 4)
        assert store.edge_count() == 0
        assert store.operation_ids() == []
        assert not store.happens_before(4, 4)

    def test_unknown_operations_unordered(self, store):
        store.add_edge(1, 2)
        assert not store.happens_before(1, 99)
        assert not store.happens_before(99, 1)
        assert not store.happens_before(98, 99)
        assert not store.concurrent(7, 7)
        # Asking about an unknown id registers and finalizes nothing.
        assert 99 not in store.operation_ids()
        assert store.memory_cells() == 0


forward_edges = st.lists(
    st.tuples(st.integers(1, 30), st.integers(1, 30)).map(
        lambda pair: (min(pair), max(pair))
    ).filter(lambda pair: pair[0] != pair[1]),
    max_size=60,
)


@given(forward_edges)
@settings(max_examples=100, deadline=None)
def test_three_representations_agree_on_random_dags(edges):
    """Chain clocks, the store's own predecessor lists (walked by the
    witness queries) and the oracle's ancestor sets give one relation."""
    graph = HBGraph()
    for src, dst in edges:
        graph.add_edge(src, dst)
    oracle = ReachabilityOracle(edges)
    nodes = graph.operation_ids()
    for b in nodes:
        walked = ancestor_closure(graph, b)
        assert walked == oracle.ancestors(b)
        for a in nodes:
            assert graph.happens_before(a, b) == (a in walked) == oracle.happens_before(a, b)


@given(forward_edges)
@settings(max_examples=100, deadline=None)
def test_online_queries_match_offline_answers(edges):
    """Frozen-prefix discipline: deliver edges grouped by destination in
    increasing order, querying after each group — the answers given mid-
    construction must equal the oracle's over the finished DAG."""
    oracle = ReachabilityOracle(edges)
    graph = HBGraph()
    seen = []
    for dst in sorted({d for _s, d in edges}):
        for src, edge_dst in edges:
            if edge_dst == dst:
                graph.add_edge(src, dst)
        seen.append(dst)
        for a in seen:
            assert graph.happens_before(a, dst) == oracle.happens_before(a, dst)


@pytest.mark.parametrize("site_index", [0, 3, 7])
def test_backends_agree_on_real_corpus_traces(site_index, monkeypatch):
    """Every CHC answer the detector got over a corpus site's run
    equals the oracle's answer over the finished happens-before graph."""
    from repro import WebRacer
    from repro.sites import build_corpus

    site = build_corpus(master_seed=0, limit=site_index + 1)[site_index]
    answers = []
    live = HBGraph.concurrent

    def recording(self, a, b):
        answer = live(self, a, b)
        answers.append((a, b, answer))
        return answer

    monkeypatch.setattr(HBGraph, "concurrent", recording)
    report = WebRacer(seed=0).check_site(site)
    assert len(answers) == report.page.monitor.detector.chc_queries > 0
    assert any(answer for _a, _b, answer in answers)
    oracle = ReachabilityOracle.of(report.page.monitor.graph)
    for a, b, answer in answers:
        assert answer == oracle.concurrent(a, b), (a, b)
