"""Tests for the happens-before store: unit cases and properties checked
against the plain ancestor-set oracle and an uncached DFS on random DAGs.
The incremental invariants, online queries and corpus query streams are in
``test_hb_backends.py``; the chain clocks themselves in
``test_vector_clock.py``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hb.graph import Edge, HBGraph

from .hb_oracle import ReachabilityOracle


def make_graph(edges, nodes=()):
    graph = HBGraph()
    for node in nodes:
        graph.add_operation(node)
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


class TestBasics:
    def test_direct_edge(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        assert graph.happens_before(1, 2)
        assert not graph.happens_before(2, 1)

    def test_transitivity(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        assert graph.happens_before(1, 3)

    def test_no_self_ordering(self):
        graph = HBGraph()
        graph.add_operation(1)
        assert not graph.happens_before(1, 1)
        assert not graph.concurrent(1, 1)

    def test_unrelated_are_concurrent(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.add_edge(1, 3)
        assert graph.concurrent(2, 3)

    def test_self_edge_ignored(self):
        graph = HBGraph()
        assert not graph.add_edge(4, 4)

    def test_duplicate_edge_rejected(self):
        graph = HBGraph()
        assert graph.add_edge(1, 2)
        assert not graph.add_edge(1, 2)
        assert graph.edge_count() == 1
        assert graph.happens_before(1, 2)

    def test_backward_edge_raises(self):
        graph = HBGraph()
        with pytest.raises(ValueError, match="backward"):
            graph.add_edge(5, 3)

    def test_edge_rules_recorded(self):
        graph = HBGraph()
        graph.add_edge(1, 2, rule="16:settimeout-before-cb")
        assert graph.edges_by_rule("16:settimeout-before-cb")[0].dst == 2

    def test_ancestors(self):
        graph = make_graph([(1, 3), (2, 3), (3, 4)])
        assert {a for a in range(1, 5) if graph.happens_before(a, 4)} == {1, 2, 3}
        assert not any(graph.happens_before(a, 1) for a in range(1, 5))

    def test_edge_into_cached_operation_raises(self):
        graph = HBGraph()
        graph.add_edge(1, 3)
        graph.add_operation(4)
        assert graph.happens_before(1, 3)  # finalizes 3's clock
        with pytest.raises(ValueError, match="was queried"):
            graph.add_edge(2, 3)
        # A fresh edge into a not-yet-queried operation is still fine.
        assert graph.add_edge(3, 4)

    def test_edge_out_of_cached_operation_is_fine(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        assert graph.happens_before(1, 2)
        graph.add_edge(2, 5)
        assert graph.happens_before(1, 5)

    def test_negative_ids_rejected(self):
        """Ids index the store's lists, where -1 would name the last one."""
        graph = HBGraph()
        graph.add_operation(3)
        with pytest.raises(ValueError, match="non-negative"):
            graph.add_operation(-1)
        with pytest.raises(ValueError, match="non-negative"):
            graph.add_edge(-2, 3)
        assert graph.operation_ids() == [3] and graph.edge_count() == 0

    def test_cycle_is_rejected(self):
        """A cycle needs an edge from a newer operation to an older one,
        which the store refuses before it can close the cycle."""
        graph = make_graph([(1, 2), (2, 3)])
        with pytest.raises(ValueError, match="backward happens-before edge 3 -> 1"):
            graph.add_edge(3, 1)
        assert graph.predecessors(1) == [] and graph.edge_count() == 2


class TestChc:
    def test_bottom_never_races(self):
        graph = HBGraph()
        graph.add_operation(0)
        graph.add_operation(1)
        assert not graph.chc(0, 1)
        assert not graph.chc(1, 0)

    def test_concurrent_ops_chc(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.add_edge(1, 3)
        assert graph.chc(2, 3)
        assert not graph.chc(1, 2)


# ----------------------------------------------------------------------
# hypothesis properties against the oracle

forward_edges = st.lists(
    st.tuples(st.integers(1, 30), st.integers(1, 30)).map(
        lambda pair: (min(pair), max(pair))
    ).filter(lambda pair: pair[0] != pair[1]),
    max_size=60,
)


def assert_matches_oracle(graph, oracle, nodes):
    for a in nodes:
        for b in nodes:
            assert graph.happens_before(a, b) == oracle.happens_before(a, b), (a, b)
            assert graph.concurrent(a, b) == oracle.concurrent(a, b), (a, b)
            assert graph.chc(a, b) == oracle.chc(a, b), (a, b)


@given(forward_edges)
@settings(max_examples=150, deadline=None)
def test_matches_oracle_on_forward_dags(edges):
    graph = make_graph(edges, nodes=[0])
    oracle = ReachabilityOracle(edges, nodes=[0])
    assert_matches_oracle(graph, oracle, graph.operation_ids() + [99])


@given(
    st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(
            lambda pair: pair[0] != pair[1]
        ),
        max_size=12,
    )
)
@settings(max_examples=150, deadline=None)
def test_cycles_rejected_exactly(edges):
    """``add_edge`` raises iff the edge points from a newer operation to
    an older one, and a refused edge leaves the graph as it was.  So the
    store holds exactly the forward edges of any edge list, cyclic or
    not, and never a cycle."""
    graph = HBGraph()
    forward = []
    for src, dst in edges:
        if src > dst:
            with pytest.raises(ValueError, match="backward happens-before edge"):
                graph.add_edge(src, dst)
        elif graph.add_edge(src, dst):
            forward.append((src, dst))
    assert graph.rule_edges() == [(pair, "") for pair in forward]
    assert graph.operation_ids() == sorted({op for pair in forward for op in pair})
    oracle = ReachabilityOracle(forward)
    assert_matches_oracle(graph, oracle, graph.operation_ids())
    assert not any(op in oracle.ancestors(op) for op in graph.operation_ids())


def reaches_by_dfs(graph, a, b):
    """Plain DFS over predecessor lists: is there a path ``a`` → ``b``?"""
    stack, seen = list(graph.predecessors(b)), set()
    while stack:
        node = stack.pop()
        if node == a:
            return True
        if node not in seen:
            seen.add(node)
            stack.extend(graph.predecessors(node))
    return False


@given(forward_edges, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_cached_reachability_matches_plain_dfs(edges, rng):
    """Clocks finalized lazily, in whatever order queries arrive, and then
    answered from cache equal an uncached DFS over the same edges."""
    graph = make_graph(edges)
    nodes = graph.operation_ids()
    pairs = [(a, b) for a in nodes for b in nodes]
    rng.shuffle(pairs)
    for _pass in ("cold", "cached"):
        for a, b in pairs:
            assert graph.happens_before(a, b) == (a != b and reaches_by_dfs(graph, a, b))
    assert sorted(op for chain in graph.chain_members() for op in chain) == nodes


@given(forward_edges)
@settings(max_examples=100, deadline=None)
def test_happens_before_is_transitive_and_antisymmetric(edges):
    graph = make_graph(edges)
    nodes = graph.operation_ids()
    pairs = {(a, b) for a in nodes for b in nodes if graph.happens_before(a, b)}
    for a, b in pairs:
        assert (b, a) not in pairs  # antisymmetry
    for a, b in pairs:
        for c, d in pairs:
            if b == c:
                assert (a, d) in pairs  # transitivity


@given(forward_edges)
@settings(max_examples=100, deadline=None)
def test_concurrent_is_symmetric(edges):
    graph = make_graph(edges)
    nodes = graph.operation_ids()
    for a in nodes:
        for b in nodes:
            assert graph.concurrent(a, b) == graph.concurrent(b, a)


@given(forward_edges, st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_chc_is_exactly_not_ordered(edges, a, b):
    graph = make_graph(edges, nodes=[a, b])
    oracle = ReachabilityOracle(edges, nodes=[a, b])
    assert graph.chc(a, b) == (
        a != b and not oracle.happens_before(a, b) and not oracle.happens_before(b, a)
    )


edge_stream = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.integers(0, 12),
        st.sampled_from(["", "1a:static-order", "2:create-before-exe", "16"]),
    ),
    max_size=60,
)


@given(edge_stream)
@settings(max_examples=200, deadline=None)
def test_edge_views_equal_a_first_seen_dict(stream):
    """The flat store's edge views equal an insertion-ordered
    ``(src, dst) -> rule`` dict that keeps each pair's first rule and skips
    self-edges, for a stream with duplicates."""
    graph = HBGraph()
    expected = {}
    for src, dst, rule in stream:
        src, dst = min(src, dst), max(src, dst)
        fresh = src != dst and (src, dst) not in expected
        assert graph.add_edge(src, dst, rule) == fresh
        if fresh:
            expected[(src, dst)] = rule
    assert graph.rule_edges() == list(expected.items())
    assert graph.edges == [Edge(s, d, rule) for (s, d), rule in expected.items()]
    assert graph.edge_count() == len(expected)
    assert graph.operation_ids() == sorted({op for pair in expected for op in pair})
    for op in range(-1, 15):
        assert graph.predecessors(op) == [s for s, d in expected if d == op]
        for other in range(-1, 15):
            assert graph.edge_rule(other, op) == expected.get((other, op))
