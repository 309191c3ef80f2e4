"""Tests for the chain-decomposed vector clocks that :class:`HBGraph`
answers happens-before queries from: chain assignment, the clock entries
themselves, and the vector-clock characterization ``a ≺ b`` iff ``a``'s
clock is pointwise at most ``b``'s."""

from hypothesis import given, settings, strategies as st

from repro.core.hb.graph import HBGraph

from .hb_oracle import ReachabilityOracle


def make_graph(edges, nodes=()):
    """The graph with every operation finalized, in id order."""
    graph = HBGraph()
    for node in nodes:
        graph.add_operation(node)
    for src, dst in edges:
        graph.add_edge(src, dst)
    for op in graph.operation_ids():
        graph.place(op)
    return graph


def position(graph, op):
    """``(chain, position on it)`` of a finalized operation."""
    return graph.place(op)[:2]


def full_clock(graph, op):
    """``op``'s clock with its own chain's entry, its position, added."""
    chain, pos, clock = graph.place(op)
    return {**clock, chain: pos}


def clock_leq(graph, a, b):
    """``a``'s clock is pointwise at most ``b``'s."""
    clock_a, clock_b = full_clock(graph, a), full_clock(graph, b)
    return all(clock_b.get(chain, -1) >= pos for chain, pos in clock_a.items())


class TestChains:
    def test_linear_graph_is_one_chain(self):
        graph = make_graph([(1, 2), (2, 3), (3, 4)])
        assert graph.chain_count == 1
        assert [position(graph, op) for op in (1, 2, 3, 4)] == [
            (0, 0), (0, 1), (0, 2), (0, 3),
        ]

    def test_disjoint_nodes_get_own_chains(self):
        graph = make_graph([], nodes=[1, 2, 3])
        assert graph.chain_count == 3
        assert {position(graph, op)[0] for op in (1, 2, 3)} == {0, 1, 2}

    def test_fork_join(self):
        graph = make_graph([(1, 2), (1, 3), (2, 4), (3, 4)])
        assert graph.happens_before(1, 4)
        assert graph.happens_before(2, 4)
        assert graph.happens_before(3, 4)
        assert graph.concurrent(2, 3)
        # Two parallel branches -> at least two chains.
        assert graph.chain_count >= 2

    def test_memory_cells_positive(self):
        graph = make_graph([(1, 2), (1, 3)], nodes=[4])
        # Every finalized operation holds at least its own chain's entry.
        assert graph.memory_cells() >= len(graph.operation_ids()) > 0
        for op in graph.operation_ids():
            chain, pos = position(graph, op)
            assert full_clock(graph, op)[chain] == pos


class TestQueries:
    def test_chc_bottom(self):
        graph = make_graph([(0, 1), (1, 2)], nodes=[3])
        assert graph.happens_before(0, 2)
        for op in (1, 2, 3):
            assert not graph.chc(0, op) and not graph.chc(op, 0)
        assert graph.chc(2, 3)

    def test_unknown_operation_not_ordered(self):
        graph = make_graph([(1, 2)])
        # Every known clock is finalized; the unknown id has none.
        assert not graph.happens_before(1, 42)
        assert not graph.happens_before(42, 2)
        assert graph.place(42) is None


forward_edges = st.lists(
    st.tuples(st.integers(1, 25), st.integers(1, 25)).map(
        lambda pair: (min(pair), max(pair))
    ).filter(lambda pair: pair[0] != pair[1]),
    max_size=50,
)


@given(forward_edges)
@settings(max_examples=100, deadline=None)
def test_vector_clock_concurrency_matches(edges):
    """``concurrent`` is exactly "neither clock dominates the other", and
    that equals the oracle's answer."""
    graph = make_graph(edges)
    oracle = ReachabilityOracle(edges)
    nodes = graph.operation_ids()
    for a in nodes:
        for b in nodes:
            by_clocks = a != b and not clock_leq(graph, a, b) and not clock_leq(graph, b, a)
            assert graph.concurrent(a, b) == by_clocks == oracle.concurrent(a, b), (a, b)


@given(forward_edges)
@settings(max_examples=100, deadline=None)
def test_vector_clocks_equivalent_to_graph(edges):
    """Each clock entry is the highest position on that chain among the
    operation and its ancestors in the graph — nothing more, nothing less."""
    graph = make_graph(edges)
    oracle = ReachabilityOracle(edges)
    for op in graph.operation_ids():
        expected = {}
        for member in oracle.ancestors(op) | {op}:
            chain, pos = position(graph, member)
            expected[chain] = max(expected.get(chain, -1), pos)
        assert full_clock(graph, op) == expected, op


def test_single_chain_shares_one_stored_clock():
    graph = make_graph([(1, 2), (2, 3), (1, 3), (3, 4)])
    assert graph.chain_count == 1
    assert graph.stored_clocks() == 1
    assert full_clock(graph, 3) == {0: 2}
    assert graph.memory_cells() == 4


def test_clock_shared_only_when_nothing_new_is_learned():
    # 3 extends 1's chain but also learns 2's chain, so it needs its own.
    graph = make_graph([(1, 3), (2, 3), (3, 4)])
    clocks = graph._clocks
    assert clocks[3] is not clocks[1]
    assert clocks[4] is clocks[3]
    assert full_clock(graph, 4) == {position(graph, 1)[0]: 2, position(graph, 2)[0]: 0}
