"""Tests for witness-path queries over rule-labeled HB edges."""

import pytest

from repro.core.hb.backend import HB_STORE, make_backend
from repro.core.hb.graph import HBGraph
from repro.core.hb.witness import (
    ChainAncestry,
    ancestor_closure,
    hb_path,
    race_witness,
)

#: The classic diamond-with-race shape: 1 orders 2 and 3 via different
#: rules; 4 joins only 2's side, so (3, 4) and (2, 3) are concurrent.
EDGES = [
    (1, 2, "1a:static-order"),
    (1, 3, "8:target-created-before-dispatch"),
    (2, 4, "2:create-before-exe"),
]


def build(store):
    for src, dst, rule in EDGES:
        store.add_edge(src, dst, rule)
    return store


@pytest.fixture(params=[HB_STORE])
def hb(request):
    """The diamond in the store every run builds (the ``[graph]`` test ids
    name it)."""
    return build(make_backend(request.param))


class TestAncestorClosure:
    def test_transitive(self, hb):
        assert ancestor_closure(hb, 4) == {1, 2}

    def test_root_has_no_ancestors(self, hb):
        assert ancestor_closure(hb, 1) == set()


class TestNearestCommonAncestor:
    def test_diamond_sides_share_the_root(self, hb):
        assert race_witness(hb, 3, 4).nca == 1

    def test_max_id_common_ancestor_wins(self):
        graph = HBGraph()
        for src, dst in [(1, 2), (2, 5), (2, 6), (1, 3), (3, 5), (3, 6)]:
            graph.add_edge(src, dst)
        # 1, 2 and 3 all precede both 5 and 6; 3 is the nearest (highest
        # id, hence HB-maximal under the forward discipline).
        assert race_witness(graph, 5, 6).nca == 3

    def test_disjoint_cones(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.add_edge(3, 4)
        assert race_witness(graph, 2, 4).nca is None


class TestHbPath:
    def test_path_carries_rule_labels(self, hb):
        steps = hb_path(hb, 1, 4)
        assert [(s.src, s.dst) for s in steps] == [(1, 2), (2, 4)]
        assert [s.rule for s in steps] == [
            "1a:static-order", "2:create-before-exe",
        ]

    def test_no_path_returns_none(self, hb):
        assert hb_path(hb, 3, 4) is None
        assert hb_path(hb, 4, 3) is None

    def test_trivial_path_is_empty(self, hb):
        assert hb_path(hb, 2, 2) == []

    def test_shortest_path_preferred(self):
        graph = HBGraph()
        for src, dst, rule in [
            (1, 2, "long-a"), (2, 3, "long-b"), (3, 9, "long-c"),
            (1, 9, "direct"),
        ]:
            graph.add_edge(src, dst, rule)
        steps = hb_path(graph, 1, 9)
        assert len(steps) == 1
        assert steps[0].rule == "direct"


class TestRaceWitness:
    def test_concurrent_pair(self, hb):
        witness = race_witness(hb, 3, 4)
        assert not witness.ordered
        assert witness.nca == 1
        assert witness.common_ancestor_count == 1
        assert witness.rules_a() == ["8:target-created-before-dispatch"]
        assert witness.rules_b() == [
            "1a:static-order", "2:create-before-exe",
        ]

    def test_ordered_pair_flagged(self, hb):
        witness = race_witness(hb, 2, 4)
        assert witness.ordered

    def test_disjoint_pair(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.add_edge(3, 4)
        witness = race_witness(graph, 2, 4)
        assert witness.nca is None
        assert witness.common_ancestor_count == 0
        assert witness.path_a == [] and witness.path_b == []
        assert not witness.ordered

    @pytest.mark.parametrize("backend", [HB_STORE])
    def test_disjoint_pair_on_every_backend(self, backend):
        """Two root dispatches with no common HB ancestor (e.g. two
        unrelated event sources) must yield an empty-prefix witness on
        the store :func:`make_backend` builds — never raise."""
        store = make_backend(backend)
        store.add_edge(1, 2, "8:target-created-before-dispatch")
        store.add_edge(3, 4, "8:target-created-before-dispatch")
        witness = race_witness(store, 2, 4)
        assert witness.nca is None
        assert witness.common_ancestor_count == 0
        assert witness.path_a == [] and witness.path_b == []
        assert not witness.ordered

    def test_disjoint_pair_isolated_roots(self):
        """Roots with no edges at all (operations known to the store but
        never ordered) are the degenerate disjoint case."""
        graph = HBGraph()
        graph.add_operation(1)
        graph.add_operation(2)
        witness = race_witness(graph, 1, 2)
        assert witness.nca is None
        assert witness.path_a == [] and witness.path_b == []


class TestChainAncestry:
    """The clock reading gives :func:`race_witness`'s answers."""

    @pytest.mark.parametrize("pair", [(3, 4), (2, 3)])
    def test_diamond(self, hb, pair):
        expected = race_witness(hb, *pair)
        assert ChainAncestry(hb).common(*pair) == (
            expected.nca, expected.common_ancestor_count,
        )

    def test_ordered_and_unknown_pairs_are_left_to_the_walk(self, hb):
        ancestry = ChainAncestry(hb)
        assert ancestry.common(2, 4) is None
        assert ancestry.common(2, 99) is None

    def test_operations_finalized_after_the_first_read(self):
        graph = HBGraph()
        for src, dst in [(1, 2), (1, 3)]:
            graph.add_edge(src, dst)
        ancestry = ChainAncestry(graph)
        assert ancestry.common(2, 3) == (1, 1)
        for src, dst in [(3, 5), (5, 7), (5, 8)]:
            graph.add_edge(src, dst)
        expected = race_witness(graph, 7, 8)
        assert ancestry.common(7, 8) == (5, 3)
        assert (expected.nca, expected.common_ancestor_count) == (5, 3)


class TestEdgeRuleProvenance:
    def test_graph_edge_rule(self):
        graph = build(HBGraph())
        assert graph.edge_rule(1, 2) == "1a:static-order"
        assert graph.edge_rule(2, 1) is None
        assert graph.edge_rule(1, 99) is None

    def test_chains_retain_edge_rules(self):
        """Building the chain clocks leaves every edge's rule in place."""
        graph = build(HBGraph())
        for op in graph.operation_ids():
            graph.place(op)
        assert graph.chain_count >= 2
        for src, dst, rule in EDGES:
            assert graph.edge_rule(src, dst) == rule
        assert [s.rule for s in hb_path(graph, 1, 4)] == [
            "1a:static-order", "2:create-before-exe",
        ]

    def test_duplicate_edge_keeps_first_rule(self):
        graph = HBGraph()
        assert graph.add_edge(1, 2, "first")
        assert not graph.add_edge(1, 2, "second")
        assert graph.edge_rule(1, 2) == "first"
