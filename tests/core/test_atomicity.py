"""Tests for the atomicity-violation (lost update) checker."""

import pytest

from repro.browser.page import Browser
from repro.core.access import READ, WRITE, Access
from repro.core.atomicity import AtomicityChecker, check_atomicity
from repro.core.hb.graph import HBGraph
from repro.core.locations import VarLocation
from repro.core.trace import Trace

from .trace_rows import record

LOC = VarLocation(cell_id=1, name="counter")


def build(edges, accesses):
    graph = HBGraph()
    trace = Trace()
    ops = {op for _kind, op in accesses}
    for op in ops:
        graph.add_operation(op)
    for src, dst in edges:
        graph.add_edge(src, dst)
    for kind, op in accesses:
        record(trace, Access(kind=kind, op_id=op, location=LOC))
    return trace, graph


class TestSyntheticPatterns:
    def test_classic_lost_update(self):
        """A reads, B writes (concurrent), A writes back."""
        trace, graph = build(
            edges=[],
            accesses=[(READ, 1), (WRITE, 2), (WRITE, 1)],
        )
        violations = check_atomicity(trace, graph)
        assert len(violations) == 1
        violation = violations[0]
        assert violation.read.op_id == 1
        assert violation.intervening.op_id == 2
        checker = AtomicityChecker(trace, graph)
        checker.check()
        assert len(checker.observed_interleavings()) == 1

    def test_ordered_operations_are_fine(self):
        trace, graph = build(
            edges=[(1, 2)],
            accesses=[(READ, 1), (WRITE, 1), (WRITE, 2)],
        )
        assert check_atomicity(trace, graph) == []

    def test_read_only_concurrency_is_fine(self):
        trace, graph = build(
            edges=[],
            accesses=[(READ, 1), (READ, 2), (WRITE, 1)],
        )
        assert check_atomicity(trace, graph) == []

    def test_write_without_read_is_not_rmw(self):
        trace, graph = build(
            edges=[],
            accesses=[(WRITE, 1), (WRITE, 2)],
        )
        assert check_atomicity(trace, graph) == []

    def test_concurrent_but_not_observed_inside_window(self):
        """B's write outside the observed window is still a *potential*
        lost update (a different schedule serializes it inside)."""
        trace, graph = build(
            edges=[],
            accesses=[(WRITE, 2), (READ, 1), (WRITE, 1)],
        )
        checker = AtomicityChecker(trace, graph)
        violations = checker.check()
        assert len(violations) == 1
        assert checker.observed_interleavings() == []

    def test_dedup_per_op_pair(self):
        trace, graph = build(
            edges=[],
            accesses=[(READ, 1), (WRITE, 2), (WRITE, 2), (WRITE, 1)],
        )
        assert len(check_atomicity(trace, graph)) == 1


class TestOnRealPages:
    def test_counter_increment_lost_update(self):
        """Two async scripts both do hits = hits + 1 — the canonical lost
        update; one increment can vanish."""
        page = Browser(
            seed=0,
            resources={
                "a.js": "hits = hits + 1;",
                "b.js": "hits = hits + 1;",
            },
        ).load(
            "<script>hits = 0;</script>"
            "<script src='a.js' async='true'></script>"
            "<script src='b.js' async='true'></script>"
        )
        violations = check_atomicity(page.trace, page.monitor.graph)
        lost_on_hits = [
            v for v in violations if getattr(v.location, "name", "") == "hits"
        ]
        assert lost_on_hits

    def test_sequential_increments_clean(self):
        page = Browser(seed=0).load(
            "<script>hits = 0;</script>"
            "<script>hits = hits + 1;</script>"
            "<script>hits = hits + 1;</script>"
        )
        violations = check_atomicity(page.trace, page.monitor.graph)
        assert [
            v for v in violations if getattr(v.location, "name", "") == "hits"
        ] == []
        assert page.interpreter.global_object.get_own("hits") == 2.0

    def test_atomicity_strictly_more_than_race(self):
        """The race detector flags `hits` too, but cannot tell the
        read-modify-write structure; the checker names the bracketing
        accesses."""
        page = Browser(
            seed=0,
            resources={"a.js": "hits = hits + 1;", "b.js": "hits = hits + 1;"},
        ).load(
            "<script>hits = 0;</script>"
            "<script src='a.js' async='true'></script>"
            "<script src='b.js' async='true'></script>"
        )
        violations = check_atomicity(page.trace, page.monitor.graph)
        violation = next(
            v for v in violations if getattr(v.location, "name", "") == "hits"
        )
        assert violation.read.is_read
        assert violation.write_back.is_write
        assert violation.read.op_id == violation.write_back.op_id
