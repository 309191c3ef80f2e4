"""Tests for schedulable happens-before (SHB) race prediction.

Covers that ``shb`` names no store, reads-from extraction, the SHB
successor index (which holds backward reads-from edges), pair
classification into ``schedulable``/``conditional``, and the soundness
property the predict pipeline relies on: predictions never overlap the
exact detector's observed races, and every observed race is covered by
the full-history candidate sweep.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.access import READ, WRITE, Access
from repro.core.detector import RaceDetector
from repro.core.full_detector import FullHistoryDetector
from repro.core.hb import (
    build_shb,
    predict_races,
    reads_from_edges,
)
from repro.core.hb.backend import make_backend
from repro.core.hb.graph import HBGraph
from repro.core.hb.shb import (
    STATUS_CONDITIONAL,
    STATUS_SCHEDULABLE,
    classify_pair,
    racy_reads_from,
)
from repro.core.locations import VarLocation
from repro.core.trace import Trace

from .trace_rows import record

LOC = VarLocation(cell_id=1, name="x")
LOC2 = VarLocation(cell_id=2, name="y")
LOC3 = VarLocation(cell_id=3, name="z")


def predict(trace, graph):
    """``predict_races`` against the exact detector's races, as the
    product callers pass them."""
    return predict_races(trace, graph, RaceDetector(trace, graph).replay().races)


def make_trace(n_ops, edges, accesses):
    """A synthetic trace + rule graph: ``accesses`` is a list of
    ``(kind, op_id, location)`` in trace order."""
    trace = Trace()
    for _ in range(n_ops):
        trace.operations.create("exe")
    graph = HBGraph()
    for op_id in range(1, n_ops + 1):
        graph.add_operation(op_id)
    for src, dst in edges:
        graph.add_edge(src, dst, "1a:static-order")
    for kind, op_id, location in accesses:
        record(trace, Access(kind=kind, op_id=op_id, location=location))
    return trace, graph


class TestBackendRegistration:
    def test_shb_is_not_a_store(self):
        # Prediction is a sweep over a recorded trace (``repro predict``,
        # ``repro analyze --predict``), not a store a run selects.
        with pytest.raises(ValueError, match="unknown hb backend 'shb'"):
            make_backend("shb")


class TestReadsFromEdges:
    def test_read_pairs_with_last_write(self):
        trace, graph = make_trace(
            4,
            [(1, 2), (1, 3), (1, 4)],
            [(WRITE, 2, LOC), (WRITE, 3, LOC), (READ, 4, LOC)],
        )
        edges = reads_from_edges(trace, graph)
        assert [(e.src, e.dst) for e in edges] == [(3, 4)]

    def test_same_operation_skipped(self):
        trace, graph = make_trace(2, [(1, 2)], [(WRITE, 2, LOC), (READ, 2, LOC)])
        assert reads_from_edges(trace, graph) == []

    def test_read_before_any_write_skipped(self):
        trace, graph = make_trace(2, [(1, 2)], [(READ, 2, LOC)])
        assert reads_from_edges(trace, graph) == []

    def test_deduplicated_per_pair_and_location(self):
        trace, graph = make_trace(
            3,
            [(1, 2), (1, 3)],
            [(WRITE, 2, LOC), (READ, 3, LOC), (READ, 3, LOC)],
        )
        assert len(reads_from_edges(trace, graph)) == 1

    def test_racy_flag_tracks_rule_concurrency(self):
        trace, graph = make_trace(
            4,
            [(1, 2), (2, 3), (1, 4)],
            [(WRITE, 2, LOC), (READ, 3, LOC), (WRITE, 3, LOC2), (READ, 4, LOC2)],
        )
        by_pair = {(e.src, e.dst): e for e in reads_from_edges(trace, graph)}
        assert by_pair[(2, 3)].racy is False  # 2 -> 3 is rule-ordered
        assert by_pair[(3, 4)].racy is True  # 3 and 4 are concurrent


class TestBuildShb:
    def test_keeps_rule_edges(self):
        trace, graph = make_trace(3, [(1, 2), (1, 3)], [])
        shb, rf = build_shb(trace, graph)
        assert shb == {1: [2, 3]}
        assert rf == []

    def test_reads_from_edges_listed_after_rule_edges(self):
        trace, graph = make_trace(
            4,
            [(1, 2), (1, 3), (2, 4)],
            [(WRITE, 2, LOC), (READ, 3, LOC)],
        )
        shb, rf = build_shb(trace, graph)
        assert shb == {1: [2, 3], 2: [4, 3]}
        assert len(rf) == 1

    def test_reads_from_edge_on_a_rule_edge_listed_once(self):
        trace, graph = make_trace(
            3,
            [(1, 2), (2, 3)],
            [(WRITE, 2, LOC), (WRITE, 2, LOC2), (READ, 3, LOC), (READ, 3, LOC2)],
        )
        shb, rf = build_shb(trace, graph)
        assert [(e.src, e.dst) for e in rf] == [(2, 3), (2, 3)]
        assert shb == {1: [2], 2: [3]}

    def test_backward_reads_from_edge_accepted(self):
        """Creation order is not execution order: a read in a lower-id
        operation can observe a write from a higher-id one.  The SHB
        index holds the resulting backward edge, which the HB store
        refuses."""
        trace, graph = make_trace(
            3,
            [(1, 2), (1, 3)],
            [(WRITE, 3, LOC), (READ, 2, LOC)],
        )
        shb, rf = build_shb(trace, graph)
        assert [(e.src, e.dst) for e in rf] == [(3, 2)]
        assert shb == {1: [2, 3], 3: [2]}


class TestClassifyPair:
    def test_unordered_pair_is_schedulable(self):
        trace, graph = make_trace(3, [(1, 2), (1, 3)], [])
        shb, rf = build_shb(trace, graph)
        status, blocking = classify_pair(shb, racy_reads_from(rf), 2, 3)
        assert status == STATUS_SCHEDULABLE
        assert blocking == ()

    def test_direct_pair_edge_excluded(self):
        """The reads-from edge between the pair itself is the conflict
        under prediction, not a constraint on it."""
        trace, graph = make_trace(
            3, [(1, 2), (1, 3)], [(WRITE, 2, LOC), (READ, 3, LOC)]
        )
        shb, rf = build_shb(trace, graph)
        status, _ = classify_pair(shb, racy_reads_from(rf), 2, 3)
        assert status == STATUS_SCHEDULABLE

    def test_path_through_racy_rf_is_conditional(self):
        trace, graph = make_trace(
            4,
            [(1, 2), (1, 3), (1, 4)],
            [
                (WRITE, 2, LOC), (READ, 3, LOC),     # racy rf 2 -> 3
                (WRITE, 3, LOC2), (READ, 4, LOC2),   # racy rf 3 -> 4
            ],
        )
        shb, rf = build_shb(trace, graph)
        status, blocking = classify_pair(shb, racy_reads_from(rf), 2, 4)
        assert status == STATUS_CONDITIONAL
        assert [(e.src, e.dst) for e in blocking] == [(2, 3), (3, 4)]
        assert all(e.racy for e in blocking)

    def test_rule_ordered_path_has_no_blocking_edges(self):
        trace, graph = make_trace(3, [(1, 2), (2, 3)], [])
        shb, rf = build_shb(trace, graph)
        status, blocking = classify_pair(shb, racy_reads_from(rf), 1, 3)
        assert status == STATUS_CONDITIONAL
        assert blocking == ()


class TestPredictRaces:
    def test_suppressed_pair_becomes_prediction(self):
        """Footnote 13 (one race per location) hides the second racing
        pair from the exact detector; SHB predicts it."""
        trace, graph = make_trace(
            4,
            [(1, 2), (1, 3), (1, 4)],
            [(WRITE, 2, LOC), (READ, 3, LOC), (READ, 4, LOC)],
        )
        analysis = predict(trace, graph)
        assert [r.op_pair() for r in analysis.observed] == [(2, 3)]
        assert [p.op_pair() for p in analysis.predictions] == [(2, 4)]
        assert analysis.predictions[0].status == STATUS_SCHEDULABLE

    def test_no_conflicts_no_predictions(self):
        trace, graph = make_trace(3, [(1, 2), (2, 3)], [(WRITE, 2, LOC)])
        analysis = predict(trace, graph)
        assert analysis.observed == []
        assert analysis.predictions == []
        assert analysis.candidates == 0

    def test_summary_counts(self):
        trace, graph = make_trace(
            4,
            [(1, 2), (1, 3), (1, 4)],
            [(WRITE, 2, LOC), (READ, 3, LOC), (READ, 4, LOC)],
        )
        analysis = predict(trace, graph)
        assert "1 observed" in analysis.summary()
        assert "1 predicted" in analysis.summary()

    def test_describe_mentions_blocking_edges(self):
        prediction_trace, graph = make_trace(
            5,
            [(1, 2), (1, 3), (1, 4), (1, 5)],
            [
                (WRITE, 2, LOC), (READ, 3, LOC), (READ, 4, LOC),
                (WRITE, 3, LOC2), (READ, 4, LOC2),
            ],
        )
        analysis = predict(prediction_trace, graph)
        conditional = analysis.by_status(STATUS_CONDITIONAL)
        assert conditional
        assert "requires flipping reads-from" in conditional[0].describe()


def _race_keys(races):
    return {
        (str(race.location), min(*race.op_pair()), max(*race.op_pair()))
        for race in races
        if race.prior.op_id != race.current.op_id
    }


@st.composite
def random_trace(draw):
    n_ops = draw(st.integers(min_value=2, max_value=8))
    edges = []
    for dst in range(2, n_ops + 1):
        for src in range(1, dst):
            if draw(st.booleans()):
                edges.append((src, dst))
    n_accesses = draw(st.integers(min_value=0, max_value=12))
    locations = [LOC, LOC2, LOC3]
    accesses = [
        (
            draw(st.sampled_from([READ, WRITE])),
            draw(st.integers(min_value=1, max_value=n_ops)),
            draw(st.sampled_from(locations)),
        )
        for _ in range(n_accesses)
    ]
    return n_ops, edges, accesses


class TestPredictionSoundness:
    """Satellite property: SHB's candidate sweep covers every race the
    exact detector reports, and predictions never duplicate them."""

    @given(random_trace())
    @settings(max_examples=60, deadline=None)
    def test_exact_races_covered_and_disjoint(self, shape):
        n_ops, edges, accesses = shape
        trace, graph = make_trace(n_ops, edges, accesses)

        exact = RaceDetector(trace, graph)
        sweep = FullHistoryDetector(trace, graph)
        for row in range(len(trace)):
            exact.on_access(row)
            sweep.on_access(row)

        analysis = predict_races(trace, graph, exact.races)
        observed_keys = _race_keys(analysis.observed)
        predicted_keys = _race_keys([p.race for p in analysis.predictions])
        sweep_keys = _race_keys(sweep.races)

        # The analysis baseline is exactly the exact detector's output.
        assert observed_keys == _race_keys(exact.races)
        # Every exact race is also seen by the full-history sweep …
        assert observed_keys <= sweep_keys
        # … and predictions are precisely the sweep's surplus.
        assert predicted_keys == sweep_keys - observed_keys
        assert not (predicted_keys & observed_keys)
        # Every prediction carries a valid classification.
        for prediction in analysis.predictions:
            assert prediction.status in (
                STATUS_SCHEDULABLE, STATUS_CONDITIONAL,
            )
            if prediction.status == STATUS_SCHEDULABLE:
                assert prediction.blocking_rf == ()
