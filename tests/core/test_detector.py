"""Tests for the constant-memory race detector (Section 5.1)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import WebRacer
from repro.core.access import READ, WRITE, Access
from repro.core.detector import READ_WRITE, WRITE_WRITE, RaceDetector
from repro.core.full_detector import FullHistoryDetector
from repro.core.hb.graph import HBGraph
from repro.core.locations import (
    CollectionLocation,
    DomPropLocation,
    HandlerLocation,
    HElemLocation,
    PropLocation,
    TimerSlotLocation,
    VarLocation,
    id_key,
    node_key,
)
from repro.core.serialize import trace_from_dict, trace_to_dict
from repro.core.trace import Trace
from repro.sites import build_corpus

from .detector_oracle import OracleFullHistoryDetector, OracleRaceDetector
from .trace_rows import feed, record

LOC = VarLocation(cell_id=1, name="x")
OTHER = VarLocation(cell_id=2, name="y")


def access(kind, op, location=LOC):
    return Access(kind=kind, op_id=op, location=location)


def detector_with(edges, **kwargs):
    graph = HBGraph()
    for src, dst in edges:
        graph.add_edge(src, dst)
    return RaceDetector(Trace(), graph, **kwargs)


class TestBasicDetection:
    def test_concurrent_write_write_race(self):
        det = detector_with([(1, 2), (1, 3)])
        feed(det, access(WRITE, 2))
        feed(det, access(WRITE, 3))
        assert len(det.races) == 1
        assert det.races[0].kind == WRITE_WRITE

    def test_concurrent_write_then_read_race(self):
        det = detector_with([(1, 2), (1, 3)])
        feed(det, access(WRITE, 2))
        feed(det, access(READ, 3))
        assert det.races[0].kind == READ_WRITE

    def test_concurrent_read_then_write_race(self):
        det = detector_with([(1, 2), (1, 3)])
        feed(det, access(READ, 2))
        feed(det, access(WRITE, 3))
        assert det.races[0].kind == READ_WRITE

    def test_ordered_accesses_do_not_race(self):
        det = detector_with([(2, 3)])
        feed(det, access(WRITE, 2))
        feed(det, access(WRITE, 3))
        assert det.races == []

    def test_read_read_never_races(self):
        det = detector_with([(1, 2), (1, 3)])
        feed(det, access(READ, 2))
        feed(det, access(READ, 3))
        assert det.races == []

    def test_same_operation_does_not_race_with_itself(self):
        det = detector_with([])
        feed(det, access(WRITE, 2))
        feed(det, access(WRITE, 2))
        assert det.races == []

    def test_initial_access_never_races(self):
        det = detector_with([])
        feed(det, access(WRITE, 5))
        assert det.races == []

    def test_distinct_locations_do_not_interact(self):
        det = detector_with([(1, 2), (1, 3)])
        feed(det, access(WRITE, 2, LOC))
        feed(det, access(WRITE, 3, OTHER))
        assert det.races == []


class TestReportingPolicy:
    def test_one_race_per_location_by_default(self):
        """Footnote 13: at most one race per location per run."""
        det = detector_with([(1, 2), (1, 3), (1, 4)])
        feed(det, access(WRITE, 2))
        feed(det, access(WRITE, 3))
        feed(det, access(WRITE, 4))
        assert len(det.races) == 1

    def test_write_prefers_ww_over_rw(self):
        det = detector_with([(1, 2), (1, 3), (1, 4)])
        feed(det, access(READ, 2))
        feed(det, access(WRITE, 3))  # RW race vs read 2
        assert det.races[0].kind == READ_WRITE

    def test_chc_queries_counted(self):
        det = detector_with([(1, 2), (1, 3)])
        feed(det, access(WRITE, 2))
        feed(det, access(READ, 3))
        assert det.chc_queries >= 1

    def test_self_pairs_do_not_count_as_queries(self):
        """Same-operation pairs short-circuit before the HB relation is
        consulted, so they must not inflate the E9 cost metric."""
        det = detector_with([])
        feed(det, access(WRITE, 2))
        feed(det, access(WRITE, 2))
        feed(det, access(READ, 2))
        assert det.chc_queries == 0

    def test_cross_operation_pairs_count_once_each(self):
        det = detector_with([(2, 3)])
        feed(det, access(WRITE, 2))
        feed(det, access(WRITE, 3))  # one write-vs-write CHC query
        assert det.chc_queries == 1


class TestPaperLimitation:
    def test_section_5_1_miss_example(self):
        """The paper's own example: ops 1,2,3 access e; only 1 ≺ 2.
        Schedule 3·1·2 hides the (2,3) race from the constant-memory
        detector but not from the full-history detector."""
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.add_operation(3)
        trace = Trace()
        constant = RaceDetector(trace, graph)
        full = FullHistoryDetector(trace, graph)

        sequence = [access(READ, 3), access(READ, 1), access(WRITE, 2)]
        rows = [record(trace, acc).seq for acc in sequence]
        for row in rows:
            constant.on_access(row)
        for row in rows:
            full.on_access(row)

        # Constant-memory: the write checks only LastRead = op 1 (ordered),
        # so it misses the 2-3 race entirely.
        assert constant.races == []
        # Full history sees the (3, 2) pair.
        assert len(full.races) == 1
        assert {full.races[0].prior.op_id, full.races[0].current.op_id} == {2, 3}

    def test_favourable_schedule_catches_it(self):
        graph = HBGraph()
        graph.add_edge(1, 2)
        graph.add_operation(3)
        constant = RaceDetector(Trace(), graph)
        for acc in [access(READ, 1), access(READ, 3), access(WRITE, 2)]:
            feed(constant, acc)
        assert len(constant.races) == 1


# ----------------------------------------------------------------------
# hypothesis: detector invariants against brute force

ops = st.integers(1, 10)
edges_strategy = st.lists(
    st.tuples(ops, ops).map(lambda p: (min(p), max(p))).filter(lambda p: p[0] != p[1]),
    max_size=15,
)
accesses_strategy = st.lists(
    st.tuples(st.sampled_from([READ, WRITE]), ops), min_size=1, max_size=15
)


@given(edges_strategy, accesses_strategy)
@settings(max_examples=200, deadline=None)
def test_every_reported_race_is_a_real_race(edges, raw_accesses):
    """Soundness: each reported race is CHC-unordered and involves a write."""
    graph = HBGraph()
    for src, dst in edges:
        graph.add_edge(src, dst)
    for _kind, op in raw_accesses:
        graph.add_operation(op)
    det = RaceDetector(Trace(), graph)
    for kind, op in raw_accesses:
        feed(det, access(kind, op))
    for race in det.races:
        assert race.prior.is_write or race.current.is_write
        assert graph.concurrent(race.prior.op_id, race.current.op_id)


@given(edges_strategy, accesses_strategy)
@settings(max_examples=200, deadline=None)
def test_constant_memory_detector_subset_of_full(edges, raw_accesses):
    """Every racing location the paper's detector reports, the full-history
    detector reports too (the converse fails — Section 5.1 limitation)."""
    graph = HBGraph()
    for src, dst in edges:
        graph.add_edge(src, dst)
    for _kind, op in raw_accesses:
        graph.add_operation(op)
    trace = Trace()
    constant = RaceDetector(trace, graph)
    full = FullHistoryDetector(trace, graph)
    for kind, op in raw_accesses:
        row = record(trace, access(kind, op)).seq
        constant.on_access(row)
        full.on_access(row)
    constant_locations = {race.location for race in constant.races}
    full_locations = {race.location for race in full.races}
    assert constant_locations <= full_locations


@given(edges_strategy, accesses_strategy)
@settings(max_examples=200, deadline=None)
def test_full_detector_matches_brute_force(edges, raw_accesses):
    """The full-history detector reports exactly the brute-force racing
    pairs of the executed schedule."""
    graph = HBGraph()
    for src, dst in edges:
        graph.add_edge(src, dst)
    for _kind, op in raw_accesses:
        graph.add_operation(op)
    full = FullHistoryDetector(Trace(), graph)
    recorded = [feed(full, access(kind, op)) for kind, op in raw_accesses]

    expected_pairs = set()
    for i, first in enumerate(recorded):
        for second in recorded[i + 1 :]:
            if first.op_id == second.op_id:
                continue
            if not (first.is_write or second.is_write):
                continue
            if graph.concurrent(first.op_id, second.op_id):
                expected_pairs.add(
                    (min(first.op_id, second.op_id), max(first.op_id, second.op_id))
                )
    got_pairs = {
        (min(r.prior.op_id, r.current.op_id), max(r.prior.op_id, r.current.op_id))
        for r in full.races
    }
    assert got_pairs == expected_pairs


# ----------------------------------------------------------------------
# the row detectors against the Access-object oracle

#: Several location families, including equal-field pairs of different
#: classes (their keys must not collide).
ORACLE_LOCATIONS = [
    VarLocation(1, "x"),
    PropLocation(1, "x"),
    VarLocation(2, "x"),
    PropLocation(1, "y"),
    DomPropLocation(id_key(1, "q"), "value", tag="input"),
    DomPropLocation(id_key(1, "q"), "value", tag="textarea"),
    HElemLocation(id_key(1, "q")),
    HElemLocation(node_key(1)),
    HandlerLocation(id_key(1, "q"), "load"),
    CollectionLocation(1, "tag", "div"),
    TimerSlotLocation(1),
]

oracle_accesses = st.lists(
    st.builds(
        Access,
        kind=st.sampled_from([READ, WRITE]),
        op_id=ops,
        location=st.sampled_from(ORACLE_LOCATIONS),
        is_call=st.booleans(),
        is_function_decl=st.booleans(),
        detail=st.sampled_from(
            [{}, {"found": False, "via": "id"}, {"writes_function": True}]
        ),
    ),
    min_size=1,
    max_size=40,
)


@given(edges_strategy, oracle_accesses)
@settings(max_examples=300, deadline=None)
def test_row_detectors_match_oracle(edges, accesses):
    """Same races, in the same order, with the same accesses (seqs and
    details included) and the same CHC query count as the object
    detectors the row detectors replaced."""
    graph = HBGraph()
    for op in range(1, 11):
        graph.add_operation(op)
    for src, dst in edges:
        graph.add_edge(src, dst)
    trace = Trace()
    detector = RaceDetector(trace, graph)
    full = FullHistoryDetector(trace, graph)
    oracle = OracleRaceDetector(graph)
    full_oracle = OracleFullHistoryDetector(graph)
    for seq, acc in enumerate(accesses):
        row = record(trace, acc).seq
        assert row == seq
        detector.on_access(row)
        full.on_access(row)
        stamped = dataclasses.replace(acc, seq=seq)
        oracle.on_access(stamped)
        full_oracle.on_access(stamped)
    assert detector.races == oracle.races
    assert detector.chc_queries == oracle.chc_queries
    assert full.races == full_oracle.races
    assert full.chc_queries == full_oracle.chc_queries


@pytest.mark.parametrize("index", [0, 3, 7])
def test_offline_redetection_matches_live(index):
    """A corpus site's dumped and reloaded trace re-detects exactly the
    races (and CHC queries) of the live run."""
    site = build_corpus(master_seed=0, limit=8)[index]
    page = WebRacer(seed=0).check_site(site).page
    live = page.monitor.detector
    assert live.races
    loaded = trace_from_dict(trace_to_dict(page.trace, page.monitor.graph))
    offline = loaded.detect()
    assert offline.races == live.races
    assert offline.chc_queries == live.chc_queries
