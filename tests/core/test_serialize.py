"""Tests for trace serialization and offline analysis."""

import json

import pytest

from repro import WebRacer
from repro.core.full_detector import FullHistoryDetector
from repro.core.locations import (
    CollectionLocation,
    DomPropLocation,
    HandlerLocation,
    HElemLocation,
    PropLocation,
    VarLocation,
    id_key,
    node_key,
)
from repro.core.operations import NO_META
from repro.core.serialize import (
    dumps_trace,
    dump_trace,
    load_trace,
    loads_trace,
    trace_from_dict,
    trace_to_dict,
    _location_key_from_json,
    _location_to_json,
)
from repro.core.trace import Trace

PAGE = """
<input type="text" id="depart" />
<script src="hint.js"></script>
<iframe id="i" src="a.html"></iframe>
<script>document.getElementById('i').onload = function() { r = 1; };</script>
"""
RESOURCES = {
    "hint.js": "document.getElementById('depart').value = 'hint';",
    "a.html": "<div></div>",
}


@pytest.fixture(scope="module")
def online_report():
    racer = WebRacer(seed=5)
    return racer.check_page(PAGE, resources=RESOURCES, latencies={"hint.js": 40.0})


class TestLocationRoundtrip:
    @pytest.mark.parametrize(
        "location",
        [
            VarLocation(7, "n"),
            PropLocation(12, "x"),
            DomPropLocation(id_key(3, "q"), "value", tag="input"),
            DomPropLocation(node_key(9), "childNodes", tag="div"),
            HElemLocation(id_key(3, "dw")),
            HElemLocation(node_key(4)),
            CollectionLocation(3, "tag", "img"),
            CollectionLocation(3, "images", ""),
            HandlerLocation(id_key(3, "i"), "load"),
            HandlerLocation(node_key(-2), "load", "fn:9"),
        ],
    )
    def test_roundtrip_preserves_identity(self, location):
        trace = Trace()
        key = _location_key_from_json(_location_to_json(location))
        restored = trace.location(trace.intern(key))
        assert restored == location
        assert hash(restored) == hash(location)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            _location_key_from_json({"t": "mystery"})


class TestTraceRoundtrip:
    def test_json_stringify_roundtrip(self, online_report):
        page = online_report.page
        text = dumps_trace(page.trace, page.monitor.graph)
        loaded = loads_trace(text)
        assert len(loaded.trace.accesses) == len(page.trace.accesses)
        assert len(loaded.trace.operations.operations) == len(
            page.trace.operations.operations
        )
        assert loaded.graph.edge_count() == page.monitor.graph.edge_count()

    def test_file_roundtrip(self, online_report, tmp_path):
        page = online_report.page
        path = tmp_path / "trace.json"
        dump_trace(page.trace, page.monitor.graph, str(path))
        loaded = load_trace(str(path))
        assert len(loaded.trace.accesses) == len(page.trace.accesses)

    def test_version_checked(self):
        with pytest.raises(ValueError):
            trace_from_dict({"version": 99})

    def test_crashes_preserved(self, online_report):
        page = online_report.page
        data = trace_to_dict(page.trace, page.monitor.graph)
        loaded = trace_from_dict(data)
        assert len(loaded.trace.crashes) == len(page.trace.crashes)
        for original, restored in zip(page.trace.crashes, loaded.trace.crashes):
            assert restored.kind == original.kind
            assert restored.operation == original.operation


def _set(path, value):
    """A mutation of a serialized trace: ``data[path[0]][path[1]][path[2]] = value``."""

    def mutate(data):
        section, index, key = path
        data[section][index][key] = value

    return mutate


def _swap_first_two_operations(data):
    first, second = data["operations"][:2]
    data["operations"][:2] = [second, first]


class TestMalformedIds:
    """A loaded trace's operations are 1..n in order, and its edges and
    accesses name only those; anything else is refused before the HB store
    (which indexes lists by operation id) is built."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_set(("operations", -1, "op_id"), 10**12), "operation 1000000000000 is out of sequence"),
            (_set(("operations", 0, "op_id"), -1), "operation -1 is out of sequence"),
            (_set(("operations", 0, "op_id"), "1"), "operation '1' is out of sequence"),
            (_swap_first_two_operations, "operation 2 is out of sequence"),
            (_set(("edges", 0, "src"), 999), "an edge names operation 999"),
            (_set(("edges", 0, "dst"), 0), "an edge names operation 0"),
            (_set(("edges", 0, "src"), -3), "an edge names operation -3"),
            (_set(("accesses", 0, "op_id"), 999), "an access names operation 999"),
        ],
        ids=[
            "huge-op", "negative-op", "string-op", "out-of-order",
            "edge-from-absent", "edge-to-bottom", "edge-negative", "access-absent",
        ],
    )
    def test_rejected(self, online_report, mutate, message):
        data = trace_to_dict(online_report.page.trace, online_report.page.monitor.graph)
        mutate(data)
        with pytest.raises(ValueError, match=message):
            trace_from_dict(data)

    def test_well_formed_ids_load(self, online_report):
        page = online_report.page
        loaded = trace_from_dict(trace_to_dict(page.trace, page.monitor.graph))
        assert [op.op_id for op in loaded.trace.operations] == list(
            range(1, len(page.trace.operations) + 1)
        )


class TestOfflineAnalysis:
    def test_offline_detector_reproduces_online_races(self, online_report):
        """Capture once, analyse offline: identical race list."""
        page = online_report.page
        loaded = loads_trace(dumps_trace(page.trace, page.monitor.graph))
        offline = loaded.detect()
        online_keys = {
            (race.location, race.prior.op_id, race.current.op_id)
            for race in online_report.raw_races
        }
        offline_keys = {
            (race.location, race.prior.op_id, race.current.op_id)
            for race in offline.races
        }
        assert offline_keys == online_keys

    def test_offline_report_matches_online(self, online_report):
        page = online_report.page
        loaded = loads_trace(dumps_trace(page.trace, page.monitor.graph))
        offline_report = loaded.report()
        assert offline_report.counts() == online_report.classified.counts()
        assert (
            offline_report.harmful_counts()
            == online_report.classified.harmful_counts()
        )

    def test_offline_full_history_detector(self, online_report):
        page = online_report.page
        loaded = loads_trace(dumps_trace(page.trace, page.monitor.graph))
        full = FullHistoryDetector(loaded.trace, loaded.graph).replay()
        constant = loaded.detect()
        assert {race.location for race in constant.races} <= {
            race.location for race in full.races
        }

    def test_offline_hb_queries_match(self, online_report):
        page = online_report.page
        loaded = loads_trace(dumps_trace(page.trace, page.monitor.graph))
        ops = page.monitor.graph.operation_ids()
        for a in ops[:15]:
            for b in ops[:15]:
                assert loaded.graph.happens_before(a, b) == page.monitor.graph.happens_before(a, b)


def test_operation_without_meta_serializes_empty_meta(online_report):
    page = online_report.page
    data = json.loads(dumps_trace(page.trace, page.monitor.graph))
    shared = [
        serialized
        for op, serialized in zip(page.trace.operations, data["operations"])
        if op.meta is NO_META
    ]
    assert shared
    assert all(serialized["meta"] == {} for serialized in shared)
