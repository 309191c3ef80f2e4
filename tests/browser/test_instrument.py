"""Tests for the Monitor (instrumentation hub)."""

import pytest

from repro.browser.instrument import Monitor
from repro.browser.page import Browser
from repro.core.access import READ, WRITE
from repro.core.locations import (
    CollectionLocation,
    DomPropLocation,
    HandlerLocation,
    HElemLocation,
    PropLocation,
    VarLocation,
    id_key,
)
from repro.core.operations import EXE, PARSE, SEGMENT
from repro.dom.document import Document

from ..core.trace_rows import monitor_record


@pytest.fixture
def monitor():
    return Monitor()


def begin_op(monitor, kind=EXE, label="op"):
    operation = monitor.new_operation(kind, label=label)
    monitor.begin_operation(operation)
    return operation


class TestOperationStack:
    def test_current_tracks_stack(self, monitor):
        assert monitor.current is None
        op = begin_op(monitor)
        assert monitor.current is op
        monitor.end_operation(op)
        assert monitor.current is None

    def test_nested_operations(self, monitor):
        outer = begin_op(monitor, label="outer")
        inner = begin_op(monitor, label="inner")
        assert monitor.current is inner
        monitor.end_operation(inner)
        assert monitor.current is outer
        monitor.end_operation(outer)

    def test_mismatched_end_raises(self, monitor):
        first = begin_op(monitor)
        other = monitor.new_operation(EXE, label="other")
        with pytest.raises(RuntimeError):
            monitor.end_operation(other)

    def test_end_accepts_descendant_segment(self, monitor):
        original = begin_op(monitor)
        segment = monitor.new_operation(
            SEGMENT, label="seg", parent=original.op_id
        )
        monitor.replace_current(segment)
        monitor.end_operation(original)  # must not raise

    def test_end_on_empty_stack_raises(self, monitor):
        op = monitor.new_operation(EXE)
        with pytest.raises(RuntimeError):
            monitor.end_operation(op)


class TestRecording:
    def test_access_outside_operation_ignored(self, monitor):
        result = monitor_record(monitor, READ, VarLocation(1, "x"))
        assert result is None
        assert len(monitor.trace) == 0

    def test_access_attributed_to_current_op(self, monitor):
        op = begin_op(monitor)
        access = monitor_record(monitor, WRITE, VarLocation(1, "x"))
        assert access.op_id == op.op_id

    def test_disabled_monitor_records_nothing(self):
        monitor = Monitor(enabled=False)
        begin_op(monitor)
        assert monitor_record(monitor, WRITE, VarLocation(1, "x")) is None

    def test_read_before_write_detail(self, monitor):
        begin_op(monitor)
        location = DomPropLocation(id_key(1, "f"), "value", tag="input")
        monitor_record(monitor, READ, location)
        write = monitor_record(monitor, WRITE, location)
        assert write.detail.get("read_before_write") is True

    def test_no_read_before_write_across_operations(self, monitor):
        location = DomPropLocation(id_key(1, "f"), "value", tag="input")
        first = begin_op(monitor)
        monitor_record(monitor, READ, location)
        monitor.end_operation(first)
        begin_op(monitor)
        write = monitor_record(monitor, WRITE, location)
        assert "read_before_write" not in write.detail

    def test_delayed_script_marks_writes(self, monitor):
        op = monitor.new_operation(EXE, meta={"delayed_script": True})
        monitor.begin_operation(op)
        write = monitor_record(
            monitor, WRITE, HandlerLocation(id_key(1, "img"), "load")
        )
        assert write.detail.get("deliberate_delay") is True

    def test_detector_wired_to_trace(self, monitor):
        op1 = begin_op(monitor)
        monitor_record(monitor, WRITE, VarLocation(1, "x"))
        monitor.end_operation(op1)
        op2 = begin_op(monitor)
        monitor_record(monitor, WRITE, VarLocation(1, "x"))
        monitor.end_operation(op2)
        # No HB edges between the two ops -> race, reported on the second
        # row when the races are read.
        [race] = monitor.races
        assert (race.prior.seq, race.current.seq) == (0, 1)


    def test_finally_after_return_is_recorded(self):
        """A ``finally`` block runs, and its writes are recorded, when its
        ``try`` block returns."""
        page = Browser(seed=0).load(
            "<script>(function () {"
            " try { return 'a'; } finally { r2 = 'f'; } })();</script>"
        )
        writes = [
            access.location
            for access in page.monitor.trace.accesses
            if access.is_write and isinstance(access.location, PropLocation)
        ]
        assert [location.name for location in writes] == ["r2"]


class TestCrashRecording:
    def test_crash_attributed_to_current_op(self, monitor):
        op = begin_op(monitor)
        monitor.record_crash(ValueError("boom"), where="test")
        crash = monitor.trace.crashes[0]
        assert crash.operation == op.op_id
        assert crash.where == "test"

    def test_crash_outside_operation(self, monitor):
        monitor.record_crash(ValueError("boom"))
        assert monitor.trace.crashes[0].operation is None


class TestDomHooks:
    def make_document(self, monitor):
        document = Document("t.html")
        document.instrumentation = monitor
        return document

    def test_insertion_writes_helem_and_structure(self, monitor):
        document = self.make_document(monitor)
        begin_op(monitor, kind=PARSE)
        element = document.create_element("div", {"id": "a"})
        document.insert(element)
        locations = [access.location for access in monitor.trace.accesses]
        assert HElemLocation(element.element_key) in locations
        assert any(
            isinstance(loc, DomPropLocation) and loc.name == "parentNode"
            for loc in locations
        )
        assert any(
            isinstance(loc, CollectionLocation) and loc.kind == "tag"
            for loc in locations
        )

    def test_create_op_recorded(self, monitor):
        document = self.make_document(monitor)
        op = begin_op(monitor, kind=PARSE)
        element = document.create_element("div", {"id": "a"})
        document.insert(element)
        assert monitor.create_op_of(element) == op.op_id

    def test_create_op_first_insertion_wins(self, monitor):
        document = self.make_document(monitor)
        first = begin_op(monitor, kind=PARSE)
        element = document.create_element("div", {"id": "a"})
        document.insert(element)
        monitor.end_operation(first)
        second = begin_op(monitor, kind=EXE)
        document.remove(element)
        document.insert(element)
        assert monitor.create_op_of(element) == first.op_id

    def test_lookup_miss_records_found_false(self, monitor):
        document = self.make_document(monitor)
        begin_op(monitor)
        document.get_element_by_id("ghost")
        access = monitor.trace.accesses[-1]
        assert access.is_read
        assert access.detail["found"] is False

    def test_removal_writes(self, monitor):
        document = self.make_document(monitor)
        op = begin_op(monitor, kind=PARSE)
        element = document.create_element("div", {"id": "a"})
        document.insert(element)
        before = len(monitor.trace.accesses)
        document.remove(element)
        assert len(monitor.trace.accesses) > before


class TestReadSets:
    """The monitor keeps read-before-write state only for the operations
    on its stack."""

    X = DomPropLocation(id_key(1, "f"), "value", tag="input")
    Y = VarLocation(1, "y")

    def test_read_before_write_survives_a_nested_operation(self, monitor):
        outer = begin_op(monitor, label="outer")
        monitor_record(monitor, READ, self.X)
        inner = begin_op(monitor, label="inner")
        monitor_record(monitor, READ, self.Y)
        assert len(monitor._read_sets) == 2
        monitor.end_operation(inner)
        assert len(monitor._read_sets) == 1
        write_x = monitor_record(monitor, WRITE, self.X)
        write_y = monitor_record(monitor, WRITE, self.Y)
        assert write_x.detail.get("read_before_write") is True
        assert "read_before_write" not in write_y.detail
        monitor.end_operation(outer)
        assert monitor._read_sets == []

    def test_segment_starts_with_no_reads(self, monitor):
        original = begin_op(monitor)
        monitor_record(monitor, READ, self.X)
        segment = monitor.new_operation(SEGMENT, parent=original.op_id)
        monitor.replace_current(segment)
        assert monitor._read_sets == [set()]
        write = monitor_record(monitor, WRITE, self.X)
        assert "read_before_write" not in write.detail
        monitor.end_operation(original)
        assert monitor._read_sets == []

    def test_inline_dispatch_holds_only_stacked_read_sets(self, monkeypatch):
        depths = []
        record = Monitor.record

        def checked_record(self, kind, key, bits=0, detail=None):
            row = record(self, kind, key, bits, detail)
            trace = self.trace
            assert len(self._read_sets) == len(self._op_stack)
            for operation, reads in zip(self._op_stack, self._read_sets):
                read_by_op = {
                    loc
                    for op_id, loc, is_read in zip(trace.ops, trace.locs, trace.reads)
                    if is_read and op_id == operation.op_id
                }
                assert reads <= read_by_op
            depths.append(len(self._op_stack))
            return row

        monkeypatch.setattr(Monitor, "record", checked_record)
        page = Browser(seed=0).load(
            "<div id='a'></div><div id='b'></div><script>"
            "var a = document.getElementById('a');"
            "var b = document.getElementById('b');"
            "b.onclick = function() { seen = n; n = 2; };"
            "a.onclick = function() { n = 1; b.click(); n = n + 1; };"
            "a.click(); done = n;</script>"
        )
        assert page.interpreter.global_object.get_own("done") == 3.0
        # Script, a's handler and b's handler were stacked at once.
        assert max(depths) == 3
        assert page.monitor._read_sets == []
        # b's handler read n before writing it.
        assert any(
            access.detail.get("read_before_write")
            and getattr(access.location, "name", None) == "n"
            for access in page.trace.accesses
            if not access.is_read
        )
