"""Tests for operations and the trace."""

import pytest

from repro.core.access import READ, WRITE, Access
from repro.core.locations import VarLocation
from repro.core.operations import (
    CB,
    DISPATCH,
    EXE,
    PARSE,
    Operation,
    OperationFactory,
)
from repro.core.trace import Trace

from .trace_rows import record


class TestOperationFactory:
    def test_ids_start_at_one(self):
        """Id 0 is the detector's ⊥ marker and must stay free."""
        factory = OperationFactory()
        assert factory.create(PARSE).op_id == 1

    def test_ids_monotone(self):
        factory = OperationFactory()
        first = factory.create(PARSE)
        second = factory.create(EXE)
        assert first.op_id < second.op_id

    def test_lookup(self):
        factory = OperationFactory()
        op = factory.create(CB, label="cb(timeout#1)")
        assert factory.get(op.op_id) is op

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            OperationFactory().create("bogus")

    def test_meta_copied(self):
        meta = {"event": "load"}
        op = OperationFactory().create(DISPATCH, meta=meta)
        meta["event"] = "click"
        assert op.meta["event"] == "load"

    def test_iteration_and_len(self):
        factory = OperationFactory()
        factory.create(PARSE)
        factory.create(PARSE)
        assert len(factory) == 2
        assert len(list(factory)) == 2

    def test_describe(self):
        op = Operation(op_id=3, kind=EXE, label="exe(<script>)")
        assert op.describe() == "exe(<script>)"
        assert Operation(op_id=4, kind=EXE).describe() == "exe#4"


class TestTrace:
    def test_record_stamps_sequence(self):
        trace = Trace()
        location = VarLocation(1, "x")
        first = record(trace, Access(kind=WRITE, op_id=1, location=location))
        second = record(trace, Access(kind=READ, op_id=2, location=location))
        assert (first.seq, second.seq) == (0, 1)

    def test_listeners_called_in_order(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append)
        record(trace, Access(kind=WRITE, op_id=1, location=VarLocation(1, "x")))
        assert seen == [0]

    def test_accesses_to(self):
        trace = Trace()
        x = VarLocation(1, "x")
        y = VarLocation(2, "y")
        record(trace, Access(kind=WRITE, op_id=1, location=x))
        record(trace, Access(kind=WRITE, op_id=1, location=y))
        record(trace, Access(kind=READ, op_id=2, location=x))
        assert len(trace.accesses_to(x)) == 2
        assert len(trace.accesses_to(y)) == 1

    def test_locations_deduplicated_in_order(self):
        trace = Trace()
        x = VarLocation(1, "x")
        record(trace, Access(kind=WRITE, op_id=1, location=x))
        record(trace, Access(kind=READ, op_id=2, location=x))
        assert trace.locations() == [x]

    def test_accesses_by_operation(self):
        trace = Trace()
        x = VarLocation(1, "x")
        record(trace, Access(kind=WRITE, op_id=1, location=x))
        record(trace, Access(kind=WRITE, op_id=2, location=x))
        assert len(trace.accesses_by_operation(2)) == 1

    def test_summary_counts(self):
        trace = Trace()
        record(trace, Access(kind=WRITE, op_id=1, location=VarLocation(1, "x")))
        assert "1 accesses" in trace.summary()
