"""Tests for the Section 5.3 race filters."""

from repro.core.access import READ, WRITE, Access
from repro.core.detector import Race, READ_WRITE, WRITE_WRITE
from repro.core.filters import (
    FilterChain,
    _read_preceded_write,
    form_race_filter,
    single_dispatch_filter,
)
from repro.core.locations import (
    ATTR_SLOT,
    DomPropLocation,
    HandlerLocation,
    HElemLocation,
    PropLocation,
    id_key,
    node_key,
)
from repro.core.trace import Trace

from .trace_rows import record


def make_race(location, prior_kind=WRITE, current_kind=WRITE, prior_op=2, current_op=3,
              prior_detail=None, current_detail=None):
    prior = Access(kind=prior_kind, op_id=prior_op, location=location,
                   detail=prior_detail or {})
    current = Access(kind=current_kind, op_id=current_op, location=location,
                     detail=current_detail or {})
    kind = WRITE_WRITE if prior_kind == WRITE and current_kind == WRITE else READ_WRITE
    return Race(location=location, prior=prior, current=current, kind=kind)


FORM_VALUE = DomPropLocation(id_key(1, "depart"), "value", tag="input")
PLAIN_GLOBAL = PropLocation(5, "x")
LOAD_HANDLER = HandlerLocation(id_key(1, "img"), "load", ATTR_SLOT)
CLICK_HANDLER = HandlerLocation(id_key(1, "btn"), "click", ATTR_SLOT)
ELEMENT = HElemLocation(id_key(1, "dw"))


class TestFormFilter:
    def test_keeps_form_value_race(self):
        race = make_race(FORM_VALUE)
        assert form_race_filter(race, "variable", Trace())

    def test_drops_plain_variable_race(self):
        race = make_race(PLAIN_GLOBAL)
        assert not form_race_filter(race, "variable", Trace())

    def test_drops_non_form_dom_prop(self):
        location = DomPropLocation(id_key(1, "d"), "style", tag="div")
        race = make_race(location)
        assert not form_race_filter(race, "variable", Trace())

    def test_passes_through_other_race_types(self):
        race = make_race(PLAIN_GLOBAL)
        assert form_race_filter(race, "html", Trace())
        assert form_race_filter(race, "event_dispatch", Trace())

    def test_drops_guarded_write_via_detail(self):
        race = make_race(FORM_VALUE, current_detail={"read_before_write": True})
        assert not form_race_filter(race, "variable", Trace())

    def test_drops_guarded_write_via_trace_scan(self):
        trace = Trace()
        guard_read = record(trace, Access(kind=READ, op_id=3, location=FORM_VALUE))
        write = record(trace, Access(kind=WRITE, op_id=3, location=FORM_VALUE))
        race = Race(
            location=FORM_VALUE,
            prior=Access(kind=WRITE, op_id=2, location=FORM_VALUE),
            current=write,
            kind=WRITE_WRITE,
        )
        assert not form_race_filter(race, "variable", trace)

    def test_drops_guard_read_racing_with_user_write(self):
        trace = Trace()
        read = record(trace, Access(kind=READ, op_id=3, location=FORM_VALUE))
        record(trace, Access(kind=WRITE, op_id=3, location=FORM_VALUE))
        race = Race(
            location=FORM_VALUE,
            prior=Access(kind=WRITE, op_id=2, location=FORM_VALUE,
                         detail={"user_input": True}),
            current=read,
            kind=READ_WRITE,
        )
        assert not form_race_filter(race, "variable", trace)


class TestReconstructedTraces:
    """Filters must find the guard by row comparison, however far apart
    the guard read and the guarded write sit: other rows, including other
    operations' accesses to the same field, separate them."""

    @staticmethod
    def pad(trace, rows):
        """Rows of another operation, on the field and on a global."""
        for index in range(rows):
            location = FORM_VALUE if index % 2 else PLAIN_GLOBAL
            record(trace, Access(kind=READ, op_id=9, location=location))

    @classmethod
    def sparse_trace(cls):
        trace = Trace()
        cls.pad(trace, 5)
        read = record(trace, Access(kind=READ, op_id=3, location=FORM_VALUE))
        cls.pad(trace, 1)
        write = record(trace, Access(kind=WRITE, op_id=3, location=FORM_VALUE))
        assert (read.seq, write.seq) == (5, 7)
        return trace, read, write

    def test_guard_read_found_despite_sparse_seqs(self):
        trace, read, write = self.sparse_trace()
        race = Race(
            location=FORM_VALUE,
            prior=Access(kind=WRITE, op_id=2, location=FORM_VALUE,
                         detail={"user_input": True}, seq=6),
            current=read,
            kind=READ_WRITE,
        )
        # op 3 writes the field at seq 7 > 5: the read is a typing guard.
        assert not form_race_filter(race, "variable", trace)

    def test_guarded_write_found_despite_sparse_seqs(self):
        trace, read, write = self.sparse_trace()
        race = Race(
            location=FORM_VALUE,
            prior=Access(kind=WRITE, op_id=2, location=FORM_VALUE, seq=6),
            current=write,
            kind=WRITE_WRITE,
        )
        # op 3 read the field at seq 5 < 7 before writing it: guarded.
        assert not form_race_filter(race, "variable", trace)

    def test_unguarded_sparse_trace_keeps_race(self):
        trace = Trace()
        self.pad(trace, 11)
        write = record(trace, Access(kind=WRITE, op_id=3, location=FORM_VALUE))
        assert write.seq == 11
        race = Race(
            location=FORM_VALUE,
            prior=Access(kind=WRITE, op_id=2, location=FORM_VALUE, seq=4),
            current=write,
            kind=WRITE_WRITE,
        )
        assert form_race_filter(race, "variable", trace)

    def test_index_rebuilds_when_trace_grows(self):
        trace = Trace()
        write = record(trace, Access(kind=WRITE, op_id=3, location=FORM_VALUE))
        assert trace.rows_of(FORM_VALUE) == [write.seq]
        assert not _read_preceded_write(write, trace)
        read = record(trace, Access(kind=READ, op_id=3, location=FORM_VALUE))
        later_write = record(trace, Access(kind=WRITE, op_id=3, location=FORM_VALUE))
        assert trace.rows_of(FORM_VALUE) == [write.seq, read.seq, later_write.seq]
        assert _read_preceded_write(later_write, trace)


class TestSingleDispatchFilter:
    def test_keeps_load_handler_race(self):
        race = make_race(LOAD_HANDLER)
        assert single_dispatch_filter(race, "event_dispatch", Trace())

    def test_drops_click_handler_race(self):
        race = make_race(CLICK_HANDLER)
        assert not single_dispatch_filter(race, "event_dispatch", Trace())

    def test_drops_mouseover(self):
        race = make_race(HandlerLocation(node_key(2), "mouseover"))
        assert not single_dispatch_filter(race, "event_dispatch", Trace())

    def test_keeps_readystatechange(self):
        race = make_race(HandlerLocation(node_key(9), "readystatechange"))
        assert single_dispatch_filter(race, "event_dispatch", Trace())

    def test_keeps_domcontentloaded(self):
        race = make_race(HandlerLocation(node_key(9), "DOMContentLoaded"))
        assert single_dispatch_filter(race, "event_dispatch", Trace())

    def test_passes_through_other_types(self):
        race = make_race(ELEMENT)
        assert single_dispatch_filter(race, "html", Trace())


class TestFilterChain:
    def test_html_races_untouched(self):
        """Table 2's HTML and function columns are unchanged by filters."""
        races = [make_race(ELEMENT, prior_kind=READ)]
        kept = FilterChain().apply(races, Trace())
        assert kept == races

    def test_mixed_filtering(self):
        races = [
            make_race(ELEMENT, prior_kind=READ),  # html, kept
            make_race(PLAIN_GLOBAL),  # variable, dropped
            make_race(FORM_VALUE),  # variable, kept
            make_race(CLICK_HANDLER, prior_kind=READ),  # ed, dropped
            make_race(LOAD_HANDLER, prior_kind=READ),  # ed, kept
        ]
        chain = FilterChain()
        kept = chain.apply(races, Trace())
        assert len(kept) == 3
        assert sum(chain.removed_counts().values()) == 2
        assert set(chain.removed) == {"form_race_filter", "single_dispatch_filter"}

    def test_empty_input(self):
        assert FilterChain().apply([], Trace()) == []

    def test_custom_filter_list(self):
        chain = FilterChain(filters=[single_dispatch_filter])
        races = [make_race(PLAIN_GLOBAL)]  # variable noise survives now
        assert chain.apply(races, Trace()) == races
