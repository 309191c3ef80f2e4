"""Tests for stable race fingerprints."""

from repro.core.access import READ, WRITE, Access
from repro.core.detector import READ_WRITE, WRITE_WRITE, Race
from repro.core.locations import (
    DomPropLocation,
    HandlerLocation,
    PropLocation,
    VarLocation,
    id_key,
)
from repro.core.operations import DISPATCH, EXE
from repro.core.trace import Trace
from repro.explain.fingerprint import location_token, race_fingerprint

from .conftest import check_page


def make_trace(labels):
    """A trace with one operation per (kind, label); returns (trace, ids)."""
    trace = Trace()
    ids = []
    for kind, label in labels:
        ids.append(trace.operations.create(kind, label).op_id)
    return trace, ids


def make_race(location, trace, op_a, op_b, kinds=(WRITE, WRITE)):
    prior = Access(kind=kinds[0], op_id=op_a, location=location)
    current = Access(kind=kinds[1], op_id=op_b, location=location)
    kind = WRITE_WRITE if kinds == (WRITE, WRITE) else READ_WRITE
    return Race(location=location, prior=prior, current=current, kind=kind)


class TestLocationToken:
    def test_var_token_drops_cell_id(self):
        assert location_token(VarLocation(3, "x")) == location_token(
            VarLocation(99, "x")
        )

    def test_prop_token_drops_object_id(self):
        assert location_token(PropLocation(1, "f")) == location_token(
            PropLocation(42, "f")
        )

    def test_dom_prop_token_keeps_id_and_tag(self):
        token = location_token(
            DomPropLocation(id_key(1, "search"), "value", tag="input")
        )
        assert "#search" in token and "value" in token and "input" in token

    def test_handler_token_names_event(self):
        token = location_token(HandlerLocation(id_key(1, "w"), "load"))
        assert "load" in token


class TestFingerprintStability:
    def test_op_ids_do_not_matter(self):
        """The same logical race reported at different operation ids (a
        different schedule) keeps its fingerprint."""
        labels = [(EXE, "exe(<script src=a.js>)"), (DISPATCH, "disp0(load, w)")]
        trace_a, ids_a = make_trace(labels)
        trace_b, ids_b = make_trace([(EXE, "pad"), (EXE, "pad")] + labels)
        location = VarLocation(5, "x")
        race_a = make_race(location, trace_a, *ids_a)
        race_b = make_race(VarLocation(17, "x"), trace_b, *ids_b[2:])
        assert race_fingerprint(race_a, trace_a) == race_fingerprint(
            race_b, trace_b
        )

    def test_prior_current_flip_keeps_fingerprint(self):
        labels = [(EXE, "exe(a)"), (EXE, "exe(b)")]
        trace, (op_a, op_b) = make_trace(labels)
        location = VarLocation(1, "x")
        forward = make_race(location, trace, op_a, op_b)
        flipped = make_race(location, trace, op_b, op_a)
        assert race_fingerprint(forward, trace) == race_fingerprint(
            flipped, trace
        )

    def test_different_location_changes_fingerprint(self):
        labels = [(EXE, "exe(a)"), (EXE, "exe(b)")]
        trace, ids = make_trace(labels)
        one = make_race(VarLocation(1, "x"), trace, *ids)
        other = make_race(VarLocation(1, "y"), trace, *ids)
        assert race_fingerprint(one, trace) != race_fingerprint(other, trace)

    def test_race_kind_changes_fingerprint(self):
        labels = [(EXE, "exe(a)"), (EXE, "exe(b)")]
        trace, ids = make_trace(labels)
        location = VarLocation(1, "x")
        ww = make_race(location, trace, *ids, kinds=(WRITE, WRITE))
        rw = make_race(location, trace, *ids, kinds=(READ, WRITE))
        assert race_fingerprint(ww, trace) != race_fingerprint(rw, trace)


class TestEndToEndStability:
    def test_identical_runs_produce_identical_fingerprints(self):
        reports = [check_page() for _ in range(2)]
        fingerprints = []
        for report in reports:
            fingerprints.append(sorted(
                race_fingerprint(race, report.trace)
                for race in report.filtered_races
            ))
        assert fingerprints[0] == fingerprints[1]
        assert fingerprints[0]  # the page does race
