"""The trace keeps location keys and builds each Location on first read."""

import typing
from collections import Counter

import pytest

from repro import WebRacer
from repro.core.locations import Location, PropLocation, VarLocation
from repro.core.trace import Trace, location_key


@pytest.fixture
def built(monkeypatch):
    """Counts the Location objects constructed, by class name."""
    counts = Counter()
    for cls in typing.get_args(Location):

        def counting_init(self, *args, __init__=cls.__init__, **kwargs):
            counts[type(self).__name__] += 1
            __init__(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return counts


def recorded_trace():
    trace = Trace()
    x = trace.intern((VarLocation, 1, "x"))
    p = trace.intern((PropLocation, 2, "p"))
    trace.record(1, x, True)
    trace.record(2, p, False)
    trace.record(3, x, False)
    return trace, x


def test_interning_builds_no_location(built):
    trace, _x = recorded_trace()
    assert len(trace) == 3
    assert built == Counter()


def test_a_location_is_built_once_on_first_read(built):
    trace, x = recorded_trace()
    first = trace.location(x)
    assert trace.location(x) is first
    assert trace.access(0).location is first
    assert trace.access(2).location is first
    assert built == Counter({"VarLocation": 1})
    assert location_key(first) == (VarLocation, 1, "x")


def test_identity_lists_keys_in_first_touch_order():
    trace, _x = recorded_trace()
    assert trace.identity()[1] == [(VarLocation, 1, "x"), (PropLocation, 2, "p")]
    assert trace.locations() == [VarLocation(1, "x"), PropLocation(2, "p")]
    assert [location_key(loc) for loc in trace.locations()] == trace.identity()[1]


def test_a_run_without_races_builds_no_location(built):
    report = WebRacer().check_page(
        "<div id='a'></div><script>var x = 1; x = x + 1;"
        " document.getElementById('a').title = 'b';</script>"
    )
    assert len(report.trace) > 0
    assert report.raw_races == []
    assert built == Counter()


def test_a_race_reads_only_its_own_location(built):
    report = WebRacer().check_page(
        '<input type="text" id="q" /><script src="hint.js"></script>',
        resources={"hint.js": "document.getElementById('q').value = 'hint';"},
    )
    [race] = report.raw_races
    assert race.prior.location is race.current.location is race.location
    assert sum(built.values()) == 1
