"""Unit tests for the repro.obs collection core (spans/counters)."""

import pytest

from repro.obs import NULL, Instrumentation, NullInstrumentation


class FakeClock:
    """A manually-advanced clock, in seconds (like time.perf_counter)."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, seconds):
        self.t += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def obs(clock):
    return Instrumentation(clock=clock)


def open_spans(obs):
    """Spans currently on the stack (innermost last)."""
    return list(obs._stack)


class TestSpans:
    def test_span_duration_in_microseconds(self, obs, clock):
        with obs.span("work"):
            clock.tick(0.005)  # 5 ms
        stat = obs.span_totals()["work"]
        assert stat.count == 1
        assert stat.total == pytest.approx(5000.0)

    def test_nested_spans_charge_child_time_to_parent(self, obs, clock):
        with obs.span("outer"):
            clock.tick(0.001)
            with obs.span("inner"):
                clock.tick(0.003)
            clock.tick(0.001)
        totals = obs.span_totals()
        assert totals["outer"].total == pytest.approx(5000.0)
        assert totals["inner"].total == pytest.approx(3000.0)
        # Self time excludes the child's 3 ms.
        assert totals["outer"].self_total == pytest.approx(2000.0)
        assert totals["inner"].self_total == pytest.approx(3000.0)

    def test_sibling_spans_aggregate_under_one_name(self, obs, clock):
        for _ in range(3):
            with obs.span("step"):
                clock.tick(0.002)
        stat = obs.span_totals()["step"]
        assert stat.count == 3
        assert stat.total == pytest.approx(6000.0)
        assert stat.minimum == pytest.approx(2000.0)
        assert stat.maximum == pytest.approx(2000.0)

    def test_open_spans_stack_order(self, obs):
        outer = obs.span("outer")
        inner = obs.span("inner")
        with outer:
            with inner:
                names = [span.name for span in open_spans(obs)]
                assert names == ["outer", "inner"]
        assert open_spans(obs) == []

    def test_unbalanced_exit_raises(self, obs):
        outer = obs.span("outer")
        inner = obs.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="unbalanced span exit"):
            outer.__exit__(None, None, None)

    def test_span_survives_exception(self, obs, clock):
        with pytest.raises(ValueError):
            with obs.span("fails"):
                clock.tick(0.001)
                raise ValueError("boom")
        assert obs.span_totals()["fails"].count == 1
        assert open_spans(obs) == []

    def test_events_are_retained(self, obs, clock):
        with obs.span("a"):
            clock.tick(0.001)
        obs.instant("mark", detail="x")
        assert [event.name for event in obs.events] == ["a", "mark"]

    def test_event_cap_drops_not_grows(self, clock):
        obs = Instrumentation(clock=clock, max_events=2)
        for index in range(5):
            obs.instant(f"i{index}")
        assert len(obs.events) == 2
        assert obs.dropped_events == 3


class TestCounters:
    def test_count_accumulates(self, obs):
        obs.count("hits")
        obs.count("hits", 4)
        assert obs.counter("hits") == 5

    def test_counters_are_scoped_but_totals_merge(self, obs):
        obs.count("races", 1)
        with obs.scope("siteA"):
            obs.count("races", 2)
        with obs.scope("siteB"):
            obs.count("races", 3)
        assert obs.counters[("siteA", "races")] == 2
        assert obs.counters[("siteB", "races")] == 3
        assert obs.counter("races") == 6
        assert obs.counter_totals() == {"races": 6}

    def test_missing_counter_is_zero(self, obs):
        assert obs.counter("nope") == 0


class TestScopes:
    def test_scope_labels_spans(self, obs, clock):
        with obs.scope("siteA"):
            with obs.span("check"):
                clock.tick(0.001)
        assert ("siteA", "check") in obs.span_stats
        assert obs.scopes() == ["siteA"]

    def test_scope_restores_previous(self, obs):
        with obs.scope("outer"):
            with obs.scope("inner"):
                obs.count("c")
            obs.count("c")
        obs.count("c")
        assert obs.counters[("inner", "c")] == 1
        assert obs.counters[("outer", "c")] == 1
        assert obs.counters[("", "c")] == 1


class TestNullSink:
    def test_null_is_disabled(self):
        assert NULL.enabled is False
        assert Instrumentation().enabled is True

    def test_null_methods_are_noops(self):
        null = NullInstrumentation()
        with null.span("anything", cat="x", foo=1):
            pass
        with null.scope("site"):
            null.count("c", 5)
        null.instant("i", k="v")
        # No state to inspect — the contract is simply "never raises".

    def test_null_span_is_shared_singleton(self):
        assert NULL.span("a") is NULL.span("b") is NULL.scope("c")
