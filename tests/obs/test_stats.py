"""render_profile / stats_dict summary tests."""

import json

import pytest

from repro.obs import Instrumentation, render_profile, stats_dict


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, seconds):
        self.t += seconds


@pytest.fixture
def populated():
    clock = FakeClock()
    obs = Instrumentation(clock=clock)
    with obs.scope("siteA"):
        with obs.span("check_page"):
            clock.tick(0.004)
        obs.count("races.raw", 3)
    with obs.scope("siteB"):
        with obs.span("check_page"):
            clock.tick(0.002)
        obs.count("races.raw", 1)
    return obs


class TestRenderProfile:
    def test_contains_span_and_counter_rows(self, populated):
        text = render_profile(populated)
        assert "check_page" in text
        assert "races.raw" in text

    def test_totals_merge_scopes(self, populated):
        text = render_profile(populated)
        # 4 ms + 2 ms over 2 calls, and 3 + 1 raw races.
        row = next(line for line in text.splitlines() if "check_page" in line)
        assert " 2 " in row and "6.00" in row
        counter_row = next(line for line in text.splitlines() if "races.raw" in line)
        assert counter_row.rstrip().endswith("4")

    def test_empty_instrumentation_renders(self):
        assert "no spans recorded" in render_profile(Instrumentation())


class TestStatsDict:
    def test_shape_and_json_round_trip(self, populated):
        payload = stats_dict(populated)
        assert set(payload) >= {"spans", "counters", "scopes", "event_count"}
        json.dumps(payload)  # must be JSON-serialisable

    def test_per_scope_breakdown(self, populated):
        scopes = stats_dict(populated)["scopes"]
        assert set(scopes) == {"siteA", "siteB"}
        assert scopes["siteA"]["counters"]["races.raw"] == 3
        assert scopes["siteB"]["counters"]["races.raw"] == 1
        assert scopes["siteA"]["spans"]["check_page"]["total_us"] == pytest.approx(4000.0)

    def test_totals_merge_scopes(self, populated):
        payload = stats_dict(populated)
        assert payload["counters"]["races.raw"] == 4
        assert payload["spans"]["check_page"]["count"] == 2
        assert payload["spans"]["check_page"]["total_us"] == pytest.approx(6000.0)

    def test_scope_blocks_sorted_by_name(self):
        """A scope's blocks do not depend on which layer counted first."""
        obs = Instrumentation()
        with obs.scope("site"):
            obs.count("z.last")
            obs.count("a.first")
            with obs.span("parse"):
                pass
            with obs.span("detect"):
                pass
        scope = stats_dict(obs)["scopes"]["site"]
        assert list(scope["counters"]) == ["a.first", "z.last"]
        assert list(scope["spans"]) == ["detect", "parse"]

    def test_unscoped_data_lands_in_root(self):
        obs = Instrumentation()
        obs.count("loose")
        assert stats_dict(obs)["scopes"]["<root>"]["counters"]["loose"] == 1

    def test_extra_merged(self, populated):
        payload = stats_dict(populated, extra={"page": "x.html"})
        assert payload["page"] == "x.html"
