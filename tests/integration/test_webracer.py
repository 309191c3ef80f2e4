"""Tests for the WebRacer facade and corpus reporting."""

from repro import WebRacer
from repro.core.report import EVENT_DISPATCH, FUNCTION, HTML, VARIABLE
from repro.sites import SiteSpec, build_site
from repro.webracer import CorpusReport


class TestCheckPage:
    def test_clean_page_no_races(self):
        racer = WebRacer(seed=0)
        report = racer.check_page("<div>static content</div>")
        assert report.raw_races == []
        assert report.filtered_races == []
        assert report.classified.total() == 0

    def test_filters_can_be_disabled(self):
        html = (
            "<script src='a.js' async='true'></script>"
            "<script src='b.js' async='true'></script>"
        )
        resources = {"a.js": "shared = 1;", "b.js": "shared = 2;"}
        filtered = WebRacer(seed=0).check_page(html, resources=resources)
        unfiltered = WebRacer(seed=0, apply_filters=False).check_page(
            html, resources=resources
        )
        assert len(filtered.filtered_races) < len(unfiltered.filtered_races)

    def test_raw_counts_unaffected_by_filters(self):
        html = (
            "<script src='a.js' async='true'></script>"
            "<script src='b.js' async='true'></script>"
        )
        resources = {"a.js": "shared = 1;", "b.js": "shared = 2;"}
        report = WebRacer(seed=0).check_page(html, resources=resources)
        assert report.raw_counts()[VARIABLE] >= 1
        assert report.filtered_counts()[VARIABLE] == 0

    def test_summary_text(self):
        report = WebRacer(seed=0).check_page("<div></div>", url="empty.html")
        assert "empty.html" in report.summary()

    def test_explore_flag_controls_auto_exploration(self):
        html = "<div id='d' onmouseover='hovered = 1;'></div>"
        explored = WebRacer(seed=0, explore=True, eager=False).check_page(html)
        not_explored = WebRacer(seed=0, explore=False, eager=False).check_page(html)
        assert explored.page.interpreter.global_object.get_own("hovered") == 1.0
        assert not not_explored.page.interpreter.global_object.has_own("hovered")


class TestCheckSite:
    def test_site_expectations_met(self):
        site = build_site(
            SiteSpec(name="Mini")
            .add("valero_email_link")
            .add("southwest_form_hint")
            .add("static_noise")
        )
        report = WebRacer(seed=4).check_site(site)
        assert report.filtered_counts()[HTML] == 1
        assert report.filtered_counts()[VARIABLE] == 1
        assert report.harmful_counts()[HTML] == 1
        assert report.harmful_counts()[VARIABLE] == 1


class TestCorpusReport:
    def make_corpus_report(self):
        sites = [
            build_site(SiteSpec(name="S1").add("valero_email_link")),
            build_site(SiteSpec(name="S2").add("gomez_monitoring", images=2)),
            build_site(SiteSpec(name="S3").add("static_noise")),
        ]
        return WebRacer(seed=1).check_corpus(sites)

    def test_table1_shape(self):
        corpus = self.make_corpus_report()
        table1 = corpus.table1()
        assert set(table1) == {HTML, FUNCTION, VARIABLE, EVENT_DISPATCH, "all"}
        for row in table1.values():
            assert set(row) == {"mean", "median", "max"}
        assert table1[HTML]["max"] >= 1
        assert table1["all"]["mean"] >= table1[HTML]["mean"]

    def test_table2_elides_clean_sites(self):
        corpus = self.make_corpus_report()
        rows = corpus.table2()
        assert {row["site"] for row in rows} == {"S1", "S2"}

    def test_table2_totals(self):
        corpus = self.make_corpus_report()
        totals = corpus.table2_totals()
        assert totals[HTML] == (1, 1)
        assert totals[EVENT_DISPATCH] == (2, 2)

    def test_sites_with_filtered_races(self):
        corpus = self.make_corpus_report()
        assert corpus.sites_with_filtered_races() == 2

    def test_empty_corpus(self):
        corpus = CorpusReport()
        assert corpus.table1()["all"]["mean"] == 0
        assert corpus.table2() == []


class TestDeterminism:
    HTML = """
    <script>x = 1;</script>
    <iframe src="a.html"></iframe>
    <iframe src="b.html"></iframe>
    <img src="p.png">
    <script src="lib.js" async="true"></script>
    """
    RESOURCES = {
        "a.html": "<script>x = 2;</script>",
        "b.html": "<script>y = x;</script>",
        "p.png": "b",
        "lib.js": "x = 3;",
    }

    def signature(self, seed, scheduler="random"):
        racer = WebRacer(seed=seed, scheduler=scheduler)
        report = racer.check_page(self.HTML, resources=dict(self.RESOURCES))
        return (
            len(report.raw_races),
            tuple(sorted(c.race_type for c in report.classified.races)),
            len(report.trace.accesses),
            len(report.trace.operations),
        )

    def test_same_seed_same_results(self):
        assert self.signature(7) == self.signature(7)

    def test_same_seed_same_results_fifo(self):
        assert self.signature(3, "fifo") == self.signature(3, "fifo")

    def test_race_detection_stable_across_seeds(self):
        """The x variable race must be found under every interleaving —
        that is the point of happens-before detection (one observed run
        suffices, regardless of schedule)."""
        for seed in range(6):
            racer = WebRacer(seed=seed, scheduler="random", apply_filters=False)
            report = racer.check_page(self.HTML, resources=dict(self.RESOURCES))
            raced_names = {
                getattr(c.race.location, "name", "")
                for c in report.classified.races
            }
            assert "x" in raced_names, f"seed {seed} missed the x race"
