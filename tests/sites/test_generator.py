"""Tests for site generation and the corpus recipes."""

import pytest

from repro.core.report import EVENT_DISPATCH, HTML, VARIABLE
from repro.sites.corpus import (
    CLEAN_SITES,
    PAPER_TABLE2_TOTALS,
    TABLE2_SPECS,
    build_corpus,
    corpus_specs,
    expected_table2_totals,
    noise_levels,
)
from repro.sites.generator import Site, SiteSpec, build_site


class TestBuildSite:
    def test_single_pattern(self):
        site = build_site(SiteSpec(name="One").add("valero_email_link"))
        assert site.expected[HTML] == (1, 1)
        assert "javascript:" in site.html

    def test_expectations_additive(self):
        site = build_site(
            SiteSpec(name="Two")
            .add("valero_email_link")
            .add("valero_email_link")
            .add("southwest_form_hint")
        )
        assert site.expected[HTML] == (2, 2)
        assert site.expected[VARIABLE] == (1, 1)

    def test_resources_merged(self):
        site = build_site(
            SiteSpec(name="Res")
            .add("southwest_form_hint")
            .add("function_race_unguarded")
        )
        assert len(site.resources) == 2

    def test_resource_collision_detected(self):
        # Same pattern twice gets distinct uids, so no collision.
        site = build_site(
            SiteSpec(name="Dup")
            .add("southwest_form_hint")
            .add("southwest_form_hint")
        )
        assert len(site.resources) == 2

    def test_unknown_pattern_raises(self):
        with pytest.raises(KeyError):
            build_site(SiteSpec(name="Bad").add("no_such_pattern"))

    def test_expected_totals_helpers(self):
        site = build_site(
            SiteSpec(name="T").add("valero_email_link").add("two_script_form_hint")
        )
        assert site.expected_filtered_total() == 2
        assert site.expected_harmful_total() == 1


class TestCorpusRecipes:
    def test_exactly_100_sites(self):
        assert len(corpus_specs()) == 100
        assert len(TABLE2_SPECS) + len(CLEAN_SITES) == 100

    def test_seeded_totals_match_paper_exactly(self):
        """The corpus is constructed to reproduce Table 2's totals."""
        assert expected_table2_totals() == PAPER_TABLE2_TOTALS

    def test_41_sites_with_races(self):
        assert len(TABLE2_SPECS) == 41

    def test_site_names_unique(self):
        names = [spec.name for spec in corpus_specs()]
        assert len(set(names)) == 100

    def test_build_corpus_limit(self):
        sites = build_corpus(limit=5)
        assert len(sites) == 5
        assert all(isinstance(site, Site) for site in sites)

    def test_corpus_deterministic_in_seed(self):
        first = build_corpus(master_seed=2, limit=10)
        second = build_corpus(master_seed=2, limit=10)
        assert [site.html for site in first] == [site.html for site in second]

    def test_corpus_varies_with_seed(self):
        first = build_corpus(master_seed=1, limit=10)
        second = build_corpus(master_seed=2, limit=10)
        assert [site.html for site in first] != [site.html for site in second]

    def test_ford_site_has_112_expected_html_races(self):
        ford = next(s for s in build_corpus(limit=41) if s.name == "Ford")
        assert ford.expected[HTML] == (112, 0)

    def test_metlife_has_35_harmful_dispatch_races(self):
        metlife = next(s for s in build_corpus(limit=41) if s.name == "MetLife")
        assert metlife.expected[EVENT_DISPATCH] == (35, 35)

    def test_noise_levels_deterministic(self):
        assert noise_levels(17, 3) == noise_levels(17, 3)

    def test_noise_levels_skewed(self):
        levels = [noise_levels(i, 0) for i in range(100)]
        variable = sorted(level[0] for level in levels)
        # Long tail: median well below max.
        assert variable[49] < variable[-1] / 3

    def test_clean_sites_have_no_expected_filtered_races(self):
        sites = build_corpus(limit=100)
        clean = [site for site in sites if site.name in CLEAN_SITES]
        assert len(clean) == 59
        for site in clean:
            assert site.expected_filtered_total() == 0
