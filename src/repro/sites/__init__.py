"""Synthetic workload: race patterns, site generation, the 100-site corpus."""

from .corpus import (
    CLEAN_SITES,
    PAPER_TABLE1,
    PAPER_TABLE2_SITES,
    PAPER_TABLE2_TOTALS,
    TABLE2_SPECS,
    build_corpus,
    corpus_builders,
    corpus_specs,
    expected_table2_totals,
    noise_levels,
)
from .generator import Site, SiteSpec, build_site
from .patterns import PATTERNS, Fragment

__all__ = [
    "CLEAN_SITES",
    "Fragment",
    "PATTERNS",
    "PAPER_TABLE1",
    "PAPER_TABLE2_SITES",
    "PAPER_TABLE2_TOTALS",
    "Site",
    "SiteSpec",
    "TABLE2_SPECS",
    "build_corpus",
    "build_site",
    "corpus_builders",
    "corpus_specs",
    "expected_table2_totals",
    "noise_levels",
]
