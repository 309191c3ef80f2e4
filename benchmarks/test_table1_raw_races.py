"""E6 — Table 1: unfiltered race statistics over the 100-site corpus.

Regenerates the paper's Table 1 (mean / median / max races per type,
without filtering).  The corpus is synthetic (see DESIGN.md), calibrated so
the *shape* holds: variable and event-dispatch races dominate the mean,
HTML/function medians are zero, and a few heavy sites create the long tail.
"""

import statistics

from repro import WebRacer
from repro.core.report import RACE_TYPES
from repro.sites import PAPER_TABLE1, build_corpus


def run_corpus(limit=100):
    sites = build_corpus(master_seed=0, limit=limit)
    racer = WebRacer(seed=0)
    return racer.check_corpus(sites)


def test_table1_raw_race_statistics(benchmark):
    corpus_report = benchmark.pedantic(run_corpus, rounds=1, iterations=1)
    table1 = corpus_report.table1()

    print()
    print("Table 1 reproduction — races per site, unfiltered")
    print(f"{'Race type':16s} {'mean':>8s} {'median':>8s} {'max':>6s}   "
          f"{'paper-mean':>10s} {'paper-med':>9s} {'paper-max':>9s}")
    for race_type in list(RACE_TYPES) + ["all"]:
        row = table1[race_type]
        paper = PAPER_TABLE1[race_type]
        print(
            f"{race_type:16s} {row['mean']:8.1f} {row['median']:8.1f} "
            f"{row['max']:6.0f}   {paper['mean']:10.1f} {paper['median']:9.1f} "
            f"{paper['max']:9d}"
        )

    # Shape assertions (paper values in comments):
    # HTML: mean 2.2, median 0, max 112 — the Ford site dominates.
    assert table1["html"]["median"] == 0.0
    assert table1["html"]["max"] >= 100
    assert 1.0 <= table1["html"]["mean"] <= 4.0
    # Function: mean 0.4, median 0, max 6.
    assert table1["function"]["median"] == 0.0
    assert table1["function"]["max"] <= 10
    # Variable and event-dispatch dominate the totals (paper: 22.4/22.3).
    assert table1["variable"]["mean"] > 5 * table1["html"]["mean"]
    assert table1["event_dispatch"]["mean"] > 5 * table1["html"]["mean"]
    assert 10 <= table1["variable"]["mean"] <= 40
    assert 10 <= table1["event_dispatch"]["mean"] <= 40
    # Long tail: a handful of sites with hundreds of races (paper max 278).
    assert table1["all"]["max"] >= 150
    # Overall mean near the paper's 47.3.
    assert 30 <= table1["all"]["mean"] <= 70


def test_table1_medians_far_below_means(benchmark):
    """The paper's observation: 'several sites had a large number of these
    races, raising the average' — means are tail-driven."""
    corpus_report = benchmark.pedantic(run_corpus, rounds=1, iterations=1)
    table1 = corpus_report.table1()
    for race_type in ("variable", "event_dispatch", "all"):
        assert table1[race_type]["median"] < table1[race_type]["mean"], race_type

    per_site_totals = sorted(
        sum(report.raw_counts().values()) for report in corpus_report.reports
    )
    print()
    print("Per-site total distribution (unfiltered):")
    print(f"  min={per_site_totals[0]}  p25={per_site_totals[24]}  "
          f"median={statistics.median(per_site_totals):.1f}  "
          f"p75={per_site_totals[74]}  max={per_site_totals[-1]}")
