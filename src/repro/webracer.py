"""WebRacer — the dynamic race detector for web applications.

The top-level facade over the whole reproduction.  One call drives the
paper's full pipeline (Section 5): load the page in the instrumented
browser, auto-explore user interactions after window load (Section 5.2.2),
detect races over the recorded run with the LastRead/LastWrite detector and
the happens-before relation (Section 5.1), post-process with the form-race and
single-dispatch filters (Section 5.3), and classify each surviving race by
type and harmfulness (Sections 2 and 6).

Typical use::

    from repro import WebRacer

    racer = WebRacer(seed=7)
    report = racer.check_page(html, resources={"code.js": "..."})
    print(report.summary())
    for race in report.classified.races:
        print(race.describe())
"""

from __future__ import annotations

import functools
import signal
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from .browser.page import Browser, Page
from .browser.scheduler import (
    Scheduler,
    SeededRandomScheduler,
    derive_page_seed,
    make_scheduler,
)
from .config import RunConfig, run_config
from .core.detector import Race
from .core.filters import FilterChain
from .core.report import (
    RACE_TYPES,
    RaceReport,
    build_report,
)
from .core.trace import Trace
from .obs import NULL
from .pool import crash_line, fan_out


@dataclass
class PageReport:
    """Everything WebRacer learned about one page."""

    url: str
    page: Page
    #: Races straight from the detector (one per location).
    raw_races: List[Race]
    #: Races after the Section 5.3 filters.
    filtered_races: List[Race]
    #: Filtered races, classified and judged (Sections 2 & 6).
    classified: RaceReport
    #: Raw races, classified (for Table 1, which is pre-filtering).
    raw_classified: RaceReport
    #: How many races each Section 5.3 filter suppressed (name -> count).
    filter_removed: Dict[str, int] = field(default_factory=dict)

    @property
    def trace(self) -> Trace:
        """The page's execution trace."""
        return self.page.trace

    def raw_counts(self) -> Dict[str, int]:
        """Unfiltered race counts per type (Table 1 view)."""
        return self.raw_classified.counts()

    def filtered_counts(self) -> Dict[str, int]:
        """Post-filter race counts per type (Table 2 view)."""
        return self.classified.counts()

    def harmful_counts(self) -> Dict[str, int]:
        """Harmful race counts per type."""
        return self.classified.harmful_counts()

    def races_by_fingerprint(self) -> Dict[str, Dict[str, Any]]:
        """Filtered races keyed by stable fingerprint, first of each kept:
        ``{race_type, harmful, location, description}``."""
        from .explain.fingerprint import race_fingerprint

        races: Dict[str, Dict[str, Any]] = {}
        for race, classified in zip(self.filtered_races, self.classified.races):
            fingerprint = race_fingerprint(race, self.trace)
            if fingerprint not in races:
                races[fingerprint] = {
                    "race_type": classified.race_type,
                    "harmful": classified.harmful,
                    "location": str(classified.location),
                    "description": classified.describe(),
                }
        return races

    def summary(self) -> str:
        """One-line page summary."""
        return (
            f"{self.url}: {len(self.raw_races)} raw races, "
            f"{len(self.filtered_races)} after filtering "
            f"({len(self.classified.harmful())} harmful) — "
            + self.classified.summary()
        )


class SiteTimeoutError(Exception):
    """A site exceeded its per-site wall-clock budget."""


@contextmanager
def site_deadline(seconds: Optional[float]):
    """Raise :class:`SiteTimeoutError` after ``seconds`` of wall clock.

    Implemented with ``SIGALRM``, so it only arms on POSIX main threads;
    anywhere else (Windows, worker threads) it degrades to a no-op rather
    than failing — the per-site crash isolation still applies.
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise SiteTimeoutError()

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class SiteResult:
    """Picklable summary of one corpus site's run.

    This is what a corpus worker returns (never a live
    :class:`~repro.browser.page.Page` graph) and what
    :class:`CorpusReport` aggregates, in-process or pooled alike.
    A failed site (crash or per-site timeout) is a ``SiteResult`` whose
    ``error`` is set and whose counts are all zero.
    """

    index: int
    url: str
    #: ``None`` on success; otherwise a one-line crash/timeout description.
    error: Optional[str] = None
    raw_by_type: Dict[str, int] = field(default_factory=dict)
    filtered_by_type: Dict[str, int] = field(default_factory=dict)
    harmful_by_type: Dict[str, int] = field(default_factory=dict)
    raw_harmful_by_type: Dict[str, int] = field(default_factory=dict)
    filter_removed: Dict[str, int] = field(default_factory=dict)
    #: Serialized filtered races (type, verdict, location, description —
    #: plus fingerprint when evidence was collected).
    races: List[Dict[str, Any]] = field(default_factory=list)
    operations: int = 0
    accesses: int = 0
    chc_queries: int = 0
    duration_ms: float = 0.0
    #: Page dict (``repro.explain.report_json.page_evidence_dict`` shape)
    #: when evidence collection was requested; feeds ``--report-json``.
    report_page: Optional[Dict[str, Any]] = None
    #: The live page report, kept only for in-process runs (never pickled
    #: with a value by workers, which run with ``keep_page=False``).
    page_report: Optional[PageReport] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """Whether the site ran to completion."""
        return self.error is None

    def raw_counts(self) -> Dict[str, int]:
        """Unfiltered race counts per type (Table 1 view)."""
        return {t: self.raw_by_type.get(t, 0) for t in RACE_TYPES}

    def filtered_counts(self) -> Dict[str, int]:
        """Post-filter race counts per type (Table 2 view)."""
        return {t: self.filtered_by_type.get(t, 0) for t in RACE_TYPES}

    def harmful_counts(self) -> Dict[str, int]:
        """Harmful race counts per type."""
        return {t: self.harmful_by_type.get(t, 0) for t in RACE_TYPES}

    def raw_harmful_counts(self) -> Dict[str, int]:
        """Harmful counts over *raw* races (Table 1 companion)."""
        return {t: self.raw_harmful_by_type.get(t, 0) for t in RACE_TYPES}

    @classmethod
    def from_page_report(
        cls,
        index: int,
        page_report: PageReport,
        duration_ms: float = 0.0,
        keep_page: bool = False,
    ) -> "SiteResult":
        """Summarize a live :class:`PageReport` into a picklable record."""
        races = [
            {
                "type": classified.race_type,
                "harmful": classified.harmful,
                "location": str(classified.location),
                "description": classified.describe(),
            }
            for classified in page_report.classified.races
        ]
        return cls(
            index=index,
            url=page_report.url,
            raw_by_type=page_report.raw_counts(),
            filtered_by_type=page_report.filtered_counts(),
            harmful_by_type=page_report.harmful_counts(),
            raw_harmful_by_type=page_report.raw_classified.harmful_counts(),
            filter_removed=dict(page_report.filter_removed),
            races=races,
            operations=len(page_report.trace.operations),
            accesses=len(page_report.trace.accesses),
            chc_queries=page_report.page.monitor.detector.chc_queries,
            duration_ms=duration_ms,
            page_report=page_report if keep_page else None,
        )


@dataclass
class CorpusReport:
    """Aggregated results over a set of sites (the paper's evaluation).

    Holds serializable :class:`SiteResult` summaries — not live page
    graphs — so pooled and in-process runs aggregate identically.  Failed
    sites stay in ``reports`` (so the run is a complete account of the
    corpus) but contribute nothing to the table aggregations.
    """

    reports: List[SiteResult] = field(default_factory=list)

    def ok(self) -> List[SiteResult]:
        """Only the sites that ran to completion."""
        return [result for result in self.reports if result.ok]

    def failed(self) -> List[SiteResult]:
        """Sites that crashed or timed out, in site-index order."""
        return [result for result in self.reports if not result.ok]

    def table1(self) -> Dict[str, Dict[str, float]]:
        """Mean/median/max per race type, *unfiltered* (paper Table 1)."""
        rows: Dict[str, Dict[str, float]] = {}
        per_type: Dict[str, List[int]] = {race_type: [] for race_type in RACE_TYPES}
        totals: List[int] = []
        for report in self.ok():
            counts = report.raw_counts()
            for race_type in RACE_TYPES:
                per_type[race_type].append(counts[race_type])
            totals.append(sum(counts.values()))
        for race_type in RACE_TYPES:
            values = per_type[race_type] or [0]
            rows[race_type] = {
                "mean": statistics.mean(values),
                "median": statistics.median(values),
                "max": max(values),
            }
        values = totals or [0]
        rows["all"] = {
            "mean": statistics.mean(values),
            "median": statistics.median(values),
            "max": max(values),
        }
        return rows

    def table2(self) -> List[Dict[str, Any]]:
        """Per-site filtered counts with harmful in parentheses (Table 2).

        Sites with no filtered races are elided, as in the paper.
        """
        rows: List[Dict[str, Any]] = []
        for report in self.ok():
            counts = report.filtered_counts()
            harmful = report.harmful_counts()
            if sum(counts.values()) == 0:
                continue
            rows.append(
                {
                    "site": report.url,
                    **{
                        race_type: (counts[race_type], harmful[race_type])
                        for race_type in RACE_TYPES
                    },
                }
            )
        return rows

    def table2_totals(self) -> Dict[str, Any]:
        """Filtered + harmful totals per type across the corpus."""
        totals = {race_type: [0, 0] for race_type in RACE_TYPES}
        for report in self.ok():
            counts = report.filtered_counts()
            harmful = report.harmful_counts()
            for race_type in RACE_TYPES:
                totals[race_type][0] += counts[race_type]
                totals[race_type][1] += harmful[race_type]
        return {race_type: tuple(val) for race_type, val in totals.items()}

    def sites_with_filtered_races(self) -> int:
        """How many sites report at least one filtered race."""
        return len(self.table2())

    def filters_removed_totals(self) -> Dict[str, int]:
        """Corpus-wide suppression tally per Section 5.3 filter."""
        totals: Dict[str, int] = {}
        for report in self.ok():
            for name, count in report.filter_removed.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def raw_harmful_totals(self) -> Dict[str, int]:
        """Per-type harmful counts over *raw* races (Table 1 companion)."""
        totals = {race_type: 0 for race_type in RACE_TYPES}
        for report in self.ok():
            for race_type, count in report.raw_harmful_counts().items():
                totals[race_type] += count
        return totals


class WebRacer:
    """The dynamic race detector, configured once and reused across pages.

    ``WebRacer(config)`` and ``WebRacer(**fields)`` are the same thing:
    keywords are :class:`~repro.config.RunConfig` fields.
    """

    def __init__(self, config: Optional[RunConfig] = None, obs=None, **fields):
        self.config = run_config(config, **fields)
        #: Pages checked so far — the default page index when a caller
        #: does not pass one explicitly (corpus runs pass the site index).
        self._pages_checked = 0
        #: Observability sink threaded through Browser → Monitor →
        #: detector/filters; the default null sink records nothing.
        self.obs = obs if obs is not None else NULL

    # ------------------------------------------------------------------

    def scheduler_for_page(self, page_index: int) -> Scheduler:
        """The scheduler instance used for page number ``page_index``.

        ``"random"`` derives its RNG seed from ``(schedule_seed or seed,
        page_index)``, so every page's interleaving is a function of its
        index alone — never of how many tasks earlier pages ran.
        """
        config = self.config
        if config.scheduler != "random":
            return make_scheduler(config.scheduler)
        base = config.seed if config.schedule_seed is None else config.schedule_seed
        return SeededRandomScheduler(derive_page_seed(base, page_index))

    def run_page(
        self,
        html: str,
        url: str,
        seed: int,
        scheduler: Scheduler,
        tie_window: Optional[float] = None,
        resources: Optional[Dict[str, str]] = None,
        latencies: Optional[Dict[str, float]] = None,
        sizes: Optional[Dict[str, float]] = None,
    ) -> Page:
        """Load ``html`` in a Browser built from this config and run it.

        The one place a run builds its Browser: :meth:`check_page` and
        every explore/predict run
        (:func:`repro.schedule_runner.run_page_once`) come through here.
        The run only records; races are detected when first read.
        """
        config = self.config
        browser = Browser(
            seed=seed,
            scheduler=scheduler,
            resources=resources,
            latencies=latencies,
            sizes=sizes,
            tie_window=tie_window,
            network=config.network,
            bandwidth=config.bandwidth,
            rtt=config.rtt,
            connections_per_origin=config.connections_per_origin,
            obs=self.obs,
        )
        page = browser.open(html, url=url)
        page.auto_explore = config.explore
        page.eager_explore = config.eager
        page.run(max_ms=config.max_run_ms)
        return page

    def check_page(
        self,
        html: str,
        resources: Optional[Dict[str, str]] = None,
        latencies: Optional[Dict[str, float]] = None,
        url: str = "page.html",
        seed: Optional[int] = None,
        page_index: Optional[int] = None,
        sizes: Optional[Dict[str, float]] = None,
    ) -> PageReport:
        """Load ``html``, explore, detect, filter, classify.

        ``page_index`` pins the page's position-independent identity for
        per-page schedule derivation; when omitted, pages are numbered in
        call order on this detector instance.  ``sizes`` pins on-the-wire
        resource sizes for the connection network model (HAR workloads).
        """
        if page_index is None:
            page_index = self._pages_checked
            self._pages_checked += 1
        with self.obs.span("check_page", cat="pipeline", url=url):
            page = self.run_page(
                html,
                url,
                self.config.seed if seed is None else seed,
                self.scheduler_for_page(page_index),
                resources=resources,
                latencies=latencies,
                sizes=sizes,
            )
            return self.report_for(page, url)

    def report_for(self, page: Page, url: str = "page.html") -> PageReport:
        """Build a :class:`PageReport` from an already-run page: detect
        races over its recorded rows (:attr:`Page.races`), then filter and
        classify them."""
        raw_races = list(page.races)
        filter_removed: Dict[str, int] = {}
        if self.config.apply_filters:
            chain = FilterChain(obs=self.obs)
            filtered = chain.apply(raw_races, page.trace)
            filter_removed = chain.removed_counts()
        else:
            filtered = list(raw_races)
        with self.obs.span("classify", cat="pipeline", races=len(raw_races)):
            classified = build_report(filtered, page.trace)
            raw_classified = build_report(raw_races, page.trace)
        if self.obs.enabled:
            self.obs.count("races.raw", len(raw_races))
            self.obs.count("races.filtered", len(filtered))
            self.obs.count("races.harmful", len(classified.harmful()))
        return PageReport(
            url=url,
            page=page,
            raw_races=raw_races,
            filtered_races=filtered,
            classified=classified,
            raw_classified=raw_classified,
            filter_removed=filter_removed,
        )

    def check_site(
        self, site, seed: Optional[int] = None, page_index: Optional[int] = None
    ) -> PageReport:
        """Check a generated :class:`repro.sites.Site`."""
        return self.check_page(
            site.html,
            resources=site.resources,
            latencies=site.latencies,
            url=site.name,
            seed=seed,
            page_index=page_index,
        )

    def run_site_guarded(
        self,
        site: Union[Any, Callable[[], Any]],
        index: int,
        site_seed: int,
        timeout: Optional[float] = None,
        collect_evidence: bool = False,
        keep_page: bool = False,
    ) -> SiteResult:
        """Run one corpus site with crash isolation and an optional timeout.

        ``site`` is either a built :class:`repro.sites.Site` or a zero-arg
        callable producing one (the CLI passes builders, so building a site
        counts against the same per-site deadline as running it).  Any
        exception — including the site build — becomes an error
        :class:`SiteResult` instead of propagating, so one wedged or
        crashing site never takes down a corpus run.
        """
        started = time.perf_counter()
        url = f"site[{index}]"
        try:
            with site_deadline(timeout):
                built = site() if callable(site) else site
                url = built.name
                with self.obs.scope(built.name):
                    page_report = self.check_site(
                        built, seed=site_seed, page_index=index
                    )
                    report_page = (
                        self._site_evidence_dict(url, page_report)
                        if collect_evidence
                        else None
                    )
        except SiteTimeoutError:
            return SiteResult(
                index=index,
                url=url,
                error=f"timeout: exceeded per-site limit of {timeout:g}s",
                duration_ms=(time.perf_counter() - started) * 1000.0,
            )
        except Exception as exc:  # crash isolation: record, don't propagate
            return SiteResult(
                index=index,
                url=url,
                error=crash_line(exc),
                duration_ms=(time.perf_counter() - started) * 1000.0,
            )
        result = SiteResult.from_page_report(
            index,
            page_report,
            duration_ms=(time.perf_counter() - started) * 1000.0,
            keep_page=keep_page,
        )
        if not keep_page:
            page_report.page.close()
        result.report_page = report_page
        if report_page is not None:
            for race, evidence in zip(result.races, report_page["evidence"]):
                race["fingerprint"] = evidence["fingerprint"]
        return result

    def _site_evidence_dict(self, url: str, page_report: PageReport) -> Dict[str, Any]:
        """Serialized per-page evidence block for ``--report-json``."""
        from .explain.evidence import attach_evidence
        from .explain.report_json import page_evidence_dict

        records = attach_evidence(
            page_report.classified,
            page_report.trace,
            page_report.page.monitor.graph,
            obs=self.obs,
        )
        return page_evidence_dict(url, page_report, records)

    def check_corpus(
        self,
        sites,
        jobs: int = 1,
        timeout: Optional[float] = None,
        collect_evidence: bool = False,
        keep_pages: bool = True,
    ) -> CorpusReport:
        """Run WebRacer over a corpus, in-process or over ``jobs`` workers.

        ``sites`` are built :class:`repro.sites.Site` objects or zero-arg
        builders (:func:`repro.sites.corpus_builders`).  Every site runs
        under :meth:`run_site_guarded`, in its own instrumentation scope,
        with seed ``config.seed + index * 101``: a site that raises or
        overruns ``timeout``, building or running, yields an error
        :class:`SiteResult` and the run continues.  Results come back in
        site order and do not depend on ``jobs``
        (:func:`repro.pool.fan_out`); ``keep_pages`` keeps the live page
        reports only when ``jobs`` is 1.
        """
        keep_page = keep_pages and jobs == 1
        results = fan_out(
            functools.partial(
                _check_site, self.config, timeout, collect_evidence, keep_page
            ),
            list(enumerate(sites)),
            jobs=jobs,
            obs=self.obs,
            lane=lambda result: result.url,
            failed=lambda item, message: SiteResult(
                index=item[0], url=f"site[{item[0]}]", error=message
            ),
        )
        return CorpusReport(reports=results)


def _check_site(
    config: RunConfig,
    timeout: Optional[float],
    collect_evidence: bool,
    keep_page: bool,
    item,
    obs=None,
) -> SiteResult:
    """Fan-out task: run corpus site ``item = (index, site)`` guarded."""
    index, site = item
    return WebRacer(config, obs=obs).run_site_guarded(
        site,
        index,
        config.seed + index * 101,
        timeout=timeout,
        collect_evidence=collect_evidence,
        keep_page=keep_page,
    )
