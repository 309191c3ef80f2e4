"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``check PAGE.html [--resource url=path]... [--seed N] [--json out.json]``
    Run WebRacer on a local HTML file and print the classified report.
    ``--resource`` maps a URL referenced by the page (script src, iframe
    src, image, XHR endpoint) to a local file.  ``--json`` additionally
    dumps the full execution trace for offline analysis.

``corpus [--sites N] [--seed N] [--jobs N] [--site-timeout S] [--json out.json]``
    Build the synthetic Fortune-100 corpus and print Table 1 / Table 2.
    ``--json`` additionally writes the tables as machine-readable JSON.
    ``--jobs N`` runs the sites over N worker processes (0 = one per
    usable CPU); results merge in site-index order, so the output is
    byte-identical to ``--jobs 1``.  In both modes each site is built
    inside its own guard: a site that crashes or exceeds
    ``--site-timeout`` seconds, building or running, records a site error
    (listed in the output and the ``--json`` payload) and the run
    continues.  All output paths are validated before any site runs.

``explore PATH [--schedules N] [--seed N] [--jobs N] [--json out.json]``
    Multi-schedule race exploration: run every page under ``PATH`` (an
    HTML file or a directory of pages) under FIFO + adversarial + N−2
    seeded-random schedules, record each schedule as a replayable trace,
    verify replays, and merge races by fingerprint into a union report
    marking each race *stable* or *schedule-sensitive*.
    ``--traces-dir DIR`` saves the recorded schedule traces;
    ``--minimize FP`` ddmin-minimizes a witnessed fingerprint's schedule
    down to the fewest divergences from FIFO that still reproduce it.

``predict PATH [--resource url=path]... [--budget N] [--minimize] [--json out.json]``
    Single-trace race prediction: record one FIFO execution per page
    under ``PATH`` (an HTML file or a directory of pages), sweep the
    trace with the schedulable-happens-before analysis
    (:mod:`repro.core.hb.shb`), and cross-validate every predicted race
    against the explore machinery — witness schedules run until a
    recorded, replay-verified reordering exhibits the predicted
    fingerprint.  Confirmed predictions report ``predicted+confirmed``
    (with the witness schedule, and a ddmin-minimized divergence set
    under ``--minimize``); the rest stay ``predicted-only``.

``analyze TRACE.json [--no-filters] [--predict]``
    Re-run detection, filtering and classification on a captured trace.
    With ``--predict`` the SHB prediction sweep runs over the trace too
    and predicted races print after the report (no replay confirmation —
    use ``predict`` for that).

``explain TRACE.json [--race N] [--no-filters]``
    Load a captured trace (written by ``check --json``) and print the full
    HB evidence for one race (``--race N``, report order) or for all races:
    classification + harmfulness reason, stable fingerprint, the nearest
    common happens-before ancestor, and the rule-labeled edge chain
    ordering each side under it.

``history --ledger DIR [--command CMD] [--last N] [--json F] [--html F]``
    List the runs recorded in a ledger (see ``--ledger`` below) and the
    lifecycle of every race fingerprint across them (new / persisting /
    flaky / resolved).  ``--json`` writes the schema-validated history
    document; ``--html`` writes a self-contained trend report with
    per-phase duration sparklines.

``diff RUN_A RUN_B --ledger DIR`` / ``diff --against last --ledger DIR``
    Diff two ledgered runs: race fingerprints that are new or resolved in
    the later run, plus per-phase wall-clock deltas.  ``--against last``
    compares the most recent run against the latest earlier run with the
    same command and config digest.  ``--fail-on-regression PCT`` exits
    nonzero when any phase slowed down by more than PCT percent.

``check``, ``corpus``, ``explore`` and ``predict`` all accept
``--ledger DIR``: append one schema-validated run record (command, config
digest, per-phase durations, counters, race fingerprints with verdicts)
to ``DIR/ledger.jsonl`` — the persistent cross-run store ``history`` and
``diff`` read.  Without the flag nothing is recorded and the null-sink
zero-overhead guarantee holds unchanged.

``check`` and ``corpus`` also accept the profiling flags:

``--profile``
    Print a per-phase timing and counter table after the report.
``--trace-out FILE``
    Write a Chrome trace-event file (open in chrome://tracing / Perfetto).
``--stats-json FILE``
    Write phase timings, counters and race totals as JSON (per-site for
    ``corpus`` runs).

and the race-report flags:

``--report-json FILE``
    Write a schema-validated race report with full HB evidence per race
    (see ``repro.explain.schema.REPORT_SCHEMA``).
``--report-html FILE``
    Write a self-contained single-file HTML report (no external assets)
    with per-race evidence views and operation-lane timelines; corpus runs
    aggregate per-site with a cross-site fingerprint-cluster table.

Profiling and report generation never change detection results: both only
observe structures the run already produced, so a flagged run reports
byte-identical races.

Exit status: 0 when the run is clean, 1 when ``check``, ``analyze`` or
``explain`` found a harmful race or ``diff --fail-on-regression`` a
regression, 2 for an error.  Every unusable input — a flag value, a file
to read, a path to write — raises :class:`~repro.inputs.InputError`;
:func:`main` catches it once and prints one ``error: <message>`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, Iterable, List, Optional

from . import WebRacer
from .browser.scheduler import SCHEDULER_POLICIES
from .config import RunConfig
from .core.render import render_crashes, render_race_report, render_table1, render_table2
from .core.report import RACE_TYPES
from .core.serialize import dump_trace, load_trace
from .inputs import InputError, read_text
from .obs import Instrumentation, render_profile, stats_dict, write_chrome_trace
from .obs.ledger import RUN_COMMANDS, Ledger, build_run_record
from .schedule_runner import load_page_inputs

#: Every flag naming an output file, validated up front so a bad path
#: fails before — not after — an expensive run.
OUTPUT_PATH_FLAGS = (
    "json",
    "stats_json",
    "trace_out",
    "report_json",
    "report_html",
    "html",
)


def _fail(message: str) -> int:
    """Print a one-line error to stderr; returns the exit status (2)."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _check_output_path(path: str) -> None:
    """Raise :class:`InputError` unless ``path`` looks writable."""
    if os.path.isdir(path):
        raise InputError(f"output path {path!r} is a directory")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise InputError(f"output directory {directory!r} does not exist")
    if not os.access(directory, os.W_OK):
        raise InputError(f"output directory {directory!r} is not writable")
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise InputError(f"output file {path!r} is not writable")


#: Count flags: ``(dest, strict, bound)`` reads "must be > bound" when
#: strict, else "must be >= bound".  Unset (``None``) flags are skipped.
COUNT_FLAGS = (
    ("sites", False, 0),
    ("jobs", False, 0),
    ("schedules", False, 1),
    ("budget", False, 1),
    ("last", False, 1),
    ("site_timeout", True, 0),
    ("fail_on_regression", True, 0),
)


def _check_flags(args) -> None:
    """Raise :class:`InputError` on the first bad output path or count flag."""
    for flag in OUTPUT_PATH_FLAGS:
        path = getattr(args, flag, None)
        if path:
            _check_output_path(path)
    for dest, strict, bound in COUNT_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and (value <= bound if strict else value < bound):
            flag = "--" + dest.replace("_", "-")
            raise InputError(
                f"{flag} must be {'>' if strict else '>='} {bound}, got {value}"
            )


def _ensure_directory(flag: str, path: str) -> None:
    """Create the directory ``flag`` writes into; raise
    :class:`InputError` when it cannot be created or written."""
    if os.path.isfile(path):
        raise InputError(f"{flag} {path!r} is a file")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InputError(
            f"cannot create {flag} {path!r}: {exc.strerror or exc}"
        ) from None
    if not os.access(path, os.W_OK):
        raise InputError(f"{flag} {path!r} is not writable")


def _preflight(args) -> RunConfig:
    """Everything a run command can check before it runs; its config.

    Output paths, the run config, count flags, then the directories the
    run writes into — so a bad flag exits 2 before any work, and never
    after a directory was created.
    """
    _check_flags(args)
    config = RunConfig.from_args(args)
    for flag, path in (
        ("--traces-dir", getattr(args, "traces_dir", None)),
        ("--ledger", args.ledger),
    ):
        if path:
            _ensure_directory(flag, path)
    return config


def _write(path: str, what: Optional[str], writer) -> None:
    """Run ``writer()``, then print ``<what> written to <path>`` (unless
    ``what`` is ``None``).  An ``OSError`` raises :class:`InputError`."""
    try:
        writer()
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc.strerror or exc}") from None
    if what is not None:
        print(f"{what} written to {path}")


def _parse_resources(mappings) -> Dict[str, str]:
    """Parse ``--resource URL=PATH`` flags into a ``{url: content}`` map."""
    resources = {}
    for mapping in mappings or ():
        url, _sep, path = mapping.partition("=")
        if not path:
            raise InputError(f"bad --resource {mapping!r}; expected url=path")
        resources[url] = read_text(path, "--resource")
    return resources


def _print_report(report) -> int:
    print(report.summary())
    print(render_race_report(report.classified))
    if report.trace.crashes:
        print(render_crashes(report.trace.crashes))
    return 1 if report.classified.harmful() else 0


def _make_obs(args) -> Optional[Instrumentation]:
    """A live Instrumentation when any profiling flag asks for one.

    ``--ledger`` counts: the run record snapshots per-phase spans and
    counters, so a ledgered run needs a live collector.  Without any of
    these flags the pipeline keeps the NULL sink (zero overhead).
    """
    if (
        args.profile
        or args.trace_out
        or args.stats_json
        or getattr(args, "ledger", None)
    ):
        return Instrumentation()
    return None


def _append_ledger(args, command, config, races, totals, obs, started) -> None:
    """Append exactly one run record when ``--ledger`` is set.

    Called once per CLI invocation, in the parent process — pooled
    (``--jobs``) runs still yield a single record because workers never
    see the ledger arguments.
    """
    if not getattr(args, "ledger", None):
        return
    record = build_run_record(
        command,
        config,
        races,
        totals,
        obs=obs,
        duration_ms=(time.perf_counter() - started) * 1000.0,
    )
    try:
        ledger = Ledger(args.ledger)
        ledger.append(record)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot append to ledger {args.ledger!r}: {exc}") from None
    print(f"run {record['run_id']} appended to {ledger.path}")


def _ledger_races(found: Iterable[tuple]) -> List[dict]:
    """Ledger race entries from ``(page, fingerprint, verdict, info)``
    tuples, where ``info`` maps ``race_type``, ``harmful``, ``location``
    and ``description``.  The first entry per page and fingerprint wins."""
    entries = {}
    for page, fingerprint, verdict, info in found:
        entries.setdefault(
            (page, fingerprint),
            {
                "fingerprint": fingerprint,
                "verdict": verdict,
                "race_type": info["race_type"],
                "harmful": bool(info["harmful"]),
                "location": info["location"],
                "description": info["description"],
                "page": page,
            },
        )
    return list(entries.values())


def _emit_document(args, document) -> None:
    """Write a built report document to the requested report outputs."""
    from .explain import write_html_report, write_report_json

    if args.report_json:
        _write(
            args.report_json,
            "race report (JSON)",
            lambda: write_report_json(document, args.report_json),
        )
    if args.report_html:
        _write(
            args.report_html,
            "race report (HTML)",
            lambda: write_html_report(document, args.report_html),
        )


def _emit_reports(args, page_reports, obs, mode: str) -> None:
    """Write --report-json / --report-html outputs when requested.

    ``page_reports`` is a list of ``(url, PageReport)`` pairs.  Evidence is
    built from the run's existing trace + HB store, strictly after
    detection, so flagged runs report byte-identical races.
    """
    if not (args.report_json or args.report_html):
        return
    from .explain import build_report_document

    document = build_report_document(page_reports, mode=mode, obs=obs)
    _emit_document(args, document)


def _emit_corpus_reports(args, corpus_report) -> None:
    """Corpus report outputs, assembled from serialized site summaries.

    Every successful site carries a serialized evidence block
    (``SiteResult.report_page``), in-process or from a worker alike, so
    ``--jobs 1`` and ``--jobs N`` report files are byte-identical.
    Failed sites carry no evidence and are simply absent from the
    document's pages.
    """
    if not (args.report_json or args.report_html):
        return
    from .explain import assemble_report_document

    pages = [
        result.report_page
        for result in corpus_report.reports
        if result.report_page is not None
    ]
    document = assemble_report_document(pages, mode="corpus")
    _emit_document(args, document)


def _emit_profile(args, obs: Optional[Instrumentation], extra=None) -> None:
    """Print/write whatever profiling outputs the flags requested."""
    if obs is None:
        return
    if args.profile:
        print()
        print(render_profile(obs))
    if args.trace_out:
        _write(
            args.trace_out,
            "chrome trace",
            lambda: write_chrome_trace(obs, args.trace_out),
        )
    if args.stats_json:

        def _write_stats():
            with open(args.stats_json, "w") as handle:
                json.dump(stats_dict(obs, extra=extra), handle, indent=2)

        _write(args.stats_json, "stats", _write_stats)


def cmd_check(args) -> int:
    """Run WebRacer on a local HTML file (the `check` subcommand)."""
    config = _preflight(args)
    started = time.perf_counter()
    if os.path.isdir(args.page):
        raise InputError(f"check takes one page; {args.page!r} is a directory")
    (page,) = load_page_inputs(args.page, _parse_resources(args.resource))
    obs = _make_obs(args)
    report = WebRacer(config, obs=obs).check_page(
        page.html, resources=page.resources, url=page.url, sizes=page.sizes or None
    )
    status = _print_report(report)
    if args.json:
        _write(
            args.json,
            "trace",
            lambda: dump_trace(report.trace, report.page.monitor.graph, args.json),
        )
    _emit_reports(args, [(args.page, report)], obs, mode="check")
    _emit_profile(
        args,
        obs,
        extra={
            "page": args.page,
            "races": {
                "raw": len(report.raw_races),
                "filtered": len(report.filtered_races),
                "harmful": len(report.classified.harmful()),
            },
        },
    )
    _append_ledger(
        args,
        "check",
        config={"page": args.page, **config.ledger_fields()},
        races=_ledger_races(
            (args.page, fingerprint, "observed", info)
            for fingerprint, info in report.races_by_fingerprint().items()
        ),
        totals={
            "races_raw": len(report.raw_races),
            "races_filtered": len(report.filtered_races),
            "races_harmful": len(report.classified.harmful()),
        },
        obs=obs,
        started=started,
    )
    return status


def _corpus_tables_dict(corpus_report, full_run: bool):
    """Table 1 / Table 2 / totals as a machine-readable dict."""
    from .sites import PAPER_TABLE1, PAPER_TABLE2_TOTALS

    payload = {
        "sites_checked": len(corpus_report.reports),
        "full_run": full_run,
        "table1": corpus_report.table1(),
        "table2": [
            {
                "site": row["site"],
                **{
                    race_type: {"count": row[race_type][0], "harmful": row[race_type][1]}
                    for race_type in RACE_TYPES
                },
            }
            for row in corpus_report.table2()
        ],
        "table2_totals": {
            race_type: {"count": count, "harmful": harmful}
            for race_type, (count, harmful) in corpus_report.table2_totals().items()
        },
        # Per-type harmful counts for the *unfiltered* view, so the
        # machine-readable Table 1 carries the harmfulness information the
        # text report shows for Table 2.
        "table1_harmful": corpus_report.raw_harmful_totals(),
        "harmful_by_type": {
            race_type: harmful
            for race_type, (_count, harmful)
            in corpus_report.table2_totals().items()
        },
        # How many races each Section 5.3 filter suppressed, corpus-wide.
        "filters_removed": corpus_report.filters_removed_totals(),
        "sites_with_races": corpus_report.sites_with_filtered_races(),
        # Crash/timeout isolation: failed sites stay in the payload so a
        # partially failing run is still a complete account of the corpus.
        "sites_failed": len(corpus_report.failed()),
        "site_errors": [
            {"index": result.index, "site": result.url, "error": result.error}
            for result in corpus_report.failed()
        ],
    }
    if full_run:
        payload["paper"] = {
            "table1": PAPER_TABLE1,
            "table2_totals": {
                race_type: {"count": count, "harmful": harmful}
                for race_type, (count, harmful) in PAPER_TABLE2_TOTALS.items()
            },
            "sites_with_races": 41,
        }
    return payload


def _per_site_stats(corpus_report) -> List[dict]:
    """Per-site race totals for the corpus ``--stats-json`` payload."""
    stats = []
    for result in corpus_report.reports:
        entry = {
            "site": result.url,
            "races": {
                "raw": sum(result.raw_counts().values()),
                "filtered": sum(result.filtered_counts().values()),
                "harmful": sum(result.harmful_counts().values()),
            },
            "operations": result.operations,
            "accesses": result.accesses,
            "chc_queries": result.chc_queries,
            "duration_ms": result.duration_ms,
        }
        if result.error is not None:
            entry["error"] = result.error
        stats.append(entry)
    return stats


def cmd_corpus(args) -> int:
    """Run the Fortune-100 evaluation (the `corpus` subcommand)."""
    from .sites import PAPER_TABLE1, PAPER_TABLE2_TOTALS, corpus_builders

    config = _preflight(args)
    started = time.perf_counter()
    # The ledger needs fingerprints on the serialized site races, and
    # those only exist when evidence is collected.
    collect_evidence = bool(args.report_json or args.report_html or args.ledger)
    obs = _make_obs(args)
    corpus_report = WebRacer(config, obs=obs).check_corpus(
        corpus_builders(master_seed=config.seed, limit=args.sites),
        jobs=args.jobs,
        timeout=args.site_timeout,
        collect_evidence=collect_evidence,
        keep_pages=False,
    )

    # Paper comparisons only make sense against the full 100-site corpus.
    # Gate on the number of sites actually built: ``--sites 150`` clamps
    # to the full corpus (compare away), a smaller build never compares.
    full_run = len(corpus_report.reports) >= 100
    print("Table 1 — unfiltered (reproduced vs. paper):")
    print(render_table1(corpus_report.table1(), paper=PAPER_TABLE1))
    print()
    print("Table 2 — filtered races (harmful in parentheses):")
    print(
        render_table2(
            corpus_report.table2(),
            totals=corpus_report.table2_totals(),
            paper_totals=PAPER_TABLE2_TOTALS if full_run else None,
        )
    )
    line = f"sites with races: {corpus_report.sites_with_filtered_races()}"
    if full_run:
        line += " (paper 41)"
    print(line)
    failed = corpus_report.failed()
    if failed:
        print(f"site errors: {len(failed)} of {len(corpus_report.reports)} sites")
        for result in failed:
            print(f"  [{result.index}] {result.url}: {result.error}")
    if args.json:

        def _write_tables():
            payload = _corpus_tables_dict(corpus_report, full_run)
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2)

        _write(args.json, "tables", _write_tables)
    _emit_corpus_reports(args, corpus_report)
    _emit_profile(args, obs, extra={"sites": _per_site_stats(corpus_report)})
    _append_ledger(
        args,
        "corpus",
        # --jobs is an execution strategy, not a semantic input: pooled
        # and in-process runs are byte-identical by design, so they share
        # a config digest and diff against each other.
        config={"sites": args.sites, **config.ledger_fields()},
        races=_ledger_races(
            (result.url, race["fingerprint"], "observed",
             dict(race, race_type=race["type"]))
            for result in corpus_report.reports
            for race in result.races
            if "fingerprint" in race
        ),
        totals={
            "sites_checked": len(corpus_report.reports),
            "sites_failed": len(corpus_report.failed()),
            "sites_with_races": corpus_report.sites_with_filtered_races(),
            "races_filtered": sum(
                count
                for count, _harmful in corpus_report.table2_totals().values()
            ),
            "races_harmful": sum(
                harmful
                for _count, harmful in corpus_report.table2_totals().values()
            ),
        },
        obs=obs,
        started=started,
    )
    return 0


def cmd_explore(args) -> int:
    """Multi-schedule race exploration (the `explore` subcommand)."""
    from .explain.schedule_report import (
        assemble_explore_document,
        render_explore_text,
        write_explore_json,
    )
    from .schedule_runner import ScheduleTrace, explore_pages, minimize_schedule

    config = _preflight(args)
    started = time.perf_counter()
    pages = load_page_inputs(args.path)
    obs = _make_obs(args)
    report = explore_pages(
        pages, schedules=args.schedules, jobs=args.jobs, config=config, obs=obs
    )
    minimizations = []
    if args.minimize is not None:
        # An empty prefix names no race in particular; reject it up front.
        if not args.minimize:
            return _fail("--minimize requires a non-empty fingerprint")
        page_exploration, run, fingerprint = report.find_witness(args.minimize)
        page = next(p for p in pages if p.url == page_exploration.url)
        try:
            minimizations.append(
                minimize_schedule(page, run.trace(), fingerprint, config, obs=obs)
            )
        except ValueError as exc:
            return _fail(str(exc))
    document = assemble_explore_document(report, minimizations=minimizations)
    print(render_explore_text(document))
    if args.json:
        _write(
            args.json,
            "explore report",
            lambda: write_explore_json(document, args.json),
        )
    if args.traces_dir:
        saved = 0
        for page_exploration in report.pages:
            stem = os.path.splitext(os.path.basename(page_exploration.url))[0]
            for run in page_exploration.runs:
                if run.trace_dict is None:
                    continue
                trace_path = os.path.join(
                    args.traces_dir, f"{stem}.{run.sid}.trace.json"
                )
                trace = ScheduleTrace.from_dict(run.trace_dict)
                _write(trace_path, None, lambda: trace.save(trace_path))
                saved += 1
        for entry in minimizations:
            stem = os.path.splitext(os.path.basename(entry.page))[0]
            trace_path = os.path.join(
                args.traces_dir,
                f"{stem}.minimized.{entry.fingerprint}.trace.json",
            )
            _write(trace_path, None, lambda: entry.minimized.save(trace_path))
            saved += 1
        print(f"{saved} schedule trace(s) written to {args.traces_dir}")
    _emit_profile(args, obs, extra={"totals": document["totals"]})
    _append_ledger(
        args,
        "explore",
        config={
            "path": args.path,
            "schedules": args.schedules,
            **config.ledger_fields(scheduler=False),
        },
        races=_ledger_races(
            (page["url"], race["fingerprint"],
             "stable" if race["stable"] else "schedule-sensitive", race)
            for page in document["pages"]
            for race in page["races"]
        ),
        totals=document["totals"],
        obs=obs,
        started=started,
    )
    return 0


def cmd_predict(args) -> int:
    """Single-trace race prediction (the `predict` subcommand)."""
    from .explain.schedule_report import (
        assemble_predict_document,
        render_predict_text,
        write_predict_json,
    )
    from .predict import predict_pages

    config = _preflight(args)
    started = time.perf_counter()
    pages = load_page_inputs(args.path, _parse_resources(args.resource))
    obs = _make_obs(args)
    reports = predict_pages(
        pages, budget=args.budget, minimize=args.minimize, config=config, obs=obs
    )
    document = assemble_predict_document(
        reports, with_evidence=not args.no_evidence
    )
    print(render_predict_text(document))
    if args.json:
        _write(
            args.json,
            "predict report",
            lambda: write_predict_json(document, args.json),
        )
    _emit_profile(args, obs, extra={"totals": document["totals"]})
    failed = [report for report in reports if not report.ok]
    if failed:
        return _fail(
            f"{len(failed)} of {len(reports)} page(s) failed: "
            f"{failed[0].page}: {failed[0].error}"
        )

    def found():
        for page in document["pages"]:
            if page["error"] is not None:
                continue
            for fingerprint, info in sorted(page["observed"]["races"].items()):
                yield page["url"], fingerprint, "observed", info
            for prediction in page["predictions"]:
                yield (page["url"], prediction["fingerprint"],
                       prediction["outcome"], prediction)

    _append_ledger(
        args,
        "predict",
        config={
            "path": args.path,
            "budget": args.budget,
            "minimize": bool(args.minimize),
            **config.ledger_fields(scheduler=False),
        },
        races=_ledger_races(found()),
        totals=document["totals"],
        obs=obs,
        started=started,
    )
    return 0


def cmd_analyze(args) -> int:
    """Analyse a captured trace file (the `analyze` subcommand)."""
    loaded = load_trace(args.trace)
    report = loaded.report(apply_filters=not args.no_filters)
    print(f"{args.trace}: {len(loaded.trace.accesses)} accesses, "
          f"{len(loaded.trace.operations)} operations")
    print(render_race_report(report, title=report.summary()))
    if args.predict:
        analysis = loaded.predict()
        print(f"\n{analysis.summary()}")
        if analysis.predictions:
            print(
                f"\npredicted races (SHB; not reported in this schedule): "
                f"{len(analysis.predictions)}"
            )
            for prediction in analysis.predictions:
                print(f"  {prediction.describe()}")
    return 1 if report.harmful() else 0


def cmd_explain(args) -> int:
    """Print HB evidence for races in a captured trace (`explain`)."""
    from .explain import render_all_evidence, render_evidence

    loaded = load_trace(args.trace)
    report, records = loaded.explain(apply_filters=not args.no_filters)
    print(
        f"{args.trace}: {len(loaded.trace.accesses)} accesses, "
        f"{len(loaded.trace.operations)} operations, "
        f"{report.total()} races"
    )
    if args.race is not None:
        if not 0 <= args.race < len(records):
            return _fail(f"no race #{args.race}; trace has {len(records)} race(s)")
        print(render_evidence(records[args.race], args.race))
    else:
        print(render_all_evidence(records))
    return 1 if report.harmful() else 0


def cmd_history(args) -> int:
    """List the run ledger and fingerprint lifecycle (`history`)."""
    from .explain import (
        assemble_history_document,
        render_history_json,
        render_history_text,
        write_trend_html,
    )

    _check_flags(args)
    ledger = Ledger(args.ledger)
    document = assemble_history_document(
        ledger.records(),
        ledger.path,
        command=args.filter_command,
        limit=args.last,
    )
    print(render_history_text(document))
    if args.json:

        def _write_json():
            with open(args.json, "w") as handle:
                handle.write(render_history_json(document))

        _write(args.json, "history report", _write_json)
    if args.html:
        _write(
            args.html,
            "trend report (HTML)",
            lambda: write_trend_html(document, args.html),
        )
    return 0


def cmd_diff(args) -> int:
    """Diff two ledgered runs: races and per-phase perf (`diff`)."""
    from .obs.regress import diff_records, perf_regressions, render_diff_text

    _check_flags(args)
    if args.against is not None and args.runs:
        return _fail("give either RUN_A RUN_B or --against, not both")
    if args.against is None and len(args.runs) != 2:
        return _fail("diff needs two run references (or --against last)")
    ledger = Ledger(args.ledger)
    if args.against is not None:
        record_b = ledger.find("-1")
        if args.against == "last":
            record_a = ledger.baseline_for(record_b)
            if record_a is None:
                return _fail(
                    f"no earlier {record_b['command']!r} run with config "
                    f"digest {record_b['config_digest']} to diff against"
                )
        else:
            record_a = ledger.find(args.against)
    else:
        record_a = ledger.find(args.runs[0])
        record_b = ledger.find(args.runs[1])
    diff = diff_records(record_a, record_b)
    regressions = (
        perf_regressions(diff, args.fail_on_regression)
        if args.fail_on_regression is not None
        else []
    )
    print(render_diff_text(diff, regressions))
    if args.json:

        def _write_json():
            with open(args.json, "w") as handle:
                json.dump(diff.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")

        _write(args.json, "diff", _write_json)
    if regressions:
        return 1
    return 0


def _add_run_config(
    parser: argparse.ArgumentParser, scheduler: bool = True
) -> None:
    """The :class:`~repro.config.RunConfig` flags, defaults read from it.

    ``explore`` and ``predict`` choose their own schedules, so they take
    no scheduler flags.  Tuning flags default to unset, so
    ``RunConfig.from_args`` can reject them outside the connection model.
    """
    from .browser.network import NETWORK_MODELS

    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    parser.add_argument("--network", choices=NETWORK_MODELS,
                        default=RunConfig.network,
                        help="network model: uniform (one seeded latency "
                             "per resource) or connection (per-origin "
                             "connection pools, slow-start ramp, shared "
                             "bandwidth)")
    parser.add_argument("--bandwidth", type=float, metavar="KBPS",
                        help="shared downlink in kilobytes/second (default "
                             f"{RunConfig.bandwidth:g}; requires --network "
                             "connection)")
    parser.add_argument("--rtt", type=float, metavar="MS",
                        help="round-trip time in virtual ms (default "
                             f"{RunConfig.rtt:g}; requires --network "
                             "connection)")
    parser.add_argument("--connections-per-origin", type=int, metavar="N",
                        help="parallel connections per origin (default "
                             f"{RunConfig.connections_per_origin}; requires "
                             "--network connection)")
    if scheduler:
        parser.add_argument("--scheduler", choices=SCHEDULER_POLICIES,
                            default=RunConfig.scheduler,
                            help="event-loop task scheduling policy")
        parser.add_argument("--schedule-seed", type=int, metavar="N",
                            help="seed for --scheduler random; per-page "
                                 "seeds derive position-independently "
                                 "from it")


def _add_profiling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", action="store_true",
                        help="print a per-phase timing and counter table")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write a Chrome trace-event file (chrome://tracing)")
    parser.add_argument("--stats-json", metavar="FILE",
                        help="write phase timings and counters as JSON")


def _add_ledger(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ledger", metavar="DIR",
                        help="append this run's record to DIR/ledger.jsonl "
                             "(cross-run history for `repro history` and "
                             "`repro diff`)")


def _add_reports(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--report-json", metavar="FILE",
                        help="write a schema-validated race report with "
                             "per-race HB evidence")
    parser.add_argument("--report-html", metavar="FILE",
                        help="write a self-contained single-file HTML race "
                             "report")


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="WebRacer — race detection for web applications"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check",
                           help="check an HTML file (or .har capture) for races")
    check.add_argument("page", help="path to the HTML file or .har capture")
    check.add_argument("--resource", action="append", metavar="URL=PATH",
                       help="map a sub-resource URL to a local file")
    check.add_argument("--json", help="dump the trace to this file")
    _add_run_config(check)
    _add_profiling(check)
    _add_reports(check)
    _add_ledger(check)
    check.set_defaults(func=cmd_check)

    corpus = sub.add_parser("corpus", help="run the Fortune-100 evaluation")
    corpus.add_argument("--sites", type=int, default=100)
    corpus.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the corpus run "
                             "(0 = one per usable CPU; default 1, in-process)")
    corpus.add_argument("--site-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-site wall-clock limit; an over-budget "
                             "site records an error and the run continues")
    corpus.add_argument("--json", metavar="FILE",
                        help="write Table 1 / Table 2 / totals as JSON")
    _add_run_config(corpus)
    _add_profiling(corpus)
    _add_reports(corpus)
    _add_ledger(corpus)
    corpus.set_defaults(func=cmd_corpus)

    explore = sub.add_parser(
        "explore",
        help="explore a page (or directory of pages) under many schedules",
    )
    explore.add_argument("path", help="HTML file or directory of pages")
    explore.add_argument("--schedules", type=int, default=8, metavar="N",
                         help="matrix width: fifo + adversarial + N-2 "
                              "seeded-random schedules (default 8)")
    explore.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for the page×schedule "
                              "matrix (0 = one per usable CPU; default 1)")
    explore.add_argument("--json", metavar="FILE",
                         help="write the explore report as JSON")
    explore.add_argument("--traces-dir", metavar="DIR",
                         help="save every recorded schedule trace "
                              "(replayable) into this directory")
    explore.add_argument("--minimize", metavar="FINGERPRINT",
                         help="ddmin-minimize a witnessed fingerprint's "
                              "schedule (prefix match allowed)")
    _add_run_config(explore, scheduler=False)
    _add_profiling(explore)
    _add_ledger(explore)
    explore.set_defaults(func=cmd_explore)

    predict = sub.add_parser(
        "predict",
        help="predict races from a single recorded trace and confirm "
             "them by replaying witnessing reorderings",
    )
    predict.add_argument("path", help="HTML file or directory of pages")
    predict.add_argument("--resource", action="append", metavar="URL=PATH",
                         help="map a sub-resource URL to a local file "
                              "(file mode; directories auto-map siblings)")
    predict.add_argument("--budget", type=int, default=6, metavar="N",
                         help="witness schedules tried per page: "
                              "adversarial + N-1 seeded-random (default 6)")
    predict.add_argument("--minimize", action="store_true",
                         help="ddmin-minimize each confirmed prediction's "
                              "witness schedule")
    predict.add_argument("--json", metavar="FILE",
                         help="write the predict report as JSON")
    predict.add_argument("--no-evidence", action="store_true",
                         help="omit per-prediction HB evidence from --json")
    _add_run_config(predict, scheduler=False)
    _add_profiling(predict)
    _add_ledger(predict)
    predict.set_defaults(func=cmd_predict)

    analyze = sub.add_parser("analyze", help="analyse a captured trace")
    analyze.add_argument("trace", help="path to a trace JSON file")
    analyze.add_argument("--no-filters", action="store_true")
    analyze.add_argument("--predict", action="store_true",
                         help="also run the SHB prediction sweep over the "
                              "trace and print the races it predicts for "
                              "other schedules (unconfirmed; `repro predict` "
                              "confirms by replay)")
    analyze.set_defaults(func=cmd_analyze)

    explain = sub.add_parser(
        "explain", help="print HB evidence for races in a captured trace"
    )
    explain.add_argument("trace", help="path to a trace JSON file")
    explain.add_argument("--race", type=int, metavar="N",
                         help="explain only race #N (report order)")
    explain.add_argument("--no-filters", action="store_true")
    explain.set_defaults(func=cmd_explain)

    history = sub.add_parser(
        "history",
        help="list ledgered runs and race-fingerprint lifecycle trends",
    )
    history.add_argument("--ledger", required=True, metavar="DIR",
                         help="ledger directory (holds ledger.jsonl)")
    history.add_argument("--command", dest="filter_command",
                         choices=RUN_COMMANDS,
                         help="only runs of this subcommand")
    history.add_argument("--last", type=int, metavar="N",
                         help="only the N most recent runs (after filtering)")
    history.add_argument("--json", metavar="FILE",
                         help="write the schema-validated history document")
    history.add_argument("--html", metavar="FILE",
                         help="write a self-contained HTML trend report "
                              "with per-phase duration sparklines")
    history.set_defaults(func=cmd_history)

    diff = sub.add_parser(
        "diff",
        help="diff two ledgered runs: new/resolved races and per-phase "
             "perf deltas",
    )
    diff.add_argument("runs", nargs="*", metavar="RUN",
                      help="two run references: run id, unique id prefix, "
                           "or index (-1 = latest)")
    diff.add_argument("--ledger", required=True, metavar="DIR",
                      help="ledger directory (holds ledger.jsonl)")
    diff.add_argument("--against", metavar="REF",
                      help="diff the latest run against REF; 'last' picks "
                           "the most recent earlier run with the same "
                           "command and config digest")
    diff.add_argument("--fail-on-regression", type=float, metavar="PCT",
                      help="exit nonzero when any phase (or the whole run) "
                           "slowed down by more than PCT percent")
    diff.add_argument("--json", metavar="FILE",
                      help="write the diff as JSON")
    diff.set_defaults(func=cmd_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
