"""The pooled corpus run: determinism, isolation, and obs merge.

Pins the contract of ``repro corpus --jobs N``:

* pooled and in-process runs are byte-identical (stdout modulo the
  output-file name lines, ``--json``/``--report-json`` files exactly);
* a site that crashes or overruns its deadline while building yields a
  recorded site error, a completed run and a non-crashing report, under
  ``--jobs 1`` exactly as under ``--jobs 2``;
* worker instrumentation shards merge into one coherent per-site profile.

The fault-injection tests monkeypatch the deterministic site builder and
rely on the pool's fork start method to carry the patch into workers,
so they are skipped where fork is unavailable.
"""

import json
import multiprocessing
import pickle
import time

import pytest

from repro import WebRacer
from repro.__main__ import main
from repro.pool import resolve_jobs
from repro.sites import corpus_builders
from repro.webracer import CorpusReport, SiteResult

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fault injection needs the fork start method"
)


def _scrub(out: str) -> str:
    """Drop the output-path announcement lines (they name the tmp file)."""
    return "\n".join(
        line for line in out.splitlines() if not line.endswith((".json", ".html"))
    )


class TestParallelIdentity:
    def test_stdout_and_json_identical_to_sequential(self, tmp_path, capsys):
        seq_json = tmp_path / "seq.json"
        par_json = tmp_path / "par.json"
        assert main(["corpus", "--sites", "10", "--json", str(seq_json)]) == 0
        seq_out = capsys.readouterr().out
        assert (
            main(["corpus", "--sites", "10", "--jobs", "2", "--json", str(par_json)])
            == 0
        )
        par_out = capsys.readouterr().out
        assert _scrub(seq_out) == _scrub(par_out)
        assert seq_json.read_bytes() == par_json.read_bytes()

    def test_report_json_identical_to_sequential(self, tmp_path, capsys):
        seq_report = tmp_path / "seq-report.json"
        par_report = tmp_path / "par-report.json"
        main(["corpus", "--sites", "6", "--report-json", str(seq_report)])
        main([
            "corpus", "--sites", "6", "--jobs", "2",
            "--report-json", str(par_report),
        ])
        capsys.readouterr()
        assert seq_report.read_bytes() == par_report.read_bytes()
        document = json.loads(par_report.read_text())
        assert document["mode"] == "corpus"
        assert len(document["pages"]) == 6

    def test_jobs_zero_uses_all_cpus(self, capsys):
        assert resolve_jobs(0) >= 1
        status = main(["corpus", "--sites", "3", "--jobs", "0"])
        assert status == 0
        assert "Table 2" in capsys.readouterr().out

    def test_library_entry_matches_sequential_aggregates(self):
        from repro.sites import build_corpus

        sites = build_corpus(master_seed=0, limit=5)
        sequential = WebRacer(seed=0).check_corpus(sites)
        parallel = WebRacer(seed=0).check_corpus(
            corpus_builders(master_seed=0, limit=5), jobs=2
        )
        assert parallel.table1() == sequential.table1()
        assert parallel.table2() == sequential.table2()
        assert parallel.table2_totals() == sequential.table2_totals()
        assert (
            parallel.filters_removed_totals()
            == sequential.filters_removed_totals()
        )

    def test_results_arrive_in_site_index_order(self):
        results = WebRacer().check_corpus(
            corpus_builders(master_seed=0, limit=4), jobs=2
        ).reports
        assert [result.index for result in results] == [0, 1, 2, 3]

    def test_site_results_are_picklable(self):
        results = WebRacer().check_corpus(
            corpus_builders(master_seed=0, limit=2), jobs=2
        ).reports
        clone = pickle.loads(pickle.dumps(results))
        assert clone == results


@needs_fork
class TestFailureIsolation:
    def test_crashing_site_records_error_and_run_completes(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.sites.corpus as corpus_mod

        real_build = corpus_mod.build_site

        def exploding_build(spec):
            if spec.name == "AmericanExpress":  # site index 1
                raise RuntimeError("injected build failure")
            return real_build(spec)

        monkeypatch.setattr(corpus_mod, "build_site", exploding_build)
        out_json = tmp_path / "tables.json"
        status = main([
            "corpus", "--sites", "4", "--jobs", "2", "--json", str(out_json),
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "site errors: 1 of 4 sites" in out
        assert "RuntimeError: injected build failure" in out
        tables = json.loads(out_json.read_text())
        assert tables["sites_failed"] == 1
        assert tables["site_errors"][0]["index"] == 1
        assert "RuntimeError" in tables["site_errors"][0]["error"]
        # The other three sites still aggregated.
        assert tables["sites_checked"] == 4

    def test_timeout_site_records_error_and_run_completes(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.sites.corpus as corpus_mod

        real_build = corpus_mod.build_site

        def stalling_build(spec):
            if spec.name == "Allstate":  # site index 0
                time.sleep(30)
            return real_build(spec)

        monkeypatch.setattr(corpus_mod, "build_site", stalling_build)
        out_json = tmp_path / "tables.json"
        status = main([
            "corpus", "--sites", "3", "--jobs", "2",
            "--site-timeout", "0.3", "--json", str(out_json),
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "site errors: 1 of 3 sites" in out
        assert "timeout" in out
        tables = json.loads(out_json.read_text())
        assert tables["sites_failed"] == 1
        assert "timeout" in tables["site_errors"][0]["error"]

    def test_sequential_mode_isolates_failures_identically(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.sites.corpus as corpus_mod

        real_build = corpus_mod.build_site

        def exploding_build(spec):
            if spec.name == "AmericanExpress":  # site index 1
                raise RuntimeError("injected build failure")
            return real_build(spec)

        monkeypatch.setattr(corpus_mod, "build_site", exploding_build)
        out = _same_under_both_jobs(tmp_path, capsys, ["corpus", "--sites", "4"])
        assert "site errors: 1 of 4 sites" in out
        assert "[1] site[1]: RuntimeError: injected build failure" in out

    def test_sequential_mode_isolates_stalls_identically(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.sites.corpus as corpus_mod

        real_build = corpus_mod.build_site

        def stalling_build(spec):
            if spec.name == "Allstate":  # site index 0
                time.sleep(30)
            return real_build(spec)

        monkeypatch.setattr(corpus_mod, "build_site", stalling_build)
        out = _same_under_both_jobs(
            tmp_path, capsys, ["corpus", "--sites", "3", "--site-timeout", "0.3"]
        )
        assert "site errors: 1 of 3 sites" in out
        assert "[0] site[0]: timeout: exceeded per-site limit of 0.3s" in out

    def test_dead_worker_becomes_a_site_error(self, monkeypatch):
        import os

        import repro.sites.corpus as corpus_mod

        real_build = corpus_mod.build_site

        def dying_build(spec):
            if spec.name == "AmericanExpress":  # site index 1
                os._exit(1)
            return real_build(spec)

        monkeypatch.setattr(corpus_mod, "build_site", dying_build)
        reports = WebRacer().check_corpus(
            corpus_builders(master_seed=0, limit=3), jobs=2
        ).reports
        # The dead worker breaks the pool, so sites still pending may fail
        # with it; the run still has one result per site, in order.
        assert [result.index for result in reports] == [0, 1, 2]
        assert reports[1].error.startswith("worker failed: BrokenProcessPool: ")
        assert all(
            result.ok or result.error.startswith("worker failed: ")
            for result in reports
        )

    def test_failed_sites_excluded_from_report_document(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.sites.corpus as corpus_mod

        real_build = corpus_mod.build_site

        def exploding_build(spec):
            if spec.name == "Allstate":
                raise ValueError("boom")
            return real_build(spec)

        monkeypatch.setattr(corpus_mod, "build_site", exploding_build)
        report_json = tmp_path / "report.json"
        status = main([
            "corpus", "--sites", "3", "--jobs", "2",
            "--report-json", str(report_json),
        ])
        capsys.readouterr()
        assert status == 0
        document = json.loads(report_json.read_text())
        assert len(document["pages"]) == 2
        assert {page["url"] for page in document["pages"]} == {
            "AmericanExpress", "BankOfAmerica",
        }


def _same_under_both_jobs(tmp_path, capsys, argv) -> str:
    """Run ``argv`` under ``--jobs 1`` and ``--jobs 2``; both must exit 0
    with the same stdout (minus output-path lines) and the same
    ``--json``.  Returns the ``--jobs 1`` stdout."""
    runs = []
    for jobs in ("1", "2"):
        out_json = tmp_path / f"tables-{jobs}.json"
        status = main([*argv, "--jobs", jobs, "--json", str(out_json)])
        runs.append((status, capsys.readouterr().out, out_json.read_bytes()))
    (seq_status, seq_out, seq_json), (par_status, par_out, par_json) = runs
    assert seq_status == par_status == 0
    assert _scrub(seq_out) == _scrub(par_out)
    assert seq_json == par_json
    return seq_out


def _strip_timing(value):
    """Drop wall-clock fields so profiles compare structurally."""
    timing = ("_us", "_ms", "duration", "start", "t0", "ts")
    if isinstance(value, dict):
        return {
            key: _strip_timing(val)
            for key, val in value.items()
            if not any(key == t or key.endswith(t) for t in timing)
        }
    if isinstance(value, list):
        return [_strip_timing(item) for item in value]
    return value


class TestMoreJobsThanSites:
    """``--jobs N`` with N > sites must clamp to the site count: idle
    workers may never leave artifacts (empty shards, phantom lanes,
    stray scope entries) in the merged output."""

    def test_tables_json_identical_to_sequential(self, tmp_path, capsys):
        seq_json = tmp_path / "seq.json"
        par_json = tmp_path / "par.json"
        assert main(["corpus", "--sites", "3", "--json", str(seq_json)]) == 0
        assert (
            main([
                "corpus", "--sites", "3", "--jobs", "8",
                "--json", str(par_json),
            ])
            == 0
        )
        capsys.readouterr()
        assert seq_json.read_bytes() == par_json.read_bytes()

    def test_stats_json_structurally_identical_to_sequential(
        self, tmp_path, capsys
    ):
        seq_stats = tmp_path / "seq-stats.json"
        par_stats = tmp_path / "par-stats.json"
        main(["corpus", "--sites", "3", "--stats-json", str(seq_stats)])
        main([
            "corpus", "--sites", "3", "--jobs", "16",
            "--stats-json", str(par_stats),
        ])
        capsys.readouterr()
        seq = json.loads(seq_stats.read_text())
        par = json.loads(par_stats.read_text())
        # Everything but wall-clock timing merges identically — same
        # scopes, same counters, same span/event counts, no extras.
        assert _strip_timing(seq) == _strip_timing(par)
        assert len(par["sites"]) == 3

    def test_trace_lanes_match_site_count(self, tmp_path, capsys):
        from repro.obs.trace_event import validate_trace_file

        trace_path = tmp_path / "trace.json"
        main([
            "corpus", "--sites", "2", "--jobs", "6",
            "--trace-out", str(trace_path),
        ])
        capsys.readouterr()
        events = validate_trace_file(str(trace_path))
        lanes = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        # The main process always announces its own "event-loop" lane;
        # beyond that, exactly one lane per site and none for the four
        # idle workers.
        assert lanes - {"event-loop"} == {"Allstate", "AmericanExpress"}
        tids = {event["tid"] for event in events if event["ph"] == "X"}
        assert len(tids) == 2  # exactly one lane per site, none idle

    def test_worker_pool_clamped_to_site_count(self):
        results = WebRacer().check_corpus(
            corpus_builders(master_seed=0, limit=2), jobs=10
        ).reports
        assert [result.index for result in results] == [0, 1]
        assert all(result.ok for result in results)


class TestObsShardMerge:
    def test_parallel_stats_json_has_per_site_scopes(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        main([
            "corpus", "--sites", "3", "--jobs", "2",
            "--stats-json", str(stats_path),
        ])
        capsys.readouterr()
        stats = json.loads(stats_path.read_text())
        assert {site["site"] for site in stats["sites"]} == {
            "Allstate", "AmericanExpress", "BankOfAmerica",
        }
        assert set(stats["scopes"]) >= {
            "Allstate", "AmericanExpress", "BankOfAmerica",
        }
        assert "check_page" in stats["scopes"]["Allstate"]["spans"]
        assert stats["spans"]["check_page"]["count"] == 3

    def test_parallel_chrome_trace_validates_with_site_lanes(
        self, tmp_path, capsys
    ):
        from repro.obs.trace_event import validate_trace_file

        trace_path = tmp_path / "trace.json"
        main([
            "corpus", "--sites", "3", "--jobs", "2",
            "--trace-out", str(trace_path),
        ])
        capsys.readouterr()
        events = validate_trace_file(str(trace_path))
        lanes = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert {"Allstate", "AmericanExpress", "BankOfAmerica"} <= lanes
        tids = {event["tid"] for event in events if event["ph"] == "X"}
        assert len(tids) == 3  # one lane per site

    def test_parallel_profile_prints_phase_table(self, capsys):
        status = main(["corpus", "--sites", "2", "--jobs", "2", "--profile"])
        out = capsys.readouterr().out
        assert status == 0
        assert "Profile" in out
        assert "check_page" in out


class TestRunnerUnits:
    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_jobs_zero_counts_only_usable_cpus(self, monkeypatch):
        """``--jobs 0`` means one worker per CPU this process may run on
        (its affinity mask), not per CPU in the machine."""
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert resolve_jobs(0) == 1

    def test_negative_jobs_flag_exits_2(self, capsys):
        assert main(["corpus", "--sites", "1", "--jobs", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_site_guarded_timeout(self):
        racer = WebRacer(seed=0)

        def never_builds():
            time.sleep(30)

        result = racer.run_site_guarded(
            never_builds, 0, site_seed=0, timeout=0.2
        )
        assert not result.ok
        assert "timeout" in result.error
        assert result.raw_counts() == {
            t: 0 for t in result.raw_counts()
        }

    def test_run_site_guarded_crash(self):
        racer = WebRacer(seed=0)

        def broken_build():
            raise ZeroDivisionError("kaboom")

        result = racer.run_site_guarded(broken_build, 3, site_seed=0)
        assert not result.ok
        assert result.index == 3
        assert result.error == "ZeroDivisionError: kaboom"
        assert result.url == "site[3]"

    def test_guarded_corpus_report_includes_failures(self):
        racer = WebRacer(seed=0)

        def broken_build():
            raise RuntimeError("nope")

        report = CorpusReport(
            reports=[racer.run_site_guarded(broken_build, 0, site_seed=0)]
        )
        assert report.failed()[0].error == "RuntimeError: nope"
        assert report.table2() == []
        assert report.sites_with_filtered_races() == 0
