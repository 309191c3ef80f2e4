"""Integration tests for the profiling flags and CLI satellites.

Pins down the contract of the observability layer end to end:
``--profile``/``--trace-out``/``--stats-json`` must never change what the
detector reports, the exported trace must pass schema validation, and the
corpus/analyze satellites (``corpus --json``, ``analyze --predict``,
the full-run gating fix) behave as documented.
"""

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.obs.trace_event import validate_trace_file
from repro.sites import Site


@pytest.fixture
def buggy_page(tmp_path):
    page = tmp_path / "page.html"
    page.write_text(
        '<input type="text" id="q" /><script src="hint.js"></script>'
    )
    hint = tmp_path / "hint.js"
    hint.write_text("document.getElementById('q').value = 'hint';")
    return page, hint


def run_check(capsys, page, hint, *extra):
    status = main(
        ["check", str(page), "--resource", f"hint.js={hint}", *extra]
    )
    return status, capsys.readouterr().out


class TestProfilingFlags:
    def test_profile_prints_phase_table(self, buggy_page, capsys):
        page, hint = buggy_page
        _status, out = run_check(capsys, page, hint, "--profile")
        assert "Profile" in out
        assert "check_page" in out
        assert "page.run" in out
        assert "chc.query.graph" in out
        assert "races.raw" in out

    def test_results_identical_with_profiling(self, buggy_page, capsys, tmp_path):
        page, hint = buggy_page
        plain_status, plain_out = run_check(capsys, page, hint)
        prof_status, prof_out = run_check(
            capsys, page, hint,
            "--profile", "--trace-out", str(tmp_path / "t.json"),
            "--stats-json", str(tmp_path / "s.json"),
        )
        # The race report is byte-identical; profiling output only appends.
        assert prof_status == plain_status
        assert prof_out.startswith(plain_out)

    def test_trace_out_writes_valid_chrome_trace(self, buggy_page, capsys, tmp_path):
        page, hint = buggy_page
        trace_path = tmp_path / "trace.json"
        run_check(capsys, page, hint, "--trace-out", str(trace_path))
        events = validate_trace_file(str(trace_path))
        names = {event["name"] for event in events}
        assert "check_page" in names
        assert "race" in names  # instant emitted when detection reports it
        # The detector's CHC counter made it into the export.
        counter_names = {e["name"] for e in events if e["ph"] == "C"}
        assert "chc.query.graph" in counter_names

    def test_stats_json_shape(self, buggy_page, capsys, tmp_path):
        page, hint = buggy_page
        stats_path = tmp_path / "stats.json"
        run_check(capsys, page, hint, "--stats-json", str(stats_path))
        stats = json.loads(stats_path.read_text())
        assert stats["races"] == {"raw": 1, "filtered": 1, "harmful": 1}
        assert stats["counters"]["races.raw"] == 1
        assert "check_page" in stats["spans"]
        assert stats["spans"]["check_page"]["count"] == 1


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "pages"


def run_stats(capsys, tmp_path, *argv):
    """Run a command with ``--stats-json``; returns the stats document."""
    stats_path = tmp_path / "stats.json"
    assert main([*argv, "--stats-json", str(stats_path)]) == 0
    capsys.readouterr()
    return json.loads(stats_path.read_text())


class TestExplorePredictPhases:
    """explore and predict report through the run's own sink, so like
    ``check`` they record one ``detect``, one ``filters`` and one
    ``classify`` span per reported page run, and the ``races.*``
    counters.  A replay that verifies a schedule (counted by
    ``explore.replays``) runs the page but never reads its races, so it
    records none of the three."""

    def assert_phases(self, stats):
        spans = stats["spans"]
        replays = stats["counters"]["explore.replays"]
        detected = spans["page.run"]["count"] - replays
        assert replays > 0 and detected > 0
        assert spans["detect"]["count"] == detected
        assert spans["filters"]["count"] == detected
        assert spans["classify"]["count"] == detected
        assert "races.raw" in stats["counters"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_explore(self, jobs, capsys, tmp_path):
        stats = run_stats(
            capsys, tmp_path, "explore", str(EXAMPLES / "widget_poll.html"),
            "--schedules", "2", "--jobs", jobs,
        )
        self.assert_phases(stats)

    def test_explore_jobs_count_like_sequential(self, capsys, tmp_path):
        argv = ("explore", str(EXAMPLES / "widget_poll.html"), "--schedules", "2")
        sequential = run_stats(capsys, tmp_path, *argv)
        parallel = run_stats(capsys, tmp_path, *argv, "--jobs", "2")
        assert parallel["counters"] == sequential["counters"]

    def test_predict(self, capsys, tmp_path):
        stats = run_stats(
            capsys, tmp_path, "predict", str(EXAMPLES / "widget_poll.html"),
            "--resource", f"lib.js={EXAMPLES / 'lib.js'}",
            "--resource", f"boot.js={EXAMPLES / 'boot.js'}",
            "--budget", "2",
        )
        self.assert_phases(stats)
        assert stats["counters"]["predict.witness_budget_spent"] == 2


def tiny_corpus(count):
    """A corpus of trivial sites — fast, and some with a seeded race."""
    sites = []
    for index in range(count):
        sites.append(
            Site(
                name=f"Site{index}",
                html=(
                    '<input type="text" id="q" />'
                    '<script src="late.js"></script>'
                    if index % 2 == 0
                    else "<div>quiet</div>"
                ),
                resources={"late.js": "document.getElementById('q').value = 'x';"},
                latencies={"late.js": 40.0},
            )
        )
    return sites


class TestCorpusJson:
    def test_tables_json(self, capsys, tmp_path, monkeypatch):
        import repro.sites

        monkeypatch.setattr(
            repro.sites, "corpus_builders",
            lambda master_seed=0, limit=None: tiny_corpus(4),
        )
        out_path = tmp_path / "tables.json"
        status = main(["corpus", "--sites", "4", "--json", str(out_path)])
        assert status == 0
        tables = json.loads(out_path.read_text())
        assert tables["sites_checked"] == 4
        assert tables["full_run"] is False
        assert "paper" not in tables
        assert set(tables["table1"]) == {
            "html", "function", "variable", "event_dispatch", "all",
        }
        for row in tables["table2"]:
            assert "site" in row
            assert row["variable"]["count"] >= 0
        assert tables["sites_with_races"] == len(tables["table2"])

    def test_corpus_stats_json_is_per_site(self, capsys, tmp_path, monkeypatch):
        import repro.sites

        monkeypatch.setattr(
            repro.sites, "corpus_builders",
            lambda master_seed=0, limit=None: tiny_corpus(3),
        )
        stats_path = tmp_path / "stats.json"
        main(["corpus", "--sites", "3", "--stats-json", str(stats_path)])
        stats = json.loads(stats_path.read_text())
        assert {site["site"] for site in stats["sites"]} == {
            "Site0", "Site1", "Site2",
        }
        for site in stats["sites"]:
            assert site["chc_queries"] >= 0
            assert site["operations"] > 0
        # Scoped span stats exist for every site.
        assert set(stats["scopes"]) >= {"Site0", "Site1", "Site2"}
        assert "check_page" in stats["scopes"]["Site0"]["spans"]


class TestFullRunGating:
    """Paper comparisons must key off sites actually built, not --sites."""

    def test_small_build_never_compares(self, capsys, monkeypatch):
        import repro.sites

        # `--sites 100` requested, but the corpus build yields only 2 —
        # the old `args.sites == 100` gating would wrongly compare.
        monkeypatch.setattr(
            repro.sites, "corpus_builders",
            lambda master_seed=0, limit=None: tiny_corpus(2),
        )
        main(["corpus", "--sites", "100"])
        out = capsys.readouterr().out
        assert "(paper" not in out

    def test_full_build_compares_even_with_odd_flag(self, capsys, monkeypatch):
        import repro.sites

        # `--sites 150` clamps to the full 100-site corpus; the paper
        # comparison should still appear.
        monkeypatch.setattr(
            repro.sites, "corpus_builders",
            lambda master_seed=0, limit=None: tiny_corpus(100),
        )
        main(["corpus", "--sites", "150"])
        out = capsys.readouterr().out
        assert "(paper 41)" in out


class TestAnalyzeHbBackend:
    def test_predict_appends_shb_summary(self, buggy_page, tmp_path, capsys):
        page, hint = buggy_page
        trace_path = tmp_path / "trace.json"
        main([
            "check", str(page),
            "--resource", f"hint.js={hint}",
            "--json", str(trace_path),
        ])
        capsys.readouterr()
        assert main(["analyze", str(trace_path)]) == 1
        plain = capsys.readouterr().out
        assert main(["analyze", str(trace_path), "--predict"]) == 1
        predicted = capsys.readouterr().out
        # --predict prints the same observed report, then its SHB summary.
        assert predicted.startswith(plain)
        assert "SHB:" in predicted[len(plain):]

    def test_bad_backend_rejected(self, buggy_page, tmp_path, capsys):
        page, hint = buggy_page
        trace_path = tmp_path / "trace.json"
        main([
            "check", str(page),
            "--resource", f"hint.js={hint}",
            "--json", str(trace_path),
        ])
        # analyze selects no HB store, so any --hb-backend is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", str(trace_path), "--hb-backend", "nonsense"])
        assert exit_info.value.code == 2
