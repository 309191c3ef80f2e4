"""CLI tests for race reports (--report-json/--report-html) and `explain`."""

import json

import pytest

from repro.__main__ import main
from repro.explain import validate_report_file


@pytest.fixture
def buggy_page(tmp_path):
    page = tmp_path / "page.html"
    page.write_text(
        '<input type="text" id="q" /><script src="hint.js"></script>'
    )
    hint = tmp_path / "hint.js"
    hint.write_text("document.getElementById('q').value = 'hint';")
    return page, hint


def check_args(buggy_page, *extra):
    page, hint = buggy_page
    return ["check", str(page), "--resource", f"hint.js={hint}", *extra]


class TestCheckReports:
    def test_report_json_is_schema_valid(self, buggy_page, tmp_path, capsys):
        out = tmp_path / "report.json"
        status = main(check_args(buggy_page, "--report-json", str(out)))
        assert status == 1
        document = validate_report_file(str(out))
        assert document["mode"] == "check"
        assert document["pages"][0]["evidence"]
        for evidence in document["pages"][0]["evidence"]:
            assert len(evidence["fingerprint"]) == 16
            for side in (evidence["prior"], evidence["current"]):
                assert side["path_from_nca"]
        assert f"race report (JSON) written to {out}" in capsys.readouterr().out

    def test_report_html_is_written(self, buggy_page, tmp_path, capsys):
        out = tmp_path / "report.html"
        status = main(check_args(buggy_page, "--report-html", str(out)))
        assert status == 1
        text = out.read_text()
        assert text.lstrip().lower().startswith("<!doctype html>")
        assert "<svg" in text

    def test_races_identical_with_and_without_reports(
        self, buggy_page, tmp_path, capsys
    ):
        """Report generation must not perturb detection (acceptance
        criterion): stdout race output is byte-identical modulo the two
        "report written" lines."""
        main(check_args(buggy_page))
        plain = capsys.readouterr().out
        main(check_args(
            buggy_page,
            "--report-json", str(tmp_path / "report.json"),
            "--report-html", str(tmp_path / "report.html"),
        ))
        with_reports = capsys.readouterr().out
        stripped = "".join(
            line for line in with_reports.splitlines(keepends=True)
            if not line.startswith("race report (")
        )
        assert stripped == plain


class TestExplain:
    @pytest.fixture
    def trace_path(self, buggy_page, tmp_path, capsys):
        path = tmp_path / "trace.json"
        main(check_args(buggy_page, "--json", str(path)))
        capsys.readouterr()
        return path

    def test_explains_all_races(self, trace_path, capsys):
        status = main(["explain", str(trace_path)])
        out = capsys.readouterr().out
        assert status == 1
        assert "nearest common HB ancestor" in out
        assert "fingerprint" in out

    def test_single_race_selection(self, trace_path, capsys):
        status = main(["explain", str(trace_path), "--race", "0"])
        out = capsys.readouterr().out
        assert status == 1
        assert "race #0" in out

    def test_bad_race_index_exits_2(self, trace_path, capsys):
        status = main(["explain", str(trace_path), "--race", "99"])
        assert status == 2
        assert "no race #99" in capsys.readouterr().err

    def test_no_filters_flag(self, trace_path, capsys):
        filtered = main(["explain", str(trace_path)])
        out_filtered = capsys.readouterr().out
        raw = main(["explain", str(trace_path), "--no-filters"])
        out_raw = capsys.readouterr().out
        assert out_raw.count("fingerprint") >= out_filtered.count("fingerprint")


class TestCorpusReports:
    def test_corpus_report_aggregates_pages(self, tmp_path, capsys):
        json_out = tmp_path / "corpus.json"
        html_out = tmp_path / "corpus.html"
        status = main([
            "corpus", "--sites", "3",
            "--report-json", str(json_out),
            "--report-html", str(html_out),
        ])
        assert status == 0
        document = validate_report_file(str(json_out))
        assert document["mode"] == "corpus"
        assert len(document["pages"]) == 3
        assert document["totals"]["distinct_fingerprints"] == len(
            document["clusters"]
        )
        text = html_out.read_text()
        assert text.lstrip().lower().startswith("<!doctype html>")

    def test_corpus_json_new_fields(self, tmp_path, capsys):
        out = tmp_path / "tables.json"
        status = main(["corpus", "--sites", "3", "--json", str(out)])
        assert status == 0
        data = json.loads(out.read_text())
        assert "table1_harmful" in data
        assert "harmful_by_type" in data
        assert "filters_removed" in data
        assert all(
            isinstance(count, int) and count >= 0
            for count in data["filters_removed"].values()
        )
        assert sum(data["harmful_by_type"].values()) >= 0
