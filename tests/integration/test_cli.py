"""Tests for the command-line interface."""

import json

import pytest

from repro.__main__ import main


@pytest.fixture
def buggy_page(tmp_path):
    page = tmp_path / "page.html"
    page.write_text(
        '<input type="text" id="q" /><script src="hint.js"></script>'
    )
    hint = tmp_path / "hint.js"
    hint.write_text("document.getElementById('q').value = 'hint';")
    return page, hint


class TestCheck:
    def test_harmful_page_exits_nonzero(self, buggy_page, capsys):
        page, hint = buggy_page
        status = main(["check", str(page), "--resource", f"hint.js={hint}"])
        out = capsys.readouterr().out
        assert status == 1
        assert "variable" in out
        assert "HARMFUL" in out

    def test_clean_page_exits_zero(self, tmp_path, capsys):
        page = tmp_path / "clean.html"
        page.write_text("<div>hello</div>")
        status = main(["check", str(page)])
        assert status == 0
        assert "0 raw races" in capsys.readouterr().out

    def test_bad_resource_mapping(self, buggy_page, capsys):
        page, _hint = buggy_page
        status = main(["check", str(page), "--resource", "nonsense"])
        assert status == 2

    def test_json_dump(self, buggy_page, tmp_path, capsys):
        page, hint = buggy_page
        out_path = tmp_path / "trace.json"
        main([
            "check", str(page),
            "--resource", f"hint.js={hint}",
            "--json", str(out_path),
        ])
        data = json.loads(out_path.read_text())
        assert data["version"] == 1
        assert data["accesses"]


class TestAnalyze:
    def test_roundtrip_through_cli(self, buggy_page, tmp_path, capsys):
        page, hint = buggy_page
        trace_path = tmp_path / "trace.json"
        main([
            "check", str(page),
            "--resource", f"hint.js={hint}",
            "--json", str(trace_path),
        ])
        capsys.readouterr()
        status = main(["analyze", str(trace_path)])
        out = capsys.readouterr().out
        assert status == 1
        assert "HARMFUL" in out

    def test_no_filters_flag(self, buggy_page, tmp_path, capsys):
        page, hint = buggy_page
        trace_path = tmp_path / "trace.json"
        main([
            "check", str(page),
            "--resource", f"hint.js={hint}",
            "--json", str(trace_path),
        ])
        capsys.readouterr()
        main(["analyze", str(trace_path), "--no-filters"])
        assert "races" in capsys.readouterr().out


class TestHbBackend:
    def test_unknown_backend_rejected(self, buggy_page, capsys):
        """No command selects an HB store any more: the flag is unknown to
        all five that took it, even with its old default value."""
        page, _hint = buggy_page
        for command in (
            ["check", str(page)],
            ["corpus"],
            ["explore", str(page)],
            ["predict", str(page)],
            ["analyze", "trace.json"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main([*command, "--hb-backend", "graph"])
            assert exit_info.value.code == 2, command
            assert "unrecognized arguments" in capsys.readouterr().err


class TestCorpus:
    def test_small_corpus_run(self, capsys):
        status = main(["corpus", "--sites", "5"])
        out = capsys.readouterr().out
        assert status == 0
        assert "Table 1" in out
        assert "Table 2" in out

    def test_partial_run_omits_paper_comparisons(self, capsys):
        """Paper numbers describe the full 100-site corpus; comparing a
        partial run against them is misleading (matches the Table 2
        paper_totals gating)."""
        status = main(["corpus", "--sites", "3"])
        out = capsys.readouterr().out
        assert status == 0
        assert "sites with races:" in out
        assert "(paper 41)" not in out
        assert "Paper" not in out.split("Table 2")[1]
