"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
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


    @pytest.mark.parametrize(
        "script, kind",
        [
            ("x = " + "(" * 400 + "1" + ")" * 400 + ";", "SyntaxError"),
            ("function f(n) { return f(n + 1); } f(0);", "RangeError"),
        ],
        ids=["parse", "call"],
    )
    def test_script_too_deep_is_a_crash_not_a_traceback(self, script, kind, tmp_path):
        """A real process: an uncaught exception would exit 1, the
        harmful-race status, which an in-process main() cannot show."""
        result = check_as_process(tmp_path, script)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert "1 hidden crash(es)" in result.stdout
        assert f"op 2: {kind} — " in result.stdout

    def test_exhausted_step_budget_is_a_crash_of_its_own_kind(self, tmp_path):
        result = check_as_process(tmp_path, "while (true) {}")
        assert result.returncode == 0, result.stderr
        assert "op 2: BudgetExceeded — " in result.stdout


def check_as_process(tmp_path, script):
    """``repro check`` of a page running ``script`` and then ``y = 1``."""
    page = tmp_path / "page.html"
    page.write_text(f"<script>{script}</script><script>y = 1;</script>")
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "repro", "check", str(page)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )


def analyze_as_process(trace):
    """``repro analyze TRACE`` as a real process."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "repro", "analyze", str(trace)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )


EXAMPLE_PAGES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "pages"


@pytest.fixture(scope="module")
def form_race_trace(tmp_path_factory):
    """The serialized trace of ``examples/pages/form_race.html``."""
    path = tmp_path_factory.mktemp("form_race") / "trace.json"
    main([
        "check", str(EXAMPLE_PAGES / "form_race.html"),
        "--resource", f"hint.js={EXAMPLE_PAGES / 'hint.js'}",
        "--json", str(path),
    ])
    return json.loads(path.read_text())


class TestMalformedTraceIds:
    """Operation ids outside 1..n exit 2 with one line, as real processes:
    they used to load, and ``analyze`` reported on them with exit 1."""

    @pytest.mark.parametrize(
        "section, index, key, value",
        [
            ("operations", -1, "op_id", 10**12),
            ("operations", 0, "op_id", -1),
            ("edges", 0, "src", 999),
        ],
        ids=["huge-op", "negative-op", "edge-from-absent"],
    )
    def test_exits_2_with_one_line(
        self, form_race_trace, section, index, key, value, tmp_path
    ):
        data = json.loads(json.dumps(form_race_trace))
        data[section][index][key] = value
        trace = tmp_path / "malformed.json"
        trace.write_text(json.dumps(data))
        result = analyze_as_process(trace)
        assert result.returncode == 2, result.stdout
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: corrupt trace '{trace}': ")
        assert len(result.stderr.strip().splitlines()) == 1

    def test_the_unmodified_trace_still_reports(self, form_race_trace, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(form_race_trace))
        result = analyze_as_process(trace)
        assert result.returncode == 1, result.stderr
        assert "HARMFUL" in result.stdout


#: A timer calls ``go`` only once its script has declared it; ``go``
#: itself then fails on a built-in outside the JS subset.
GUARDED_CALL_PAGE = (
    '<script>setTimeout(function(){ if (typeof go == "function") { go(); } }'
    ', 500);</script><div id="x">content</div>'
    "<script>function go(){ var a=[3,1,2]; a.sort(); }</script>"
)


class TestFunctionRaceVerdict:
    """A function race is harmful only when the call of the raced name
    itself failed, never because the called function crashed later."""

    def check_and_analyze(self, tmp_path, capsys, html, *argv):
        page = tmp_path / "page.html"
        page.write_text(html)
        trace = tmp_path / "trace.json"
        checked = main(["check", str(page), "--json", str(trace), *argv])
        checked_out = capsys.readouterr().out
        analyzed = main(["analyze", str(trace)])
        return checked, checked_out, analyzed, capsys.readouterr().out

    def test_crash_inside_the_called_function_is_benign(self, tmp_path, capsys):
        checked, out, analyzed, loaded = self.check_and_analyze(
            tmp_path, capsys, GUARDED_CALL_PAGE
        )
        assert (checked, analyzed) == (0, 0)
        assert "TypeError: sort is not a function" in out
        for text in (out, loaded):
            assert "[function/benign]" in text
            assert "HARMFUL" not in text

    def test_call_before_the_declaration_is_harmful(self, tmp_path, capsys):
        late = tmp_path / "late.js"
        late.write_text("function go(){ var a = 1; }")
        checked, out, analyzed, loaded = self.check_and_analyze(
            tmp_path, capsys,
            '<script>setTimeout(function(){ go(); }, 1);</script>'
            '<div id="x">content</div><script src="late.js"></script>',
            "--resource", f"late.js={late}",
        )
        assert (checked, analyzed) == (1, 1)
        assert "ReferenceError: go is not defined" in out
        for text in (out, loaded):
            assert "[function/HARMFUL]" in text


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
