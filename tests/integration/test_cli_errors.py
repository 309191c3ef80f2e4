"""CLI error paths: one-line diagnostics, exit status 2, no tracebacks.

Covers the bugfix half of the parallel-runner PR: ``analyze``/``explain``
on missing or corrupt traces, and output-path validation that fails fast
(before any site runs) for every ``--json``/``--stats-json``/``--trace-out``/
``--report-json``/``--report-html`` destination.
"""

import pytest

from repro.__main__ import _check_output_path, _write, main
from repro.inputs import InputError

PAGE_HTML = """<html><head><script>var x = 1;</script></head><body></body></html>"""


@pytest.fixture
def page_file(tmp_path):
    page = tmp_path / "page.html"
    page.write_text(PAGE_HTML)
    return str(page)


class TestAnalyzeExplainErrors:
    def test_analyze_missing_trace(self, tmp_path, capsys):
        missing = tmp_path / "missing.trace"
        assert main(["analyze", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read trace '{missing}'")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_explain_missing_trace(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "gone.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace")
        assert len(err.strip().splitlines()) == 1

    def test_analyze_corrupt_trace_not_json(self, tmp_path, capsys):
        trace = tmp_path / "garbage.trace"
        trace.write_text("this is not json {{{")
        assert main(["analyze", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt trace '{trace}'")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_analyze_corrupt_trace_wrong_shape(self, tmp_path, capsys):
        trace = tmp_path / "shape.trace"
        trace.write_text('{"valid": "json", "but": "not a trace"}')
        assert main(["analyze", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt trace '{trace}'")

    def test_explain_corrupt_trace(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_text("[1, 2, 3]")
        assert main(["explain", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt trace '{trace}'")
        assert len(err.strip().splitlines()) == 1

    def test_analyze_trace_is_directory(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["analyze", "--predict"], ["explain"]],
    )
    def test_happens_before_cycle_rejected(self, argv, tmp_path, capsys):
        """A trace with its first edge reversed, or with that edge's
        reverse appended to close a cycle, exits 2: either holds an edge
        from a newer operation to an older one, which no run records (a
        cycle used to hang or report races over the cyclic relation)."""
        import json

        from repro import WebRacer
        from repro.core.serialize import dumps_trace

        report = WebRacer(seed=0).check_page(PAGE_HTML)
        data = json.loads(dumps_trace(report.trace, report.page.monitor.graph))
        first, *rest = data["edges"]
        reverse = {"src": first["dst"], "dst": first["src"], "rule": first["rule"]}
        cases = {"reversed": [reverse, *rest], "cycle": [first, *rest, reverse]}
        for name, edges in cases.items():
            trace = tmp_path / f"{name}.json"
            trace.write_text(json.dumps({**data, "edges": edges}))
            assert main([argv[0], str(trace), *argv[1:]]) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                f"error: corrupt trace '{trace}': backward happens-before edge"
            )
            assert len(err.strip().splitlines()) == 1


class TestOutputPathValidation:
    @pytest.mark.parametrize(
        "flag",
        ["--json", "--stats-json", "--trace-out", "--report-json", "--report-html"],
    )
    def test_corpus_rejects_missing_directory_before_running(
        self, flag, capsys, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise AssertionError("sites ran before path validation")

        monkeypatch.setattr("repro.sites.corpus_builders", explode)
        monkeypatch.setattr(
            "repro.webracer.WebRacer.check_corpus", explode, raising=True
        )
        status = main(
            ["corpus", "--sites", "5", flag, "/no/such/dir/out.file"]
        )
        err = capsys.readouterr().err
        assert status == 2
        assert err == "error: output directory '/no/such/dir' does not exist\n"

    def test_corpus_parallel_rejects_bad_path_before_running(
        self, capsys, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise AssertionError("workers ran before path validation")

        monkeypatch.setattr("repro.sites.corpus_builders", explode)
        monkeypatch.setattr(
            "repro.webracer.WebRacer.check_corpus", explode, raising=True
        )
        status = main(
            ["corpus", "--sites", "5", "--jobs", "2",
             "--json", "/no/such/dir/out.json"]
        )
        assert status == 2
        assert "does not exist" in capsys.readouterr().err

    def test_corpus_rejects_directory_as_output(self, tmp_path, capsys):
        status = main(["corpus", "--sites", "1", "--json", str(tmp_path)])
        err = capsys.readouterr().err
        assert status == 2
        assert err == f"error: output path '{tmp_path}' is a directory\n"

    def test_check_rejects_bad_output_path(self, page_file, capsys):
        status = main(["check", page_file, "--json", "/no/such/dir/t.json"])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: output directory")

    def test_check_rejects_bad_report_path(self, page_file, capsys):
        status = main(
            ["check", page_file, "--report-html", "/no/such/dir/r.html"]
        )
        assert status == 2
        assert "does not exist" in capsys.readouterr().err

    def test_valid_paths_still_work(self, tmp_path, capsys):
        out = tmp_path / "tables.json"
        assert main(["corpus", "--sites", "1", "--json", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()

    @pytest.mark.parametrize(
        "flag", ["--json", "--stats-json", "--trace-out"]
    )
    def test_explore_rejects_bad_path_before_running(
        self, flag, page_file, capsys, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise AssertionError("matrix ran before path validation")

        monkeypatch.setattr(
            "repro.schedule_runner.explore_pages", explode, raising=True
        )
        status = main(
            ["explore", page_file, flag, "/no/such/dir/out.file"]
        )
        err = capsys.readouterr().err
        assert status == 2
        assert err == "error: output directory '/no/such/dir' does not exist\n"

    @pytest.mark.parametrize(
        "flag", ["--json", "--stats-json", "--trace-out"]
    )
    def test_predict_rejects_bad_path_before_running(
        self, flag, page_file, capsys, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise AssertionError("prediction ran before path validation")

        monkeypatch.setattr(
            "repro.predict.predict_pages", explode, raising=True
        )
        status = main(
            ["predict", page_file, flag, "/no/such/dir/out.file"]
        )
        err = capsys.readouterr().err
        assert status == 2
        assert err == "error: output directory '/no/such/dir' does not exist\n"


class TestLedgerPathValidation:
    @pytest.mark.parametrize(
        "command", [["check"], ["corpus", "--sites", "1"]]
    )
    def test_ledger_path_is_a_file(
        self, command, page_file, tmp_path, capsys
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = list(command)
        if argv[0] == "check":
            argv.append(page_file)
        status = main([*argv, "--ledger", str(blocker)])
        err = capsys.readouterr().err
        assert status == 2
        assert err == f"error: --ledger '{blocker}' is a file\n"

    def test_ledger_rejected_before_run(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("sites ran before ledger validation")

        monkeypatch.setattr("repro.sites.corpus_builders", explode)
        status = main(
            ["corpus", "--sites", "5", "--ledger", "/proc/version/nope"]
        )
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_explore_validates_ledger_up_front(
        self, page_file, tmp_path, capsys, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise AssertionError("matrix ran before ledger validation")

        monkeypatch.setattr(
            "repro.schedule_runner.explore_pages", explode, raising=True
        )
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        status = main(["explore", page_file, "--ledger", str(blocker)])
        assert status == 2
        assert "is a file" in capsys.readouterr().err

    def test_predict_validates_ledger_up_front(
        self, page_file, tmp_path, capsys, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise AssertionError("prediction ran before ledger validation")

        monkeypatch.setattr(
            "repro.predict.predict_pages", explode, raising=True
        )
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        status = main(["predict", page_file, "--ledger", str(blocker)])
        assert status == 2
        assert "is a file" in capsys.readouterr().err


class TestCountFlags:
    """Negative or zero counts are rejected up front, not misread: a
    negative ``--sites`` used to slice from the end of the corpus, a
    non-positive ``--site-timeout`` meant no deadline, and a negative
    ``--last`` listed every run."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["corpus", "--sites", "-98"], "--sites must be >= 0"),
            (["corpus", "--site-timeout", "-5"], "--site-timeout must be > 0"),
            (["corpus", "--site-timeout", "0"], "--site-timeout must be > 0"),
            (["corpus", "--jobs", "-1"], "--jobs must be >= 0"),
        ],
        ids=["sites", "timeout-negative", "timeout-zero", "jobs"],
    )
    def test_corpus_rejects_before_running(
        self, argv, message, capsys, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise AssertionError("sites ran before flag validation")

        monkeypatch.setattr("repro.sites.corpus_builders", explode)
        monkeypatch.setattr(
            "repro.webracer.WebRacer.check_corpus", explode, raising=True
        )
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("last", ["-1", "0"])
    def test_history_rejects_non_positive_last(self, last, tmp_path, capsys):
        assert main(["history", "--ledger", str(tmp_path), "--last", last]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --last must be >= 1")
        assert len(err.strip().splitlines()) == 1


class TestPathHelpers:
    def test_output_path_error_accepts_writable_target(self, tmp_path):
        assert _check_output_path(str(tmp_path / "new.json")) is None

    def test_output_path_error_rejects_directory(self, tmp_path):
        with pytest.raises(InputError) as info:
            _check_output_path(str(tmp_path))
        assert "is a directory" in str(info.value)

    def test_output_path_error_rejects_missing_parent(self):
        with pytest.raises(InputError) as info:
            _check_output_path("/no/such/dir/file.json")
        assert str(info.value) == "output directory '/no/such/dir' does not exist"

    def test_output_path_error_rejects_unwritable_directory(self, tmp_path):
        import os

        if os.geteuid() == 0:
            pytest.skip("root bypasses directory write permissions")
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o555)
        try:
            with pytest.raises(InputError) as info:
                _check_output_path(str(locked / "out.json"))
            assert "is not writable" in str(info.value)
        finally:
            locked.chmod(0o755)

    def test_write_output_reports_oserror(self):
        def boom():
            raise OSError(28, "No space left on device")

        with pytest.raises(InputError) as info:
            _write("/tmp/full.json", "stats", boom)
        assert str(info.value) == (
            "cannot write '/tmp/full.json': No space left on device"
        )

    def test_write_output_success_returns_none(self, tmp_path):
        target = tmp_path / "ok.txt"
        assert _write(str(target), None, lambda: target.write_text("hi")) is None
