"""The examples are part of the public deliverable — they must all run."""

import pathlib
import runpy
import sys
import tempfile
import textwrap

import pytest

import repro

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_clean(script, capsys, monkeypatch, tmp_path):
    if script.stem == "audit_fortune100":
        # The full corpus belongs to the benchmarks; run a slice here.
        monkeypatch.setattr(sys, "argv", [str(script), "6"])
    else:
        monkeypatch.setattr(sys, "argv", [str(script)])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.stem} produced no output"
    assert list(tmp_path.iterdir()) == [], f"{script.stem} left temporary files"


def test_there_are_at_least_five_examples():
    assert len(EXAMPLES) >= 5


def test_package_docstring_example_runs(capsys):
    """The "Typical use" block of the ``repro`` docstring runs as written."""
    example = textwrap.dedent(repro.__doc__.split("Typical use::", 1)[1])
    html_text = (
        '<input type="text" id="q" />'
        "<script>setTimeout(function () {"
        " document.getElementById('q').value = 'hint'; }, 10);</script>"
    )
    exec(example, {"html_text": html_text})
    assert "race on #q.value" in capsys.readouterr().out
