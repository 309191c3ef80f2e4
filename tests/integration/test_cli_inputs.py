"""Every CLI input survives arbitrary bytes: exit 0, 1 or 2, no traceback.

Each case writes one byte string — empty, not UTF-8, random text, or a
JSON value built from the keys the file format uses — as one input of
one command, then runs ``main(argv)`` in-process.  The command must
return 0, 1 or 2 without raising, and status 2 must come with exactly one
stderr line ``error: …``; bytes that are not UTF-8 must exit 2 naming
the file.  Status 1 means "harmful race found", so an uncaught exception
(which a real process reports as status 1) must never stand in for an
input error.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.__main__ import main

#: A page whose script is the resource ``x.js``, so fuzzed resource bytes
#: reach the JS front end once they decode.
SCRIPT_PAGE = b'<div id="d"></div><script src="x.js"></script>'

#: input kind -> (file the bytes are written to, command line); ``{d}``
#: is the case's directory, which also holds ``SCRIPT_PAGE`` as
#: ``page.html`` and ``pages/page.html``.
CASES = {
    "check-page": ("page.html", "check {d}/page.html"),
    "explore-page": ("page.html", "explore {d}/page.html --schedules 2"),
    "predict-page": ("page.html", "predict {d}/page.html --budget 1"),
    "explore-sibling": ("pages/x.js", "explore {d}/pages --schedules 2"),
    "check-har": ("capture.har", "check {d}/capture.har"),
    "check-resource": ("x.js", "check {d}/page.html --resource x.js={d}/x.js"),
    "analyze-trace": ("trace.json", "analyze {d}/trace.json"),
    "explain-trace": ("trace.json", "explain {d}/trace.json"),
    "history-ledger": ("ledger/ledger.jsonl", "history --ledger {d}/ledger"),
    "diff-ledger": (
        "ledger/ledger.jsonl", "diff --against last --ledger {d}/ledger"
    ),
}

#: Keys of the HAR, trace and run-record formats, so generated JSON gets
#: past the loaders' first shape checks.
FORMAT_KEYS = (
    "log", "entries", "request", "response", "url", "content", "text",
    "mimeType", "size", "bodySize", "status", "version", "operations",
    "edges", "accesses", "crashes", "op_id", "kind", "format", "run_id",
    "command", "races",
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(FORMAT_KEYS), children, max_size=4),
    max_leaves=12,
)

payloads = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=64).map(str.encode),
    json_values.map(lambda value: json.dumps(value).encode()),
)


def run_cli(argv):
    """``main(argv)`` with captured output: ``(status, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind", sorted(CASES))
@settings(max_examples=12, deadline=None)
@example(data=b"")
@example(data=b"\xff\xfe<p>")
@given(data=payloads)
def test_any_bytes_exit_cleanly(kind, data):
    target, command = CASES[kind]
    with tempfile.TemporaryDirectory() as directory:
        os.makedirs(os.path.join(directory, "pages"))
        os.makedirs(os.path.join(directory, "ledger"))
        for page in ("page.html", "pages/page.html"):
            with open(os.path.join(directory, page), "wb") as handle:
                handle.write(SCRIPT_PAGE)
        with open(os.path.join(directory, target), "wb") as handle:
            handle.write(data)
        status, _out, err = run_cli(
            [arg.format(d=directory) for arg in command.split()]
        )
    assert status in (0, 1, 2)
    if status == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert status == 2
        assert "not UTF-8" in err and os.path.basename(target) in err, err


def test_check_missing_page(tmp_path):
    missing = tmp_path / "missing.html"
    status, _out, err = run_cli(["check", str(missing)])
    assert status == 2
    assert err == f"error: cannot read page '{missing}': No such file or directory\n"


def test_check_directory(tmp_path):
    status, _out, err = run_cli(["check", str(tmp_path)])
    assert status == 2
    assert err == f"error: check takes one page; '{tmp_path}' is a directory\n"


@pytest.mark.parametrize(
    "entry",
    [
        {"request": {"url": "https://a.example/"}, "response": [1]},
        {
            "request": {"url": "https://a.example/"},
            "response": {"content": {"size": float("inf")}},
        },
    ],
    ids=["response-not-an-object", "infinite-size"],
)
def test_odd_har_entries_load(entry, tmp_path):
    """A HAR entry whose response is not an object, or whose size is
    JSON ``Infinity``, loads with default fields instead of raising."""
    har = tmp_path / "odd.har"
    har.write_text(json.dumps({"log": {"entries": [entry]}}))
    status, _out, err = run_cli(["check", str(har)])
    assert (status, err) == (0, "")
