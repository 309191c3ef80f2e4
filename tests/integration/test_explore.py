"""Integration tests for multi-schedule exploration (`repro explore`)."""

import itertools
import json
from collections import Counter

import pytest

from repro import schedule_runner
from repro.__main__ import main
from repro.browser.instrument import Monitor
from repro.browser.scheduler import DecisionScheduler, ScheduleTrace
from repro.config import RunConfig
from repro.core.access import READ
from repro.core.detector import RaceDetector
from repro.core.locations import VarLocation
from repro.explain.schedule_report import (
    EXPLORE_FORMAT_NAME,
    assemble_explore_document,
)
from repro.explain.schema import validate_explore_report
from repro.inputs import InputError
from repro.obs import Instrumentation
from repro.schedule_runner import (
    PageInput,
    ScheduleSpec,
    explore_pages,
    load_page_inputs,
    minimize_schedule,
    replay_run,
    run_page_schedule,
    schedule_matrix,
)
from repro.webracer import WebRacer

# The paper's Section 2.3 hidden-crash mechanism, which is what makes
# races *schedule-sensitive*: boot.js calls initWidget() eagerly, which
# crashes (and hides boot.js's later statements) in exactly the schedules
# where the async lib.js has not arrived yet.
POLL_HTML = """<html><body>
<div id="status">loading</div>
<input type="text" id="q" />
<script>
var inited = 0;
var poll = setInterval('if (window.libReady) { clearInterval(poll); initWidget(); }', 4);
</script>
<script src="lib.js" async></script>
<script src="boot.js"></script>
</body></html>"""

POLL_RESOURCES = {
    "lib.js": (
        "function initWidget() { inited = inited + 1; "
        "document.getElementById('status').innerHTML = 'ready'; }\n"
        "window.libReady = true;\n"
    ),
    "boot.js": (
        "initWidget();\n"
        "document.getElementById('status').innerHTML = 'booted';\n"
        "inited = 100;\n"
    ),
}


@pytest.fixture
def poll_page():
    return PageInput(url="poll.html", html=POLL_HTML, resources=dict(POLL_RESOURCES))


@pytest.fixture
def pages_dir(tmp_path):
    pages = tmp_path / "pages"
    pages.mkdir()
    (pages / "poll.html").write_text(POLL_HTML)
    for name, content in POLL_RESOURCES.items():
        (pages / name).write_text(content)
    return pages


class TestScheduleMatrix:
    def test_width_one_is_fifo_only(self):
        assert [spec.sid for spec in schedule_matrix(1)] == ["fifo"]

    def test_default_width(self):
        sids = [spec.sid for spec in schedule_matrix(8, seed=0)]
        assert sids == [
            "fifo", "adversarial",
            "random-0", "random-1", "random-2",
            "random-3", "random-4", "random-5",
        ]

    def test_random_seeds_derive_from_master_seed(self):
        a = schedule_matrix(5, seed=0)
        b = schedule_matrix(5, seed=1)
        assert [s.seed for s in a[2:]] != [s.seed for s in b[2:]]

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            schedule_matrix(0)


class TestLoadPageInputs:
    def test_directory_mode(self, pages_dir):
        pages = load_page_inputs(str(pages_dir))
        assert [p.url.endswith("poll.html") for p in pages] == [True]
        assert set(pages[0].resources) == {"lib.js", "boot.js"}

    def test_single_file_mode(self, pages_dir):
        pages = load_page_inputs(str(pages_dir / "poll.html"))
        assert len(pages) == 1
        assert pages[0].resources == {}

    def test_missing_path(self):
        with pytest.raises(InputError):
            load_page_inputs("/nonexistent/nowhere")

    def test_subdirectory_named_like_a_page_is_skipped(self, pages_dir):
        (pages_dir / "archive.html").mkdir()
        pages = load_page_inputs(str(pages_dir))
        assert [p.url.endswith("poll.html") for p in pages] == [True]


class TestExplorePages:
    def test_matrix_finds_schedule_sensitive_races(self, poll_page):
        report = explore_pages([poll_page], schedules=8, seed=0)
        assert report.sensitive_count() >= 1
        merged = report.pages[0]
        sensitive = merged.schedule_sensitive()
        # Every sensitive race names a proper subset of the OK schedules.
        ok = sum(1 for run in merged.runs if run.ok)
        for race in sensitive:
            assert 0 < len(race["witnesses"]) < ok

    def test_exploration_beats_plain_fifo(self, poll_page):
        """The acceptance property: the matrix union contains fingerprints
        a single FIFO run cannot see."""
        report = explore_pages([poll_page], schedules=8, seed=0)
        fifo_run = next(
            run for run in report.pages[0].runs if run.sid == "fifo"
        )
        union = {race["fingerprint"] for race in report.pages[0].races}
        assert union - set(fifo_run.fingerprints)

    def test_every_run_replay_verified(self, poll_page):
        report = explore_pages([poll_page], schedules=6, seed=0)
        for run in report.pages[0].runs:
            assert run.ok and run.replay_ok is True

    def test_deterministic_across_calls(self, poll_page):
        doc1 = assemble_explore_document(
            explore_pages([poll_page], schedules=6, seed=0)
        )
        doc2 = assemble_explore_document(
            explore_pages([poll_page], schedules=6, seed=0)
        )
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)

    def test_parallel_matches_sequential(self, poll_page):
        sequential = assemble_explore_document(
            explore_pages([poll_page], schedules=6, seed=0, jobs=1)
        )
        parallel = assemble_explore_document(
            explore_pages([poll_page], schedules=6, seed=0, jobs=3)
        )
        assert json.dumps(sequential, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_crash_isolation(self):
        bad = PageInput(url="bad.html", html=None, resources={})  # type: ignore
        report = explore_pages([bad], schedules=2, seed=0)
        assert all(not run.ok for run in report.pages[0].runs)
        assert report.pages[0].races == []

    def test_document_validates(self, poll_page):
        document = assemble_explore_document(
            explore_pages([poll_page], schedules=4, seed=0)
        )
        validate_explore_report(document)
        assert document["format"] == EXPLORE_FORMAT_NAME

    def test_schema_rejects_a_malformed_run(self, poll_page):
        document = assemble_explore_document(
            explore_pages([poll_page], schedules=2, seed=0)
        )
        document["pages"][0]["runs"][0]["replay_ok"] = "yes"
        with pytest.raises(ValueError, match=r"runs\[0\]\.replay_ok"):
            validate_explore_report(document)


class TestTraceReplayFromDisk:
    def test_saved_trace_replays_to_same_fingerprints(self, poll_page, tmp_path):
        spec = ScheduleSpec("random-0", "random", 12345)
        result = run_page_schedule(
            poll_page, spec, RunConfig(seed=0), verify_replay=False
        )
        assert result.ok
        path = str(tmp_path / "trace.json")
        result.trace().save(path)
        loaded = ScheduleTrace.load(path)
        assert replay_run(poll_page, loaded, RunConfig(seed=0)) == result.fingerprints


@pytest.fixture
def one_extra_access(monkeypatch):
    """Runs whose monitor is the n-th built, for each n added to the
    returned set, record one extra read right after their first access,
    of a location nothing else touches: a drift no race can see."""
    drifting = set()
    built = itertools.count()
    init, record = Monitor.__init__, Monitor.record

    def numbered_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.drifts = next(built) in drifting

    def drifting_record(self, kind, key, bits=0, detail=None):
        row = record(self, kind, key, bits, detail)
        if row == 0 and self.drifts:
            record(self, READ, (VarLocation, -1, "drift"))
        return row

    monkeypatch.setattr(Monitor, "__init__", numbered_init)
    monkeypatch.setattr(Monitor, "record", drifting_record)
    return drifting


class TestReplayVerification:
    """``replay_ok`` is trace identity: a replay passes only when it
    records the recorded run's trace again, and it does not detect."""

    FIFO = ScheduleSpec("fifo", "fifo")

    def test_drift_no_race_touches_fails_the_replay(
        self, poll_page, one_extra_access
    ):
        one_extra_access.add(1)  # the replay; monitor 0 records
        result = run_page_schedule(poll_page, self.FIFO, RunConfig(seed=0))
        assert result.ok and result.fingerprints
        assert result.replay_ok is False
        # The same drift in a detected replay leaves every fingerprint
        # as recorded, so comparing fingerprints could not have caught it.
        one_extra_access.add(2)
        assert (
            replay_run(poll_page, result.trace(), RunConfig(seed=0))
            == result.fingerprints
        )

    def test_verified_replay_does_not_detect(self, poll_page, monkeypatch):
        calls = Counter()
        replaying = []
        replay = schedule_runner.replay_reproduces

        def marked_replay(*args, **kwargs):
            replaying.append(True)
            try:
                return replay(*args, **kwargs)
            finally:
                replaying.pop()

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name, bool(replaying)] += 1
                return method(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(schedule_runner, "replay_reproduces", marked_replay)
        monkeypatch.setattr(
            RaceDetector, "on_access", counted("on_access", RaceDetector.on_access)
        )
        monkeypatch.setattr(
            WebRacer, "report_for", counted("report_for", WebRacer.report_for)
        )
        result = run_page_schedule(poll_page, self.FIFO, RunConfig(seed=0))
        assert result.replay_ok is True
        assert calls["on_access", False] > 0 and calls["report_for", False] == 1
        assert calls["on_access", True] == calls["report_for", True] == 0

    def test_divergence_fails_the_replay(self, poll_page, monkeypatch):
        trace = DecisionScheduler.trace

        def unreadable(self, **fields):
            recorded = trace(self, **fields)
            recorded.picks.insert(0, -1)  # no task ever has seq -1
            return recorded

        monkeypatch.setattr(DecisionScheduler, "trace", unreadable)
        obs = Instrumentation()
        result = run_page_schedule(poll_page, self.FIFO, RunConfig(seed=0), obs=obs)
        assert result.ok and result.replay_ok is False
        assert obs.counter("explore.replay_diverged") == 1
        assert obs.counter("explore.replay_mismatched") == 0

    def test_replay_run_returns_the_recorded_fingerprints(self, poll_page):
        report = explore_pages([poll_page], schedules=8, seed=0)
        for run in report.pages[0].runs:
            assert run.replay_ok is True
            replayed = replay_run(poll_page, run.trace(), RunConfig(seed=0))
            assert replayed == sorted(replayed) == run.fingerprints


class TestMinimization:
    def test_minimize_sensitive_race(self, poll_page):
        report = explore_pages([poll_page], schedules=8, seed=0)
        sensitive = report.pages[0].schedule_sensitive()
        assert sensitive
        target = sensitive[0]["fingerprint"]
        _page, run, _fingerprint = report.find_witness(target)
        outcome = minimize_schedule(
            poll_page, run.trace(), target, RunConfig(seed=0)
        )
        assert outcome.minimized_divergences <= outcome.original_divergences
        # The minimized trace stands on its own: replaying it still
        # reproduces the target fingerprint.
        assert target in replay_run(poll_page, outcome.minimized, RunConfig(seed=0))

    def test_minimize_unreproducible_fingerprint_raises(self, poll_page):
        spec = ScheduleSpec("fifo", "fifo")
        result = run_page_schedule(
            poll_page, spec, RunConfig(seed=0), verify_replay=False
        )
        with pytest.raises(ValueError, match="does not reproduce"):
            minimize_schedule(
                poll_page, result.trace(), "0" * 16, RunConfig(seed=0)
            )


class TestExploreCli:
    def test_end_to_end(self, pages_dir, tmp_path, capsys):
        out_json = tmp_path / "explore.json"
        traces = tmp_path / "traces"
        status = main([
            "explore", str(pages_dir), "--schedules", "6", "--seed", "0",
            "--json", str(out_json), "--traces-dir", str(traces),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "schedule-sensitive" in out
        document = json.loads(out_json.read_text())
        validate_explore_report(document)
        assert document["totals"]["races_schedule_sensitive"] >= 1
        saved = sorted(p.name for p in traces.iterdir())
        assert len(saved) == 6  # one trace per schedule for the one page
        ScheduleTrace.load(str(traces / saved[0]))

    def test_byte_identical_json(self, pages_dir, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["explore", str(pages_dir), "--schedules", "4", "--json", str(first)])
        main(["explore", str(pages_dir), "--schedules", "4", "--json", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_minimize_flag(self, pages_dir, tmp_path, capsys):
        out_json = tmp_path / "explore.json"
        status = main([
            "explore", str(pages_dir), "--schedules", "6",
            "--json", str(out_json),
        ])
        assert status == 0
        document = json.loads(out_json.read_text())
        sensitive = [
            race
            for page in document["pages"]
            for race in page["races"]
            if not race["stable"]
        ]
        capsys.readouterr()
        target = sensitive[0]["fingerprint"]
        status = main([
            "explore", str(pages_dir), "--schedules", "6", "--minimize", target,
        ])
        assert status == 0
        assert f"minimized {target}" in capsys.readouterr().out

    def test_minimize_unknown_fingerprint_exits_2(self, pages_dir, capsys):
        status = main([
            "explore", str(pages_dir), "--schedules", "2",
            "--minimize", "f" * 16,
        ])
        assert status == 2
        err = capsys.readouterr().err
        assert "not witnessed" in err
        assert len(err.strip().splitlines()) == 1  # one-line diagnostic

    def test_minimize_ambiguous_prefix_exits_2(self, pages_dir, capsys):
        """A prefix several witnessed fingerprints share names no race in
        particular: exit 2 naming the matches instead of minimizing the
        first one found."""
        status = main([
            "explore", str(pages_dir), "--schedules", "8", "--minimize", "7",
        ])
        assert status == 2
        captured = capsys.readouterr()
        [line] = captured.err.strip().splitlines()
        assert line.startswith("error: ")
        assert "matches 2 fingerprints (7448164d1285f269, 7829429f02d9fbde)" in line
        assert "minimized" not in captured.out

    def test_minimize_unknown_fingerprint_exits_2_with_jobs(
        self, pages_dir, capsys
    ):
        """The parallel matrix path must apply the same guard — exit 2
        with a one-line stderr, no traceback, no partial artifacts."""
        status = main([
            "explore", str(pages_dir), "--schedules", "2", "--jobs", "2",
            "--minimize", "f" * 16,
        ])
        assert status == 2
        err = capsys.readouterr().err
        assert "not witnessed" in err
        assert len(err.strip().splitlines()) == 1

    def test_minimize_empty_fingerprint_exits_2(self, pages_dir, capsys):
        """An empty --minimize used to be silently ignored (falsy check);
        worse, an empty string prefix-matches every witnessed fingerprint.
        It must be rejected up front."""
        status = main([
            "explore", str(pages_dir), "--schedules", "2", "--minimize", "",
        ])
        assert status == 2
        assert "non-empty" in capsys.readouterr().err

    def test_bad_schedules_flag_exits_2(self, pages_dir, capsys):
        assert main(["explore", str(pages_dir), "--schedules", "0"]) == 2

    def test_missing_path_exits_2(self, capsys):
        assert main(["explore", "/nonexistent/pages"]) == 2


class TestSchedulerFlags:
    def test_schedule_seed_requires_random(self, pages_dir, capsys):
        page = pages_dir / "poll.html"
        status = main(["check", str(page), "--schedule-seed", "3"])
        assert status == 2
        assert "--scheduler random" in capsys.readouterr().err

    def test_schedule_seed_with_random_accepted(self, pages_dir, capsys):
        page = pages_dir / "poll.html"
        status = main([
            "check", str(page), "--scheduler", "random", "--schedule-seed", "3",
        ])
        assert status in (0, 1)

    def test_corpus_rejects_schedule_seed_without_random(self, capsys):
        status = main(["corpus", "--sites", "1", "--schedule-seed", "9"])
        assert status == 2

    def test_adversarial_scheduler_on_check(self, pages_dir, capsys):
        page = pages_dir / "poll.html"
        status = main(["check", str(page), "--scheduler", "adversarial"])
        assert status in (0, 1)
