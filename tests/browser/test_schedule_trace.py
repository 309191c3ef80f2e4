"""Tests for schedule record/replay (ScheduleTrace and DecisionScheduler).

The scheduler test classes are named for the roles DecisionScheduler
plays: recording (a policy fallback), strict replay (no fallback) and
ddmin's divergence-subset replay (kept divergences over a FIFO fallback).
"""

import pytest

from repro.browser.event_loop import EventLoop, ScheduleDivergence
from repro.browser.page import Browser
from repro.browser.scheduler import (
    DecisionScheduler,
    FifoScheduler,
    ScheduleTrace,
    SeededRandomScheduler,
    derive_page_seed,
)
from repro.webracer import WebRacer

INF = float("inf")


def replaying(trace):
    """Strict replay of ``trace``."""
    return DecisionScheduler(follow=trace.picks)


def keeping(trace, keep):
    """ddmin's partial replay: ``trace``'s picks at ``keep``, FIFO elsewhere."""
    return DecisionScheduler(FifoScheduler(), {step: trace.picks[step] for step in keep})


def run_loop(scheduler, tasks=6):
    """Drain a loop of `tasks` simultaneous tasks; returns execution order."""
    loop = EventLoop(scheduler=scheduler, tie_window=INF)
    order = []
    for index in range(tasks):
        loop.post(
            lambda index=index: order.append(index),
            delay=float(index % 3),
            kind="timer" if index % 2 else "task",
            label=f"t{index}",
        )
    loop.run()
    return order


class TestScheduleTrace:
    def test_dict_round_trip(self):
        trace = ScheduleTrace(
            policy="random", seed=7, page="p.html", tie_window=INF,
            picks=[0, 2, 1], divergences=[1],
        )
        again = ScheduleTrace.from_dict(trace.to_dict())
        assert again == trace
        assert again.tie_window == INF

    def test_save_load(self, tmp_path):
        trace = ScheduleTrace(policy="fifo", picks=[0, 1, 2])
        path = str(tmp_path / "trace.json")
        trace.save(path)
        assert ScheduleTrace.load(path) == trace

    def test_rejects_foreign_format(self):
        with pytest.raises(ValueError, match="not a schedule trace"):
            ScheduleTrace.from_dict({"format": "something-else", "version": 1})

    def test_rejects_unknown_version(self):
        payload = ScheduleTrace().to_dict()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ScheduleTrace.from_dict(payload)


class TestRecordingScheduler:
    def test_records_every_pick(self):
        recorder = DecisionScheduler(FifoScheduler())
        order = run_loop(recorder)
        # tie_window=inf offers every pending task; FIFO picks enqueue order.
        assert order == [0, 1, 2, 3, 4, 5]
        assert len(recorder.picks) == 6
        assert recorder.divergences == []  # FIFO never diverges from FIFO

    def test_records_divergences_of_random_policy(self):
        recorder = DecisionScheduler(SeededRandomScheduler(3))
        run_loop(recorder)
        # Any non-FIFO pick among >1 candidates must be indexed.
        assert recorder.divergences
        for index in recorder.divergences:
            assert 0 <= index < len(recorder.picks)

    def test_trace_packaging(self):
        recorder = DecisionScheduler(SeededRandomScheduler(5))
        run_loop(recorder)
        trace = recorder.trace(policy="random", seed=5, page="x", tie_window=INF)
        assert trace.picks == recorder.picks
        assert trace.divergences == recorder.divergences
        assert (trace.policy, trace.seed, trace.page) == ("random", 5, "x")

    def test_recording_is_pure_observation(self):
        assert run_loop(DecisionScheduler(SeededRandomScheduler(9))) == run_loop(
            SeededRandomScheduler(9)
        )


class TestReplayScheduler:
    @pytest.mark.parametrize("seed", range(6))
    def test_replay_reproduces_loop_order(self, seed):
        recorder = DecisionScheduler(SeededRandomScheduler(seed))
        original = run_loop(recorder)
        replayed = run_loop(replaying(recorder.trace()))
        assert replayed == original

    def test_exhausted_trace_diverges(self):
        recorder = DecisionScheduler(FifoScheduler())
        run_loop(recorder)
        trace = recorder.trace()
        trace.picks = trace.picks[:3]
        with pytest.raises(ScheduleDivergence, match="exhausted"):
            run_loop(replaying(trace))

    def test_unknown_seq_diverges(self):
        recorder = DecisionScheduler(FifoScheduler())
        run_loop(recorder)
        trace = recorder.trace()
        trace.picks[0] = 99
        with pytest.raises(ScheduleDivergence, match="seq 99"):
            run_loop(replaying(trace))


class TestDivergenceScheduler:
    def test_full_keep_reproduces_recorded_order(self):
        recorder = DecisionScheduler(SeededRandomScheduler(4))
        original = run_loop(recorder)
        trace = recorder.trace()
        assert run_loop(keeping(trace, trace.divergences)) == original

    def test_empty_keep_is_fifo(self):
        recorder = DecisionScheduler(SeededRandomScheduler(4))
        run_loop(recorder)
        assert run_loop(keeping(recorder.trace(), [])) == run_loop(
            FifoScheduler()
        )

    def test_applied_tracks_bound_divergences(self):
        recorder = DecisionScheduler(SeededRandomScheduler(4))
        run_loop(recorder)
        trace = recorder.trace()
        scheduler = keeping(trace, trace.divergences)
        run_loop(scheduler)
        # Every kept divergence bound to a ready task, so the partial
        # replay diverges from FIFO at exactly the kept steps.
        assert scheduler.divergences == trace.divergences


class TestPerPageDerivation:
    def test_for_page_is_position_independent(self):
        racer = WebRacer(seed=11, scheduler="random")
        # Page 1 gets the same schedule whether it is checked alone or
        # after page 0 (the bug: one shared random.Random across pages).
        run_loop(racer.scheduler_for_page(0))
        alone = WebRacer(seed=11, scheduler="random").scheduler_for_page(1)
        assert run_loop(racer.scheduler_for_page(1)) == run_loop(alone)

    def test_derive_page_seed_distinct(self):
        seeds = {derive_page_seed(0, index) for index in range(100)}
        assert len(seeds) == 100


# ----------------------------------------------------------------------
# browser-level replay: identical op stream, races and fingerprints


PAGE_HTML = """<html><body>
<div id="status">loading</div>
<input type="text" id="q" />
<script>
var inited = 0;
var poll = setInterval('if (window.libReady) { clearInterval(poll); initWidget(); }', 4);
</script>
<script src="lib.js" async></script>
<script src="boot.js"></script>
</body></html>"""

PAGE_RESOURCES = {
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


def run_page(scheduler):
    """One exploration-configured page run; returns comparable artifacts."""
    from repro.explain.fingerprint import race_fingerprint

    browser = Browser(
        seed=0, scheduler=scheduler, resources=dict(PAGE_RESOURCES),
        tie_window=INF,
    )
    page = browser.open(PAGE_HTML, url="page.html")
    page.auto_explore = True
    page.run()
    ops = [
        (op.kind, op.label)
        for op in page.trace.operations
    ]
    fingerprints = sorted(
        {race_fingerprint(race, page.trace) for race in page.races}
    )
    return ops, len(page.trace.accesses), fingerprints


class TestBrowserReplay:
    @pytest.mark.parametrize("seed", range(5))
    def test_replay_reproduces_run_exactly(self, seed):
        """The property the tentpole rests on: a recorded schedule replays
        to the identical operation stream, access count, races and
        fingerprints — for arbitrary random schedules."""
        recorder = DecisionScheduler(SeededRandomScheduler(seed))
        browser = Browser(
            seed=0, scheduler=recorder, resources=dict(PAGE_RESOURCES),
            tie_window=INF,
        )
        page = browser.open(PAGE_HTML, url="page.html")
        page.auto_explore = True
        page.run()
        from repro.explain.fingerprint import race_fingerprint

        original = (
            [(op.kind, op.label) for op in page.trace.operations],
            len(page.trace.accesses),
            sorted({race_fingerprint(race, page.trace) for race in page.races}),
        )
        trace = recorder.trace(policy="random", seed=seed, tie_window=INF)
        assert run_page(replaying(trace)) == original

    def test_different_seeds_really_explore(self):
        """Sanity: the matrix is not vacuous — some pair of seeds yields
        different interleavings on the polling page."""
        streams = {tuple(run_page(SeededRandomScheduler(seed))[0]) for seed in range(4)}
        assert len(streams) > 1
