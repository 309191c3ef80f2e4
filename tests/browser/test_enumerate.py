"""Tests for systematic schedule enumeration."""

import pathlib

import pytest

from repro.browser.enumerate import ScheduleEnumerator
from repro.browser.event_loop import EventLoop, Task
from repro.browser.scheduler import DecisionScheduler, FifoScheduler
from repro.config import RunConfig
from repro.schedule_runner import (
    PageInput,
    ScheduleSpec,
    enumerate_page_schedules,
    load_page_inputs,
    run_page_once,
    run_page_schedule,
)

EXAMPLE_PAGES = load_page_inputs(
    str(pathlib.Path(__file__).resolve().parents[2] / "examples" / "pages")
)

#: What the oracle enumerates: the page load, without auto-explored events.
LOAD_ONLY = RunConfig(explore=False, eager=False)

FIG4 = PageInput(
    url="fig4.html",
    html="""
    <iframe id="i" src="sub.html" onload="setTimeout('doNextStep()', 6)"></iframe>
    <script src="steps.js"></script>
    """,
    resources={
        "sub.html": "<div></div>",
        "steps.js": "function doNextStep() { window.stepDone = true; }",
    },
)


def crash_kinds(page):
    return tuple(sorted({crash.kind for crash in page.trace.crashes}))


def make_task(seq, label):
    return Task(action=lambda: None, ready_time=0.0, label=label, seq=seq)


class TestDecisionScheduler:
    """The scheduler of an enumeration path: a pick prefix, then FIFO."""

    def test_single_candidate_is_no_divergence(self):
        scheduler = DecisionScheduler(FifoScheduler())
        task = make_task(0, "only")
        assert scheduler.pick([task]) is task
        assert (scheduler.picks, scheduler.divergences) == ([0], [])

    def test_fifo_fallback(self):
        scheduler = DecisionScheduler(FifoScheduler())
        tasks = [make_task(1, "b"), make_task(0, "a")]
        assert scheduler.pick(tasks).label == "a"
        assert (scheduler.picks, scheduler.divergences) == ([0], [])

    def test_follows_decisions(self):
        scheduler = DecisionScheduler(FifoScheduler(), follow=[1])
        tasks = [make_task(0, "a"), make_task(1, "b")]
        assert scheduler.pick(tasks).label == "b"
        assert (scheduler.picks, scheduler.divergences) == ([1], [0])
        # Past the prefix the fallback decides.
        assert scheduler.pick(tasks).label == "a"


class TestEnumeratorMechanics:
    def test_deterministic_run_is_single_schedule(self):
        """No branching points -> exactly one schedule explored."""

        def run(scheduler):
            loop = EventLoop(scheduler=scheduler)
            order = []
            loop.post(lambda: order.append(1), delay=1)
            loop.post(lambda: order.append(2), delay=2)
            loop.run()
            return tuple(order)

        enumerator = ScheduleEnumerator(run)
        outcomes = enumerator.explore()
        assert len(outcomes) == 1
        assert enumerator.exhausted

    def test_two_way_tie_gives_two_schedules(self):
        def run(scheduler):
            loop = EventLoop(scheduler=scheduler)
            order = []
            loop.post(lambda: order.append("a"), delay=1)
            loop.post(lambda: order.append("b"), delay=1)
            loop.run()
            return tuple(order)

        enumerator = ScheduleEnumerator(run)
        outcomes = enumerator.explore()
        results = {outcome.result for outcome in outcomes}
        assert results == {("a", "b"), ("b", "a")}

    def test_three_way_tie_gives_six_schedules(self):
        def run(scheduler):
            loop = EventLoop(scheduler=scheduler)
            order = []
            for name in ("a", "b", "c"):
                loop.post(lambda n=name: order.append(n), delay=1)
            loop.run()
            return tuple(order)

        enumerator = ScheduleEnumerator(run, max_runs=100)
        outcomes = enumerator.explore()
        assert len({outcome.result for outcome in outcomes}) == 6
        assert enumerator.exhausted

    def test_budget_respected(self):
        def run(scheduler):
            loop = EventLoop(scheduler=scheduler)
            for index in range(6):
                loop.post(lambda: None, delay=1)
            loop.run()
            return None

        enumerator = ScheduleEnumerator(run, max_runs=10)
        outcomes = enumerator.explore()
        assert len(outcomes) <= 10
        assert not enumerator.exhausted

    def test_histogram(self):
        def run(scheduler):
            loop = EventLoop(scheduler=scheduler)
            order = []
            loop.post(lambda: order.append("a"), delay=1)
            loop.post(lambda: order.append("b"), delay=1)
            loop.run()
            return order[0]

        enumerator = ScheduleEnumerator(run)
        enumerator.explore()
        histogram = enumerator.distinct_results()
        assert set(histogram) == {"a", "b"}


class TestPageEnumeration:
    def test_fig4_crash_found_exhaustively(self):
        """Some interleaving of the Fig. 4 page crashes; enumeration finds
        it without seed luck."""
        enumerator = enumerate_page_schedules(
            FIG4, LOAD_ONLY, extract=crash_kinds, max_runs=60
        )
        results = set(enumerator.distinct_results())
        assert ("ReferenceError",) in results, results
        assert () in results  # and some schedules pass

    def test_race_free_page_has_one_outcome(self):
        enumerator = enumerate_page_schedules(
            PageInput("free.html", "<div></div><script>x = 1;</script><p></p>"),
            LOAD_ONLY,
            max_runs=30,
        )
        assert len(enumerator.distinct_results()) == 1


class TestOneRunAuthority:
    """Enumeration paths are ordinary runs: they compare with explore's
    cells and replay through the same run path."""

    @pytest.mark.parametrize(
        "page", EXAMPLE_PAGES, ids=lambda page: pathlib.Path(page.url).name
    )
    def test_first_path_is_the_explore_fifo_cell(self, page):
        config = RunConfig(seed=3, network="connection")
        enumerator = enumerate_page_schedules(page, config, max_runs=1)
        cell = run_page_schedule(
            page, ScheduleSpec("fifo", "fifo"), config, verify_replay=False
        )
        assert list(enumerator.outcomes[0].picks) == cell.trace().picks

    def test_paths_see_the_network_model(self):
        """Under ``tie_window=inf`` FIFO picks ignore ready times, so equal
        picks cannot show the network model reached the run; the virtual
        end time does (the HAR capture's 1.2 MB catalog)."""
        [shop] = [page for page in EXAMPLE_PAGES if page.url.endswith(".har")]

        def end_time(network):
            enumerator = enumerate_page_schedules(
                shop,
                RunConfig(network=network),
                extract=lambda page: page.loop.clock.now,
                max_runs=1,
            )
            return enumerator.outcomes[0].result

        assert end_time("uniform") < 700  # everything inside max latency
        assert end_time("connection") > 800  # catalog transfer dominates

    def test_fig4_outcomes_replay_strictly(self):
        enumerator = enumerate_page_schedules(FIG4, LOAD_ONLY, extract=crash_kinds)
        assert enumerator.exhausted
        for outcome in enumerator.outcomes:
            page = run_page_once(
                FIG4, DecisionScheduler(follow=outcome.picks), LOAD_ONLY
            )
            assert crash_kinds(page) == outcome.result
