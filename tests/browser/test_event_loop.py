"""Tests for the virtual clock, event loop, and schedulers."""

import pytest

from repro.browser.clock import VirtualClock
from repro.browser.event_loop import EventLoop
from repro.browser.scheduler import (
    AdversarialScheduler,
    FifoScheduler,
    SeededRandomScheduler,
    make_scheduler,
)


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_never_goes_backwards(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0


class TestEventLoop:
    def test_runs_tasks_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.post(lambda: order.append("late"), delay=10)
        loop.post(lambda: order.append("early"), delay=1)
        loop.run()
        assert order == ["early", "late"]

    def test_clock_advances_to_task_time(self):
        loop = EventLoop()
        times = []
        loop.post(lambda: times.append(loop.clock.now), delay=7.5)
        loop.run()
        assert times == [7.5]

    def test_fifo_breaks_ties_by_enqueue_order(self):
        loop = EventLoop()
        order = []
        loop.post(lambda: order.append(1), delay=5)
        loop.post(lambda: order.append(2), delay=5)
        loop.run()
        assert order == [1, 2]

    def test_tasks_can_post_tasks(self):
        loop = EventLoop()
        order = []

        def outer():
            order.append("outer")
            loop.post(lambda: order.append("inner"), delay=1)

        loop.post(outer)
        loop.run()
        assert order == ["outer", "inner"]

    def test_cancelled_task_skipped(self):
        loop = EventLoop()
        ran = []
        task = loop.post(lambda: ran.append(1))
        task.cancel()
        loop.run()
        assert ran == []

    def test_run_returns_executed_count(self):
        loop = EventLoop()
        loop.post(lambda: None)
        loop.post(lambda: None)
        assert loop.run() == 2

    def test_run_until_predicate(self):
        loop = EventLoop()
        order = []
        loop.post(lambda: order.append(1), delay=1)
        loop.post(lambda: order.append(2), delay=2)
        loop.run(until=lambda: len(order) >= 1)
        assert order == [1]

    def test_run_for_duration(self):
        loop = EventLoop()
        order = []
        loop.post(lambda: order.append("in"), delay=5)
        loop.post(lambda: order.append("out"), delay=50)
        loop.run_for(10)
        assert order == ["in"]
        assert loop.pending() == 1

    def test_max_tasks_guard(self):
        loop = EventLoop()
        loop.max_tasks = 10

        def respawn():
            loop.post(respawn)

        loop.post(respawn)
        with pytest.raises(RuntimeError):
            loop.run()


class TestSchedulers:
    def test_factory(self):
        assert isinstance(make_scheduler("fifo"), FifoScheduler)
        assert isinstance(make_scheduler("random"), SeededRandomScheduler)
        assert isinstance(make_scheduler("adversarial"), AdversarialScheduler)
        with pytest.raises(ValueError):
            make_scheduler("bogus")

    def test_seeded_random_is_deterministic(self):
        def run_with(seed):
            loop = EventLoop(scheduler=SeededRandomScheduler(seed))
            order = []
            for index in range(10):
                loop.post(lambda i=index: order.append(i), delay=1.0)
            loop.run()
            return order

        assert run_with(3) == run_with(3)

    def test_seeded_random_varies_with_seed(self):
        def run_with(seed):
            loop = EventLoop(scheduler=SeededRandomScheduler(seed))
            order = []
            for index in range(10):
                loop.post(lambda i=index: order.append(i), delay=1.0)
            loop.run()
            return order

        results = {tuple(run_with(seed)) for seed in range(8)}
        assert len(results) > 1

    def test_adversarial_prefers_user_tasks(self):
        loop = EventLoop(scheduler=AdversarialScheduler())
        order = []
        loop.post(lambda: order.append("parse"), delay=1.0, kind="parse")
        loop.post(lambda: order.append("user"), delay=1.0, kind="user")
        loop.run()
        assert order == ["user", "parse"]

    def test_adversarial_never_reorders_time(self):
        loop = EventLoop(scheduler=AdversarialScheduler())
        order = []
        loop.post(lambda: order.append("parse-early"), delay=1.0, kind="parse")
        loop.post(lambda: order.append("user-late"), delay=5.0, kind="user")
        loop.run()
        assert order == ["parse-early", "user-late"]


class TestCancelledTaskPruning:
    """Pin the leak fix: cancelled tasks must not pile up in the queue."""

    def test_cancelled_tasks_are_pruned_on_step(self):
        loop = EventLoop()
        doomed = [loop.post(lambda: None, delay=50.0 + i) for i in range(100)]
        for task in doomed:
            task.cancel()
        loop.post(lambda: None, delay=1.0)
        assert loop.step()
        assert len(loop._tasks) == 0

    def test_task_list_bounded_under_timer_churn(self):
        """A page that keeps re-arming a watchdog timer (post + cancel on
        every tick) must not grow the queue linearly in tick count."""
        loop = EventLoop()
        peak = {"tasks": 0}
        state = {"watchdog": None, "rounds": 0}

        def tick():
            if state["watchdog"] is not None:
                state["watchdog"].cancel()
            state["watchdog"] = loop.post(lambda: None, delay=10000.0)
            state["rounds"] += 1
            peak["tasks"] = max(peak["tasks"], len(loop._tasks))
            if state["rounds"] < 300:
                loop.post(tick, delay=1.0)

        loop.post(tick, delay=1.0)
        loop.run()
        assert state["rounds"] == 300
        # Without pruning the peak is ~300 (one dead watchdog per round).
        assert peak["tasks"] <= 4

    def test_cancelled_task_never_runs_after_prune(self):
        loop = EventLoop()
        fired = []
        victim = loop.post(lambda: fired.append("victim"), delay=5.0)
        loop.post(lambda: fired.append("ok"), delay=1.0)
        victim.cancel()
        loop.run()
        assert fired == ["ok"]
