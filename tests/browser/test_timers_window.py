"""Tests for the timer registry and Window objects."""

from repro.browser.event_loop import EventLoop
from repro.browser.timers import TimerRegistry
from repro.browser.window import Window
from repro.dom.document import Document


class TestTimerRegistry:
    def make(self):
        loop = EventLoop()
        return loop, TimerRegistry(loop)

    def test_timeout_fires_once(self):
        loop, timers = self.make()
        fired = []
        timers.set_timeout("cb", 5.0, creator_op=1, fire=lambda e: fired.append(e))
        loop.run()
        assert len(fired) == 1
        assert fired[0].creator_op == 1

    def test_timeout_delay(self):
        loop, timers = self.make()
        times = []
        timers.set_timeout("cb", 25.0, 1, lambda e: times.append(loop.clock.now))
        loop.run()
        assert times == [25.0]

    def test_negative_delay_clamped(self):
        loop, timers = self.make()
        fired = []
        timers.set_timeout("cb", -10.0, 1, lambda e: fired.append(1))
        loop.run()
        assert fired == [1]

    def test_interval_repeats_until_cap(self):
        loop, timers = self.make()
        fired = []
        timers.max_interval_fires = 7
        timers.set_interval("cb", 2.0, 1, lambda e: fired.append(e.fire_count))
        loop.run()
        assert fired == list(range(7))

    def test_clear_timeout_before_fire(self):
        loop, timers = self.make()
        fired = []
        timer_id = timers.set_timeout("cb", 5.0, 1, lambda e: fired.append(1))
        timers.clear(timer_id)
        loop.run()
        assert fired == []

    def test_clear_interval_mid_run(self):
        loop, timers = self.make()
        fired = []

        def fire(entry):
            fired.append(entry.fire_count)
            if entry.fire_count >= 2:
                timers.clear(entry.timer_id)

        timers.set_interval("cb", 2.0, 1, fire)
        loop.run()
        assert fired == [0, 1, 2]

    def test_clear_unknown_id_is_noop(self):
        _loop, timers = self.make()
        timers.clear(999)  # must not raise

    def test_ids_unique(self):
        loop, timers = self.make()
        a = timers.set_timeout("x", 1, 1, lambda e: None)
        b = timers.set_timeout("y", 1, 1, lambda e: None)
        assert a != b

    def test_pending_count(self):
        loop, timers = self.make()
        timers.set_timeout("x", 1, 1, lambda e: None)
        timers.set_timeout("y", 1, 1, lambda e: None)
        assert timers.pending_count() == 2
        loop.run()

    # -- entry pruning: cleared/exhausted timers must not accumulate ----

    def test_cleared_timer_pruned_from_entries(self):
        _loop, timers = self.make()
        timer_id = timers.set_timeout("cb", 5.0, 1, lambda e: None)
        assert timer_id in timers.entries
        timers.clear(timer_id)
        assert timer_id not in timers.entries

    def test_fired_timeout_pruned_from_entries(self):
        loop, timers = self.make()
        timer_id = timers.set_timeout("cb", 5.0, 1, lambda e: None)
        loop.run()
        assert timer_id not in timers.entries

    def test_exhausted_interval_pruned_from_entries(self):
        loop, timers = self.make()
        timers.max_interval_fires = 3
        timer_id = timers.set_interval("cb", 2.0, 1, lambda e: None)
        loop.run()
        assert timer_id not in timers.entries

    def test_interval_cleared_from_callback_pruned(self):
        loop, timers = self.make()

        def fire(entry):
            if entry.fire_count >= 1:
                timers.clear(entry.timer_id)

        timer_id = timers.set_interval("cb", 2.0, 1, fire)
        loop.run()
        assert timer_id not in timers.entries

    def test_entries_bounded_on_polling_page(self):
        """The Ford pattern: many short timers must not grow the registry."""
        loop, timers = self.make()
        for _ in range(50):
            timers.set_timeout("cb", 1.0, 1, lambda e: None)
        loop.run()
        assert timers.entries == {}


class TestWindow:
    def test_window_owns_document(self):
        document = Document("w.html")
        window = Window(document)
        assert window.document is document
        assert document.window is window

    def test_frame_tree(self):
        root = Window(Document("root.html"))
        child = Window(Document("child.html"), parent=root)
        grandchild = Window(Document("gc.html"), parent=child)
        assert root.frames == [child]
        assert child.frames == [grandchild]
        assert grandchild.top is root
        assert root.top is root

    def test_all_windows_preorder(self):
        root = Window(Document("r"))
        a = Window(Document("a"), parent=root)
        b = Window(Document("b"), parent=root)
        aa = Window(Document("aa"), parent=a)
        assert root.all_windows() == [root, a, aa, b]

    def test_element_key_distinct_from_nodes(self):
        """Window location keys are negative so they never collide with
        DOM node ids."""
        window = Window(Document("w"))
        assert window.element_key[0] == "node"
        assert window.element_key[1] < 0

    def test_handler_storage(self):
        window = Window(Document("w"))
        assert not window.has_any_handler("load")
        window.attr_handlers["load"] = "h"
        assert window.has_any_handler("load")

    def test_window_ids_unique(self):
        first = Window(Document("a"))
        second = Window(Document("b"))
        assert first.window_id != second.window_id
        assert first.element_key != second.element_key
