"""Tests for instrumented event dispatch (operations, Eloc reads, rules)."""

from repro.browser.page import Browser
from repro.core.locations import ATTR_SLOT, HandlerLocation
from repro.core.operations import DISPATCH, SEGMENT


def load(html, **kwargs):
    return Browser(seed=0, **kwargs).load(html)


def dispatch_ops(page):
    return [op for op in page.trace.operations if op.kind == DISPATCH]


class TestDispatchOperations:
    def test_root_op_even_without_handlers(self):
        """ld(E) must be non-empty even for handler-less elements so the
        set-valued rules (1c, 5, 7, 11, 14, 15) still bite."""
        page = load("<img src='p.png'>", resources={"p.png": "b"})
        roots = [
            op
            for op in dispatch_ops(page)
            if op.meta.get("role") == "root" and op.meta.get("event") == "load"
        ]
        assert roots

    def test_root_reads_attr_slot(self):
        """The dispatch root reads on<event> — the hidden read of Fig. 5."""
        page = load("<img id='i' src='p.png'>", resources={"p.png": "b"})
        reads = [
            access
            for access in page.trace.accesses
            if isinstance(access.location, HandlerLocation)
            and access.location.event == "load"
            and access.location.handler == ATTR_SLOT
            and access.is_read
        ]
        assert reads

    def test_handler_op_per_handler(self):
        page = load(
            """
            <div id='t'></div>
            <script>
            var t = document.getElementById('t');
            t.addEventListener('click', function() { a = 1; });
            t.addEventListener('click', function() { b = 2; });
            t.click();
            </script>
            """
        )
        handler_ops = [
            op
            for op in dispatch_ops(page)
            if op.meta.get("event") == "click" and op.meta.get("role") == "handler"
        ]
        assert len(handler_ops) == 2
        g = page.interpreter.global_object
        assert g.get_own("a") == 1.0 and g.get_own("b") == 2.0

    def test_dispatch_indices_increment(self):
        page = load(
            """
            <div id='t' onclick='n = (typeof n == "undefined") ? 1 : n + 1;'></div>
            <script>
            var t = document.getElementById('t');
            t.click();
            t.click();
            </script>
            """
        )
        assert page.interpreter.global_object.get_own("n") == 2.0
        indices = sorted(
            op.meta["dispatch_index"]
            for op in dispatch_ops(page)
            if op.meta.get("event") == "click" and op.meta.get("role") == "root"
        )
        assert indices == [0, 1]

    def test_rule_9_orders_repeat_dispatches(self):
        page = load(
            """
            <div id='t' onclick='x = 1;'></div>
            <script>
            var t = document.getElementById('t');
            t.click();
            t.click();
            </script>
            """
        )
        assert page.monitor.graph.edges_by_rule("9:earlier-dispatch-first")

    def test_rule_8_target_created_first(self):
        page = load("<div id='t' onclick='x = 1;'></div><script>document.getElementById('t').click();</script>")
        create_op = page.monitor.create_op_of(page.document.get_element_by_id("t"))
        roots = [
            op.op_id
            for op in dispatch_ops(page)
            if op.meta.get("event") == "click"
        ]
        for root in roots:
            assert page.monitor.graph.happens_before(create_op, root)


class TestInlineDispatchSplitting:
    def test_split_creates_segment(self):
        """Appendix A: el.click() from a script splits the script op."""
        page = load(
            """
            <div id='t' onclick='during = 1;'></div>
            <script>
            before = 1;
            document.getElementById('t').click();
            after = 1;
            </script>
            """
        )
        segments = [op for op in page.trace.operations if op.kind == SEGMENT]
        assert len(segments) == 1
        assert segments[0].parent is not None

    def test_split_ordering(self):
        page = load(
            """
            <div id='t' onclick='during = 1;'></div>
            <script>
            document.getElementById('t').click();
            </script>
            """
        )
        graph = page.monitor.graph
        pre = graph.edges_by_rule("A:inline-dispatch-pre")
        post = graph.edges_by_rule("A:inline-dispatch-post")
        assert pre and post
        # exe ≺ handler ≺ segment, transitively exe ≺ segment.
        segment = [op for op in page.trace.operations if op.kind == SEGMENT][0]
        exe = segment.parent
        assert graph.happens_before(exe, segment.op_id)

    def test_accesses_after_split_attributed_to_segment(self):
        page = load(
            """
            <div id='t' onclick='x = 1;'></div>
            <script>
            document.getElementById('t').click();
            afterSplit = 1;
            </script>
            """
        )
        segment = [op for op in page.trace.operations if op.kind == SEGMENT][0]
        names = [
            access.location.name
            for access in page.trace.accesses
            if access.op_id == segment.op_id and hasattr(access.location, "name")
        ]
        assert "afterSplit" in names


class TestPhasingEdges:
    def test_same_phase_same_target_listeners_unordered(self):
        """Appendix A: two listeners on the same target in the same phase
        are NOT ordered (fewer-edges policy)."""
        page = load(
            """
            <div id='t'></div>
            <script>
            var t = document.getElementById('t');
            t.addEventListener('click', function() { a = 1; });
            t.addEventListener('click', function() { b = 1; });
            t.click();
            </script>
            """
        )
        handler_ops = [
            op.op_id
            for op in dispatch_ops(page)
            if op.meta.get("event") == "click" and op.meta.get("role") == "handler"
        ]
        assert len(handler_ops) == 2
        first, second = handler_ops
        assert page.monitor.graph.concurrent(first, second)

    def test_different_targets_ordered(self):
        """Bubbling handlers at different current targets ARE ordered."""
        page = load(
            """
            <div id='outer'><div id='inner'></div></div>
            <script>
            var outer = document.getElementById('outer');
            var inner = document.getElementById('inner');
            inner.addEventListener('click', function() { a = 1; });
            outer.addEventListener('click', function() { b = 1; });
            inner.click();
            </script>
            """
        )
        handler_ops = [
            op.op_id
            for op in dispatch_ops(page)
            if op.meta.get("event") == "click" and op.meta.get("role") == "handler"
        ]
        assert len(handler_ops) == 2
        first, second = sorted(handler_ops)
        assert page.monitor.graph.happens_before(first, second)


class TestDefaultAction:
    def test_javascript_href_runs_as_default_op(self):
        page = load(
            """
            <a id='l' href='javascript:viaHref = 1;'>go</a>
            <script>document.getElementById('l').click();</script>
            """
        )
        assert page.interpreter.global_object.get_own("viaHref") == 1.0
        defaults = [
            op for op in dispatch_ops(page) if op.meta.get("role") == "default"
        ]
        assert defaults


class TestHandlerErrors:
    def test_crashing_handler_does_not_stop_dispatch(self):
        page = load(
            """
            <div id='t'></div>
            <script>
            var t = document.getElementById('t');
            t.addEventListener('click', function() { boom(); });
            t.addEventListener('click', function() { survived = 1; });
            t.click();
            </script>
            """
        )
        assert page.interpreter.global_object.get_own("survived") == 1.0
        assert page.trace.crashes
