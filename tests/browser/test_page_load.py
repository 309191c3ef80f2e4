"""Tests for the page loader: script scheduling, DCL, window load, frames.

These check the *operational sequencing* that the happens-before rules
formalize — run order of sync/async/defer scripts, DOMContentLoaded and
load timing, iframe nesting — plus the HB edges themselves via the graph.
"""

import pytest

from repro.browser.page import Browser
from repro.core.locations import PropLocation
from repro.core.operations import EXE
from repro.js.errors import JSSyntaxError


def load(html, resources=None, latencies=None, seed=0, **kwargs):
    browser = Browser(seed=seed, resources=resources, latencies=latencies, **kwargs)
    return browser.load(html)


class TestScriptScheduling:
    def test_inline_scripts_run_in_document_order(self):
        page = load(
            "<script>order = 'a';</script>"
            "<script>order = order + 'b';</script>"
            "<script>window.result = order + 'c';</script>"
        )
        assert page.interpreter.global_object.get_own("result") == "abc"

    def test_sync_script_blocks_parsing(self):
        """Elements after a synchronous script must not exist while the
        script runs (rule 1c's operational counterpart)."""
        page = load(
            "<script src='probe.js'></script><div id='later'></div>",
            resources={
                "probe.js": "sawLater = document.getElementById('later') != null;"
            },
            latencies={"probe.js": 50.0},
        )
        assert page.interpreter.global_object.get_own("sawLater") is False
        # But the div exists once loading completes.
        assert page.document.get_element_by_id("later") is not None

    def test_deferred_script_sees_whole_document(self):
        page = load(
            "<script src='d.js' defer='true'></script><div id='later'></div>",
            resources={"d.js": "sawLater = document.getElementById('later') != null;"},
            latencies={"d.js": 1.0},
        )
        assert page.interpreter.global_object.get_own("sawLater") is True

    def test_deferred_scripts_run_in_syntactic_order(self):
        page = load(
            "<script src='d1.js' defer='true'></script>"
            "<script src='d2.js' defer='true'></script>",
            resources={"d1.js": "seq = 'first';", "d2.js": "seq = seq + ',second';"},
            # d2 fetches *faster*, but must still run second (rule 5).
            latencies={"d1.js": 50.0, "d2.js": 1.0},
        )
        assert page.interpreter.global_object.get_own("seq") == "first,second"

    def test_async_script_executes(self):
        page = load(
            "<script src='a.js' async='true'></script>",
            resources={"a.js": "asyncRan = true;"},
        )
        assert page.interpreter.global_object.get_own("asyncRan") is True

    def test_missing_script_is_tolerated(self):
        page = load("<script src='gone.js'></script><div id='x'></div>")
        assert page.loaded()
        assert page.document.get_element_by_id("x") is not None

    def test_script_syntax_error_recorded_as_crash(self):
        page = load("<script>this is not javascript %%</script>")
        assert page.loaded()
        assert len(page.trace.crashes) == 1

    def test_crash_keeps_earlier_mutations(self):
        """Hidden-crash semantics end to end (Section 2.3)."""
        page = load("<script>x = 'kept'; nothingHere();</script>")
        assert page.interpreter.global_object.get_own("x") == "kept"
        assert page.trace.crashes[0].kind == "ReferenceError"


RECURSE = "function f(n) { return f(n + 1); }"


class TestScriptTooDeep:
    """Running out of Python recursion is the script's crash: a syntax
    error when parsing nests too deep, a RangeError when calls do.  The
    page goes on, and the next script runs in its own operation."""

    def check_next_script_runs(self, page, crash):
        assert page.interpreter.global_object.get_own("y") == 1
        [writer] = [
            access.op_id
            for access in page.trace.accesses
            if access.location == PropLocation(1, "y")
        ]
        assert writer != crash.operation
        assert page.trace.operations.get(writer).kind == EXE

    def test_parse_nesting_is_a_syntax_error_crash(self):
        deep = "(" * 400 + "1" + ")" * 400
        page = load(f"<script>x = {deep};</script><script>y = 1;</script>")
        [crash] = page.trace.crashes
        assert isinstance(crash.error, JSSyntaxError)
        assert crash.kind == "SyntaxError"
        assert not page.interpreter.global_object.has_own("x")
        self.check_next_script_runs(page, crash)

    @pytest.mark.parametrize(
        "script",
        [
            f"{RECURSE} f(0);",
            f"{RECURSE} try {{ f(0); }} catch (e) {{ caught = true; }}",
            f"{RECURSE} setTimeout(function () {{ f(0); }}, 1);",
            f"{RECURSE} window.onload = function () {{ f(0); }};",
            f"{RECURSE} setTimeout('f(0)', 1);",
        ],
        ids=["script", "try", "timer", "handler", "timer-source"],
    )
    def test_call_depth_is_a_range_error_crash(self, script):
        page = load(f"<script>{script}</script><script>y = 1;</script>")
        [crash] = page.trace.crashes
        assert crash.kind == "RangeError"
        assert crash.error.message == "Maximum call stack size exceeded"
        assert not page.interpreter.global_object.has_own("caught")
        self.check_next_script_runs(page, crash)

    def test_handler_attribute_nesting_is_a_syntax_error_crash(self):
        deep = "(" * 400 + "1" + ")" * 400
        page = load(
            f"<img src='x.png' onload='x = {deep};'><script>y = 1;</script>",
            resources={"x.png": "bin"},
        )
        [crash] = page.trace.crashes
        assert isinstance(crash.error, JSSyntaxError)
        assert crash.kind == "SyntaxError"
        assert crash.where == "handler attribute"
        assert page.interpreter.global_object.get_own("y") == 1

    def test_exhausted_step_budget_is_a_crash_of_its_own_kind(self):
        page = Browser().open("<script>x = 1; while (true) {}</script><script>y = 1;</script>")
        page.interpreter.max_steps = 1_000
        page.run()
        [crash] = page.trace.crashes
        assert crash.kind == "BudgetExceeded"
        assert page.interpreter.global_object.get_own("x") == 1
        self.check_next_script_runs(page, crash)


class TestLifecycleEvents:
    def test_dcl_fires_before_window_load(self):
        page = load(
            """
            <script>
            order = [];
            document.addEventListener('DOMContentLoaded', function() { order.push('dcl'); });
            window.onload = function() { order.push('load'); };
            </script>
            <img src='pic.png'>
            """,
            resources={"pic.png": "bin"},
        )
        order = page.interpreter.global_object.get_own("order")
        assert order.to_list() == ["dcl", "load"]

    def test_window_load_waits_for_images(self):
        page = load(
            """
            <script>window.onload = function() { imgDone = document.getElementById('i').complete; };</script>
            <img id='i' src='pic.png'>
            """,
            resources={"pic.png": "bin"},
            latencies={"pic.png": 80.0},
        )
        assert page.interpreter.global_object.get_own("imgDone") is True

    def test_image_onload_attribute_runs(self):
        page = load(
            "<img src='p.png' onload='imgLoaded = true;'>",
            resources={"p.png": "bin"},
        )
        assert page.interpreter.global_object.get_own("imgLoaded") is True

    def test_missing_image_fires_error_not_load(self):
        page = load(
            "<img src='gone.png' onload='l = true;' onerror='e = true;'>"
        )
        g = page.interpreter.global_object
        assert g.get_own("e") is True
        assert not g.has_own("l") or g.get_own("l") is not True
        assert page.loaded()

    def test_document_readystate(self):
        page = load("<div></div>")
        assert page.document.dcl_fired


class TestIframes:
    def test_iframe_document_parsed(self):
        page = load(
            "<iframe id='f' src='sub.html'></iframe>",
            resources={"sub.html": "<div id='inner'></div>"},
        )
        frame = page.window.frames[0]
        assert frame.document.get_element_by_id("inner") is not None

    def test_iframe_shares_global(self):
        """Frames share the page's JS global (the Fig. 1 model)."""
        page = load(
            "<script>shared = 'outer';</script><iframe src='sub.html'></iframe>",
            resources={"sub.html": "<script>fromFrame = shared;</script>"},
        )
        assert page.interpreter.global_object.get_own("fromFrame") == "outer"

    def test_iframe_onload_attr_fires_after_nested_load(self):
        page = load(
            "<iframe src='sub.html' onload='frameLoaded = true;'></iframe>",
            resources={"sub.html": "<div></div>"},
        )
        assert page.interpreter.global_object.get_own("frameLoaded") is True

    def test_window_load_waits_for_iframe(self):
        page = load(
            """
            <script>window.onload = function() { nested = window.frames[0].document.getElementById('n') != null; };</script>
            <iframe src='sub.html'></iframe>
            """,
            resources={"sub.html": "<div id='n'></div>"},
            latencies={"sub.html": 90.0},
        )
        assert page.interpreter.global_object.get_own("nested") is True

    def test_nested_iframes(self):
        page = load(
            "<iframe src='mid.html'></iframe>",
            resources={
                "mid.html": "<iframe src='leaf.html'></iframe>",
                "leaf.html": "<script>leafRan = true;</script>",
            },
        )
        assert page.interpreter.global_object.get_own("leafRan") is True
        assert page.window.frames[0].frames[0].load_fired


class TestDynamicInsertion:
    def test_script_inserted_external_script_runs(self):
        page = load(
            """
            <script>
            var s = document.createElement('script');
            s.src = 'late.js';
            document.body.appendChild(s);
            </script>
            """,
            resources={"late.js": "lateRan = true;"},
        )
        assert page.interpreter.global_object.get_own("lateRan") is True

    def test_script_inserted_inline_runs_synchronously(self):
        """Footnote 9: script-inserted inline scripts run inside the
        inserting operation."""
        page = load(
            """
            <script>
            var s = document.createElement('script');
            s.innerHTML = 'insideRan = true;';
            document.body.appendChild(s);
            after = insideRan;
            </script>
            """
        )
        assert page.interpreter.global_object.get_own("after") is True

    def test_inner_html_builds_elements(self):
        page = load(
            """
            <div id='host'></div>
            <script>
            document.getElementById('host').innerHTML = '<span id="made">hi</span>';
            found = document.getElementById('made') != null;
            </script>
            """
        )
        assert page.interpreter.global_object.get_own("found") is True

    def test_inner_html_scripts_do_not_execute(self):
        page = load(
            """
            <div id='host'></div>
            <script>
            document.getElementById('host').innerHTML = '<script>evil = true;<\\/script>';
            </script>
            """
        )
        assert not page.interpreter.global_object.has_own("evil")

    def test_dynamic_image_load_fires(self):
        page = load(
            """
            <script>
            var im = document.createElement('img');
            im.onload = function() { dynImg = true; };
            im.src = 'x.png';
            document.body.appendChild(im);
            </script>
            """,
            resources={"x.png": "bin"},
        )
        assert page.interpreter.global_object.get_own("dynImg") is True

    def test_image_inserted_after_window_load(self):
        """A late image fetches and fires load or error without gating
        anything: no pending load, no rule-15 source."""
        page = load(
            """
            <script>
            window.onload = function () {
              var ok = document.createElement('img');
              ok.onload = function () { lateLoad = true; };
              ok.src = 'x.png';
              document.body.appendChild(ok);
              var moved = document.createElement('img');
              moved.onerror = function () { lateError = true; };
              document.body.appendChild(moved);
              moved.src = 'gone.png';
            };
            </script>
            """,
            resources={"x.png": "bin"},
        )
        assert page.interpreter.global_object.get_own("lateLoad") is True
        assert page.interpreter.global_object.get_own("lateError") is True
        loader = page.loaders[page.document.doc_id]
        assert loader.pending_loads == 0
        assert loader.load_dispatches == []

    def test_remove_child(self):
        page = load(
            """
            <div id='victim'></div>
            <script>
            var v = document.getElementById('victim');
            v.parentNode.removeChild(v);
            gone = document.getElementById('victim') == null;
            </script>
            """
        )
        assert page.interpreter.global_object.get_own("gone") is True


class TestHappensBeforeEdges:
    def test_parse_chain_rule_1a(self):
        page = load("<div></div><p></p><span></span>")
        edges = page.monitor.graph.edges_by_rule("1a:static-order")
        assert len(edges) >= 2

    def test_rule_2_create_before_exe(self):
        page = load("<script>x = 1;</script>")
        assert page.monitor.graph.edges_by_rule("2:create-before-exe")

    def test_rule_16_timer_edge(self):
        page = load("<script>setTimeout(function() { t = 1; }, 5);</script>")
        assert page.monitor.graph.edges_by_rule("16:settimeout-before-cb")
        assert page.interpreter.global_object.get_own("t") == 1.0

    def test_rule_17_interval_chain(self):
        page = load(
            "<script>var n = 0; var id = setInterval(function() { n++; if (n >= 3) clearInterval(id); }, 5);</script>"
        )
        assert page.interpreter.global_object.get_own("n") == 3.0
        assert page.monitor.graph.edges_by_rule("17:setinterval-chain")

    def test_rule_6_iframe_create_edge(self):
        page = load(
            "<iframe src='s.html'></iframe>",
            resources={"s.html": "<div></div>"},
        )
        assert page.monitor.graph.edges_by_rule("6:iframe-create-before-nested-create")

    def test_rule_7_nested_load_edge(self):
        page = load(
            "<iframe src='s.html'></iframe>",
            resources={"s.html": "<div></div>"},
        )
        assert page.monitor.graph.edges_by_rule("7:nested-window-load-before-iframe-load")

    def test_rule_11_dcl_before_load(self):
        page = load("<div></div>")
        assert page.monitor.graph.edges_by_rule("11:dcl-before-window-load")

    def test_rule_15_element_load_before_window_load(self):
        page = load("<img src='p.png'>", resources={"p.png": "b"})
        assert page.monitor.graph.edges_by_rule("15:element-load-before-window-load")

    def test_clear_timeout_cancels(self):
        page = load(
            "<script>var id = setTimeout(function() { fired = true; }, 10); clearTimeout(id);</script>"
        )
        assert not page.interpreter.global_object.has_own("fired")


class TestTimers:
    def test_timeout_delay_respected_in_virtual_time(self):
        page = load(
            "<script>setTimeout(function() { at = 'late'; }, 500);</script>"
        )
        assert page.interpreter.global_object.get_own("at") == "late"
        assert page.clock.now >= 500.0

    def test_string_callback(self):
        page = load("<script>setTimeout('viaString = 1;', 1);</script>")
        assert page.interpreter.global_object.get_own("viaString") == 1.0

    def test_interval_capped(self):
        page = load("<script>setInterval(function() { }, 1);</script>")
        assert page.loaded()  # the cap keeps the loop finite


class TestGetHelper:
    def test_get_of_missing_id_returns_js_null(self):
        page = load(
            "<div id='here'></div>"
            "<script>missing = $get('nope') === null;"
            " found = $get('here') === null;</script>"
        )
        globals_ = page.interpreter.global_object
        assert globals_.get_own("missing") is True
        assert globals_.get_own("found") is False
