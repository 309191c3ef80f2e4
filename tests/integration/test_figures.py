"""End-to-end reproductions of the paper's motivating examples (Figs 1-5).

Each test builds the figure's page in the simulated browser, runs WebRacer,
and checks that the exact race the paper describes is detected, correctly
classified, and (where the figure implies it) judged harmful.
"""

from repro import WebRacer
from repro.browser.page import Browser
from repro.core.report import (
    EVENT_DISPATCH,
    FUNCTION,
    HTML,
    VARIABLE,
)


class TestFig1VariableRace:
    HTML = """
    <script>x = 1;</script>
    <iframe src="a.html"></iframe>
    <iframe src="b.html"></iframe>
    """
    RESOURCES = {
        "a.html": "<script>x = 2;</script>",
        "b.html": "<script>shown = x;</script>",
    }

    def run(self, seed=3):
        racer = WebRacer(seed=seed, explore=False, eager=False, apply_filters=False)
        return racer.check_page(self.HTML, resources=self.RESOURCES)

    def test_race_on_x_detected(self):
        report = self.run()
        variable_races = report.classified.by_type(VARIABLE)
        assert any(
            getattr(c.race.location, "name", "") == "x" for c in variable_races
        )

    def test_initial_write_does_not_race(self):
        """Paper: x=1 is ordered before both iframes' scripts (rules 1a, 6,
        2), so the only racing pair is a.html vs b.html."""
        report = self.run()
        races = [c for c in report.classified.races
                 if getattr(c.race.location, "name", "") == "x"]
        assert len(races) == 1
        race = races[0].race
        # Both racing accesses come from iframe scripts, which execute
        # after the parent inline script's operation.
        trace = report.trace
        first_script_op = next(
            op.op_id for op in trace.operations if op.kind == "exe"
        )
        assert race.prior.op_id != first_script_op
        assert race.current.op_id != first_script_op

    def test_alert_value_depends_on_schedule(self):
        values = set()
        for seed in range(8):
            browser = Browser(
                seed=seed, scheduler="random", resources=self.RESOURCES
            )
            page = browser.load(self.HTML)
            values.add(page.interpreter.global_object.get_own("shown"))
        # Different interleavings can show 1 or 2 (the paper's point).
        assert values <= {1.0, 2.0}
        assert len(values) >= 1


class TestFig2SouthwestFormRace:
    HTML = """
    <input type="text" id="depart" />
    <script src="hint.js"></script>
    """
    RESOURCES = {
        "hint.js": "document.getElementById('depart').value = 'City of Departure';"
    }

    def test_harmful_variable_race_on_value(self):
        racer = WebRacer(seed=1)
        report = racer.check_page(
            self.HTML, resources=self.RESOURCES, latencies={"hint.js": 40.0}
        )
        variable_races = report.classified.by_type(VARIABLE)
        assert len(variable_races) == 1
        assert variable_races[0].harmful
        assert variable_races[0].race.location.name == "value"

    def test_survives_form_filter(self):
        racer = WebRacer(seed=1)
        report = racer.check_page(
            self.HTML, resources=self.RESOURCES, latencies={"hint.js": 40.0}
        )
        assert len(report.filtered_races) == len(report.raw_races) == 1

    def test_user_input_actually_erased_in_simulation(self):
        browser = Browser(seed=1, resources=self.RESOURCES,
                          latencies={"hint.js": 40.0})
        page = browser.open(self.HTML)
        page.eager_explore = True
        page.run()
        field = page.document.get_element_by_id("depart")
        # The late script overwrote whatever the simulated user typed.
        assert field.value == "City of Departure"


class TestFig3ValeroHtmlRace:
    HTML = """
    <script>
    function show(emailTo) {
      var v = $get('dw');
      v.style.display = 'block';
    }
    </script>
    <a id="send" href="javascript:show('x@x.com')">Send Email</a>
    <div id="pad1">.</div>
    <div id="pad2">.</div>
    <div id="dw" style="display:none">email form</div>
    """

    def test_harmful_html_race(self):
        racer = WebRacer(seed=2)
        report = racer.check_page(self.HTML)
        html_races = report.classified.by_type(HTML)
        assert len(html_races) == 1
        race = html_races[0]
        assert race.harmful
        assert "dw" in race.race.location.describe()

    def test_crash_is_hidden(self):
        """The click produces a TypeError that the page survives."""
        racer = WebRacer(seed=2)
        report = racer.check_page(self.HTML)
        assert report.page.loaded()
        kinds = {crash.kind for crash in report.trace.crashes}
        assert "TypeError" in kinds

    def test_no_race_when_div_precedes_link(self):
        safe = """
        <script>
        function show(emailTo) { var v = $get('dw'); v.style.display = 'block'; }
        </script>
        <div id="dw" style="display:none">email form</div>
        <a id="send" href="javascript:show('x@x.com')">Send Email</a>
        """
        racer = WebRacer(seed=2)
        report = racer.check_page(safe)
        assert report.classified.by_type(HTML) == []


class TestFig4FunctionRace:
    # The string-callback form defers the doNextStep lookup to callback
    # time, exactly the original Mozilla unit test's shape: even with the
    # 20ms delay, the invocation can precede the script's parse.
    HTML = """
    <iframe id="i" src="sub.html" onload="setTimeout('doNextStep()', 20)"></iframe>
    <script src="steps.js"></script>
    """
    RESOURCES = {
        "sub.html": "<div>frame</div>",
        "steps.js": "function doNextStep() { window.stepDone = true; }",
    }

    def test_function_race_detected(self):
        racer = WebRacer(seed=1, explore=False, eager=False)
        report = racer.check_page(
            self.HTML,
            resources=self.RESOURCES,
            latencies={"sub.html": 2.0, "steps.js": 40.0},
        )
        function_races = report.classified.by_type(FUNCTION)
        assert len(function_races) == 1
        assert "doNextStep" in function_races[0].race.location.describe()

    def test_harmful_when_timer_wins(self):
        """When the iframe loads fast and the declaring script is slow, the
        20ms timer fires before the declaration — a ReferenceError."""
        racer = WebRacer(seed=1, explore=False, eager=False)
        report = racer.check_page(
            self.HTML,
            resources=self.RESOURCES,
            latencies={"sub.html": 1.0, "steps.js": 200.0},
        )
        function_races = report.classified.by_type(FUNCTION)
        assert function_races and function_races[0].harmful
        assert any(c.kind == "ReferenceError" for c in report.trace.crashes)

    def test_fix_moves_script_above_iframe(self):
        """The paper's fix: declare the function before the iframe."""
        fixed = """
        <script src="steps.js"></script>
        <iframe id="i" src="sub.html" onload="setTimeout(doNextStep, 20)"></iframe>
        """
        racer = WebRacer(seed=1, explore=False, eager=False)
        report = racer.check_page(
            fixed,
            resources=self.RESOURCES,
            latencies={"sub.html": 1.0, "steps.js": 200.0},
        )
        assert report.classified.by_type(FUNCTION) == []


class TestFig5EventDispatchRace:
    HTML = """
    <iframe id="i" src="a.html"></iframe>
    <script>
    document.getElementById('i').onload = function() { window.ran = true; };
    </script>
    """
    RESOURCES = {"a.html": "<div>nested</div>"}

    def test_dispatch_race_detected_and_harmful(self):
        racer = WebRacer(seed=1, explore=False, eager=False)
        report = racer.check_page(
            self.HTML, resources=self.RESOURCES, latencies={"a.html": 3.0}
        )
        dispatch_races = report.classified.by_type(EVENT_DISPATCH)
        assert len(dispatch_races) == 1
        race = dispatch_races[0]
        assert race.harmful
        assert race.race.location.event == "load"

    def test_no_race_when_onload_in_tag(self):
        """Setting onload in the tag writes the handler at parse(I) =
        create(I), which rule 8 orders before the dispatch."""
        safe = '<iframe id="i" src="a.html" onload="window.ran = true;"></iframe>'
        racer = WebRacer(seed=1, explore=False, eager=False)
        report = racer.check_page(
            safe, resources=self.RESOURCES, latencies={"a.html": 3.0}
        )
        assert report.classified.by_type(EVENT_DISPATCH) == []
