"""Tests for race classification and harmfulness (Sections 2 & 6)."""

from repro.core.access import READ, WRITE, Access
from repro.core.detector import Race, READ_WRITE, WRITE_WRITE
from repro.core.locations import (
    ATTR_SLOT,
    DomPropLocation,
    HandlerLocation,
    HElemLocation,
    PropLocation,
    VarLocation,
    id_key,
    node_key,
)
from repro.core.report import (
    EVENT_DISPATCH,
    FUNCTION,
    HTML,
    VARIABLE,
    HarmfulnessJudge,
    RaceReport,
    build_report,
    classify_race,
)
from repro.core.trace import Trace
from repro.js.errors import JSErrorValue, ScriptCrash


def race_on(location, prior, current):
    kind = WRITE_WRITE if prior.is_write and current.is_write else READ_WRITE
    return Race(location=location, prior=prior, current=current, kind=kind)


class TestClassification:
    def test_helem_is_html_race(self):
        location = HElemLocation(id_key(1, "dw"))
        race = race_on(
            location,
            Access(kind=READ, op_id=2, location=location),
            Access(kind=WRITE, op_id=3, location=location),
        )
        assert classify_race(race) == HTML

    def test_eloc_is_event_dispatch_race(self):
        location = HandlerLocation(node_key(1), "load", ATTR_SLOT)
        race = race_on(
            location,
            Access(kind=WRITE, op_id=2, location=location),
            Access(kind=READ, op_id=3, location=location),
        )
        assert classify_race(race) == EVENT_DISPATCH

    def test_function_decl_write_makes_function_race(self):
        location = PropLocation(1, "doNextStep")
        race = race_on(
            location,
            Access(kind=READ, op_id=2, location=location, is_call=True),
            Access(kind=WRITE, op_id=3, location=location, is_function_decl=True),
        )
        assert classify_race(race) == FUNCTION

    def test_call_racing_with_function_value_write(self):
        location = PropLocation(1, "handler")
        race = race_on(
            location,
            Access(kind=READ, op_id=2, location=location, is_call=True),
            Access(
                kind=WRITE,
                op_id=3,
                location=location,
                detail={"writes_function": True},
            ),
        )
        assert classify_race(race) == FUNCTION

    def test_plain_jsvar_is_variable_race(self):
        location = VarLocation(1, "x")
        race = race_on(
            location,
            Access(kind=WRITE, op_id=2, location=location),
            Access(kind=WRITE, op_id=3, location=location),
        )
        assert classify_race(race) == VARIABLE


class TestHtmlHarmfulness:
    def make_trace(self, crash_op=None):
        trace = Trace()
        if crash_op is not None:
            trace.record_crash(
                ScriptCrash(crash_op, JSErrorValue("TypeError", "null deref"))
            )
        return trace

    def test_missed_lookup_with_crash_is_harmful(self):
        location = HElemLocation(id_key(1, "dw"))
        read = Access(kind=READ, op_id=5, location=location, detail={"found": False})
        write = Access(kind=WRITE, op_id=6, location=location)
        race = race_on(location, read, write)
        judge = HarmfulnessJudge(self.make_trace(crash_op=5))
        assert judge.judge(race, HTML).harmful

    def test_missed_lookup_without_crash_is_benign(self):
        """The Ford polling pattern: the miss is guarded."""
        location = HElemLocation(id_key(1, "last"))
        read = Access(kind=READ, op_id=5, location=location, detail={"found": False})
        write = Access(kind=WRITE, op_id=6, location=location)
        race = race_on(location, read, write)
        judge = HarmfulnessJudge(self.make_trace())
        verdict = judge.judge(race, HTML)
        assert not verdict.harmful
        assert "guarded" in verdict.reason

    def test_found_lookup_is_benign(self):
        location = HElemLocation(id_key(1, "n1"))
        read = Access(kind=READ, op_id=5, location=location, detail={"found": True})
        write = Access(kind=WRITE, op_id=4, location=location)
        race = race_on(location, write, read)
        judge = HarmfulnessJudge(self.make_trace())
        assert not judge.judge(race, HTML).harmful


class TestFunctionHarmfulness:
    @staticmethod
    def judged(error):
        """The verdict on an ``openMenu`` call racing its declaration,
        when the calling operation crashed with ``error``."""
        location = PropLocation(1, "openMenu")
        read = Access(kind=READ, op_id=5, location=location, is_call=True)
        write = Access(kind=WRITE, op_id=6, location=location, is_function_decl=True)
        race = race_on(location, read, write)
        trace = Trace()
        trace.record_crash(ScriptCrash(5, error))
        return HarmfulnessJudge(trace).judge(race, FUNCTION).harmful

    def test_crashed_call_is_harmful(self):
        assert self.judged(
            JSErrorValue("ReferenceError", "openMenu is not defined")
        )
        assert self.judged(
            JSErrorValue("TypeError", "openMenu is not a function")
        )

    def test_crash_of_another_name_is_benign(self):
        """The caller ran the function, which failed for a reason of its
        own: that is not this race's outcome."""
        assert not self.judged(JSErrorValue("TypeError", "sort is not a function"))
        assert not self.judged(JSErrorValue("ReferenceError", "JSON is not defined"))
        assert not self.judged(
            JSErrorValue("ReferenceError", "openMenuX is not defined")
        )

    def test_loaded_crash_text_is_judged_alike(self):
        """A loaded trace's crash carries only its message text."""
        assert self.judged("ReferenceError: openMenu is not defined")
        assert not self.judged("TypeError: sort is not a function")

    def test_latent_race_is_benign(self):
        location = PropLocation(1, "openMenu")
        write = Access(kind=WRITE, op_id=3, location=location, is_function_decl=True)
        read = Access(kind=READ, op_id=5, location=location, is_call=True)
        race = race_on(location, write, read)
        assert not HarmfulnessJudge(Trace()).judge(race, FUNCTION).harmful


class TestVariableHarmfulness:
    FORM = DomPropLocation(id_key(1, "depart"), "value", tag="input")

    def test_user_input_erasable_is_harmful(self):
        user = Access(kind=WRITE, op_id=4, location=self.FORM,
                      detail={"user_input": True})
        script = Access(kind=WRITE, op_id=5, location=self.FORM)
        race = race_on(self.FORM, user, script)
        assert HarmfulnessJudge(Trace()).judge(race, VARIABLE).harmful

    def test_script_vs_script_is_benign(self):
        first = Access(kind=WRITE, op_id=4, location=self.FORM)
        second = Access(kind=WRITE, op_id=5, location=self.FORM)
        race = race_on(self.FORM, first, second)
        assert not HarmfulnessJudge(Trace()).judge(race, VARIABLE).harmful

    def test_guarded_script_write_is_benign(self):
        user = Access(kind=WRITE, op_id=4, location=self.FORM,
                      detail={"user_input": True})
        script = Access(kind=WRITE, op_id=5, location=self.FORM,
                        detail={"read_before_write": True})
        race = race_on(self.FORM, user, script)
        assert not HarmfulnessJudge(Trace()).judge(race, VARIABLE).harmful

    def test_non_form_variable_is_benign(self):
        location = VarLocation(9, "x")
        race = race_on(
            location,
            Access(kind=WRITE, op_id=4, location=location),
            Access(kind=WRITE, op_id=5, location=location),
        )
        assert not HarmfulnessJudge(Trace()).judge(race, VARIABLE).harmful


class TestEventDispatchHarmfulness:
    def test_lost_load_handler_is_harmful(self):
        location = HandlerLocation(id_key(1, "img"), "load", ATTR_SLOT)
        read = Access(kind=READ, op_id=5, location=location)
        write = Access(kind=WRITE, op_id=6, location=location)
        race = race_on(location, read, write)
        assert HarmfulnessJudge(Trace()).judge(race, EVENT_DISPATCH).harmful

    def test_multi_dispatch_event_is_benign(self):
        location = HandlerLocation(id_key(1, "b"), "click", ATTR_SLOT)
        race = race_on(
            location,
            Access(kind=READ, op_id=5, location=location),
            Access(kind=WRITE, op_id=6, location=location),
        )
        assert not HarmfulnessJudge(Trace()).judge(race, EVENT_DISPATCH).harmful

    def test_handler_removal_is_benign(self):
        location = HandlerLocation(id_key(1, "img"), "load", ATTR_SLOT)
        race = race_on(
            location,
            Access(kind=READ, op_id=5, location=location),
            Access(kind=WRITE, op_id=6, location=location, detail={"removal": True}),
        )
        assert not HarmfulnessJudge(Trace()).judge(race, EVENT_DISPATCH).harmful

    def test_deliberate_delay_is_benign(self):
        location = HandlerLocation(id_key(1, "img"), "load", ATTR_SLOT)
        race = race_on(
            location,
            Access(kind=READ, op_id=5, location=location),
            Access(
                kind=WRITE,
                op_id=6,
                location=location,
                detail={"deliberate_delay": True},
            ),
        )
        assert not HarmfulnessJudge(Trace()).judge(race, EVENT_DISPATCH).harmful


class TestJudgeEdgeCases:
    """Corner cases of Section 6 judgement and Section 2 classification."""

    def test_write_write_html_race_has_no_reader(self):
        """Element creation racing with element creation: nothing is looked
        up, so the nonexistent-node criterion cannot fire."""
        location = HElemLocation(id_key(1, "dw"))
        race = race_on(
            location,
            Access(kind=WRITE, op_id=4, location=location),
            Access(kind=WRITE, op_id=5, location=location),
        )
        verdict = HarmfulnessJudge(Trace()).judge(race, HTML)
        assert not verdict.harmful
        assert verdict.reason == "write-write on element"

    def test_write_write_html_race_ignores_unrelated_crash(self):
        """A crash in one racing operation does not make a write-write
        element race harmful — only a missed *lookup* can."""
        location = HElemLocation(id_key(1, "dw"))
        race = race_on(
            location,
            Access(kind=WRITE, op_id=4, location=location),
            Access(kind=WRITE, op_id=5, location=location),
        )
        trace = Trace()
        trace.record_crash(ScriptCrash(4, JSErrorValue("TypeError", "boom")))
        assert not HarmfulnessJudge(trace).judge(race, HTML).harmful

    def test_guarded_missed_lookup_reason(self):
        location = HElemLocation(id_key(1, "last"))
        race = race_on(
            location,
            Access(kind=READ, op_id=5, location=location,
                   detail={"found": False}),
            Access(kind=WRITE, op_id=6, location=location),
        )
        verdict = HarmfulnessJudge(Trace()).judge(race, HTML)
        assert not verdict.harmful
        assert verdict.reason == "missed lookup was guarded (no crash)"

    def test_handler_removal_race_is_benign_even_on_single_dispatch(self):
        """Removing a handler cannot lose a registration, even for load."""
        location = HandlerLocation(id_key(1, "img"), "load", ATTR_SLOT)
        race = race_on(
            location,
            Access(kind=READ, op_id=5, location=location),
            Access(kind=WRITE, op_id=6, location=location,
                   detail={"removal": True}),
        )
        verdict = HarmfulnessJudge(Trace()).judge(race, EVENT_DISPATCH)
        assert not verdict.harmful
        assert verdict.reason == "racing access removes a handler"

    def test_call_vs_plain_write_without_function_value_is_variable(self):
        """The report.py call-vs-write path: a call racing with a write
        only becomes a function race when the write stores a function."""
        location = PropLocation(1, "handler")
        race = race_on(
            location,
            Access(kind=READ, op_id=2, location=location, is_call=True),
            Access(kind=WRITE, op_id=3, location=location),
        )
        assert classify_race(race) == VARIABLE

    def test_call_vs_write_checks_both_sides_for_function_value(self):
        """writes_function may sit on either side of the pair."""
        location = PropLocation(1, "handler")
        race = race_on(
            location,
            Access(
                kind=WRITE,
                op_id=2,
                location=location,
                detail={"writes_function": True},
            ),
            Access(kind=READ, op_id=3, location=location, is_call=True),
        )
        assert classify_race(race) == FUNCTION


class TestRaceReport:
    def build(self):
        form = DomPropLocation(id_key(1, "q"), "value", tag="input")
        element = HElemLocation(id_key(1, "dw"))
        races = [
            race_on(
                form,
                Access(kind=WRITE, op_id=2, location=form, detail={"user_input": True}),
                Access(kind=WRITE, op_id=3, location=form),
            ),
            race_on(
                element,
                Access(kind=READ, op_id=4, location=element, detail={"found": False}),
                Access(kind=WRITE, op_id=5, location=element),
            ),
        ]
        trace = Trace()
        trace.record_crash(ScriptCrash(4, JSErrorValue("TypeError", "boom")))
        return build_report(races, trace)

    def test_counts(self):
        report = self.build()
        counts = report.counts()
        assert counts[VARIABLE] == 1
        assert counts[HTML] == 1
        assert report.total() == 2

    def test_harmful_counts(self):
        report = self.build()
        harmful = report.harmful_counts()
        assert harmful[VARIABLE] == 1
        assert harmful[HTML] == 1

    def test_by_type(self):
        report = self.build()
        assert len(report.by_type(HTML)) == 1
        assert report.by_type(FUNCTION) == []

    def test_summary_mentions_types(self):
        text = self.build().summary()
        assert "html" in text and "variable" in text

    def test_empty_report(self):
        report = RaceReport()
        assert report.total() == 0
        assert report.harmful() == []
