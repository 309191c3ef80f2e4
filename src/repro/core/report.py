"""Race classification and harmfulness judgement (paper, Sections 2 and 6).

The paper distinguishes four race types by what the racing accesses touch:

* **variable** races — ordinary ``JSVar`` locations (Section 2.2);
* **HTML** races — ``HElem`` locations: element access vs. creation
  (Section 2.3);
* **function** races — invocation of ``f`` vs. parsing of the script
  declaring ``f`` (Section 2.4); in the memory model these are ``JSVar``
  races whose write is a hoisted function-declaration write;
* **event dispatch** races — ``Eloc`` locations: event firing vs. handler
  registration (Section 2.5).

Harmfulness follows the paper's mechanical, semantics-independent criteria
(Section 6): an HTML race is harmful when it can produce an access to a
nonexistent DOM node (observed as a hidden crash); a function race when it
can invoke a yet-unparsed function (ReferenceError crash); a variable race
when user input in a form field can be erased; an event-dispatch race when
a handler added to a single-dispatch event can be lost.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .access import Access
from .detector import Race
from .locations import (
    DomPropLocation,
    HandlerLocation,
    location_family,
)
from .trace import Trace

VARIABLE = "variable"
HTML = "html"
FUNCTION = "function"
EVENT_DISPATCH = "event_dispatch"

RACE_TYPES = (HTML, FUNCTION, VARIABLE, EVENT_DISPATCH)

#: Events that fire at most once per target; races on their handlers lose
#: the handler forever (Section 5.3, "Focus on single-dispatch events").
SINGLE_DISPATCH_EVENTS = frozenset(
    ["load", "DOMContentLoaded", "unload", "readystatechange", "error"]
)


def classify_race(race: Race) -> str:
    """Map a race onto the paper's four types."""
    family = location_family(race.location)
    if family == "eloc":
        return EVENT_DISPATCH
    if family == "helem":
        return HTML
    # jsvar: function race iff the racing write is a hoisted declaration
    # (or the read is an invocation racing with one).
    for access in (race.prior, race.current):
        if access.is_function_decl:
            return FUNCTION
    if race.prior.is_call or race.current.is_call:
        # A call racing with a plain write to the same name is still a
        # function race from the developer's perspective.
        for access in (race.prior, race.current):
            if access.is_write and access.detail.get("writes_function"):
                return FUNCTION
    return VARIABLE


@dataclass
class ClassifiedRace:
    """A race annotated with its type and harmfulness verdict."""

    race: Race
    race_type: str
    harmful: bool
    reason: str = ""
    #: Structured provenance (a :class:`repro.explain.RaceEvidence`),
    #: attached on demand by the explanation layer; ``None`` otherwise so
    #: detection-only runs pay nothing for it.
    evidence: Optional[Any] = None

    @property
    def location(self):
        """The racing logical location."""
        return self.race.location

    def describe(self) -> str:
        """Human-readable one-line description with verdict."""
        verdict = "HARMFUL" if self.harmful else "benign"
        note = f" — {self.reason}" if self.reason else ""
        return f"[{self.race_type}/{verdict}] {self.race.describe()}{note}"


class HarmfulnessJudge:
    """Applies the paper's Section 6 harmfulness criteria to races."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self._crash_ops: Dict[int, List] = {}
        for crash in trace.crashes:
            self._crash_ops.setdefault(crash.operation, []).append(crash)

    def judge(self, race: Race, race_type: str) -> ClassifiedRace:
        """Classify one race's harmfulness per its type's criterion."""
        method = {
            HTML: self._judge_html,
            FUNCTION: self._judge_function,
            VARIABLE: self._judge_variable,
            EVENT_DISPATCH: self._judge_event_dispatch,
        }[race_type]
        harmful, reason = method(race)
        return ClassifiedRace(
            race=race, race_type=race_type, harmful=harmful, reason=reason
        )

    # ------------------------------------------------------------------

    def _reader(self, race: Race) -> Optional[Access]:
        for access in (race.prior, race.current):
            if access.is_read:
                return access
        return None

    def _judge_html(self, race: Race):
        """Harmful iff the access of a yet-to-be-created node caused (or was
        observed to cause) a runtime exception (Section 6.1)."""
        reader = self._reader(race)
        if reader is None:
            return False, "write-write on element"
        missed = reader.detail.get("found") is False
        crashed = reader.op_id in self._crash_ops
        if missed and crashed:
            return True, "access of nonexistent DOM node crashed the script"
        if missed:
            return False, "missed lookup was guarded (no crash)"
        return False, "element existed when accessed"

    def _judge_function(self, race: Race):
        """Harmful iff the invocation of a yet-to-be-parsed function raised
        (observed as a hidden ReferenceError/TypeError crash)."""
        reader = self._reader(race)
        if reader is not None and reader.op_id in self._crash_ops:
            kinds = {crash.kind for crash in self._crash_ops[reader.op_id]}
            if kinds & {"ReferenceError", "TypeError"}:
                return True, "invoked a function before its script was parsed"
        return False, "call happened after parse in this run (latent)"

    def _judge_variable(self, race: Race):
        """Harmful iff user input can be erased (the Fig. 2 criterion)."""
        location = race.location
        if not (
            isinstance(location, DomPropLocation) and location.is_form_field_value
        ):
            return False, "not a form-field value"
        user_access = None
        script_access = None
        for access in (race.prior, race.current):
            if access.detail.get("user_input"):
                user_access = access
            elif access.is_write:
                script_access = access
        if user_access is None or script_access is None:
            return False, "no user input involved"
        if script_access.detail.get("read_before_write"):
            return False, "script checked the field before writing"
        return True, "script write can erase user input"

    def _judge_event_dispatch(self, race: Race):
        """Harmful iff a handler added to a single-dispatch event might
        never run (the Gomez pattern, Section 6.3)."""
        location = race.location
        if not isinstance(location, HandlerLocation):
            return False, "not a handler location"
        if location.event not in SINGLE_DISPATCH_EVENTS:
            return False, f"{location.event} dispatches repeatedly"
        writer = None
        for access in (race.prior, race.current):
            if access.is_write:
                writer = access
        if writer is None:
            return False, "no handler registration involved"
        if writer.detail.get("removal"):
            return False, "racing access removes a handler"
        if writer.detail.get("deliberate_delay"):
            return False, "handler added by deliberately delayed script"
        return True, "handler on single-dispatch event may never run"


@dataclass
class RaceReport:
    """All races of one execution, classified and summarised."""

    classified: List[ClassifiedRace] = field(default_factory=list)

    @property
    def races(self) -> List[ClassifiedRace]:
        """All classified races."""
        return self.classified

    def by_type(self, race_type: str) -> List[ClassifiedRace]:
        """Classified races of one type."""
        return [c for c in self.classified if c.race_type == race_type]

    def harmful(self) -> List[ClassifiedRace]:
        """Only the harmful races."""
        return [c for c in self.classified if c.harmful]

    def counts(self) -> Dict[str, int]:
        """Race counts per type."""
        counter = Counter(c.race_type for c in self.classified)
        return {race_type: counter.get(race_type, 0) for race_type in RACE_TYPES}

    def harmful_counts(self) -> Dict[str, int]:
        """Harmful race counts per type."""
        counter = Counter(c.race_type for c in self.classified if c.harmful)
        return {race_type: counter.get(race_type, 0) for race_type in RACE_TYPES}

    def total(self) -> int:
        """Total number of classified races."""
        return len(self.classified)

    def summary(self) -> str:
        """One-line summary with per-type counts."""
        counts = self.counts()
        harmful = self.harmful_counts()
        parts = [
            f"{race_type}: {counts[race_type]} ({harmful[race_type]} harmful)"
            for race_type in RACE_TYPES
        ]
        return f"{self.total()} races — " + ", ".join(parts)


def build_report(races: List[Race], trace: Trace) -> RaceReport:
    """Classify and judge a list of detector races against their trace."""
    judge = HarmfulnessJudge(trace)
    classified = [judge.judge(race, classify_race(race)) for race in races]
    return RaceReport(classified=classified)
