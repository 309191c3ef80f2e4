"""Post-processing race filters (paper, Section 5.3).

WebRacer supports pluggable filters that heuristically suppress races
unlikely to reflect application bugs.  The two filters the paper found
valuable on production sites:

* **Focus on form races** — keep only the *variable* races that involve the
  value of an HTML form field, and among those drop races where the writing
  operation read the field before writing it (such reads typically check
  whether the user already typed something, which makes the race harmless).

* **Focus on single-dispatch events** — keep only the *event dispatch*
  races on events that fire at most once (``load``, ``DOMContentLoaded``,
  ``readystatechange``, ...): miss the registration window for those and
  the handler never runs.  A lost ``click`` handler, by contrast, usually
  gets another chance.

HTML and function races pass through untouched — Table 2's HTML/function
columns are unchanged by filtering.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .access import Access
from .detector import Race
from .locations import DomPropLocation, HandlerLocation
from ..obs import NULL
from .report import (
    EVENT_DISPATCH,
    HTML,
    SINGLE_DISPATCH_EVENTS,
    VARIABLE,
    classify_race,
)
from .trace import Trace

#: A filter takes (race, race_type, trace) and returns True to *keep* it.
RaceFilter = Callable[[Race, str, Trace], bool]


def form_race_filter(race: Race, race_type: str, trace: Trace) -> bool:
    """Keep variable races only when they endanger a form-field value."""
    if race_type != VARIABLE:
        return True
    location = race.location
    if not isinstance(location, DomPropLocation):
        return False
    if not location.is_form_field_value:
        return False
    # Enhancement from the paper: drop the race if the operation writing
    # the field value read it first (a "did the user type?" guard).  The
    # guard manifests on either side: as a write access whose operation
    # read the location earlier, or as the guard *read* itself racing with
    # the user's write (the same operation writes the location afterwards).
    for access in (race.prior, race.current):
        if access.is_write and _read_preceded_write(access, trace):
            return False
        if access.is_read and _write_follows_read(access, trace):
            return False
    return True


def _read_preceded_write(write: Access, trace: Trace) -> bool:
    """Did ``write``'s operation read the same location before writing?

    Answered from the location's accesses by ``seq`` (row) comparison.
    """
    if write.detail.get("read_before_write"):
        return True
    return any(
        access.is_read and access.op_id == write.op_id and access.seq < write.seq
        for access in trace.accesses_to(write.location)
    )


def _write_follows_read(read: Access, trace: Trace) -> bool:
    """Does ``read``'s operation write the same location later on?"""
    return any(
        access.is_write and access.op_id == read.op_id and access.seq > read.seq
        for access in trace.accesses_to(read.location)
    )


def single_dispatch_filter(race: Race, race_type: str, trace: Trace) -> bool:
    """Keep event-dispatch races only for at-most-once events."""
    if race_type != EVENT_DISPATCH:
        return True
    location = race.location
    if not isinstance(location, HandlerLocation):
        return False
    return location.event in SINGLE_DISPATCH_EVENTS


DEFAULT_FILTERS: List[RaceFilter] = [form_race_filter, single_dispatch_filter]


class FilterChain:
    """Applies a list of filters and remembers what each one removed."""

    def __init__(self, filters: Optional[List[RaceFilter]] = None, obs=None):
        self.filters = list(filters) if filters is not None else list(DEFAULT_FILTERS)
        self.obs = obs if obs is not None else NULL
        self.removed: Dict[str, List[Race]] = {}

    def apply(self, races: List[Race], trace: Trace) -> List[Race]:
        """Run every filter over ``races``; returns the survivors."""
        self.removed = {}
        with self.obs.span("filters", cat="pipeline", races=len(races)):
            kept: List[Race] = []
            for race in races:
                race_type = classify_race(race)
                dropped_by = None
                for race_filter in self.filters:
                    if not race_filter(race, race_type, trace):
                        dropped_by = getattr(race_filter, "__name__", repr(race_filter))
                        break
                if dropped_by is None:
                    kept.append(race)
                else:
                    self.removed.setdefault(dropped_by, []).append(race)
            if self.obs.enabled:
                self.obs.count("filter.kept", len(kept))
                for name, dropped in self.removed.items():
                    self.obs.count("filter.removed." + name, len(dropped))
        return kept

    def removed_counts(self) -> Dict[str, int]:
        """Per-filter suppression tally of the last apply().

        Every configured filter appears in the result, including those
        that removed nothing — so machine-readable corpus output always
        carries the full filter inventory.
        """
        counts = {
            getattr(race_filter, "__name__", repr(race_filter)): 0
            for race_filter in self.filters
        }
        for name, dropped in self.removed.items():
            counts[name] = len(dropped)
        return counts
