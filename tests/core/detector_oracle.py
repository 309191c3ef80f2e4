"""Reference race detectors for tests.

The object detectors that :class:`repro.core.detector.RaceDetector` and
:class:`repro.core.full_detector.FullHistoryDetector` replaced: they take
one :class:`~repro.core.access.Access` at a time and key their state by
the :class:`~repro.core.locations.Location` object
(``Dict[Location, Access]``), so every step is spelled out on the records
the reports print.  The row detectors are checked against them race for
race, CHC query for CHC query.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.core.access import Access
from repro.core.detector import READ_WRITE, WRITE_WRITE, Race
from repro.core.locations import Location


class OracleRaceDetector:
    """The constant-memory LastRead/LastWrite detector over ``Access``."""

    def __init__(self, hb):
        self.hb = hb
        self.last_read: Dict[Location, Access] = {}
        self.last_write: Dict[Location, Access] = {}
        self.races: List[Race] = []
        self._reported_locations: Set[Location] = set()
        self.chc_queries = 0

    def _chc(self, prior: Optional[Access], current: Access) -> bool:
        if prior is None:
            return False
        if prior.op_id == current.op_id:
            return False
        self.chc_queries += 1
        return self.hb.concurrent(prior.op_id, current.op_id)

    def _report(self, prior: Access, current: Access, kind: str) -> None:
        if current.location in self._reported_locations:
            return
        self._reported_locations.add(current.location)
        self.races.append(
            Race(location=current.location, prior=prior, current=current, kind=kind)
        )

    def on_access(self, access: Access) -> None:
        location = access.location
        if access.is_read:
            prior_write = self.last_write.get(location)
            if self._chc(prior_write, access):
                self._report(prior_write, access, READ_WRITE)
            self.last_read[location] = access
            return
        prior_write = self.last_write.get(location)
        prior_read = self.last_read.get(location)
        write_races = self._chc(prior_write, access)
        read_races = self._chc(prior_read, access)
        if write_races:
            self._report(prior_write, access, WRITE_WRITE)
        if read_races and not write_races:
            self._report(prior_read, access, READ_WRITE)
        self.last_write[location] = access


class OracleFullHistoryDetector:
    """The complete access-history detector over ``Access``."""

    def __init__(self, hb):
        self.hb = hb
        self.history: Dict[Location, List[Access]] = {}
        self.races: List[Race] = []
        self._seen_pairs: Set[Tuple[Location, int, int]] = set()
        self.chc_queries = 0

    def on_access(self, access: Access) -> None:
        location = access.location
        history = self.history.setdefault(location, [])
        for prior in history:
            if prior.op_id == access.op_id:
                continue
            if not (prior.is_write or access.is_write):
                continue
            self.chc_queries += 1
            if not self.hb.concurrent(prior.op_id, access.op_id):
                continue
            self._report(prior, access)
        history.append(access)

    def _report(self, prior: Access, current: Access) -> None:
        location = current.location
        kind = WRITE_WRITE if (prior.is_write and current.is_write) else READ_WRITE
        race = Race(location=location, prior=prior, current=current, kind=kind)
        pair_key = race.pair_key()
        if pair_key in self._seen_pairs:
            return
        self._seen_pairs.add(pair_key)
        self.races.append(race)
