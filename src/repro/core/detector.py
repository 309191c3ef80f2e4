"""WebRacer's dynamic race detector (paper, Section 5.1).

The detector keeps exactly two cells of auxiliary state per logical
location — the last read and the last write — so it scales with the number
of locations, not the number of operations.  On each access it asks the
happens-before relation whether the stored operation *Can Happen
Concurrently* (CHC) with the current one and reports a race if so:

* on a **read**: race if CHC(LastWrite[l], op) — a read-write race;
* on a **write**: race if CHC(LastWrite[l], op) (write-write) or
  CHC(LastRead[l], op) (read-write).

The paper notes (and we reproduce in ``full_detector``/E10) that keeping
only the most recent access per slot can miss races.  Like the paper's
tool, at most one race is reported per location per run (footnote 13):
a write that races with both slots reports the write-write race.

The detector works on trace rows (:mod:`repro.core.trace`): both cells map
a location id to a row, and the two racing
:class:`~repro.core.access.Access` records are built only when a race is
reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from .access import Access
from .hb.graph import HBGraph
from .locations import Location
from .trace import Trace
from ..obs import NULL

READ_WRITE = "read-write"
WRITE_WRITE = "write-write"

#: Obs counter bumped once per CHC query the detector issues.
CHC_QUERY_COUNTER = "chc.query.graph"


@dataclass
class Race:
    """A reported race: two CHC-unordered accesses, one of them a write."""

    location: Location
    prior: Access
    current: Access
    kind: str  # READ_WRITE or WRITE_WRITE

    def op_pair(self) -> tuple:
        """The two racing operation ids as a tuple."""
        return (self.prior.op_id, self.current.op_id)

    def pair_key(self) -> tuple:
        """Order-independent identity ``(location, low op, high op)``.

        The key both the full-history deduplicator and the SHB
        prediction sweep match races on: the same conflicting pair
        reported in either access order compares equal.
        """
        a, b = self.prior.op_id, self.current.op_id
        return (self.location, min(a, b), max(a, b))

    def describe(self) -> str:
        """Human-readable one-line description."""
        return (
            f"{self.kind} race on {self.location.describe()}: "
            f"op {self.prior.op_id} ({self.prior.kind}) vs "
            f"op {self.current.op_id} ({self.current.kind})"
        )

    def __repr__(self) -> str:
        return f"Race({self.describe()})"


class RaceDetector:
    """The constant-memory LastRead/LastWrite detector over a trace's rows."""

    def __init__(self, trace: Trace, hb: HBGraph, obs=None):
        self.trace = trace
        self.hb = hb
        self.obs = obs if obs is not None else NULL
        #: location id -> row of the last read / last write there.
        self.last_read: Dict[int, int] = {}
        self.last_write: Dict[int, int] = {}
        self.races: List[Race] = []
        self._reported_locations: Set[int] = set()
        #: Number of CHC queries issued — the cost metric for E9.
        self.chc_queries = 0

    # ------------------------------------------------------------------

    def _chc(self, prior: Optional[int], op_id: int) -> bool:
        """CHC of row ``prior``'s operation with ``op_id``; ⊥ never races."""
        if prior is None:
            return False
        prior_op = self.trace.ops[prior]
        if prior_op == op_id:
            # Same-operation pairs are settled without consulting the HB
            # relation, so they must not count toward the E9 query metric.
            return False
        self.chc_queries += 1
        concurrent = self.hb.concurrent(prior_op, op_id)
        if self.obs.enabled:
            self.obs.count(CHC_QUERY_COUNTER)
            self.obs.count("chc.hit" if concurrent else "chc.miss")
        return concurrent

    def _report(self, prior: int, row: int, loc: int, kind: str) -> None:
        if loc in self._reported_locations:
            return
        self._reported_locations.add(loc)
        trace = self.trace
        location = trace.location(loc)
        if self.obs.enabled:
            self.obs.count("race.reported")
            self.obs.instant("race", kind=kind, location=location.describe())
        self.races.append(
            Race(
                location=location,
                prior=trace.access(prior),
                current=trace.access(row),
                kind=kind,
            )
        )

    def on_access(self, row: int) -> None:
        """Process one trace row (the monitor calls this as it records)."""
        trace = self.trace
        loc = trace.locs[row]
        op_id = trace.ops[row]
        prior_write = self.last_write.get(loc)
        if trace.reads[row]:
            if self._chc(prior_write, op_id):
                self._report(prior_write, row, loc, READ_WRITE)
            self.last_read[loc] = row
            return
        # write
        prior_read = self.last_read.get(loc)
        write_races = self._chc(prior_write, op_id)
        read_races = self._chc(prior_read, op_id)
        if write_races:
            self._report(prior_write, row, loc, WRITE_WRITE)
        if read_races and not write_races:
            self._report(prior_read, row, loc, READ_WRITE)
        self.last_write[loc] = row

    def replay(self) -> "RaceDetector":
        """Feed every row already in the trace through :meth:`on_access`."""
        for row in range(len(self.trace)):
            self.on_access(row)
        return self
