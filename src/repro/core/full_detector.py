"""Complete access-history race detector.

The paper's detector keeps one read and one write slot per location and
acknowledges (Section 5.1, "Limitation") that it can miss races: with
operations ``1: read e || 2: write e || 3: read e`` where only ``1 ≺ 2``,
the schedule ``3 · 1 · 2`` hides the 2–3 race because by the time 2
executes, the read slot only remembers 1.

This detector keeps the *entire* access history per location and checks the
current access against every prior access, so it reports every racing pair
visible in the executed schedule.  It exists to quantify the constant-memory
detector's miss rate (experiment E10); the paper's detector remains the one
producing the headline numbers.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .detector import READ_WRITE, WRITE_WRITE, Race
from .hb.backend import HBBackend
from .locations import Location
from .trace import Trace
from ..obs import NULL


class FullHistoryDetector:
    """Race detector that remembers every access row per location."""

    def __init__(
        self,
        trace: Trace,
        hb: HBBackend,
        dedup_per_location: bool = False,
        obs=None,
    ):
        self.trace = trace
        self.hb = hb
        self.dedup_per_location = dedup_per_location
        self.obs = obs if obs is not None else NULL
        #: location id -> every row at that location, in trace order.
        self.history: Dict[int, List[int]] = {}
        self.races: List[Race] = []
        #: (location id, low op, high op) of every reported pair.
        self._seen_pairs: Set[Tuple[int, int, int]] = set()
        self._reported_locations: Set[int] = set()
        self.chc_queries = 0

    def on_access(self, row: int) -> None:
        """Check one row against every prior row at its location."""
        trace = self.trace
        ops, reads = trace.ops, trace.reads
        loc = trace.locs[row]
        op_id = ops[row]
        is_read = reads[row]
        history = self.history.setdefault(loc, [])
        for prior in history:
            prior_op = ops[prior]
            if prior_op == op_id:
                continue
            if is_read and reads[prior]:
                continue
            self.chc_queries += 1
            if self.obs.enabled:
                self.obs.count("chc.query.full_history")
            if not self.hb.concurrent(prior_op, op_id):
                continue
            self._report(prior, row, loc)
        history.append(row)

    def replay(self) -> "FullHistoryDetector":
        """Feed every row already in the trace through :meth:`on_access`."""
        for row in range(len(self.trace)):
            self.on_access(row)
        return self

    def _report(self, prior: int, row: int, loc: int) -> None:
        if self.dedup_per_location and loc in self._reported_locations:
            return
        trace = self.trace
        a, b = trace.ops[prior], trace.ops[row]
        pair_key = (loc, min(a, b), max(a, b))
        if pair_key in self._seen_pairs:
            return
        self._seen_pairs.add(pair_key)
        self._reported_locations.add(loc)
        both_write = not (trace.reads[prior] or trace.reads[row])
        self.races.append(
            Race(
                location=trace.location_table[loc],
                prior=trace.access(prior),
                current=trace.access(row),
                kind=WRITE_WRITE if both_write else READ_WRITE,
            )
        )

    # ------------------------------------------------------------------

    def race_count(self) -> int:
        """Total races reported so far."""
        return len(self.races)

    def racing_locations(self) -> Set[Location]:
        """The set of locations with at least one race."""
        return {race.location for race in self.races}

    def missed_by(self, constant_memory_races: List[Race]) -> List[Race]:
        """Races this detector found whose location the constant-memory
        detector reported nothing for — the Section 5.1 misses."""
        reported = {race.location for race in constant_memory_races}
        return [race for race in self.races if race.location not in reported]
