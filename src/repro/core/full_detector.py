"""Complete access-history race detector.

The paper's detector keeps one read and one write slot per location and
acknowledges (Section 5.1, "Limitation") that it can miss races: with
operations ``1: read e || 2: write e || 3: read e`` where only ``1 ≺ 2``,
the schedule ``3 · 1 · 2`` hides the 2–3 race because by the time 2
executes, the read slot only remembers 1.

This detector keeps the *entire* access history per location and checks the
current access against every prior access, so it reports every racing pair
visible in the executed schedule, each pair once.  Its product job is the
candidate sweep of SHB prediction (:func:`repro.core.hb.shb.predict_races`,
behind ``repro predict`` and ``repro analyze --predict``); experiment E10
also uses it to measure the constant-memory detector's misses.  The
paper's detector remains the one producing the headline numbers.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .detector import READ_WRITE, WRITE_WRITE, Race
from .hb.graph import HBGraph
from .trace import Trace


class FullHistoryDetector:
    """Race detector that remembers every access row per location."""

    def __init__(self, trace: Trace, hb: HBGraph):
        self.trace = trace
        self.hb = hb
        #: location id -> every row at that location, in trace order.
        self.history: Dict[int, List[int]] = {}
        self.races: List[Race] = []
        #: (location id, low op, high op) of every reported pair.
        self._seen_pairs: Set[Tuple[int, int, int]] = set()
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
        trace = self.trace
        a, b = trace.ops[prior], trace.ops[row]
        pair_key = (loc, min(a, b), max(a, b))
        if pair_key in self._seen_pairs:
            return
        self._seen_pairs.add(pair_key)
        both_write = not (trace.reads[prior] or trace.reads[row])
        self.races.append(
            Race(
                location=trace.location(loc),
                prior=trace.access(prior),
                current=trace.access(row),
                kind=WRITE_WRITE if both_write else READ_WRITE,
            )
        )
