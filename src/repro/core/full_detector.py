"""Complete access-history race detector.

The paper's detector keeps one read and one write slot per location and
acknowledges (Section 5.1, "Limitation") that it can miss races: with
operations ``1: read e || 2: write e || 3: read e`` where only ``1 ≺ 2``,
the schedule ``3 · 1 · 2`` hides the 2–3 race because by the time 2
executes, the read slot only remembers 1.

This detector keeps the *entire* access history per location and reports
every racing pair visible in the executed schedule, each pair once.  Its
product job is the candidate sweep of SHB prediction
(:func:`repro.core.hb.shb.predict_races`, behind ``repro predict`` and
``repro analyze --predict``); experiment E10 also uses it to measure the
constant-memory detector's misses.  The paper's detector remains the one
producing the headline numbers.

Checking each access against every earlier one at its location costs the
square of the accesses there.  The HB store's chains
(:mod:`repro.core.hb.graph`) avoid that, because the operations of one
chain are totally ordered:

* the rows on a row's own chain are all ordered with it;
* edges point from older to newer operations, so ids rise along a chain
  and, on another chain ``c``, only the rows with ids below the row's
  operation ``o`` can happen before it: those at positions up to ``o``'s
  clock entry for ``c``, a prefix found by bisection after one clock read;
* the rows above ``o``'s id that happen *after* ``o`` are a suffix (each
  position's clock covers the one below it), found by bisection over
  their clocks.  In a trace recorded in execution order it is empty.

So each location keeps its rows per chain, ordered by chain position,
reads and writes apart, and the earlier rows concurrent with a row are
one slice per other chain.  The slices are reported in prior-row order
through the same pair dedup as the pairwise sweep, so the races, their
order and their ``Access`` rows equal that sweep's for any trace, rows out
of happens-before order included (``tests/core/detector_oracle.py`` keeps
the pairwise sweep as the oracle).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .detector import READ_WRITE, WRITE_WRITE, Race
from .hb.graph import HBGraph
from .trace import Trace

#: The clock of an operation the HB store never registered: nothing
#: happens before it, and it happens before nothing.
_NO_CLOCK: Dict[int, int] = {}


class FullHistoryDetector:
    """Race detector that remembers every access row per location."""

    def __init__(self, trace: Trace, hb: HBGraph):
        self.trace = trace
        self.hb = hb
        #: location id -> flat ``[chain, is_read, rows, chain, is_read,
        #: rows, …]``: that location's reads or writes on that chain, by
        #: chain position (rows at one position in trace order).  A page
        #: has many locations with few rows each, and one flat list per
        #: location costs far less than a dict per location or chain.
        self.history: Dict[int, list] = {}
        #: row -> chain position of its operation.
        self._positions: List[int] = []
        self.races: List[Race] = []
        #: (location id, low op, high op) of every reported pair.
        self._seen_pairs: Set[Tuple[int, int, int]] = set()
        #: HB lookups: one clock read per other chain holding conflicting
        #: rows, plus one per probe for rows that happen after.  Never
        #: more than the pairwise sweep's one CHC query per earlier
        #: conflicting access.
        self.chc_queries = 0

    def _place(self, op_id: int) -> Tuple[int, int, Dict[int, int]]:
        placed = self.hb.place(op_id)
        if placed is None:
            # Never registered: a chain of its own, concurrent with all.
            return -1 - op_id, 0, _NO_CLOCK
        return placed

    def on_access(self, row: int) -> None:
        """Check one row against every prior row at its location; rows
        come in trace order, from the trace's first row."""
        trace = self.trace
        loc = trace.locs[row]
        op_id = trace.ops[row]
        is_read = trace.reads[row]
        chain, position, clock = self._place(op_id)
        self._positions.append(position)
        entries = self.history.get(loc)
        if entries is None:
            entries = self.history[loc] = []
        own = None
        hits: List[int] = []
        for at in range(0, len(entries), 3):
            other, reads, rows = entries[at : at + 3]
            if other == chain:
                if reads == is_read:
                    own = rows
            elif not (reads and is_read):
                start, end = self._concurrent_slice(
                    rows, other, op_id, chain, position, clock
                )
                hits += rows[start:end]
        hits.sort()
        for prior in hits:
            self._report(prior, row, loc)
        if own is None:
            entries += (chain, is_read, [row])
        else:
            own.insert(_first_above(own, self._positions, position), row)

    def _concurrent_slice(
        self,
        rows: List[int],
        other: int,
        op_id: int,
        chain: int,
        position: int,
        clock: Dict[int, int],
    ) -> Tuple[int, int]:
        """``(start, end)``: the rows on chain ``other`` whose operations
        are concurrent with ``op_id`` (at ``position`` on ``chain``)."""
        ops = self.trace.ops
        # Edges point from lower to higher ids, so ids rise along a
        # chain: a lower id cannot happen after op_id, a higher one
        # cannot happen before it.
        split = _first_above(rows, ops, op_id)
        start = 0
        if split:
            self.chc_queries += 1
            start = _first_above(
                rows, self._positions, clock.get(other, -1), 0, split
            )
        low, high = split, len(rows)
        while low < high:
            middle = (low + high) // 2
            self.chc_queries += 1
            if self._place(ops[rows[middle]])[2].get(chain, -1) >= position:
                high = middle
            else:
                low = middle + 1
        return start, low

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


def _first_above(
    rows: List[int],
    key: Sequence[int],
    value: int,
    low: int = 0,
    high: Optional[int] = None,
) -> int:
    """Index of the first of ``rows[low:high]`` whose ``key[row]``
    exceeds ``value`` (``key[row]`` ascends along ``rows``)."""
    if high is None:
        high = len(rows)
    while low < high:
        middle = (low + high) // 2
        if key[rows[middle]] > value:
            high = middle
        else:
            low = middle + 1
    return low
