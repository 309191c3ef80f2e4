"""Execution traces.

A :class:`Trace` is the complete observable record of one page execution:
the operations that ran, every logical memory access they performed, and the
script crashes that were hidden from the user.  A run only records it; the
race detector, the full-history detector, the filters and the experiment
harness all consume it after the fact.  (The paper's instrumentation
instead feeds its detector during execution, without keeping a trace,
Section 5.2.1; both report the same races, see ``Monitor.races``.)

A trace holds no reference back to itself or to its readers, so it is
freed the moment its last owner drops it, without waiting for the cycle
collector.

Accesses are stored as columns of plain integers, one *row* per access:
operation id, location id, read flag and call/declaration bits, plus a
detail dict for the few rows that carry one.  Each location is interned
once, by its key ``(LocationClass, *fields)`` — exactly the frozen
dataclass's equality.  Only the key is kept: its
:class:`~repro.core.locations.Location` object is built the first time
something reads it (:meth:`Trace.location`), which race reports, filters,
evidence, SHB and serialization do, and a run without races never does.
:class:`~repro.core.access.Access` records are built on demand
(``trace.accesses``, ``trace.access(row)``); ``Access.seq`` is the row
index.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import fields
from typing import Dict, Iterator, List, Optional, Tuple

from .access import READ, WRITE, Access
from .locations import Location
from .operations import Operation, OperationFactory

#: Bits of a row's ``bits`` column.
CALL = 1
FUNCTION_DECL = 2

#: ``(LocationClass, *field values)``: equal keys <=> equal locations.
LocationKey = Tuple


def location_key(location: Location) -> LocationKey:
    """The interning key of a location object."""
    return (type(location), *(getattr(location, f.name) for f in fields(location)))


class AccessView(Sequence):
    """Read-only sequence of a trace's accesses, built row by row on demand."""

    def __init__(self, trace: "Trace"):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.ops)

    def __getitem__(self, index):
        rows = range(len(self._trace.ops))
        if isinstance(index, slice):
            return [self._trace.access(row) for row in rows[index]]
        return self._trace.access(rows[index])

    def __iter__(self) -> Iterator[Access]:
        return map(self._trace.access, range(len(self._trace.ops)))


class Trace:
    """Operations + accesses + crashes of one execution."""

    def __init__(self, operations: Optional[OperationFactory] = None):
        self.operations = operations if operations is not None else OperationFactory()
        # One column per field, indexed by row.
        self.ops: List[int] = []
        self.locs: List[int] = []
        self.reads: List[bool] = []
        self.bits: List[int] = []
        #: row -> detail dict, only for rows that have one.
        self.details: Dict[int, dict] = {}
        #: location id -> key, and key -> location id.
        self._location_keys: List[LocationKey] = []
        self._location_ids: Dict[LocationKey, int] = {}
        #: location id -> Location, for the ids read so far.
        self._locations: Dict[int, Location] = {}
        #: location id -> [rows scanned, rows at the location].
        self._location_rows: Dict[int, list] = {}
        self.crashes: List = []  # repro.js.errors.ScriptCrash values

    @property
    def accesses(self) -> AccessView:
        """Every access as an :class:`Access` sequence (a fresh view, so
        the trace does not reference itself)."""
        return AccessView(self)

    # ------------------------------------------------------------------
    # recording

    def intern(self, key: LocationKey) -> int:
        """The dense id of location ``key``, assigned on first sight."""
        loc = self._location_ids.get(key)
        if loc is None:
            loc = self._location_ids[key] = len(self._location_keys)
            self._location_keys.append(key)
        return loc

    def record(
        self,
        op_id: int,
        loc: int,
        is_read: bool,
        bits: int = 0,
        detail: Optional[dict] = None,
    ) -> int:
        """Append one access row and return its index."""
        row = len(self.ops)
        self.ops.append(op_id)
        self.locs.append(loc)
        self.reads.append(is_read)
        self.bits.append(bits)
        if detail:
            self.details[row] = detail
        return row

    def record_crash(self, crash) -> None:
        """Append a hidden-crash record."""
        self.crashes.append(crash)

    # ------------------------------------------------------------------
    # queries

    def location(self, loc: int) -> Location:
        """The :class:`Location` of location id ``loc``, built on its first
        read; every later read returns the same object."""
        location = self._locations.get(loc)
        if location is None:
            key = self._location_keys[loc]
            location = self._locations[loc] = key[0](*key[1:])
        return location

    def access(self, row: int) -> Access:
        """The :class:`Access` record of one row (built fresh)."""
        bits = self.bits[row]
        return Access(
            kind=READ if self.reads[row] else WRITE,
            op_id=self.ops[row],
            location=self.location(self.locs[row]),
            seq=row,
            is_call=bool(bits & CALL),
            is_function_decl=bool(bits & FUNCTION_DECL),
            detail=self.details.get(row, {}),
        )

    def rows_of(self, location: Location) -> List[int]:
        """Rows accessing ``location``, in trace order.

        Built on the first request for a location and extended by the rows
        recorded since, so only the locations asked about are indexed.
        """
        loc = self._location_ids.get(location_key(location))
        if loc is None:
            return []
        entry = self._location_rows.get(loc)
        if entry is None:
            entry = self._location_rows[loc] = [0, []]
        scanned, rows = entry
        locs = self.locs
        if scanned < len(locs):
            row = scanned - 1
            try:
                while True:
                    row = locs.index(loc, row + 1)
                    rows.append(row)
            except ValueError:
                pass
            entry[0] = len(locs)
        return rows

    def operation(self, op_id: int) -> Operation:
        """Look up an operation by id."""
        return self.operations.get(op_id)

    def accesses_to(self, location: Location) -> List[Access]:
        """All accesses to one location, in order."""
        return [self.access(row) for row in self.rows_of(location)]

    def locations(self) -> List[Location]:
        """Distinct locations accessed, in first-touch order."""
        return [self.location(loc) for loc in range(len(self._location_keys))]

    def identity(self) -> Tuple:
        """What a replay of this run must reproduce, as one comparable value.

        Operations as ``(kind, label, parent)`` in id order, location keys
        in first-touch order, the four row columns, the detail dicts, and
        crashes as ``(operation, kind, where)``.  The detector, the filters
        and classification read nothing else of a trace, so two runs with
        equal identities and equal HB edges report the same races.  The
        columns are shared, not copied: take it once the run has finished.
        """
        return (
            [(op.kind, op.label, op.parent) for op in self.operations],
            self._location_keys,
            self.ops,
            self.locs,
            self.reads,
            self.bits,
            self.details,
            [(crash.operation, crash.kind, crash.where) for crash in self.crashes],
        )

    def __len__(self) -> int:
        return len(self.ops)

    def summary(self) -> str:
        """One-line trace statistics."""
        return (
            f"Trace: {len(self.operations)} operations, "
            f"{len(self.ops)} accesses, {len(self.crashes)} hidden crashes"
        )
