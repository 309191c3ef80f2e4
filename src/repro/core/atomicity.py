"""Atomicity-violation (lost update) checking.

The paper's footnote 2: "Apart from dynamic race detection, our models are
also a suitable basis for other concurrency analyses, e.g., static race
detection or atomicity checking."  This module implements the dynamic
atomicity half on top of the same trace and happens-before relation.

The target pattern is the *lost update*: an operation ``A`` reads a
location, computes with the value, and writes it back — while an unordered
operation ``B`` writes the same location in between.  ``B``'s update is
silently overwritten even though each individual pair of accesses might
look benign.  The classic web instance is two scripts doing
``counter = counter + 1`` or appending to a shared list/string: under one
schedule both updates land, under another one vanishes — strictly more
information than the race report alone (which flags the location but not
the atomicity of the read-modify-write).

Detection is offline over a finished trace: for every location, find
triples ``read_A … write_B … write_A`` (in observed order) where ``B`` is
CHC-concurrent with ``A`` and the read/write of ``A`` bracket ``B``'s
write.  Bracketing uses the operation's access window, which is sound for
the web model because operations are atomic (never preempted) — any
*observed* interleaving ``r_A < w_B < w_A`` can only happen when segments
of ``A`` surround ``B``, i.e. when ``A`` was an inline-dispatch split; for
unsplit operations the interesting case is ``B`` unordered with ``A``
entirely, which we also report (the schedule could serialize ``B`` into
``A``'s read-to-write window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .access import Access
from .hb.graph import HBGraph
from .locations import Location
from .trace import Trace


@dataclass
class AtomicityViolation:
    """A potential lost update on ``location``."""

    location: Location
    #: The read-modify-write operation's read and write.
    read: Access
    write_back: Access
    #: The concurrent intervening write.
    intervening: Access

    def describe(self) -> str:
        """Human-readable one-line description."""
        return (
            f"lost update on {self.location.describe()}: op "
            f"{self.read.op_id} read (seq {self.read.seq}) and wrote back "
            f"(seq {self.write_back.seq}) around concurrent write by op "
            f"{self.intervening.op_id} (seq {self.intervening.seq})"
        )

    def __repr__(self) -> str:
        return f"AtomicityViolation({self.describe()})"


class AtomicityChecker:
    """Offline lost-update detector over a trace + HB graph."""

    def __init__(self, trace: Trace, graph: HBGraph):
        self.trace = trace
        self.graph = graph
        self.violations: List[AtomicityViolation] = []

    def check(self) -> List[AtomicityViolation]:
        """Scan the trace; returns (and stores) all violations."""
        by_location: Dict[Location, List[Access]] = {}
        for access in self.trace.accesses:
            by_location.setdefault(access.location, []).append(access)
        self.violations = []
        reported: set = set()
        for location, accesses in by_location.items():
            self._check_location(location, accesses, reported)
        return self.violations

    def _check_location(
        self, location: Location, accesses: List[Access], reported: set
    ) -> None:
        # Read-modify-write windows per operation: first read -> last write
        # after it, within one operation.
        windows: List[Tuple[Access, Access]] = []
        first_read: Dict[int, Access] = {}
        last_write_after_read: Dict[int, Access] = {}
        for access in accesses:
            if access.is_read and access.op_id not in first_read:
                first_read[access.op_id] = access
            elif access.is_write and access.op_id in first_read:
                last_write_after_read[access.op_id] = access
        for op_id, read in first_read.items():
            write_back = last_write_after_read.get(op_id)
            if write_back is not None:
                windows.append((read, write_back))

        if not windows:
            return
        writes = [access for access in accesses if access.is_write]
        for read, write_back in windows:
            for write in writes:
                if write.op_id == read.op_id:
                    continue
                if not self.graph.concurrent(write.op_id, read.op_id):
                    continue
                key = (location, read.op_id, write.op_id)
                if key in reported:
                    continue
                reported.add(key)
                self.violations.append(
                    AtomicityViolation(
                        location=location,
                        read=read,
                        write_back=write_back,
                        intervening=write,
                    )
                )

    def observed_interleavings(self) -> List[AtomicityViolation]:
        """The subset where the intervening write *landed inside* the
        read-to-write window in the observed schedule — updates that were
        demonstrably lost in this very run."""
        return [
            violation
            for violation in self.violations
            if violation.read.seq
            < violation.intervening.seq
            < violation.write_back.seq
        ]


def check_atomicity(trace: Trace, graph: HBGraph) -> List[AtomicityViolation]:
    """Convenience wrapper: run the checker and return the violations."""
    return AtomicityChecker(trace, graph).check()
