"""Record ``Access``-shaped test inputs as trace rows.

Tests describe accesses as :class:`~repro.core.access.Access` values;
these helpers write them through :meth:`Trace.record` (interning the
location by its key) or :meth:`Monitor.record`, and hand detectors the
resulting rows.
"""

from typing import Optional

from repro.core.access import Access
from repro.core.trace import CALL, FUNCTION_DECL, Trace, location_key


def record(trace: Trace, access: Access) -> Access:
    """Record ``access`` in ``trace``; returns the stored record (``seq`` = row)."""
    row = trace.record(
        access.op_id,
        trace.intern(location_key(access.location)),
        access.is_read,
        (CALL if access.is_call else 0)
        | (FUNCTION_DECL if access.is_function_decl else 0),
        dict(access.detail),
    )
    return trace.access(row)


def feed(detector, access: Access) -> Access:
    """Record ``access`` in the detector's trace and run the detector on it."""
    stored = record(detector.trace, access)
    detector.on_access(stored.seq)
    return stored


def monitor_record(monitor, kind: str, location) -> Optional[Access]:
    """``Monitor.record`` of a location object; the stored record, or None."""
    row = monitor.record(kind, location_key(location))
    return None if row is None else monitor.trace.access(row)
