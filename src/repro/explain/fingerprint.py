"""Stable race fingerprints for deduplication and clustering.

A fingerprint identifies *what raced where*, not the particular execution
that exposed it: two corpus runs (different seeds, different interleaving
depths) that surface the same logical race should
produce the same fingerprint, so reports can be deduplicated within a run
and clustered across runs.

Volatile identity therefore never enters the hash: operation ids change
with scheduling, and ``VarLocation.cell_id`` / ``PropLocation.object_id``
are heap-allocation order.  What does enter is the stable shape of the
race — access kinds, the classification flags, the operations' *labels*
(``"exe(<script src=hint.js>)"`` is scheduling-independent), and a
location token built from names/ids rather than allocation counters.  The
two sides are sorted so prior/current role flips between schedules do not
split a cluster.
"""

from __future__ import annotations

import hashlib

from ..core.access import Access
from ..core.detector import Race
from ..core.locations import (
    CollectionLocation,
    DomPropLocation,
    ElementKey,
    HandlerLocation,
    HElemLocation,
    Location,
    PropLocation,
    TimerSlotLocation,
    VarLocation,
)
from ..core.trace import Trace

#: Hex digest length kept in reports; 64 bits is ample for per-corpus dedup.
FINGERPRINT_HEX_CHARS = 16


def _element_token(key: ElementKey) -> str:
    """Stable token for an element key: prefer the ``id`` attribute."""
    if key[0] == "id":
        return f"#{key[2]}"
    return f"node{key[1]}"


def location_token(location: Location) -> str:
    """A scheduling-stable token naming one logical location."""
    if isinstance(location, VarLocation):
        return f"var:{location.name or '?'}"
    if isinstance(location, PropLocation):
        return f"prop:{location.name}"
    if isinstance(location, DomPropLocation):
        return (
            f"domprop:{_element_token(location.element)}"
            f".{location.name}:{location.tag}"
        )
    if isinstance(location, HElemLocation):
        return f"helem:{_element_token(location.element)}"
    if isinstance(location, CollectionLocation):
        return f"collection:{location.kind}:{location.key}"
    if isinstance(location, HandlerLocation):
        return (
            f"handler:{_element_token(location.element)}"
            f":{location.event}:{location.handler}"
        )
    if isinstance(location, TimerSlotLocation):
        return f"timer:{location.timer_id}"
    raise TypeError(f"not a location: {location!r}")


def _side_token(access: Access, trace: Trace) -> str:
    """Stable token for one side of a race: access shape + operation label."""
    try:
        operation = trace.operation(access.op_id)
        op_part = f"{operation.kind}:{operation.label}"
    except KeyError:
        op_part = "?:?"
    flags = f"{int(access.is_call)}{int(access.is_function_decl)}"
    return f"{access.kind}/{flags}/{op_part}"


def race_fingerprint(race: Race, trace: Trace) -> str:
    """A stable hex fingerprint for one reported race."""
    sides = sorted(
        (_side_token(race.prior, trace), _side_token(race.current, trace))
    )
    payload = "|".join([race.kind, location_token(race.location), *sides])
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_HEX_CHARS]
