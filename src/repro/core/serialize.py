"""Trace serialization and offline analysis.

WebRacer's instrumentation "communicates events directly to the race
detector, rather than generating a separate event trace" (Section 5.2.1) —
but a persisted trace enables workflows the in-browser tool cannot: capture
once on a machine that can run pages, analyse anywhere; diff traces across
page versions; re-run alternative detectors (full-history, SHB prediction)
without re-executing; archive evidence for a bug report.

This module round-trips the complete observable record — operations, the
labeled happens-before edges, every logical access, and hidden crashes —
through plain JSON.  ``analyze`` replays a loaded trace through any
detector and rebuilds the standard classified report, producing *exactly*
the races the online run produced (a property the tests pin down).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping

from ..inputs import InputError, read_text
from .access import READ
from .detector import RaceDetector
from .filters import FilterChain
from .hb.graph import HBGraph
from .locations import (
    CollectionLocation,
    DomPropLocation,
    HandlerLocation,
    HElemLocation,
    Location,
    PropLocation,
    TimerSlotLocation,
    VarLocation,
)
from .report import RaceReport, build_report
from .trace import CALL, FUNCTION_DECL, LocationKey, Trace

FORMAT_VERSION = 1


def _location_to_json(location: Location) -> Dict[str, Any]:
    if isinstance(location, VarLocation):
        return {"t": "var", "cell_id": location.cell_id, "name": location.name}
    if isinstance(location, PropLocation):
        return {"t": "prop", "object_id": location.object_id, "name": location.name}
    if isinstance(location, DomPropLocation):
        return {
            "t": "domprop",
            "element": list(location.element),
            "name": location.name,
            "tag": location.tag,
        }
    if isinstance(location, HElemLocation):
        return {"t": "helem", "element": list(location.element)}
    if isinstance(location, CollectionLocation):
        return {
            "t": "collection",
            "document_id": location.document_id,
            "kind": location.kind,
            "key": location.key,
        }
    if isinstance(location, HandlerLocation):
        return {
            "t": "handler",
            "element": list(location.element),
            "event": location.event,
            "handler": location.handler,
        }
    if isinstance(location, TimerSlotLocation):
        return {"t": "timer", "timer_id": location.timer_id}
    raise TypeError(f"cannot serialize location {location!r}")


def _location_key_from_json(data: Dict[str, Any]) -> LocationKey:
    """The interning key (``(LocationClass, *fields)``) of a JSON location."""
    kind = data["t"]
    if kind == "var":
        return (VarLocation, data["cell_id"], data["name"])
    if kind == "prop":
        return (PropLocation, data["object_id"], data["name"])
    if kind == "domprop":
        return (DomPropLocation, tuple(data["element"]), data["name"], data["tag"])
    if kind == "helem":
        return (HElemLocation, tuple(data["element"]))
    if kind == "collection":
        return (CollectionLocation, data["document_id"], data["kind"], data["key"])
    if kind == "handler":
        return (
            HandlerLocation,
            tuple(data["element"]),
            data["event"],
            data["handler"],
        )
    if kind == "timer":
        return (TimerSlotLocation, data["timer_id"])
    raise ValueError(f"unknown location type {kind!r}")


def _location_from_json(data: Dict[str, Any]) -> Location:
    key = _location_key_from_json(data)
    return key[0](*key[1:])


def trace_to_dict(trace: Trace, graph: HBGraph) -> Dict[str, Any]:
    """Serialize a trace + happens-before graph to a JSON-able dict."""
    return {
        "version": FORMAT_VERSION,
        "operations": [
            {
                "op_id": op.op_id,
                "kind": op.kind,
                "label": op.label,
                "meta": _jsonable_meta(op.meta),
                "parent": op.parent,
            }
            for op in trace.operations
        ],
        "edges": [
            {"src": edge.src, "dst": edge.dst, "rule": edge.rule}
            for edge in graph.edges
        ],
        "accesses": [
            {
                "kind": access.kind,
                "op_id": access.op_id,
                "location": _location_to_json(access.location),
                "is_call": access.is_call,
                "is_function_decl": access.is_function_decl,
                "detail": _jsonable_meta(access.detail),
            }
            for access in trace.accesses
        ],
        "crashes": [
            {
                "operation": crash.operation,
                "kind": crash.kind,
                "message": str(crash.error),
                "where": crash.where,
            }
            for crash in trace.crashes
        ],
    }


def _jsonable_meta(meta: Mapping[str, Any]) -> Dict[str, Any]:
    out = {}
    for key, value in meta.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = str(value)
    return out


class LoadedTrace:
    """A trace + graph reconstructed from serialized form."""

    def __init__(self, trace: Trace, graph: HBGraph):
        self.trace = trace
        self.graph = graph

    def detect(self) -> RaceDetector:
        """Replay all accesses through a fresh detector; returns it."""
        return RaceDetector(self.trace, self.graph).replay()

    def report(self, apply_filters: bool = True) -> RaceReport:
        """Full offline pipeline: detect, filter, classify, judge."""
        detector = self.detect()
        races = detector.races
        if apply_filters:
            races = FilterChain().apply(races, self.trace)
        return build_report(races, self.trace)

    def predict(self):
        """Offline SHB prediction over the loaded trace.

        Returns a :class:`~repro.core.hb.shb.ShbAnalysis`: the exact
        detector's races for this trace (``observed``) plus every
        conflicting rule-concurrent pair it missed, classified
        ``schedulable``/``conditional`` against the schedulable
        happens-before relation.  The loaded graph retains rule labels,
        so a captured trace predicts exactly what the live run would.
        """
        from .hb.shb import predict_races

        return predict_races(self.trace, self.graph, self.detect().races)

    def explain(self, apply_filters: bool = True):
        """Re-detect and attach HB evidence to every race.

        Returns ``(report, evidence_records)`` — the classified
        :class:`RaceReport` with a :class:`repro.explain.RaceEvidence`
        attached to each race, plus the record list in report order.  The
        loaded graph retains rule labels, so witness paths from a captured
        trace are as precise as from a live run.
        """
        from ..explain import attach_evidence

        report = self.report(apply_filters=apply_filters)
        records = attach_evidence(report, self.trace, self.graph)
        return report, records


def trace_from_dict(data: Dict[str, Any]) -> LoadedTrace:
    """Reconstruct a :class:`LoadedTrace` from :func:`trace_to_dict` output.

    Raises ``ValueError`` when the edges form a happens-before cycle.
    """
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version!r}")
    trace = Trace()
    for op_data in data["operations"]:
        trace.operations.operations[op_data["op_id"]] = _make_operation(op_data)
        trace.operations._next = max(trace.operations._next, op_data["op_id"] + 1)
    graph = HBGraph(assert_forward=False)
    for op_id in trace.operations.operations:
        graph.add_operation(op_id)
    for edge in data["edges"]:
        graph.add_edge(edge["src"], edge["dst"], edge["rule"])
    graph.finalize_all()
    for access_data in data["accesses"]:
        trace.record(
            access_data["op_id"],
            trace.intern(_location_key_from_json(access_data["location"])),
            access_data["kind"] == READ,
            (CALL if access_data["is_call"] else 0)
            | (FUNCTION_DECL if access_data["is_function_decl"] else 0),
            dict(access_data["detail"]),
        )
    for crash_data in data["crashes"]:
        trace.record_crash(_LoadedCrash(crash_data))
    return LoadedTrace(trace, graph)


def _make_operation(op_data: Dict[str, Any]):
    from .operations import Operation

    return Operation(
        op_id=op_data["op_id"],
        kind=op_data["kind"],
        label=op_data["label"],
        meta=dict(op_data["meta"]),
        parent=op_data["parent"],
    )


class _LoadedCrash:
    """Crash record reconstructed from JSON (error text only)."""

    def __init__(self, data: Dict[str, Any]):
        self.operation = data["operation"]
        self.error = data["message"]
        self.where = data["where"]
        self._kind = data["kind"]

    @property
    def kind(self) -> str:
        """The recorded error class name."""
        return self._kind

    def __repr__(self) -> str:
        return f"LoadedCrash(op={self.operation}, {self._kind}: {self.error})"


def dump_trace(trace: Trace, graph: HBGraph, path: str) -> None:
    """Write a trace + graph to a JSON file."""
    with open(path, "w") as handle:
        json.dump(trace_to_dict(trace, graph), handle)


def load_trace(path: str) -> LoadedTrace:
    """Read a trace file written by :func:`dump_trace`.

    Raises :class:`~repro.inputs.InputError`: ``cannot read trace …`` for
    a file that cannot be read as UTF-8 text, ``corrupt trace …`` (with
    the first line of the reason) for one that is not a trace.
    """
    text = read_text(path, "trace")
    try:
        return loads_trace(text)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        reason = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        raise InputError(f"corrupt trace {path!r}: {reason}") from None


def dumps_trace(trace: Trace, graph: HBGraph) -> str:
    """Serialize a trace + graph to a JSON string."""
    return json.dumps(trace_to_dict(trace, graph))


def loads_trace(text: str) -> LoadedTrace:
    """Load a trace from a JSON string."""
    return trace_from_dict(json.loads(text))
