"""The race-report JSON schema, shipped and enforced.

Like :mod:`repro.obs.trace_event`, the machine-readable race report is a
contract: :data:`REPORT_SCHEMA` is a JSON-Schema-style document describing
exactly what ``--report-json`` emits, and :func:`validate_report` enforces
it without external dependencies (the container has no ``jsonschema``
package, so a small structural validator covering the subset the schema
uses — ``type``, ``properties``, ``required``, ``items``, ``enum``,
``additionalProperties`` — is implemented here).  The CLI validates every
report before writing it, and the tests validate emitted files end to end.
"""

from __future__ import annotations

from typing import Any, Dict

from ..obs.ledger import (
    RACE_VERDICTS,
    RUN_COMMANDS,
    RUN_RECORD_FORMAT,
    RUN_RECORD_VERSION,
)

FORMAT_NAME = "webracer-race-report"
FORMAT_VERSION = 1

_WITNESS_STEP = {
    "type": "object",
    "required": ["src", "dst", "rule"],
    "properties": {
        "src": {"type": "integer"},
        "dst": {"type": "integer"},
        "rule": {"type": "string"},
    },
}

_TIMELINE_ENTRY = {
    "type": "object",
    "required": ["seq", "op_id", "kind", "racing"],
    "properties": {
        "seq": {"type": "integer"},
        "op_id": {"type": "integer"},
        "kind": {"type": "string", "enum": ["read", "write"]},
        "racing": {"type": "boolean"},
    },
}

_OPERATION = {
    "type": "object",
    "required": ["op_id", "kind", "label"],
    "properties": {
        "op_id": {"type": "integer"},
        "kind": {"type": "string"},
        "label": {"type": "string"},
        "parent": {"type": ["integer", "null"]},
        "meta": {"type": "object"},
    },
}

_SIDE = {
    "type": "object",
    "required": [
        "role", "access", "operation", "source", "path_from_nca", "timeline",
    ],
    "properties": {
        "role": {"type": "string", "enum": ["prior", "current"]},
        "access": {
            "type": "object",
            "required": ["kind", "op_id", "seq", "is_call", "is_function_decl"],
            "properties": {
                "kind": {"type": "string", "enum": ["read", "write"]},
                "op_id": {"type": "integer"},
                "seq": {"type": "integer"},
                "is_call": {"type": "boolean"},
                "is_function_decl": {"type": "boolean"},
                "detail": {"type": "object"},
            },
        },
        "operation": _OPERATION,
        "source": {"type": "string"},
        "path_from_nca": {"type": "array", "items": _WITNESS_STEP},
        "timeline": {"type": "array", "items": _TIMELINE_ENTRY},
    },
}

_EVIDENCE = {
    "type": "object",
    "required": [
        "fingerprint", "kind", "location", "race_type", "harmful", "reason",
        "nca", "common_ancestor_count", "prior", "current", "explanation",
    ],
    "properties": {
        "fingerprint": {"type": "string"},
        "kind": {"type": "string", "enum": ["read-write", "write-write"]},
        "location": {
            "type": "object",
            "required": ["describe", "token", "family"],
            "properties": {
                "describe": {"type": "string"},
                "token": {"type": "string"},
                "family": {
                    "type": "string",
                    "enum": ["jsvar", "helem", "eloc"],
                },
            },
        },
        "race_type": {
            "type": "string",
            "enum": ["variable", "html", "function", "event_dispatch"],
        },
        "harmful": {"type": "boolean"},
        "reason": {"type": "string"},
        "nca": {"type": ["object", "null"]},
        "common_ancestor_count": {"type": "integer"},
        "prior": _SIDE,
        "current": _SIDE,
        "explanation": {"type": "string"},
    },
}

_COUNTS = {
    "type": "object",
    "required": ["raw", "filtered", "harmful"],
    "properties": {
        "raw": {"type": "integer"},
        "filtered": {"type": "integer"},
        "harmful": {"type": "integer"},
    },
}

_PAGE = {
    "type": "object",
    "required": ["url", "hb_backend", "races", "filters_removed", "evidence"],
    "properties": {
        "url": {"type": "string"},
        "hb_backend": {"type": "string"},
        "races": _COUNTS,
        "filters_removed": {"type": "object"},
        "evidence": {"type": "array", "items": _EVIDENCE},
    },
}

_CLUSTER = {
    "type": "object",
    "required": ["fingerprint", "count", "pages", "race_type", "harmful"],
    "properties": {
        "fingerprint": {"type": "string"},
        "count": {"type": "integer"},
        "pages": {"type": "array", "items": {"type": "string"}},
        "race_type": {"type": "string"},
        "harmful": {"type": "boolean"},
        "location": {"type": "string"},
    },
}

REPORT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "format", "version", "mode", "hb_backend", "pages", "clusters",
        "totals",
    ],
    "properties": {
        "format": {"type": "string", "enum": [FORMAT_NAME]},
        "version": {"type": "integer", "enum": [FORMAT_VERSION]},
        "mode": {"type": "string", "enum": ["check", "corpus", "explain"]},
        "hb_backend": {"type": "string"},
        "pages": {"type": "array", "items": _PAGE},
        "clusters": {"type": "array", "items": _CLUSTER},
        "totals": {
            "type": "object",
            "required": ["races", "evidence_records", "distinct_fingerprints"],
            "properties": {
                "races": _COUNTS,
                "evidence_records": {"type": "integer"},
                "distinct_fingerprints": {"type": "integer"},
            },
        },
    },
}

PREDICT_FORMAT_NAME = "webracer-predict-report"
PREDICT_FORMAT_VERSION = 1

_RF_EDGE = {
    "type": "object",
    "required": ["src", "dst", "location"],
    "properties": {
        "src": {"type": "integer"},
        "dst": {"type": "integer"},
        "location": {"type": "string"},
    },
}

_WITNESS_RUN = {
    "type": "object",
    "required": ["schedule", "policy", "seed", "error", "fingerprints",
                 "replay_ok"],
    "properties": {
        "schedule": {"type": "string"},
        "policy": {"type": "string"},
        "seed": {"type": ["integer", "null"]},
        "error": {"type": ["string", "null"]},
        "fingerprints": {"type": "array", "items": {"type": "string"}},
        "replay_ok": {"type": ["boolean", "null"]},
        "picks": {"type": "integer"},
        "divergences": {"type": "integer"},
    },
}

_MINIMIZATION = {
    "type": "object",
    "required": ["fingerprint", "page", "original_divergences",
                 "minimized_divergences", "kept_divergences", "tests_run"],
    "properties": {
        "fingerprint": {"type": "string"},
        "page": {"type": "string"},
        "original_divergences": {"type": "integer"},
        "minimized_divergences": {"type": "integer"},
        "kept_divergences": {"type": "array", "items": {"type": "integer"}},
        "tests_run": {"type": "integer"},
        "minimized_trace": {"type": "object"},
    },
}

_PREDICTION = {
    "type": "object",
    "required": [
        "fingerprint", "status", "outcome", "kind", "location",
        "description", "op_pair", "race_type", "harmful", "blocking_rf",
        "confirmed", "witness", "replay_ok", "minimized",
    ],
    "properties": {
        "fingerprint": {"type": "string"},
        "status": {"type": "string", "enum": ["schedulable", "conditional"]},
        "outcome": {
            "type": "string",
            "enum": ["predicted+confirmed", "predicted-only"],
        },
        "kind": {"type": "string", "enum": ["read-write", "write-write"]},
        "location": {"type": "string"},
        "description": {"type": "string"},
        "op_pair": {"type": "array", "items": {"type": "integer"}},
        "race_type": {
            "type": "string",
            "enum": ["variable", "html", "function", "event_dispatch"],
        },
        "harmful": {"type": "boolean"},
        "blocking_rf": {"type": "array", "items": _RF_EDGE},
        "confirmed": {"type": "boolean"},
        "witness": {
            "type": ["object", "null"],
            "required": ["schedule", "policy", "seed"],
            "properties": {
                "schedule": {"type": "string"},
                "policy": {"type": "string"},
                "seed": {"type": ["integer", "null"]},
            },
        },
        "replay_ok": {"type": ["boolean", "null"]},
        "minimized": dict(_MINIMIZATION, type=["object", "null"]),
        "evidence": dict(_EVIDENCE, type=["object", "null"]),
    },
}

_PREDICT_PAGE = {
    "type": "object",
    "required": [
        "url", "error", "observed", "shb", "witness_runs", "predictions",
        "runs_executed",
    ],
    "properties": {
        "url": {"type": "string"},
        "error": {"type": ["string", "null"]},
        "observed": {
            "type": "object",
            "required": ["fingerprints", "races", "pairs"],
            "properties": {
                "fingerprints": {"type": "array", "items": {"type": "string"}},
                "races": {"type": "object"},
                "pairs": {"type": "integer"},
            },
        },
        "shb": {
            "type": "object",
            "required": ["summary", "rf_edges", "rf_racy"],
            "properties": {
                "summary": {"type": "string"},
                "rf_edges": {"type": "integer"},
                "rf_racy": {"type": "integer"},
            },
        },
        "witness_runs": {"type": "array", "items": _WITNESS_RUN},
        "predictions": {"type": "array", "items": _PREDICTION},
        "runs_executed": {"type": "integer"},
    },
}

#: The ``repro predict --json`` document contract.
PREDICT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "format", "version", "seed", "hb_backend", "budget", "pages",
        "totals",
    ],
    "properties": {
        "format": {"type": "string", "enum": [PREDICT_FORMAT_NAME]},
        "version": {"type": "integer", "enum": [PREDICT_FORMAT_VERSION]},
        "seed": {"type": "integer"},
        "hb_backend": {"type": "string"},
        "budget": {"type": "integer"},
        "pages": {"type": "array", "items": _PREDICT_PAGE},
        "totals": {
            "type": "object",
            "required": [
                "pages", "observed", "predicted", "confirmed",
                "predicted_only",
            ],
            "properties": {
                "pages": {"type": "integer"},
                "observed": {"type": "integer"},
                "predicted": {"type": "integer"},
                "confirmed": {"type": "integer"},
                "predicted_only": {"type": "integer"},
            },
        },
    },
}

_RUN_RACE = {
    "type": "object",
    "required": [
        "fingerprint", "verdict", "race_type", "harmful", "location", "page",
    ],
    "properties": {
        "fingerprint": {"type": "string"},
        "verdict": {"type": "string", "enum": list(RACE_VERDICTS)},
        "race_type": {"type": "string"},
        "harmful": {"type": "boolean"},
        "location": {"type": "string"},
        "page": {"type": "string"},
        "description": {"type": "string"},
    },
}

#: One ``--ledger`` run record: the ``repro.obs.ledger`` line format.
RUN_RECORD_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "format", "version", "run_id", "timestamp", "command", "config",
        "config_digest", "duration_ms", "phases", "counters", "totals",
        "races",
    ],
    "properties": {
        "format": {"type": "string", "enum": [RUN_RECORD_FORMAT]},
        "version": {"type": "integer", "enum": [RUN_RECORD_VERSION]},
        "run_id": {"type": "string"},
        "timestamp": {"type": "string"},
        "command": {"type": "string", "enum": list(RUN_COMMANDS)},
        "config": {"type": "object"},
        "config_digest": {"type": "string"},
        "duration_ms": {"type": "number"},
        # Phase/counter names are dynamic (span names); values are
        # checked structurally by the ledger's builders.
        "phases": {"type": "object"},
        "counters": {"type": "object"},
        "totals": {"type": "object"},
        "races": {"type": "array", "items": _RUN_RACE},
    },
}

HISTORY_FORMAT_NAME = "webracer-history-report"
HISTORY_FORMAT_VERSION = 1

_HISTORY_RUN = {
    "type": "object",
    "required": [
        "run_id", "timestamp", "command", "config_digest", "duration_ms",
        "races", "phases",
    ],
    "properties": {
        "run_id": {"type": "string"},
        "timestamp": {"type": "string"},
        "command": {"type": "string"},
        "config_digest": {"type": "string"},
        "duration_ms": {"type": "number"},
        "races": {
            "type": "object",
            "required": ["total", "harmful", "by_verdict"],
            "properties": {
                "total": {"type": "integer"},
                "harmful": {"type": "integer"},
                "by_verdict": {"type": "object"},
            },
        },
        "phases": {"type": "object"},
    },
}

_LIFECYCLE_ENTRY = {
    "type": "object",
    "required": [
        "fingerprint", "status", "first_seen", "last_seen", "occurrences",
        "runs_considered", "race_type", "harmful", "location", "verdict",
    ],
    "properties": {
        "fingerprint": {"type": "string"},
        "status": {
            "type": "string",
            "enum": ["new", "persisting", "resolved", "flaky"],
        },
        "first_seen": {"type": "string"},
        "last_seen": {"type": "string"},
        "occurrences": {"type": "integer"},
        "runs_considered": {"type": "integer"},
        "race_type": {"type": "string"},
        "harmful": {"type": "boolean"},
        "location": {"type": "string"},
        "verdict": {"type": "string"},
    },
}

#: The ``repro history --json`` document contract (also what the HTML
#: trend report renders from — one source of truth for both formats).
HISTORY_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["format", "version", "ledger", "runs", "fingerprints",
                 "totals"],
    "properties": {
        "format": {"type": "string", "enum": [HISTORY_FORMAT_NAME]},
        "version": {"type": "integer", "enum": [HISTORY_FORMAT_VERSION]},
        "ledger": {"type": "string"},
        "runs": {"type": "array", "items": _HISTORY_RUN},
        "fingerprints": {"type": "array", "items": _LIFECYCLE_ENTRY},
        "totals": {
            "type": "object",
            "required": [
                "runs", "fingerprints", "new", "persisting", "resolved",
                "flaky",
            ],
            "properties": {
                "runs": {"type": "integer"},
                "fingerprints": {"type": "integer"},
                "new": {"type": "integer"},
                "persisting": {"type": "integer"},
                "resolved": {"type": "integer"},
                "flaky": {"type": "integer"},
            },
        },
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _check_type(value: Any, expected, path: str) -> None:
    names = expected if isinstance(expected, list) else [expected]
    for name in names:
        python_type = _TYPES[name]
        if isinstance(value, python_type):
            # bool is an int subclass; don't let True pass as an integer.
            if name in ("integer", "number") and isinstance(value, bool):
                continue
            return
    raise ValueError(
        f"{path}: expected {' or '.join(names)}, "
        f"got {type(value).__name__} ({value!r})"
    )


def _validate(value: Any, schema: Dict[str, Any], path: str) -> None:
    if "type" in schema:
        _check_type(value, schema["type"], path)
    if "enum" in schema and value not in schema["enum"]:
        raise ValueError(f"{path}: {value!r} not in {schema['enum']!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ValueError(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            extra = set(value) - set(properties)
            if extra:
                raise ValueError(f"{path}: unexpected keys {sorted(extra)!r}")
        for key, sub_schema in properties.items():
            if key in value:
                _validate(value[key], sub_schema, f"{path}.{key}")
    elif isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{index}]")


def validate_report(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` when ``document`` violates the report schema."""
    _validate(document, REPORT_SCHEMA, "$")


def validate_predict_report(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` when ``document`` violates the predict schema."""
    _validate(document, PREDICT_SCHEMA, "$")


def validate_run_record(record: Dict[str, Any]) -> None:
    """Raise ``ValueError`` when a ledger record violates its schema."""
    _validate(record, RUN_RECORD_SCHEMA, "$")


def validate_history_report(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` when ``document`` violates the history schema."""
    _validate(document, HISTORY_SCHEMA, "$")


def validate_report_file(path: str) -> Dict[str, Any]:
    """Load a report file and validate it; returns the document."""
    import json

    with open(path) as handle:
        document = json.load(handle)
    validate_report(document)
    return document
