"""Explore- and predict-report documents (``repro explore/predict --json``).

Serializes a :class:`~repro.schedule_runner.ExploreReport` — the merged
page×schedule matrix — into a versioned, machine-readable document, plus
a terminal rendering.  The document is deterministic in the exploration
inputs alone: schedule order is matrix order, races sort by fingerprint,
and no wall-clock value is ever included, so two explorations with the
same pages/seed/width emit byte-identical JSON (the property CI pins).

The explore document's schema is
:data:`repro.explain.schema.EXPLORE_SCHEMA`.  The same treatment applies
to :class:`~repro.predict.PredictReport`:
:func:`assemble_predict_document` emits the ``repro predict --json``
document (schema: :data:`repro.explain.schema.PREDICT_SCHEMA`), splitting
predictions into ``filtered``, ``predicted+confirmed`` and
``predicted-only``, and :func:`render_predict_text` renders it for the
terminal.

The module is duck-typed over the runner's result objects rather than
importing them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..core.hb.backend import HB_STORE
from .schema import (
    EXPLORE_FORMAT_NAME,
    EXPLORE_FORMAT_VERSION,
    PREDICT_FORMAT_NAME,
    PREDICT_FORMAT_VERSION,
    validate_explore_report,
    validate_predict_report,
)


def _run_dict(run) -> Dict[str, Any]:
    """One matrix cell's JSON block (no wall-clock fields)."""
    trace = run.trace_dict or {}
    return {
        "schedule": run.sid,
        "policy": run.policy,
        "seed": run.seed,
        "error": run.error,
        "fingerprints": list(run.fingerprints),
        "picks": len(trace.get("picks", [])),
        "divergences": len(trace.get("divergences", [])),
        "choice_points": run.choice_points,
        "operations": run.operations,
        "replay_ok": run.replay_ok,
    }


def assemble_explore_document(
    report, minimizations: Optional[List[Any]] = None
) -> Dict[str, Any]:
    """The versioned JSON document for one exploration.

    ``minimizations`` takes :class:`~repro.schedule_runner.MinimizationResult`
    objects (or their ``to_dict`` output) and lands under a
    ``"minimizations"`` key only when present, so plain explorations stay
    byte-stable across tool versions that add minimization.
    """
    pages = []
    for page in report.pages:
        pages.append(
            {
                "url": page.url,
                "runs": [_run_dict(run) for run in page.runs],
                "races": [dict(race) for race in page.races],
            }
        )
    document: Dict[str, Any] = {
        "format": EXPLORE_FORMAT_NAME,
        "version": EXPLORE_FORMAT_VERSION,
        "seed": report.seed,
        "hb_backend": HB_STORE,
        "schedules": [spec.to_dict() for spec in report.specs],
        "pages": pages,
        "totals": {
            "pages": len(report.pages),
            "schedules_run": sum(
                1 for page in report.pages for run in page.runs if run.ok
            ),
            "schedules_failed": sum(
                1 for page in report.pages for run in page.runs if not run.ok
            ),
            "races_union": report.union_count(),
            "races_stable": report.stable_count(),
            "races_schedule_sensitive": report.sensitive_count(),
        },
    }
    if minimizations:
        document["minimizations"] = [
            entry if isinstance(entry, dict) else entry.to_dict()
            for entry in minimizations
        ]
    return document


def write_explore_json(document: Dict[str, Any], path: str) -> None:
    """Validate and write the document (sorted keys, trailing newline)."""
    validate_explore_report(document)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# predict documents (``repro predict``)


def _witness_run_dict(run, target: str) -> Dict[str, Any]:
    """One witness run's JSON block (no wall-clock fields); ``target`` is
    the fingerprint of the prediction it was directed at."""
    trace = run.trace_dict or {}
    return {
        "schedule": run.sid,
        "policy": run.policy,
        "seed": run.seed,
        "prediction": target,
        "error": run.error,
        "fingerprints": list(run.fingerprints),
        "replay_ok": run.replay_ok,
        "picks": len(trace.get("picks", [])),
        "divergences": len(trace.get("divergences", [])),
    }


def _prediction_dict(prediction, with_evidence: bool) -> Dict[str, Any]:
    """One prediction's JSON block."""
    witness = None
    if prediction.witness_sid is not None:
        witness = {
            "schedule": prediction.witness_sid,
            "policy": prediction.witness_policy,
            "flipped": prediction.flipped,
            "raced": prediction.raced,
        }
    entry: Dict[str, Any] = {
        "fingerprint": prediction.fingerprint,
        "status": prediction.status,
        "outcome": prediction.outcome,
        "filtered_by": prediction.filtered_by,
        "kind": prediction.kind,
        "location": prediction.location,
        "description": prediction.description,
        "op_pair": list(prediction.op_pair),
        "race_type": prediction.race_type,
        "harmful": prediction.harmful,
        "blocking_rf": [dict(edge) for edge in prediction.blocking_rf],
        "confirmed": prediction.confirmed,
        "witness": witness,
        "replay_ok": prediction.replay_ok,
        "minimized": prediction.minimized,
    }
    if with_evidence:
        entry["evidence"] = prediction.evidence
    return entry


def assemble_predict_document(
    reports: List[Any], with_evidence: bool = True
) -> Dict[str, Any]:
    """The versioned JSON document for one prediction run.

    ``reports`` is a list of :class:`~repro.predict.PredictReport` (one
    per page).  Seed and budget are shared across pages by
    construction (one CLI invocation), so they live at top level; the
    document carries no wall-clock values and is deterministic in the
    prediction inputs alone.
    """
    pages = []
    for report in reports:
        targets = {
            prediction.witness_sid: prediction.fingerprint
            for prediction in report.predictions
            if prediction.witness_sid is not None
        }
        pages.append(
            {
                "url": report.page,
                "error": report.error,
                "observed": {
                    "fingerprints": list(report.observed_fingerprints),
                    "races": dict(report.observed_race_info),
                    "pairs": report.observed_pairs,
                },
                "shb": {
                    "summary": report.shb_summary,
                    "rf_edges": report.rf_edges,
                    "rf_racy": report.rf_racy,
                },
                "witness_runs": [
                    _witness_run_dict(run, targets[run.sid])
                    for run in report.witness_runs
                ],
                "predictions": [
                    _prediction_dict(prediction, with_evidence)
                    for prediction in report.predictions
                ],
                "runs_executed": report.runs_executed,
            }
        )
    first = reports[0] if reports else None
    predicted = sum(len(report.predictions) for report in reports)
    filtered = sum(len(report.filtered()) for report in reports)
    confirmed = sum(len(report.confirmed()) for report in reports)
    return {
        "format": PREDICT_FORMAT_NAME,
        "version": PREDICT_FORMAT_VERSION,
        "seed": first.seed if first else 0,
        "hb_backend": HB_STORE,
        "budget": first.budget if first else 0,
        "pages": pages,
        "totals": {
            "pages": len(reports),
            "observed": sum(
                len(report.observed_fingerprints) for report in reports
            ),
            "predicted": predicted,
            "filtered": filtered,
            "witness_runs": sum(len(report.witness_runs) for report in reports),
            "confirmed": confirmed,
            "predicted_only": predicted - filtered - confirmed,
        },
    }


def write_predict_json(document: Dict[str, Any], path: str) -> None:
    """Validate and write the document (sorted keys, trailing newline)."""
    validate_predict_report(document)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_predict_text(document: Dict[str, Any]) -> str:
    """Human-readable prediction summary for the terminal."""
    lines: List[str] = []
    totals = document["totals"]
    lines.append(
        f"predicted races for {totals['pages']} page(s) "
        f"(seed {document['seed']}, hb={document['hb_backend']}, "
        f"witness budget {document['budget']})"
    )
    for page in document["pages"]:
        if page["error"] is not None:
            lines.append(f"\n{page['url']}: FAILED — {page['error']}")
            continue
        observed = page["observed"]["fingerprints"]
        lines.append(
            f"\n{page['url']}: {len(observed)} observed fingerprint(s), "
            f"{len(page['predictions'])} predicted "
            f"({page['shb']['rf_edges']} reads-from edges, "
            f"{page['shb']['rf_racy']} racy)"
        )
        if observed:
            lines.append(f"  observed: {', '.join(observed)}")
        if not page["predictions"]:
            lines.append(
                "  no additional races predicted from the recorded trace"
            )
        removed: Dict[str, int] = {}
        for prediction in page["predictions"]:
            if prediction["filtered_by"] is not None:
                name = prediction["filtered_by"]
                removed[name] = removed.get(name, 0) + 1
        if removed:
            counts = ", ".join(
                f"{name} {count}" for name, count in sorted(removed.items())
            )
            lines.append(
                f"  {sum(removed.values())} filtered on the observed trace "
                f"({counts})"
            )
        for prediction in page["predictions"]:
            if prediction["filtered_by"] is not None:
                continue
            lines.append(
                f"  {prediction['fingerprint']}  "
                f"{prediction['outcome']:<19s} [{prediction['status']}] "
                f"{prediction['race_type']}"
                f"{' harmful' if prediction.get('harmful') else ''}"
                f"{_witness_suffix(prediction)}"
            )
            lines.append(f"    {prediction['description']}")
            if prediction["blocking_rf"]:
                flips = ", ".join(
                    f"{edge['src']}->{edge['dst']} ({edge['location']})"
                    for edge in prediction["blocking_rf"]
                )
                lines.append(f"    requires flipping reads-from: {flips}")
    lines.append(
        f"\n{totals['predicted']} prediction(s): "
        f"{totals['filtered']} filtered, "
        f"{totals['witness_runs']} witnessed, "
        f"{totals['confirmed']} confirmed by replay, "
        f"{totals['predicted_only']} predicted-only"
    )
    return "\n".join(lines)


def _witness_suffix(prediction: Dict[str, Any]) -> str:
    """What a prediction's directed witness showed, for its summary line."""
    witness = prediction["witness"]
    if witness is None:
        return ""
    suffix = f"  witness: {witness['schedule']}"
    if prediction["confirmed"]:
        suffix += " [replay verified]"
        minimized = prediction.get("minimized")
        if minimized:
            suffix += (
                f" [minimized to "
                f"{minimized['minimized_divergences']} divergence(s)]"
            )
        return suffix
    if prediction["replay_ok"] is None:
        return suffix + " [witness run failed]"
    if not witness["flipped"]:
        suffix += " [order not flipped]"
    elif not witness["raced"]:
        suffix += " [flipped, no race]"
    if prediction["replay_ok"] is False:
        suffix += " [replay FAILED]"
    return suffix


def render_explore_text(document: Dict[str, Any]) -> str:
    """Human-readable exploration summary for the terminal."""
    lines: List[str] = []
    totals = document["totals"]
    lines.append(
        f"explored {totals['pages']} page(s) × "
        f"{len(document['schedules'])} schedule(s) "
        f"(seed {document['seed']}, hb={document['hb_backend']})"
    )
    for page in document["pages"]:
        ok = [run for run in page["runs"] if run["error"] is None]
        failed = [run for run in page["runs"] if run["error"] is not None]
        lines.append(f"\n{page['url']}: {len(ok)} schedule(s) completed")
        for run in failed:
            lines.append(f"  FAILED {run['schedule']}: {run['error']}")
        if not page["races"]:
            lines.append("  no races under any schedule")
        for race in page["races"]:
            kind = "stable" if race["stable"] else "schedule-sensitive"
            witnesses = ", ".join(race["witnesses"])
            verified = race.get("replay_verified")
            suffix = "" if verified is None else (
                " [replay verified]" if verified else " [replay FAILED]"
            )
            lines.append(
                f"  {race['fingerprint']}  {kind:<18s} "
                f"{race['race_type']}"
                f"{' harmful' if race.get('harmful') else ''}"
                f"  witnesses: {witnesses}{suffix}"
            )
            lines.append(f"    {race.get('description', '')}")
    lines.append(
        f"\n{totals['races_union']} distinct race(s): "
        f"{totals['races_stable']} stable, "
        f"{totals['races_schedule_sensitive']} schedule-sensitive"
    )
    for entry in document.get("minimizations", []):
        lines.append(
            f"minimized {entry['fingerprint']} on {entry['page']}: "
            f"{entry['original_divergences']} → "
            f"{entry['minimized_divergences']} divergence(s) "
            f"({entry['tests_run']} test runs)"
        )
    return "\n".join(lines)
