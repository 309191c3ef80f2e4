"""Machine-readable race-report documents (``--report-json``).

Builds the schema-validated JSON document (:mod:`repro.explain.schema`)
from one or many :class:`~repro.webracer.PageReport` objects: per-page
evidence records, cross-page fingerprint clusters (the same logical race
surfacing on several sites collapses into one cluster row), and corpus
totals.  The document is validated against :data:`REPORT_SCHEMA` before it
is written, so an emitted file that loads is by construction schema-valid.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

from ..core.hb.backend import HB_STORE
from ..obs import NULL
from .evidence import RaceEvidence, attach_evidence
from .schema import FORMAT_NAME, FORMAT_VERSION, validate_report

def page_evidence_dict(
    url: str, page_report, records: List[RaceEvidence]
) -> Dict[str, Any]:
    """One page's JSON-able report block (race totals + evidence records).

    This is the unit sharded corpus workers ship back to the parent —
    fully serialized, so document assembly never needs the live page.
    """
    return {
        "url": url,
        "hb_backend": HB_STORE,
        "races": {
            "raw": len(page_report.raw_races),
            "filtered": len(page_report.filtered_races),
            "harmful": len(page_report.classified.harmful()),
        },
        "filters_removed": dict(page_report.filter_removed),
        "evidence": [record.to_dict() for record in records],
    }


def build_clusters(
    pages: Iterable[Tuple[str, List[Dict[str, Any]]]]
) -> List[Dict[str, Any]]:
    """Group serialized evidence records (``RaceEvidence.to_dict`` shape)
    by fingerprint across pages."""
    clusters: Dict[str, Dict[str, Any]] = {}
    for url, records in pages:
        for record in records:
            fingerprint = record["fingerprint"]
            cluster = clusters.get(fingerprint)
            if cluster is None:
                cluster = clusters[fingerprint] = {
                    "fingerprint": fingerprint,
                    "count": 0,
                    "pages": [],
                    "race_type": record["race_type"],
                    "harmful": False,
                    "location": record["location"]["token"],
                }
            cluster["count"] += 1
            if url not in cluster["pages"]:
                cluster["pages"].append(url)
            cluster["harmful"] = cluster["harmful"] or record["harmful"]
    return sorted(
        clusters.values(),
        key=lambda c: (-c["count"], c["fingerprint"]),
    )


def assemble_report_document(
    pages: List[Dict[str, Any]], mode: str = "check"
) -> Dict[str, Any]:
    """Assemble (and validate) the report document from serialized pages.

    ``pages`` are ``page_evidence_dict`` blocks — possibly produced in
    worker processes — merged here into one document with cross-page
    fingerprint clusters and corpus totals.  This is the single assembly
    path for both sequential and sharded runs, which is what makes their
    ``--report-json`` outputs byte-identical.
    """
    totals = {"raw": 0, "filtered": 0, "harmful": 0}
    for page in pages:
        for key in totals:
            totals[key] += page["races"][key]
    clusters = build_clusters([(page["url"], page["evidence"]) for page in pages])
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "mode": mode,
        "hb_backend": HB_STORE,
        "pages": pages,
        "clusters": clusters,
        "totals": {
            "races": totals,
            "evidence_records": sum(len(page["evidence"]) for page in pages),
            "distinct_fingerprints": len(clusters),
        },
    }
    validate_report(document)
    return document


def build_report_document(
    page_reports: List[Tuple[str, Any]],
    mode: str = "check",
    obs=None,
) -> Dict[str, Any]:
    """The full ``--report-json`` document for one or many pages.

    ``page_reports`` is a list of ``(url, PageReport)`` pairs; each page's
    HB store is taken from its own monitor, so per-site stores stay
    independent.  The result is validated before being returned.
    """
    obs = obs if obs is not None else NULL
    pages: List[Dict[str, Any]] = []
    with obs.span("explain.report", cat="explain", pages=len(page_reports)):
        for url, page_report in page_reports:
            records = attach_evidence(
                page_report.classified,
                page_report.trace,
                page_report.page.monitor.graph,
                obs=obs,
            )
            pages.append(page_evidence_dict(url, page_report, records))
    document = assemble_report_document(pages, mode=mode)
    if obs.enabled:
        obs.count("explain.reports_built")
    return document


def write_report_json(document: Dict[str, Any], path: str) -> None:
    """Write a validated report document to ``path``."""
    validate_report(document)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
