"""Race provenance and explainability (``repro.explain``).

Turns every reported race into a structured, self-contained **evidence
record** — the rule-labeled happens-before ancestry of both racing
operations up from their nearest common ancestor, source attribution and
access timelines, the Section 2/6 classification verdict, and a stable
fingerprint for cross-run clustering.  Three consumers:

* ``--report-json`` (:mod:`repro.explain.report_json`) — a
  schema-validated machine-readable document
  (:data:`repro.explain.schema.REPORT_SCHEMA`);
* ``--report-html`` (:mod:`repro.explain.html_report`) — a dependency-free
  single-file HTML report with per-race evidence views and operation-lane
  timelines, aggregated per-site on corpus runs;
* ``repro explain`` (:mod:`repro.explain.render_text`) — evidence for a
  captured trace, printed to the terminal.

Evidence is built after detection from the run's existing trace and HB
store; plain runs without report flags construct nothing and pay nothing
(the null-sink contract of :mod:`repro.obs` extends here).
"""

from .evidence import (
    RaceEvidence,
    SideEvidence,
    attach_evidence,
    build_race_evidence,
)
from .fingerprint import location_token, race_fingerprint
from .html_report import render_html_report, write_html_report
from .render_text import render_all_evidence, render_evidence
from .report_json import (
    assemble_report_document,
    build_clusters,
    build_report_document,
    page_evidence_dict,
    write_report_json,
)
from .schedule_report import (
    EXPLORE_FORMAT_NAME,
    EXPLORE_FORMAT_VERSION,
    assemble_explore_document,
    assemble_predict_document,
    render_explore_text,
    render_predict_text,
    validate_explore_document,
    validate_predict_document,
    write_explore_json,
    write_predict_json,
)
from .schema import (
    HISTORY_FORMAT_NAME,
    HISTORY_FORMAT_VERSION,
    HISTORY_SCHEMA,
    PREDICT_FORMAT_NAME,
    PREDICT_FORMAT_VERSION,
    PREDICT_SCHEMA,
    REPORT_SCHEMA,
    RUN_RECORD_SCHEMA,
    validate_history_report,
    validate_predict_report,
    validate_report,
    validate_report_file,
    validate_run_record,
)
from .trend_report import (
    assemble_history_document,
    render_history_json,
    render_history_text,
    render_trend_html,
    write_trend_html,
)

__all__ = [
    "EXPLORE_FORMAT_NAME",
    "EXPLORE_FORMAT_VERSION",
    "HISTORY_FORMAT_NAME",
    "HISTORY_FORMAT_VERSION",
    "HISTORY_SCHEMA",
    "PREDICT_FORMAT_NAME",
    "PREDICT_FORMAT_VERSION",
    "PREDICT_SCHEMA",
    "REPORT_SCHEMA",
    "RUN_RECORD_SCHEMA",
    "assemble_history_document",
    "render_history_json",
    "render_history_text",
    "render_trend_html",
    "validate_history_report",
    "validate_run_record",
    "write_trend_html",
    "assemble_explore_document",
    "assemble_predict_document",
    "render_explore_text",
    "render_predict_text",
    "validate_explore_document",
    "validate_predict_document",
    "validate_predict_report",
    "write_explore_json",
    "write_predict_json",
    "RaceEvidence",
    "SideEvidence",
    "assemble_report_document",
    "attach_evidence",
    "build_clusters",
    "page_evidence_dict",
    "build_race_evidence",
    "build_report_document",
    "location_token",
    "race_fingerprint",
    "render_all_evidence",
    "render_evidence",
    "render_html_report",
    "validate_report",
    "validate_report_file",
    "write_html_report",
    "write_report_json",
]
