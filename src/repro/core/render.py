"""Plain-text rendering of reports and evaluation tables.

Shared by the CLI, the examples, and the benchmark harness so the paper's
tables always print in one consistent format.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Tuple

from .report import RACE_TYPES, RaceReport

#: Printable names for the race-type columns.
TYPE_TITLES = {
    "html": "HTML",
    "function": "Function",
    "variable": "Variable",
    "event_dispatch": "EventDisp",
}


def render_race_report(report: RaceReport, title: str = "") -> str:
    """Multi-line text for a classified race report."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not report.races:
        lines.append("  no races")
        return "\n".join(lines)
    for classified in report.races:
        marker = "!!" if classified.harmful else "  "
        lines.append(f" {marker} {classified.describe()}")
    counts = report.counts()
    harmful = report.harmful_counts()
    summary = ", ".join(
        f"{TYPE_TITLES[t]} {counts[t]} ({harmful[t]})"
        for t in RACE_TYPES
        if counts[t]
    )
    lines.append(f"  total: {report.total()} — {summary}")
    return "\n".join(lines)


def render_table1(
    rows: Mapping[str, Mapping[str, float]],
    paper: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> str:
    """Text table for the Table-1 statistics dict (type -> mean/median/max)."""
    lines = [f"{'Race type':16s} {'Mean':>8s} {'Median':>8s} {'Max':>7s}"
             + ("   {:>7s} {:>7s} {:>7s}".format("p.Mean", "p.Med", "p.Max") if paper else "")]
    for race_type in list(RACE_TYPES) + ["all"]:
        row = rows[race_type]
        line = (
            f"{TYPE_TITLES.get(race_type, 'All'):16s} "
            f"{row['mean']:8.1f} {row['median']:8.1f} {row['max']:7.0f}"
        )
        if paper:
            p = paper[race_type]
            line += f"   {p['mean']:7.1f} {p['median']:7.1f} {p['max']:7.0f}"
        lines.append(line)
    return "\n".join(lines)


def render_table2(
    rows: Sequence[Mapping[str, Any]],
    totals: Optional[Mapping[str, Tuple[int, int]]] = None,
    paper_totals: Optional[Mapping[str, Tuple[int, int]]] = None,
) -> str:
    """Text table for per-site Table-2 rows (harmful in parentheses)."""

    def cell(value: Tuple[int, int]) -> str:
        count, harmful = value
        return f"{count} ({harmful})" if count else ""

    header = f"{'Website':20s}" + "".join(
        f"{TYPE_TITLES[t]:>14s}" for t in RACE_TYPES
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['site']:20s}"
            + "".join(f"{cell(row[t]):>14s}" for t in RACE_TYPES)
        )
    if totals is not None:
        lines.append("-" * len(header))
        lines.append(
            f"{'Total':20s}"
            + "".join(f"{cell(totals[t]):>14s}" for t in RACE_TYPES)
        )
    if paper_totals is not None:
        lines.append(
            f"{'Paper':20s}"
            + "".join(f"{cell(paper_totals[t]):>14s}" for t in RACE_TYPES)
        )
    return "\n".join(lines)


def render_crashes(crashes: Sequence[Any]) -> str:
    """Text list of hidden crashes."""
    if not crashes:
        return "  no hidden crashes"
    lines = [f"  {len(crashes)} hidden crash(es):"]
    for crash in crashes:
        lines.append(f"    op {crash.operation}: {crash.kind} — {crash.error!r}")
    return "\n".join(lines)
