"""Plain-text and JSON summaries of collected instrumentation.

:func:`render_profile` is what ``--profile`` prints after a check: a
per-phase timing table (span name, calls, total/self/mean time) followed
by the counters.  :func:`stats_dict` is the machine-readable equivalent
``--stats-json`` writes, with a per-scope (per-site) breakdown so corpus
runs yield one stats block per site.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .core import Instrumentation, SpanStat


def _ms(us: float) -> float:
    return us / 1000.0


def render_profile(obs: Instrumentation, title: str = "Profile") -> str:
    """The ``--profile`` table: per-phase timings, then counters."""
    lines: List[str] = [title, ""]
    totals = obs.span_totals()
    if totals:
        lines.append(
            f"  {'phase':28s} {'calls':>8s} {'total ms':>10s} "
            f"{'self ms':>10s} {'mean ms':>9s} {'max ms':>9s}"
        )
        for name, stat in sorted(
            totals.items(), key=lambda item: item[1].total, reverse=True
        ):
            lines.append(
                f"  {name:28s} {stat.count:8d} {_ms(stat.total):10.2f} "
                f"{_ms(stat.self_total):10.2f} "
                f"{_ms(stat.total / stat.count):9.3f} {_ms(stat.maximum):9.2f}"
            )
    else:
        lines.append("  no spans recorded")
    counters = obs.counter_totals()
    if counters:
        lines.append("")
        lines.append(f"  {'counter':40s} {'value':>12s}")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:40s} {value:12d}")
    if obs.dropped_events:
        lines.append("")
        lines.append(f"  ({obs.dropped_events} events dropped past the retention cap)")
    return "\n".join(lines)


def _span_block(stats: Dict[str, SpanStat]) -> Dict[str, Any]:
    return {name: stat.as_dict() for name, stat in sorted(stats.items())}


def stats_dict(
    obs: Instrumentation, extra: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """JSON-able stats: overall totals plus a per-scope breakdown."""
    scopes: Dict[str, Dict[str, Any]] = {}
    for (scope, name), stat in obs.span_stats.items():
        scopes.setdefault(scope or "<root>", {}).setdefault("spans", {})[
            name
        ] = stat.as_dict()
    for (scope, name), value in obs.counters.items():
        scopes.setdefault(scope or "<root>", {}).setdefault("counters", {})[
            name
        ] = value
    payload: Dict[str, Any] = {
        "spans": _span_block(obs.span_totals()),
        "counters": dict(sorted(obs.counter_totals().items())),
        "scopes": {name: scopes[name] for name in sorted(scopes)},
        "dropped_events": obs.dropped_events,
        "event_count": len(obs.events),
    }
    if extra:
        payload.update(extra)
    return payload
