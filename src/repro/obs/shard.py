"""Shipping instrumentation across process boundaries (shard merge).

Pooled runs (:func:`repro.pool.fan_out`) give every worker its own
:class:`Instrumentation`; :func:`snapshot` reduces one to a picklable dict
(events as plain tuples, aggregates as plain numbers) and
:func:`merge_shard` folds a snapshot back into the parent collector.
Counters and span stats merge by ``(scope, name)`` — corpus worker scopes
are site names, so the per-site blocks of ``--stats-json`` and the
``--profile`` table come out exactly as if the sites had run in-process.

Merged events land on their own Chrome-trace *thread* (``tid``): a
worker's spans are internally balanced, but two workers overlap in wall
time, and the trace-event validator (correctly) rejects partially
overlapping spans on one thread.  One tid per site keeps every lane
self-consistent and renders parallel corpus runs honestly — overlapping
site lanes in Perfetto mean the sites genuinely ran concurrently.

Worker timestamps are parent-relative: the parent's clock origin rides
along in the task payload and ``time.perf_counter`` is CLOCK_MONOTONIC
system-wide on Linux, so shard events slot into the parent's timeline.
Where that does not hold, timestamps clamp at zero rather than producing
an invalid trace.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .core import Instrumentation, SpanStat

#: Snapshot format version (bumped on incompatible layout changes).
SNAPSHOT_VERSION = 1


class ShardEvent:
    """A span/instant replayed from a worker snapshot, pinned to a tid."""

    __slots__ = ("name", "category", "args", "scope", "start", "duration", "tid")

    def __init__(self, name, category, args, scope, start, duration, tid):
        self.name = name
        self.category = category
        self.args = args
        self.scope = scope
        self.start = start
        self.duration = duration
        self.tid = tid


def snapshot(obs: Instrumentation) -> Dict[str, Any]:
    """Reduce a live collector to a picklable shard snapshot."""
    return {
        "version": SNAPSHOT_VERSION,
        "events": [
            (
                event.name,
                event.category,
                dict(event.args),
                event.scope,
                event.start,
                event.duration,
            )
            for event in obs.events
        ],
        "counters": dict(obs.counters),
        "span_stats": {
            key: (stat.count, stat.total, stat.self_total, stat.minimum, stat.maximum)
            for key, stat in obs.span_stats.items()
        },
        "dropped_events": obs.dropped_events,
    }


def merge_shard(
    obs: Instrumentation,
    shard: Dict[str, Any],
    tid: int = 0,
    thread_name: Optional[str] = None,
) -> None:
    """Fold one worker snapshot into the parent collector.

    Aggregates merge by ``(scope, name)``; events append under ``tid``
    (registered in ``obs.thread_names`` so the Chrome-trace export can
    label the lane), subject to the parent's retention cap.
    """
    if shard.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported obs snapshot version {shard.get('version')!r}"
        )
    # A crashed worker can ship a partial snapshot (its task died between
    # building the dict and filling it); missing sections merge as empty
    # rather than killing the parent's aggregation of the healthy shards.
    for name, category, args, scope, start, duration in shard.get("events", ()):
        if len(obs.events) < obs.max_events:
            obs.events.append(
                ShardEvent(
                    name, category, args, scope, max(start, 0.0), duration, tid
                )
            )
        else:
            obs.dropped_events += 1
    for key, value in shard.get("counters", {}).items():
        obs.counters[key] = obs.counters.get(key, 0) + value
    for key, (count, total, self_total, minimum, maximum) in shard.get(
        "span_stats", {}
    ).items():
        stat = obs.span_stats.get(key)
        if stat is None:
            stat = obs.span_stats[key] = SpanStat()
        stat.count += count
        stat.total += total
        stat.self_total += self_total
        stat.minimum = min(stat.minimum, minimum)
        stat.maximum = max(stat.maximum, maximum)
    obs.dropped_events += shard.get("dropped_events", 0)
    if thread_name is not None and tid:
        obs.thread_names[tid] = thread_name
