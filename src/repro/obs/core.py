"""Spans and counters — the ``repro.obs`` collection core.

Everything is single-threaded (the browser is one event loop), so one
span stack suffices.  Timestamps come from ``time.perf_counter`` and are
stored as microseconds relative to the instrumentation's construction,
which is exactly the unit the Chrome trace-event format wants.

The null sink (:data:`NULL`) is the default everywhere instrumentation is
threaded through the pipeline.  Its contract: every method is a constant
no-op, ``enabled`` is ``False`` so hot paths can skip even argument
construction, and the span it hands out is one shared immutable object.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class _NullSpan:
    """The reusable no-op context manager the null sink hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullInstrumentation:
    """Zero-overhead sink: every hook is a constant no-op."""

    enabled = False

    def span(self, name: str, cat: str = "", **args: Any) -> _NullSpan:
        """No-op span."""
        return _NULL_SPAN

    def scope(self, name: str) -> _NullSpan:
        """No-op scope."""
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        """No-op counter increment."""

    def instant(self, name: str, **args: Any) -> None:
        """No-op instant event."""


#: The process-wide null sink; safe to share (it holds no state).
NULL = NullInstrumentation()


class SpanStat:
    """Aggregate over all spans sharing one (scope, name)."""

    __slots__ = ("count", "total", "self_total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0  # µs, including children
        self.self_total = 0.0  # µs, excluding child spans
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, duration: float, self_time: float) -> None:
        """Fold one finished span into the aggregate."""
        self.count += 1
        self.total += duration
        self.self_total += self_time
        if duration < self.minimum:
            self.minimum = duration
        if duration > self.maximum:
            self.maximum = duration

    def as_dict(self) -> Dict[str, float]:
        """JSON-able summary (times in microseconds)."""
        return {
            "count": self.count,
            "total_us": self.total,
            "self_us": self.self_total,
            "min_us": self.minimum if self.count else 0.0,
            "max_us": self.maximum if self.count else 0.0,
            "mean_us": self.total / self.count if self.count else 0.0,
        }


class Span:
    """One live timed region; use as a context manager.

    Entering pushes the span on the instrumentation's stack; exiting pops
    it (identity-checked — unbalanced exits raise), charges the elapsed
    time to the parent's child-time, and hands the record to the
    instrumentation for event retention and per-(scope, name) stats.
    """

    __slots__ = (
        "obs",
        "name",
        "category",
        "args",
        "scope",
        "start",
        "duration",
        "child_time",
    )

    def __init__(
        self, obs: "Instrumentation", name: str, category: str, args: Dict[str, Any]
    ):
        self.obs = obs
        self.name = name
        self.category = category
        self.args = args
        self.scope = ""
        self.start = 0.0
        self.duration: Optional[float] = None
        self.child_time = 0.0

    def __enter__(self) -> "Span":
        obs = self.obs
        self.scope = obs._scope
        self.start = obs._now()
        obs._stack.append(self)
        return self

    def __exit__(self, *exc: Any) -> bool:
        obs = self.obs
        end = obs._now()
        if not obs._stack or obs._stack[-1] is not self:
            raise RuntimeError(f"unbalanced span exit: {self.name!r} is not innermost")
        obs._stack.pop()
        self.duration = end - self.start
        if obs._stack:
            obs._stack[-1].child_time += self.duration
        obs._finish(self)
        return False

    def __repr__(self) -> str:
        state = f"{self.duration:.1f}us" if self.duration is not None else "open"
        return f"Span({self.name!r}, {state})"


class _Instant:
    """A zero-duration point event (races found, notable moments)."""

    __slots__ = ("name", "category", "args", "scope", "start", "duration")

    def __init__(self, name: str, category: str, args: Dict[str, Any], scope: str, ts: float):
        self.name = name
        self.category = category
        self.args = args
        self.scope = scope
        self.start = ts
        self.duration = None


class _Scope:
    """Context manager that labels everything inside with a scope name."""

    __slots__ = ("obs", "name", "_previous")

    def __init__(self, obs: "Instrumentation", name: str):
        self.obs = obs
        self.name = name
        self._previous = ""

    def __enter__(self) -> "_Scope":
        self._previous = self.obs._scope
        self.obs._scope = self.name
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.obs._scope = self._previous
        return False


class Instrumentation:
    """The live collector: spans + counters + raw events.

    ``scope(name)`` labels everything recorded inside it (the corpus
    runner opens one scope per site), so per-site statistics fall out of
    the same stream that feeds the Chrome trace.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_events: int = 1_000_000,
    ):
        self._clock = clock
        self._t0 = clock()
        self._stack: List[Span] = []
        self._scope = ""
        self.max_events = max_events
        self.dropped_events = 0
        #: Finished spans and instants, in completion order (µs timestamps).
        self.events: List[Any] = []
        #: (scope, name) -> count.
        self.counters: Dict[Tuple[str, str], int] = {}
        #: (scope, name) -> SpanStat.
        self.span_stats: Dict[Tuple[str, str], SpanStat] = {}
        #: tid -> label for merged worker shards (Chrome-trace lanes);
        #: tid 0 (the in-process event loop) needs no entry.
        self.thread_names: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # recording

    def _now(self) -> float:
        """Microseconds since this instrumentation was created."""
        return (self._clock() - self._t0) * 1e6

    def span(self, name: str, cat: str = "", **args: Any) -> Span:
        """A new timed region; use as a context manager."""
        return Span(self, name, cat, args)

    def scope(self, name: str) -> _Scope:
        """Label everything recorded inside with ``name`` (e.g. a site)."""
        return _Scope(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Increment the named counter (scoped) by ``n``."""
        key = (self._scope, name)
        self.counters[key] = self.counters.get(key, 0) + n

    def instant(self, name: str, **args: Any) -> None:
        """Record a point event at the current time."""
        event = _Instant(name, "instant", args, self._scope, self._now())
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped_events += 1

    def _finish(self, span: Span) -> None:
        key = (span.scope, span.name)
        stat = self.span_stats.get(key)
        if stat is None:
            stat = self.span_stats[key] = SpanStat()
        stat.add(span.duration, span.duration - span.child_time)
        if len(self.events) < self.max_events:
            self.events.append(span)
        else:
            self.dropped_events += 1

    # ------------------------------------------------------------------
    # introspection

    def counter(self, name: str) -> int:
        """Total of one counter across all scopes."""
        return sum(
            value for (_scope, key), value in self.counters.items() if key == name
        )

    def counter_totals(self) -> Dict[str, int]:
        """Counter totals aggregated across scopes."""
        totals: Dict[str, int] = {}
        for (_scope, name), value in self.counters.items():
            totals[name] = totals.get(name, 0) + value
        return totals

    def span_totals(self) -> Dict[str, SpanStat]:
        """Span stats aggregated across scopes, keyed by span name."""
        totals: Dict[str, SpanStat] = {}
        for (_scope, name), stat in self.span_stats.items():
            merged = totals.get(name)
            if merged is None:
                merged = totals[name] = SpanStat()
            merged.count += stat.count
            merged.total += stat.total
            merged.self_total += stat.self_total
            merged.minimum = min(merged.minimum, stat.minimum)
            merged.maximum = max(merged.maximum, stat.maximum)
        return totals

    def scopes(self) -> List[str]:
        """All scope labels seen, in first-use order (excluding '')."""
        seen: Dict[str, None] = {}
        for scope, _name in list(self.span_stats) + list(self.counters):
            if scope:
                seen.setdefault(scope)
        return list(seen)

    def __repr__(self) -> str:
        return (
            f"Instrumentation({len(self.events)} events, "
            f"{len(self.counters)} counters, {len(self._stack)} open spans)"
        )
