"""Pipeline-wide tracing and metrics (``repro.obs``).

The paper reports WebRacer's runtime overhead as "barely noticeable"
(Section 6) but gives no per-phase breakdown; this package is the
reproduction's answer to "where does a check spend its time?".  It
provides two primitives —

* **spans**: context-manager timers with parent nesting and self-time
  accounting (``with obs.span("parse"): ...``),
* **counters**: monotonically increasing named integers
  (``obs.count("access.read")``) —

and two exporters: a Chrome trace-event JSON file (loadable in
``chrome://tracing`` / Perfetto) and a plain-text/JSON stats summary.

One :class:`Instrumentation` object is threaded through
``WebRacer → Browser → Monitor → detector/filters`` exactly the way
``hb_backend`` is.  The default sink is :data:`NULL`, a
:class:`NullInstrumentation` whose every hook is a constant no-op — the
zero-overhead contract the disabled-mode benchmark pins down
(``benchmarks/test_obs_overhead.py``).
"""

from .bench import bench_envelope, validate_bench_file, write_bench
from .core import (
    NULL,
    Instrumentation,
    NullInstrumentation,
    Span,
    SpanStat,
)
from .ledger import (
    Ledger,
    LedgerError,
    build_run_record,
    config_digest,
    lifecycle_index,
    strip_volatile,
)
from .regress import (
    RunDiff,
    diff_records,
    perf_regressions,
    render_diff_text,
)
from .shard import merge_shard, snapshot
from .stats import render_profile, stats_dict
from .trace_event import (
    to_trace_events,
    validate_trace_events,
    write_chrome_trace,
)

__all__ = [
    "NULL",
    "Instrumentation",
    "Ledger",
    "LedgerError",
    "NullInstrumentation",
    "RunDiff",
    "Span",
    "SpanStat",
    "bench_envelope",
    "build_run_record",
    "config_digest",
    "diff_records",
    "lifecycle_index",
    "merge_shard",
    "perf_regressions",
    "render_diff_text",
    "render_profile",
    "snapshot",
    "stats_dict",
    "strip_volatile",
    "to_trace_events",
    "validate_bench_file",
    "validate_trace_events",
    "write_bench",
    "write_chrome_trace",
]
