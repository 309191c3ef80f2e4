"""Observability overhead: the null sink must be (nearly) free.

The ``repro.obs`` layer is threaded through the whole pipeline —
event loop, monitor, detector, HB backends, filters — so its *disabled*
cost is pure overhead on every un-profiled run.  The contract (see
DESIGN.md) is that the default :data:`repro.obs.NULL` sink adds less than
5% to a corpus-scale page check.  The bound is measured with the run
ledger off (the default): ``--ledger`` swaps in a live
:class:`Instrumentation` and pays its cost knowingly.

Two measurements on the same operation-heavy page:

* the direct cost of every null-sink call the pipeline actually makes
  (counted by a counting null sink passed to an un-profiled run, then
  replayed against ``NULL``) must be under 5% of the un-profiled wall
  time.  An enabled run makes many more calls, because the hot paths
  guard most of theirs with ``obs.enabled``; its census is printed and
  written beside the count, not replayed;
* an enabled (profiled) run must report byte-identical races — profiling
  may cost time, never correctness.
"""

import time

from repro import WebRacer
from repro.obs import NULL, Instrumentation
from repro.obs.core import NullInstrumentation
from repro.obs.bench import write_bench

#: Corpus-scale page: ~1200 parse steps + ~1200 script executions, plus a
#: late script and a timer so the timer/network/dispatch paths all fire.
BLOCKS = "".join(
    f"<div id='d{i}'></div><script>t{i % 7} = {i};</script>" for i in range(1200)
)
PAGE = (
    '<input type="text" id="q" />'
    + BLOCKS
    + "<script>setTimeout(function () { late = 1; }, 10);</script>"
    + '<script src="hint.js"></script>'
)
RESOURCES = {"hint.js": "document.getElementById('q').value = 'hint';"}


def run_page(obs=None):
    racer = WebRacer(seed=0, obs=obs)
    return racer.check_page(PAGE, resources=RESOURCES, url="bench.html")


class CountingNull(NullInstrumentation):
    """The null sink, counting its calls.  ``enabled`` stays False, so a
    run makes exactly the calls it makes against ``NULL``."""

    def __init__(self):
        self.calls = 0

    def span(self, name, cat="", **args):
        self.calls += 1
        return super().span(name, cat, **args)

    def scope(self, name):
        self.calls += 1
        return super().scope(name)

    def count(self, name, n=1):
        self.calls += 1

    def instant(self, name, **args):
        self.calls += 1


def obs_call_volume(obs):
    """How many obs calls the pipeline made: spans+instants and counter
    updates."""
    spans = sum(stat.count for stat in obs.span_stats.values())
    counts = len(obs.counters)  # distinct counters; increments below
    increments = sum(obs.counter_totals().values())
    instants = sum(1 for event in obs.events if event.duration is None)
    return spans + max(counts, 0) + increments + instants


def test_null_sink_overhead_under_5_percent():
    """The disabled-mode (NULL sink) cost is < 5% of a page check."""
    # Warm-up + the census of an enabled run, for the record.
    enabled = Instrumentation()
    run_page(enabled)
    census = obs_call_volume(enabled)
    assert census > 1000, "census run should exercise the instrumented paths"
    # The calls an un-profiled run makes against the null sink.
    counting = CountingNull()
    run_page(counting)
    volume = counting.calls
    assert volume > 100, "the un-profiled run should reach the null sink"

    # Baseline: the default (null sink) run.
    rounds = 3
    start = time.perf_counter()
    for _ in range(rounds):
        report = run_page()
    base = (time.perf_counter() - start) / rounds
    assert len(report.raw_races) >= 1

    # Direct cost of that many null calls (span enter/exit is the worst
    # case: two method calls plus a with-block per use).
    start = time.perf_counter()
    for _ in range(volume):
        with NULL.span("x", cat="c", k=1):
            pass
        NULL.count("c")
    null_cost = (time.perf_counter() - start) / 2  # loop did 2x volume calls

    ratio = null_cost / base
    write_bench(
        "obs_overhead",
        metrics={
            "page_check_ms": round(base * 1000, 3),
            "obs_call_volume": volume,
            "enabled_call_census": census,
            "null_cost_ms": round(null_cost * 1000, 3),
            "null_overhead_ratio": round(ratio, 5),
        },
        payload={"ledger": "off", "rounds": rounds},
    )
    print()
    print("Null-sink (disabled profiling) overhead:")
    print(f"  un-profiled page check: {base * 1000:8.2f} ms")
    print(f"  null-sink calls made:   {volume:8d}")
    print(f"  enabled-run census:     {census:8d}")
    print(f"  null-call cost:         {null_cost * 1000:8.2f} ms ({ratio:.2%})")
    assert ratio < 0.05, f"null sink costs {ratio:.2%} of a page check (>5%)"


def test_profiled_run_identical_races():
    """Profiling observes; it never changes what the detector reports."""
    plain = run_page()
    obs = Instrumentation()
    profiled = run_page(obs)

    def signature(report):
        return sorted(
            race.describe() for race in report.classified.races
        )

    assert signature(profiled) == signature(plain)
    assert len(profiled.raw_races) == len(plain.raw_races)
    # Sanity: the profiled run actually collected something.
    assert obs.counter("op.parse") > 1000
    assert obs.span_totals()["check_page"].count == 1


def test_profiled_overhead_is_bounded():
    """Enabled profiling stays in the same ballpark (no pathological cost)."""
    rounds = 3
    start = time.perf_counter()
    for _ in range(rounds):
        run_page()
    base = (time.perf_counter() - start) / rounds
    start = time.perf_counter()
    for _ in range(rounds):
        run_page(Instrumentation())
    profiled = (time.perf_counter() - start) / rounds
    ratio = profiled / base
    print()
    print("Enabled-profiling overhead:")
    print(f"  un-profiled: {base * 1000:8.2f} ms/page")
    print(f"  profiled:    {profiled * 1000:8.2f} ms/page")
    print(f"  ratio:       {ratio:8.2f}x")
    # Generous bound — profiling is allowed to cost, just not explode.
    assert ratio < 3.0
