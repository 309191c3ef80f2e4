"""E14 — schedule enumeration as a ground-truth oracle.

For small pages we can enumerate *every* interleaving (ready times as
lower bounds) and observe outcomes directly.  This validates the central
value proposition of happens-before detection: WebRacer reports the race
from a single run, while the bad outcome only manifests in a fraction of
schedules — the fraction a stress-testing approach would need luck to hit.
"""

from repro import WebRacer
from repro.config import RunConfig
from repro.schedule_runner import PageInput, enumerate_page_schedules

FIG4_PAGE = """
<iframe id="i" src="sub.html" onload="setTimeout('doNextStep()', 6)"></iframe>
<script src="steps.js"></script>
"""
FIG4_RESOURCES = {
    "sub.html": "<div></div>",
    "steps.js": "function doNextStep() { window.stepDone = true; }",
}
FIG4_LATENCIES = {"sub.html": 5.0, "steps.js": 7.0}
#: Enumeration runs the page load alone, without auto-explored user events.
LOAD_ONLY = RunConfig(explore=False, eager=False)


def test_enumeration_finds_both_outcomes(benchmark):
    def run():
        return enumerate_page_schedules(
            PageInput("fig4.html", FIG4_PAGE, dict(FIG4_RESOURCES)),
            LOAD_ONLY,
            extract=lambda page: tuple(
                sorted({crash.kind for crash in page.trace.crashes})
            ),
            max_runs=80,
        )

    enumerator = benchmark.pedantic(run, rounds=1, iterations=1)
    histogram = enumerator.distinct_results()
    crashing = sum(
        count for outcome, count in histogram.items() if "ReferenceError" in outcome
    )
    total = len(enumerator.outcomes)

    print()
    print("Schedule enumeration oracle (E14) — Fig. 4 page:")
    print(f"  schedules explored: {total} (exhausted: {enumerator.exhausted})")
    print(f"  crashing schedules: {crashing} "
          f"({100 * crashing / total:.0f}% — what stress testing must hit)")
    print(f"  passing schedules:  {total - crashing}")
    assert crashing > 0
    assert total - crashing > 0


def test_single_run_detection_vs_enumeration(benchmark):
    """One WebRacer run reports the race; enumeration needed many runs to
    even witness the failure once."""

    def run():
        racer = WebRacer(seed=1, explore=False, eager=False)
        return racer.check_page(
            FIG4_PAGE, resources=dict(FIG4_RESOURCES), latencies=dict(FIG4_LATENCIES)
        )

    report = benchmark(run)
    function_races = report.classified.by_type("function")

    print()
    print("Single-run HB detection on the same page:")
    print(f"  races reported: {len(function_races)} (from 1 run, any schedule)")
    assert len(function_races) == 1


def test_race_free_page_single_outcome(benchmark):
    """Control: a fully ordered page has exactly one enumerable outcome —
    the enumerator confirms the absence of observable nondeterminism."""

    def run():
        return enumerate_page_schedules(
            PageInput(
                "control.html",
                "<div></div><script>a = 1;</script><script>b = a + 1;</script>",
            ),
            LOAD_ONLY,
            max_runs=40,
        )

    enumerator = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"  race-free control: {len(enumerator.distinct_results())} distinct outcome(s), "
          f"exhausted={enumerator.exhausted}")
    assert len(enumerator.distinct_results()) == 1
    assert enumerator.exhausted
