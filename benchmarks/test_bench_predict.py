"""Prediction-vs-exploration benchmark: emits ``BENCH_predict.json``.

The claim under test: single-trace SHB prediction plus replay
confirmation (``repro predict``) reaches the same confirmed-race coverage
as the N-schedule explore matrix on the example pages, from far fewer
instrumented executions and less wall-clock.  Exploration pays for N
recorded runs (plus N replay verifications) per page whether or not they
find anything; prediction runs once, reads the races off the SHB
relation, drops the predictions the Section 5.3 filters remove on that
run, and executes one directed witness (plus its replay) per surviving
prediction.

Coverage is compared on ``(location, race type)`` keys, not fingerprints:
fingerprints hash schedule-dependent operation labels, so one logical
race witnessed under two schedules gets two fingerprints.

Run with ``pytest benchmarks/test_bench_predict.py -s``.
"""

import os
import time

from repro.obs.bench import write_bench
from repro.predict import predict_pages
from repro.schedule_runner import explore_pages, load_page_inputs

PAGES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "pages")
SEED = 0
SCHEDULES = 8  # the matrix width CI explores
#: Directed witnesses per page.  Each example page keeps at most two
#: predictions after the filters, so two witnesses cover every survivor
#: without the full default budget.
BUDGET = 2


def _key(info):
    return (info["location"], info["race_type"])


def predict_coverage(reports):
    """Replay-backed coverage: the observed FIFO races plus every
    prediction a directed witness confirmed.  A confirmed prediction's key
    comes from the prediction itself: its witness confirms the pair
    through the full-history sweep, and the witness's
    one-race-per-location report need not list it."""
    keys = set()
    for report in reports:
        for info in report.observed_race_info.values():
            keys.add(_key(info))
        for prediction in report.confirmed():
            keys.add((prediction.location, prediction.race_type))
    return keys


def explore_coverage(report):
    keys = set()
    for page in report.pages:
        for run in page.runs:
            if run.ok:
                for info in run.races.values():
                    keys.add(_key(info))
    return keys


def test_predict_vs_explore():
    pages = load_page_inputs(PAGES_DIR)
    started = time.perf_counter()
    predict_reports = predict_pages(pages, seed=SEED, budget=BUDGET)
    predict_s = time.perf_counter() - started

    started = time.perf_counter()
    explore_report = explore_pages(
        load_page_inputs(PAGES_DIR), schedules=SCHEDULES, seed=SEED
    )
    explore_s = time.perf_counter() - started

    predicted = sum(len(r.predictions) for r in predict_reports)
    filtered = sum(len(r.filtered()) for r in predict_reports)
    witness_runs = sum(len(r.witness_runs) for r in predict_reports)
    confirmed = sum(len(r.confirmed()) for r in predict_reports)
    predict_runs = sum(r.runs_executed for r in predict_reports)
    # Every matrix cell is one recorded run + one replay verification.
    explore_runs = sum(
        (2 if run.ok else 1)
        for page in explore_report.pages
        for run in page.runs
    )

    predict_keys = predict_coverage(predict_reports)
    explore_keys = explore_coverage(explore_report)
    recall = (
        len(predict_keys & explore_keys) / len(explore_keys)
        if explore_keys
        else 1.0
    )

    speedup = round(explore_s / predict_s, 2) if predict_s else None
    write_bench(
        "predict",
        metrics={
            "pages": len(predict_reports),
            "predict_wall_clock_s": round(predict_s, 4),
            "predict_instrumented_runs": predict_runs,
            "predicted": predicted,
            "filtered": filtered,
            "witness_runs": witness_runs,
            "confirmed": confirmed,
            "explore_wall_clock_s": round(explore_s, 4),
            "explore_instrumented_runs": explore_runs,
            "recall_vs_explore": round(recall, 4),
            "speedup": speedup,
        },
        payload={
            "seed": SEED,
            "predict": {
                "budget": BUDGET,
                "coverage": sorted(map(list, predict_keys)),
            },
            "explore": {
                "schedules": SCHEDULES,
                "coverage": sorted(map(list, explore_keys)),
            },
        },
    )

    print()
    print("Prediction vs exploration (single trace vs schedule matrix):")
    print(
        f"  predict: {predict_runs} runs ({witness_runs} witnesses), "
        f"{predict_s * 1000:.0f} ms, {filtered} of {predicted} predictions "
        f"filtered, {confirmed} confirmed"
    )
    print(
        f"  explore: {explore_runs} runs, {explore_s * 1000:.0f} ms, "
        f"{len(explore_keys)} race keys"
    )
    print(
        f"  recall {recall:.2f} at {speedup}x wall-clock, "
        f"{explore_runs / predict_runs:.1f}x fewer instrumented runs"
        if predict_runs
        else ""
    )

    # The acceptance bar: at least one prediction replay-confirmed, full
    # recall of the matrix's logical race coverage, and strictly less
    # work than brute-force exploration.
    assert confirmed >= 1
    assert recall == 1.0
    assert predict_runs < explore_runs
    assert predict_s < explore_s
