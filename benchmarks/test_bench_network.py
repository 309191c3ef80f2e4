"""Connection-model network benchmark: emits ``BENCH_network.json``.

The claim under test: the connection-level network model (per-origin
connection pools, slow-start ramping, shared bandwidth) surfaces races
on the bundled HAR capture that the uniform latency model structurally
cannot, at a per-check wall-clock overhead small enough to leave the
model on by default for HAR workloads.

The mechanism is the paper's Section 2.1 trigger — "variation in network
bandwidth": ``examples/pages/shop.har`` guards a fallback write to a
form field behind a 250 ms timer.  Under uniform latency every resource
arrives within ``max_latency`` (120 ms), the guard sees the catalog
already loaded, and the conflicting write never executes; under the
connection model the 1.2 MB catalog script shares the downlink with the
banner image and arrives far after the timer, so both writes run and the
filtered form-field race appears.

Run with ``pytest benchmarks/test_bench_network.py -s``.
"""

import time

from repro.browser.network import DEFAULT_BANDWIDTH, DEFAULT_RTT
from repro.har import load_har
from repro.obs.bench import write_bench
from repro.webracer import WebRacer

from .conftest import print_header

HAR_PATH = "examples/pages/shop.har"
SEEDS = (0, 1, 2, 7, 42)


def _check(workload, network, seed):
    racer = WebRacer(seed=seed, network=network)
    started = time.perf_counter()
    report = racer.check_page(
        workload.html,
        resources=dict(workload.resources),
        url=HAR_PATH,
        sizes={url: float(size) for url, size in workload.sizes.items()},
    )
    elapsed = time.perf_counter() - started
    descriptions = {c.describe() for c in report.classified.races}
    return {
        "raw": len(report.raw_races),
        "filtered": len(report.filtered_races),
        "descriptions": descriptions,
        "virtual_ms": report.page.loop.clock.now,
        "wall_s": elapsed,
    }


def test_bench_network():
    workload = load_har(HAR_PATH)
    # One untimed check per model first, so neither model is charged the
    # process's cold first check; then the models alternate seed by seed,
    # so a slow phase of the machine hits both alike.
    for network in ("uniform", "connection"):
        _check(workload, network, SEEDS[0])
    uniform_runs, connection_runs = [], []
    for seed in SEEDS:
        uniform_runs.append(_check(workload, "uniform", seed))
        connection_runs.append(_check(workload, "connection", seed))

    uniform_descriptions = set().union(*(r["descriptions"] for r in uniform_runs))
    connection_descriptions = set().union(
        *(r["descriptions"] for r in connection_runs)
    )
    connection_only = sorted(connection_descriptions - uniform_descriptions)

    uniform_wall = sum(r["wall_s"] for r in uniform_runs)
    connection_wall = sum(r["wall_s"] for r in connection_runs)
    overhead = round(connection_wall / uniform_wall, 2) if uniform_wall else None

    metrics = {
        "seeds": len(SEEDS),
        "uniform_raw_races": max(r["raw"] for r in uniform_runs),
        "uniform_filtered_races": max(r["filtered"] for r in uniform_runs),
        "connection_raw_races": max(r["raw"] for r in connection_runs),
        "connection_filtered_races": max(r["filtered"] for r in connection_runs),
        "connection_only_races": len(connection_only),
        "uniform_virtual_ms_max": round(
            max(r["virtual_ms"] for r in uniform_runs), 1
        ),
        "connection_virtual_ms_max": round(
            max(r["virtual_ms"] for r in connection_runs), 1
        ),
        "uniform_wall_clock_s": round(uniform_wall, 4),
        "connection_wall_clock_s": round(connection_wall, 4),
        "wall_clock_overhead": overhead,
    }
    write_bench(
        "network",
        metrics,
        payload={
            "har": HAR_PATH,
            "bandwidth_kbps": DEFAULT_BANDWIDTH,
            "rtt_ms": DEFAULT_RTT,
            "connection_only_descriptions": connection_only,
        },
    )

    print_header("Connection-level network model vs uniform latency (shop.har)")
    print(
        f"  uniform:    {metrics['uniform_raw_races']} raw / "
        f"{metrics['uniform_filtered_races']} filtered, virtual load "
        f"{metrics['uniform_virtual_ms_max']:.0f} ms"
    )
    print(
        f"  connection: {metrics['connection_raw_races']} raw / "
        f"{metrics['connection_filtered_races']} filtered, virtual load "
        f"{metrics['connection_virtual_ms_max']:.0f} ms"
    )
    print(
        f"  connection-only races: {metrics['connection_only_races']} "
        f"(wall-clock overhead {overhead}x over {len(SEEDS)} seeds)"
    )
    for description in connection_only:
        print(f"    {description}")

    # The acceptance bar: the connection model surfaces at least one race
    # the uniform model misses on every seed tried, and stays within a
    # modest constant factor of the uniform model's check time.
    assert metrics["connection_only_races"] >= 1
    assert all(r["filtered"] >= 1 for r in connection_runs)
    assert all(r["filtered"] == 0 for r in uniform_runs)
    assert overhead is not None and overhead < 10.0
