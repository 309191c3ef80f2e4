"""E8 — Section 6 "Performance": instrumentation overhead.

The paper reports WebRacer handles pages with tens of thousands of
operations in under a minute, and that heavy JavaScript sees a large
slowdown (≈500× on SunSpider vs. JIT-enabled, uninstrumented WebKit —
most of which was the disabled JIT).  Our analogue compares the same
compute-heavy page with instrumentation+detection on vs. off, and measures
throughput on an operation-heavy page.
"""

import time

from repro.browser.page import Browser

#: A SunSpider-flavoured compute kernel (loops, recursion, arrays, strings).
HEAVY_SCRIPT = """
function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
var acc = 0;
for (var i = 0; i < 200; i++) { acc += i * i % 7; }
var arr = [];
for (var j = 0; j < 150; j++) { arr.push(j); }
var sum = 0;
for (var k = 0; k < arr.length; k++) { sum += arr[k]; }
var s = '';
for (var m = 0; m < 60; m++) { s += 'x'; }
result = fib(13) + acc + sum + s.length;
"""

HEAVY_PAGE = f"<script>{HEAVY_SCRIPT}</script>"


def run_page(instrument):
    browser = Browser(seed=0, instrument=instrument)
    page = browser.load(HEAVY_PAGE)
    assert page.interpreter.global_object.get_own("result") is not None
    page.races  # a run only records; detection runs on this first read
    return page


def test_instrumented_page_load(benchmark):
    page = benchmark(run_page, True)
    assert len(page.trace.accesses) > 500


def test_uninstrumented_page_load(benchmark):
    page = benchmark(run_page, False)
    assert len(page.trace.accesses) == 0


def test_overhead_ratio(benchmark):
    """Report the instrumentation slowdown (the paper's 500× figure
    includes the disabled JIT; ours isolates detection overhead only)."""
    benchmark.pedantic(run_page, args=(True,), rounds=1, iterations=1)
    rounds = 5
    start = time.perf_counter()
    for _ in range(rounds):
        run_page(False)
    base = (time.perf_counter() - start) / rounds
    start = time.perf_counter()
    for _ in range(rounds):
        run_page(True)
    instrumented = (time.perf_counter() - start) / rounds
    ratio = instrumented / base

    print()
    print("Instrumentation overhead (E8):")
    print(f"  uninstrumented: {base * 1000:8.2f} ms/page")
    print(f"  instrumented:   {instrumented * 1000:8.2f} ms/page")
    print(f"  slowdown:       {ratio:8.2f}x")
    print("  paper: ~500x on SunSpider (incl. JIT disabled); pages with")
    print("  tens of thousands of operations handled in under a minute")
    assert ratio >= 1.0


def test_operation_heavy_page_under_a_minute(benchmark):
    """Section 6: 'handling pages with tens of thousands of operations in
    less than a minute' — reproduce with a 10k+ operation page."""
    blocks = "".join(
        f"<div id='d{i}'></div><script>t{i % 7} = {i};</script>" for i in range(2500)
    )

    def load_heavy():
        page = Browser(seed=0).load(blocks)
        page.races  # detection is part of handling the page
        return page

    start = time.perf_counter()
    page = benchmark.pedantic(load_heavy, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    ops = len(page.trace.operations)

    print()
    print(f"Operation-heavy page: {ops} operations, "
          f"{len(page.trace.accesses)} accesses in {elapsed:.2f}s")
    assert ops >= 5000
    assert elapsed < 60.0

