"""Capture a trace once, analyse it offline — and diff detectors.

Run with::

    python examples/offline_analysis.py

The browser run is the expensive part (and the only part that needs the
page's resources).  This example captures the full execution trace —
operations, happens-before edges, logical accesses, hidden crashes — to a
JSON file, then performs all analysis offline from the file alone:

1. re-detect races with the paper's constant-memory detector,
2. re-detect with the full-history detector and show what the paper's
   detector misses on this trace,
3. re-run filtering + harmfulness classification,
4. answer ad-hoc happens-before queries.
"""

import os
import tempfile

from repro import WebRacer
from repro.core.full_detector import FullHistoryDetector
from repro.core.serialize import dump_trace, load_trace

PAGE = """
<input type="text" id="q" />
<a id="go" href="javascript:search()">Search</a>
<script>
function search() {
  var box = $get('results');
  box.style.display = 'block';
}
</script>
<div id="pad"></div>
<div id="results" style="display:none"></div>
<script src="suggest.js"></script>
"""
RESOURCES = {
    "suggest.js": "document.getElementById('q').value = 'Try: weather';"
}


def main():
    with tempfile.TemporaryDirectory() as directory:
        capture_and_analyse(os.path.join(directory, "webracer_trace.json"))


def capture_and_analyse(trace_path):
    # ---- capture phase (needs the browser + resources) -----------------
    racer = WebRacer(seed=13)
    report = racer.check_page(PAGE, resources=RESOURCES,
                              latencies={"suggest.js": 45.0})
    page = report.page

    dump_trace(page.trace, page.monitor.graph, trace_path)
    size_kb = os.path.getsize(trace_path) / 1024
    print(f"Captured trace: {trace_path} ({size_kb:.1f} KiB)")
    print(f"  {len(page.trace.operations)} operations, "
          f"{len(page.trace.accesses)} accesses, "
          f"{page.monitor.graph.edge_count()} HB edges, "
          f"{len(page.trace.crashes)} hidden crashes")

    # ---- analysis phase (file only; no browser, no resources) ----------
    loaded = load_trace(trace_path)

    offline_report = loaded.report()
    print()
    print("Offline classified report:")
    for classified in offline_report.races:
        print(f"  {classified.describe()}")

    constant = loaded.detect()
    full = FullHistoryDetector(loaded.trace, loaded.graph).replay()
    reported = {race.location for race in constant.races}
    missed = [race for race in full.races if race.location not in reported]
    print()
    print(f"Detector comparison on the same trace:")
    print(f"  constant-memory (paper): {len(constant.races)} races, "
          f"{constant.chc_queries} CHC queries")
    print(f"  full-history:            {len(full.races)} races, "
          f"{full.chc_queries} CHC queries")
    print(f"  racing locations the constant-memory detector missed: {len(missed)}")

    # Ad-hoc happens-before queries against the stored graph.
    ops = sorted(loaded.trace.operations.operations.values(), key=lambda o: o.op_id)
    first_exe = next(op for op in ops if op.kind == "exe")
    last_op = ops[-1]
    print()
    print("Ad-hoc HB query:")
    print(f"  {first_exe.describe()}  ≺  {last_op.describe()} ?  "
          f"{loaded.graph.happens_before(first_exe.op_id, last_op.op_id)}")

    # Sanity: offline equals online.
    assert offline_report.counts() == report.classified.counts()
    print()
    print("Offline analysis matches the online run exactly.")


if __name__ == "__main__":
    main()
