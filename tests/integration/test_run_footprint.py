"""What a checked run keeps alive, bounded on the E8 operation-heavy page.

A run's per-operation and per-location state (the HB store, the detector's
slots, the operations) lives in lists indexed by the run's dense ids, and
an element allocates its handler, listener and style containers only when
something is written to them (DESIGN §5).  The page here has 500 blocks:
1,502 operations and 5,002 accesses.  After ``check_page`` tracemalloc saw
1.72 MB still allocated with that layout (CPython 3.11), 2.36 MB with the
HB store keyed by dicts and 2.72 MB with element containers allocated
up front as well.  The bound leaves headroom for other CPython versions
and stays below the dict-keyed store.
"""

import gc
import tracemalloc

from repro import WebRacer
from repro.browser.page import clear_parse_cache

BLOCKS = 500
#: Bytes a checked 500-block run may keep allocated.
LIVE_BYTES_BOUND = 2_200_000


def heavy_page(blocks: int) -> str:
    """The E8 page: one element and one script per block."""
    return "".join(
        f"<div id='d{i}'></div><script>t{i % 7} = {i};</script>"
        for i in range(blocks)
    )


def test_checked_heavy_page_stays_under_its_bound():
    html = heavy_page(BLOCKS)
    racer = WebRacer(seed=0)
    clear_parse_cache()
    gc.collect()
    tracemalloc.start()
    try:
        report = racer.check_page(html)
        gc.collect()
        live, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.trace.operations) == 3 * BLOCKS + 2
    assert len(report.trace.accesses) == 10 * BLOCKS + 2
    assert live < LIVE_BYTES_BOUND, f"{live:,} bytes live after check_page"
