"""The paper's happens-before rules (Section 3.3 plus Appendix A).

Each rule from the paper has a label here.  The browser adds every
happens-before edge at the moment its ordering fact becomes known —
``graph.add_edge(src, dst, RULE_…)`` in :mod:`repro.browser.page` and
:mod:`repro.browser.dispatcher` — so every edge of the
:class:`~repro.core.hb.graph.HBGraph` names the paper rule behind it, and
``tests/integration/test_rule_coverage.py`` audits that every label fires
on real pages.

Set-valued identifiers (``dispi``, ``ld``, ``dcl`` denote *sets* of handler
executions) become one edge per pair: ``A ≺ B`` with sets means the full
cross product, exactly as the paper overloads the notation.

Where the paper errs on the side of *fewer* edges (ambiguous specs, browser
disagreement — Section 3), so do we: asynchronous scripts and external
script-inserted scripts get only rules 2, 3 and 15.
"""

from __future__ import annotations

# Rule labels, used to tag edges for tests and audits.
RULE_1A = "1a:static-order"
RULE_1B = "1b:inline-script-before-next-parse"
RULE_1C = "1c:sync-script-load-before-next-parse"
RULE_2 = "2:create-before-exe"
RULE_3 = "3:exe-before-load"
RULE_4 = "4:pre-dcl-create-before-deferred-exe"
RULE_5 = "5:deferred-order"
RULE_6 = "6:iframe-create-before-nested-create"
RULE_7 = "7:nested-window-load-before-iframe-load"
RULE_8 = "8:target-created-before-dispatch"
RULE_9 = "9:earlier-dispatch-first"
RULE_10 = "10:send-before-readystatechange"
RULE_11 = "11:dcl-before-window-load"
RULE_12 = "12:parse-before-dcl"
RULE_13 = "13:inline-exe-before-dcl"
RULE_14 = "14:script-load-before-dcl"
RULE_15 = "15:element-load-before-window-load"
RULE_16 = "16:settimeout-before-cb"
RULE_17 = "17:setinterval-chain"
RULE_A_SPLIT_PRE = "A:inline-dispatch-pre"
RULE_A_SPLIT_POST = "A:inline-dispatch-post"
RULE_A_PHASING = "A:event-phasing"

ALL_RULES = [
    RULE_1A, RULE_1B, RULE_1C, RULE_2, RULE_3, RULE_4, RULE_5, RULE_6,
    RULE_7, RULE_8, RULE_9, RULE_10, RULE_11, RULE_12, RULE_13, RULE_14,
    RULE_15, RULE_16, RULE_17, RULE_A_SPLIT_PRE, RULE_A_SPLIT_POST,
    RULE_A_PHASING,
]
