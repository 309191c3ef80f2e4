"""Audit: every happens-before rule from the paper fires on real pages.

A single composite page exercising all web-platform features must produce
at least one labeled edge for every rule in Section 3.3 (plus Appendix A).
This guards against silently dead rule plumbing — a rule whose label never
appears again after a refactor would weaken the relation and create false
positives without failing any functional test.
"""

import pytest

from repro.browser.page import Browser
from repro.core.hb import rules as R

COMPOSITE_PAGE = """
<script>first = 1;</script>
<div id="static1"></div>
<script src="sync.js"></script>
<div id="static2"></div>
<script src="async.js" async="true"></script>
<script src="defer1.js" defer="true"></script>
<script src="defer2.js" defer="true"></script>
<img id="pic" src="pic.png">
<iframe id="frame" src="inner.html"></iframe>
<script>
setTimeout(function () { t1 = 1; }, 5);
var iv = setInterval(function () {
  ticks = (typeof ticks == 'undefined') ? 1 : ticks + 1;
  if (ticks >= 2) clearInterval(iv);
}, 5);
var xr = new XMLHttpRequest();
xr.open('GET', 'data.json');
xr.onreadystatechange = function () { payload = xr.responseText; };
xr.send();
var btn = document.getElementById('static1');
btn.onclick = function () { clicked = (typeof clicked == 'undefined') ? 1 : clicked + 1; };
btn.click();
btn.click();
</script>
"""

RESOURCES = {
    "sync.js": "fromSync = 1;",
    "async.js": "fromAsync = 1;",
    "defer1.js": "fromDefer1 = 1;",
    "defer2.js": "fromDefer2 = 1;",
    "pic.png": "bin",
    "inner.html": "<div id='nested'></div>",
    "data.json": "payload",
}


@pytest.fixture(scope="module")
def composite_page():
    return Browser(seed=0, resources=RESOURCES).load(COMPOSITE_PAGE)


@pytest.mark.parametrize(
    "rule",
    [
        R.RULE_1A,
        R.RULE_1B,
        R.RULE_1C,
        R.RULE_2,
        R.RULE_3,
        R.RULE_4,
        R.RULE_5,
        R.RULE_6,
        R.RULE_7,
        R.RULE_8,
        R.RULE_9,
        R.RULE_10,
        R.RULE_11,
        R.RULE_12,
        R.RULE_14,
        R.RULE_15,
        R.RULE_16,
        R.RULE_17,
        R.RULE_A_SPLIT_PRE,
        R.RULE_A_SPLIT_POST,
        R.RULE_A_PHASING,
    ],
)
def test_rule_fires_on_composite_page(composite_page, rule):
    edges = composite_page.monitor.graph.edges_by_rule(rule)
    assert edges, f"rule {rule} produced no edges on the composite page"


def test_rule_13_fires_with_trailing_inline_script():
    """Rule 13 (trailing inline exe ≺ DCL) needs the page to *end* with an
    inline script — earlier inline scripts reach DCL transitively via the
    rule-1 chain instead."""
    page = Browser(seed=0).load("<div></div><script>tail = 1;</script>")
    assert page.monitor.graph.edges_by_rule(R.RULE_13)


def test_all_rule_labels_distinct():
    assert len(set(R.ALL_RULES)) == len(R.ALL_RULES)


def test_composite_page_ran_everything(composite_page):
    g = composite_page.interpreter.global_object
    for name in ("first", "fromSync", "fromAsync", "fromDefer1", "fromDefer2",
                 "t1", "ticks", "payload", "clicked"):
        assert g.has_own(name), f"{name} never ran"
    assert g.get_own("clicked") == 2.0
