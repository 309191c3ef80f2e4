"""Shared fixtures: one racy page, checked once per module."""

import pytest

from repro import WebRacer

#: The Fig. 2 + Fig. 5 page: a form race and an event-dispatch race.
PAGE_HTML = """
<input type="text" id="search" />
<iframe id="widget" src="widget.html"></iframe>
<script>
document.getElementById('widget').onload = function () { widgetReady = true; };
</script>
<script src="hint.js"></script>
"""

RESOURCES = {"hint.js": "document.getElementById('search').value = 'hint';"}


def check_page():
    racer = WebRacer(seed=7)
    return racer.check_page(PAGE_HTML, resources=RESOURCES, url="racy.html")


@pytest.fixture(scope="module")
def page_report():
    return check_page()
