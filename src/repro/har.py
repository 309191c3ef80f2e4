"""HAR ingestion: turn a recorded page capture into a checkable workload.

A `.har` file (HTTP Archive, the capture format every browser devtools
"Save all as HAR" button emits) records one real page load: every request
URL, its response size, MIME type and — when the exporter includes bodies
— the response text.  This module maps that onto the simulator's inputs:

* every entry becomes a **resource** (``url -> body``) with an
  **on-the-wire size** (``url -> bytes``) for the connection-level
  network model, and an **origin** implied by its URL;
* the first ``text/html`` entry is the **driver page** — its captured
  body is used verbatim when present, otherwise a synthetic driver is
  generated that references every captured sub-resource the way a real
  page would (``<script src>`` for scripts, ``<img>`` for images,
  ``<iframe>`` for documents), so even a body-stripped HAR still
  reproduces the capture's fetch graph and arrival-order pressure.

Sizes prefer the exporter's ``response.content.size``, then
``response.bodySize``, then the captured body length — so a HAR whose
bodies were replaced with small stand-ins (or stripped) still transfers
its real byte counts through the connection model.

Anything that is not a HAR — bad JSON, missing ``log.entries``, an
empty capture, an entry without a URL — raises :class:`HarError`, an
:class:`~repro.inputs.InputError` with a one-line message, so the CLI
exits 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .browser.network import origin_of
from .inputs import InputError, read_text

#: Size billed for an entry with no usable size information at all.
DEFAULT_ENTRY_SIZE = 1024


class HarError(InputError):
    """The input is not a usable HAR capture."""


@dataclass
class HarEntry:
    """One captured request/response pair, reduced to what the sim needs."""

    url: str
    size: int
    mime: str = ""
    text: str = ""
    status: int = 200

    @property
    def origin(self) -> str:
        return origin_of(self.url)

    @property
    def is_html(self) -> bool:
        return "html" in self.mime

    @property
    def is_script(self) -> bool:
        return "javascript" in self.mime or "ecmascript" in self.mime

    @property
    def is_image(self) -> bool:
        return self.mime.startswith("image/")


@dataclass
class HarWorkload:
    """A HAR capture ready to run: driver page + resources + sizes."""

    url: str
    html: str
    resources: Dict[str, str] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)
    entries: List[HarEntry] = field(default_factory=list)


def _entry_size(content: Dict[str, Any], body_size: Any, text: str) -> int:
    for size in (content.get("size"), body_size):
        # JSON's ``Infinity`` parses to a float that ``int`` rejects.
        if isinstance(size, (int, float)) and 0 < size < math.inf:
            return int(size)
    if text:
        return len(text)
    return DEFAULT_ENTRY_SIZE


def parse_har(text: str) -> List[HarEntry]:
    """Parse HAR JSON text into entries; raises :class:`HarError`."""
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise HarError(f"not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise HarError("top level is not an object")
    log = document.get("log")
    if not isinstance(log, dict):
        raise HarError("missing 'log' object")
    raw_entries = log.get("entries")
    if not isinstance(raw_entries, list):
        raise HarError("missing 'log.entries' array")
    if not raw_entries:
        raise HarError("capture has no entries")
    entries: List[HarEntry] = []
    for index, raw in enumerate(raw_entries):
        if not isinstance(raw, dict):
            raise HarError(f"entry {index} is not an object")
        request = raw.get("request")
        response = raw.get("response")
        if not isinstance(response, dict):
            response = {}
        url = request.get("url") if isinstance(request, dict) else None
        if not url or not isinstance(url, str):
            raise HarError(f"entry {index} has no request URL")
        content = response.get("content")
        if not isinstance(content, dict):
            content = {}
        body = content.get("text")
        if not isinstance(body, str):
            body = ""
        status = response.get("status")
        if not isinstance(status, int) or status <= 0:
            status = 200
        entries.append(
            HarEntry(
                url=url,
                size=_entry_size(content, response.get("bodySize"), body),
                mime=str(content.get("mimeType") or ""),
                text=body,
                status=status,
            )
        )
    return entries


def synthesize_driver(entries: List[HarEntry], title: str = "har capture") -> str:
    """A driver page referencing every sub-resource of a body-less HAR.

    Scripts load ``async`` (the common modern pattern, and the one that
    makes arrival order matter); everything non-script and non-document
    is referenced as an image, which in this engine is a plain
    sub-resource fetch with a ``load`` event.
    """
    lines = [
        "<html><head><title>%s</title></head><body>" % title,
        "<div id='har-root'></div>",
    ]
    for entry in entries:
        if entry.is_html:
            continue  # the driver itself / captured documents
        if entry.is_script:
            lines.append(f'<script src="{entry.url}" async></script>')
        else:
            lines.append(f'<img src="{entry.url}">')
    lines.append("</body></html>")
    return "\n".join(lines)


def workload_from_entries(entries: List[HarEntry]) -> HarWorkload:
    """Assemble a runnable workload from parsed entries."""
    driver: Optional[HarEntry] = next(
        (entry for entry in entries if entry.is_html), None
    )
    sub_entries = [entry for entry in entries if entry is not driver]
    if driver is not None and driver.text:
        html = driver.text
    else:
        html = synthesize_driver(sub_entries)
    resources = {entry.url: entry.text for entry in sub_entries}
    sizes = {entry.url: entry.size for entry in sub_entries}
    return HarWorkload(
        url=driver.url if driver is not None else entries[0].url,
        html=html,
        resources=resources,
        sizes=sizes,
        entries=entries,
    )


def load_har(path: str) -> HarWorkload:
    """Read and assemble a ``.har`` file.

    Raises :class:`~repro.inputs.InputError`: an unreadable file says
    ``cannot read HAR '<path>': …``, a :class:`HarError` names the file as
    ``bad HAR '<path>': …``.
    """
    text = read_text(path, "HAR")
    try:
        entries = parse_har(text)
    except HarError as exc:
        raise HarError(f"bad HAR {path!r}: {exc}") from None
    return workload_from_entries(entries)
