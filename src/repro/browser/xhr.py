"""XMLHttpRequest simulation (AJAX, paper Sections 3.1 and 3.3 rule 10).

``send()`` records the operation that invoked it; when the simulated
network responds, the page dispatches ``readystatechange`` on the request
object with a rule-10 happens-before edge from the sending operation.  The
paper notes its own implementation did not yet add all rule-10 edges
(Section 7) — ours does, and a test asserts that separate AJAX handlers
remain unordered with each other (the AJAX races of Zheng et al. stay
detectable).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.locations import ATTR_SLOT, node_key
from ..dom.node import next_node_id
from ..js.interpreter import to_string
from ..js.values import NULL, UNDEFINED, HostObject, NativeFunction


class XhrBinding(HostObject):
    """One XMLHttpRequest instance."""

    def __init__(self, page):
        self.page = page
        self.xhr_id = next_node_id()
        self.method = "GET"
        self.url = ""
        self.ready_state = 0
        self.status = 0
        self.response_text = ""
        self.attr_handlers: Dict[str, Any] = {}
        self.listeners: Dict[str, list] = {}
        self.send_op: Optional[int] = None
        self.dispatch_count = 0
        #: Cancellable handle of the in-flight network fetch, if any.
        self.pending: Optional[Any] = None

    @property
    def element_key(self):
        """Location identity for this request's Eloc accesses."""
        return node_key(self.xhr_id)

    # ------------------------------------------------------------------

    def js_get(self, name: str, interpreter) -> Any:
        """Instrumented property/method read on the request."""
        if name == "readyState":
            return float(self.ready_state)
        if name == "status":
            return float(self.status)
        if name in ("responseText", "response"):
            return self.response_text
        if name == "onreadystatechange":
            self.page.monitor.handler_read(self.element_key, "readystatechange")
            handler = self.attr_handlers.get("readystatechange")
            return handler if handler is not None else NULL
        if name in _XHR_METHODS:
            return self.page.bindings.method(self, name, _XHR_METHODS[name])
        return UNDEFINED

    def js_set(self, name: str, value: Any, interpreter) -> None:
        """Instrumented property write (onreadystatechange is an Eloc write)."""
        if name == "onreadystatechange":
            if value is NULL or value is UNDEFINED:
                self.attr_handlers.pop("readystatechange", None)
                self.page.monitor.handler_write(
                    self.element_key, "readystatechange", ATTR_SLOT, removal=True
                )
            else:
                self.attr_handlers["readystatechange"] = value
                self.page.monitor.handler_write(
                    self.element_key, "readystatechange", ATTR_SLOT
                )
            return
        # Other writable properties are inert.

    def js_has(self, name: str) -> bool:
        """`in` support for XHR wrappers."""
        return name in ("readyState", "status", "responseText", "onreadystatechange")

    def __repr__(self) -> str:
        return f"XhrBinding({self.method} {self.url!r}, state={self.ready_state})"


def _xhr_open(interp, xhr: XhrBinding, args):
    # Per spec, open() terminates any in-flight send and resets the
    # request's response state — a reused XHR must not leak the previous
    # request's status/responseText/send provenance into the next one.
    if xhr.pending is not None:
        xhr.pending.cancel()
        xhr.pending = None
    xhr.method = to_string(args[0]).upper() if args else "GET"
    xhr.url = to_string(args[1]) if len(args) > 1 else ""
    xhr.ready_state = 1
    xhr.status = 0
    xhr.response_text = ""
    xhr.send_op = None
    return UNDEFINED


def _xhr_send(interp, xhr: XhrBinding, args):
    xhr.send_op = xhr.page.monitor.current_id()
    xhr.page.start_xhr(xhr)
    return UNDEFINED


def _xhr_abort(interp, xhr: XhrBinding, args):
    # Cancel the pending completion so readystatechange never fires for
    # the aborted request, and reset to the unsent state.
    if xhr.pending is not None:
        xhr.pending.cancel()
        xhr.pending = None
    xhr.ready_state = 0
    xhr.send_op = None
    return UNDEFINED


def _xhr_noop(interp, xhr: XhrBinding, args):
    return UNDEFINED


def _xhr_add_listener(interp, xhr: XhrBinding, args):
    event = to_string(args[0]) if args else ""
    handler = args[1] if len(args) > 1 else UNDEFINED
    from ..dom.element import ListenerEntry

    entry = ListenerEntry(handler=handler, capture=False)
    xhr.listeners.setdefault(event, []).append(entry)
    xhr.page.monitor.handler_write(xhr.element_key, event, entry.handler_key)
    return UNDEFINED


_XHR_METHODS = {
    "open": _xhr_open,
    "send": _xhr_send,
    "setRequestHeader": _xhr_noop,
    "abort": _xhr_abort,
    "addEventListener": _xhr_add_listener,
}


def make_xhr_constructor(page) -> NativeFunction:
    """The ``XMLHttpRequest`` global: ``new XMLHttpRequest()``."""
    return NativeFunction("XMLHttpRequest", lambda interp, this, args: XhrBinding(page))
