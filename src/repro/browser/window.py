"""Windows and frames.

Every document — the root page and each (transitive) inline frame — has a
window object (paper, Section 3.1).  Windows are event targets (their
``load`` event is the anchor of rules 7, 11 and 15) and carry the frame
tree.

One deliberate simplification, documented in DESIGN.md: all frames of a
page share the parent's JavaScript global object, matching the paper's
Fig. 1 presentation where scripts in two iframes race on a single variable
``x``.  Each window still has its own document.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from ..core.locations import ElementKey, node_key
from ..dom.document import Document

_window_ids = itertools.count(1)


def reset_window_ids() -> None:
    """Restart window allocation at 1 (a fresh page's id space)."""
    global _window_ids
    _window_ids = itertools.count(1)


class Window:
    """A browsing context: document + frame tree + window-level events."""

    def __init__(self, document: Document, parent: Optional["Window"] = None, url: str = ""):
        self.window_id = next(_window_ids)
        self.document = document
        document.window = self
        self.parent = parent
        self.url = url or document.url
        self.frames: List["Window"] = []
        if parent is not None:
            parent.frames.append(self)
        #: Window-level event handlers (load, ...), same shape as Element's.
        self.attr_handlers: Dict[str, Any] = {}
        self.listeners: Dict[str, list] = {}
        self.load_fired = False
        #: The iframe element embedding this window (None for the root).
        self.frame_element = None

    @property
    def element_key(self) -> ElementKey:
        """Location identity for Eloc accesses targeting the window."""
        return node_key(-self.window_id)  # negative: never collides with nodes

    @property
    def top(self) -> "Window":
        """The root window of the frame tree."""
        window: Window = self
        while window.parent is not None:
            window = window.parent
        return window

    def has_any_handler(self, event: str) -> bool:
        """Is any handler registered for ``event`` on this window?"""
        return event in self.attr_handlers or bool(self.listeners.get(event))

    def all_windows(self) -> List["Window"]:
        """This window plus every transitive frame, preorder."""
        result: List[Window] = [self]
        for frame in self.frames:
            result.extend(frame.all_windows())
        return result

    def unlink(self) -> None:
        """Cut this window's links to its frames and handlers, and its
        document's (:meth:`Document.unlink`)."""
        self.document.unlink()
        self.frames = []
        self.attr_handlers.clear()
        self.listeners.clear()

    def __repr__(self) -> str:
        return f"Window#{self.window_id}({self.url!r})"
