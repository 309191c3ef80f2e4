"""DOM elements.

Elements carry the state the paper's memory model cares about:

* attributes (including ``id``, ``src``, ``async``/``defer`` for scripts);
* form state — ``value`` / ``checked`` for inputs, the locations of the
  Fig. 2 Southwest race;
* event handlers, split exactly like the paper's ``Eloc`` model
  (Section 4.3): one *attribute slot* per event (``onload=...`` — written
  by parsing the content attribute or assigning the IDL attribute) plus a
  list of ``addEventListener`` registrations, each its own logical
  location.

``element_key`` implements the identity scheme of
:mod:`repro.core.locations`: id-keyed when the element has an ``id``
attribute, node-keyed otherwise.

Most elements never get a handler, a listener or a style property, so
those three containers start as :data:`NO_ENTRIES`, one shared read-only
empty mapping, and an element allocates its own dict on the first write.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional

from ..core.locations import ElementKey, id_key, node_key
from .node import Node

#: Form fields whose value the form filter watches.
FORM_FIELD_TAGS = frozenset(["input", "textarea", "select"])

#: Tags considered scripts.
SCRIPT_TAG = "script"

#: What an element's ``attr_handlers``, ``listeners`` and ``style`` hold
#: until their first write: one shared, read-only empty mapping.
NO_ENTRIES: Mapping[str, Any] = MappingProxyType({})


@dataclass
class ListenerEntry:
    """One addEventListener registration."""

    handler: Any  # a JS function value (opaque to the DOM)
    capture: bool = False

    @property
    def handler_key(self) -> str:
        """Identity of the handler for the Eloc location."""
        object_id = getattr(self.handler, "object_id", None)
        if object_id is not None:
            return f"fn:{object_id}"
        return f"py:{id(self.handler)}"


class Element(Node):
    """An HTML element."""

    __slots__ = (
        "tag",
        "attributes",
        "home_document",
        "text",
        "attr_handlers",
        "listeners",
        "value",
        "checked",
        "style",
        "inserted",
        "load_fired",
    )

    def __init__(
        self,
        tag: str,
        attributes: Optional[Dict[str, str]] = None,
        home_document=None,
    ):
        super().__init__()
        self.tag = sys.intern(tag.lower())
        self.attributes: Dict[str, str] = dict(attributes) if attributes else {}
        #: The document this element belongs (or will belong) to; fixed at
        #: creation so element-location identity is stable before insertion.
        self.home_document = home_document
        #: Inline text content (script source, option labels, ...).
        self.text: str = ""
        #: Event-handler attribute slots: event type -> handler value.
        self.attr_handlers: Mapping[str, Any] = NO_ENTRIES
        #: addEventListener registrations: event type -> entries.
        self.listeners: Mapping[str, List[ListenerEntry]] = NO_ENTRIES
        #: Form state.
        self.value: str = self.attributes.get("value", "")
        self.checked: bool = "checked" in self.attributes
        #: Style properties (display:none drives the Fig. 3 example).
        self.style: Mapping[str, str] = NO_ENTRIES
        if "style" in self.attributes:
            self._parse_style(self.attributes["style"])
        #: True once the element has been inserted into its document.
        self.inserted = False
        #: True once this element's load event has been dispatched.
        self.load_fired = False

    # ------------------------------------------------------------------
    # identity

    @property
    def element_id(self) -> str:
        """The id attribute, or the empty string."""
        return self.attributes.get("id", "")

    @property
    def element_key(self) -> ElementKey:
        """Location identity: id-keyed if possible, else node-keyed."""
        doc_id = self.home_document.doc_id if self.home_document else 0
        if self.element_id:
            return id_key(doc_id, self.element_id)
        return node_key(self.node_id)

    # ------------------------------------------------------------------
    # attributes

    def get_attribute(self, name: str) -> Optional[str]:
        """Attribute value, or None."""
        return self.attributes.get(name)

    def set_attribute(self, name: str, value: str) -> None:
        """Set an attribute (style/value are mirrored into state)."""
        self.attributes[name] = value
        if name == "style":
            self._parse_style(value)
        elif name == "value" and self.tag in FORM_FIELD_TAGS:
            self.value = value

    def has_attribute(self, name: str) -> bool:
        """Is the attribute present?"""
        return name in self.attributes

    def remove_attribute(self, name: str) -> None:
        """Delete an attribute if present."""
        self.attributes.pop(name, None)

    def _parse_style(self, text: str) -> None:
        for declaration in text.split(";"):
            if ":" in declaration:
                prop, _sep, value = declaration.partition(":")
                self.set_style(prop.strip(), value.strip())

    def set_style(self, prop: str, value: str) -> None:
        """Set one style property."""
        if self.style is NO_ENTRIES:
            self.style = {}
        self.style[prop] = value

    # ------------------------------------------------------------------
    # script-element helpers

    @property
    def is_script(self) -> bool:
        """Is this a <script> element?"""
        return self.tag == SCRIPT_TAG

    @property
    def is_external_script(self) -> bool:
        """Script with a src attribute?"""
        return self.is_script and bool(self.attributes.get("src"))

    @property
    def is_inline_script(self) -> bool:
        """Script whose code is its body?"""
        return self.is_script and not self.attributes.get("src")

    @property
    def is_async(self) -> bool:
        """Has a truthy async attribute?"""
        return self._bool_attr("async")

    @property
    def is_deferred(self) -> bool:
        """Has a truthy defer attribute?"""
        return self._bool_attr("defer")

    def _bool_attr(self, name: str) -> bool:
        if name not in self.attributes:
            return False
        return self.attributes[name].lower() not in ("false", "0", "no")

    # ------------------------------------------------------------------
    # event handlers (raw storage; instrumentation in browser.bindings)

    def set_attr_handler(self, event: str, handler: Any) -> None:
        """Store the on<event> attribute-slot handler."""
        if self.attr_handlers is NO_ENTRIES:
            self.attr_handlers = {}
        self.attr_handlers[event] = handler

    def get_attr_handler(self, event: str) -> Any:
        """The on<event> attribute-slot handler, or None."""
        return self.attr_handlers.get(event)

    def remove_attr_handler(self, event: str) -> None:
        """Clear the on<event> attribute slot."""
        if event in self.attr_handlers:
            del self.attr_handlers[event]

    def add_listener(self, event: str, handler: Any, capture: bool = False) -> ListenerEntry:
        """addEventListener: append a listener entry."""
        entry = ListenerEntry(handler=handler, capture=capture)
        if self.listeners is NO_ENTRIES:
            self.listeners = {}
        self.listeners.setdefault(event, []).append(entry)
        return entry

    def remove_listener(self, event: str, handler: Any) -> Optional[ListenerEntry]:
        """removeEventListener by handler identity."""
        entries = self.listeners.get(event, [])
        for entry in entries:
            if entry.handler is handler:
                entries.remove(entry)
                return entry
        return None

    def has_any_handler(self, event: str) -> bool:
        """Any attr-slot handler or listener for ``event``?"""
        return event in self.attr_handlers or bool(self.listeners.get(event))

    # ------------------------------------------------------------------
    # rendering-ish helpers

    @property
    def visible(self) -> bool:
        """display:none check (drives the Fig. 3 example)."""
        return self.style.get("display", "") != "none"

    def element_children(self) -> List["Element"]:
        """Direct children that are elements."""
        return [child for child in self.children if isinstance(child, Element)]

    def element_descendants(self) -> List["Element"]:
        """All element descendants, preorder."""
        return [node for node in self.descendants() if isinstance(node, Element)]

    def __repr__(self) -> str:
        ident = f" id={self.element_id!r}" if self.element_id else ""
        return f"<{self.tag}{ident} #{self.node_id}>"
