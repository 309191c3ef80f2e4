"""The Document: DOM root, query APIs, and structural instrumentation.

Insertion and removal of elements are the *write* accesses of the paper's
``HElem`` model (Section 4.2); the query APIs (``getElementById`` and
friends) are the *read* accesses.  The Document reports both to its
:class:`DomInstrumentation` sink (installed by the browser's monitor), along
with the ``parentNode`` / ``childNodes[i]`` JS-heap writes the paper models
for structural mutation (Section 4.1, "Additional Cases").

Reads that *miss* (``getElementById`` of an element not yet parsed) are
reported too — against the id-keyed location the later insertion will
write — which is exactly how the Fig. 3 Valero race becomes visible.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.locations import ElementKey, id_key
from .element import Element
from .node import Node


class DomInstrumentation:
    """Sink for the Document's logical memory accesses; defaults to no-op."""

    def element_inserted(self, element: Element, parent: Node) -> None:
        """Element written into the document (parse or dynamic insert)."""

    def element_removed(self, element: Element, parent: Node) -> None:
        """Element removed from the document."""

    def element_read(
        self, document: "Document", key: ElementKey, found: bool, via: str
    ) -> None:
        """A logical read of an HTML element (Section 4.2 read accesses)."""

    def collection_read(self, document: "Document", kind: str, key: str) -> None:
        """A read of a document-level element collection."""


NULL_DOM_INSTRUMENTATION = DomInstrumentation()

#: Collection buckets an element belongs to, by tag.
_CATEGORY_BY_TAG = {
    "form": "forms",
    "img": "images",
    "a": "links",
    "script": "scripts",
}


class Document(Node):
    """A DOM document: the tree root plus query APIs and indexes."""

    def __init__(self, url: str = "about:blank"):
        super().__init__()
        self.url = url
        self.doc_id = self.node_id
        self.instrumentation: DomInstrumentation = NULL_DOM_INSTRUMENTATION
        self._id_index: Dict[str, Element] = {}
        #: Every element this document created, in its tree or not
        #: (removed, or built before insertion), for :meth:`unlink`.
        self._created: List[Element] = []
        #: The window owning this document (set by the browser).
        self.window = None
        #: Document-level event listeners (DOMContentLoaded handlers).
        self.attr_handlers: Dict[str, object] = {}
        self.listeners: Dict[str, list] = {}
        self.dcl_fired = False
        self.root_element: Optional[Element] = None
        self.body: Optional[Element] = None

    # ------------------------------------------------------------------
    # creation & structure

    def create_element(self, tag: str, attributes: Optional[Dict[str, str]] = None) -> Element:
        """Create a detached element homed in this document."""
        element = Element(tag, attributes, home_document=self)
        self._created.append(element)
        return element

    def ensure_root(self) -> Element:
        """Create the implicit <html><body> scaffold on first use."""
        if self.root_element is None:
            self.root_element = self.create_element("html")
            self.raw_append(self.root_element)
            self.root_element.inserted = True
            self.body = self.create_element("body")
            self.root_element.raw_append(self.body)
            self.body.inserted = True
        return self.root_element

    def insert(
        self,
        element: Element,
        parent: Optional[Node] = None,
        before: Optional[Element] = None,
    ) -> Element:
        """Insert ``element`` (and its subtree) into this document.

        This is the write access of the HElem model: the element, each of
        its descendants, and the relevant collection buckets are written.
        """
        if parent is None:
            self.ensure_root()
            parent = self.body
        parent.raw_insert_before(element, before)
        for node in [element] + element.descendants():
            if isinstance(node, Element):
                self._index(node)
                node.inserted = True
                self.instrumentation.element_inserted(node, node.parent)
        return element

    def remove(self, element: Element) -> Element:
        """Remove ``element`` (and its subtree) from this document."""
        parent = element.parent
        if parent is None:
            return element
        for node in [element] + element.descendants():
            if isinstance(node, Element):
                self._unindex(node)
                node.inserted = False
                self.instrumentation.element_removed(node, parent)
        parent.raw_remove(element)
        return element

    def _index(self, element: Element) -> None:
        if element.element_id and element.element_id not in self._id_index:
            self._id_index[element.element_id] = element

    def _unindex(self, element: Element) -> None:
        if self._id_index.get(element.element_id) is element:
            del self._id_index[element.element_id]

    # ------------------------------------------------------------------
    # query APIs (the HElem read accesses)

    def get_element_by_id(self, element_id: str) -> Optional[Element]:
        """Instrumented id lookup (misses are reads too — Fig. 3)."""
        element = self._id_index.get(element_id)
        self.instrumentation.element_read(
            self,
            id_key(self.doc_id, element_id),
            found=element is not None,
            via="getElementById",
        )
        return element

    def get_elements_by_tag_name(self, tag: str) -> List[Element]:
        """Instrumented tag query (collection + element reads)."""
        tag = tag.lower()
        self.instrumentation.collection_read(self, "tag", tag)
        result = [
            element
            for element in self.all_elements()
            if tag in ("*", element.tag)
        ]
        self._read_all(result, via="getElementsByTagName")
        return result

    def get_elements_by_name(self, name: str) -> List[Element]:
        """Instrumented name-attribute query."""
        self.instrumentation.collection_read(self, "name", name)
        result = [
            element
            for element in self.all_elements()
            if element.get_attribute("name") == name
        ]
        self._read_all(result, via="getElementsByName")
        return result

    def collection(self, kind: str) -> List[Element]:
        """document.forms / images / links / anchors / scripts."""
        self.instrumentation.collection_read(self, kind, "")
        if kind == "anchors":
            result = [
                element
                for element in self.all_elements()
                if element.tag == "a" and element.has_attribute("name")
            ]
        else:
            tags = {tag for tag, category in _CATEGORY_BY_TAG.items() if category == kind}
            result = [element for element in self.all_elements() if element.tag in tags]
        self._read_all(result, via=f"document.{kind}")
        return result

    def _read_all(self, elements: List[Element], via: str) -> None:
        for element in elements:
            self.instrumentation.element_read(
                self, element.element_key, found=True, via=via
            )

    def query_selector_all(self, selector: str) -> List[Element]:
        """CSS-ish selection: supports compound ``tag``/``#id``/``.class``
        selectors and comma-separated groups (no combinators).

        Instrumented like the other query APIs: an id selector reads the
        id-keyed element location (misses included — same race surface as
        ``getElementById``); other selectors read the tag/class buckets
        plus each matched element.
        """
        matches: List[Element] = []
        for part in selector.split(","):
            matches.extend(self._query_one(part.strip()))
        seen = set()
        unique: List[Element] = []
        for element in matches:
            if element.node_id not in seen:
                seen.add(element.node_id)
                unique.append(element)
        return unique

    def query_selector(self, selector: str) -> Optional[Element]:
        """First match of :meth:`query_selector_all`, or None."""
        result = self.query_selector_all(selector)
        return result[0] if result else None

    def _query_one(self, selector: str) -> List[Element]:
        tag, element_id, classes = _parse_compound_selector(selector)
        if element_id is not None:
            element = self._id_index.get(element_id)
            self.instrumentation.element_read(
                self,
                id_key(self.doc_id, element_id),
                found=element is not None,
                via="querySelector",
            )
            if element is None:
                return []
            if tag and element.tag != tag:
                return []
            if not all(_has_class(element, cls) for cls in classes):
                return []
            return [element]
        self.instrumentation.collection_read(
            self, "tag" if tag else "class", tag or ".".join(classes)
        )
        result = [
            element
            for element in self.all_elements()
            if (not tag or element.tag == tag)
            and all(_has_class(element, cls) for cls in classes)
        ]
        self._read_all(result, via="querySelector")
        return result

    def all_elements(self) -> List[Element]:
        """Every element in the document, preorder."""
        return [node for node in self.descendants() if isinstance(node, Element)]

    @staticmethod
    def categories_of(element: Element) -> List[str]:
        """Collection buckets written when ``element`` is inserted."""
        buckets = ["tag:" + element.tag]
        category = _CATEGORY_BY_TAG.get(element.tag)
        if category is not None:
            buckets.append(category)
        if element.has_attribute("name"):
            buckets.append("name:" + element.get_attribute("name"))
        return buckets

    # ------------------------------------------------------------------
    # document-level handlers (DOMContentLoaded)


    def has_any_handler(self, event: str) -> bool:
        """Is any handler registered for ``event`` on the document?"""
        return event in self.attr_handlers or bool(self.listeners.get(event))

    # ------------------------------------------------------------------
    # closing

    def unlink(self) -> None:
        """Cut the links that make this document cyclic (idempotent).

        Every element this document created drops its parent link and
        its handlers (a JS function can reach its element back through its
        scope), and the document drops its children, indexes, window and
        handlers.  Elements keep their children and ``home_document``,
        which no longer reaches them, so reference counting frees the DOM
        once the closed page that owns it is let go.  One pass over those
        elements.
        """
        for element in self._created:
            element.parent = None
            element.attr_handlers.clear()
            element.listeners.clear()
        self._created = []
        self.children = []
        self._id_index.clear()
        self.root_element = self.body = self.window = None
        self.attr_handlers.clear()
        self.listeners.clear()

    def __repr__(self) -> str:
        return f"Document#{self.doc_id}({self.url!r})"


def _parse_compound_selector(selector: str):
    """``"div#dw.hidden.big"`` -> ("div", "dw", ["hidden", "big"])."""
    tag = ""
    element_id = None
    classes: List[str] = []
    token = ""
    mode = "tag"
    for ch in selector:
        if ch in "#.":
            if mode == "tag":
                tag = token
            elif mode == "id":
                element_id = token
            else:
                classes.append(token)
            token = ""
            mode = "id" if ch == "#" else "class"
        else:
            token += ch
    if mode == "tag":
        tag = token
    elif mode == "id":
        element_id = token
    elif token:
        classes.append(token)
    return tag.lower(), element_id, [cls for cls in classes if cls]


def _has_class(element: Element, cls: str) -> bool:
    return cls in (element.get_attribute("class") or "").split()
