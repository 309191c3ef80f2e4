"""DOM tree nodes.

A deliberately small DOM: :class:`Node` provides tree structure and
identity; :class:`~repro.dom.element.Element` adds attributes, event
handlers and form state; :class:`~repro.dom.document.Document` is the root
with the query APIs.  Text content is stored on elements directly (no text
nodes) — none of the paper's races involve text-node granularity.

Nodes are pure Python.  The JavaScript view of a node (property access,
methods like ``appendChild``) lives in :mod:`repro.browser.bindings`, which
is also where the paper's logical-memory instrumentation for scripts hooks
in; *structural* instrumentation (element inserted/removed — the ``HElem``
writes of Section 4.2) is emitted by the Document.

Most nodes are leaves, so ``children`` starts as :data:`NO_CHILDREN`, one
shared empty tuple, and a node allocates its own list on the first insert.
Every change goes through :meth:`Node.raw_append`,
:meth:`Node.raw_insert_before` and :meth:`Node.raw_remove`, and
``Document.unlink`` drops a closed document's children.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

_node_ids = itertools.count(1)

#: What a node's ``children`` holds until its first child.
NO_CHILDREN: Sequence["Node"] = ()


def next_node_id() -> int:
    """Allocate a fresh DOM node identity."""
    return next(_node_ids)


def reset_node_ids() -> None:
    """Restart node allocation at 1 (a fresh page's id space)."""
    global _node_ids
    _node_ids = itertools.count(1)


class Node:
    """Base tree node: identity, parent/child links."""

    __slots__ = ("node_id", "parent", "children")

    def __init__(self):
        self.node_id = next_node_id()
        self.parent: Optional["Node"] = None
        self.children: Sequence["Node"] = NO_CHILDREN

    # ------------------------------------------------------------------
    # raw structure (no instrumentation; Document wraps these)

    def raw_append(self, child: "Node") -> None:
        """Uninstrumented append (Document.insert instruments)."""
        if child.parent is not None:
            child.parent.raw_remove(child)
        child.parent = self
        if self.children is NO_CHILDREN:
            self.children = [child]
        else:
            self.children.append(child)

    def raw_insert_before(self, child: "Node", reference: Optional["Node"]) -> None:
        """Uninstrumented positional insert."""
        if reference is None:
            self.raw_append(child)
            return
        if child.parent is not None:
            child.parent.raw_remove(child)
        index = self.children.index(reference)
        child.parent = self
        self.children.insert(index, child)

    def raw_remove(self, child: "Node") -> None:
        """Uninstrumented removal."""
        self.children.remove(child)
        child.parent = None

    # ------------------------------------------------------------------
    # traversal

    def descendants(self) -> List["Node"]:
        """All nodes below this one, in document (pre-)order."""
        result: List[Node] = []
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(reversed(node.children))
        return result

    def ancestors(self) -> List["Node"]:
        """Chain of parents from the immediate parent to the root."""
        result: List[Node] = []
        node = self.parent
        while node is not None:
            result.append(node)
            node = node.parent
        return result

    def root(self) -> "Node":
        """The topmost ancestor (the document for attached nodes)."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def __repr__(self) -> str:
        return f"{type(self).__name__}#{self.node_id}"
