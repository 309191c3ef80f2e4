"""Incremental HTML parser.

Builds the DOM element-by-element, *pausably*: each call to
:meth:`IncrementalHtmlParser.next_unit` produces at most one
:class:`ParseUnit` — one element, corresponding to one ``parse(E)``
operation of the paper (Section 3.2).  The page loader wraps the unit in an
operation, applies the static-HTML happens-before rules (rule 1), and then
``commit()``s it, which performs the instrumented DOM insertion.

Pausability is what models *partial page rendering* (Section 2.1): between
units the browser's event loop may run timers, network completions, or
(simulated) user input, letting the races the paper describes actually
interleave.

Structural simplifications (documented in DESIGN.md): ``html``/``head``/
``body`` tags fold into the document's implicit scaffold; iframes carry
their content via ``src`` (a separate document); scripts surface only once
their content is complete (end tag seen).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..dom.document import Document
from ..dom.element import Element
from ..dom.node import Node
from .tokenizer import Comment, Doctype, EndTag, StartTag, Text, Token, tokenize_html

#: Tags folded into the implicit document scaffold.
_SCAFFOLD_TAGS = frozenset(["html", "head", "body"])


@dataclass
class ParseUnit:
    """One parsed element, ready to be inserted under an operation."""

    element: Element
    parent: Node
    #: Source order index of this element within its document.
    order: int

    def commit(self, document: Document) -> Element:
        """Perform the (instrumented) insertion of the element."""
        document.insert(self.element, parent=self.parent)
        return self.element


class IncrementalHtmlParser:
    """Pull-based tree builder over the token stream."""

    def __init__(self, document: Document, source: str):
        self.document = document
        #: Tokens not yet consumed, last first: each is popped as it is
        #: read, so a token lives only until the parser passes it.
        self.tokens: List[Token] = tokenize_html(source)
        self.tokens.reverse()
        document.ensure_root()
        self._stack: List[Node] = [document.body]
        self._order = 0

    @property
    def finished(self) -> bool:
        """Has the whole token stream been consumed?"""
        return not self.tokens

    def next_unit(self) -> Optional[ParseUnit]:
        """Produce the next element to parse, or None when input ends.

        Non-element tokens (text, comments, end tags) are consumed along
        the way: text attaches to the innermost open element, end tags pop
        the open-element stack.
        """
        tokens = self.tokens
        while tokens:
            token = tokens.pop()
            if isinstance(token, (Comment, Doctype)):
                continue
            if isinstance(token, Text):
                owner = self._stack[-1]
                if isinstance(owner, Element):
                    owner.text += token.data
                continue
            if isinstance(token, EndTag):
                self._pop(token.name)
                continue
            if isinstance(token, StartTag):
                if token.name in _SCAFFOLD_TAGS:
                    continue
                element = self.document.create_element(token.name, token.attributes)
                parent = self._stack[-1]
                unit = ParseUnit(element=element, parent=parent, order=self._order)
                self._order += 1
                if token.name == "script" and not token.self_closing:
                    # Collect the script body before surfacing the unit, so
                    # exe(E) has its source.  Script elements never nest.
                    self._absorb_script_body(element)
                elif not token.self_closing:
                    self._stack.append(element)
                return unit
        return None

    # ------------------------------------------------------------------

    def _absorb_script_body(self, element: Element) -> None:
        tokens = self.tokens
        while tokens:
            token = tokens.pop()
            if isinstance(token, Text):
                element.text += token.data
            elif isinstance(token, EndTag) and token.name == "script":
                return
            else:
                # Malformed nesting inside a script: tokenizer guarantees
                # this doesn't happen, but stay robust.
                return

    def _pop(self, name: str) -> None:
        if name in _SCAFFOLD_TAGS:
            return
        for index in range(len(self._stack) - 1, 0, -1):
            node = self._stack[index]
            if isinstance(node, Element) and node.tag == name:
                del self._stack[index:]
                return
        # Unmatched end tag: ignored, like browsers do.


def parse_html(document: Document, source: str) -> List[Element]:
    """Parse ``source`` into ``document`` eagerly (no interleaving).

    Convenience for tests and for building iframe documents whose parsing
    the experiment doesn't need to interleave.  Returns the inserted
    elements in parse order.
    """
    parser = IncrementalHtmlParser(document, source)
    elements = []
    while True:
        unit = parser.next_unit()
        if unit is None:
            return elements
        elements.append(unit.commit(document))
