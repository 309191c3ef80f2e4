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

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..dom.document import Document
from ..dom.element import Element
from ..dom.node import Node
from .tokenizer import Comment, Doctype, EndTag, StartTag, Text, Token, tokenize_html

#: Tags folded into the implicit document scaffold.
_SCAFFOLD_TAGS = frozenset(["html", "head", "body"])

#: Sources whose tokens the cache keeps, and sources it remembers as
#: tokenized once.  explore and predict parse each document of a page
#: 13-16 times, one page after another, and every run parses them in the
#: same order, so the cache must hold all of a page's documents (itself
#: and its iframes; at most 3 on the benchmark pages).
TOKEN_CACHE_SIZE = 16

#: ``hash(source)`` of sources tokenized once, oldest first.
_seen_once: "OrderedDict[int, None]" = OrderedDict()
#: source -> its tokens, last first, for sources tokenized twice.
_shared: "OrderedDict[str, Tuple[Token, ...]]" = OrderedDict()


def _tokens_of(source: str) -> List[Token]:
    """``source``'s tokens, last first, in a list the parser may pop.

    A source's first parse keeps its tokens nowhere else, so they die as
    the parser passes them (``check``, ``corpus`` and one-off pages never
    hold a document's tokens).  Its second parse admits them to a small
    LRU, and later parses copy the cached sequence: a list of references,
    not a tokenization.  Nothing mutates a token after tokenizing
    (``Element`` copies its attribute dict), so every parse of a source
    may share them.
    """
    shared = _shared.get(source)
    if shared is not None:
        _shared.move_to_end(source)
        return list(shared)
    tokens = tokenize_html(source)
    tokens.reverse()
    key = hash(source)
    if key in _seen_once:
        del _seen_once[key]
        _shared[source] = tuple(tokens)
        if len(_shared) > TOKEN_CACHE_SIZE:
            _shared.popitem(last=False)
    else:
        _seen_once[key] = None
        if len(_seen_once) > TOKEN_CACHE_SIZE:
            _seen_once.popitem(last=False)
    return tokens


def clear_token_cache() -> None:
    """Forget every source seen and every token sequence kept."""
    _seen_once.clear()
    _shared.clear()


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
        #: read, so the parser holds a token only until it passes it.
        self.tokens: List[Token] = _tokens_of(source)
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
