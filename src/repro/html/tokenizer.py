"""HTML tokenizer.

Turns markup text into a flat stream of :class:`StartTag` / :class:`EndTag`
/ :class:`Text` / :class:`Comment` / :class:`Doctype` tokens.  Covers the
HTML subset real pages' structure needs: quoted/unquoted/bare attributes,
self-closing tags, comments, and raw-text handling for ``<script>`` bodies
(everything up to the matching ``</script>`` is a single text token, so
JavaScript containing ``<`` doesn't confuse the tokenizer).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Union

#: Tags that never have content or end tags.
VOID_TAGS = frozenset(
    ["img", "input", "br", "hr", "meta", "link", "area", "base", "col", "embed",
     "source", "track", "wbr"]
)

#: Tags whose content is raw text up to the matching end tag.
RAW_TEXT_TAGS = frozenset(["script", "style"])

#: End-tag search per raw-text tag.  End-tag names match ASCII
#: case-insensitively, and the search runs on the source itself: offsets
#: found in a ``lower()``-ed copy drift wherever lowering lengthens a
#: character (``"İ".lower()`` is two code points).
_RAW_TEXT_END = {
    tag: re.compile("</" + tag, re.IGNORECASE | re.ASCII) for tag in RAW_TEXT_TAGS
}


@dataclass
class StartTag:
    """An opening tag with its attributes."""
    name: str
    attributes: Dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


@dataclass
class EndTag:
    """A closing tag."""
    name: str


@dataclass
class Text:
    """A run of character data."""
    data: str


@dataclass
class Comment:
    """An HTML comment."""
    data: str


@dataclass
class Doctype:
    """A doctype declaration."""
    data: str


Token = Union[StartTag, EndTag, Text, Comment, Doctype]


class HtmlTokenizer:
    """Single-pass HTML tokenizer."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0

    def tokenize(self) -> List[Token]:
        """Tokenize the whole source; whitespace-only text is dropped."""
        tokens: List[Token] = []
        while self.pos < len(self.source):
            if self.source.startswith("<!--", self.pos):
                tokens.append(self._read_comment())
            elif self.source.startswith("<!", self.pos):
                tokens.append(self._read_doctype())
            elif self.source.startswith("</", self.pos):
                tokens.append(self._read_end_tag())
            elif self.source.startswith("<", self.pos) and self._looks_like_tag():
                start_tag = self._read_start_tag()
                tokens.append(start_tag)
                if (
                    start_tag.name in RAW_TEXT_TAGS
                    and not start_tag.self_closing
                ):
                    raw, end = self._read_raw_text(start_tag.name)
                    if raw:
                        tokens.append(Text(raw))
                    if end is not None:
                        tokens.append(end)
            else:
                tokens.append(self._read_text())
        return [
            token
            for token in tokens
            if not (isinstance(token, Text) and not token.data.strip())
        ]

    # ------------------------------------------------------------------

    def _looks_like_tag(self) -> bool:
        nxt = self.source[self.pos + 1 : self.pos + 2]
        return bool(nxt) and (nxt.isalpha() or nxt == "_")

    def _read_comment(self) -> Comment:
        end = self.source.find("-->", self.pos + 4)
        if end == -1:
            data = self.source[self.pos + 4 :]
            self.pos = len(self.source)
            return Comment(data)
        data = self.source[self.pos + 4 : end]
        self.pos = end + 3
        return Comment(data)

    def _read_doctype(self) -> Doctype:
        end = self.source.find(">", self.pos)
        if end == -1:
            end = len(self.source)
        data = self.source[self.pos + 2 : end]
        self.pos = min(end + 1, len(self.source))
        return Doctype(data)

    def _read_end_tag(self) -> EndTag:
        end = self.source.find(">", self.pos)
        if end == -1:
            end = len(self.source)
        name = self.source[self.pos + 2 : end].strip().lower()
        self.pos = min(end + 1, len(self.source))
        return EndTag(name)

    def _read_start_tag(self) -> StartTag:
        pos = self.pos + 1
        start = pos
        while pos < len(self.source) and (
            self.source[pos].isalnum() or self.source[pos] in "-_"
        ):
            pos += 1
        name = self.source[start:pos].lower()
        attributes: Dict[str, str] = {}
        self_closing = False
        while pos < len(self.source):
            while pos < len(self.source) and self.source[pos] in " \t\r\n":
                pos += 1
            if pos >= len(self.source):
                break
            ch = self.source[pos]
            if ch == ">":
                pos += 1
                break
            if ch == "/":
                pos += 1
                if pos < len(self.source) and self.source[pos] == ">":
                    self_closing = True
                    pos += 1
                    break
                continue
            # attribute name
            attr_start = pos
            while pos < len(self.source) and self.source[pos] not in " \t\r\n=/>":
                pos += 1
            attr_name = self.source[attr_start:pos].lower()
            while pos < len(self.source) and self.source[pos] in " \t\r\n":
                pos += 1
            if pos < len(self.source) and self.source[pos] == "=":
                pos += 1
                while pos < len(self.source) and self.source[pos] in " \t\r\n":
                    pos += 1
                if pos < len(self.source) and self.source[pos] in "\"'":
                    quote = self.source[pos]
                    pos += 1
                    value_start = pos
                    while pos < len(self.source) and self.source[pos] != quote:
                        pos += 1
                    value = self.source[value_start:pos]
                    pos = min(pos + 1, len(self.source))
                else:
                    value_start = pos
                    while pos < len(self.source) and self.source[pos] not in " \t\r\n>":
                        pos += 1
                    value = self.source[value_start:pos]
            else:
                # Bare attribute: present with empty value ("async", "defer").
                value = "true"
            if attr_name:
                attributes[attr_name] = _unescape(value)
        self.pos = pos
        if name in VOID_TAGS:
            self_closing = True
        return StartTag(name=name, attributes=attributes, self_closing=self_closing)

    def _read_raw_text(self, tag: str):
        """Raw content until ``</tag>``; returns (text, EndTag-or-None)."""
        match = _RAW_TEXT_END[tag].search(self.source, self.pos)
        if match is None:
            data = self.source[self.pos :]
            self.pos = len(self.source)
            return data, None
        index = match.start()
        data = self.source[self.pos : index]
        end = self.source.find(">", index)
        self.pos = len(self.source) if end == -1 else end + 1
        return data, EndTag(tag)

    def _read_text(self) -> Text:
        end = self.source.find("<", self.pos + 1)
        if end == -1:
            end = len(self.source)
        data = self.source[self.pos : end]
        self.pos = end
        return Text(_unescape(data))


_ENTITIES = {
    "&amp;": "&",
    "&lt;": "<",
    "&gt;": ">",
    "&quot;": '"',
    "&#39;": "'",
    "&apos;": "'",
    "&nbsp;": " ",
}


def _unescape(text: str) -> str:
    if "&" not in text:
        return text
    for entity, char in _ENTITIES.items():
        text = text.replace(entity, char)
    return text


def tokenize_html(source: str) -> List[Token]:
    """Tokenize ``source`` markup."""
    return HtmlTokenizer(source).tokenize()
