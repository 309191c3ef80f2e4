"""Tokenizer for the mini-JavaScript engine.

Produces a flat list of :class:`Token` objects from source text.  The token
set covers the JavaScript subset the reproduction needs: the full statement
grammar of ES3-style code (``var``/``function``/control flow/``try``),
string/number/regex-free literals, and the operator inventory real pages'
race-prone code uses (assignment and compound assignment, equality in both
strict and loose flavours, logical/bitwise/arithmetic operators, ``typeof``,
``instanceof``, ``in``, ``new``, ``delete``).

Regex literals are deliberately unsupported — none of the paper's examples
need them and they complicate lexing disproportionately; scripts use string
methods instead.

:func:`tokenize` matches one compiled master pattern at the current
position: the pattern skips whitespace and comments and captures one token
in a named group, and the loop dispatches on that group's name.  A token's
line and column come from the newlines between it and the previous token;
only strings with escapes are decoded outside the pattern.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

from .errors import JSSyntaxError

#: Reserved words recognised as distinct token types.
KEYWORDS = frozenset(
    [
        "var",
        "function",
        "return",
        "if",
        "else",
        "while",
        "do",
        "for",
        "break",
        "continue",
        "new",
        "delete",
        "typeof",
        "instanceof",
        "in",
        "this",
        "null",
        "true",
        "false",
        "undefined",
        "try",
        "catch",
        "finally",
        "throw",
        "switch",
        "case",
        "default",
        "void",
    ]
)

#: Multi-character punctuators, longest first so maximal munch works.
_PUNCTUATORS = [
    "===",
    "!==",
    ">>>",
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "<<",
    ">>",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "!",
    "?",
    ":",
    ".",
    "&",
    "|",
    "^",
    "~",
]

_STRING_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "'": "'",
    '"': '"',
    "\\": "\\",
    "/": "/",
}


class Token(NamedTuple):
    """One lexical token.

    ``type`` is one of ``"num"``, ``"str"``, ``"ident"``, ``"punct"``,
    ``"eof"``, or a keyword string from :data:`KEYWORDS`.  ``value`` holds
    the decoded payload (float for numbers, decoded text for strings, the
    identifier/punctuator text otherwise).
    """

    type: str
    value: object
    line: int
    column: int

    def is_punct(self, text: str) -> bool:
        """Is this the punctuator ``text``?"""
        return self.type == "punct" and self.value == text

    def __repr__(self) -> str:
        return f"Token({self.type!r}, {self.value!r}, {self.line}:{self.column})"


_MASTER = re.compile(
    # Trivia: whitespace, line comments and closed block comments.
    r"(?:[ \t\r\n\f\v]+|//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*"
    r"(?:(?P<ident>[A-Za-z_$][\w$]*)"
    # Digits are ASCII: float() would also read other Unicode digits.
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    r"|(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?)"
    r"""|(?P<str>'[^'\\\n]*'|"[^"\\\n]*")"""
    # A string with escapes, or one that never closes: see _read_string.
    r"""|(?P<quote>['"])"""
    # A block comment that never closes.
    r"|(?P<comment>/\*)"
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCTUATORS)) + ")"
    # \w less digits still takes numerics such as "²" that isalpha()
    # rejects, so tokenize checks the first character.
    r"|(?P<uident>[^\W\d][\w$]*)"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>[\s\S]))"
)

#: The plain characters of a string literal, per quote.
_STRING_RUN = {quote: re.compile(rf"[^{quote}\\\n]*") for quote in "'\""}

#: ``\u`` and ``\x`` escapes: the hex digits each takes, and its name.
_HEX_ESCAPES = {
    "u": (re.compile(r"[0-9a-fA-F]{4}"), "unicode"),
    "x": (re.compile(r"[0-9a-fA-F]{2}"), "hex"),
}


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a token list ending in an ``eof`` token."""
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    pos = 0
    # ``line`` and ``line_start`` (the index of its first character) hold
    # at ``mark``, the previous token's start.  A string with escaped line
    # breaks is the one token that spans newlines; counting from its start
    # takes them in.
    line, line_start, mark = 1, 0, 0
    while True:
        found = match(source, pos)
        kind = found.lastgroup
        start, pos = found.span(kind)
        newlines = source.count("\n", mark, start)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", mark, start) + 1
        mark = start
        column = start - line_start + 1
        if kind == "ident":
            text = source[start:pos]
            append(Token(text if text in KEYWORDS else "ident", text, line, column))
        elif kind == "punct":
            append(Token("punct", source[start:pos], line, column))
        elif kind == "str":
            append(Token("str", source[start + 1 : pos - 1], line, column))
        elif kind == "num":
            try:
                value = float(source[start:pos])
            except ValueError:  # an exponent without digits
                raise JSSyntaxError(
                    "malformed exponent", line, column + pos - start
                ) from None
            append(Token("num", value, line, column))
        elif kind == "quote":
            value, pos = _read_string(source, start, line, column)
            append(Token("str", value, line, column))
        elif kind == "hex":
            if pos - start == 2:
                raise JSSyntaxError("malformed hex literal", line, column + 2)
            append(Token("num", float(int(source[start:pos], 16)), line, column))
        elif kind == "eof":
            append(Token("eof", None, line, column))
            return tokens
        elif kind == "uident" and source[start].isalpha():
            append(Token("ident", source[start:pos], line, column))
        elif kind == "comment":
            raise JSSyntaxError("unterminated block comment", line, column)
        else:
            raise JSSyntaxError(
                f"unexpected character {source[start]!r}", line, column
            )


def _read_string(
    source: str, start: int, line: int, column: int
) -> Tuple[str, int]:
    """Decode the string literal whose quote is at ``start``.

    Returns the value and the index past the closing quote.  A string that
    never closes, or that meets a raw line break, is reported at its quote
    (``line``, ``column``); a malformed ``\\u``/``\\x`` escape at its first
    digit.
    """
    quote = source[start]
    run = _STRING_RUN[quote].match
    parts: List[str] = []
    pos = start + 1
    while True:
        end = run(source, pos).end()
        parts.append(source[pos:end])
        char = source[end : end + 1]
        if char == quote:
            return "".join(parts), end + 1
        if char == "\n":
            raise JSSyntaxError("newline in string literal", line, column)
        # A backslash, or the end of the input.
        escape = source[end + 1 : end + 2]
        if not escape:
            raise JSSyntaxError("unterminated string literal", line, column)
        pos = end + 2
        if escape in _HEX_ESCAPES:
            digits, name = _HEX_ESCAPES[escape]
            found = digits.match(source, pos)
            if found is None:
                raise JSSyntaxError(
                    f"malformed {name} escape", *_position(source, pos)
                )
            parts.append(chr(int(found.group(), 16)))
            pos = found.end()
        else:
            # Unknown escapes keep the escaped character, per spec.
            parts.append(_STRING_ESCAPES.get(escape, escape))


def _position(source: str, index: int) -> Tuple[int, int]:
    """The 1-based line and column of ``source[index]``."""
    return source.count("\n", 0, index) + 1, index - source.rfind("\n", 0, index)
