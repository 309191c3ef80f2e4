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

:func:`tokenize` walks the matches of one compiled master pattern: each
match skips whitespace and comments and captures one token in a named
group, and the loop dispatches on that group's name.  A token's line and
column come from the newlines between it and the previous token, counted
only when the next newline lies before the token; only strings with
escapes are decoded outside the pattern.
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


#: The punctuators, each matched by maximal munch: ``{ } ( ) [ ] ; , ? :
#: ~ .``, ``= == === ! != !==``, ``< << <= <<=``, ``> >> >>> >= >>=``,
#: ``& && &=``, ``| || |=``, ``+ ++ +=``, ``- -- -=`` and ``* / % ^`` with
#: or without ``=`` (``>>>=`` is ``>>>`` then ``=``).  A dot before a digit
#: starts a number.
_PUNCTUATOR_PATTERN = (
    r"[{}()\[\];,?:~]|\.(?![0-9])|[=!]=?=?|<<?=?|>(?:>[>=]?|=)?"
    r"|&[&=]?|\|[|=]?|\+[+=]?|-[-=]?|[*/%^]=?"
)

_MASTER = re.compile(
    # Trivia: whitespace, line comments and closed block comments.
    r"(?:[ \t\r\n\f\v]+|//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*"
    # The first alternative that matches wins; the commonest kinds,
    # identifiers and punctuators, come first.
    r"(?:(?P<ident>[A-Za-z_$][\w$]*)"
    # A block comment that never closes; it must precede the "/" punctuator.
    r"|(?P<comment>/\*)"
    r"|(?P<punct>" + _PUNCTUATOR_PATTERN + ")"
    r"""|(?P<str>'[^'\\\n]*'|"[^"\\\n]*")"""
    # Digits are ASCII: float() would also read other Unicode digits.
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    r"|(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?)"
    # A string with escapes, decoded by _decode_string.
    r"""|(?P<escaped>'(?:[^'\\\n]|\\[\s\S])*'|"(?:[^"\\\n]|\\[\s\S])*")"""
    # A string that never closes, or meets a raw line break.
    r"""|(?P<quote>['"])"""
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
    # Token's own constructor is a Python function; this skips it.
    new = tuple.__new__
    # A token starting at ``start`` is on ``line``, at column
    # ``start - base``: ``base`` is the index of the newline that begins
    # the line (-1 on the first).  ``newline`` is the first newline after
    # the last recount, so a token that starts before it skips the count.
    # A string with escaped line breaks is the one token that spans
    # newlines; the next token's count takes them in.
    line, base = 1, -1
    newline = source.find("\n")
    if newline < 0:
        newline = len(source)
    for found in _MASTER.finditer(source):
        kind = found.lastgroup
        start = found.start(kind)
        if start > newline:
            line += source.count("\n", newline, start)
            base = source.rfind("\n", newline, start)
            newline = source.find("\n", start)
            if newline < 0:
                newline = len(source)
        column = start - base
        # The commonest kinds first.
        if kind == "punct":
            append(new(Token, ("punct", found[kind], line, column)))
        elif kind == "ident":
            text = found[kind]
            type_ = text if text in KEYWORDS else "ident"
            append(new(Token, (type_, text, line, column)))
        elif kind == "num":
            try:
                value = float(found[kind])
            except ValueError:  # an exponent without digits
                raise JSSyntaxError(
                    "malformed exponent", line, found.end() - base
                ) from None
            append(new(Token, ("num", value, line, column)))
        elif kind == "str":
            append(new(Token, ("str", found[kind][1:-1], line, column)))
        elif kind == "eof":
            append(new(Token, ("eof", None, line, column)))
            break
        elif kind == "hex":
            text = found[kind]
            if len(text) == 2:
                raise JSSyntaxError("malformed hex literal", line, column + 2)
            append(new(Token, ("num", float(int(text, 16)), line, column)))
        elif kind == "escaped" or kind == "quote":
            # A ``quote`` is a string the pattern could not close, which
            # _decode_string rejects.
            value = _decode_string(source, start, line, column)
            append(new(Token, ("str", value, line, column)))
        elif kind == "uident" and source[start].isalpha():
            append(new(Token, ("ident", found[kind], line, column)))
        elif kind == "comment":
            raise JSSyntaxError("unterminated block comment", line, column)
        else:
            raise JSSyntaxError(
                f"unexpected character {source[start]!r}", line, column
            )
    return tokens


def _decode_string(source: str, start: int, line: int, column: int) -> str:
    """The value of the string literal whose quote is at ``start``.

    A string that never closes, or that meets a raw line break, is
    reported at its quote (``line``, ``column``); a malformed ``\\u``/``\\x``
    escape at its first digit.
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
            return "".join(parts)
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
