"""Reference JavaScript lexer for tests.

The character-at-a-time tokenizer that :func:`repro.js.lexer.tokenize`
replaced: one method call per character, with line/column bookkeeping on
every ``_advance``.  Slow, but each rule is spelled out where it applies,
so the master-pattern lexer is checked against it token for token and
error for error.  Tokens are built as the product's
:class:`~repro.js.lexer.Token`, so the two outputs compare directly.
"""

from typing import List

from repro.js.errors import JSSyntaxError
from repro.js.lexer import Token

KEYWORDS = frozenset(
    "var function return if else while do for break continue new delete "
    "typeof instanceof in this null true false undefined try catch finally "
    "throw switch case default void".split()
)

#: Multi-character punctuators, longest first so maximal munch works.
_PUNCTUATORS = (
    "=== !== >>> <<= >>= == != <= >= && || ++ -- += -= *= /= %= &= |= ^= "
    "<< >> { } ( ) [ ] ; , < > + - * / % = ! ? : . & | ^ ~"
).split()

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


def _is_digit(ch: str) -> bool:
    """ASCII digit test (str.isdigit accepts Unicode digits float() rejects)."""
    return "0" <= ch <= "9" if ch else False


class Lexer:
    """Single-pass tokenizer with line/column tracking."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> List[Token]:
        """Tokenize the whole source, appending a final ``eof`` token."""
        tokens: List[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                tokens.append(Token("eof", None, self.line, self.column))
                return tokens
            tokens.append(self._next_token())

    # ------------------------------------------------------------------
    # internals

    def _error(self, message: str) -> JSSyntaxError:
        return JSSyntaxError(message, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.source):
                return
            if self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_trivia(self) -> None:
        """Skip whitespace and ``//`` / ``/* */`` comments."""
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n\f\v":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.column
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self.pos >= len(self.source):
                        raise JSSyntaxError(
                            "unterminated block comment", start_line, start_col
                        )
                    self._advance()
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        ch = self._peek()
        if _is_digit(ch) or (ch == "." and _is_digit(self._peek(1))):
            return self._read_number()
        if ch in "\"'":
            return self._read_string()
        if ch.isalpha() or ch in "_$":
            return self._read_identifier()
        return self._read_punctuator()

    def _read_number(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            if not self._is_hex(self._peek()):
                raise self._error("malformed hex literal")
            while self._is_hex(self._peek()):
                self._advance()
            text = self.source[start : self.pos]
            return Token("num", float(int(text, 16)), line, column)
        while _is_digit(self._peek()):
            self._advance()
        if self._peek() == ".":
            self._advance()
            while _is_digit(self._peek()):
                self._advance()
        if self._peek() in ("e", "E"):
            self._advance()
            if self._peek() in ("+", "-"):
                self._advance()
            if not _is_digit(self._peek()):
                raise self._error("malformed exponent")
            while _is_digit(self._peek()):
                self._advance()
        text = self.source[start : self.pos]
        return Token("num", float(text), line, column)

    @staticmethod
    def _is_hex(ch: str) -> bool:
        return bool(ch) and ch in "0123456789abcdefABCDEF"

    def _read_string(self) -> Token:
        line, column = self.line, self.column
        quote = self._peek()
        self._advance()
        parts: List[str] = []
        while True:
            ch = self._peek()
            if not ch:
                raise JSSyntaxError("unterminated string literal", line, column)
            if ch == "\n":
                raise JSSyntaxError("newline in string literal", line, column)
            if ch == quote:
                self._advance()
                return Token("str", "".join(parts), line, column)
            if ch == "\\":
                self._advance()
                esc = self._peek()
                if esc == "u":
                    self._advance()
                    hex_digits = self.source[self.pos : self.pos + 4]
                    if len(hex_digits) < 4 or not all(
                        self._is_hex(d) for d in hex_digits
                    ):
                        raise self._error("malformed unicode escape")
                    parts.append(chr(int(hex_digits, 16)))
                    self._advance(4)
                elif esc == "x":
                    self._advance()
                    hex_digits = self.source[self.pos : self.pos + 2]
                    if len(hex_digits) < 2 or not all(
                        self._is_hex(d) for d in hex_digits
                    ):
                        raise self._error("malformed hex escape")
                    parts.append(chr(int(hex_digits, 16)))
                    self._advance(2)
                elif esc in _STRING_ESCAPES:
                    parts.append(_STRING_ESCAPES[esc])
                    self._advance()
                else:
                    # Unknown escapes keep the escaped character, per spec.
                    parts.append(esc)
                    self._advance()
            else:
                parts.append(ch)
                self._advance()

    def _read_identifier(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        while True:
            ch = self._peek()
            if ch and (ch.isalnum() or ch in "_$"):
                self._advance()
            else:
                break
        text = self.source[start : self.pos]
        if text in KEYWORDS:
            return Token(text, text, line, column)
        return Token("ident", text, line, column)

    def _read_punctuator(self) -> Token:
        line, column = self.line, self.column
        for punct in _PUNCTUATORS:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token("punct", punct, line, column)
        raise self._error(f"unexpected character {self._peek()!r}")


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` the reference way."""
    return Lexer(source).tokenize()
