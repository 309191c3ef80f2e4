"""Error types for the mini-JavaScript engine.

The engine distinguishes two failure channels:

* :class:`JSSyntaxError` — raised by the lexer/parser while turning source
  text into an AST.  Scripts that fail to parse never execute at all.

* :class:`JSThrow` — the Python carrier for a *JavaScript-level* exception
  (``throw`` statements and runtime errors such as calling ``undefined``).
  Crucially for the paper's race semantics (Sections 2.3/2.4), a ``JSThrow``
  that escapes a script aborts only the remainder of that script: every heap
  and DOM mutation performed before the throw persists.  The browser layer
  catches escaping throws, records them as "hidden crashes", and continues
  with the next operation, just as real browsers hide most JavaScript errors
  from the user.

A script that runs past the interpreter's step budget raises
:class:`BudgetExceeded`, which ends it like an escaping throw but which JS
``try`` cannot catch.
"""

from __future__ import annotations

from typing import Any, Optional


class JSSyntaxError(Exception):
    """Source text could not be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token so
    tooling can point at the problem.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.raw_message = message
        self.line = line
        self.column = column


class BudgetExceeded(Exception):
    """Raised when a script exceeds the interpreter's step budget."""


class JSThrow(Exception):
    """Python-level carrier for a thrown JavaScript value.

    ``value`` is the JS value being thrown — commonly a :class:`JSErrorValue`
    but any value is legal (``throw 42`` is valid JavaScript).
    """

    def __init__(self, value: Any):
        super().__init__(_describe(value))
        self.value = value


class JSErrorValue:
    """A JavaScript error object (``TypeError``, ``ReferenceError``, ...).

    Implemented as a plain host value rather than a full ``JSObject`` to keep
    the error path allocation-light; scripts can still read ``name`` and
    ``message`` properties through the host-object protocol in the
    interpreter.
    """

    def __init__(self, name: str, message: str):
        self.name = name
        self.message = message

    def __repr__(self) -> str:
        return f"{self.name}: {self.message}"


def type_error(message: str) -> JSThrow:
    """Build a throwable JS ``TypeError``."""
    return JSThrow(JSErrorValue("TypeError", message))


def reference_error(message: str) -> JSThrow:
    """Build a throwable JS ``ReferenceError``.

    This is the error produced by a *function race* victim: invoking a
    function whose declaring script has not been parsed yet (paper,
    Section 2.4).
    """
    return JSThrow(JSErrorValue("ReferenceError", message))


def _describe(value: Any) -> str:
    if isinstance(value, JSErrorValue):
        return repr(value)
    return f"JS exception: {value!r}"


class ScriptCrash:
    """Record of a JavaScript exception that escaped to the browser.

    These are the paper's "hidden crashes": the user never sees them, the
    page keeps running, but state mutated before the crash persists
    (Section 2.3).  ``operation`` is the operation id that was executing;
    ``error`` is the escaped JS value.
    """

    def __init__(self, operation: Optional[int], error: Any, where: str = ""):
        self.operation = operation
        self.error = error
        self.where = where

    @property
    def kind(self) -> str:
        """What failed: the JS error class name (``SyntaxError`` for a
        script that did not parse), ``BudgetExceeded`` for a script that
        ran out of steps, or ``"value"`` for a thrown non-error."""
        error = self.error
        if isinstance(error, JSErrorValue):
            return error.name
        if isinstance(error, JSSyntaxError):
            return "SyntaxError"
        if isinstance(error, BudgetExceeded):
            return "BudgetExceeded"
        return "value"

    def __repr__(self) -> str:
        return f"ScriptCrash(op={self.operation}, error={self.error!r}, where={self.where!r})"
