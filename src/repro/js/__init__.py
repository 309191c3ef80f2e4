"""Mini-JavaScript engine substrate.

A from-scratch lexer, parser, and tree-walking interpreter for the
JavaScript subset exercised by the paper's race examples.  Every shared
memory access (closure cells, globals, object properties) is reported to an
:class:`~repro.js.interpreter.AccessHooks` sink so the browser layer can map
it onto the paper's ``JSVar`` logical locations.

Quick use::

    from repro.js import evaluate
    assert evaluate("1 + 2") == 3.0
"""

from __future__ import annotations

from typing import Any, Optional

from .builtins import install_builtins
from .errors import JSErrorValue, JSSyntaxError, JSThrow, ScriptCrash
from .interpreter import (
    AccessHooks,
    BudgetExceeded,
    Interpreter,
    format_number,
    js_typeof,
    to_boolean,
    to_number,
    to_string,
)
from .lexer import Token, tokenize
from .parser import Parser, parse, parse_expression
from .values import (
    NULL,
    UNDEFINED,
    BoundMethod,
    Cell,
    HostObject,
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    is_callable,
)


def evaluate(source: str, interpreter: Optional[Interpreter] = None) -> Any:
    """Parse and run ``source``; return the value of its last statement.

    A convenience for tests and quick experiments — creates a throwaway
    interpreter with the standard builtins unless one is supplied.
    """
    if interpreter is None:
        interpreter = Interpreter()
        install_builtins(interpreter)
    return interpreter.run(parse(source))


__all__ = [
    "AccessHooks",
    "BoundMethod",
    "BudgetExceeded",
    "Cell",
    "HostObject",
    "Interpreter",
    "JSArray",
    "JSErrorValue",
    "JSFunction",
    "JSObject",
    "JSSyntaxError",
    "JSThrow",
    "NULL",
    "NativeFunction",
    "Parser",
    "ScriptCrash",
    "Token",
    "UNDEFINED",
    "evaluate",
    "format_number",
    "install_builtins",
    "is_callable",
    "js_typeof",
    "parse",
    "parse_expression",
    "to_boolean",
    "to_number",
    "to_string",
    "tokenize",
]
