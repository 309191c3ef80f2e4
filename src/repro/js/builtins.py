"""Global built-in functions and objects for the mini-JavaScript engine.

``install_builtins`` populates an interpreter's global object with the
standard library subset that real pages' race-prone code touches:
``parseInt``/``parseFloat``/``isNaN``, the ``Math`` object (with *seeded*
``Math.random`` so whole-browser runs stay reproducible), ``String`` /
``Number`` / ``Boolean`` conversion functions, ``Array`` / ``Object`` /
``Error`` constructors, and a ``console`` whose output is captured in a
Python list rather than printed.

Builtins are registered in
:attr:`~repro.js.interpreter.Interpreter.uninstrumented_globals` — reading
``Math`` is not a shared-memory access in the paper's model, and skipping it
keeps traces focused on application state.
"""

from __future__ import annotations

import math
import random
from typing import Any, List, Optional

from .errors import JSErrorValue, JSThrow
from .interpreter import Interpreter, format_number, to_number, to_string
from .values import UNDEFINED, JSArray, JSObject, NativeFunction


def install_builtins(
    interpreter: Interpreter,
    rng: Optional[random.Random] = None,
    console_log: Optional[List[str]] = None,
) -> List[str]:
    """Install the standard global environment on ``interpreter``.

    Returns the list that captures ``console.log`` output (the passed
    ``console_log`` or a fresh list).
    """
    rng = rng if rng is not None else random.Random(0)
    log: List[str] = console_log if console_log is not None else []
    g = interpreter.global_object

    def define(name: str, value: Any) -> None:
        g.set_own(name, value)
        interpreter.uninstrumented_globals.add(name)

    def native(name: str, fn) -> NativeFunction:
        return NativeFunction(name, fn)

    # -- conversions ---------------------------------------------------
    def js_parse_int(interp, this, args):
        text = to_string(args[0]).strip() if args else ""
        radix = int(to_number(args[1])) if len(args) > 1 and args[1] is not UNDEFINED else 10
        if radix == 0:
            radix = 10
        sign = 1
        if text[:1] in "+-":
            if text[0] == "-":
                sign = -1
            text = text[1:]
        if radix == 16 and text[:2].lower() == "0x":
            text = text[2:]
        digits = ""
        for ch in text:
            try:
                if int(ch, radix) >= 0:
                    digits += ch
            except ValueError:
                break
        if not digits:
            return float("nan")
        return float(sign * int(digits, radix))

    def js_parse_float(interp, this, args):
        text = to_string(args[0]).strip() if args else ""
        matched = ""
        seen_dot = False
        seen_exp = False
        for index, ch in enumerate(text):
            if ch.isdigit():
                matched += ch
            elif ch == "." and not seen_dot and not seen_exp:
                seen_dot = True
                matched += ch
            elif ch in "eE" and not seen_exp and matched and matched[-1].isdigit():
                seen_exp = True
                matched += ch
            elif ch in "+-" and (index == 0 or matched[-1:] in "eE"):
                matched += ch
            else:
                break
        try:
            return float(matched)
        except ValueError:
            return float("nan")

    define("parseInt", native("parseInt", js_parse_int))
    define("parseFloat", native("parseFloat", js_parse_float))
    define(
        "isNaN",
        native("isNaN", lambda i, t, a: to_number(a[0] if a else UNDEFINED) != to_number(a[0] if a else UNDEFINED)),
    )
    define(
        "isFinite",
        native(
            "isFinite",
            lambda i, t, a: math.isfinite(to_number(a[0] if a else UNDEFINED)),
        ),
    )
    define("NaN", float("nan"))
    define("Infinity", float("inf"))

    define(
        "String",
        native("String", lambda i, t, a: to_string(a[0]) if a else ""),
    )
    define(
        "Number",
        native("Number", lambda i, t, a: to_number(a[0]) if a else 0.0),
    )
    define(
        "Boolean",
        native(
            "Boolean",
            lambda i, t, a: bool(a and _truthy(a[0])),
        ),
    )

    # -- Math ----------------------------------------------------------
    math_obj = JSObject()
    math_obj.set_own("PI", math.pi)
    math_obj.set_own("E", math.e)

    def math_fn(name: str, fn) -> None:
        math_obj.set_own(name, native(name, fn))

    math_fn("floor", lambda i, t, a: float(math.floor(to_number(a[0]))) if a else float("nan"))
    math_fn("ceil", lambda i, t, a: float(math.ceil(to_number(a[0]))) if a else float("nan"))
    math_fn("round", lambda i, t, a: float(math.floor(to_number(a[0]) + 0.5)) if a else float("nan"))
    math_fn("abs", lambda i, t, a: abs(to_number(a[0])) if a else float("nan"))
    math_fn("sqrt", lambda i, t, a: _safe_sqrt(to_number(a[0])) if a else float("nan"))
    math_fn("pow", lambda i, t, a: float(to_number(a[0]) ** to_number(a[1])) if len(a) > 1 else float("nan"))
    math_fn("max", lambda i, t, a: max((to_number(x) for x in a), default=float("-inf")))
    math_fn("min", lambda i, t, a: min((to_number(x) for x in a), default=float("inf")))
    math_fn("random", lambda i, t, a: rng.random())
    define("Math", math_obj)

    # -- constructors ---------------------------------------------------
    def js_array(interp, this, args):
        if len(args) == 1 and isinstance(args[0], float):
            array = JSArray()
            array.set_length(int(args[0]))
            return array
        return JSArray(list(args))

    define("Array", native("Array", js_array))
    define("Object", native("Object", lambda i, t, a: JSObject()))

    def js_error(interp, this, args):
        message = to_string(args[0]) if args else ""
        error = JSObject()
        error.set_own("name", "Error")
        error.set_own("message", message)
        return error

    define("Error", native("Error", js_error))

    # -- console ---------------------------------------------------------
    console = JSObject()

    def console_write(interp, this, args):
        log.append(" ".join(to_string(arg) for arg in args))
        return UNDEFINED

    console.set_own("log", native("log", console_write))
    console.set_own("warn", native("warn", console_write))
    console.set_own("error", native("error", console_write))
    define("console", console)

    # -- misc -------------------------------------------------------------
    def js_throw_error(interp, this, args):
        name = to_string(args[0]) if args else "Error"
        message = to_string(args[1]) if len(args) > 1 else ""
        raise JSThrow(JSErrorValue(name, message))

    define("__throw", native("__throw", js_throw_error))
    return log


def _truthy(value: Any) -> bool:
    from .interpreter import to_boolean

    return to_boolean(value)


def _safe_sqrt(number: float) -> float:
    if number < 0:
        return float("nan")
    return math.sqrt(number)


__all__ = ["install_builtins", "format_number"]
