"""Runtime values for the mini-JavaScript engine.

The value universe is deliberately small and explicit:

* numbers are Python ``float``, strings Python ``str``, booleans ``bool``;
* ``undefined`` / ``null`` are the singletons :data:`UNDEFINED` / :data:`NULL`;
* objects are :class:`JSObject` (arrays are :class:`JSArray`);
* functions are :class:`JSFunction` (script-defined) or
  :class:`NativeFunction` (host-provided);
* browser objects (DOM nodes, ``window``, timers, XHR) are *host objects*
  implementing the :class:`HostObject` protocol so they can route property
  accesses through the paper's logical-memory instrumentation.

Every :class:`JSObject` carries a unique ``object_id``.  Together with a
property name it forms the ``JSVar`` logical location of the paper's memory
model (Section 4.1): the "concrete runtime memory address" of an object
property.  Closure cells likewise carry unique ``cell_id``s for shared local
variables.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

_object_ids = itertools.count(1)
_cell_ids = itertools.count(1)


def next_object_id() -> int:
    """Allocate a fresh object identity (unique within the process)."""
    return next(_object_ids)


def next_cell_id() -> int:
    """Allocate a fresh variable-cell identity (unique within the process)."""
    return next(_cell_ids)


def reset_value_ids() -> None:
    """Restart object/cell allocation at 1 (a fresh page's id space).

    Called per :class:`~repro.browser.page.Browser` so a page's allocation
    ids depend only on the page and its seed — never on how many pages the
    process ran before it.  That is what lets sharded corpus workers
    reproduce a sequential run's ids exactly.
    """
    global _object_ids, _cell_ids
    _object_ids = itertools.count(1)
    _cell_ids = itertools.count(1)


class _Undefined:
    """The ``undefined`` value.  A singleton; compare with ``is``."""

    _instance: Optional["_Undefined"] = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False


class _Null:
    """The ``null`` value.  A singleton; compare with ``is``."""

    _instance: Optional["_Null"] = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "null"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()
NULL = _Null()


class JSObject:
    """A plain JavaScript object: a property map plus optional prototype.

    Property reads walk the prototype chain; writes always land on the
    receiver (own property), matching JavaScript assignment semantics.
    """

    def __init__(self, prototype: Optional["JSObject"] = None):
        self.object_id = next_object_id()
        self.properties: Dict[str, Any] = {}
        self.prototype = prototype

    # The interpreter performs gets/sets itself so it can instrument them;
    # these helpers implement the raw (un-instrumented) semantics.

    def get_own(self, name: str) -> Any:
        """Own property value, or undefined."""
        return self.properties.get(name, UNDEFINED)

    def has_own(self, name: str) -> bool:
        """Own-property check."""
        return name in self.properties

    def lookup(self, name: str) -> Any:
        """Prototype-chain lookup; ``undefined`` when absent everywhere."""
        obj: Optional[JSObject] = self
        while obj is not None:
            if name in obj.properties:
                return obj.properties[name]
            obj = obj.prototype
        return UNDEFINED

    def has(self, name: str) -> bool:
        """Prototype-chain property check."""
        obj: Optional[JSObject] = self
        while obj is not None:
            if name in obj.properties:
                return True
            obj = obj.prototype
        return False

    def set_own(self, name: str, value: Any) -> None:
        """Write an own property."""
        self.properties[name] = value

    def delete(self, name: str) -> bool:
        """Delete an own property; False if absent."""
        if name in self.properties:
            del self.properties[name]
            return True
        return False

    def own_keys(self) -> List[str]:
        """Own property names in JS enumeration order: array indices
        ascending, then the other names in insertion order."""
        indices = [name for name in self.properties if _is_array_index(name)]
        if not indices:
            return list(self.properties)
        indices.sort(key=int)
        return indices + [
            name for name in self.properties if not _is_array_index(name)
        ]

    def __repr__(self) -> str:
        return f"JSObject#{self.object_id}({len(self.properties)} props)"


class JSArray(JSObject):
    """A JavaScript array.

    Elements are stored as numeric-string properties plus a live ``length``,
    so element accesses flow through the same instrumented property path as
    any other ``JSVar`` access — exactly the paper's treatment of "array
    element" locations (Section 4.1).
    """

    def __init__(self, elements: Optional[List[Any]] = None):
        super().__init__()
        self._length = 0
        if elements:
            for element in elements:
                self.push(element)

    @property
    def length(self) -> int:
        """Current array length."""
        return self._length

    def set_length(self, new_length: int) -> None:
        """Assign length (truncates element slots when shrinking)."""
        new_length = int(new_length)
        if new_length < self._length:
            for index in range(new_length, self._length):
                self.properties.pop(str(index), None)
        self._length = new_length

    def push(self, value: Any) -> int:
        """Append; returns the new length."""
        self.properties[str(self._length)] = value
        self._length += 1
        return self._length

    def pop(self) -> Any:
        """Remove and return the last element (undefined when empty)."""
        if self._length == 0:
            return UNDEFINED
        self._length -= 1
        return self.properties.pop(str(self._length), UNDEFINED)

    def element_updated(self, name: str) -> None:
        """Grow ``length`` after a write to a numeric index property."""
        if name.isdigit():
            index = int(name)
            if index >= self._length:
                self._length = index + 1

    def to_list(self) -> List[Any]:
        """Elements as a Python list (holes become undefined)."""
        return [self.properties.get(str(i), UNDEFINED) for i in range(self._length)]

    def __repr__(self) -> str:
        return f"JSArray#{self.object_id}(len={self._length})"


class JSFunction(JSObject):
    """A script-defined function: parameters, body, and captured scope."""

    def __init__(self, name: Optional[str], params: List[str], body: list, scope):
        super().__init__()
        self.name = name or ""
        self.params = params
        self.body = body
        self.scope = scope

    def own_keys(self) -> List[str]:
        """Own property names without ``prototype``, which a function
        holds as a non-enumerable property (stored on first read)."""
        return [name for name in super().own_keys() if name != "prototype"]

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return f"JSFunction#{self.object_id}({label})"


class NativeFunction(JSObject):
    """A host (Python) function exposed to scripts.

    ``fn`` receives ``(interpreter, this, args)`` and returns a JS value.
    """

    def __init__(self, name: str, fn: Callable):
        super().__init__()
        self.name = name
        self.fn = fn

    def __repr__(self) -> str:
        return f"NativeFunction({self.name})"


class BoundMethod(JSObject):
    """A native function pre-bound to a receiver (``element.focus`` etc.)."""

    def __init__(self, name: str, receiver: Any, fn: Callable):
        super().__init__()
        self.name = name
        self.receiver = receiver
        self.fn = fn

    def __repr__(self) -> str:
        return f"BoundMethod({self.name})"


class HostObject:
    """Protocol base for browser-provided objects (DOM nodes, window, ...).

    Host objects control their own property semantics and are responsible
    for emitting the paper's *logical* memory accesses (``HElem``, ``Eloc``,
    DOM-attribute ``JSVar`` writes) from inside :meth:`js_get` /
    :meth:`js_set`.  The interpreter routes ``obj.prop`` reads and writes
    here whenever ``obj`` is a :class:`HostObject`.
    """

    def js_get(self, name: str, interpreter) -> Any:
        """Host-controlled property read."""
        raise NotImplementedError

    def js_set(self, name: str, value: Any, interpreter) -> None:
        """Host-controlled property write."""
        raise NotImplementedError

    def js_has(self, name: str) -> bool:
        """`in` support."""
        return False

    def js_delete(self, name: str) -> bool:
        """`delete` support."""
        return False

    def js_keys(self) -> List[str]:
        """Keys for for-in enumeration."""
        return []


def _is_array_index(name: str) -> bool:
    """Is ``name`` the canonical text of an integer below 2**32 - 1?"""
    return (
        name.isascii()
        and name.isdigit()
        and (name == "0" or name[0] != "0")
        and int(name) < 4294967295
    )


def is_callable(value: Any) -> bool:
    """True when ``value`` can be invoked as a function."""
    return isinstance(value, (JSFunction, NativeFunction, BoundMethod))


class Cell:
    """A mutable variable binding with a stable identity.

    Closures capture cells, so two operations touching the same captured
    local variable touch the same ``cell_id`` — the paper's "local variables
    shared between operations via a closure" case (Section 4.1).
    """

    __slots__ = ("cell_id", "name", "value")

    def __init__(self, name: str, value: Any = UNDEFINED):
        self.cell_id = next_cell_id()
        self.name = name
        self.value = value

    def __repr__(self) -> str:
        return f"Cell#{self.cell_id}({self.name}={self.value!r})"
