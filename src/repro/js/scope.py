"""Lexical scopes and hoisting for the mini-JavaScript engine.

JavaScript has *function-level* ``var`` scoping: every ``var`` and every
function declaration anywhere in a function body is hoisted to the top of
that function.  Function declarations are additionally *initialized* at
hoist time — the property the paper's memory model leans on when it treats
``function foo() {...}`` as a write of an anonymous function to a local
variable ``foo`` placed at the beginning of the scope (Section 4.1).  That
initialization order is exactly what makes *function races* (Section 2.4)
possible: a script that has not yet been parsed has not yet performed the
hoisted write, so calling the function from a timer raises a
``ReferenceError``.

Two scope flavours exist:

* :class:`Scope` — ordinary function/catch scopes backed by
  :class:`~repro.js.values.Cell` bindings (closures capture cells).
* :class:`ObjectScope` — the global scope, backed by a ``JSObject`` so that
  global variables and properties of the global object alias each other
  (``x`` and ``window.x`` are the same location).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Set, Tuple

from . import ast
from .values import UNDEFINED, Cell, JSObject


class Scope:
    """A function-level scope holding :class:`Cell` bindings."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.cells = {}

    def declare(self, name: str, value: Any = UNDEFINED) -> Cell:
        """Declare ``name`` in this scope (no-op if already declared).

        Returns the binding cell.  Re-declaring keeps the existing cell and
        value, matching ``var x; var x;`` semantics.
        """
        cell = self.cells.get(name)
        if cell is None:
            cell = Cell(name, value)
            self.cells[name] = cell
        return cell

    def resolve(self, name: str) -> Optional[Cell]:
        """Find the cell binding ``name``, walking outward; None if unbound."""
        scope: Optional[Scope] = self
        while scope is not None:
            if isinstance(scope, ObjectScope):
                return scope.resolve(name)
            cell = scope.cells.get(name)
            if cell is not None:
                return cell
            scope = scope.parent
        return None

    def global_scope(self) -> "ObjectScope":
        """The ObjectScope at the root of the chain."""
        scope: Scope = self
        while scope.parent is not None:
            scope = scope.parent
        if not isinstance(scope, ObjectScope):
            raise RuntimeError("scope chain has no global ObjectScope root")
        return scope


class ObjectScope(Scope):
    """The global scope: bindings live as properties of a ``JSObject``.

    ``resolve`` returns ``None`` here; the interpreter detects the global
    scope and performs an instrumented *property* access on
    :attr:`backing_object` instead, so that global-variable reads/writes and
    explicit ``window.x`` accesses hit the same ``JSVar`` location.
    """

    def __init__(self, backing_object: JSObject):
        super().__init__(parent=None)
        self.backing_object = backing_object

    def declare(self, name: str, value: Any = UNDEFINED) -> Cell:
        """Ensure a global property exists (without clobbering)."""
        if not self.backing_object.has_own(name):
            self.backing_object.set_own(name, value)
        # Return a throwaway cell for interface compatibility; global reads
        # and writes never go through cells.
        return Cell(name, value)

    def resolve(self, name: str) -> Optional[Cell]:
        """Always None: globals go through instrumented property access."""
        return None


def hoisted_declarations(
    body: Iterable[ast.Node],
) -> Tuple[List[str], List[ast.FunctionDeclaration]]:
    """Collect hoisted ``var`` names and function declarations from a body.

    Walks statements recursively but does *not* descend into nested function
    bodies (their declarations hoist to their own scope).  Returns the var
    names in first-appearance order and the function declarations in source
    order (later declarations shadow earlier ones when names collide, as in
    real JavaScript).
    """
    var_names: List[str] = []
    functions: List[ast.FunctionDeclaration] = []
    seen: Set[str] = set()
    for statement in body:
        _walk_hoisted(statement, var_names, seen, functions)
    return var_names, functions


def _note_var(name: str, var_names: List[str], seen: Set[str]) -> None:
    if name not in seen:
        seen.add(name)
        var_names.append(name)


def _walk_hoisted(
    node: Optional[ast.Node],
    var_names: List[str],
    seen: Set[str],
    functions: List[ast.FunctionDeclaration],
) -> None:
    """One statement of :func:`hoisted_declarations`' walk.

    A module-level function, not a closure: a recursive nested function
    is a reference cycle, one per executed body, left for the collector.
    """
    if node is None:
        return
    if isinstance(node, ast.VariableDeclaration):
        for name, _init in node.declarations:
            _note_var(name, var_names, seen)
    elif isinstance(node, ast.FunctionDeclaration):
        functions.append(node)
    elif isinstance(node, ast.BlockStatement):
        for child in node.body:
            _walk_hoisted(child, var_names, seen, functions)
    elif isinstance(node, ast.IfStatement):
        _walk_hoisted(node.consequent, var_names, seen, functions)
        _walk_hoisted(node.alternate, var_names, seen, functions)
    elif isinstance(node, (ast.WhileStatement, ast.DoWhileStatement)):
        _walk_hoisted(node.body, var_names, seen, functions)
    elif isinstance(node, ast.ForStatement):
        _walk_hoisted(node.init, var_names, seen, functions)
        _walk_hoisted(node.body, var_names, seen, functions)
    elif isinstance(node, ast.ForInStatement):
        if node.declares:
            _note_var(node.name, var_names, seen)
        _walk_hoisted(node.body, var_names, seen, functions)
    elif isinstance(node, ast.TryStatement):
        _walk_hoisted(node.block, var_names, seen, functions)
        _walk_hoisted(node.catch_block, var_names, seen, functions)
        _walk_hoisted(node.finally_block, var_names, seen, functions)
    elif isinstance(node, ast.SwitchStatement):
        for case in node.cases:
            for child in case.body:
                _walk_hoisted(child, var_names, seen, functions)
    # Expression statements and leaves declare nothing.
