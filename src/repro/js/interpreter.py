"""Tree-walking interpreter for the mini-JavaScript engine.

The interpreter evaluates the AST of :mod:`repro.js.ast` directly.  Its one
unusual feature is *instrumentation*: every read and write of a potentially
shared JavaScript location — a closure cell, a global, or an object
property — is reported to an :class:`AccessHooks` sink.  The browser layer
installs a sink that translates these raw events into the paper's ``JSVar``
logical locations (Section 4.1) and feeds the race detector.

Design notes
------------

* Control flow (``break``/``continue``/``return``) uses private Python
  exception classes; JS exceptions travel as
  :class:`~repro.js.errors.JSThrow`.
* Host objects (DOM nodes, ``window``, XHR, ...) implement the
  :class:`~repro.js.values.HostObject` protocol and instrument themselves;
  the interpreter simply routes member accesses to them.
* A step budget guards against runaway scripts in generated workloads; the
  browser treats budget exhaustion like any other script crash.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from . import ast
from .errors import BudgetExceeded, JSThrow, reference_error, type_error
from .scope import ObjectScope, Scope, hoisted_declarations
from .values import (
    NULL,
    UNDEFINED,
    BoundMethod,
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    HostObject,
    is_callable,
)


class AccessHooks:
    """Instrumentation sink; the default implementation records nothing.

    ``is_call`` marks reads that resolve an identifier in order to invoke
    it; ``is_function_decl`` marks the hoisted write of a function
    declaration; ``writes_function`` marks any write whose value is
    callable.  The race classifier uses these to tell *function races*
    (paper, Section 2.4) apart from plain variable races.
    """

    def var_read(self, cell_id: int, name: str, is_call: bool = False) -> None:
        """A closure/local variable cell was read."""

    def var_write(
        self,
        cell_id: int,
        name: str,
        is_function_decl: bool = False,
        writes_function: bool = False,
    ) -> None:
        """A closure/local variable cell was written."""

    def prop_read(self, object_id: int, name: str, is_call: bool = False) -> None:
        """A property of an ordinary JS object was read."""

    def prop_write(
        self,
        object_id: int,
        name: str,
        is_function_decl: bool = False,
        writes_function: bool = False,
    ) -> None:
        """A property of an ordinary JS object was written."""


NULL_HOOKS = AccessHooks()


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any):
        super().__init__()
        self.value = value


#: The completions that leave a statement early.  A step budget running
#: out (:class:`BudgetExceeded`) ends the script instead, and runs no
#: ``finally`` block.
_ABRUPT = (JSThrow, _Return, _Break, _Continue)


class Interpreter:
    """Evaluates programs and functions against a shared global object.

    Parameters
    ----------
    global_object:
        The ``JSObject`` whose properties are the global variables.
    hooks:
        Instrumentation sink for shared-memory accesses.
    this_value:
        Default ``this`` for top-level code and unbound calls (the browser
        passes its ``window`` host object here).
    max_steps:
        Per-``run`` step budget; ``None`` disables the guard.
    """

    def __init__(
        self,
        global_object: Optional[JSObject] = None,
        hooks: Optional[AccessHooks] = None,
        this_value: Any = None,
        max_steps: Optional[int] = 2_000_000,
    ):
        self.global_object = global_object if global_object is not None else JSObject()
        self.global_scope = ObjectScope(self.global_object)
        self.hooks = hooks if hooks is not None else NULL_HOOKS
        self.this_value = this_value if this_value is not None else self.global_object
        self.max_steps = max_steps
        self._steps = 0
        #: Scope-lookup names that should not be instrumented as global
        #: reads — host-global fallbacks like ``document`` handled by the
        #: browser bindings.  Populated by the bindings layer.
        self.uninstrumented_globals: set = set()

    # ------------------------------------------------------------------
    # public API

    def run(self, program: ast.Program) -> Any:
        """Execute a program in the global scope; returns the last value."""
        self._steps = 0
        return self.execute_body(program.body, self.global_scope, self.this_value)

    def execute_body(self, body: List[ast.Node], scope: Scope, this: Any) -> Any:
        """Hoist declarations into ``scope`` then execute ``body``."""
        self._hoist(body, scope)
        result: Any = UNDEFINED
        for statement in body:
            result = self._exec(statement, scope, this)
        return result

    def call_function(self, fn: Any, this: Any, args: List[Any]) -> Any:
        """Invoke a JS value as a function (used by event dispatch/timers)."""
        return self._invoke(fn, this, args, line=0)

    def reset_budget(self) -> None:
        """Reset the step budget (one budget per script/handler)."""
        self._steps = 0

    # ------------------------------------------------------------------
    # hoisting

    def _hoist(self, body: List[ast.Node], scope: Scope) -> None:
        """Apply `var` and function hoisting to ``scope``.

        Function declarations perform an *instrumented write* of the
        function value at hoist time — the paper's model of function
        declarations as writes to a scope-initial local variable
        (Section 4.1).  This write is what a function race races against.
        """
        var_names, functions = hoisted_declarations(body)
        for name in var_names:
            if isinstance(scope, ObjectScope):
                if not self.global_object.has_own(name):
                    self.global_object.set_own(name, UNDEFINED)
            else:
                scope.declare(name)
        for declaration in functions:
            fn = JSFunction(
                declaration.name, declaration.params, declaration.body, scope
            )
            if not isinstance(scope, ObjectScope):
                scope.declare(declaration.name)
            self._write_variable(scope, declaration.name, fn, is_function_decl=True)

    # ------------------------------------------------------------------
    # statement execution

    def _exec(self, node: ast.Node, scope: Scope, this: Any) -> Any:
        self._tick()
        method = self._STATEMENTS.get(type(node))
        if method is None:
            return self._eval(node, scope, this)
        return method(self, node, scope, this)

    def _exec_expression_statement(
        self, node: ast.ExpressionStatement, scope: Scope, this: Any
    ) -> Any:
        return self._eval(node.expression, scope, this)

    def _exec_var(self, node: ast.VariableDeclaration, scope: Scope, this: Any) -> Any:
        for name, init in node.declarations:
            if init is not None:
                value = self._eval(init, scope, this)
                self._write_variable(scope, name, value)
        return UNDEFINED

    def _exec_function_declaration(
        self, node: ast.FunctionDeclaration, scope: Scope, this: Any
    ) -> Any:
        # Already handled at hoist time.
        return UNDEFINED

    def _exec_block(self, node: ast.BlockStatement, scope: Scope, this: Any) -> Any:
        result: Any = UNDEFINED
        for statement in node.body:
            result = self._exec(statement, scope, this)
        return result

    def _exec_if(self, node: ast.IfStatement, scope: Scope, this: Any) -> Any:
        if to_boolean(self._eval(node.test, scope, this)):
            return self._exec(node.consequent, scope, this)
        if node.alternate is not None:
            return self._exec(node.alternate, scope, this)
        return UNDEFINED

    def _exec_while(self, node: ast.WhileStatement, scope: Scope, this: Any) -> Any:
        while to_boolean(self._eval(node.test, scope, this)):
            try:
                self._exec(node.body, scope, this)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    def _exec_do_while(
        self, node: ast.DoWhileStatement, scope: Scope, this: Any
    ) -> Any:
        while True:
            try:
                self._exec(node.body, scope, this)
            except _Break:
                break
            except _Continue:
                pass
            if not to_boolean(self._eval(node.test, scope, this)):
                break
        return UNDEFINED

    def _exec_for(self, node: ast.ForStatement, scope: Scope, this: Any) -> Any:
        if node.init is not None:
            self._exec(node.init, scope, this)
        while node.test is None or to_boolean(self._eval(node.test, scope, this)):
            try:
                self._exec(node.body, scope, this)
            except _Break:
                break
            except _Continue:
                pass
            if node.update is not None:
                self._eval(node.update, scope, this)
        return UNDEFINED

    def _exec_for_in(self, node: ast.ForInStatement, scope: Scope, this: Any) -> Any:
        obj = self._eval(node.object, scope, this)
        if node.declares and not isinstance(scope, ObjectScope):
            scope.declare(node.name)
        keys: List[str]
        if isinstance(obj, JSObject):
            # An array's elements are its index properties.
            keys = obj.own_keys()
        elif isinstance(obj, HostObject):
            keys = obj.js_keys()
        else:
            keys = []
        for key in keys:
            self._write_variable(scope, node.name, key)
            try:
                self._exec(node.body, scope, this)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    def _exec_return(self, node: ast.ReturnStatement, scope: Scope, this: Any) -> Any:
        value = (
            UNDEFINED
            if node.argument is None
            else self._eval(node.argument, scope, this)
        )
        raise _Return(value)

    def _exec_break(self, node: ast.BreakStatement, scope: Scope, this: Any) -> Any:
        raise _Break()

    def _exec_continue(
        self, node: ast.ContinueStatement, scope: Scope, this: Any
    ) -> Any:
        raise _Continue()

    def _exec_throw(self, node: ast.ThrowStatement, scope: Scope, this: Any) -> Any:
        raise JSThrow(self._eval(node.argument, scope, this))

    def _exec_try(self, node: ast.TryStatement, scope: Scope, this: Any) -> Any:
        try:
            try:
                self._exec(node.block, scope, this)
            except JSThrow as thrown:
                if node.catch_block is None:
                    raise
                catch_scope = Scope(parent=scope)
                catch_scope.declare(node.catch_param, thrown.value)
                self._exec(node.catch_block, catch_scope, this)
        except _ABRUPT:
            # A throw, return, break or continue leaves through the finally
            # block; an abrupt exit from that block replaces it.
            if node.finally_block is not None:
                self._exec(node.finally_block, scope, this)
            raise
        if node.finally_block is not None:
            self._exec(node.finally_block, scope, this)
        return UNDEFINED

    def _exec_switch(self, node: ast.SwitchStatement, scope: Scope, this: Any) -> Any:
        value = self._eval(node.discriminant, scope, this)
        matched = False
        try:
            for case in node.cases:
                if not matched and case.test is not None:
                    if strict_equals(value, self._eval(case.test, scope, this)):
                        matched = True
                if matched:
                    for statement in case.body:
                        self._exec(statement, scope, this)
            if not matched:
                # Fall back to the default clause (and fall through after).
                run = False
                for case in node.cases:
                    if case.test is None:
                        run = True
                    if run:
                        for statement in case.body:
                            self._exec(statement, scope, this)
        except _Break:
            pass
        return UNDEFINED

    def _exec_empty(self, node: ast.EmptyStatement, scope: Scope, this: Any) -> Any:
        return UNDEFINED

    # ------------------------------------------------------------------
    # expression evaluation

    def _eval(self, node: ast.Node, scope: Scope, this: Any) -> Any:
        self._tick()
        method = self._EXPRESSIONS.get(type(node))
        if method is None:
            raise type_error(f"cannot evaluate node {type(node).__name__}")
        return method(self, node, scope, this)

    def _eval_number(self, node: ast.NumberLiteral, scope: Scope, this: Any) -> Any:
        return node.value

    def _eval_string(self, node: ast.StringLiteral, scope: Scope, this: Any) -> Any:
        return node.value

    def _eval_boolean(self, node: ast.BooleanLiteral, scope: Scope, this: Any) -> Any:
        return node.value

    def _eval_null(self, node: ast.NullLiteral, scope: Scope, this: Any) -> Any:
        return NULL

    def _eval_undefined(
        self, node: ast.UndefinedLiteral, scope: Scope, this: Any
    ) -> Any:
        return UNDEFINED

    def _eval_this(self, node: ast.ThisExpression, scope: Scope, this: Any) -> Any:
        return this

    def _eval_identifier(self, node: ast.Identifier, scope: Scope, this: Any) -> Any:
        return self._read_variable(scope, node.name, node.line)

    def _eval_array(self, node: ast.ArrayLiteral, scope: Scope, this: Any) -> Any:
        array = JSArray()
        properties = array.properties
        for index, element in enumerate(node.elements):
            if element is not None:
                properties[str(index)] = self._eval(element, scope, this)
        array.set_length(len(node.elements))
        return array

    def _eval_object(self, node: ast.ObjectLiteral, scope: Scope, this: Any) -> Any:
        obj = JSObject()
        for key, value_node in node.properties:
            obj.set_own(key, self._eval(value_node, scope, this))
        return obj

    def _eval_function_expression(
        self, node: ast.FunctionExpression, scope: Scope, this: Any
    ) -> Any:
        if node.name:
            # Named function expressions bind their own name inside.
            inner = Scope(parent=scope)
            fn = JSFunction(node.name, node.params, node.body, inner)
            inner.declare(node.name, fn)
            return fn
        return JSFunction(None, node.params, node.body, scope)

    def _eval_member(self, node: ast.MemberExpression, scope: Scope, this: Any) -> Any:
        obj = self._eval(node.object, scope, this)
        name = self._member_name(node, scope, this)
        return self.get_member(obj, name, node.line)

    def _eval_call(self, node: ast.CallExpression, scope: Scope, this: Any) -> Any:
        callee = node.callee
        if isinstance(callee, ast.MemberExpression):
            receiver = self._eval(callee.object, scope, this)
            name = self._member_name(callee, scope, this)
            fn = self.get_member(receiver, name, callee.line)
            args = [self._eval(arg, scope, this) for arg in node.arguments]
            return self._invoke(fn, receiver, args, node.line, name=name)
        if isinstance(callee, ast.Identifier):
            fn = self._read_variable(scope, callee.name, callee.line, is_call=True)
            args = [self._eval(arg, scope, this) for arg in node.arguments]
            return self._invoke(fn, self.this_value, args, node.line, name=callee.name)
        fn = self._eval(callee, scope, this)
        args = [self._eval(arg, scope, this) for arg in node.arguments]
        return self._invoke(fn, self.this_value, args, node.line, name=None)

    def _eval_new(self, node: ast.NewExpression, scope: Scope, this: Any) -> Any:
        fn = self._eval(node.callee, scope, this)
        args = [self._eval(arg, scope, this) for arg in node.arguments]
        return self.construct(fn, args, node.line)

    def _eval_unary(self, node: ast.UnaryExpression, scope: Scope, this: Any) -> Any:
        operator = node.operator
        if operator == "typeof":
            return self._typeof_operand(node.operand, scope, this)
        if operator == "delete":
            return self._delete_operand(node.operand, scope, this)
        value = self._eval(node.operand, scope, this)
        if operator == "-":
            return -to_number(value)
        if operator == "+":
            return to_number(value)
        if operator == "!":
            return not to_boolean(value)
        if operator == "~":
            return float(~to_int32(value))
        if operator == "void":
            return UNDEFINED
        raise type_error(f"unknown unary operator {operator!r}")

    def _typeof_operand(self, operand: ast.Node, scope: Scope, this: Any) -> str:
        if isinstance(operand, ast.Identifier):
            # `typeof undeclared` must not throw.
            try:
                value = self._read_variable(scope, operand.name, operand.line)
            except JSThrow:
                return "undefined"
        else:
            value = self._eval(operand, scope, this)
        return js_typeof(value)

    def _delete_operand(self, operand: ast.Node, scope: Scope, this: Any) -> bool:
        if not isinstance(operand, ast.MemberExpression):
            return True
        obj = self._eval(operand.object, scope, this)
        name = self._member_name(operand, scope, this)
        if isinstance(obj, HostObject):
            return obj.js_delete(name)
        if isinstance(obj, JSObject):
            self.hooks.prop_write(obj.object_id, name)
            return obj.delete(name)
        return True

    def _eval_update(self, node: ast.UpdateExpression, scope: Scope, this: Any) -> Any:
        delta = 1.0 if node.operator == "++" else -1.0
        old = to_number(self._read_target(node.operand, scope, this))
        new = old + delta
        self._write_target(node.operand, new, scope, this)
        return new if node.prefix else old

    def _eval_binary(self, node: ast.BinaryExpression, scope: Scope, this: Any) -> Any:
        operator = node.operator
        if operator == "instanceof":
            left = self._eval(node.left, scope, this)
            right = self._eval(node.right, scope, this)
            return self._instanceof(left, right)
        if operator == "in":
            left = self._eval(node.left, scope, this)
            right = self._eval(node.right, scope, this)
            key = to_string(left)
            if isinstance(right, HostObject):
                return right.js_has(key)
            if isinstance(right, JSObject):
                return right.has(key) or _has_builtin_member(right, key)
            raise type_error("'in' requires an object")
        left = self._eval(node.left, scope, this)
        right = self._eval(node.right, scope, this)
        return apply_binary(operator, left, right)

    def _eval_logical(
        self, node: ast.LogicalExpression, scope: Scope, this: Any
    ) -> Any:
        left = self._eval(node.left, scope, this)
        if node.operator == "&&":
            if not to_boolean(left):
                return left
            return self._eval(node.right, scope, this)
        if to_boolean(left):
            return left
        return self._eval(node.right, scope, this)

    def _eval_assignment(
        self, node: ast.AssignmentExpression, scope: Scope, this: Any
    ) -> Any:
        if node.operator == "=":
            value = self._eval(node.value, scope, this)
        else:
            current = self._read_target(node.target, scope, this)
            operand = self._eval(node.value, scope, this)
            value = apply_binary(node.operator[:-1], current, operand)
        self._write_target(node.target, value, scope, this)
        return value

    def _eval_conditional(
        self, node: ast.ConditionalExpression, scope: Scope, this: Any
    ) -> Any:
        if to_boolean(self._eval(node.test, scope, this)):
            return self._eval(node.consequent, scope, this)
        return self._eval(node.alternate, scope, this)

    def _eval_sequence(
        self, node: ast.SequenceExpression, scope: Scope, this: Any
    ) -> Any:
        result: Any = UNDEFINED
        for expression in node.expressions:
            result = self._eval(expression, scope, this)
        return result

    # ------------------------------------------------------------------
    # variables (instrumented)

    def _read_variable(
        self, scope: Scope, name: str, line: int, is_call: bool = False
    ) -> Any:
        cell = scope.resolve(name)
        if cell is not None:
            self.hooks.var_read(cell.cell_id, name, is_call=is_call)
            return cell.value
        # Global lookup: an instrumented property read on the global object.
        if self.global_object.has(name):
            if name not in self.uninstrumented_globals:
                self.hooks.prop_read(
                    self.global_object.object_id, name, is_call=is_call
                )
            return self.global_object.lookup(name)
        if name not in self.uninstrumented_globals:
            # A failed lookup is still a read of the (future) global — the
            # racing access of a function race (Section 2.4).
            self.hooks.prop_read(self.global_object.object_id, name, is_call=is_call)
        raise reference_error(f"{name} is not defined")

    def _write_variable(
        self,
        scope: Scope,
        name: str,
        value: Any,
        is_function_decl: bool = False,
    ) -> None:
        writes_function = is_callable(value)
        cell = scope.resolve(name)
        if cell is not None:
            self.hooks.var_write(
                cell.cell_id,
                name,
                is_function_decl=is_function_decl,
                writes_function=writes_function,
            )
            cell.value = value
            return
        # Undeclared or global: an (instrumented) write on the global object.
        if name not in self.uninstrumented_globals:
            self.hooks.prop_write(
                self.global_object.object_id,
                name,
                is_function_decl=is_function_decl,
                writes_function=writes_function,
            )
        self.global_object.set_own(name, value)

    def _member_name(
        self, node: ast.MemberExpression, scope: Scope, this: Any
    ) -> str:
        if node.computed:
            return to_string(self._eval(node.property, scope, this))
        return node.property.value

    def _read_target(self, target: ast.Node, scope: Scope, this: Any) -> Any:
        if isinstance(target, ast.Identifier):
            try:
                return self._read_variable(scope, target.name, target.line)
            except JSThrow:
                return UNDEFINED
        if isinstance(target, ast.MemberExpression):
            obj = self._eval(target.object, scope, this)
            name = self._member_name(target, scope, this)
            return self.get_member(obj, name, target.line)
        raise type_error("invalid assignment target")

    def _write_target(
        self, target: ast.Node, value: Any, scope: Scope, this: Any
    ) -> None:
        if isinstance(target, ast.Identifier):
            self._write_variable(scope, target.name, value)
            return
        if isinstance(target, ast.MemberExpression):
            obj = self._eval(target.object, scope, this)
            name = self._member_name(target, scope, this)
            self.set_member(obj, name, value, target.line)
            return
        raise type_error("invalid assignment target")

    # ------------------------------------------------------------------
    # member access (instrumented)

    def get_member(self, obj: Any, name: str, line: int = 0) -> Any:
        """Instrumented ``obj[name]`` read covering all receiver kinds."""
        if obj is UNDEFINED or obj is NULL:
            raise type_error(f"cannot read property {name!r} of {to_string(obj)}")
        if isinstance(obj, HostObject):
            return obj.js_get(name, self)
        if isinstance(obj, str):
            return string_member(obj, name)
        if isinstance(obj, JSArray):
            self.hooks.prop_read(obj.object_id, name)
            if name == "length":
                return float(obj.length)
            method = array_member(obj, name)
            if method is not None:
                return method
            return obj.lookup(name)
        if isinstance(obj, JSFunction):
            if name == "prototype":
                if not obj.has_own("prototype"):
                    obj.set_own("prototype", JSObject())
                return obj.get_own("prototype")
            if name in ("call", "apply"):
                return function_member(obj, name)
            self.hooks.prop_read(obj.object_id, name)
            return obj.lookup(name)
        if isinstance(obj, JSObject):
            self.hooks.prop_read(obj.object_id, name)
            return obj.lookup(name)
        if isinstance(obj, bool):
            return UNDEFINED
        if isinstance(obj, float):
            return number_member(obj, name)
        # Fallback for unexpected host values (e.g. JSErrorValue).
        attr = getattr(obj, name, None)
        if attr is not None and not callable(attr):
            return attr
        return UNDEFINED

    def set_member(self, obj: Any, name: str, value: Any, line: int = 0) -> None:
        """Instrumented ``obj[name] = value`` write."""
        if obj is UNDEFINED or obj is NULL:
            raise type_error(f"cannot set property {name!r} of {to_string(obj)}")
        if isinstance(obj, HostObject):
            obj.js_set(name, value, self)
            return
        if isinstance(obj, JSArray):
            self.hooks.prop_write(obj.object_id, name)
            if name == "length":
                obj.set_length(int(to_number(value)))
                return
            obj.set_own(name, value)
            obj.element_updated(name)
            return
        if isinstance(obj, JSObject):
            self.hooks.prop_write(obj.object_id, name)
            obj.set_own(name, value)
            return
        # Writes to primitives silently vanish (non-strict mode).

    # ------------------------------------------------------------------
    # calls

    def _invoke(
        self,
        fn: Any,
        this: Any,
        args: List[Any],
        line: int,
        name: Optional[str] = None,
    ) -> Any:
        label = name or getattr(fn, "name", None) or "expression"
        if isinstance(fn, NativeFunction):
            return fn.fn(self, this, args)
        if isinstance(fn, BoundMethod):
            return fn.fn(self, fn.receiver, args)
        if isinstance(fn, JSFunction):
            return self._call_js_function(fn, this, args)
        raise type_error(f"{label} is not a function")

    def _call_js_function(self, fn: JSFunction, this: Any, args: List[Any]) -> Any:
        scope = Scope(parent=fn.scope)
        for index, param in enumerate(fn.params):
            scope.declare(param, args[index] if index < len(args) else UNDEFINED)
        scope.declare("arguments", JSArray(list(args)))
        try:
            self.execute_body(fn.body, scope, this)
        except _Return as ret:
            return ret.value
        return UNDEFINED

    def construct(self, fn: Any, args: List[Any], line: int = 0) -> Any:
        """Implement ``new fn(...)``."""
        if isinstance(fn, NativeFunction):
            # Native constructors (Date, XMLHttpRequest, ...) build their own
            # instances.
            return fn.fn(self, UNDEFINED, args)
        if not isinstance(fn, JSFunction):
            raise type_error("constructor is not a function")
        if not fn.has_own("prototype"):
            fn.set_own("prototype", JSObject())
        prototype = fn.get_own("prototype")
        instance = JSObject(
            prototype=prototype if isinstance(prototype, JSObject) else None
        )
        result = self._call_js_function(fn, instance, args)
        if isinstance(result, JSObject):
            return result
        return instance

    def _instanceof(self, value: Any, fn: Any) -> bool:
        if not isinstance(fn, JSFunction):
            raise type_error("right-hand side of instanceof is not callable")
        prototype = fn.get_own("prototype")
        if not isinstance(prototype, JSObject):
            return False
        obj = value.prototype if isinstance(value, JSObject) else None
        while obj is not None:
            if obj is prototype:
                return True
            obj = obj.prototype
        return False

    # ------------------------------------------------------------------
    # budget

    def _tick(self) -> None:
        if self.max_steps is None:
            return
        self._steps += 1
        if self._steps > self.max_steps:
            raise BudgetExceeded(f"script exceeded {self.max_steps} steps")

    # Dispatch tables are built after the class body below.
    _STATEMENTS: Dict[type, Callable] = {}
    _EXPRESSIONS: Dict[type, Callable] = {}


Interpreter._STATEMENTS = {
    ast.ExpressionStatement: Interpreter._exec_expression_statement,
    ast.VariableDeclaration: Interpreter._exec_var,
    ast.FunctionDeclaration: Interpreter._exec_function_declaration,
    ast.BlockStatement: Interpreter._exec_block,
    ast.IfStatement: Interpreter._exec_if,
    ast.WhileStatement: Interpreter._exec_while,
    ast.DoWhileStatement: Interpreter._exec_do_while,
    ast.ForStatement: Interpreter._exec_for,
    ast.ForInStatement: Interpreter._exec_for_in,
    ast.ReturnStatement: Interpreter._exec_return,
    ast.BreakStatement: Interpreter._exec_break,
    ast.ContinueStatement: Interpreter._exec_continue,
    ast.ThrowStatement: Interpreter._exec_throw,
    ast.TryStatement: Interpreter._exec_try,
    ast.SwitchStatement: Interpreter._exec_switch,
    ast.EmptyStatement: Interpreter._exec_empty,
}

Interpreter._EXPRESSIONS = {
    ast.NumberLiteral: Interpreter._eval_number,
    ast.StringLiteral: Interpreter._eval_string,
    ast.BooleanLiteral: Interpreter._eval_boolean,
    ast.NullLiteral: Interpreter._eval_null,
    ast.UndefinedLiteral: Interpreter._eval_undefined,
    ast.ThisExpression: Interpreter._eval_this,
    ast.Identifier: Interpreter._eval_identifier,
    ast.ArrayLiteral: Interpreter._eval_array,
    ast.ObjectLiteral: Interpreter._eval_object,
    ast.FunctionExpression: Interpreter._eval_function_expression,
    ast.MemberExpression: Interpreter._eval_member,
    ast.CallExpression: Interpreter._eval_call,
    ast.NewExpression: Interpreter._eval_new,
    ast.UnaryExpression: Interpreter._eval_unary,
    ast.UpdateExpression: Interpreter._eval_update,
    ast.BinaryExpression: Interpreter._eval_binary,
    ast.LogicalExpression: Interpreter._eval_logical,
    ast.AssignmentExpression: Interpreter._eval_assignment,
    ast.ConditionalExpression: Interpreter._eval_conditional,
    ast.SequenceExpression: Interpreter._eval_sequence,
}


# ----------------------------------------------------------------------
# conversions & operators


def js_typeof(value: Any) -> str:
    """The ``typeof`` operator."""
    if value is UNDEFINED:
        return "undefined"
    if value is NULL:
        return "object"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if is_callable(value):
        return "function"
    return "object"


def to_boolean(value: Any) -> bool:
    """JS ToBoolean."""
    if isinstance(value, bool):
        return value
    if value is UNDEFINED or value is NULL:
        return False
    if isinstance(value, float):
        return value != 0.0 and value == value  # NaN is falsy
    if isinstance(value, str):
        return len(value) > 0
    return True


def to_number(value: Any) -> float:
    """JS ToNumber."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if value is UNDEFINED:
        return float("nan")
    if value is NULL:
        return 0.0
    if isinstance(value, str):
        text = value.strip()
        if not text:
            return 0.0
        try:
            if text.startswith(("0x", "0X")):
                return float(int(text, 16))
            return float(text)
        except ValueError:
            return float("nan")
    if isinstance(value, JSArray):
        if value.length == 0:
            return 0.0
        if value.length == 1:
            return to_number(value.properties.get("0", UNDEFINED))
        return float("nan")
    return float("nan")


def to_int32(value: Any) -> int:
    """JS ToInt32 (for bitwise operators)."""
    number = to_number(value)
    if number != number or number in (float("inf"), float("-inf")):
        return 0
    result = int(number) & 0xFFFFFFFF
    if result >= 0x80000000:
        result -= 0x100000000
    return result


def to_string(value: Any) -> str:
    """JS ToString."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    if value is UNDEFINED:
        return "undefined"
    if value is NULL:
        return "null"
    if isinstance(value, JSArray):
        return ",".join(
            "" if (v is UNDEFINED or v is NULL) else to_string(v)
            for v in value.to_list()
        )
    if isinstance(value, (JSFunction, NativeFunction, BoundMethod)):
        name = getattr(value, "name", "") or "anonymous"
        return f"function {name}() {{ [code] }}"
    if isinstance(value, JSObject):
        return "[object Object]"
    return str(value)


def format_number(number: float) -> str:
    """Format a float the way JavaScript prints numbers (Number::toString):
    ``42`` not ``42.0``, ``0.000001`` and ``5e-7`` not ``1e-06`` and
    ``5e-07``, and ``123456789012345680000`` for ``1.2345678901234568e20``.
    """
    if number != number:
        return "NaN"
    if number == float("inf"):
        return "Infinity"
    if number == float("-inf"):
        return "-Infinity"
    if -_EXACT_INTEGERS < number < _EXACT_INTEGERS and number == int(number):
        # Every integer below 2**53 is a double; its shortest round-trip
        # digits are its own (-0 prints as 0).
        return str(int(number))
    if number < 0:
        return "-" + format_number(-number)
    # repr gives the shortest digits that read back as ``number``: the
    # value is 0.<digits> * 10**point.
    mantissa, _e, exponent = repr(number).partition("e")
    whole, _dot, fraction = mantissa.partition(".")
    digits = whole + fraction
    significant = digits.lstrip("0")
    point = len(whole) + int(exponent or 0) - (len(digits) - len(significant))
    digits = significant.rstrip("0")
    if len(digits) <= point <= 21:
        return digits + "0" * (point - len(digits))
    if 0 < point <= 21:
        return digits[:point] + "." + digits[point:]
    if -6 < point <= 0:
        return "0." + "0" * -point + digits
    mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    return f"{mantissa}e{'+' if point > 0 else '-'}{abs(point - 1)}"


#: Integers of smaller magnitude are exact doubles (2**53).
_EXACT_INTEGERS = 9007199254740992.0


def strict_equals(left: Any, right: Any) -> bool:
    """The ``===`` operator."""
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if isinstance(left, float) and isinstance(right, float):
        return left == right  # NaN !== NaN falls out naturally
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    return left is right


def loose_equals(left: Any, right: Any) -> bool:
    """The ``==`` operator with its coercion ladder."""
    if (left is UNDEFINED or left is NULL) and (right is UNDEFINED or right is NULL):
        return True
    if left is UNDEFINED or left is NULL or right is UNDEFINED or right is NULL:
        return False
    if isinstance(left, bool):
        return loose_equals(to_number(left), right)
    if isinstance(right, bool):
        return loose_equals(left, to_number(right))
    if isinstance(left, float) and isinstance(right, str):
        return left == to_number(right)
    if isinstance(left, str) and isinstance(right, float):
        return to_number(left) == right
    if isinstance(left, (float, str)) and isinstance(right, JSObject):
        return loose_equals(left, to_primitive(right))
    if isinstance(left, JSObject) and isinstance(right, (float, str)):
        return loose_equals(to_primitive(left), right)
    return strict_equals(left, right)


def to_primitive(value: Any) -> Any:
    """JS ToPrimitive (string-preferring, simplified)."""
    if isinstance(value, JSObject):
        return to_string(value)
    return value


def apply_binary(operator: str, left: Any, right: Any) -> Any:
    """Evaluate a (non-short-circuit) binary operator."""
    if operator == "+":
        left_p = to_primitive(left)
        right_p = to_primitive(right)
        if isinstance(left_p, str) or isinstance(right_p, str):
            return to_string(left_p) + to_string(right_p)
        return to_number(left_p) + to_number(right_p)
    if operator == "-":
        return to_number(left) - to_number(right)
    if operator == "*":
        return to_number(left) * to_number(right)
    if operator == "/":
        denominator = to_number(right)
        numerator = to_number(left)
        if denominator == 0.0:
            if numerator != numerator or numerator == 0.0:
                return float("nan")
            return float("inf") if numerator > 0 else float("-inf")
        return numerator / denominator
    if operator == "%":
        denominator = to_number(right)
        numerator = to_number(left)
        if (
            denominator == 0.0
            or numerator != numerator
            or denominator != denominator
            or numerator in (float("inf"), float("-inf"))
        ):
            return float("nan")
        import math

        return math.fmod(numerator, denominator)
    if operator in ("<", ">", "<=", ">="):
        left_p = to_primitive(left)
        right_p = to_primitive(right)
        if isinstance(left_p, str) and isinstance(right_p, str):
            pair = (left_p, right_p)
        else:
            pair = (to_number(left_p), to_number(right_p))
            if pair[0] != pair[0] or pair[1] != pair[1]:
                return False
        if operator == "<":
            return pair[0] < pair[1]
        if operator == ">":
            return pair[0] > pair[1]
        if operator == "<=":
            return pair[0] <= pair[1]
        return pair[0] >= pair[1]
    if operator == "==":
        return loose_equals(left, right)
    if operator == "!=":
        return not loose_equals(left, right)
    if operator == "===":
        return strict_equals(left, right)
    if operator == "!==":
        return not strict_equals(left, right)
    if operator == "&":
        return float(to_int32(left) & to_int32(right))
    if operator == "|":
        return float(to_int32(left) | to_int32(right))
    if operator == "^":
        return float(to_int32(left) ^ to_int32(right))
    if operator == "<<":
        return float(to_int32(to_int32(left) << (to_int32(right) & 31)))
    if operator == ">>":
        return float(to_int32(left) >> (to_int32(right) & 31))
    if operator == ">>>":
        return float((to_int32(left) & 0xFFFFFFFF) >> (to_int32(right) & 31))
    raise type_error(f"unknown binary operator {operator!r}")


# ----------------------------------------------------------------------
# primitive members (string/number/array/function methods)


def string_member(text: str, name: str) -> Any:
    """Property access on a string primitive."""
    if name == "length":
        return float(len(text))
    if name.isdigit():
        index = int(name)
        return text[index] if index < len(text) else UNDEFINED
    method = _STRING_METHODS.get(name)
    if method is None:
        return UNDEFINED
    return BoundMethod(name, text, method)


def _string_index_of(interp, text, args):
    needle = to_string(args[0]) if args else "undefined"
    start = int(to_number(args[1])) if len(args) > 1 else 0
    return float(text.find(needle, max(start, 0)))


def _string_last_index_of(interp, text, args):
    needle = to_string(args[0]) if args else "undefined"
    return float(text.rfind(needle))


def _string_char_at(interp, text, args):
    index = int(to_number(args[0])) if args else 0
    return text[index] if 0 <= index < len(text) else ""


def _string_char_code_at(interp, text, args):
    index = int(to_number(args[0])) if args else 0
    return float(ord(text[index])) if 0 <= index < len(text) else float("nan")


def _string_substring(interp, text, args):
    start = int(to_number(args[0])) if args else 0
    end = int(to_number(args[1])) if len(args) > 1 else len(text)
    start = min(max(start, 0), len(text))
    end = min(max(end, 0), len(text))
    if start > end:
        start, end = end, start
    return text[start:end]


def _string_substr(interp, text, args):
    start = int(to_number(args[0])) if args else 0
    if start < 0:
        start = max(len(text) + start, 0)
    count = int(to_number(args[1])) if len(args) > 1 else len(text) - start
    return text[start : start + max(count, 0)]


def _string_slice(interp, text, args):
    start = int(to_number(args[0])) if args else 0
    end = int(to_number(args[1])) if len(args) > 1 else len(text)
    return text[slice(*_normalize_slice(start, end, len(text)))]


def _normalize_slice(start: int, end: int, length: int):
    if start < 0:
        start = max(length + start, 0)
    if end < 0:
        end = max(length + end, 0)
    return min(start, length), min(end, length)


def _string_split(interp, text, args):
    if not args or args[0] is UNDEFINED:
        return JSArray([text])
    separator = to_string(args[0])
    if separator == "":
        return JSArray(list(text))
    return JSArray(text.split(separator))


def _string_replace(interp, text, args):
    if len(args) < 2:
        return text
    pattern = to_string(args[0])
    replacement = to_string(args[1])
    return text.replace(pattern, replacement, 1)


def _string_to_lower(interp, text, args):
    return text.lower()


def _string_to_upper(interp, text, args):
    return text.upper()


def _string_trim(interp, text, args):
    return text.strip()


def _string_concat(interp, text, args):
    return text + "".join(to_string(arg) for arg in args)


_STRING_METHODS = {
    "indexOf": _string_index_of,
    "lastIndexOf": _string_last_index_of,
    "charAt": _string_char_at,
    "charCodeAt": _string_char_code_at,
    "substring": _string_substring,
    "substr": _string_substr,
    "slice": _string_slice,
    "split": _string_split,
    "replace": _string_replace,
    "toLowerCase": _string_to_lower,
    "toUpperCase": _string_to_upper,
    "trim": _string_trim,
    "concat": _string_concat,
}


def number_member(number: float, name: str) -> Any:
    """Property access on a number primitive."""
    if name == "toFixed":
        def to_fixed(interp, receiver, args):
            digits = int(to_number(args[0])) if args else 0
            return f"{receiver:.{digits}f}"

        return BoundMethod(name, number, to_fixed)
    if name == "toString":
        return BoundMethod(
            name, number, lambda interp, receiver, args: format_number(receiver)
        )
    return UNDEFINED


def array_member(array: JSArray, name: str) -> Any:
    """Array method lookup; None when not a method."""
    method = _ARRAY_METHODS.get(name)
    if method is None:
        return None
    return BoundMethod(name, array, method)


def _array_push(interp, array, args):
    for arg in args:
        interp.hooks.prop_write(array.object_id, str(array.length))
        array.push(arg)
    return float(array.length)


def _array_pop(interp, array, args):
    if array.length:
        interp.hooks.prop_write(array.object_id, str(array.length - 1))
    return array.pop()


def _array_shift(interp, array, args):
    items = array.to_list()
    if not items:
        return UNDEFINED
    first = items[0]
    rest = items[1:]
    array.set_length(0)
    for item in rest:
        array.push(item)
    interp.hooks.prop_write(array.object_id, "0")
    return first


def _array_unshift(interp, array, args):
    items = list(args) + array.to_list()
    array.set_length(0)
    for item in items:
        array.push(item)
    interp.hooks.prop_write(array.object_id, "0")
    return float(array.length)


def _array_join(interp, array, args):
    separator = to_string(args[0]) if args else ","
    return separator.join(
        "" if (v is UNDEFINED or v is NULL) else to_string(v)
        for v in array.to_list()
    )


def _array_index_of(interp, array, args):
    needle = args[0] if args else UNDEFINED
    for index, item in enumerate(array.to_list()):
        if strict_equals(item, needle):
            return float(index)
    return -1.0


def _array_slice(interp, array, args):
    items = array.to_list()
    start = int(to_number(args[0])) if args else 0
    end = int(to_number(args[1])) if len(args) > 1 else len(items)
    bounds = _normalize_slice(start, end, len(items))
    return JSArray(items[slice(*bounds)])


def _array_concat(interp, array, args):
    items = array.to_list()
    for arg in args:
        if isinstance(arg, JSArray):
            items.extend(arg.to_list())
        else:
            items.append(arg)
    return JSArray(items)


def _array_splice(interp, array, args):
    items = array.to_list()
    start = int(to_number(args[0])) if args else 0
    if start < 0:
        start = max(len(items) + start, 0)
    start = min(start, len(items))
    delete_count = (
        int(to_number(args[1])) if len(args) > 1 else len(items) - start
    )
    delete_count = max(0, min(delete_count, len(items) - start))
    removed = items[start : start + delete_count]
    new_items = items[:start] + list(args[2:]) + items[start + delete_count :]
    array.set_length(0)
    for item in new_items:
        array.push(item)
    interp.hooks.prop_write(array.object_id, "length")
    return JSArray(removed)


def _array_for_each(interp, array, args):
    callback = args[0] if args else UNDEFINED
    for index, item in enumerate(array.to_list()):
        interp.call_function(callback, interp.this_value, [item, float(index), array])
    return UNDEFINED


def _array_map(interp, array, args):
    callback = args[0] if args else UNDEFINED
    result = []
    for index, item in enumerate(array.to_list()):
        result.append(
            interp.call_function(
                callback, interp.this_value, [item, float(index), array]
            )
        )
    return JSArray(result)


def _array_filter(interp, array, args):
    callback = args[0] if args else UNDEFINED
    result = []
    for index, item in enumerate(array.to_list()):
        keep = interp.call_function(
            callback, interp.this_value, [item, float(index), array]
        )
        if to_boolean(keep):
            result.append(item)
    return JSArray(result)


_ARRAY_METHODS = {
    "push": _array_push,
    "pop": _array_pop,
    "shift": _array_shift,
    "unshift": _array_unshift,
    "join": _array_join,
    "indexOf": _array_index_of,
    "slice": _array_slice,
    "concat": _array_concat,
    "splice": _array_splice,
    "forEach": _array_for_each,
    "map": _array_map,
    "filter": _array_filter,
}


def _has_builtin_member(obj: JSObject, name: str) -> bool:
    """Does :meth:`Interpreter.get_member` serve ``name`` on ``obj``
    without a stored property?  An array's ``length`` and methods, and a
    function's ``prototype`` (made on first read), ``call`` and ``apply``."""
    if isinstance(obj, JSArray):
        return name == "length" or name in _ARRAY_METHODS
    if isinstance(obj, JSFunction):
        return name in ("prototype", "call", "apply")
    return False


def function_member(fn: JSFunction, name: str) -> Any:
    """call/apply on function values."""
    if name == "call":
        def call_impl(interp, receiver, args):
            this = args[0] if args else UNDEFINED
            return interp.call_function(receiver, this, list(args[1:]))

        return BoundMethod("call", fn, call_impl)

    def apply_impl(interp, receiver, args):
        this = args[0] if args else UNDEFINED
        arg_list: List[Any] = []
        if len(args) > 1 and isinstance(args[1], JSArray):
            arg_list = args[1].to_list()
        return interp.call_function(receiver, this, arg_list)

    return BoundMethod("apply", fn, apply_impl)
