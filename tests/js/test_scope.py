"""Tests for scopes and hoisting analysis."""

from repro.js.parser import parse
from repro.js.scope import ObjectScope, Scope, hoisted_declarations
from repro.js.values import UNDEFINED, JSObject


def hoist(source):
    program = parse(source)
    return hoisted_declarations(program.body)


class TestHoistedDeclarations:
    def test_top_level_vars(self):
        names, functions = hoist("var a = 1; var b;")
        assert names == ["a", "b"]
        assert functions == []

    def test_vars_inside_blocks_hoisted(self):
        names, _functions = hoist("if (x) { var inIf = 1; } while (y) { var inWhile = 2; }")
        assert names == ["inIf", "inWhile"]

    def test_vars_in_for_heads(self):
        names, _functions = hoist("for (var i = 0; i < 3; i++) {} for (var k in o) {}")
        assert names == ["i", "k"]

    def test_vars_in_try_catch_finally(self):
        names, _functions = hoist(
            "try { var t = 1; } catch (e) { var c = 2; } finally { var f = 3; }"
        )
        assert names == ["t", "c", "f"]

    def test_vars_in_switch(self):
        names, _functions = hoist("switch (x) { case 1: var s = 1; }")
        assert names == ["s"]

    def test_duplicates_collapsed(self):
        names, _functions = hoist("var a; if (x) { var a; } var a = 3;")
        assert names == ["a"]

    def test_function_declarations_collected_in_order(self):
        _names, functions = hoist("function f() {} function g() {}")
        assert [fn.name for fn in functions] == ["f", "g"]

    def test_nested_function_bodies_not_descended(self):
        names, functions = hoist("function outer() { var hidden = 1; function inner() {} }")
        assert names == []
        assert [fn.name for fn in functions] == ["outer"]

    def test_function_expressions_not_hoisted(self):
        names, functions = hoist("var f = function named() {};")
        assert names == ["f"]
        assert functions == []


class TestScopeChain:
    def test_declare_and_resolve(self):
        scope = Scope()
        cell = scope.declare("x", 1.0)
        assert scope.resolve("x") is cell

    def test_redeclare_keeps_cell_and_value(self):
        scope = Scope()
        cell = scope.declare("x", 1.0)
        again = scope.declare("x", 99.0)
        assert again is cell
        assert cell.value == 1.0

    def test_resolution_walks_outward(self):
        outer = Scope()
        cell = outer.declare("x", 1.0)
        inner = Scope(parent=outer)
        assert inner.resolve("x") is cell

    def test_shadowing(self):
        outer = Scope()
        outer.declare("x", 1.0)
        inner = Scope(parent=outer)
        inner_cell = inner.declare("x", 2.0)
        assert inner.resolve("x") is inner_cell

    def test_unbound_is_none(self):
        assert Scope().resolve("nope") is None


class TestObjectScope:
    def test_backed_by_object(self):
        backing = JSObject()
        scope = ObjectScope(backing)
        scope.declare("g", 5.0)
        assert backing.get_own("g") == 5.0

    def test_declare_does_not_clobber(self):
        backing = JSObject()
        backing.set_own("g", 7.0)
        ObjectScope(backing).declare("g", UNDEFINED)
        assert backing.get_own("g") == 7.0

    def test_resolve_returns_none(self):
        """Global accesses go through instrumented property reads, never
        through cells."""
        scope = ObjectScope(JSObject())
        scope.declare("g")
        assert scope.resolve("g") is None

    def test_inner_scope_falls_back_to_global(self):
        backing = JSObject()
        global_scope = ObjectScope(backing)
        inner = Scope(parent=global_scope)
        assert inner.resolve("anything") is None  # routed to the object
        assert inner.global_scope() is global_scope

    def test_global_scope_of_deep_chain(self):
        global_scope = ObjectScope(JSObject())
        a = Scope(parent=global_scope)
        b = Scope(parent=a)
        assert b.global_scope() is global_scope
