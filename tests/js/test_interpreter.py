"""Tests for the JavaScript interpreter semantics."""

import math

import pytest

from repro.js import (
    JSThrow,
    UNDEFINED,
    NULL,
    JSArray,
    evaluate,
)
from repro.js.builtins import install_builtins
from repro.js.interpreter import BudgetExceeded, Interpreter
from repro.js.parser import parse


def run(source):
    return evaluate(source)


class TestArithmeticAndCoercion:
    def test_addition(self):
        assert run("1 + 2") == 3.0

    def test_string_concatenation_with_number(self):
        assert run("'5' + 1") == "51"

    @pytest.mark.parametrize(
        "expression, text",
        [
            ("0.000001", "0.000001"),
            ("5e-7", "5e-7"),
            ("123456789012345680000", "123456789012345680000"),
            ("1e21", "1e+21"),
            ("1.5e300", "1.5e+300"),
            ("-1.23e-18", "-1.23e-18"),
            ("0.1 + 0.2", "0.30000000000000004"),
            ("100.5", "100.5"),
            ("-0", "0"),
            ("9007199254740993", "9007199254740992"),
        ],
    )
    def test_number_to_string_follows_js(self, expression, text):
        """Number::toString: the shortest round-trip digits, laid out in
        fixed notation for exponents -7 < e < 21."""
        assert run(f"'' + ({expression})") == text

    def test_subtraction_coerces(self):
        assert run("'5' - 1") == 4.0

    def test_multiplication_division(self):
        assert run("6 * 7 / 2") == 21.0

    def test_division_by_zero_is_infinity(self):
        assert run("1 / 0") == float("inf")
        assert run("-1 / 0") == float("-inf")

    def test_zero_over_zero_is_nan(self):
        assert math.isnan(run("0 / 0"))

    def test_modulo(self):
        assert run("7 % 3") == 1.0
        assert run("-7 % 3") == -1.0  # JS fmod semantics, not Python's

    def test_unary_minus_and_plus(self):
        assert run("-'3'") == -3.0
        assert run("+'4.5'") == 4.5

    def test_bitwise(self):
        assert run("5 & 3") == 1.0
        assert run("5 | 3") == 7.0
        assert run("5 ^ 3") == 6.0
        assert run("~0") == -1.0
        assert run("1 << 4") == 16.0
        assert run("-8 >> 1") == -4.0
        assert run("-1 >>> 28") == 15.0

    def test_string_comparison(self):
        assert run("'abc' < 'abd'") is True

    def test_nan_comparisons_false(self):
        assert run("(0/0) < 1") is False
        assert run("(0/0) >= 1") is False

    def test_loose_equality(self):
        assert run("1 == '1'") is True
        assert run("null == undefined") is True
        assert run("null == 0") is False
        assert run("true == 1") is True

    def test_strict_equality(self):
        assert run("1 === '1'") is False
        assert run("1 === 1") is True
        assert run("(0/0) === (0/0)") is False

    def test_logical_short_circuit_returns_operand(self):
        assert run("0 || 'fallback'") == "fallback"
        assert run("'first' && 'second'") == "second"
        assert run("0 && explode()") == 0.0
        assert run("1 || explode()") == 1.0

    def test_conditional_expression(self):
        assert run("1 ? 'yes' : 'no'") == "yes"

    def test_typeof(self):
        assert run("typeof 1") == "number"
        assert run("typeof 'x'") == "string"
        assert run("typeof true") == "boolean"
        assert run("typeof undefined") == "undefined"
        assert run("typeof null") == "object"
        assert run("typeof {}") == "object"
        assert run("typeof function(){}") == "function"
        assert run("typeof neverDeclared") == "undefined"


class TestVariablesAndScope:
    def test_global_assignment_and_read(self):
        assert run("x = 10; x + 1") == 11.0

    def test_var_declaration(self):
        assert run("var y = 5; y") == 5.0

    def test_undeclared_read_throws_reference_error(self):
        with pytest.raises(JSThrow) as exc_info:
            run("nope + 1")
        assert exc_info.value.value.name == "ReferenceError"

    def test_var_hoisting_makes_undefined(self):
        # Hoisting declares z (as undefined) before any statement runs, so
        # the early typeof sees "undefined", not a ReferenceError.
        assert run("var before = typeof w; var w = 3; before") == "undefined"

    def test_function_hoisting(self):
        assert run("var r = hoisted(); function hoisted() { return 42; } r") == 42.0

    def test_function_params_are_local(self):
        assert run("x = 1; function f(x) { x = 99; } f(5); x") == 1.0

    def test_closures_capture_cells(self):
        source = """
        function counter() { var n = 0; return function() { n++; return n; }; }
        var c1 = counter(); var c2 = counter();
        c1(); c1(); c2();
        '' + c1() + ',' + c2()
        """
        assert run(source) == "3,2"

    def test_closures_share_one_cell(self):
        source = """
        function pair() {
          var v = 0;
          return { set: function(x) { v = x; }, get: function() { return v; } };
        }
        var p = pair(); p.set(7); p.get()
        """
        assert run(source) == 7.0

    def test_implicit_global_from_function(self):
        assert run("function f() { leak = 123; } f(); leak") == 123.0

    def test_named_function_expression_self_reference(self):
        assert run("var f = function g(n) { return n <= 1 ? 1 : n * g(n - 1); }; f(5)") == 120.0

    def test_arguments_object(self):
        assert run("function f() { return arguments.length; } f(1, 2, 3)") == 3.0
        assert run("function f() { return arguments[1]; } f('a', 'b')") == "b"


class TestControlFlow:
    def test_while_with_break(self):
        assert run("var i = 0; while (true) { i++; if (i > 4) break; } i") == 5.0

    def test_while_with_continue(self):
        source = "var s = 0; for (var i = 0; i < 10; i++) { if (i % 2) continue; s += i; } s"
        assert run(source) == 20.0

    def test_do_while_runs_once(self):
        assert run("var n = 0; do { n++; } while (false); n") == 1.0

    def test_nested_loop_break_inner_only(self):
        source = """
        var hits = 0;
        for (var i = 0; i < 3; i++) {
          for (var j = 0; j < 10; j++) { if (j == 1) break; hits++; }
        }
        hits
        """
        assert run(source) == 3.0

    def test_for_in_iterates_keys(self):
        assert run("var s = ''; for (var k in {a:1, b:2}) s += k; s") == "ab"

    def test_for_in_over_array_gives_indices(self):
        assert run("var s = ''; for (var i in [9, 8]) s += i; s") == "01"

    def test_for_in_over_array_skips_missing_indices(self):
        source = "var a = [1, 2]; a[4] = 5; a.x = 1; a.length = 7; var s = []; for (var k in a) s.push(k); s.join(',')"
        assert run(source) == "0,1,4,x"

    def test_for_in_visits_array_indices_first_ascending(self):
        source = "var s = []; for (var k in {2: 1, x: 1, 1: 1}) s.push(k); s.join(',')"
        assert run(source) == "1,2,x"

    def test_for_in_keeps_non_canonical_integer_keys_in_order(self):
        """Only canonical integer names below 2**32 - 1 are indices;
        "01", "-1" and 4294967295 enumerate in insertion order."""
        source = """
        var o = {b: 1};
        o['01'] = 1; o[10] = 1; o['-1'] = 1; o[4294967295] = 1; o[3] = 1;
        var s = []; for (var k in o) s.push(k); s.join(',')
        """
        assert run(source) == "3,10,b,01,-1,4294967295"

    def test_switch_fallthrough(self):
        source = "var s = ''; switch (1) { case 1: s += 'a'; case 2: s += 'b'; break; case 3: s += 'c'; } s"
        assert run(source) == "ab"

    def test_switch_default_when_no_match(self):
        assert run("var r; switch (9) { case 1: r = 'a'; break; default: r = 'd'; } r") == "d"

    def test_switch_uses_strict_equality(self):
        assert run("var r = 'none'; switch ('1') { case 1: r = 'num'; break; } r") == "none"


class TestExceptions:
    def test_throw_and_catch(self):
        assert run("var r; try { throw 'oops'; } catch (e) { r = e; } r") == "oops"

    def test_finally_runs_on_success(self):
        assert run("var log = ''; try { log += 'a'; } finally { log += 'b'; } log") == "ab"

    def test_finally_runs_on_throw(self):
        source = """
        var log = '';
        try {
          try { throw 1; } finally { log += 'f'; }
        } catch (e) { log += 'c'; }
        log
        """
        assert run(source) == "fc"

    def test_finally_runs_on_return(self):
        source = """
        var r1 = (function () { try { return 'a'; } finally { r2 = 'f'; } })();
        r1 + r2
        """
        assert run(source) == "af"

    def test_finally_runs_on_break_and_continue(self):
        source = """
        var s = '';
        for (var i = 0; i < 2; i++) { try { continue; } finally { s += 'f'; } }
        while (true) { try { break; } finally { s += 'b'; } }
        s
        """
        assert run(source) == "ffb"

    def test_finally_runs_when_catch_returns(self):
        source = """
        var log = '';
        function f() { try { throw 1; } catch (e) { return 'c'; } finally { log += 'f'; } }
        f() + log
        """
        assert run(source) == "cf"

    def test_abrupt_exit_from_finally_replaces_the_pending_one(self):
        source = """
        function f() { try { return 'try'; } finally { return 'finally'; } }
        function g() { try { throw 1; } finally { return 'swallowed'; } }
        var s = '';
        for (var i = 0; i < 3; i++) { try { throw i; } finally { continue; } }
        f() + ',' + g() + ',' + i
        """
        assert run(source) == "finally,swallowed,3"

    def test_uncaught_throw_propagates(self):
        with pytest.raises(JSThrow):
            run("throw 42;")

    def test_catch_scope_does_not_leak(self):
        assert run("try { throw 1; } catch (err) {} typeof err") == "undefined"

    def test_mutations_before_throw_persist(self):
        """The paper's 'hidden crash' semantics: state mutated before a
        crash stays mutated (Section 2.3)."""
        interp = Interpreter()
        install_builtins(interp)
        with pytest.raises(JSThrow):
            evaluate("x = 'mutated'; missingFunction();", interp)
        assert interp.global_object.get_own("x") == "mutated"

    def test_calling_undefined_function_is_reference_error(self):
        with pytest.raises(JSThrow) as exc_info:
            run("doesNotExist()")
        assert exc_info.value.value.name == "ReferenceError"

    def test_calling_non_function_is_type_error(self):
        with pytest.raises(JSThrow) as exc_info:
            run("var x = 5; x()")
        assert exc_info.value.value.name == "TypeError"

    def test_property_of_undefined_is_type_error(self):
        with pytest.raises(JSThrow) as exc_info:
            run("var u; u.prop")
        assert exc_info.value.value.name == "TypeError"

    def test_property_of_null_is_type_error(self):
        with pytest.raises(JSThrow):
            run("null.x")

    @pytest.mark.parametrize(
        "source, message",
        [
            ("var o = null; o.style", "cannot read property 'style' of null"),
            ("var o; o.style", "cannot read property 'style' of undefined"),
            ("var o = null; o.x = 1", "cannot set property 'x' of null"),
            ("var o; o.x = 1", "cannot set property 'x' of undefined"),
        ],
    )
    def test_nullish_receiver_named_by_value(self, source, message):
        """A member read or write on ``null`` names ``null``, not its
        ``typeof`` (``object``), as node does."""
        with pytest.raises(JSThrow) as exc_info:
            run(source)
        assert exc_info.value.value.name == "TypeError"
        assert exc_info.value.value.message == message


class TestObjectsAndArrays:
    def test_object_literal_and_access(self):
        assert run("var o = {a: 1, b: {c: 2}}; o.a + o.b.c") == 3.0

    def test_computed_property_write(self):
        assert run("var o = {}; o['k' + 1] = 9; o.k1") == 9.0

    def test_delete_property(self):
        assert run("var o = {a: 1}; delete o.a; typeof o.a") == "undefined"

    def test_in_operator(self):
        assert run("'a' in {a: 1}") is True
        assert run("'b' in {a: 1}") is False

    def test_array_length_tracks_writes(self):
        assert run("var a = []; a[4] = 'x'; a.length") == 5.0

    def test_array_length_truncation(self):
        assert run("var a = [1, 2, 3]; a.length = 1; typeof a[1]") == "undefined"

    def test_this_in_method_call(self):
        assert run("var o = {v: 7, get: function() { return this.v; }}; o.get()") == 7.0

    def test_new_constructs_instance(self):
        source = """
        function Point(x, y) { this.x = x; this.y = y; }
        var p = new Point(3, 4);
        p.x + p.y
        """
        assert run(source) == 7.0

    def test_prototype_method_lookup(self):
        source = """
        function Animal(name) { this.name = name; }
        Animal.prototype.speak = function() { return this.name + ' speaks'; };
        new Animal('Rex').speak()
        """
        assert run(source) == "Rex speaks"

    def test_instanceof(self):
        source = """
        function A() {}
        function B() {}
        var a = new A();
        '' + (a instanceof A) + ',' + (a instanceof B)
        """
        assert run(source) == "true,false"

    def test_constructor_returning_object_overrides(self):
        assert run("function F() { return {v: 1}; } new F().v") == 1.0

    def test_function_call_and_apply(self):
        assert run("function f(a, b) { return this.x + a + b; } f.call({x: 1}, 2, 3)") == 6.0
        assert run("function f(a, b) { return a * b; } f.apply(null, [6, 7])") == 42.0


class TestUpdateAndCompound:
    def test_postfix_returns_old_value(self):
        assert run("var i = 5; var j = i++; '' + i + j") == "65"

    def test_prefix_returns_new_value(self):
        assert run("var i = 5; var j = ++i; '' + i + j") == "66"

    def test_update_on_property(self):
        assert run("var o = {n: 1}; o.n++; o.n") == 2.0

    def test_compound_assignment_operators(self):
        assert run("var x = 10; x -= 3; x *= 2; x /= 7; x") == 2.0
        assert run("var s = 'a'; s += 'b'; s") == "ab"


class TestBudget:
    def test_infinite_loop_hits_budget(self):
        interp = Interpreter(max_steps=10_000)
        install_builtins(interp)
        with pytest.raises(BudgetExceeded):
            interp.run(parse("while (true) {}"))

    def test_budget_resets_between_runs(self):
        interp = Interpreter(max_steps=10_000)
        install_builtins(interp)
        for _ in range(5):
            interp.run(parse("var t = 0; for (var i = 0; i < 100; i++) t += i;"))

    def test_no_budget_when_disabled(self):
        interp = Interpreter(max_steps=None)
        install_builtins(interp)
        interp.run(parse("var x = 1;"))


class TestSequenceAndMisc:
    def test_sequence_yields_last(self):
        assert run("(1, 2, 3)") == 3.0

    def test_void_yields_undefined(self):
        assert run("void 0") is UNDEFINED

    def test_null_literal(self):
        assert run("null") is NULL

    def test_array_values_roundtrip(self):
        result = run("[1, 'two', true]")
        assert isinstance(result, JSArray)
        assert result.to_list() == [1.0, "two", True]

    def test_object_identity_semantics(self):
        assert run("var a = {}; var b = a; a === b") is True
        assert run("({}) === ({})") is False
