"""Tests for built-in globals, Math, and string/array methods."""

import math
import random

import pytest

from repro.js import evaluate, JSThrow
from repro.js.builtins import install_builtins
from repro.js.interpreter import Interpreter


def run(source):
    return evaluate(source)


class TestConversionGlobals:
    def test_parse_int_plain(self):
        assert run("parseInt('42')") == 42.0

    def test_parse_int_with_suffix(self):
        assert run("parseInt('42px')") == 42.0

    def test_parse_int_negative(self):
        assert run("parseInt('-7')") == -7.0

    def test_parse_int_radix(self):
        assert run("parseInt('ff', 16)") == 255.0
        assert run("parseInt('0x1A', 16)") == 26.0
        assert run("parseInt('101', 2)") == 5.0

    def test_parse_int_garbage_is_nan(self):
        assert math.isnan(run("parseInt('hello')"))

    def test_parse_float(self):
        assert run("parseFloat('3.25rem')") == 3.25
        assert run("parseFloat('1e2!')") == 100.0
        assert math.isnan(run("parseFloat('x')"))

    def test_is_nan(self):
        assert run("isNaN(0/0)") is True
        assert run("isNaN(5)") is False
        assert run("isNaN('abc')") is True

    def test_is_finite(self):
        assert run("isFinite(1)") is True
        assert run("isFinite(1/0)") is False

    def test_string_number_boolean_constructors(self):
        assert run("String(42)") == "42"
        assert run("Number('3')") == 3.0
        assert run("Boolean('')") is False
        assert run("Boolean('x')") is True

    def test_nan_infinity_globals(self):
        assert math.isnan(run("NaN"))
        assert run("Infinity") == float("inf")


class TestMath:
    def test_floor_ceil_round(self):
        assert run("Math.floor(1.9)") == 1.0
        assert run("Math.ceil(1.1)") == 2.0
        assert run("Math.round(1.5)") == 2.0
        assert run("Math.round(-1.5)") == -1.0  # JS rounds half towards +inf

    def test_abs_sqrt_pow(self):
        assert run("Math.abs(-4)") == 4.0
        assert run("Math.sqrt(9)") == 3.0
        assert math.isnan(run("Math.sqrt(-1)"))
        assert run("Math.pow(2, 10)") == 1024.0

    def test_max_min(self):
        assert run("Math.max(1, 9, 3)") == 9.0
        assert run("Math.min(1, 9, 3)") == 1.0

    def test_pi(self):
        assert abs(run("Math.PI") - math.pi) < 1e-12

    def test_random_is_seeded(self):
        def sample(seed):
            interp = Interpreter()
            install_builtins(interp, rng=random.Random(seed))
            return evaluate("'' + Math.random() + Math.random()", interp)

        assert sample(7) == sample(7)
        assert sample(7) != sample(8)


class TestConstructors:
    def test_array_constructor_from_elements(self):
        assert run("new Array(1, 2, 3).length") == 3.0

    def test_array_constructor_with_size(self):
        assert run("new Array(5).length") == 5.0

    def test_object_constructor(self):
        assert run("var o = new Object(); o.x = 1; o.x") == 1.0

    def test_error_constructor(self):
        assert run("var e = new Error('bad'); e.message") == "bad"

    def test_throw_helper(self):
        with pytest.raises(JSThrow) as exc_info:
            run("__throw('RangeError', 'oops')")
        assert exc_info.value.value.name == "RangeError"


class TestConsole:
    def test_console_log_captured(self):
        interp = Interpreter()
        log = install_builtins(interp)
        evaluate("console.log('a', 1); console.warn('w')", interp)
        assert log == ["a 1", "w"]


class TestStringMethods:
    def test_length(self):
        assert run("'hello'.length") == 5.0

    def test_index_of(self):
        assert run("'hello'.indexOf('ll')") == 2.0
        assert run("'hello'.indexOf('z')") == -1.0
        assert run("'aXaX'.indexOf('X', 2)") == 3.0

    def test_last_index_of(self):
        assert run("'abcabc'.lastIndexOf('b')") == 4.0

    def test_char_at(self):
        assert run("'abc'.charAt(1)") == "b"
        assert run("'abc'.charAt(9)") == ""

    def test_char_code_at(self):
        assert run("'A'.charCodeAt(0)") == 65.0

    def test_substring_swaps_bounds(self):
        assert run("'abcdef'.substring(4, 2)") == "cd"

    def test_substr(self):
        assert run("'abcdef'.substr(2, 3)") == "cde"
        assert run("'abcdef'.substr(-2)") == "ef"

    def test_slice_negative(self):
        assert run("'abcdef'.slice(-3, -1)") == "de"

    def test_split(self):
        assert run("'a,b,c'.split(',').length") == 3.0
        assert run("'abc'.split('').join('-')") == "a-b-c"

    def test_replace_first_only(self):
        assert run("'aaa'.replace('a', 'b')") == "baa"

    def test_case_conversion(self):
        assert run("'MiXeD'.toLowerCase()") == "mixed"
        assert run("'MiXeD'.toUpperCase()") == "MIXED"

    def test_trim(self):
        assert run("'  pad  '.trim()") == "pad"

    def test_concat(self):
        assert run("'a'.concat('b', 'c')") == "abc"

    def test_indexing_into_string(self):
        assert run("'abc'[1]") == "b"


class TestArrayMethods:
    def test_push_pop(self):
        assert run("var a = [1]; a.push(2, 3); a.pop(); a.join(',')") == "1,2"

    def test_shift_unshift(self):
        assert run("var a = [2, 3]; a.unshift(1); a.shift(); a.join('')") == "23"

    def test_join_default_separator(self):
        assert run("[1, 2].join()") == "1,2"

    def test_index_of_strict(self):
        assert run("[1, '1', 2].indexOf('1')") == 1.0
        assert run("[1].indexOf(9)") == -1.0

    def test_slice(self):
        assert run("[1, 2, 3, 4].slice(1, 3).join(',')") == "2,3"
        assert run("[1, 2, 3, 4].slice(-2).join(',')") == "3,4"

    def test_concat(self):
        assert run("[1].concat([2, 3], 4).join(',')") == "1,2,3,4"

    def test_splice_remove(self):
        assert run("var a = [1, 2, 3, 4]; a.splice(1, 2); a.join(',')") == "1,4"

    def test_splice_insert(self):
        assert run("var a = [1, 4]; a.splice(1, 0, 2, 3); a.join(',')") == "1,2,3,4"

    def test_splice_returns_removed(self):
        assert run("[1, 2, 3].splice(0, 2).join(',')") == "1,2"

    def test_for_each(self):
        assert run("var s = 0; [1, 2, 3].forEach(function(x) { s += x; }); s") == 6.0

    def test_map(self):
        assert run("[1, 2, 3].map(function(x) { return x * 2; }).join(',')") == "2,4,6"

    def test_filter(self):
        assert run("[1, 2, 3, 4].filter(function(x) { return x % 2 == 0; }).join(',')") == "2,4"

    def test_number_to_fixed(self):
        assert run("(3.14159).toFixed(2)") == "3.14"
