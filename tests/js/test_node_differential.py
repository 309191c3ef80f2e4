"""The interpreter against a real JavaScript engine.

DESIGN §2 rests the JS substitution on one claim: an interpreter that
performs the same logical reads and writes, with JS scoping and hoisting,
exposes the same races.  This test checks the semantics under that claim
against node.  Every program runs under :class:`Interpreter` and, all in
one ``node`` process, in a fresh ``vm`` context; both print with
``console.log``, each argument as ``String(value)`` joined by spaces, and
must print the same lines.  An uncaught throw prints ``uncaught`` and the
error's name.  Skipped where ``node`` is not installed; CI runs this file
in its own step, which fails if it was skipped.
"""

import json
import random
import shutil
import subprocess

import pytest

from repro.js.builtins import install_builtins
from repro.js.errors import JSErrorValue, JSThrow
from repro.js.interpreter import Interpreter, to_string
from repro.js.parser import parse
from repro.js.values import JSObject

from .test_fuzz import EXPRESSION_LEAVES, EXPRESSION_OPERATORS

NODE = shutil.which("node")
pytestmark = pytest.mark.skipif(NODE is None, reason="node is not installed")

PROGRAMS = {
    "finally after return": """
        var r1 = (function () { try { return 'a'; } finally { r2 = 'f'; } })();
        console.log(r1, r2);
    """,
    "finally after break and continue": """
        var s = '';
        for (var i = 0; i < 2; i++) { try { continue; } finally { s += 'f'; } }
        while (true) { try { break; } finally { s += 'b'; } }
        do { try { s += 'd'; break; } finally { s += '!'; } } while (true);
        console.log(s);
    """,
    "finally after catch": """
        var log = [];
        function f() {
          try { throw new Error('x'); }
          catch (e) { log.push('c'); return 'r'; }
          finally { log.push('f'); }
        }
        console.log(f(), log.join(''));
    """,
    "abrupt exit from finally replaces the pending one": """
        function f() { try { return 'try'; } finally { return 'finally'; } }
        function g() { try { throw 1; } finally { return 'swallowed'; } }
        var n = 0;
        for (var i = 0; i < 3; i++) { try { throw i; } finally { n++; continue; } }
        console.log(f(), g(), n, i);
    """,
    "nested finally blocks unwind in order": """
        var s = '';
        function f() {
          try { try { return 'x'; } finally { s += 'inner'; } }
          finally { s += ',outer'; }
        }
        console.log(f(), s);
    """,
    "for-in key order": """
        var keys = [];
        for (var k in {2: 1, x: 1, 1: 1}) keys.push(k);
        var o = {b: 1};
        o['01'] = 1; o[10] = 1; o['-1'] = 1; o[4294967295] = 1; o[3] = 1;
        for (var k2 in o) keys.push(k2);
        console.log(keys.join(','));
    """,
    "for-in over arrays and break": """
        var s = '';
        for (var i in [7, 8, 9]) { if (i == 2) break; s += i; }
        var a = [1, 2];
        a[4] = 5; a.x = 1; a.length = 7;
        var keys = [];
        for (var k in a) keys.push(k);
        console.log(s, keys.join(','), a.length);
    """,
    "array elisions leave holes": """
        var a = [1, , 2], b = [,], c = [1, , ];
        var keys = [];
        for (var k in a) keys.push(k);
        for (var k2 in b) keys.push('b' + k2);
        for (var k3 in c) keys.push('c' + k3);
        console.log(1 in a, 0 in a, 2 in a, 0 in b, 0 in c, 1 in c, keys.join(','));
        console.log(a.length, b.length, c.length, a[1], b[0], c[1]);
        console.log(a.join('-'), b.join('-'), c.join('-'), [, 'x'].join('-'));
    """,
    "in sees the built-in members that reads see": """
        var a = [1];
        function f() {}
        function g() {}
        console.log('length' in a, 'push' in a, 'join' in a, 'call' in a, 'x' in a);
        console.log('call' in f, 'apply' in f, 'prototype' in f, 'length' in {});
        var keys = [];
        console.log('prototype' in g);
        for (var k in g) keys.push(k);
        console.log(keys.length);
    """,
    "number to string": """
        console.log(0.000001, 5e-7, 1e-7, 123456789012345680000, 1e21, 1.5e300);
        console.log(0.1 + 0.2, 100.5, -0, 1 / 3, 2e-7 * 3, 4.35 * 100);
        console.log(9007199254740993, 1e16, 0.5, -1.23e-18, 123e-20);
        console.log('' + 1e20, String(25 / 1e7), (1e21).toString());
    """,
    "closures capture cells": """
        function counter() { var n = 0; return function () { n++; return n; }; }
        var a = counter(), b = counter();
        a(); a();
        console.log(a(), b());
        var fs = [];
        for (var i = 0; i < 3; i++) fs.push(function () { return i; });
        console.log(fs[0](), fs[2]());
    """,
    "hoisting": """
        console.log(typeof f, typeof v, v);
        var v = 1;
        function f() { return g(); function g() { return 'g'; } }
        console.log(f(), v);
        function h() { w = 2; var w; return w; }
        console.log(h(), typeof w);
    """,
    "try/catch": """
        var r = [];
        try { undefinedFunction(); } catch (e) { r.push(e.name); }
        try { null.x; } catch (e) { r.push(e.name); }
        try { var n = 5; n(); } catch (e) { r.push(e.name); }
        try { throw 'str'; } catch (e) { r.push(e); }
        try { throw {code: 7}; } catch (e) { r.push(e.code); }
        console.log(r.join(','));
    """,
    "uncaught throw": """
        console.log('before');
        missing.property;
        console.log('after');
    """,
    "uncaught error object": """
        throw new Error('boom');
    """,
    "loops with break and continue": """
        var s = 0;
        for (var i = 0; i < 10; i++) { if (i % 3 == 0) continue; if (i > 7) break; s += i; }
        var j = 0, t = '';
        while (true) { j++; if (j > 5) break; if (j % 2) continue; t += j; }
        var k = 0;
        do { k++; if (k == 2) continue; } while (k < 4);
        console.log(s, t, k);
    """,
    "switch": """
        function f(x) {
          var s = '';
          switch (x) { case 1: s += 'a'; case 2: s += 'b'; break; default: s += 'd'; case 3: s += 'c'; }
          return s;
        }
        console.log(f(1), f(2), f(3), f(9), f('1'));
    """,
    "objects, arrays and this": """
        var o = {n: 1, inc: function () { this.n++; return this; }};
        o.inc().inc();
        var a = [1, 2, 3];
        a.push(4);
        a[6] = 7;
        console.log(o.n, a.length, a.join('-'), a.indexOf(3), 'n' in o, delete o.n, 'n' in o);
    """,
    "constructors and new": """
        function P(x) { this.x = x; }
        P.prototype.get = function () { return this.x; };
        var p = new P(4);
        console.log(p.get(), p instanceof P, typeof P, typeof p);
    """,
    "a read prototype is not enumerable": """
        function f() {}
        var p = f.prototype;
        var n = 0, keys = '';
        for (var k in f) { n++; keys += k; }
        console.log(n + ':' + keys, typeof p);
    """,
    "new leaves prototype out of for-in": """
        function g() {}
        new g();
        g.prototype = {a: 1};
        g.x = 1;
        var n = 0, keys = '';
        for (var k in g) { n++; keys += k; }
        console.log(n + ':' + keys, 'prototype' in g);
    """,
    "string coercions": """
        console.log('5' + 1, '5' - 1, '5' * '2', +'', +'3.5', 1 + null, 1 + undefined, [] + [], [1, 2] + '');
        console.log('abc'.length, 'abc'.charAt(1), 'a,b'.split(',').length, 'Hi'.toUpperCase());
    """,
    "equality and typeof": """
        console.log(null == undefined, null === undefined, '1' == 1, 0 == '', NaN == NaN);
        console.log(typeof null, typeof undefined, typeof 'x', typeof 1, typeof {}, typeof []);
    """,
}


#: Where the interpreter knowingly differs from node: program, what the
#: interpreter prints, what node prints.  The subset has no
#: ``Object.prototype`` (ROADMAP item 1), so a plain object has no
#: ``toString`` to read or to find with ``in``.
DEVIATIONS = {
    "no Object.prototype": (
        "console.log('toString' in {}, typeof ({}).toString);",
        ["false undefined"],
        ["true function"],
    ),
}


def generated_expressions(count, seed=0):
    """``count`` expressions built as ``test_fuzz`` builds them: leaves
    combined by binary operators, each application parenthesized."""
    rng = random.Random(seed)

    def build(leaves):
        if leaves == 1:
            return rng.choice(EXPRESSION_LEAVES)
        left = rng.randint(1, leaves - 1)
        operator = rng.choice(EXPRESSION_OPERATORS)
        return f"({build(left)} {operator} {build(leaves - left)})"

    return [build(rng.randint(1, 12)) for _ in range(count)]


#: Runs a JSON list of programs, each in a fresh context, and prints a JSON
#: list of what each printed.
NODE_RUNNER = r"""
const vm = require("vm");
const programs = JSON.parse(require("fs").readFileSync(0, "utf8"));
const printed = programs.map((source) => {
  const lines = [];
  const log = (...args) => lines.push(args.map(String).join(" "));
  try {
    vm.runInNewContext(source, { console: { log } }, { timeout: 10000 });
  } catch (error) {
    // The context's errors are not the runner's Error instances.
    const object = typeof error === "object" && error !== null;
    lines.push("uncaught " + (object ? String(error.name) : "value"));
  }
  return lines;
});
process.stdout.write(JSON.stringify(printed));
"""


def run_in_node(programs):
    completed = subprocess.run(
        [NODE, "-e", NODE_RUNNER],
        input=json.dumps(programs),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout)


def run_in_interpreter(source):
    interpreter = Interpreter(max_steps=1_000_000)
    lines = install_builtins(interpreter)
    try:
        interpreter.run(parse(source))
    except JSThrow as thrown:
        value = thrown.value
        if isinstance(value, JSErrorValue):
            name = value.name
        elif isinstance(value, JSObject):
            name = to_string(value.lookup("name"))
        else:
            name = "value"
        lines.append(f"uncaught {name}")
    return lines


def test_programs_print_what_node_prints():
    names = list(PROGRAMS)
    printed = run_in_node([PROGRAMS[name] for name in names])
    for name, expected in zip(names, printed):
        assert run_in_interpreter(PROGRAMS[name]) == expected, name


def test_generated_expressions_print_what_node_prints():
    expressions = generated_expressions(400)
    programs = [f"var x = 3; console.log({expression});" for expression in expressions]
    printed = run_in_node(programs)
    for expression, program, expected in zip(expressions, programs, printed):
        assert run_in_interpreter(program) == expected, expression


def test_known_deviations_stay_as_pinned():
    names = list(DEVIATIONS)
    printed = run_in_node([DEVIATIONS[name][0] for name in names])
    for name, in_node in zip(names, printed):
        program, ours, theirs = DEVIATIONS[name]
        assert (run_in_interpreter(program), in_node) == (ours, theirs), name
