"""Hypothesis robustness tests for the JS engine.

The engine runs arbitrary generated site code during corpus experiments;
it must never hang or crash with anything other than its own error types.
"""

from hypothesis import given, settings, strategies as st

from repro.js.errors import JSSyntaxError, JSThrow
from repro.js.builtins import install_builtins
from repro.js.interpreter import BudgetExceeded, Interpreter, format_number, to_number, to_string
from repro.js.lexer import tokenize
from repro.js.parser import parse


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_lexer_total(source):
    """The lexer either tokenizes or raises JSSyntaxError — never hangs,
    never raises anything else."""
    try:
        tokens = tokenize(source)
    except JSSyntaxError:
        return
    assert tokens[-1].type == "eof"
    # Progress: token count is bounded by input length + 1.
    assert len(tokens) <= len(source) + 1


@given(st.text(alphabet=" \t\nabcxyz0123456789+-*/%=<>!&|(){}[];,.'\"_$", max_size=120))
@settings(max_examples=300, deadline=None)
def test_parser_total(source):
    """The parser either builds an AST or raises JSSyntaxError."""
    try:
        parse(source)
    except JSSyntaxError:
        pass


#: Generated expressions combine these leaves (``x`` is 3) with these
#: operators, each application parenthesized.
EXPRESSION_LEAVES = ["1", "2.5", "'s'", "true", "null", "undefined", "x"]
EXPRESSION_OPERATORS = ["+", "-", "*", "/", "%", "==", "===", "<", ">", "&&", "||"]

_EXPR = st.recursive(
    st.sampled_from(EXPRESSION_LEAVES),
    lambda inner: st.builds(
        lambda a, op, b: f"({a} {op} {b})",
        inner,
        st.sampled_from(EXPRESSION_OPERATORS),
        inner,
    ),
    max_leaves=12,
)


@given(_EXPR)
@settings(max_examples=300, deadline=None)
def test_generated_expressions_evaluate(expression):
    """Well-formed expressions always evaluate (JS has no evaluation type
    errors for these operators) and evaluation is deterministic."""
    interp = Interpreter(max_steps=100_000)
    install_builtins(interp)
    interp.global_object.set_own("x", 3.0)
    program = parse(f"__r = {expression};")

    interp.run(program)
    first = interp.global_object.get_own("__r")
    interp.run(program)
    second = interp.global_object.get_own("__r")
    # NaN != NaN, so compare via formatted text.
    assert to_string(first) == to_string(second)


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
@settings(max_examples=300, deadline=None)
def test_number_formatting_roundtrip(value):
    """to_number(format_number(x)) == x for finite floats — scripts that
    stringify and re-parse numbers keep their values."""
    text = format_number(float(value))
    assert to_number(text) == float(value)


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_integer_formatting_is_integral(value):
    assert "." not in format_number(float(value))


@given(st.lists(st.sampled_from(["x = x + 1;", "x = x * 2;", "if (x > 5) { x = 0; }",
                                 "for (var i = 0; i < 3; i++) { x += i; }",
                                 "try { throw x; } catch (e) { x = e; }"]),
                min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_generated_programs_never_escape_error_types(statements):
    interp = Interpreter(max_steps=50_000)
    install_builtins(interp)
    interp.global_object.set_own("x", 1.0)
    source = "\n".join(statements)
    try:
        interp.run(parse(source))
    except (JSThrow, JSSyntaxError, BudgetExceeded):
        pass
