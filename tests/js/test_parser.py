"""Tests for the JavaScript parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.js import ast
from repro.js.errors import JSSyntaxError
from repro.js.parser import parse, parse_expression

from . import parser_oracle
from .test_lexer import page_scripts

#: What generated sources are made of, joined by spaces: single tokens of
#: every kind and the multi-token shapes where the grammar's rules meet.
FRAGMENTS = [
    # operands, and keywords that may name a property
    "a", "b", "1", "2.5", "'s'", "this", "null", "true", "undefined",
    "catch", "default",
    # operators: binary, assignment, prefix and postfix
    "+", "-", "*", "%", "<", ">>>", "==", "!==", "&", "|", "&&", "||",
    "in", "instanceof", "=", "+=", "<<=", "!", "~", "typeof", "void",
    "delete", "++", "--", "?", ":", ",",
    # brackets and separators
    "(", ")", "[", "]", "{", "}", ".", ";",
    # statement keywords
    "var", "function", "return", "if", "else", "while", "do", "for",
    "break", "continue", "new", "throw", "try", "finally", "switch",
    "case",
    # line breaks, where automatic semicolon insertion and the no-newline
    # rules (postfix ++, return, throw) apply
    "\n", "a\n++b", "return\na", "throw\na", "x\n--",
    # for heads: for-in with and without var, and `in` nested in a
    # three-clause initializer
    "for (var k in o)", "for (k in o)", "for (var i = 0; i < n; i++)",
    "for (x = ('a' in o); x; )", "for (var f = function () { return 'a' in o; };;)",
    # new chains, member names and calls
    "new A", "new A()", "new new A()()", "new a.b[c](1).d", "a.b.c", "a[b]",
    "f(a, b)", "o.catch()", "++a.b", "a++",
    # literals
    "{a: 1, 'b': 2, 3: c, in: d}", "[1, , 2]", "[,]", "function f(a, b) {",
    "function () {", "switch (x) {", "case 1:", "default:",
    "try {} catch (e) {}", "try {} finally {}",
]


#: Stands for the space between two tokens of a generated program; each
#: becomes a space or a line break.
GAP = "\x00"

_OPERANDS = st.sampled_from(
    [
        "a", "b", "1", "'s'", "this", "null", "true", "undefined",
        f"[1,{GAP},{GAP}2]", f"[{GAP},]",
        f"{{a:{GAP}1,{GAP}'b':{GAP}c,{GAP}3:{GAP}d,{GAP}in:{GAP}e}}",
        f"function{GAP}(x){GAP}{{{GAP}return{GAP}x;{GAP}}}",
    ]
)
_BINARY = st.sampled_from(
    ["+", "-", "*", "/", "%", "<", ">=", "<<", ">>>", "==", "!==", "&", "^",
     "|", "&&", "||", "in", "instanceof"]
)
_PREFIX = st.sampled_from(["-", "+", "!", "~", "typeof", "void", "delete"])
_ASSIGN = st.sampled_from(["=", "+=", "<<=", "|="])
_UPDATE = st.sampled_from(["++", "--"])
_NAMES = st.sampled_from(["x", "catch", "in"])


def _compound(inner):
    # What assignments and ++/-- may target.
    reference = st.one_of(
        st.sampled_from(["a", "b"]),
        st.builds(f"({{}}){GAP}.{GAP}{{}}".format, inner, _NAMES),
        st.builds(f"({{}})[{GAP}{{}}{GAP}]".format, inner, inner),
    )
    return st.one_of(
        reference,
        st.builds(f"{{}}{GAP}.{GAP}{{}}".format, inner, _NAMES),
        st.builds(f"{{}}{GAP}{{}}{GAP}{{}}".format, inner, _BINARY, inner),
        st.builds(f"{{}}{GAP}{{}}{GAP}{{}}".format, reference, _ASSIGN, inner),
        st.builds(f"{{}}{GAP}{{}}".format, _PREFIX, inner),
        st.builds("{}{}".format, _UPDATE, reference),
        st.builds("{}{}".format, reference, _UPDATE),
        st.builds(f"{{}}{GAP}?{GAP}{{}}{GAP}:{GAP}{{}}".format, inner, inner, inner),
        st.builds("({})".format, inner),
        st.builds(f"{{}}({{}},{GAP}{{}})".format, inner, inner, inner),
        st.builds(f"new{GAP}{{}}".format, inner),
    )


_EXPRESSIONS = st.recursive(_OPERANDS, _compound, max_leaves=5)
_SIMPLE_STATEMENTS = st.one_of(
    st.builds("{};".format, _EXPRESSIONS),
    # No semicolon: the next token must start a line, or close a block.
    _EXPRESSIONS,
    st.builds(f"{{}},{GAP}{{}};".format, _EXPRESSIONS, _EXPRESSIONS),
    st.builds(f"var{GAP}a{GAP}={GAP}{{}},{GAP}b;".format, _EXPRESSIONS),
    st.builds(f"return{GAP}{{}};".format, _EXPRESSIONS),
    st.builds("throw {};".format, _EXPRESSIONS),
    st.sampled_from(["break;", "continue;", ";", "return;", f"return{GAP}a"]),
)


def _compound_statements(inner):
    head = _EXPRESSIONS
    return st.one_of(
        st.builds(f"if{GAP}({{}}){GAP}{{}}{GAP}else{GAP}{{}}".format, head, inner, inner),
        st.builds(f"while{GAP}({{}}){GAP}{{}}".format, head, inner),
        st.builds(f"do{GAP}{{}}{GAP}while{GAP}({{}});".format, inner, head),
        st.builds(f"for{GAP}(var{GAP}k{GAP}in{GAP}{{}}){GAP}{{}}".format, head, inner),
        st.builds(f"for{GAP}(k{GAP}in{GAP}{{}}){GAP}{{}}".format, head, inner),
        st.builds(
            f"for{GAP}(var{GAP}i{GAP}={GAP}{{}};{GAP}{{}};{GAP}{{}}){GAP}{{}}".format,
            head, head, head, inner,
        ),
        st.builds(f"for{GAP}({{}};{GAP};){GAP}{{}}".format, head, inner),
        st.builds(f"{{{{{GAP}{{}}{GAP}{{}}{GAP}}}}}".format, inner, inner),
        st.builds(f"function{GAP}f(a,{GAP}b){GAP}{{{{{GAP}{{}}{GAP}}}}}".format, inner),
        st.builds(
            f"try{GAP}{{{{{GAP}{{}}{GAP}}}}}{GAP}catch{GAP}(e){GAP}{{{{{GAP}{{}}{GAP}}}}}"
            f"{GAP}finally{GAP}{{{{{GAP}{{}}{GAP}}}}}".format,
            inner, inner, inner,
        ),
        st.builds(
            f"switch{GAP}({{}}){GAP}{{{{{GAP}case{GAP}1:{GAP}{{}}{GAP}default:{GAP}{{}}{GAP}}}}}".format,
            head, inner, inner,
        ),
    )


_STATEMENTS = st.recursive(_SIMPLE_STATEMENTS, _compound_statements, max_leaves=4)


def _lay_out(template, random):
    """Turn each gap into a space or, one time in six, a line break."""
    return "".join(
        ("\n" if random.random() < 1 / 6 else " ") if char == GAP else char
        for char in template
    )


#: Programs that mostly parse, laid out over several lines.
PROGRAMS = st.builds(
    _lay_out, st.lists(_STATEMENTS, max_size=4).map(GAP.join), st.randoms()
)


def parsed(parse_source, source):
    """The AST's ``repr`` (``line`` included), or the error's text and
    position."""
    try:
        return repr(parse_source(source))
    except JSSyntaxError as error:
        return str(error), error.line, error.column


def stmt(source):
    program = parse(source)
    assert len(program.body) == 1
    return program.body[0]


class TestStatements:
    def test_var_single(self):
        node = stmt("var x = 1;")
        assert isinstance(node, ast.VariableDeclaration)
        assert node.declarations[0][0] == "x"
        assert isinstance(node.declarations[0][1], ast.NumberLiteral)

    def test_var_multiple(self):
        node = stmt("var a = 1, b, c = 3;")
        names = [name for name, _init in node.declarations]
        assert names == ["a", "b", "c"]
        assert node.declarations[1][1] is None

    def test_function_declaration(self):
        node = stmt("function f(a, b) { return a; }")
        assert isinstance(node, ast.FunctionDeclaration)
        assert node.name == "f"
        assert node.params == ["a", "b"]
        assert isinstance(node.body[0], ast.ReturnStatement)

    def test_if_else(self):
        node = stmt("if (x) y(); else z();")
        assert isinstance(node, ast.IfStatement)
        assert node.alternate is not None

    def test_dangling_else_binds_inner(self):
        node = stmt("if (a) if (b) c(); else d();")
        assert node.alternate is None
        assert node.consequent.alternate is not None

    def test_while(self):
        node = stmt("while (x) { x--; }")
        assert isinstance(node, ast.WhileStatement)

    def test_do_while(self):
        node = stmt("do { x(); } while (y);")
        assert isinstance(node, ast.DoWhileStatement)

    def test_classic_for(self):
        node = stmt("for (var i = 0; i < 10; i++) body();")
        assert isinstance(node, ast.ForStatement)
        assert isinstance(node.init, ast.VariableDeclaration)
        assert isinstance(node.test, ast.BinaryExpression)
        assert isinstance(node.update, ast.UpdateExpression)

    def test_for_with_empty_clauses(self):
        node = stmt("for (;;) break;")
        assert node.init is None and node.test is None and node.update is None

    def test_for_in_declaring(self):
        node = stmt("for (var k in obj) use(k);")
        assert isinstance(node, ast.ForInStatement)
        assert node.declares and node.name == "k"

    def test_for_in_non_declaring(self):
        node = stmt("for (k in obj) use(k);")
        assert isinstance(node, ast.ForInStatement)
        assert not node.declares

    def test_in_operator_inside_for_parens_requires_care(self):
        # `in` must still work as an operator outside for-heads.
        expr = parse_expression("'a' in obj")
        assert isinstance(expr, ast.BinaryExpression)
        assert expr.operator == "in"

    def test_return_without_value(self):
        program = parse("function f() { return; }")
        ret = program.body[0].body[0]
        assert ret.argument is None

    def test_throw(self):
        node = stmt("throw err;")
        assert isinstance(node, ast.ThrowStatement)

    def test_throw_newline_restriction(self):
        with pytest.raises(JSSyntaxError):
            parse("throw\nerr;")

    def test_try_catch(self):
        node = stmt("try { f(); } catch (e) { g(e); }")
        assert isinstance(node, ast.TryStatement)
        assert node.catch_param == "e"
        assert node.finally_block is None

    def test_try_finally(self):
        node = stmt("try { f(); } finally { g(); }")
        assert node.catch_block is None
        assert node.finally_block is not None

    def test_try_without_catch_or_finally_raises(self):
        with pytest.raises(JSSyntaxError):
            parse("try { f(); }")

    def test_switch(self):
        node = stmt("switch (x) { case 1: a(); break; default: b(); }")
        assert isinstance(node, ast.SwitchStatement)
        assert len(node.cases) == 2
        assert node.cases[1].test is None

    def test_duplicate_default_raises(self):
        with pytest.raises(JSSyntaxError):
            parse("switch (x) { default: a(); default: b(); }")

    def test_empty_statement(self):
        assert isinstance(stmt(";"), ast.EmptyStatement)

    def test_block(self):
        node = stmt("{ a(); b(); }")
        assert isinstance(node, ast.BlockStatement)
        assert len(node.body) == 2

    def test_unterminated_block_raises(self):
        with pytest.raises(JSSyntaxError):
            parse("{ a();")


class TestAutomaticSemicolonInsertion:
    def test_newline_terminates_statement(self):
        program = parse("a = 1\nb = 2")
        assert len(program.body) == 2

    def test_missing_semicolon_without_newline_raises(self):
        with pytest.raises(JSSyntaxError):
            parse("a = 1 b = 2")

    def test_statement_before_close_brace(self):
        program = parse("function f() { return 1 }")
        assert isinstance(program.body[0].body[0], ast.ReturnStatement)

    def test_return_value_not_taken_across_newline(self):
        program = parse("function f() { return\n1; }")
        assert program.body[0].body[0].argument is None


class TestExpressions:
    def test_precedence_multiplication_over_addition(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.operator == "+"
        assert expr.right.operator == "*"

    def test_left_associativity(self):
        expr = parse_expression("10 - 3 - 2")
        assert expr.operator == "-"
        assert expr.left.operator == "-"

    def test_comparison_precedence(self):
        expr = parse_expression("a + 1 < b * 2")
        assert expr.operator == "<"

    def test_logical_lower_than_equality(self):
        expr = parse_expression("a == 1 && b == 2")
        assert isinstance(expr, ast.LogicalExpression)
        assert expr.operator == "&&"

    def test_or_lower_than_and(self):
        expr = parse_expression("a && b || c")
        assert expr.operator == "||"
        assert expr.left.operator == "&&"

    def test_conditional(self):
        expr = parse_expression("a ? b : c")
        assert isinstance(expr, ast.ConditionalExpression)

    def test_nested_conditional_right_associative(self):
        expr = parse_expression("a ? b : c ? d : e")
        assert isinstance(expr.alternate, ast.ConditionalExpression)

    def test_assignment_right_associative(self):
        expr = parse_expression("a = b = 1")
        assert isinstance(expr.value, ast.AssignmentExpression)

    def test_compound_assignment(self):
        expr = parse_expression("a += 2")
        assert expr.operator == "+="

    def test_invalid_assignment_target_raises(self):
        with pytest.raises(JSSyntaxError):
            parse_expression("1 = 2")

    def test_member_dot(self):
        expr = parse_expression("a.b.c")
        assert isinstance(expr, ast.MemberExpression)
        assert not expr.computed
        assert expr.property.value == "c"

    def test_member_computed(self):
        expr = parse_expression("a['b' + i]")
        assert expr.computed

    def test_keyword_as_member_name(self):
        expr = parse_expression("promise.catch")
        assert expr.property.value == "catch"

    def test_call_with_args(self):
        expr = parse_expression("f(1, 'x', g())")
        assert isinstance(expr, ast.CallExpression)
        assert len(expr.arguments) == 3

    def test_method_call_chain(self):
        expr = parse_expression("a.b().c()")
        assert isinstance(expr, ast.CallExpression)
        assert isinstance(expr.callee.object, ast.CallExpression)

    def test_new_with_arguments(self):
        expr = parse_expression("new Widget(1)")
        assert isinstance(expr, ast.NewExpression)
        assert len(expr.arguments) == 1

    def test_new_without_arguments(self):
        expr = parse_expression("new Widget")
        assert isinstance(expr, ast.NewExpression)
        assert expr.arguments == []

    def test_new_member_callee(self):
        expr = parse_expression("new app.Widget()")
        assert isinstance(expr.callee, ast.MemberExpression)

    def test_unary_operators(self):
        for op in ("-", "+", "!", "~"):
            expr = parse_expression(f"{op}x")
            assert expr.operator == op

    def test_typeof_and_delete(self):
        assert parse_expression("typeof x").operator == "typeof"
        assert parse_expression("delete a.b").operator == "delete"

    def test_prefix_and_postfix_update(self):
        pre = parse_expression("++x")
        post = parse_expression("x++")
        assert pre.prefix and not post.prefix

    def test_update_requires_reference(self):
        with pytest.raises(JSSyntaxError):
            parse_expression("5++")

    def test_array_literal(self):
        expr = parse_expression("[1, 2, 3]")
        assert isinstance(expr, ast.ArrayLiteral)
        assert len(expr.elements) == 3

    def test_array_trailing_comma(self):
        expr = parse_expression("[1, 2]")
        assert len(expr.elements) == 2

    def test_object_literal(self):
        expr = parse_expression("{a: 1, 'b c': 2, 3: 'x'}")
        keys = [key for key, _value in expr.properties]
        assert keys == ["a", "b c", "3"]

    def test_object_literal_keyword_key(self):
        expr = parse_expression("{default: 1, in: 2}")
        assert [k for k, _v in expr.properties] == ["default", "in"]

    def test_function_expression(self):
        expr = parse_expression("function (x) { return x; }")
        assert isinstance(expr, ast.FunctionExpression)
        assert expr.name is None

    def test_named_function_expression(self):
        expr = parse_expression("function fact(n) { return n; }")
        assert expr.name == "fact"

    def test_sequence_expression(self):
        expr = parse_expression("a, b, c")
        assert isinstance(expr, ast.SequenceExpression)
        assert len(expr.expressions) == 3

    def test_grouping(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.operator == "*"
        assert expr.left.operator == "+"

    def test_trailing_garbage_raises(self):
        with pytest.raises(JSSyntaxError):
            parse_expression("1 +")

    def test_this(self):
        assert isinstance(parse_expression("this"), ast.ThisExpression)

    def test_literals(self):
        assert isinstance(parse_expression("null"), ast.NullLiteral)
        assert isinstance(parse_expression("undefined"), ast.UndefinedLiteral)
        assert parse_expression("true").value is True
        assert parse_expression("false").value is False


class TestInOperatorInForHeads:
    """``in`` is banned only at the top level of a for-loop initializer,
    where it would read as a for-in; the brackets, literals, argument
    lists and function bodies nested there allow it again."""

    @pytest.mark.parametrize(
        "source",
        [
            "for (var x = ('a' in o); x; ) {}",
            "for (var f = function () { return 'a' in o; }; f; ) {}",
            "for (x = [('a' in o)]; x; ) {}",
            "for (var i = g('a' in o); i; ) {}",
            "for (var x = {k: 'a' in o}; x; ) {}",
            "for (var x = o['a' in p]; x; ) {}",
            "for (var x = c ? 'a' in o : 0; x; ) {}",
        ],
    )
    def test_in_inside_nested_constructs(self, source):
        loop = stmt(source)
        assert isinstance(loop, ast.ForStatement)
        assert "operator='in'" in repr(loop.init)

    @pytest.mark.parametrize(
        "source",
        [
            "for (var x = 'a' in o; x; ) {}",
            # A loop nested in the head restores the ban on its way out.
            "for (var f = function () { for (var i = 0; ; ) {} }, y = 'a' in o; ; ) {}",
        ],
    )
    def test_in_at_the_top_of_an_initializer_is_an_error(self, source):
        with pytest.raises(JSSyntaxError):
            parse(source)

    def test_for_in_and_three_clause_loops_keep_their_asts(self):
        assert stmt("for (var k in o) f(k);") == ast.ForInStatement(
            name="k",
            declares=True,
            object=ast.Identifier(name="o"),
            body=ast.ExpressionStatement(
                expression=ast.CallExpression(
                    callee=ast.Identifier(name="f"),
                    arguments=[ast.Identifier(name="k")],
                )
            ),
        )
        assert stmt("for (var i = 0; i < n; i++) s += i;") == ast.ForStatement(
            init=ast.VariableDeclaration(
                declarations=[("i", ast.NumberLiteral(value=0.0))]
            ),
            test=ast.BinaryExpression(
                operator="<",
                left=ast.Identifier(name="i"),
                right=ast.Identifier(name="n"),
            ),
            update=ast.UpdateExpression(
                operator="++", operand=ast.Identifier(name="i"), prefix=False
            ),
            body=ast.ExpressionStatement(
                expression=ast.AssignmentExpression(
                    operator="+=",
                    target=ast.Identifier(name="s"),
                    value=ast.Identifier(name="i"),
                )
            ),
        )


class TestAgainstReferenceParser:
    """The flattened parser against the one-method-per-level parser it
    replaced (``parser_oracle``): the same AST, node for node and line for
    line, or the same error at the same place."""

    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=30).map(" ".join))
    @settings(max_examples=800, deadline=None)
    def test_generated_sources(self, source):
        assert parsed(parse, source) == parsed(parser_oracle.parse, source)

    @given(PROGRAMS)
    @settings(max_examples=200, deadline=None)
    def test_generated_programs(self, source):
        assert parsed(parse, source) == parsed(parser_oracle.parse, source)

    @given(st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=12).map(" ".join))
    @settings(max_examples=300, deadline=None)
    def test_generated_expressions(self, source):
        assert parsed(parse_expression, source) == parsed(
            parser_oracle.parse_expression, source
        )

    @pytest.mark.parametrize(
        "source",
        [
            "new new A().b;",
            "new new A()();",
            "new a.b[c](1).d(2);",
            "new A\n(1);",
            "a - b - c * d / e % f;",
            "a = b += c ? d : e ? f : g;",
            "a\n++\nb;",
            "a.\nb\n[c]\n(d);",
            "x = {\nin: 1,\n3: [1,\n,\n2]};",
            "for (var i = g('a' in o), j = o['a' in p];\ni; i++) ;",
            "for (\nk\nin\no) ;",
            "(function () {\nreturn\n});",
            "switch (x) {\ncase 1:\ndefault:\n}",
            "if (a) b\nelse c",
        ],
    )
    def test_grammar_corners(self, source):
        assert parsed(parse, source) == parsed(parser_oracle.parse, source)

    def test_every_page_script(self):
        scripts = page_scripts()
        assert len(scripts) > 100
        for source in scripts:
            assert parsed(parse, source) == parsed(parser_oracle.parse, source)
