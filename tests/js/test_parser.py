"""Tests for the JavaScript parser."""

import pytest

from repro.js import ast
from repro.js.errors import JSSyntaxError
from repro.js.parser import parse, parse_expression


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
