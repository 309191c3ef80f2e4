"""Reference JavaScript parser for tests.

The recursive-descent parser that :mod:`repro.js.parser` replaced: one
method per precedence level, every token read through ``_peek``/``_next``
and every punctuator test through ``Token.is_punct``, nodes built with
keyword arguments.  Slow, but each grammar rule is spelled out in its own
method, so the flattened parser is checked against it node for node (the
AST ``repr``, ``line`` included) and error for error.  It reads the
product's tokens (:func:`repro.js.lexer.tokenize`, itself checked against
``lexer_oracle``) and builds the product's :mod:`repro.js.ast` nodes, so
the two outputs compare directly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, TypeVar

from repro.js import ast
from repro.js.errors import JSSyntaxError
from repro.js.lexer import Token, tokenize

T = TypeVar("T")

#: Binary operator precedence, higher binds tighter.  Mirrors ECMA-262.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "===": 6,
    "!==": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "instanceof": 7,
    "in": 7,
    "<<": 8,
    ">>": 8,
    ">>>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_ASSIGNMENT_OPERATORS = frozenset(
    ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="]
)


class Parser:
    """Parses a token list into a :class:`repro.js.ast.Program`."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        #: When parsing a ``for (init ...`` head, the ``in`` operator must
        #: not be consumed as a binary operator; this flag suppresses it.
        #: Brackets, literals, argument lists and function bodies nested
        #: in the head allow ``in`` again (see :meth:`_with_in`).
        self._no_in = False

    # ------------------------------------------------------------------
    # token helpers

    def _peek(self, offset: int = 0) -> Token:
        # The list ends in ``eof`` and _next never moves past it, so only
        # lookahead needs the clamp.
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def _next(self) -> Token:
        token = self._peek()
        if token.type != "eof":
            self.pos += 1
        return token

    def _at_punct(self, text: str) -> bool:
        return self._peek().is_punct(text)

    def _at_keyword(self, word: str) -> bool:
        return self._peek().type == word

    def _eat_punct(self, text: str) -> bool:
        if self._at_punct(text):
            self._next()
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        token = self._peek()
        if not token.is_punct(text):
            raise self._error(f"expected {text!r}, found {token.value!r}")
        return self._next()

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if token.type != word:
            raise self._error(f"expected {word!r}, found {token.value!r}")
        return self._next()

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type != "ident":
            raise self._error(f"expected identifier, found {token.value!r}")
        self._next()
        return token.value

    def _error(self, message: str) -> JSSyntaxError:
        token = self._peek()
        return JSSyntaxError(message, token.line, token.column)

    def _line_break_before(self) -> bool:
        """True if a newline separates the previous token from the next."""
        if self.pos == 0:
            return False
        return self._peek().line > self.tokens[self.pos - 1].line

    def _consume_semicolon(self) -> None:
        """Consume ``;`` or apply automatic semicolon insertion."""
        if self._eat_punct(";"):
            return
        token = self._peek()
        if token.type == "eof" or token.is_punct("}"):
            return
        if self._line_break_before():
            return
        raise self._error(f"expected ';', found {token.value!r}")

    def _with_in(self, allowed: bool, parse: Callable[[], T]) -> T:
        """Run ``parse`` with the ``in`` operator allowed or not, then
        restore the enclosing setting."""
        saved, self._no_in = self._no_in, not allowed
        try:
            return parse()
        finally:
            self._no_in = saved

    # ------------------------------------------------------------------
    # program & statements

    def parse_program(self) -> ast.Program:
        """Parse the whole token stream into a Program."""
        body: List[ast.Node] = []
        first = self._peek()
        while self._peek().type != "eof":
            body.append(self.parse_statement())
        return ast.Program(line=first.line, body=body)

    def parse_statement(self) -> ast.Node:
        """Parse one statement."""
        token = self._peek()
        if token.is_punct("{"):
            return self._parse_block()
        if token.is_punct(";"):
            self._next()
            return ast.EmptyStatement(line=token.line)
        dispatch = {
            "var": self._parse_var,
            "function": self._parse_function_declaration,
            "if": self._parse_if,
            "while": self._parse_while,
            "do": self._parse_do_while,
            "for": self._parse_for,
            "return": self._parse_return,
            "break": self._parse_break,
            "continue": self._parse_continue,
            "throw": self._parse_throw,
            "try": self._parse_try,
            "switch": self._parse_switch,
        }
        handler = dispatch.get(token.type)
        if handler is not None:
            return handler()
        expression = self.parse_expression()
        self._consume_semicolon()
        return ast.ExpressionStatement(line=token.line, expression=expression)

    def _parse_block(self) -> ast.BlockStatement:
        start = self._expect_punct("{")
        body: List[ast.Node] = []
        while not self._at_punct("}"):
            if self._peek().type == "eof":
                raise self._error("unterminated block")
            body.append(self.parse_statement())
        self._expect_punct("}")
        return ast.BlockStatement(line=start.line, body=body)

    def _parse_var(self) -> ast.VariableDeclaration:
        start = self._expect_keyword("var")
        declarations = self._parse_var_declarations()
        self._consume_semicolon()
        return ast.VariableDeclaration(line=start.line, declarations=declarations)

    def _parse_var_declarations(
        self,
    ) -> List[Tuple[str, Optional[ast.Node]]]:
        declarations: List[Tuple[str, Optional[ast.Node]]] = []
        while True:
            name = self._expect_ident()
            init: Optional[ast.Node] = None
            if self._eat_punct("="):
                init = self.parse_assignment()
            declarations.append((name, init))
            if not self._eat_punct(","):
                return declarations

    def _parse_function_declaration(self) -> ast.FunctionDeclaration:
        start = self._expect_keyword("function")
        name = self._expect_ident()
        params, body = self._parse_function_rest()
        return ast.FunctionDeclaration(
            line=start.line, name=name, params=params, body=body
        )

    def _parse_function_rest(self) -> Tuple[List[str], List[ast.Node]]:
        """Parse ``(params) { body }`` shared by declarations/expressions."""
        self._expect_punct("(")
        params: List[str] = []
        if not self._at_punct(")"):
            while True:
                params.append(self._expect_ident())
                if not self._eat_punct(","):
                    break
        self._expect_punct(")")
        block = self._with_in(True, self._parse_block)
        return params, block.body

    def _parse_if(self) -> ast.IfStatement:
        start = self._expect_keyword("if")
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        consequent = self.parse_statement()
        alternate: Optional[ast.Node] = None
        if self._at_keyword("else"):
            self._next()
            alternate = self.parse_statement()
        return ast.IfStatement(
            line=start.line, test=test, consequent=consequent, alternate=alternate
        )

    def _parse_while(self) -> ast.WhileStatement:
        start = self._expect_keyword("while")
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        body = self.parse_statement()
        return ast.WhileStatement(line=start.line, test=test, body=body)

    def _parse_do_while(self) -> ast.DoWhileStatement:
        start = self._expect_keyword("do")
        body = self.parse_statement()
        self._expect_keyword("while")
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        self._consume_semicolon()
        return ast.DoWhileStatement(line=start.line, body=body, test=test)

    def _parse_for(self) -> ast.Node:
        start = self._expect_keyword("for")
        self._expect_punct("(")

        if self._at_keyword("var"):
            self._next()
            # Look ahead for `for (var name in ...)`.
            if (
                self._peek().type == "ident"
                and self._peek(1).type == "in"
            ):
                name = self._expect_ident()
                self._expect_keyword("in")
                obj = self.parse_expression()
                self._expect_punct(")")
                body = self.parse_statement()
                return ast.ForInStatement(
                    line=start.line, name=name, declares=True, object=obj, body=body
                )
            declarations = self._with_in(False, self._parse_var_declarations)
            init: Optional[ast.Node] = ast.VariableDeclaration(
                line=start.line, declarations=declarations
            )
        elif self._at_punct(";"):
            init = None
        else:
            if self._peek().type == "ident" and self._peek(1).type == "in":
                name = self._expect_ident()
                self._expect_keyword("in")
                obj = self.parse_expression()
                self._expect_punct(")")
                body = self.parse_statement()
                return ast.ForInStatement(
                    line=start.line, name=name, declares=False, object=obj, body=body
                )
            expr = self._with_in(False, self.parse_expression)
            init = ast.ExpressionStatement(line=start.line, expression=expr)

        self._expect_punct(";")
        test = None if self._at_punct(";") else self.parse_expression()
        self._expect_punct(";")
        update = None if self._at_punct(")") else self.parse_expression()
        self._expect_punct(")")
        body = self.parse_statement()
        return ast.ForStatement(
            line=start.line, init=init, test=test, update=update, body=body
        )

    def _parse_return(self) -> ast.ReturnStatement:
        start = self._expect_keyword("return")
        argument: Optional[ast.Node] = None
        token = self._peek()
        if (
            not token.is_punct(";")
            and not token.is_punct("}")
            and token.type != "eof"
            and not self._line_break_before()
        ):
            argument = self.parse_expression()
        self._consume_semicolon()
        return ast.ReturnStatement(line=start.line, argument=argument)

    def _parse_break(self) -> ast.BreakStatement:
        start = self._expect_keyword("break")
        self._consume_semicolon()
        return ast.BreakStatement(line=start.line)

    def _parse_continue(self) -> ast.ContinueStatement:
        start = self._expect_keyword("continue")
        self._consume_semicolon()
        return ast.ContinueStatement(line=start.line)

    def _parse_throw(self) -> ast.ThrowStatement:
        start = self._expect_keyword("throw")
        if self._line_break_before():
            raise self._error("newline not allowed after 'throw'")
        argument = self.parse_expression()
        self._consume_semicolon()
        return ast.ThrowStatement(line=start.line, argument=argument)

    def _parse_try(self) -> ast.TryStatement:
        start = self._expect_keyword("try")
        block = self._parse_block()
        catch_param: Optional[str] = None
        catch_block: Optional[ast.Node] = None
        finally_block: Optional[ast.Node] = None
        if self._at_keyword("catch"):
            self._next()
            self._expect_punct("(")
            catch_param = self._expect_ident()
            self._expect_punct(")")
            catch_block = self._parse_block()
        if self._at_keyword("finally"):
            self._next()
            finally_block = self._parse_block()
        if catch_block is None and finally_block is None:
            raise self._error("try requires catch or finally")
        return ast.TryStatement(
            line=start.line,
            block=block,
            catch_param=catch_param,
            catch_block=catch_block,
            finally_block=finally_block,
        )

    def _parse_switch(self) -> ast.SwitchStatement:
        start = self._expect_keyword("switch")
        self._expect_punct("(")
        discriminant = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: List[ast.SwitchCase] = []
        seen_default = False
        while not self._at_punct("}"):
            token = self._peek()
            if self._at_keyword("case"):
                self._next()
                test: Optional[ast.Node] = self.parse_expression()
            elif self._at_keyword("default"):
                if seen_default:
                    raise self._error("duplicate default clause")
                seen_default = True
                self._next()
                test = None
            else:
                raise self._error("expected 'case' or 'default'")
            self._expect_punct(":")
            body: List[ast.Node] = []
            while (
                not self._at_punct("}")
                and not self._at_keyword("case")
                and not self._at_keyword("default")
            ):
                body.append(self.parse_statement())
            cases.append(ast.SwitchCase(line=token.line, test=test, body=body))
        self._expect_punct("}")
        return ast.SwitchStatement(
            line=start.line, discriminant=discriminant, cases=cases
        )

    # ------------------------------------------------------------------
    # expressions

    def parse_expression(self) -> ast.Node:
        """Full expression including comma sequences."""
        first = self.parse_assignment()
        if not self._at_punct(","):
            return first
        expressions = [first]
        while self._eat_punct(","):
            expressions.append(self.parse_assignment())
        return ast.SequenceExpression(line=first.line, expressions=expressions)

    def parse_assignment(self) -> ast.Node:
        """Parse an assignment-level expression (no commas)."""
        left = self._parse_conditional()
        token = self._peek()
        if token.type == "punct" and token.value in _ASSIGNMENT_OPERATORS:
            if not isinstance(left, (ast.Identifier, ast.MemberExpression)):
                raise self._error("invalid assignment target")
            self._next()
            value = self.parse_assignment()
            return ast.AssignmentExpression(
                line=token.line, operator=token.value, target=left, value=value
            )
        return left

    def _parse_conditional(self) -> ast.Node:
        test = self._parse_binary(0)
        if not self._at_punct("?"):
            return test
        self._next()
        consequent = self._with_in(True, self.parse_assignment)
        self._expect_punct(":")
        alternate = self.parse_assignment()
        return ast.ConditionalExpression(
            line=test.line, test=test, consequent=consequent, alternate=alternate
        )

    def _parse_binary(self, min_precedence: int) -> ast.Node:
        left = self._parse_unary()
        while True:
            token = self._peek()
            operator = None
            if token.type == "punct" and token.value in _BINARY_PRECEDENCE:
                operator = token.value
            elif token.type in ("instanceof", "in"):
                if token.type == "in" and self._no_in:
                    return left
                operator = token.type
            if operator is None:
                return left
            precedence = _BINARY_PRECEDENCE[operator]
            if precedence < min_precedence:
                return left
            self._next()
            right = self._parse_binary(precedence + 1)
            if operator in ("&&", "||"):
                left = ast.LogicalExpression(
                    line=token.line, operator=operator, left=left, right=right
                )
            else:
                left = ast.BinaryExpression(
                    line=token.line, operator=operator, left=left, right=right
                )

    def _parse_unary(self) -> ast.Node:
        token = self._peek()
        if token.type == "punct" and token.value in ("-", "+", "!", "~"):
            self._next()
            operand = self._parse_unary()
            return ast.UnaryExpression(
                line=token.line, operator=token.value, operand=operand
            )
        if token.type in ("typeof", "void", "delete"):
            self._next()
            operand = self._parse_unary()
            return ast.UnaryExpression(
                line=token.line, operator=token.type, operand=operand
            )
        if token.type == "punct" and token.value in ("++", "--"):
            self._next()
            operand = self._parse_unary()
            if not isinstance(operand, (ast.Identifier, ast.MemberExpression)):
                raise self._error("invalid increment/decrement target")
            return ast.UpdateExpression(
                line=token.line, operator=token.value, operand=operand, prefix=True
            )
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Node:
        expression = self._parse_call()
        token = self._peek()
        if (
            token.type == "punct"
            and token.value in ("++", "--")
            and not self._line_break_before()
        ):
            if not isinstance(expression, (ast.Identifier, ast.MemberExpression)):
                raise self._error("invalid increment/decrement target")
            self._next()
            return ast.UpdateExpression(
                line=token.line,
                operator=token.value,
                operand=expression,
                prefix=False,
            )
        return expression

    def _parse_call(self) -> ast.Node:
        if self._at_keyword("new"):
            token = self._next()
            callee = self._parse_call_no_new_args()
            arguments: List[ast.Node] = []
            if self._at_punct("("):
                arguments = self._parse_arguments()
            expression: ast.Node = ast.NewExpression(
                line=token.line, callee=callee, arguments=arguments
            )
        else:
            expression = self._parse_primary()
        return self._parse_call_tail(expression)

    def _parse_call_no_new_args(self) -> ast.Node:
        """Parse the callee of ``new`` without consuming its argument list."""
        if self._at_keyword("new"):
            token = self._next()
            callee = self._parse_call_no_new_args()
            arguments: List[ast.Node] = []
            if self._at_punct("("):
                arguments = self._parse_arguments()
            return ast.NewExpression(
                line=token.line, callee=callee, arguments=arguments
            )
        expression = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_punct("."):
                self._next()
                name = self._expect_member_name()
                expression = ast.MemberExpression(
                    line=token.line,
                    object=expression,
                    property=ast.StringLiteral(line=token.line, value=name),
                    computed=False,
                )
            elif token.is_punct("["):
                self._next()
                index = self._with_in(True, self.parse_expression)
                self._expect_punct("]")
                expression = ast.MemberExpression(
                    line=token.line, object=expression, property=index, computed=True
                )
            else:
                return expression

    def _parse_call_tail(self, expression: ast.Node) -> ast.Node:
        while True:
            token = self._peek()
            if token.is_punct("."):
                self._next()
                name = self._expect_member_name()
                expression = ast.MemberExpression(
                    line=token.line,
                    object=expression,
                    property=ast.StringLiteral(line=token.line, value=name),
                    computed=False,
                )
            elif token.is_punct("["):
                self._next()
                index = self._with_in(True, self.parse_expression)
                self._expect_punct("]")
                expression = ast.MemberExpression(
                    line=token.line, object=expression, property=index, computed=True
                )
            elif token.is_punct("("):
                arguments = self._parse_arguments()
                expression = ast.CallExpression(
                    line=token.line, callee=expression, arguments=arguments
                )
            else:
                return expression

    def _expect_member_name(self) -> str:
        """Member names after ``.`` may be identifiers or keywords."""
        token = self._peek()
        if token.type == "ident" or token.type in (
            "delete",
            "typeof",
            "new",
            "in",
            "instanceof",
            "this",
            "return",
            "case",
            "default",
            "catch",
            "continue",
            "do",
            "else",
            "false",
            "true",
            "null",
            "undefined",
            "var",
            "void",
            "while",
            "function",
            "if",
            "for",
            "switch",
            "throw",
            "try",
            "break",
            "finally",
        ):
            self._next()
            return str(token.value)
        raise self._error(f"expected property name, found {token.value!r}")

    def _parse_arguments(self) -> List[ast.Node]:
        self._expect_punct("(")
        arguments: List[ast.Node] = []
        if not self._at_punct(")"):
            while True:
                arguments.append(self._with_in(True, self.parse_assignment))
                if not self._eat_punct(","):
                    break
        self._expect_punct(")")
        return arguments

    def _parse_primary(self) -> ast.Node:
        token = self._peek()
        if token.type == "num":
            self._next()
            return ast.NumberLiteral(line=token.line, value=token.value)
        if token.type == "str":
            self._next()
            return ast.StringLiteral(line=token.line, value=token.value)
        if token.type == "ident":
            self._next()
            return ast.Identifier(line=token.line, name=token.value)
        if token.type in ("true", "false"):
            self._next()
            return ast.BooleanLiteral(line=token.line, value=token.type == "true")
        if token.type == "null":
            self._next()
            return ast.NullLiteral(line=token.line)
        if token.type == "undefined":
            self._next()
            return ast.UndefinedLiteral(line=token.line)
        if token.type == "this":
            self._next()
            return ast.ThisExpression(line=token.line)
        if token.type == "function":
            return self._parse_function_expression()
        if token.is_punct("("):
            self._next()
            expression = self._with_in(True, self.parse_expression)
            self._expect_punct(")")
            return expression
        if token.is_punct("["):
            return self._parse_array_literal()
        if token.is_punct("{"):
            return self._parse_object_literal()
        raise self._error(f"unexpected token {token.value!r}")

    def _parse_function_expression(self) -> ast.FunctionExpression:
        start = self._expect_keyword("function")
        name: Optional[str] = None
        if self._peek().type == "ident":
            name = self._expect_ident()
        params, body = self._parse_function_rest()
        return ast.FunctionExpression(
            line=start.line, name=name, params=params, body=body
        )

    def _parse_array_literal(self) -> ast.ArrayLiteral:
        start = self._expect_punct("[")
        elements: List[ast.Node] = []
        while not self._at_punct("]"):
            if self._at_punct(","):
                # Elision: `[1, , 3]` leaves an undefined hole.
                self._next()
                elements.append(ast.UndefinedLiteral(line=start.line))
                continue
            elements.append(self._with_in(True, self.parse_assignment))
            if not self._eat_punct(","):
                break
        self._expect_punct("]")
        return ast.ArrayLiteral(line=start.line, elements=elements)

    def _parse_object_literal(self) -> ast.ObjectLiteral:
        start = self._expect_punct("{")
        properties: List[Tuple[str, ast.Node]] = []
        while not self._at_punct("}"):
            token = self._peek()
            if token.type in ("ident", "str"):
                key = str(token.value)
                self._next()
            elif token.type == "num":
                key = _number_to_key(token.value)
                self._next()
            elif token.type in ("default", "in", "new", "delete", "this", "for",
                                "if", "function", "var", "return", "typeof",
                                "true", "false", "null", "undefined", "case",
                                "catch", "continue", "do", "else", "finally",
                                "instanceof", "switch", "throw", "try", "void",
                                "while", "break"):
                key = str(token.value)
                self._next()
            else:
                raise self._error(f"invalid property key {token.value!r}")
            self._expect_punct(":")
            value = self._with_in(True, self.parse_assignment)
            properties.append((key, value))
            if not self._eat_punct(","):
                break
        self._expect_punct("}")
        return ast.ObjectLiteral(line=start.line, properties=properties)


def _number_to_key(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def parse(source: str) -> ast.Program:
    """Parse ``source`` text into a :class:`repro.js.ast.Program`."""
    return Parser(tokenize(source)).parse_program()


def parse_expression(source: str) -> ast.Node:
    """Parse a single expression (used by tests and the REPL helper)."""
    parser = Parser(tokenize(source))
    expression = parser.parse_expression()
    token = parser._peek()
    if token.type != "eof":
        raise JSSyntaxError(
            f"unexpected trailing token {token.value!r}", token.line, token.column
        )
    return expression
