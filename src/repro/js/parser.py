"""Recursive-descent parser for the mini-JavaScript engine.

Consumes the token list from :mod:`repro.js.lexer` and builds the AST of
:mod:`repro.js.ast`.  Statements dispatch on their first token through a
table built once.  Expressions use precedence climbing with the standard
JavaScript operator table over operands that one method parses whole:
prefix operators, a primary, its member and call tail, and a postfix
``++``/``--``.  Automatic semicolon insertion is supported in the pragmatic
form real pages rely on: a statement may end at a ``}``, at end-of-input,
or at a line break before the next token.

The parser tests tokens by *kind*: a punctuator's text, else the token's
type (``ident``, ``num``, ``str``, ``eof`` or the keyword itself).
Punctuators are symbols and types are words, so one comparison tells
both.  Nodes are built positionally, ``line`` first and then their fields
in declaration order.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import ast
from .errors import JSSyntaxError
from .lexer import KEYWORDS, Token, tokenize

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

_PREFIX_OPERATORS = frozenset(
    ["-", "+", "!", "~", "typeof", "void", "delete", "++", "--"]
)

#: What may name a property after ``.`` or as an object literal key.
_PROPERTY_NAMES = KEYWORDS | {"ident"}

#: What ``++``, ``--`` and assignments may target.
_REFERENCES = (ast.Identifier, ast.MemberExpression)


class Parser:
    """Parses a token list into a :class:`repro.js.ast.Program`."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        #: Each token's kind (see the module docstring); a token is
        #: ``(type, value, line, column)``.
        self.kinds = [
            token[1] if token[0] == "punct" else token[0] for token in tokens
        ]
        #: The next token.  The list ends in ``eof`` and the parser only
        #: moves past a token it has matched, so it never passes ``eof``.
        self.pos = 0
        #: When parsing a ``for (init ...`` head, the ``in`` operator must
        #: not be consumed as a binary operator; this flag suppresses it.
        #: Brackets, literals, argument lists and function bodies nested
        #: in the head allow ``in`` again, each restoring the enclosing
        #: setting when it ends.  A syntax error abandons the parse, so
        #: nothing restores it on the way out.
        self._no_in = False

    # ------------------------------------------------------------------
    # token helpers

    def _error(self, message: str) -> JSSyntaxError:
        token = self.tokens[self.pos]
        return JSSyntaxError(message, token.line, token.column)

    def _expect(self, kind: str) -> Token:
        """Consume the next token, which must be of ``kind``."""
        pos = self.pos
        token = self.tokens[pos]
        if self.kinds[pos] != kind:
            raise self._error(f"expected {kind!r}, found {token.value!r}")
        self.pos = pos + 1
        return token

    def _expect_ident(self) -> str:
        pos = self.pos
        token = self.tokens[pos]
        if self.kinds[pos] != "ident":
            raise self._error(f"expected identifier, found {token.value!r}")
        self.pos = pos + 1
        return token.value

    def _line_break_before(self) -> bool:
        """True if a newline separates the previous token from the next."""
        pos = self.pos
        return pos > 0 and self.tokens[pos].line > self.tokens[pos - 1].line

    def _consume_semicolon(self) -> None:
        """Consume ``;`` or apply automatic semicolon insertion."""
        kind = self.kinds[self.pos]
        if kind == ";":
            self.pos += 1
        elif kind != "}" and kind != "eof" and not self._line_break_before():
            token = self.tokens[self.pos]
            raise self._error(f"expected ';', found {token.value!r}")

    def _parenthesized(self) -> ast.Node:
        """``( expression )`` after ``if``, ``while`` or ``switch``."""
        self._expect("(")
        expression = self.parse_expression()
        self._expect(")")
        return expression

    # ------------------------------------------------------------------
    # program & statements

    def parse_program(self) -> ast.Program:
        """Parse the whole token stream into a Program."""
        body: List[ast.Node] = []
        kinds = self.kinds
        while kinds[self.pos] != "eof":
            body.append(self.parse_statement())
        return ast.Program(self.tokens[0].line, body)

    def parse_statement(self) -> ast.Node:
        """Parse one statement."""
        handler = _STATEMENTS.get(self.kinds[self.pos])
        if handler is not None:
            return handler(self)
        line = self.tokens[self.pos].line
        expression = self.parse_expression()
        self._consume_semicolon()
        return ast.ExpressionStatement(line, expression)

    def _parse_empty(self) -> ast.EmptyStatement:
        token = self.tokens[self.pos]
        self.pos += 1
        return ast.EmptyStatement(token.line)

    def _parse_block(self) -> ast.BlockStatement:
        start = self._expect("{")
        return ast.BlockStatement(start.line, self._parse_block_rest())

    def _parse_block_rest(self) -> List[ast.Node]:
        """The statements after a ``{``, through its ``}``."""
        body: List[ast.Node] = []
        kinds = self.kinds
        while True:
            kind = kinds[self.pos]
            if kind == "}":
                self.pos += 1
                return body
            if kind == "eof":
                raise self._error("unterminated block")
            body.append(self.parse_statement())

    def _parse_var(self) -> ast.VariableDeclaration:
        start = self.tokens[self.pos]
        self.pos += 1
        declarations = self._parse_var_declarations()
        self._consume_semicolon()
        return ast.VariableDeclaration(start.line, declarations)

    def _parse_var_declarations(
        self,
    ) -> List[Tuple[str, Optional[ast.Node]]]:
        declarations: List[Tuple[str, Optional[ast.Node]]] = []
        kinds = self.kinds
        while True:
            name = self._expect_ident()
            init: Optional[ast.Node] = None
            if kinds[self.pos] == "=":
                self.pos += 1
                init = self.parse_assignment()
            declarations.append((name, init))
            if kinds[self.pos] != ",":
                return declarations
            self.pos += 1

    def _parse_function_declaration(self) -> ast.FunctionDeclaration:
        start = self.tokens[self.pos]
        self.pos += 1
        name = self._expect_ident()
        params, body = self._parse_function_rest()
        return ast.FunctionDeclaration(start.line, name, params, body)

    def _parse_function_rest(self) -> Tuple[List[str], List[ast.Node]]:
        """Parse ``(params) { body }`` shared by declarations/expressions."""
        self._expect("(")
        params: List[str] = []
        kinds = self.kinds
        if kinds[self.pos] != ")":
            while True:
                params.append(self._expect_ident())
                if kinds[self.pos] != ",":
                    break
                self.pos += 1
        self._expect(")")
        saved, self._no_in = self._no_in, False
        self._expect("{")
        body = self._parse_block_rest()
        self._no_in = saved
        return params, body

    def _parse_if(self) -> ast.IfStatement:
        start = self.tokens[self.pos]
        self.pos += 1
        test = self._parenthesized()
        consequent = self.parse_statement()
        alternate: Optional[ast.Node] = None
        if self.kinds[self.pos] == "else":
            self.pos += 1
            alternate = self.parse_statement()
        return ast.IfStatement(start.line, test, consequent, alternate)

    def _parse_while(self) -> ast.WhileStatement:
        start = self.tokens[self.pos]
        self.pos += 1
        test = self._parenthesized()
        return ast.WhileStatement(start.line, test, self.parse_statement())

    def _parse_do_while(self) -> ast.DoWhileStatement:
        start = self.tokens[self.pos]
        self.pos += 1
        body = self.parse_statement()
        self._expect("while")
        test = self._parenthesized()
        self._consume_semicolon()
        return ast.DoWhileStatement(start.line, body, test)

    def _parse_for(self) -> ast.Node:
        line = self.tokens[self.pos].line
        self.pos += 1
        self._expect("(")
        kinds = self.kinds
        declares = kinds[self.pos] == "var"
        if declares:
            self.pos += 1
        pos = self.pos
        if kinds[pos] == "ident" and kinds[pos + 1] == "in":
            name = self.tokens[pos].value
            self.pos = pos + 2
            obj = self.parse_expression()
            self._expect(")")
            body = self.parse_statement()
            return ast.ForInStatement(line, name, declares, obj, body)
        init: Optional[ast.Node] = None
        if declares or kinds[pos] != ";":
            saved, self._no_in = self._no_in, True
            if declares:
                init = ast.VariableDeclaration(line, self._parse_var_declarations())
            else:
                init = ast.ExpressionStatement(line, self.parse_expression())
            self._no_in = saved
        self._expect(";")
        test = None if kinds[self.pos] == ";" else self.parse_expression()
        self._expect(";")
        update = None if kinds[self.pos] == ")" else self.parse_expression()
        self._expect(")")
        body = self.parse_statement()
        return ast.ForStatement(line, init, test, update, body)

    def _parse_return(self) -> ast.ReturnStatement:
        start = self.tokens[self.pos]
        self.pos += 1
        argument: Optional[ast.Node] = None
        kind = self.kinds[self.pos]
        if (
            kind != ";"
            and kind != "}"
            and kind != "eof"
            and not self._line_break_before()
        ):
            argument = self.parse_expression()
        self._consume_semicolon()
        return ast.ReturnStatement(start.line, argument)

    def _parse_break(self) -> ast.BreakStatement:
        start = self.tokens[self.pos]
        self.pos += 1
        self._consume_semicolon()
        return ast.BreakStatement(start.line)

    def _parse_continue(self) -> ast.ContinueStatement:
        start = self.tokens[self.pos]
        self.pos += 1
        self._consume_semicolon()
        return ast.ContinueStatement(start.line)

    def _parse_throw(self) -> ast.ThrowStatement:
        start = self.tokens[self.pos]
        self.pos += 1
        if self._line_break_before():
            raise self._error("newline not allowed after 'throw'")
        argument = self.parse_expression()
        self._consume_semicolon()
        return ast.ThrowStatement(start.line, argument)

    def _parse_try(self) -> ast.TryStatement:
        start = self.tokens[self.pos]
        self.pos += 1
        block = self._parse_block()
        catch_param: Optional[str] = None
        catch_block: Optional[ast.Node] = None
        finally_block: Optional[ast.Node] = None
        kinds = self.kinds
        if kinds[self.pos] == "catch":
            self.pos += 1
            self._expect("(")
            catch_param = self._expect_ident()
            self._expect(")")
            catch_block = self._parse_block()
        if kinds[self.pos] == "finally":
            self.pos += 1
            finally_block = self._parse_block()
        if catch_block is None and finally_block is None:
            raise self._error("try requires catch or finally")
        return ast.TryStatement(
            start.line, block, catch_param, catch_block, finally_block
        )

    def _parse_switch(self) -> ast.SwitchStatement:
        start = self.tokens[self.pos]
        self.pos += 1
        discriminant = self._parenthesized()
        self._expect("{")
        cases: List[ast.SwitchCase] = []
        seen_default = False
        kinds = self.kinds
        while kinds[self.pos] != "}":
            token = self.tokens[self.pos]
            kind = kinds[self.pos]
            if kind == "case":
                self.pos += 1
                test: Optional[ast.Node] = self.parse_expression()
            elif kind == "default":
                if seen_default:
                    raise self._error("duplicate default clause")
                seen_default = True
                self.pos += 1
                test = None
            else:
                raise self._error("expected 'case' or 'default'")
            self._expect(":")
            body: List[ast.Node] = []
            while kinds[self.pos] not in ("}", "case", "default"):
                body.append(self.parse_statement())
            cases.append(ast.SwitchCase(token.line, test, body))
        self.pos += 1
        return ast.SwitchStatement(start.line, discriminant, cases)

    # ------------------------------------------------------------------
    # expressions

    def parse_expression(self) -> ast.Node:
        """Full expression including comma sequences."""
        first = self.parse_assignment()
        kinds = self.kinds
        if kinds[self.pos] != ",":
            return first
        expressions = [first]
        while kinds[self.pos] == ",":
            self.pos += 1
            expressions.append(self.parse_assignment())
        return ast.SequenceExpression(first.line, expressions)

    def parse_assignment(self) -> ast.Node:
        """Parse an assignment-level expression (no commas)."""
        left = self._parse_unary()
        kind = self.kinds[self.pos]
        if kind in _BINARY_PRECEDENCE:
            left = self._parse_binary(left, 1)
            kind = self.kinds[self.pos]
        if kind == "?":
            self.pos += 1
            saved, self._no_in = self._no_in, False
            consequent = self.parse_assignment()
            self._no_in = saved
            self._expect(":")
            alternate = self.parse_assignment()
            # ``alternate`` took any assignment that follows.
            return ast.ConditionalExpression(left.line, left, consequent, alternate)
        if kind in _ASSIGNMENT_OPERATORS:
            if not isinstance(left, _REFERENCES):
                raise self._error("invalid assignment target")
            line = self.tokens[self.pos].line
            self.pos += 1
            value = self.parse_assignment()
            return ast.AssignmentExpression(line, kind, left, value)
        return left

    def _parse_binary(self, left: ast.Node, min_precedence: int) -> ast.Node:
        """Extend ``left`` with operators binding at ``min_precedence`` or
        tighter."""
        kinds = self.kinds
        while True:
            kind = kinds[self.pos]
            precedence = _BINARY_PRECEDENCE.get(kind, 0)
            if precedence < min_precedence or (kind == "in" and self._no_in):
                return left
            line = self.tokens[self.pos].line
            self.pos += 1
            right = self._parse_unary()
            if _BINARY_PRECEDENCE.get(kinds[self.pos], 0) > precedence:
                right = self._parse_binary(right, precedence + 1)
            if kind == "&&" or kind == "||":
                left = ast.LogicalExpression(line, kind, left, right)
            else:
                left = ast.BinaryExpression(line, kind, left, right)

    def _parse_unary(self) -> ast.Node:
        """One operand: prefix operators, a primary expression, its member
        accesses and calls, and a postfix ``++``/``--``."""
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "ident":
            token = self.tokens[pos]
            self.pos = pos + 1
            expression: ast.Node = ast.Identifier(token.line, token.value)
        elif kind in _PREFIX_OPERATORS:
            line = self.tokens[pos].line
            self.pos = pos + 1
            operand = self._parse_unary()
            if kind == "++" or kind == "--":
                if not isinstance(operand, _REFERENCES):
                    raise self._error("invalid increment/decrement target")
                return ast.UpdateExpression(line, kind, operand, True)
            return ast.UnaryExpression(line, kind, operand)
        else:
            expression = self._parse_primary()
        kinds = self.kinds
        while True:
            pos = self.pos
            kind = kinds[pos]
            if kind == "." or kind == "[":
                expression = self._parse_member(expression)
            elif kind == "(":
                line = self.tokens[pos].line
                expression = ast.CallExpression(
                    line, expression, self._parse_arguments()
                )
            else:
                break
        if (kind == "++" or kind == "--") and not self._line_break_before():
            if not isinstance(expression, _REFERENCES):
                raise self._error("invalid increment/decrement target")
            line = self.tokens[pos].line
            self.pos = pos + 1
            return ast.UpdateExpression(line, kind, expression, False)
        return expression

    def _parse_member(self, obj: ast.Node) -> ast.MemberExpression:
        """``obj.name`` or ``obj[expression]``; the next token is the ``.``
        or ``[``."""
        pos = self.pos
        line = self.tokens[pos].line
        self.pos = pos + 1
        if self.kinds[pos] == ".":
            # Member names after ``.`` may be identifiers or keywords.
            if self.kinds[pos + 1] not in _PROPERTY_NAMES:
                token = self.tokens[pos + 1]
                raise self._error(f"expected property name, found {token.value!r}")
            self.pos = pos + 2
            name = ast.StringLiteral(line, self.tokens[pos + 1].value)
            return ast.MemberExpression(line, obj, name, False)
        saved, self._no_in = self._no_in, False
        index = self.parse_expression()
        self._no_in = saved
        self._expect("]")
        return ast.MemberExpression(line, obj, index, True)

    def _parse_new(self) -> ast.NewExpression:
        """``new callee`` with its arguments if a ``(`` follows; the callee
        takes member accesses but no call."""
        line = self.tokens[self.pos].line
        self.pos += 1
        kinds = self.kinds
        if kinds[self.pos] == "new":
            callee = self._parse_new()
        else:
            callee = self._parse_primary()
            while kinds[self.pos] == "." or kinds[self.pos] == "[":
                callee = self._parse_member(callee)
        arguments = self._parse_arguments() if kinds[self.pos] == "(" else []
        return ast.NewExpression(line, callee, arguments)

    def _parse_arguments(self) -> List[ast.Node]:
        """``(arguments)``; the next token is the ``(``."""
        self.pos += 1
        arguments: List[ast.Node] = []
        kinds = self.kinds
        if kinds[self.pos] != ")":
            saved, self._no_in = self._no_in, False
            while True:
                arguments.append(self.parse_assignment())
                if kinds[self.pos] != ",":
                    break
                self.pos += 1
            self._no_in = saved
        self._expect(")")
        return arguments

    def _parse_primary(self) -> ast.Node:
        pos = self.pos
        token = self.tokens[pos]
        kind = self.kinds[pos]
        if kind == "ident":
            self.pos = pos + 1
            return ast.Identifier(token.line, token.value)
        if kind == "str":
            self.pos = pos + 1
            return ast.StringLiteral(token.line, token.value)
        if kind == "num":
            self.pos = pos + 1
            return ast.NumberLiteral(token.line, token.value)
        if kind == "(":
            self.pos = pos + 1
            saved, self._no_in = self._no_in, False
            expression = self.parse_expression()
            self._no_in = saved
            self._expect(")")
            return expression
        if kind == "this":
            self.pos = pos + 1
            return ast.ThisExpression(token.line)
        if kind == "function":
            return self._parse_function_expression()
        if kind == "{":
            return self._parse_object_literal()
        if kind == "[":
            return self._parse_array_literal()
        if kind == "new":
            return self._parse_new()
        if kind == "true" or kind == "false":
            self.pos = pos + 1
            return ast.BooleanLiteral(token.line, kind == "true")
        if kind == "null":
            self.pos = pos + 1
            return ast.NullLiteral(token.line)
        if kind == "undefined":
            self.pos = pos + 1
            return ast.UndefinedLiteral(token.line)
        raise self._error(f"unexpected token {token.value!r}")

    def _parse_function_expression(self) -> ast.FunctionExpression:
        start = self.tokens[self.pos]
        self.pos += 1
        name: Optional[str] = None
        if self.kinds[self.pos] == "ident":
            name = self._expect_ident()
        params, body = self._parse_function_rest()
        return ast.FunctionExpression(start.line, name, params, body)

    def _parse_array_literal(self) -> ast.ArrayLiteral:
        start = self.tokens[self.pos]
        self.pos += 1
        elements: List[ast.Node] = []
        kinds = self.kinds
        saved, self._no_in = self._no_in, False
        while kinds[self.pos] != "]":
            if kinds[self.pos] == ",":
                # Elision: `[1, , 3]` leaves an undefined hole.
                self.pos += 1
                elements.append(ast.UndefinedLiteral(start.line))
                continue
            elements.append(self.parse_assignment())
            if kinds[self.pos] != ",":
                break
            self.pos += 1
        self._no_in = saved
        self._expect("]")
        return ast.ArrayLiteral(start.line, elements)

    def _parse_object_literal(self) -> ast.ObjectLiteral:
        start = self.tokens[self.pos]
        self.pos += 1
        properties: List[Tuple[str, ast.Node]] = []
        kinds = self.kinds
        saved, self._no_in = self._no_in, False
        while kinds[self.pos] != "}":
            token = self.tokens[self.pos]
            kind = kinds[self.pos]
            if kind in _PROPERTY_NAMES or kind == "str":
                key = token.value
            elif kind == "num":
                key = _number_to_key(token.value)
            else:
                raise self._error(f"invalid property key {token.value!r}")
            self.pos += 1
            self._expect(":")
            properties.append((key, self.parse_assignment()))
            if kinds[self.pos] != ",":
                break
            self.pos += 1
        self._no_in = saved
        self._expect("}")
        return ast.ObjectLiteral(start.line, properties)


#: Statement parsers by the kind of their first token; any other token
#: starts an expression statement.
_STATEMENTS = {
    "{": Parser._parse_block,
    ";": Parser._parse_empty,
    "var": Parser._parse_var,
    "function": Parser._parse_function_declaration,
    "if": Parser._parse_if,
    "while": Parser._parse_while,
    "do": Parser._parse_do_while,
    "for": Parser._parse_for,
    "return": Parser._parse_return,
    "break": Parser._parse_break,
    "continue": Parser._parse_continue,
    "throw": Parser._parse_throw,
    "try": Parser._parse_try,
    "switch": Parser._parse_switch,
}


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
    token = parser.tokens[parser.pos]
    if token.type != "eof":
        raise JSSyntaxError(
            f"unexpected trailing token {token.value!r}", token.line, token.column
        )
    return expression
