"""AST node definitions for the mini-JavaScript engine.

Plain dataclasses, one per grammar production.  Every node carries the
``line`` of its first token for error reporting.  The interpreter walks
these directly (no bytecode stage) — mirroring the paper's WebRacer, which
instrumented WebKit's *interpreter* (the JIT was disabled, Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class Node:
    """Base class for all AST nodes."""

    line: int = field(default=0, compare=False)


# ----------------------------------------------------------------------
# Expressions


@dataclass
class NumberLiteral(Node):
    """A numeric literal."""
    value: float = 0.0


@dataclass
class StringLiteral(Node):
    """A string literal."""
    value: str = ""


@dataclass
class BooleanLiteral(Node):
    """``true`` / ``false``."""
    value: bool = False


@dataclass
class NullLiteral(Node):
    """``null``."""
    pass


@dataclass
class UndefinedLiteral(Node):
    """``undefined``."""
    pass


@dataclass
class Identifier(Node):
    """A variable reference."""
    name: str = ""


@dataclass
class ThisExpression(Node):
    """``this``."""
    pass


@dataclass
class ArrayLiteral(Node):
    """``[a, b, ...]``; ``None`` marks an elision's hole (``[a, , b]``)."""
    elements: List[Optional[Node]] = field(default_factory=list)


@dataclass
class ObjectLiteral(Node):
    """``{key: value, ...}``."""

    #: (key, value) pairs; keys are already plain strings.
    properties: List[Tuple[str, Node]] = field(default_factory=list)


@dataclass
class FunctionExpression(Node):
    """``function name?(params) { body }`` as a value."""
    name: Optional[str] = None
    params: List[str] = field(default_factory=list)
    body: List[Node] = field(default_factory=list)


@dataclass
class MemberExpression(Node):
    """``object.property`` (``computed=False``) or ``object[expr]``."""

    object: Node = None
    property: Node = None
    computed: bool = False


@dataclass
class CallExpression(Node):
    """``callee(args...)``."""
    callee: Node = None
    arguments: List[Node] = field(default_factory=list)


@dataclass
class NewExpression(Node):
    """``new callee(args...)``."""
    callee: Node = None
    arguments: List[Node] = field(default_factory=list)


@dataclass
class UnaryExpression(Node):
    """Prefix operators: ``- + ! ~ typeof void delete``."""

    operator: str = ""
    operand: Node = None


@dataclass
class UpdateExpression(Node):
    """``++x``, ``x++``, ``--x``, ``x--``."""

    operator: str = ""
    operand: Node = None
    prefix: bool = True


@dataclass
class BinaryExpression(Node):
    """A non-short-circuit binary operator application."""
    operator: str = ""
    left: Node = None
    right: Node = None


@dataclass
class LogicalExpression(Node):
    """``&&`` / ``||`` with short-circuit evaluation."""

    operator: str = ""
    left: Node = None
    right: Node = None


@dataclass
class AssignmentExpression(Node):
    """``target op= value``; ``operator`` is ``=`` or a compound form."""

    operator: str = "="
    target: Node = None
    value: Node = None


@dataclass
class ConditionalExpression(Node):
    """``test ? consequent : alternate``."""
    test: Node = None
    consequent: Node = None
    alternate: Node = None


@dataclass
class SequenceExpression(Node):
    """Comma expressions: ``a, b, c`` evaluates all, yields the last."""

    expressions: List[Node] = field(default_factory=list)


# ----------------------------------------------------------------------
# Statements


@dataclass
class Program(Node):
    """A whole script: a list of top-level statements."""
    body: List[Node] = field(default_factory=list)


@dataclass
class ExpressionStatement(Node):
    """An expression evaluated for effect."""
    expression: Node = None


@dataclass
class VariableDeclaration(Node):
    """``var a = 1, b;``."""

    #: (name, initializer-or-None) pairs for ``var a = 1, b;``
    declarations: List[Tuple[str, Optional[Node]]] = field(default_factory=list)


@dataclass
class FunctionDeclaration(Node):
    """``function name(params) { body }`` (hoisted)."""
    name: str = ""
    params: List[str] = field(default_factory=list)
    body: List[Node] = field(default_factory=list)


@dataclass
class BlockStatement(Node):
    """``{ ... }``."""
    body: List[Node] = field(default_factory=list)


@dataclass
class IfStatement(Node):
    """``if (test) consequent else alternate``."""
    test: Node = None
    consequent: Node = None
    alternate: Optional[Node] = None


@dataclass
class WhileStatement(Node):
    """``while (test) body``."""
    test: Node = None
    body: Node = None


@dataclass
class DoWhileStatement(Node):
    """``do body while (test);``."""
    body: Node = None
    test: Node = None


@dataclass
class ForStatement(Node):
    """``for (init; test; update) body``."""
    init: Optional[Node] = None
    test: Optional[Node] = None
    update: Optional[Node] = None
    body: Node = None


@dataclass
class ForInStatement(Node):
    """``for (var? name in object) body``."""

    name: str = ""
    declares: bool = False
    object: Node = None
    body: Node = None


@dataclass
class ReturnStatement(Node):
    """``return argument?;``."""
    argument: Optional[Node] = None


@dataclass
class BreakStatement(Node):
    """``break;``."""
    pass


@dataclass
class ContinueStatement(Node):
    """``continue;``."""
    pass


@dataclass
class ThrowStatement(Node):
    """``throw argument;``."""
    argument: Node = None


@dataclass
class TryStatement(Node):
    """``try/catch/finally``."""
    block: Node = None
    catch_param: Optional[str] = None
    catch_block: Optional[Node] = None
    finally_block: Optional[Node] = None


@dataclass
class SwitchCase(Node):
    """One ``case test:`` or ``default:`` clause."""

    #: ``None`` test marks the ``default:`` clause.
    test: Optional[Node] = None
    body: List[Node] = field(default_factory=list)


@dataclass
class SwitchStatement(Node):
    """``switch (discriminant) { cases }``."""
    discriminant: Node = None
    cases: List[SwitchCase] = field(default_factory=list)


@dataclass
class EmptyStatement(Node):
    """A bare ``;``."""
    pass
