"""Recursive-descent parser and canonical renderer for FSQL queries.

Grammar, with AND binding tighter than OR:

    query     := SELECT items FROM ident [WHERE or_expr] [";"]
    items     := item {"," item}
    item      := CDEG "(" column ")" | ident "." "%" | column
    column    := ident ["." ident]
    or_expr   := and_expr {OR and_expr}
    and_expr  := primary {AND primary}
    primary   := "(" or_expr ")" | condition
    condition := column FEQ operand [THOLD number]
    operand   := "$" ident | number
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..core import format_number
from ..errors import FsqlSyntaxError
from .lexer import Token, tokenize

Pos = Tuple[int, int]


def _pos_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ColumnRef:
    """A column mention, optionally qualified with its table."""

    table: Optional[str]
    column: str
    pos: Optional[Pos] = _pos_field()

    def render(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Wildcard:
    """table.% : every column of the table plus one degree column per condition."""

    table: str
    pos: Optional[Pos] = _pos_field()

    def render(self) -> str:
        return f"{self.table}.%"


@dataclass(frozen=True)
class CdegItem:
    """CDEG(column): the row's fulfilment degree for that column's conditions."""

    column: ColumnRef

    def render(self) -> str:
        return f"CDEG({self.column.render()})"


@dataclass(frozen=True)
class LabelOperand:
    name: str
    pos: Optional[Pos] = _pos_field()

    def render(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class NumberOperand:
    value: float
    pos: Optional[Pos] = _pos_field()

    def render(self) -> str:
        return format_number(self.value)


Operand = Union[LabelOperand, NumberOperand]


@dataclass(frozen=True)
class Condition:
    column: ColumnRef
    operand: Operand
    threshold: Optional[float] = None  # None means the compiler's default applies
    pos: Optional[Pos] = _pos_field()

    def render(self) -> str:
        text = f"{self.column.render()} FEQ {self.operand.render()}"
        if self.threshold is not None:
            text += f" THOLD {format_number(self.threshold)}"
        return text


@dataclass(frozen=True)
class And:
    """n-ary conjunction; parsing flattens nested ANDs."""

    children: Tuple[object, ...]


@dataclass(frozen=True)
class Or:
    """n-ary disjunction; parsing flattens nested ORs."""

    children: Tuple[object, ...]


BoolExpr = Union[Condition, And, Or]


def render_filter(node, leaf=lambda cond: cond.render()) -> str:
    """Text of an AND/OR tree; leaf gives each condition's text.

    AND binds tighter than OR, so only an OR under an AND needs parentheses.
    The leaves may be parsed or compiled conditions.
    """
    if not isinstance(node, (And, Or)):
        return leaf(node)
    parts = []
    for child in node.children:
        text = render_filter(child, leaf)
        parts.append(f"({text})" if isinstance(node, And) and isinstance(child, Or) else text)
    return (" AND " if isinstance(node, And) else " OR ").join(parts)


@dataclass(frozen=True)
class Query:
    items: Tuple[object, ...]
    table: str
    where: Optional[BoolExpr] = None
    table_pos: Optional[Pos] = _pos_field()

    def render(self) -> str:
        text = f"SELECT {', '.join(item.render() for item in self.items)} FROM {self.table}"
        if self.where is not None:
            text += f" WHERE {render_filter(self.where)}"
        return text + ";"

    def conditions(self) -> List[Condition]:
        """Every condition in the WHERE clause, in source order."""
        found = []

        def walk(node):
            if isinstance(node, Condition):
                found.append(node)
            elif isinstance(node, (And, Or)):
                for child in node.children:
                    walk(child)

        walk(self.where)
        return found


def render_query(query: Query) -> str:
    """Canonical single-line text; parsing it back yields an equal Query."""
    return query.render()


def _combine(op, children):
    """Join parsed children under op, flattening same-op nesting (associativity)."""
    if len(children) == 1:
        return children[0]
    flat = []
    for child in children:
        if isinstance(child, op):
            flat.extend(child.children)
        else:
            flat.append(child)
    return op(tuple(flat))


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "EOF":
            self.index += 1
        return token

    def accept(self, kind: str) -> Optional[Token]:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise FsqlSyntaxError(
                f"expected {what}, found {token.describe()}", token.line, token.column
            )
        return self.next()

    # -- grammar rules ----------------------------------------------------

    def query(self) -> Query:
        self.expect("SELECT", "SELECT")
        items = [self.item()]
        while self.accept("COMMA"):
            items.append(self.item())
        self.expect("FROM", "FROM")
        table = self.expect("IDENT", "a table name")
        where = None
        if self.accept("WHERE"):
            where = self.or_expr()
        self.accept("SEMI")
        token = self.peek()
        if token.kind != "EOF":
            raise FsqlSyntaxError(
                f"unexpected {token.describe()} after end of query", token.line, token.column
            )
        return Query(tuple(items), table.text, where, table_pos=(table.line, table.column))

    def item(self):
        if self.peek().kind == "CDEG":
            self.next()
            self.expect("LPAREN", "'('")
            column = self.column_ref()
            self.expect("RPAREN", "')'")
            return CdegItem(column)
        if self.peek().kind == "IDENT" and self.peek(1).kind == "DOT" and self.peek(2).kind == "PERCENT":
            table = self.next()
            self.next()
            self.next()
            return Wildcard(table.text, pos=(table.line, table.column))
        return self.column_ref()

    def column_ref(self) -> ColumnRef:
        first = self.expect("IDENT", "a column name")
        if self.peek().kind == "DOT" and self.peek(1).kind == "IDENT":
            self.next()
            second = self.next()
            return ColumnRef(first.text, second.text, pos=(first.line, first.column))
        return ColumnRef(None, first.text, pos=(first.line, first.column))

    def or_expr(self) -> BoolExpr:
        children = [self.and_expr()]
        while self.accept("OR"):
            children.append(self.and_expr())
        return _combine(Or, children)

    def and_expr(self) -> BoolExpr:
        children = [self.primary()]
        while self.accept("AND"):
            children.append(self.primary())
        return _combine(And, children)

    def primary(self) -> BoolExpr:
        if self.accept("LPAREN"):
            inner = self.or_expr()
            self.expect("RPAREN", "')'")
            return inner
        return self.condition()

    def condition(self) -> Condition:
        column = self.column_ref()
        self.expect("FEQ", "FEQ")
        operand = self.operand()
        threshold = None
        if self.accept("THOLD"):
            number = self.expect("NUMBER", "a threshold number")
            threshold = number.value
        return Condition(column, operand, threshold, pos=column.pos)

    def operand(self) -> Operand:
        token = self.peek()
        if token.kind == "LABEL":
            self.next()
            return LabelOperand(token.text, pos=(token.line, token.column))
        if token.kind == "NUMBER":
            self.next()
            return NumberOperand(token.value, pos=(token.line, token.column))
        raise FsqlSyntaxError(
            f"expected a $label or a number, found {token.describe()}", token.line, token.column
        )


def parse_query(source: str) -> Query:
    """Parse one SELECT statement; trailing input is an error."""
    return _Parser(tokenize(source)).query()
