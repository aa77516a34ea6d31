"""Catalog validation and lowering of parsed queries into executable plans.

Compilation resolves every name in the query against the catalog, attaches
attribute descriptors and resolved operands to each condition, expands
wildcards, and fixes the numbering that ties degree columns to conditions.
The result is self-contained: executing a plan needs only the table data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..catalog import AttributeDescriptor, Catalog, FuzzyType
from ..core import FuzzyValue, ValueKind, fold_name, format_number
from ..errors import CompileError
from .parser import (
    And,
    CdegItem,
    ColumnRef,
    Condition,
    LabelOperand,
    NumberOperand,
    Or,
    Query,
    Wildcard,
    parse_query,
    render_filter,
    render_query,
)


@dataclass(frozen=True)
class PhysicalColumn:
    """An output column copied straight from the table."""

    attr: AttributeDescriptor

    @property
    def header(self) -> str:
        return self.attr.column


@dataclass(frozen=True)
class DegreeColumn:
    """An output column carrying fulfilment degrees.

    indexes lists the plan conditions it reports on; several conditions on
    the same column combine through min.
    """

    header: str
    indexes: Tuple[int, ...]


OutputColumn = Union[PhysicalColumn, DegreeColumn]


@dataclass(frozen=True)
class CompiledCondition:
    """One FEQ comparison, fully resolved: attribute, operand value, threshold."""

    index: int
    attr: AttributeDescriptor
    operand: FuzzyValue
    threshold: float

    def render(self) -> str:
        if self.operand.kind is ValueKind.LABEL:
            operand = f"${self.operand.name}"
        else:
            operand = format_number(self.operand.number)
        return f"{self.attr.column} FEQ {operand} THOLD {format_number(self.threshold)}"


# The filter tree reuses the parser's And/Or nodes with CompiledCondition leaves.
FilterNode = Union[CompiledCondition, And, Or]


@dataclass(frozen=True)
class CompiledPlan:
    table: str
    outputs: Tuple[OutputColumn, ...]
    conditions: Tuple[CompiledCondition, ...]
    tree: Optional[FilterNode]
    text: str

    def headers(self) -> List[str]:
        return [out.header for out in self.outputs]

    def explain(self) -> str:
        lines = [self.text, f"table: {self.table}"]
        lines.append("outputs:")
        for i, out in enumerate(self.outputs, start=1):
            if isinstance(out, PhysicalColumn):
                attr = out.attr
                kind = f"type {int(attr.ftype)}, {attr.domain_kind}"
                if attr.units:
                    kind += f", {attr.units}"
                lines.append(f"  {i}. {out.header} ({kind})")
            else:
                refs = ", ".join(str(j + 1) for j in out.indexes)
                lines.append(f"  {i}. {out.header} (degree of condition {refs})")
        if self.conditions:
            lines.append("conditions:")
            for cond in self.conditions:
                lines.append(f"  {cond.index + 1}. {cond.render()}")
            lines.append(f"filter: {render_filter(self.tree, lambda cond: str(cond.index + 1))}")
        else:
            lines.append("no filter: every row qualifies")
        return "\n".join(lines)


def _fail(message: str, pos) -> CompileError:
    if pos is None:
        return CompileError(message)
    return CompileError(message, pos[0], pos[1])


class _Compiler:
    def __init__(self, query: Query, catalog: Catalog, default_threshold: float):
        self.query = query
        self.catalog = catalog
        self.default_threshold = default_threshold
        self.conditions: List[CompiledCondition] = []

    def run(self) -> CompiledPlan:
        query = self.query
        if not self.catalog.has_table(query.table):
            raise _fail(f"unknown table {query.table!r}", query.table_pos)
        self.table = self.catalog.table_name(query.table)
        self.schema = self.catalog.table_schema(self.table)
        tree = self._filter(query.where) if query.where is not None else None
        outputs = []
        for item in query.items:
            outputs.extend(self._output(item))
        return CompiledPlan(
            table=self.table,
            outputs=tuple(outputs),
            conditions=tuple(self.conditions),
            tree=tree,
            text=render_query(query),
        )

    def _resolve_column(self, ref: ColumnRef) -> AttributeDescriptor:
        if ref.table is not None and fold_name(ref.table) != fold_name(self.table):
            raise _fail(f"{ref.render()} does not belong to table {self.table}", ref.pos)
        attr = self.catalog.find(self.table, ref.column)
        if attr is None:
            raise _fail(f"table {self.table} has no column {ref.column!r}", ref.pos)
        return attr

    def _output(self, item) -> List[OutputColumn]:
        if isinstance(item, Wildcard):
            if fold_name(item.table) != fold_name(self.table):
                raise _fail(f"{item.render()} does not match table {self.table}", item.pos)
            out: List[OutputColumn] = [PhysicalColumn(attr) for attr in self.schema]
            for cond in self.conditions:
                out.append(DegreeColumn(f"CDEG({cond.attr.column})", (cond.index,)))
            return out
        if isinstance(item, CdegItem):
            attr = self._resolve_column(item.column)
            indexes = tuple(c.index for c in self.conditions if c.attr is attr)
            if not indexes:
                raise _fail(
                    f"CDEG({item.column.render()}): no condition references {attr.qualified}",
                    item.column.pos,
                )
            return [DegreeColumn(f"CDEG({attr.column})", indexes)]
        return [PhysicalColumn(self._resolve_column(item))]

    def _filter(self, node) -> FilterNode:
        if isinstance(node, Condition):
            return self._condition(node)
        if isinstance(node, (And, Or)):
            return type(node)(tuple(self._filter(child) for child in node.children))
        raise CompileError(f"unsupported filter node {type(node).__name__}")

    def _condition(self, cond: Condition) -> CompiledCondition:
        attr = self._resolve_column(cond.column)
        if attr.ftype is FuzzyType.PRECISE and attr.domain_kind != "numeric":
            raise _fail(
                f"{attr.qualified} stores plain text and cannot be fuzzy-compared", cond.pos
            )
        operand = cond.operand
        if isinstance(operand, LabelOperand):
            ld = attr.find_label(operand.name)
            if ld is None:
                raise _fail(
                    f"label ${operand.name} is not defined for {attr.qualified}", operand.pos
                )
            value = FuzzyValue.label(ld.name)
        elif isinstance(operand, NumberOperand):
            if attr.ftype is FuzzyType.FUZZY_SCALAR:
                raise _fail(
                    f"{attr.qualified} has an unordered domain; compare against a $label",
                    operand.pos,
                )
            value = FuzzyValue.crisp(operand.value)
        else:
            raise _fail(f"unsupported operand {operand!r}", cond.pos)
        threshold = cond.threshold if cond.threshold is not None else self.default_threshold
        if not 0.0 <= threshold <= 1.0:
            raise _fail(f"THOLD must be in [0, 1], got {format_number(threshold)}", cond.pos)
        compiled = CompiledCondition(len(self.conditions), attr, value, threshold)
        self.conditions.append(compiled)
        return compiled


def compile_query(query, catalog: Catalog, default_threshold: float = 1.0) -> CompiledPlan:
    """Validate a parsed query (or FSQL text) against a catalog and lower it."""
    if isinstance(query, str):
        query = parse_query(query)
    return _Compiler(query, catalog, default_threshold).run()
