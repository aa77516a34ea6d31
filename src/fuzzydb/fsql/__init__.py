"""FSQL front end: tokenizer, parser, and catalog-checked compiler."""

from .lexer import Token, tokenize
from .parser import (
    CdegItem,
    ColumnRef,
    Condition,
    And,
    Or,
    LabelOperand,
    NumberOperand,
    Query,
    Wildcard,
    parse_query,
    render_query,
)
from .compiler import (
    CompiledCondition,
    CompiledPlan,
    DegreeColumn,
    PhysicalColumn,
    compile_query,
)

__all__ = [
    "Token",
    "tokenize",
    "Query",
    "ColumnRef",
    "Wildcard",
    "CdegItem",
    "Condition",
    "And",
    "Or",
    "LabelOperand",
    "NumberOperand",
    "parse_query",
    "render_query",
    "CompiledPlan",
    "CompiledCondition",
    "PhysicalColumn",
    "DegreeColumn",
    "compile_query",
]
