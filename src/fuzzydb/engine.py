"""Table storage, query execution, and result rendering.

Tables live in CSV files, one per table, whose header names the columns.
Plain columns hold their value directly; fuzzy columns hold a compact cell
syntax: the conversion-row fields joined with ';', labels and scalar domain
elements written by name.  Examples:

    26              plain number            (precise column)
    0               unknown                 (any fuzzy column)
    3;26;;;         the crisp number 26     (ordered column)
    4;optima;;;     the label $optima       (ordered column)
    5;60;;;70       the interval [60, 70]   (ordered column)
    6;70;65;75;5    about 70, margin 5      (ordered column)
    7;25;5;-5;45    trapezoid 25,30,40,45   (ordered column)
    3;1;blanco      1/blanco                (scalar column)
    4;0.4;rojo;0.6;azul                     (scalar column)

Numbers must be finite.  Files are UTF-8 and may start with a byte order mark.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .catalog import (
    AttributeDescriptor,
    Catalog,
    ConversionRow,
    FuzzyType,
    decode_row,
    encode_value,
)
from .core import FuzzyValue, ValueKind, feq, fold_name, format_number
from .errors import DataFileError, FuzzyDbError, undecodable_line
from .fsql.compiler import (
    CompiledCondition,
    CompiledPlan,
    PhysicalColumn,
    compile_query,
)
from .fsql.parser import And, parse_query


@dataclass
class Table:
    """One loaded table: column descriptors plus rows in file order."""

    name: str
    schema: List[AttributeDescriptor]
    rows: List[List[object]] = field(default_factory=list)

    def __post_init__(self):
        self._index = {fold_name(attr.column): i for i, attr in enumerate(self.schema)}

    def column_index(self, column: str) -> int:
        try:
            return self._index[fold_name(column)]
        except KeyError:
            raise DataFileError(f"table {self.name} has no column {column!r}") from None


def _finite(text: str) -> Optional[float]:
    """The number text spells, or None when it is not a finite number."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def parse_cell(text: str, attr: AttributeDescriptor):
    """Parse one CSV cell for attr; returns a plain value or a FuzzyValue.

    Numbers must be finite: inf and nan are rejected like any other non-number.
    """
    text = text.strip()
    if attr.ftype is FuzzyType.PRECISE:
        if attr.domain_kind != "numeric":
            return text
        value = _finite(text)
        if value is None:
            raise DataFileError(f"expected a finite number, got {text!r}")
        return value
    if not text:
        raise DataFileError("empty cell; use 2 for a null value")
    parts = [p.strip() for p in text.split(";")]
    code = _finite(parts[0])
    if code is None or not code.is_integer():
        raise DataFileError(f"expected a fuzzy type code, got {parts[0]!r}")
    ft = int(code)
    rest = parts[1:]
    if ft in (0, 1, 2):
        if any(rest):
            raise DataFileError(f"code {ft} cells carry no fields, got {text!r}")
        shape = (None,) * 4 if attr.ftype is FuzzyType.FUZZY_ORDERED else ()
        return decode_row(ConversionRow(ft, shape), attr)
    if attr.ftype is FuzzyType.FUZZY_ORDERED:
        if len(rest) > 4:
            raise DataFileError(f"too many fields in {text!r}")
        rest = rest + [""] * (4 - len(rest))
        fields = []
        for i, part in enumerate(rest):
            value = _finite(part) if part else None
            if value is not None or part == "":
                fields.append(value)
            elif ft == 4 and i == 0:
                # labels are stored by name in data files
                ld = attr.find_label(part)
                if ld is None:
                    raise DataFileError(f"label {part!r} is not defined for {attr.qualified}")
                fields.append(float(ld.fuzzy_id))
            else:
                raise DataFileError(f"expected a finite number, got {part!r}")
        return decode_row(ConversionRow(ft, tuple(fields)), attr)
    # scalar column: alternating degree and element fields
    if any(part == "" for part in rest):
        raise DataFileError(f"empty field in {text!r}")
    fields = []
    for i, part in enumerate(rest):
        value = _finite(part)
        if i % 2 == 0 and value is None:
            raise DataFileError(f"expected a degree, got {part!r}")
        fields.append(part if value is None else value)
    value = decode_row(ConversionRow(ft, tuple(fields)), attr)
    for _, element in value.pairs:
        if isinstance(element, str) and attr.find_label(element) is None:
            raise DataFileError(f"element {element!r} is not in the domain of {attr.qualified}")
    return value


def format_cell(value, attr: AttributeDescriptor) -> str:
    """Inverse of parse_cell: the CSV text that parses back to value."""
    if attr.ftype is FuzzyType.PRECISE:
        return format_number(value) if attr.domain_kind == "numeric" else str(value)
    row = encode_value(value, attr)
    if row.ft in (0, 1, 2):
        return str(row.ft)
    texts = [str(row.ft)]
    for i, x in enumerate(row.fields):
        if x is None:
            texts.append("")
        elif isinstance(x, str):
            texts.append(x)
        elif attr.ftype is FuzzyType.FUZZY_ORDERED and row.ft == 4 and i == 0:
            texts.append(attr.label_by_id(int(x)).name)
        else:
            texts.append(format_number(x))
    return ";".join(texts)


def _utf8_lines(f, path):
    """The lines of f; a byte that is not UTF-8 becomes a DataFileError naming its line."""
    try:
        yield from f
    except UnicodeDecodeError:
        raise DataFileError(f"{path}:{undecodable_line(path)}: not valid UTF-8") from None


def load_table(path, table_name: str, catalog: Catalog) -> Table:
    """Read a table's CSV file, checking it against the catalog schema.

    The file must name exactly the registered columns (any order, any case);
    cells come back in schema order.  Errors point at file, row, and column.
    The file is UTF-8 and may start with a byte order mark.
    """
    schema = catalog.table_schema(table_name)
    by_name = {fold_name(attr.column): attr for attr in schema}
    try:
        f = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataFileError(f"cannot open table file: {exc}") from None
    with f:
        reader = csv.reader(_utf8_lines(f, path))
        try:
            header = next(reader)
        except StopIteration:
            raise DataFileError(f"{path}: empty table file") from None
        folded = [fold_name(name.strip()) for name in header]
        if sorted(folded) != sorted(by_name):
            raise DataFileError(
                f"{path}: header {header!r} does not match the registered columns "
                f"{[a.column for a in schema]!r}"
            )
        positions = {name: i for i, name in enumerate(folded)}
        order = [positions[fold_name(attr.column)] for attr in schema]
        rows = []
        for raw in reader:
            if not raw:
                continue
            lineno = reader.line_num
            if len(raw) != len(header):
                raise DataFileError(
                    f"{path}:{lineno}: expected {len(header)} cells, found {len(raw)}"
                )
            cells = []
            for attr, src in zip(schema, order):
                try:
                    cells.append(parse_cell(raw[src], attr))
                except FuzzyDbError as exc:
                    raise DataFileError(
                        f"{path}:{lineno}: column {attr.column}: {exc}"
                    ) from None
            rows.append(cells)
    return Table(catalog.table_name(table_name), list(schema), rows)


def save_table(table: Table, path) -> None:
    """Write a table back to CSV in schema order."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([attr.column for attr in table.schema])
        for row in table.rows:
            writer.writerow([format_cell(cell, attr) for cell, attr in zip(row, table.schema)])


@dataclass
class ExecutionStats:
    parse_seconds: float = 0.0
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    rows_in: int = 0
    rows_out: int = 0

    @property
    def total_seconds(self) -> float:
        return self.parse_seconds + self.compile_seconds + self.execute_seconds


@dataclass
class Result:
    headers: List[str]
    rows: List[List[object]]
    stats: ExecutionStats
    plan: Optional[CompiledPlan] = None


def _condition_degree(cond: CompiledCondition, cell) -> float:
    value = cell if isinstance(cell, FuzzyValue) else FuzzyValue.crisp(cell)
    return feq(value, cond.operand, cond.attr)


def _satisfied(node, degrees: List[float]) -> bool:
    if isinstance(node, CompiledCondition):
        return degrees[node.index] >= node.threshold
    if isinstance(node, And):
        return all(_satisfied(child, degrees) for child in node.children)
    return any(_satisfied(child, degrees) for child in node.children)


def execute(plan: CompiledPlan, table: Table) -> Result:
    """Run a compiled plan over a loaded table.

    Every condition degree is computed for every row (one comparison per
    condition, no short-circuiting) so degree columns are complete even when
    another branch already decided the row.  Row order is preserved.
    """
    start = time.perf_counter()
    cond_slots = [table.column_index(cond.attr.column) for cond in plan.conditions]
    out_slots = [
        table.column_index(col.attr.column) if isinstance(col, PhysicalColumn) else None
        for col in plan.outputs
    ]
    out_rows = []
    for row in table.rows:
        degrees = [
            _condition_degree(cond, row[slot])
            for cond, slot in zip(plan.conditions, cond_slots)
        ]
        if plan.tree is not None and not _satisfied(plan.tree, degrees):
            continue
        out = []
        for col, slot in zip(plan.outputs, out_slots):
            if slot is not None:
                out.append(row[slot])
            else:
                out.append(min(degrees[i] for i in col.indexes))
        out_rows.append(out)
    stats = ExecutionStats(
        execute_seconds=time.perf_counter() - start,
        rows_in=len(table.rows),
        rows_out=len(out_rows),
    )
    return Result(plan.headers(), out_rows, stats, plan)


def run_query(
    text: str,
    catalog: Catalog,
    data_dir=None,
    tables: Optional[Dict[str, Table]] = None,
    default_threshold: float = 1.0,
) -> Result:
    """Parse, compile, and execute FSQL text; stats carry the phase timings.

    The table comes from the tables mapping when given, otherwise from
    <data_dir>/<table>.csv.  Loading time is not counted in the stats.
    """
    t0 = time.perf_counter()
    query = parse_query(text)
    t1 = time.perf_counter()
    plan = compile_query(query, catalog, default_threshold)
    t2 = time.perf_counter()
    table = None
    if tables is not None:
        for name, candidate in tables.items():
            if fold_name(name) == fold_name(plan.table):
                table = candidate
                break
    if table is None and data_dir is not None:
        table = load_table(os.path.join(data_dir, plan.table + ".csv"), plan.table, catalog)
    if table is None:
        raise DataFileError(f"no data available for table {plan.table}")
    result = execute(plan, table)
    result.stats.parse_seconds = t1 - t0
    result.stats.compile_seconds = t2 - t1
    return result


# -- rendering ---------------------------------------------------------------


def _localize(text: str, locale: str) -> str:
    return text.replace(".", ",") if locale == "comma" else text


def render_value(value, locale: str = "dot") -> str:
    """Human-readable form of one result cell.

    Plain values render as themselves, degrees as trimmed numbers.  Fuzzy
    values: the specials by name, $label, [low, high], #center~margin,
    $[a, b, c, d], and possibility pairs as 'degree/element'.
    """
    if not isinstance(value, FuzzyValue):
        if isinstance(value, str):
            return value
        return _localize(format_number(value), locale)
    k = value.kind
    if k is ValueKind.UNKNOWN:
        return "UNKNOWN"
    if k is ValueKind.UNDEFINED:
        return "UNDEFINED"
    if k is ValueKind.NULL:
        return "NULL"
    if k is ValueKind.CRISP:
        return _localize(format_number(value.number), locale)
    if k is ValueKind.LABEL:
        return f"${value.name}"
    if k is ValueKind.INTERVAL:
        return f"[{_localize(format_number(value.low), locale)}, " \
               f"{_localize(format_number(value.high), locale)}]"
    if k is ValueKind.APPROX:
        return f"#{_localize(format_number(value.number), locale)}" \
               f"~{_localize(format_number(value.margin), locale)}"
    if k is ValueKind.TRAPEZOID:
        corners = ", ".join(_localize(format_number(x), locale) for x in value.trap.corners())
        return f"$[{corners}]"
    parts = []
    for p, e in value.pairs:
        element = e if isinstance(e, str) else _localize(format_number(e), locale)
        parts.append(f"{_localize(format_number(p), locale)}/{element}")
    return ", ".join(parts)


def format_result(result: Result, fmt: str = "table", locale: str = "dot") -> str:
    """Render a result as an aligned table, CSV text, or JSON lines."""
    if fmt == "table":
        headers = ["#"] + [h.upper() for h in result.headers]
        grid = [headers]
        for i, row in enumerate(result.rows, start=1):
            grid.append([str(i)] + [render_value(cell, locale) for cell in row])
        widths = [max(len(line[i]) for line in grid) for i in range(len(headers))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in grid]
        n = result.stats.rows_out
        lines.append(f"({n} row)" if n == 1 else f"({n} rows)")
        return "\n".join(lines)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(result.headers)
        for row in result.rows:
            writer.writerow([render_value(cell, locale) for cell in row])
        return out.getvalue().rstrip("\n")
    if fmt == "jsonl":
        lines = []
        for row in result.rows:
            record = {}
            for header, cell in zip(result.headers, row):
                if isinstance(cell, FuzzyValue):
                    record[header] = render_value(cell)
                elif isinstance(cell, float) and cell == int(cell):
                    record[header] = int(cell)
                else:
                    record[header] = cell
            lines.append(json.dumps(record, ensure_ascii=False))
        return "\n".join(lines)
    raise ValueError(f"unknown result format {fmt!r}")
