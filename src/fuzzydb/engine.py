"""Table storage, query execution, and result rendering.

Tables live in CSV files, one per table, whose header names the columns.
Plain columns hold their value directly; fuzzy columns hold the cell text of
the conversion-row protocol.  catalog.py's cell codec reads and writes the
cells of every column, plain or fuzzy.  Files are UTF-8 and may start with a
byte order mark.

load_table decodes each cell text once per column: one decoder per column
reads the text, repeated plain cells and cells of the small-vocabulary kinds
share one (immutable) value object, and repeated scalar pairs share one tuple.
run_query keeps the bytes and rows of every table file it read under the
current catalog and data dir in a weakref.WeakKeyDictionary, so they die
with that catalog: a reread of a file whose bytes did not change returns its
rows as they are, with one byte compare; any other reread serves each
unchanged one-line record by looking its line up, before the CSV reader, and
decodes only the records that changed.  A field longer than
csv.field_size_limit() is a DataFileError naming path:line, and save_table
refuses to write one.

save_table is the mirror of load_table: one encoder per column writes each
distinct value object once, straight to the cell text the column's decoder
reads, and refuses any value the decoder would reject or read differently.

A Result holds its columns as execute builds them, and format_result
renders them a column at a time: each distinct cell object of a column
becomes text once, through one table of text functions by value kind
(_KIND_TEXT, which render_value uses too), and the lines are joined from the
column texts, byte for byte as rendering row by row would write them.
_per_distinct is the one "once per distinct cell object" rule, of the
writer and the renderer.  execute holds no degree arithmetic: each
condition is one call of core.feq_column over its column.
The kernel, save_table and format_result read a plain cell that is not text
through one function, core.plain_number (format_number checks a float itself).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import operator
import os
import time
import weakref
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Callable, Dict, Iterable, List, Optional

from .catalog import AttributeDescriptor, Catalog, atomic_write, cell_decoder, cell_encoder
from .core import FuzzyValue, ValueKind, feq_column, fold_name, format_number, plain_number
from .errors import ConversionError, DataFileError, FuzzyDbError, undecodable_line
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
    decoded: int = field(default=0, compare=False)  # records load_table decoded, not reused

    def __post_init__(self):
        self._index = {fold_name(attr.column): i for i, attr in enumerate(self.schema)}

    def column_index(self, column: str) -> int:
        try:
            return self._index[fold_name(column)]
        except KeyError:
            raise DataFileError(f"table {self.name} has no column {column!r}") from None


# Kinds drawn from a small vocabulary, so their cell texts repeat within a
# table; the multi-number kinds rarely repeat and are not kept for sharing.
_SHARED_KINDS = frozenset(
    {ValueKind.UNKNOWN, ValueKind.UNDEFINED, ValueKind.NULL, ValueKind.CRISP, ValueKind.LABEL,
     ValueKind.SIMPLE}
)


def _per_distinct(fn: Callable[[Iterable], Iterable], column) -> list:
    """The result of each cell of column, where fn maps the distinct cells, in order, to theirs.

    save_table and the renderers use it.  Cells are told apart by object
    (their id): column keeps them alive, they cannot change (values are
    frozen, plain cells immutable), and load_table shares repeated ones, so
    one object's result serves all its cells.  Equal cells that encode or
    render differently stay apart (0.0 and -0.0, 1 and True).
    """
    keys = list(map(id, column))
    cells = dict(zip(keys, column))
    done = dict(zip(cells, fn(cells.values())))
    return list(map(done.__getitem__, keys))


def parse_cell(text: str, attr: AttributeDescriptor):
    """Parse one CSV cell for attr; returns a plain value or a FuzzyValue.

    Every malformed cell raises a DataFileError.  Numbers must be finite: inf
    and nan are rejected like any other non-number.
    """
    try:
        return cell_decoder(attr)(text)
    except FuzzyDbError as exc:
        raise DataFileError(str(exc)) from None


def format_cell(value, attr: AttributeDescriptor) -> str:
    """Inverse of parse_cell: the CSV text that parses back to value.

    It is the cell save_table writes.  A value that parse_cell would reject
    or read differently raises a FuzzyDbError instead.
    """
    return cell_encoder(attr)(value)


@dataclass
class RecordCache:
    """The table file read last through it: its bytes, and its rows in file order and by record text.

    A record's text is the line or lines it takes in the file.  load_table
    serves the held rows whole when the file's bytes are the held ones, and
    otherwise looks a one-line record up by its line before the CSV reader
    sees it.  The rows are reused only by a read of the same path under the
    same descriptor objects and the same header positions (which equal bytes
    have), which is all a row's decoding depends on besides its text (labels
    are only ever added, and that cannot change a row that decoded).
    run_query keeps one per table (_last_read).
    """

    source: Optional[tuple] = None  # (path, header position of each schema column, schema)
    data: Optional[bytes] = None  # the file's bytes
    rows: List[list] = field(default_factory=list)  # the decoded rows, in file order
    records: Dict[str, list] = field(default_factory=dict)  # record text -> decoded row

    def take(self):
        """Empty the cache; return the (source, data, rows, records) it held."""
        held = self.source, self.data, self.rows, self.records
        self.source, self.data, self.rows, self.records = None, None, [], {}
        return held


def _same_source(held, path: str, schema) -> bool:
    """Whether rows read from held serve a read of path under schema: same path, same descriptors."""
    return (held is not None and held[0] == path and len(held[2]) == len(schema)
            and all(map(operator.is_, held[2], schema)))


def load_table(
    path, table_name: str, catalog: Catalog, *, reuse: Optional[RecordCache] = None
) -> Table:
    """Read a table's CSV file, checking it against the catalog schema.

    The file must name exactly the registered columns (any order, any case);
    cells come back in schema order.  Errors name path:line, the line the
    record starts on (as save_table names it), and the column.  The file is
    UTF-8 and may start with a byte order mark.

    With reuse, the file's bytes are read first: if they are the bytes reuse
    holds, read from the same path under the same descriptor objects, its rows
    come back as they are and no record is decoded.  Otherwise only records
    whose text reuse does not hold are decoded, and reuse then holds this
    file's bytes and rows (shared, so not to be changed), or nothing if the
    read fails.  A line that reuse holds as a whole record is served by
    lookup, without the CSV reader: from a record boundary it is that record
    again.  The reader takes the other lines, and further ones only while a
    quoted field is open.  A cold read runs the same loop.
    """
    held = reuse.take() if reuse is not None else (None, None, [], {})
    held_source, held_data, held_rows, known = held
    schema = catalog.table_schema(table_name)
    by_name = {fold_name(attr.column): attr for attr in schema}
    try:
        binary = open(path, "rb")
    except OSError as exc:
        raise DataFileError(f"cannot open table file: {exc}") from None
    data = None
    if reuse is not None:
        try:
            data = binary.read()
        except OSError as exc:
            binary.close()
            raise DataFileError(f"cannot read table file: {exc}") from None
        if data == held_data and _same_source(held_source, os.fspath(path), schema):
            binary.close()
            reuse.source, reuse.data, reuse.rows, reuse.records = held
            return Table(catalog.table_name(table_name), list(schema), list(held_rows))
        binary.seek(0)  # the lines are read from the same open file, so they are data's
    f = io.TextIOWrapper(binary, encoding="utf-8-sig", newline="")
    pushed, taken = [], []  # the line handed to the reader; the further lines it took for it

    def feed():
        # the reader's input: the line pushed, else the next line of f, which the
        # reader asks for only for the header and while a quoted field is open
        while True:
            while pushed:
                yield pushed.pop()
            line = next(f, None)
            if line is None:
                return
            taken.append(line)
            yield line

    reader = csv.reader(feed())
    rows = []
    # Lines that start no row (the header's, blank ones, a record's further
    # lines): the record of row n starts on line n + other + 1, hits move nothing.
    other = 0

    def at() -> str:  # path:line on which the record being read starts
        return f"{path}:{len(rows) + other + 1}"

    with f:
        try:
            header = next(reader, None)
            if header is None:
                raise DataFileError(f"{path}:1: empty table file")
            other = reader.line_num
            taken.clear()
            folded = [fold_name(name.strip()) for name in header]
            if sorted(folded) != sorted(by_name):
                raise DataFileError(
                    f"{path}:1: header {header!r} does not match the registered columns "
                    f"{[a.column for a in schema]!r}"
                )
            positions = {name: i for i, name in enumerate(folded)}
            source = (os.fspath(path), [positions[fold_name(a.column)] for a in schema], schema)
            if not (_same_source(held_source, source[0], schema) and held_source[1] == source[1]):
                known = {}  # the old rows go before any record is decoded
            records = {} if reuse is not None else None
            # Per column: where its cells sit, its decoder, and the values already
            # decoded from each cell text, which repeated cells share (values are
            # frozen, plain ones immutable).
            columns = [(attr, src, cell_decoder(attr), {}) for attr, src in zip(schema, source[1])]
            decoded = 0
            for line in f:
                cells = known.get(line)
                if cells is None:
                    pushed.append(line)
                    raw = next(reader)
                    if not raw:
                        other += 1
                        continue
                    if taken:  # a multi-line record is known by all its lines
                        line += "".join(taken)
                        cells = known.get(line)
                    if cells is None:
                        if len(raw) != len(header):
                            raise DataFileError(
                                f"{at()}: expected {len(header)} cells, found {len(raw)}")
                        decoded += 1
                        cells = []
                        for attr, src, decode, seen in columns:
                            text = raw[src]
                            value = seen.get(text)
                            if value is None:
                                try:
                                    value = decode(text)
                                except FuzzyDbError as exc:
                                    raise DataFileError(
                                        f"{at()}: column {attr.column}: {exc}") from None
                                if not isinstance(value, FuzzyValue) or value.kind in _SHARED_KINDS:
                                    seen[text] = value
                            cells.append(value)
                    other += len(taken)
                    taken.clear()
                if records is not None:
                    records[line] = cells
                rows.append(cells)
        except UnicodeDecodeError:
            raise DataFileError(f"{path}:{undecodable_line(path)}: not valid UTF-8") from None
        except csv.Error as exc:  # a field longer than csv.field_size_limit(), say
            raise DataFileError(f"{at()}: {exc}") from None
    if reuse is not None:
        reuse.source, reuse.data, reuse.rows, reuse.records = source, data, rows, records
        rows = list(rows)
    return Table(catalog.table_name(table_name), list(schema), rows, decoded)


def _line_of(rows, r: int) -> int:
    """The line of the file save_table writes on which rows[r] starts.

    The header is line 1, and each row takes one line plus the line breaks
    its cells write, which only text cells hold.  The file is read back as
    load_table reads it: '\n', '\r' and '\r\n' each end a line.
    """
    texts = [cell for row in rows[:r] for cell in row if isinstance(cell, str)]
    return r + 2 + sum(t.count("\n") + t.count("\r") - t.count("\r\n") for t in texts)


def _encoded(encode: Callable[[object], str], cells: Iterable) -> List[str]:
    """encode's text for each cell; a ConversionError if one is longer than load_table reads."""
    texts = list(map(encode, cells))
    limit = csv.field_size_limit()
    if texts and max(map(len, texts)) > limit:
        raise ConversionError(f"field larger than field limit ({limit})")
    return texts


def save_table(table: Table, path) -> None:
    """Write a table back to CSV in schema order, replacing the file only once it is complete.

    Each column is encoded on its own, once per distinct value object, and
    every cell is encoded before <path>.tmp is opened: a cell that load_table
    would reject or read differently, a text longer than
    csv.field_size_limit() included, raises a ConversionError for the first
    such cell in row order, then column order, naming path:line (the line its
    row starts on) and the column, and leaves the old file as it was.
    """
    schema = table.schema
    for r, row in enumerate(table.rows):
        if len(row) != len(schema):
            raise ConversionError(
                f"{path}:{_line_of(table.rows, r)}: expected {len(schema)} cells, found {len(row)}")
    encoders = [cell_encoder(attr) for attr in schema]
    try:
        columns = [_per_distinct(functools.partial(_encoded, encode), column)
                   for encode, column in zip(encoders, zip(*table.rows))]
    except FuzzyDbError:
        for r, row in enumerate(table.rows):  # the first cell at fault
            for attr, encode, cell in zip(schema, encoders, row):
                try:
                    _encoded(encode, (cell,))
                except FuzzyDbError as exc:
                    raise ConversionError(
                        f"{path}:{_line_of(table.rows, r)}: column {attr.column}: {exc}") from None
        raise
    with atomic_write(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([attr.column for attr in schema])
        writer.writerows(zip(*columns))


@dataclass
class ExecutionStats:
    parse_seconds: float = 0.0
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    rows_in: int = 0
    rows_out: int = 0
    load_seconds: float = 0.0  # reading the table file; 0 for a table passed in memory
    rows_decoded: int = 0  # records of the table file decoded, not reused from its last read
    render_seconds: float = 0.0  # the last format_result of the result; not in total_seconds

    @property
    def total_seconds(self) -> float:
        """The time run_query took: load, parse, compile and execute, without rendering."""
        return self.load_seconds + self.parse_seconds + self.compile_seconds + self.execute_seconds


@dataclass
class Result:
    """columns[j] holds the cells under headers[j], all of one length.  They may be shared (with
    no WHERE, two CDEG(x) columns are one list), so they are not to be changed."""

    headers: List[str]
    columns: List[list]
    stats: ExecutionStats
    plan: Optional[CompiledPlan] = None

    @property
    def rows(self) -> List[list]:  # built from the columns on each read
        return list(map(list, zip(*self.columns)))


def _passes(node, degrees: List[List[float]]) -> List[bool]:
    """Whether each row satisfies the filter node, given every condition's degrees."""
    if isinstance(node, CompiledCondition):
        threshold = node.threshold
        return [d >= threshold for d in degrees[node.index]]
    children = [_passes(child, degrees) for child in node.children]
    return list(map(all if isinstance(node, And) else any, zip(*children)))


def execute(plan: CompiledPlan, table: Table) -> Result:
    """Run a compiled plan over a loaded table.

    Execution goes a column at a time: each condition's degrees are one
    core.feq_column over its column, feq's bit for bit.  The filter tree
    combines those degree lists, and the result holds the output columns as
    built, with no row lists; every kept row carries every condition's
    degree, even when another branch already decided it.  Row order is kept.

    A row whose width is not the schema's raises save_table's "expected N
    cells, found M" for the first such row, before any degree is computed.
    Then a cell that cannot be compared raises what feq raises for the first
    such cell in row order, then condition order; a plain cell that is not a
    number raises the ConversionError that core.plain_number gives for it.
    """
    start = time.perf_counter()
    rows = table.rows
    width = len(table.schema)
    if set(map(len, rows)) - {width}:
        found = next(n for n in map(len, rows) if n != width)
        raise ConversionError(f"expected {width} cells, found {found}")

    def cells(attr: AttributeDescriptor, of_rows) -> List[object]:
        return list(map(operator.itemgetter(table.column_index(attr.column)), of_rows))

    try:
        degrees = [feq_column(c.operand, c.attr, cells(c.attr, rows)) for c in plan.conditions]
    except FuzzyDbError:
        for row in rows:  # raise what the first cell at fault raises, in row order, then condition order
            for c in plan.conditions:
                feq_column(c.operand, c.attr, cells(c.attr, [row]))
        raise
    keep = None if plan.tree is None else _passes(plan.tree, degrees)
    kept = rows if keep is None else list(compress(rows, keep))
    columns = []
    for col in plan.outputs:
        if isinstance(col, PhysicalColumn):
            columns.append(cells(col.attr, kept))
        else:
            lists = [degrees[i] if keep is None else list(compress(degrees[i], keep))
                     for i in col.indexes]
            columns.append(lists[0] if len(lists) == 1 else list(map(min, *lists)))
    stats = ExecutionStats(
        execute_seconds=time.perf_counter() - start,
        rows_in=len(rows),
        rows_out=len(kept),
    )
    return Result(plan.headers(), columns, stats, plan)


# run_query's data_dir reads, by Catalog object: (data dir, {canonical table
# name: RecordCache}).  A read under another catalog or data dir empties it
# first, and an entry dies with its catalog: nothing in it refers to the catalog.
_last_read: weakref.WeakKeyDictionary[Catalog, tuple] = weakref.WeakKeyDictionary()


def run_query(
    text: str,
    catalog: Catalog,
    data_dir=None,
    tables: Optional[Dict[str, Table]] = None,
    default_threshold: float = 1.0,
) -> Result:
    """Parse, compile, and execute FSQL text; stats carry the phase timings.

    The table comes from the tables mapping when given, otherwise from
    <data_dir>/<table>.csv; only reading that file counts as load time, and
    only records changed since the last read of that table under the same
    catalog object and data dir are decoded (RecordCache, one per table, in _last_read).
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
    load_seconds = 0.0
    rows_decoded = 0
    if table is None and data_dir is not None:
        t3 = time.perf_counter()
        data_dir = os.fspath(data_dir)
        held = _last_read.get(catalog)
        if held is None or held[0] != data_dir:
            _last_read.clear()
            held = _last_read[catalog] = (data_dir, {})
        reuse = held[1].setdefault(catalog.table_name(plan.table), RecordCache())
        table = load_table(os.path.join(data_dir, plan.table + ".csv"), plan.table, catalog,
                           reuse=reuse)
        load_seconds = time.perf_counter() - t3
        rows_decoded = table.decoded
    if table is None:
        raise DataFileError(f"no data available for table {plan.table}")
    result = execute(plan, table)
    result.stats.load_seconds = load_seconds
    result.stats.rows_decoded = rows_decoded
    result.stats.parse_seconds = t1 - t0
    result.stats.compile_seconds = t2 - t1
    return result


# -- rendering ---------------------------------------------------------------


def _comma_number(x) -> str:
    return format_number(x).replace(".", ",")


# Each locale's number writer.  FORMATS and LOCALES are the CLI's choices too.
LOCALES = {"dot": format_number, "comma": _comma_number}


def _number_writer(locale: str) -> Callable[[float], str]:
    if locale not in LOCALES:
        raise ValueError(f"unknown locale {locale!r}")
    return LOCALES[locale]


def _pairs_text(value: FuzzyValue, number: Callable[[float], str]) -> str:
    return ", ".join([f"{number(p)}/{e}" for p, e in value.pairs])


# The text of each kind of fuzzy value, given the function that writes its
# numbers; label names and elements are written as they are.
_KIND_TEXT: Dict[ValueKind, Callable[..., str]] = {
    ValueKind.UNKNOWN: lambda v, number: "UNKNOWN",
    ValueKind.UNDEFINED: lambda v, number: "UNDEFINED",
    ValueKind.NULL: lambda v, number: "NULL",
    ValueKind.CRISP: lambda v, number: number(v.number),
    ValueKind.LABEL: lambda v, number: "$" + v.name,
    ValueKind.INTERVAL: lambda v, number: f"[{number(v.low)}, {number(v.high)}]",
    ValueKind.APPROX: lambda v, number: f"#{number(v.number)}~{number(v.margin)}",
    ValueKind.TRAPEZOID: lambda v, number: f"$[{', '.join(map(number, v.trap.corners()))}]",
    ValueKind.SIMPLE: _pairs_text,
    ValueKind.POSS_DIST: _pairs_text,
}


def _cell_text(plain: Callable[[float], str], inner: Callable[[float], str]) -> Callable[[object], str]:
    """The function that renders one result cell: a plain number with plain, the numbers
    inside a fuzzy value with inner."""
    def text(cell) -> str:
        if isinstance(cell, FuzzyValue):
            return _KIND_TEXT[cell.kind](cell, inner)
        if isinstance(cell, str):
            return cell
        return plain(cell if isinstance(cell, float) else plain_number(cell))

    return text


class _NumberTexts(dict):
    """write(x) for each number looked up, computed once per distinct value.

    Equal numbers write the same text, apart from 0.0 and -0.0, so zeros are
    written every time and never kept.
    """

    __slots__ = ("write",)

    def __init__(self, write: Callable[[float], str]):
        super().__init__()
        self.write = write

    def __missing__(self, x) -> str:
        text = self.write(x)
        if x:
            self[x] = text
        return text


def render_value(value, locale: str = "dot") -> str:
    """Human-readable form of one result cell, as format_result shows it.

    Plain values render as themselves, numbers as trimmed decimals.  Fuzzy
    values: the specials by name, $label, [low, high], #center~margin,
    $[a, b, c, d], and possibility pairs as 'degree/element'.  The comma
    locale writes ',' for the decimal point of numbers, never in a label
    name, an element or a text cell.  A locale not in LOCALES is a ValueError.
    """
    number = _number_writer(locale)
    return _cell_text(number, number)(value)


_json = json.JSONEncoder(ensure_ascii=False).encode  # as json.dumps(x, ensure_ascii=False)


def _json_cell(text: Callable[[object], str]) -> Callable[[object], str]:
    """The function that writes one jsonl cell as JSON: a fuzzy value as its text, a number
    as the other formats print it."""
    def json_cell(cell) -> str:
        if isinstance(cell, FuzzyValue):
            return _json(text(cell))
        if isinstance(cell, float):
            return format_number(cell)  # valid JSON, and the number the other formats print
        if isinstance(cell, str):
            return _json(cell)
        plain_number(cell)  # an int or a bool in a float's range, else a ConversionError
        # json writes an int as its repr and a bool as true or false; encode is slower on numbers
        return repr(cell) if type(cell) is int else _json(cell)

    return json_cell


def _table(result: Result, text: Callable[[object], str]) -> str:
    n = len(result.columns[0]) if result.columns else 0
    width = len(str(n))
    head = ["#".ljust(width)]
    body = [map(str.ljust, map(str, range(1, n + 1)), repeat(width))]

    def padded(cells) -> Iterable[str]:
        # the texts of one column's distinct cells, padded with its header (head's last) to one width
        texts = list(map(text, cells))
        width = max(map(len, [head[-1], *texts]))
        head[-1] = head[-1].ljust(width)
        return map(str.ljust, texts, repeat(width))

    for header, column in zip(result.headers, result.columns):
        head.append(header.upper())
        body.append(_per_distinct(padded, column))
    return "\n".join(["  ".join(head).rstrip(), *map(str.rstrip, map("  ".join, zip(*body))),
                      f"({n} row)" if n == 1 else f"({n} rows)"])


def _csv(result: Result, text: Callable[[object], str]) -> str:
    columns = [_per_distinct(functools.partial(map, text), column) for column in result.columns]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(result.headers)
    writer.writerows(zip(*columns))
    return out.getvalue().rstrip("\n")


def _jsonl(result: Result, text: Callable[[object], str]) -> str:
    columns = {}  # '"key": ' -> the column's cell texts; a key taken twice keeps its first place, its last column
    seen = {}  # the n-th repeat of a header (n >= 2) is keyed <header>#n
    for header, column in zip(result.headers, result.columns):
        seen[header] = n = seen.get(header, 0) + 1
        key = _json(header if n == 1 else f"{header}#{n}") + ": "
        columns[key] = _per_distinct(lambda cells: map(key.__add__, map(text, cells)), column)
    return "\n".join(["{" + ", ".join(line) + "}" for line in zip(*columns.values())])


# Each format's renderer, called with the function that writes one cell.
FORMATS = {"table": _table, "csv": _csv, "jsonl": _jsonl}


def format_result(result: Result, fmt: str = "table", locale: str = "dot") -> str:
    """Render a result as an aligned table, CSV text, or JSON lines.

    Each of result.columns is rendered on its own, once per distinct cell
    object, and the lines are joined from the column texts; the text is the
    one that rendering the rows one by one, cell by cell, gives.  A cell that
    cannot be rendered (a plain cell that is not text or a finite number)
    raises the error of the first such cell in row order, then column order.
    An unknown fmt or locale, or headers and columns of unequal number or
    length, is a ValueError raised first.  The time taken is set as
    result.stats.render_seconds.
    """
    start = time.perf_counter()
    render = FORMATS.get(fmt)
    if render is None:
        raise ValueError(f"unknown result format {fmt!r}")
    number = _number_writer(locale)
    if render is _jsonl:
        number = format_number  # jsonl writes its numbers with a dot
    lengths = list(map(len, result.columns))
    if len(lengths) != len(result.headers) or len(set(lengths)) > 1:
        raise ValueError(f"result has {len(result.headers)} headers and columns of lengths {lengths}")
    # A cell renders once per distinct object.  The numbers inside fuzzy values
    # (corners, degrees) also repeat across distinct cells, so they are written
    # once per distinct value; plain numbers gain nothing from that.
    text = _cell_text(number, _NumberTexts(number).__getitem__)
    if render is _jsonl:
        text = _json_cell(text)
    try:
        out = render(result, text)
    except FuzzyDbError:
        for row in zip(*result.columns):  # raise what the first cell at fault raises
            list(map(text, row))
        raise
    result.stats.render_seconds = time.perf_counter() - start
    return out
