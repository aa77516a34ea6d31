"""Attribute catalog: per-column fuzzy metadata and its on-disk form.

The catalog knows, for every table column, how its values are stored and
compared (the fuzzy type), which linguistic labels are defined over it, and,
for unordered domains, the similarity relation between domain elements.  It
also holds the one cell codec, which reads and writes the data-file cells of
every column, plain (type 1) or fuzzy, and the conversion-row protocol that
flattens fuzzy values into numeric records.

A catalog persists as three tab-separated files in one directory:

    attributes.tsv   table, column, type, domain, units
    labels.tsv       table, column, id, name, a, b, c, d
    similarity.tsv   table, column, name1, name2, degree

Headers are fixed and double as format version markers; loading a file with
a different header fails rather than guessing.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .core import (
    FuzzyValue,
    SimilarityRelation,
    Trapezoid,
    ValueKind,
    fold_name,
    format_number,
    plain_number,
)
from .errors import CatalogError, ConversionError, FuzzyDbError, FuzzyValueError, undecodable_line

ATTRIBUTES_FILE = "attributes.tsv"
LABELS_FILE = "labels.tsv"
SIMILARITY_FILE = "similarity.tsv"

_ATTRIBUTES_HEADER = ("table", "column", "type", "domain", "units")
_LABELS_HEADER = ("table", "column", "id", "name", "a", "b", "c", "d")
_SIMILARITY_HEADER = ("table", "column", "name1", "name2", "degree")

def _check_name(name, what: str) -> str:
    """name, when it is an ASCII identifier, the form of every catalog name; else a CatalogError."""
    if not isinstance(name, str) or not (name.isascii() and name.isidentifier()):
        raise CatalogError(f"{what} must be an identifier, got {name!r}")
    return name


class FuzzyType(enum.IntEnum):
    """How a column's values are stored and compared."""

    PRECISE = 1        # plain values; fuzzy querying through labels on numeric domains
    FUZZY_ORDERED = 2  # fuzzy values over an ordered numeric domain
    FUZZY_SCALAR = 3   # fuzzy values over an unordered scalar domain


@dataclass(frozen=True)
class LabelDefinition:
    """A named fuzzy constant attached to one attribute.

    Labels over ordered domains carry trapezoid corners.  Labels over scalar
    domains are bare domain elements; their meaning lives in the attribute's
    similarity relation.
    """

    fuzzy_id: int
    name: str
    trap: Optional[Trapezoid] = None

    def __post_init__(self):
        if not isinstance(self.fuzzy_id, int) or isinstance(self.fuzzy_id, bool):  # True saves as 'True'
            raise CatalogError(f"label id must be an integer, got {self.fuzzy_id!r}")
        if self.fuzzy_id < 1:
            raise CatalogError(f"label ids start at 1, got {self.fuzzy_id}")
        _check_name(self.name, "label name")


@dataclass
class AttributeDescriptor:
    """Everything known about one column.

    This is a plain record: it validates its own shape but applies no policy
    about which combinations a catalog accepts (register_attribute does that),
    so tests and tools can assemble descriptors directly.
    """

    table: str
    column: str
    ftype: int
    domain_kind: str = "numeric"
    units: Optional[str] = None
    labels: List[LabelDefinition] = field(default_factory=list)
    similarity: Optional[SimilarityRelation] = None

    def __post_init__(self):
        _check_name(self.table, "table name")
        _check_name(self.column, "column name")
        try:
            self.ftype = FuzzyType(self.ftype)
        except ValueError:
            raise CatalogError(f"fuzzy type must be 1, 2, or 3, got {self.ftype!r}") from None
        if self.domain_kind not in ("numeric", "scalar"):
            raise CatalogError(
                f"domain kind must be 'numeric' or 'scalar', got {self.domain_kind!r}"
            )
        if self.ftype is FuzzyType.FUZZY_ORDERED and self.domain_kind != "numeric":
            raise CatalogError(f"{self.qualified}: an ordered fuzzy column needs a numeric domain")
        # Lookup indexes over labels; attach_label keeps them in step.
        self._by_name = {}
        self._by_id = {}
        for ld in self.labels:
            self._by_name.setdefault(fold_name(ld.name), ld)
            self._by_id.setdefault(ld.fuzzy_id, ld)

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}"

    @property
    def key(self) -> Tuple[str, str]:
        return (fold_name(self.table), fold_name(self.column))

    def find_label(self, name: str) -> Optional[LabelDefinition]:
        return self._by_name.get(fold_name(name))

    def label_by_id(self, fuzzy_id: int) -> Optional[LabelDefinition]:
        return self._by_id.get(fuzzy_id)

    def next_label_id(self) -> int:
        return max((ld.fuzzy_id for ld in self.labels), default=0) + 1

    def trapezoid_for(self, name: str) -> Trapezoid:
        """Resolve a label name to its trapezoid; the resolver feq expects."""
        ld = self.find_label(name)
        if ld is None:
            raise CatalogError(f"label {name!r} is not defined for {self.qualified}")
        if ld.trap is None:
            raise CatalogError(f"label {name!r} of {self.qualified} has no trapezoid form")
        return ld.trap

    def attach_label(self, ld: LabelDefinition) -> None:
        """Append a label; the similarity relation, if any, gains it, similar only to itself.

        Catalog.register_attribute gives every unordered fuzzy column an empty
        relation, so its relation's domain is its label list.
        """
        key = fold_name(ld.name)
        if key in self._by_name:
            raise CatalogError(f"label {ld.name!r} is already defined for {self.qualified}")
        if self.label_by_id(ld.fuzzy_id) is not None:
            raise CatalogError(f"label id {ld.fuzzy_id} is already taken on {self.qualified}")
        if self.similarity is not None:
            self.similarity.add(ld.name)
        self.labels.append(ld)
        self._by_name[key] = ld
        self._by_id[ld.fuzzy_id] = ld


# -- cell codec and conversion-row protocol ---------------------------------
#
# A plain (type 1) cell holds a finite number or text, written as it is.
# A fuzzy cell is a storage code followed by ';'-separated fields; data files
# hold it as text, and a ConversionRow holds the same fields as numbers, names
# and None.  Examples of the text form:
#
#     0 / 1 / 2       unknown / undefined / null  (any fuzzy column)
#     3;26;;;         the crisp number 26         (ordered column)
#     4;optima;;;     the label $optima, or its id
#     5;60;;;70       the interval [60, 70]
#     6;70;65;75;5    about 70, margin 5; 65 and 75 may be left out, but when
#                     given must be 70-5 and 70+5 exactly
#     7;25;5;-5;45    trapezoid 25,30,40,45, stored as (a, b-a, c-d, d)
#     3;1;blanco      1/blanco                    (scalar column)
#     4;0.4;rojo;0.6;azul
#
# Numbers must be finite, fields may carry surrounding whitespace, and an
# ordered cell may leave out trailing empty fields.  One decoder reads both
# forms: decode_row writes a row's fields as text and hands them to it.  One
# encoder writes both: the cell encoder writes values straight to the text
# the decoder reads, and encode_value reads that text back as a row's fields.

FieldValue = Union[float, str, None]

# Codes 0..2 are the specials in both layouts; 3..7 depend on the column's domain.
_SPECIAL_KINDS = (ValueKind.UNKNOWN, ValueKind.UNDEFINED, ValueKind.NULL)
_CODES = {str(ft): ft for ft in range(8)}

# Which of an ordered cell's four fields each code needs: 'x' given, '.' empty, '?' either.
_ORDERED_SHAPES = {3: "x...", 4: "x...", 5: "x..x", 6: "x??x", 7: "xxxx"}
# The same table as the set of (given, given, given, given) patterns that fit each code.
_ORDERED_FITS = {
    ft: {given for given in itertools.product((False, True), repeat=4)
         if all(flag == "?" or (flag == "x") == g for flag, g in zip(shape, given))}
    for ft, shape in _ORDERED_SHAPES.items()
}


@dataclass(frozen=True)
class ConversionRow:
    """Flat persisted form of one fuzzy cell: a type code plus value fields.

    Ordered columns always carry four fields (unused ones are None); unordered
    columns carry an alternating (degree, element) list, empty for the special
    codes.  Equality is field-exact, which is what round-trip tests check.
    """

    ft: int
    fields: Tuple[FieldValue, ...] = ()

    def __post_init__(self):
        if self.ft not in range(8):
            raise ConversionError(f"unknown fuzzy type code {self.ft!r}")
        object.__setattr__(self, "fields", tuple(self.fields))


def _label(attr: AttributeDescriptor, name: str) -> LabelDefinition:
    ld = attr.find_label(name)
    if ld is None:
        raise ConversionError(f"label {name!r} is not defined")
    return ld


def _element(attr: AttributeDescriptor, name: str) -> str:
    """name, when it is one of attr's labels, the domain of a scalar column; else a ConversionError."""
    if attr.find_label(name) is None:
        raise ConversionError(f"element {name!r} is not in the domain")
    return name


def _edges(t: Trapezoid) -> Tuple[float, float]:
    """The edge widths (b-a, c-d) a code 7 cell stores; a ConversionError if one overflows."""
    left, right = t.b - t.a, t.c - t.d
    if not (math.isfinite(left) and math.isfinite(right)):
        corners = ", ".join(format_number(x) for x in t.corners())
        raise ConversionError(f"cannot store trapezoid [{corners}]: its edge width b-a or c-d overflows")
    return left, right


def parse_number(text: str) -> float:
    """The finite number text spells; anything else is a ConversionError."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        return value
    raise ConversionError(f"expected a finite number, got {text!r}")


def _finite(text: str) -> Optional[float]:
    """The number text spells, or None when it is not a finite number."""
    try:
        return parse_number(text)
    except ConversionError:
        return None


def _split(text: str) -> Tuple[int, List[str]]:
    """The storage code of a cell text and its stripped fields."""
    parts = text.split(";")
    head = parts[0].strip()
    ft = _CODES.get(head)
    if ft is None:
        if not head and len(parts) == 1:
            raise ConversionError("empty cell; use 2 for a null value")
        code = _finite(head)
        if code is None or not code.is_integer():
            raise ConversionError(f"expected a fuzzy type code, got {head!r}")
        if code not in range(8):
            raise ConversionError(f"unknown fuzzy type code {int(code)}")
        ft = int(code)
    fields = [p.strip() for p in parts[1:]]
    if ft < 3 and any(fields):
        raise ConversionError(f"code {ft} cells carry no fields, got {';'.join(fields)!r}")
    return ft, fields


def _decode_ordered(attr: AttributeDescriptor, text: str) -> FuzzyValue:
    ft, fields = _split(text)
    if ft < 3:
        return FuzzyValue(_SPECIAL_KINDS[ft])
    if len(fields) > 4:
        raise ConversionError(f"ordered cells hold four fields, got {len(fields)}")
    fields += [""] * (4 - len(fields))
    first, second, third, last = fields
    if (first != "", second != "", third != "", last != "") not in _ORDERED_FITS[ft]:
        for i, (flag, part) in enumerate(zip(_ORDERED_SHAPES[ft], fields), start=1):
            if flag == "x" and not part:
                raise ConversionError(f"code {ft} cells need field {i}")
            if flag == "." and part:
                raise ConversionError(f"code {ft} cells leave field {i} empty, got {part!r}")
    if ft == 3:
        return FuzzyValue.crisp(parse_number(first))
    if ft == 4:
        # labels are given by name or by id
        ld = attr.find_label(first)
        if ld is None:
            fuzzy_id = _finite(first)
            if fuzzy_id is None:
                raise ConversionError(f"label {first!r} is not defined")
            if not fuzzy_id.is_integer():
                raise ConversionError(f"label id must be an integer, got {first!r}")
            ld = attr.label_by_id(int(fuzzy_id))
            if ld is None:
                raise ConversionError(f"no label has id {int(fuzzy_id)}")
        return FuzzyValue.label(ld.name)
    if ft == 5:
        return FuzzyValue.interval(parse_number(first), parse_number(last))
    if ft == 6:
        value = FuzzyValue.approx(parse_number(first), parse_number(last))
        ends = ((2, "-", second, value.number - value.margin),
                (3, "+", third, value.number + value.margin))
        for i, sign, given, end in ends:
            if given and parse_number(given) != end:
                raise ConversionError(
                    f"code 6 field {i} must be center {sign} margin = {format_number(end)}, "
                    f"got {format_number(parse_number(given))}"
                )
        return value
    a, d = parse_number(first), parse_number(last)
    return FuzzyValue.trapezoid(a, a + parse_number(second), d + parse_number(third), d)


def _decode_scalar(attr: AttributeDescriptor, shared: dict, text: str) -> FuzzyValue:
    ft, fields = _split(text)
    if ft < 3:
        return FuzzyValue(_SPECIAL_KINDS[ft])
    if ft > 4:
        raise ConversionError(f"code {ft} is not valid for a scalar column")
    if "" in fields:
        raise ConversionError(f"field {fields.index('') + 1} is empty")
    if not fields or len(fields) % 2 or (ft == 3 and len(fields) != 2):
        want = "one (degree, element) pair" if ft == 3 else "(degree, element) pairs"
        raise ConversionError(f"code {ft} cells hold {want}, got {len(fields)} fields")
    pairs = []
    for i in range(0, len(fields), 2):
        key = (fields[i], fields[i + 1])
        pair = shared.get(key)
        if pair is None:
            pair = shared[key] = (parse_number(fields[i]), _element(attr, fields[i + 1]))
        pairs.append(pair)
    return FuzzyValue(ValueKind.SIMPLE if ft == 3 else ValueKind.POSS_DIST, pairs=tuple(pairs))


def cell_decoder(attr: AttributeDescriptor) -> Callable[[str], object]:
    """The function that reads one cell text of attr's column: a plain value or a FuzzyValue.

    A plain (type 1) cell is a finite number on a numeric domain and stripped
    text on any other.  It raises a FuzzyDbError for every malformed cell.  A
    scalar element must be one of the column's labels, matched as find_label
    matches, and keeps its spelling as written.  A scalar decoder checks each
    distinct pair of field texts once and gives cells one (degree, element)
    tuple per such pair (values are frozen), so repeated pairs share one
    object among the values of one decoder.
    """
    if attr.ftype is FuzzyType.FUZZY_ORDERED:
        return functools.partial(_decode_ordered, attr)
    if attr.ftype is FuzzyType.FUZZY_SCALAR:
        return functools.partial(_decode_scalar, attr, {})
    return parse_number if attr.domain_kind == "numeric" else str.strip


_SPECIAL_TEXTS = {kind: str(ft) for ft, kind in enumerate(_SPECIAL_KINDS)}


def _not_stored(kind: ValueKind, layout: str) -> ConversionError:
    return ConversionError(f"{kind.value} value cannot be stored in {layout} column")


def _kind(value) -> ValueKind:
    if not isinstance(value, FuzzyValue):
        raise ConversionError(f"expected a fuzzy value, got {value!r}")
    return value.kind


def _encode_ordered(attr: AttributeDescriptor, value: FuzzyValue) -> str:
    k, num = _kind(value), format_number
    if k is ValueKind.CRISP:
        return f"3;{num(value.number)};;;"
    if k is ValueKind.LABEL:  # by name, as the catalog spells it
        return f"4;{_label(attr, value.name).name};;;"
    if k is ValueKind.INTERVAL:
        return f"5;{num(value.low)};;;{num(value.high)}"
    if k is ValueKind.APPROX:
        d, g = value.number, value.margin
        return f"6;{num(d)};{num(d - g)};{num(d + g)};{num(g)}"
    if k is ValueKind.TRAPEZOID:
        t = value.trap
        return ";".join(("7", *map(num, (t.a, *_edges(t), t.d))))
    if k in _SPECIAL_TEXTS:
        return _SPECIAL_TEXTS[k]
    raise _not_stored(k, "an ordered")


def _encode_scalar(attr: AttributeDescriptor, value: FuzzyValue) -> str:
    k = _kind(value)
    if k is ValueKind.SIMPLE or k is ValueKind.POSS_DIST:
        parts = ["3" if k is ValueKind.SIMPLE else "4"]
        for p, e in value.pairs:
            parts += (format_number(p), _element(attr, e))
        return ";".join(parts)
    if k in _SPECIAL_TEXTS:
        return _SPECIAL_TEXTS[k]
    raise _not_stored(k, "a scalar")


def _encode_number(value) -> str:
    if isinstance(value, FuzzyValue):
        raise _not_stored(value.kind, "a plain")
    return format_number(plain_number(value))  # a FuzzyValueError for inf and nan


def _encode_text(value) -> str:
    if isinstance(value, str) and value == value.strip():  # the decoder strips
        return value
    if isinstance(value, FuzzyValue):
        raise _not_stored(value.kind, "a plain")
    raise ConversionError(f"expected text with no surrounding whitespace, got {value!r}")


def cell_encoder(attr: AttributeDescriptor) -> Callable[[object], str]:
    """The function that writes one value of attr's column as the cell text cell_decoder reads.

    Numbers are written by format_number, plain text as given once it has no
    surrounding whitespace, labels by the catalog's spelling, scalar elements
    as given, once each is found to be one of the column's labels (the
    decoder's check).  Every value it writes decodes to an equal one (a code 7
    corner may move by an ulp); the rest raise a ConversionError (a plain inf
    or nan a FuzzyValueError).
    """
    if attr.ftype is FuzzyType.FUZZY_ORDERED:
        return functools.partial(_encode_ordered, attr)
    if attr.ftype is FuzzyType.FUZZY_SCALAR:
        return functools.partial(_encode_scalar, attr)
    return _encode_number if attr.domain_kind == "numeric" else _encode_text


def _check_fuzzy(attr: AttributeDescriptor) -> None:
    """Refuse a plain column, which stores no conversion rows."""
    if attr.ftype is FuzzyType.PRECISE:
        raise ConversionError(f"column {attr.qualified} stores plain values, not conversion rows")


def encode_value(value: FuzzyValue, attr: AttributeDescriptor) -> ConversionRow:
    """Flatten a fuzzy value into the row stored for attr's column; inverse of decode_row.

    The cell encoder writes the value, and its text is read back as fields:
    a scalar cell's elements as strings and its degrees as floats; an ordered
    cell's fields as floats (the text is exact), empty ones as None, padded
    to four, with a code 4 label as its id.  So the row holds what the cell
    holds, and a value the encoder refuses raises its error, with the
    column's name in front.
    """
    _check_fuzzy(attr)
    try:
        ft, fields = _split(cell_encoder(attr)(value))
    except FuzzyDbError as exc:
        raise ConversionError(f"{attr.qualified}: {exc}") from None
    if attr.ftype is FuzzyType.FUZZY_SCALAR:  # (degree, element) pairs
        return ConversionRow(ft, [e if i % 2 else float(e) for i, e in enumerate(fields)])
    fields += [""] * (4 - len(fields))
    if ft == 4:  # the label by the catalog's spelling
        fields[0] = str(attr.find_label(fields[0]).fuzzy_id)
    return ConversionRow(ft, [float(f) if f else None for f in fields])


def decode_row(row: ConversionRow, attr: AttributeDescriptor) -> FuzzyValue:
    """Rebuild the fuzzy value a conversion row encodes; inverse of encode_value.

    The fields are written as cell text (repr carries every float exactly)
    and read by the cell decoder, so rows obey the rules of cells: numbers
    are finite, and a scalar row's elements are the column's labels.
    """
    _check_fuzzy(attr)
    if attr.ftype is FuzzyType.FUZZY_ORDERED and len(row.fields) != 4:
        raise ConversionError(f"{attr.qualified}: ordered rows carry four fields, got {len(row.fields)}")
    parts = [str(row.ft)]
    for x in row.fields:
        if isinstance(x, str) and ";" in x:
            raise ConversionError(f"{attr.qualified}: a field holds ';', got {x!r}")
        parts.append((x or "") if x is None or isinstance(x, str) else repr(float(x)))
    try:
        return cell_decoder(attr)(";".join(parts))
    except FuzzyDbError as exc:
        raise ConversionError(f"{attr.qualified}: {exc}") from None


# -- the catalog itself ------------------------------------------------------


class Catalog:
    """Registry of attribute descriptors, addressed by table and column name.

    Names match case-insensitively everywhere but display with the case they
    were first registered under.  Each descriptor is held once, in _attrs in
    registration order, and indexed by table in _tables.  An unordered fuzzy
    column has a similarity relation from registration on; each label joins it.
    """

    def __init__(self):
        self._attrs = {}
        self._tables = {}

    def register_attribute(
        self,
        table: str,
        column: str,
        ftype: int,
        domain_kind: str = "numeric",
        units: Optional[str] = None,
    ) -> AttributeDescriptor:
        """Add a column. Unordered fuzzy columns must declare a scalar domain."""
        attr = AttributeDescriptor(table, column, ftype, domain_kind, units)
        if attr.ftype is FuzzyType.FUZZY_SCALAR:
            if attr.domain_kind != "scalar":
                raise CatalogError(f"{attr.qualified}: an unordered fuzzy column needs a scalar domain")
            attr.similarity = SimilarityRelation.identity(())
        if attr.key in self._attrs:
            raise CatalogError(f"attribute {attr.qualified} is already registered")
        self._attrs[attr.key] = attr
        self._tables.setdefault(attr.key[0], (table, []))[1].append(attr)
        return attr

    def find(self, table: str, column: str) -> Optional[AttributeDescriptor]:
        return self._attrs.get((fold_name(table), fold_name(column)))

    def get(self, table: str, column: str) -> AttributeDescriptor:
        attr = self.find(table, column)
        if attr is None:
            raise CatalogError(f"unknown attribute {table}.{column}")
        return attr

    def attributes(self) -> List[AttributeDescriptor]:
        return list(self._attrs.values())

    def tables(self) -> List[str]:
        return [name for name, _ in self._tables.values()]

    def has_table(self, table: str) -> bool:
        return fold_name(table) in self._tables

    def _table(self, table: str) -> Tuple[str, List[AttributeDescriptor]]:
        try:
            return self._tables[fold_name(table)]
        except KeyError:
            raise CatalogError(f"unknown table {table!r}") from None

    def table_name(self, table: str) -> str:
        return self._table(table)[0]

    def table_schema(self, table: str) -> List[AttributeDescriptor]:
        """The table's columns in registration order, as a new list."""
        return list(self._table(table)[1])

    def define_label(
        self,
        table: str,
        column: str,
        name: str,
        corners: Optional[Sequence[float]] = None,
        fuzzy_id: Optional[int] = None,
    ) -> LabelDefinition:
        """Attach a label to a column.

        Labels on numeric columns require the four trapezoid corners; labels
        on scalar columns forbid them (they are bare domain elements).  Ids
        are assigned sequentially unless the caller pins one.
        """
        attr = self.get(table, column)
        if attr.domain_kind == "numeric":
            if corners is None:
                raise CatalogError(
                    f"label {name!r} on numeric column {attr.qualified} needs trapezoid corners"
                )
            try:
                if isinstance(corners, (str, bytes)):  # its characters are not corners
                    raise TypeError
                trap = Trapezoid(*map(float, corners))
            except (TypeError, ValueError, OverflowError):
                raise CatalogError(f"label {name!r} on {attr.qualified}: corners must be four "
                                   f"numbers, got {corners!r}") from None
            except FuzzyValueError as exc:  # corners not finite, or out of order
                raise CatalogError(f"label {name!r} on {attr.qualified}: {exc}") from None
        else:
            if attr.ftype is not FuzzyType.FUZZY_SCALAR:
                raise CatalogError(f"{attr.qualified} does not admit labels")
            if corners is not None:
                raise CatalogError(
                    f"label {name!r} on scalar column {attr.qualified} cannot have corners"
                )
            trap = None
        ld = LabelDefinition(attr.next_label_id() if fuzzy_id is None else fuzzy_id, name, trap)
        attr.attach_label(ld)
        return ld

    def set_similarity(self, table: str, column: str, name1: str, name2: str, degree: float) -> None:
        """Record how interchangeable two scalar domain elements are (symmetric)."""
        attr, i, j = self._similarity_pair(table, column, name1, name2)
        attr.similarity.set_at(i, j, degree)

    def _similarity_pair(self, table: str, column: str, name1: str, name2: str):
        """The column and the domain positions of two of its labels, folding each name once."""
        attr = self.get(table, column)
        keys = (fold_name(name1), fold_name(name2))
        for name, key in zip((name1, name2), keys):
            if key not in attr._by_name:
                raise CatalogError(f"label {name!r} is not defined for {attr.qualified}")
        if attr.ftype is not FuzzyType.FUZZY_SCALAR:
            raise CatalogError(f"{attr.qualified} is not an unordered fuzzy column")
        rel = attr.similarity
        return attr, rel.index_of(name1, keys[0]), rel.index_of(name2, keys[1])


# -- persistence --------------------------------------------------------------


@contextlib.contextmanager
def atomic_write(path):
    """A text file written to <path>.tmp and moved over path once complete.

    On any exception the temporary file is removed and path is left as it was.
    There is no fsync, so a power loss may still lose the newest version.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_tsv(path, header: Tuple[str, ...], rows: Iterable[list]) -> None:
    with atomic_write(path) as f:
        w = csv.writer(f, delimiter="\t", lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def save_catalog(catalog: Catalog, directory) -> None:
    """Write the three catalog files, creating the directory if needed.

    Each file is replaced whole (atomic_write), and they are written in the
    reverse of the order load_catalog reads them: similarity.tsv, labels.tsv,
    then attributes.tsv.  Every catalog edit only adds something (an
    attribute, a label) or sets a similarity degree, which one file holds,
    and a file that names what an earlier file does not define is refused
    with path:line.  So a save torn between two files, after one edit (the
    CLI saves after each), loads as the old catalog, the new one, or a
    positioned CatalogError; after several edits, a file already replaced
    may also bring its edits in without the others.
    """
    os.makedirs(directory, exist_ok=True)
    attrs = catalog.attributes()
    # One line per unordered pair; omitted pairs default to 0.
    _write_tsv(os.path.join(directory, SIMILARITY_FILE), _SIMILARITY_HEADER, (
        [a.table, a.column, name1, name2, format_number(s)]
        for a in attrs if a.similarity is not None for name1, name2, s in a.similarity.pairs()))
    _write_tsv(os.path.join(directory, LABELS_FILE), _LABELS_HEADER, (
        [a.table, a.column, ld.fuzzy_id, ld.name,
         *([format_number(x) for x in ld.trap.corners()] if ld.trap else [""] * 4)]
        for a in attrs for ld in sorted(a.labels, key=lambda x: x.fuzzy_id)))
    _write_tsv(os.path.join(directory, ATTRIBUTES_FILE), _ATTRIBUTES_HEADER, (
        [a.table, a.column, int(a.ftype), a.domain_kind, a.units or ""] for a in attrs))


def _read_tsv(path, header: Tuple[str, ...], take: Callable[..., None], required: bool) -> None:
    """Call take(*fields) on each row after the header marker; its errors are given path:line.

    The line is the one the row starts on, also for a row whose quoted field
    spans lines.  Blank rows are skipped; the header marker is the first row
    that is not blank, and its error names that row's line (1 in an empty file).
    """
    if not os.path.exists(path):
        if required:
            raise CatalogError(f"missing catalog file {path}")
        return
    with open(path, encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f, delimiter="\t")
        rows, end = [], 0  # end: the line on which the last record read ends
        try:
            for row in reader:
                if any(row):
                    rows.append((end + 1, row))
                end = reader.line_num
        except UnicodeDecodeError:
            raise CatalogError(f"{path}:{undecodable_line(path)}: not valid UTF-8") from None
        except csv.Error as exc:  # a field longer than csv.field_size_limit(), say
            raise CatalogError(f"{path}:{end + 1}: {exc}") from None
    if not rows or tuple(rows[0][1]) != header:
        raise CatalogError(f"{path}:{rows[0][0] if rows else 1}: expected header {list(header)}")
    for lineno, row in rows[1:]:
        try:
            if len(row) > len(header):
                raise CatalogError("too many fields")
            take(*row, *[""] * (len(header) - len(row)))
        except FuzzyDbError as exc:
            raise CatalogError(f"{path}:{lineno}: {exc}") from None


def _parse(convert: Callable[[str], object], text: str, fault: str):
    """convert(text), or a CatalogError "<fault>, got <text>" when it is not that kind of number."""
    try:
        return convert(text)
    except ValueError:
        raise CatalogError(f"{fault}, got {text!r}") from None


def load_catalog(directory) -> Catalog:
    """Rebuild a catalog from a directory written by save_catalog.

    Each file is read in one loop, and a row's error names path:line.
    """
    catalog = Catalog()

    def attribute(table, column, ftype_text, domain_kind, units):
        ftype = _parse(int, ftype_text, "fuzzy type must be an integer")
        catalog.register_attribute(table, column, ftype, domain_kind, units or None)

    def label(table, column, id_text, name, *corner_text):
        fuzzy_id = _parse(int, id_text, "label id must be an integer")
        given = [t for t in corner_text if t != ""]
        if 0 < len(given) < len(corner_text):
            raise CatalogError("give all four corners or none")
        corners = [_parse(float, t, "expected a number") for t in given] or None
        catalog.define_label(table, column, name, corners, fuzzy_id)

    seen = {}

    def pair(table, column, name1, name2, degree_text):
        degree = _parse(float, degree_text, "expected a number")
        attr, i, j = catalog._similarity_pair(table, column, name1, name2)
        pair_key = (id(attr), frozenset((i, j)))  # descriptors are unhashable and outlive the load
        if pair_key in seen and seen[pair_key] != degree:
            raise CatalogError(f"pair ({name1}, {name2}) already set to {seen[pair_key]}")
        seen[pair_key] = degree
        attr.similarity.set_at(i, j, degree)

    _read_tsv(os.path.join(directory, ATTRIBUTES_FILE), _ATTRIBUTES_HEADER, attribute, required=True)
    _read_tsv(os.path.join(directory, LABELS_FILE), _LABELS_HEADER, label, required=False)
    _read_tsv(os.path.join(directory, SIMILARITY_FILE), _SIMILARITY_HEADER, pair, required=False)
    return catalog
