"""Attribute catalog: per-column fuzzy metadata and its on-disk form.

The catalog knows, for every table column, how its values are stored and
compared (the fuzzy type), which linguistic labels are defined over it, and,
for unordered domains, the similarity relation between domain elements.  It
also implements the conversion-row protocol that flattens fuzzy values into
the numeric records kept in data files.

A catalog persists as three tab-separated files in one directory:

    attributes.tsv   table, column, type, domain, units
    labels.tsv       table, column, id, name, a, b, c, d
    similarity.tsv   table, column, name1, name2, degree

Headers are fixed and double as format version markers; loading a file with
a different header fails rather than guessing.
"""

from __future__ import annotations

import csv
import enum
import math
import os
import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from .core import (
    FuzzyValue,
    SimilarityRelation,
    SimilarityReport,
    Trapezoid,
    ValueKind,
    fold_name,
    format_number,
    validate_similarity,
)
from .errors import CatalogError, ConversionError, FuzzyDbError, undecodable_line

ATTRIBUTES_FILE = "attributes.tsv"
LABELS_FILE = "labels.tsv"
SIMILARITY_FILE = "similarity.tsv"

_ATTRIBUTES_HEADER = ("table", "column", "type", "domain", "units")
_LABELS_HEADER = ("table", "column", "id", "name", "a", "b", "c", "d")
_SIMILARITY_HEADER = ("table", "column", "name1", "name2", "degree")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_name(name, what: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
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

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}"

    @property
    def key(self) -> Tuple[str, str]:
        return (fold_name(self.table), fold_name(self.column))

    def find_label(self, name: str) -> Optional[LabelDefinition]:
        wanted = fold_name(name)
        for ld in self.labels:
            if fold_name(ld.name) == wanted:
                return ld
        return None

    def label_by_id(self, fuzzy_id: int) -> Optional[LabelDefinition]:
        for ld in self.labels:
            if ld.fuzzy_id == fuzzy_id:
                return ld
        return None

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
        """Append a label; a scalar domain's similarity relation grows with it."""
        if self.find_label(ld.name) is not None:
            raise CatalogError(f"label {ld.name!r} is already defined for {self.qualified}")
        if self.label_by_id(ld.fuzzy_id) is not None:
            raise CatalogError(f"label id {ld.fuzzy_id} is already taken on {self.qualified}")
        self.labels.append(ld)
        if self.similarity is not None:
            old = self.similarity
            n = len(old.domain)
            matrix = [row + [0.0] for row in old.matrix]
            matrix.append([0.0] * n + [1.0])
            self.similarity = SimilarityRelation(old.domain + (ld.name,), matrix)

    def ensure_similarity(self) -> SimilarityRelation:
        """Similarity relation over the label set, created as identity on first use."""
        if self.ftype is not FuzzyType.FUZZY_SCALAR:
            raise CatalogError(f"{self.qualified} is not an unordered fuzzy column")
        if self.similarity is None:
            self.similarity = SimilarityRelation.identity(ld.name for ld in self.labels)
        return self.similarity


# -- conversion-row protocol ------------------------------------------------

FieldValue = Union[float, str, None]

# Type codes shared by both layouts; 3..7 depend on the column's domain.
FT_UNKNOWN = 0
FT_UNDEFINED = 1
FT_NULL = 2

_SPECIAL_KINDS = {
    FT_UNKNOWN: ValueKind.UNKNOWN,
    FT_UNDEFINED: ValueKind.UNDEFINED,
    FT_NULL: ValueKind.NULL,
}
_SPECIAL_CODES = {kind: ft for ft, kind in _SPECIAL_KINDS.items()}


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


def encode_value(value: FuzzyValue, attr: AttributeDescriptor) -> ConversionRow:
    """Flatten a fuzzy value into the row stored for attr's column.

    Ordered columns (type 2): code 3 keeps the number in the first field,
    code 4 the label id, code 5 the bounds in the first and last fields,
    code 6 stores (center, center-margin, center+margin, margin), and code 7
    stores (a, b-a, c-d, d) so the middle fields are the edge widths.

    Unordered columns (type 3): codes 3 and 4 store the (degree, element)
    pairs flattened left to right, elements as numbers or scalar names.
    """
    k = value.kind
    if attr.ftype is FuzzyType.FUZZY_ORDERED:
        if k in _SPECIAL_CODES:
            return ConversionRow(_SPECIAL_CODES[k], (None, None, None, None))
        if k is ValueKind.CRISP:
            return ConversionRow(3, (value.number, None, None, None))
        if k is ValueKind.LABEL:
            ld = attr.find_label(value.name)
            if ld is None:
                raise ConversionError(f"label {value.name!r} is not defined for {attr.qualified}")
            return ConversionRow(4, (float(ld.fuzzy_id), None, None, None))
        if k is ValueKind.INTERVAL:
            return ConversionRow(5, (value.low, None, None, value.high))
        if k is ValueKind.APPROX:
            d, g = value.number, value.margin
            return ConversionRow(6, (d, d - g, d + g, g))
        if k is ValueKind.TRAPEZOID:
            t = value.trap
            return ConversionRow(7, (t.a, t.b - t.a, t.c - t.d, t.d))
        raise ConversionError(f"{k.value} value cannot be stored in ordered column {attr.qualified}")
    if attr.ftype is FuzzyType.FUZZY_SCALAR:
        if k in _SPECIAL_CODES:
            return ConversionRow(_SPECIAL_CODES[k], ())
        if k is ValueKind.SIMPLE or k is ValueKind.POSS_DIST:
            flat = []
            for p, e in value.pairs:
                flat.append(p)
                flat.append(e)
            return ConversionRow(3 if k is ValueKind.SIMPLE else 4, tuple(flat))
        raise ConversionError(f"{k.value} value cannot be stored in scalar column {attr.qualified}")
    raise ConversionError(f"column {attr.qualified} stores plain values, not conversion rows")


def _require(row: ConversionRow, attr: AttributeDescriptor, present: str) -> None:
    """Check an ordered row's four fields: 'x' required, '.' empty, '?' either."""
    for i, flag in enumerate(present):
        value = row.fields[i]
        if flag == "x" and value is None:
            raise ConversionError(
                f"{attr.qualified}: code {row.ft} row is missing field {i + 1}"
            )
        if flag == "." and value is not None:
            raise ConversionError(
                f"{attr.qualified}: code {row.ft} row must leave field {i + 1} empty"
            )


def _number(row: ConversionRow, attr: AttributeDescriptor, i: int) -> float:
    value = row.fields[i]
    if isinstance(value, str):
        raise ConversionError(
            f"{attr.qualified}: code {row.ft} field {i + 1} must be a number, got {value!r}"
        )
    return float(value)


def decode_row(row: ConversionRow, attr: AttributeDescriptor) -> FuzzyValue:
    """Rebuild the fuzzy value a conversion row encodes; inverse of encode_value."""
    if attr.ftype is FuzzyType.FUZZY_ORDERED:
        if len(row.fields) != 4:
            raise ConversionError(
                f"{attr.qualified}: ordered rows carry four fields, got {len(row.fields)}"
            )
        ft = row.ft
        if ft in _SPECIAL_KINDS:
            _require(row, attr, "....")
            return FuzzyValue(_SPECIAL_KINDS[ft])
        if ft == 3:
            _require(row, attr, "x...")
            return FuzzyValue.crisp(_number(row, attr, 0))
        if ft == 4:
            _require(row, attr, "x...")
            raw = _number(row, attr, 0)
            if not raw.is_integer():
                raise ConversionError(f"{attr.qualified}: label id must be an integer, got {raw!r}")
            ld = attr.label_by_id(int(raw))
            if ld is None:
                raise ConversionError(f"{attr.qualified}: no label has id {int(raw)}")
            return FuzzyValue.label(ld.name)
        if ft == 5:
            _require(row, attr, "x..x")
            return FuzzyValue.interval(_number(row, attr, 0), _number(row, attr, 3))
        if ft == 6:
            # Fields 2 and 3 duplicate center-margin and center+margin; the
            # value is rebuilt from the authoritative pair.
            _require(row, attr, "x??x")
            return FuzzyValue.approx(_number(row, attr, 0), _number(row, attr, 3))
        if ft == 7:
            _require(row, attr, "xxxx")
            a = _number(row, attr, 0)
            d = _number(row, attr, 3)
            return FuzzyValue.trapezoid(a, a + _number(row, attr, 1), d + _number(row, attr, 2), d)
        raise ConversionError(f"{attr.qualified}: code {ft} is not valid for an ordered column")
    if attr.ftype is FuzzyType.FUZZY_SCALAR:
        ft = row.ft
        if ft in _SPECIAL_KINDS:
            if row.fields:
                raise ConversionError(f"{attr.qualified}: code {ft} row carries no fields")
            return FuzzyValue(_SPECIAL_KINDS[ft])
        if ft not in (3, 4):
            raise ConversionError(f"{attr.qualified}: code {ft} is not valid for a scalar column")
        if not row.fields or len(row.fields) % 2:
            raise ConversionError(
                f"{attr.qualified}: code {ft} row needs (degree, element) pairs, "
                f"got {len(row.fields)} fields"
            )
        pairs = []
        for i in range(0, len(row.fields), 2):
            p = _number(row, attr, i)
            e = row.fields[i + 1]
            if e is None:
                raise ConversionError(f"{attr.qualified}: pair {i // 2 + 1} has no element")
            pairs.append((p, e if isinstance(e, str) else float(e)))
        if ft == 3:
            if len(pairs) != 1:
                raise ConversionError(f"{attr.qualified}: code 3 rows hold exactly one pair")
            return FuzzyValue.simple(*pairs[0])
        return FuzzyValue.poss_dist(pairs)
    raise ConversionError(f"column {attr.qualified} stores plain values, not conversion rows")


# -- the catalog itself ------------------------------------------------------


class Catalog:
    """Registry of attribute descriptors, addressed by table and column name.

    Names match case-insensitively everywhere but display with the case they
    were first registered under.
    """

    def __init__(self):
        self._attrs = {}
        self._order = []
        self._table_names = {}

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
        if attr.ftype is FuzzyType.FUZZY_SCALAR and attr.domain_kind != "scalar":
            raise CatalogError(f"{attr.qualified}: an unordered fuzzy column needs a scalar domain")
        if attr.key in self._attrs:
            raise CatalogError(f"attribute {attr.qualified} is already registered")
        self._attrs[attr.key] = attr
        self._order.append(attr.key)
        self._table_names.setdefault(fold_name(table), table)
        return attr

    def find(self, table: str, column: str) -> Optional[AttributeDescriptor]:
        return self._attrs.get((fold_name(table), fold_name(column)))

    def get(self, table: str, column: str) -> AttributeDescriptor:
        attr = self.find(table, column)
        if attr is None:
            raise CatalogError(f"unknown attribute {table}.{column}")
        return attr

    def attributes(self) -> List[AttributeDescriptor]:
        return [self._attrs[key] for key in self._order]

    def tables(self) -> List[str]:
        return list(self._table_names.values())

    def has_table(self, table: str) -> bool:
        return fold_name(table) in self._table_names

    def table_name(self, table: str) -> str:
        try:
            return self._table_names[fold_name(table)]
        except KeyError:
            raise CatalogError(f"unknown table {table!r}") from None

    def table_schema(self, table: str) -> List[AttributeDescriptor]:
        """The table's columns in registration order."""
        self.table_name(table)
        wanted = fold_name(table)
        return [a for a in self.attributes() if fold_name(a.table) == wanted]

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
            a, b, c, d = (float(x) for x in corners)
            if not all(math.isfinite(x) for x in (a, b, c, d)):
                raise CatalogError(f"label {name!r} on {attr.qualified}: corners must be finite")
            trap = Trapezoid(a, b, c, d)
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
        attr = self.get(table, column)
        for name in (name1, name2):
            if attr.find_label(name) is None:
                raise CatalogError(f"label {name!r} is not defined for {attr.qualified}")
        attr.ensure_similarity().set_degree(name1, name2, degree)

    def validate(self) -> List[Tuple[AttributeDescriptor, SimilarityReport]]:
        """Run the similarity checks for every unordered column that has a relation."""
        out = []
        for attr in self.attributes():
            if attr.similarity is not None:
                out.append((attr, validate_similarity(attr.similarity)))
        return out


# -- persistence --------------------------------------------------------------


def _format_field(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return format_number(x)


def save_catalog(catalog: Catalog, directory) -> None:
    """Write the three catalog files, creating the directory if needed."""
    os.makedirs(directory, exist_ok=True)
    attrs = catalog.attributes()
    with open(os.path.join(directory, ATTRIBUTES_FILE), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, delimiter="\t", lineterminator="\n")
        w.writerow(_ATTRIBUTES_HEADER)
        for a in attrs:
            w.writerow([a.table, a.column, int(a.ftype), a.domain_kind, a.units or ""])
    with open(os.path.join(directory, LABELS_FILE), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, delimiter="\t", lineterminator="\n")
        w.writerow(_LABELS_HEADER)
        for a in attrs:
            for ld in sorted(a.labels, key=lambda x: x.fuzzy_id):
                corners = ld.trap.corners() if ld.trap is not None else (None,) * 4
                w.writerow(
                    [a.table, a.column, ld.fuzzy_id, ld.name] + [_format_field(x) for x in corners]
                )
    with open(os.path.join(directory, SIMILARITY_FILE), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, delimiter="\t", lineterminator="\n")
        w.writerow(_SIMILARITY_HEADER)
        for a in attrs:
            if a.similarity is not None:
                # One line per unordered pair; omitted pairs default to 0.
                for name1, name2, s in a.similarity.pairs():
                    w.writerow([a.table, a.column, name1, name2, format_number(s)])


def _read_tsv(path, header: Tuple[str, ...], required: bool):
    """Yield (line_number, row) pairs, checking the header marker first."""
    if not os.path.exists(path):
        if required:
            raise CatalogError(f"missing catalog file {path}")
        return
    with open(path, encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f, delimiter="\t")
        try:
            rows = [(reader.line_num, row) for row in reader if row and any(cell for cell in row)]
        except UnicodeDecodeError:
            raise CatalogError(f"{path}:{undecodable_line(path)}: not valid UTF-8") from None
    if not rows or tuple(rows[0][1]) != header:
        raise CatalogError(f"{path}: expected header {list(header)}")
    for lineno, row in rows[1:]:
        if len(row) > len(header):
            raise CatalogError(f"{path}:{lineno}: too many fields")
        row = row + [""] * (len(header) - len(row))
        yield lineno, row


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CatalogError(f"{where}: expected a number, got {text!r}") from None


def load_catalog(directory) -> Catalog:
    """Rebuild a catalog from a directory written by save_catalog."""
    catalog = Catalog()
    path = os.path.join(directory, ATTRIBUTES_FILE)
    for lineno, row in _read_tsv(path, _ATTRIBUTES_HEADER, required=True):
        where = f"{path}:{lineno}"
        table, column, ftype_text, domain_kind, units = row
        try:
            ftype = int(ftype_text)
        except ValueError:
            raise CatalogError(f"{where}: fuzzy type must be an integer, got {ftype_text!r}") from None
        try:
            catalog.register_attribute(table, column, ftype, domain_kind, units or None)
        except CatalogError as exc:
            raise CatalogError(f"{where}: {exc}") from None

    path = os.path.join(directory, LABELS_FILE)
    for lineno, row in _read_tsv(path, _LABELS_HEADER, required=False):
        where = f"{path}:{lineno}"
        table, column, id_text, name = row[:4]
        corner_text = row[4:]
        try:
            fuzzy_id = int(id_text)
        except ValueError:
            raise CatalogError(f"{where}: label id must be an integer, got {id_text!r}") from None
        if all(t == "" for t in corner_text):
            corners = None
        elif all(t != "" for t in corner_text):
            corners = [_parse_float(t, where) for t in corner_text]
        else:
            raise CatalogError(f"{where}: give all four corners or none")
        try:
            catalog.define_label(table, column, name, corners, fuzzy_id)
        except FuzzyDbError as exc:
            raise CatalogError(f"{where}: {exc}") from None

    path = os.path.join(directory, SIMILARITY_FILE)
    seen = {}
    for lineno, row in _read_tsv(path, _SIMILARITY_HEADER, required=False):
        where = f"{path}:{lineno}"
        table, column, name1, name2, degree_text = row
        degree = _parse_float(degree_text, where)
        pair_key = (fold_name(table), fold_name(column), frozenset((fold_name(name1), fold_name(name2))))
        if pair_key in seen and seen[pair_key] != degree:
            raise CatalogError(
                f"{where}: pair ({name1}, {name2}) already set to {seen[pair_key]}"
            )
        seen[pair_key] = degree
        try:
            catalog.set_similarity(table, column, name1, name2, degree)
        except FuzzyDbError as exc:
            raise CatalogError(f"{where}: {exc}") from None

    # Scalar columns with labels but no recorded pairs still get a relation.
    for attr in catalog.attributes():
        if attr.ftype is FuzzyType.FUZZY_SCALAR and attr.labels and attr.similarity is None:
            attr.ensure_similarity()
    return catalog
