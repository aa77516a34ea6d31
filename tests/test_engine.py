"""Table files, execution semantics, and result rendering."""

import copy
import csv
import gc
import io
import json
import math
import operator
import os
import re
import shutil
import types
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from fuzzydb import (
    AttributeDescriptor,
    Catalog,
    CatalogError,
    ConversionError,
    ConversionRow,
    DataFileError,
    ExecutionStats,
    FuzzyDbError,
    FuzzyType,
    FuzzyValue,
    FuzzyValueError,
    LabelDefinition,
    Result,
    SimilarityRelation,
    Table,
    case_study_dir,
    compile_query,
    decode_row,
    encode_value,
    execute,
    format_cell,
    format_number,
    format_result,
    load_catalog,
    load_table,
    parse_cell,
    render_value,
    run_query,
    save_table,
)
from fuzzydb import engine
from fuzzydb.core import ValueKind, feq_column, fold_name
from fuzzydb.fsql.compiler import CompiledCondition, CompiledPlan, DegreeColumn, PhysicalColumn
from fuzzydb.fsql.parser import And

from feq_oracle import oracle_feq, oracle_outcome

FLAGSHIP = (
    "SELECT cartulina.% FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0.5 "
    "AND tono_reverso FEQ $blanco THOLD 0.5;"
)


def assert_cell_rejected(tmp_path, catalog, attr, text):
    """parse_cell raises a FuzzyDbError, and load_table a DataFileError naming line and column."""
    with pytest.raises(FuzzyDbError):
        parse_cell(text, attr)
    schema = catalog.table_schema(attr.table)
    path = tmp_path / f"{attr.table}.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([a.column for a in schema])
        writer.writerow(["0"] * len(schema))
        writer.writerow([text if a is attr else "0" for a in schema])
    with pytest.raises(DataFileError) as err:
        load_table(path, attr.table, catalog)
    assert str(err.value).startswith(f"{path}:3: column {attr.column}: ")


@pytest.fixture()
def width_attr(case_catalog):
    return case_catalog.get("pilas", "formato_largo")


@pytest.fixture()
def tone_attr(case_catalog):
    return case_catalog.get("cartulina", "tono_cara")


class TestCellCodec:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", FuzzyValue.unknown()),
            ("1", FuzzyValue.undefined()),
            ("2", FuzzyValue.null()),
            ("3;65;;;", FuzzyValue.crisp(65)),
            ("4;optima;;;", FuzzyValue.label("optima")),
            ("4;2;;;", FuzzyValue.label("optima")),  # numeric ids still accepted
            ("5;60;;;70", FuzzyValue.interval(60, 70)),
            ("6;75;70;80;5", FuzzyValue.approx(75, 5)),
            ("7;85;10;-10;120", FuzzyValue.trapezoid(85, 95, 110, 120)),
            ("3;65", FuzzyValue.crisp(65)),  # short cells pad with empties
            (" 3 ; 26 ;;; ", FuzzyValue.crisp(26)),  # whitespace around every field
            ("3.0;65", FuzzyValue.crisp(65)),  # an integral code written as a float
            ("6;75;;;5", FuzzyValue.approx(75, 5)),  # the repeated ends may be left out
            ("6;75;70;;5", FuzzyValue.approx(75, 5)),
            ("0;;;;", FuzzyValue.unknown()),
            ("4;OPTIMA;;;", FuzzyValue.label("optima")),  # a label keeps its catalog spelling
        ],
    )
    def test_parse_ordered(self, width_attr, text, expected):
        assert parse_cell(text, width_attr) == expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", FuzzyValue.unknown()),
            ("3;1;blanco", FuzzyValue.simple(1, "blanco")),
            ("4;0.4;amarillo;0.6;cafe", FuzzyValue.poss_dist([(0.4, "amarillo"), (0.6, "cafe")])),
        ],
    )
    def test_parse_scalar(self, tone_attr, text, expected):
        assert parse_cell(text, tone_attr) == expected

    def test_parse_plain(self, case_catalog):
        code = case_catalog.get("pilas", "cod_pila")
        assert parse_cell("42", code) == 42.0
        name = case_catalog.get("cartulina", "impresion")
        assert parse_cell("Offset", name) == "Offset"

    # The plain cell codec on cartulina's numeric and text columns, case by
    # case: each value's repr or each text byte for byte, else the error class.
    @pytest.mark.parametrize("column, text, expected", [
        ("cod_carti", "-0.0", "-0.0"), ("cod_carti", "-0", "-0.0"), ("cod_carti", " 1e300 ", "1e+300"),
        ("cod_carti", "3.50", "3.5"), ("cod_carti", "1_000", "1000.0"), ("cod_carti", "1e309", DataFileError),
        ("cod_carti", "True", DataFileError), ("cod_carti", "inf", DataFileError),
        ("cod_carti", "nan", DataFileError), ("cod_carti", " ", DataFileError),
        ("cod_carti", " Offset", DataFileError), ("cod_carti", "3;1;blanco", DataFileError),
        ("impresion", " Offset ", "'Offset'"), ("impresion", " ", "''"), ("impresion", "-0.0", "'-0.0'"),
        ("impresion", "True", "'True'"), ("impresion", "3;1;blanco", "'3;1;blanco'"),
    ])
    def test_parse_plain_cases(self, case_catalog, column, text, expected):
        attr = case_catalog.get("cartulina", column)
        if isinstance(expected, str):
            assert repr(parse_cell(text, attr)) == expected
        else:
            with pytest.raises(FuzzyDbError) as err:
                parse_cell(text, attr)
            assert type(err.value) is expected

    @pytest.mark.parametrize("column, value, expected", [
        ("cod_carti", -0.0, "-0.0"), ("cod_carti", 0.0, "0"), ("cod_carti", 1e300, "1e+300"),
        ("cod_carti", 5e-324, "5e-324"), ("cod_carti", True, "1"), ("cod_carti", 3, "3"),
        ("cod_carti", 10 ** 400, ConversionError), ("cod_carti", math.inf, FuzzyValueError),
        ("cod_carti", math.nan, FuzzyValueError), ("cod_carti", " Offset", ConversionError),
        ("cod_carti", "3", ConversionError), ("cod_carti", None, ConversionError),
        ("cod_carti", FuzzyValue.crisp(3), ConversionError), ("cod_carti", FuzzyValue.null(), ConversionError),
        ("impresion", "Offset", "Offset"), ("impresion", "", ""), ("impresion", "a\nb", "a\nb"),
        ("impresion", " Offset", ConversionError), ("impresion", "Offset ", ConversionError),
        ("impresion", -0.0, ConversionError), ("impresion", 1e300, ConversionError),
        ("impresion", True, ConversionError), ("impresion", 10 ** 400, ConversionError),
        ("impresion", None, ConversionError), ("impresion", FuzzyValue.label("x"), ConversionError),
    ])
    def test_format_plain_cases(self, case_catalog, column, value, expected):
        attr = case_catalog.get("cartulina", column)
        if isinstance(expected, str):
            assert format_cell(value, attr).encode() == expected.encode()
        else:
            with pytest.raises(FuzzyDbError) as err:
                format_cell(value, attr)
            assert type(err.value) is expected

    @pytest.mark.parametrize(
        "text",
        [
            "",            # fuzzy cells may not be blank
            "x;1;2;3;4",   # code must be an integer
            "9;1;;;",      # unknown code
            "0;1;;;",      # specials carry no fields
            "3;sixty;;;",  # number expected
            "4;grande;;;",  # no such label
            "7;1;2;3;4;5",  # too many fields
            "   ",          # blank after stripping
            "3",            # too few fields: no number
            "5;60",         # too few fields: no upper bound
            "7;85;10;-10",  # too few fields: no last corner
            "3;65;1;;",     # stray field
            "5;70;;;60",    # bounds out of order
            "6;75;0;0;5",   # repeated ends that are not center -/+ margin
            "6;75;70;81;5",
            "6;75;;;0",     # margin must be positive
            "7;10;1;-1;5",  # corners out of order
            "4;2.5;;;",     # label ids are integers
            "4;9;;;",       # no label has this id
            "3.5;65",       # code must be an integer
            "-1;65",        # negative code
            "1e300;65",     # huge code
            "3;0x10;;;",    # not a decimal number
        ],
    )
    def test_parse_ordered_errors(self, tmp_path, case_catalog, width_attr, text):
        assert_cell_rejected(tmp_path, case_catalog, width_attr, text)

    @pytest.mark.parametrize(
        "text",
        [
            "3;1;rosa",          # element outside the declared domain
            "4;0.4;blanco;0.6",  # dangling degree
            "4;;blanco",         # empty field
            "3;x;blanco",        # degree must be a number
            "4;0.4;blanco;0.6;BLANCO",  # duplicated element, in another case
            "3;1",               # too few fields
            "3",                 # no pair at all
            "3;0.5;blanco;0.5;cafe",  # code 3 holds one pair
            "5;1;blanco",        # ordered-only code
            "3;0;blanco",        # degrees are in (0, 1]
            "3;1.5;blanco",
            "0;1;blanco",        # specials carry no fields
            "3;1;blanco;",       # trailing empty field
            "3;1;5",             # a number is no element of a domain of names
        ],
    )
    def test_parse_scalar_errors(self, tmp_path, case_catalog, tone_attr, text):
        assert_cell_rejected(tmp_path, case_catalog, tone_attr, text)

    def test_round_trip_through_text(self, width_attr, tone_attr, case_catalog):
        values = [
            (width_attr, FuzzyValue.unknown()),
            (width_attr, FuzzyValue.crisp(65)),
            (width_attr, FuzzyValue.label("optima")),
            (width_attr, FuzzyValue.interval(60, 70)),
            (width_attr, FuzzyValue.approx(75, 5)),
            (width_attr, FuzzyValue.trapezoid(85, 95, 110, 120)),
            (tone_attr, FuzzyValue.simple(0.5, "blanco")),
            (tone_attr, FuzzyValue.poss_dist([(0.4, "amarillo"), (1.0, "manila")])),
            (tone_attr, FuzzyValue.null()),
        ]
        for attr, value in values:
            assert parse_cell(format_cell(value, attr), attr) == value
        code = case_catalog.get("pilas", "cod_pila")
        assert parse_cell(format_cell(42.0, code), code) == 42.0

    def test_format_uses_label_names(self, width_attr):
        assert format_cell(FuzzyValue.label("optima"), width_attr) == "4;optima;;;"

    def test_numeric_scalar_element_names_its_cell(self, tmp_path, case_catalog, tone_attr):
        path = tmp_path / "cartulina.csv"
        path.write_text(
            "cod_carti,cod_capa,impresion,tono_cara,tono_reverso\n"
            "111,10,Offset,3;1;blanco,0\n"
            "222,10,Offset,3;1;5,0\n"
        )
        with pytest.raises(DataFileError) as err:
            load_table(path, "cartulina", case_catalog)
        assert str(err.value) == f"{path}:3: column tono_cara: element '5' is not in the domain"

    @pytest.mark.parametrize(
        "layout,row,text",
        [
            ("ordered", ConversionRow(0, (1.0, None, None, None)), "0;1.0;;;"),
            ("ordered", ConversionRow(1, (None, None, "x", None)), "1;;;x;"),
            ("ordered", ConversionRow(2, (None, None, None, 5.0)), "2;;;;5.0"),
            ("ordered", ConversionRow(3, ("sixty", None, None, None)), "3;sixty;;;"),
            ("ordered", ConversionRow(3, (65.0, 1.0, None, None)), "3;65.0;1.0;;"),
            ("ordered", ConversionRow(4, (2.5, None, None, None)), "4;2.5;;;"),
            ("ordered", ConversionRow(4, (9.0, None, None, None)), "4;9.0;;;"),
            ("ordered", ConversionRow(4, ("grande", None, None, None)), "4;grande;;;"),
            ("ordered", ConversionRow(5, (70.0, None, None, 60.0)), "5;70.0;;;60.0"),
            ("ordered", ConversionRow(5, (60.0, None, None, None)), "5;60.0;;;"),
            ("ordered", ConversionRow(6, (75.0, 0.0, 0.0, 5.0)), "6;75.0;0.0;0.0;5.0"),
            ("ordered", ConversionRow(6, (75.0, None, 81.0, 5.0)), "6;75.0;;81.0;5.0"),
            ("ordered", ConversionRow(7, (1.0, 1.0, None, 4.0)), "7;1.0;1.0;;4.0"),
            ("ordered", ConversionRow(7, (10.0, 1.0, -1.0, 5.0)), "7;10.0;1.0;-1.0;5.0"),
            ("scalar", ConversionRow(0, (1.0,)), "0;1.0"),
            ("scalar", ConversionRow(1, ("blanco",)), "1;blanco"),
            ("scalar", ConversionRow(2, (1.0, "blanco")), "2;1.0;blanco"),
            ("scalar", ConversionRow(3, (0.5, "blanco", 0.5, "cafe")), "3;0.5;blanco;0.5;cafe"),
            ("scalar", ConversionRow(3, (0.0, "blanco")), "3;0.0;blanco"),
            ("scalar", ConversionRow(3, (1.0, None)), "3;1.0;"),
            ("scalar", ConversionRow(4, (0.4, "blanco", 0.6)), "4;0.4;blanco;0.6"),
            ("scalar", ConversionRow(4, ("x", "blanco")), "4;x;blanco"),
            ("scalar", ConversionRow(4, (0.4, "a b")), "4;0.4;a b"),
            ("scalar", ConversionRow(5, (1.0, "blanco")), "5;1.0;blanco"),
            ("scalar", ConversionRow(6, ()), "6"),
            ("scalar", ConversionRow(7, (0.0, 1.0, -1.0, 2.0)), "7;0.0;1.0;-1.0;2.0"),
        ],
    )
    def test_rows_and_cells_share_one_decoder(self, width_attr, tone_attr, layout, row, text):
        # decode_row writes a row as cell text, so a fault reads the same in both forms
        attr = width_attr if layout == "ordered" else tone_attr
        with pytest.raises(ConversionError) as from_row:
            decode_row(row, attr)
        with pytest.raises(DataFileError) as from_cell:
            parse_cell(text, attr)
        assert str(from_row.value) == f"{attr.qualified}: {from_cell.value}"

    def test_negative_zero_survives_a_save_and_load(self, tmp_path, case_catalog):
        values = [FuzzyValue.crisp(-0.0), FuzzyValue.interval(-0.0, 1), FuzzyValue.approx(-0.0, 2),
                  FuzzyValue.trapezoid(-0.0, 0, 1, 2)]
        schema = case_catalog.table_schema("personas")
        table = Table("personas", schema, [["n", value, FuzzyValue.null()] for value in values])
        save_table(table, tmp_path / "personas.csv")
        assert "3;-0.0;;;" in (tmp_path / "personas.csv").read_text()
        loaded = load_table(tmp_path / "personas.csv", "personas", case_catalog)
        assert repr(loaded.rows) == repr(table.rows)
        plain = case_catalog.get("pilas", "cod_pila")
        assert repr(parse_cell(format_cell(-0.0, plain), plain)) == "-0.0"
        # degrees carry no sign: they render as 0, 1 or a fraction
        for operand, degree in (("0", "1"), ("50", "0")):
            sql = f"SELECT nombre, CDEG(edad) FROM personas WHERE edad FEQ {operand} THOLD 0"
            text = format_result(run_query(sql, case_catalog, data_dir=str(tmp_path)), "csv")
            assert text.splitlines()[1:] == [f"n,{degree}"] * 4

    def test_trapezoid_with_overflowing_edge_is_not_stored(self, width_attr):
        value = FuzzyValue.trapezoid(-1e308, 1e308, 1e308, 1e308)
        message = r"cannot store trapezoid \[-1e\+308, 1e\+308, 1e\+308, 1e\+308\]: .* overflows$"
        with pytest.raises(ConversionError, match="^" + message):
            format_cell(value, width_attr)
        with pytest.raises(ConversionError, match="^pilas.formato_largo: " + message):
            encode_value(value, width_attr)


# Extreme finite doubles, which every text form must carry exactly.
EXTREMES = st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, 1.0])
NUMBERS = st.one_of(EXTREMES, st.floats(allow_nan=False, allow_infinity=False))
# Trapezoid corners from a grid (plus the extremes) where the codec's
# offsets b-a and c-d can be exact.
CORNERS = st.one_of(EXTREMES, st.integers(-2 ** 40, 2 ** 40).map(lambda k: k / 4))
DEGREES = st.one_of(st.sampled_from([1.0, 5e-324, 0.5]), st.floats(0, 1, exclude_min=True))
SPECIALS = st.sampled_from([FuzzyValue.unknown(), FuzzyValue.undefined(), FuzzyValue.null()])


def _approx_fits(center, margin):
    return margin > 0 and math.isfinite(center - margin) and math.isfinite(center + margin)


def _offsets_exact(a, b, c, d):
    """The code 7 row stores (a, b-a, c-d, d); this says it decodes back to b and c.

    repr compares the sign of zero too: -0.0 + 0.0 is 0.0, so b = a = -0.0 comes back as 0.0.
    """
    return (math.isfinite(b - a) and math.isfinite(c - d)
            and repr(a + (b - a)) == repr(b) and repr(d + (c - d)) == repr(c))


def ordered_values(labels):
    return st.one_of(
        SPECIALS,
        NUMBERS.map(FuzzyValue.crisp),
        st.sampled_from(labels).map(FuzzyValue.label),
        st.tuples(NUMBERS, NUMBERS).map(sorted).filter(lambda t: t[0] < t[1])
        .map(lambda t: FuzzyValue.interval(*t)),
        st.tuples(NUMBERS, NUMBERS).filter(lambda t: _approx_fits(*t))
        .map(lambda t: FuzzyValue.approx(*t)),
        st.tuples(CORNERS, CORNERS, CORNERS, CORNERS).map(sorted)
        .filter(lambda t: _offsets_exact(*t)).map(lambda t: FuzzyValue.trapezoid(*t)),
    )


def scalar_values(names):
    pairs = st.tuples(DEGREES, st.sampled_from(names))
    return st.one_of(
        SPECIALS,
        pairs.map(lambda p: FuzzyValue.simple(*p)),
        st.lists(pairs, min_size=1, max_size=5, unique_by=lambda p: p[1].casefold())
        .map(FuzzyValue.poss_dist),
    )


@pytest.fixture(scope="module")
def shared_catalog():
    """The bundled catalog, loaded once for the property tests of this module."""
    return load_catalog(case_study_dir())


def oracle_row(value, attr):
    """The conversion row of value, written kind by kind from the row layout.

    It is the row encode_value gives, stated apart from the cell encoder that
    encode_value reads it from.  An element must be one of the column's
    labels; texts that spell no label ('5', 'a;b') are pinned in test_catalog.
    """
    if attr.ftype is FuzzyType.PRECISE or not isinstance(value, FuzzyValue):
        raise ConversionError(f"{attr.qualified} stores no conversion row of {value!r}")
    k, ordered = value.kind, attr.ftype is FuzzyType.FUZZY_ORDERED
    specials = (ValueKind.UNKNOWN, ValueKind.UNDEFINED, ValueKind.NULL)
    if k in specials:
        return ConversionRow(specials.index(k), (None,) * 4 if ordered else ())
    if ordered and k is ValueKind.CRISP:
        return ConversionRow(3, (value.number, None, None, None))
    if ordered and k is ValueKind.LABEL:
        ld = attr.find_label(value.name)
        if ld is None:
            raise ConversionError(f"label {value.name!r} is not defined for {attr.qualified}")
        return ConversionRow(4, (float(ld.fuzzy_id), None, None, None))
    if ordered and k is ValueKind.INTERVAL:
        return ConversionRow(5, (value.low, None, None, value.high))
    if ordered and k is ValueKind.APPROX:
        d, g = value.number, value.margin
        return ConversionRow(6, (d, d - g, d + g, g))
    if ordered and k is ValueKind.TRAPEZOID:
        t = value.trap
        if not (math.isfinite(t.b - t.a) and math.isfinite(t.c - t.d)):
            raise ConversionError(f"{attr.qualified}: an edge width of {value!r} overflows")
        return ConversionRow(7, (t.a, t.b - t.a, t.c - t.d, t.d))
    if not ordered and k in (ValueKind.SIMPLE, ValueKind.POSS_DIST):
        for _, e in value.pairs:
            if attr.find_label(e) is None:
                raise ConversionError(f"element {e!r} is not in the domain of {attr.qualified}")
        flat = tuple(x for pair in value.pairs for x in pair)
        return ConversionRow(3 if k is ValueKind.SIMPLE else 4, flat)
    raise ConversionError(f"{k.value} value cannot be stored in {attr.qualified}")


def row_outcome(encode, value, attr):
    """The row's code and the repr of each field (so the sign of zero counts), or the error class."""
    try:
        row = encode(value, attr)
    except ConversionError:
        return ConversionError
    return row.ft, tuple(map(repr, row.fields))


class TestCellRoundTrip:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_ordered(self, shared_catalog, data):
        attr = shared_catalog.get("pilas", "formato_largo")
        value = data.draw(ordered_values([ld.name for ld in attr.labels]))
        self.check(value, attr)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_scalar(self, shared_catalog, data):
        attr = shared_catalog.get("cartulina", "tono_cara")
        value = data.draw(scalar_values([ld.name for ld in attr.labels]))
        self.check(value, attr)

    @staticmethod
    def check(value, attr):
        parsed = parse_cell(format_cell(value, attr), attr)
        assert repr(parsed) == repr(value)  # every field, sign of zero included
        # the row written kind by kind is the oracle for the cell codec
        assert repr(parsed) == repr(decode_row(oracle_row(value, attr), attr))


# Cell texts for personas, with repeats, spelling variants and whitespace.
NOMBRE_CELLS = ["Ana", " Ana ", "Luis"]
EDAD_CELLS = [
    "0", "1", "2", "3;26;;;", "3;26", " 3 ; 26 ;;; ", "4;joven;;;", "4;JOVEN;;;", "4;1;;;",
    "5;20;;;30", "6;30;25;35;5", "6;30;;;5", "7;25;5;-5;45",
]
PELO_CELLS = ["0", "2", "3;1;rubio", "3;1;RUBIO", "3;0.5;moreno", "4;0.8;moreno;0.5;pelirrojo",
              "4;0.5;pelirrojo;0.80;Moreno"]


class TestLoadTable:
    @pytest.mark.parametrize("end", [b"\r", b"\r\n"])
    def test_bad_bytes_named_by_line_with_any_line_end(self, case_catalog, case_dir, tmp_path, end):
        with open(os.path.join(case_dir, "personas.csv"), "rb") as f:
            text = f.read().replace(b"\n", end)
        path = tmp_path / "personas.csv"
        path.write_bytes(text)
        assert len(load_table(path, "personas", case_catalog).rows) == 8
        path.write_bytes(text.replace(b"Marta,5;20", b"Marta,5;bad"))
        with pytest.raises(DataFileError, match=f"^{re.escape(str(path))}:4: column edad: "):
            load_table(path, "personas", case_catalog)
        path.write_bytes(text.replace(b"Marta", b"Mart\xff"))
        with pytest.raises(DataFileError, match=f"^{re.escape(str(path))}:4: not valid UTF-8$"):
            load_table(path, "personas", case_catalog)

    @settings(max_examples=50)
    @given(
        rows=st.lists(
            st.tuples(*(st.sampled_from(cells) for cells in (NOMBRE_CELLS, EDAD_CELLS, PELO_CELLS))),
            min_size=1,
            max_size=40,
        )
    )
    def test_repeated_cells_load_like_single_cells(self, shared_catalog, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("repeats") / "personas.csv"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["nombre", "edad", "pelo"])
            writer.writerows(rows)
        table = load_table(path, "personas", shared_catalog)
        expected = [
            [parse_cell(text, attr) for text, attr in zip(row, table.schema)] for row in rows
        ]
        assert table.rows == expected
        assert repr(table.rows) == repr(expected)  # sharing merges no spellings

    def test_repeated_scalar_pairs_and_plain_cells_share_one_object(self, tmp_path, case_catalog):
        path = tmp_path / "cartulina.csv"
        path.write_text("cod_carti,cod_capa,impresion,tono_cara,tono_reverso\n"
                        "1,10,Offset,4;0.4;amarillo;1;manila,3;0.4;amarillo\n"
                        "2,10,Offset,4;1;manila;0.4;amarillo,4;0.40;amarillo;1;manila\n")
        first, second = load_table(path, "cartulina", case_catalog).rows
        assert first[1] is second[1] and first[2] is second[2]
        assert first[3].pairs[0] is second[3].pairs[1] and first[3].pairs[1] is second[3].pairs[0]
        # equal pairs spelled differently stay apart; each column has its own pairs
        assert first[4].pairs[0] == second[4].pairs[0]
        assert first[4].pairs[0] is not second[4].pairs[0]
        assert first[4].pairs[0] is not first[3].pairs[0]

    def test_decoders_keep_no_memo_between_calls(self, case_catalog):
        attr = case_catalog.get("cartulina", "tono_cara")
        row = ConversionRow(4, (0.4, "amarillo", 1.0, "manila"))
        first, second = decode_row(row, attr), decode_row(row, attr)
        assert first == second and first.pairs[0] is not second.pairs[0]
        text = "4;0.4;amarillo;1;manila"
        assert parse_cell(text, attr).pairs[1] is not parse_cell(text, attr).pairs[1]

    def test_repeated_cells_share_one_value(self, tmp_path, case_catalog):
        path = tmp_path / "personas.csv"
        path.write_text("nombre,edad,pelo\nAna,3;26;;;,3;1;rubio\nLuis,3;26;;;,3;1;rubio\n")
        first, second = load_table(path, "personas", case_catalog).rows
        assert first[1] is second[1] and first[2] is second[2]

    def test_sharing_is_per_column(self, tmp_path, case_catalog):
        # a text that decoded in one column is still checked against the next
        path = tmp_path / "personas.csv"
        path.write_text("nombre,edad,pelo\nAna,3;26;;;,3;1;rubio\nLuis,3;1;rubio,0\n")
        with pytest.raises(DataFileError) as err:
            load_table(path, "personas", case_catalog)
        assert str(err.value).startswith(f"{path}:3: column edad: ")

    def test_loads_bundled_file(self, case_dir, case_catalog):
        table = load_table(os.path.join(case_dir, "cartulina.csv"), "cartulina", case_catalog)
        assert len(table.rows) == 14
        assert table.rows[3][0] == 444.0
        assert table.rows[3][4] == FuzzyValue.unknown()

    def test_accepts_any_column_order(self, tmp_path, case_catalog):
        path = tmp_path / "personas.csv"
        path.write_text("pelo,nombre,edad\n3;1;rubio,Ana,3;26;;;\n")
        table = load_table(path, "personas", case_catalog)
        assert table.rows[0][0] == "Ana"  # schema order, not file order
        assert table.rows[0][1] == FuzzyValue.crisp(26)

    def test_rejects_wrong_columns(self, tmp_path, case_catalog):
        path = tmp_path / "personas.csv"
        path.write_text("nombre,edad\nAna,3;26;;;\n")
        with pytest.raises(DataFileError) as err:
            load_table(path, "personas", case_catalog)
        assert "header" in str(err.value)

    @pytest.mark.parametrize("text, message", [
        ("", "empty table file"),
        ("nombre,edad\nAna,3;26;;;\n",
         "header ['nombre', 'edad'] does not match the registered columns ['nombre', 'edad', 'pelo']"),
        ("\nnombre,edad,pelo\n",
         "header [] does not match the registered columns ['nombre', 'edad', 'pelo']"),
    ], ids=["empty", "wrong", "blank_first_line"])
    def test_header_errors_name_line_one(self, tmp_path, case_catalog, text, message):
        path = tmp_path / "personas.csv"
        path.write_text(text)
        with pytest.raises(DataFileError) as err:
            load_table(path, "personas", case_catalog)
        assert str(err.value) == f"{path}:1: {message}"

    def test_rejects_ragged_rows(self, tmp_path, case_catalog):
        path = tmp_path / "personas.csv"
        path.write_text("nombre,edad,pelo\nAna,3;26;;;\n")
        with pytest.raises(DataFileError) as err:
            load_table(path, "personas", case_catalog)
        assert ":2:" in str(err.value)

    def test_cell_errors_carry_position(self, tmp_path, case_catalog):
        path = tmp_path / "personas.csv"
        path.write_text("nombre,edad,pelo\nAna,3;26;;;,3;1;rubio\nLuis,bad,3;1;moreno\n")
        with pytest.raises(DataFileError) as err:
            load_table(path, "personas", case_catalog)
        message = str(err.value)
        assert ":3:" in message
        assert "edad" in message

    @pytest.mark.parametrize("cell", ["3;inf;;;", "3;nan", "5;1;;;-Infinity", "7;1;1e400;-1;4"])
    def test_non_finite_numbers_rejected(self, tmp_path, case_catalog, cell):
        path = tmp_path / "personas.csv"
        path.write_text(f"nombre,edad,pelo\nAna,3;26;;;,0\nLuis,{cell},0\n")
        with pytest.raises(DataFileError) as err:
            load_table(path, "personas", case_catalog)
        message = str(err.value)
        assert "personas.csv:3: column edad: expected a finite number" in message

    @pytest.mark.parametrize("text", ["inf", "nan", "-1e999"])
    def test_non_finite_plain_and_degree_rejected(self, case_catalog, tone_attr, text):
        with pytest.raises(DataFileError):
            parse_cell(text, case_catalog.get("pilas", "cod_pila"))
        with pytest.raises(DataFileError):
            parse_cell(f"3;{text};blanco", tone_attr)

    def test_missing_file(self, tmp_path, case_catalog):
        with pytest.raises(DataFileError):
            load_table(tmp_path / "nope.csv", "personas", case_catalog)

    def test_failed_save_keeps_the_old_file(self, tmp_path, case_dir, case_catalog):
        table = load_table(os.path.join(case_dir, "pilas.csv"), "pilas", case_catalog)
        path = tmp_path / "pilas.csv"
        save_table(table, path)
        before = path.read_bytes()
        slot = table.column_index("formato_largo")
        table.rows[0][slot] = FuzzyValue.crisp(1)
        table.rows[-1][slot] = FuzzyValue.trapezoid(-1e308, 1e308, 1e308, 1e308)
        with pytest.raises(ConversionError):
            save_table(table, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["pilas.csv"]

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_plain_cell_of_an_api_table_is_refused(self, tmp_path, case_dir,
                                                               case_catalog, x):
        table = load_table(os.path.join(case_dir, "pilas.csv"), "pilas", case_catalog)
        path = tmp_path / "pilas.csv"
        save_table(table, path)
        before = path.read_bytes()
        table.rows[-1][table.column_index("cod_pila")] = x
        message = re.escape(f"expected a finite number, got {x!r}")
        with pytest.raises(FuzzyDbError, match=message):
            save_table(table, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["pilas.csv"]
        result = run_query("SELECT cod_pila FROM pilas WHERE formato_largo FEQ 65 THOLD 0",
                           case_catalog, tables={"pilas": table})
        for fmt in ("table", "csv", "jsonl"):
            with pytest.raises(FuzzyDbError, match=message):
                format_result(result, fmt)

    def test_save_load_round_trip(self, tmp_path, case_dir, case_catalog):
        for name in ("cartulina", "pilas", "rollos", "personas"):
            original = load_table(os.path.join(case_dir, name + ".csv"), name, case_catalog)
            path = tmp_path / (name + ".csv")
            save_table(original, path)
            again = load_table(path, name, case_catalog)
            assert again.rows == original.rows


def oracle_cell(value, attr):
    """A cell as save_table wrote it one cell at a time: oracle_row, then each field as text."""
    if attr.ftype is FuzzyType.PRECISE:
        return format_number(value) if attr.domain_kind == "numeric" else str(value)
    row = oracle_row(value, attr)
    if row.ft < 3:
        return str(row.ft)
    if value.kind is ValueKind.LABEL:
        return f"4;{attr.label_by_id(int(row.fields[0])).name};;;"
    texts = ("" if x is None else x if isinstance(x, str) else format_number(x) for x in row.fields)
    return ";".join((str(row.ft), *texts))


def oracle_save(table, path):
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([attr.column for attr in table.schema])
        for row in table.rows:
            writer.writerow([oracle_cell(cell, attr) for cell, attr in zip(row, table.schema)])


def column_values(attr):
    """Values that attr's column stores, label names also in another case."""
    if attr.ftype is FuzzyType.PRECISE:
        if attr.domain_kind == "numeric":
            return st.one_of(PLAIN_NUMBERS, NUMBERS, st.integers(-2 ** 60, 2 ** 60))
        text = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
                       max_size=6)
        return text.filter(lambda t: t == t.strip())
    names = [ld.name for ld in attr.labels]
    if attr.ftype is FuzzyType.FUZZY_ORDERED:
        return st.one_of(ordered_values(names),
                         st.sampled_from(names).map(lambda n: FuzzyValue.label(n.upper())),
                         st.sampled_from([FuzzyValue.crisp(0.0), FuzzyValue.crisp(-0.0)]))
    return st.one_of(scalar_values(names), scalar_values([n.upper() for n in names]))


class TestEncodeValue:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_the_row_written_kind_by_kind(self, shared_catalog, data):
        attr = data.draw(st.sampled_from(shared_catalog.attributes()))
        width = [ld.name for ld in shared_catalog.get("pilas", "formato_largo").labels]
        tone = [ld.name for ld in shared_catalog.get("cartulina", "tono_cara").labels]
        # the column's own values, and values of either layout, which other columns refuse
        value = data.draw(st.one_of(column_values(attr), ordered_values(width), scalar_values(tone)))
        assert row_outcome(encode_value, value, attr) == row_outcome(oracle_row, value, attr)


def twin(value):
    """An equal value held in another object."""
    if isinstance(value, FuzzyValue):
        return copy.copy(value)
    return float(repr(value)) if isinstance(value, float) else value


class TestSaveTable:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bytes_match_the_cell_at_a_time_oracle(self, shared_catalog, tmp_path_factory, data):
        name = data.draw(st.sampled_from(shared_catalog.tables()))
        schema = shared_catalog.table_schema(name)
        # a small pool of value objects that rows share, as load_table shares them
        pools = [data.draw(st.lists(column_values(attr), min_size=1, max_size=4)) for attr in schema]

        def cell(i):
            # a pooled object, an equal copy held apart from it, or a value of its own
            pool = st.sampled_from(pools[i])
            return st.one_of(pool, pool.map(twin), column_values(schema[i]))

        rows = data.draw(st.lists(st.tuples(*map(cell, range(len(schema)))).map(list), max_size=25))
        table = Table(name, schema, rows)
        directory = tmp_path_factory.mktemp("save")
        save_table(table, directory / "columns.csv")
        oracle_save(table, directory / "cells.csv")
        assert (directory / "columns.csv").read_bytes() == (directory / "cells.csv").read_bytes()

    def test_equal_values_that_write_differently_stay_apart(self, tmp_path, case_catalog):
        # equal as values, apart as objects: a memo keyed by value would merge them
        zero, negative = FuzzyValue.crisp(0.0), FuzzyValue.crisp(-0.0)
        assert zero == negative and hash(zero) == hash(negative)
        people = Table("personas", case_catalog.table_schema("personas"), [
            ["a", zero, FuzzyValue.simple(1, "RUBIO")], ["b", negative, FuzzyValue.null()],
            ["c", FuzzyValue.label("JOVEN"), FuzzyValue.simple(1, "rubio")],
            ["d", FuzzyValue.label("joven"), FuzzyValue.null()],
        ])
        stacks = Table("pilas", case_catalog.table_schema("pilas"), [
            [code, FuzzyValue.null(), FuzzyValue.null(), FuzzyValue.null()]
            for code in (0.0, -0.0, 0, 1, 1.0, 2 ** 60)
        ])
        for table in (people, stacks):
            save_table(table, tmp_path / "columns.csv")
            oracle_save(table, tmp_path / "cells.csv")
            assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
        assert (tmp_path / "cells.csv").read_text().split()[1:3] == ["0,2,2,2", "-0.0,2,2,2"]
        save_table(people, tmp_path / "personas.csv")
        assert (tmp_path / "personas.csv").read_text() == (
            "nombre,edad,pelo\na,3;0;;;,3;1;RUBIO\nb,3;-0.0;;;,2\n"
            "c,4;joven;;;,3;1;rubio\nd,4;joven;;;,2\n"
        )

    def test_bundled_tables_match_the_oracle(self, tmp_path, case_dir, case_catalog):
        for name in case_catalog.tables():
            table = load_table(os.path.join(case_dir, name + ".csv"), name, case_catalog)
            save_table(table, tmp_path / "columns.csv")
            oracle_save(table, tmp_path / "cells.csv")
            assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    @pytest.mark.parametrize("column, value, message", [
        ("tono_cara", FuzzyValue.simple(0.5, "verde_lima"), "element 'verde_lima' is not in the domain"),
        ("tono_cara", FuzzyValue.simple(0.5, "a;b"), "element 'a;b' is not in the domain"),
        ("tono_cara", FuzzyValue.simple(0.5, "5"), "element '5' is not in the domain"),
        ("tono_cara", 0.5, "expected a fuzzy value, got 0.5"),
        ("tono_cara", FuzzyValue.crisp(3), "crisp value cannot be stored in a scalar column"),
        ("cod_carti", FuzzyValue.crisp(3), "crisp value cannot be stored in a plain column"),
        ("cod_carti", "3", "expected a number, got '3'"),
        ("impresion", FuzzyValue.label("x"), "label value cannot be stored in a plain column"),
        ("impresion", " Offset", "expected text with no surrounding whitespace, got ' Offset'"),
    ])
    def test_unloadable_cell_is_refused_before_anything_is_written(
            self, tmp_path, case_dir, case_catalog, column, value, message):
        table = load_table(os.path.join(case_dir, "cartulina.csv"), "cartulina", case_catalog)
        path = tmp_path / "cartulina.csv"
        save_table(table, path)
        before = path.read_bytes()
        slot = table.column_index(column)
        table.rows[3][slot] = table.rows[9][slot] = value  # the first row at fault is named
        with pytest.raises(ConversionError) as err:
            save_table(table, path)
        assert str(err.value) == f"{path}:5: column {column}: {message}"
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cartulina.csv"]
        with pytest.raises(FuzzyDbError, match=re.escape(message)):
            format_cell(value, table.schema[slot])

    def test_error_names_the_line_the_loader_would_name(self, tmp_path, case_catalog):
        schema = case_catalog.table_schema("personas")
        null = FuzzyValue.null()
        table = Table("personas", schema, [["Ana\nMaria", null, null], ["Luis", null, 0.5]])
        path = tmp_path / "p.csv"
        with pytest.raises(ConversionError) as err:
            save_table(table, path)
        assert str(err.value) == f"{path}:4: column pelo: expected a fuzzy value, got 0.5"
        table.rows[1][2] = null
        save_table(table, path)
        path.write_text(path.read_text().replace("Luis,2,2", "Luis,2,0.5"))
        with pytest.raises(DataFileError, match=f"^{re.escape(str(path))}:4: column pelo: "):
            load_table(path, "personas", case_catalog)

    def test_load_and_save_name_the_first_line_of_a_multi_line_record(self, tmp_path, case_catalog):
        path = tmp_path / "q.csv"
        path.write_text('nombre,edad,pelo\n"Ana\nMaria",bad,0\n', encoding="utf-8")
        with pytest.raises(DataFileError, match=f"^{re.escape(str(path))}:2: column edad: "):
            load_table(path, "personas", case_catalog)
        table = Table("personas", case_catalog.table_schema("personas"),
                      [["Ana\nMaria", "bad", FuzzyValue.unknown()]])
        with pytest.raises(ConversionError, match=f"^{re.escape(str(tmp_path / 'q2.csv'))}:2: column edad: "):
            save_table(table, tmp_path / "q2.csv")

    def test_fault_is_named_in_row_order_then_column_order(self, tmp_path, case_tables):
        table = case_tables["personas"]
        table.rows[1][1] = "bad"  # line 3, the second column
        table.rows[5][0] = " padded"  # line 7, the first column
        with pytest.raises(ConversionError) as err:
            save_table(table, tmp_path / "personas.csv")
        assert str(err.value) == f"{tmp_path / 'personas.csv'}:3: column edad: expected a fuzzy value, got 'bad'"

    def test_text_too_long_for_the_reader_is_refused(self, tmp_path, case_catalog, case_tables):
        limit = csv.field_size_limit()
        table = case_tables["personas"]
        path = tmp_path / "personas.csv"
        table.rows[0][0] = "x" * limit  # the longest field load_table reads
        save_table(table, path)
        assert load_table(path, "personas", case_catalog).rows[0][0] == "x" * limit
        before = path.read_bytes()
        table.rows[2][0] = "x" * (limit + 1)
        with pytest.raises(ConversionError) as err:
            save_table(table, path)
        assert str(err.value) == f"{path}:4: column nombre: field larger than field limit ({limit})"
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["personas.csv"]

    def test_line_breaks_of_every_kind_count(self, tmp_path, case_catalog):
        schema = case_catalog.table_schema("personas")
        null = FuzzyValue.null()
        table = Table("personas", schema, [["a\r\nb\rc\nd", null, null], ["e", null, null, null]])
        path = tmp_path / "p.csv"
        with pytest.raises(ConversionError, match=re.escape("p.csv:6: expected 3 cells, found 4")):
            save_table(table, path)
        table.rows[1].pop()
        save_table(table, path)
        path.write_bytes(path.read_bytes().replace(b"e,2,2", b"e,2,0.5"))
        with pytest.raises(DataFileError, match=f"^{re.escape(str(path))}:6: column pelo: "):
            load_table(path, "personas", case_catalog)

    def test_row_of_another_width_is_refused(self, tmp_path, case_tables):
        table = case_tables["personas"]
        table.rows[1] = table.rows[1][:2]
        with pytest.raises(ConversionError, match=re.escape("personas.csv:3: expected 3 cells, found 2")):
            save_table(table, tmp_path / "personas.csv")
        assert os.listdir(tmp_path) == []


class TestExecute:
    def test_flagship_rows(self, case_catalog, case_tables):
        plan = compile_query(FLAGSHIP, case_catalog)
        result = execute(plan, case_tables["cartulina"])
        assert [(row[0], row[5], row[6]) for row in result.rows] == [
            (444.0, 0.5, 1.0),
            (226.0, 0.5, 0.9),
            (228.0, 1.0, 1.0),
        ]
        assert result.stats.rows_in == 14
        assert result.stats.rows_out == 3

    def test_threshold_boundary_is_inclusive(self, case_catalog, case_tables):
        plan = compile_query(
            "SELECT cod_carti FROM cartulina WHERE tono_cara FEQ $blanco THOLD 1",
            case_catalog,
        )
        result = execute(plan, case_tables["cartulina"])
        # the two unknown tones count as fully possible; 228 is certainly blanco
        assert [row[0] for row in result.rows] == [333.0, 777.0, 228.0]

    def test_or_passes_either_branch(self, case_catalog, case_tables):
        plan = compile_query(
            "SELECT cod_pila FROM pilas WHERE formato_largo FEQ $corta THOLD 0.9 "
            "OR formato_ancho FEQ $angosto THOLD 0.9",
            case_catalog,
        )
        result = execute(plan, case_tables["pilas"])
        assert [row[0] for row in result.rows] == [3.0, 5.0, 7.0]

    def test_every_degree_is_computed(self, case_catalog, case_tables):
        table = case_tables["cartulina"]
        plan = compile_query(
            "SELECT cartulina.%, CDEG(tono_cara), CDEG(tono_reverso) FROM cartulina "
            "WHERE tono_cara FEQ $blanco THOLD 0.99 OR tono_reverso FEQ $blanco THOLD 0.99 "
            "OR tono_cara FEQ $cafe THOLD 0.99",
            case_catalog,
        )
        result = execute(plan, table)
        assert result.headers[-5:] == ["CDEG(tono_cara)", "CDEG(tono_reverso)", "CDEG(tono_cara)",
                                       "CDEG(tono_cara)", "CDEG(tono_reverso)"]
        expected = []
        decided_early = 0
        for row in table.rows:
            d = [oracle_feq(row[table.column_index(c.attr.column)], c.operand, c.attr)
                 for c in plan.conditions]
            if any(x >= 0.99 for x in d):
                # % adds one CDEG per condition; CDEG(tono_cara) is the min of conditions 1 and 3
                expected.append([*row, d[0], d[1], d[2], min(d[0], d[2]), d[1]])
                decided_early += d[0] >= 0.99 and min(d[1], d[2]) < 0.99
        assert result.rows == expected
        assert repr(result.rows) == repr(expected)  # bit for bit
        # rows the first branch kept still report the later conditions' lower degrees
        assert decided_early >= 2

    def test_cdeg_combines_with_min(self, case_catalog, case_tables):
        plan = compile_query(
            "SELECT nombre, CDEG(edad) FROM personas WHERE edad FEQ $joven THOLD 0.1 "
            "AND edad FEQ $maduro THOLD 0.1",
            case_catalog,
        )
        result = execute(plan, case_tables["personas"])
        by_name = {row[0]: row[1] for row in result.rows}
        # Rosa is certainly young and half-possibly mature: min(1, 0.5)
        assert by_name["Rosa"] == 0.5
        assert by_name["Pablo"] == 1.0

    def test_plain_numeric_columns_compare_as_points(self, case_catalog, case_tables):
        plan = compile_query(
            "SELECT cod_pila FROM pilas WHERE cod_pila FEQ 3", case_catalog
        )
        result = execute(plan, case_tables["pilas"])
        assert [row[0] for row in result.rows] == [3.0]


def oracle_execute(plan, table):
    """Row at a time: oracle_feq per row and condition, then a recursive walk of the filter tree."""

    def satisfied(node, degrees):
        if isinstance(node, CompiledCondition):
            return degrees[node.index] >= node.threshold
        test = all if isinstance(node, And) else any
        return test(satisfied(child, degrees) for child in node.children)

    out = []
    for row in table.rows:
        degrees = []
        for cond in plan.conditions:
            cell = row[table.column_index(cond.attr.column)]
            value = cell if isinstance(cell, FuzzyValue) else FuzzyValue.crisp(cell)
            degrees.append(oracle_feq(value, cond.operand, cond.attr))
        if plan.tree is None or satisfied(plan.tree, degrees):
            out.append([
                row[table.column_index(col.attr.column)] if isinstance(col, PhysicalColumn)
                else min(degrees[i] for i in col.indexes)
                for col in plan.outputs
            ])
    return out


@pytest.fixture(scope="module")
def lots_catalog():
    """One table with a plain numeric, an ordered fuzzy and a scalar fuzzy column."""
    cat = Catalog()
    cat.register_attribute("lots", "code", 1, "numeric")
    cat.register_attribute("lots", "width", 2, "numeric")
    cat.register_attribute("lots", "finish", 3, "scalar")
    cat.define_label("lots", "code", "zero", (-10, 0, 0, 10))
    for name, corners in (("zero", (-10, 0, 0, 10)), ("narrow", (0, 0, 30, 40)),
                          ("wide", (30, 40, 80, 90))):
        cat.define_label("lots", "width", name, corners)
    for name in ("matte", "satin", "gloss"):
        cat.define_label("lots", "finish", name)
    cat.set_similarity("lots", "finish", "satin", "gloss", 0.7)
    cat.set_similarity("lots", "finish", "matte", "satin", 0.2)
    return cat


PLAIN_NUMBERS = st.one_of(
    st.sampled_from([0, -0.0, 0.0, 30, 30.0, 35.5]),
    st.integers(-50, 150),
    st.floats(-50, 150),
)
THRESHOLDS = st.one_of(st.sampled_from([0, 1]), st.integers(0, 100).map(lambda k: k / 100))
CONDITIONS = {
    "code": st.sampled_from(["$zero", "0", "30", "35.5", "90"]),
    "width": st.sampled_from(["$zero", "$narrow", "$wide", "0", "30", "35.5", "90"]),
    "finish": st.sampled_from(["$matte", "$satin", "$gloss"]),
}


def conditions():
    leaf = st.sampled_from(sorted(CONDITIONS)).flatmap(
        lambda column: st.tuples(st.just(column), CONDITIONS[column], THRESHOLDS)
    ).map(lambda c: f"{c[0]} FEQ {c[1]} THOLD {format_number(c[2])}")
    return st.recursive(
        leaf,
        lambda children: st.tuples(st.sampled_from([" AND ", " OR "]),
                                   st.lists(children, min_size=2, max_size=3))
        .map(lambda t: "(" + t[0].join(t[1]) + ")"),
        max_leaves=6,
    )


class TestExecuteOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_row_at_a_time(self, lots_catalog, data):
        schema = lots_catalog.table_schema("lots")
        widths = ordered_values(["zero", "narrow", "wide"])
        finishes = scalar_values(["matte", "satin", "gloss"])
        # a small pool of value objects that rows share, as load_table shares them
        pool = data.draw(st.tuples(st.lists(widths, min_size=1, max_size=4),
                                   st.lists(finishes, min_size=1, max_size=4)))

        def cell(column):
            # a pooled object, an equal copy held apart from it, or a value of its own
            return st.one_of(st.sampled_from(pool[column]),
                             st.sampled_from(pool[column]).map(copy.copy),
                             (widths, finishes)[column])

        rows = data.draw(st.lists(st.tuples(PLAIN_NUMBERS, cell(0), cell(1)).map(list),
                                  max_size=30))
        table = Table("lots", schema, rows)
        where = data.draw(st.none() | conditions())
        columns = {c for c in CONDITIONS if where is not None and f"{c} FEQ" in where}
        items = data.draw(st.lists(
            st.sampled_from(["lots.%", "code", "width", "finish"]
                            + [f"CDEG({c})" for c in sorted(columns)]),
            min_size=1, max_size=5,
        ))
        sql = f"SELECT {', '.join(items)} FROM lots" + (f" WHERE {where}" if where else "")
        plan = compile_query(sql, lots_catalog)
        result = execute(plan, table)
        expected = oracle_execute(plan, table)
        assert result.rows == expected
        assert repr(result.rows) == repr(expected)  # every degree bit for bit, sign of zero too
        assert (result.stats.rows_in, result.stats.rows_out) == (len(rows), len(expected))

    def test_first_error_is_the_same_fuzzydb_error(self, lots_catalog):
        schema = lots_catalog.table_schema("lots")
        table = Table("lots", schema, [[1, FuzzyValue.simple(1, "satin"), FuzzyValue.null()]])
        plan = compile_query("SELECT code FROM lots WHERE width FEQ $wide", lots_catalog)
        with pytest.raises(FuzzyDbError) as err:
            oracle_execute(plan, table)
        with pytest.raises(FuzzyDbError, match=f"^{re.escape(str(err.value))}$"):
            execute(plan, table)


# Numbers for the ordered kernel: both zeros, subnormals, huge values, the
# lots labels' corners and a grid around them (so edges meet and cores touch).
KERNEL_NUMBERS = st.one_of(
    st.sampled_from([0, -0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, -10, 30, 35.5, 40, 90]),
    st.integers(-20, 100),
    st.integers(-40, 200).map(lambda k: k / 2),
    st.floats(allow_nan=False, allow_infinity=False),
)
LOTS_LABELS = {"code": ["zero", "ZERO"], "width": ["zero", "narrow", "Wide"]}


def kernel_cells(labels):
    """Every ordered kind, the specials and plain ints and floats, collapsed edges among them."""
    n = KERNEL_NUMBERS
    return st.one_of(
        SPECIALS,
        n,
        n.map(FuzzyValue.crisp),
        st.sampled_from(labels).map(FuzzyValue.label),
        st.tuples(n, n).filter(lambda t: t[0] < t[1]).map(lambda t: FuzzyValue.interval(*t)),
        st.tuples(n, n).filter(lambda t: _approx_fits(*t)).map(lambda t: FuzzyValue.approx(*t)),
        st.tuples(n, n, n, n).map(sorted).map(lambda t: FuzzyValue.trapezoid(*t)),
        st.tuples(n, n).map(sorted).map(lambda t: FuzzyValue.trapezoid(t[0], t[0], t[1], t[1])),
    )


def feq_degrees(cond, cells):
    """The oracle: oracle_feq on each cell, a plain cell as the crisp number it holds."""
    return [oracle_feq(cell if isinstance(cell, FuzzyValue) else FuzzyValue.crisp(cell),
                       cond.operand, cond.attr) for cell in cells]


def kernel_degrees(cond, cells):
    """The kernel on cond's column, as execute calls it."""
    return feq_column(cond.operand, cond.attr, cells)


def kernel_condition(data, catalog):
    column = data.draw(st.sampled_from(sorted(LOTS_LABELS)))
    # the operands a compile makes, and the specials
    operand = data.draw(st.one_of(st.sampled_from(LOTS_LABELS[column]).map(FuzzyValue.label),
                                  KERNEL_NUMBERS.map(FuzzyValue.crisp), SPECIALS))
    return CompiledCondition(0, catalog.get("lots", column), operand, 0.0)


class TestOrderedKernel:
    """feq_column on ordered columns against oracle_feq, every bit and the sign of zero."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_feq_bit_for_bit(self, lots_catalog, data):
        cond = kernel_condition(data, lots_catalog)
        cells = data.draw(st.lists(kernel_cells(LOTS_LABELS[cond.attr.column]), max_size=20))
        assert repr(kernel_degrees(cond, cells)) == repr(feq_degrees(cond, cells))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_refuses_what_feq_refuses(self, lots_catalog, data):
        # the same error, type and message, for the first cell at fault
        cond = kernel_condition(data, lots_catalog)
        faults = st.sampled_from([FuzzyValue.simple(1, "satin"), FuzzyValue.label("nope"),
                                  FuzzyValue.poss_dist([(1, "satin"), (0.5, "gloss")]), math.inf,
                                  math.nan])
        cells = data.draw(st.lists(st.one_of(kernel_cells(LOTS_LABELS[cond.attr.column]), faults),
                                   max_size=8))
        assert (oracle_outcome(kernel_degrees, cond, cells)
                == oracle_outcome(feq_degrees, cond, cells))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_repeated_numbers_and_names_match_feq_bit_for_bit(self, lots_catalog, data):
        # few distinct values, drawn again and again as distinct and as shared objects:
        # both zeros, an int crisp beside its float, two spellings of a label, and faults
        cond = kernel_condition(data, lots_catalog)
        labels = LOTS_LABELS[cond.attr.column]
        pool = data.draw(st.lists(kernel_cells(labels), min_size=1, max_size=4))
        pool += [FuzzyValue.crisp(0.0), FuzzyValue.crisp(-0.0), FuzzyValue(ValueKind.CRISP, number=3),
                 FuzzyValue.crisp(3), *map(FuzzyValue.label, labels), FuzzyValue.label(labels[0].upper())]
        faults = [FuzzyValue.label("nope"), FuzzyValue.simple(1, "satin"), math.inf]
        picks = data.draw(st.lists(st.sampled_from(pool + faults), max_size=30))
        cells = [copy.copy(c) if data.draw(st.booleans()) else c for c in picks]
        assert (oracle_outcome(kernel_degrees, cond, cells)
                == oracle_outcome(feq_degrees, cond, cells))
        assert (oracle_outcome(kernel_degrees, cond, iter(cells))
                == oracle_outcome(feq_degrees, cond, cells))

    def test_a_label_is_resolved_once_per_name_and_call(self, lots_catalog):
        width = lots_catalog.get("lots", "width")
        asked = []

        def trapezoid_for(name):
            asked.append(name)
            return width.trapezoid_for(name)

        attr = types.SimpleNamespace(ftype=2, trapezoid_for=trapezoid_for)
        cells = [FuzzyValue.label(name) for name in ("narrow", "Wide", "narrow", "NARROW", "Wide")] * 3
        degrees = feq_column(FuzzyValue.crisp(12), attr, cells)
        assert repr(degrees) == repr(feq_column(FuzzyValue.crisp(12), width, cells))
        assert asked == ["narrow", "Wide", "NARROW"]
        feq_column(FuzzyValue.crisp(12), attr, cells[:2])
        assert asked[3:] == ["narrow", "Wide"]  # nothing is kept from one call to the next

    @pytest.mark.parametrize("ftype", [1, 2])
    def test_operand_is_resolved_only_for_a_cell_that_is_not_special(self, ftype):
        # a descriptor assembled by hand: its label has no trapezoid, which feq
        # needs only for a cell that is not special
        attr = AttributeDescriptor("lots", "width", ftype, "numeric",
                                   labels=[LabelDefinition(1, "vague")])
        cond = CompiledCondition(0, attr, FuzzyValue.label("vague"), 0.0)
        plan = CompiledPlan("lots", (DegreeColumn("CDEG(width)", (0,)),), (cond,), cond, "")
        specials = [FuzzyValue.unknown(), FuzzyValue.null(), FuzzyValue.undefined(),
                    FuzzyValue.unknown()]
        for cells in ([], specials):
            expected = feq_degrees(cond, cells)
            assert repr(kernel_degrees(cond, cells)) == repr(expected)
            result = execute(plan, Table("lots", [attr], [[cell] for cell in cells]))
            assert repr(result.rows) == repr([[d] for d in expected])  # THOLD 0 keeps them all
        for cell in (FuzzyValue.crisp(1), 1.0):
            with pytest.raises(CatalogError, match="has no trapezoid form") as err:
                feq_degrees(cond, [*specials, cell])
            with pytest.raises(CatalogError, match=f"^{re.escape(str(err.value))}$"):
                execute(plan, Table("lots", [attr], [[c] for c in [*specials, cell]]))


# Scalar-kernel inputs: the lots finishes in other spellings, names and numbers
# outside the domain, and degrees at the ends of [0, 1].
FINISHES = ["matte", "satin", "gloss"]
SPELLINGS = st.sampled_from(FINISHES).flatmap(
    lambda name: st.sampled_from([name, name.upper(), name.title()]))
ELEMENTS = st.one_of(SPELLINGS, st.sampled_from(["nope", "mate"]))
POSSIBILITIES = st.one_of(st.sampled_from([1.0, 0.5, 5e-324]), st.floats(0, 1, exclude_min=True))
SIMILARITIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0, 1, 0.5]), st.floats(0, 1))


def scalar_kernel_cells():
    """Specials, simple, poss_dist and label cells, plain numbers and ordered kinds."""
    names = st.lists(ELEMENTS, min_size=1, max_size=3, unique_by=fold_name)
    return st.one_of(
        SPECIALS,
        st.tuples(POSSIBILITIES, ELEMENTS).map(lambda t: FuzzyValue.simple(*t)),
        names.flatmap(lambda elements: st.lists(
            POSSIBILITIES, min_size=len(elements), max_size=len(elements)).map(
                lambda ps: FuzzyValue.poss_dist(zip(ps, elements)))),
        st.one_of(SPELLINGS, st.just("nope")).map(FuzzyValue.label),
        st.sampled_from([0, 1.5, -0.0, True, math.inf]),
        st.sampled_from([FuzzyValue.crisp(1), FuzzyValue.interval(1, 2)]),
    )


def scalar_kernel_attr(data, catalog):
    """The catalog's finish column, one with a hand-built asymmetric relation, or one with none."""
    labels = [LabelDefinition(i + 1, name) for i, name in enumerate(FINISHES)]
    matrix = data.draw(st.lists(st.lists(SIMILARITIES, min_size=3, max_size=3),
                                min_size=3, max_size=3))
    return data.draw(st.sampled_from([
        catalog.get("lots", "finish"),
        AttributeDescriptor("lots", "finish", 3, "scalar", labels=labels,
                            similarity=SimilarityRelation(FINISHES, matrix)),
        AttributeDescriptor("lots", "finish", 3, "scalar", labels=labels),
    ]))


class TestPlainCells:
    """The kernel reads a plain (type 1) cell itself, with core.plain_number."""

    @pytest.mark.parametrize("operand", [FuzzyValue.crisp(30), FuzzyValue.label("joven"),
                                         FuzzyValue.unknown(), FuzzyValue.null()])
    def test_refused_cells(self, case_catalog, operand):
        edad = case_catalog.get("personas", "edad")
        with pytest.raises(ConversionError, match="^expected a number, got 'abc'$"):
            feq_column(operand, edad, [30.0, "abc"])
        with pytest.raises(ConversionError, match="^expected a finite number, got an integer too large"):
            feq_column(operand, edad, [10 ** 400])
        with pytest.raises(FuzzyValueError, match="^crisp value must be a finite number, got inf$"):
            feq_column(operand, edad, [math.inf])

    def test_plain_numbers_are_crisp_values(self, case_catalog):
        edad = case_catalog.get("personas", "edad")
        cells = [30.0, 30, True, 26.5]
        assert feq_column(FuzzyValue.crisp(30), edad, cells) == feq_column(
            FuzzyValue.crisp(30), edad, [FuzzyValue.crisp(c) for c in cells]) == [1.0, 1.0, 0.0, 0.0]
        assert feq_column(FuzzyValue.unknown(), edad, cells) == [1.0] * 4
        assert feq_column(FuzzyValue.null(), edad, cells) == [0.0] * 4

    def test_plain_cell_on_an_unordered_column(self, case_catalog):
        pelo = case_catalog.get("personas", "pelo")
        with pytest.raises(ConversionError, match="^expected a number, got 'abc'$"):
            feq_column(FuzzyValue.label("rubio"), pelo, ["abc"])
        with pytest.raises(FuzzyValueError, match="^crisp value is not comparable on an unordered"):
            feq_column(FuzzyValue.label("rubio"), pelo, [3.0])


class TestScalarKernel:
    """feq_column on scalar columns against oracle_feq: the same degrees, or the same error."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_feq_or_its_error(self, lots_catalog, data):
        attr = scalar_kernel_attr(data, lots_catalog)
        operand = data.draw(st.one_of(SPELLINGS.map(FuzzyValue.label), SPECIALS))
        cond = CompiledCondition(0, attr, operand, 0.0)
        cells = data.draw(st.lists(scalar_kernel_cells(), max_size=8))
        assert (oracle_outcome(kernel_degrees, cond, cells)
                == oracle_outcome(feq_degrees, cond, cells))

    def test_an_asymmetric_relation_is_read_cell_first(self):
        # s(cell element, operand element), as feq reads it
        matrix = [[1.0, 0.25, 0.0], [0.75, 1.0, 0.0], [0.0, 0.0, 1.0]]
        attr = AttributeDescriptor("lots", "finish", 3, "scalar",
                                   similarity=SimilarityRelation(FINISHES, matrix))
        cells = [FuzzyValue.label("matte"), FuzzyValue.simple(1, "SATIN"),
                 FuzzyValue.poss_dist([(0.5, "matte"), (0.125, "gloss")])]
        for operand, expected in (("satin", [0.25, 1.0, 0.25]), ("matte", [1.0, 0.75, 0.5])):
            cond = CompiledCondition(0, attr, FuzzyValue.label(operand), 0.0)
            assert feq_degrees(cond, cells) == expected
            assert repr(kernel_degrees(cond, cells)) == repr(expected)


class TestExecuteErrors:
    """execute raises the error of the first cell at fault in row order, then condition order."""

    @staticmethod
    def assert_oracle_error(plan, table, message):
        with pytest.raises(FuzzyDbError) as err:
            oracle_execute(plan, table)
        assert message in str(err.value)
        with pytest.raises(FuzzyDbError, match=f"^{re.escape(str(err.value))}$"):
            execute(plan, table)

    def test_first_row_at_fault_in_one_column(self, lots_catalog):
        rows = [[1, FuzzyValue.simple(1, "satin"), FuzzyValue.null()],
                [2, FuzzyValue.poss_dist([(1, "satin"), (0.5, "gloss")]), FuzzyValue.null()]]
        plan = compile_query("SELECT code FROM lots WHERE width FEQ $wide", lots_catalog)
        self.assert_oracle_error(plan, Table("lots", lots_catalog.table_schema("lots"), rows),
                                 "simple value is not comparable")

    def test_an_earlier_row_comes_before_an_earlier_condition(self, lots_catalog):
        rows = [[1, FuzzyValue.crisp(35), FuzzyValue.crisp(3)],
                [2, FuzzyValue.simple(1, "satin"), FuzzyValue.null()]]
        plan = compile_query("SELECT code FROM lots WHERE width FEQ $wide AND finish FEQ $satin",
                             lots_catalog)
        self.assert_oracle_error(plan, Table("lots", lots_catalog.table_schema("lots"), rows),
                                 "crisp value is not comparable on an unordered (type 3) attribute")

    @pytest.mark.parametrize("cell, message", [
        ("abc", "expected a number, got 'abc'"),
        (None, "expected a number, got None"),
        ("3", "expected a number, got '3'"),
        (FuzzyValue.crisp(3), None),
        (10 ** 400, "expected a finite number, got an integer too large for a float"),
    ])
    def test_plain_numeric_column_takes_numbers_only(self, lots_catalog, tmp_path, cell, message):
        schema = lots_catalog.table_schema("lots")
        table = Table("lots", schema, [[3, FuzzyValue.crisp(35), FuzzyValue.null()],
                                       [cell, FuzzyValue.crisp(35), FuzzyValue.null()]])
        sql = "SELECT code, CDEG(code) FROM lots WHERE code FEQ 3 THOLD 0"
        if message is None:  # a fuzzy value is compared as it is, as before
            assert run_query(sql, lots_catalog, tables={"lots": table}).rows[1][1] == 1.0
            return
        # the error save_table gives for the same cell, which names its line
        with pytest.raises(ConversionError, match=f": column code: {re.escape(message)}$"):
            save_table(table, tmp_path / "lots.csv")
        with pytest.raises(ConversionError, match=f"^{re.escape(message)}$"):
            run_query(sql, lots_catalog, tables={"lots": table})

    def test_equal_plain_cells_in_other_objects_get_their_own_degrees(self, lots_catalog):
        # equal numbers of other types and signs, each compared as the number it holds
        cells = [1, 1.0, True, 0.0, -0.0, 1]
        plan = compile_query("SELECT code, CDEG(code) FROM lots WHERE code FEQ $zero THOLD 0",
                             lots_catalog)
        null = FuzzyValue.null()
        result = execute(plan, Table("lots", lots_catalog.table_schema("lots"),
                                     [[cell, null, null] for cell in cells]))
        cond = plan.conditions[0]
        expected = [oracle_feq(FuzzyValue.crisp(cell), cond.operand, cond.attr) for cell in cells]
        assert repr([degree for _, degree in result.rows]) == repr(expected)
        assert all(row[0] is cell for row, cell in zip(result.rows, cells))
        cells[1], cells[3] = [1], None  # unhashable and not a number: the first row's error
        with pytest.raises(ConversionError, match=r"^expected a number, got \[1\]$"):
            execute(plan, Table("lots", lots_catalog.table_schema("lots"),
                                [[cell, null, null] for cell in cells]))

    @pytest.mark.parametrize("sql", [
        "SELECT pilas.% FROM pilas",
        "SELECT cod_pila FROM pilas",  # reads none of the missing cells
        "SELECT cod_pila FROM pilas WHERE estado FEQ $mojado THOLD 0",
        # the first fault in row order: the short row comes before a cell feq refuses
        "SELECT cod_pila FROM pilas WHERE formato_largo FEQ 65 THOLD 0 AND estado FEQ $mojado",
    ])
    def test_short_row_is_refused_as_save_table_refuses_it(self, case_catalog, case_tables,
                                                           tmp_path, sql):
        table = case_tables["pilas"]
        del table.rows[1][3:]
        del table.rows[4][2:]
        table.rows[3][table.column_index("formato_largo")] = FuzzyValue.simple(1, "x")
        with pytest.raises(ConversionError) as saved:
            save_table(table, tmp_path / "pilas.csv")
        assert str(saved.value).endswith(":3: expected 4 cells, found 3")
        with pytest.raises(ConversionError, match="^expected 4 cells, found 3$"):
            run_query(sql, case_catalog, tables={"pilas": table})


    @pytest.mark.parametrize("sql", ["SELECT pilas.% FROM pilas", "SELECT cod_pila FROM pilas"])
    def test_long_row_is_refused_as_save_table_refuses_it(self, case_catalog, case_tables,
                                                          tmp_path, sql):
        table = case_tables["pilas"]
        table.rows[2].append("extra")
        with pytest.raises(ConversionError) as saved:
            save_table(table, tmp_path / "pilas.csv")
        assert str(saved.value).endswith(":4: expected 4 cells, found 5")
        with pytest.raises(ConversionError, match="^expected 4 cells, found 5$"):
            run_query(sql, case_catalog, tables={"pilas": table})

    def test_wrong_width_comes_before_any_degree_fault(self, case_catalog, case_tables):
        # as in save_table: the width of every row is checked before any cell
        table = case_tables["pilas"]
        table.rows[0][table.column_index("formato_largo")] = FuzzyValue.simple(1, "x")
        table.rows[5].append(FuzzyValue.null())
        sql = "SELECT cod_pila FROM pilas WHERE formato_largo FEQ 65 THOLD 0"
        with pytest.raises(ConversionError, match="^expected 4 cells, found 5$"):
            run_query(sql, case_catalog, tables={"pilas": table})
        table.rows[5].pop()
        with pytest.raises(FuzzyValueError, match="^simple value is not comparable"):
            run_query(sql, case_catalog, tables={"pilas": table})


class TestRunQuery:
    def test_stats_and_plan(self, case_catalog, case_tables):
        result = run_query(FLAGSHIP, case_catalog, tables=case_tables)
        assert result.stats.rows_out == 3
        assert result.stats.parse_seconds > 0
        assert result.stats.compile_seconds > 0
        assert result.stats.execute_seconds > 0
        assert result.plan.table == "cartulina"

    def test_loads_from_directory(self, case_catalog, case_dir):
        result = run_query("SELECT cod_rollo FROM rollos", case_catalog, data_dir=case_dir)
        assert result.stats.rows_in == 8

    def test_load_time_is_counted(self, case_catalog, case_dir, case_tables):
        stats = run_query(FLAGSHIP, case_catalog, data_dir=case_dir).stats
        assert stats.load_seconds > 0
        assert stats.total_seconds == (
            stats.load_seconds + stats.parse_seconds + stats.compile_seconds + stats.execute_seconds
        )
        # a table passed in memory is not loaded
        assert run_query(FLAGSHIP, case_catalog, tables=case_tables).stats.load_seconds == 0

    def test_no_data_source(self, case_catalog):
        with pytest.raises(DataFileError):
            run_query("SELECT cod_rollo FROM rollos", case_catalog, tables={})


# Every persona with its degrees; THOLD 0 keeps every row.
EVERYONE = "SELECT nombre, edad, pelo, CDEG(edad), CDEG(pelo) FROM personas " \
           "WHERE edad FEQ 30 THOLD 0 AND pelo FEQ $rubio THOLD 0"


def _person_lines(n, start=0):
    return [f"P{i},3;{i % 90};;;,3;0.{i % 9 + 1};rubio\n" for i in range(start, start + n)]


# Per table: a statement showing every column of every row, and rows of cell
# texts in schema order (a quoted two-line cell and a bad cell among them).
WARM_READS = {
    "personas": (EVERYONE, list(zip(NOMBRE_CELLS * 2, EDAD_CELLS, PELO_CELLS * 3))
                 + [('"Ana\nLuis"', "4;maduro;;;", "2")]),
    "cartulina": (
        "SELECT cartulina.%, CDEG(tono_cara) FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0",
        [("111", "10", "Offset", "4;0.4;amarillo;1;manila", "3;0.5;manila"),
         (" 222 ", "20", " Huecograbado ", "4;1;manila;0.40;amarillo", "2"),
         ("333.5", "10", "Offset", "3;1;BLANCO", "4;0.5;manila;0.6;cafe"),
         ("444", "20", '"Off\nset"', "0", "3;1;blanco"),
         ("555", "10", "Offset", "3;1;verde", "1")],
    ),
    "pilas": (
        "SELECT pilas.%, CDEG(estado) FROM pilas WHERE estado FEQ $mojado THOLD 0",
        [("1", "3;65;;;", "3;80;;;", "3;1;golpeado"),
         ("2", "4;optima;;;", "4;ancho;;;", "4;0.7;sucio;0.5;rayas_superficie"),
         ("3", "5;60;;;70", "6;75;70;80;5", "3;0.9;mojado"),
         ("4", "7;25;5;-5;45", "0", "4;0.5;rayas_superficie;0.7;SUCIO"),
         ("5", "3;65;;;", "2", "3;0.9;mojado")],
    ),
}


class TestReloadReuse:
    """run_query(data_dir=...) reuses the rows of unchanged records of every table it read."""

    @staticmethod
    def write(directory, lines, header="nombre,edad,pelo\n", prefix="", table="personas"):
        with open(os.path.join(directory, table + ".csv"), "w", encoding="utf-8", newline="") as f:
            f.write(prefix + header + "".join(lines))

    @staticmethod
    def query(directory, catalog, table="personas"):
        return run_query(WARM_READS[table][0], catalog, data_dir=str(directory))

    @staticmethod
    def cold(directory, catalog, table="personas"):
        loaded = load_table(os.path.join(directory, table + ".csv"), table, catalog)
        return run_query(WARM_READS[table][0], catalog, tables={table: loaded})

    def test_rewrite_with_the_same_mtime_is_seen(self, tmp_path, case_catalog):
        path = tmp_path / "personas.csv"
        self.write(tmp_path, _person_lines(4))
        before = os.stat(path)
        assert self.query(tmp_path, case_catalog).stats.rows_decoded == 4
        self.write(tmp_path, _person_lines(4, start=10))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_mtime_ns == before.st_mtime_ns
        result = self.query(tmp_path, case_catalog)
        assert [row[0] for row in result.rows] == ["P10", "P11", "P12", "P13"]
        assert result.stats.rows_decoded == 4

    def test_batch_update_decodes_only_changed_records(self, tmp_path, case_catalog):
        lines = _person_lines(200)
        self.write(tmp_path, lines)
        first = self.query(tmp_path, case_catalog)
        assert first.stats.rows_decoded == 200
        again = self.query(tmp_path, case_catalog)
        assert again.stats.rows_decoded == 0 and again.rows == first.rows
        changed = range(3, 200, 20)  # 10 records, 5%
        for i in changed:
            lines[i] = f"P{i},5;{i % 90};;;{i % 90 + 2},3;1;moreno\n"
        self.write(tmp_path, lines)
        result = self.query(tmp_path, case_catalog)
        assert result.stats.rows_decoded == len(changed)
        assert result.rows == self.cold(tmp_path, case_catalog).rows
        assert load_table(tmp_path / "personas.csv", "personas", case_catalog).decoded == 200

    def test_permuted_header_is_not_served_from_the_old_rows(self, tmp_path, case_catalog):
        lines = ["2,0,1\n", "1,2,0\n"]  # valid under either header
        self.write(tmp_path, lines)
        self.query(tmp_path, case_catalog)
        self.write(tmp_path, lines, header="edad,nombre,pelo\n")
        result = self.query(tmp_path, case_catalog)
        assert result.stats.rows_decoded == 2
        assert [row[0] for row in result.rows] == ["0", "2"]
        assert result.rows == self.cold(tmp_path, case_catalog).rows

    def test_bad_cell_in_a_warm_file_fails_as_in_a_cold_one(self, tmp_path, case_catalog):
        lines = _person_lines(6)
        self.write(tmp_path, lines)
        self.query(tmp_path, case_catalog)
        lines[3] = "P3,3;bad;;;,0\n"
        self.write(tmp_path, lines)
        with pytest.raises(DataFileError) as warm:
            self.query(tmp_path, case_catalog)
        with pytest.raises(DataFileError) as cold:
            load_table(tmp_path / "personas.csv", "personas", case_catalog)
        assert str(warm.value) == str(cold.value)
        assert str(warm.value).startswith(f"{tmp_path / 'personas.csv'}:5: column edad: ")
        lines[3] = "P3,0,0\n"
        self.write(tmp_path, lines)
        assert self.query(tmp_path, case_catalog).stats.rows_decoded == 6

    @staticmethod
    def no_reader(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the CSV reader ran")
        monkeypatch.setattr(engine.csv, "reader", refuse)

    def test_unchanged_bytes_return_the_held_rows(self, tmp_path, case_catalog, monkeypatch):
        self.write(tmp_path, _person_lines(50))
        first = self.query(tmp_path, case_catalog)
        self.no_reader(monkeypatch)
        again = self.query(tmp_path, case_catalog)
        assert again.stats.rows_decoded == 0 and again.rows == first.rows
        assert all(map(operator.is_, again.columns[1], first.columns[1]))  # the same cell objects

    def test_the_read_after_a_rewrite_serves_the_next_one(self, tmp_path, case_catalog, monkeypatch):
        lines = _person_lines(50)
        self.write(tmp_path, lines)
        self.query(tmp_path, case_catalog)
        lines[7] = "P7,3;77;;;,0\n"
        self.write(tmp_path, lines)
        changed = self.query(tmp_path, case_catalog)  # by line lookup, and the reader for P7
        assert changed.stats.rows_decoded == 1
        self.no_reader(monkeypatch)
        again = self.query(tmp_path, case_catalog)
        assert again.stats.rows_decoded == 0 and again.rows == changed.rows
        monkeypatch.undo()
        assert again.rows == self.cold(tmp_path, case_catalog).rows

    def test_one_changed_byte_decodes_one_record(self, tmp_path, case_catalog):
        self.write(tmp_path, _person_lines(50))
        self.query(tmp_path, case_catalog)
        path = tmp_path / "personas.csv"
        data = path.read_bytes()
        at = data.index(b"P31,3;31")
        path.write_bytes(data[:at + 7] + b"2" + data[at + 8:])  # edad 31 -> 32
        result = self.query(tmp_path, case_catalog)
        assert result.stats.rows_decoded == 1
        assert result.rows == self.cold(tmp_path, case_catalog).rows
        assert result.rows[31][1] == FuzzyValue.crisp(32)

    def test_same_bytes_under_other_descriptors_miss(self, tmp_path, case_dir, case_catalog,
                                                     monkeypatch):
        self.write(tmp_path, _person_lines(5))
        path = tmp_path / "personas.csv"
        reuse = engine.RecordCache()
        first = load_table(path, "personas", case_catalog, reuse=reuse)
        assert load_table(path, "personas", case_catalog, reuse=reuse).decoded == 0
        assert load_table(path, "personas", load_catalog(case_dir), reuse=reuse).decoded == 5
        load_table(path, "personas", case_catalog, reuse=reuse)
        schema = case_catalog.table_schema("personas")
        schema[1] = copy.copy(schema[1])  # an equal descriptor, another object
        monkeypatch.setattr(case_catalog, "table_schema", lambda table: list(schema))
        again = load_table(path, "personas", case_catalog, reuse=reuse)
        assert again.decoded == 5 and again.rows == first.rows
        assert reuse.source[2] == schema and reuse.source[2][1] is schema[1]

    def test_held_rows_come_back_in_a_new_list(self, tmp_path, case_catalog):
        self.write(tmp_path, _person_lines(3))
        path = tmp_path / "personas.csv"
        reuse = engine.RecordCache()
        for _ in range(2):
            table = load_table(path, "personas", case_catalog, reuse=reuse)
            table.rows.clear()
        assert len(load_table(path, "personas", case_catalog, reuse=reuse).rows) == 3

    def test_failed_byte_read_closes_the_file(self, tmp_path, case_catalog, monkeypatch):
        self.write(tmp_path, _person_lines(3))
        opened = []

        class Failing(io.BytesIO):
            def read(self, *args):
                raise OSError(5, "Input/output error")

        def fake_open(path, mode):
            opened.append(Failing())
            return opened[-1]

        monkeypatch.setattr(engine, "open", fake_open, raising=False)
        with pytest.raises(DataFileError, match=r"^cannot read table file: \[Errno 5\] Input/output error$"):
            self.query(tmp_path, case_catalog)
        assert [f.closed for f in opened] == [True]

    def test_bad_utf8_empties_the_entry(self, tmp_path, case_catalog):
        self.write(tmp_path, _person_lines(5))
        path = tmp_path / "personas.csv"
        good = path.read_bytes()
        self.query(tmp_path, case_catalog)
        path.write_bytes(good.replace(b"P3", b"P\xff"))
        with pytest.raises(DataFileError, match="personas.csv:5: not valid UTF-8$"):
            self.query(tmp_path, case_catalog)
        entry = engine._last_read[case_catalog][1]["personas"]
        assert (entry.source, entry.data, entry.rows, entry.records) == (None, None, [], {})
        path.write_bytes(good)
        assert self.query(tmp_path, case_catalog).stats.rows_decoded == 5

    def test_other_catalog_or_column_misses(self, tmp_path, case_dir, case_catalog):
        self.write(tmp_path, _person_lines(5))
        self.query(tmp_path, case_catalog)
        assert self.query(tmp_path, case_catalog).stats.rows_decoded == 0
        assert self.query(tmp_path, load_catalog(case_dir)).stats.rows_decoded == 5
        case_catalog.register_attribute("personas", "nota", 1, "scalar")
        self.write(tmp_path, [line.rstrip("\n") + ",x\n" for line in _person_lines(5)],
                   header="nombre,edad,pelo,nota\n")
        assert self.query(tmp_path, case_catalog).stats.rows_decoded == 5

    def test_quoted_lines_blank_lines_and_bom(self, tmp_path, case_catalog):
        lines = ['"Ana\nMaria",3;26;;;,0\n', "\n", "Luis,0,0\n", "\n", '"x,""y""",0,2\n']
        self.write(tmp_path, lines, prefix="\ufeff")
        first = self.query(tmp_path, case_catalog)
        assert [row[0] for row in first.rows] == ["Ana\nMaria", "Luis", 'x,"y"']
        again = self.query(tmp_path, case_catalog)
        assert again.stats.rows_decoded == 0 and again.rows == first.rows
        lines[0] = '"Ana\nMaria",3;27;;;,0\n'
        self.write(tmp_path, lines, prefix="\ufeff")
        result = self.query(tmp_path, case_catalog)
        assert result.stats.rows_decoded == 1
        assert result.rows == self.cold(tmp_path, case_catalog).rows

    def test_continuation_line_equal_to_a_record_is_not_served(self, tmp_path, case_catalog):
        # the quoted record's middle line is byte for byte the record before it
        lines = ["Luis,0,0\n", "P1,0,2\n"]
        self.write(tmp_path, lines)
        assert self.query(tmp_path, case_catalog).stats.rows_decoded == 2
        lines.insert(1, '"Ana\nLuis,0,0\nMaria",3;26;;;,0\n')
        self.write(tmp_path, lines)
        result = self.query(tmp_path, case_catalog)
        assert [row[0] for row in result.rows] == ["Luis", "Ana\nLuis,0,0\nMaria", "P1"]
        assert result.stats.rows_decoded == 1
        assert result.rows == self.cold(tmp_path, case_catalog).rows
        lines[2] = "P1,0,0\n"
        lines.insert(0, "Luis,0,0\n")
        self.write(tmp_path, lines)
        result = self.query(tmp_path, case_catalog)
        assert [row[0] for row in result.rows] == ["Luis", "Luis", "Ana\nLuis,0,0\nMaria", "P1"]
        assert result.stats.rows_decoded == 1
        assert result.rows == self.cold(tmp_path, case_catalog).rows

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends(self, tmp_path, case_catalog, end):
        lines = [line.replace("\n", end) for line in _person_lines(4)]
        lines.insert(2, f'"Ana{end}Maria",0,0{end}')
        self.write(tmp_path, lines, header="nombre,edad,pelo" + end)
        first = self.query(tmp_path, case_catalog)
        assert first.stats.rows_decoded == 5 and first.rows[2][0] == f"Ana{end}Maria"
        again = self.query(tmp_path, case_catalog)
        assert again.stats.rows_decoded == 0 and again.rows == first.rows
        lines[0] = lines[0].replace(end, "\n")  # the same cells, another record text
        lines[3] = f"P9,0,0{end}"
        self.write(tmp_path, lines, header="nombre,edad,pelo" + end)
        result = self.query(tmp_path, case_catalog)
        assert result.stats.rows_decoded == 2
        assert result.rows == self.cold(tmp_path, case_catalog).rows

    def test_last_record_without_final_newline(self, tmp_path, case_catalog):
        lines = _person_lines(3)
        lines[-1] = lines[-1].rstrip("\n")
        self.write(tmp_path, lines)
        assert self.query(tmp_path, case_catalog).stats.rows_decoded == 3
        assert self.query(tmp_path, case_catalog).stats.rows_decoded == 0
        lines[-1] += "\n"
        lines.append('"Ana\nMaria",0,0')
        self.write(tmp_path, lines)
        result = self.query(tmp_path, case_catalog)
        assert [row[0] for row in result.rows] == ["P0", "P1", "P2", "Ana\nMaria"]
        assert result.stats.rows_decoded == 2
        assert result.rows == self.cold(tmp_path, case_catalog).rows
        assert self.query(tmp_path, case_catalog).stats.rows_decoded == 0

    @pytest.mark.parametrize("bad, message", [
        ("P9,3;bad;;;,0\n", "column edad: "),
        ("P9,0\n", "expected 3 cells, found 2"),
        ("x" * 140_000 + ",0,0\n", "field larger than field limit (131072)"),
    ], ids=["bad cell", "cell count", "oversized field"])
    def test_warm_and_cold_reads_fail_alike(self, tmp_path, case_catalog, bad, message):
        lines = _person_lines(4)
        lines.insert(1, '"Ana\nLuis\nMaria",0,0\n')
        self.write(tmp_path, lines)
        self.query(tmp_path, case_catalog)
        lines.insert(4, bad)  # on line 8: the header, P0, three lines of Ana, P1 and P2 before it
        self.write(tmp_path, lines)
        with pytest.raises(DataFileError) as warm:
            self.query(tmp_path, case_catalog)
        with pytest.raises(DataFileError) as cold:
            load_table(tmp_path / "personas.csv", "personas", case_catalog)
        assert str(warm.value) == str(cold.value)
        assert str(warm.value).startswith(f"{tmp_path / 'personas.csv'}:8: {message}")

    def test_warm_and_cold_errors_name_the_first_line_of_the_record(self, tmp_path, case_catalog):
        # the header, P0, a blank line, a two-line record and P1 come before the bad record
        lines = _person_lines(2)
        lines[1:1] = ["\n", '"Ana\nMaria",0,0\n']
        self.write(tmp_path, lines)
        self.query(tmp_path, case_catalog)
        lines.append('"Luis\nPaz",3;bad;;;,0\n')
        self.write(tmp_path, lines)
        for read in (self.query, self.cold):
            with pytest.raises(DataFileError, match=f"^{re.escape(str(tmp_path / 'personas.csv'))}:7: "
                                                    "column edad: "):
                read(tmp_path, case_catalog)

    @staticmethod
    def warm():
        """The tables whose rows run_query holds, under every catalog it holds rows for."""
        return [table for _, caches in engine._last_read.values() for table in caches]

    @staticmethod
    def decoded(directory, table, catalog):
        return run_query(WARM_READS[table][0], catalog, data_dir=str(directory)).stats.rows_decoded

    def test_every_table_read_stays_warm(self, case_copy, case_catalog):
        assert self.decoded(case_copy, "personas", case_catalog) == 8
        assert self.decoded(case_copy, "cartulina", case_catalog) == 14
        assert self.decoded(case_copy, "personas", case_catalog) == 0
        assert self.decoded(case_copy, "cartulina", case_catalog) == 0
        assert sorted(self.warm()) == ["cartulina", "personas"]

    def test_other_catalog_or_data_dir_empties_every_entry(self, tmp_path, case_copy, case_dir,
                                                          case_catalog):
        other_dir = shutil.copytree(case_copy, tmp_path / "other")
        for table in ("personas", "cartulina"):
            self.decoded(case_copy, table, case_catalog)
        assert self.decoded(case_copy, "personas", load_catalog(case_dir)) == 8
        assert self.decoded(case_copy, "cartulina", case_catalog) == 14
        assert self.decoded(case_copy, "personas", case_catalog) == 8
        assert self.decoded(other_dir, "cartulina", case_catalog) == 14
        assert sorted(self.warm()) == ["cartulina"]
        assert self.decoded(case_copy, "personas", case_catalog) == 8
        assert self.decoded(case_copy, "personas", case_catalog) == 0

    def test_failed_read_leaves_other_tables_warm(self, case_copy, case_catalog):
        for table in ("personas", "cartulina"):
            self.decoded(case_copy, table, case_catalog)
        path = case_copy / "cartulina.csv"
        good = path.read_text()
        path.write_text(good + "999,10,Offset,3;1;verde,0\n")
        with pytest.raises(DataFileError, match="column tono_cara"):
            self.decoded(case_copy, "cartulina", case_catalog)
        assert self.decoded(case_copy, "personas", case_catalog) == 0
        path.write_text(good)
        assert self.decoded(case_copy, "cartulina", case_catalog) == 14

    @staticmethod
    def marked(number):
        """The live values of crisp number; FuzzyValue is slotted, so it takes no weakref."""
        return [o for o in gc.get_objects()
                if type(o) is FuzzyValue and o.kind is ValueKind.CRISP and o.number == number]

    def test_entries_die_with_their_catalog(self, tmp_path, case_dir):
        self.write(tmp_path, ["Ana,3;26.125;;;,0\n"])
        first, second = load_catalog(case_dir), load_catalog(case_dir)
        self.query(tmp_path, first)
        entry = weakref.ref(engine._last_read[first][1]["personas"])
        self.query(tmp_path, second)  # the entries are second's now
        del first
        gc.collect()
        assert sorted(self.warm()) == ["personas"]
        assert self.query(tmp_path, second).stats.rows_decoded == 0
        assert entry() is None and len(self.marked(26.125)) == 1
        del second
        gc.collect()
        assert engine._last_read == {} and self.marked(26.125) == []

    def test_tables_mapping_decodes_nothing(self, case_catalog, case_tables):
        assert run_query(FLAGSHIP, case_catalog, tables=case_tables).stats.rows_decoded == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_warm_reads_equal_cold_reads(self, shared_catalog, tmp_path_factory, data):
        # edits and reads interleaved across three tables; each read is checked
        directory = tmp_path_factory.mktemp("reuse")

        def written(items, h):  # header 0 is schema order, header 1 puts the last column first
            return ",".join(items[-1:] + items[:-1] if h else items) + "\n"

        pools, files = {}, {}
        for table, (_, rows) in WARM_READS.items():
            columns = [attr.column for attr in shared_catalog.table_schema(table)]
            # lines of specials, which read differently under either header, and a blank line
            either = [written([str((i + k) % 3) for i in range(len(columns))], 0) for k in (1, 2)]
            pools[table] = []
            for h in (0, 1):
                lines = [written(list(cells), h) for cells in rows]
                # the first line ending in \r\n and in \r, and each quoted two-line record
                # with the first line put between its two lines
                ends = [lines[0][:-1] + "\r\n", lines[0][:-1] + "\r"]
                nested = [written([c.replace("\n", "\n" + lines[0]) for c in cells], h)
                          for cells in rows if any("\n" in c for c in cells)]
                pools[table].append(lines + ends + nested + either + ["\n"])
            headers = [written(columns, h) for h in (0, 1)]
            lines = data.draw(st.lists(st.sampled_from(pools[table][0]), max_size=6))
            files[table] = [headers, 0, lines]
            self.write(directory, self.ended(lines, data), headers[0], table=table)
        for _ in range(data.draw(st.integers(1, 12))):
            table = data.draw(st.sampled_from(sorted(files)))
            headers, h, lines = files[table]
            op = data.draw(st.sampled_from(
                ["read", "edit", "insert", "delete", "reorder", "duplicate", "header"]))
            i = data.draw(st.integers(0, max(len(lines) - 1, 0)))
            if op == "read":
                pass
            elif op == "insert" or not lines:
                lines.insert(i, data.draw(st.sampled_from(pools[table][h])))
            elif op == "edit":
                lines[i] = data.draw(st.sampled_from(pools[table][h]))
            elif op == "delete":
                del lines[i]
            elif op == "reorder":
                lines[:] = data.draw(st.permutations(lines))
            elif op == "duplicate":
                lines.insert(i, lines[i])
            else:  # the same lines under the other header
                files[table][1] = h = 1 - h
            self.write(directory, self.ended(lines, data), headers[h], table=table)
            assert self.outcome(self.query, directory, shared_catalog, table) == \
                self.outcome(self.cold, directory, shared_catalog, table)

    @staticmethod
    def ended(lines, data):
        """lines, the last one without its line end half the time."""
        if lines and data.draw(st.booleans()):
            return lines[:-1] + [lines[-1].rstrip("\r\n")]
        return lines

    @staticmethod
    def outcome(read, directory, catalog, table):
        try:
            result = read(directory, catalog, table)
        except DataFileError as exc:
            return str(exc)
        return result.headers, result.rows


def oracle_render(value, locale="dot"):
    """render_value as it was before the kind table: a branch per kind, numbers localized one by one."""
    def number(x):
        text = format_number(x)
        return text.replace(".", ",") if locale == "comma" else text

    if not isinstance(value, FuzzyValue):
        return value if isinstance(value, str) else number(value)
    k = value.kind
    if k is ValueKind.UNKNOWN:
        return "UNKNOWN"
    if k is ValueKind.UNDEFINED:
        return "UNDEFINED"
    if k is ValueKind.NULL:
        return "NULL"
    if k is ValueKind.CRISP:
        return number(value.number)
    if k is ValueKind.LABEL:
        return f"${value.name}"
    if k is ValueKind.INTERVAL:
        return f"[{number(value.low)}, {number(value.high)}]"
    if k is ValueKind.APPROX:
        return f"#{number(value.number)}~{number(value.margin)}"
    if k is ValueKind.TRAPEZOID:
        return f"$[{', '.join(number(x) for x in value.trap.corners())}]"
    return ", ".join(f"{number(p)}/{e if isinstance(e, str) else number(e)}" for p, e in value.pairs)


def oracle_plain_number(x):
    """The number format_number writes: an int when it writes no fraction, else the float."""
    x = float(x)
    try:
        whole = int(x)
    except (OverflowError, ValueError):
        raise FuzzyValueError(f"expected a finite number, got {x!r}") from None
    if x == whole and abs(x) < 1e16 and (x or math.copysign(1.0, x) > 0):
        return whole
    return x


def oracle_format(result, fmt="table", locale="dot"):
    """format_result as it was before it went a column at a time: row by row, cell by cell."""
    if fmt == "table":
        headers = ["#"] + [h.upper() for h in result.headers]
        grid = [headers]
        for i, row in enumerate(result.rows, start=1):
            grid.append([str(i)] + [oracle_render(cell, locale) for cell in row])
        widths = [max(len(line[i]) for line in grid) for i in range(len(headers))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in grid]
        n = len(result.rows)
        lines.append(f"({n} row)" if n == 1 else f"({n} rows)")
        return "\n".join(lines)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(result.headers)
        for row in result.rows:
            writer.writerow([oracle_render(cell, locale) for cell in row])
        return out.getvalue().rstrip("\n")
    keys, seen = [], {}
    for header in result.headers:
        seen[header] = n = seen.get(header, 0) + 1
        keys.append(header if n == 1 else f"{header}#{n}")
    lines = []
    for row in result.rows:
        record = {}
        for key, cell in zip(keys, row):
            if isinstance(cell, FuzzyValue):
                record[key] = oracle_render(cell)
            elif isinstance(cell, float):
                record[key] = oracle_plain_number(cell)
            else:
                record[key] = cell
        lines.append(json.dumps(record, ensure_ascii=False))
    return "\n".join(lines)


# Label names and scalar elements with '.', which no locale may touch, and non-ASCII letters.
RESULT_NAMES = st.sampled_from(["blanco", "a.b", "ñandú", "x.5"])
RESULT_VALUES = st.one_of(
    SPECIALS,
    NUMBERS.map(FuzzyValue.crisp),
    RESULT_NAMES.map(FuzzyValue.label),
    st.tuples(NUMBERS, NUMBERS).filter(lambda t: t[0] < t[1]).map(lambda t: FuzzyValue.interval(*t)),
    st.tuples(NUMBERS, NUMBERS).filter(lambda t: _approx_fits(*t)).map(lambda t: FuzzyValue.approx(*t)),
    st.lists(NUMBERS, min_size=4, max_size=4).map(sorted).map(lambda c: FuzzyValue.trapezoid(*c)),
    st.tuples(DEGREES, RESULT_NAMES).map(lambda p: FuzzyValue.simple(*p)),
    st.lists(st.tuples(DEGREES, RESULT_NAMES), min_size=1, max_size=3, unique_by=lambda p: p[1])
    .map(FuzzyValue.poss_dist),
    # plain cells: equal numbers that render apart, and text that csv must quote
    st.sampled_from([0.0, -0.0, 1, 1.0, True, False, 0, 2 ** 60, 0.5, "", "x", "ñ, \"a\"\n"]),
    NUMBERS,
    st.integers(),
    st.text(max_size=4),
)
# Equal cells that render differently, which a memo keyed by value would merge.
APART = st.sampled_from([(0.0, -0.0), (1, True), (0, False), (1.0, True),
                         (FuzzyValue.crisp(0.0), FuzzyValue.crisp(-0.0))])
# A header pool that repeats, and one header that a repeat's jsonl key (a#2) collides with.
RESULT_HEADERS = st.sampled_from(["a", "a#2", "CDEG(tono_cara)", "ñandú", "Größe"])


class TestRendering:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_row_at_a_time(self, data):
        width = data.draw(st.integers(1, 5))
        # a small pool of cell objects that rows and columns share, as execute's results share them
        pool = data.draw(st.lists(RESULT_VALUES, min_size=1, max_size=5))
        cell = st.one_of(st.sampled_from(pool), st.sampled_from(pool).map(twin), RESULT_VALUES)
        rows = data.draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=8))
        i, j, c = data.draw(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 4)))
        if len(rows) > 1 and i % len(rows) != j % len(rows):  # a pair of APART in one column
            rows[i % len(rows)][c % width], rows[j % len(rows)][c % width] = data.draw(APART)
        faults = data.draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 4)), max_size=3))
        for (r, c), bad in zip(faults, [math.nan, math.inf, -math.inf]):
            if rows:  # non-finite plain cells, which no format can write, each with its own message
                rows[r % len(rows)][c % width] = bad
        headers = data.draw(st.lists(RESULT_HEADERS, min_size=width, max_size=width))
        columns = [[row[c] for row in rows] for c in range(width)]
        result = Result(headers, columns, ExecutionStats(rows_out=len(rows)))
        fmt = data.draw(st.sampled_from(["table", "csv", "jsonl"]))
        locale = data.draw(st.sampled_from(["dot", "comma"]))
        assert self.outcome(format_result, result, fmt, locale) == \
            self.outcome(oracle_format, result, fmt, locale)
        for value in (c for row in rows for c in row):
            assert self.outcome(render_value, value, locale) == self.outcome(oracle_render, value, locale)

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args)
        except FuzzyDbError as exc:
            return type(exc), str(exc)

    @given(st.one_of(st.sampled_from([0.0, -0.0, 1e16, -1e16, 9999999999999998.0, 1e300]),
                     st.floats(allow_nan=False, allow_infinity=False)))
    def test_oracle_plain_number_is_the_number_format_number_writes(self, x):
        assert repr(oracle_plain_number(x)) == format_number(x)

    def test_count_line_counts_the_rows_printed_not_the_stats(self):
        result = Result(["x"], [[1]], ExecutionStats())
        assert format_result(result) == oracle_format(result) == "#  X\n1  1\n(1 row)"

    def test_equal_cells_that_render_differently_stay_apart(self):
        # equal as values, apart as objects: a memo keyed by value would merge them
        zero = FuzzyValue.crisp(0.0)
        columns = [[0.0, -0.0, 0.0], [zero, FuzzyValue.crisp(-0.0), zero], [1, True, 1.0]]
        result = Result(["x", "y", "z"], columns, ExecutionStats(rows_out=3))
        assert format_result(result, "csv") == "x,y,z\n0,0,1\n-0.0,-0.0,1\n0,0,1"
        assert format_result(result, "jsonl").splitlines() == [
            '{"x": 0, "y": "0", "z": 1}', '{"x": -0.0, "y": "-0.0", "z": true}',
            '{"x": 0, "y": "0", "z": 1}']
        for fmt in ("table", "csv", "jsonl"):
            assert format_result(result, fmt) == oracle_format(result, fmt)

    @pytest.mark.parametrize("cell, message", [
        (10 ** 400, "expected a finite number, got an integer too large for a float"),
        ([1], "expected a number, got [1]"),
        (None, "expected a number, got None"),
    ], ids=["int_beyond_float", "list", "none"])
    def test_plain_cell_that_is_not_a_number_is_refused(self, case_catalog, case_tables, cell,
                                                        message):
        table = case_tables["pilas"]
        table.rows[1][table.column_index("cod_pila")] = cell
        result = run_query("SELECT cod_pila FROM pilas", case_catalog, tables={"pilas": table})
        for fmt in ("table", "csv", "jsonl"):
            with pytest.raises(ConversionError, match=f"^{re.escape(message)}$"):
                format_result(result, fmt)
        for locale in ("dot", "comma"):
            with pytest.raises(ConversionError, match=f"^{re.escape(message)}$"):
                render_value(cell, locale)

    def test_jsonl_key_taken_twice_keeps_its_first_place_and_last_cell(self):
        # 'a' again is keyed a#2, which a header already is; json.dumps of the record merged them
        result = Result(["a", "a#2", "a", "b"], [[1], [2], [3], [4]], ExecutionStats(rows_out=1))
        assert format_result(result, "jsonl") == '{"a": 1, "a#2": 3, "b": 4}'

    def test_first_cell_at_fault_in_row_order_is_named(self):
        result = Result(["x", "y"], [[1.0, math.inf], [math.nan, 2.0]], ExecutionStats(rows_out=2))
        for fmt in ("table", "csv", "jsonl"):
            with pytest.raises(FuzzyDbError, match="^expected a finite number, got nan$"):
                format_result(result, fmt)

    def test_render_time_is_kept_apart_from_the_total(self, case_catalog, case_tables):
        result = run_query(FLAGSHIP, case_catalog, tables=case_tables)
        total = result.stats.total_seconds
        assert result.stats.render_seconds == 0.0
        format_result(result)
        assert result.stats.render_seconds > 0.0
        assert result.stats.total_seconds == total

    def test_render_value_variants(self):
        assert render_value(FuzzyValue.unknown()) == "UNKNOWN"
        assert render_value(FuzzyValue.undefined()) == "UNDEFINED"
        assert render_value(FuzzyValue.null()) == "NULL"
        assert render_value(FuzzyValue.crisp(65)) == "65"
        assert render_value(FuzzyValue.label("optima")) == "$optima"
        assert render_value(FuzzyValue.interval(60, 70)) == "[60, 70]"
        assert render_value(FuzzyValue.approx(75, 5)) == "#75~5"
        assert render_value(FuzzyValue.trapezoid(85, 95, 110, 120)) == "$[85, 95, 110, 120]"
        assert render_value(FuzzyValue.poss_dist([(0.4, "amarillo"), (1.0, "manila")])) == (
            "0.4/amarillo, 1/manila"
        )
        assert render_value(0.5) == "0.5"
        assert render_value("Offset") == "Offset"

    def test_comma_locale_changes_decimals_only(self):
        assert render_value(FuzzyValue.crisp(0.5), locale="comma") == "0,5"
        assert render_value(FuzzyValue.interval(60.5, 70), locale="comma") == "[60,5, 70]"
        assert render_value(FuzzyValue.simple(0.4, "amarillo"), locale="comma") == "0,4/amarillo"

    def test_table_format(self, case_catalog, case_tables):
        result = run_query(FLAGSHIP, case_catalog, tables=case_tables)
        text = format_result(result)
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert "CDEG(TONO_CARA)" in lines[0]
        assert lines[1].startswith("1  444")
        assert lines[-1] == "(3 rows)"

    def test_csv_format(self, case_catalog, case_tables):
        result = run_query(
            "SELECT cod_carti, CDEG(tono_cara) FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0.5",
            case_catalog,
            tables=case_tables,
        )
        assert format_result(result, "csv") == (
            "cod_carti,CDEG(tono_cara)\n333,1\n444,0.5\n777,1\n226,0.5\n228,1"
        )

    def test_jsonl_format(self, case_catalog, case_tables):
        import json

        result = run_query(FLAGSHIP, case_catalog, tables=case_tables)
        lines = format_result(result, "jsonl").splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["cod_carti"] == 444
        assert first["tono_reverso"] == "UNKNOWN"
        assert first["CDEG(tono_cara)"] == 0.5

    def test_jsonl_numbers_match_the_other_formats(self):
        cells = [1e300, -0.0, 0.0, 3.0, 0.5, 1e16, 123456789012345.0, 7, "x"]
        result = Result([f"c{i}" for i in range(len(cells))], [[c] for c in cells],
                        ExecutionStats(rows_out=1))
        assert format_result(result, "csv").splitlines()[1] == (
            "1e+300,-0.0,0,3,0.5,1e+16,123456789012345,7,x"
        )
        assert format_result(result, "jsonl") == (
            '{"c0": 1e+300, "c1": -0.0, "c2": 0, "c3": 3, "c4": 0.5, "c5": 1e+16, '
            '"c6": 123456789012345, "c7": 7, "c8": "x"}'
        )

    @pytest.mark.parametrize("sql, keys", [
        ("SELECT cartulina.% FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0 "
         "OR tono_cara FEQ $cafe THOLD 0",
         ["cod_carti", "cod_capa", "impresion", "tono_cara", "tono_reverso", "CDEG(tono_cara)",
          "CDEG(tono_cara)#2"]),
        ("SELECT cod_carti, CDEG(tono_cara), cod_carti, CDEG(tono_cara), CDEG(tono_cara) "
         "FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0",
         ["cod_carti", "CDEG(tono_cara)", "cod_carti#2", "CDEG(tono_cara)#2", "CDEG(tono_cara)#3"]),
    ])
    def test_jsonl_keys_repeated_headers_apart(self, case_catalog, case_tables, sql, keys):
        result = run_query(sql, case_catalog, tables=case_tables)
        assert len(set(result.headers)) < len(result.headers)
        lines = format_result(result, "jsonl").splitlines()
        assert len(lines) == len(result.rows) == 14
        for line, row in zip(lines, result.rows):
            record = json.loads(line)
            assert list(record) == keys
            assert list(record.values()) == [
                render_value(c) if isinstance(c, FuzzyValue) else c for c in row]

    def test_jsonl_keeps_both_degrees_of_one_column(self, case_catalog, case_tables):
        result = run_query("SELECT cartulina.% FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0 "
                           "OR tono_cara FEQ $cafe THOLD 0", case_catalog, tables=case_tables)
        record = json.loads(format_result(result, "jsonl").splitlines()[3])
        assert record["cod_carti"] == 444
        assert (record["CDEG(tono_cara)"], record["CDEG(tono_cara)#2"]) == (0.5, 0.2)

    def test_unknown_format(self, case_catalog, case_tables):
        result = run_query(FLAGSHIP, case_catalog, tables=case_tables)
        with pytest.raises(ValueError):
            format_result(result, "xml")

    @pytest.mark.parametrize("fmt", ["table", "csv", "jsonl"])
    def test_unknown_locale(self, fmt):
        result = Result(["a"], [[0.5]], ExecutionStats(rows_out=1))
        with pytest.raises(ValueError, match="^unknown locale 'Comma'$"):
            format_result(result, fmt, "Comma")
        assert result.stats.render_seconds == 0.0
        with pytest.raises(ValueError, match="^unknown locale 'xx'$"):
            render_value(FuzzyValue.crisp(0.5), "xx")

    @pytest.mark.parametrize("fmt", ["table", "csv", "jsonl"])
    @pytest.mark.parametrize("headers, columns, message", [
        (["a", "b"], [[1.0, 2.0], [3.0]], "result has 2 headers and columns of lengths [2, 1]"),
        (["a", "b", "c"], [[1.0], [2.0]], "result has 3 headers and columns of lengths [1, 1]"),
        (["a"], [[1.0], [2.0]], "result has 1 headers and columns of lengths [1, 1]"),
    ])
    def test_refuses_a_misshapen_result(self, fmt, headers, columns, message):
        result = Result(headers, columns, ExecutionStats(rows_out=2))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            format_result(result, fmt)
        assert result.stats.render_seconds == 0.0
