"""Table files, execution semantics, and result rendering."""

import os

import pytest

import fuzzydb.engine
from fuzzydb import (
    DataFileError,
    FuzzyValue,
    Table,
    compile_query,
    execute,
    format_cell,
    format_result,
    load_table,
    parse_cell,
    render_value,
    run_query,
    save_table,
)

FLAGSHIP = (
    "SELECT cartulina.% FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0.5 "
    "AND tono_reverso FEQ $blanco THOLD 0.5;"
)


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
        ],
    )
    def test_parse_ordered_errors(self, width_attr, text):
        with pytest.raises(Exception):
            parse_cell(text, width_attr)

    @pytest.mark.parametrize(
        "text",
        [
            "3;1;rosa",          # element outside the declared domain
            "4;0.4;blanco;0.6",  # dangling degree
            "4;;blanco",         # empty field
            "3;x;blanco",        # degree must be a number
        ],
    )
    def test_parse_scalar_errors(self, tone_attr, text):
        with pytest.raises(Exception):
            parse_cell(text, tone_attr)

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


class TestLoadTable:
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

    def test_save_load_round_trip(self, tmp_path, case_dir, case_catalog):
        for name in ("cartulina", "pilas", "rollos", "personas"):
            original = load_table(os.path.join(case_dir, name + ".csv"), name, case_catalog)
            path = tmp_path / (name + ".csv")
            save_table(original, path)
            again = load_table(path, name, case_catalog)
            assert again.rows == original.rows


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

    def test_every_degree_is_computed(self, case_catalog, case_tables, monkeypatch):
        calls = []
        real = fuzzydb.engine.feq

        def counting(v1, v2, attr):
            calls.append(attr.column)
            return real(v1, v2, attr)

        monkeypatch.setattr(fuzzydb.engine, "feq", counting)
        plan = compile_query(
            "SELECT cod_carti FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0.99 "
            "OR tono_reverso FEQ $blanco THOLD 0.99 OR tono_cara FEQ $cafe THOLD 0.99",
            case_catalog,
        )
        execute(plan, case_tables["cartulina"])
        # one comparison per condition per row, even when a branch decides early
        assert len(calls) == 3 * 14

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

    def test_no_data_source(self, case_catalog):
        with pytest.raises(DataFileError):
            run_query("SELECT cod_rollo FROM rollos", case_catalog, tables={})


class TestRendering:
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

    def test_unknown_format(self, case_catalog, case_tables):
        result = run_query(FLAGSHIP, case_catalog, tables=case_tables)
        with pytest.raises(ValueError):
            format_result(result, "xml")
