"""Command-line behaviour: exit codes, output routing, catalog editing."""

import contextlib
import io
import pathlib
import re
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzydb import case_study_dir
from fuzzydb.cli import main

FLAGSHIP = (
    "SELECT cartulina.% FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0.5 "
    "AND tono_reverso FEQ $blanco THOLD 0.5;"
)


GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestGoldenOutputs:
    """Byte-identical output on the bundled case study.

    tests/golden/<query>.fsql holds a statement and <query>.<format>.<locale>.txt
    what `fuzzydb query --format <format> --locale <locale>` printed for it
    before results were rendered a column at a time.  jsonl has no locale, so
    its one file serves both.  no_rows keeps no row, so its jsonl file is
    empty: no line is printed, as a blank one is not JSON.
    """

    FILES = sorted(GOLDEN.glob("*.txt"))

    def test_every_query_has_every_format(self):
        assert [p.name for p in self.FILES] == [
            f"{query}.{form}.txt" for query in ("either_tone", "flagship", "no_rows")
            for form in ("csv.comma", "csv.dot", "jsonl.dot", "table.comma", "table.dot")]

    @pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
    def test_output_matches(self, capsys, path):
        query, fmt, locale, _ = path.name.split(".")
        sql = (GOLDEN / f"{query}.fsql").read_text(encoding="utf-8")
        for locale in ("dot", "comma") if fmt == "jsonl" else (locale,):
            assert main(["query", sql, "--format", fmt, "--locale", locale]) == 0
            assert capsys.readouterr().out == path.read_bytes().decode("utf-8")


class TestQueryCommand:
    def test_defaults_to_bundled_example(self, capsys):
        assert main(["query", FLAGSHIP]) == 0
        out = capsys.readouterr().out
        assert "444" in out
        assert "(3 rows)" in out

    def test_csv_format_flag(self, capsys):
        assert main(["query", FLAGSHIP, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("cod_carti,")
        assert len(lines) == 4

    def test_format_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("FUZZYDB_FORMAT", "csv")
        assert main(["query", FLAGSHIP]) == 0
        assert capsys.readouterr().out.startswith("cod_carti,")

    def test_bad_format_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("FUZZYDB_FORMAT", "yaml")
        assert main(["query", FLAGSHIP]) == 2
        assert "format" in capsys.readouterr().err

    def test_reads_stdin_when_no_argument(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("SELECT cod_pila FROM pilas"))
        assert main(["query", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "cod_pila"

    def test_syntax_error_exits_1(self, capsys):
        assert main(["query", "SELECT FROM"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_column_exits_1(self, capsys):
        assert main(["query", "SELECT nope FROM cartulina"]) == 1
        err = capsys.readouterr().err
        assert "nope" in err

    def test_missing_table_file_exits_2(self, capsys, tmp_path):
        assert main(["query", "SELECT cod_pila FROM pilas", "--data-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_catalog_exits_2(self, capsys, tmp_path):
        code = main(["query", "SELECT 1 FROM x", "--catalog", str(tmp_path / "nope")])
        assert code == 2

    def test_explain(self, capsys):
        assert main(["query", FLAGSHIP, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "filter: 1 AND 2" in out
        assert "THOLD 0.5" in out

    @pytest.mark.parametrize(
        "where,filter_line",
        [
            ("(edad FEQ $joven OR edad FEQ $maduro) AND pelo FEQ $rubio", "filter: (1 OR 2) AND 3"),
            ("edad FEQ $joven OR (edad FEQ $maduro AND pelo FEQ $rubio)", "filter: 1 OR 2 AND 3"),
            ("edad FEQ $joven", "filter: 1"),
        ],
    )
    def test_explain_filter_shapes(self, capsys, where, filter_line):
        assert main(["query", f"SELECT nombre FROM personas WHERE {where}", "--explain"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == filter_line

    def test_explain_number_operand_and_units(self, capsys):
        assert main(["query", "SELECT nombre, edad FROM personas WHERE edad FEQ 26", "--explain"]) == 0
        assert capsys.readouterr().out == (
            "SELECT nombre, edad FROM personas WHERE edad FEQ 26;\n"
            "table: personas\n"
            "outputs:\n"
            "  1. nombre (type 1, scalar)\n"
            "  2. edad (type 2, numeric, years)\n"
            "conditions:\n"
            "  1. edad FEQ 26 THOLD 1\n"
            "filter: 1\n"
        )

    def test_explain_without_where(self, capsys):
        assert main(["query", "SELECT cod_pila FROM pilas", "--explain"]) == 0
        assert capsys.readouterr().out == (
            "SELECT cod_pila FROM pilas;\n"
            "table: pilas\n"
            "outputs:\n"
            "  1. cod_pila (type 1, numeric)\n"
            "no filter: every row qualifies\n"
        )

    def test_overflowing_number_exits_1(self, capsys):
        sql = "SELECT nombre FROM personas WHERE edad FEQ 1" + "0" * 400
        assert main(["query", sql]) == 1
        assert "too large at 1:44" in capsys.readouterr().err

    @pytest.mark.parametrize("operand", ["\u00b2", "\u0663\u0660"])
    def test_non_ascii_digit_exits_1(self, capsys, operand):
        sql = f"SELECT cartulina.% FROM cartulina WHERE cod_capa FEQ {operand} THOLD 0.5;"
        assert main(["query", sql]) == 1
        err = capsys.readouterr().err
        assert err == f"error: unexpected character {operand[0]!r} at 1:54\n"

    def test_stats_go_to_stderr(self, capsys):
        assert main(["query", FLAGSHIP, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "rows 14 -> 3" in captured.err
        assert "rows 14" not in captured.out

    def test_stats_count_load_time_first(self, capsys):
        assert main(["query", FLAGSHIP, "--stats"]) == 0
        match = re.match(r"load (\d+\.\d\d)ms  parse ", capsys.readouterr().err)
        assert match and float(match.group(1)) > 0

    def test_stats_count_decoded_rows_last(self, capsys):
        assert main(["query", FLAGSHIP, "--stats"]) == 0
        match = re.search(r"  rows 14 -> 3  decoded (\d+)\n\Z", capsys.readouterr().err)
        assert match and int(match.group(1)) == 14  # each call loads its catalog, so nothing is reused

    def test_stats_show_render_time_right_after_execute(self, capsys):
        assert main(["query", FLAGSHIP, "--stats"]) == 0
        assert re.search(r"  compile \d+\.\d\dms  execute \d+\.\d\dms  render (\d+\.\d\d)ms  rows 14 -> 3  ",
                         capsys.readouterr().err)

    def test_default_threshold_flag(self, capsys):
        sql = "SELECT cod_carti FROM cartulina WHERE tono_cara FEQ $blanco"
        assert main(["query", sql, "--thold", "0.5", "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6  # header + 5 rows

    def test_threshold_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "SELECT cod_pila FROM pilas", "--thold", "1.5"])
        assert exc.value.code == 2

    def test_threshold_not_a_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "SELECT cod_pila FROM pilas", "--thold", "abc"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --thold: not a number: 'abc'\n")


class TestBadInput:
    """Malformed files end in a positioned error and exit 2, never a traceback."""

    SQL = "SELECT personas.% FROM personas WHERE edad FEQ 30 THOLD 0"

    def query(self, case_copy):
        return main(["query", self.SQL, "--catalog", str(case_copy), "--data-dir", str(case_copy)])

    @pytest.mark.parametrize("cell", ["3;inf;;;", "3;nan"])
    def test_non_finite_cell(self, capsys, case_copy, cell):
        path = case_copy / "personas.csv"
        path.write_text(path.read_text().replace("Ana,3;26;;;", f"Ana,{cell}"))
        assert self.query(case_copy) == 2
        assert "personas.csv:2: column edad: expected a finite number" in capsys.readouterr().err

    def test_inconsistent_approx_cell(self, capsys, case_copy):
        path = case_copy / "rollos.csv"
        path.write_text(path.read_text().replace("6;450;430;470;20", "6;450;0;0;20"))
        sql = "SELECT cod_rollo FROM rollos"
        assert main(["query", sql, "--catalog", str(case_copy), "--data-dir", str(case_copy)]) == 2
        assert "rollos.csv:2: column peso: code 6 field 2" in capsys.readouterr().err

    def test_numeric_scalar_element(self, capsys, case_copy):
        path = case_copy / "cartulina.csv"
        path.write_text(path.read_text().replace("333,20,Huecograbado,0,", "333,20,Huecograbado,3;1;5,"))
        sql = "SELECT cod_carti FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0.5"
        assert main(["query", sql, "--catalog", str(case_copy), "--data-dir", str(case_copy)]) == 2
        err = capsys.readouterr().err
        assert "cartulina.csv:4: column tono_cara: element '5' is not in the domain\n" in err

    def test_non_finite_label_corner(self, capsys, case_copy):
        path = case_copy / "labels.tsv"
        path.write_text(path.read_text().replace("joven\t15", "joven\t-inf"))
        assert main(["catalog", "show", "--catalog", str(case_copy)]) == 2
        assert "labels.tsv:45: " in capsys.readouterr().err

    def test_byte_order_mark(self, capsys, case_copy):
        path = case_copy / "personas.csv"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert self.query(case_copy) == 0
        assert "(8 rows)" in capsys.readouterr().out

    def test_invalid_utf8(self, capsys, case_copy):
        path = case_copy / "personas.csv"
        path.write_bytes(path.read_bytes().replace(b"Rosa", b"Ros\xff"))
        assert self.query(case_copy) == 2
        assert "personas.csv:6: not valid UTF-8" in capsys.readouterr().err

    def test_oversized_table_field(self, capsys, case_copy):
        with open(case_copy / "personas.csv", "a", encoding="utf-8") as f:
            f.write("x" * 140_000 + ",0,0\n")
        assert self.query(case_copy) == 2
        err = capsys.readouterr().err
        assert "personas.csv:10: field larger than field limit (131072)" in err
        assert "Traceback" not in err

    def test_oversized_label_field(self, capsys, case_copy):
        with open(case_copy / "labels.tsv", "a", encoding="utf-8") as f:
            f.write("personas\tpelo\t99\t" + "x" * 140_000 + "\t\t\t\t\n")
        assert self.query(case_copy) == 2
        err = capsys.readouterr().err
        assert "labels.tsv:50: field larger than field limit (131072)" in err
        assert "Traceback" not in err


CASE_FILES = ["attributes.tsv", "labels.tsv", "similarity.tsv",
              "cartulina.csv", "personas.csv", "pilas.csv", "rollos.csv"]
JUNK = ["\t", ",", ";", '"', "\n", "\r", "x", "9", "nan", "1e999", "\0", "é"]
# One edit of a text: junk inserted, 1-20 characters cut, or a line written twice.
MUTATIONS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 10**4), st.sampled_from(JUNK)),
    st.tuples(st.just("cut"), st.integers(0, 10**4), st.integers(1, 20)),
    st.tuples(st.just("duplicate"), st.integers(0, 10**4), st.none()),
)
POSITION = re.compile(r"\.(csv|tsv):\d+: | at \d+:\d+")


def mutate(text, kind, at, arg):
    if kind == "insert":
        at %= len(text) + 1
        return text[:at] + arg + text[at:]
    if kind == "cut":
        at %= len(text)
        return text[:at] + text[at + arg:]
    lines = text.splitlines(keepends=True)
    at %= len(lines)
    return "".join(lines[:at + 1] + lines[at:])


class TestBoundaryFuzz:
    """One edit of a case-study file or of the golden statement ends in an answer or a positioned error."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(target=st.sampled_from([*CASE_FILES, "flagship.fsql"]), mutation=MUTATIONS)
    @example(target="attributes.tsv", mutation=("cut", 0, 5))
    @example(target="cartulina.csv", mutation=("cut", 0, 5))
    def test_every_failure_is_positioned(self, target, mutation):
        sql = (GOLDEN / "flagship.fsql").read_text(encoding="utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            case = shutil.copytree(case_study_dir(), pathlib.Path(tmp) / "case")
            if target == "flagship.fsql":
                sql = mutate(sql, *mutation)
            else:
                path = case / target
                with open(path, encoding="utf-8", newline="") as f:
                    text = f.read()
                with open(path, "w", encoding="utf-8", newline="") as f:
                    f.write(mutate(text, *mutation))
                if target.endswith(".csv"):
                    table = target[:-len(".csv")]
                    sql = f"SELECT {table}.% FROM {table}"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["query", sql, "--catalog", str(case), "--data-dir", str(case)])
        assert code in (0, 1, 2)
        if code:
            assert POSITION.search(err.getvalue()), err.getvalue()


class TestRepl:
    def run(self, monkeypatch, capsys, script, argv=()):
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["repl", *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_statement_then_quit(self, monkeypatch, capsys):
        code, out, err = self.run(
            monkeypatch, capsys, "SELECT cod_pila FROM pilas WHERE cod_pila FEQ 3\n.quit\n"
        )
        assert code == 0
        assert "(1 row)" in out
        assert "fsql>" in err

    def test_format_switch(self, monkeypatch, capsys):
        script = ".format csv\nSELECT cod_pila FROM pilas WHERE cod_pila FEQ 3\n.exit\n"
        code, out, _ = self.run(monkeypatch, capsys, script)
        assert code == 0
        assert out.splitlines() == ["cod_pila", "3"]

    def test_jsonl_with_no_rows_prints_no_line(self, monkeypatch, capsys):
        script = ".format jsonl\nSELECT cod_pila FROM pilas WHERE cod_pila FEQ 999\n.exit\n"
        code, out, _ = self.run(monkeypatch, capsys, script)
        assert code == 0
        assert out == ""

    def test_format_command_shows_and_refuses(self, monkeypatch, capsys):
        script = ".format\n.format xml\n.format\nSELECT cod_pila FROM pilas WHERE cod_pila FEQ 3\n.quit\n"
        code, out, err = self.run(monkeypatch, capsys, script)
        assert code == 0
        assert err.split("fsql> ")[1:4] == ["table\n", "unknown format 'xml'\n", "table\n"]
        assert "(1 row)" in out

    def test_thold_command_shows_and_refuses(self, monkeypatch, capsys):
        script = ".thold\n.thold abc\n.thold 2\n.thold\n.thold 0.25\n.thold\n.quit\n"
        code, _, err = self.run(monkeypatch, capsys, script)
        assert code == 0
        assert err.split("fsql> ")[1:7] == ["1\n", "not a number: 'abc'\n",
                                            "threshold must be in [0, 1]\n", "1\n", "", "0.25\n"]

    def test_thold_switch(self, monkeypatch, capsys):
        script = (
            ".thold 0.2\n"
            "SELECT nombre FROM personas WHERE edad FEQ $maduro\n"
            ".quit\n"
        )
        code, out, _ = self.run(monkeypatch, capsys, script)
        assert code == 0
        for name in ("Ana", "Luis", "Jorge", "Rosa", "Pablo", "Nuria"):
            assert name in out
        assert "Marta" not in out
        assert "Elena" not in out

    def test_errors_keep_the_loop_running(self, monkeypatch, capsys):
        script = "SELECT nope FROM cartulina\nSELECT cod_pila FROM pilas WHERE cod_pila FEQ 1\n.quit\n"
        code, out, err = self.run(monkeypatch, capsys, script)
        assert code == 0
        assert "error:" in err
        assert "(1 row)" in out

    def test_oversized_field_keeps_the_loop_running(self, monkeypatch, capsys, case_copy):
        with open(case_copy / "personas.csv", "a", encoding="utf-8") as f:
            f.write("x" * 140_000 + ",0,0\n")
        script = ("SELECT nombre FROM personas\n"
                  "SELECT cod_pila FROM pilas WHERE cod_pila FEQ 1\n.quit\n")
        code, out, err = self.run(monkeypatch, capsys, script,
                                  ["--catalog", str(case_copy), "--data-dir", str(case_copy)])
        assert code == 0
        assert "error: " in err and "personas.csv:10: field larger than field limit" in err
        assert "(1 row)" in out

    def test_catalog_and_help_commands(self, monkeypatch, capsys):
        code, out, err = self.run(monkeypatch, capsys, ".help\n.catalog\n.nope\n.quit\n")
        assert code == 0
        assert ".thold [T]" in err
        assert "unknown command .nope" in err
        assert "pilas.formato_largo: type 2, numeric, units cm" in out

    def test_end_of_input_leaves_cleanly(self, monkeypatch, capsys):
        code, _, _ = self.run(monkeypatch, capsys, "")
        assert code == 0


class TestCatalogCommands:
    def test_show_bundled(self, capsys):
        assert main(["catalog", "show"]) == 0
        out = capsys.readouterr().out
        assert "cartulina.tono_cara: type 3, scalar" in out
        assert "optima(2) $[60, 70, 90, 100]" in out
        assert "sucio~rayas_superficie=0.8" in out

    def test_show_writes_degrees_as_format_number(self, capsys, tmp_path):
        d = str(tmp_path)
        assert main(["catalog", "add-attr", "lots.grade", "--type", "3", "--domain", "scalar", "--catalog", d]) == 0
        for name in ("good", "fair"):
            assert main(["catalog", "add-label", "lots.grade", name, "--catalog", d]) == 0
        assert main(["catalog", "set-sim", "lots.grade", "good", "fair", "1", "--catalog", d]) == 0
        capsys.readouterr()
        assert main(["catalog", "show", "--catalog", d]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "  similarity: good~fair=1"

    @pytest.mark.parametrize("degree, shown", [("1", "1"), ("1.0", "1"), ("0.70", "0.7"), ("1e-1", "0.1")])
    def test_set_sim_reports_the_degree_as_format_number(self, capsys, tmp_path, degree, shown):
        d = str(tmp_path)
        assert main(["catalog", "add-attr", "lots.grade", "--type", "3", "--domain", "scalar", "--catalog", d]) == 0
        for name in ("good", "fair"):
            assert main(["catalog", "add-label", "lots.grade", name, "--catalog", d]) == 0
        capsys.readouterr()
        assert main(["catalog", "set-sim", "lots.grade", "good", "fair", degree, "--catalog", d]) == 0
        assert capsys.readouterr().err == f"set good~fair to {shown} on lots.grade\n"

    def test_editing_workflow(self, capsys, tmp_path):
        d = str(tmp_path)
        edits = [
            ["add-attr", "lots.grade", "--type", "3", "--domain", "scalar"],
            ["add-label", "lots.grade", "good"],
            ["add-label", "lots.grade", "fair"],
            ["set-sim", "lots.grade", "good", "fair", "0.7"],
            ["add-attr", "lots.width", "--type", "2", "--units", "cm"],
            ["add-label", "lots.width", "narrow", "--corners", "0", "0", "10", "20"],
        ]
        for edit in edits:
            assert main(["catalog", *edit, "--catalog", d]) == 0
            capsys.readouterr()
            assert main(["catalog", "show", "--catalog", d]) == 0
            out, err = capsys.readouterr()
            assert err == ""
        assert "lots.grade: type 3, scalar" in out
        assert "good~fair=0.7" in out
        assert "narrow(1) $[0, 0, 10, 20]" in out

    def test_refuses_to_edit_bundled_example(self, capsys):
        assert main(["catalog", "add-attr", "lots.grade", "--type", "1"]) == 2
        assert "--catalog" in capsys.readouterr().err

    def test_add_label_needs_corners_on_numeric(self, capsys, tmp_path):
        d = str(tmp_path)
        assert main(["catalog", "add-attr", "lots.width", "--type", "2", "--catalog", d]) == 0
        assert main(["catalog", "add-label", "lots.width", "narrow", "--catalog", d]) == 2

    def test_bad_target_shape(self, capsys, tmp_path):
        code = main(["catalog", "add-attr", "grade", "--type", "1", "--catalog", str(tmp_path)])
        assert code == 2
        assert "TABLE.COLUMN" in capsys.readouterr().err
