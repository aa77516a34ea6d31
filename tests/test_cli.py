"""Command-line behaviour: exit codes, output routing, catalog editing."""

import io

import pytest

from fuzzydb.cli import main

FLAGSHIP = (
    "SELECT cartulina.% FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0.5 "
    "AND tono_reverso FEQ $blanco THOLD 0.5;"
)


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

    def test_overflowing_number_exits_1(self, capsys):
        sql = "SELECT nombre FROM personas WHERE edad FEQ 1" + "0" * 400
        assert main(["query", sql]) == 1
        assert "too large at 1:44" in capsys.readouterr().err

    def test_stats_go_to_stderr(self, capsys):
        assert main(["query", FLAGSHIP, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "rows 14 -> 3" in captured.err
        assert "rows 14" not in captured.out

    def test_default_threshold_flag(self, capsys):
        sql = "SELECT cod_carti FROM cartulina WHERE tono_cara FEQ $blanco"
        assert main(["query", sql, "--thold", "0.5", "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6  # header + 5 rows

    def test_threshold_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "SELECT cod_pila FROM pilas", "--thold", "1.5"])
        assert exc.value.code == 2


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

    def test_editing_workflow(self, capsys, tmp_path):
        d = str(tmp_path)
        assert main(["catalog", "add-attr", "lots.grade", "--type", "3", "--domain", "scalar", "--catalog", d]) == 0
        assert main(["catalog", "add-label", "lots.grade", "good", "--catalog", d]) == 0
        assert main(["catalog", "add-label", "lots.grade", "fair", "--catalog", d]) == 0
        assert main(["catalog", "set-sim", "lots.grade", "good", "fair", "0.7", "--catalog", d]) == 0
        assert main(["catalog", "add-attr", "lots.width", "--type", "2", "--units", "cm", "--catalog", d]) == 0
        assert main(
            ["catalog", "add-label", "lots.width", "narrow", "--corners", "0", "0", "10", "20", "--catalog", d]
        ) == 0
        capsys.readouterr()
        assert main(["catalog", "show", "--catalog", d]) == 0
        out = capsys.readouterr().out
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
