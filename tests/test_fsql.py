"""FSQL tokenizer, parser, canonical rendering, and compilation."""

import importlib

import pytest

from fuzzydb import CompileError, FsqlSyntaxError, compile_query, parse_query, render_query
from fuzzydb.fsql import (
    And,
    CdegItem,
    ColumnRef,
    Condition,
    DegreeColumn,
    LabelOperand,
    NumberOperand,
    Or,
    PhysicalColumn,
    Wildcard,
    tokenize,
)

FLAGSHIP = (
    "SELECT cartulina.% FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0.5 "
    "and tono_reverso FEQ $blanco THOLD 0.5;"
)


class TestLexer:
    def test_token_stream(self):
        kinds = [t.kind for t in tokenize("SELECT a.% FROM t WHERE x FEQ $l THOLD 0.5;")]
        assert kinds == [
            "SELECT", "IDENT", "DOT", "PERCENT", "FROM", "IDENT", "WHERE",
            "IDENT", "FEQ", "LABEL", "THOLD", "NUMBER", "SEMI", "EOF",
        ]

    def test_keywords_ignore_case(self):
        assert [t.kind for t in tokenize("select Feq thold CDEG")][:-1] == [
            "SELECT", "FEQ", "THOLD", "CDEG",
        ]

    def test_positions(self):
        tokens = tokenize("SELECT a\nFROM t")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (1, 8)
        assert (tokens[2].line, tokens[2].column) == (2, 1)

    def test_numbers(self):
        tokens = tokenize("0.5 26 100.25")
        assert [t.value for t in tokens[:-1]] == [0.5, 26.0, 100.25]

    def test_overflowing_number_rejected_with_position(self):
        with pytest.raises(FsqlSyntaxError) as err:
            tokenize("x FEQ 1" + "0" * 400)
        assert "too large" in str(err.value)
        assert "1:7" in str(err.value)

    def test_label_token_drops_sigil(self):
        token = tokenize("$blanco")[0]
        assert (token.kind, token.text) == ("LABEL", "blanco")

    def test_bare_sigil_rejected_with_position(self):
        with pytest.raises(FsqlSyntaxError) as err:
            tokenize("x FEQ $ 1")
        assert "1:7" in str(err.value)

    def test_unexpected_character(self):
        with pytest.raises(FsqlSyntaxError) as err:
            tokenize("SELECT a FROM t WHERE x ! 1")
        assert "'!'" in str(err.value)
        assert "1:25" in str(err.value)


class TestParser:
    def test_flagship_shape(self):
        q = parse_query(FLAGSHIP)
        assert q.table == "cartulina"
        assert q.items == (Wildcard("cartulina"),)
        assert isinstance(q.where, And)
        assert q.where.children == (
            Condition(ColumnRef(None, "tono_cara"), LabelOperand("blanco"), 0.5),
            Condition(ColumnRef(None, "tono_reverso"), LabelOperand("blanco"), 0.5),
        )

    def test_select_items(self):
        q = parse_query("SELECT a, t.b, CDEG(c), t.% FROM t")
        assert q.items == (
            ColumnRef(None, "a"),
            ColumnRef("t", "b"),
            CdegItem(ColumnRef(None, "c")),
            Wildcard("t"),
        )

    def test_and_binds_tighter_than_or(self):
        q = parse_query("SELECT a FROM t WHERE a FEQ 1 OR b FEQ 2 AND c FEQ 3")
        assert isinstance(q.where, Or)
        first, second = q.where.children
        assert isinstance(first, Condition)
        assert isinstance(second, And)
        assert len(second.children) == 2

    def test_parentheses_override(self):
        q = parse_query("SELECT a FROM t WHERE (a FEQ 1 OR b FEQ 2) AND c FEQ 3")
        assert isinstance(q.where, And)
        assert isinstance(q.where.children[0], Or)

    def test_same_operator_flattens(self):
        q = parse_query("SELECT a FROM t WHERE (a FEQ 1 OR b FEQ 2) OR c FEQ 3")
        assert isinstance(q.where, Or)
        assert len(q.where.children) == 3
        q = parse_query("SELECT a FROM t WHERE a FEQ 1 AND (b FEQ 2 AND c FEQ 3)")
        assert isinstance(q.where, And)
        assert len(q.where.children) == 3

    def test_threshold_is_optional(self):
        q = parse_query("SELECT a FROM t WHERE a FEQ $x")
        assert q.where.threshold is None

    def test_number_operand(self):
        q = parse_query("SELECT a FROM t WHERE a FEQ 26")
        assert q.where.operand == NumberOperand(26.0)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("SELECT FROM t", "expected"),
            ("SELECT a t", "expected FROM"),
            ("SELECT a FROM t WHERE", "column name"),
            ("SELECT a FROM t WHERE a FEQ", "label or a number"),
            ("SELECT a FROM t WHERE a FEQ $x THOLD", "threshold"),
            ("SELECT a FROM t WHERE a FEQ $x extra", "after end of query"),
            ("SELECT CDEG a FROM t", "'('"),
            ("SELECT a FROM t; SELECT b FROM t", "after end of query"),
            ("", "expected SELECT"),
        ],
    )
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(FsqlSyntaxError) as err:
            parse_query(text)
        assert fragment in str(err.value)

    def test_errors_carry_positions(self):
        with pytest.raises(FsqlSyntaxError) as err:
            parse_query("SELECT a FROM t WHERE a FEQ %")
        assert "1:29" in str(err.value)

    def test_conditions_in_source_order(self):
        q = parse_query("SELECT a FROM t WHERE a FEQ 1 OR (b FEQ 2 AND c FEQ 3)")
        assert [c.column.column for c in q.conditions()] == ["a", "b", "c"]


class TestRender:
    def test_canonical_text(self):
        assert render_query(parse_query(FLAGSHIP)) == (
            "SELECT cartulina.% FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0.5 "
            "AND tono_reverso FEQ $blanco THOLD 0.5;"
        )

    @pytest.mark.parametrize(
        "text",
        [
            FLAGSHIP,
            "select a, b.c, CDEG(d) from b where x feq 3.5",
            "SELECT a FROM t WHERE (a FEQ 1 OR b FEQ 2) AND c FEQ $z THOLD 0.25",
            "SELECT a FROM t WHERE a FEQ 1 AND b FEQ 2 OR c FEQ 3 AND d FEQ 4",
            "SELECT t.% FROM t",
        ],
    )
    def test_parse_render_fixed_point(self, text):
        once = parse_query(text)
        again = parse_query(render_query(once))
        assert again == once
        assert render_query(again) == render_query(once)

    def test_parenthesizes_or_under_and(self):
        text = render_query(parse_query("SELECT a FROM t WHERE (a FEQ 1 OR b FEQ 2) AND c FEQ 3"))
        assert "(a FEQ 1 OR b FEQ 2) AND c FEQ 3" in text


class TestCompile:
    def test_flagship_plan(self, case_catalog):
        plan = compile_query(parse_query(FLAGSHIP), case_catalog)
        assert plan.table == "cartulina"
        assert plan.headers() == [
            "cod_carti", "cod_capa", "impresion", "tono_cara", "tono_reverso",
            "CDEG(tono_cara)", "CDEG(tono_reverso)",
        ]
        assert [type(out) for out in plan.outputs[:5]] == [PhysicalColumn] * 5
        assert plan.outputs[5] == DegreeColumn("CDEG(tono_cara)", (0,))
        assert plan.outputs[6] == DegreeColumn("CDEG(tono_reverso)", (1,))
        assert [c.threshold for c in plan.conditions] == [0.5, 0.5]
        assert plan.conditions[0].attr.qualified == "cartulina.tono_cara"

    def test_accepts_plain_text(self, case_catalog):
        plan = compile_query("SELECT cod_pila FROM pilas", case_catalog)
        assert plan.conditions == ()
        assert plan.tree is None

    def test_default_threshold(self, case_catalog):
        plan = compile_query("SELECT nombre FROM personas WHERE edad FEQ $joven", case_catalog)
        assert plan.conditions[0].threshold == 1.0
        plan = compile_query(
            "SELECT nombre FROM personas WHERE edad FEQ $joven", case_catalog,
            default_threshold=0.3,
        )
        assert plan.conditions[0].threshold == 0.3

    def test_cdeg_collects_all_conditions_on_column(self, case_catalog):
        plan = compile_query(
            "SELECT CDEG(edad) FROM personas WHERE edad FEQ $joven THOLD 0.1 "
            "OR edad FEQ $maduro THOLD 0.1",
            case_catalog,
        )
        assert plan.outputs == (DegreeColumn("CDEG(edad)", (0, 1)),)

    def test_number_operand_on_ordered_column(self, case_catalog):
        plan = compile_query("SELECT nombre FROM personas WHERE edad FEQ 26", case_catalog)
        assert plan.conditions[0].operand.number == 26.0

    def test_label_case_folds_to_catalog_spelling(self, case_catalog):
        plan = compile_query("SELECT nombre FROM personas WHERE edad FEQ $JOVEN", case_catalog)
        assert plan.conditions[0].operand.name == "joven"

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("SELECT a FROM nowhere", "unknown table"),
            ("SELECT nope FROM personas", "no column"),
            ("SELECT pilas.cod_pila FROM personas", "does not belong"),
            ("SELECT pilas.% FROM personas", "does not match"),
            ("SELECT nombre FROM personas WHERE nombre FEQ $x", "plain text"),
            ("SELECT nombre FROM personas WHERE edad FEQ $viejo", "not defined"),
            ("SELECT nombre FROM personas WHERE pelo FEQ 3", "unordered domain"),
            ("SELECT nombre FROM personas WHERE edad FEQ $joven THOLD 1.5", "in [0, 1]"),
            ("SELECT CDEG(pelo) FROM personas WHERE edad FEQ $joven", "no condition references"),
            ("SELECT CDEG(pelo) FROM personas", "no condition references"),
        ],
    )
    def test_compile_errors(self, case_catalog, text, fragment):
        with pytest.raises(CompileError) as err:
            compile_query(text, case_catalog)
        assert fragment in str(err.value)

    def test_errors_point_at_source(self, case_catalog):
        with pytest.raises(CompileError) as err:
            compile_query("SELECT nope FROM personas", case_catalog)
        assert "1:8" in str(err.value)

    def test_explain_mentions_structure(self, case_catalog):
        plan = compile_query(FLAGSHIP, case_catalog)
        text = plan.explain()
        assert "filter: 1 AND 2" in text
        assert "CDEG(tono_cara) (degree of condition 1)" in text
        assert "tono_cara FEQ $blanco THOLD 0.5" in text

    @pytest.mark.parametrize(
        "where,rendered,filter_line",
        [
            (
                "(edad FEQ $joven OR edad FEQ $maduro) AND pelo FEQ $rubio THOLD 0.5",
                "(edad FEQ $joven OR edad FEQ $maduro) AND pelo FEQ $rubio THOLD 0.5",
                "filter: (1 OR 2) AND 3",
            ),
            (
                "edad FEQ $joven OR (edad FEQ $maduro AND pelo FEQ $rubio THOLD 0.5)",
                "edad FEQ $joven OR edad FEQ $maduro AND pelo FEQ $rubio THOLD 0.5",
                "filter: 1 OR 2 AND 3",
            ),
            ("edad FEQ $joven", "edad FEQ $joven", "filter: 1"),
        ],
    )
    def test_filter_shapes_render_and_explain(self, case_catalog, where, rendered, filter_line):
        text = f"SELECT nombre FROM personas WHERE {where}"
        expected = f"SELECT nombre FROM personas WHERE {rendered};"
        assert render_query(parse_query(text)) == expected
        lines = compile_query(text, case_catalog).explain().splitlines()
        assert lines[0] == expected
        assert lines[-1] == filter_line

    def test_qualified_condition_column(self, case_catalog):
        plan = compile_query(
            "SELECT cod_carti FROM cartulina WHERE cartulina.tono_cara FEQ $blanco THOLD 0.1",
            case_catalog,
        )
        assert plan.conditions[0].attr.column == "tono_cara"


@pytest.mark.parametrize("module", ["fuzzydb", "fuzzydb.fsql"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    for name in package.__all__:
        assert hasattr(package, name), name
