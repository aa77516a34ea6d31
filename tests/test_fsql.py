"""FSQL tokenizer, parser, canonical rendering, and compilation."""

import importlib
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from fuzzydb import (
    CompileError,
    FsqlSyntaxError,
    compile_query,
    format_number,
    parse_query,
    render_query,
    run_query,
)
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
from fuzzydb.fsql.lexer import KEYWORDS, Token

FLAGSHIP = (
    "SELECT cartulina.% FROM cartulina WHERE tono_cara FEQ $blanco THOLD 0.5 "
    "and tono_reverso FEQ $blanco THOLD 0.5;"
)


def oracle_tokenize(source):
    """tokenize as it was before the master pattern: a loop over the text a character at a time."""
    punct = {".": "DOT", ",": "COMMA", "%": "PERCENT", "(": "LPAREN", ")": "RPAREN", ";": "SEMI"}

    def ident_start(c):
        return c.isalpha() or c == "_"

    def ident_char(c):
        return c.isalnum() or c == "_"

    def digit(c):
        return "0" <= c <= "9"

    tokens = []
    i = 0
    line = 1
    column = 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            column = 1
            continue
        if c.isspace():
            i += 1
            column += 1
            continue
        start_col = column
        if ident_start(c):
            j = i + 1
            while j < n and ident_char(source[j]):
                j += 1
            word = source[i:j]
            upper = word.upper()
            kind = upper if upper in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, line, start_col))
            column += j - i
            i = j
            continue
        if digit(c):
            j = i + 1
            while j < n and digit(source[j]):
                j += 1
            if j < n - 1 and source[j] == "." and digit(source[j + 1]):
                j += 2
                while j < n and digit(source[j]):
                    j += 1
            if source[j : j + 1] in ("e", "E"):
                k = j + 2 if source[j + 1 : j + 2] in ("+", "-") else j + 1
                if k < n and digit(source[k]):  # else 'e' is not part of the number
                    j = k + 1
                    while j < n and digit(source[j]):
                        j += 1
            text = source[i:j]
            value = float(text)
            if not math.isfinite(value):
                cut = text[:20] + "..." if len(text) > 20 else text
                raise FsqlSyntaxError(f"number {cut} is too large", line, start_col)
            tokens.append(Token("NUMBER", text, line, start_col, value=value))
            column += j - i
            i = j
            continue
        if c == "$":
            j = i + 1
            if j >= n or not ident_start(source[j]):
                raise FsqlSyntaxError("'$' must be followed by a label name", line, start_col)
            j += 1
            while j < n and ident_char(source[j]):
                j += 1
            tokens.append(Token("LABEL", source[i + 1 : j], line, start_col))
            column += j - i
            i = j
            continue
        if c in punct:
            tokens.append(Token(punct[c], c, line, start_col))
            i += 1
            column += 1
            continue
        raise FsqlSyntaxError(f"unexpected character {c!r}", line, start_col)
    tokens.append(Token("EOF", "", line, column))
    return tokens


def lexed(tokenizer, text):
    """The (kind, text, line, column, value) of each token, or the syntax error's message."""
    try:
        return [(t.kind, t.text, t.line, t.column, t.value) for t in tokenizer(text)]
    except FsqlSyntaxError as exc:
        return str(exc)


def mixed_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda ups: "".join(c.upper() if up else c.lower() for c, up in zip(word, ups)))


# Pieces of FSQL text: letters and digits, every punctuation mark and a few strays, the
# separators, characters that \d or \w take but a number or word must not start with, and
# whole keywords, numbers and runs of separators.
LEXER_PIECES = st.one_of(
    st.sampled_from([*"abxyzABXYZ_eE0123456789", *".,%();$+-!", *"\n\r\t\xa0 ", *"²٣Ⅷéß"]),
    st.sampled_from(sorted(KEYWORDS)).flatmap(mixed_case),
    st.sampled_from(["1e5", "2.5E+3", "1e999", "\r\n", "\n \n"]),
)
# The (kind, text, rendering) of a token that a stream renders.
WORD_START = "abeEzXY_éß"
WORD_REST = WORD_START + "0123456789²٣Ⅷ"
WORDS = st.builds(lambda a, b: a + b, st.text(WORD_START, min_size=1, max_size=1),
                  st.text(WORD_REST, max_size=5))
STREAM_TOKENS = st.one_of(
    WORDS.map(lambda w: (w.upper() if w.upper() in KEYWORDS else "IDENT", w, w)),
    st.sampled_from(sorted(KEYWORDS)).flatmap(mixed_case).map(lambda w: (w.upper(), w, w)),
    WORDS.map(lambda w: ("LABEL", w, "$" + w)),
    st.one_of(st.floats(0, allow_infinity=False).map(abs).map(format_number),
              st.sampled_from(["007", "0.50", "1e5", "2.5E+3", "7e-05", "1E0"]))
    .map(lambda n: ("NUMBER", n, n)),
    st.sampled_from([("DOT", "."), ("COMMA", ","), ("PERCENT", "%"), ("LPAREN", "("),
                     ("RPAREN", ")"), ("SEMI", ";")]).map(lambda p: (p[0], p[1], p[1])),
)


def separators(min_size):
    """Runs of white space that tokenize skips, '\r\n' and the no-break space included."""
    return st.lists(st.sampled_from(["\n", "\r", "\t", "\xa0", " ", "\r\n"]),
                    min_size=min_size, max_size=3).map("".join)


# Tails that no token takes, and the message each one fails with.
BAD_TAILS = st.sampled_from([(c, f"unexpected character {c!r}") for c in "!+²٣Ⅷ"]
                            + [("$" + c, "'$' must be followed by a label name") for c in " ²٣1"])


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

    def test_exponents(self):
        tokens = tokenize("1e5 2.5E+3 7e-05 1E0")
        assert [t.value for t in tokens[:-1]] == [1e5, 2500.0, 7e-05, 1.0]
        assert [t.text for t in tokens[:-1]] == ["1e5", "2.5E+3", "7e-05", "1E0"]

    @pytest.mark.parametrize("text, message", [
        ("SELECT a FROM t WHERE a FEQ 1e", "unexpected 'e' after end of query at 1:30"),
        ("SELECT a FROM t WHERE a FEQ 1e+ THOLD 0", "unexpected character '+' at 1:31"),
        ("SELECT a FROM t WHERE a FEQ 1e\u0663", "unexpected 'e\u0663' after end of query at 1:30"),
        ("SELECT a FROM t WHERE a FEQ 1e999", "is too large at 1:29"),
        ("SELECT a FROM t WHERE a FEQ 1 THOLD 2.5E+400", "is too large at 1:37"),
    ])
    def test_malformed_exponents_rejected_with_position(self, text, message):
        with pytest.raises(FsqlSyntaxError, match=re.escape(message)):
            parse_query(text)

    def test_overflowing_number_rejected_with_position(self):
        with pytest.raises(FsqlSyntaxError) as err:
            tokenize("x FEQ 1" + "0" * 400)
        assert "too large" in str(err.value)
        assert "1:7" in str(err.value)

    @pytest.mark.parametrize("number, shown", [
        ("1e999", "1e999"),  # nothing cut, nothing marked
        ("1" + "0" * 15 + "e999", "1" + "0" * 15 + "e999"),  # 20 characters
        ("1" + "0" * 16 + "e999", "1" + "0" * 16 + "e99..."),
        ("1" + "0" * 400, "1" + "0" * 19 + "..."),
    ])
    def test_overflow_message_marks_only_a_cut_number(self, number, shown):
        with pytest.raises(FsqlSyntaxError) as err:
            tokenize("x FEQ " + number)
        assert str(err.value) == f"number {shown} is too large at 1:7"

    @pytest.mark.parametrize("text, column", [
        ("x FEQ \u00b2", 7),  # superscript two
        ("x FEQ \u0663\u0660", 7),  # Arabic-Indic thirty
        ("x FEQ 3\u0660", 8),
        ("x FEQ 1.\u0663", 9),
    ])
    def test_numbers_take_ascii_digits_only(self, text, column):
        with pytest.raises(FsqlSyntaxError) as err:
            tokenize(text)
        assert f"unexpected character {text[column - 1]!r} at 1:{column}" in str(err.value)

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

    @settings(max_examples=500, deadline=None)
    @given(st.lists(LEXER_PIECES, max_size=30).map("".join))
    def test_matches_the_character_loop(self, text):
        assert lexed(tokenize, text) == lexed(oracle_tokenize, text)

    @settings(max_examples=300, deadline=None)
    @given(stream=st.lists(STREAM_TOKENS, max_size=12), data=st.data())
    def test_rendered_token_streams_lex_back(self, stream, data):
        """Tokens joined by separators lex back to the same kinds, texts and positions; a tail
        that no token takes fails at its own position."""
        tail = data.draw(st.none() | BAD_TAILS)
        text, expected, line, column, previous = "", [], 1, 1, None
        for kind, token_text, rendered in [*stream, ("TAIL", "", tail[0])] if tail else stream:
            # two tokens may touch only when one of them is punctuation other than '.'
            touching = previous is None or previous in ",%();" or rendered in ",%();"
            separator = data.draw(separators(0 if touching else 1))
            for c in separator:
                line, column = (line + 1, 1) if c == "\n" else (line, column + 1)
            value = float(token_text) if kind == "NUMBER" else None
            expected.append((kind, token_text, line, column, value))
            text += separator + rendered
            column += len(rendered)
            previous = rendered
        if tail:
            _, _, line, column, _ = expected[-1]
            assert lexed(tokenize, text) == f"{tail[1]} at {line}:{column}"
        else:
            assert lexed(tokenize, text) == [*expected, ("EOF", "", line, column, None)]


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

    @given(x=st.floats(allow_nan=False, allow_infinity=False).map(abs),
           t=st.floats(0, 1))
    def test_numbers_parse_back_from_their_render(self, x, t):
        # format_number writes exponents (1e-05, 1e+16), which the lexer reads
        query = parse_query(f"SELECT a FROM t WHERE a FEQ {x!r} THOLD {t!r}")
        again = parse_query(render_query(query))
        assert again == query
        assert math.copysign(1, again.where.operand.value) == 1

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

    def test_conditions_numbered_in_source_order(self, case_catalog):
        plan = compile_query(
            "SELECT cartulina.% FROM cartulina WHERE tono_reverso FEQ $blanco THOLD 0.5 "
            "OR (cod_carti FEQ 3 AND tono_cara FEQ $cafe THOLD 0.5)",
            case_catalog,
        )
        assert [(c.index, c.attr.column) for c in plan.conditions] == [
            (0, "tono_reverso"), (1, "cod_carti"), (2, "tono_cara")]
        assert plan.tree == Or((plan.conditions[0], And(plan.conditions[1:])))
        # the numbering is what ties each CDEG column of % to its condition
        assert plan.outputs[5:] == (
            DegreeColumn("CDEG(tono_reverso)", (0,)),
            DegreeColumn("CDEG(cod_carti)", (1,)),
            DegreeColumn("CDEG(tono_cara)", (2,)),
        )
        assert plan.explain().splitlines()[-1] == "filter: 1 OR 2 AND 3"

    @pytest.mark.parametrize("threshold", [1.5, -0.5, math.nan])
    @pytest.mark.parametrize("where", ["", " WHERE tono_cara FEQ $blanco"])
    def test_default_threshold_is_checked_first(self, case_catalog, threshold, where):
        with pytest.raises(CompileError) as err:
            compile_query(f"SELECT cod_carti FROM cartulina{where}", case_catalog, threshold)
        assert str(err.value) == f"default threshold must be in [0, 1], got {threshold!r}"
        assert err.value.line is None

    @pytest.mark.parametrize("threshold", ["0.5", None, True, False])
    @pytest.mark.parametrize("where", ["", " WHERE tono_cara FEQ $blanco"])
    def test_default_threshold_must_be_a_number(self, case_catalog, threshold, where):
        text = f"SELECT cod_carti FROM cartulina{where}"
        message = f"default threshold must be a number, got {threshold!r}"
        for run in (compile_query, lambda q, cat, t: run_query(q, cat, tables={}, default_threshold=t)):
            with pytest.raises(CompileError) as err:
                run(text, case_catalog, threshold)
            assert str(err.value) == message and err.value.line is None

    @pytest.mark.parametrize("threshold", [0, 1, 0.5])
    def test_default_threshold_int_or_float(self, case_catalog, threshold):
        plan = compile_query("SELECT cod_carti FROM cartulina WHERE tono_cara FEQ $blanco",
                             case_catalog, threshold)
        assert plan.conditions[0].threshold == threshold

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
