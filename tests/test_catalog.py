"""Catalog registry, conversion-row protocol, and TSV persistence."""

import os

import pytest

from fuzzydb import (
    AttributeDescriptor,
    Catalog,
    CatalogError,
    ConversionError,
    ConversionRow,
    FuzzyType,
    FuzzyValue,
    LabelDefinition,
    Trapezoid,
    decode_row,
    encode_value,
    load_catalog,
    save_catalog,
)


class TestRegistry:
    def test_lookup_is_case_insensitive(self, small_catalog):
        attr = small_catalog.get("LOTS", "Width")
        assert attr.qualified == "lots.width"
        assert small_catalog.find("lots", "missing") is None
        with pytest.raises(CatalogError):
            small_catalog.get("lots", "missing")

    def test_duplicate_registration(self, small_catalog):
        with pytest.raises(CatalogError):
            small_catalog.register_attribute("lots", "WIDTH", 1)

    def test_bad_type_and_domain(self):
        cat = Catalog()
        with pytest.raises(CatalogError):
            cat.register_attribute("t", "c", 4)
        with pytest.raises(CatalogError):
            cat.register_attribute("t", "c", 1, "weird")
        with pytest.raises(CatalogError):
            cat.register_attribute("t", "c", 2, "scalar")  # ordered implies numeric
        with pytest.raises(CatalogError):
            cat.register_attribute("t", "c", 3, "numeric")  # registry wants scalar

    def test_names_must_be_identifiers(self):
        cat = Catalog()
        with pytest.raises(CatalogError):
            cat.register_attribute("has space", "c", 1)
        with pytest.raises(CatalogError):
            cat.register_attribute("t", "1col", 1)

    def test_schema_keeps_registration_order(self, small_catalog):
        names = [a.column for a in small_catalog.table_schema("lots")]
        assert names == ["code", "width", "finish"]
        assert small_catalog.tables() == ["lots", "notes"]
        with pytest.raises(CatalogError):
            small_catalog.table_schema("nowhere")


class TestLabels:
    def test_sequential_ids(self, small_catalog):
        labels = small_catalog.get("lots", "finish").labels
        assert [(ld.fuzzy_id, ld.name) for ld in labels] == [
            (1, "matte"), (2, "satin"), (3, "gloss"),
        ]

    def test_numeric_labels_need_corners(self, small_catalog):
        with pytest.raises(CatalogError):
            small_catalog.define_label("lots", "width", "huge")
        ld = small_catalog.define_label("lots", "width", "huge", (80, 90, 200, 200))
        assert ld.fuzzy_id == 3
        assert ld.trap == Trapezoid(80, 90, 200, 200)

    def test_scalar_labels_forbid_corners(self, small_catalog):
        with pytest.raises(CatalogError):
            small_catalog.define_label("lots", "finish", "rough", (0, 1, 2, 3))

    def test_plain_text_columns_take_no_labels(self, small_catalog):
        with pytest.raises(CatalogError):
            small_catalog.define_label("notes", "text", "anything")

    def test_duplicate_names_rejected_case_insensitively(self, small_catalog):
        with pytest.raises(CatalogError):
            small_catalog.define_label("lots", "finish", "MATTE")

    def test_trapezoid_for(self, small_catalog):
        attr = small_catalog.get("lots", "width")
        assert attr.trapezoid_for("NARROW") == Trapezoid(0, 0, 30, 40)
        with pytest.raises(CatalogError):
            attr.trapezoid_for("missing")
        with pytest.raises(CatalogError):
            small_catalog.get("lots", "finish").trapezoid_for("matte")

    def test_resolve_label(self, small_catalog):
        attr = small_catalog.get("lots", "finish")
        assert attr.find_label("GLOSS").name == "gloss"
        assert attr.find_label("missing") is None


class TestSimilarityUpkeep:
    def test_relation_tracks_new_labels(self, small_catalog):
        attr = small_catalog.get("lots", "finish")
        assert attr.similarity.get("satin", "gloss") == 0.7
        small_catalog.define_label("lots", "finish", "rough")
        rel = attr.similarity
        assert rel.domain == ("matte", "satin", "gloss", "rough")
        assert rel.get("satin", "gloss") == 0.7  # old degrees survive the growth
        assert rel.get("rough", "rough") == 1.0
        assert rel.get("rough", "matte") == 0.0
        small_catalog.set_similarity("lots", "finish", "rough", "matte", 0.5)
        assert rel.get("matte", "rough") == 0.5

    def test_set_similarity_needs_known_labels(self, small_catalog):
        with pytest.raises(CatalogError):
            small_catalog.set_similarity("lots", "finish", "matte", "missing", 0.5)
        with pytest.raises(CatalogError):
            small_catalog.set_similarity("lots", "width", "narrow", "wide", 0.5)

    def test_validate_covers_relations(self, small_catalog):
        reports = small_catalog.validate()
        assert len(reports) == 1
        attr, report = reports[0]
        assert attr.column == "finish"
        assert report.ok


def ordered_attr():
    attr = AttributeDescriptor("t", "size", 2, "numeric")
    attr.attach_label(LabelDefinition(1, "small", Trapezoid(0, 0, 10, 20)))
    return attr


def scalar_attr():
    return AttributeDescriptor("t", "tone", 3, "scalar")


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "value,ft,fields",
        [
            (FuzzyValue.unknown(), 0, (None, None, None, None)),
            (FuzzyValue.undefined(), 1, (None, None, None, None)),
            (FuzzyValue.null(), 2, (None, None, None, None)),
            (FuzzyValue.crisp(26), 3, (26.0, None, None, None)),
            (FuzzyValue.label("small"), 4, (1.0, None, None, None)),
            (FuzzyValue.interval(60, 70), 5, (60.0, None, None, 70.0)),
            (FuzzyValue.approx(70, 5), 6, (70.0, 65.0, 75.0, 5.0)),
            (FuzzyValue.trapezoid(25, 30, 40, 45), 7, (25.0, 5.0, -5.0, 45.0)),
        ],
    )
    def test_ordered_rows(self, value, ft, fields):
        attr = ordered_attr()
        row = encode_value(value, attr)
        assert (row.ft, row.fields) == (ft, fields)
        assert decode_row(row, attr) == value

    @pytest.mark.parametrize(
        "value,ft,fields",
        [
            (FuzzyValue.unknown(), 0, ()),
            (FuzzyValue.undefined(), 1, ()),
            (FuzzyValue.null(), 2, ()),
            (FuzzyValue.simple(1, "blanco"), 3, (1.0, "blanco")),
            (
                FuzzyValue.poss_dist([(0.4, "blanco"), (0.6, "cafe")]),
                4,
                (0.4, "blanco", 0.6, "cafe"),
            ),
        ],
    )
    def test_scalar_rows(self, value, ft, fields):
        attr = scalar_attr()
        row = encode_value(value, attr)
        assert (row.ft, row.fields) == (ft, fields)
        assert decode_row(row, attr) == value

    def test_numeric_distribution_elements(self):
        # the row protocol itself does not require named elements
        attr = AttributeDescriptor("t", "guess", 3, "scalar")
        value = FuzzyValue.poss_dist([(0.4, 27.0), (1.0, 28.0), (0.8, 29.0)])
        row = encode_value(value, attr)
        assert row == ConversionRow(4, (0.4, 27.0, 1.0, 28.0, 0.8, 29.0))
        assert decode_row(row, attr) == value

    def test_kind_layout_mismatches(self):
        with pytest.raises(ConversionError):
            encode_value(FuzzyValue.simple(1, "x"), ordered_attr())
        with pytest.raises(ConversionError):
            encode_value(FuzzyValue.interval(1, 2), scalar_attr())
        with pytest.raises(ConversionError):
            encode_value(FuzzyValue.crisp(1), AttributeDescriptor("t", "c", 1, "numeric"))

    def test_unregistered_label_fails(self):
        with pytest.raises(ConversionError):
            encode_value(FuzzyValue.label("nope"), ordered_attr())

    def test_decode_validates_shape(self):
        attr = ordered_attr()
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(3, (None, None, None, None)), attr)  # missing number
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(3, (1.0, 2.0, None, None)), attr)  # stray field
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(5, (60.0, None, None, None)), attr)  # missing bound
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(7, (1.0, 1.0, None, 4.0)), attr)  # missing width
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(3, (1.0,)), attr)  # wrong arity

    def test_decode_validates_label_ids(self):
        attr = ordered_attr()
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(4, (9.0, None, None, None)), attr)
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(4, (1.5, None, None, None)), attr)
        for raw in (float("inf"), float("nan")):
            with pytest.raises(ConversionError):
                decode_row(ConversionRow(4, (raw, None, None, None)), attr)

    def test_decode_validates_scalar_rows(self):
        attr = scalar_attr()
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(0, (1.0,)), attr)  # specials carry nothing
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(4, (0.5,)), attr)  # dangling degree
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(4, ()), attr)
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(3, (0.5, "a", 0.6, "b")), attr)  # too many pairs
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(5, (0.5, "a")), attr)  # ordered-only code
        with pytest.raises(ConversionError):
            decode_row(ConversionRow(7, (0.0, 1.0, -1.0, 2.0)), scalar_attr())

    def test_unknown_code_rejected(self):
        with pytest.raises(ConversionError):
            ConversionRow(8, ())

    def test_catalog_wrappers(self, small_catalog):
        width = small_catalog.get("lots", "width")
        row = encode_value(FuzzyValue.label("wide"), width)
        assert row.ft == 4 and row.fields[0] == 2.0
        assert decode_row(row, width) == FuzzyValue.label("wide")
        with pytest.raises(ConversionError):
            encode_value(FuzzyValue.crisp(1), small_catalog.get("lots", "code"))


class TestPersistence:
    def test_round_trip(self, small_catalog, tmp_path):
        save_catalog(small_catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert [a.qualified for a in loaded.attributes()] == [
            a.qualified for a in small_catalog.attributes()
        ]
        width = loaded.get("lots", "width")
        assert width.ftype is FuzzyType.FUZZY_ORDERED
        assert width.units == "cm"
        assert width.trapezoid_for("wide") == Trapezoid(30, 40, 80, 90)
        finish = loaded.get("lots", "finish")
        original = small_catalog.get("lots", "finish").similarity
        assert finish.similarity.domain == original.domain
        assert finish.similarity.matrix == original.matrix

    def test_save_is_deterministic(self, small_catalog, tmp_path):
        save_catalog(small_catalog, tmp_path / "one")
        save_catalog(small_catalog, tmp_path / "two")
        for name in ("attributes.tsv", "labels.tsv", "similarity.tsv"):
            first = (tmp_path / "one" / name).read_bytes()
            second = (tmp_path / "two" / name).read_bytes()
            assert first == second

    def test_missing_attributes_file(self, tmp_path):
        with pytest.raises(CatalogError):
            load_catalog(tmp_path)

    def test_header_is_a_version_marker(self, small_catalog, tmp_path):
        save_catalog(small_catalog, tmp_path)
        path = tmp_path / "attributes.tsv"
        body = path.read_text().splitlines()
        body[0] = "tbl\tcol\ttype\tdomain\tunits"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(tmp_path)
        assert "header" in str(err.value)

    def test_load_errors_carry_positions(self, small_catalog, tmp_path):
        save_catalog(small_catalog, tmp_path)
        path = tmp_path / "labels.tsv"
        with open(path, "a", encoding="utf-8") as f:
            f.write("lots\twidth\t9\tbroken\t0\t1\t\t3\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(tmp_path)
        assert "labels.tsv:" in str(err.value)
        assert "corners" in str(err.value)

    @pytest.mark.parametrize(
        "corners,fragment",
        [
            ("-inf\t20\t25\t30", "corners must be finite"),
            ("15\t20\t25\tnan", "corners must be finite"),
            ("20\t15\t25\t30", "trapezoid corners must be ordered"),
        ],
    )
    def test_bad_corners_carry_positions(self, case_copy, corners, fragment):
        path = case_copy / "labels.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[44] == "personas\tedad\t1\tjoven\t15\t20\t25\t30"
        lines[44] = "personas\tedad\t1\tjoven\t" + corners
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CatalogError) as err:
            load_catalog(case_copy)
        assert "labels.tsv:45: " in str(err.value)
        assert fragment in str(err.value)

    def test_byte_order_mark_and_bad_bytes(self, small_catalog, tmp_path):
        save_catalog(small_catalog, tmp_path)
        path = tmp_path / "attributes.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_catalog(tmp_path).get("lots", "width").units == "cm"
        path = tmp_path / "labels.tsv"
        path.write_bytes(path.read_bytes().replace(b"satin", b"sat\xffn"))
        with pytest.raises(CatalogError) as err:
            load_catalog(tmp_path)
        assert "labels.tsv:5: not valid UTF-8" in str(err.value)

    def test_conflicting_similarity_pairs(self, small_catalog, tmp_path):
        save_catalog(small_catalog, tmp_path)
        path = tmp_path / "similarity.tsv"
        with open(path, "a", encoding="utf-8") as f:
            f.write("lots\tfinish\tgloss\tsatin\t0.9\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(tmp_path)
        assert "already set" in str(err.value)

    def test_degenerate_files_tolerated(self, tmp_path):
        cat = Catalog()
        cat.register_attribute("only", "col", 1)
        save_catalog(cat, tmp_path)
        os.remove(tmp_path / "labels.tsv")
        os.remove(tmp_path / "similarity.tsv")
        loaded = load_catalog(tmp_path)
        assert loaded.get("only", "col").ftype is FuzzyType.PRECISE

    def test_scalar_column_without_pairs_gets_identity(self, tmp_path):
        cat = Catalog()
        cat.register_attribute("t", "tone", 3, "scalar")
        cat.define_label("t", "tone", "a")
        cat.define_label("t", "tone", "b")
        save_catalog(cat, tmp_path)
        loaded = load_catalog(tmp_path)
        rel = loaded.get("t", "tone").similarity
        assert rel is not None
        assert rel.get("a", "b") == 0.0
