"""Catalog registry, conversion-row protocol, and TSV persistence."""

import copy
import csv
import itertools
import os
import pickle
import re
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fuzzydb import (
    AttributeDescriptor,
    Catalog,
    CatalogError,
    ConversionError,
    ConversionRow,
    FuzzyDbError,
    FuzzyType,
    FuzzyValue,
    LabelDefinition,
    SimilarityError,
    Table,
    Trapezoid,
    decode_row,
    encode_value,
    feq,
    load_catalog,
    run_query,
    save_catalog,
    validate_similarity,
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

    def test_schema_is_a_copy(self, small_catalog):
        small_catalog.table_schema("lots").clear()
        small_catalog.table_schema("notes").append(small_catalog.get("lots", "code"))
        assert [a.column for a in small_catalog.table_schema("LOTS")] == ["code", "width", "finish"]
        assert [a.column for a in small_catalog.table_schema("notes")] == ["id", "text"]
        assert len(small_catalog.attributes()) == 5


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

    @pytest.mark.parametrize("fuzzy_id,shown", [(2.0, "2.0"), (True, "True"), (2.5, "2.5"), ("3", "'3'")])
    def test_ids_must_be_ints(self, small_catalog, fuzzy_id, shown):
        with pytest.raises(CatalogError) as err:
            small_catalog.define_label("lots", "finish", "rough", fuzzy_id=fuzzy_id)
        assert str(err.value) == f"label id must be an integer, got {shown}"
        assert small_catalog.get("lots", "finish").find_label("rough") is None

    @pytest.mark.parametrize("corners", [["a", 1, 2, 3], [1, 2, 3], [1, 2, 3, 4, 5], 5,
                                         [None, 1, 2, 3], [10 ** 400, 1, 2, 3], "1234", b"1234"])
    def test_corners_must_be_four_numbers(self, small_catalog, corners):
        with pytest.raises(CatalogError) as err:
            small_catalog.define_label("lots", "width", "huge", corners)
        assert str(err.value) == f"label 'huge' on lots.width: corners must be four numbers, got {corners!r}"
        assert small_catalog.get("lots", "width").find_label("huge") is None

    def test_ids_start_at_1(self, small_catalog):
        with pytest.raises(CatalogError) as err:
            small_catalog.define_label("lots", "finish", "rough", fuzzy_id=0)
        assert str(err.value) == "label ids start at 1, got 0"

    def test_accepted_ids_load_back(self, small_catalog, tmp_path):
        small_catalog.define_label("lots", "finish", "rough", fuzzy_id=7)
        small_catalog.define_label("lots", "width", "huge", (80, 90, 200, 200), fuzzy_id=12)
        save_catalog(small_catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        for column in ("finish", "width"):
            assert [(ld.fuzzy_id, ld.name) for ld in loaded.get("lots", column).labels] == [
                (ld.fuzzy_id, ld.name) for ld in small_catalog.get("lots", column).labels]

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

    def test_lookups_follow_the_label_list(self):
        # labels given to the constructor are indexed, and attach_label keeps the index current
        narrow = LabelDefinition(3, "Narrow", Trapezoid(0, 0, 30, 40))
        attr = AttributeDescriptor("lots", "width", 2, "numeric", labels=[narrow])
        assert attr.find_label("NARROW") is narrow and attr.label_by_id(3) is narrow
        wide = LabelDefinition(4, "wide", Trapezoid(30, 40, 80, 90))
        attr.attach_label(wide)
        assert attr.find_label("Wide") is wide and attr.label_by_id(4) is wide
        assert attr.label_by_id(1) is None
        with pytest.raises(CatalogError):
            attr.attach_label(LabelDefinition(5, "WIDE", Trapezoid(0, 1, 2, 3)))
        with pytest.raises(CatalogError):
            attr.attach_label(LabelDefinition(4, "other", Trapezoid(0, 1, 2, 3)))
        assert attr.find_label("other") is None and attr.label_by_id(5) is None


# Catalog edits, some of them refused: a column, a label, a similarity degree.
_TARGETS = (st.sampled_from(["t", "T"]), st.sampled_from(["hue", "width"]))
_NAMES = st.sampled_from(["a", "B", "c", "d"])
_SET = st.tuples(st.just("set_similarity"), st.sampled_from(["t", "T"]), st.sampled_from(["hue", "HUE", "width"]),
                 _NAMES, _NAMES, st.one_of(st.floats(0.01, 1), st.sampled_from([0.0, 1.5, -1e-9, float("nan")])))
_EDITS = st.one_of(
    st.tuples(st.just("register_attribute"), st.sampled_from(["t", "u"]), st.sampled_from(["hue", "tone"]),
              st.sampled_from([1, 2, 3, 4]), st.sampled_from(["scalar", "numeric"])),
    st.tuples(st.just("define_label"), *_TARGETS, st.sampled_from(["d", "e", "not a name"]),
              st.one_of(st.none(), st.lists(st.floats(-10, 10), min_size=4, max_size=4))),
    _SET, _SET,
)
# Each run starts from these, so that set_similarity edits can land (about 3 runs in 10 set a degree).
_START = [("register_attribute", "t", "hue", 3, "scalar"), ("register_attribute", "t", "width", 2),
          ("define_label", "t", "hue", "a"), ("define_label", "t", "hue", "b"),
          ("define_label", "t", "hue", "c")]


class TestSimilarityUpkeep:
    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(_EDITS, min_size=5, max_size=30))
    def test_edits_keep_every_relation_valid(self, edits):
        # identity, add and set_at are the only writers of a catalog's relations,
        # and each keeps a relation reflexive, symmetric and in [0, 1]
        catalog = Catalog()
        for method, *args in _START + edits:
            try:
                getattr(catalog, method)(*args)
            except FuzzyDbError:
                pass
        with tempfile.TemporaryDirectory() as directory:
            save_catalog(catalog, directory)
            loaded = load_catalog(directory)
        relations = [[(a.qualified, a.similarity) for a in c.attributes() if a.similarity is not None]
                     for c in (catalog, loaded)]
        assert relations[0] == relations[1]
        for qualified, rel in relations[0] + relations[1]:
            assert validate_similarity(rel).ok, qualified

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

    def test_api_built_scalar_column_answers_feq_before_any_save(self, tmp_path):
        cat = Catalog()
        cat.register_attribute("t", "tone", 3, "scalar")
        cat.define_label("t", "tone", "a")
        cat.define_label("t", "tone", "b")
        cells = [[FuzzyValue.label("a")], [FuzzyValue.label("B")], [FuzzyValue.simple(0.4, "a")]]
        statement = "SELECT tone, CDEG(tone) FROM t WHERE tone FEQ $a THOLD 0"
        built = run_query(statement, cat, tables={"t": Table("t", cat.table_schema("t"), cells)})
        assert [row[1] for row in built.rows] == [1.0, 0.0, 0.4]
        assert Catalog().register_attribute("t", "hue", 3, "scalar").similarity.domain == ()
        save_catalog(cat, tmp_path)
        loaded = load_catalog(tmp_path)
        again = run_query(statement, loaded, tables={"t": Table("t", loaded.table_schema("t"), cells)})
        assert again.rows == built.rows

    def test_directly_built_descriptor_has_no_relation(self):
        attr = AttributeDescriptor("t", "tone", 3, "scalar")
        attr.attach_label(LabelDefinition(1, "a"))
        assert attr.similarity is None
        with pytest.raises(SimilarityError, match="attribute t.tone has no similarity relation"):
            feq(FuzzyValue.label("a"), FuzzyValue.label("a"), attr)

    def test_set_similarity_needs_known_labels(self, small_catalog):
        with pytest.raises(CatalogError):
            small_catalog.set_similarity("lots", "finish", "matte", "missing", 0.5)
        with pytest.raises(CatalogError):
            small_catalog.set_similarity("lots", "width", "narrow", "wide", 0.5)


def ordered_attr():
    attr = AttributeDescriptor("t", "size", 2, "numeric")
    attr.attach_label(LabelDefinition(1, "small", Trapezoid(0, 0, 10, 20)))
    return attr


def scalar_attr():
    attr = AttributeDescriptor("t", "tone", 3, "scalar")
    for fuzzy_id, name in enumerate(("blanco", "cafe"), start=1):
        attr.attach_label(LabelDefinition(fuzzy_id, name))
    return attr


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

    def test_scalar_elements_are_the_columns_labels(self):
        attr = scalar_attr()
        # the codec states the fault, and decode_row and encode_value name the column once
        with pytest.raises(ConversionError) as err:
            decode_row(ConversionRow(3, (1.0, "27")), attr)
        assert str(err.value) == "t.tone: element '27' is not in the domain"
        with pytest.raises(ConversionError) as err:
            encode_value(FuzzyValue.simple(1, "rosa"), attr)
        assert str(err.value) == "t.tone: element 'rosa' is not in the domain"
        # matched as labels are, and kept as written
        value = FuzzyValue.poss_dist([(0.4, "BLANCO"), (1.0, "Cafe")])
        row = encode_value(value, attr)
        assert row == ConversionRow(4, (0.4, "BLANCO", 1.0, "Cafe"))
        assert decode_row(row, attr) == value

    def test_plain_columns_store_no_rows(self):
        attr = AttributeDescriptor("t", "c", 1, "numeric")
        message = "^column t.c stores plain values, not conversion rows$"
        with pytest.raises(ConversionError, match=message):
            encode_value(3.0, attr)
        with pytest.raises(ConversionError, match=message):
            decode_row(ConversionRow(3, (3.0, None, None, None)), attr)

    def test_kind_layout_mismatches(self):
        with pytest.raises(ConversionError):
            encode_value(FuzzyValue.simple(1, "x"), ordered_attr())
        with pytest.raises(ConversionError):
            encode_value(FuzzyValue.interval(1, 2), scalar_attr())
        with pytest.raises(ConversionError):
            encode_value(FuzzyValue.crisp(1), AttributeDescriptor("t", "c", 1, "numeric"))

    def test_refuses_what_the_cell_encoder_refuses(self):
        # elements a cell would read back as a number or as two fields
        for element in ("5", "a;b"):
            with pytest.raises(ConversionError, match=f"^t.tone: element '{element}' is not in the domain$"):
                encode_value(FuzzyValue.simple(1, element), scalar_attr())
        for attr in (ordered_attr(), scalar_attr()):
            with pytest.raises(ConversionError, match=f"^{attr.qualified}: expected a fuzzy value, got 26.0$"):
                encode_value(26.0, attr)

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

    def test_decode_cross_checks_approx_ends(self):
        attr = ordered_attr()
        value = FuzzyValue.approx(450, 20)
        for ends in ((430.0, 470.0), (None, None), (430.0, None), (None, 470.0)):
            assert decode_row(ConversionRow(6, (450.0, *ends, 20.0)), attr) == value
        for ends in ((0.0, 0.0), (430.0, 471.0), (431.0, None)):
            with pytest.raises(ConversionError, match="code 6 field"):
                decode_row(ConversionRow(6, (450.0, *ends, 20.0)), attr)

    def test_decode_reads_fields_as_cell_text(self):
        # text fields that spell a number, or name a label at code 4, decode as a cell would
        attr = ordered_attr()
        assert decode_row(ConversionRow(3, (" 26 ", None, None, None)), attr) == FuzzyValue.crisp(26)
        assert decode_row(ConversionRow(4, ("SMALL", None, None, None)), attr) == FuzzyValue.label("small")
        assert decode_row(ConversionRow(3, (1.0, " Cafe ")), scalar_attr()) == FuzzyValue.simple(1, "Cafe")
        for element in ("a b", float("inf")):
            with pytest.raises(ConversionError):
                decode_row(ConversionRow(3, (1.0, element)), scalar_attr())
        with pytest.raises(ConversionError, match="holds ';'"):  # three fields, not two pairs
            decode_row(ConversionRow(4, (0.5, "a;0.6", "b")), scalar_attr())

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


def catalog_files(catalog, directory) -> dict:
    """The text of each file save_catalog writes for catalog into directory."""
    save_catalog(catalog, directory)
    return {name: (directory / name).read_text() for name in sorted(os.listdir(directory))}


# Each kind of catalog edit, with the edits that later-read files' rows need
# made in the same save: a label on a new column, a degree of a new label.
TORN_EDITS = {
    "new attribute": lambda cat: cat.register_attribute("lots", "depth", 2, "numeric"),
    "new attribute and its label": lambda cat: (
        cat.register_attribute("lots", "depth", 2, "numeric"),
        cat.define_label("lots", "depth", "deep", (10, 20, 30, 40))),
    "new scalar attribute, labels and a degree": lambda cat: (
        cat.register_attribute("lots", "grain", 3, "scalar"),
        cat.define_label("lots", "grain", "fine"), cat.define_label("lots", "grain", "coarse"),
        cat.set_similarity("lots", "grain", "fine", "coarse", 0.3)),
    "ordered label": lambda cat: cat.define_label("lots", "width", "huge", (80, 90, 200, 300)),
    "scalar label": lambda cat: cat.define_label("lots", "finish", "rough"),
    "scalar label and its degree": lambda cat: (
        cat.define_label("lots", "finish", "rough"),
        cat.set_similarity("lots", "finish", "rough", "gloss", 0.8)),
    "new degree": lambda cat: cat.set_similarity("lots", "finish", "matte", "gloss", 0.4),
    "changed degree": lambda cat: cat.set_similarity("lots", "finish", "satin", "gloss", 0.9),
    "dropped degree": lambda cat: cat.set_similarity("lots", "finish", "satin", "gloss", 0),
}


class TestPersistence:
    def test_pickle_and_deepcopy(self, case_catalog):
        # the values inside (label trapezoids) are slotted; lookups must survive the copy
        for again in (pickle.loads(pickle.dumps(case_catalog)), copy.deepcopy(case_catalog)):
            assert again.attributes() == case_catalog.attributes()
            width = again.get("pilas", "formato_largo")
            assert width.trapezoid_for("MUY_LARGA") == Trapezoid(130, 140, 250, 250)
            tone = again.get("cartulina", "tono_cara")
            assert tone.similarity.get("blanco", "BLANCO") == 1.0

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

    def test_failed_save_keeps_the_old_files(self, small_catalog, tmp_path, monkeypatch):
        save_catalog(small_catalog, tmp_path)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        small_catalog.define_label("lots", "width", "huge", (80, 90, 200, 300))
        real_writer = csv.writer

        def failing_writer(f, **kwargs):
            writer = real_writer(f, **kwargs)
            if os.path.basename(f.name) == "labels.tsv.tmp":
                writer = mock.Mock(writerow=mock.Mock(side_effect=OSError("disk full")))
            return writer

        monkeypatch.setattr(csv, "writer", failing_writer)
        with pytest.raises(OSError, match="disk full"):
            save_catalog(small_catalog, tmp_path)
        after = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        assert after == before

    @pytest.mark.parametrize("edit", TORN_EDITS)
    @pytest.mark.parametrize("crash", [(how, k) for how in ("replace", "write") for k in (1, 2, 3)],
                             ids="{0[0]}{0[1]}".format)
    def test_torn_save_loads_old_new_or_refused(self, small_catalog, tmp_path, monkeypatch, edit, crash):
        # the save after the edit fails at the k-th os.replace, or at the k-th file's rows
        old = catalog_files(small_catalog, tmp_path / "catalog")
        TORN_EDITS[edit](small_catalog)
        new = catalog_files(small_catalog, tmp_path / "new")
        how, k = crash
        calls = itertools.count(1)
        if how == "replace":
            real_replace = os.replace

            def replace(src, dst):
                if next(calls) == k:
                    raise OSError("crash")
                real_replace(src, dst)

            monkeypatch.setattr(os, "replace", replace)
        else:
            real_writer = csv.writer

            def writer(f, **kwargs):
                w = real_writer(f, **kwargs)
                if next(calls) == k:  # the header is written, then the rows fail
                    w = mock.Mock(writerow=w.writerow, writerows=mock.Mock(side_effect=OSError("crash")))
                return w

            monkeypatch.setattr(csv, "writer", writer)
        with pytest.raises(OSError, match="crash"):
            save_catalog(small_catalog, tmp_path / "catalog")
        monkeypatch.undo()
        try:
            loaded = load_catalog(tmp_path / "catalog")
        except CatalogError as exc:
            assert re.match(r".+\.tsv:\d+: ", str(exc)), str(exc)
        else:
            assert catalog_files(loaded, tmp_path / "loaded") in (old, new)

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

    @pytest.mark.parametrize(
        "name,line,message",
        [
            ("attributes.tsv", "lots\tdepth\tx\tnumeric\t", "fuzzy type must be an integer, got 'x'"),
            ("attributes.tsv", "lots\tcode\t1\tnumeric\t", "attribute lots.code is already registered"),
            ("labels.tsv", "lots\twidth\tx\thuge\t1\t2\t3\t4", "label id must be an integer, got 'x'"),
            ("labels.tsv", "lots\twidth\t9\thuge\t1\t2\tabc\t4", "expected a number, got 'abc'"),
            ("labels.tsv", "lots\twidth\t9\thuge\t0\t1\t\t3", "give all four corners or none"),
            ("labels.tsv", "lots\tfinish\t9\tmatte\t\t\t\t",
             "label 'matte' is already defined for lots.finish"),
            ("similarity.tsv", "lots\tfinish\tgloss\tsatin\t0.9", "pair (gloss, satin) already set to 0.7"),
            ("similarity.tsv", "lots\tfinish\tmatte\tgloss\tnan",
             "similarity degree must be in [0, 1], got nan"),
            ("similarity.tsv", "lots\tfinish\tmatte\tgloss\tx", "expected a number, got 'x'"),
            ("similarity.tsv", "lots\tfinish\tmatte\tmatte\t0.5",
             "s(matte, matte) is pinned at 1 and cannot be 0.5"),
            ("similarity.tsv", "lots\tfinish\tmatte\trough\t0.5",
             "label 'rough' is not defined for lots.finish"),
            ("similarity.tsv", "lots\twidth\tnarrow\twide\t0.5", "lots.width is not an unordered fuzzy column"),
            ("similarity.tsv", "lots\tfinish\tmatte\tgloss\t0.5\textra", "too many fields"),
        ],
    )
    def test_load_errors_name_path_line_and_cause(self, small_catalog, tmp_path, name, line, message):
        # the small catalog saves 5 attributes, 5 labels and 2 pairs; the appended line comes next
        save_catalog(small_catalog, tmp_path)
        path = tmp_path / name
        with open(path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        lineno = len(path.read_text(encoding="utf-8").splitlines())
        with pytest.raises(CatalogError) as err:
            load_catalog(tmp_path)
        assert str(err.value) == f"{path}:{lineno}: {message}"

    def test_multi_line_row_is_named_by_its_first_line(self, tmp_path):
        cat = Catalog()
        cat.register_attribute("t", "tone", 3, "scalar")
        save_catalog(cat, tmp_path)
        path = tmp_path / "labels.tsv"
        with open(path, "a", encoding="utf-8") as f:
            f.write('t\ttone\t1\t"a\nb"\t\t\t\t\n')
        with pytest.raises(CatalogError) as err:
            load_catalog(tmp_path)
        assert str(err.value) == f"{path}:2: label name must be an identifier, got 'a\\nb'"

    @pytest.mark.parametrize("name", ["attributes.tsv", "labels.tsv", "similarity.tsv"])
    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("\n\t\n", 1),
        ("tbl\tcol\n", 1),
        ("\n\t\t\n\ntbl\tcol\n", 4),
    ], ids=["empty", "blank", "wrong", "wrong_after_blank_lines"])
    def test_header_error_names_the_line_of_the_first_row(self, small_catalog, tmp_path, name,
                                                          text, line):
        save_catalog(small_catalog, tmp_path)
        path = tmp_path / name
        header = path.read_text(encoding="utf-8").splitlines()[0].split("\t")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CatalogError) as err:
            load_catalog(tmp_path)
        assert str(err.value) == f"{path}:{line}: expected header {header}"

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

    @pytest.mark.parametrize("end", [b"\r", b"\r\n"])
    def test_bad_bytes_named_by_line_with_any_line_end(self, small_catalog, tmp_path, end):
        save_catalog(small_catalog, tmp_path)
        path = tmp_path / "labels.tsv"
        text = path.read_bytes()
        path.write_bytes(text.replace(b"\n", end))
        assert load_catalog(tmp_path).get("lots", "finish").find_label("satin") is not None
        path.write_bytes(text.replace(b"satin", b"sat\xffn").replace(b"\n", end))
        with pytest.raises(CatalogError) as err:
            load_catalog(tmp_path)
        assert str(err.value) == f"{path}:5: not valid UTF-8"

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
