"""Fuzzy value model: membership, possibility of equality, similarity."""

import copy
import math
import pickle
import re
import types

import pytest
from hypothesis import given, settings, strategies as st

from fuzzydb import (
    AttributeDescriptor,
    FuzzyDbError,
    FuzzyValue,
    FuzzyValueError,
    LabelDefinition,
    SimilarityError,
    SimilarityRelation,
    Trapezoid,
    ValueKind,
    check_degree,
    feq,
    format_number,
    possibility_eq,
    similarity_eq,
    to_trapezoid,
    validate_similarity,
)
from fuzzydb.core import number_corners, possibility_eq_corners, value_corners

from feq_oracle import oracle_feq, oracle_similarity_eq

# lattice of exactly representable floats keeps identities exact under +/-
lattice = st.integers(-40, 80).map(lambda k: k / 2)

trapezoids = st.tuples(lattice, lattice, lattice, lattice).map(
    lambda t: Trapezoid(*sorted(t))
)


class TestDegree:
    def test_accepts_bounds(self):
        assert check_degree(0.0) == 0.0
        assert check_degree(1.0) == 1.0
        assert check_degree(0.25) == 0.25

    @pytest.mark.parametrize("bad", [-0.001, 1.001, 2, -5])
    def test_rejects_outside(self, bad):
        with pytest.raises(FuzzyValueError):
            check_degree(bad)


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value,text",
        [(444.0, "444"), (0.5, "0.5"), (-5.0, "-5"), (0.9, "0.9"), (26.0, "26"), (0.0, "0"),
         (-0.0, "-0.0")],
    )
    def test_trims_integral(self, value, text):
        assert format_number(value) == text

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_are_value_errors(self, x):
        with pytest.raises(FuzzyValueError, match=f"^expected a finite number, got {x!r}$"):
            format_number(x)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_round_trips(self, x):
        back = float(format_number(x))
        assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)


class TestSlottedValues:
    """Values are frozen and slotted; they must still pickle, copy, compare and hash."""

    VALUES = [
        FuzzyValue.unknown(), FuzzyValue.null(), FuzzyValue.crisp(-0.0), FuzzyValue.label("alto"),
        FuzzyValue.interval(1, 2), FuzzyValue.approx(3, 0.5), FuzzyValue.trapezoid(1, 2, 3, 4),
        FuzzyValue.simple(0.5, "rojo"), FuzzyValue.poss_dist([(0.4, "rosa"), (1, "blanco")]),
    ]

    @pytest.mark.parametrize("value", VALUES + [Trapezoid(-1, 0, 0, 2)])
    def test_pickle_copy_equality_and_hash(self, value):
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(again) is type(value)
            assert again == value and hash(again) == hash(value)
            assert repr(again) == repr(value)  # every field, sign of zero included

    def test_kinds_hash_by_identity(self):
        # dict keys and set members, as the renderers and load_table use them
        assert ValueKind.__hash__ is object.__hash__
        text = {kind: kind.value for kind in ValueKind}
        shared = frozenset({ValueKind.CRISP, ValueKind.LABEL})
        for value in self.VALUES:
            again = pickle.loads(pickle.dumps(value))
            assert again.kind is value.kind and ValueKind(value.kind.value) is value.kind
            assert text[again.kind] == value.kind.value
            assert (again.kind in shared) == (value.kind.name in ("CRISP", "LABEL"))
            assert hash(again) == hash(value) and {again: 1}[value] == 1
        assert len(set(ValueKind) | set(map(pickle.loads, map(pickle.dumps, ValueKind)))) == 10

    @pytest.mark.parametrize("value", [FuzzyValue.crisp(1), Trapezoid(1, 2, 3, 4)])
    def test_no_attributes_beyond_the_fields(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(value, "extra", 1)


class TestTrapezoid:
    def test_rejects_disorder(self):
        with pytest.raises(FuzzyValueError):
            Trapezoid(10, 5, 20, 30)
        with pytest.raises(FuzzyValueError):
            Trapezoid(10, 20, 15, 30)
        with pytest.raises(FuzzyValueError):
            Trapezoid(10, 20, 30, 25)

    def test_membership_piecewise(self):
        t = Trapezoid(15, 20, 25, 30)
        assert t.membership(14) == 0
        assert t.membership(15) == 0
        assert t.membership(17.5) == 0.5
        assert t.membership(20) == 1
        assert t.membership(23) == 1
        assert t.membership(25) == 1
        assert t.membership(26) == 0.8
        assert t.membership(30) == 0
        assert t.membership(31) == 0

    def test_membership_step_edges(self):
        t = Trapezoid(10, 10, 20, 30)
        assert t.membership(10) == 1  # collapsed edge is a step
        assert t.membership(9.999) == 0
        point = Trapezoid(5, 5, 5, 5)
        assert point.membership(5) == 1
        assert point.membership(5.001) == 0

    @given(trapezoids, lattice)
    def test_membership_in_unit_range(self, t, x):
        assert 0.0 <= t.membership(x) <= 1.0

    @given(trapezoids, lattice, lattice)
    def test_membership_monotone_flanks(self, t, x1, x2):
        x1, x2 = min(x1, x2), max(x1, x2)
        if x2 <= t.b:
            assert t.membership(x1) <= t.membership(x2)
        if x1 >= t.c:
            assert t.membership(x1) >= t.membership(x2)


class TestFuzzyValueValidation:
    def test_interval_requires_order(self):
        with pytest.raises(FuzzyValueError):
            FuzzyValue.interval(5, 5)
        with pytest.raises(FuzzyValueError):
            FuzzyValue.interval(6, 5)

    def test_approx_requires_positive_margin(self):
        with pytest.raises(FuzzyValueError):
            FuzzyValue.approx(10, 0)
        with pytest.raises(FuzzyValueError):
            FuzzyValue.approx(10, -1)

    def test_simple_is_single_pair(self):
        v = FuzzyValue.simple(0.5, "matte")
        assert v.pairs == ((0.5, "matte"),)
        with pytest.raises(FuzzyValueError):
            FuzzyValue(ValueKind.SIMPLE, pairs=((0.5, "a"), (0.6, "b")))

    def test_distribution_needs_pairs(self):
        with pytest.raises(FuzzyValueError):
            FuzzyValue.poss_dist([])

    def test_distribution_rejects_zero_degree(self):
        with pytest.raises(FuzzyValueError):
            FuzzyValue.poss_dist([(0.0, "matte")])
        with pytest.raises(FuzzyValueError):
            FuzzyValue.simple(0, "matte")

    def test_distribution_rejects_excess_degree(self):
        with pytest.raises(FuzzyValueError):
            FuzzyValue.poss_dist([(1.2, "matte")])

    def test_distribution_rejects_duplicates(self):
        with pytest.raises(FuzzyValueError):
            FuzzyValue.poss_dist([(0.5, "matte"), (0.6, "MATTE")])
        with pytest.raises(FuzzyValueError):
            FuzzyValue.poss_dist([(0.5, "matte"), (0.6, "matte")])

    def test_distribution_rejects_mixed_elements(self):
        with pytest.raises(FuzzyValueError):
            FuzzyValue.poss_dist([(0.5, "matte"), (0.6, 2.0)])

    def test_label_requires_name(self):
        with pytest.raises(FuzzyValueError):
            FuzzyValue(ValueKind.LABEL)

    @pytest.mark.parametrize("name", [5, "", None, b"alto", 1.5])
    def test_label_name_is_non_empty_text(self, name):
        # refused when built, not later by feq, format_cell or render_value
        with pytest.raises(FuzzyValueError, match="label value requires a name, got "):
            FuzzyValue.label(name)

    @pytest.mark.parametrize("build", [
        lambda: FuzzyValue.simple(0.5, 3),
        lambda: FuzzyValue.poss_dist([(1, 3), (0.5, 4)]),
        lambda: FuzzyValue.poss_dist([(1, "rojo"), (0.5, None)]),
    ])
    def test_distribution_elements_are_names(self, build):
        with pytest.raises(FuzzyValueError, match="distribution element must be a name, got "):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FuzzyValue.crisp(float("inf")),
            lambda: FuzzyValue.crisp(float("nan")),
            lambda: FuzzyValue.interval(float("-inf"), 1),
            lambda: FuzzyValue.interval(0, float("inf")),
            lambda: FuzzyValue.approx(float("nan"), 1),
            lambda: FuzzyValue.approx(0, float("inf")),
            lambda: FuzzyValue.approx(1e308, 1e308),  # the upper end overflows
            lambda: FuzzyValue.trapezoid(0, 1, 2, float("inf")),
            lambda: FuzzyValue.trapezoid(float("nan"), 1, 2, 3),
            lambda: Trapezoid(float("-inf"), 0, 0, 0),
            lambda: FuzzyValue.simple(float("nan"), "matte"),
            lambda: FuzzyValue.poss_dist([(0.5, float("inf"))]),
            lambda: FuzzyValue.poss_dist([(0.5, 1.0), (0.6, float("nan"))]),
        ],
    )
    def test_non_finite_numbers_rejected(self, build):
        # rejected when the value is built, not later when it is rendered or compared
        with pytest.raises(FuzzyValueError):
            build()


class TestToTrapezoid:
    def test_crisp_becomes_point(self):
        assert to_trapezoid(FuzzyValue.crisp(26)) == Trapezoid(26, 26, 26, 26)

    def test_interval_becomes_band(self):
        assert to_trapezoid(FuzzyValue.interval(60, 70)) == Trapezoid(60, 60, 70, 70)

    def test_approx_becomes_triangle(self):
        assert to_trapezoid(FuzzyValue.approx(70, 5)) == Trapezoid(65, 70, 70, 75)

    def test_trapezoid_passes_through(self):
        t = Trapezoid(15, 20, 25, 30)
        assert to_trapezoid(FuzzyValue.trapezoid(t)) is t

    def test_label_uses_resolver(self):
        t = Trapezoid(15, 20, 25, 30)
        assert to_trapezoid(FuzzyValue.label("young"), lambda name: t) is t
        with pytest.raises(FuzzyValueError):
            to_trapezoid(FuzzyValue.label("young"))

    def test_rejects_unordered_kinds(self):
        for v in (FuzzyValue.unknown(), FuzzyValue.simple(1, "matte")):
            with pytest.raises(FuzzyValueError):
                to_trapezoid(v)


class TestPossibilityEq:
    def test_known_pair(self):
        assert possibility_eq(Trapezoid(15, 20, 25, 30), Trapezoid(25, 30, 40, 45)) == 0.5

    def test_identical_is_one(self):
        t = Trapezoid(1, 2, 3, 4)
        assert possibility_eq(t, t) == 1.0

    def test_core_overlap_is_one(self):
        assert possibility_eq(Trapezoid(0, 10, 20, 30), Trapezoid(15, 18, 40, 50)) == 1.0

    def test_disjoint_supports_are_zero(self):
        assert possibility_eq(Trapezoid(0, 1, 2, 3), Trapezoid(4, 5, 6, 7)) == 0.0

    def test_touching_supports_are_zero(self):
        assert possibility_eq(Trapezoid(0, 1, 2, 3), Trapezoid(3, 4, 5, 6)) == 0.0

    def test_step_edge_pair(self):
        # falling step meets a rising edge at the step boundary
        assert possibility_eq(Trapezoid(0, 0, 10, 10), Trapezoid(5, 15, 20, 20)) == 0.5

    @given(trapezoids, trapezoids)
    def test_symmetric_and_bounded(self, t1, t2):
        p = possibility_eq(t1, t2)
        assert 0.0 <= p <= 1.0
        assert p == possibility_eq(t2, t1)

    @given(trapezoids, lattice)
    def test_point_comparison_equals_membership(self, t, x):
        point = Trapezoid(x, x, x, x)
        assert possibility_eq(point, t) == t.membership(x)

    @given(trapezoids)
    def test_self_is_one(self, t):
        assert possibility_eq(t, t) == 1.0


def oracle_possibility_eq(t1, t2):
    """The closed form as it was stated on Trapezoid objects, before the corner form."""
    if max(t1.b, t2.b) <= min(t1.c, t2.c):
        return 1.0
    left, right = (t1, t2) if t1.b <= t2.b else (t2, t1)
    if right.a >= left.d:
        return 0.0
    denom = (right.b - right.a) + (left.d - left.c)
    if denom <= 0.0:
        return 1.0
    return min(1.0, max(0.0, (left.d - right.a) / denom))


# corners on a coarse grid, so that edges collapse and cores touch, plus extremes
GRID_CORNERS = st.one_of(
    lattice, st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300]),
    st.floats(-1e300, 1e300, allow_nan=False),
)
grid_trapezoids = st.tuples(GRID_CORNERS, GRID_CORNERS, GRID_CORNERS, GRID_CORNERS).map(
    lambda t: Trapezoid(*sorted(t))
)


class TestCorners:
    @given(grid_trapezoids, grid_trapezoids)
    def test_corner_form_is_the_trapezoid_form_bit_for_bit(self, t1, t2):
        expected = repr(oracle_possibility_eq(t1, t2))
        assert repr(possibility_eq_corners(t1.corners(), t2.corners())) == expected
        assert repr(possibility_eq(t1, t2)) == expected

    @given(st.one_of(
        st.tuples(GRID_CORNERS).map(lambda t: FuzzyValue.crisp(*t)),
        st.tuples(GRID_CORNERS, GRID_CORNERS).filter(lambda t: t[0] < t[1])
        .map(lambda t: FuzzyValue.interval(*t)),
        st.tuples(lattice, st.floats(0.25, 10)).map(lambda t: FuzzyValue.approx(*t)),
        grid_trapezoids.map(FuzzyValue.trapezoid),
    ))
    def test_value_corners_are_the_trapezoid_corners(self, value):
        assert value_corners(value) == to_trapezoid(value).corners()
        assert repr(value_corners(value)) == repr(to_trapezoid(value).corners())

    def test_value_corners_by_kind(self):
        t = Trapezoid(15, 20, 25, 30)
        assert value_corners(FuzzyValue.crisp(26)) == (26, 26, 26, 26)
        assert value_corners(FuzzyValue.interval(60, 70)) == (60, 60, 70, 70)
        assert value_corners(FuzzyValue.approx(70, 5)) == (65, 70, 70, 75)
        assert value_corners(FuzzyValue.trapezoid(t)) == (15, 20, 25, 30)
        assert value_corners(FuzzyValue.label("young"), lambda name: t) == (15, 20, 25, 30)
        with pytest.raises(FuzzyValueError, match="no label resolver"):
            value_corners(FuzzyValue.label("young"))
        for v in (FuzzyValue.unknown(), FuzzyValue.simple(1, "matte")):
            with pytest.raises(FuzzyValueError, match="cannot be reduced to a trapezoid"):
                value_corners(v)

    @pytest.mark.parametrize("x", [0, -0.0, 5e-324, 1e300, True, 7])
    def test_number_corners_are_the_crisp_point(self, x):
        assert repr(number_corners(x)) == repr(value_corners(FuzzyValue.crisp(x)))

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_number_corners_refuse_what_crisp_refuses(self, x):
        with pytest.raises(FuzzyValueError) as crisp_error:
            FuzzyValue.crisp(x)
        with pytest.raises(FuzzyValueError, match=f"^{re.escape(str(crisp_error.value))}$"):
            number_corners(x)


class TestSimilarityRelation:
    def test_identity(self):
        rel = SimilarityRelation.identity(["a", "b"])
        assert rel.get("a", "a") == 1.0
        assert rel.get("a", "b") == 0.0

    def test_set_degree_is_symmetric(self):
        rel = SimilarityRelation.identity(["a", "b", "c"])
        rel.set_degree("a", "C", 0.4)
        assert rel.get("c", "a") == 0.4
        assert rel.get("A", "c") == 0.4

    def test_diagonal_is_pinned(self):
        rel = SimilarityRelation.identity(["a", "b"])
        with pytest.raises(SimilarityError):
            rel.set_degree("a", "a", 0.5)
        rel.set_degree("a", "a", 1.0)  # a no-op, not an error

    def test_unknown_element(self):
        rel = SimilarityRelation.identity(["a", "b"])
        with pytest.raises(SimilarityError):
            rel.get("a", "z")

    def test_dimension_mismatch(self):
        with pytest.raises(SimilarityError):
            SimilarityRelation(("a", "b"), [[1.0, 0.0]])

    def test_duplicate_domain(self):
        with pytest.raises(SimilarityError):
            SimilarityRelation.identity(["a", "A"])

    def test_add_grows_the_relation_in_place(self):
        rel = SimilarityRelation.identity([])
        for name in ("a", "b", "c"):
            rel.add(name)
        rel.set_degree("a", "b", 0.4)
        rel.add("d")
        assert rel.domain == ("a", "b", "c", "d")
        assert rel.matrix == SimilarityRelation(rel.domain, [
            [1.0, 0.4, 0.0, 0.0], [0.4, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
        ]).matrix
        assert rel.index_of("D") == 3
        with pytest.raises(SimilarityError, match="duplicate element names"):
            rel.add("B")
        assert rel.domain == ("a", "b", "c", "d") and len(rel.matrix) == 4

    @given(st.integers(0, 2), st.integers(0, 2), st.floats(0, 1))
    def test_stays_symmetric(self, i, j, s):
        rel = SimilarityRelation.identity(["x", "y", "z"])
        if i == j:
            return
        rel.set_degree(rel.domain[i], rel.domain[j], s)
        assert validate_similarity(rel).ok


class TestValidateSimilarity:
    def test_reports_clean_relation(self):
        rel = SimilarityRelation.identity(["a", "b"])
        report = validate_similarity(rel)
        assert report.ok
        assert "valid" in str(report)

    def test_names_asymmetric_pair(self):
        rel = SimilarityRelation.identity(["a", "b"])
        rel.matrix[0][1] = 0.8  # bypass set_degree on purpose
        report = validate_similarity(rel)
        assert not report.ok
        v = report.violations[0]
        assert v.kind == "symmetry"
        assert {v.element1, v.element2} == {"a", "b"}
        assert "0.8" in str(report)

    def test_reports_broken_diagonal_and_range(self):
        rel = SimilarityRelation.identity(["a", "b"])
        rel.matrix[1][1] = 0.9
        rel.matrix[0][1] = 1.5
        rel.matrix[1][0] = 1.5
        kinds = {v.kind for v in validate_similarity(rel).violations}
        assert kinds == {"reflexivity", "range"}


class TestSimilarityEq:
    @pytest.fixture()
    def rel(self):
        rel = SimilarityRelation.identity(["rubio", "moreno", "pelirrojo"])
        rel.set_degree("rubio", "moreno", 0.1)
        rel.set_degree("rubio", "pelirrojo", 0.8)
        rel.set_degree("moreno", "pelirrojo", 0.3)
        return rel

    def test_max_min_over_pairs(self, rel):
        a = FuzzyValue.poss_dist([(0.6, "rubio"), (0.9, "moreno")])
        b = FuzzyValue.simple(1, "pelirrojo")
        # max(min(0.6, 0.8), min(0.9, 0.3)) = 0.6
        assert similarity_eq(a, b, rel) == 0.6

    def test_label_counts_as_full_membership(self, rel):
        a = FuzzyValue.label("rubio")
        b = FuzzyValue.label("pelirrojo")
        assert similarity_eq(a, b, rel) == 0.8
        assert similarity_eq(a, a, rel) == 1.0

    def test_degree_caps_similarity(self, rel):
        a = FuzzyValue.simple(0.4, "rubio")
        b = FuzzyValue.label("rubio")
        assert similarity_eq(a, b, rel) == 0.4

    def test_numeric_elements_rejected(self):
        # refused when the value is built, so similarity_eq never meets one
        with pytest.raises(FuzzyValueError, match="distribution element must be a name, got 3.0"):
            FuzzyValue.simple(1, 3.0)


def make_ordered_attr():
    attr = AttributeDescriptor("people", "age", 2, "numeric")
    return attr


def make_scalar_attr():
    attr = AttributeDescriptor("people", "hair", 3, "scalar")
    rel = SimilarityRelation.identity(["rubio", "moreno", "pelirrojo"])
    rel.set_degree("rubio", "pelirrojo", 0.8)
    attr.similarity = rel
    return attr


# Values of every kind, with label names and elements in and out of the
# attributes' domains, and in other spellings.
ANY_VALUES = [
    FuzzyValue.unknown(), FuzzyValue.undefined(), FuzzyValue.null(),
    FuzzyValue.interval(20, 25), FuzzyValue.approx(26, 3), FuzzyValue.trapezoid(15, 20, 25, 30),
    FuzzyValue.label("young"), FuzzyValue.label("YOUNG"), FuzzyValue.label("vague"),
    FuzzyValue.label("nope"), FuzzyValue.label("rubio"), FuzzyValue.label("Pelirrojo"),
    FuzzyValue.simple(0.5, "rubio"), FuzzyValue.simple(1, "MORENO"), FuzzyValue.simple(1, "nope"),
    FuzzyValue.poss_dist([(0.5, "rubio"), (0.8, "pelirrojo")]),
    FuzzyValue.poss_dist([(1, "moreno"), (0.5, "nope")]),
]


def feq_attrs():
    """feq's attributes by name: labels with and without a trapezoid, relations present or not."""
    ordered = make_ordered_attr()
    ordered.attach_label(LabelDefinition(1, "young", Trapezoid(15, 20, 25, 30)))
    ordered.attach_label(LabelDefinition(2, "vague"))
    return {"ordered": ordered, "scalar": make_scalar_attr(),
            "no relation": AttributeDescriptor("people", "hair", 3, "scalar"),
            "unsupported": types.SimpleNamespace(ftype=4, table="people", column="x")}


class TestFeq:
    def test_unknown_wins_over_everything(self):
        attr = make_ordered_attr()
        unknown = FuzzyValue.unknown()
        for other in (FuzzyValue.undefined(), FuzzyValue.null(), FuzzyValue.crisp(5)):
            assert feq(unknown, other, attr) == 1.0
            assert feq(other, unknown, attr) == 1.0

    def test_undefined_then_null_give_zero(self):
        attr = make_ordered_attr()
        assert feq(FuzzyValue.undefined(), FuzzyValue.crisp(5), attr) == 0.0
        assert feq(FuzzyValue.null(), FuzzyValue.crisp(5), attr) == 0.0
        assert feq(FuzzyValue.undefined(), FuzzyValue.null(), attr) == 0.0

    def test_ordered_dispatch(self):
        attr = make_ordered_attr()
        young = FuzzyValue.trapezoid(15, 20, 25, 30)
        assert feq(FuzzyValue.crisp(26), young, attr) == 0.8
        assert feq(FuzzyValue.interval(20, 25), young, attr) == 1.0

    def test_ordered_resolves_labels(self):
        attr = make_ordered_attr()
        attr.attach_label(LabelDefinition(1, "young", Trapezoid(15, 20, 25, 30)))
        assert feq(FuzzyValue.label("young"), FuzzyValue.crisp(26), attr) == 0.8

    def test_scalar_dispatch(self):
        attr = make_scalar_attr()
        a = FuzzyValue.simple(0.9, "pelirrojo")
        assert feq(a, FuzzyValue.label("rubio"), attr) == 0.8

    def test_kind_mismatch_raises(self):
        with pytest.raises(FuzzyValueError):
            feq(FuzzyValue.simple(1, "rubio"), FuzzyValue.crisp(1), make_ordered_attr())
        with pytest.raises(FuzzyValueError):
            feq(FuzzyValue.interval(1, 2), FuzzyValue.label("rubio"), make_scalar_attr())

    def test_scalar_without_relation(self):
        attr = AttributeDescriptor("people", "hair", 3, "scalar")
        with pytest.raises(SimilarityError):
            feq(FuzzyValue.label("rubio"), FuzzyValue.label("rubio"), attr)

    @pytest.mark.parametrize("args, name", [
        ((3.0, FuzzyValue.crisp(3)), "v1"),
        ((FuzzyValue.crisp(3), 3.0), "v2"),
        (("young", None), "v1"),
    ])
    def test_refuses_an_argument_that_is_not_a_value(self, args, name):
        got = repr(args[0] if name == "v1" else args[1])
        message = f"feq: {name} must be a FuzzyValue, got {got}"
        with pytest.raises(FuzzyValueError, match=f"^{re.escape(message)}$"):
            feq(*args, make_ordered_attr())

    @settings(max_examples=500, deadline=None)
    @given(attr=st.sampled_from(["ordered", "scalar", "no relation", "unsupported"]),
           v1=st.one_of(st.sampled_from(ANY_VALUES), st.builds(FuzzyValue.crisp, lattice)),
           v2=st.one_of(st.sampled_from(ANY_VALUES), st.builds(FuzzyValue.crisp, lattice)))
    def test_raises_exactly_when_the_oracle_raises(self, attr, v1, v2):
        attr = feq_attrs()[attr]
        try:
            expected = oracle_feq(v1, v2, attr)
        except FuzzyDbError:
            with pytest.raises(FuzzyDbError):
                feq(v1, v2, attr)
        else:
            assert repr(feq(v1, v2, attr)) == repr(expected)


class TestSimilarityEqArguments:
    @pytest.mark.parametrize("args, name", [
        (("rubio", FuzzyValue.label("rubio")), "a"),
        ((FuzzyValue.label("rubio"), "rubio"), "b"),
    ])
    def test_refuses_an_argument_that_is_not_a_value(self, args, name):
        rel = SimilarityRelation.identity(["rubio"])
        message = f"similarity_eq: {name} must be a FuzzyValue, got 'rubio'"
        with pytest.raises(FuzzyValueError, match=f"^{message}$"):
            similarity_eq(*args, rel)

    @pytest.mark.parametrize("rel", [None, [[1.0]]])
    def test_refuses_a_relation_that_is_not_one(self, rel):
        label = FuzzyValue.label("rubio")
        message = f"similarity_eq: rel must be a SimilarityRelation, got {rel!r}"
        with pytest.raises(SimilarityError, match=f"^{re.escape(message)}$"):
            similarity_eq(label, label, rel)

    @given(a=st.sampled_from(ANY_VALUES), b=st.sampled_from(ANY_VALUES))
    def test_matches_the_oracle_or_raises_with_it(self, a, b):
        rel = make_scalar_attr().similarity
        try:
            expected = oracle_similarity_eq(a, b, rel)
        except FuzzyDbError:
            with pytest.raises(FuzzyDbError):
                similarity_eq(a, b, rel)
        else:
            assert repr(similarity_eq(a, b, rel)) == repr(expected)
