"""Fuzzy value representations, membership functions, and the FEQ comparator.

This module is self-contained and purely functional: every operation maps
immutable inputs to a result without touching shared state, so it is safe to
call from any number of concurrent workers.

It is the one statement of the comparison calculus: feq_column, FEQ of an
operand against each cell of a column, in one pass.  On an ordered domain
that is the possibility sup-min of two trapezoids, in closed form on their
corners (possibility_eq_corners; value_corners and number_corners reduce a
value to corners by its kind); on an unordered one, max-min through the
similarity relation, off the operand's similarity row.  feq, possibility_eq
and similarity_eq are thin wrappers over the same forms, so none can drift.

On an ordered domain the kernel scores each distinct crisp number and label
name once per call, in a dict of their degrees, as dictionary-encoded
execution does (Abadi, Madden & Ferreira, SIGMOD 2006): equal numbers score
the same degree bit for bit, 0.0 and -0.0 too, as the closed form only
compares them and clamps a zero it computes to 0.0.  The unordered branch
keeps no such dict: there it measured slower.
"""

from __future__ import annotations

import enum
import math
import types
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from .errors import ConversionError, FuzzyValueError, SimilarityError

# Degrees are plain floats in [0, 1]; check_degree guards the boundary.
Degree = float

_INF = math.inf

# A possibility pair: (degree, element). Elements are scalar names.
PossPair = Tuple[Degree, str]


def check_degree(value: float, what: str = "degree") -> float:
    """Validate that value lies in [0, 1] and return it as float."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise FuzzyValueError(f"{what} must be in [0, 1], got {value!r}")
    return value


def format_number(x: float) -> str:
    """Shortest decimal text that parses back to the same float; integers lose the '.0'.

    Zero keeps its sign: -0.0 is written '-0.0', not '0'.  inf and nan raise
    a FuzzyValueError.
    """
    x = float(x)
    try:
        whole = int(x)
    except (OverflowError, ValueError):
        raise FuzzyValueError(f"expected a finite number, got {x!r}") from None
    if x == whole and abs(x) < 1e16 and (x or math.copysign(1.0, x) > 0):
        return str(whole)
    return repr(x)


def fold_name(name: str) -> str:
    """Canonical key for case-insensitive label and element matching."""
    return name.casefold()


@dataclass(frozen=True, slots=True)
class Trapezoid:
    """Trapezoidal membership function over an ordered numeric domain.

    The four corners are finite and satisfy a <= b <= c <= d.  Equalities give
    the degenerate shapes: a point (a=b=c=d), a crisp interval (a=b, c=d), or a
    triangle (b=c).  A collapsed edge behaves as a step with the boundary at
    degree 1.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        # One chained comparison; it is false for nan and for infinite ends.
        if not (-_INF < self.a <= self.b <= self.c <= self.d < _INF):
            corners = (self.a, self.b, self.c, self.d)
            if not all(math.isfinite(x) for x in corners):
                raise FuzzyValueError(f"trapezoid corners must be finite, got {corners}")
            raise FuzzyValueError(
                f"trapezoid corners must be ordered a <= b <= c <= d, got {corners}"
            )

    def membership(self, x: float) -> Degree:
        """Degree of x: 0 outside [a, d], 1 on [b, c], linear on the edges."""
        if self.b <= x <= self.c:
            return 1.0
        if x < self.a or x > self.d:
            return 0.0
        if x < self.b:
            # a < b here, otherwise x would have hit the core or fallen outside
            return (x - self.a) / (self.b - self.a)
        return (self.d - x) / (self.d - self.c)

    def corners(self) -> Tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


class ValueKind(enum.Enum):
    """The ten cell-value representations the engine stores and compares."""

    # Members are singletons compared by identity, so the C identity hash
    # serves; Enum's own __hash__ is Python code, run on every dict or set lookup.
    __hash__ = object.__hash__

    UNKNOWN = "unknown"
    UNDEFINED = "undefined"
    NULL = "null"
    CRISP = "crisp"
    LABEL = "label"
    INTERVAL = "interval"
    APPROX = "approx"
    TRAPEZOID = "trapezoid"
    SIMPLE = "simple"
    POSS_DIST = "poss_dist"


# The members the kernels test, bound once: looking a member up on the class
# goes through the enum machinery, about 0.13 us a time.
_CRISP, _LABEL, _INTERVAL, _APPROX, _TRAPEZOID = (
    ValueKind.CRISP, ValueKind.LABEL, ValueKind.INTERVAL, ValueKind.APPROX, ValueKind.TRAPEZOID)
_UNKNOWN, _UNDEFINED, _NULL, _SIMPLE, _POSS_DIST = (
    ValueKind.UNKNOWN, ValueKind.UNDEFINED, ValueKind.NULL, ValueKind.SIMPLE, ValueKind.POSS_DIST)

# Kinds reducible to a trapezoid on an ordered domain.
ORDERED_KINDS = frozenset(
    {ValueKind.CRISP, ValueKind.LABEL, ValueKind.INTERVAL, ValueKind.APPROX, ValueKind.TRAPEZOID}
)
# Kinds carrying a possibility distribution over an unordered domain.
UNORDERED_KINDS = frozenset({ValueKind.SIMPLE, ValueKind.POSS_DIST})
SPECIAL_KINDS = frozenset({ValueKind.UNKNOWN, ValueKind.UNDEFINED, ValueKind.NULL})


@dataclass(frozen=True, slots=True)
class FuzzyValue:
    """One cell value; exactly the payload fields for its kind are set.

    A label's name and each element of a distribution are names (str): an
    unordered domain is a set of named elements, as a scalar column's labels.
    Use the factory classmethods rather than the raw constructor: they fill in
    the right fields and the validation in __post_init__ assumes that shape.
    """

    kind: ValueKind
    number: Optional[float] = None          # CRISP value, APPROX center
    margin: Optional[float] = None          # APPROX half-width
    low: Optional[float] = None             # INTERVAL lower bound
    high: Optional[float] = None            # INTERVAL upper bound
    name: Optional[str] = None              # LABEL name
    trap: Optional[Trapezoid] = None        # TRAPEZOID corners
    pairs: Tuple[PossPair, ...] = field(default=())  # SIMPLE / POSS_DIST

    def __post_init__(self):
        k = self.kind
        if k is ValueKind.CRISP:
            if self.number is None:
                raise FuzzyValueError("crisp value requires a number")
            _check_finite(self.number, "crisp value")
        elif k is ValueKind.LABEL:
            if not isinstance(self.name, str) or not self.name:
                raise FuzzyValueError(f"label value requires a name, got {self.name!r}")
        elif k is ValueKind.INTERVAL:
            if self.low is None or self.high is None or not -_INF < self.low < self.high < _INF:
                raise FuzzyValueError(
                    f"interval requires two finite bounds with low < high, "
                    f"got [{self.low}, {self.high}]"
                )
        elif k is ValueKind.APPROX:
            if self.number is None or self.margin is None or not self.margin > 0:
                raise FuzzyValueError("approximate value requires a center and a margin > 0")
            # The triangle's feet must be finite too, or the value has no trapezoid.
            _check_finite(self.number - self.margin, "approximate value's lower end")
            _check_finite(self.number + self.margin, "approximate value's upper end")
        elif k is ValueKind.TRAPEZOID:
            if self.trap is None:
                raise FuzzyValueError("trapezoid value requires corners")
        elif k in UNORDERED_KINDS:
            if k is ValueKind.SIMPLE and len(self.pairs) != 1:
                raise FuzzyValueError("simple value holds exactly one (degree, element) pair")
            if not self.pairs:
                raise FuzzyValueError("possibility distribution needs at least one pair")
            for p, _ in self.pairs:
                if check_degree(p, "possibility degree") == 0.0:
                    raise FuzzyValueError("possibility degrees must be in (0, 1], got 0")
            _check_pair_elements(self.pairs)

    # -- factories -------------------------------------------------------

    @classmethod
    def unknown(cls) -> "FuzzyValue":
        return cls(ValueKind.UNKNOWN)

    @classmethod
    def undefined(cls) -> "FuzzyValue":
        return cls(ValueKind.UNDEFINED)

    @classmethod
    def null(cls) -> "FuzzyValue":
        return cls(ValueKind.NULL)

    @classmethod
    def crisp(cls, value: float) -> "FuzzyValue":
        return cls(ValueKind.CRISP, number=float(value))

    @classmethod
    def label(cls, name: str) -> "FuzzyValue":
        return cls(ValueKind.LABEL, name=name)

    @classmethod
    def interval(cls, low: float, high: float) -> "FuzzyValue":
        return cls(ValueKind.INTERVAL, low=float(low), high=float(high))

    @classmethod
    def approx(cls, center: float, margin: float) -> "FuzzyValue":
        return cls(ValueKind.APPROX, number=float(center), margin=float(margin))

    @classmethod
    def trapezoid(cls, a, b=None, c=None, d=None) -> "FuzzyValue":
        trap = a if isinstance(a, Trapezoid) else Trapezoid(float(a), float(b), float(c), float(d))
        return cls(ValueKind.TRAPEZOID, trap=trap)

    @classmethod
    def simple(cls, degree: Degree, element: str) -> "FuzzyValue":
        return cls(ValueKind.SIMPLE, pairs=((float(degree), element),))

    @classmethod
    def poss_dist(cls, pairs) -> "FuzzyValue":
        return cls(ValueKind.POSS_DIST, pairs=tuple((float(p), e) for p, e in pairs))


def _check_finite(x: float, what: str) -> None:
    if not -_INF < x < _INF:
        raise FuzzyValueError(f"{what} must be a finite number, got {x!r}")


def _check_pair_elements(pairs: Tuple[PossPair, ...]) -> None:
    """Elements must be scalar names (str), with no duplicates."""
    seen = set()
    for _, e in pairs:
        if not isinstance(e, str):
            raise FuzzyValueError(f"distribution element must be a name, got {e!r}")
        key = fold_name(e)
        if key in seen:
            raise FuzzyValueError(f"duplicate distribution element {e!r}")
        seen.add(key)


ResolveLabel = Callable[[str], Trapezoid]

# A trapezoid's four corners (a, b, c, d), as the closed forms below take them.
Corners = Tuple[float, float, float, float]


def _resolve_label(value: FuzzyValue, resolve: Optional[ResolveLabel]) -> Trapezoid:
    if resolve is None:
        raise FuzzyValueError(f"no label resolver available for {value.name!r}")
    return resolve(value.name)


def value_corners(value: FuzzyValue, resolve: Optional[ResolveLabel] = None,
                  refused: str = "value of kind {} cannot be reduced to a trapezoid") -> Corners:
    """The corners of an ordered-domain value's trapezoid, with no Trapezoid built.

    Crisp d is the point (d, d, d, d); an interval [n, m] the crisp band
    (n, n, m, m); an approximate d +/- g the triangle (d-g, d, d, d+g).  Labels
    are looked up through the resolve callback.  Any other kind raises a
    FuzzyValueError, refused with the kind's name filled in.
    """
    k = value.kind
    if k is _CRISP:
        d = value.number
        return (d, d, d, d)
    if k is _INTERVAL:
        low, high = value.low, value.high
        return (low, low, high, high)
    if k is _APPROX:
        d, g = value.number, value.margin
        return (d - g, d, d, d + g)
    if k is _TRAPEZOID:
        t = value.trap
    elif k is _LABEL:
        t = _resolve_label(value, resolve)
    else:
        raise FuzzyValueError(refused.format(k.value))
    return (t.a, t.b, t.c, t.d)


def plain_number(cell) -> float:
    """A plain (type 1) int or float cell as a float, else a ConversionError; inf and nan pass."""
    if isinstance(cell, (int, float)):
        try:
            return float(cell)
        except OverflowError:
            raise ConversionError(
                "expected a finite number, got an integer too large for a float") from None
    raise ConversionError(f"expected a number, got {cell!r}")


def number_corners(cell) -> Corners:
    """The point (x, x, x, x) of plain cell x, which must be finite as FuzzyValue.crisp's."""
    x = plain_number(cell)
    _check_finite(x, "crisp value")
    return (x, x, x, x)


def to_trapezoid(value: FuzzyValue, resolve: Optional[ResolveLabel] = None) -> Trapezoid:
    """Normalize an ordered-domain value to its trapezoid form, by value_corners' rule.

    A trapezoid value gives its own Trapezoid and a label the one resolve returns.
    """
    if value.kind is _TRAPEZOID:
        return value.trap
    if value.kind is _LABEL:
        return _resolve_label(value, resolve)
    return Trapezoid(*value_corners(value))


def possibility_eq_corners(p: Corners, q: Corners) -> Degree:
    """possibility_eq of the trapezoids with corners p and q; the only copy of its closed form."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    if (b1 if b1 > b2 else b2) <= (c1 if c1 < c2 else c2):
        return 1.0
    # the left value's core starts first; its falling edge faces the right one's rising edge
    if b1 <= b2:
        left_c, left_d, right_a, right_b = c1, d1, a2, b2
    else:
        left_c, left_d, right_a, right_b = c2, d2, a1, b1
    if right_a >= left_d:
        return 0.0
    # Cores disjoint and supports overlapping: at least one of the two facing
    # edges has positive width, so the denominator is positive.
    denom = (right_b - right_a) + (left_d - left_c)
    if denom <= 0.0:
        return 1.0
    return min(1.0, max(0.0, (left_d - right_a) / denom))


def possibility_eq(t1: Trapezoid, t2: Trapezoid) -> Degree:
    """Possibility that two trapezoid-valued quantities are equal.

    Closed form of sup_x min(mu1(x), mu2(x)): 1 when the cores [b, c] overlap,
    0 when the supports [a, d] are disjoint, otherwise the height where the
    left value's falling edge meets the right value's rising edge.  Symmetric
    in its arguments.  The arithmetic is possibility_eq_corners', on the two
    trapezoids' corners.
    """
    return possibility_eq_corners(t1.corners(), t2.corners())


@dataclass
class SimilarityRelation:
    """Square [0, 1] matrix over an unordered scalar domain.

    Element names match case-insensitively.  The raw constructor stores the
    matrix as given (validate_similarity reports what it breaks); identity(),
    add() and set_at() keep a relation reflexive, symmetric and in [0, 1].
    """

    domain: Tuple[str, ...]
    matrix: list  # list of rows of float

    def __post_init__(self):
        self.domain = tuple(self.domain)
        self.matrix = [list(row) for row in self.matrix]
        n = len(self.domain)
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise SimilarityError(
                f"similarity matrix must be {n}x{n} to match the domain, got "
                f"{len(self.matrix)} rows"
            )
        self._index = {fold_name(name): i for i, name in enumerate(self.domain)}
        if len(self._index) != n:
            raise SimilarityError("similarity domain contains duplicate element names")

    @classmethod
    def identity(cls, domain) -> "SimilarityRelation":
        """Relation with s(d, d) = 1 and every other pair at 0."""
        names = tuple(domain)
        n = len(names)
        return cls(names, [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)])

    def add(self, name: str) -> None:
        """Append an element similar only to itself, in place: O(n) for n elements."""
        key = fold_name(name)
        if key in self._index:
            raise SimilarityError("similarity domain contains duplicate element names")
        for row in self.matrix:
            row.append(0.0)
        self._index[key] = len(self.matrix)
        self.matrix.append([0.0] * len(self.domain) + [1.0])
        self.domain += (name,)

    def index_of(self, name: str, key: Optional[str] = None) -> int:
        """Position of name in the domain; key, when the caller has it, is fold_name(name)."""
        try:
            return self._index[fold_name(name) if key is None else key]
        except KeyError:
            raise SimilarityError(f"element {name!r} is not in the similarity domain") from None

    def get(self, d1: str, d2: str) -> Degree:
        return self.matrix[self.index_of(d1)][self.index_of(d2)]

    def pairs(self) -> List[Tuple[str, str, Degree]]:
        """(d1, d2, s) for each pair of distinct elements with s != 0, in domain order."""
        n = len(self.domain)
        return [
            (self.domain[i], self.domain[j], self.matrix[i][j])
            for i in range(n) for j in range(i + 1, n) if self.matrix[i][j] != 0.0
        ]

    def set_degree(self, d1: str, d2: str, s: Degree) -> None:
        """Set s(d1, d2) and s(d2, d1); the diagonal is pinned at 1."""
        self.set_at(self.index_of(d1), self.index_of(d2), s)

    def set_at(self, i: int, j: int, s: Degree) -> None:
        """set_degree for the elements at domain positions i and j."""
        s = check_degree(s, "similarity degree")
        if i == j:
            if s != 1.0:
                raise SimilarityError(
                    f"s({self.domain[i]}, {self.domain[j]}) is pinned at 1 and cannot be {s}"
                )
            return
        self.matrix[i][j] = s
        self.matrix[j][i] = s


@dataclass(frozen=True)
class SimilarityViolation:
    kind: str          # "reflexivity" | "symmetry" | "range"
    element1: str
    element2: str
    detail: str

    def __str__(self):
        return f"{self.kind} violated at ({self.element1}, {self.element2}): {self.detail}"


@dataclass(frozen=True)
class SimilarityReport:
    violations: Tuple[SimilarityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "similarity relation is valid"
        return "\n".join(str(v) for v in self.violations)


def validate_similarity(rel: SimilarityRelation) -> SimilarityReport:
    """Report every reflexivity, symmetry, or range violation in the relation."""
    n = len(rel.domain)
    if len(rel.matrix) != n or any(len(row) != n for row in rel.matrix):
        raise SimilarityError("similarity matrix dimensions do not match the domain")
    found = []
    for i, name in enumerate(rel.domain):
        if rel.matrix[i][i] != 1.0:
            found.append(
                SimilarityViolation("reflexivity", name, name, f"s = {rel.matrix[i][i]}, expected 1")
            )
    for i in range(n):
        for j in range(n):
            v = rel.matrix[i][j]
            if not 0.0 <= v <= 1.0:
                found.append(
                    SimilarityViolation("range", rel.domain[i], rel.domain[j], f"s = {v} outside [0, 1]")
                )
            if j > i and rel.matrix[i][j] != rel.matrix[j][i]:
                found.append(
                    SimilarityViolation(
                        "symmetry",
                        rel.domain[i],
                        rel.domain[j],
                        f"s = {rel.matrix[i][j]} forward but {rel.matrix[j][i]} backward",
                    )
                )
    return SimilarityReport(tuple(found))


def _check_values(fn: str, **values) -> None:
    """Refuse, by name, an argument of fn that is not a FuzzyValue."""
    for name, value in values.items():
        if not isinstance(value, FuzzyValue):
            raise FuzzyValueError(f"{fn}: {name} must be a FuzzyValue, got {value!r}")


def _similarity_row(value: FuzzyValue, rel: SimilarityRelation) -> List[Degree]:
    """At each domain position i, max over value's pairs (q, e) of min(q, s(i, e)); a label L is {1/L}."""
    at = [(q, rel.index_of(e)) for q, e in value.pairs or ((1.0, value.name),)]
    return [max([min(q, s[j]) for q, j in at]) for s in rel.matrix]


def _unordered(kind: ValueKind) -> None:
    if kind is not _SIMPLE and kind is not _POSS_DIST and kind is not _LABEL:
        raise FuzzyValueError(f"{kind.value} value is not comparable on an unordered (type 3) attribute")


def similarity_eq(a: FuzzyValue, b: FuzzyValue, rel: SimilarityRelation) -> Degree:
    """Max-min similarity match between two distributions over rel's domain.

    Returns max over pairs (p, d) in a and (q, e) in b of min(p, q, s(d, e)),
    read as feq_column reads it: a's pairs against b's similarity row.
    Simple values count as one-pair distributions and a label L as {1/L}.
    """
    _check_values("similarity_eq", a=a, b=b)
    if not isinstance(rel, SimilarityRelation):
        raise SimilarityError(f"similarity_eq: rel must be a SimilarityRelation, got {rel!r}")
    for v in (a, b):
        if v.kind not in UNORDERED_KINDS and v.kind is not _LABEL:
            raise FuzzyValueError(f"value of kind {v.kind.value} has no possibility distribution form")
    return feq_column(b, types.SimpleNamespace(ftype=3, similarity=rel), (a,))[0]


def feq(v1: FuzzyValue, v2: FuzzyValue, attr) -> Degree:
    """Fuzzy-equal possibility degree of value v1 and operand v2 under attr: feq_column on v1."""
    _check_values("feq", v1=v1, v2=v2)
    return feq_column(v2, attr, (v1,))[0]


def feq_column(operand: FuzzyValue, attr, cells: Iterable) -> List[Degree]:
    """feq(cell, operand, attr) for each of cells, in one pass: the one statement of FEQ.

    attr supplies the comparison context: its fuzzy type (ftype 1, 2, or 3),
    a trapezoid_for(name) label resolver for ordered domains, and a
    similarity relation for unordered ones.  A cell that is not a FuzzyValue
    is the crisp value of plain_number(cell), checked by number_corners.

    Special values resolve first: UNKNOWN on either side gives 1 (total
    ignorance makes equality fully possible), then UNDEFINED gives 0 (no
    value is possible at all), then NULL gives 0.  attr and the operand are
    checked and resolved once, at the first cell that is not special.  On an
    ordered domain a cell scores possibility_eq_corners of its corners and
    the operand's, and a crisp cell or a label cell takes the degree already
    scored in the call for an equal number or the same name; on an unordered
    one, max over its pairs (p, d) of min(p, row[d]), row being the operand's
    _similarity_row.  As min distributes over max and both only select, that
    is max-min over every pair of pairs, min(p, q, s(d, e)), bit for bit.
    """
    if operand.kind in SPECIAL_KINDS:  # no cell is reduced, but number_corners checks a plain one
        kinds = [c.kind if isinstance(c, FuzzyValue) else number_corners(c) and _CRISP for c in cells]
        return [1.0 if _UNKNOWN in (operand.kind, kind) else 0.0 for kind in kinds]
    out = []
    append = out.append
    if attr.ftype in (1, 2):
        resolve = getattr(attr, "trapezoid_for", None)
        refused = f"{{}} value is not comparable on an ordered (type {attr.ftype}) attribute"
        against = None  # the operand's corners
        known = {}  # the degree of each crisp number and label name scored
        for cell in cells:
            key = None
            if isinstance(cell, FuzzyValue):
                kind = cell.kind
                if kind is _CRISP:
                    key = cell.number
                elif kind is _LABEL:
                    key = cell.name
                elif kind is _UNKNOWN:
                    append(1.0)
                    continue
                elif kind is _UNDEFINED or kind is _NULL:
                    append(0.0)
                    continue
                if key is not None:
                    degree = known.get(key)
                    if degree is not None:
                        append(degree)
                        continue
                corners = value_corners(cell, resolve, refused)
            else:
                corners = number_corners(cell)
            if against is None:
                against = value_corners(operand, resolve, refused)
            degree = possibility_eq_corners(corners, against)
            if key is not None:
                known[key] = degree
            append(degree)
        return out
    weights = None  # the operand's similarity row; row holds its entry for each spelling met
    for cell in cells:
        if isinstance(cell, FuzzyValue):
            kind = cell.kind
            if kind is _UNKNOWN:
                append(1.0)
                continue
            if kind is _UNDEFINED or kind is _NULL:
                append(0.0)
                continue
        else:
            number_corners(cell)
            kind = _CRISP
        if weights is None:  # attr, then the cell, then the operand
            if attr.ftype != 3:
                raise FuzzyValueError(f"unsupported fuzzy type {attr.ftype!r}")
            rel = attr.similarity
            if rel is None:
                raise SimilarityError(f"attribute {attr.table}.{attr.column} has no similarity relation")
            _unordered(kind)
            _unordered(operand.kind)
            weights, row = _similarity_row(operand, rel), {}
        elif kind is not _SIMPLE and kind is not _POSS_DIST and kind is not _LABEL:
            _unordered(kind)
        best = 0.0
        for p, d in cell.pairs or ((1.0, cell.name),):
            s = row.get(d)
            if s is None:
                s = row[d] = weights[rel.index_of(d)]
            # best = max(best, min(p, s)); each keeps its first argument on a tie
            if s >= p:
                s = p
            if s > best:
                best = s
        append(best)
    return out
