"""Fuzzy value representations, membership functions, and the FEQ comparator.

This module is self-contained and purely functional: every operation maps
immutable inputs to a result without touching shared state, so it is safe to
call from any number of concurrent workers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from .errors import FuzzyValueError, SimilarityError

# Degrees are plain floats in [0, 1]; check_degree guards the boundary.
Degree = float

# A possibility pair: (degree, element). Elements are numbers or scalar names.
Element = Union[str, float]
PossPair = Tuple[Degree, Element]


def check_degree(value: float, what: str = "degree") -> float:
    """Validate that value lies in [0, 1] and return it as float."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise FuzzyValueError(f"{what} must be in [0, 1], got {value!r}")
    return value


def format_number(x: float) -> str:
    """Shortest decimal text that parses back to the same float; integers lose the '.0'."""
    x = float(x)
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def fold_name(name: str) -> str:
    """Canonical key for case-insensitive label and element matching."""
    return name.casefold()


@dataclass(frozen=True)
class Trapezoid:
    """Trapezoidal membership function over an ordered numeric domain.

    The four corners satisfy a <= b <= c <= d.  Equalities give the degenerate
    shapes: a point (a=b=c=d), a crisp interval (a=b, c=d), or a triangle
    (b=c).  A collapsed edge behaves as a step with the boundary at degree 1.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a <= self.b <= self.c <= self.d):
            raise FuzzyValueError(
                f"trapezoid corners must be ordered a <= b <= c <= d, got "
                f"({self.a}, {self.b}, {self.c}, {self.d})"
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


# Kinds reducible to a trapezoid on an ordered domain.
ORDERED_KINDS = frozenset(
    {ValueKind.CRISP, ValueKind.LABEL, ValueKind.INTERVAL, ValueKind.APPROX, ValueKind.TRAPEZOID}
)
# Kinds carrying a possibility distribution over an unordered domain.
UNORDERED_KINDS = frozenset({ValueKind.SIMPLE, ValueKind.POSS_DIST})
SPECIAL_KINDS = frozenset({ValueKind.UNKNOWN, ValueKind.UNDEFINED, ValueKind.NULL})


@dataclass(frozen=True)
class FuzzyValue:
    """One cell value; exactly the payload fields for its kind are set.

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
        if k is ValueKind.CRISP and self.number is None:
            raise FuzzyValueError("crisp value requires a number")
        if k is ValueKind.LABEL and not self.name:
            raise FuzzyValueError("label value requires a name")
        if k is ValueKind.INTERVAL:
            if self.low is None or self.high is None or not self.low < self.high:
                raise FuzzyValueError(
                    f"interval requires two bounds with low < high, got [{self.low}, {self.high}]"
                )
        if k is ValueKind.APPROX:
            if self.number is None or self.margin is None or self.margin <= 0:
                raise FuzzyValueError("approximate value requires a center and a margin > 0")
        if k is ValueKind.TRAPEZOID and self.trap is None:
            raise FuzzyValueError("trapezoid value requires corners")
        if k is ValueKind.SIMPLE and len(self.pairs) != 1:
            raise FuzzyValueError("simple value holds exactly one (degree, element) pair")
        if k is ValueKind.POSS_DIST and not self.pairs:
            raise FuzzyValueError("possibility distribution needs at least one pair")
        if k in UNORDERED_KINDS:
            for p, _ in self.pairs:
                if check_degree(p, "possibility degree") == 0.0:
                    raise FuzzyValueError("possibility degrees must be in (0, 1], got 0")
        if k in UNORDERED_KINDS:
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
    def simple(cls, degree: Degree, element: Element) -> "FuzzyValue":
        return cls(ValueKind.SIMPLE, pairs=((float(degree), element),))

    @classmethod
    def poss_dist(cls, pairs) -> "FuzzyValue":
        return cls(ValueKind.POSS_DIST, pairs=tuple((float(p), e) for p, e in pairs))


def _check_pair_elements(pairs: Tuple[PossPair, ...]) -> None:
    """Elements must all be numbers or all scalar names, with no duplicates."""
    names = [e for _, e in pairs if isinstance(e, str)]
    numbers = [e for _, e in pairs if not isinstance(e, str)]
    if names and numbers:
        raise FuzzyValueError("distribution elements must be all numeric or all scalar names")
    seen = set()
    for e in pairs:
        key = fold_name(e[1]) if isinstance(e[1], str) else float(e[1])
        if key in seen:
            raise FuzzyValueError(f"duplicate distribution element {e[1]!r}")
        seen.add(key)


ResolveLabel = Callable[[str], Trapezoid]


def to_trapezoid(value: FuzzyValue, resolve: Optional[ResolveLabel] = None) -> Trapezoid:
    """Normalize an ordered-domain value to its trapezoid form.

    Crisp d becomes the point (d, d, d, d); an interval [n, m] the crisp band
    (n, n, m, m); an approximate d +/- g the triangle (d-g, d, d, d+g).  Labels
    are looked up through the resolve callback.
    """
    k = value.kind
    if k is ValueKind.TRAPEZOID:
        return value.trap
    if k is ValueKind.CRISP:
        d = value.number
        return Trapezoid(d, d, d, d)
    if k is ValueKind.INTERVAL:
        return Trapezoid(value.low, value.low, value.high, value.high)
    if k is ValueKind.APPROX:
        d, g = value.number, value.margin
        return Trapezoid(d - g, d, d, d + g)
    if k is ValueKind.LABEL:
        if resolve is None:
            raise FuzzyValueError(f"no label resolver available for {value.name!r}")
        return resolve(value.name)
    raise FuzzyValueError(f"value of kind {k.value} cannot be reduced to a trapezoid")


def possibility_eq(t1: Trapezoid, t2: Trapezoid) -> Degree:
    """Possibility that two trapezoid-valued quantities are equal.

    Closed form of sup_x min(mu1(x), mu2(x)): 1 when the cores [b, c] overlap,
    0 when the supports [a, d] are disjoint, otherwise the height where the
    left value's falling edge meets the right value's rising edge.  Symmetric
    in its arguments.
    """
    if max(t1.b, t2.b) <= min(t1.c, t2.c):
        return 1.0
    left, right = (t1, t2) if t1.b <= t2.b else (t2, t1)
    if right.a >= left.d:
        return 0.0
    # Cores disjoint and supports overlapping: at least one of the two facing
    # edges has positive width, so the denominator is positive.
    denom = (right.b - right.a) + (left.d - left.c)
    if denom <= 0.0:
        return 1.0
    return min(1.0, max(0.0, (left.d - right.a) / denom))


@dataclass
class SimilarityRelation:
    """Square [0, 1] matrix over an unordered scalar domain.

    Element names match case-insensitively.  The raw constructor stores the
    matrix as given (so a relation read from a file can be validated); use
    identity() plus set_degree() to build a well-formed relation.
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

    def index_of(self, name: str) -> int:
        try:
            return self._index[fold_name(name)]
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
        i, j = self.index_of(d1), self.index_of(d2)
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


def _distribution_pairs(value: FuzzyValue) -> Tuple[PossPair, ...]:
    """View an unordered-domain operand as possibility pairs; a label L is {1/L}."""
    if value.kind in UNORDERED_KINDS:
        return value.pairs
    if value.kind is ValueKind.LABEL:
        return ((1.0, value.name),)
    raise FuzzyValueError(
        f"value of kind {value.kind.value} has no possibility distribution form"
    )


def similarity_eq(a: FuzzyValue, b: FuzzyValue, rel: SimilarityRelation) -> Degree:
    """Max-min similarity match between two distributions over rel's domain.

    Returns max over pairs (p, d) in a and (q, e) in b of min(p, q, s(d, e)).
    Simple values count as one-pair distributions and a label L as {1/L}.
    """
    best = 0.0
    for p, d in _distribution_pairs(a):
        if not isinstance(d, str):
            raise SimilarityError(f"numeric element {d!r} is not in the similarity domain")
        for q, e in _distribution_pairs(b):
            if not isinstance(e, str):
                raise SimilarityError(f"numeric element {e!r} is not in the similarity domain")
            best = max(best, min(p, q, rel.get(d, e)))
    return best


def feq(v1: FuzzyValue, v2: FuzzyValue, attr) -> Degree:
    """Fuzzy-equal possibility degree of two values under an attribute.

    attr supplies the comparison context: its fuzzy type (ftype 1, 2, or 3),
    a trapezoid_for(name) label resolver for ordered domains, and a similarity
    relation for unordered ones.

    Special values resolve first: UNKNOWN on either side gives 1 (total
    ignorance makes equality fully possible), then UNDEFINED gives 0 (no value
    is possible at all), then NULL gives 0.
    """
    kinds = (v1.kind, v2.kind)
    if ValueKind.UNKNOWN in kinds:
        return 1.0
    if ValueKind.UNDEFINED in kinds:
        return 0.0
    if ValueKind.NULL in kinds:
        return 0.0
    if attr.ftype in (1, 2):
        resolve = getattr(attr, "trapezoid_for", None)
        for v in (v1, v2):
            if v.kind not in ORDERED_KINDS:
                raise FuzzyValueError(
                    f"{v.kind.value} value is not comparable on an ordered (type {attr.ftype}) attribute"
                )
        return possibility_eq(to_trapezoid(v1, resolve), to_trapezoid(v2, resolve))
    if attr.ftype == 3:
        if attr.similarity is None:
            raise SimilarityError(
                f"attribute {attr.table}.{attr.column} has no similarity relation"
            )
        for v in (v1, v2):
            if v.kind not in UNORDERED_KINDS and v.kind is not ValueKind.LABEL:
                raise FuzzyValueError(
                    f"{v.kind.value} value is not comparable on an unordered (type 3) attribute"
                )
        return similarity_eq(v1, v2, attr.similarity)
    raise FuzzyValueError(f"unsupported fuzzy type {attr.ftype!r}")
