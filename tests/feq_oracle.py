"""FEQ one value pair at a time: the independent reference for core.feq_column.

oracle_feq states the comparator the way the library stated it before the
column kernel: the special values, then a kind check of each side, then the
closed form on corners (ordered domains) or max-min over every pair of
possibility pairs (unordered ones).
"""

from fuzzydb import FuzzyValue, FuzzyValueError, SimilarityError, SimilarityRelation, ValueKind
from fuzzydb.core import (
    ORDERED_KINDS,
    UNORDERED_KINDS,
    Degree,
    PossPair,
    possibility_eq_corners,
    value_corners,
)


def _distribution_pairs(value: FuzzyValue) -> tuple[PossPair, ...]:
    """View an unordered-domain operand as possibility pairs; a label L is {1/L}."""
    if value.kind in UNORDERED_KINDS:
        return value.pairs
    if value.kind is ValueKind.LABEL:
        return ((1.0, value.name),)
    raise FuzzyValueError(
        f"value of kind {value.kind.value} has no possibility distribution form"
    )


def oracle_similarity_eq(a: FuzzyValue, b: FuzzyValue, rel: SimilarityRelation) -> Degree:
    """Max-min similarity match between two distributions over rel's domain.

    Returns max over pairs (p, d) in a and (q, e) in b of min(p, q, s(d, e)).
    Simple values count as one-pair distributions and a label L as {1/L}.
    """
    best = 0.0
    for p, d in _distribution_pairs(a):
        for q, e in _distribution_pairs(b):
            best = max(best, min(p, q, rel.get(d, e)))
    return best


def oracle_feq(v1: FuzzyValue, v2: FuzzyValue, attr) -> Degree:
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
        return possibility_eq_corners(value_corners(v1, resolve), value_corners(v2, resolve))
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
        return oracle_similarity_eq(v1, v2, attr.similarity)
    raise FuzzyValueError(f"unsupported fuzzy type {attr.ftype!r}")


def oracle_outcome(fn, *args):
    """('ok', repr of the result) or ('error', exception type, message) of fn(*args)."""
    try:
        return ("ok", repr(fn(*args)))
    except Exception as exc:  # the type and message are compared, whatever they are
        return ("error", type(exc), str(exc))
