"""Admissible seminorms and their exact evaluation in log-q scale.

A seminorm is attached to a sequence ``(n_i)`` of integers-or-``-inf``; its
value on ``sum x_i t^i`` is ``sup_i |x_i| q^(n_i)``, recorded here as the
exponent ``sup_i (n_i - v(x_i))``.  The admissibility conditions depend on
the field kind: over Laurent series the sequence must be ``-inf`` from some
index on; over the doubly infinite field it must be bounded above and tend
to ``-inf`` on the right.  Real numbers never appear; everything stays in
the exponent scale.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Union

from .errors import KindMismatch, NonAdmissibleSequence, ParseError, PrecisionExhausted
from .padic import ExponentResult
from .seqspec import (
    MINUS_INF,
    PLUS_INF,
    ExtInt,
    Frozen,
    SeqSpec,
    json_key,
    sup_diff_on,
)
from .series import EqualCharSeries, MixedSeries

__all__ = [
    "SeminormSpec",
    "ExponentResult",
    "validate",
    "is_admissible_seq",
    "eval_exponent",
    "closed_ball_test",
    "BallResult",
]

EQUAL = "equal"
MIXED = "mixed"


class BallResult(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    UNKNOWN = "unknown"


class FieldSeq(Frozen):
    """The base of the specs that pair a sequence with a field kind."""

    __slots__ = _fields = ("seq", "field_kind")

    def __init__(self, seq: SeqSpec, field_kind: str):
        if field_kind not in (EQUAL, MIXED):
            raise ParseError(f"field {field_kind!r} is not 'equal' or 'mixed'")
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "field_kind", field_kind)

    def to_json(self) -> dict:
        out = self.seq.to_json()
        out["field"] = self.field_kind
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "FieldSeq":
        return cls(SeqSpec.from_json(obj), field_from_json(obj))


class SeminormSpec(FieldSeq):
    __slots__ = ()


def field_from_json(obj: Mapping) -> str:
    """The ``field`` key of a spec object: ``equal`` or ``mixed``."""
    kind = json_key(obj, "field")
    if kind not in (EQUAL, MIXED):
        raise ParseError(f"bad key 'field': {kind!r} is neither 'equal' nor 'mixed'")
    return kind


def _admissibility_failure(seq: SeqSpec, kind: str) -> str | None:
    """Reason the sequence is not admissible for the kind, or None."""
    for i, _, v in seq.runs():
        if v == PLUS_INF:
            return f"value +inf at index {i}"
    for side, tail in (("left", seq.left), ("right", seq.right)):
        if tail.at(0) == PLUS_INF:
            return f"{side} tail is +inf"
    if kind == EQUAL:
        if seq.right.at(0) != MINUS_INF:
            return "no index k with n_i = -inf for all i > k"
        return None
    if kind == MIXED:
        if seq.left.limit(True) == PLUS_INF:
            return "values unbounded above towards -inf"
        if seq.right.limit(False) != MINUS_INF:
            return "values do not tend to -inf towards +inf"
        return None
    raise ValueError(f"unknown field kind {kind!r}")


def is_admissible_seq(seq: SeqSpec, kind: str) -> bool:
    return _admissibility_failure(seq, kind) is None


def validate(spec: SeminormSpec) -> None:
    """Raise :class:`NonAdmissibleSequence` naming the violated condition."""
    reason = _admissibility_failure(spec.seq, spec.field_kind)
    if reason is not None:
        raise NonAdmissibleSequence(f"{spec.field_kind}: {reason}")


# ---------------------------------------------------------------------------
# evaluation


def _diff(n: ExtInt, v: ExtInt) -> ExtInt:
    """Contribution n - v; -inf weights and exactly-zero coefficients drop."""
    if n == MINUS_INF or v == PLUS_INF:
        return MINUS_INF
    return ExtInt(n.n - v.n)


def _combine(best_exact: ExtInt, best_bound: ExtInt) -> ExponentResult:
    # an exact witness must strictly dominate every bound-only candidate;
    # ties stay upper bounds because the true value can only be smaller
    if best_bound == MINUS_INF:
        return ExponentResult(best_exact, True)
    if best_exact > best_bound:
        return ExponentResult(best_exact, True)
    return ExponentResult(best_bound, False)


def _eval(seq: SeqSpec, x: Union[EqualCharSeries, MixedSeries]) -> ExponentResult:
    if isinstance(x, EqualCharSeries):
        # the largest index carrying a finite weight
        last = max((end for _, end, v in seq.runs() if v != MINUS_INF), default=None)
        if last is None and seq.left.at(0) != MINUS_INF:
            last = seq.window_lo - 1
        if last is not None and ExtInt(last) >= x.trunc:
            raise PrecisionExhausted(
                f"series truncated at t^{x.trunc} but weights reach index {last}"
            )
    # the stored coefficients are exact and g bounds every other index.
    # Past the windows n(i) - g(i) only falls: mixed weights are bounded
    # above against a left bound of slope >= 1 and tend to -inf against a
    # constant right floor, and a Laurent g is +inf below the order and
    # meets -inf weights from the truncation on.  So one index past each
    # window ends the range.
    best_exact = max((_diff(seq.value_at(i), c.val) for i, c in x.stored), default=MINUS_INF)
    g = x.g
    start = min(seq.window_lo, g.window_lo) - 1
    stop = max(seq.window_hi, g.window_hi) + 1
    best_bound = sup_diff_on(seq, g, start, stop)
    return _combine(best_exact, best_bound)


def eval_exponent(
    spec: SeminormSpec, x: Union[EqualCharSeries, MixedSeries]
) -> ExponentResult:
    """Exponent e with ||x|| = q^e (``-inf`` meaning ||x|| = 0).

    The result is exact when the supremum is witnessed by an exactly known
    coefficient that strictly dominates every bound-only contribution.
    """
    validate(spec)
    if spec.field_kind == EQUAL:
        if not isinstance(x, EqualCharSeries):
            raise KindMismatch("equal-characteristic seminorm needs a Laurent series")
    elif not isinstance(x, MixedSeries):
        raise KindMismatch("mixed-characteristic seminorm needs a doubly infinite series")
    return _eval(spec.seq, x)


def closed_ball_test(
    spec: SeminormSpec, x: Union[EqualCharSeries, MixedSeries], e: int
) -> BallResult:
    """Position of ``x`` relative to the closed ball of radius q^e."""
    try:
        res = eval_exponent(spec, x)
    except PrecisionExhausted:
        return BallResult.UNKNOWN
    if not res.exact:
        return BallResult.UNKNOWN
    return BallResult.INSIDE if res.exponent <= e else BallResult.OUTSIDE
