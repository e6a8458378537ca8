"""O-submodules of the series fields given by coefficientwise ideals.

A submodule spec stores the exponent sequence ``(k_i)`` of ``sum p^(k_i)
t^i``; ``+inf`` forces the coefficient to vanish and ``-inf`` opens the
coordinate to all of the base field.  The module provides the decidable
classification predicates (open lattice, bounded, compactoid), membership
of explicit elements, fractional-ideal algebra, the min-plus product bound,
and the named modules used throughout with their literature-sourced flags.
"""

from __future__ import annotations

from functools import cache

from .errors import KindMismatch, PrecisionExhausted, UnknownName
from .padic import PAdic
from .seminorm import EQUAL, MIXED, FieldSeq, SeminormSpec, is_admissible_seq
from .seqspec import (
    MINUS_INF,
    PLUS_INF,
    AffineTail,
    ConstTail,
    ExtInt,
    Frozen,
    SeqSpec,
    check_index,
    forall_ge,
    minplus_convolve,
    pointwise_max,
    pointwise_min,
    shift_add,
    sup_diff,
)
from .series import SERIES_KINDS, Series

__all__ = [
    "SubmoduleSpec",
    "Classification",
    "Membership",
    "is_open_lattice",
    "is_bounded",
    "is_compactoid",
    "classify",
    "membership",
    "module_sum",
    "module_intersect",
    "scale",
    "product_bound",
    "named",
    "named_module_names",
    "literature_classification",
    "seminorm_bound_on",
    "unbounded_witness",
]


class SubmoduleSpec(FieldSeq):
    __slots__ = ()

    def to_json(self) -> dict:
        out = super().to_json()
        out["role"] = "submodule"
        return out

    def canonical(self) -> "SubmoduleSpec":
        return SubmoduleSpec(self.seq.canonical(), self.field_kind)


class Classification(Frozen):
    """Computed flags, plus literature-sourced ones on named modules only."""

    __slots__ = _fields = (
        "open_lattice", "bounded", "compactoid", "complete", "c_compact", "closed"
    )

    def __init__(
        self,
        open_lattice: bool,
        bounded: bool,
        compactoid: bool,
        complete: bool | None = None,
        c_compact: bool | None = None,
        closed: bool | None = None,
    ):
        values = (open_lattice, bounded, compactoid, complete, c_compact, closed)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def to_json(self) -> dict:
        # the computed flags are never None; the literature ones are None off named modules
        return {f: v for f, v in zip(self._fields, self._astuple()) if v is not None}


class Membership:
    IN = "in"
    OUT = "out"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# classification predicates


def _minus_inf_index(seq: SeqSpec) -> int | None:
    """An index where the exponent is ``-inf``, or None if there is none."""
    # one index of each tail stands for the whole tail
    for i, _, slope, offset in seq.spans(seq.window_lo - 1, seq.window_hi + 1):
        if slope is None and offset < 0:
            return i
    return None


def is_open_lattice(m: SubmoduleSpec) -> bool:
    """Whether the module is an open lattice of its field.

    The condition coincides with admissibility of the defining sequence as
    a seminorm sequence: gauge seminorms of such lattices are exactly the
    admissible seminorms.
    """
    return is_admissible_seq(m.seq, m.field_kind)


def is_bounded(m: SubmoduleSpec) -> bool:
    seq = m.seq
    if _minus_inf_index(seq) is not None:
        return False
    if m.field_kind == EQUAL:
        return seq.left.at(0) == PLUS_INF
    return seq.left.limit(True) != MINUS_INF and seq.right.limit(False) != MINUS_INF


def _compactoid_if_bounded(m: SubmoduleSpec) -> bool:
    # bounded and compactoid submodules coincide in a nuclear space
    return m.field_kind == EQUAL or m.seq.left.limit(True) == PLUS_INF


def is_compactoid(m: SubmoduleSpec) -> bool:
    return is_bounded(m) and _compactoid_if_bounded(m)


def classify(m: SubmoduleSpec) -> Classification:
    bounded = is_bounded(m)
    return Classification(is_open_lattice(m), bounded, bounded and _compactoid_if_bounded(m))


# ---------------------------------------------------------------------------
# membership


def membership(m: SubmoduleSpec, x: Series) -> str:
    """Certified membership of an explicit element.

    ``IN`` needs every coefficient valuation bound to clear the exponent;
    ``OUT`` needs one exactly known coefficient in violation; anything
    resting on zero-within-precision data stays ``UNKNOWN``.
    """
    if m.field_kind != x.kind:
        raise KindMismatch("module and element kinds differ")
    if any(c.val < m.seq.value_at(i) for i, c in x.stored):
        return Membership.OUT
    return Membership.IN if forall_ge(x.g, m.seq) else Membership.UNKNOWN


# ---------------------------------------------------------------------------
# fractional-ideal algebra


def _check_kinds(a: SubmoduleSpec, b: SubmoduleSpec) -> None:
    if a.field_kind != b.field_kind:
        raise KindMismatch(f"{a.field_kind} vs {b.field_kind}")


def module_sum(a: SubmoduleSpec, b: SubmoduleSpec) -> SubmoduleSpec:
    """Module sum; exponents combine as p^m + p^n = p^min(m,n)."""
    _check_kinds(a, b)
    return SubmoduleSpec(pointwise_min(a.seq, b.seq), a.field_kind)


def module_intersect(a: SubmoduleSpec, b: SubmoduleSpec) -> SubmoduleSpec:
    _check_kinds(a, b)
    return SubmoduleSpec(pointwise_max(a.seq, b.seq), a.field_kind)


def scale(m: SubmoduleSpec, a: PAdic) -> SubmoduleSpec:
    """The module ``a * m``; requires the exact valuation of ``a``."""
    if a.is_exact_zero:
        return SubmoduleSpec(SeqSpec.constant(PLUS_INF), m.field_kind)
    if not a.valuation_exact:
        raise PrecisionExhausted("scaling needs the exact valuation of the factor")
    return SubmoduleSpec(shift_add(m.seq, a.val.n), m.field_kind)


def product_bound(a: SubmoduleSpec, b: SubmoduleSpec) -> SubmoduleSpec:
    """Coefficientwise bound containing all products of the two modules."""
    _check_kinds(a, b)
    return SubmoduleSpec(minplus_convolve(a.seq, b.seq), a.field_kind)


def seminorm_bound_on(spec: SeminormSpec, m: SubmoduleSpec) -> ExtInt:
    """Symbolic ``sup over x in m`` of the seminorm exponent.

    Equals ``sup_i (n_i - k_i)``: on each coordinate the extreme element is
    the boundary monomial of exponent ``k_i``.
    """
    return sup_diff(spec.seq, m.seq)


# ---------------------------------------------------------------------------
# named modules and their literature-sourced classification


@cache  # every entry is frozen, so one table serves all callers
def _named_table() -> dict[str, tuple[SubmoduleSpec, Classification]]:
    inf, ninf = PLUS_INF, MINUS_INF

    def spec(kind, window, left, right):
        return SubmoduleSpec(
            SeqSpec.from_window(window, ConstTail(ExtInt.of(left)), ConstTail(ExtInt.of(right))),
            kind,
        )

    # the three Laurent modules share one set of flags, the three mixed ones another
    laurent = Classification(
        open_lattice=False, bounded=False, compactoid=False,
        complete=True, c_compact=True, closed=True,
    )
    mixed = Classification(
        open_lattice=False, bounded=True, compactoid=False,
        complete=True, c_compact=False, closed=True,
    )
    return {
        "K[[t]]": (spec(EQUAL, {0: ninf}, inf, ninf), laurent),
        "tK[[t]]": (spec(EQUAL, {1: ninf}, inf, ninf), laurent),
        "O+tK[[t]]": (spec(EQUAL, {0: 0}, inf, ninf), laurent),
        "O{{t}}": (spec(MIXED, {0: 0}, 0, 0), mixed),
        "p{{t}}": (spec(MIXED, {0: 1}, 1, 1), mixed),
        "rank2_mixed": (spec(MIXED, {0: 0}, 1, 0), mixed),  # p-below, O-above
    }


def named_module_names() -> list[str]:
    return sorted(_named_table())


def named(name: str) -> SubmoduleSpec:
    try:
        return _named_table()[name][0]
    except KeyError:
        raise UnknownName(f"no named module {name!r}") from None


def literature_classification(name: str) -> Classification:
    try:
        return _named_table()[name][1]
    except KeyError:
        raise UnknownName(f"no named module {name!r}") from None


# ---------------------------------------------------------------------------
# constructive unboundedness witnesses


def _monomial(m: SubmoduleSpec, index: int, val: int, prime: int) -> Series:
    return SERIES_KINDS[m.field_kind].monomial(prime, index, PAdic.pi_power(prime, val))


def unbounded_witness(
    m: SubmoduleSpec, target: int, prime: int
) -> tuple[SeminormSpec, list[Series]]:
    """An admissible seminorm and elements of ``m`` whose exponents reach
    ``target``, certifying that the module is unbounded.

    The seminorm mirrors the constructive proofs: a single coordinate
    weight against a fully open coordinate, the weight sequence
    ``-i + k_i`` along a decreasing support in the Laurent case, the
    0/-inf step against coefficients blowing up on the left, and the
    halved-exponent staircase against coefficients blowing up on the
    right of the doubly infinite field.  A Laurent weight window or a
    staircase of more than ``MAX_INDEX`` points raises :class:`ParseError`.
    """
    if is_bounded(m):
        raise ValueError("module is bounded; no witness exists")
    seq = m.seq
    ninf = ConstTail(MINUS_INF)

    i0 = _minus_inf_index(seq)
    if i0 is not None:
        # a fully open coordinate: weight it once, the monomial p^-target
        # there scores target
        spec = SeminormSpec(SeqSpec.from_window({i0: 0}, ninf, ninf), m.field_kind)
        return spec, [_monomial(m, i0, -target, prime)]

    if m.field_kind == EQUAL:
        # finite exponents at arbitrarily negative indices: weigh index i by
        # -i + k_i so the boundary monomial at i scores -i
        top = min(seq.window_lo - 1, -1)
        lo_i = min(-target, top)
        check_index(top - lo_i + 1, "witness length")
        window = {i: -i + seq.value_at(i).n for i in range(lo_i, top + 1)}
        spec = SeminormSpec(SeqSpec.from_window(window, ninf, ninf), EQUAL)
        elems = [
            _monomial(m, i, seq.value_at(i).n, prime) for i in range(lo_i, top + 1)
        ]
        return spec, elems

    if seq.left.limit(True) == MINUS_INF:
        # exponents drop without bound towards -inf: the 0/-inf step weighs
        # all indices at or below zero, where the boundary monomials blow up
        spec = SeminormSpec(
            SeqSpec.from_window({0: 0}, ConstTail(ExtInt(0)), ninf), MIXED
        )
        # the first index from min(lo - 1, 0) down whose exponent is at
        # most -target, in closed form: the left tail is affine there
        left = seq.left
        i = min(seq.window_lo - 1, 0, (-target - left.offset) // left.slope)
        return spec, [_monomial(m, i, left.at(i).n, prime)]

    # exponents drop without bound towards +inf: the halved-exponent
    # staircase n_i = floor(k_i / 2) is bounded above, still tends to -inf,
    # and scores -ceil(k_i / 2) on the boundary monomials
    right = seq.right
    assert isinstance(right, AffineTail) and right.slope <= -1
    start = max(seq.window_hi + 1, 0)
    # the first index from start whose exponent k_i is at most -2*target,
    # where -ceil(k_i / 2) reaches target, in closed form: the right tail is
    # affine there
    i = max(start, -((2 * target + right.offset) // right.slope))
    check_index(i - start + 1, "witness length")
    points = [(j, right.at(j).n // 2) for j in range(start, i + 1)]
    elems = [_monomial(m, j, right.at(j).n, prime) for j in range(start, i + 1)]
    # the window [0, i] holds n_start below start, at a cost per point
    spec_seq = SeqSpec.from_points(
        0, i, points, points[0][1], ninf, AffineTail(right.slope, points[-1][1] - right.slope * i)
    )
    return SeminormSpec(spec_seq, MIXED), elems
