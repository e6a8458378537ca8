"""Elements of the two fields of series over Q_p.

``EqualCharSeries`` models Laurent series: exact coefficients from the
order up to a truncation exponent, nothing known beyond it.
``MixedSeries`` models doubly infinite series whose coefficients have
valuations bounded below and tend to zero towards ``-inf``: a finite window
of coefficients plus per-side valuation guarantees.

Both kinds are one representation: the prime, the *stored* coefficients
(index -> ``PAdic``, each of exactly known valuation) and one guarantee
``g``, a :class:`~tdlf.seqspec.SeqSpec` bounding ``v(x_i)`` from below at
every index that is not stored and ``+inf`` at the stored ones.  A
coefficient known only to vanish modulo ``p^n`` is the bound ``n`` in
``g``, an exact zero is ``+inf`` and an unknown one (from a Laurent
truncation on) is ``-inf``.  The window of ``g`` is the series' window and
its tails are the tail guarantees, so a run of tail-covered positions is
one affine piece: the operations cost the stored coefficients and the
pieces of ``g``, not the distances between indices.  ``order``, ``trunc``,
``lo``, ``hi``, ``left``, ``right`` and ``coeffs`` are views derived from
``g``.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Mapping, Sequence, Union

from .errors import (
    IncompatiblePrimes,
    KindMismatch,
    ParseError,
    PrecisionExhausted,
    ZeroElement,
)
from . import _gmp
from .padic import _GMP_MUL_BITS, PAdic, _wide_product, check_prime, prime_power
from .seqspec import (
    MINUS_INF,
    PLUS_INF,
    AffineTail,
    ConstTail,
    ExtInt,
    Frozen,
    SeqSpec,
    check_index,
    convolution_frame,
    json_index,
    json_int,
    json_key,
    json_parse,
    run_pair,
)

__all__ = [
    "ZeroTail",
    "LeftValBound",
    "RightValBound",
    "EqualCharSeries",
    "MixedSeries",
    "ValuationResult",
    "add",
    "mul",
    "product_coeff",
    "partial_sum",
    "vF_exponent",
    "rank2_mixed",
    "rank2_equal",
]


class ZeroTail(Frozen):
    """All coefficients on this side are exactly zero."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"kind": "zero"}


class LeftValBound(Frozen):
    """Guarantee ``v(x_i) >= base + slope*(lo - i)`` for ``i < lo``.

    The slope must be at least 1 so the bound certifies ``x_i -> 0``.
    """

    __slots__ = _fields = ("slope", "base")

    def __init__(self, slope: int, base: int):
        if type(slope) is not int or type(base) is not int:  # also refuses bool
            raise TypeError(f"left tail bound needs ints, got {slope!r}, {base!r}")
        if slope < 1:
            raise ValueError("left tail bound needs slope >= 1")
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "base", base)

    def to_json(self) -> dict:
        return {"kind": "valbound", "slope": self.slope, "base": self.base}


class RightValBound(Frozen):
    """Guarantee ``v(x_i) >= floor`` for ``i > hi``."""

    __slots__ = _fields = ("floor",)

    def __init__(self, floor: int):
        if type(floor) is not int:  # also refuses bool
            raise TypeError(f"right tail bound needs an int, got {floor!r}")
        object.__setattr__(self, "floor", floor)

    def to_json(self) -> dict:
        return {"kind": "valbound", "floor": self.floor}


LeftTail = Union[ZeroTail, LeftValBound]
RightTail = Union[ZeroTail, RightValBound]

PLUS_TAIL = ConstTail(PLUS_INF)
MINUS_TAIL = ConstTail(MINUS_INF)
_INDEX = operator.itemgetter(0)


class ValuationResult(Frozen):
    """A valuation together with an exactness flag (lower bound if inexact)."""

    __slots__ = _fields = ("value", "exact")

    def __init__(self, value: ExtInt, exact: bool):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "exact", exact)

    def to_json(self) -> dict:
        return {"value": self.value.to_json(), "exact": self.exact}


def _tail_from_json(obj: Mapping, bound: type) -> Union[LeftTail, RightTail]:
    """A ``zero`` tail, or a ``valbound`` one read into ``bound``'s fields."""
    kind = obj["kind"]
    if kind == "zero":
        return ZeroTail()
    if kind == "valbound":
        return bound(*(json_int(obj[f]) for f in bound._fields))
    raise ValueError(f"unknown tail kind {kind!r}")


def _coeffs_from_json(obj: Mapping) -> dict[int, PAdic]:
    what = "bad key 'coeffs': index"
    return {check_index(json_index(k), what): PAdic.from_json(v) for k, v in obj.items()}


def _index_field(obj: Mapping, key: str) -> int:
    return check_index(json_parse(obj, key, json_int), f"bad key {key!r}: index")


def _split(prime: int, coeffs: Mapping) -> tuple[tuple[tuple[int, PAdic], ...], list[tuple[int, ExtInt]]]:
    """The stored coefficients of a mapping of index to ``PAdic``, in index
    order, and the ``(index, precision)`` of the zero-within-precision ones;
    exact zeros drop.  TypeError for anything but a mapping, and names an
    index that is not an ``int`` (``bool`` included)."""
    if not isinstance(coeffs, Mapping):
        raise TypeError(f"coefficients need a mapping, got {type(coeffs).__name__}")
    for i in coeffs:
        if type(i) is not int:
            raise TypeError(f"coefficient index needs an int, got {i!r}")
    stored, bounds = [], []
    for i, c in sorted(coeffs.items(), key=_INDEX):
        if c.prime != prime:
            raise IncompatiblePrimes(f"coefficient prime {c.prime} != {prime}")
        if c.unit:
            stored.append((i, c))
        elif c.val.is_finite:
            bounds.append((i, c.val))
    return tuple(stored), bounds


def _held(split: tuple) -> list[int]:
    """The least and the greatest index of a ``_split``, none if it is empty."""
    ends = [i for part in split if part for i in (part[0][0], part[-1][0])]
    return [min(ends), max(ends)] if ends else []


class _Series(Frozen):
    """The base of both series kinds: ``prime``, ``stored`` and ``g`` (see
    the module docstring), which are its value, and the ring operators.  A
    subclass's ``__init__`` turns its constructor arguments into ``g``; its
    ``_view`` names them, the views ``to_json`` writes; ``repr`` prints the fields."""

    __slots__ = ("prime", "stored", "g", "_map_cache", "_bounds_cache")
    _fields = ("prime", "stored", "g")
    _view: tuple[str, ...] = ()

    @classmethod
    def _make(cls, prime: int, stored: tuple, g: SeqSpec) -> "_Series":
        out = object.__new__(cls)
        out._set(prime, stored, g)
        return out

    def _set(self, prime: int, stored: tuple, g: SeqSpec) -> None:
        set_ = object.__setattr__
        set_(self, "prime", prime)
        set_(self, "stored", stored)
        set_(self, "g", g)

    @property
    def _map(self) -> dict[int, PAdic]:
        """``dict(self.stored)``, built on first use and kept in a slot."""
        try:
            return self._map_cache
        except AttributeError:
            m = dict(self.stored)
            object.__setattr__(self, "_map_cache", m)
            return m

    @property
    def coeffs(self) -> tuple[tuple[int, PAdic], ...]:
        """The stored coefficients and, at each window index where ``g`` is
        finite, the zero-within-precision coefficient it bounds, in index
        order: one entry per such index, for output."""
        p = self.prime
        bounds = [
            (i, PAdic.zero_mod(p, slope * i + offset))
            for x, y, slope, offset in _finite(self.g.pieces)
            for i in range(x, y + 1)
        ]
        return tuple(sorted(self.stored + tuple(bounds), key=_INDEX)) if bounds else self.stored

    def coeff(self, i: int) -> PAdic:
        """The coefficient at ``i``: a stored one, or zero within the bound
        ``g`` gives there (exactly zero at ``+inf``)."""
        c = self._map.get(i)
        if c is not None:
            return c
        v = self.g.value_at(i)
        if v == PLUS_INF:
            return PAdic.zero(self.prime)
        if v == MINUS_INF:
            raise PrecisionExhausted(f"coefficient {i} is beyond the truncation")
        return PAdic.zero_mod(self.prime, v.n)

    def bound_seq(self) -> SeqSpec:
        """Valuation lower bounds at every index: ``g`` with the valuations
        of the stored coefficients; ``-inf`` marks the unknown region.
        Built on first use and kept in a slot."""
        try:
            return self._bounds_cache
        except AttributeError:
            g = self.g
            points = ((i, c.val) for i, c in self.stored)
            b = SeqSpec.from_points(g.window_lo, g.window_hi, points, g, g.left, g.right)
            object.__setattr__(self, "_bounds_cache", b)
            return b

    def to_json(self) -> dict:
        """``kind`` and the fields that ``_view`` names."""
        out = {"kind": self.kind}
        for f in self._view:
            v = getattr(self, f)
            if f == "coeffs":
                v = {str(i): c.to_json() for i, c in v}
            elif type(v) is not int:
                v = v.to_json()
            out[f] = v
        return out

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, -other)

    def __neg__(self):
        return self._make(self.prime, tuple((i, -c) for i, c in self.stored), self.g)

    def __mul__(self, other):
        return mul(self, other)


# ---------------------------------------------------------------------------
# equal characteristic: Laurent series


class EqualCharSeries(_Series):
    """Laurent series known exactly below the truncation exponent.

    ``order`` is a lower bound for the support; coefficients live in
    ``[order, trunc)`` and indices absent there are exactly zero.  Nothing
    is known at or above ``trunc``.  So ``g`` is ``+inf`` below the order
    and ``-inf`` from the truncation on, and its window runs from the order
    to the truncation or, without one, to the last coefficient.  When
    ``trunc <= order`` the window ``[trunc, order]`` is all ``-inf``, as is
    all of ``g`` for a truncation at ``-inf``.
    """

    __slots__ = ()
    _view = ("prime", "order", "coeffs", "trunc")

    kind = "equal"

    def __init__(
        self, prime: int, order: int, coeffs: tuple[tuple[int, PAdic], ...], trunc: ExtInt
    ):
        self._init(prime, order, _split(prime, dict(coeffs)), ExtInt.of(trunc))

    def _init(self, prime: int, order: int, split: tuple, trunc: ExtInt) -> None:
        stored, bounds = split
        for i, _ in (*stored, *bounds):
            if i < order or trunc <= i:
                raise ValueError(f"coefficient index {i} outside [order, trunc)")
        self._set(prime, stored, _equal_g(order, trunc, stored, bounds, PLUS_INF, order))

    @property
    def _unknown_from_start(self) -> bool:
        """Whether ``trunc <= order``: ``g`` opens on its ``-inf`` run."""
        return self.g.pieces[0][2:] == (None, -1)

    @property
    def order(self) -> int:
        g = self.g
        return g.window_hi if self._unknown_from_start else g.window_lo

    @property
    def trunc(self) -> ExtInt:
        g = self.g
        if g.right.value == PLUS_INF:
            return PLUS_INF
        if g.left.value == MINUS_INF:
            return MINUS_INF
        return ExtInt(g.window_lo if self._unknown_from_start else g.window_hi + 1)

    @staticmethod
    def zero(prime: int) -> "EqualCharSeries":
        return EqualCharSeries(prime, 0, (), PLUS_INF)

    @staticmethod
    def from_coeffs(
        prime: int,
        coeffs: Mapping[int, PAdic],
        order: int | None = None,
        trunc: Union[ExtInt, int] = PLUS_INF,
    ) -> "EqualCharSeries":
        split = _split(prime, coeffs)
        if order is None:
            order = (_held(split) or [0])[0]
        out = object.__new__(EqualCharSeries)
        out._init(prime, order, split, ExtInt.of(trunc))
        return out

    @staticmethod
    def monomial(prime: int, index: int, coeff: PAdic) -> "EqualCharSeries":
        return EqualCharSeries.from_coeffs(prime, {index: coeff}, order=index)


# ---------------------------------------------------------------------------
# mixed characteristic: doubly infinite series


class MixedSeries(_Series):
    """Doubly infinite series with certified coefficient decay.

    The left guarantee forces ``v(x_i) -> +inf`` as ``i -> -inf`` and the
    global valuation floor is finite, which is exactly what membership in
    the field requires.  ``g`` is ``+inf`` at the window indices that hold
    nothing, and its tails are the left bound (affine, decreasing to the
    right) and the right floor (constant), ``+inf`` for a zero tail.
    """

    __slots__ = ()
    _view = ("prime", "lo", "hi", "coeffs", "left", "right")

    kind = "mixed"

    def __init__(
        self,
        prime: int,
        lo: int,
        hi: int,
        coeffs: tuple[tuple[int, PAdic], ...],
        left: LeftTail,
        right: RightTail,
    ):
        if lo > hi:
            raise ValueError("window must satisfy lo <= hi")
        self._init(prime, lo, hi, _split(prime, dict(coeffs)), left, right)

    def _init(self, prime: int, lo: int, hi: int, split: tuple, left: LeftTail, right: RightTail):
        stored, bounds = split
        for i, _ in (*stored, *bounds):
            if not lo <= i <= hi:
                raise ValueError(f"coefficient index {i} outside window")
        if isinstance(left, ZeroTail):
            lt: ConstTail | AffineTail = PLUS_TAIL
        else:  # base + slope*(lo - i) as a function of i
            lt = AffineTail(-left.slope, left.base + left.slope * lo)
        rt = PLUS_TAIL if isinstance(right, ZeroTail) else ConstTail(ExtInt(right.floor))
        self._set(prime, stored, SeqSpec.from_points(lo, hi, bounds, PLUS_INF, lt, rt))

    @property
    def lo(self) -> int:
        return self.g.window_lo

    @property
    def hi(self) -> int:
        return self.g.window_hi

    @property
    def left(self) -> LeftTail:
        t = self.g.left
        if isinstance(t, ConstTail):  # +inf
            return ZeroTail()
        return LeftValBound(-t.slope, t.offset + t.slope * self.lo)

    @property
    def right(self) -> RightTail:
        v = self.g.right.value
        return ZeroTail() if v == PLUS_INF else RightValBound(v.n)

    @staticmethod
    def zero(prime: int) -> "MixedSeries":
        return MixedSeries(prime, 0, 0, (), ZeroTail(), ZeroTail())

    @staticmethod
    def from_coeffs(
        prime: int,
        coeffs: Mapping[int, PAdic],
        left: LeftTail = ZeroTail(),
        right: RightTail = ZeroTail(),
        lo: int | None = None,
        hi: int | None = None,
    ) -> "MixedSeries":
        split = _split(prime, coeffs)
        held = _held(split)
        if held:
            lo = held[0] if lo is None else min(lo, held[0])
            hi = held[1] if hi is None else max(hi, held[1])
        else:
            lo = 0 if lo is None else lo
            hi = lo if hi is None else max(hi, lo)
        out = object.__new__(MixedSeries)
        out._init(prime, lo, hi, split, left, right)
        return out

    @staticmethod
    def monomial(prime: int, index: int, coeff: PAdic) -> "MixedSeries":
        return MixedSeries.from_coeffs(prime, {index: coeff})

    def valuation_floor(self) -> ExtInt:
        """A certified lower bound for all coefficient valuations."""
        return vF_exponent(self).value


Series = Union[EqualCharSeries, MixedSeries]
SERIES_KINDS = {cls.kind: cls for cls in (EqualCharSeries, MixedSeries)}


def series_from_json(obj: Mapping) -> Series:
    kind = json_key(obj, "kind")
    if kind not in ("equal", "mixed"):
        raise ParseError(f"bad key 'kind': unknown series kind {kind!r}")
    prime = check_prime(json_parse(obj, "prime", json_int))
    coeffs = json_parse(obj, "coeffs", _coeffs_from_json)
    try:
        if kind == "equal":
            trunc = json_parse(obj, "trunc", ExtInt.from_json)
            if trunc.is_finite:
                check_index(trunc.n, "bad key 'trunc': index")
            return EqualCharSeries.from_coeffs(
                prime, coeffs, order=_index_field(obj, "order"), trunc=trunc
            )
        return MixedSeries.from_coeffs(
            prime,
            coeffs,
            left=json_parse(obj, "left", lambda t: _tail_from_json(t, LeftValBound)),
            right=json_parse(obj, "right", lambda t: _tail_from_json(t, RightValBound)),
            lo=_index_field(obj, "lo"),
            hi=_index_field(obj, "hi"),
        )
    except ValueError as exc:  # a coefficient outside [order, trunc)
        raise ParseError(f"bad key 'coeffs': {exc}") from None


def _check_pair(x: Series, y: Series) -> None:
    if x.kind != y.kind:
        raise KindMismatch(f"{x.kind} vs {y.kind}")
    if x.prime != y.prime:
        raise IncompatiblePrimes(f"{x.prime} vs {y.prime}")


def _finite(spans: Sequence[tuple]) -> list[tuple]:
    """The runs of ``spans`` with a finite value."""
    return [s for s in spans if s[2] is not None]


def _equal_g(order: int, trunc: ExtInt, stored: tuple, points: list, fill, hi: int) -> SeqSpec:
    """The guarantee of the Laurent series of ``order`` and ``trunc`` that
    stores ``stored``: ``+inf`` below the order and ``-inf`` from the
    truncation on, and in between the ``points`` ``(index, value)`` and
    ``fill`` (a value, or a sequence read up to ``hi``) elsewhere.  Without
    a truncation the window ends at the last index holding anything."""
    if trunc <= order:
        lo, left = (order, MINUS_TAIL) if trunc == MINUS_INF else (trunc.n, PLUS_TAIL)
        return SeqSpec.from_points(lo, order, (), MINUS_INF, left, MINUS_TAIL)
    if trunc.is_finite:
        return SeqSpec.from_points(order, trunc.n - 1, points, fill, PLUS_TAIL, MINUS_TAIL)
    ends = [order, *(i for i, _ in stored[-1:]), *(i for i, v in points if v != PLUS_INF)]
    if isinstance(fill, SeqSpec):
        ends += [y for _, y, _, _ in _finite(fill.spans(order, hi))[-1:]]
    end = max(ends)
    if end > hi:  # nothing held past hi: end is the order
        fill = PLUS_INF
    return SeqSpec.from_points(order, end, [q for q in points if q[0] <= end], fill, PLUS_TAIL, PLUS_TAIL)


# ---------------------------------------------------------------------------
# addition


def add(x: Series, y: Series) -> Series:
    """The sum.  Each stored coefficient is known only modulo the other
    summand's bound there (and not at all past a truncation); off the stored
    indices the guarantee is the least of the two.  Beyond the window of a
    mixed sum the left bound takes the least slope and the least base at
    the new ``lo``."""
    _check_pair(x, y)
    p, gx, gy = x.prime, x.g, y.g
    lo, hi = min(gx.window_lo, gy.window_lo), max(gx.window_hi, gy.window_hi)
    total = {}
    for a, b in ((x, y), (y, x)):
        for i, c in a.stored:
            if i not in total:
                try:
                    total[i] = c + b.coeff(i)
                except PrecisionExhausted:  # past b's truncation the sum is unknown
                    pass
    items = sorted(total.items())
    stored = tuple((i, c) for i, c in items if c.unit)
    points = [(i, PLUS_INF if c.unit else c.val) for i, c in items]
    rx, ry = _finite(gx.spans(lo, hi)), _finite(gy.spans(lo, hi))
    if rx and ry:
        least = SeqSpec.from_terms(lo, hi, rx + ry, PLUS_TAIL, PLUS_TAIL)
    else:  # the other summand's guarantee is +inf on all of [lo, hi]
        least = gx if rx else gy
    if isinstance(x, EqualCharSeries):
        order, trunc = min(x.order, y.order), min(x.trunc, y.trunc)
        return EqualCharSeries._make(p, stored, _equal_g(order, trunc, stored, points, least, hi))
    left = _least_left(gx.left, gy.left, lo)
    right = ConstTail(min(gx.right.value, gy.right.value))
    return MixedSeries._make(p, stored, SeqSpec.from_points(lo, hi, points, least, left, right))


def _least_left(a, b, lo: int):
    """The left guarantee of a sum: the least slope and the least value at
    ``lo`` of the two bounds, a zero tail (``+inf``) giving way."""
    if isinstance(a, ConstTail):  # +inf
        return b
    if isinstance(b, ConstTail):
        return a
    slope = max(a.slope, b.slope)  # the bounds fall to the right: -slope is the decay
    return AffineTail(slope, min(a.at(lo), b.at(lo)).n - slope * lo)


# ---------------------------------------------------------------------------
# multiplication


def mul(x: Series, y: Series, target_precision: int | None = None) -> Series:
    """Product of two series of the same kind, by one path for both kinds.

    Each output coefficient is the exact sum over the pairs of stored
    coefficients plus a zero-within-precision remainder whose bound covers
    every pair with a factor that is not stored (``_remainder``); the
    coefficient precision reports exactly what is certified.  Only indices
    with a stored pair get a coefficient: every other index of the product
    window takes the remainder into ``g``, so the product costs its stored
    pairs and the pieces of the remainder.  When ``target_precision`` is
    given, the first index certified below it raises
    :class:`PrecisionExhausted`; the precisions are known before any
    coefficient is multiplied, so a failing target costs no big-int work.
    The precisions of the indices with a stored pair (``_pair_precisions``)
    come from one packed min-plus product per convolution, or from the pair
    walk when the stored counts and spans make that cheaper, and only up
    to the first index where the remainder fails the target.
    The product computes only the digits its certified precision keeps:
    the units are reduced to the highest output precision before they are
    multiplied, then multiplied by four-point Kronecker substitution
    (``_diagonal_sums``), whose wide big-int products go to the system GMP
    (``_mul``).  On hosts where libgmp does not load, the widest take one
    Toom-3 layer above CPython's Karatsuba instead; the outputs are the same.

    The kinds differ only in the frame.  A Laurent product takes its order
    and truncation from ``_equal_frame``.  Of the min-plus convolution of
    the factors' valuation bounds a mixed product reads only the window
    ends and the tails: it unpacks them from ``convolution_frame``, which
    pairs no window run.
    """
    _check_pair(x, y)
    p, xs, ys = x.prime, _units(x), _units(y)
    gx, gy = x.g, y.g
    if isinstance(x, EqualCharSeries):
        order, trunc = _equal_frame(x, y)
        cut = trunc.n if trunc.is_finite else math.inf  # nothing is known from trunc on
        lo, hi = order, max(order, min(cut - 1, gx.window_hi + gy.window_hi))
    else:
        cut = math.inf
        flo, fhi, left, right = convolution_frame(x.bound_seq(), y.bound_seq())
        lo = min(gx.window_lo + gy.window_lo, flo)
        hi = max(gx.window_hi + gy.window_hi, fhi)
    rem = SeqSpec.from_terms(lo, hi, _remainder(x, y, lo, hi), PLUS_TAIL, PLUS_TAIL)
    first = None if target_precision is None else rem.first_at_most(target_precision - 1, lo, hi)
    precs = _pair_precisions(xs, ys, rem, cut if first is None else first + 1)
    if target_precision is not None:
        k = next((k for k, q in precs.items() if q < target_precision), first)
        if k is not None:
            q = precs[k] if k in precs else rem.value_at(k).n
            raise PrecisionExhausted(f"coefficient {k} certified only modulo p^{q}")
    total = _products(p, xs, ys, precs)
    points = [(k, PLUS_INF if c.unit else c.val) for k, c in total.items()]
    stored = tuple((k, c) for k, c in total.items() if c.unit)
    if isinstance(x, EqualCharSeries):
        return EqualCharSeries._make(p, stored, _equal_g(order, trunc, stored, points, rem, hi))
    g = SeqSpec.from_points(lo, hi, points, rem, left, right)
    return MixedSeries._make(p, stored, g)


def product_coeff(x: Series, y: Series, k: int) -> PAdic:
    """``mul(x, y).coeff(k)`` from the stored pairs on ``i + j = k`` and the
    remainder at ``k``, for both kinds; the product is never built, and no
    frame or convolution is computed.

    Raises what ``mul(x, y).coeff(k)`` raises, except that below the order
    of a Laurent product the coefficient is zero whatever its truncation.
    A mixed product needs no check of its frame: left bounds have slope at
    least 1 and right bounds are constant, so every ray of the product's
    left tail has slope at most -1 (it decays) and every ray of its right
    tail is constant.  Like ``mul``, it computes only the digits its
    certified precision keeps.
    """
    _check_pair(x, y)
    p = x.prime
    if isinstance(x, EqualCharSeries):
        order, trunc = _equal_frame(x, y)
        if k < order:
            return PAdic.zero(p)
        if ExtInt(k) >= trunc:
            raise PrecisionExhausted(f"coefficient {k} is beyond the truncation")
    rem = min((s * k + o for k0, k1, s, o in _remainder(x, y, k, k) if k0 <= k <= k1), default=math.inf)
    xs, ys = _units(x), _units(y)
    return _coefficient(p, ((a, ys[k - i]) for i, a in xs.items() if k - i in ys), rem)


def _equal_frame(x: EqualCharSeries, y: EqualCharSeries) -> tuple[int, ExtInt]:
    """Order and truncation of a Laurent product; an exact zero absorbs."""
    if any(s.trunc == PLUS_INF and not s.stored and not _finite(s.g.pieces) for s in (x, y)):
        return 0, PLUS_INF
    return x.order + y.order, min(x.order + y.trunc, y.order + x.trunc)


def _remainder(x: Series, y: Series, lo: int, hi: int) -> list[tuple]:
    """The remainder of any product on ``lo .. hi``, as affine terms ``(k0,
    k1, slope, offset)`` whose least value at each index is the remainder
    there, ``+inf`` where none covers it: O(runs) of them, none for a factor
    ``A`` with no finite value in ``g``.

    The remainder at ``k`` is the least ``g_A(i) + w_B(j)``, ``i + j = k``,
    over the pairs in which a factor ``A`` is not stored at ``i`` (it lies in
    a bound tail or is zero within precision), ``w_B`` being the valuation
    bounds (``bound_seq``) of the other factor ``B``.  Only finite values of
    ``g_A`` count: the ``-inf`` of a Laurent truncation is left to
    ``_equal_frame``.

    For each ordered pair of factors ``(A, B)``, read ``w_B`` as its runs
    from ``B.lo - 1`` to ``B.hi + 1``: its window and each bound tail at
    its end next to the window.  A right floor ``f`` of ``A`` gives ``f +
    min{w_j : j < k - A.hi}``, a running minimum, and a left bound ``base +
    s*(A.lo - i)`` gives ``base + s*(A.lo - k) + min{w_j + s*j : j > k -
    A.lo}``, a running minimum from the right: each is affine between the
    indices where it changes run, so it costs the runs of ``w_B``.  The
    tail ends give the tail-by-tail terms in closed form: a left bound
    grows leftwards and a right floor is constant, so two right floors meet
    at ``f_x + f_y`` from ``k = x.hi + y.hi + 2`` on, two left bounds at
    the lesser of their values at ``i = k - y.lo + 1`` and ``i = x.lo -
    1``, and a left bound of ``x`` meets a right floor at ``i = min(x.lo -
    1, k - y.hi - 1)``.  A finite run of ``g_A`` inside the window against
    a run of ``w_B`` inside its window is linear in ``i`` along ``i + j =
    k``, so its least value sits at an end of the feasible ``i`` and gives
    two affine terms.  The remainder is the least of all these terms.
    """
    terms: list[tuple] = []
    for a, b in ((x, y), (y, x)):
        ga = a.g
        window, floor = _finite(ga.pieces), ga.right.value
        if not (window or floor.is_finite or isinstance(ga.left, AffineTail)):
            continue
        w = b.bound_seq()
        runs = _finite(w.spans(w.window_lo - 1, w.window_hi + 1))
        if floor.is_finite:
            f, d = floor.n, ga.window_hi + 1
            for start, end, s, o in _running_min(runs, hi - d):
                terms.append((start + d, end + d, s, o - s * d + f))
        if isinstance(ga.left, AffineTail):
            sa, ca, e = ga.left.slope, ga.left.offset, ga.window_lo - 1
            # w_j - sa*j at -j, so that its minimum over j >= J is a running one
            mirrored = ((-j1, -j0, sa - s, o) for j0, j1, s, o in reversed(runs))
            for start, end, s, o in _running_min(mirrored, e - lo):
                terms.append((e - end, e - start, sa - s, ca + s * e + o))
        inner = [r for r in runs if w.window_lo <= r[0] and r[1] <= w.window_hi]
        for run in window:
            for other in inner:
                terms += run_pair(run, other)
    return terms


def _running_min(runs, last: int) -> list[tuple[int, int, int, int]]:
    """``K -> min{w_j : j <= K}`` for the finite runs ``(x, y, slope,
    offset)`` of ``w`` in index order, as ``(start, end, slope, offset)``
    pieces up to ``K = last``; none before the first run."""
    # (start, slope, offset), each up to the next; one that the next starts
    # with spans nothing, and drops at the end
    marks: list[tuple[int, int, int]] = []
    m = math.inf
    for x, y, s, o in runs:
        if x > last:
            break
        if s >= 0:
            if s * x + o < m:
                m = s * x + o
                marks.append((x, 0, m))
            continue
        c = x if m == math.inf else max(x, (m - o) // s + 1)  # s*j + o < m from c on
        if c <= y:
            marks.append((c, s, o))
            m = s * y + o
            marks.append((y + 1, 0, m))
    ends = [start - 1 for start, _, _ in marks[1:]] + [last]
    return [(start, end, s, o) for (start, s, o), end in zip(marks, ends) if start <= end]


def _units(x: Series) -> dict[int, tuple[int, int, int]]:
    """The coefficients a product multiplies pairwise, as ``i -> (val,
    unit, precision)`` integers in increasing ``i``: the stored ones, of
    either kind (``_remainder`` covers the rest)."""
    return {i: (c.val.n, c.unit, c.precision.n) for i, c in x.stored}


def _pair_precisions(xs: dict, ys: dict, rem: SeqSpec, cut: float) -> dict[int, int]:
    """Per product index ``k = i + j < cut`` of the stored pairs, in index
    order, the least of ``rem`` at ``k`` and of ``min(p_i + v_j, v_i +
    p_j)`` over its pairs, the min-plus convolutions ``P_x (+) V_y`` and
    ``V_x (+) P_y``: from ``_packed`` when the stored counts and index
    spans make it cheaper than the ``n*m`` steps of ``_walk`` and its levels
    fit, else from ``_walk``.  They meet ``rem`` in one pass over its runs.
    """
    if not (xs and ys):
        return {}
    i0, i1, j0, j1 = next(iter(xs)), next(reversed(xs)), next(iter(ys)), next(reversed(ys))
    klo, khi = i0 + j0, min(i1 + j1, cut - 1)
    if khi < klo:
        return {}
    runs, sx, sy, nm = rem.spans(klo, khi), i1 - i0 + 1, j1 - j0 + 1, len(xs) * len(ys)
    cheap = nm >= 4 * (sx + sy) and sx * sy <= 16 * nm  # sizes only
    pairs = cheap and _packed(xs, ys, sx, sy, khi - klo + 1, runs) or sorted(_walk(xs, ys, cut).items())
    out, left, y = {}, iter(runs), klo - 1
    for k, q in pairs:
        while y < k:
            _, y, s, o = next(left)
        out[k] = s * k + o if s is not None and s * k + o < q else q
    return out


def _packed(xs: dict, ys: dict, sx: int, sy: int, count: int, runs: list) -> list | None:
    """``(k, q)`` for the first ``count`` indices ``k`` from ``min xs + min
    ys`` that have a stored pair, ``sx`` and ``sy`` being the index spans:
    ``q`` is the pair minimum where it is below ``cap``, the largest value
    of the remainder ``runs``, and at least ``cap`` elsewhere; None when a
    product's levels do not fit one 64-bit slot.

    A convolution is one big-int product (Yuval 1976).  A value ``a`` of a
    factor whose values start at ``a0`` is one bit at level ``r - min(a -
    a0, r)`` of its index's slot, ``w = bitlen(min(n, m))`` bits a level so
    that the at most ``min(n, m)`` pairs of an index never carry, and the
    highest level set in a product slot is its least sum.  No sum at or
    above ``cap`` beats the remainder, so ``r`` stops at ``cap - a0 - b0``:
    a convolution whose least sum reaches ``cap`` is dropped, and if both
    are, one single-level product marks the indices with a pair.
    """
    cap = max(math.inf if s is None else max(s * x, s * y) + o for x, y, s, o in runs)
    w = min(len(xs), len(ys)).bit_length()
    k0 = next(iter(xs)) + next(iter(ys))
    (vx, _, px), (vy, _, py) = zip(*xs.values()), zip(*ys.values())
    sums = []
    for a, b in ((px, vy), (vx, py)):
        a0, b0 = min(a), min(b)
        clip = max(cap - a0 - b0, 0)
        ra, rb = min(max(a) - a0, clip), min(max(b) - b0, clip)
        if (ra + rb + 1) * w > 64:
            return None
        sums.append((clip, a0 + b0 + ra + rb, (xs, a, a0 + ra, w, sx), (ys, b, b0 + rb, w, sy)))
    tables = []
    for _, top, fa, fb in [t for t in sums if t[0]] or sums[:1]:
        prod = (_levels(*fa) * _levels(*fb)).to_bytes(8 * (sx + sy - 1), "little")
        bits = map(int.bit_length, struct.unpack_from(f"<{count}Q", prod))
        tables.append([top - (n - 1) // w if n else None for n in bits])
    return [(k0 + t, min(q)) for t, q in enumerate(zip(*tables)) if q[0] is not None]


def _levels(stored: dict, values: tuple, top: int, w: int, size: int) -> int:
    """One bit per value ``a`` at level ``max(top - a, 0)`` of its index's slot."""
    buf, i0 = bytearray(8 * size), next(iter(stored))
    for i, a in zip(stored, values):
        bit = w * (top - a) if a < top else 0
        buf[8 * (i - i0) + (bit >> 3)] = 1 << (bit & 7)
    return int.from_bytes(buf, "little")


def _walk(xs: dict, ys: dict, cut: float) -> dict[int, int]:
    """Per product index ``k = i + j < cut`` of the stored pairs, the least
    ``min(p_i + v_j, p_j + v_i)`` of its pairs, by one walk over the pairs
    that stops each row at ``cut``."""
    out: dict[int, int] = {}
    yl = [(j, vj, pj) for j, (vj, _, pj) in ys.items()]
    for i, (vi, _, pi) in xs.items():
        for j, vj, pj in yl:
            k = i + j
            if k >= cut:
                break
            a, b = pi + vj, pj + vi
            q = a if a < b else b
            if q < out.get(k, math.inf):
                out[k] = q
    return out


def _products(p: int, xs: dict, ys: dict, precs: dict[int, int]) -> dict[int, PAdic]:
    """The coefficient ``sum x_i y_j`` over ``i + j = k`` reduced modulo
    ``p^precs[k]``, for every ``k`` in ``precs``.

    ``PAdic.make`` is canonical on residue classes, so a sum congruent to
    the exact diagonal sum modulo the highest precision kept gives what the
    chain of ``PAdic`` products and sums gives.
    """
    if not precs:
        return {}
    widest = max((pi - vi for vi, _, pi in [*xs.values(), *ys.values()]), default=0)
    if _val_span(xs) + _val_span(ys) > widest:
        # scaled to one valuation, the units would be wider than any
        # coefficient needs (a pair certifies at most its widest relative
        # precision): multiply the pairs of each coefficient alone
        pairs: dict[int, list] = {k: [] for k in precs}
        for i, a in xs.items():
            for j, b in ys.items():
                if (g := pairs.get(i + j)) is not None:
                    g.append((a, b))
        return {k: _coefficient(p, g, precs[k]) for k, g in pairs.items()}
    v, sums = _diagonal_sums(p, xs, ys, max(precs.values()))
    return {k: PAdic.make(p, v, sums.get(k, 0), q) for k, q in precs.items()}


def _val_span(xs: dict) -> int:
    """The spread of the valuations of the nonzero units of ``xs``."""
    vals = [vi for vi, u, _ in xs.values() if u]
    return max(vals) - min(vals) if vals else 0


def _diagonal_sums(p: int, xs: dict, ys: dict, prec: int) -> tuple[int, dict[int, int]]:
    """The diagonal sums of the stored units by four-point Kronecker
    substitution (Harvey 2009, KS4): four big-int products per pair of runs
    (see ``_runs``), each of operands about half as wide as a two-point
    product needs.

    With ``v`` the least valuation of a nonzero unit of a factor, its units
    are scaled to ``a_i = u_i p^(v_i - v)``, and then they are
    reduced modulo ``p^R``, ``R = prec - v_x - v_y``: a sum kept modulo at
    most ``p^prec`` depends on no higher digit, and ``R <= 0`` needs no
    multiply.  ``S_k = sum_{i+j=k} a_i b_j`` then takes fewer than ``bits =
    bits_x + bits_y + bitlen(min(#x, #y))`` bits.  ``_pack_pm`` evaluates a
    run at ``2^N`` and ``-2^N``, ``N = 8h``, with ``h`` bytes holding a
    quarter of ``bits + 1`` and half of every unit.  The products ``P+-`` of
    two runs split by parity into ``F_e = sum_t c_t 2^(tM)``, ``M = 2N``,
    ``c_t = S_(i0 + j0 + 2t + e)``: the even sums are ``(P+ + P-) / 2``, the
    odd ones ``(P+ - P-) / 2^(N+1)``, exactly, as every ``S_k >= 0``.  As
    ``32h >= bits + 1``, a ``c_t`` is below ``2^(2M-1)``: wider than its
    ``M``-bit slot, so neighbours overlap.  The reflected runs (``i -> -i``)
    multiply to the reversed product, ``S_k`` at power ``top - k``, ``top =
    n_x + n_y - 2``, whose half of parity ``(top - e) mod 2`` is ``G_e =
    sum_t c_t 2^((T-1-t)M)`` over the ``T`` sums of parity ``e``; ``_unfold``
    reads each ``c_t`` from ``F_e`` and ``G_e``.  The four products of a run
    pair go to ``*`` when the shorter run spans fewer than ``_WIDE_BITS``
    bits, and to ``_mul`` (GMP, or Toom-3) otherwise.  Returns ``v_x + v_y``
    and the nonzero ``S_k``.
    """
    vx, vy = _least_val(xs), _least_val(ys)
    r = prec - vx - vy
    if r <= 0:
        return vx + vy, {}
    ax, ay = _scaled(p, xs, vx, r), _scaled(p, ys, vy, r)
    if not ax or not ay:
        return vx + vy, {}
    bx = max(a.bit_length() for _, a in ax)
    by = max(b.bit_length() for _, b in ay)
    bits = bx + by + min(len(ax), len(ay)).bit_length()
    h = max(-(-(bits + 1) // 32), -(-bx // 16), -(-by // 16))
    n = 8 * h
    packed_y = [(_pack_pm(run, h), _pack_pm(_reflected(run), h)) for run in _runs(ay)]
    sums: dict[int, int] = {}
    for run in _runs(ax):
        i0, nx, xp, xm = _pack_pm(run, h)
        _, _, rxp, rxm = _pack_pm(_reflected(run), h)
        for (j0, ny, yp, ym), (_, _, ryp, rym) in packed_y:
            times = operator.mul if min(nx, ny) * n < _WIDE_BITS else _mul
            forward = [*_halves(times(xp, yp), times(xm, ym), n)]
            backward = [*_halves(times(rxp, ryp), times(rxm, rym), n)]
            # the odd sums first, so that each half is popped for its pass
            # and dropped once _unfold has read it
            odd = (nx + ny - 3) % 2  # the half of backward that the odd sums read
            _unfold(forward.pop(), backward.pop(odd), (nx + ny - 1) // 2, h, i0 + j0 + 1, sums)
            _unfold(forward.pop(), backward.pop(), (nx + ny) // 2, h, i0 + j0, sums)
    return vx + vy, sums


# _diagonal_sums passes the products of a run pair to _mul when the shorter
# run spans at least this many bits, and multiplies by * below it: there GMP
# gains nothing that outlasts its byte conversions.  On a Xeon, Python 3.11,
# a mul of two seeded series with * against _mul from 1,000 / 4,096 bits:
# window 81 at precision 32 (run pairs of 3,240-3,900 bits) 1.14 against 1.17
# / 1.14 ms; window 21 at 256 (6,400 bits) 0.60 against 0.54 / 0.54 ms;
# window 81 at 256 (24.9k bits) 2.61 against 1.78 / 1.78 ms; window 81 at
# 2048 (195k bits) 32.7 against 8.27 / 8.25 ms.
_WIDE_BITS = 4096
# The Toom-3 layer of _mul serves hosts where libgmp does not load: it splits
# only operands of at least this many bits.  CPython multiplies by Karatsuba
# from 70 digits of 30 bits; one Toom-3 layer above it breaks even at about
# 30k-bit operands, and the cutoff matters little above that.  On a Xeon,
# Python 3.11, random balanced operands, best of 15, * against _mul at a
# cutoff of 20k / 30k / 45k bits: 0.268 against 0.264 / 0.264 / 0.269 ms at
# 35k bits, 0.669 against 0.604 / 0.592 / 0.592 ms at 60k bits, 1.48 against
# 1.27 / 1.26 / 1.47 ms at 100k bits, 4.16 against 3.52 / 3.47 / 3.46 ms at
# 193k bits and 13.5 against 10.40 / 10.41 / 10.69 ms at 400k bits.  The
# products of a window-81 mul at precision 2048 (195k bits): 4.35 against
# 3.55 ms at 30k.
_TOOM_BITS = 30000


def _mul(a: int, b: int) -> int:
    """``a * b`` for the wide products of ``_diagonal_sums``: by the system
    GMP (``_gmp.mul``), whose ``mpn_mul`` runs Toom-Cook and Schoenhage-
    Strassen.  Where libgmp does not load, or past its cap, by one Toom-3
    layer above CPython's Karatsuba (Toom 1963, Cook 1966).

    The absolute values are split into three ``k``-bit limbs, so each is a
    polynomial of degree 2 at ``2^k``; the five point products at 0, 1, -1,
    -2 and infinity recurse, and Bodrato's sequence (WAIFI 2007), whose one
    exact ``// 3`` is linear in the size, interpolates the product.  Either
    operand below ``_TOOM_BITS``, or operands more than 2x apart, go to
    ``*``: within 2x each operand fills at least two limbs, so the split
    pays.
    """
    if (r := _gmp.mul(a, b)) is not None:
        return r
    na, nb = a.bit_length(), b.bit_length()
    if min(na, nb) < _TOOM_BITS or max(na, nb) > 2 * min(na, nb):
        return a * b
    k = (max(na, nb) + 2) // 3
    x, y = _toom_points(abs(a), k), _toom_points(abs(b), k)
    # from infinity down to 0, each pair of points is dropped as it is
    # multiplied and each point product as soon as interpolation has read it
    c4 = _mul(x.pop(), y.pop())  # at infinity
    c3 = _mul(x.pop(), y.pop())  # at -2
    wm1 = _mul(x.pop(), y.pop())
    w1 = _mul(x.pop(), y.pop())
    c3 = (c3 - w1) // 3
    c1 = (w1 - wm1) >> 1
    del w1
    c0 = _mul(x.pop(), y.pop())
    c2 = wm1 - c0
    del wm1
    c3 = ((c2 - c3) >> 1) + (c4 << 1)
    c2 += c1 - c4
    c1 -= c3
    r = c4
    for c in (c3, c2, c1, c0):
        r = (r << k) + c
    return -r if (a < 0) != (b < 0) else r


def _toom_points(x: int, k: int) -> list[int]:
    """``x >= 0`` as the polynomial ``x0 + x1 z + x2 z^2`` of its ``k``-bit
    limbs, at ``z = 0, 1, -1, -2`` and infinity."""
    x0, x1, x2 = x & ((1 << k) - 1), (x >> k) & ((1 << k) - 1), x >> 2 * k
    s = x0 + x2
    m = s - x1
    return [x0, s + x1, m, ((m + x2) << 1) - x0, x2]


def _halves(plus: int, minus: int, n: int) -> tuple[int, int]:
    """The even and the odd part of a product from its values ``plus`` at
    ``2^n`` and ``minus`` at ``-2^n``, each in powers of ``2^(2n)``."""
    return (plus + minus) >> 1, (plus - minus) >> (n + 1)


def _unfold(f: int, g: int, count: int, h: int, k: int, sums: dict[int, int]) -> None:
    """Add ``c_0 .. c_(count-1)`` into ``sums`` at ``k, k + 2, ...``, from
    ``f = sum_t c_t 2^(tM)`` and ``g = sum_t c_t 2^((count-1-t)M)``, ``M =
    16h``, when every ``c_t < 2^(2M-1)``.

    One pass from ``t = 0`` (KS3): the carry ``w`` into digit ``t`` of
    ``f`` is known from the ``c`` below, so ``alpha = c_t mod 2^M``.  ``g``
    shifted down to ``c_t``, less ``c_(t-1) 2^M`` and ``c_(t-2) 2^(2M)``,
    modulo ``2^(2M+1)``, is ``d = c_t + e``, where ``e``, what the shift
    keeps of the later terms, is below ``2^M`` because every ``c`` is below
    ``2^(2M-1)``.  So ``e = (d - alpha) mod 2^M`` and ``c_t = d - e``.
    Digits are read from the bytes, so a pass is linear in the size.
    """
    m, w2, w4 = 16 * h, 2 * h, 4 * h + 1
    low, wide = (1 << m) - 1, (1 << (2 * m + 1)) - 1
    size = w2 * (count + 1) + 1
    fb = f.to_bytes(size, "little")
    del f  # the caller holds no other reference: one copy of each at a time
    gb = g.to_bytes(size, "little")
    del g
    w = c1 = c2 = 0
    g_at = w2 * (count - 1)  # the byte of g where c_t starts
    for f_at in range(0, w2 * count, w2):
        alpha = (int.from_bytes(fb[f_at : f_at + w2], "little") - w) & low
        d = (int.from_bytes(gb[g_at : g_at + w4], "little") - (c1 << m) - (c2 << 2 * m)) & wide
        c = d - ((d - alpha) & low)
        if c:
            sums[k] = sums.get(k, 0) + c
        k += 2
        w = (w + c) >> m
        c2, c1 = c1, c
        g_at -= w2


def _least_val(xs: dict) -> int:
    """The least valuation of a nonzero unit of ``xs``; 0 if there is none."""
    return min((vi for vi, u, _ in xs.values() if u), default=0)


def _scaled(p: int, xs: dict, v: int, r: int) -> list[tuple[int, int]]:
    """``(i, u_i p^(v_i - v))`` for the nonzero units of ``xs`` in index
    order, reduced modulo ``p^r`` and left out when that makes them zero.
    A unit is below ``p^(prec_i - v_i)``, so one whose scaled value is below
    ``p^r`` is not divided."""
    out = []
    for i, (vi, u, pi) in xs.items():
        d = vi - v
        if pi - v > r:
            u = u % prime_power(p, r - d) if d < r else 0
        if u:
            out.append((i, u * prime_power(p, d)))
    return out


def _runs(a: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """``(i, a_i)`` in index order cut into runs that span at most twice as
    many indices as they hold, so packed sizes follow the stored
    coefficients, not the distances between them."""
    runs = [[a[0]]]
    for item in a[1:]:
        run = runs[-1]
        if item[0] - run[0][0] + 1 > 2 * (len(run) + 1):
            runs.append([item])
        else:
            run.append(item)
    return runs


def _pack_pm(run: list[tuple[int, int]], h: int) -> tuple[int, int, int, int]:
    """The first index ``i0`` of a run of ``(i, a_i)`` in index order, its
    slot count and the run evaluated at ``2^N`` and ``-2^N``, ``N = 8h``:
    ``sum_i a_i (+-2^N)^(i - i0)``, from the even and the odd offsets packed
    apart.  Each ``a_i`` takes ``2h`` bytes at stride ``h`` in the buffer of
    its parity, so units of one parity sit ``2h`` bytes apart and never
    overlap; the bytes are dropped as soon as the ints are built."""
    i0, n = run[0][0], run[-1][0] - run[0][0] + 1
    even, odd = bytearray((n + 1) * h), bytearray((n + 1) * h)
    for i, c in run:
        s = (i - i0) * h
        (odd if (i - i0) & 1 else even)[s : s + 2 * h] = c.to_bytes(2 * h, "little")
    e, o = int.from_bytes(even, "little"), int.from_bytes(odd, "little")
    return i0, n, e + o, e - o


def _reflected(run: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The run at ``i -> -i``, in index order: its reversed polynomial."""
    return [(-i, a) for i, a in reversed(run)]


def _coefficient(p: int, pairs, prec: int | float) -> PAdic:
    """The sum of the products ``x_i * y_j`` in ``pairs`` plus ``O(p^prec)``,
    ``prec`` an int or ``math.inf``, computed only to the digits it keeps.

    A first pass over small integers lowers ``prec`` to the least precision
    one product certifies and finds the least ``v = v_i + v_j``; a zero-within-
    precision factor has unit 0 and adds only its precision.  The units are
    then reduced modulo ``p^(prec - v)`` before they are multiplied, and
    their products summed as ``p^v * s``.  ``PAdic.make`` is canonical on
    residue classes, so this equals the chain of ``PAdic`` products and
    sums.
    """
    pairs = list(pairs)
    v = math.inf
    for (vi, _, pi), (vj, _, pj) in pairs:
        prec = min(prec, pi + vj, pj + vi)
        v = min(v, vi + vj)
    if v == math.inf:
        return PAdic.zero(p) if prec == math.inf else PAdic.zero_mod(p, prec)
    r = prec - v
    if r <= 0:
        return PAdic.zero_mod(p, prec)
    mod, s = prime_power(p, r), 0
    for (vi, ui, _), (vj, uj, _) in pairs:
        d = vi + vj - v
        if ui and uj and d < r:
            a, b = ui % mod, uj % mod
            s += (a * b if a.bit_length() < _GMP_MUL_BITS else _wide_product(a, b)) * prime_power(p, d)
    return PAdic.make(p, v, s, prec)


# ---------------------------------------------------------------------------
# partial sums and valuations


def partial_sum(x: Series, n: int) -> Series:
    """The truncated sum of all terms of degree at most ``n``: ``g`` cut at
    ``n``, so the right-tail positions of a mixed series up to ``n`` keep
    their bound.  A Laurent series truncated at or below ``n`` is its own
    partial sum."""
    g = x.g
    kept = tuple((i, c) for i, c in x.stored if i <= n)
    if isinstance(x, EqualCharSeries):
        if ExtInt(n) >= x.trunc:
            return x
        return EqualCharSeries._make(x.prime, kept, _equal_g(x.order, PLUS_INF, kept, (), g, n))
    if n < g.window_lo and isinstance(g.left, ConstTail):  # a zero left tail
        return MixedSeries.zero(x.prime)
    cut = SeqSpec.from_points(min(g.window_lo, n), n, (), g, g.left, PLUS_TAIL)
    return MixedSeries._make(x.prime, kept, cut)


def tail_remainder(x: Series, n: int) -> Series:
    """The difference ``x - partial_sum(x, n)`` in exact form.

    Generic subtraction cannot see that the tail bounds of the partial sum
    alias those of ``x``; this builds the complement directly, so positions
    at or below ``n`` are exactly zero: ``g`` cut at ``n``, with the
    left-tail positions of a mixed series above ``n`` keeping their bound.
    """
    g = x.g
    kept = tuple((i, c) for i, c in x.stored if i > n)
    if isinstance(x, EqualCharSeries):
        order = max(x.order, n + 1)
        return EqualCharSeries._make(x.prime, kept, _equal_g(order, x.trunc, kept, (), g, g.window_hi))
    # a cut at or past hi reads the right floor at n + 1
    cut = SeqSpec.from_points(n + 1, max(g.window_hi, n + 1), (), g, PLUS_TAIL, g.right)
    return MixedSeries._make(x.prime, kept, cut)


def vF_exponent(x: MixedSeries) -> ValuationResult:
    """The discrete valuation ``inf_i v(x_i)`` of the mixed field.

    Exact when witnessed by a stored coefficient strictly below every
    valuation bound; otherwise a flagged lower bound.  Beyond the window the
    bounds grow leftwards and stay constant rightwards, so ``g`` counts from
    ``lo - 1`` to ``hi + 1``.
    """
    exact_min = min((c.val for _, c in x.stored), default=PLUS_INF)
    g = x.g
    # an affine run is least at one of its ends
    ends = [s * e + o for a, b, s, o in _finite(g.spans(g.window_lo - 1, g.window_hi + 1))
            for e in (a, b)]
    bound_min = ExtInt(min(ends)) if ends else PLUS_INF
    if exact_min < bound_min or bound_min == PLUS_INF:
        return ValuationResult(exact_min, True)
    return ValuationResult(min(exact_min, bound_min), False)


def rank2_mixed(x: MixedSeries) -> tuple[ExtInt, ExtInt]:
    """The rank-two valuation of the mixed field for the uniformizer p.

    First component: ``inf v(x_i)``.  Second: the least index whose
    coefficient realises it, i.e. lies outside ``p^(v1+1)``.
    """
    v1res = vF_exponent(x)
    if v1res.value == PLUS_INF:
        raise ZeroElement("rank-two valuation of zero is undefined")
    if not v1res.exact:
        raise PrecisionExhausted("first component is only a lower bound")
    # exact: v1 is below g on [lo - 1, hi + 1], where a mixed g (never -inf) is least,
    # so no bound of g reaches v1 and a stored coefficient attains it
    v1 = v1res.value
    return v1, ExtInt(next(i for i, c in x.stored if c.val == v1))


def rank2_equal(x: EqualCharSeries) -> tuple[ExtInt, ExtInt]:
    """The rank-two valuation of the Laurent field for the uniformizer t:
    order of the first nonzero coefficient, then its p-adic valuation."""
    bounds = _finite(x.g.pieces)
    if bounds and (not x.stored or bounds[0][0] < x.stored[0][0]):
        raise PrecisionExhausted(f"leading coefficient {bounds[0][0]} is zero within precision")
    if x.stored:
        i, c = x.stored[0]
        return ExtInt(i), c.val
    if x.trunc == PLUS_INF:
        raise ZeroElement("rank-two valuation of zero is undefined")
    raise PrecisionExhausted("series vanishes up to its truncation")
