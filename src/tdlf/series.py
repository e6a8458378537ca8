"""Elements of the two fields of series over Q_p.

``EqualCharSeries`` models Laurent series: exact coefficients from the
order up to a truncation exponent, nothing known beyond it.
``MixedSeries`` models doubly infinite series whose coefficients have
valuations bounded below and tend to zero towards ``-inf``: a finite window
of explicit coefficients plus per-side valuation guarantees.  Tail
positions are materialised on demand as zero-within-precision coefficients,
so precision bookkeeping rides on :class:`~tdlf.padic.PAdic` itself.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Mapping, NamedTuple, Union

from .errors import (
    IncompatiblePrimes,
    KindMismatch,
    ParseError,
    PrecisionExhausted,
    ZeroElement,
)
from .padic import PAdic, check_prime, prime_power
from .seqspec import (
    MINUS_INF,
    PLUS_INF,
    AffineTail,
    ConstTail,
    ExtInt,
    Frame,
    Frozen,
    SeqSpec,
    check_index,
    convolution_frame,
    json_index,
    json_int,
    json_key,
    json_parse,
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
    "default_mul_target",
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
        if slope < 1:
            raise ValueError("left tail bound needs slope >= 1")
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "base", base)

    def bound_at(self, lo: int, i: int) -> int:
        return self.base + self.slope * (lo - i)

    def rebased(self, old_lo: int, new_lo: int) -> "LeftValBound":
        return LeftValBound(self.slope, self.base + self.slope * (old_lo - new_lo))

    def to_json(self) -> dict:
        return {"kind": "valbound", "slope": self.slope, "base": self.base}


class RightValBound(Frozen):
    """Guarantee ``v(x_i) >= floor`` for ``i > hi``."""

    __slots__ = _fields = ("floor",)

    def __init__(self, floor: int):
        object.__setattr__(self, "floor", floor)

    def to_json(self) -> dict:
        return {"kind": "valbound", "floor": self.floor}


LeftTail = Union[ZeroTail, LeftValBound]
RightTail = Union[ZeroTail, RightValBound]


class ValuationResult(Frozen):
    """A valuation together with an exactness flag (lower bound if inexact)."""

    __slots__ = _fields = ("value", "exact")

    def __init__(self, value: ExtInt, exact: bool):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "exact", exact)

    def to_json(self) -> dict:
        return {"value": self.value.to_json(), "exact": self.exact}


def _left_tail_from_json(obj: Mapping) -> LeftTail:
    kind = obj["kind"]
    if kind == "zero":
        return ZeroTail()
    if kind == "valbound":
        return LeftValBound(json_int(obj["slope"]), json_int(obj["base"]))
    raise ValueError(f"unknown tail kind {kind!r}")


def _right_tail_from_json(obj: Mapping) -> RightTail:
    kind = obj["kind"]
    if kind == "zero":
        return ZeroTail()
    if kind == "valbound":
        return RightValBound(json_int(obj["floor"]))
    raise ValueError(f"unknown tail kind {kind!r}")


def _coeffs_from_json(obj: Mapping) -> dict[int, PAdic]:
    what = "bad key 'coeffs': index"
    return {check_index(json_index(k), what): PAdic.from_json(v) for k, v in obj.items()}


def _index_field(obj: Mapping, key: str) -> int:
    return check_index(json_parse(obj, key, json_int), f"bad key {key!r}: index")


def _normalize_coeffs(
    prime: int, coeffs: Mapping[int, PAdic]
) -> tuple[tuple[int, PAdic], ...]:
    out = []
    for i in sorted(coeffs):
        c = coeffs[i]
        if c.prime != prime:
            raise IncompatiblePrimes(f"coefficient prime {c.prime} != {prime}")
        if not c.is_exact_zero:
            out.append((i, c))
    return tuple(out)


class _Series(Frozen):
    """The base of both series kinds: the coefficient map and the ring
    operators.  A subclass lists ``coeffs`` among its ``_fields``, which
    its ``__init__`` takes in that order."""

    __slots__ = ("_map_cache",)

    @property
    def _map(self) -> dict[int, PAdic]:
        """``dict(self.coeffs)``, built on first use and kept in a slot."""
        try:
            return self._map_cache
        except AttributeError:
            m = dict(self.coeffs)
            object.__setattr__(self, "_map_cache", m)
            return m

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, -other)

    def __neg__(self):
        neg = tuple((i, -c) for i, c in self.coeffs)
        return type(self)(*(neg if f == "coeffs" else getattr(self, f) for f in self._fields))

    def __mul__(self, other):
        return mul(self, other)


# ---------------------------------------------------------------------------
# equal characteristic: Laurent series


class EqualCharSeries(_Series):
    """Laurent series known exactly below the truncation exponent.

    ``order`` is a lower bound for the support; stored coefficients live in
    ``[order, trunc)`` and indices absent from storage are exactly zero
    there.  Nothing is known at or above ``trunc``.
    """

    __slots__ = _fields = ("prime", "order", "coeffs", "trunc")

    kind = "equal"

    def __init__(
        self, prime: int, order: int, coeffs: tuple[tuple[int, PAdic], ...], trunc: ExtInt
    ):
        for i, c in coeffs:
            if i < order or ExtInt(i) >= trunc:
                raise ValueError(f"coefficient index {i} outside [order, trunc)")
        set_ = object.__setattr__
        set_(self, "prime", prime)
        set_(self, "order", order)
        set_(self, "coeffs", coeffs)
        set_(self, "trunc", trunc)

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
        stored = _normalize_coeffs(prime, coeffs)
        if order is None:
            order = min((i for i, _ in stored), default=0)
        return EqualCharSeries(prime, order, stored, ExtInt.of(trunc))

    @staticmethod
    def monomial(prime: int, index: int, coeff: PAdic) -> "EqualCharSeries":
        return EqualCharSeries.from_coeffs(prime, {index: coeff}, order=index)

    def coeff(self, i: int) -> PAdic:
        if ExtInt(i) >= self.trunc:
            raise PrecisionExhausted(f"coefficient {i} is beyond the truncation")
        return self._map.get(i, PAdic.zero(self.prime))

    def bound_seq(self) -> SeqSpec:
        """Valuation lower bounds; ``-inf`` marks the unknown region."""
        if self.trunc == PLUS_INF:
            hi = max((i for i, _ in self.coeffs), default=self.order)
            right: ConstTail | AffineTail = ConstTail(PLUS_INF)
        else:
            hi = max(self.order, self.trunc.n - 1)
            right = ConstTail(MINUS_INF)
            if self.order >= self.trunc.n:  # nothing is known at all
                return SeqSpec(self.order, (MINUS_INF,), ConstTail(PLUS_INF), right)
        return _bounds(self.order, hi, self.coeffs, ConstTail(PLUS_INF), right)

    def to_json(self) -> dict:
        return {
            "kind": "equal",
            "prime": self.prime,
            "order": self.order,
            "trunc": self.trunc.to_json(),
            "coeffs": {str(i): c.to_json() for i, c in self.coeffs},
        }


# ---------------------------------------------------------------------------
# mixed characteristic: doubly infinite series


class MixedSeries(_Series):
    """Doubly infinite series with certified coefficient decay.

    The left guarantee forces ``v(x_i) -> +inf`` as ``i -> -inf`` and the
    global valuation floor is finite, which is exactly what membership in
    the field requires.
    """

    __slots__ = _fields = ("prime", "lo", "hi", "coeffs", "left", "right")

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
        for i, _ in coeffs:
            if not lo <= i <= hi:
                raise ValueError(f"coefficient index {i} outside window")
        set_ = object.__setattr__
        set_(self, "prime", prime)
        set_(self, "lo", lo)
        set_(self, "hi", hi)
        set_(self, "coeffs", coeffs)
        set_(self, "left", left)
        set_(self, "right", right)

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
        stored = _normalize_coeffs(prime, coeffs)
        if stored:
            ilo = min(i for i, _ in stored)
            ihi = max(i for i, _ in stored)
            lo = ilo if lo is None else min(lo, ilo)
            hi = ihi if hi is None else max(hi, ihi)
        else:
            lo = 0 if lo is None else lo
            hi = lo if hi is None else max(hi, lo)
        return MixedSeries(prime, lo, hi, stored, left, right)

    @staticmethod
    def monomial(prime: int, index: int, coeff: PAdic) -> "MixedSeries":
        return MixedSeries.from_coeffs(prime, {index: coeff})

    def coeff(self, i: int) -> PAdic:
        """Coefficient at ``i``; tail positions materialise as
        zero-within-precision elements carrying the tail bound."""
        if self.lo <= i <= self.hi:
            return self._map.get(i, PAdic.zero(self.prime))
        if i < self.lo:
            if isinstance(self.left, ZeroTail):
                return PAdic.zero(self.prime)
            return PAdic.zero_mod(self.prime, self.left.bound_at(self.lo, i))
        if isinstance(self.right, ZeroTail):
            return PAdic.zero(self.prime)
        return PAdic.zero_mod(self.prime, self.right.floor)

    def bound_seq(self) -> SeqSpec:
        if isinstance(self.left, ZeroTail):
            left: ConstTail | AffineTail = ConstTail(PLUS_INF)
        else:
            # base + slope*(lo - i) as a function of i
            left = AffineTail(-self.left.slope, self.left.base + self.left.slope * self.lo)
        if isinstance(self.right, ZeroTail):
            right: ConstTail | AffineTail = ConstTail(PLUS_INF)
        else:
            right = ConstTail(ExtInt(self.right.floor))
        return _bounds(self.lo, self.hi, self.coeffs, left, right)

    def valuation_floor(self) -> ExtInt:
        """A certified lower bound for all coefficient valuations."""
        return vF_exponent(self).value

    def to_json(self) -> dict:
        return {
            "kind": "mixed",
            "prime": self.prime,
            "lo": self.lo,
            "hi": self.hi,
            "coeffs": {str(i): c.to_json() for i, c in self.coeffs},
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }


Series = Union[EqualCharSeries, MixedSeries]


def _bounds(lo: int, hi: int, coeffs, left, right) -> SeqSpec:
    """The valuations of the stored coefficients on ``[lo, hi]``, ``+inf``
    between them."""
    points = ((i, c.val) for i, c in coeffs)
    return SeqSpec.from_points(lo, hi, points, PLUS_INF, left, right)


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
            left=json_parse(obj, "left", _left_tail_from_json),
            right=json_parse(obj, "right", _right_tail_from_json),
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


# ---------------------------------------------------------------------------
# addition


def add(x: Series, y: Series) -> Series:
    _check_pair(x, y)
    if isinstance(x, EqualCharSeries):
        trunc = min(x.trunc, y.trunc)
        order = min(x.order, y.order)
        total: dict[int, PAdic] = {}
        for i, c in list(x.coeffs) + list(y.coeffs):
            if ExtInt(i) >= trunc:
                continue
            total[i] = total[i] + c if i in total else c
        return EqualCharSeries.from_coeffs(x.prime, total, order=order, trunc=trunc)

    lo = min(x.lo, y.lo)
    hi = max(x.hi, y.hi)
    # both summands are exact zeros off their stored coefficients and the
    # parts of [lo, hi] that a bound tail covers
    indices = {i for i, _ in x.coeffs + y.coeffs}
    for part in _tail_spans(x, lo, hi) + _tail_spans(y, lo, hi):
        indices.update(part)
    total = {}
    for i in sorted(indices):
        c = x.coeff(i) + y.coeff(i)
        if not c.is_exact_zero:
            total[i] = c
    left = _combine_left(x.left, x.lo, y.left, y.lo, lo)
    right = _combine_right(x.right, y.right)
    return MixedSeries.from_coeffs(x.prime, total, left=left, right=right, lo=lo, hi=hi)


def _tail_spans(x: MixedSeries, lo: int, hi: int) -> list[range]:
    """The indices of ``[lo, hi]`` at which a bound tail of ``x`` applies."""
    out = []
    if not isinstance(x.left, ZeroTail):
        out.append(range(lo, x.lo))
    if not isinstance(x.right, ZeroTail):
        out.append(range(x.hi + 1, hi + 1))
    return out


def _combine_left(a: LeftTail, a_lo: int, b: LeftTail, b_lo: int, lo: int) -> LeftTail:
    if isinstance(a, ZeroTail) and isinstance(b, ZeroTail):
        return ZeroTail()
    if isinstance(a, ZeroTail):
        return b.rebased(b_lo, lo)
    if isinstance(b, ZeroTail):
        return a.rebased(a_lo, lo)
    ra, rb = a.rebased(a_lo, lo), b.rebased(b_lo, lo)
    return LeftValBound(min(ra.slope, rb.slope), min(ra.base, rb.base))


def _combine_right(a: RightTail, b: RightTail) -> RightTail:
    if isinstance(a, ZeroTail) and isinstance(b, ZeroTail):
        return ZeroTail()
    floors = [t.floor for t in (a, b) if isinstance(t, RightValBound)]
    return RightValBound(min(floors))


# ---------------------------------------------------------------------------
# multiplication


def default_mul_target(x: MixedSeries, y: MixedSeries) -> ExtInt:
    """Default certification target: sum of the input floors plus 16."""
    return x.valuation_floor() + y.valuation_floor() + 16


def mul(x: Series, y: Series, target_precision: int | None = None) -> Series:
    """Product of two series of the same kind.

    For mixed series each output coefficient is the exact sum over
    window-by-window pairs plus a zero-within-precision remainder whose
    bound covers every pair touching a tail; the coefficient precision
    reports exactly what is certified.  When ``target_precision`` is given,
    any output coefficient certified below it raises
    :class:`PrecisionExhausted`; the precisions are known before any
    coefficient is multiplied, so a failing target costs no big-int work,
    and the stored pairs are walked only up to the first index where the
    tail remainder fails the target.
    The product computes only the digits its certified precision keeps:
    the units are reduced to the highest output precision before they are
    multiplied, then multiplied by four-point Kronecker substitution
    (``_diagonal_sums``).

    Of the min-plus convolution of the factors' valuation bounds a mixed
    product reads only the window bounds and the tails, so it takes them
    from ``convolution_frame``, which works from the tail rays and the ends
    of the windows: the coefficients inside the window are certified by the
    stored pairs and the tail remainder (``_TailBound.over``).
    """
    _check_pair(x, y)
    p, xs, ys = x.prime, _stored(x), _stored(y)
    if isinstance(x, EqualCharSeries):
        order, trunc = _equal_frame(x, y)
        # trunc is -inf only when a factor stores nothing, so no pair is lost
        precs = _precisions(xs, ys, trunc.n if trunc.is_finite else math.inf)
        for k, q in precs.items():
            _check_target(k, q, target_precision)
        total = _products(p, xs, ys, precs)
        return EqualCharSeries.from_coeffs(p, total, order=order, trunc=trunc)
    frame = convolution_frame(x.bound_seq(), y.bound_seq())
    lo = min(x.lo + y.lo, frame.window_lo)
    hi = max(x.hi + y.hi, frame.window_hi)
    rems = _TailBound(x, y).over(lo, hi)
    cut = math.inf
    if target_precision is not None:
        cut = next((k for k, r in enumerate(rems, lo) if r < target_precision), cut) + 1
    pairs = _precisions(xs, ys, cut)
    precs = {}
    for k, r in enumerate(rems, lo):
        q = min(pairs.get(k, r), r)
        _check_target(k, q, target_precision)
        if q != math.inf:  # otherwise the coefficient is an exact zero
            precs[k] = q
    total = _products(p, xs, ys, precs)
    left = _left_from_bound_tail(frame, lo)
    right = _right_from_bound_tail(frame)
    return MixedSeries.from_coeffs(p, total, left=left, right=right, lo=lo, hi=hi)


def product_coeff(x: Series, y: Series, k: int) -> PAdic:
    """``mul(x, y).coeff(k)`` from the stored pairs on ``i + j = k`` and,
    for mixed series, the tail remainder at ``k``; the product is never
    built, and no frame or convolution is computed.

    Raises what ``mul(x, y).coeff(k)`` raises, except that below the order
    of a Laurent product the coefficient is zero whatever its truncation.
    The tail checks of a mixed ``mul`` cannot fire: left bounds have slope
    at least 1 and right bounds are constant, so every ray of the product's
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
        rem = PLUS_INF
    else:
        rem = _TailBound(x, y).value_at(k)
    xs, ys = _stored(x), _stored(y)
    return _coefficient(p, ((a, ys[k - i]) for i, a in xs.items() if k - i in ys), rem)


def _equal_frame(x: EqualCharSeries, y: EqualCharSeries) -> tuple[int, ExtInt]:
    """Order and truncation of a Laurent product; an exact zero absorbs."""
    if any(not s.coeffs and s.trunc == PLUS_INF for s in (x, y)):
        return 0, PLUS_INF
    return x.order + y.order, min(x.order + y.trunc, y.order + x.trunc)


class _TailBound(NamedTuple):
    """The tail remainder of the product of two mixed series: at each index
    ``k``, the least ``v(x_i) + v(y_j)``, ``i + j = k``, over the pairs in
    which a factor lies in a bound tail.

    For each ordered pair of factors ``(A, B)``, a right floor ``f`` of
    ``A`` gives ``f + min{w_j : j < k - A.hi}``, a prefix minimum, and a
    left bound ``base + s*(A.lo - i)`` gives ``base + s*(A.lo - k) +
    min{w_j + s*j : j > k - A.lo}``, a suffix minimum, over the points
    ``(j, w_j)`` of ``B``: its stored valuations and each bound tail at its
    end next to the window, ``(lo - 1, base + slope)`` or ``(hi + 1,
    floor)``.  These ends give the tail-by-tail terms in closed form: a
    left bound grows leftwards and a right floor is constant, so two right
    floors meet at ``f_x + f_y`` from ``k = x.hi + y.hi + 2`` on, two left
    bounds at the lesser of their values at ``i = k - y.lo + 1`` and ``i =
    x.lo - 1``, and a left bound of ``x`` meets a right floor at ``i =
    min(x.lo - 1, k - y.hi - 1)``.
    """

    x: MixedSeries
    y: MixedSeries

    def value_at(self, k: int) -> ExtInt:
        (r,) = self.over(k, k)  # O(stored coefficients)
        return PLUS_INF if r == math.inf else ExtInt(r)

    def over(self, lo: int, hi: int) -> list:
        """The remainder at ``lo .. hi``, ``math.inf`` for none: running
        minima built in O(stored coefficients), read by bisection."""
        ks, inf = range(lo, hi + 1), math.inf
        terms = [[inf] * len(ks)]
        for a, b in (self, self[::-1]):
            pts = [(j, c.val.n) for j, c in b.coeffs]
            if isinstance(b.left, LeftValBound):
                pts.insert(0, (b.lo - 1, b.left.base + b.left.slope))
            if isinstance(b.right, RightValBound):
                pts.append((b.hi + 1, b.right.floor))
            js = [j for j, _ in pts]
            if isinstance(a.right, RightValBound):
                pre, f = [inf, *accumulate((w for _, w in pts), min)], a.right.floor
                terms.append([f + pre[bisect_left(js, k - a.hi)] for k in ks])
            if isinstance(a.left, LeftValBound):
                s, c = a.left.slope, a.left.base + a.left.slope * a.lo
                suf = [*accumulate((w + s * j for j, w in reversed(pts)), min)][::-1] + [inf]
                terms.append([c - s * k + suf[bisect_right(js, k - a.lo)] for k in ks])
        return list(map(min, *terms)) if len(terms) > 1 else terms[0]


def _stored(x: Series) -> dict[int, tuple[int, int, int]]:
    """Stored coefficients as ``i -> (val, unit, precision)`` integers, in
    increasing ``i``."""
    return {i: (c.val.n, c.unit, c.precision.n) for i, c in x.coeffs}


def _precisions(xs: dict, ys: dict, cut: float = math.inf) -> dict[int, int]:
    """Per product index ``k = i + j < cut`` of the stored pairs, the least
    precision ``min(p_i + v_j, p_j + v_i)`` one of its pair products
    certifies, in order of first appearance: one walk over the stored
    pairs with small integers only, which stops each row at ``cut`` as the
    stored indices increase."""
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
        # precision): multiply the pairs of each coefficient alone.  Only
        # pairs of nonzero units add digits; ``precs`` holds the precision
        # of the others.
        pairs: dict[int, list] = {k: [] for k in precs}
        ny = [(j, b) for j, b in ys.items() if b[1]]
        for i, a in xs.items():
            if a[1]:
                for j, b in ny:
                    if (g := pairs.get(i + j)) is not None:
                        g.append((a, b))
        return {k: _coefficient(p, g, ExtInt(precs[k])) for k, g in pairs.items()}
    v, sums = _diagonal_sums(p, xs, ys, max(precs.values()))
    return {k: PAdic.make(p, v, sums.get(k, 0), q) for k, q in precs.items()}


def _val_span(xs: dict) -> int:
    """The spread of the valuations of the nonzero units of ``xs``."""
    vals = [vi for vi, u, _ in xs.values() if u]
    return max(vals) - min(vals) if vals else 0


def _diagonal_sums(
    p: int, xs: dict, ys: dict, prec: int | None = None
) -> tuple[int, dict[int, int]]:
    """The diagonal sums of the stored units by four-point Kronecker
    substitution (Harvey 2009, KS4): four big-int products per pair of runs
    (see ``_runs``), each of operands about half as wide as a two-point
    product needs.

    With ``v`` the least valuation of a nonzero unit of a factor, its units
    are scaled to ``a_i = u_i p^(v_i - v)``.  When ``prec`` is given they are
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
    reads each ``c_t`` from ``F_e`` and ``G_e``.  Returns ``v_x + v_y`` and
    the nonzero ``S_k``.
    """
    vx, vy = _least_val(xs), _least_val(ys)
    r = None if prec is None else prec - vx - vy
    if r is not None and r <= 0:
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
            forward = _halves(xp * yp, xm * ym, n)
            backward = _halves(rxp * ryp, rxm * rym, n)
            top = nx + ny - 2
            for e in (0, 1):
                count = (nx + ny - e) // 2
                k = i0 + j0 + e
                for c in _unfold(forward[e], backward[(top - e) % 2], count, h):
                    if c:
                        sums[k] = sums.get(k, 0) + c
                    k += 2
    return vx + vy, sums


def _halves(plus: int, minus: int, n: int) -> tuple[int, int]:
    """The even and the odd part of a product from its values ``plus`` at
    ``2^n`` and ``minus`` at ``-2^n``, each in powers of ``2^(2n)``."""
    return (plus + minus) >> 1, (plus - minus) >> (n + 1)


def _unfold(f: int, g: int, count: int, h: int) -> list[int]:
    """``c_0 .. c_(count-1)`` from ``f = sum_t c_t 2^(tM)`` and ``g = sum_t
    c_t 2^((count-1-t)M)``, ``M = 16h``, when every ``c_t < 2^(2M-1)``.

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
    fb, gb = f.to_bytes(size, "little"), g.to_bytes(size, "little")
    out = []
    w = c1 = c2 = 0
    g_at = w2 * (count - 1)  # the byte of g where c_t starts
    for f_at in range(0, w2 * count, w2):
        alpha = (int.from_bytes(fb[f_at : f_at + w2], "little") - w) & low
        d = (int.from_bytes(gb[g_at : g_at + w4], "little") - (c1 << m) - (c2 << 2 * m)) & wide
        c = d - ((d - alpha) & low)
        out.append(c)
        w = (w + c) >> m
        c2, c1 = c1, c
        g_at -= w2
    return out


def _least_val(xs: dict) -> int:
    """The least valuation of a nonzero unit of ``xs``; 0 if there is none."""
    return min((vi for vi, u, _ in xs.values() if u), default=0)


def _scaled(p: int, xs: dict, v: int, r: int | None) -> list[tuple[int, int]]:
    """``(i, u_i p^(v_i - v))`` for the nonzero units of ``xs`` in index
    order, reduced modulo ``p^r`` when ``r`` is given and left out when that
    makes them zero.  A unit is below ``p^(prec_i - v_i)``, so one whose
    scaled value is below ``p^r`` is not divided."""
    out = []
    for i, (vi, u, pi) in xs.items():
        d = vi - v
        if r is not None and pi - v > r:
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


def _coefficient(p: int, pairs, rem: ExtInt = PLUS_INF) -> PAdic:
    """The sum of the products ``x_i * y_j`` in ``pairs`` plus ``O(p^rem)``,
    computed only to the digits it keeps.

    A first pass over small integers finds the least precision ``prec`` one
    product certifies and the least ``v = v_i + v_j``; a zero-within-
    precision factor has unit 0 and adds only its precision.  The units are
    then reduced modulo ``p^(prec - v)`` before they are multiplied, and
    their products summed as ``p^v * s``.  ``PAdic.make`` is canonical on
    residue classes, so this equals the chain of ``PAdic`` products and
    sums.
    """
    pairs = list(pairs)
    prec = math.inf if rem == PLUS_INF else rem.n
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
            s += (ui % mod) * (uj % mod) * prime_power(p, d)
    return PAdic.make(p, v, s, prec)


def _check_target(k: int, prec: int | float, target: int | None) -> None:
    if target is not None and prec < target:
        raise PrecisionExhausted(f"coefficient {k} certified only modulo p^{prec}")


def _left_from_bound_tail(conv: SeqSpec | Frame, lo: int) -> LeftTail:
    """The left tail of a product from the left tail of a valuation bound
    (a frame or a sequence) of it."""
    t = conv.left
    if isinstance(t, ConstTail):
        if t.value == PLUS_INF:
            return ZeroTail()
        raise PrecisionExhausted("product coefficients do not decay leftwards")
    if t.slope >= 0:
        raise PrecisionExhausted("product coefficients do not decay leftwards")
    # value_at(i) = slope*i + offset for i < lo, rewritten relative to lo
    return LeftValBound(-t.slope, t.offset + t.slope * lo)


def _right_from_bound_tail(conv: SeqSpec | Frame) -> RightTail:
    t = conv.right
    if isinstance(t, ConstTail):
        if t.value == PLUS_INF:
            return ZeroTail()
        return RightValBound(t.value.n)
    # inputs carry constant floors on the right, so the convolved bound does too
    raise PrecisionExhausted("product bound has a non-constant right tail")


# ---------------------------------------------------------------------------
# partial sums and valuations


def partial_sum(x: Series, n: int) -> Series:
    """The truncated sum of all terms of degree at most ``n``."""
    if isinstance(x, EqualCharSeries):
        kept = {i: c for i, c in x.coeffs if i <= n}
        trunc = x.trunc if ExtInt(n) >= x.trunc else PLUS_INF
        return EqualCharSeries.from_coeffs(x.prime, kept, order=x.order, trunc=trunc)
    if n >= x.lo:
        # positions above the stored window but at most n come from the right
        # tail and materialise as zero-within-precision coefficients
        kept = {i: c for i, c in x.coeffs if i <= n}
        if isinstance(x.right, RightValBound):
            for i in range(x.hi + 1, n + 1):
                kept[i] = x.coeff(i)
        return MixedSeries.from_coeffs(
            x.prime, kept, left=x.left, right=ZeroTail(), lo=x.lo, hi=max(n, x.lo)
        )
    # the cut lands inside the left tail; keep its guarantee, rebased
    if isinstance(x.left, ZeroTail):
        return MixedSeries.zero(x.prime)
    bound = x.left.bound_at(x.lo, n)
    return MixedSeries.from_coeffs(
        x.prime,
        {n: PAdic.zero_mod(x.prime, bound)},
        left=x.left.rebased(x.lo, n),
        right=ZeroTail(),
        lo=n,
        hi=n,
    )


def tail_remainder(x: Series, n: int) -> Series:
    """The difference ``x - partial_sum(x, n)`` in exact form.

    Generic subtraction cannot see that the materialised tail coefficients
    of the partial sum alias those of ``x``; this builds the complement
    directly, so positions at or below ``n`` are exactly zero.
    """
    if isinstance(x, EqualCharSeries):
        kept = {i: c for i, c in x.coeffs if i > n}
        return EqualCharSeries.from_coeffs(
            x.prime, kept, order=max(x.order, n + 1), trunc=x.trunc
        )
    kept = {i: c for i, c in x.coeffs if i > n}
    lo = n + 1
    if isinstance(x.left, LeftValBound):
        for i in range(lo, x.lo):  # former left-tail positions above the cut
            kept[i] = x.coeff(i)
    return MixedSeries.from_coeffs(
        x.prime, kept, left=ZeroTail(), right=x.right, lo=lo, hi=max(x.hi, lo)
    )


def vF_exponent(x: MixedSeries) -> ValuationResult:
    """The discrete valuation ``inf_i v(x_i)`` of the mixed field.

    Exact when witnessed by an exactly known coefficient strictly below
    every valuation bound; otherwise a flagged lower bound.
    """
    exact_min = PLUS_INF
    bound_min = PLUS_INF
    for _, c in x.coeffs:
        if c.valuation_exact:
            exact_min = min(exact_min, c.val)
        else:
            bound_min = min(bound_min, c.val)
    if isinstance(x.left, LeftValBound):
        bound_min = min(bound_min, ExtInt(x.left.base + x.left.slope))
    if isinstance(x.right, RightValBound):
        bound_min = min(bound_min, ExtInt(x.right.floor))
    if exact_min < bound_min:
        return ValuationResult(exact_min, True)
    if bound_min == PLUS_INF:
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
    v1 = v1res.value
    if isinstance(x.left, LeftValBound):
        if ExtInt(x.left.base + x.left.slope) <= v1:
            raise PrecisionExhausted("left tail could hide the leading index")
    for i, c in x.coeffs:
        if c.valuation_exact:
            if c.val == v1:
                return v1, ExtInt(i)
        elif c.val <= v1:
            raise PrecisionExhausted(
                f"coefficient {i} is only known modulo p^{c.val}"
            )
    raise PrecisionExhausted("no certified witness for the second component")


def rank2_equal(x: EqualCharSeries) -> tuple[ExtInt, ExtInt]:
    """The rank-two valuation of the Laurent field for the uniformizer t:
    order of the first nonzero coefficient, then its p-adic valuation."""
    for i, c in x.coeffs:
        if not c.valuation_exact:
            raise PrecisionExhausted(
                f"leading coefficient {i} is zero within precision"
            )
        return ExtInt(i), c.val
    if x.trunc == PLUS_INF:
        raise ZeroElement("rank-two valuation of zero is undefined")
    raise PrecisionExhausted("series vanishes up to its truncation")
