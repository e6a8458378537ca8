"""Deterministic generators shared across the test suite.

Everything is driven by the package's own splitmix64 so that a test's seed
fully determines its data.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from tdlf import (
    DEFAULT_RELATIVE_PRECISION,
    MINUS_INF,
    PLUS_INF,
    AffineTail,
    ConstTail,
    EqualCharSeries,
    ExponentResult,
    ExtInt,
    LeftValBound,
    MixedSeries,
    PAdic,
    ParseError,
    RightValBound,
    SeminormSpec,
    SeqSpec,
    SplitMix64,
    SubmoduleSpec,
    ZeroTail,
    is_bounded,
)
from tdlf.padic import check_prime
from tdlf.series import Series

PRIME = 5


def rng(seed: int) -> SplitMix64:
    return SplitMix64(seed)


def naive_value_at(s: SeqSpec, i: int) -> ExtInt:
    """Independent piecewise evaluation used as the seqspec oracle."""
    if i < s.window_lo:
        t = s.left
    elif i > s.window_hi:
        t = s.right
    else:
        return s.values[i - s.window_lo]
    if isinstance(t, ConstTail):
        return t.value
    return ExtInt(t.slope * i + t.offset)


def brute_minplus_value(a: SeqSpec, b: SeqSpec, k: int, radius: int = 60) -> ExtInt:
    """Plain enumeration of the convolution over a wide index range."""
    from tdlf.seqspec import minplus_term

    best = PLUS_INF
    for i in range(-radius, radius + 1):
        best = min(best, minplus_term(a.value_at(i), b.value_at(k - i)))
    return best


# ---------------------------------------------------------------------------
# random sequence specs


def rand_ext(r: SplitMix64, lo=-9, hi=9, pinf=10, minf=10) -> ExtInt:
    roll = r.below(100)
    if roll < pinf:
        return PLUS_INF
    if roll < pinf + minf:
        return MINUS_INF
    return ExtInt(r.randint(lo, hi))


def rand_tail(r: SplitMix64, kinds=("fin", "pinf", "minf", "affine"), slopes=(-3, 3)):
    kind = kinds[r.below(len(kinds))]
    if kind == "fin":
        return ConstTail(ExtInt(r.randint(-9, 9)))
    if kind == "pinf":
        return ConstTail(PLUS_INF)
    if kind == "minf":
        return ConstTail(MINUS_INF)
    slope = 0
    while slope == 0:
        slope = r.randint(slopes[0], slopes[1])
    return AffineTail(slope, r.randint(-9, 9))


def rand_seqspec(r: SplitMix64, pinf=10, minf=10) -> SeqSpec:
    lo = r.randint(-5, 1)
    size = r.randint(1, 6)
    window = {lo + j: rand_ext(r, pinf=pinf, minf=minf) for j in range(size)}
    return SeqSpec.from_window(window, rand_tail(r), rand_tail(r))


def rand_lattice(r: SplitMix64, kind: str) -> SubmoduleSpec:
    lo = r.randint(-4, 0)
    size = r.randint(1, 5)
    window = {lo + j: rand_ext(r, pinf=0, minf=15) for j in range(size)}
    if kind == "equal":
        left = rand_tail(r, kinds=("fin", "minf", "affine"))
        right = ConstTail(MINUS_INF)
    else:
        left = rand_tail(r, kinds=("fin", "minf", "affine"), slopes=(1, 3))
        if isinstance(left, AffineTail) and left.slope < 1:
            left = AffineTail(-left.slope, left.offset)
        right = (
            ConstTail(MINUS_INF)
            if r.below(2)
            else AffineTail(-r.randint(1, 3), r.randint(-9, 9))
        )
    return SubmoduleSpec(SeqSpec.from_window(window, left, right), kind)


def rand_seminorm(r: SplitMix64, kind: str) -> SeminormSpec:
    m = rand_lattice(r, kind)
    return SeminormSpec(m.seq, kind)


def rand_bounded(r: SplitMix64, kind: str) -> SubmoduleSpec:
    lo = r.randint(-4, 0)
    size = r.randint(1, 5)
    window = {lo + j: rand_ext(r, pinf=15, minf=0) for j in range(size)}
    if kind == "equal":
        left = ConstTail(PLUS_INF)
        right = rand_tail(r, kinds=("fin", "pinf", "affine"))
    else:
        left = rand_tail(r, kinds=("fin", "pinf", "affine"), slopes=(-3, -1))
        if isinstance(left, AffineTail) and left.slope > 0:
            left = AffineTail(-left.slope, left.offset)
        right = rand_tail(r, kinds=("fin", "pinf", "affine"), slopes=(1, 3))
        if isinstance(right, AffineTail) and right.slope < 0:
            right = AffineTail(-right.slope, right.offset)
    return SubmoduleSpec(SeqSpec.from_window(window, left, right), kind)


def rand_compactoid(r: SplitMix64, kind: str) -> SubmoduleSpec:
    m = rand_bounded(r, kind)
    if kind == "equal":
        return m
    left = ConstTail(PLUS_INF) if r.below(2) else AffineTail(-r.randint(1, 3), r.randint(-9, 9))
    return SubmoduleSpec(
        SeqSpec(m.seq.window_lo, m.seq.values, left, m.seq.right), "mixed"
    )


def rand_unbounded(r: SplitMix64, kind: str) -> SubmoduleSpec:
    while True:
        lo = r.randint(-4, 0)
        size = r.randint(1, 4)
        window = {lo + j: rand_ext(r, pinf=10, minf=10) for j in range(size)}
        if kind == "equal":
            left = rand_tail(r, kinds=("fin", "minf", "affine"))
            right = rand_tail(r)
        else:
            shape = r.below(3)
            if shape == 0:
                left = AffineTail(r.randint(1, 3), r.randint(-9, 9))
                right = rand_tail(r, kinds=("fin", "pinf", "affine"), slopes=(1, 3))
            elif shape == 1:
                left = rand_tail(r, kinds=("fin", "pinf", "affine"), slopes=(-3, -1))
                right = AffineTail(-r.randint(1, 3), r.randint(-9, 9))
            else:
                window[lo] = MINUS_INF
                left = rand_tail(r, kinds=("fin", "pinf"))
                right = rand_tail(r, kinds=("fin", "pinf"))
        m = SubmoduleSpec(SeqSpec.from_window(window, left, right), kind)
        if not is_bounded(m):
            return m


# ---------------------------------------------------------------------------
# random elements


def rand_coeff(r: SplitMix64, prime=PRIME, vlo=-6, vhi=6) -> PAdic:
    val = r.randint(vlo, vhi)
    unit = r.randint(1, prime - 1)
    scale = prime
    for _ in range(5):
        unit += r.below(prime) * scale
        scale *= prime
    return PAdic.make(prime, val, unit, val + 32)


def reference_digits(x: PAdic) -> list[int]:
    """Base-p digits of ``x``'s unit, lowest first, padded to its relative
    precision, one division per digit: the reference for ``PAdic.digits``."""
    if not x.val.is_finite or x.unit == 0:
        return []
    out = []
    u, p = x.unit, x.prime
    while u:
        u, d = divmod(u, p)
        out.append(d)
    out += [0] * ((x.precision - x.val).n - len(out))
    return out


def covering_precision(xs: dict, ys: dict) -> int:
    """The ``prec`` of ``series._diagonal_sums`` that reduces no unit of
    ``xs`` or ``ys`` (``{i: (val, unit, precision)}``), so that every sum
    is exact: the sum of their highest precisions."""
    return sum(max((q for _, _, q in s.values()), default=0) for s in (xs, ys))


def rand_equal_series(r: SplitMix64, prime=PRIME, span=(-6, 6)) -> EqualCharSeries:
    coeffs = {}
    for i in range(span[0], span[1] + 1):
        if r.below(3) == 0:
            coeffs[i] = rand_coeff(r, prime)
    return EqualCharSeries.from_coeffs(prime, coeffs)


def rand_mixed_series(
    r: SplitMix64, prime=PRIME, span=(-6, 6), tails=False
) -> MixedSeries:
    coeffs = {}
    for i in range(span[0], span[1] + 1):
        if r.below(3) == 0:
            coeffs[i] = rand_coeff(r, prime)
    left = ZeroTail()
    right = ZeroTail()
    if tails and r.below(2):
        left = LeftValBound(r.randint(1, 3), r.randint(-4, 4))
    if tails and r.below(2):
        right = RightValBound(r.randint(-4, 4))
    return MixedSeries.from_coeffs(
        prime, coeffs, left=left, right=right, lo=span[0], hi=span[1]
    )


def rand_series(r: SplitMix64, kind: str, prime=PRIME, span=(-6, 6), tails=False):
    if kind == "equal":
        return rand_equal_series(r, prime, span)
    return rand_mixed_series(r, prime, span, tails)


def translate_seq(s: SeqSpec, d: int) -> SeqSpec:
    """The sequence ``i -> s(i + d)``."""

    def move(t):
        if isinstance(t, AffineTail):
            return AffineTail(t.slope, t.offset + t.slope * d)
        return t

    return SeqSpec(s.window_lo - d, s.values, move(s.left), move(s.right))


# ---------------------------------------------------------------------------
# reference product: one PAdic product and sum at a time, with the tail
# remainder found by scanning outwards from each output index


def reference_tail_pairs_bound(x: MixedSeries, y: MixedSeries, k: int) -> ExtInt:
    """Lower bound on the valuation of all products ``x_i * y_{k-i}`` in
    which at least one factor is not stored: it comes from a tail region
    or is zero within precision."""
    bx, by = x.bound_seq(), y.bound_seq()
    fy, fx = y.valuation_floor(), x.valuation_floor()
    best = PLUS_INF

    def scan_left_of(series, bs, other, other_bs, floor):
        # i runs left through the decaying tail; the partner index moves right
        nonlocal best
        if isinstance(series.left, ZeroTail) or floor == PLUS_INF:
            return
        i = series.lo - 1
        while True:
            j = k - i
            if j > other.hi and isinstance(other.right, ZeroTail):
                break  # every further partner is exactly zero
            own = bs.value_at(i)
            if own + floor >= best:
                break
            best = min(best, own + other_bs.value_at(j))
            i -= 1

    def scan_right_of(series, other, other_bs):
        # i runs right at a constant floor; the partner index moves left
        nonlocal best
        if isinstance(series.right, ZeroTail):
            return
        own = ExtInt(series.right.floor)
        i = series.hi + 1
        while True:
            j = k - i
            if j < other.lo:
                partner = other_bs.value_at(j)
                if isinstance(other.left, ZeroTail) or own + partner >= best:
                    break
            best = min(best, own + other_bs.value_at(j))
            i += 1

    scan_left_of(x, bx, y, by, fy)
    scan_left_of(y, by, x, bx, fx)
    scan_right_of(x, y, by)
    scan_right_of(y, x, bx)
    # window positions of one factor against tail positions of the other
    for i in range(x.lo, x.hi + 1):
        if not y.lo <= k - i <= y.hi:
            best = min(best, bx.value_at(i) + by.value_at(k - i))
    for j in range(y.lo, y.hi + 1):
        if not x.lo <= k - j <= x.hi:
            best = min(best, bx.value_at(k - j) + by.value_at(j))
    # zero-within-precision window coefficients against the other window
    for i, c in x.coeffs:
        if not c.valuation_exact and y.lo <= k - i <= y.hi:
            best = min(best, bx.value_at(i) + by.value_at(k - i))
    for j, c in y.coeffs:
        if not c.valuation_exact and x.lo <= k - j <= x.hi:
            best = min(best, bx.value_at(k - j) + by.value_at(j))
    return best


def _reference_target(k: int, c: PAdic, target) -> None:
    from tdlf import PrecisionExhausted

    if target is not None and c.precision < target:
        raise PrecisionExhausted(f"coefficient {k} certified only modulo p^{c.precision}")


def reference_mul(x, y, target=None):
    """``mul`` computed one ``PAdic`` product and sum at a time."""
    from tdlf import minplus_convolve

    p = x.prime
    if isinstance(x, EqualCharSeries):
        if (not x.coeffs and x.trunc == PLUS_INF) or (not y.coeffs and y.trunc == PLUS_INF):
            return EqualCharSeries.zero(p)
        trunc = min(x.order + y.trunc, y.order + x.trunc)
        total = {}
        for i, ci in x.coeffs:
            for j, cj in y.coeffs:
                if ExtInt(i + j) < trunc:
                    prod = ci * cj
                    total[i + j] = total[i + j] + prod if i + j in total else prod
        for k, c in sorted(total.items()):
            _reference_target(k, c, target)
        return EqualCharSeries.from_coeffs(p, total, order=x.order + y.order, trunc=trunc)
    conv = minplus_convolve(x.bound_seq(), y.bound_seq())
    lo = min(x.lo + y.lo, conv.window_lo)
    hi = max(x.hi + y.hi, conv.window_hi)
    ymap = dict(y.coeffs)
    total = {}
    for k in range(lo, hi + 1):
        acc = PAdic.zero(p)
        for i, ci in x.coeffs:
            if k - i in ymap:
                acc = acc + ci * ymap[k - i]
        rem = reference_tail_pairs_bound(x, y, k)
        if rem != PLUS_INF:
            acc = acc + PAdic.zero_mod(p, rem.n)
        _reference_target(k, acc, target)
        if not acc.is_exact_zero:
            total[k] = acc
    return MixedSeries.from_coeffs(
        p, total, left=_reference_left_tail(conv, lo), right=_reference_right_tail(conv), lo=lo, hi=hi
    )


def _reference_left_tail(conv: SeqSpec, lo: int):
    """The left tail of a product from the left tail of its bound."""
    from tdlf import PrecisionExhausted

    t = conv.left
    if isinstance(t, ConstTail) and t.value == PLUS_INF:
        return ZeroTail()
    if isinstance(t, ConstTail) or t.slope >= 0:
        raise PrecisionExhausted("product coefficients do not decay leftwards")
    return LeftValBound(-t.slope, t.offset + t.slope * lo)


def _reference_right_tail(conv: SeqSpec):
    from tdlf import PrecisionExhausted

    t = conv.right
    if not isinstance(t, ConstTail):
        raise PrecisionExhausted("product bound has a non-constant right tail")
    return ZeroTail() if t.value == PLUS_INF else RightValBound(t.value.n)


# ---------------------------------------------------------------------------
# reference sequence operations: the dense algorithms, one value per index of
# the output window, against which the piecewise code is checked


def _dense(lo: int, vals, left, right) -> SeqSpec:
    return SeqSpec(lo, tuple(vals), left, right)


def _reference_normal_tail(t):
    """A slope-zero affine tail as the constant it is."""
    if isinstance(t, AffineTail) and t.slope == 0:
        return ConstTail(ExtInt(t.offset))
    return t


def _reference_crossing(ta, tb) -> int | None:
    """The floor of the index where two finite tails of distinct slopes
    meet, by exact rational arithmetic; None for any other pair."""
    sa, oa = _reference_form(ta)
    sb, ob = _reference_form(tb)
    if sa is None or sb is None or sa == sb:
        return None
    return math.floor(Fraction(ob - oa, sa - sb))


def reference_pointwise(a: SeqSpec, b: SeqSpec, want_min: bool) -> SeqSpec:
    lo = min(a.window_lo, b.window_lo)
    hi = max(a.window_hi, b.window_hi)
    cl = _reference_crossing(a.left, b.left)
    if cl is not None:
        lo = min(lo, cl)
    cr = _reference_crossing(a.right, b.right)
    if cr is not None:
        hi = max(hi, cr + 1)
    pick = min if want_min else max
    vals = [pick(a.value_at(i), b.value_at(i)) for i in range(lo, hi + 1)]
    far = 1000 + abs(lo) + abs(hi)

    def far_tail(ta, tb, sign: int):
        # the tail that is the min/max of the two at three indices far out
        ks = [sign * (far + j) for j in (1, 2, 3)]
        for t in (ta, tb):
            if all(t.at(k) == pick(ta.at(k), tb.at(k)) for k in ks):
                return _reference_normal_tail(t)
        raise AssertionError("neither tail is the min/max far out")

    return _dense(lo, vals, far_tail(a.left, b.left, -1), far_tail(a.right, b.right, 1))


def reference_reflect_affine(s: SeqSpec, a: int) -> SeqSpec:
    def reflect_tail(t):
        # a - (slope*(-i) + offset) = slope*i + (a - offset)
        if isinstance(t, AffineTail) and t.slope != 0:
            return AffineTail(t.slope, a - t.offset)
        return ConstTail(a - t.at(0))  # ExtInt saturates at the infinities

    lo, hi = -s.window_hi, -s.window_lo
    vals = [a - s.value_at(-i) for i in range(lo, hi + 1)]
    return _dense(lo, vals, reflect_tail(s.right), reflect_tail(s.left))


def reference_shift_add(s: SeqSpec, c: int) -> SeqSpec:
    def bump(v: ExtInt) -> ExtInt:
        return v if not v.is_finite else ExtInt(v.n + c)

    def bump_tail(t):
        t = _reference_normal_tail(t)
        if isinstance(t, ConstTail):
            return ConstTail(bump(t.value))
        return AffineTail(t.slope, t.offset + c)

    vals = [bump(s.value_at(i)) for i in range(s.window_lo, s.window_hi + 1)]
    return _dense(s.window_lo, vals, bump_tail(s.left), bump_tail(s.right))


def reference_canonical(s: SeqSpec) -> SeqSpec:
    left = _reference_normal_tail(s.left)
    right = _reference_normal_tail(s.right)
    window = range(s.window_lo, s.window_hi + 1)

    def first_diff_left():
        for i in window:
            if left.at(i) != s.value_at(i):
                return i
        if left == right:
            return None
        for i in (s.window_hi + 1, s.window_hi + 2):
            if left.at(i) != right.at(i):
                return i
        return None

    def last_diff_right():
        for i in reversed(window):
            if right.at(i) != s.value_at(i):
                return i
        if left == right:
            return None
        for i in (s.window_lo - 1, s.window_lo - 2):
            if right.at(i) != left.at(i):
                return i
        return None

    lo_star, hi_star = first_diff_left(), last_diff_right()
    if lo_star is None or hi_star is None:
        return _dense(0, [left.at(0)], left, left)
    if lo_star > hi_star:
        point = hi_star + 1
        return _dense(point, [s.value_at(point)], left, right)
    return _dense(lo_star, [s.value_at(i) for i in range(lo_star, hi_star + 1)], left, right)


def _reference_ext_diff(x: ExtInt, y: ExtInt) -> ExtInt:
    if x == MINUS_INF or y == PLUS_INF:
        return MINUS_INF
    if x == PLUS_INF or y == MINUS_INF:
        return PLUS_INF
    return ExtInt(x.n - y.n)


def _ray_sup_diff(a: SeqSpec, b: SeqSpec, leftward: bool, start: int) -> ExtInt:
    """sup of a(i) - b(i) over the half line beyond ``start`` (exclusive).

    There both are tails, so the difference is constant or linear: it is
    unbounded when it grows from the first index of the half line to the
    next one out, and peaks at the first index otherwise."""
    ta, tb = (a.left, b.left) if leftward else (a.right, b.right)
    step = -1 if leftward else 1
    first = _reference_ext_diff(ta.at(start + step), tb.at(start + step))
    second = _reference_ext_diff(ta.at(start + 2 * step), tb.at(start + 2 * step))
    return PLUS_INF if second > first else first


def reference_sup_diff(a: SeqSpec, b: SeqSpec) -> ExtInt:
    lo = min(a.window_lo, b.window_lo)
    hi = max(a.window_hi, b.window_hi)
    best = MINUS_INF
    for i in range(lo, hi + 1):
        best = max(best, _reference_ext_diff(a.value_at(i), b.value_at(i)))
    best = max(best, _ray_sup_diff(a, b, leftward=True, start=lo))
    return max(best, _ray_sup_diff(a, b, leftward=False, start=hi))


def reference_forall_ge(a: SeqSpec, b: SeqSpec) -> bool:
    lo = min(a.window_lo, b.window_lo)
    hi = max(a.window_hi, b.window_hi)
    if any(a.value_at(i) < b.value_at(i) for i in range(lo - 1, hi + 2)):
        return False
    # past the windows both are tails: a finite margin a - b that shrinks
    # from one index to the next one out keeps shrinking below 0
    for near, far in ((lo - 1, lo - 2), (hi + 1, hi + 2)):
        values = [a.value_at(near), b.value_at(near), a.value_at(far), b.value_at(far)]
        if all(v.is_finite for v in values):
            va, vb, wa, wb = (v.n for v in values)
            if wa - wb < va - vb:
                return False
    return True


class RefRay(NamedTuple):
    """A tail ray in the library's encoding, the fragment ``(x, y, slope,
    offset)`` with one open end (``x = -inf`` leftward, ``y = inf``
    rightward; ``-inf`` values as slope None), read by name."""

    x: float
    y: float
    slope: int | None
    offset: int

    @property
    def leftward(self) -> bool:
        return self.x == -math.inf

    @property
    def bound(self) -> int:
        return self.y if self.leftward else self.x

    @property
    def minf(self) -> bool:
        return self.slope is None


def ref_ray(leftward: bool, bound: int, slope: int | None, offset: int) -> RefRay:
    if leftward:
        return RefRay(-math.inf, bound, slope, offset)
    return RefRay(bound, math.inf, slope, offset)


def _reference_ray_pieces(s: SeqSpec):
    points = [(i, v) for i, v in s.window_items() if v != PLUS_INF]
    rays = []
    for leftward, tail, bound in (
        (True, _reference_normal_tail(s.left), s.window_lo - 1),
        (False, _reference_normal_tail(s.right), s.window_hi + 1),
    ):
        if isinstance(tail, ConstTail):
            if tail.value == PLUS_INF:
                continue
            if tail.value == MINUS_INF:
                rays.append(ref_ray(leftward, bound, None, -1))
            else:
                rays.append(ref_ray(leftward, bound, 0, tail.value.n))
        else:
            rays.append(ref_ray(leftward, bound, tail.slope, tail.offset))
    return points, rays


def _reference_point_ray(i: int, v, r):
    """The ray ``r`` shifted by the point ``(i, v)``: domain by ``i``,
    values by ``v`` (``-inf`` for ``v`` or ``r`` ``-inf`` makes every value
    ``-inf``)."""
    if v == MINUS_INF or r.minf:
        return ref_ray(r.leftward, r.bound + i, None, -1)
    return ref_ray(r.leftward, r.bound + i, r.slope, r.offset + v.n - r.slope * i)


def _reference_ray_envelope(rays, lo: int, hi: int) -> list:
    """For each ``k`` in ``[lo, hi]``, the least value of the rays covering it."""
    out = [PLUS_INF] * (hi - lo + 1)
    for leftward in (True, False):
        side = sorted((r for r in rays if r.leftward == leftward), key=lambda r: r.bound)
        if not leftward:
            side.reverse()  # the next ray to join is last
        least = {}  # slope -> offset; None keys -inf rays
        for k in range(hi, lo - 1, -1) if leftward else range(lo, hi + 1):
            while side and (k <= side[-1].bound if leftward else k >= side[-1].bound):
                r = side.pop()
                key = None if r.minf else r.slope
                least[key] = min(least.get(key, r.offset), r.offset)
            if least:
                v = MINUS_INF if None in least else min(s * k + o for s, o in least.items())
                out[k - lo] = min(out[k - lo], ExtInt.of(v))
    return out


def _reference_ray_pair(ra: RefRay, rb: RefRay) -> list | None:
    """The rays of the convolution of two rays, None when it is ``-inf``
    at every index.

    For each ``k``, the ``i`` in ``ra`` with ``k - i`` in ``rb`` form an
    interval, and the summand is linear in ``i``, so its least value sits
    at an end of it.  ``i`` at ``ra``'s bound gives a ray of ``rb``'s slope
    in ``rb``'s direction from ``A + B``, the sum of the two bounds; ``k -
    i`` at ``rb``'s bound gives one of ``ra``'s slope in ``ra``'s
    direction.  When the rays point apart the interval is a half line in
    ``i``, along which the summand falls without bound if the leftward
    ray's slope is the greater one or either ray is ``-inf``."""
    if ra.leftward != rb.leftward:
        left, right = (ra, rb) if ra.leftward else (rb, ra)
        if left.minf or right.minf or left.slope > right.slope:
            return None
    k = ra.bound + rb.bound
    if ra.minf or rb.minf:
        return [ref_ray(ra.leftward, k, None, -1)]
    at_a = ra.slope * ra.bound + ra.offset  # ra at its bound
    at_b = rb.slope * rb.bound + rb.offset
    return [
        ref_ray(rb.leftward, k, rb.slope, at_a + rb.offset - rb.slope * ra.bound),
        ref_ray(ra.leftward, k, ra.slope, at_b + ra.offset - ra.slope * rb.bound),
    ]


def _reference_eventual(rays: list, leftward: bool):
    """The tail that the least of the rays of one side settles on, and the
    floors of the indices where it meets the finite rays of other slopes."""
    side = [r for r in rays if r.leftward == leftward]
    if not side:
        return ConstTail(PLUS_INF), []
    if any(r.minf for r in side):
        return ConstTail(MINUS_INF), []  # every bound of the side is a mark already
    # far to the left the greatest slope is least, far to the right the least
    w = min(side, key=lambda r: (-r.slope if leftward else r.slope, r.offset))
    crossings = [math.floor(Fraction(r.offset - w.offset, w.slope - r.slope))
                 for r in side if r.slope != w.slope]
    return _reference_normal_tail(AffineTail(w.slope, w.offset)), crossings


def reference_minplus_convolve(a: SeqSpec, b: SeqSpec) -> SeqSpec:
    """Every window index is a point; the window is filled index by index
    from a per-slope sweep of the rays."""
    from tdlf import NonRepresentableTail
    from tdlf.seqspec import minplus_term

    pts_a, rays_a = _reference_ray_pieces(a)
    pts_b, rays_b = _reference_ray_pieces(b)
    best_points = {}
    for i, v in pts_a:
        for j, w in pts_b:
            s = minplus_term(v, w)
            if i + j not in best_points or s < best_points[i + j]:
                best_points[i + j] = s
    rays = []
    for i, v in pts_a:
        rays.extend(_reference_point_ray(i, v, r) for r in rays_b)
    for j, w in pts_b:
        rays.extend(_reference_point_ray(j, w, r) for r in rays_a)
    for ra in rays_a:
        for rb in rays_b:
            new = _reference_ray_pair(ra, rb)
            if new is None:
                return SeqSpec.constant(MINUS_INF)
            rays += new
    marks = [r.bound for r in rays] + list(best_points)
    if not marks:
        return SeqSpec.constant(PLUS_INF)
    left, lcross = _reference_eventual(rays, leftward=True)
    right, rcross = _reference_eventual(rays, leftward=False)
    lo = min(marks + lcross) - 1
    hi = max(marks + rcross) + 1

    envelope = enumerate(_reference_ray_envelope(rays, lo - 2, hi + 2), lo - 2)
    vals = [min(best_points.get(k, PLUS_INF), e) for k, e in envelope]
    out = _dense(lo, vals[2:-2], left, right)
    for k in (lo - 1, lo - 2, hi + 1, hi + 2):
        if out.value_at(k) != vals[k - lo + 2]:
            raise NonRepresentableTail(f"convolution tail mismatch at index {k}")
    return out


# ---------------------------------------------------------------------------
# reference series walks: every index of the window


def reference_bound_seq(x) -> SeqSpec:
    if isinstance(x, EqualCharSeries):
        lo = x.order
        if x.trunc == PLUS_INF:
            hi = max((i for i, _ in x.coeffs), default=x.order)
            right = ConstTail(PLUS_INF)
        else:
            # nothing is known from the truncation on, even below the order
            lo, hi = min(x.order, x.trunc.n), max(x.order, x.trunc.n - 1)
            right = ConstTail(MINUS_INF)
        cmap = dict(x.coeffs)
        vals = []
        for i in range(lo, hi + 1):
            if ExtInt(i) >= x.trunc:
                vals.append(MINUS_INF)
            else:
                vals.append(cmap[i].val if i in cmap else PLUS_INF)
        return _dense(lo, vals, ConstTail(PLUS_INF), right)
    cmap = dict(x.coeffs)
    vals = [cmap[i].val if i in cmap else PLUS_INF for i in range(x.lo, x.hi + 1)]
    if isinstance(x.left, ZeroTail):
        left = ConstTail(PLUS_INF)
    else:
        left = AffineTail(-x.left.slope, x.left.base + x.left.slope * x.lo)
    right = ConstTail(PLUS_INF) if isinstance(x.right, ZeroTail) else ConstTail(ExtInt(x.right.floor))
    return _dense(x.lo, vals, left, right)


def _reference_rebased(t: LeftValBound, old_lo: int, new_lo: int) -> LeftValBound:
    return LeftValBound(t.slope, t.base + t.slope * (old_lo - new_lo))


def _combine_left(a, a_lo: int, b, b_lo: int, lo: int):
    """The left tail of a sum: the least slope and base, rebased to ``lo``."""
    if isinstance(a, ZeroTail) and isinstance(b, ZeroTail):
        return ZeroTail()
    if isinstance(a, ZeroTail):
        return _reference_rebased(b, b_lo, lo)
    if isinstance(b, ZeroTail):
        return _reference_rebased(a, a_lo, lo)
    ra, rb = _reference_rebased(a, a_lo, lo), _reference_rebased(b, b_lo, lo)
    return LeftValBound(min(ra.slope, rb.slope), min(ra.base, rb.base))


def _combine_right(a, b):
    floors = [t.floor for t in (a, b) if isinstance(t, RightValBound)]
    return RightValBound(min(floors)) if floors else ZeroTail()


def reference_add(x, y):
    if isinstance(x, EqualCharSeries):
        trunc = min(x.trunc, y.trunc)
        total = {}
        for i, c in list(x.coeffs) + list(y.coeffs):
            if ExtInt(i) < trunc:
                total[i] = total[i] + c if i in total else c
        return EqualCharSeries.from_coeffs(x.prime, total, order=min(x.order, y.order), trunc=trunc)
    lo, hi = min(x.lo, y.lo), max(x.hi, y.hi)
    total = {}
    for i in range(lo, hi + 1):
        c = x.coeff(i) + y.coeff(i)
        if not c.is_exact_zero:
            total[i] = c
    left = _combine_left(x.left, x.lo, y.left, y.lo, lo)
    right = _combine_right(x.right, y.right)
    return MixedSeries.from_coeffs(x.prime, total, left=left, right=right, lo=lo, hi=hi)


def reference_partial_sum(x, n: int):
    if isinstance(x, EqualCharSeries):
        kept = {i: c for i, c in x.coeffs if i <= n}
        trunc = x.trunc if ExtInt(n) >= x.trunc else PLUS_INF
        return EqualCharSeries.from_coeffs(x.prime, kept, order=x.order, trunc=trunc)
    if n >= x.lo:
        kept = {}
        for i in range(x.lo, n + 1):
            c = x.coeff(i)
            if not c.is_exact_zero:
                kept[i] = c
        return MixedSeries.from_coeffs(
            x.prime, kept, left=x.left, right=ZeroTail(), lo=x.lo, hi=max(n, x.lo)
        )
    if isinstance(x.left, ZeroTail):
        return MixedSeries.zero(x.prime)
    return MixedSeries.from_coeffs(
        x.prime,
        {n: PAdic.zero_mod(x.prime, x.left.base + x.left.slope * (x.lo - n))},
        left=_reference_rebased(x.left, x.lo, n),
        right=ZeroTail(),
        lo=n,
        hi=n,
    )


def reference_tail_remainder(x, n: int):
    """``x - partial_sum(x, n)``, one coefficient of ``x`` at a time."""
    if isinstance(x, EqualCharSeries):
        kept = {i: c for i, c in x.coeffs if i > n}
        return EqualCharSeries.from_coeffs(
            x.prime, kept, order=max(x.order, n + 1), trunc=x.trunc
        )
    lo, hi = n + 1, max(x.hi, n + 1)
    kept = {}
    for i in range(lo, hi + 1):
        c = x.coeff(i)
        if not c.is_exact_zero:
            kept[i] = c
    return MixedSeries.from_coeffs(x.prime, kept, left=ZeroTail(), right=x.right, lo=lo, hi=hi)


def reference_sup_diff_on(a: SeqSpec, b: SeqSpec, lo: int, hi: int) -> ExtInt:
    best = MINUS_INF
    for i in range(lo, hi + 1):
        best = max(best, _reference_ext_diff(a.value_at(i), b.value_at(i)))
    return best


def reference_eq_pointwise(a: SeqSpec, b: SeqSpec, lo: int, hi: int) -> bool:
    """Whether ``a`` and ``b`` agree at every index of ``[lo, hi]``, read
    one index at a time."""
    return all(a.value_at(i) == b.value_at(i) for i in range(lo, hi + 1))


def _reference_form(t) -> tuple:
    if isinstance(t, AffineTail):
        return t.slope, t.offset
    v = t.value
    return (0, v.n) if v.is_finite else (None, 1 if v == PLUS_INF else -1)


def reference_spans(s: SeqSpec, lo: int, hi: int) -> list[tuple]:
    """``SeqSpec.spans`` built one index at a time: each index takes the
    form of the tail or of the piece (found by a linear scan) that holds
    it, and neighbours from the same source join one run."""
    out, source = [], None
    for i in range(lo, hi + 1):
        if i < s.window_lo:
            key, form = "left", _reference_form(s.left)
        elif i > s.window_hi:
            key, form = "right", _reference_form(s.right)
        else:
            key = next(p for p in s.pieces if p[0] <= i <= p[1])
            form = key[2:]
        if key == source:
            out[-1] = (out[-1][0], i, *form)
        else:
            out.append((i, i, *form))
        source = key
    return out


def reference_eval_mixed(spec: SeminormSpec, x: MixedSeries):
    """The mixed seminorm exponent, scanning every index between the
    seminorm window and a tailed series window."""
    from tdlf.seminorm import validate

    validate(spec)
    seq = spec.seq
    best_exact = MINUS_INF
    best_bound = MINUS_INF
    for i, c in x.coeffs:
        cand = _reference_ext_diff(seq.value_at(i), c.val)
        if c.valuation_exact:
            best_exact = max(best_exact, cand)
        else:
            best_bound = max(best_bound, cand)
    bseq = x.bound_seq()
    if not isinstance(x.left, ZeroTail):
        start = min(seq.window_lo, x.lo) - 1
        for i in range(start, x.lo):
            best_bound = max(best_bound, _reference_ext_diff(seq.value_at(i), bseq.value_at(i)))
    if not isinstance(x.right, ZeroTail):
        stop = max(seq.window_hi, x.hi) + 1
        for i in range(x.hi + 1, stop + 1):
            best_bound = max(best_bound, _reference_ext_diff(seq.value_at(i), bseq.value_at(i)))
    # an exact witness counts only above every bound-only candidate
    if best_exact > best_bound or best_bound == MINUS_INF:
        return ExponentResult(best_exact, True)
    return ExponentResult(best_bound, False)


# ---------------------------------------------------------------------------
# the Fraction literal parser


@dataclass(frozen=True)
class _RefToken:
    kind: str
    text: str
    line: int
    column: int


_REF_PUNCT = {
    "^": "caret",
    "*": "star",
    "/": "slash",
    "+": "plus",
    "-": "minus",
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
    ":": "colon",
}


def _ref_tokenize(text: str) -> list[_RefToken]:
    out = []
    line, col = 1, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: not '²' (no int) or '٣' (read as 3)
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            out.append(_RefToken("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isascii() and ch.isalpha():
            j = i
            while j < len(text) and text[j].isascii() and text[j].isalpha():
                j += 1
            out.append(_RefToken("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == ">" and i + 1 < len(text) and text[i + 1] == "=":
            out.append(_RefToken("geq", ">=", line, col))
            col += 2
            i += 2
            continue
        if ch in _REF_PUNCT:
            out.append(_RefToken(_REF_PUNCT[ch], ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(_RefToken("eof", "", line, col))
    return out


class _RefParser:
    def __init__(self, text: str, prime: int, rel_precision: int):
        self.tokens = _ref_tokenize(text)
        self.pos = 0
        self.prime = prime
        self.rel_precision = rel_precision

    def peek(self) -> _RefToken:
        return self.tokens[self.pos]

    def next(self) -> _RefToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect(self, kind: str, what: str) -> _RefToken:
        if self.peek().kind != kind:
            raise self.fail(f"expected {what}")
        return self.next()

    def signed_int(self) -> int:
        sign = 1
        if self.peek().kind == "minus":
            self.next()
            sign = -1
        elif self.peek().kind == "plus":
            self.next()
        return sign * int(self.expect("num", "an integer").text)

    # -- factors ------------------------------------------------------------

    def cfactor(self) -> Fraction:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Fraction(int(tok.text))
        if tok.kind == "ident" and tok.text == "p":
            self.next()
            k = 1
            if self.peek().kind == "caret":
                self.next()
                k = self.signed_int()
            return Fraction(self.prime) ** k
        raise self.fail("expected an integer or a power of p")

    def divide(self, total: Fraction) -> Fraction:
        tok = self.peek()
        factor = self.cfactor()
        if factor == 0:
            raise ParseError("division by zero", tok.line, tok.column)
        if tok.kind == "num" and int(tok.text) % self.prime == 0:
            raise ParseError(
                "denominator divisible by p; use a negative power of p",
                tok.line,
                tok.column,
            )
        return total / factor

    def tpow(self) -> int:
        self.expect("ident", "t")
        if self.peek().kind == "caret":
            self.next()
            return self.signed_int()
        return 1

    # -- terms ---------------------------------------------------------------

    def term(self) -> tuple[Fraction, int]:
        """One summand: (coefficient, exponent of t)."""
        coeff = Fraction(1)
        texp = None
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "t":
            texp = self.tpow()
        else:
            coeff = self.cfactor()
            while self.peek().kind in ("star", "slash"):
                op = self.next()
                nxt = self.peek()
                if nxt.kind == "ident" and nxt.text == "t":
                    if op.kind == "slash":
                        raise self.fail("cannot divide by t; use t^-k")
                    texp = self.tpow()
                    break
                if op.kind == "star":
                    coeff *= self.cfactor()
                else:
                    coeff = self.divide(coeff)
            else:
                if texp is None and self.peek().kind == "ident" and self.peek().text == "t":
                    texp = self.tpow()
        while self.peek().kind == "slash":
            self.next()
            coeff = self.divide(coeff)
        return coeff, 0 if texp is None else texp

    # -- tail marks -----------------------------------------------------------

    def tail_mark(self):
        tok = self.next()  # 'O' or 'tail'
        self.expect("lparen", "'('")
        if tok.text == "O":
            if self.peek().text != "t":
                raise self.fail("expected t")
            self.next()
            self.expect("caret", "'^'")
            n = self.signed_int()
            self.expect("rparen", "')'")
            return ("trunc", n)
        floor = None
        left = None
        first = self.peek()
        if first.kind == "ident" and first.text == "v":
            self.next()
            self.expect("geq", "'>='")
            floor = self.signed_int()
            if self.peek().kind == "comma":
                self.next()
                left = self._left_bound()
        elif first.kind == "ident" and first.text == "left":
            left = self._left_bound()
        else:
            raise self.fail("expected 'v >= ...' or 'left: slope, base'")
        self.expect("rparen", "')'")
        return ("tail", floor, left)

    def _left_bound(self) -> tuple[int, int]:
        ident = self.expect("ident", "'left'")
        if ident.text != "left":
            raise ParseError("expected 'left'", ident.line, ident.column)
        self.expect("colon", "':'")
        slope = self.signed_int()
        self.expect("comma", "','")
        base = self.signed_int()
        return slope, base

    # -- top level ---------------------------------------------------------------

    def series(self) -> tuple[dict[int, Fraction], object]:
        terms: dict[int, Fraction] = {}
        sign = 1
        if self.peek().kind == "minus":
            self.next()
            sign = -1
        mark = None
        while True:
            tok = self.peek()
            if tok.kind == "ident" and tok.text in ("O", "tail"):
                mark = self.tail_mark()
                break
            coeff, texp = self.term()
            terms[texp] = terms.get(texp, Fraction(0)) + sign * coeff
            nxt = self.peek()
            if nxt.kind == "plus":
                self.next()
                sign = 1
            elif nxt.kind == "minus":
                self.next()
                sign = -1
            else:
                break
        self.expect("eof", "end of input")
        return terms, mark


def reference_parse_series(
    text: str,
    prime: int,
    field: str | None = None,
    rel_precision: int = DEFAULT_RELATIVE_PRECISION,
) -> Series:
    """``parse_series`` as it read literals with ``Fraction`` coefficients,
    building ``p^k`` for every ``p^k`` written: the differential reference
    for the integer-triple parser."""
    check_prime(prime)
    parser = _RefParser(text, prime, rel_precision)
    terms, mark = parser.series()
    coeffs = {
        i: PAdic.from_fraction(q, prime, rel_precision)
        for i, q in terms.items()
        if q != 0
    }
    if mark is not None and mark[0] == "trunc":
        if field == "mixed":
            raise ParseError("O(t^N) marks a Laurent series, not a mixed one")
        kept = {i: c for i, c in coeffs.items() if i < mark[1]}
        order = min(kept, default=0)
        return EqualCharSeries.from_coeffs(prime, kept, order=order, trunc=mark[1])
    if mark is not None:
        if field == "equal":
            raise ParseError("tail(...) marks a mixed series, not a Laurent one")
        _, floor, left = mark
        right = ZeroTail() if floor is None else RightValBound(floor)
        left_tail = ZeroTail() if left is None else LeftValBound(left[0], left[1])
        return MixedSeries.from_coeffs(prime, coeffs, left=left_tail, right=right)
    if field == "equal":
        return EqualCharSeries.from_coeffs(prime, coeffs)
    return MixedSeries.from_coeffs(prime, coeffs)


# ---------------------------------------------------------------------------
# the CLI key order


_INT_KEY = re.compile(r"-?\d+$")


def reference_order(obj):
    """``cli._order`` as it chose numeric key order for any object whose
    keys all read as integers, recursing into every value: the reference
    for the order keyed by map name."""
    if isinstance(obj, dict):
        keys = list(obj)
        if keys and all(isinstance(k, str) and _INT_KEY.match(k) for k in keys):
            keys.sort(key=int)
        else:
            keys.sort(key=str)
        return {k: reference_order(obj[k]) for k in keys}
    if isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        return [reference_order(v) for v in obj]
    return obj
