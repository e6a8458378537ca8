"""Deterministic generators shared across the test suite.

Everything is driven by the package's own splitmix64 so that a test's seed
fully determines its data.
"""

from __future__ import annotations

from tdlf import (
    MINUS_INF,
    PLUS_INF,
    AffineTail,
    ConstTail,
    EqualCharSeries,
    ExtInt,
    LeftValBound,
    MixedSeries,
    PAdic,
    RightValBound,
    SeminormSpec,
    SeqSpec,
    SplitMix64,
    SubmoduleSpec,
    ZeroTail,
    is_bounded,
)

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
    which at least one factor comes from a tail region."""
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
    return best


def _reference_target(k: int, c: PAdic, target) -> None:
    from tdlf import PrecisionExhausted

    if target is not None and c.precision < target:
        raise PrecisionExhausted(f"coefficient {k} certified only modulo p^{c.precision}")


def reference_mul(x, y, target=None):
    """``mul`` computed one ``PAdic`` product and sum at a time."""
    from tdlf import minplus_convolve
    from tdlf.series import _left_from_bound_tail, _right_from_bound_tail

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
        for k, c in total.items():
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
    left = _left_from_bound_tail(conv, lo)
    right = _right_from_bound_tail(conv)
    return MixedSeries.from_coeffs(p, total, left=left, right=right, lo=lo, hi=hi)
