"""The frame of a min-plus convolution and the products that read only it.

``convolution_frame`` must give the window bounds, tails and errors of
``minplus_convolve`` and of the dense reference on seeded sequence pairs
(``-inf`` points, ``-inf`` rays, divergent tails) and on the valuation
bounds of random series.  Mixed ``mul`` takes its frame from it, reads the
tail remainder over the window and cuts the pair walk at the first index
where the remainder fails a target: it must raise what the
one-``PAdic``-at-a-time reference raises.
"""

import math

from tdlf import (
    MINUS_INF,
    PLUS_INF,
    AffineTail,
    ConstTail,
    ExtInt,
    PrecisionExhausted,
    SeqSpec,
    minplus_convolve,
    mul,
)
from tdlf import seqspec as seqspec_module
from tdlf import series as series_module
from tdlf.errors import NonRepresentableTail
from tdlf.oracle import brute_minplus
from tdlf.seqspec import _tail_rays, convolution_frame, run_pair
from helpers import (
    rand_ext,
    rand_mixed_series,
    rand_seqspec,
    rand_tail,
    reference_minplus_convolve,
    reference_mul,
    reference_tail_pairs_bound,
    rng,
    translate_seq,
)
from test_differential import rand_pair
from test_pieces import seeded_pairs


def outcome(f, *args):
    try:
        return f(*args)
    except (NonRepresentableTail, PrecisionExhausted) as exc:
        return (type(exc).__name__, str(exc))


def frame_of(conv):
    """What a frame states about a convolution, or its error: ``(window_lo,
    window_hi, left, right)`` as ``convolution_frame`` returns it."""
    if isinstance(conv, SeqSpec):
        return conv.window_lo, conv.window_hi, conv.left, conv.right
    return conv


def windowed(frame):
    """Whether ``frame`` is a frame, not an error, and not a constant."""
    return not isinstance(frame[0], str) and frame[0] != frame[1]


def ray_pairs(a, b):
    """The terms of the pairs of tail rays of ``a`` and ``b``."""
    return [t for ra in _tail_rays(a) for rb in _tail_rays(b) for t in run_pair(ra, rb)]


def assert_frame(a, b):
    """The frame of ``a * b`` is that of the convolution and of the dense
    reference, errors included; returns the frame."""
    got = outcome(convolution_frame, a, b)
    want = frame_of(outcome(minplus_convolve, a, b))
    assert frame_of(got) == want
    assert want == frame_of(outcome(reference_minplus_convolve, a, b))
    return got


def test_seeded_spec_pairs():
    seen = {"divergent": 0, "-inf rays": 0, "-inf points": 0, "constant +inf": 0}
    for seed in range(300, 340):
        for a, b in seeded_pairs(seed, 40):
            lo, hi, left, _ = assert_frame(a, b)
            if lo == hi:
                seen["divergent" if left.value == MINUS_INF else "constant +inf"] += 1
            elif any(r[2] is None for r in ray_pairs(a, b)):
                seen["-inf rays"] += 1
            if any(v == MINUS_INF for s in (a, b) for _, _, v in s.runs()):
                seen["-inf points"] += 1
    assert min(seen.values()) > 0, seen


def test_series_bound_pairs():
    """The frames ``mul`` reads, on tailed and untailed random series."""
    r = rng(701)
    with_rays = 0
    for _ in range(600):
        lo = r.randint(-8, 2)
        x = rand_mixed_series(r, span=(lo, lo + r.randint(0, 12)), tails=True)
        lo = r.randint(-8, 2)
        y = rand_mixed_series(r, span=(lo, lo + r.randint(0, 12)), tails=True)
        frame = assert_frame(x.bound_seq(), y.bound_seq())
        with_rays += windowed(frame) and bool(ray_pairs(x.bound_seq(), y.bound_seq()))
    assert with_rays > 100


def count_run_pairs(monkeypatch):
    """The arguments of every ``run_pair`` call in ``seqspec`` from now on."""
    calls = []
    pair = seqspec_module.run_pair

    def counted(a, b):
        calls.append((a, b))
        return pair(a, b)

    monkeypatch.setattr(seqspec_module, "run_pair", counted)
    return calls


def test_frame_pairs_only_the_rays(monkeypatch):
    """A family of run + ray terms enters the frame only through its
    marks and its summary ray: ``convolution_frame`` calls ``run_pair``
    once per pair of tail rays, however long the window is."""
    point = SeqSpec.from_window({0: 1}, ConstTail(ExtInt(5)), ConstTail(ExtInt(4)))
    cases = []
    for n in (81, 2001):
        r = rng(n)
        window = SeqSpec(-(n // 2), [ExtInt(r.randint(0, 49)) for _ in range(n)],
                         ConstTail(ExtInt(0)), ConstTail(ExtInt(0)))
        cases.append((window, assert_frame(window, point)))
    calls = count_run_pairs(monkeypatch)
    for window, want in cases:
        del calls[:]
        assert convolution_frame(window, point) == want
        assert calls == [(ra, rb) for ra in _tail_rays(window) for rb in _tail_rays(point)]
        assert len(calls) == 4
        assert want[0] < window.window_lo and want[1] > window.window_hi


def test_a_divergent_convolution_pairs_no_runs(monkeypatch):
    """Two 2,001-index windows whose left tails fall leftwards (slope 1)
    and right tails rightwards (slope -1): a leftward ray steeper than a
    rightward one makes the convolution ``-inf`` everywhere, and
    ``minplus_convolve`` returns it from the frame's ray pairs without
    pairing a window run."""
    r = rng(2002)
    a, b = (SeqSpec(0, [ExtInt(r.randint(0, 49)) for _ in range(2001)],
                    AffineTail(1, 0), AffineTail(-1, 0)) for _ in range(2))
    calls = count_run_pairs(monkeypatch)
    assert minplus_convolve(a, b) == SeqSpec.constant(MINUS_INF)
    assert 0 < len(calls) <= 4


def test_rays_are_fragments_with_one_open_end():
    """Every tail ray and every term of a ray pair of a windowed frame is a
    fragment ``(x, y, slope, offset)`` whose one infinite end is ``x = -inf``
    (leftward) or ``y = inf`` (rightward), the other an int; ``-inf`` is
    ``(None, -1)``, as in pieces, and no ray is ``+inf``.  The first term of
    a ray pair ends at the sum of the two ray bounds, the pair's mark."""
    seen = {"leftward": 0, "rightward": 0, "-inf": 0}

    def check(rays):
        for ray in rays:
            assert len(ray) == 4 and type(ray) is tuple, ray
            x, y, slope, offset = ray
            assert (x == -math.inf) != (y == math.inf), ray
            assert type(y if x == -math.inf else x) is int, ray
            assert slope is not None or offset == -1, ray
            seen["leftward" if x == -math.inf else "rightward"] += 1
            seen["-inf"] += slope is None

    for seed in range(300, 320):
        for a, b in seeded_pairs(seed, 40):
            check(_tail_rays(a) + _tail_rays(b))
            if windowed(outcome(convolution_frame, a, b)):
                check(ray_pairs(a, b))
                for ra in _tail_rays(a):
                    for rb in _tail_rays(b):
                        k0, k1 = run_pair(ra, rb)[0][:2]
                        bounds = [r[1] if r[0] == -math.inf else r[0] for r in (ra, rb)]
                        assert (k1 if k0 == -math.inf else k0) == sum(bounds), (ra, rb)
    assert min(seen.values()) > 50, seen


def assert_convolution(a, b):
    """The frame and the whole of ``minplus_convolve(a, b)`` are those of
    the dense reference, errors included; returns the frame."""
    frame = assert_frame(a, b)
    assert outcome(minplus_convolve, a, b) == outcome(reference_minplus_convolve, a, b)
    return frame


def test_a_minus_inf_point_inside_a_family():
    """A ``-inf`` point past the first point of a window makes its family's
    summary ``-inf``; the window ends must still come from the family's
    first and last marks.  Windows lie right of 0, left of it and across it,
    so the ray's own bound falls outside the marks on either side."""
    r = rng(715)
    minf_tails = 0
    for _ in range(400):
        lo, size = r.randint(-10, 8), r.randint(2, 12)
        window = {lo: ExtInt(r.randint(-9, 9))}
        window.update({lo + j: rand_ext(r, minf=0) for j in range(1, size)})
        window[lo + r.randint(1, size - 1)] = MINUS_INF
        a = SeqSpec.from_window(window, rand_tail(r), rand_tail(r))
        b = rand_seqspec(r, minf=0)
        for x, y in ((a, b), (b, a)):
            frame = assert_convolution(x, y)
            if windowed(frame):
                minf_tails += MINUS_INF in (frame[2].limit(True), frame[3].limit(False))
    assert minf_tails > 200


def test_a_long_window_against_a_steep_left_tail():
    """Against a left tail steeper than every step of the window, a member
    from a lower index reaches less far along the ray but has a smaller
    offset, so no member is beaten by another: the summary and the
    envelope of ``minplus_convolve`` must take all of them."""
    r = rng(716)
    for n in (40, 120, 300):
        for _ in range(3):
            lo = r.randint(-6, 6)
            window = {lo + j: ExtInt(r.randint(0, 49)) for j in range(n)}
            a = SeqSpec.from_window(window, ConstTail(ExtInt(0)), AffineTail(-1, r.randint(-9, 9)))
            steep = AffineTail(-r.randint(50, 60), r.randint(-9, 9))
            b = SeqSpec.from_window({0: ExtInt(r.randint(0, 9))}, steep, ConstTail(ExtInt(2)))
            offsets = [v.n - steep.slope * i for i, v in a.window_items()]
            assert all(x < y for x, y in zip(offsets, offsets[1:]))
            assert not isinstance(assert_convolution(a, b)[0], str)


def test_opposite_rays_of_equal_slope_meet_at_their_bounds():
    """A leftward and a rightward ray of one slope convolve to one line,
    bounded at the sum of their bounds like any other ray pair: the window
    of two far one-point specs with constant-0 tails stays by the point
    sum 12,000 and does not reach index 0."""
    zero = ConstTail(ExtInt(0))
    a = SeqSpec.from_window({5000: ExtInt(0)}, zero, zero)
    b = SeqSpec.from_window({7000: ExtInt(0)}, zero, zero)
    conv, frame = minplus_convolve(a, b), convolution_frame(a, b)
    for lo, hi, _, _ in (frame_of(conv), frame):
        assert 11997 <= lo <= hi <= 12003
    assert conv.canonical() == SeqSpec.constant(0)
    line = [(-math.inf, 12000, 0, 0), (12001, math.inf, 0, 0)]
    assert run_pair(_tail_rays(a)[0], _tail_rays(b)[1]) == line
    assert run_pair(_tail_rays(b)[1], _tail_rays(a)[0]) == line


def test_opposite_tails_of_equal_slope_against_the_oracle():
    """Pairs whose left tail of one factor and right tail of the other share
    a slope, their windows moved up to 60 indices from 0: every value of
    ``[lo - 3, hi + 3]`` is the brute-force infimum of ``oracle``."""
    r = rng(717)
    seen = {"converges": 0, "diverges": 0}
    for _ in range(300):
        a, b = (translate_seq(rand_seqspec(r), r.randint(-60, 60)) for _ in range(2))
        slope = r.randint(-3, 3)
        one, other = AffineTail(slope, r.randint(-9, 9)), AffineTail(slope, r.randint(-9, 9))
        if r.below(2):
            a = SeqSpec.from_window(dict(a.window_items()), one, a.right)
            b = SeqSpec.from_window(dict(b.window_items()), b.left, other)
        else:
            a = SeqSpec.from_window(dict(a.window_items()), a.left, one)
            b = SeqSpec.from_window(dict(b.window_items()), other, b.right)
        conv = outcome(minplus_convolve, a, b)
        if not hasattr(conv, "window_lo"):
            continue
        seen["diverges" if conv == SeqSpec.constant(MINUS_INF) else "converges"] += 1
        for k in range(conv.window_lo - 3, conv.window_hi + 4):
            window = (min(a.window_lo, k - b.window_hi) - 1, max(a.window_hi, k - b.window_lo) + 1)
            assert conv.value_at(k) == brute_minplus(a, b, k, window), (a, b, k)
    assert min(seen.values()) > 30, seen


def test_tail_guard_is_shared(monkeypatch):
    """The tails always agree with the rays past the window (the marks
    include every crossing of the eventual tail), so the guard is checked
    here by bending the tail: both callers raise the same error."""
    winner = seqspec_module._asymptote_winner

    def bent(rays, leftward):
        tail, crossings = winner(rays, leftward)
        if isinstance(tail, AffineTail):
            return AffineTail(tail.slope, tail.offset + 1), crossings
        if tail.value.is_finite:
            return ConstTail(tail.value + 1), crossings
        return tail, crossings

    monkeypatch.setattr(seqspec_module, "_asymptote_winner", bent)
    raised = 0
    for a, b in seeded_pairs(341, 200):
        got = outcome(convolution_frame, a, b)
        assert frame_of(got) == frame_of(outcome(minplus_convolve, a, b))
        raised += isinstance(got[0], str)
    assert raised > 20


def test_mixed_product_frames_need_no_check():
    """The frame of a product of tailed mixed series decays leftwards (a
    zero tail, or slope at most -1) and is constant rightwards, so ``mul``
    checks neither."""
    r = rng(714)
    affine = 0
    for _ in range(300):
        x, y = rand_pair(r, "mixed")
        _, _, left, right = convolution_frame(x.bound_seq(), y.bound_seq())
        assert left == ConstTail(PLUS_INF) or (isinstance(left, AffineTail) and left.slope <= -1)
        assert isinstance(right, ConstTail)
        affine += isinstance(left, AffineTail)
    assert affine > 50


def tailed_pairs(seed, n):
    r = rng(seed)
    for _ in range(n):
        lo = r.randint(-6, 2)
        x = rand_mixed_series(r, span=(lo, lo + r.randint(0, 8)), tails=True)
        lo = r.randint(-6, 2)
        y = rand_mixed_series(r, span=(lo, lo + r.randint(0, 8)), tails=True)
        yield x, y


def certified(z):
    return sorted({c.precision.n for _, c in z.coeffs if c.precision.is_finite})


def test_targets_raise_what_the_reference_raises():
    """Every target from below the least to above the greatest certified
    precision of the product: the same first index and message."""
    checked = raised = 0
    for x, y in tailed_pairs(702, 150):
        want = outcome(reference_mul, x, y)
        if isinstance(want, tuple):
            assert outcome(mul, x, y) == want
            continue
        precs = certified(want)
        if not precs:
            continue
        for t in range(precs[0] - 1, precs[-1] + 2):
            expect = outcome(reference_mul, x, y, t)
            assert outcome(mul, x, y, t) == expect
            checked += 1
            raised += isinstance(expect, tuple)
    assert checked > 300 and raised > 150


def test_pair_walk_stops_at_the_first_failing_remainder(monkeypatch):
    """With a target, the stored pairs are walked up to the first index
    where the tail remainder falls below it, and no further."""
    cuts = []
    precisions = series_module._pair_precisions

    def record(xs, ys, rem, cut):
        cuts.append(cut)
        return precisions(xs, ys, rem, cut)

    monkeypatch.setattr(series_module, "_pair_precisions", record)
    cut_short = 0
    for x, y in tailed_pairs(703, 150):
        product = outcome(reference_mul, x, y)
        if isinstance(product, tuple) or not certified(product):
            continue
        for t in (certified(product)[0] + 1, certified(product)[-1]):
            first = next((k for k in range(product.lo, product.hi + 1)
                          if reference_tail_pairs_bound(x, y, k) < t), math.inf)
            del cuts[:]
            assert outcome(mul, x, y, t) == outcome(reference_mul, x, y, t)
            assert cuts == [first + 1]
            cut_short += first < product.hi
    assert cut_short > 50
