"""The piecewise sequence and series code against the dense references.

Every operation must give ``==`` results, the same value at every index
and the same error as its reference in ``helpers``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    add,
    eval_exponent,
    forall_ge,
    minplus_convolve,
    partial_sum,
    pointwise_max,
    pointwise_min,
    reflect_affine,
    shift_add,
    sup_diff,
)
from tdlf.errors import NonRepresentableTail
from tdlf.seqspec import sup_diff_on
from helpers import (
    PRIME,
    rand_ext,
    rand_mixed_series,
    rand_seminorm,
    rand_seqspec,
    rand_tail,
    reference_add,
    reference_bound_seq,
    reference_canonical,
    reference_eq_pointwise,
    reference_eval_mixed,
    reference_forall_ge,
    reference_minplus_convolve,
    reference_partial_sum,
    reference_pointwise,
    reference_reflect_affine,
    reference_shift_add,
    reference_spans,
    reference_sup_diff,
    reference_sup_diff_on,
    rng,
    translate_seq,
)


def outcome(f, *args):
    try:
        return f(*args)
    except NonRepresentableTail as exc:
        return ("NonRepresentableTail", str(exc))


def span_of(*seqs, margin=6):
    lo = min(s.window_lo for s in seqs if isinstance(s, SeqSpec)) - margin
    hi = max(s.window_hi for s in seqs if isinstance(s, SeqSpec)) + margin
    return lo, hi


def assert_same(got, want, *inputs):
    """``==``, the same value at every index, or the same error; the
    pieces of a sequence keep their invariant."""
    assert got == want
    if isinstance(got, SeqSpec):
        assert_pieces(got)
        assert len(got.values) == len(want.values)
        lo, hi = span_of(got, want, *inputs)
        for i in range(lo, hi + 1):
            assert got.value_at(i) == want.value_at(i), i


def assert_pieces(s: SeqSpec) -> None:
    """The pieces ``(x, y, slope, offset)`` tile the window contiguously,
    are greedy, and keep the encoding: a lone finite point has slope 0 and
    an infinite run is ``(None, +-1)``."""
    ps = s.pieces
    assert type(ps) is tuple and ps
    assert ps[0][0] == s.window_lo and ps[-1][1] == s.window_hi
    for k, (x, y, slope, offset) in enumerate(ps):
        assert x <= y
        if slope is None:
            assert offset in (1, -1)
        elif x == y:
            assert slope == 0
        if k + 1 < len(ps):
            nx, _, ns, no = ps[k + 1]
            assert nx == y + 1
            # no line reaches the next start, and a lone point's free line
            # would reach any finite next start
            if slope is None or ns is None:
                assert (slope, offset) != (ns, no)
            else:
                assert x < y and slope * nx + offset != ns * nx + no


def rand_runs(r, runs=4, longest=9) -> SeqSpec:
    """A window of affine runs, long enough for segment pieces."""
    lo = r.randint(-12, 4)
    vals = []
    for _ in range(r.randint(1, runs)):
        n = r.randint(1, longest)
        roll = r.below(10)
        if roll == 0:
            vals += [PLUS_INF] * n
        elif roll == 1:
            vals += [MINUS_INF] * n
        else:
            slope, v = r.randint(-3, 3), r.randint(-9, 9)
            vals += [ExtInt(v + slope * t) for t in range(n)]
    return SeqSpec(lo, tuple(vals), rand_tail(r), rand_tail(r))


def far_pair(r, d):
    """Two specs whose left tails cross near -d and right tails near +d."""
    c1, c2 = r.randint(-3, 3), r.randint(-3, 3)

    def window():
        lo = r.randint(-3, 1)
        return {lo + t: rand_ext(r, pinf=15, minf=5) for t in range(r.randint(1, 4))}

    a = SeqSpec.from_window(window(), AffineTail(-1, c1), AffineTail(1, c2))
    b = SeqSpec.from_window(window(), AffineTail(-2, c1 - d), ConstTail(ExtInt(c2 + d)))
    return (a, b) if r.below(2) else (b, a)


def seeded_specs(seed, n=60):
    r = rng(seed)
    for k in range(n):
        yield rand_runs(r) if k % 2 else rand_seqspec(r)


def seeded_pairs(seed, n=80):
    r = rng(seed)
    for k in range(n):
        if k % 4 == 3:
            yield far_pair(r, 10 ** r.randint(2, 3))
        else:
            a = rand_runs(r) if r.below(2) else rand_seqspec(r)
            b = rand_runs(r) if r.below(2) else rand_seqspec(r)
            yield a, b


class TestAgainstDenseReference:
    @pytest.mark.parametrize("want_min", (True, False))
    def test_pointwise(self, want_min):
        op = pointwise_min if want_min else pointwise_max
        for a, b in seeded_pairs(301):
            assert_same(op(a, b), reference_pointwise(a, b, want_min), a, b)

    def test_reflect_and_shift(self):
        r = rng(302)
        for s in seeded_specs(302):
            c = r.randint(-5, 5)
            assert_same(reflect_affine(s, c), reference_reflect_affine(s, c), s)
            assert_same(shift_add(s, c), reference_shift_add(s, c), s)

    def test_canonical(self):
        # each spec, its pure-tail twin and its twin with the left tail's
        # values in the window, so that the tails meet or one form is everywhere
        for s in seeded_specs(303, 120):
            window = [s.left.at(i) for i in range(s.window_lo, s.window_hi + 1)]
            for t in (s, SeqSpec.from_window({}, s.left, s.left),
                      SeqSpec(s.window_lo, window, s.left, s.right)):
                assert_same(t.canonical(), reference_canonical(t), t)

    def test_comparisons(self):
        for a, b in seeded_pairs(304, 200):
            assert sup_diff(a, b) == reference_sup_diff(a, b)
            assert forall_ge(a, b) == reference_forall_ge(a, b)
            assert forall_ge(b, a) == reference_forall_ge(b, a)

    def test_minplus_convolve(self):
        for a, b in seeded_pairs(305, 120):
            want = outcome(reference_minplus_convolve, a, b)
            assert_same(outcome(minplus_convolve, a, b), want, a, b)

    def test_far_crossings_at_every_scale(self):
        r = rng(306)
        for d in (10**2, 10**3, 10**4, 10**5):
            a, b = far_pair(r, d)
            for want_min in (True, False) if d < 10**5 else (r.below(2) == 0,):
                op = pointwise_min if want_min else pointwise_max
                s = op(a, b)
                assert s == reference_pointwise(a, b, want_min)
                assert s.canonical() == reference_canonical(s)
                assert reflect_affine(s, 1) == reference_reflect_affine(s, 1)
                assert sup_diff(s, a) == reference_sup_diff(s, a)
                assert forall_ge(s, b) == reference_forall_ge(s, b)
            assert outcome(minplus_convolve, a, b) == outcome(reference_minplus_convolve, a, b)

    def test_sup_diff_on_ranges(self):
        r = rng(308)
        for a, b in seeded_pairs(308):
            lo, hi = span_of(a, b)
            x = r.randint(lo, hi)
            y = x + r.randint(-1, 30)
            assert sup_diff_on(a, b, x, y) == reference_sup_diff_on(a, b, x, y)

    def test_from_points(self):
        """The fill is one value or, every other time, a sequence read at
        each index that no point holds."""
        r = rng(309)
        for k in range(160):
            lo = r.randint(-9, 3)
            hi = lo + r.randint(0, 14)
            points = [(i, rand_ext(r)) for i in range(lo, hi + 1) if r.below(3) == 0]
            fill = rand_ext(r, pinf=40, minf=20) if k % 2 else rand_runs(r)
            left, right = rand_tail(r), rand_tail(r)
            at = fill.value_at if isinstance(fill, SeqSpec) else lambda i: fill
            dense = {i: at(i) for i in range(lo, hi + 1)} | dict(points)
            assert_same(
                SeqSpec.from_points(lo, hi, points, fill, left, right),
                SeqSpec(lo, [dense[i] for i in range(lo, hi + 1)], left, right),
            )

    def test_from_terms(self):
        r = rng(314)
        for _ in range(120):
            lo = r.randint(-9, 3)
            hi = lo + r.randint(0, 20)
            terms = []
            for _ in range(r.randint(0, 6)):
                k0 = r.randint(lo - 5, hi + 3)
                terms.append((k0, k0 + r.randint(0, 12), r.randint(-3, 3), r.randint(-9, 9)))
            left, right = rand_tail(r), rand_tail(r)
            dense = [min((ExtInt(s * i + o) for k0, k1, s, o in terms if k0 <= i <= k1),
                         default=PLUS_INF) for i in range(lo, hi + 1)]
            assert_same(SeqSpec.from_terms(lo, hi, terms, left, right), SeqSpec(lo, dense, left, right))

    def test_first_at_most(self):
        r = rng(315)
        for s in seeded_specs(315, 120):
            lo, hi = span_of(s)
            x = r.randint(lo, hi)
            y = x + r.randint(-1, 30)
            bound = r.randint(-25, 25)
            want = next((i for i in range(x, y + 1) if s.value_at(i) <= bound), None)
            assert s.first_at_most(bound, x, y) == want

    def test_json_and_views_are_dense(self):
        for s in seeded_specs(307):
            assert SeqSpec.from_json(s.to_json()) == s
            assert SeqSpec(s.window_lo, tuple(s.values), s.left, s.right) == s
            assert SeqSpec(s.window_lo - 3, s.values, s.left, s.right) == SeqSpec(
                s.window_lo - 3, tuple(s.values), s.left, s.right
            )
            assert hash(SeqSpec(s.window_lo, list(s.values), s.left, s.right)) == hash(s)


# ---------------------------------------------------------------------------
# pieces are fragments: the invariant of every operation's output, and
# spans against one index at a time


def op_outputs(seed, n=60):
    """``rand_seqspec`` and the outputs of every operation that builds
    pieces, on seeded inputs."""
    r = rng(seed)
    for a, b in seeded_pairs(seed, n):
        c = r.randint(-5, 5)
        yield a
        yield b
        yield pointwise_min(a, b)
        yield pointwise_max(a, b)
        yield reflect_affine(a, c)
        yield shift_add(a, c)
        yield a.canonical()
        conv = outcome(minplus_convolve, a, b)
        if isinstance(conv, SeqSpec):
            yield conv
    for _ in range(n):
        lo = r.randint(-9, 3)
        hi = lo + r.randint(0, 14)
        points = [(i, rand_ext(r)) for i in range(lo, hi + 1) if r.below(3) == 0]
        fill = rand_ext(r, pinf=40, minf=20) if r.below(2) else rand_runs(r)
        yield SeqSpec.from_points(lo, hi, points, fill, rand_tail(r), rand_tail(r))
        terms = []
        for _ in range(r.randint(0, 6)):
            k0 = r.randint(lo - 5, hi + 3)
            terms.append((k0, k0 + r.randint(0, 12), r.randint(-3, 3), r.randint(-9, 9)))
        yield SeqSpec.from_terms(lo, hi, terms, rand_tail(r), rand_tail(r))
        yield rand_seqspec(r)


def ranges(r, s):
    """``(lo, hi)`` inside the window, straddling either end, over the
    whole window, wholly in either tail, of one index, and empty."""
    wlo, whi = s.window_lo, s.window_hi
    x = r.randint(wlo, whi)
    y = r.randint(x, whi)
    return [
        (x, y),
        (wlo - r.randint(1, 4), y),
        (x, whi + r.randint(1, 4)),
        (wlo - r.randint(1, 4), whi + r.randint(1, 4)),
        (wlo, whi),
        (wlo - r.randint(3, 9), wlo - r.randint(1, 2)),
        (whi + r.randint(1, 2), whi + r.randint(3, 9)),
        (x, x),
        (wlo - 1, wlo - 1),
        (whi + 1, whi + 1),
        (y, x - 1),
    ]


class TestPieceInvariant:
    def test_every_output_keeps_the_invariant(self):
        for s in op_outputs(316):
            assert_pieces(s)

    def test_spans_against_one_index_at_a_time(self):
        r = rng(317)
        for s in op_outputs(317, 30):
            assert s.spans(s.window_lo, s.window_hi) == s.pieces
            for lo, hi in ranges(r, s):
                got = s.spans(lo, hi)
                assert list(got) == reference_spans(s, lo, hi), (s, lo, hi)
                for x, y, slope, offset in got:
                    for i in (x, y):
                        inf = PLUS_INF if offset > 0 else MINUS_INF
                        assert (inf if slope is None else ExtInt(slope * i + offset)) == s.value_at(i)


class TestEmptyRanges:
    """``lo > hi`` is an empty range wherever it lies: no span, the least
    ``sup``, no index at most a bound, and agreement."""

    @staticmethod
    def empty_ranges(s):
        wlo, whi = s.window_lo, s.window_hi
        mid = (wlo + whi) // 2
        return [
            (mid + 1, mid),  # inside the window
            (whi, wlo) if wlo < whi else (wlo + 1, wlo),  # the window reversed
            (wlo - 2, wlo - 5),  # in the left tail
            (whi + 5, whi + 2),  # in the right tail
            (wlo + 1, wlo - 1),  # straddling the window's left end
            (wlo, wlo - 3),
            (whi + 1, whi - 1),  # straddling its right end
            (whi + 3, whi),
        ]

    def test_spans(self):
        for s in op_outputs(319, 20):
            for lo, hi in self.empty_ranges(s):
                assert list(s.spans(lo, hi)) == [], (s, lo, hi)
                assert s.first_at_most(10**6, lo, hi) is None

    def test_sup_diff_on_and_eq_pointwise(self):
        for a, b in seeded_pairs(320, 40):
            for lo, hi in self.empty_ranges(a) + self.empty_ranges(b):
                assert sup_diff_on(a, b, lo, hi) == MINUS_INF == reference_sup_diff_on(a, b, lo, hi)
                assert sup_diff_on(a, a, lo, hi) == MINUS_INF
                assert a.eq_pointwise(b, lo, hi)

    def test_inside_a_long_window(self):
        s = SeqSpec(0, list(range(10)), ConstTail(ExtInt(0)), ConstTail(ExtInt(0)))
        assert sup_diff_on(s, s, 5, 3) == MINUS_INF
        assert s.spans(5, 3) == []


class TestEqPointwise:
    def test_against_one_index_at_a_time(self):
        """On pairs that agree everywhere (other presentations of one
        map), pairs that differ at one index, and unrelated pairs."""
        r = rng(321)
        for a, b in seeded_pairs(321, 60):
            wlo = a.window_lo - 3
            wider = SeqSpec(wlo, [a.value_at(i) for i in range(wlo, a.window_hi + 4)], a.left, a.right)
            k = r.randint(a.window_lo - 4, a.window_hi + 4)
            v = a.value_at(k)
            poked = pointwise_min(a, SeqSpec.delta(k, v - 1 if v.is_finite else r.randint(-9, 9)))
            for other in (a.canonical(), wider, reflect_affine(reflect_affine(a, 2), 2), poked, b):
                lo, hi = span_of(a, other)
                for x, y in ((lo, hi), (r.randint(lo, hi), hi), (lo, r.randint(lo, hi)), (k, k)):
                    assert a.eq_pointwise(other, x, y) == reference_eq_pointwise(a, other, x, y)
            assert a.eq_pointwise(a.canonical(), -10**9, 10**9)
            assert a.eq_pointwise(wider, -10**9, 10**9)


# ---------------------------------------------------------------------------
# the same comparisons on hypothesis-drawn windows

ext_values = st.one_of(
    st.integers(-12, 12).map(ExtInt), st.sampled_from([PLUS_INF, MINUS_INF])
)
runs = st.lists(
    st.tuples(st.integers(1, 7), st.integers(-3, 3), ext_values), min_size=1, max_size=5
)
tails = st.one_of(
    ext_values.map(ConstTail),
    st.tuples(st.integers(-3, 3), st.integers(-12, 12)).map(lambda t: AffineTail(*t)),
)


@st.composite
def specs(draw):
    vals = []
    for n, slope, start in draw(runs):
        step = slope if start.is_finite else 0
        vals += [start + step * t for t in range(n)]
    return SeqSpec(draw(st.integers(-10, 6)), tuple(vals), draw(tails), draw(tails))


class TestHypothesis:
    @settings(max_examples=150, deadline=None)
    @given(specs(), specs(), st.integers(-4, 4))
    def test_every_operation(self, a, b, c):
        assert_same(pointwise_min(a, b), reference_pointwise(a, b, True), a, b)
        assert_same(pointwise_max(a, b), reference_pointwise(a, b, False), a, b)
        assert_same(reflect_affine(a, c), reference_reflect_affine(a, c), a)
        assert_same(shift_add(a, c), reference_shift_add(a, c), a)
        assert_same(a.canonical(), reference_canonical(a), a)
        assert sup_diff(a, b) == reference_sup_diff(a, b)
        assert forall_ge(a, b) == reference_forall_ge(a, b)
        assert_same(
            outcome(minplus_convolve, a, b), outcome(reference_minplus_convolve, a, b), a, b
        )


# ---------------------------------------------------------------------------
# cost follows pieces: crossings a billion indices out stay a few pieces


class TestPieceCounts:
    def test_far_crossings_stay_small(self):
        d = 10**9
        a = SeqSpec.from_window({0: 1}, AffineTail(-1, 0), AffineTail(1, 0))
        b = SeqSpec.from_window({0: 2}, AffineTail(-2, -d), ConstTail(ExtInt(d)))
        for s in (pointwise_min(a, b), pointwise_max(a, b)):
            assert s.window_lo <= -d and s.window_hi >= d
            assert len(s.pieces) <= 6
            assert len(s.canonical().pieces) <= 6
            assert len(reflect_affine(s, 1).pieces) <= 6
        c = minplus_convolve(a, b)
        assert c.window_hi - c.window_lo >= d
        assert len(c.pieces) <= 8


    def test_far_seminorm_window(self):
        # the weight 5 sits d indices left of a series whose left bound is
        # 1 + 2(0 - i); every weight right of it is -inf
        d = 10**9
        spec = SeminormSpec(
            SeqSpec(-d, [5], ConstTail(ExtInt(0)), ConstTail(MINUS_INF)), "mixed"
        )
        x = MixedSeries.from_coeffs(
            PRIME, {0: PAdic.make(PRIME, 0, 1, 20)}, left=LeftValBound(2, 1), lo=0, hi=0
        )
        res = eval_exponent(spec, x)
        assert res.exponent == ExtInt(5 - (1 + 2 * d)) and not res.exact


# ---------------------------------------------------------------------------
# series walks over stored coefficients


def far_series(r, d, tails):
    coeffs = {i: PAdic.make(PRIME, r.randint(0, 4), r.randint(1, 4), 20)
              for i in (-d, r.randint(-3, 3), d)}
    kw = {}
    if tails:
        kw = {"left": LeftValBound(r.randint(1, 2), r.randint(0, 3)),
              "right": RightValBound(r.randint(0, 3))}
    return MixedSeries.from_coeffs(PRIME, coeffs, **kw)


def series_pairs(seed, n=120):
    r = rng(seed)
    for k in range(n):
        if k % 3 == 2:
            yield far_series(r, r.randint(20, 200), r.below(2)), far_series(
                r, r.randint(20, 200), r.below(2)
            )
        else:
            lo = r.randint(-8, 2)
            x = rand_mixed_series(r, span=(lo, lo + r.randint(0, 9)), tails=True)
            lo = r.randint(-8, 2)
            y = rand_mixed_series(r, span=(lo, lo + r.randint(0, 9)), tails=True)
            yield x, y


class TestSeriesWalks:
    def test_bound_seq(self):
        r = rng(311)
        for x, y in series_pairs(311):
            assert_same(x.bound_seq(), reference_bound_seq(x))
            trunc = PLUS_INF if r.below(2) else ExtInt(x.hi + r.randint(-3, 2))
            kept = {i: c for i, c in x.coeffs if ExtInt(i) < trunc}
            e = EqualCharSeries.from_coeffs(PRIME, kept, order=x.lo - r.below(3), trunc=trunc)
            assert_same(e.bound_seq(), reference_bound_seq(e))

    def test_add(self):
        for x, y in series_pairs(312):
            z = add(x, y)
            assert z == reference_add(x, y)
            assert z.to_json() == reference_add(x, y).to_json()

    def test_partial_sum(self):
        r = rng(313)
        for x, _ in series_pairs(313):
            for n in (x.lo - r.randint(1, 30), x.lo, r.randint(x.lo, x.hi), x.hi + r.randint(0, 30)):
                assert partial_sum(x, n) == reference_partial_sum(x, n)

    def test_eval_mixed(self):
        r = rng(314)
        for k in range(160):
            spec = rand_seminorm(r, "mixed")
            d = 10 ** r.randint(2, 4) if k % 2 else r.randint(-8, 8)
            spec = SeminormSpec(translate_seq(spec.seq, d * (1 - 2 * r.below(2))), "mixed")
            lo = r.randint(-8, 2)
            x = rand_mixed_series(r, span=(lo, lo + r.randint(0, 9)), tails=True)
            assert eval_exponent(spec, x) == reference_eval_mixed(spec, x)
        spec = SeminormSpec(translate_seq(rand_seminorm(r, "mixed").seq, 10**5), "mixed")
        x = MixedSeries.from_coeffs(PRIME, {}, left=LeftValBound(1, 0), lo=0, hi=0)
        assert eval_exponent(spec, x) == reference_eval_mixed(spec, x)
