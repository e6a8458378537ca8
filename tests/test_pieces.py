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
    reference_eval_mixed,
    reference_forall_ge,
    reference_minplus_convolve,
    reference_partial_sum,
    reference_pointwise,
    reference_reflect_affine,
    reference_shift_add,
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
    """``==``, the same value at every index, or the same error."""
    assert got == want
    if isinstance(got, SeqSpec):
        assert len(got.values) == len(want.values)
        lo, hi = span_of(got, want, *inputs)
        for i in range(lo, hi + 1):
            assert got.value_at(i) == want.value_at(i), i


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
        for s in seeded_specs(303, 120):
            assert_same(s.canonical(), reference_canonical(s), s)

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
