"""Differential tests pitting closed forms against independent enumeration."""

import pytest

from tdlf import (
    MINUS_INF,
    PLUS_INF,
    EqualCharSeries,
    MixedSeries,
    PAdic,
    SeqSpec,
    brute_seminorm,
    eval_exponent,
    forall_ge,
    mul,
    pairing,
    sup_diff,
)
from tdlf.errors import PrecisionExhausted
from tdlf.seqspec import AffineTail, ConstTail
from tdlf.series import _remainder, product_coeff
from helpers import (
    PRIME,
    rand_equal_series,
    rand_mixed_series,
    rand_seminorm,
    rand_seqspec,
    reference_mul,
    reference_tail_pairs_bound,
    rng,
)

P = PRIME


def represent(s: SeqSpec, r, pad: int) -> SeqSpec:
    """The same total map with tail values materialised into the window."""
    lo = s.window_lo - r.below(pad + 1)
    hi = s.window_hi + r.below(pad + 1)
    vals = tuple(s.value_at(i) for i in range(lo, hi + 1))
    return SeqSpec(lo, vals, s.left, s.right)


class TestCanonicalisation:
    def test_representation_invariance(self):
        r = rng(201)
        for _ in range(100):
            s = rand_seqspec(r)
            t = represent(s, r, 6)
            assert t.eq_pointwise(s, -60, 60)
            assert s.canonical() == t.canonical()


class TestGlobalComparisons:
    def test_forall_ge_matches_enumeration(self):
        # windows and slopes are small, so any order flip shows inside the
        # enumerated range
        r = rng(202)
        for _ in range(300):
            a, b = rand_seqspec(r), rand_seqspec(r)
            enumerated = all(a.value_at(i) >= b.value_at(i) for i in range(-200, 201))
            assert forall_ge(a, b) == enumerated

    def test_forall_ge_reflexive(self):
        r = rng(203)
        for _ in range(50):
            a = rand_seqspec(r)
            assert forall_ge(a, a)

    def test_sup_diff_matches_enumeration(self):
        def ext_diff(x, y):
            if x == MINUS_INF or y == PLUS_INF:
                return MINUS_INF
            if x == PLUS_INF or y == MINUS_INF:
                return PLUS_INF
            from tdlf import ExtInt

            return ExtInt(x.n - y.n)

        def enumerate_sup(a, b, radius):
            out = MINUS_INF
            for i in range(-radius, radius + 1):
                out = max(out, ext_diff(a.value_at(i), b.value_at(i)))
            return out

        r = rng(204)
        for _ in range(300):
            a, b = rand_seqspec(r), rand_seqspec(r)
            got = sup_diff(a, b)
            near = enumerate_sup(a, b, 200)
            if got == PLUS_INF:
                # divergence: widening the enumeration keeps raising the sup
                assert near == PLUS_INF or enumerate_sup(a, b, 400) > near
            else:
                assert got == near


class TestMixedMulDifferential:
    @staticmethod
    def brute_product_coeff(x: MixedSeries, y: MixedSeries, k: int, radius: int) -> PAdic:
        acc = PAdic.zero(P)
        for i in range(-radius, radius + 1):
            j = k - i
            if not -radius <= j <= radius:
                continue
            acc = acc + x.coeff(i) * y.coeff(j)
        return acc

    def test_exact_parts_agree(self):
        r = rng(205)
        for _ in range(40):
            x = rand_mixed_series(r, span=(-4, 4), tails=True)
            y = rand_mixed_series(r, span=(-4, 4), tails=True)
            z = mul(x, y)
            for k in range(-6, 7):
                brute = self.brute_product_coeff(x, y, k, radius=30)
                d = z.coeff(k) - brute
                assert d.is_exact_zero or d.is_zero_within_precision

    def test_claimed_bounds_are_sound(self):
        # widening the enumeration can only confirm the claimed lower bound
        r = rng(206)
        for _ in range(40):
            x = rand_mixed_series(r, span=(-3, 3), tails=True)
            y = rand_mixed_series(r, span=(-3, 3), tails=True)
            z = mul(x, y)
            for k in range(-5, 6):
                claimed = z.coeff(k)
                brute = self.brute_product_coeff(x, y, k, radius=40)
                if claimed.valuation_exact and brute.valuation_exact:
                    assert claimed.val == brute.val
                else:
                    assert min(claimed.val, claimed.precision) <= brute.precision or (
                        brute.val >= claimed.val
                    )


class TestSeminormWithBounds:
    def test_eval_matches_brute_on_materialised_coefficients(self):
        # the brute oracle sees tail positions as their materialised
        # zero-within-precision bounds, exactly the bound-only candidates
        # the closed form takes its suprema over
        r = rng(207)
        agreements = 0
        for _ in range(400):
            spec = rand_seminorm(r, "mixed")
            x = rand_mixed_series(r, span=(-5, 5), tails=True)
            try:
                res = eval_exponent(spec, x)
            except PrecisionExhausted:
                continue
            assert res.exponent == brute_seminorm(spec, x, (-60, 60))
            agreements += 1
        assert agreements > 300

    def test_flagging_is_consistent(self):
        # an exact verdict never rests on a tail position
        r = rng(208)
        for _ in range(200):
            spec = rand_seminorm(r, "mixed")
            x = rand_mixed_series(r, span=(-5, 5), tails=False)
            res = eval_exponent(spec, x)
            if all(c.valuation_exact for _, c in x.coeffs):
                assert res.exact


# ---------------------------------------------------------------------------
# the product kernel against one-PAdic-at-a-time products


def roughen(r, x):
    """``x`` with some coefficients made zero within precision and some
    known to a lower precision, so products mix all coefficient states."""
    coeffs = {}
    for i, c in x.coeffs:
        roll = r.below(4)
        if roll == 0:
            c = PAdic.zero_mod(P, c.val.n + r.randint(-2, 2))
        elif roll == 1:
            c = PAdic.make(P, c.val.n, c.unit, c.val.n + r.randint(1, 8))
        coeffs[i] = c
    if isinstance(x, EqualCharSeries):
        return EqualCharSeries.from_coeffs(P, coeffs, order=x.order, trunc=x.trunc)
    return MixedSeries.from_coeffs(P, coeffs, left=x.left, right=x.right, lo=x.lo, hi=x.hi)


def rand_truncated(r, span=(-6, 6)):
    x = rand_equal_series(r, span=span)
    cut = r.randint(span[0], span[1] + 1)
    kept = {i: c for i, c in x.coeffs if i < cut}
    return EqualCharSeries.from_coeffs(P, kept, order=span[0], trunc=cut)


def rand_pair(r, kind):
    """Two series of one kind, sometimes rough, shifted or truncated."""
    out = []
    for _ in range(2):
        lo = r.randint(-8, 4)
        span = (lo, lo + r.randint(0, 8))
        if kind == "mixed":
            x = rand_mixed_series(r, span=span, tails=True)
        elif r.below(2):
            x = rand_truncated(r, span)
        else:
            x = rand_equal_series(r, span=span)
        out.append(roughen(r, x) if r.below(2) else x)
    return out


def outcome(f, *args):
    try:
        return f(*args)
    except PrecisionExhausted as exc:
        return ("PrecisionExhausted", str(exc))


KINDS = ("mixed", "equal")


class TestProductKernel:
    @pytest.mark.parametrize("kind", KINDS)
    def test_mul_matches_reference(self, kind):
        r = rng(209)
        for _ in range(150):
            x, y = rand_pair(r, kind)
            z = mul(x, y)
            assert z == reference_mul(x, y)
            assert z.to_json() == reference_mul(x, y).to_json()

    @pytest.mark.parametrize("kind", KINDS)
    def test_target_failure_names_the_same_index(self, kind):
        r = rng(210)
        raised = 0
        for _ in range(150):
            x, y = rand_pair(r, kind)
            precs = [c.precision.n for _, c in reference_mul(x, y).coeffs]
            for target in {min(precs, default=0) + 1, max(precs, default=0), 10**6}:
                want = outcome(reference_mul, x, y, target)
                assert outcome(mul, x, y, target) == want
                raised += isinstance(want, tuple)
        assert raised > 100

    @pytest.mark.parametrize("kind", KINDS)
    def test_pairing_is_the_product_coefficient(self, kind):
        r = rng(211)
        outside = beyond = 0
        for _ in range(200):
            x, y = rand_pair(r, kind)
            z = outcome(mul, x, y)
            want = outcome(z.coeff, 0) if not isinstance(z, tuple) else z
            assert outcome(pairing, x, y) == want
            for k in (-3, 5):
                assert outcome(product_coeff, x, y, k) == outcome(z.coeff, k)
            if kind == "mixed":
                outside += not z.lo <= 0 <= z.hi
            else:
                beyond += isinstance(want, tuple)
        assert outside > 20 or beyond > 20

    def test_pairing_below_the_laurent_order_is_zero(self):
        # the product vanishes below its order, even beyond its truncation
        x = EqualCharSeries.from_coeffs(P, {}, order=5, trunc=0)
        y = EqualCharSeries.monomial(P, 0, PAdic.one(P))
        assert pairing(x, y) == PAdic.zero(P)
        with pytest.raises(PrecisionExhausted):
            mul(x, y).coeff(0)

    def test_tail_bound_matches_the_scan(self):
        # including indices outside the product window, where product_coeff
        # reads the bound directly
        r, plus = rng(212), ConstTail(PLUS_INF)
        for _ in range(150):
            x, y = rand_pair(r, "mixed")
            for k in range(x.lo + y.lo - 12, x.hi + y.hi + 13):
                rem = SeqSpec.from_terms(k, k, _remainder(x, y, k, k), plus, plus)
                assert rem.value_at(k) == reference_tail_pairs_bound(x, y, k)
