"""Products that compute only the digits they certify: units reduced to the
output precision before packing, and the two-point (``+-2^N``) packing.

Every product is compared with one-``PAdic``-at-a-time references, on units
far wider than the digits their tails let the product keep."""

import math

import pytest

from tdlf import EqualCharSeries, MixedSeries, PAdic, mul, pairing
from tdlf.series import product_coeff
from tdlf import series as series_module
from tdlf.errors import PrecisionExhausted
from tdlf.series import LeftValBound, RightValBound, _diagonal_sums, _runs
from helpers import covering_precision, reference_mul, rng

PRIMES = (2, 5, 2**61 - 1)


def outcome(f, *args):
    try:
        return f(*args)
    except PrecisionExhausted as exc:
        return ("PrecisionExhausted", str(exc))


def wide_unit(r, p, val, digits):
    """A coefficient of valuation ``val`` whose unit has ``digits`` random
    base-p digits."""
    return PAdic.make(p, val, r.randint(1, p - 1) + p * r.below(p ** (digits - 1)), val + digits)


def digits_for(p):
    # 2^61 - 1 takes fewer digits, so its references stay quick
    return (256, 2048) if p < 2**32 else (20, 40)


def tailed(r, p, lo, hi, floor):
    """A mixed series with wide units of valuation 0..3 on ``[lo, hi]`` and
    tails that certify little beyond ``floor``."""
    low, high = digits_for(p)
    coeffs = {i: wide_unit(r, p, r.randint(0, 3), r.randint(low, high)) for i in range(lo, hi + 1)
              if r.below(5)}
    left = LeftValBound(r.randint(1, 2), floor + r.below(2))
    return MixedSeries.from_coeffs(p, coeffs, left=left, right=RightValBound(floor), lo=lo, hi=hi)


def direct_sum(x, y, k):
    """``sum x_i y_(k-i)`` over the stored pairs, one ``PAdic`` at a time."""
    ymap = dict(y.coeffs)
    acc = PAdic.zero(x.prime)
    for i, c in x.coeffs:
        if k - i in ymap:
            acc = acc + c * ymap[k - i]
    return acc


def assert_product_matches(x, y):
    got, want = mul(x, y), reference_mul(x, y)
    assert got == want
    assert got.to_json() == want.to_json()
    if isinstance(got, MixedSeries):
        ks = range(got.lo - 3, got.hi + 4)
    else:
        ks = range(got.order - 3, got.order + 30)
    for k in ks:
        assert outcome(got.coeff, k) == outcome(want.coeff, k), k
        assert outcome(product_coeff, x, y, k) == outcome(want.coeff, k), k
    assert outcome(pairing, x, y) == outcome(want.coeff, 0)
    return got


def relative_digits(z):
    return [c.precision.n - c.val.n for _, c in z.coeffs if c.unit]


@pytest.mark.parametrize("p", PRIMES)
def test_tails_cap_wide_units(p):
    """Units of hundreds to thousands of digits, products certified to
    fewer than ten: the result is the reference, digit for digit."""
    r = rng(501)
    kept = []
    for _ in range(3):
        x, y = tailed(r, p, -4, 3, r.randint(1, 3)), tailed(r, p, -3, 4, r.randint(1, 3))
        z = assert_product_matches(x, y)
        kept += relative_digits(z)
        # the pairing is the direct sum plus the tails' remainder
        c = pairing(x, y)
        assert (c - direct_sum(x, y, 0)).is_zero_within_precision
    assert kept and max(kept) < 10


@pytest.mark.parametrize("p", PRIMES)
def test_precisions_that_differ_along_the_product(p):
    """The left tail certifies more the further left a product index is, so
    output precisions differ; every one must keep its own digits, not the
    fewest any output keeps."""
    r = rng(502)
    for _ in range(3):
        x, y = tailed(r, p, -6, 0, 2), tailed(r, p, -6, 0, 2)
        z = assert_product_matches(x, y)
        precs = {c.precision.n for _, c in z.coeffs}
        assert len(precs) > 2


@pytest.mark.parametrize("p", PRIMES)
def test_products_that_keep_no_digit(p, monkeypatch):
    """``R <= 0``: every output is zero within precision and nothing is
    packed or multiplied."""
    r = rng(503)
    cases = []
    for _ in range(3):
        coeffs = [{i: wide_unit(r, p, 6 + r.below(3), 40) for i in range(-2, 3)} for _ in range(2)]
        x, y = (MixedSeries.from_coeffs(p, c, left=LeftValBound(1, 0), right=RightValBound(0))
                for c in coeffs)
        cases.append((x, y, reference_mul(x, y)))

    def refuse(*args):
        raise AssertionError("a unit was packed")

    monkeypatch.setattr(series_module, "_pack_pm", refuse)
    for x, y, want in cases:
        got = mul(x, y)
        assert got == want and got.to_json() == want.to_json()
        assert all(c.is_zero_within_precision for _, c in got.coeffs)
        for k in range(got.lo, got.hi + 1):
            assert product_coeff(x, y, k) == want.coeff(k)


def run_lengths(x):
    return [len(run) for run in _runs([(i, 1) for i, _ in x.coeffs])]


@pytest.mark.parametrize("p", PRIMES)
def test_laurent_runs_of_every_parity(p):
    """Truncated Laurent products whose factors are runs of length 1, 2,
    odd and even, alone and side by side, so the even and odd halves of
    the two-point product both carry and both come out empty."""
    r = rng(504)
    shapes = ([0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4, 5, 6], [0, 1, 30, 31, 32, 90])
    digits = (1, 6, 30)
    seen = set()
    for xs in shapes:
        for ys in shapes:
            for trunc in (2, 5, 40, 200):
                def series(idx):
                    coeffs = {i: wide_unit(r, p, r.below(3), digits[r.below(3)]) for i in idx}
                    return EqualCharSeries.from_coeffs(p, {i: c for i, c in coeffs.items() if i < trunc},
                                                       order=0, trunc=trunc)

                x, y = series(xs), series(ys)
                seen.update(run_lengths(x))
                assert_product_matches(x, y)
    assert {1, 2, 3, 4, 7} <= seen


def test_truncated_sums_are_congruent():
    """With a precision, each sum is congruent to the exact diagonal sum
    modulo ``p^(prec - v)``; at the covering precision, it is the exact
    sum."""
    r = rng(505)
    for p in PRIMES:
        for _ in range(20):
            xs, ys = ({i: (v, r.randint(1, p - 1) + p * r.below(p ** d), v + d + 1)
                       for i in range(r.randint(-9, 0), r.randint(1, 9)) if r.below(3)
                       for v, d in [(r.randint(-3, 3), r.randint(0, 30))]}
                      for _ in range(2))
            exact_v, exact = _diagonal_sums(p, xs, ys, covering_precision(xs, ys))
            for prec in (-5, 0, 3, 9, 40):
                v, sums = _diagonal_sums(p, xs, ys, prec)
                if prec - v <= 0:
                    assert sums == {}
                    continue
                assert v == exact_v
                mod = p ** (prec - v)
                for k in set(exact) | set(sums):
                    assert (sums.get(k, 0) - exact.get(k, 0)) % mod == 0


def test_slot_width_follows_the_certified_digits(monkeypatch):
    """On a tailed product that keeps at most 8 digits, a packed slot of
    the two-point product holds ``2 * 8 * log2(p) + bitlen(n) + 16`` bits at
    most, however wide the units: full-width packing fails this.  A product
    packs exactly when its stored pairs keep a digit: when the highest
    precision certified at a stored-pair index exceeds ``v_x + v_y``, the
    least valuations of the stored coefficients."""
    widths = []
    packed = 0

    def record(run, h):
        widths.append(h)
        return pack(run, h)

    pack = series_module._pack_pm
    monkeypatch.setattr(series_module, "_pack_pm", record)
    r = rng(506)
    for p in PRIMES:
        for _ in range(3):
            x, y = tailed(r, p, -1, 1, 1), tailed(r, p, -1, 1, 1)
            del widths[:]
            z = mul(x, y)
            v = min(c.val.n for _, c in x.coeffs) + min(c.val.n for _, c in y.coeffs)
            assert max(c.precision.n for _, c in z.coeffs) - v <= 8
            n = max(len(x.coeffs), len(y.coeffs))
            bound = 2 * 8 * math.log2(p) + n.bit_length() + 16
            # one unit alone is wider than the bound
            assert max(c.unit.bit_length() for _, c in x.coeffs) > bound
            ref = reference_mul(x, y)
            pair_ks = {i + j for i, _ in x.stored for j, _ in y.stored}
            v_stored = min(c.val.n for _, c in x.stored) + min(c.val.n for _, c in y.stored)
            keeps_digits = max(ref.coeff(k).precision.n for k in pair_ks) - v_stored > 0
            assert bool(widths) == keeps_digits
            assert not widths or 16 * max(widths) <= bound
            packed += bool(widths)
    assert packed == 8
