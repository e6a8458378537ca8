"""The Kronecker-packed product kernel of ``mul`` against one-``PAdic``-at-a-
time products, on inputs chosen to break slot packing."""

import pytest

from tdlf import EqualCharSeries, MixedSeries, PAdic, mul
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


def assert_same_product(x, y):
    """``mul`` equals ``reference_mul`` as a value, as JSON and at every
    index around the product."""
    got, want = mul(x, y), reference_mul(x, y)
    assert got == want
    assert got.to_json() == want.to_json()
    if isinstance(got, MixedSeries):
        lo, hi = got.lo - 3, got.hi + 3
    else:
        lo, hi = got.order - 3, got.order + 40
    for k in range(lo, hi + 1):
        assert outcome(got.coeff, k) == outcome(want.coeff, k), k


def top_unit(p, val, rel):
    """``(p^rel - 1) p^val``: every digit is ``p - 1``, so diagonal sums
    carry as far as they can."""
    return PAdic.make(p, val, p**rel - 1, val + rel)


def build(kind, p, coeffs, tails=False, trunc=None):
    if kind == "equal":
        trunc = trunc or 10**6
        kept = {i: c for i, c in coeffs.items() if i < trunc}
        return EqualCharSeries.from_coeffs(p, kept, order=min(coeffs), trunc=trunc)
    if tails:
        left, right = LeftValBound(1, -2), RightValBound(-1)
        return MixedSeries.from_coeffs(p, coeffs, left=left, right=right)
    return MixedSeries.from_coeffs(p, coeffs)


KINDS = ("mixed", "equal")


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("kind", KINDS)
class TestPackedProduct:
    def test_all_top_digit_units(self, kind, p):
        for rel in (1, 7, 32):
            x = build(kind, p, {i: top_unit(p, 0, rel) for i in range(-6, 7)})
            y = build(kind, p, {i: top_unit(p, 0, rel) for i in range(-4, 9)})
            assert_same_product(x, y)
            # mixed valuations stretch every packed coefficient to the top
            x = build(kind, p, {i: top_unit(p, i % 3, rel) for i in range(-6, 7)})
            assert_same_product(x, y)

    def test_negative_valuations(self, kind, p):
        r = rng(401)
        for _ in range(6):
            coeffs = [{i: top_unit(p, -r.randint(5, 20), r.randint(1, 9)) for i in range(-3, 4)}
                      for _ in range(2)]
            assert_same_product(build(kind, p, coeffs[0], tails=True),
                                build(kind, p, coeffs[1], tails=True))

    def test_zero_within_precision_at_the_least_valuation(self, kind, p):
        for low in (-9, 0, 2):
            x = build(kind, p, {-2: PAdic.zero_mod(p, low), 0: top_unit(p, 3, 5),
                                3: top_unit(p, 4, 2)})
            y = build(kind, p, {-1: top_unit(p, 3, 6), 1: PAdic.zero_mod(p, low - 1)})
            assert_same_product(x, y)
            # a factor whose only coefficients are zero within precision
            z = build(kind, p, {0: PAdic.zero_mod(p, low), 4: PAdic.zero_mod(p, low + 3)})
            assert_same_product(x, z)
            assert_same_product(z, z)

    def test_gaps_in_the_stored_indices(self, kind, p):
        x = build(kind, p, {-30: top_unit(p, 1, 4), -29: top_unit(p, 0, 3), 0: top_unit(p, 2, 8),
                            17: top_unit(p, 0, 2)}, tails=True)
        y = build(kind, p, {-5: top_unit(p, 0, 6), 11: top_unit(p, 3, 1), 12: top_unit(p, 0, 9)},
                  tails=True)
        assert_same_product(x, y)
        assert_same_product(y, x)

    def test_single_coefficient_factors(self, kind, p):
        x = build(kind, p, {4: top_unit(p, -2, 5)})
        y = build(kind, p, {-7: top_unit(p, 3, 2)})
        z = build(kind, p, {i: top_unit(p, i % 2, 3) for i in range(-3, 5)}, tails=True)
        for a, b in ((x, y), (x, x), (x, z), (z, y)):
            assert_same_product(a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_laurent_truncation_cuts_diagonals(p):
    for cut in range(-3, 9):
        coeffs = {i: top_unit(p, i % 2, 6) for i in range(-4, min(cut, 5))}
        x = build("equal", p, coeffs, trunc=cut)
        y = build("equal", p, {i: top_unit(p, 1, 4) for i in range(-2, 7)}, trunc=7)
        assert_same_product(x, y)
        assert_same_product(y, x)


def test_slots_hold_the_diagonal_sums():
    """Every slot of the packed product is the exact diagonal sum."""
    r = rng(402)
    for p in PRIMES:
        for _ in range(20):
            # a unit below p^12 at valuation v is known to precision v + 12
            xs, ys = ({i: (v, r.below(p**r.randint(1, 12)), v + 12)
                       for i in range(r.randint(-9, 0), r.randint(1, 9)) if r.below(3)
                       for v in [r.randint(-6, 6)]}
                      for _ in range(2))
            v, sums = _diagonal_sums(p, xs, ys, covering_precision(xs, ys))
            for k in {i + j for i in xs for j in ys}:
                want = sum(xs[i][1] * ys[k - i][1] * p ** (xs[i][0] + ys[k - i][0] - v)
                           for i in xs if k - i in ys)
                assert sums.get(k, 0) == want
            assert all(sums.values())


def test_runs_bound_the_packed_size():
    """Runs partition the stored indices in order and each spans at most
    twice its length; a factor at least half dense is one run."""
    r = rng(404)
    for _ in range(200):
        idx, i = [], r.randint(-50, 50)
        for _ in range(r.randint(1, 30)):
            idx.append(i)
            i += 1 + (r.below(10**r.randint(0, 9)) if r.below(4) == 0 else r.below(2))
        a = [(i, 1) for i in idx]
        runs = _runs(a)
        assert [item for run in runs for item in run] == a
        assert all(run[-1][0] - run[0][0] + 1 <= 2 * len(run) for run in runs)
    assert len(_runs([(i, 1) for i in range(-40, 41)])) == 1
    assert len(_runs([(i, 1) for i in range(-40, 41, 2)])) == 1


def test_far_apart_coefficients():
    """Laurent products of coefficients 10^6 indices apart cost what their
    pairs cost, not the distance: each coefficient is a run of its own."""
    d = 10**6
    coeffs = {0: top_unit(5, 0, 32), d: top_unit(5, 1, 32), 3 * d + 1: top_unit(5, 0, 9)}
    x = build("equal", 5, coeffs, trunc=4 * d)
    y = build("equal", 5, {-d: top_unit(5, 2, 7), 5: top_unit(5, 0, 32)}, trunc=2 * d)
    assert mul(x, y) == reference_mul(x, y)
    assert mul(x, x) == reference_mul(x, x)


@pytest.mark.parametrize("kind", KINDS)
def test_failing_target_does_no_big_int_work(kind, monkeypatch):
    def refuse(*args):
        raise AssertionError("packed multiply called before the target check")

    r = rng(403)
    cases = []
    for _ in range(30):
        coeffs = [{i: top_unit(5, r.randint(-3, 3), r.randint(1, 40))
                   for i in range(-5, 6) if r.below(2)} or {0: top_unit(5, 0, 3)}
                  for _ in range(2)]
        x = build(kind, 5, coeffs[0], tails=bool(r.below(2)), trunc=r.randint(2, 9))
        y = build(kind, 5, coeffs[1], tails=bool(r.below(2)), trunc=r.randint(2, 9))
        cases.append((x, y, [outcome(reference_mul, x, y, t) for t in (10**6, 30)]))
    monkeypatch.setattr(series_module, "_diagonal_sums", refuse)
    with pytest.raises(AssertionError, match="packed multiply"):
        mul(*cases[0][:2])  # the patch is on the path mul takes
    raised = 0
    for x, y, wants in cases:
        for t, want in zip((10**6, 30), wants):
            if isinstance(want, tuple):
                assert outcome(mul, x, y, t) == want
                raised += 1
    assert raised > 30
