"""The Toom-3 layer ``series._mul`` of the wide products of ``mul``.

It is the engine of hosts where libgmp does not load, so every test here
runs with the GMP kernel switched off (``gmp_off``).

``_mul(a, b)`` is checked against ``a * b`` on seeded operands around the
cutoff ``_TOOM_BITS``, deep enough to split twice, with zeros, every sign
combination, operands more than 2x apart and operands with a zero limb.
Then ``_diagonal_sums`` is checked against the direct diagonal sums on run
pairs wide enough to take the split, counted through ``_toom_points``.
"""

import random

import pytest

from tdlf import MixedSeries, PAdic, mul
from tdlf import series as series_module
from tdlf.series import _TOOM_BITS, _diagonal_sums, _mul
from helpers import covering_precision, reference_mul

T = _TOOM_BITS

pytestmark = pytest.mark.usefixtures("gmp_off")


@pytest.fixture
def splits(monkeypatch):
    """The limb width ``k`` of every Toom-3 split, in call order."""
    widths = []
    split = series_module._toom_points

    def record(x, k):
        widths.append(k)
        return split(x, k)

    monkeypatch.setattr(series_module, "_toom_points", record)
    return widths


def check(a, b):
    for x, y in ((a, b), (b, a), (-a, b), (a, -b), (-a, -b)):
        assert _mul(x, y) == x * y


def test_across_the_cutoff(splits):
    """Just below the cutoff an operand goes to ``*``; at and above it both
    operands are split."""
    r = random.Random(2101)
    for bits in (T - 1, T, T + 1):
        for _ in range(3):
            a, b = r.getrandbits(bits) | 1 << bits - 1, r.getrandbits(bits) | 1 << bits - 1
            del splits[:]
            check(a, b)
            assert bool(splits) == (bits >= T)
    del splits[:]
    check(1 << T - 1, (1 << T) - 1)
    assert splits


def test_two_levels_deep(splits):
    """Operands of ``10 T`` bits split into limbs past the cutoff, which
    split again; all-ones limbs carry through every point."""
    r = random.Random(2102)
    for a, b in ((r.getrandbits(10 * T), r.getrandbits(10 * T)),
                 ((1 << 10 * T) - 1, (1 << 10 * T) - 1),
                 (r.getrandbits(10 * T), (1 << 10 * T) - 1)):
        del splits[:]
        assert _mul(a, b) == a * b
        assert len(splits) >= 1 + 5  # the five point products split again
    del splits[:]
    check(r.getrandbits(12 * T), r.getrandbits(11 * T))
    assert len(splits) >= 6


def test_zeros_and_signs():
    r = random.Random(2103)
    big = r.getrandbits(4 * T)
    for a, b in ((0, big), (big, 0), (0, 0), (0, -big), (1, big), (-1, big)):
        assert _mul(a, b) == a * b == _mul(b, a)
    a, b = r.getrandbits(4 * T), r.getrandbits(3 * T)
    check(a, b)


def test_unbalanced_operands_go_to_the_product(splits):
    """Operands more than 2x apart are multiplied by ``*``; at 2x they are
    split, the shorter one with a zero top limb."""
    r = random.Random(2104)
    a = r.getrandbits(6 * T) | 1 << 6 * T - 1
    b = r.getrandbits(3 * T - 1) | 1 << 3 * T - 2
    check(a, b)
    assert not splits
    b = r.getrandbits(3 * T) | 1 << 3 * T - 1
    check(a, b)
    k = splits[0]
    assert b >> 2 * k == 0  # the shorter operand's top limb is zero


def test_zero_limbs(splits):
    """An operand whose top limb, middle limb or low limb is zero."""
    r = random.Random(2105)
    n = 6 * T
    k = (n + 2) // 3
    a = r.getrandbits(n) | 1 << n - 1
    for b in (r.getrandbits(2 * k) | 1 << 2 * k - 1,  # top limb 0
              (1 << 2 * k + 5) + r.getrandbits(k),  # middle limb 0
              r.getrandbits(n - k) << k | 1 << n - 1,  # low limb 0
              1 << n - 1):  # only the top bit
        check(a, b)
    assert splits


def unit(r, digits):
    return r.randrange(5 ** (digits - 1)) * 5 + r.randint(1, 4)


def direct_sums(xs, ys):
    out = {}
    for i, (_, a, _) in xs.items():
        for j, (_, b, _) in ys.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


@pytest.mark.parametrize("nx, ny", [(41, 41), (41, 25), (41, 15)])
def test_diagonal_sums_through_the_split(nx, ny, splits, monkeypatch):
    """Two runs at relative precision 2048 and prime 5, so slots of 2,384
    bits: ``S_k`` equals the direct sums.  Each run pair passes its four
    products to ``_mul``; runs of 41 and 41, or 41 and 25, take the Toom-3
    split, and 41 against 15 (operands more than 2x apart) take ``*``."""
    calls = []

    def record(a, b):
        calls.append(min(a.bit_length(), b.bit_length()))
        return toom(a, b)

    toom = series_module._mul
    monkeypatch.setattr(series_module, "_mul", record)
    r = random.Random(2106 + ny)
    xs = {i: (0, unit(r, 2048), 2048) for i in range(nx)}
    ys = {j: (0, unit(r, 2048), 2048) for j in range(-3, ny - 3)}
    v, sums = _diagonal_sums(5, xs, ys, covering_precision(xs, ys))
    assert v == 0 and sums == direct_sums(xs, ys)
    assert len(calls) >= 4 and max(calls) >= T
    assert bool(splits) == (ny > nx // 2)


def test_mul_through_the_split(splits):
    """A mixed product of two 41-term series at relative precision 2048
    equals the one-product-at-a-time reference and takes the split."""
    r = random.Random(2107)
    x, y = (MixedSeries.from_coeffs(5, {i: PAdic.make(5, r.randint(0, 2), unit(r, 2048), 2048)
                                        for i in range(-20, 21)})
            for _ in range(2))
    z = mul(x, y)
    assert splits
    want = reference_mul(x, y)
    assert z == want and z.to_json() == want.to_json()


def test_narrow_products_never_call_it(monkeypatch):
    """Below the cutoff the run pair multiplies by ``*`` at once: a window-81
    product at relative precision 32 makes no call to ``_mul``."""

    def refuse(a, b):
        raise AssertionError("a narrow product called _mul")

    r = random.Random(2108)
    x, y = (MixedSeries.from_coeffs(5, {i: PAdic.make(5, 0, unit(r, 32), 32) for i in range(81)})
            for _ in range(2))
    want = mul(x, y)
    monkeypatch.setattr(series_module, "_mul", refuse)
    assert mul(x, y) == want
