"""The Kronecker-packed product kernel of ``mul``: against one-``PAdic``-at-
a-time products on inputs chosen to break slot packing, and
``series._diagonal_sums`` against the direct sums ``sum a_i b_j`` on every
diagonal.

The direct checks run every run-pair product through ``_wide_product``,
with the GMP kernel on and off (``gmp_off``), on units chosen to fill the
packed slots: all-ones units, units as wide as a slot allows, diagonal sums
next to the ``2^(16h)`` bound of a slot, runs of every length from 1 to 7,
gaps inside runs, factors of several runs and truncated sums.
"""

import pytest

from tdlf import EqualCharSeries, MixedSeries, PAdic, _gmp, mul
from tdlf import padic as padic_module
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


# -- the diagonal sums against the direct sums ---------------------------------


def direct_sums(p, xs, ys):
    """``v`` and the nonzero diagonal sums of the scaled units, one product
    at a time."""
    v = min((vi for vi, u, _ in xs.values() if u), default=0) + min(
        (vj for vj, u, _ in ys.values() if u), default=0
    )
    out = {}
    for i, (vi, ui, _) in xs.items():
        for j, (vj, uj, _) in ys.items():
            if ui and uj:
                out[i + j] = out.get(i + j, 0) + ui * uj * p ** (vi + vj - v)
    return v, {k: s for k, s in out.items() if s}


def stored(units, val=0, first=0):
    """``{i: (val, unit, precision)}`` for units at consecutive indices from
    ``first``."""
    return {first + t: (val, u, val + 10**6) for t, u in enumerate(units)}


def assert_exact(p, xs, ys):
    assert _diagonal_sums(p, xs, ys, covering_precision(xs, ys)) == direct_sums(p, xs, ys)


def slot_width(xs, ys, monkeypatch):
    """``h`` as ``_diagonal_sums`` packs ``xs`` and ``ys``, recorded from
    ``_pack_pm``."""
    widths = []
    pack = series_module._pack_pm

    def record(run, h):
        widths.append(h)
        return pack(run, h)

    with monkeypatch.context() as m:
        m.setattr(series_module, "_pack_pm", record)
        _diagonal_sums(2, xs, ys, covering_precision(xs, ys))
    assert len(set(widths)) == 1
    return widths[0]


@pytest.fixture(params=["kernel-on", "kernel-off"])
def engine(request, monkeypatch):
    """Every run-pair product through ``_wide_product``: by GMP where libgmp
    loads, and by ``*`` with the kernel off."""
    monkeypatch.setattr(series_module, "_WIDE_BITS", 0)
    monkeypatch.setattr(padic_module, "_GMP_MUL_BITS", 0)
    if request.param == "kernel-off":
        request.getfixturevalue("gmp_off")


def test_the_engine_reaches_gmp_for_every_run_pair(engine, monkeypatch):
    """Under ``engine`` both products of every run pair, of units as narrow
    as one bit, reach ``_gmp.mul``, which computes each of them with the
    kernel on and none with it off."""
    results = []
    kernel_mul = _gmp.mul

    def record(a, b):
        results.append(kernel_mul(a, b))
        return results[-1]

    monkeypatch.setattr(_gmp, "mul", record)
    xs, ys = {**stored([1, 1]), **stored([3], first=40)}, stored([1, 2, 3])
    assert len(_runs(sorted(xs.items()))) == 2
    assert_exact(2, xs, ys)
    on = bool(_gmp._kernel())
    assert len(results) == 2 * 2 and all((r is not None) == on for r in results)


@pytest.mark.usefixtures("engine")
def test_wide_runs_against_the_reference():
    """A mixed product of two 41-term series at relative precision 2048
    and valuations 0 to 2: its run pairs pack 4,760 bits an index."""
    r = rng(2107)

    def coeff():
        return PAdic.make(5, r.randint(0, 2), r.below(5**2047) * 5 + r.randint(1, 4), 2048)

    x, y = (MixedSeries.from_coeffs(5, {i: coeff() for i in range(-20, 21)}) for _ in range(2))
    assert_same_product(x, y)


@pytest.mark.usefixtures("engine")
@pytest.mark.parametrize("nx, ny", [(41, 41), (41, 25), (41, 15)])
def test_wide_run_pairs_of_unequal_lengths(nx, ny):
    """Two runs of units at relative precision 2048 and prime 5, each index
    4,760 bits of a packed run, as long as each other, or the shorter one
    more or less than half the longer: ``S_k`` equals the direct sums."""
    r = rng(2106 + ny)

    def unit():
        return r.below(5**2047) * 5 + r.randint(1, 4)

    xs = {i: (0, unit(), 2048) for i in range(nx)}
    ys = {j: (0, unit(), 2048) for j in range(-3, ny - 3)}
    assert len(_runs(sorted(xs.items()))) == len(_runs(sorted(ys.items()))) == 1
    assert_exact(5, xs, ys)
    assert_exact(5, ys, xs)


@pytest.mark.usefixtures("engine")
class TestDiagonalSums:
    def test_runs_of_every_length_and_parity(self):
        """Runs of lengths 1 to 7 against each other: ``nx + ny`` of both
        parities, so the even and the odd halves hold as many sums or one
        more."""
        r = rng(601)
        for p in PRIMES:
            for nx in range(1, 8):
                for ny in range(1, 8):
                    xs = stored([r.below(p**9) + 1 for _ in range(nx)], first=r.randint(-5, 5))
                    ys = stored([r.below(p**9) + 1 for _ in range(ny)], first=r.randint(-5, 5))
                    assert_exact(p, xs, ys)

    def test_all_ones_units(self):
        """Units ``2^b - 1`` carry into every bit of every slot."""
        for b in (1, 15, 16, 17, 31, 32, 33, 64, 200):
            for nx, ny in ((1, 1), (2, 3), (7, 7), (6, 4), (16, 9)):
                top = (1 << b) - 1
                assert_exact(2, stored([top] * nx), stored([top] * ny))

    def test_units_as_wide_as_the_slot_allows(self, monkeypatch):
        """A unit of ``16h - 1 - bitlen(n)`` bits against ``n`` units of one
        bit nearly fills the ``2h`` bytes the packer writes for it, and
        overlaps both neighbours of the other parity."""
        for h in (1, 2, 3, 8):
            for n in (1, 2, 3):
                b = 16 * h - 1 - n.bit_length()
                big = (1 << b) - 1
                xs, ys = stored([big, big - 1, big, 1 << (b - 1)]), stored([1] * n)
                assert slot_width(xs, ys, monkeypatch) == h
                assert_exact(2, xs, ys)
                assert_exact(2, ys, xs)

    def test_sums_next_to_the_slot_bound(self, monkeypatch):
        """All-ones units of ``b = 8h - 2`` bits on runs of 15 put the middle
        diagonal at ``15 (2^b - 1)^2``, in the top bit of its ``16h``-bit
        slot."""
        for h in (1, 2, 3, 5):
            b = 8 * h - 2
            top = (1 << b) - 1
            xs, ys = stored([top] * 15), stored([top] * 15)
            assert slot_width(xs, ys, monkeypatch) == h
            v, sums = _diagonal_sums(2, xs, ys, covering_precision(xs, ys))
            assert max(sums.values()) == 15 * top * top
            assert 2 ** (16 * h - 1) < max(sums.values()) < 2 ** (16 * h)
            assert (v, sums) == direct_sums(2, xs, ys)

    def test_random_run_pairs(self):
        """300 pairs of runs of 1 to 12 units of 1 to 300 bits, some of them
        all ones and some zero."""
        r = rng(607)

        def unit():
            b = r.randint(1, 300)
            return ((1 << b) - 1, 0, r.below(1 << b))[r.below(3)]

        for _ in range(300):
            xs = stored([unit() for _ in range(r.randint(1, 12))], first=r.randint(-9, 9))
            ys = stored([unit() for _ in range(r.randint(1, 12))], first=r.randint(-9, 9))
            assert_exact(2, xs, ys)

    def test_gaps_and_several_runs(self):
        """Gaps inside runs are zero slots; far indices start new runs, so
        each pair of runs is its own two products."""
        r = rng(602)
        several = 0
        for p in PRIMES:
            for _ in range(30):
                def factor():
                    out, i = {}, r.randint(-20, 0)
                    for _ in range(r.randint(1, 14)):
                        v = r.randint(-3, 3)  # a unit below p^20 is known to v + 20
                        out[i] = (v, r.below(p ** r.randint(1, 20)), v + 20)
                        i += 1 + (r.below(2) if r.below(4) else r.randint(5, 40))
                    return out

                xs, ys = factor(), factor()
                assert_exact(p, xs, ys)
                several += len(_runs([(i, 1) for i in xs])) > 1 and len(_runs([(i, 1) for i in ys])) > 1
        assert several > 20

    def test_truncated_sums(self):
        """With a precision each sum is congruent to the direct sum modulo
        ``p^(prec - v)``, and no sum is packed when ``prec - v <= 0``."""
        r = rng(603)
        for p in PRIMES:
            for _ in range(20):
                xs, ys = ({i: (v, r.randint(1, p - 1) + p * r.below(p**d), v + d + 1)
                           for i in range(r.randint(-7, 0), r.randint(1, 7)) if r.below(4)
                           for v, d in [(r.randint(-2, 2), r.randint(0, 40))]}
                          for _ in range(2))
                want_v, want = direct_sums(p, xs, ys)
                for prec in (-3, 1, 5, 20, 60):
                    v, sums = _diagonal_sums(p, xs, ys, prec)
                    if prec - want_v <= 0:
                        assert sums == {}
                        continue
                    assert v == want_v
                    mod = p ** (prec - v)
                    for k in set(want) | set(sums):
                        assert (sums.get(k, 0) - want.get(k, 0)) % mod == 0


def test_a_half_of_the_sum_bits(monkeypatch):
    """``h = ceil(bits / 16)`` bytes, ``bits = bx + by + bitlen(n)``: the
    ``2h``-byte slot holds every diagonal sum, and so every unit, as ``bits``
    exceeds ``bx`` and ``by``."""
    for bx, by, n in ((30, 30, 7), (64, 64, 1), (100, 3, 2), (3, 100, 2), (1000, 1, 1),
                      (17, 17, 40), (300, 299, 5)):
        xs, ys = stored([(1 << bx) - 1] * n), stored([(1 << by) - 1] * n)
        bits = bx + by + n.bit_length()
        want = -(-bits // 16)
        assert slot_width(xs, ys, monkeypatch) == want
        assert_exact(2, xs, ys)
