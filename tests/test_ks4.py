"""Four-point Kronecker substitution (KS4) in ``series._diagonal_sums``.

The sums are checked against the direct sums ``sum a_i b_j`` over every
diagonal, on units chosen to fill the packed slots: units of exactly ``16h``
bits, all-ones units, diagonal sums next to the ``2^(2M-1)`` bound of the
recovery, runs of every length from 1 to 7, gaps inside runs and factors of
several runs.  The recovery step ``_unfold`` is checked alone.
"""

from tdlf import series as series_module
from tdlf.series import _diagonal_sums, _runs, _unfold
from helpers import covering_precision, rng

PRIMES = (2, 5, 2**61 - 1)


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


def slot_width(xs, ys):
    """``h`` as ``_diagonal_sums`` packs ``xs`` and ``ys``, recorded from
    ``_pack_pm``."""
    widths = []
    pack = series_module._pack_pm

    def record(run, h):
        widths.append(h)
        return pack(run, h)

    series_module._pack_pm = record
    try:
        _diagonal_sums(2, xs, ys, covering_precision(xs, ys))
    finally:
        series_module._pack_pm = pack
    assert len(set(widths)) == 1
    return widths[0]


class TestSums:
    def test_runs_of_every_length_and_parity(self):
        """Runs of lengths 1 to 7 against each other: ``nx + ny`` of both
        parities, so the reflected halves swap parity half of the time."""
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

    def test_units_of_exactly_two_slots(self):
        """A unit of exactly ``16h`` bits fills the ``2h`` bytes the packer
        writes for it."""
        for h in (1, 2, 3, 8):
            big = (1 << (16 * h)) - 1
            xs, ys = stored([big, big - 1, big, 1 << (16 * h - 1)]), stored([1, 1])
            assert slot_width(xs, ys) == h
            assert_exact(2, xs, ys)
            assert_exact(2, ys, xs)

    def test_sums_next_to_the_recovery_bound(self):
        """All-ones units of ``b`` bits on runs of 7 put the middle diagonal at
        ``7 (2^b - 1)^2``, just below ``2^(2M-1)`` when ``2b + 3 = 32h - 1``."""
        for h in (1, 2, 3, 5):
            b = (32 * h - 4) // 2
            top = (1 << b) - 1
            xs, ys = stored([top] * 7), stored([top] * 7)
            assert slot_width(xs, ys) == h
            v, sums = _diagonal_sums(2, xs, ys, covering_precision(xs, ys))
            m = 16 * h
            assert max(sums.values()) == 7 * top * top
            assert 2 ** (2 * m - 2) < max(sums.values()) < 2 ** (2 * m - 1)
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
        each pair of runs is its own four products."""
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


class TestSlotWidth:
    def test_a_quarter_of_the_sum_bits(self):
        """``h = max(ceil((bits+1)/32), ceil(bx/16), ceil(by/16))`` bytes:
        about half the two-point width."""
        for bx, by, n in ((30, 30, 7), (64, 64, 1), (100, 3, 2), (3, 100, 2), (1000, 1, 1),
                          (17, 17, 40), (300, 299, 5)):
            xs, ys = stored([(1 << bx) - 1] * n), stored([(1 << by) - 1] * n)
            bits = bx + by + n.bit_length()
            want = max(-(-(bits + 1) // 32), -(-bx // 16), -(-by // 16))
            assert slot_width(xs, ys) == want
            assert_exact(2, xs, ys)


def unfold(f, g, count, h):
    """``c_0 .. c_(count-1)`` as ``_unfold`` adds them into a dict, from
    index 1 in steps of 2, zeros left out."""
    sums = {}
    _unfold(f, g, count, h, 1, sums)
    assert all(c and k % 2 and k < 2 * count for k, c in sums.items())
    return [sums.get(1 + 2 * t, 0) for t in range(count)]


class TestUnfold:
    def test_random_sums_below_the_bound(self):
        r = rng(605)
        for h in (1, 2, 3, 7):
            m = 16 * h
            bound = 1 << (2 * m - 1)
            for count in (1, 2, 3, 4, 9, 40):
                for _ in range(40):
                    cs = [(bound - 1, 0, r.below(bound), r.below(1 << m), 1)[r.below(5)]
                          for _ in range(count)]
                    f = sum(c << (t * m) for t, c in enumerate(cs))
                    g = sum(c << ((count - 1 - t) * m) for t, c in enumerate(cs))
                    assert unfold(f, g, count, h) == cs

    def test_the_maximum_everywhere(self):
        for h in (1, 4):
            m = 16 * h
            top = (1 << (2 * m - 1)) - 1
            for count in range(1, 12):
                cs = [top] * count
                f = sum(c << (t * m) for t, c in enumerate(cs))
                g = sum(c << ((count - 1 - t) * m) for t, c in enumerate(cs))
                assert unfold(f, g, count, h) == cs

    def test_no_sums(self):
        assert unfold(0, 0, 0, 3) == []
