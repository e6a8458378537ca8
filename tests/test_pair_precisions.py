"""Product precisions from one packed min-plus product against the pair walk.

``series._pair_precisions`` gives, per product index with a stored pair, the
least of the tail remainder and of ``min(p_i + v_j, v_i + p_j)`` over its
pairs.  It reads the pair minima off big-int products (``_packed``) when the
stored counts and spans allow, and walks the pairs otherwise.  Both paths
must give what the plain double loop gives, on seeded stored sets: dense,
with gaps, far apart, with wide value ranges, against remainders that cap
the levels, with Laurent and target cuts.  The choice of path follows the
sizes only, and series products on the packed path match the
one-``PAdic``-at-a-time reference.
"""

import math
import time
import tracemalloc

from tdlf import PLUS_INF, MixedSeries, PAdic, SeqSpec, mul
from tdlf import series as series_module
from tdlf.seqspec import ConstTail
from tdlf.series import LeftValBound, RightValBound, _packed, _pair_precisions
from helpers import rand_coeff, reference_mul, rng

PLUS_TAIL = ConstTail(PLUS_INF)


def raw_minima(xs, ys, cut=math.inf):
    """The pair minima below ``cut`` by the plain double loop."""
    out = {}
    for i, (vi, _, pi) in xs.items():
        for j, (vj, _, pj) in ys.items():
            if i + j < cut:
                out[i + j] = min(out.get(i + j, math.inf), pi + vj, vi + pj)
    return out


def reference(xs, ys, rem, cut):
    """The pair minima met with ``rem``."""
    out = raw_minima(xs, ys, cut)
    rems = {k: rem.value_at(k) for k in out}
    return {k: q if rems[k] == PLUS_INF or q <= rems[k] else rems[k].n
            for k, q in sorted(out.items())}


def pick(r, options):
    return options[r.below(len(options))]


def stored(r, shape, n, vrange, rel):
    """``i -> (v, 1, p)`` for ``n`` indices laid out by ``shape``."""
    start = r.randint(-50, 50)
    if shape == "dense":
        idx = range(start, start + n)
    elif shape == "gaps":
        idx = [start + t for t in range(2 * n) if r.below(2)] or [start]
    else:  # far apart: the span is far larger than the count
        idx, i = [], start
        for _ in range(n):
            idx.append(i)
            i += r.randint(20, 400)
    out = {}
    for i in idx:
        v = r.randint(-3, -3 + vrange)
        out[i] = (v, 1, v + r.randint(1, rel))
    return out


def remainder(r, lo, hi, kind):
    """A remainder on ``[lo, hi]``: none, a low one that caps every pair
    value, or random affine terms that cap some."""
    if kind == "none":
        terms = []
    elif kind == "low":
        terms = [(lo, hi, 0, r.randint(-8, 0))]
    else:
        terms = []
        for _ in range(r.randint(1, 4)):
            a = r.randint(lo, hi)
            b = r.randint(a, hi)
            terms.append((a, b, r.randint(-1, 1), r.randint(-10, 30) - r.randint(-1, 1) * a))
    return SeqSpec.from_terms(lo, hi, terms, PLUS_TAIL, PLUS_TAIL)


def counted(monkeypatch):
    """Counts of the calls to ``_packed`` that gave minima, that declined,
    and of the walks."""
    seen = {"packed": 0, "declined": 0, "walk": 0}
    packed, walk = series_module._packed, series_module._walk

    def on_packed(*args):
        out = packed(*args)
        seen["packed" if out is not None else "declined"] += 1
        return out

    def on_walk(*args):
        seen["walk"] += 1
        return walk(*args)

    monkeypatch.setattr(series_module, "_packed", on_packed)
    monkeypatch.setattr(series_module, "_walk", on_walk)
    return seen


def test_packed_precisions_match_the_walk(monkeypatch):
    seen = counted(monkeypatch)
    r = rng(1701)
    cases = 0
    for shape in ("dense", "gaps", "far"):
        for vrange in (0, 3, 12, 80):
            for rem_kind in ("none", "low", "terms"):
                for _ in range(6):
                    xs = stored(r, shape, r.randint(1, 40), vrange, pick(r, (1, 8, 40)))
                    ys = stored(r, shape, r.randint(1, 40), vrange, pick(r, (1, 8, 40)))
                    lo, hi = min(xs) + min(ys) - 3, max(xs) + max(ys) + 3
                    rem = remainder(r, lo, hi, rem_kind)
                    laurent = r.randint(min(xs) + min(ys) - 1, max(xs) + max(ys) + 1)
                    target = rem.first_at_most(r.randint(-6, 20), lo, hi)
                    cuts = [math.inf, laurent] + ([target + 1] if target is not None else [])
                    for cut in cuts:
                        got = _pair_precisions(xs, ys, rem, cut)
                        want = reference(xs, ys, rem, cut)
                        assert list(got) == list(want)
                        assert got == want
                        cases += 1
    assert cases > 500
    # every kind of input took the path its sizes pick
    assert min(seen.values()) > 30, seen


def test_packed_minima_are_exact_below_the_cap():
    """``_packed`` alone: a key per index with a pair, the exact minimum
    where it is below the remainder's largest value, and at least that
    value where it is not."""
    r = rng(1702)
    checked = capped = 0
    for _ in range(300):
        xs = stored(r, pick(r, ("dense", "gaps")), r.randint(8, 40), r.randint(0, 4), 6)
        ys = stored(r, pick(r, ("dense", "gaps")), r.randint(8, 40), r.randint(0, 4), 6)
        i0, i1, j0, j1 = min(xs), max(xs), min(ys), max(ys)
        count = i1 + j1 - i0 - j0 + 1
        rem = remainder(r, i0 + j0, i1 + j1, pick(r, ("none", "low", "terms")))
        runs = rem.spans(i0 + j0, i1 + j1)
        cap = max(rem.value_at(k) for k in range(i0 + j0, i1 + j1 + 1))
        got = _packed(xs, ys, i1 - i0 + 1, j1 - j0 + 1, count, runs)
        if got is None:
            continue
        want = raw_minima(xs, ys)
        assert [k for k, _ in got] == sorted(want)
        for k, q in got:
            if want[k] < cap:
                assert q == want[k]
                checked += 1
            else:
                assert q >= cap
                capped += 1
    assert checked > 1000 and capped > 1000


def test_the_path_follows_sizes_not_values(monkeypatch):
    """Three stored terms walk; far-apart ones walk whatever their count;
    dense ones pack; a wide value range declines the packing."""
    seen = counted(monkeypatch)
    rem = SeqSpec.from_terms(-10**7, 10**7, [], PLUS_TAIL, PLUS_TAIL)
    small = {i: (0, 1, 5) for i in range(3)}
    _pair_precisions(small, small, rem, math.inf)
    assert seen == {"packed": 0, "declined": 0, "walk": 1}
    far = {i * 10**5: (0, 1, 5) for i in range(40)}
    _pair_precisions(far, far, rem, math.inf)
    assert seen == {"packed": 0, "declined": 0, "walk": 2}
    dense = {i: (i % 3, 1, i % 3 + 5) for i in range(40)}
    _pair_precisions(dense, dense, rem, math.inf)
    assert seen == {"packed": 1, "declined": 0, "walk": 2}
    wide = {**dense, 7: (10**8, 1, 10**8 + 5)}
    assert _pair_precisions(wide, dense, rem, math.inf) == reference(wide, dense, rem, math.inf)
    assert seen == {"packed": 1, "declined": 1, "walk": 3}


def dense_series(r, n, tails):
    coeffs = {i: rand_coeff(r, vlo=0, vhi=3) for i in range(-(n // 2), n - n // 2)}
    if not tails:
        return MixedSeries.from_coeffs(5, coeffs)
    left = LeftValBound(r.randint(1, 3), r.randint(0, 4))
    return MixedSeries.from_coeffs(5, coeffs, left=left, right=RightValBound(r.randint(0, 4)))


def test_packed_series_products_match_the_reference(monkeypatch):
    seen = counted(monkeypatch)
    r = rng(1703)
    for _ in range(12):
        tails = bool(r.below(2))
        x, y = dense_series(r, r.randint(12, 24), tails), dense_series(r, r.randint(12, 24), tails)
        assert mul(x, y) == reference_mul(x, y)
    assert seen["packed"] == 12 and seen["walk"] == 0


def test_a_huge_valuation_walks_in_bounded_time_and_memory():
    """Two 81-term factors, one coefficient at valuation 10^8: the value
    range takes the walk, so neither time nor memory follows the valuation."""
    one = PAdic.one(5)
    x = MixedSeries.from_coeffs(5, {i: one for i in range(81)})
    y = MixedSeries.from_coeffs(5, {**{i: one for i in range(81)}, 40: PAdic.pi_power(5, 10**8)})
    tracemalloc.start()
    try:
        start = time.perf_counter()
        z = mul(x, y)
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert took < 2 and peak < 4 * 2**20
    assert len(z.stored) == 161
