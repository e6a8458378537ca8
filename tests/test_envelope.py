"""The lower envelope of the min-plus convolution and its point fold.

``_envelope``, and ``SeqSpec.from_terms`` through it, must give at every
index the least of the terms that cover it, by a per-index minimum: up to
40 terms, ``-inf`` terms, many terms of one slope, lines that tie where
they cross, terms reaching past ``[lo, hi]`` and gaps that no term covers.
``minplus_convolve`` folds each pair of single-index runs into one point
term per index: it must give the dense reference on windows of
single-index runs with ``-inf`` points, in both factor orders, and hand
``_envelope`` one point term per index of the point sums.
"""

from tdlf import MINUS_INF, PLUS_INF, ConstTail, ExtInt, SeqSpec, minplus_convolve
from tdlf import seqspec as seqspec_module
from tdlf.seqspec import _envelope, _tail_rays, run_pair
from helpers import rand_tail, reference_minplus_convolve, rng
from test_pieces import assert_same, outcome


def brute_envelope(terms, lo, hi):
    """The least covering term at each index of ``[lo, hi]``, one at a time."""
    return [min((MINUS_INF if s is None else ExtInt(s * i + o)
                 for k0, k1, s, o in terms if k0 <= i <= k1), default=PLUS_INF)
            for i in range(lo, hi + 1)]


def rand_terms(r, lo, hi):
    """Up to 40 terms from a few slopes, some ``-inf``, some crossing pairs
    that tie at an index; about half reach past ``[lo, hi]``."""
    slopes = [r.randint(-4, 4) for _ in range(r.randint(1, 4))]
    terms = []
    for _ in range(r.randint(0, 40)):
        k0 = r.randint(lo - 8, hi + 2)
        k1 = k0 + r.randint(0, 16)
        roll = r.below(10)
        if roll == 0:
            terms.append((k0, k1, None, -1))
        elif roll == 1:
            # two lines that meet at an index both cover
            c, v = r.randint(k0, k1), r.randint(-20, 20)
            for s in (r.randint(-4, 0), r.randint(1, 4)):
                terms.append((k0, k1, s, v - s * c))
        else:
            terms.append((k0, k1, slopes[r.below(len(slopes))], r.randint(-25, 25)))
    return terms


def test_envelope_against_a_per_index_minimum():
    r = rng(901)
    seen = {"-inf": 0, "shared slope": 0, "tie": 0, "past the window": 0, "+inf gap": 0,
            "over 30 terms": 0}
    for _ in range(600):
        lo = r.randint(-12, 4)
        hi = lo + r.randint(0, 30)
        terms = rand_terms(r, lo, hi)
        want = brute_envelope(terms, lo, hi)
        frags = _envelope(terms, lo, hi)
        assert [f[0] for f in frags] == [lo] + [f[1] + 1 for f in frags[:-1]]
        assert frags[-1][1] == hi
        got = [MINUS_INF if s is None and o < 0 else PLUS_INF if s is None else ExtInt(s * i + o)
               for x, y, s, o in frags for i in range(x, y + 1)]
        assert got == want, (terms, lo, hi)
        left, right = rand_tail(r), rand_tail(r)
        assert_same(SeqSpec.from_terms(lo, hi, terms, left, right), SeqSpec(lo, want, left, right))
        slopes = [t[2] for t in terms]
        seen["-inf"] += None in slopes
        seen["shared slope"] += any(slopes.count(s) > 2 for s in slopes if s is not None)
        seen["past the window"] += any(k0 < lo or k1 > hi for k0, k1, _, _ in terms)
        seen["+inf gap"] += PLUS_INF in want
        seen["over 30 terms"] += len(terms) > 30
        for i in range(lo, hi + 1):
            least = {(s, s * i + o) for k0, k1, s, o in terms
                     if k0 <= i <= k1 and s is not None and ExtInt(s * i + o) == want[i - lo]}
            seen["tie"] += len(least) > 1
    assert min(seen.values()) > 40, seen


def point_window(r, n):
    """``n`` single-index runs, one in six ``-inf``, 1 to 3 ``+inf``
    indices apart, with random tails."""
    vals = []
    for t in range(n):
        if t:
            vals += [PLUS_INF] * r.randint(1, 3)
        vals.append(MINUS_INF if r.below(6) == 0 else ExtInt(r.randint(-9, 40)))
    return SeqSpec(r.randint(-12, 6), vals, rand_tail(r), rand_tail(r))


def test_point_fold_against_the_reference():
    r = rng(902)
    seen = {"-inf point": 0, "divergent": 0, "with window": 0}
    for _ in range(300):
        a, b = point_window(r, r.randint(1, 9)), point_window(r, r.randint(1, 9))
        for x, y in ((a, b), (b, a)):
            got = outcome(minplus_convolve, x, y)
            assert_same(got, outcome(reference_minplus_convolve, x, y), x, y)
            if isinstance(got, SeqSpec):
                divergent = got.window_lo == got.window_hi and got.left == ConstTail(MINUS_INF)
                seen["divergent" if divergent else "with window"] += 1
        seen["-inf point"] += any(v == MINUS_INF for s in (a, b) for _, _, v in s.runs())
    assert min(seen.values()) > 30, seen


def test_point_pairs_reach_the_envelope_once_per_index(monkeypatch):
    """Windows of ``n`` and ``m`` single-index runs: at most ``n + m - 1``
    terms for their pairs, one per index of the point sums, besides the ray
    terms and at most two terms per run against each tail ray of the other
    factor; one term per pair would exceed that.  No term is empty."""
    handed = []
    envelope = seqspec_module._envelope

    def record(terms, lo, hi):
        handed.append(list(terms))
        return envelope(terms, lo, hi)

    monkeypatch.setattr(seqspec_module, "_envelope", record)
    r = rng(903)
    counted = 0
    for _ in range(150):
        n, m = r.randint(12, 30), r.randint(12, 30)
        a, b = (SeqSpec(r.randint(-9, 9), [PLUS_INF if t % 2 else ExtInt(r.randint(0, 49))
                                           for t in range(2 * size - 1)], rand_tail(r), rand_tail(r))
                for size in (n, m))
        del handed[:]
        minplus_convolve(a, b)
        if not handed:  # a constant convolution takes no envelope
            continue
        (terms,) = handed
        rays = sum(len(run_pair(ra, rb)) for ra in _tail_rays(a) for rb in _tail_rays(b))
        rays += 2 * (n * len(_tail_rays(b)) + m * len(_tail_rays(a)))
        assert len(terms) <= n + m - 1 + rays < n * m
        assert all(k0 <= k1 for k0, k1, _, _ in terms)
        counted += 1
    assert counted > 50
