"""The window-pair kernel of the min-plus convolution.

``run_pair`` must give the least ``a(i) + b(k - i)`` of two affine runs at
every ``k`` of the pair, by a double loop over the pair: single-index runs,
both slope orders and ``-inf`` runs.  Against tail rays, fragments with one
open end, it must give the double loop over the fragments cut at +-60, or
``-inf`` where the cut at +-120 is lower still.  ``minplus_convolve`` builds its
window from run pairs alone, so it must give the dense reference on windows
of runs from 1 to 8 indices long, with ``-inf`` runs and affine, constant
and ``-inf`` tails.
"""

import math

from tdlf import MINUS_INF, PLUS_INF, AffineTail, ConstTail, ExtInt, SeqSpec, minplus_convolve
from tdlf.seqspec import run_pair
from helpers import reference_minplus_convolve, rng
from test_pieces import assert_same, outcome


def rand_run(r, minf=True):
    """``(x, y, slope, offset)`` of 1 to 8 indices; one in six ``-inf``."""
    x = r.randint(-9, 9)
    y = x + r.randint(0, 7)
    if minf and r.below(6) == 0:
        return x, y, None, -1
    return x, y, r.randint(-4, 4), r.randint(-20, 20)


def brute_pair(a, b):
    """``k -> least a(i) + b(k - i)`` over the pair, one ``i`` at a time."""
    def at(run, i):
        _, _, s, o = run
        return MINUS_INF if s is None else ExtInt(s * i + o)

    out = {}
    for i in range(a[0], a[1] + 1):
        for j in range(b[0], b[1] + 1):
            v = at(a, i) + at(b, j)
            out[i + j] = min(out.get(i + j, PLUS_INF), v)
    return out


def test_run_pair_against_a_double_loop():
    r = rng(801)
    seen = {"single index": 0, "s1 > s2": 0, "s1 < s2": 0, "s1 == s2": 0, "-inf": 0}
    for _ in range(1500):
        a, b = rand_run(r), rand_run(r)
        want = brute_pair(a, b)
        terms = run_pair(a, b)
        covered = {}
        for k0, k1, s, o in terms:
            for k in range(k0, k1 + 1):
                v = MINUS_INF if s is None else ExtInt(s * k + o)
                covered[k] = min(covered.get(k, PLUS_INF), v)
        assert covered == want, (a, b, terms)
        assert len(terms) <= 2
        seen["single index"] += a[0] == a[1] or b[0] == b[1]
        if a[2] is None or b[2] is None:
            seen["-inf"] += 1
        else:
            seen["s1 > s2" if a[2] > b[2] else "s1 < s2" if a[2] < b[2] else "s1 == s2"] += 1
    assert min(seen.values()) > 100, seen


def rand_window_tail(r):
    """An affine, a finite constant, a ``-inf`` or a ``+inf`` tail."""
    roll = r.below(8)
    if roll < 3:
        return AffineTail(r.randint(-3, 3) or 1, r.randint(-9, 9))
    if roll < 6:
        return ConstTail(ExtInt(r.randint(-9, 9)))
    return ConstTail(MINUS_INF if roll == 6 else PLUS_INF)


def rand_run_window(r):
    """A window of 1 to 4 runs, each 1 to 8 indices long: finite affine,
    ``-inf`` or ``+inf``."""
    vals = []
    for _ in range(r.randint(1, 4)):
        n, roll = r.randint(1, 8), r.below(8)
        if roll == 0:
            vals += [MINUS_INF] * n
        elif roll == 1:
            vals += [PLUS_INF] * n
        else:
            slope, v = r.randint(-4, 4), r.randint(-12, 12)
            vals += [ExtInt(v + slope * t) for t in range(n)]
    return SeqSpec(r.randint(-10, 6), tuple(vals), rand_window_tail(r), rand_window_tail(r))


def test_minplus_convolve_on_windows_of_runs():
    r = rng(802)
    seen = {"short run": 0, "long run": 0, "-inf run": 0, "affine tail": 0, "-inf tail": 0,
            "divergent": 0, "with window": 0}
    for _ in range(800):
        a, b = rand_run_window(r), rand_run_window(r)
        got = outcome(minplus_convolve, a, b)
        assert_same(got, outcome(reference_minplus_convolve, a, b), a, b)
        for s in (a, b):
            for x, y, v in s.runs():
                seen["short run" if y - x < 4 else "long run"] += v != PLUS_INF
                seen["-inf run"] += v == MINUS_INF
            seen["affine tail"] += isinstance(s.left, AffineTail) + isinstance(s.right, AffineTail)
            seen["-inf tail"] += (s.left, s.right).count(ConstTail(MINUS_INF))
        if isinstance(got, SeqSpec):
            constant = got.window_lo == got.window_hi and got.left == got.right
            seen["divergent" if constant and got.left == ConstTail(MINUS_INF) else "with window"] += 1
    assert min(seen.values()) > 200, seen


def rand_fragment(r):
    """A run of 1 to 8 indices, a leftward or a rightward ray, ends within
    ``[-9, 16]``; one in six ``-inf``."""
    x = r.randint(-9, 9)
    ends = ((x, x + r.randint(0, 7)), (-math.inf, x), (x, math.inf))[r.below(3)]
    if r.below(6) == 0:
        return *ends, None, -1
    return *ends, r.randint(-4, 4), r.randint(-20, 20)


def cut_least(a, b, k, cut):
    """The least ``a(i) + b(k - i)`` over the fragments cut to ``[-cut,
    cut]``, one ``i`` at a time, ``-inf`` and ``+inf`` as floats."""
    lo, hi = max(a[0], k - b[1], -cut, k - cut), min(a[1], k - b[0], cut, k + cut)
    if lo > hi:
        return math.inf
    if a[2] is None or b[2] is None:
        return -math.inf
    return min(a[2] * i + a[3] + b[2] * (k - i) + b[3] for i in range(int(lo), int(hi) + 1))


def test_run_pair_on_rays_against_cut_double_loops():
    """Runs, leftward and rightward rays, some ``-inf``: at every ``k`` of
    ``[-20, 20]`` the terms give the least over the fragments cut at +-60,
    unless the cut at +-120 is lower still, and then ``-inf``."""
    r = rng(803)
    seen = {"run + ray": 0, "same way": 0, "opposite": 0, "equal opposite": 0,
            "diverges": 0, "-inf": 0}
    for _ in range(3000):
        a, b = rand_fragment(r), rand_fragment(r)
        terms = run_pair(a, b)
        assert 1 <= len(terms) <= 2 and all(k0 <= k1 for k0, k1, _, _ in terms), (a, b, terms)
        for k in range(-20, 21):
            near, far = cut_least(a, b, k, 60), cut_least(a, b, k, 120)
            want = near if far == near else -math.inf
            got = min((-math.inf if s is None else s * k + o
                       for k0, k1, s, o in terms if k0 <= k <= k1), default=math.inf)
            assert got == want, (a, b, k, terms)
        rays = [f for f in (a, b) if math.inf in (-f[0], f[1])]
        if len(rays) == 1:
            seen["run + ray"] += 1
        elif len(rays) == 2 and (a[0] == -math.inf) == (b[0] == -math.inf):
            seen["same way"] += 1
        elif len(rays) == 2:
            seen["opposite"] += 1
            seen["equal opposite"] += a[2] == b[2] is not None
            seen["diverges"] += terms[0][:2] == (-math.inf, math.inf)
        seen["-inf"] += a[2] is None or b[2] is None
    assert min(seen.values()) > 30, seen
