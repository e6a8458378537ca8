"""The identities the comparison and series code rests on: ``forall_ge`` is
``sup_diff <= 0`` with the arguments swapped, the valuation floor is the
value of ``vF_exponent``, and both series kinds take their operators from
one base."""

import pytest

from helpers import rand_equal_series, rand_mixed_series, rand_seqspec, reference_sup_diff_on, rng
from tdlf import EqualCharSeries, MixedSeries, add, forall_ge, mul, sup_diff, vF_exponent
from tdlf.seqspec import MINUS_INF, PLUS_INF, ConstTail, SeqSpec, sup_diff_on


def test_forall_ge_is_sup_diff_at_most_zero():
    for seed in range(4000):
        r = rng(seed)
        a, b = rand_seqspec(r), rand_seqspec(r)
        assert forall_ge(a, b) == (sup_diff(b, a) <= 0), seed
        assert forall_ge(a, a)


def test_sup_diff_on_an_empty_range_is_minus_inf():
    r = rng(1)
    a, b = rand_seqspec(r), rand_seqspec(r)
    assert repr(sup_diff_on(a, b, 3, 2)) == "-inf"


def test_sup_diff_on_a_plus_inf_tail_of_b_is_minus_inf():
    """Where ``b`` is a ``+inf`` tail every term drops, even over ``a = +inf``:
    the answer the run sweep gives, read off the tail alone."""
    a = SeqSpec.from_window({0: 1}, ConstTail(PLUS_INF), ConstTail(PLUS_INF))
    b = SeqSpec.from_window({0: 2, 1: 3}, ConstTail(PLUS_INF), ConstTail(PLUS_INF))
    for lo, hi in [(-50, -1), (2, 50)]:
        assert sup_diff_on(a, b, lo, hi) == MINUS_INF == reference_sup_diff_on(a, b, lo, hi)
    assert sup_diff_on(a, b, -5, 5) == PLUS_INF == reference_sup_diff_on(a, b, -5, 5)


def test_sup_diff_on_ranges_inside_a_plus_inf_tail_of_b():
    """Ranges that lie wholly in a ``+inf`` tail of ``b``, left and right,
    against random ``a`` (``-inf`` and ``+inf`` values and tails included):
    the run sweep drops every term, as the brute reference does."""
    r = rng(41)
    sides = {"left": 0, "right": 0}
    for _ in range(600):
        a, b = rand_seqspec(r), rand_seqspec(r)
        pinf = ConstTail(PLUS_INF)
        b = SeqSpec(b.window_lo, b.values, pinf if r.below(2) else b.left, pinf if r.below(2) else b.right)
        for side, tail in (("left", b.left), ("right", b.right)):
            if tail != pinf:
                continue
            width, gap = r.randint(0, 12), r.randint(1, 8)
            lo = b.window_lo - gap - width if side == "left" else b.window_hi + gap
            hi = lo + width
            assert sup_diff_on(a, b, lo, hi) == MINUS_INF == reference_sup_diff_on(a, b, lo, hi)
            sides[side] += 1
    assert min(sides.values()) > 200, sides


def test_the_valuation_floor_is_the_discrete_valuation():
    for seed in range(400):
        x = rand_mixed_series(rng(seed), tails=True)
        assert x.valuation_floor() == vF_exponent(x).value, seed


@pytest.mark.parametrize("kind", [EqualCharSeries, MixedSeries])
def test_series_operators(kind):
    make = rand_equal_series if kind is EqualCharSeries else rand_mixed_series
    for seed in range(40):
        r = rng(seed)
        x, y = make(r), make(r)
        neg = -x
        assert type(neg) is kind and [(i, -c) for i, c in x.coeffs] == list(neg.coeffs)
        assert [getattr(neg, f) for f in kind._fields if f != "stored"] == [
            getattr(x, f) for f in kind._fields if f != "stored"
        ]
        assert x + y == add(x, y) and x - y == add(x, -y) and x * y == mul(x, y)
        assert neg._map == dict(neg.stored)
