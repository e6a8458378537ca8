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
