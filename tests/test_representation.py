"""One series representation: the stored coefficients, each of exactly
known valuation, and one guarantee ``g``, a ``SeqSpec`` bounding every
other index.

These tests check what the outputs alone do not show: the size of a result
does not follow the distance between indices, the operations agree with the
per-index references on series far apart, and a JSON round trip keeps the
value and its hash.
"""

import pytest

from tdlf import (
    MINUS_INF,
    PLUS_INF,
    EqualCharSeries,
    LeftValBound,
    MixedSeries,
    PAdic,
    PrecisionExhausted,
    RightValBound,
    ZeroTail,
    add,
    mul,
    partial_sum,
    tail_remainder,
)
from tdlf.series import series_from_json
from helpers import (
    PRIME,
    rand_coeff,
    rand_mixed_series,
    reference_add,
    reference_mul,
    reference_partial_sum,
    reference_tail_remainder,
    rng,
)

ONE = PAdic.one(PRIME)


def item_one(n: int) -> dict:
    """The four operations whose results used to store one coefficient per
    index between ``0`` and ``+-n``."""
    lone = MixedSeries.from_coeffs(PRIME, {0: ONE}, left=LeftValBound(1, 0))
    rone = MixedSeries.from_coeffs(PRIME, {0: ONE}, right=RightValBound(0))
    far = MixedSeries.from_coeffs(
        PRIME, {0: ONE, n: PAdic.from_int(2, PRIME)}, right=RightValBound(0)
    )
    return {
        "add": add(lone, MixedSeries.monomial(PRIME, -n, ONE)),
        "partial_sum": partial_sum(rone, n),
        "tail_remainder": tail_remainder(lone, -n),
        "mul": mul(far, lone),
    }


def size(z) -> tuple[int, int]:
    return len(z.stored), len(z.g.pieces)


def test_size_does_not_follow_the_distance():
    results = {n: item_one(n) for n in (10, 10**3, 10**5)}
    for op in results[10]:
        sizes = {size(results[n][op]) for n in results}
        assert len(sizes) == 1, (op, sizes)
        assert next(iter(sizes))[0] <= 3


def test_the_small_results_list_every_index_of_the_window():
    z = item_one(10)
    assert len(z["add"].coeffs) == 11 and z["add"].lo == -10 and z["add"].hi == 0
    assert len(z["partial_sum"].coeffs) == 11 and z["partial_sum"].hi == 10
    assert len(z["tail_remainder"].coeffs) == 10 and z["tail_remainder"].lo == -9


def roughen(r, x: MixedSeries) -> MixedSeries:
    """``x`` with some coefficients made zero within precision."""
    coeffs = {i: PAdic.zero_mod(PRIME, c.val.n) if r.below(3) == 0 else c for i, c in x.coeffs}
    return MixedSeries.from_coeffs(PRIME, coeffs, left=x.left, right=x.right, lo=x.lo, hi=x.hi)


def far_pair(r, far: int = 1000):
    """A tailed series near 0 and one up to ``far`` indices away, in a tail
    region of the first; each sometimes with zeros within precision."""
    x = rand_mixed_series(r, span=(-3, 3), tails=True)
    while isinstance(x.left, ZeroTail) and isinstance(x.right, ZeroTail):
        x = rand_mixed_series(r, span=(-3, 3), tails=True)
    d = r.randint(10, far)
    if isinstance(x.left, ZeroTail) or (not isinstance(x.right, ZeroTail) and r.below(2)):
        lo = 3 + d
    else:
        lo = -3 - d - 2
    coeffs = {i: rand_coeff(r, vlo=0, vhi=6) for i in range(lo, lo + 3) if r.below(2)}
    y = MixedSeries.from_coeffs(PRIME, coeffs, lo=lo, hi=lo + 2)
    if r.below(3) == 0:
        x = roughen(r, x)
    if r.below(3) == 0:
        y = roughen(r, y)
    return x, y


def outcome(f, *args):
    try:
        return f(*args).to_json()
    except PrecisionExhausted as exc:
        return ("PrecisionExhausted", str(exc))


def test_operations_far_apart_match_the_references():
    r = rng(1301)
    for _ in range(30):
        x, y = far_pair(r)
        s = add(x, y)
        assert s.to_json() == reference_add(x, y).to_json()
        for n in (s.lo - r.randint(1, 50), r.randint(s.lo, s.hi), s.hi + r.randint(0, 50)):
            assert partial_sum(s, n).to_json() == reference_partial_sum(s, n).to_json()
            assert tail_remainder(s, n).to_json() == reference_tail_remainder(s, n).to_json()
        assert outcome(mul, x, y) == outcome(reference_mul, x, y)


def test_products_of_long_bound_runs_match_the_reference():
    """A sum far apart holds long runs of zeros within precision, and its
    product with a small series pairs those runs with every stored index;
    the reference walks every pair, so the distances stay below 200."""
    r = rng(1302)
    for _ in range(8):
        x, y = far_pair(r, 200)
        s = add(x, y)
        z = rand_mixed_series(r, span=(-2, 2), tails=r.below(2) == 1)
        assert outcome(mul, s, z) == outcome(reference_mul, s, z)
        assert outcome(mul, z, s) == outcome(reference_mul, z, s)


def rough_laurent(r) -> EqualCharSeries:
    """A Laurent series holding zeros within precision, truncated anywhere:
    above its coefficients, at or below its order, at ``-inf`` or not at
    all."""
    lo = r.randint(-6, 2)
    hi = lo + r.randint(0, 8)
    coeffs = {
        i: rand_coeff(r) if r.below(3) else PAdic.zero_mod(PRIME, r.randint(-3, 5))
        for i in range(lo, hi + 1)
        if r.below(2)
    }
    order = lo - r.below(3)
    roll = r.below(5)
    if roll == 0:
        return EqualCharSeries.from_coeffs(PRIME, {}, order=order, trunc=order - r.below(3))
    if roll == 1:
        return EqualCharSeries.from_coeffs(PRIME, {}, order=order, trunc=MINUS_INF)
    trunc = PLUS_INF if roll == 2 else hi + 1 + r.below(3)
    return EqualCharSeries.from_coeffs(PRIME, coeffs, order=order, trunc=trunc)


def test_laurent_operations_match_the_references_and_stay_canonical():
    """Laurent sums, partial sums and remainders are built from ``stored``
    and ``g``: each equals, with its hash, what the constructor builds from
    the listed coefficients, so its window is the canonical one."""
    r = rng(1303)
    for _ in range(300):
        x, y = rough_laurent(r), rough_laurent(r)
        n = r.randint(-9, 12)
        for got, want in (
            (add(x, y), reference_add(x, y)),
            (add(x, -x), reference_add(x, -x)),
            (partial_sum(x, n), reference_partial_sum(x, n)),
            (tail_remainder(x, n), reference_tail_remainder(x, n)),
        ):
            assert got == want and hash(got) == hash(want)
            assert got.to_json() == want.to_json()
        assert outcome(mul, x, y) == outcome(reference_mul, x, y)


@pytest.mark.parametrize(
    "series",
    [
        MixedSeries.from_coeffs(
            PRIME,
            {-2: PAdic.zero_mod(PRIME, 3), 0: ONE, 1: PAdic.zero_mod(PRIME, 0)},
            left=LeftValBound(2, 1),
            right=RightValBound(-1),
            lo=-4,
            hi=3,
        ),
        EqualCharSeries.from_coeffs(PRIME, {1: PAdic.zero_mod(PRIME, 2), 2: ONE}, trunc=5),
        EqualCharSeries.from_coeffs(PRIME, {0: PAdic.zero_mod(PRIME, 4)}),
        EqualCharSeries.from_coeffs(PRIME, {}, order=5, trunc=2),
        EqualCharSeries.from_coeffs(PRIME, {}, order=3, trunc=3),
        EqualCharSeries.from_coeffs(PRIME, {}, order=2, trunc=MINUS_INF),
    ],
    ids=["mixed-rough", "laurent-rough", "laurent-zero-mod", "trunc-below-order",
         "trunc-at-order", "trunc-minus-inf"],
)
def test_json_round_trip_keeps_the_value_and_its_hash(series):
    back = series_from_json(series.to_json())
    assert back == series and hash(back) == hash(series)
    assert back.to_json() == series.to_json()
    if isinstance(series, EqualCharSeries):
        assert (back.order, back.trunc) == (series.order, series.trunc)


def test_truncation_at_or_below_the_order_is_kept():
    x = EqualCharSeries.from_coeffs(PRIME, {}, order=5, trunc=2)
    assert (x.order, x.trunc) == (5, 2)
    assert x != EqualCharSeries.from_coeffs(PRIME, {}, order=5, trunc=3)
    with pytest.raises(PrecisionExhausted):
        x.coeff(3)
    assert x.coeff(1) == PAdic.zero(PRIME)
    assert EqualCharSeries.from_coeffs(PRIME, {}, order=5).trunc == PLUS_INF
