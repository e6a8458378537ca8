import pytest

from tdlf import (
    EqualCharSeries,
    ExtInt,
    IncompatiblePrimes,
    KindMismatch,
    LeftValBound,
    MixedSeries,
    PAdic,
    PLUS_INF,
    PrecisionExhausted,
    RightValBound,
    SeminormSpec,
    SeqSpec,
    ZeroElement,
    ZeroTail,
    add,
    eval_exponent,
    mul,
    partial_sum,
    rank2_equal,
    rank2_mixed,
    series_from_json,
    vF_exponent,
)
from tdlf.seqspec import AffineTail, ConstTail
from helpers import (
    PRIME,
    rand_coeff,
    rand_equal_series,
    rand_mixed_series,
    rng,
    translate_seq,
)

P = PRIME
ONE = PAdic.from_int(1, P)


def congruent(a, b) -> bool:
    """Series agree coefficientwise within the weaker reported precision."""
    lo = min(getattr(a, "lo", getattr(a, "order", 0)), getattr(b, "lo", getattr(b, "order", 0)))
    hi = max(
        max((i for i, _ in a.coeffs), default=0),
        max((i for i, _ in b.coeffs), default=0),
    )
    for i in range(lo, hi + 1):
        d = a.coeff(i) - b.coeff(i)
        if not (d.is_exact_zero or d.is_zero_within_precision):
            return False
    return True


class TestAdd:
    def test_polynomials(self):
        x = EqualCharSeries.from_coeffs(P, {0: ONE, 1: ONE})
        y = EqualCharSeries.from_coeffs(P, {1: ONE})
        z = add(x, y)
        assert z.coeff(0) == ONE
        assert z.coeff(1).unit % P == 2

    def test_add_zero(self):
        r = rng(31)
        x = rand_mixed_series(r)
        assert add(x, MixedSeries.zero(P)) == x

    def test_mixed_coefficient_carry(self):
        x = MixedSeries.monomial(P, -1, PAdic.pi_power(P, 1))
        y = MixedSeries.monomial(P, -1, PAdic.pi_power(P, 2))
        z = add(x, y)
        assert z.coeff(-1).val == 1

    def test_kind_and_prime_mismatch(self):
        with pytest.raises(KindMismatch):
            add(MixedSeries.zero(5), EqualCharSeries.zero(5))
        with pytest.raises(IncompatiblePrimes):
            add(MixedSeries.zero(5), MixedSeries.zero(7))

    def test_tail_guarantees_combine(self):
        x = MixedSeries.from_coeffs(
            P, {0: ONE}, left=LeftValBound(2, 3), right=RightValBound(1)
        )
        y = MixedSeries.from_coeffs(
            P, {-2: ONE}, left=LeftValBound(1, 0), right=ZeroTail()
        )
        z = add(x, y)
        assert isinstance(z.left, LeftValBound) and z.left.slope == 1
        assert isinstance(z.right, RightValBound) and z.right.floor == 1
        # x's bound rebased to the wider window stays valid
        assert z.coeff(-3).val >= min(x.coeff(-3).val, y.coeff(-3).val)


class TestMul:
    def test_one_minus_t_squared(self):
        x = EqualCharSeries.from_coeffs(P, {0: ONE, 1: ONE})
        y = EqualCharSeries.from_coeffs(P, {0: ONE, 1: -ONE})
        z = mul(x, y)
        expected = EqualCharSeries.from_coeffs(P, {0: ONE, 2: -(ONE * ONE)})
        assert congruent(z, expected)

    def test_mul_by_one(self):
        r = rng(32)
        for _ in range(20):
            x = rand_mixed_series(r)
            assert congruent(mul(x, MixedSeries.monomial(P, 0, ONE)), x)

    def test_telescoping(self):
        n = 6
        a = MixedSeries.from_coeffs(P, {0: ONE, -1: -PAdic.pi_power(P, 1)})
        b = MixedSeries.from_coeffs(P, {-j: PAdic.pi_power(P, j) for j in range(n + 1)})
        z = mul(a, b)
        residue = z - MixedSeries.monomial(P, 0, ONE)
        v = vF_exponent(residue)
        assert v.value >= n + 1

    def test_truncation_of_product(self):
        x = EqualCharSeries.from_coeffs(P, {0: ONE}, trunc=4)
        y = EqualCharSeries.from_coeffs(P, {2: ONE}, order=2)
        z = mul(x, y)
        assert z.trunc == 6 and z.order == 2

    def test_mul_exact_zero(self):
        r = rng(33)
        x = rand_equal_series(r)
        assert mul(x, EqualCharSeries.zero(P)) == EqualCharSeries.zero(P)

    def test_field_axioms_within_precision(self):
        r = rng(34)
        for _ in range(12):
            x = rand_mixed_series(r, span=(-3, 3))
            y = rand_mixed_series(r, span=(-3, 3))
            z = rand_mixed_series(r, span=(-3, 3))
            assert congruent(mul(x, y), mul(y, x))
            assert congruent(mul(mul(x, y), z), mul(x, mul(y, z)))
            assert congruent(mul(x, add(y, z)), add(mul(x, y), mul(x, z)))

    def test_field_axioms_equal_char(self):
        r = rng(35)
        for _ in range(12):
            x = rand_equal_series(r, span=(-3, 3))
            y = rand_equal_series(r, span=(-3, 3))
            z = rand_equal_series(r, span=(-3, 3))
            assert congruent(mul(x, y), mul(y, x))
            assert congruent(mul(mul(x, y), z), mul(x, mul(y, z)))
            assert congruent(mul(x, add(y, z)), add(mul(x, y), mul(x, z)))

    def test_product_with_valbound_tails_certifies(self):
        x = MixedSeries.from_coeffs(P, {0: ONE}, left=LeftValBound(1, 0))
        y = MixedSeries.from_coeffs(P, {0: ONE}, left=LeftValBound(2, 1))
        z = mul(x, y)
        assert isinstance(z.left, LeftValBound)
        # the t^-1 coefficient is unknown but bounded: both tails reach it
        c = z.coeff(-1)
        assert not c.valuation_exact and c.val.is_finite

    def test_explicit_target_raises_when_uncertifiable(self):
        x = MixedSeries.from_coeffs(P, {0: ONE}, left=LeftValBound(1, 0))
        with pytest.raises(PrecisionExhausted):
            mul(x, x, target_precision=100)


class TestMonomialShift:
    def test_seminorm_shifts_predictably(self):
        # multiplying by p^a t^b turns the weight n into i -> n(i + b) - a
        from tdlf import shift_add

        base = SeqSpec.from_window({0: 0}, ConstTail(ExtInt(0)), AffineTail(-1, 0))
        spec = SeminormSpec(base, "mixed")
        r = rng(36)
        for _ in range(15):
            x = rand_mixed_series(r, span=(-4, 4))
            a, b = r.randint(-3, 3), r.randint(-3, 3)
            mono = MixedSeries.monomial(P, b, PAdic.pi_power(P, a))
            shifted = SeminormSpec(shift_add(translate_seq(base, b), -a), "mixed")
            lhs = eval_exponent(spec, mul(mono, x))
            rhs = eval_exponent(shifted, x)
            assert lhs.exponent == rhs.exponent and lhs.exact == rhs.exact


class TestPartialSum:
    def test_cut_at_zero(self):
        x = MixedSeries.from_coeffs(P, {-1: ONE, 0: ONE, 1: ONE})
        s = partial_sum(x, 0)
        assert s.coeff(-1) == ONE and s.coeff(0) == ONE
        assert s.coeff(1).is_exact_zero and isinstance(s.right, ZeroTail)

    def test_cut_below_support_zero_tail(self):
        x = MixedSeries.from_coeffs(P, {0: ONE, 1: ONE})
        assert partial_sum(x, -5) == MixedSeries.zero(P)

    def test_cut_inside_left_bound(self):
        x = MixedSeries.from_coeffs(P, {0: ONE}, left=LeftValBound(1, 2))
        s = partial_sum(x, -3)
        assert isinstance(s.left, LeftValBound)
        c = s.coeff(-3)
        assert not c.valuation_exact and c.val == x.coeff(-3).val

    def test_equal_char_becomes_exact(self):
        x = EqualCharSeries.from_coeffs(P, {0: ONE, 3: ONE}, trunc=5)
        s = partial_sum(x, 2)
        assert s.trunc == PLUS_INF and s.coeff(3).is_exact_zero

    def test_exponent_strictly_decreases(self):
        # weights -i beyond 0 against a flat right valuation floor
        from tdlf import tail_remainder

        x = MixedSeries.from_coeffs(P, {0: ONE}, right=RightValBound(0))
        seq = SeqSpec.from_window({0: 0}, ConstTail(ExtInt(0)), AffineTail(-1, 0))
        spec = SeminormSpec(seq, "mixed")
        exps = []
        for n in range(1, 11):
            res = eval_exponent(spec, tail_remainder(x, n))
            exps.append(res.exponent)
        for a, b in zip(exps, exps[1:]):
            assert b < a

    def test_tail_remainder_past_the_window_keeps_the_right_floor(self):
        # x_2 of 1 + tail(v>=0) is bounded only by the floor: not an exact zero
        from tdlf import tail_remainder
        from tdlf.parser import parse_series

        y = parse_series("1 + tail(v>=0)", P)
        c = tail_remainder(y, 1).coeff(2)
        assert str(c) == "O(5^0)" and c == PAdic.zero_mod(P, 0)

    def test_repr_costs_the_pieces_not_the_window(self):
        from tdlf import tail_remainder

        x = MixedSeries.from_coeffs(P, {0: ONE}, left=LeftValBound(1, 0), right=RightValBound(0))
        for s in (partial_sum(x, 10**5), tail_remainder(x, -10**5)):
            assert len(repr(s)) < 1000

    def test_tail_remainder_matches_subtraction_on_exact_series(self):
        r = rng(39)
        for _ in range(20):
            x = rand_mixed_series(r)
            n = r.randint(-8, 8)
            from tdlf import tail_remainder

            direct = x - partial_sum(x, n)
            exact = tail_remainder(x, n)
            for i in range(-10, 11):
                d = direct.coeff(i) - exact.coeff(i)
                assert d.is_exact_zero or d.is_zero_within_precision


class TestValuations:
    def test_vF_example(self):
        x = MixedSeries.from_coeffs(P, {-1: PAdic.pi_power(P, 2), 1: ONE})
        res = vF_exponent(x)
        assert res.value == 0 and res.exact

    def test_vF_zero(self):
        res = vF_exponent(MixedSeries.zero(P))
        assert res.value == PLUS_INF and res.exact

    def test_vF_additive_under_scaling(self):
        r = rng(37)
        for _ in range(20):
            x = rand_mixed_series(r)
            if vF_exponent(x).value == PLUS_INF:
                continue
            y = mul(MixedSeries.monomial(P, 0, PAdic.pi_power(P, 1)), x)
            assert vF_exponent(y).value == vF_exponent(x).value + 1

    def test_vF_bound_only_is_flagged(self):
        x = MixedSeries.from_coeffs(P, {0: PAdic.pi_power(P, 3)}, right=RightValBound(1))
        res = vF_exponent(x)
        assert res.value == 1 and not res.exact

    def test_rank2_mixed_examples(self):
        x = MixedSeries.from_coeffs(P, {-1: PAdic.pi_power(P, 2), 1: ONE})
        assert rank2_mixed(x) == (ExtInt(0), ExtInt(1))
        assert rank2_mixed(MixedSeries.monomial(P, 0, PAdic.pi_power(P, 1))) == (
            ExtInt(1),
            ExtInt(0),
        )
        assert rank2_mixed(MixedSeries.monomial(P, -3, ONE)) == (ExtInt(0), ExtInt(-3))

    def test_rank2_mixed_errors(self):
        with pytest.raises(ZeroElement):
            rank2_mixed(MixedSeries.zero(P))
        fuzzy = MixedSeries.from_coeffs(P, {0: PAdic.zero_mod(P, 2), 1: PAdic.pi_power(P, 2)})
        with pytest.raises(PrecisionExhausted):
            rank2_mixed(fuzzy)

    def test_rank2_mixed_against_vF_and_coefficients(self):
        # windows with stored and zero-within-precision coefficients, either
        # tail kind on each side, and their sums, products and partial sums
        r = rng(2048)

        def window_series():
            lo, hi = r.randint(-6, 0), r.randint(0, 6)
            coeffs = {}
            for i in range(lo, hi + 1):
                kind = r.below(4)
                if kind == 0:
                    coeffs[i] = rand_coeff(r, P, -3, 3)
                elif kind == 1:
                    coeffs[i] = PAdic.zero_mod(P, r.randint(-3, 4))
            left = LeftValBound(r.randint(1, 3), r.randint(-4, 4)) if r.below(2) else ZeroTail()
            right = RightValBound(r.randint(-4, 4)) if r.below(2) else ZeroTail()
            return MixedSeries.from_coeffs(P, coeffs, left=left, right=right, lo=lo, hi=hi)

        def derived():
            x = window_series()
            kind = r.below(4)
            if kind == 1:
                return add(x, window_series())
            if kind == 2:
                return mul(x, window_series())
            if kind == 3:
                return partial_sum(x, r.randint(-8, 8))
            return x

        seen = {"zero": 0, "inexact": 0, "exact": 0}
        for _ in range(2000):
            x = derived()
            v = vF_exponent(x)
            if v.value == PLUS_INF:
                with pytest.raises(ZeroElement):
                    rank2_mixed(x)
                seen["zero"] += 1
            elif not v.exact:
                with pytest.raises(PrecisionExhausted):
                    rank2_mixed(x)
                seen["inexact"] += 1
            else:
                v1, i = rank2_mixed(x)
                assert v1 == v.value, x
                c = x.coeff(i.n)
                assert c.val == v1 and not c.is_zero_within_precision, x
                assert all(x.coeff(j).val > v1 for j in range(x.lo - 3, i.n)), x
                seen["exact"] += 1
        assert min(seen.values()) >= 50, seen

    def test_rank2_equal_examples(self):
        x = EqualCharSeries.from_coeffs(P, {-2: PAdic.pi_power(P, 3), 1: ONE})
        assert rank2_equal(x) == (ExtInt(-2), ExtInt(3))
        assert rank2_equal(EqualCharSeries.from_coeffs(P, {0: ONE})) == (ExtInt(0), ExtInt(0))
        assert rank2_equal(EqualCharSeries.monomial(P, 5, ONE)) == (ExtInt(5), ExtInt(0))

    def test_rank2_equal_errors(self):
        with pytest.raises(ZeroElement):
            rank2_equal(EqualCharSeries.zero(P))
        with pytest.raises(PrecisionExhausted):
            rank2_equal(EqualCharSeries.from_coeffs(P, {}, trunc=3))
        leading_fuzz = EqualCharSeries.from_coeffs(P, {0: PAdic.zero_mod(P, 2), 1: ONE})
        with pytest.raises(PrecisionExhausted):
            rank2_equal(leading_fuzz)


class TestJson:
    def test_round_trip_both_kinds(self):
        r = rng(38)
        for _ in range(25):
            x = rand_mixed_series(r, tails=True)
            assert series_from_json(x.to_json()) == x
            y = rand_equal_series(r)
            assert series_from_json(y.to_json()) == y


def test_from_coeffs_refuses_a_coefficient_of_another_prime():
    with pytest.raises(IncompatiblePrimes, match="coefficient prime 7 != 5"):
        MixedSeries.from_coeffs(5, {0: PAdic.one(7)})


def test_from_coeffs_drops_an_exact_zero():
    x = MixedSeries.from_coeffs(P, {0: PAdic.zero(P), 1: ONE})
    assert x == MixedSeries.monomial(P, 1, ONE)
    assert x.coeff(0).is_exact_zero


@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_tail_bounds_refuse_fields_that_are_not_ints(bad):
    with pytest.raises(TypeError, match="left tail bound needs ints"):
        LeftValBound(bad, 0)
    with pytest.raises(TypeError, match="left tail bound needs ints"):
        LeftValBound(1, bad)
    with pytest.raises(TypeError, match="right tail bound needs an int"):
        RightValBound(bad)
