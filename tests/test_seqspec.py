import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdlf import (
    MINUS_INF,
    PLUS_INF,
    AffineTail,
    ConstTail,
    ExtInt,
    SeqSpec,
    UndefinedInfiniteSum,
    minplus_convolve,
    pointwise_max,
    pointwise_min,
    reflect_affine,
    shift_add,
)
from helpers import brute_minplus_value, naive_value_at, rand_seqspec, rng


class TestExtInt:
    def test_total_order(self):
        assert MINUS_INF < ExtInt(-(10**9)) < ExtInt(0) < ExtInt(10**9) < PLUS_INF

    def test_saturating_add(self):
        assert ExtInt(2) + 3 == 5
        assert PLUS_INF + 5 == PLUS_INF
        assert MINUS_INF + 5 == MINUS_INF
        assert PLUS_INF + PLUS_INF == PLUS_INF

    def test_opposite_infinities_error(self):
        with pytest.raises(UndefinedInfiniteSum):
            PLUS_INF + MINUS_INF

    def test_subtraction_conventions(self):
        # a - (+inf) saturates down, a - (-inf) saturates up
        assert ExtInt(1) - PLUS_INF == MINUS_INF
        assert ExtInt(1) - MINUS_INF == PLUS_INF

    def test_json_round_trip(self):
        for v in (ExtInt(-3), ExtInt(0), PLUS_INF, MINUS_INF):
            assert ExtInt.from_json(v.to_json()) == v

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_add_matches_int(self, a, b):
        assert ExtInt(a) + ExtInt(b) == ExtInt(a + b)

    def test_hash_agrees_with_int_equality(self):
        assert ExtInt(5) == 5 and hash(ExtInt(5)) == hash(5)
        assert {ExtInt(5): 1}[5] == 1 and {5: 1}[ExtInt(5)] == 1
        assert len({PLUS_INF, MINUS_INF, ExtInt(0)}) == 3
        assert hash(PLUS_INF) != hash(MINUS_INF)


class TestValueAt:
    def test_window_lookup(self):
        s = SeqSpec.from_window({0: 3}, ConstTail(MINUS_INF), ConstTail(MINUS_INF))
        assert s.value_at(0) == 3

    def test_tail_lookup(self):
        s = SeqSpec.from_window({0: 3}, ConstTail(MINUS_INF), ConstTail(MINUS_INF))
        assert s.value_at(7) == MINUS_INF

    def test_affine_tail(self):
        s = SeqSpec.from_window({0: 3}, AffineTail(-1, 0), ConstTail(MINUS_INF))
        assert s.value_at(-4) == 4

    def test_agrees_with_naive_evaluator(self):
        r = rng(11)
        for _ in range(60):
            s = rand_seqspec(r)
            for i in range(-100, 101):
                assert s.value_at(i) == naive_value_at(s, i)


class TestPointwise:
    def test_min_constants(self):
        s = pointwise_min(SeqSpec.constant(0), SeqSpec.constant(1))
        assert all(s.value_at(i) == 0 for i in range(-50, 51))

    def test_max_crossing_inside_window(self):
        a = SeqSpec.from_window({5: 0}, AffineTail(1, 0), ConstTail(ExtInt(0)))
        b = SeqSpec.constant(2)
        out = pointwise_max(a, b)
        assert out.window_lo <= 2 <= out.window_hi
        for i in range(-30, 31):
            assert out.value_at(i) == max(a.value_at(i), b.value_at(i))

    def test_min_idempotent(self):
        r = rng(12)
        for _ in range(40):
            s = rand_seqspec(r)
            out = pointwise_min(s, s)
            assert out.eq_pointwise(s, -100, 100)

    def test_min_max_correct_on_random_pairs(self):
        r = rng(13)
        for _ in range(60):
            a, b = rand_seqspec(r), rand_seqspec(r)
            mn, mx = pointwise_min(a, b), pointwise_max(a, b)
            for i in range(-100, 101):
                assert mn.value_at(i) == min(a.value_at(i), b.value_at(i))
                assert mx.value_at(i) == max(a.value_at(i), b.value_at(i))


class TestReflectShift:
    def test_const_zero_reflect_one(self):
        out = reflect_affine(SeqSpec.constant(0), 1)
        assert all(out.value_at(i) == 1 for i in range(-50, 51))

    def test_const_zero_reflect_zero(self):
        out = reflect_affine(SeqSpec.constant(0), 0)
        assert all(out.value_at(i) == 0 for i in range(-50, 51))

    def test_involution(self):
        r = rng(14)
        for _ in range(60):
            s = rand_seqspec(r)
            out = reflect_affine(reflect_affine(s, 1), 1)
            assert out.eq_pointwise(s, -50, 50)

    def test_reflect_saturation(self):
        s = SeqSpec.from_window({0: PLUS_INF}, ConstTail(MINUS_INF), ConstTail(PLUS_INF))
        out = reflect_affine(s, 1)
        assert out.value_at(0) == MINUS_INF
        assert out.value_at(5) == PLUS_INF  # 1 - (-inf)
        assert out.value_at(-5) == MINUS_INF

    def test_shift_const(self):
        assert shift_add(SeqSpec.constant(0), 2).eq_pointwise(SeqSpec.constant(2), -50, 50)

    def test_shift_saturates(self):
        s = shift_add(SeqSpec.constant(PLUS_INF), -5)
        assert s.value_at(3) == PLUS_INF

    def test_shift_affine_tail(self):
        s = SeqSpec.from_window({0: 0}, ConstTail(ExtInt(0)), AffineTail(1, 0))
        out = shift_add(s, 3)
        assert out.right == AffineTail(1, 3)
        for i in range(-20, 21):
            assert out.value_at(i) == s.value_at(i) + 3


class TestMinplusConvolve:
    def test_delta_identity(self):
        r = rng(15)
        for _ in range(40):
            s = rand_seqspec(r)
            out = minplus_convolve(SeqSpec.delta(), s)
            assert out.eq_pointwise(s, -40, 40)

    def test_const_zero_square(self):
        out = minplus_convolve(SeqSpec.constant(0), SeqSpec.constant(0))
        assert all(out.value_at(k) == 0 for k in range(-30, 31))

    def test_absolute_value_shape(self):
        f = SeqSpec.from_window({0: 0}, AffineTail(-1, 0), AffineTail(1, 0))
        out = minplus_convolve(f, f)
        for k in range(-20, 21):
            expected = brute_minplus_value(f, f, k, radius=40)
            assert out.value_at(k) == expected == abs(k)

    def test_matches_certified_brute_force(self):
        from tdlf import brute_minplus

        r = rng(16)
        for _ in range(50):
            a, b = rand_seqspec(r), rand_seqspec(r)
            out = minplus_convolve(a, b)
            for k in range(-20, 21):
                assert out.value_at(k) == brute_minplus(a, b, k, window=(-60, 60))

    def test_commutative_associative(self):
        r = rng(17)
        for _ in range(25):
            a, b, c = rand_seqspec(r), rand_seqspec(r), rand_seqspec(r)
            ab, ba = minplus_convolve(a, b), minplus_convolve(b, a)
            assert ab.eq_pointwise(ba, -20, 20)
            left = minplus_convolve(ab, c)
            right = minplus_convolve(a, minplus_convolve(b, c))
            assert left.eq_pointwise(right, -20, 20)

    def test_divergent_side_gives_minus_inf(self):
        # exponents unbounded below on the left against a constant floor
        a = SeqSpec.from_window({0: 0}, AffineTail(1, 0), ConstTail(ExtInt(0)))
        out = minplus_convolve(a, SeqSpec.constant(0))
        assert all(out.value_at(k) == MINUS_INF for k in range(-10, 11))


class TestCanonicalAndJson:
    def test_equivalent_presentations_share_canonical(self):
        a = SeqSpec.from_window({0: PLUS_INF}, ConstTail(PLUS_INF), ConstTail(MINUS_INF))
        b = SeqSpec.from_window({1: MINUS_INF}, ConstTail(PLUS_INF), ConstTail(MINUS_INF))
        assert a.canonical() == b.canonical()

    def test_canonical_preserves_values(self):
        r = rng(18)
        for _ in range(60):
            s = rand_seqspec(r)
            assert s.canonical().eq_pointwise(s, -60, 60)

    def test_canonical_idempotent(self):
        r = rng(19)
        for _ in range(40):
            s = rand_seqspec(r).canonical()
            assert s.canonical() == s

    def test_slope_zero_affine_normalises(self):
        s = SeqSpec.from_window({0: 5}, AffineTail(0, 2), ConstTail(ExtInt(7)))
        assert s.canonical().left == ConstTail(ExtInt(2))

    def test_json_round_trip(self):
        r = rng(20)
        for _ in range(40):
            s = rand_seqspec(r)
            assert SeqSpec.from_json(s.to_json()) == s

    def test_empty_window_json(self):
        s = SeqSpec.from_json(
            {
                "window": {},
                "left": {"kind": "const", "value": 0},
                "right": {"kind": "const", "value": "-inf"},
            }
        )
        assert s.value_at(-1) == 0
        assert s.value_at(0) == MINUS_INF


class TestExtIntInput:
    def test_bool_is_refused_like_other_non_ints(self):
        for bad in (True, False, 1.0, "1", None):
            with pytest.raises(TypeError, match="ExtInt needs an int"):
                ExtInt(bad)
        assert ExtInt(1) == 1 and ExtInt(-(10**30)).n == -(10**30)


def test_an_infinity_has_no_integer_value():
    with pytest.raises(ValueError, match="infinite ExtInt has no integer value"):
        PLUS_INF.n


def test_values_read_from_the_end():
    s = SeqSpec(3, [1, 2, 7], ConstTail(ExtInt(0)), ConstTail(ExtInt(0)))
    assert (s.values[-1], s.values[-3]) == (7, 1)
    with pytest.raises(IndexError):
        s.values[-4]


def test_an_empty_window_is_refused():
    with pytest.raises(ValueError, match="at least one value"):
        SeqSpec(0, [], ConstTail(ExtInt(0)), ConstTail(ExtInt(0)))
