import pytest

from tdlf import (
    BallResult,
    EqualCharSeries,
    ExtInt,
    KindMismatch,
    MINUS_INF,
    PLUS_INF,
    MixedSeries,
    NonAdmissibleSequence,
    PAdic,
    PrecisionExhausted,
    RightValBound,
    SeminormSpec,
    SeqSpec,
    brute_seminorm,
    closed_ball_test,
    eval_exponent,
    is_admissible_seq,
    membership,
    parse_series,
    scale,
    tail_remainder,
    validate,
)
from tdlf.seqspec import AffineTail, ConstTail
from tdlf.submodule import Membership
from helpers import (
    PRIME,
    rand_coeff,
    rand_lattice,
    rand_seminorm,
    rand_series,
    rng,
)

P = PRIME
ONE = PAdic.from_int(1, P)


class TestValidate:
    def test_mixed_flat_is_rejected(self):
        spec = SeminormSpec(SeqSpec.constant(0), "mixed")
        with pytest.raises(NonAdmissibleSequence, match="tend to -inf"):
            validate(spec)

    def test_equal_char_accepts_affine_left(self):
        seq = SeqSpec.from_window({0: 0}, AffineTail(-1, 0), ConstTail(MINUS_INF))
        validate(SeminormSpec(seq, "equal"))

    def test_mixed_accepts_decaying_right(self):
        seq = SeqSpec.from_window({0: 0}, ConstTail(ExtInt(0)), AffineTail(-1, 0))
        validate(SeminormSpec(seq, "mixed"))

    def test_equal_char_needs_minus_inf_tail(self):
        seq = SeqSpec.from_window({0: 0}, ConstTail(MINUS_INF), ConstTail(ExtInt(0)))
        with pytest.raises(NonAdmissibleSequence, match="n_i = -inf"):
            validate(SeminormSpec(seq, "equal"))

    def test_plus_inf_rejected_everywhere(self):
        seq = SeqSpec.from_window({0: PLUS_INF}, ConstTail(MINUS_INF), ConstTail(MINUS_INF))
        with pytest.raises(NonAdmissibleSequence, match=r"\+inf"):
            validate(SeminormSpec(seq, "mixed"))

    def test_mixed_unbounded_above_rejected(self):
        seq = SeqSpec.from_window({0: 0}, AffineTail(-1, 0), ConstTail(MINUS_INF))
        with pytest.raises(NonAdmissibleSequence, match="unbounded above"):
            validate(SeminormSpec(seq, "mixed"))

    @pytest.mark.parametrize(
        "kind, value, left, right, reason",
        [
            ("mixed", PLUS_INF, ConstTail(MINUS_INF), ConstTail(MINUS_INF), "value +inf at index 0"),
            ("mixed", 0, ConstTail(PLUS_INF), ConstTail(MINUS_INF), "left tail is +inf"),
            ("equal", 0, ConstTail(MINUS_INF), ConstTail(PLUS_INF), "right tail is +inf"),
            ("equal", 0, ConstTail(MINUS_INF), AffineTail(-1, 0),
             "no index k with n_i = -inf for all i > k"),
            ("mixed", 0, AffineTail(-1, 0), ConstTail(MINUS_INF),
             "values unbounded above towards -inf"),
            ("mixed", 0, ConstTail(ExtInt(0)), AffineTail(0, 2),
             "values do not tend to -inf towards +inf"),
            ("mixed", 0, ConstTail(ExtInt(0)), AffineTail(1, 0),
             "values do not tend to -inf towards +inf"),
            ("mixed", 0, AffineTail(0, 3), ConstTail(MINUS_INF), None),
            ("mixed", 0, AffineTail(2, 0), AffineTail(-1, 0), None),
        ],
    )
    def test_every_reason_in_full(self, kind, value, left, right, reason):
        spec = SeminormSpec(SeqSpec.from_window({0: value}, left, right), kind)
        if reason is None:
            validate(spec)
            return
        with pytest.raises(NonAdmissibleSequence) as exc:
            validate(spec)
        assert str(exc.value) == f"{kind}: {reason}"


class TestEvalExponent:
    def test_equal_char_example(self):
        seq = SeqSpec.from_window(
            {-1: 3, 0: MINUS_INF, 1: MINUS_INF, 2: 1},
            ConstTail(MINUS_INF),
            ConstTail(MINUS_INF),
        )
        spec = SeminormSpec(seq, "equal")
        x = EqualCharSeries.from_coeffs(
            P, {-1: PAdic.pi_power(P, 2), 2: PAdic.from_int(7, P)}
        )
        res = eval_exponent(spec, x)
        assert res.exponent == 1 and res.exact

    def test_zero_element(self):
        spec = rand_seminorm(rng(41), "mixed")
        res = eval_exponent(spec, MixedSeries.zero(P))
        assert res.exponent == MINUS_INF and res.exact

    def test_mixed_step_seminorm(self):
        seq = SeqSpec.from_window({0: 0}, ConstTail(ExtInt(0)), ConstTail(MINUS_INF))
        spec = SeminormSpec(seq, "mixed")
        x = MixedSeries.from_coeffs(P, {-3: PAdic.pi_power(P, -1), 5: ONE})
        res = eval_exponent(spec, x)
        assert res.exponent == 1 and res.exact

    def test_truncation_guard(self):
        seq = SeqSpec.from_window({3: 0}, ConstTail(MINUS_INF), ConstTail(MINUS_INF))
        spec = SeminormSpec(seq, "equal")
        x = EqualCharSeries.from_coeffs(P, {0: ONE}, trunc=2)
        with pytest.raises(PrecisionExhausted):
            eval_exponent(spec, x)

    def test_truncation_ok_when_weights_end_first(self):
        seq = SeqSpec.from_window({0: 0}, ConstTail(MINUS_INF), ConstTail(MINUS_INF))
        spec = SeminormSpec(seq, "equal")
        x = EqualCharSeries.from_coeffs(P, {0: ONE}, trunc=2)
        assert eval_exponent(spec, x).exponent == 0

    def test_bound_only_tie_is_upper_bound(self):
        seq = SeqSpec.from_window({0: 0, 1: 0}, ConstTail(MINUS_INF), ConstTail(MINUS_INF))
        spec = SeminormSpec(seq, "equal")
        x = EqualCharSeries.from_coeffs(P, {0: ONE, 1: PAdic.zero_mod(P, 0)})
        res = eval_exponent(spec, x)
        assert res.exponent == 0 and not res.exact

    def test_exact_dominates_bound(self):
        seq = SeqSpec.from_window({0: 0, 1: 0}, ConstTail(MINUS_INF), ConstTail(MINUS_INF))
        spec = SeminormSpec(seq, "equal")
        x = EqualCharSeries.from_coeffs(
            P, {0: PAdic.pi_power(P, -2), 1: PAdic.zero_mod(P, 0)}
        )
        res = eval_exponent(spec, x)
        assert res.exponent == 2 and res.exact

    def test_mixed_tail_contributions(self):
        # weights 0 on the left, element with a right valuation floor only
        seq = SeqSpec.from_window({0: 0}, ConstTail(ExtInt(0)), AffineTail(-1, 0))
        spec = SeminormSpec(seq, "mixed")
        x = MixedSeries.from_coeffs(P, {0: ONE}, right=RightValBound(-2))
        res = eval_exponent(spec, x)
        # the unknown coefficient at index 1 may reach valuation -2
        assert res.exponent == 1 and not res.exact

    def test_agrees_with_brute_oracle(self):
        r = rng(42)
        hits = 0
        for _ in range(1000):
            kind = "mixed" if r.below(2) else "equal"
            spec = rand_seminorm(r, kind)
            x = rand_series(r, kind)
            try:
                res = eval_exponent(spec, x)
            except PrecisionExhausted:
                continue
            if res.exact:
                assert res.exponent == brute_seminorm(spec, x, (-40, 40))
                hits += 1
        assert hits > 500

    def test_single_term_is_weight(self):
        r = rng(43)
        for _ in range(50):
            spec = rand_seminorm(r, "mixed")
            j = r.randint(-6, 6)
            x = MixedSeries.monomial(P, j, ONE)
            res = eval_exponent(spec, x)
            assert res.exponent == spec.seq.value_at(j) and res.exact


class TestUltrametric:
    def test_axioms_on_random_data(self):
        r = rng(44)
        for _ in range(500):
            kind = "mixed" if r.below(2) else "equal"
            spec = rand_seminorm(r, kind)
            x = rand_series(r, kind)
            y = rand_series(r, kind)
            ex = eval_exponent(spec, x)
            ey = eval_exponent(spec, y)
            es = eval_exponent(spec, x + y)
            if ex.exact and ey.exact and es.exact:
                assert es.exponent <= max(ex.exponent, ey.exponent)
                if ex.exponent != ey.exponent:
                    assert es.exponent == max(ex.exponent, ey.exponent)
            lam = rand_coeff(r)
            from tdlf import mul

            mono = (
                MixedSeries.monomial(P, 0, lam)
                if kind == "mixed"
                else EqualCharSeries.monomial(P, 0, lam)
            )
            el = eval_exponent(spec, mul(mono, x))
            if ex.exact and el.exact:
                assert el.exponent == ex.exponent - lam.val.n


class TestGaugeEquivalence:
    def test_minimal_scaling_exponent_matches(self):
        r = rng(45)
        checked = 0
        for _ in range(200):
            kind = "mixed" if r.below(2) else "equal"
            lat = rand_lattice(r, kind)
            spec = SeminormSpec(lat.seq, kind)
            x = rand_series(r, kind)
            try:
                res = eval_exponent(spec, x)
            except PrecisionExhausted:
                continue
            if not res.exact or not res.exponent.is_finite:
                continue
            e = res.exponent.n
            inside = scale(lat, PAdic.pi_power(P, -e))
            tighter = scale(lat, PAdic.pi_power(P, -(e - 1)))
            assert membership(inside, x) == Membership.IN
            assert membership(tighter, x) != Membership.IN
            checked += 1
        assert checked > 80


class TestClosedBall:
    def test_inside_outside(self):
        seq = SeqSpec.from_window({0: 0}, ConstTail(ExtInt(0)), ConstTail(MINUS_INF))
        spec = SeminormSpec(seq, "mixed")
        x = MixedSeries.monomial(P, 0, PAdic.pi_power(P, -1))  # exponent 1
        assert closed_ball_test(spec, x, 1) is BallResult.INSIDE
        assert closed_ball_test(spec, x, 0) is BallResult.OUTSIDE

    def test_unknown_from_precision(self):
        seq = SeqSpec.from_window({0: 0}, ConstTail(MINUS_INF), ConstTail(MINUS_INF))
        spec = SeminormSpec(seq, "mixed")
        x = MixedSeries.from_coeffs(P, {0: PAdic.zero_mod(P, 8)})
        assert closed_ball_test(spec, x, -10) is BallResult.UNKNOWN


class TestPartialSumConvergence:
    def test_monotone_divergence_to_minus_inf(self):
        r = rng(46)
        for _ in range(40):
            spec = rand_seminorm(r, "mixed")
            x = rand_series(r, "mixed", tails=True)
            prev = None
            for n in range(x.hi, x.hi + 12):
                res = eval_exponent(spec, tail_remainder(x, n))
                if prev is not None:
                    assert res.exponent <= prev
                prev = res.exponent
            # weights tend to -inf on the right, so the tail norm collapses
            far = eval_exponent(spec, tail_remainder(x, x.hi + 60))
            if isinstance(x.right, RightValBound):
                assert far.exponent <= prev
                assert far.exponent <= -20 or far.exponent == MINUS_INF
            else:
                assert far.exponent == MINUS_INF


def test_an_unknown_field_kind_is_refused():
    with pytest.raises(ValueError, match="unknown field kind 'bogus'"):
        is_admissible_seq(SeqSpec.constant(0), "bogus")


def test_eval_exponent_refuses_the_other_series_kind():
    equal = SeminormSpec(SeqSpec.from_window({0: 0}, AffineTail(-1, 0), ConstTail(MINUS_INF)), "equal")
    mixed = SeminormSpec(SeqSpec.from_window({0: 0}, ConstTail(ExtInt(0)), AffineTail(-1, 0)), "mixed")
    with pytest.raises(KindMismatch, match="needs a Laurent series"):
        eval_exponent(equal, MixedSeries.zero(P))
    with pytest.raises(KindMismatch, match="needs a doubly infinite series"):
        eval_exponent(mixed, EqualCharSeries.zero(P))


def test_a_ball_test_past_the_truncation_is_unknown():
    # 1 + O(t^0) keeps nothing, and the weights reach index 0
    spec = SeminormSpec(SeqSpec.from_window({0: 0}, AffineTail(-1, 0), ConstTail(MINUS_INF)), "equal")
    x = parse_series("1 + O(t^0)", P)
    with pytest.raises(PrecisionExhausted):
        eval_exponent(spec, x)
    assert closed_ball_test(spec, x, 0) == BallResult.UNKNOWN
