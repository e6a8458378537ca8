import pytest

from tdlf import (
    EqualCharSeries,
    ExtInt,
    MINUS_INF,
    Membership,
    MixedSeries,
    NonConvergentValues,
    NotBounded,
    NotCompactoid,
    PAdic,
    ParseError,
    PLUS_INF,
    SampleConfig,
    SeqSpec,
    SubmoduleSpec,
    dual_seminorm,
    eval_exponent,
    functional_from_values,
    is_admissible_seq,
    is_bounded,
    is_compactoid,
    is_open_lattice,
    membership,
    named,
    pairing,
    polar,
    pseudo_polar,
    reflect_affine,
    sample_elements,
    validate,
)
from tdlf.seqspec import AffineTail, ConstTail
from tdlf.series import LeftValBound, RightValBound, ZeroTail
from helpers import (
    PRIME,
    rand_bounded,
    rand_compactoid,
    rand_lattice,
    rand_seqspec,
    rand_series,
    rand_unbounded,
    rng,
)

P = PRIME
ONE = PAdic.from_int(1, P)


class TestPairing:
    def test_single_surviving_term(self):
        x = MixedSeries.monomial(P, -1, ONE)
        y = MixedSeries.monomial(P, 1, PAdic.from_int(2, P))
        assert pairing(x, y).unit % P == 2

    def test_one_pairs_to_one(self):
        x = MixedSeries.monomial(P, 0, ONE)
        assert pairing(x, x) == ONE * ONE

    def test_symmetry(self):
        r = rng(71)
        for _ in range(200):
            kind = "mixed" if r.below(2) else "equal"
            x, y = rand_series(r, kind), rand_series(r, kind)
            a, b = pairing(x, y), pairing(y, x)
            assert (a - b).is_exact_zero or (a - b).is_zero_within_precision

    def test_equal_char_pairing(self):
        x = EqualCharSeries.monomial(P, 2, PAdic.from_int(3, P))
        y = EqualCharSeries.monomial(P, -2, PAdic.from_int(4, P))
        assert pairing(x, y).unit % P**2 == 12

    def test_target_precision_enforced(self):
        from tdlf import LeftValBound as LVB
        from tdlf import PrecisionExhausted

        x = MixedSeries.from_coeffs(P, {0: ONE}, left=LVB(1, 0))
        assert pairing(x, x, target_precision=1) is not None
        with pytest.raises(PrecisionExhausted):
            pairing(x, x, target_precision=100)

    def test_truncated_equal_pairing_fails_honestly(self):
        from tdlf import PrecisionExhausted

        x = EqualCharSeries.from_coeffs(P, {-1: ONE}, trunc=1)
        y = EqualCharSeries.from_coeffs(P, {-1: ONE}, order=-1)
        # the t^0 coefficient of the product needs x's unknown t^1 term
        with pytest.raises(PrecisionExhausted):
            pairing(x, y)


class TestFunctionalFromValues:
    def test_delta_round_trip(self):
        x = functional_from_values("mixed", P, {0: ONE})
        assert pairing(x, MixedSeries.monomial(P, 0, ONE)) == ONE * ONE

    def test_values_on_monomials(self):
        values = {i: PAdic.pi_power(P, -i) for i in range(-5, 1)}
        x = functional_from_values("mixed", P, values)
        for j in range(-5, 6):
            got = pairing(x, MixedSeries.monomial(P, -j, ONE))
            if j in values:
                assert (got - values[j]).is_zero_within_precision or got == values[j]
            else:
                assert got.is_exact_zero

    def test_rejects_bad_decay(self):
        from tdlf import RightValBound

        with pytest.raises(NonConvergentValues):
            functional_from_values("mixed", P, {0: ONE}, left=RightValBound(0))

    def test_rejects_non_certifying_slope(self):
        with pytest.raises((NonConvergentValues, ValueError)):
            functional_from_values("mixed", P, {0: ONE}, left=LeftValBound(0, 0))

    @pytest.mark.parametrize("kind", ["bogus", "", "Mixed", None])
    def test_rejects_an_unknown_kind(self, kind):
        with pytest.raises(ParseError, match="is not 'equal' or 'mixed'"):
            functional_from_values(kind, P, {})

    @pytest.mark.parametrize("extra", [
        dict(left=ZeroTail()),
        dict(right=ZeroTail()),
        dict(right=RightValBound(0)),
        dict(left=ZeroTail(), right=ZeroTail()),
    ])
    def test_laurent_functionals_carry_no_tail(self, extra):
        with pytest.raises(NonConvergentValues, match="no tails"):
            functional_from_values("equal", P, {0: ONE}, **extra)

    @pytest.mark.parametrize("trunc", [3, ExtInt(3), PLUS_INF])
    def test_doubly_infinite_functionals_carry_no_truncation(self, trunc):
        with pytest.raises(NonConvergentValues, match="no truncation"):
            functional_from_values("mixed", P, {0: ONE}, trunc=trunc)

    def test_what_each_kind_carries_is_still_taken(self):
        x = functional_from_values("equal", P, {0: ONE}, trunc=3)
        assert x.trunc == ExtInt(3)
        y = functional_from_values("mixed", P, {0: ONE}, left=LeftValBound(1, 0), right=RightValBound(2))
        assert (y.left, y.right) == (LeftValBound(1, 0), RightValBound(2))


class TestPolarTable:
    def fixture_pairs(self):
        return [
            ("O{{t}}", "p{{t}}"),
            ("K[[t]]", "tK[[t]]"),  # the closed-form row, not the tabulated one
        ]

    def test_integral_mixed_ring(self):
        assert pseudo_polar(named("O{{t}}")).canonical() == named("p{{t}}").canonical()
        assert polar(named("O{{t}}")).canonical() == named("O{{t}}").canonical()

    def test_rank2_equal_ring(self):
        out = pseudo_polar(named("O+tK[[t]]")).canonical()
        expected = SubmoduleSpec(
            SeqSpec.from_window({0: 1}, ConstTail(PLUS_INF), ConstTail(MINUS_INF)),
            "equal",
        ).canonical()
        assert out == expected  # p + tK[[t]]
        assert polar(named("O+tK[[t]]")).canonical() == named("O+tK[[t]]").canonical()

    def test_taylor_ring_disputed_row(self):
        assert pseudo_polar(named("K[[t]]")).canonical() == named("tK[[t]]").canonical()
        assert polar(named("K[[t]]")).canonical() == named("tK[[t]]").canonical()

    def test_rank2_mixed_disputed_row(self):
        out = pseudo_polar(named("rank2_mixed")).canonical()
        expected = SubmoduleSpec(
            SeqSpec.from_window({0: 1}, ConstTail(ExtInt(1)), ConstTail(ExtInt(0))),
            "mixed",
        ).canonical()
        assert out == expected  # p at and below zero, integral above
        pol = polar(named("rank2_mixed")).canonical()
        pol_expected = SubmoduleSpec(
            SeqSpec.from_window({0: 0}, ConstTail(ExtInt(0)), ConstTail(ExtInt(-1))),
            "mixed",
        ).canonical()
        assert pol == pol_expected

    def test_generic_rows_are_reflections(self):
        r = rng(72)
        for _ in range(50):
            m = rand_lattice(r, "mixed")
            assert pseudo_polar(m).seq == reflect_affine(m.seq, 1)
            assert polar(m).seq == reflect_affine(m.seq, 0)

    def test_disputed_rows_against_pairing_oracle(self):
        # no sampled pair may pair outside the maximal ideal
        for name in ("K[[t]]", "rank2_mixed"):
            m = named(name)
            claimed = pseudo_polar(m)
            xs = sample_elements(claimed, SampleConfig(seed=5, count=25, window=(-10, 10)), P)
            ys = sample_elements(m, SampleConfig(seed=7, count=20, window=(-10, 10)), P)
            for x in xs:
                for y in ys:
                    res = pairing(x, y).abs_exponent()
                    assert res.exponent <= -1


class TestInvolutionAndOrder:
    def test_double_pseudo_polar_is_identity(self):
        r = rng(73)
        for _ in range(200):
            kind = "mixed" if r.below(2) else "equal"
            m = SubmoduleSpec(rand_seqspec(r), kind)
            out = pseudo_polar(pseudo_polar(m))
            assert out.seq.eq_pointwise(m.seq, -50, 50)

    def test_inclusion_reversal(self):
        from tdlf import forall_ge, shift_add

        r = rng(74)
        for _ in range(100):
            kind = "mixed" if r.below(2) else "equal"
            a = SubmoduleSpec(rand_seqspec(r), kind)
            b = SubmoduleSpec(shift_add(a.seq, -r.randint(0, 4)), kind)  # a within b
            assert forall_ge(a.seq, b.seq)
            pa, pb = pseudo_polar(a), pseudo_polar(b)
            assert forall_ge(pb.seq, pa.seq)  # polars flip the inclusion

    def test_polarity_exchanges_classes(self):
        r = rng(75)
        for _ in range(100):
            lat = rand_lattice(r, "mixed")
            assert is_compactoid(pseudo_polar(lat))
            comp = rand_compactoid(r, "mixed")
            assert is_open_lattice(pseudo_polar(comp))

    def test_polar_soundness_brute(self):
        r = rng(76)
        for _ in range(15):
            m = rand_compactoid(r, "mixed")
            pp = pseudo_polar(m)
            xs = sample_elements(pp, SampleConfig(seed=r.below(1 << 32), count=6, window=(-8, 8)), P)
            ys = sample_elements(m, SampleConfig(seed=r.below(1 << 32), count=6, window=(-8, 8)), P)
            for x in xs:
                assert membership(pp, x) == Membership.IN
                for y in ys:
                    assert pairing(x, y).abs_exponent().exponent <= -1


class TestDualSeminorm:
    def test_the_admissibility_check_is_the_module_predicate(self):
        """``dual_seminorm`` checks boundedness (Laurent) or compactoidness
        (mixed) alone: the reflected sequence is admissible exactly when the
        predicate holds, so what it returns passes ``validate`` and it
        raises exactly when the predicate fails."""
        r = rng(78)
        makers = (rand_bounded, rand_compactoid, rand_unbounded, rand_lattice,
                  lambda r, kind: SubmoduleSpec(rand_seqspec(r), kind))
        seen = {}
        for _ in range(1500):
            kind = "mixed" if r.below(2) else "equal"
            b = makers[r.below(len(makers))](r, kind)
            holds = is_bounded(b) if kind == "equal" else is_compactoid(b)
            assert is_admissible_seq(reflect_affine(b.seq, 0), kind) == holds, b
            if holds:
                validate(dual_seminorm(b))
            else:
                with pytest.raises(NotBounded if kind == "equal" else NotCompactoid):
                    dual_seminorm(b)
            seen[kind, holds] = seen.get((kind, holds), 0) + 1
        assert len(seen) == 4 and min(seen.values()) > 100, seen

    def test_hat_profile(self):
        b = SubmoduleSpec(
            SeqSpec.from_window({0: 0}, AffineTail(-1, 0), ConstTail(ExtInt(0))),
            "mixed",
        )
        spec = dual_seminorm(b)
        assert spec.seq.value_at(0) == 0
        assert spec.seq.value_at(-3) == 0
        assert spec.seq.value_at(4) == -4
        validate(spec)

    def test_integral_mixed_ring_rejected(self):
        with pytest.raises(NotCompactoid):
            dual_seminorm(named("O{{t}}"))

    def test_unbounded_equal_rejected(self):
        with pytest.raises(NotBounded):
            dual_seminorm(named("K[[t]]"))

    def test_single_coordinate(self):
        b = SubmoduleSpec(
            SeqSpec.from_window({0: 0}, ConstTail(PLUS_INF), ConstTail(PLUS_INF)),
            "equal",
        )
        spec = dual_seminorm(b)
        assert spec.seq.value_at(0) == 0
        assert spec.seq.value_at(1) == MINUS_INF and spec.seq.value_at(-1) == MINUS_INF

    def test_duality_theorem_at_desk_scale(self):
        r = rng(77)
        checked = 0
        for _ in range(60):
            kind = "mixed" if r.below(2) else "equal"
            b = rand_compactoid(r, kind)
            spec = dual_seminorm(b)
            x = rand_series(r, kind, span=(-5, 5))
            res = eval_exponent(spec, x)
            if not res.exact:
                continue
            ys = sample_elements(b, SampleConfig(seed=r.below(1 << 32), count=25, window=(-8, 8)), P)
            best = MINUS_INF
            for y in ys:
                e = pairing(x, y).abs_exponent()
                if e.exact:
                    best = max(best, e.exponent)
                assert e.exponent <= res.exponent
            assert best == res.exponent
            checked += 1
        assert checked > 20


class TestBVersusCTopologyWitness:
    def test_coordinate_functionals_separate(self):
        # on a compactoid set the coordinate functional shrinks with the
        # exponent profile, while on the integral ring it keeps size one
        r = rng(78)
        done = 0
        while done < 20:
            b = rand_compactoid(r, "mixed")
            if not isinstance(b.seq.left, AffineTail):
                continue  # need finite exponents growing to the left
            done += 1
            c = 10
            j = b.seq.window_lo - 1
            while not (b.seq.value_at(j).is_finite and b.seq.value_at(j).n > c):
                j -= 1
            k_j = b.seq.value_at(j).n
            functional = MixedSeries.monomial(P, -j, ONE)
            ys = sample_elements(b, SampleConfig(seed=r.below(1 << 32), count=8, window=(j - 2, 8)), P)
            for y in ys:
                assert pairing(functional, y).abs_exponent().exponent <= -k_j
            unit_vector = MixedSeries.monomial(P, j, ONE)  # lies in O{{t}}
            assert membership(named("O{{t}}"), unit_vector) == Membership.IN
            assert pairing(functional, unit_vector).abs_exponent().exponent == 0
            assert c - k_j < 0


def test_functional_from_values_refuses_a_right_tail_without_a_floor():
    with pytest.raises(NonConvergentValues, match="right tail must certify a floor"):
        functional_from_values("mixed", P, {0: ONE}, right=LeftValBound(1, 0))
