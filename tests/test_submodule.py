import pytest

from tdlf import (
    Classification,
    EqualCharSeries,
    ExtInt,
    KindMismatch,
    MINUS_INF,
    Membership,
    MixedSeries,
    PAdic,
    PLUS_INF,
    PrecisionExhausted,
    SampleConfig,
    SeminormSpec,
    SeqSpec,
    SubmoduleSpec,
    UnknownName,
    brute_minplus,
    classify,
    eval_exponent,
    is_bounded,
    is_compactoid,
    is_open_lattice,
    membership,
    module_intersect,
    module_sum,
    mul,
    named,
    named_module_names,
    literature_classification,
    product_bound,
    sample_elements,
    scale,
    seminorm_bound_on,
    shift_add,
    unbounded_witness,
    validate,
)
from tdlf.seqspec import AffineTail, ConstTail
from helpers import (
    PRIME,
    rand_bounded,
    rand_compactoid,
    rand_lattice,
    rand_seminorm,
    rand_unbounded,
    rng,
)

P = PRIME
ONE = PAdic.from_int(1, P)


def mixed_spec(window, left, right) -> SubmoduleSpec:
    return SubmoduleSpec(SeqSpec.from_window(window, left, right), "mixed")


def equal_spec(window, left, right) -> SubmoduleSpec:
    return SubmoduleSpec(SeqSpec.from_window(window, left, right), "equal")


class TestOpenLattice:
    def test_integral_mixed_ring_is_not_open(self):
        assert not is_open_lattice(named("O{{t}}"))

    def test_decaying_right_tail_is_open(self):
        m = mixed_spec({0: 0}, ConstTail(ExtInt(0)), AffineTail(-1, 0))
        assert is_open_lattice(m)

    def test_plus_inf_blocks_equal_char_lattice(self):
        m = equal_spec({0: 0}, ConstTail(PLUS_INF), ConstTail(MINUS_INF))
        assert not is_open_lattice(m)

    def test_random_lattices_validate(self):
        r = rng(51)
        for _ in range(100):
            kind = "mixed" if r.below(2) else "equal"
            m = rand_lattice(r, kind)
            assert is_open_lattice(m)
            validate(SeminormSpec(m.seq, kind))


class TestBounded:
    def test_full_field_coordinate_unbounded(self):
        k_line = equal_spec({0: MINUS_INF}, ConstTail(PLUS_INF), ConstTail(PLUS_INF))
        assert not is_bounded(k_line)

    def test_integers_bounded(self):
        o_line = equal_spec({0: 0}, ConstTail(PLUS_INF), ConstTail(PLUS_INF))
        assert is_bounded(o_line)

    def test_mixed_constant_bounded(self):
        assert is_bounded(named("O{{t}}"))

    def test_equal_needs_plus_inf_left(self):
        m = equal_spec({0: 0}, ConstTail(ExtInt(0)), ConstTail(PLUS_INF))
        assert not is_bounded(m)


class TestCompactoid:
    def test_mixed_constant_not_compactoid(self):
        assert not is_compactoid(named("O{{t}}"))

    def test_absolute_value_profile_compactoid(self):
        m = mixed_spec({0: 0}, AffineTail(-1, 0), AffineTail(1, 0))
        assert is_compactoid(m)

    def test_equal_bounded_is_compactoid(self):
        r = rng(52)
        for _ in range(50):
            m = rand_bounded(r, "equal")
            assert is_compactoid(m) == is_bounded(m)

    def test_compactoid_implies_bounded(self):
        r = rng(53)
        for _ in range(100):
            kind = "mixed" if r.below(2) else "equal"
            for gen in (rand_bounded, rand_compactoid, rand_lattice):
                m = gen(r, kind)
                if is_compactoid(m):
                    assert is_bounded(m)


class TestMembership:
    def test_rank2_ring_examples(self):
        m = named("rank2_mixed")
        inside = MixedSeries.from_coeffs(P, {-1: PAdic.pi_power(P, 1), 0: ONE})
        outside = MixedSeries.monomial(P, -1, ONE)
        assert membership(m, inside) == Membership.IN
        assert membership(m, outside) == Membership.OUT

    def test_zero_in_everything(self):
        r = rng(54)
        for _ in range(50):
            kind = "mixed" if r.below(2) else "equal"
            m = rand_lattice(r, kind) if r.below(2) else rand_bounded(r, kind)
            zero = MixedSeries.zero(P) if kind == "mixed" else EqualCharSeries.zero(P)
            assert membership(m, zero) == Membership.IN

    def test_unknown_on_zero_within_precision(self):
        m = mixed_spec({0: 5}, ConstTail(PLUS_INF), ConstTail(PLUS_INF))
        x = MixedSeries.from_coeffs(P, {0: PAdic.zero_mod(P, 3)})
        assert membership(m, x) == Membership.UNKNOWN

    def test_monotone_under_inclusion(self):
        r = rng(55)
        for _ in range(100):
            kind = "mixed" if r.below(2) else "equal"
            a = rand_bounded(r, kind)
            b = SubmoduleSpec(shift_add(a.seq, -r.randint(0, 3)), kind)  # a subset of b
            elems = sample_elements(a, SampleConfig(seed=r.below(1 << 32), count=5), P)
            for x in elems:
                assert membership(a, x) == Membership.IN
                assert membership(b, x) == Membership.IN


class TestAlgebra:
    def test_sum_idempotent(self):
        r = rng(56)
        for _ in range(30):
            m = rand_bounded(r, "mixed")
            assert module_sum(m, m).seq.eq_pointwise(m.seq, -30, 30)

    def test_scale_integral_ring(self):
        assert scale(named("O{{t}}"), PAdic.pi_power(P, 1)).canonical() == named(
            "p{{t}}"
        ).canonical()

    def test_scale_by_zero_within_precision_fails(self):
        with pytest.raises(PrecisionExhausted):
            scale(named("O{{t}}"), PAdic.zero_mod(P, 4))

    def test_scale_by_exact_zero(self):
        m = scale(named("O{{t}}"), PAdic.zero(P))
        assert all(m.seq.value_at(i) == PLUS_INF for i in range(-20, 21))

    def test_closedness_witness_intersection(self):
        # integral mixed ring as an intersection of one-coordinate lattices
        acc = None
        for n in range(-5, 6):
            lam = SubmoduleSpec(SeqSpec.delta(n, 0, fill=MINUS_INF), "mixed")
            acc = lam if acc is None else module_intersect(acc, lam)
        for i in range(-5, 6):
            assert acc.seq.value_at(i) == 0
        assert acc.seq.value_at(-6) == MINUS_INF and acc.seq.value_at(6) == MINUS_INF

    def test_sum_and_intersect_against_min_max(self):
        r = rng(57)
        for _ in range(40):
            kind = "mixed" if r.below(2) else "equal"
            a, b = rand_bounded(r, kind), rand_lattice(r, kind)
            s = module_sum(a, b)
            i = module_intersect(a, b)
            for idx in range(-25, 26):
                assert s.seq.value_at(idx) == min(a.seq.value_at(idx), b.seq.value_at(idx))
                assert i.seq.value_at(idx) == max(a.seq.value_at(idx), b.seq.value_at(idx))


class TestProductBound:
    def test_integral_ring_squares_to_itself(self):
        m = named("O{{t}}")
        assert product_bound(m, m).canonical() == m.canonical()

    def test_matches_brute_enumeration(self):
        r = rng(58)
        for _ in range(50):
            kind = "mixed" if r.below(2) else "equal"
            a = rand_bounded(r, kind)
            b = rand_compactoid(r, kind) if r.below(2) else rand_bounded(r, kind)
            out = product_bound(a, b)
            for k in range(-20, 21):
                assert out.seq.value_at(k) == brute_minplus(a.seq, b.seq, k, (-60, 60))

    def test_closure_of_classes(self):
        r = rng(59)
        for _ in range(60):
            a, b = rand_bounded(r, "mixed"), rand_bounded(r, "mixed")
            assert is_bounded(product_bound(a, b))
            c, d = rand_compactoid(r, "mixed"), rand_compactoid(r, "mixed")
            assert is_compactoid(product_bound(c, d))

    def test_soundness_on_sampled_elements(self):
        r = rng(60)
        for _ in range(40):
            kind = "mixed" if r.below(2) else "equal"
            a, b = rand_bounded(r, kind), rand_bounded(r, kind)
            bound = product_bound(a, b)
            xs = sample_elements(a, SampleConfig(seed=r.below(1 << 32), count=4, window=(-6, 6)), P)
            ys = sample_elements(b, SampleConfig(seed=r.below(1 << 32), count=4, window=(-6, 6)), P)
            for x in xs:
                for y in ys:
                    assert membership(bound, mul(x, y)) == Membership.IN


class TestNamedModules:
    def test_all_names_resolve(self):
        assert named_module_names() == sorted(
            ["K[[t]]", "tK[[t]]", "O+tK[[t]]", "O{{t}}", "p{{t}}", "rank2_mixed"]
        )
        for name in named_module_names():
            named(name)
            literature_classification(name)

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            named("Zp")

    def test_integral_mixed_ring_flags(self):
        c = literature_classification("O{{t}}")
        assert c == Classification(
            open_lattice=False, bounded=True, compactoid=False,
            complete=True, c_compact=False, closed=True,
        )

    def test_taylor_ring_flags(self):
        c = literature_classification("K[[t]]")
        assert c.c_compact and not c.compactoid and not c.bounded and c.complete

    def test_rank2_equal_flags(self):
        c = literature_classification("O+tK[[t]]")
        assert c.c_compact and c.complete and c.closed and not c.compactoid

    def test_computed_flags_agree_with_stored(self):
        for name in named_module_names():
            m = named(name)
            c = literature_classification(name)
            assert classify(m) == Classification(c.open_lattice, c.bounded, c.compactoid)


class TestSeminormBound:
    def test_symbolic_bound_matches_samples(self):
        r = rng(61)
        for _ in range(50):
            kind = "mixed" if r.below(2) else "equal"
            m = rand_bounded(r, kind)
            spec = rand_seminorm(r, kind)
            bound = seminorm_bound_on(spec, m)
            assert bound < PLUS_INF
            xs = sample_elements(m, SampleConfig(seed=r.below(1 << 32), count=6, window=(-8, 8)), P)
            best = MINUS_INF
            for x in xs:
                res = eval_exponent(spec, x)
                assert res.exponent <= bound
                best = max(best, res.exponent)
            # boundary monomial at an argmax index attains the bound
            attained = None
            for i in range(-30, 31):
                diff_n = spec.seq.value_at(i)
                diff_k = m.seq.value_at(i)
                if diff_n.is_finite and diff_k.is_finite and ExtInt(diff_n.n - diff_k.n) == bound:
                    attained = i
                    break
            if attained is not None:
                mono = (
                    MixedSeries.monomial(P, attained, PAdic.pi_power(P, m.seq.value_at(attained).n))
                    if kind == "mixed"
                    else EqualCharSeries.monomial(P, attained, PAdic.pi_power(P, m.seq.value_at(attained).n))
                )
                assert eval_exponent(spec, mono).exponent == bound

    def test_sup_norm_bounded_on_basic_bounded(self):
        # the flat weight sequence is the norm attached to the field valuation
        flat = SeqSpec.constant(0)
        r = rng(62)
        for _ in range(60):
            m = rand_bounded(r, "mixed")
            from tdlf import sup_diff

            assert sup_diff(flat, m.seq) < PLUS_INF

    def test_sup_norm_unbounded_on_unbounded(self):
        flat = SeqSpec.constant(0)
        r = rng(63)
        seen = 0
        for _ in range(60):
            m = rand_unbounded(r, "mixed")
            from tdlf import sup_diff

            if sup_diff(flat, m.seq) == PLUS_INF:
                seen += 1
        assert seen == 60


class TestUnboundedWitness:
    def test_witnesses_reach_target(self):
        r = rng(64)
        for _ in range(100):
            kind = "mixed" if r.below(2) else "equal"
            m = rand_unbounded(r, kind)
            spec, elems = unbounded_witness(m, 10, P)
            validate(spec)
            assert spec.field_kind == kind
            best = MINUS_INF
            for x in elems:
                assert membership(m, x) == Membership.IN
                res = eval_exponent(spec, x)
                best = max(best, res.exponent)
            assert best >= 10

    def test_bounded_module_has_no_witness(self):
        with pytest.raises(ValueError):
            unbounded_witness(named("O{{t}}"), 5, P)

    def test_any_target_is_reachable(self):
        r = rng(65)
        for target in (1, 25, 60):
            for _ in range(10):
                kind = "mixed" if r.below(2) else "equal"
                m = rand_unbounded(r, kind)
                spec, elems = unbounded_witness(m, target, P)
                validate(spec)
                best = max(eval_exponent(spec, x).exponent for x in elems)
                assert best >= target


class TestNamedTable:
    def test_built_once(self):
        # the table is cached: repeated lookups return the very same objects
        assert named("p{{t}}") is named("p{{t}}")
        assert literature_classification("K[[t]]") is literature_classification("K[[t]]")


def test_membership_refuses_an_element_of_the_other_field():
    with pytest.raises(KindMismatch, match="kinds differ"):
        membership(named("O{{t}}"), EqualCharSeries.zero(P))
    with pytest.raises(KindMismatch, match="kinds differ"):
        membership(named("K[[t]]"), MixedSeries.zero(P))
