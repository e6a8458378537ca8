import pytest

from tdlf import (
    MINUS_INF,
    Membership,
    SampleConfig,
    SeqSpec,
    SplitMix64,
    WindowInsufficient,
    brute_minplus,
    brute_seminorm,
    membership,
    named,
    sample_elements,
)
from tdlf.seqspec import AffineTail, ConstTail, ExtInt
from helpers import PRIME, rand_bounded, rand_seminorm, rng

P = PRIME


class TestSplitMix64:
    def test_known_first_outputs(self):
        # reference values of splitmix64 seeded with 0
        g = SplitMix64(0)
        assert g.next_u64() == 0xE220A8397B1DCDAF
        assert g.next_u64() == 0x6E789E6AA1B965F4
        assert g.next_u64() == 0x06C45D188009454F

    def test_below_is_uniform_range(self):
        g = SplitMix64(42)
        for _ in range(1000):
            assert 0 <= g.below(7) < 7

    def test_below_draws_one_word_up_to_two_to_the_64(self):
        # the outputs of the one-word sampler, rejections included
        g = SplitMix64(7)
        bounds = (1, 2, 3, 10, 1000, 2**32 + 15, 3 * 2**62, 2**64)
        assert [g.below(n) for n in bounds] == [
            0, 0, 0, 3, 674, 233668708, 8632209307422871798, 6051947643683389182,
        ]

    @pytest.mark.parametrize("n", (2**64 + 13, 2**65, 2**200))
    def test_below_wide_bounds(self, n):
        g = SplitMix64(44)
        draws = [g.below(n) for _ in range(200)]
        assert all(0 <= d < n for d in draws)
        assert max(draws) >= n // 2  # the high words are used

    def test_randint_bounds(self):
        g = SplitMix64(43)
        for _ in range(1000):
            v = g.randint(-5, 5)
            assert -5 <= v <= 5


class TestBruteMinplus:
    def test_delta_identity(self):
        s = SeqSpec.from_window({0: 2, 1: -1}, ConstTail(ExtInt(5)), ConstTail(ExtInt(5)))
        for k in range(-5, 6):
            assert brute_minplus(SeqSpec.delta(), s, k, (-30, 30)) == s.value_at(k)

    def test_absolute_value(self):
        f = SeqSpec.from_window({0: 0}, AffineTail(-1, 0), AffineTail(1, 0))
        assert brute_minplus(f, f, 5, (-40, 40)) == 5

    def test_const_zero(self):
        z = SeqSpec.constant(0)
        assert brute_minplus(z, z, 7, (-20, 20)) == 0

    def test_divergence_certified(self):
        a = SeqSpec.from_window({0: 0}, AffineTail(1, 0), ConstTail(ExtInt(0)))
        assert brute_minplus(a, SeqSpec.constant(0), 3, (-20, 20)) == MINUS_INF

    def test_window_insufficient(self):
        wide = SeqSpec.from_window(
            {i: 0 for i in range(-30, 31)}, ConstTail(ExtInt(0)), ConstTail(ExtInt(0))
        )
        with pytest.raises(WindowInsufficient):
            brute_minplus(wide, wide, 0, (-5, 5))


class TestBruteSeminorm:
    def test_zero_element(self):
        r = rng(81)
        spec = rand_seminorm(r, "mixed")
        from tdlf import MixedSeries

        assert brute_seminorm(spec, MixedSeries.zero(P), (-20, 20)) == MINUS_INF

    def test_monomial_gives_weight(self):
        r = rng(82)
        from tdlf import MixedSeries, PAdic

        for _ in range(30):
            spec = rand_seminorm(r, "mixed")
            j = r.randint(-8, 8)
            x = MixedSeries.monomial(P, j, PAdic.from_int(1, P))
            assert brute_seminorm(spec, x, (-20, 20)) == spec.seq.value_at(j)


class TestSampleElements:
    def test_deterministic(self):
        m = named("rank2_mixed")
        cfg = SampleConfig(seed=9, count=12, window=(-6, 6))
        a = [e.to_json() for e in sample_elements(m, cfg, P)]
        b = [e.to_json() for e in sample_elements(m, cfg, P)]
        assert a == b

    def test_different_seeds_differ(self):
        m = named("rank2_mixed")
        a = [e.to_json() for e in sample_elements(m, SampleConfig(seed=1, count=20, window=(-6, 6)), P)]
        b = [e.to_json() for e in sample_elements(m, SampleConfig(seed=2, count=20, window=(-6, 6)), P)]
        assert a != b

    def test_members_with_boundary_monomials(self):
        r = rng(83)
        for _ in range(20):
            kind = "mixed" if r.below(2) else "equal"
            m = rand_bounded(r, kind)
            cfg = SampleConfig(seed=r.below(1 << 32), count=30, window=(-6, 6))
            elems = sample_elements(m, cfg, P)
            assert len(elems) == 30
            for e in elems:
                assert membership(m, e) == Membership.IN
            finite = [
                i for i in range(-6, 7) if m.seq.value_at(i).is_finite
            ]
            for idx, i in enumerate(finite):
                e = elems[idx]
                assert len(e.coeffs) == 1
                j, c = e.coeffs[0]
                assert j == i and c.val == m.seq.value_at(i)

    def test_uncertified_sample_raises_under_optimize(self):
        # -O strips assert statements; the membership check must survive it
        import os
        import subprocess
        import sys
        from pathlib import Path

        import tdlf

        script = """
import sys
import tdlf.oracle as oracle
from tdlf import PrecisionExhausted, SampleConfig, named
assert False, "unreachable under -O"
oracle.membership = lambda m, el: oracle.Membership.UNKNOWN
try:
    oracle.sample_elements(named("O{{t}}"), SampleConfig(seed=0, count=2, window=(-2, 2)), 5)
except PrecisionExhausted as exc:
    print(sys.flags.optimize, exc)
"""
        src = str(Path(tdlf.__file__).resolve().parent.parent)
        run = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == "1 a sample is not certified as a member\n"

    def test_count_respected(self):
        m = named("O{{t}}")
        elems = sample_elements(m, SampleConfig(seed=0, count=3, window=(-10, 10)), P)
        assert len(elems) == 3


def test_brute_minplus_takes_an_edge_term_below_the_window():
    # both tails are 0 and the window holds 10: the pairs beyond the window win
    a = SeqSpec.from_window({0: 10}, ConstTail(ExtInt(0)), ConstTail(ExtInt(0)))
    assert brute_minplus(a, a, 0, (0, 0)) == 0
