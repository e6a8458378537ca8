"""The tail remainder of mixed products by running minima, and what rides
along with it: cached prime powers, ``ExtInt`` ordering without
allocation, and ASCII-only literal digits.

``_remainder`` must give ``reference_tail_pairs_bound`` at every index, for
every combination of zero and bound tails on the two factors, and products
and pairings must run no min-plus convolution.
"""

import itertools

import pytest

from tdlf import (
    PLUS_INF,
    MINUS_INF,
    ConstTail,
    ExtInt,
    MixedSeries,
    ParseError,
    PrecisionExhausted,
    SeqSpec,
    pairing,
    parse_series,
)
from tdlf import seqspec as seqspec_module
from tdlf import series as series_module
from tdlf.cli import main
from tdlf.padic import prime_power
from tdlf.series import LeftValBound, RightValBound, ZeroTail, _remainder, mul, product_coeff
from helpers import PRIME, rand_coeff, reference_tail_pairs_bound, rng

TAILS = ("zero", "bound")


def tailed(r, left: str, right: str) -> MixedSeries:
    """A random window of up to 9 indices, sometimes storing nothing, with
    the given tails."""
    lo = r.randint(-8, 4)
    hi = lo + r.randint(0, 8)
    coeffs = {i: rand_coeff(r) for i in range(lo, hi + 1) if r.below(3) == 0}
    lt = LeftValBound(r.randint(1, 3), r.randint(-4, 4)) if left == "bound" else ZeroTail()
    rt = RightValBound(r.randint(-4, 4)) if right == "bound" else ZeroTail()
    return MixedSeries.from_coeffs(PRIME, coeffs, left=lt, right=rt, lo=lo, hi=hi)


def over(x: MixedSeries, y: MixedSeries, lo: int, hi: int) -> SeqSpec:
    """The remainder of ``x * y`` on ``lo .. hi``, as ``mul`` reads it."""
    plus = ConstTail(PLUS_INF)
    return SeqSpec.from_terms(lo, hi, _remainder(x, y, lo, hi), plus, plus)


def tail_pairs(seed: int, per_combination: int):
    """Pairs for each of the 16 zero/bound combinations of the four tails."""
    r = rng(seed)
    for lx, rx, ly, ry in itertools.product(TAILS, repeat=4):
        for _ in range(per_combination):
            yield tailed(r, lx, rx), tailed(r, ly, ry)


class TestRemainder:
    def test_matches_the_scan_for_every_tail_combination(self):
        """Every index from 12 below to 12 above the window sums, through the
        window pass, through any window inside it and through ``value_at``."""
        r = rng(731)
        for x, y in tail_pairs(730, 12):
            lo, hi = x.lo + y.lo - 12, x.hi + y.hi + 12
            want = [reference_tail_pairs_bound(x, y, k) for k in range(lo, hi + 1)]
            assert list(over(x, y, lo, hi).values) == want
            a = r.randint(lo, hi)
            b = r.randint(a, hi)
            assert list(over(x, y, a, b).values) == want[a - lo : b - lo + 1]
            for k in range(lo, hi + 1):
                assert over(x, y, k, k).value_at(k) == want[k - lo]

    def test_tail_by_tail_terms_alone(self):
        """With nothing stored, only the closed forms of tail against tail
        remain: each one is checked on its own."""
        cases = [
            (RightValBound(2), ZeroTail(), RightValBound(-1), ZeroTail()),
            (ZeroTail(), LeftValBound(1, 3), ZeroTail(), LeftValBound(2, -2)),
            (ZeroTail(), LeftValBound(3, 0), RightValBound(1), ZeroTail()),
            (RightValBound(0), LeftValBound(2, 1), RightValBound(-3), LeftValBound(1, 4)),
        ]
        for rx, lx, ry, ly in cases:
            x = MixedSeries.from_coeffs(PRIME, {}, left=lx, right=rx, lo=-2, hi=3)
            y = MixedSeries.from_coeffs(PRIME, {}, left=ly, right=ry, lo=1, hi=1)
            for k in range(-20, 21):
                assert over(x, y, k, k).value_at(k) == reference_tail_pairs_bound(x, y, k)

    def test_untailed_factors_leave_no_remainder(self):
        r = rng(732)
        x, y = tailed(r, "zero", "zero"), tailed(r, "zero", "zero")
        assert list(over(x, y, -30, 30).values) == [PLUS_INF] * 61
        assert over(x, y, 0, 0).value_at(0) == PLUS_INF


def test_products_and_pairings_run_no_convolution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a min-plus convolution or pointwise min ran")

    for name in ("minplus_convolve", "pointwise_min"):
        assert not hasattr(series_module, name)
        monkeypatch.setattr(seqspec_module, name, refuse)
    for x, y in tail_pairs(733, 2):
        mul(x, y)
        try:
            mul(x, y, 10**6)
        except PrecisionExhausted:
            pass
        for k in (-3, 0, 4):
            product_coeff(x, y, k)
        pairing(x, y)


def test_random_tailed_pairs_never_raise_the_product_tail_checks():
    """Left bounds have slope at least 1 and right bounds are constant, so a
    mixed product's left tail decays and its right tail is constant: the
    tail checks of ``mul`` never raise, and ``pairing`` raises nothing."""
    seen = 0
    for x, y in tail_pairs(734, 8):
        z = mul(x, y)
        seen += isinstance(z.left, LeftValBound) + isinstance(z.right, RightValBound)
        for k in range(z.lo - 3, z.hi + 4):
            assert product_coeff(x, y, k) == z.coeff(k)
        pairing(x, y)
    assert seen > 100


def test_prime_power_cache():
    for p, e in itertools.product((2, 3, 5, 7, 101), (0, 1, 2, 31, 256, 2048)):
        assert prime_power(p, e) == p**e
    for e in range(200):
        assert prime_power(5, e) == 5**e
    info = prime_power.cache_info()
    assert info.maxsize == 64 and info.currsize <= 64


def _old_key(v: ExtInt) -> tuple:
    """The order key ``ExtInt`` compared by before: infinities around all
    finite values."""
    return (1, 0) if v == PLUS_INF else (-1, 0) if v == MINUS_INF else (0, v.n)


def test_ext_int_order_against_the_old_key_order():
    values = [MINUS_INF, PLUS_INF, *(ExtInt(n) for n in range(-3, 4))]
    ops = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
    }
    for a, b in itertools.product(values, repeat=2):
        ka, kb = _old_key(a), _old_key(b)
        operands = [b] + ([b.n] if b.is_finite else [])
        for name, op in ops.items():
            want = op(ka, kb)
            for other in operands:
                assert op(a, other) is want, (a, name, other)
                if type(other) is int:  # the reflected forms go through ExtInt too
                    assert op(other, a) is op(kb, ka), (other, name, a)
        assert hash(a) == (hash(a.n) if a.is_finite else hash(ka))


@pytest.mark.parametrize("other", [True, False, 1.0, 2.5, "1", None])
def test_ext_int_refuses_other_operands_as_before(other):
    for v in (ExtInt(1), PLUS_INF, MINUS_INF):
        for op in (
            lambda a, b: a < b,
            lambda a, b: a <= b,
            lambda a, b: a > b,
            lambda a, b: a >= b,
        ):
            with pytest.raises(TypeError, match=f"ExtInt needs an int, got {type(other).__name__}"):
                op(v, other)
        if isinstance(other, int):  # bool: an int subclass
            with pytest.raises(TypeError, match="ExtInt needs an int, got bool"):
                v == other
        else:
            assert (v == other) is False and (v != other) is True


class TestAsciiDigits:
    @pytest.mark.parametrize("text, column", [("²", 0), ("1 + ٣t", 4), ("t^²", 2), ("ť", 0)])
    def test_library_raises_a_positioned_parse_error(self, text, column):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_series(text, PRIME)
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize("text", ["²", "1 + ٣t"])
    def test_cli_exits_2_without_a_traceback(self, capsys, text):
        assert main(["--prime", "5", "eval", "--series", text]) == 2
        captured = capsys.readouterr()
        assert "unexpected character" in captured.err
        assert "Traceback" not in captured.err + captured.out
