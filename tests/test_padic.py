import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tdlf
from tdlf import (
    MINUS_INF,
    PLUS_INF,
    IncompatiblePrimes,
    PAdic,
    ParseError,
)
from helpers import PRIME, rand_coeff, rng

P = PRIME


def residue(x: PAdic, a: int) -> int:
    """Integer residue of x modulo p^a (x must have valuation >= 0)."""
    if x.unit == 0:
        return 0
    assert x.val.n >= 0
    return (x.unit * P ** x.val.n) % P**a


class TestConstruction:
    @pytest.mark.parametrize("call", [
        "PAdic.make(1, 0, 5, 3)",
        "PAdic.from_int(5, 1)",
        "PAdic.from_int(5, 0)",
        "PAdic.from_int(0, 1)",
        "PAdic.from_fraction(Fraction(2, 3), 1)",
        "PAdic.from_fraction(Fraction(2, 3), 0)",
        "PAdic.from_fraction(Fraction(-1, 2), -7)",
    ])
    def test_a_prime_below_two_is_refused(self, call):
        """In a subprocess with a timeout: ``_vp`` never returns for prime 1."""
        code = (
            "from fractions import Fraction\nfrom tdlf import PAdic\n"
            f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tdlf.__file__).resolve().parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=30, env=env)
        assert (proc.stdout, proc.stderr) == ("prime must be at least 2\n", "")

    @pytest.mark.parametrize("build", [
        lambda rel: PAdic.from_int(3, P, rel),
        lambda rel: PAdic.from_int(0, P, rel),
        lambda rel: PAdic.from_fraction(Fraction(1, 3), P, rel),
        lambda rel: PAdic.pi_power(P, 2, rel),
    ])
    def test_a_relative_precision_out_of_range_is_refused(self, build):
        """The constructors take the relative precisions the parsers take;
        10^6 is refused before ``p^(10^6)`` is built."""
        for rel in (-1, 0, 10_001, True, 1.5, 10**6):
            start = time.perf_counter()
            with pytest.raises(ParseError, match="relative precision"):
                build(rel)
            assert time.perf_counter() - start < 0.1
        for rel in (1, 10_000):
            build(rel)

    def test_from_int_normalises(self):
        x = PAdic.from_int(50, P)  # 50 = 2 * 5^2
        assert x.val == 2 and x.unit % P == 2

    def test_zero_states(self):
        z = PAdic.zero(P)
        assert z.is_exact_zero and z.val == PLUS_INF
        zw = PAdic.zero_mod(P, 8)
        assert zw.is_zero_within_precision and zw.val == 8 and not zw.valuation_exact

    def test_digit_length_matches_relative_precision(self):
        x = PAdic.from_fraction(Fraction(7, 3), P, rel_precision=10)
        assert len(x.digits()) == int(x.precision - x.val) == 10

    def test_fraction_inverse(self):
        x = PAdic.from_fraction(Fraction(1, 3), P)
        y = x * PAdic.from_int(3, P)
        assert (y - PAdic.one(P)).is_zero_within_precision

    def test_json_round_trip(self):
        r = rng(21)
        for _ in range(50):
            x = rand_coeff(r)
            assert PAdic.from_json(x.to_json()) == x
        assert PAdic.from_json(PAdic.zero(P).to_json()) == PAdic.zero(P)
        assert PAdic.from_json(PAdic.zero_mod(P, 5).to_json()) == PAdic.zero_mod(P, 5)


def test_one_fraction_kernel():
    """``fraction_sum`` serves both the literal parser and ``from_fraction``:
    on random fractions with powers of ``p`` in numerator and denominator
    it equals the closed form ``p^(vn - vd) * unum / uden`` at relative
    precision ``rel``, read whole through ``from_fraction`` and as the sum
    of two triples."""
    from tdlf.padic import _vp, fraction_sum

    def reference(q, p, rel):
        vn, vd = _vp(q.numerator, p), _vp(q.denominator, p)
        unum, uden = q.numerator // p**vn, q.denominator // p**vd
        return PAdic.make(p, vn - vd, unum * pow(uden, -1, p**rel) % p**rel, vn - vd + rel)

    def part(r, p):
        num = r.randint(1, 10**r.randint(1, 12)) * p**r.below(6) * (-1) ** r.below(2)
        den = r.randint(1, 10**r.randint(1, 9)) * p**r.below(6)
        return Fraction(num, den)

    r = rng(25)
    cases = 0
    for p in (2, 3, 5, 7, 101):
        for rel in (1, 2, 8, 32, 300):
            for _ in range(300):
                q, extra = part(r, p), part(r, p)
                want = reference(q, p, rel)
                assert PAdic.from_fraction(q, p, rel) == want
                # q as the sum of two triples (num, den prime to p, e)
                triples = []
                for f in (q - extra, extra):
                    if f:
                        vd = _vp(f.denominator, p)
                        triples.append((f.numerator, f.denominator // p**vd, -vd))
                assert fraction_sum(triples, p, rel) == want
                cases += 1
    assert cases == 7500


class TestAdd:
    def test_carry_example(self):
        s = PAdic.from_int(2, P) + PAdic.from_int(3, P)
        assert s.val == 1 and s.unit % P == 1  # 5 = p * 1

    def test_add_zero(self):
        x = PAdic.from_fraction(Fraction(7, 3), P)
        assert x + PAdic.zero(P) == x

    def test_cancellation_is_zero_within_precision(self):
        x = PAdic.from_int(7, P)
        s = x + (-x)
        assert s.is_zero_within_precision
        assert s.val == s.precision == x.precision

    def test_differing_valuations_keep_min(self):
        x = PAdic.pi_power(P, 1)
        y = PAdic.pi_power(P, 3)
        assert (x + y).val == 1

    def test_incompatible_primes(self):
        with pytest.raises(IncompatiblePrimes):
            PAdic.from_int(1, 5) + PAdic.from_int(1, 7)


class TestMul:
    def test_example(self):
        x = PAdic.from_int(2, P) * PAdic.from_int(3, P)
        assert x.val == 0 and residue(x, 3) == 6

    def test_mul_one(self):
        x = PAdic.from_fraction(Fraction(7, 3), P)
        assert x * PAdic.one(P) == x

    def test_mul_exact_zero(self):
        x = PAdic.from_int(7, P)
        assert (x * PAdic.zero(P)).is_exact_zero

    def test_valuations_add(self):
        x = PAdic.pi_power(P, 2) * PAdic.pi_power(P, -5)
        assert x.val == -3

    def test_zero_within_precision_propagates(self):
        z = PAdic.zero_mod(P, 4) * PAdic.pi_power(P, 2)
        assert z.is_zero_within_precision and z.precision == 6


class TestAbsExponent:
    def test_unit_times_square(self):
        x = PAdic.pi_power(P, 2) * PAdic.from_int(3, P)
        res = x.abs_exponent()
        assert res.exponent == -2 and res.exact

    def test_exact_zero(self):
        res = PAdic.zero(P).abs_exponent()
        assert res.exponent == MINUS_INF and res.exact

    def test_zero_within_precision_is_upper_bound(self):
        res = PAdic.zero_mod(P, 8).abs_exponent()
        assert res.exponent == -8 and not res.exact


class TestRingAxioms:
    ints = st.integers(-200, 200)

    @given(ints, ints)
    def test_add_commutes_with_int_arithmetic(self, a, b):
        s = PAdic.from_int(a, P) + PAdic.from_int(b, P)
        prec = min(PAdic.from_int(a, P).precision, PAdic.from_int(b, P).precision)
        if prec == PLUS_INF:
            assert s.is_exact_zero and a == b == 0
        else:
            assert residue(s, prec.n) == (a + b) % P**prec.n

    @given(ints, ints)
    def test_mul_commutes_with_int_arithmetic(self, a, b):
        x = PAdic.from_int(a, P) * PAdic.from_int(b, P)
        if a == 0 or b == 0:
            assert x.is_exact_zero
        else:
            assert residue(x, x.precision.n) == (a * b) % P**x.precision.n

    @given(ints, ints, ints)
    def test_distributivity_within_precision(self, a, b, c):
        pa, pb, pc = (PAdic.from_int(n, P) for n in (a, b, c))
        lhs = pa * (pb + pc)
        rhs = pa * pb + pa * pc
        prec = min(lhs.precision, rhs.precision)
        if prec == PLUS_INF:
            assert lhs.is_exact_zero and rhs.is_exact_zero
        else:
            assert residue(lhs, prec.n) == residue(rhs, prec.n)

    def test_valuation_laws(self):
        r = rng(22)
        for _ in range(200):
            x, y = rand_coeff(r), rand_coeff(r)
            assert (x * y).val == x.val + y.val
            s = x + y
            if x.val != y.val:
                assert s.val == min(x.val, y.val)
            else:
                assert s.val >= x.val

    def test_abs_exponent_laws(self):
        r = rng(23)
        for _ in range(200):
            x, y = rand_coeff(r), rand_coeff(r)
            ex, ey = x.abs_exponent(), y.abs_exponent()
            exy = (x * y).abs_exponent()
            assert exy.exponent == ex.exponent + ey.exponent
            es = (x + y).abs_exponent()
            assert es.exponent <= max(ex.exponent, ey.exponent)
            if ex.exponent != ey.exponent:
                assert es.exponent == max(ex.exponent, ey.exponent)


class TestValuationOfIntegers:
    def test_vp_matches_repeated_division(self):
        from tdlf.padic import _vp

        def reference(n, p):
            v = 0
            while n % p == 0:
                n, v = n // p, v + 1
            return v

        r = rng(24)
        for p in (2, 3, 5, 7, 2**61 - 1):
            for _ in range(150):
                k = r.below(4) and r.below(600)
                c = r.randint(1, 10**12) * (p ** r.below(3)) * (-1) ** r.below(2)
                n = p**k * c
                assert _vp(n, p) == reference(n, p) == k + reference(c, p)
        for k in (0, 1, 2, 3, 4, 7, 8, 63, 64, 65, 1023, 1024, 5000):
            assert _vp(3**k * 2, 3) == k
        with pytest.raises(ValueError):
            _vp(0, 5)

    def test_large_powers_of_p_parse_to_their_valuation(self):
        from tdlf import parse_series

        x = parse_series("p^20000*t + 3*p^-20001", 5)
        assert x.coeff(1).val == 20000 and x.coeff(1).unit == 1
        assert x.coeff(0).val == -20001 and x.coeff(0).unit == 3


@pytest.mark.usefixtures("gmp_off")  # Barrett, the engine without libgmp
class TestPlainIntDifferential:
    """``+``, ``-``, unary ``-``, ``*`` and ``make`` against residues computed
    with plain ints, on seeded elements of primes 2, 3, 5 and 101 at relative
    precisions 1 to 3,000: across ``_BARRETT_BITS`` for every prime, with
    the exact zero, zero within precision and negative units given to
    ``make``."""

    PRIMES = (2, 3, 5, 101)

    @staticmethod
    def scaled(x: PAdic, base: int, n: int) -> int:
        """``x / p^base`` modulo ``p^n``, for ``x.val >= base``."""
        p = x.prime
        return x.unit * p ** (x.val.n - base) % p**n if x.unit else 0

    @staticmethod
    def assert_normal(z: PAdic) -> None:
        if z.is_exact_zero:
            assert z.val == z.precision == PLUS_INF and z.unit == 0
        elif z.unit == 0:
            assert z.val == z.precision and z.val.is_finite
        else:
            p = z.prime
            assert z.unit % p and 0 < z.unit < p ** (z.precision - z.val).n

    def element(self, r, p: int) -> tuple[PAdic, tuple]:
        """A random element and the ``make`` arguments that built it."""
        kind = r.below(8)
        if kind == 0:
            return PAdic.zero(p), None
        val = r.randint(-5, 5) if r.below(4) else r.randint(-3000, 3000)
        rel = r.randint(1, 3000) if r.below(2) else r.randint(1, 40)
        m = p**rel
        if kind == 1:  # zero within precision: a multiple of p^rel
            unit = m * r.randint(-3, 3)
        elif kind == 2:  # a negative unit
            unit = -r.randint(1, m * m)
        elif kind == 3:  # wider than the reduction's headroom
            unit = r.below(m**3) + 1
        else:
            unit = (r.below(m) + 1) * p ** r.below(3)
        args = (p, val, unit, val + rel)
        return PAdic.make(*args), args

    def test_make_add_sub_neg_mul_against_ints(self):
        r = rng(26)
        cases = 0
        for p in self.PRIMES:
            for _ in range(120):
                (x, args), (y, _) = self.element(r, p), self.element(r, p)
                self.assert_normal(x)
                if args is not None:  # make: x = p^val * unit modulo p^precision
                    _, val, unit, prec = args
                    assert x.precision == prec
                    assert self.scaled(x, val, prec - val) == unit % p ** (prec - val)
                self.check_add(x, y, sign=1)
                self.check_add(x, y, sign=-1)
                self.check_neg(x)
                self.check_mul(x, y)
                cases += 1
        assert cases == 480

    def check_add(self, x: PAdic, y: PAdic, sign: int) -> None:
        z = x + y if sign == 1 else x - y
        self.assert_normal(z)
        if y.is_exact_zero:
            assert z == x
            return
        if x.is_exact_zero:
            assert z == (y if sign == 1 else -y)
            return
        p, prec = x.prime, min(x.precision, y.precision).n
        base = min(x.val, y.val).n
        n = prec - base
        assert z.precision == prec
        want = (self.scaled(x, base, n) + sign * self.scaled(y, base, n)) % p**n
        assert self.scaled(z, base, n) == want

    def check_neg(self, x: PAdic) -> None:
        z = -x
        self.assert_normal(z)
        if x.is_exact_zero:
            assert z.is_exact_zero
            return
        p, base, prec = x.prime, x.val.n, x.precision.n
        assert z.precision == prec
        assert self.scaled(z, base, prec - base) == -self.scaled(x, base, prec - base) % p ** (prec - base)

    def check_mul(self, x: PAdic, y: PAdic) -> None:
        z = x * y
        self.assert_normal(z)
        if x.is_exact_zero or y.is_exact_zero:
            assert z.is_exact_zero
            return
        p, base = x.prime, (x.val + y.val).n
        n = min((x.precision - x.val).n, (y.precision - y.val).n)
        assert z.precision == base + n
        assert self.scaled(z, base, n) == x.unit * y.unit % p**n


@pytest.mark.usefixtures("gmp_off")  # Barrett, the engine without libgmp
class TestReduce:
    """``_reduce(x, p, e) == x % p**e``: at 0, ``m - 1`` and ``m``, at both
    widths on either side of the reciprocal's headroom, for negative ``x``,
    and for ``p^e`` and the quotient on both sides of ``_BARRETT_BITS``."""

    @staticmethod
    def cases():
        """``(p, e, x)`` for every prime, precision and ``x`` above."""
        from tdlf.padic import _BARRETT_BITS, _HEADROOM_BITS

        r = rng(27)
        for p in (2, 3, 5, 101):
            edge = next(e for e in range(1, 10_000) if (p ** (e + 1)).bit_length() > _BARRETT_BITS)
            assert (p**edge).bit_length() <= _BARRETT_BITS < (p ** (edge + 1)).bit_length()
            for e in (1, 7, edge - 1, edge, edge + 1, edge + 2, 3 * edge):
                m = p**e
                k = m.bit_length()
                width = 2 * k + _HEADROOM_BITS
                xs = [0, 1, m - 1, m, m + 1, 2 * m - 1, m * m - 1, m * m,
                      1 << (k + _BARRETT_BITS - 1), 1 << (k + _BARRETT_BITS),  # quotient widths at the cutoff
                      1 << (width - 1), (1 << width) - 1,  # the widest x inside the headroom
                      1 << width, (1 << (width + 1)) - 1,  # one bit wider: outside it
                      -1, -m, -(m * m) - 1]
                xs += [r.below(1 << width) for _ in range(20)]
                xs += [r.below(1 << 2 * width) for _ in range(5)]
                xs += [-r.below(1 << width) for _ in range(5)]
                for x in xs:
                    yield p, e, x

    def test_against_mod(self):
        from tdlf.padic import _reduce

        cases = 0
        for p, e, x in self.cases():
            assert _reduce(x, p, e) == x % p**e, (p, e, x)
            cases += 1
        assert cases == 4 * 7 * 47

    def test_make_keeps_the_residue(self):
        """``make`` leaves the choice of reduction to ``_reduce``: on the
        same units, at both sides of every cutoff, it keeps ``x % p**e``
        as a normal element."""
        for p, e, x in self.cases():
            z = PAdic.make(p, 0, x, e)
            assert TestPlainIntDifferential.scaled(z, 0, e) == x % p**e, (p, e, x)
            TestPlainIntDifferential.assert_normal(z)


class TestDigits:
    def test_digits_equal_the_per_digit_loop(self):
        """Divide-and-conquer digits equal the per-digit reference on units
        at every length around the short-unit base case and the splits."""
        from helpers import reference_digits
        from tdlf.padic import _SHORT_DIGITS

        r = rng(28)
        rels = (1, 2, _SHORT_DIGITS - 1, _SHORT_DIGITS, _SHORT_DIGITS + 1, 2 * _SHORT_DIGITS + 1,
                255, 256, 257, 1000, 3001)
        cases = 0
        for p in (2, 3, 5, 101):
            for rel in rels:
                m = p**rel
                for unit in (1, m - 1, p ** (rel - 1) + 1, r.below(m), r.below(p ** (rel // 2 + 1))):
                    unit += unit % p == 0  # a unit, so that x keeps relative precision rel
                    val = r.randint(-3, 3)
                    x = PAdic.make(p, val, unit if unit < m else 1, val + rel)
                    assert x.digits() == reference_digits(x)
                    assert len(x.digits()) == rel
                    cases += 1
        for x in (PAdic.zero(P), PAdic.zero_mod(P, 4)):
            assert x.digits() == reference_digits(x) == []
        assert cases == 4 * len(rels) * 5

    def test_digits_are_not_quadratic(self):
        """10^5 digits take one split per halving, not 10^5 long divisions
        (about 0.04 s; the per-digit loop takes minutes)."""
        x = PAdic.make(5, 0, 5**100_000 // 3, 100_000)
        start = time.perf_counter()
        digits = x.digits()
        assert time.perf_counter() - start < 2
        assert len(digits) == 100_000
        assert sum(d * 5**i for i, d in enumerate(digits[:40])) == x.unit % 5**40


def test_slot_setters_keep_the_frozen_contract():
    """``PAdic.__init__`` sets its slots through the slot descriptors, not
    through ``Frozen.__setattr__``: values built by every constructor still
    refuse assignment and deletion, and copy and pickle rebuild them."""
    import copy
    import pickle

    from tdlf import padic

    setters = (padic._set_prime, padic._set_val, padic._set_unit, padic._set_precision)
    assert [s.__self__ for s in setters] == [PAdic.__dict__[f] for f in PAdic._fields]
    x = PAdic.from_fraction(Fraction(2, 3), 5, 20)
    for a in (x, x * x + PAdic.one(5), -x, PAdic.zero_mod(5, 3), PAdic.zero(5), PAdic.make(5, -2, 7, 9)):
        for name in (*PAdic._fields, "extra"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(a, name, 1)
        for name in PAdic._fields:
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(a, name)
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is PAdic and b == a and hash(b) == hash(a)
            assert [getattr(b, f) for f in PAdic._fields] == [getattr(a, f) for f in PAdic._fields]


def test_a_product_of_two_primes_is_refused():
    with pytest.raises(IncompatiblePrimes, match="^5 vs 7$"):
        PAdic.one(5) * PAdic.one(7)


def test_the_exact_zero_prints_its_prime():
    assert repr(PAdic.zero(5)) == "0 (p=5)"
