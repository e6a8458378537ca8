"""Truncated p-adic numbers over Q_p.

An element is stored as ``p^val * unit`` known modulo ``p^precision``; the
unit is kept reduced modulo ``p^(precision - val)`` with its lowest digit
nonzero.  Two degenerate states exist: the exact zero (``val = precision =
+inf``) and "zero within precision" (``val == precision`` finite, empty
unit), which records an element congruent to 0 modulo ``p^precision`` whose
lower digits are unknown.  In both normal and zero-within-precision states
the ``val`` field is a valid lower bound for the true valuation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from . import _gmp
from .errors import IncompatiblePrimes, ParseError
from .seqspec import PLUS_INF, ExtInt, Frozen, json_int, json_parse

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["PAdic", "ExponentResult", "DEFAULT_RELATIVE_PRECISION", "MAX_RELATIVE_PRECISION",
           "PRIME_LIMIT", "check_precision", "check_prime"]

DEFAULT_RELATIVE_PRECISION = 32
# the largest relative precision read from input: output writes one digit
# per unit of it
MAX_RELATIVE_PRECISION = 10_000

# prime_power(p, e) == p**e, cached: a series round reuses a few dozen (p, e)
prime_power = lru_cache(maxsize=64)(pow)

# _reduce divides by GMP (_gmp.mod), or where libgmp does not load by Barrett
# reduction, only when p^e and the quotient both have more bits than this,
# and by % otherwise.  Barrett serves hosts without libgmp: CPython
# multiplies by Karatsuba from 70 digits of 30 bits, and only products past
# that make Barrett's two multiplies cheaper than one division.  On a Xeon,
# Python 3.11, % against Barrett for a quotient as wide as p^e: 6.1 against
# 7.0 us at 5^880 (2,044 bits), 8.0 against 7.5 us at 5^1024 (2,378 bits);
# at 5^2048, a quotient of 2,100 bits: 13.2 against 13.8 us, of 3,000 bits:
# 18.7 against 17.2 us.  % against GMP, byte conversions counted: 11.2
# against 7.5 us for a 2,000-bit quotient of a 2,500-bit divisor, 54 against
# 21 us for 4,757 bits of both, and 3.2 against 9.1 us for a 250-bit one.
_BARRETT_BITS = 2100
# the reciprocal of a k-bit p^e serves every x of at most 2k + _HEADROOM_BITS
# bits: a product of two units, and a diagonal sum of up to 2^64 of them
_HEADROOM_BITS = 64
# PAdic.__mul__ and the pairing sums of series._coefficient multiply two
# units by GMP (_gmp.mul) when both have at least this many bits.  On a Xeon,
# random operands of equal width, * against GMP with the byte conversions:
# 3.9 against 4.1 us at 1,800 bits, 5.1 against 4.7 us at 2,100 bits, 12.2
# against 5.8 us at 4,000 bits, and 20 against 8.9 us at 4,760 bits, the
# units at relative precision 2,048 and prime 5.
_GMP_MUL_BITS = 2100


def _wide_product(a: int, b: int) -> int:
    """``a * b`` for a unit ``a`` of at least ``_GMP_MUL_BITS`` bits: by GMP
    when ``b`` is as wide and the kernel is on, by ``*`` otherwise."""
    if b.bit_length() >= _GMP_MUL_BITS and (r := _gmp.mul(a, b)) is not None:
        return r
    return a * b


@lru_cache(maxsize=64)
def _barrett(p: int, e: int) -> tuple[int, int, int]:
    """``(m, k, r)`` for ``m = p^e`` of ``k`` bits and its reciprocal
    ``r = floor(2^(2k + _HEADROOM_BITS) / m)``."""
    m = prime_power(p, e)
    k = m.bit_length()
    return m, k, (1 << 2 * k + _HEADROOM_BITS) // m


def _reduce(x: int, p: int, e: int) -> int:
    """``x % p**e``.  A nonnegative ``x`` with ``p^e`` and the quotient both
    wide is divided by GMP; where libgmp does not load, or ``x`` passes its
    cap, such an ``x`` within the headroom of the cached reciprocal is
    reduced with two multiplies (Barrett, 1986), whose quotient estimate is
    at most 2 below the true one.  Any other ``x`` is reduced by ``%``."""
    m = prime_power(p, e)
    k, n = m.bit_length(), x.bit_length()
    # a narrow quotient, the common case, is tested first
    if n - k <= _BARRETT_BITS or k <= _BARRETT_BITS or x < 0:
        return x % m
    if (r := _gmp.mod(x, m)) is not None:
        return r
    if n > 2 * k + _HEADROOM_BITS:
        return x % m
    m, k, r = _barrett(p, e)
    x -= ((x >> (k - 1)) * r >> (k + 1 + _HEADROOM_BITS)) * m
    while x >= m:
        x -= m
    return x


class ExponentResult(Frozen):
    """A value in log-q scale together with an exactness flag.

    ``exact=False`` means the true value is at most ``exponent`` (the flag
    arises from zero-within-precision coefficients or tail bounds only).
    """

    __slots__ = _fields = ("exponent", "exact")

    def __init__(self, exponent: ExtInt, exact: bool):
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "exact", exact)

    def to_json(self) -> dict:
        return {"exponent": self.exponent.to_json(), "exact": self.exact}


# Miller-Rabin with the first 13 primes as bases is exact below PRIME_LIMIT
# (Sorenson and Webster, 2015); larger primes are refused.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality for ``n < PRIME_LIMIT``."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """``p`` when it is a prime below ``PRIME_LIMIT``; ParseError otherwise.

    The parsers check the prime of their input; ``PAdic.make`` does not.
    An ``int`` subclass such as ``bool`` is refused too.
    """
    if type(p) is not int:
        raise ParseError(f"prime {p!r} is not an int")
    if p >= PRIME_LIMIT:
        raise ParseError(f"prime {p} is not below {PRIME_LIMIT}")
    if not _is_prime(p):
        raise ParseError(f"{p} is not a prime")
    return p


def check_precision(rel: int) -> int:
    """``rel`` when it is a relative precision in ``[1, MAX_RELATIVE_PRECISION]``;
    ParseError otherwise, also for anything but an ``int``."""
    if type(rel) is not int:
        raise ParseError(f"relative precision {rel!r} is not an int")
    if not 1 <= rel <= MAX_RELATIVE_PRECISION:
        raise ParseError(f"relative precision {rel} is not in [1, {MAX_RELATIVE_PRECISION}]")
    return rel


def _digits(digits, p: int, rel: int) -> list[int]:
    """``digits`` if it is a list of at most ``rel`` base-``p`` digits;
    ValueError otherwise."""
    if type(digits) is not list:
        raise ValueError(f"expected a list, got {type(digits).__name__}")
    if len(digits) > rel:
        raise ValueError(f"{len(digits)} digits for relative precision {rel}")
    for d in digits:
        if not 0 <= json_int(d) < p:
            raise ValueError(f"{d} is not a base-{p} digit")
    return digits


def _check_prime(prime: int) -> None:
    """Refuse a prime below 2; primality itself is the parsers' check."""
    if prime < 2:
        raise ValueError("prime must be at least 2")


def _vp(n: int, p: int) -> int:
    """The exponent of ``p`` in ``n != 0`` with O(log v) big divisions:
    strip ``p^(2^j)`` for ``j = 0, 1, ...`` while it divides, then the rest,
    below ``2^j``, one binary digit at a time from the top."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if n % p:  # the common case: a unit
        return 0
    v, powers = 0, [p]
    while n % powers[-1] == 0:
        n //= powers[-1]
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for j in range(len(powers) - 2, -1, -1):
        if n % powers[j] == 0:
            n //= powers[j]
            v += 1 << j
    return v


# _base_digits writes a unit of at most this many digits one digit at a time;
# splitting wins from about here (256 digits of 5: 17 against 22 us, as above)
_SHORT_DIGITS = 64


def _base_digits(u: int, p: int, n: int, powers: dict[int, int]) -> list[int]:
    """The base-``p`` digits of ``0 <= u < p^n``, lowest first, padded to
    ``n``.  A long unit is split at ``p^(n//2)`` and each half converted
    alone, so ``n`` digits cost a few big divisions per halving rather than
    ``n`` divisions of a long int; ``powers`` keeps the ``p^h`` built so far."""
    if n <= _SHORT_DIGITS:
        out = []
        while u:
            u, d = divmod(u, p)
            out.append(d)
        return out + [0] * (n - len(out))
    h = n // 2
    if h not in powers:
        powers[h] = p**h
    hi, lo = divmod(u, powers[h])
    return _base_digits(lo, p, h, powers) + _base_digits(hi, p, n - h, powers)


def fraction_sum(terms: list, p: int, rel: int) -> PAdic | None:
    """The sum of the fractions ``num/den * p^e`` given as ``(num, den, e)``
    triples, ``p`` dividing no ``den``, at relative precision ``rel >= 1``;
    None when it is exactly 0.

    Terms are added in increasing valuation order, the running sum kept as
    ``(unit, den, val)`` with ``p`` dividing neither.  Once a term's
    valuation reaches ``val + rel``, neither it nor any later term changes
    the sum modulo ``p^(val + rel)``, so they are never added.
    """
    units = []
    for num, den, e in terms:
        if num:
            s = _vp(num, p)
            units.append((e + s, num // prime_power(p, s), den))
    units.sort(key=lambda t: t[0])
    unit, den, val = 0, 1, 0  # unit 0: the sum so far is exactly 0
    for v, u, d in units:
        if not unit:
            unit, den, val = u, d, v
            continue
        if v >= val + rel:
            break
        m = min(v, val)
        unit = unit * d * prime_power(p, val - m) + u * den * prime_power(p, v - m)
        s = _vp(unit, p) if unit else 0
        unit, den, val = unit // prime_power(p, s), den * d, m + s
    if not unit:
        return None
    if den != 1:
        unit *= pow(den, -1, prime_power(p, rel))
    return PAdic.make(p, val, unit, val + rel)


class PAdic(Frozen):
    __slots__ = _fields = ("prime", "val", "unit", "precision")

    def __init__(self, prime: int, val: ExtInt, unit: int, precision: ExtInt):
        # through the slot descriptors, past Frozen's refused __setattr__
        _set_prime(self, prime)
        _set_val(self, val)
        _set_unit(self, unit)
        _set_precision(self, precision)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(prime: int) -> "PAdic":
        return PAdic(prime, PLUS_INF, 0, PLUS_INF)

    @staticmethod
    def zero_mod(prime: int, precision: int) -> "PAdic":
        """Zero within precision: congruent to 0 modulo p^precision."""
        return PAdic(prime, ExtInt(precision), 0, ExtInt(precision))

    @staticmethod
    def make(prime: int, val: int, unit: int, precision: int) -> "PAdic":
        """Normalised element ``p^val * unit`` known modulo ``p^precision``."""
        _check_prime(prime)
        rel = precision - val
        if rel <= 0:
            return PAdic.zero_mod(prime, precision)
        # a unit below 2^rel is below p^rel, so p^rel need not be built
        u = unit if 0 <= unit and unit.bit_length() <= rel else _reduce(unit, prime, rel)
        if u == 0:
            return PAdic.zero_mod(prime, precision)
        shift = _vp(u, prime)  # below rel, as 0 < u < p^rel: val + shift < precision
        if shift:
            val += shift
            u //= prime_power(prime, shift)  # below p^(rel - shift), reduced already
        return PAdic(prime, ExtInt(val), u, ExtInt(precision))

    @staticmethod
    def from_int(
        n: int, prime: int, rel_precision: int = DEFAULT_RELATIVE_PRECISION
    ) -> "PAdic":
        return PAdic.from_fraction(n, prime, rel_precision)

    @staticmethod
    def from_fraction(
        q: Fraction | int, prime: int, rel_precision: int = DEFAULT_RELATIVE_PRECISION
    ) -> "PAdic":
        """``q`` at relative precision ``rel_precision``: a ``Fraction`` or an ``int``."""
        _check_prime(prime)  # before _vp, which never returns for prime 1
        check_precision(rel_precision)
        if q == 0:
            return PAdic.zero(prime)
        vd = _vp(q.denominator, prime)
        den = q.denominator // prime_power(prime, vd)
        return fraction_sum([(q.numerator, den, -vd)], prime, rel_precision)

    @staticmethod
    def pi_power(
        prime: int, k: int, rel_precision: int = DEFAULT_RELATIVE_PRECISION
    ) -> "PAdic":
        """The uniformizer power ``p^k``."""
        check_precision(rel_precision)
        return PAdic.make(prime, k, 1, k + rel_precision)

    @staticmethod
    def one(prime: int) -> "PAdic":
        return PAdic.pi_power(prime, 0)

    # -- state predicates ------------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.val == PLUS_INF

    @property
    def is_zero_within_precision(self) -> bool:
        return self.unit == 0 and self.val.is_finite

    @property
    def valuation_exact(self) -> bool:
        """Whether ``val`` is the true valuation rather than a lower bound."""
        return not self.is_zero_within_precision

    @property
    def rel_precision(self) -> ExtInt:
        return self.precision - self.val if self.val.is_finite else PLUS_INF

    def digits(self) -> list[int]:
        """Base-p digits of the unit, lowest first, padded to full length."""
        if self.val._sign or self.unit == 0:
            return []
        return _base_digits(self.unit, self.prime, self.precision._n - self.val._n, {})

    # -- arithmetic ------------------------------------------------------------
    # The operators read the slots of ``val`` and ``precision`` as plain ints:
    # an infinite ``val`` marks the exact zero, the one state whose fields are
    # not finite, and the ExtInt operators would cost more than the ints.

    def __add__(self, other: "PAdic") -> "PAdic":
        p = self.prime
        if other.prime != p:
            raise IncompatiblePrimes(f"{p} vs {other.prime}")
        if self.val._sign:
            return other
        if other.val._sign:
            return self
        a, b = self.val._n, other.val._n
        prec = min(self.precision._n, other.precision._n)
        v = min(a, b)
        total = 0
        # a term at or above the sum's precision is 0 modulo p^prec, so no
        # power of p beyond the relative precision is built
        if self.unit and a < prec:
            total = self.unit * prime_power(p, a - v) if a > v else self.unit
        if other.unit and b < prec:
            total += other.unit * prime_power(p, b - v) if b > v else other.unit
        return PAdic.make(p, v, total, prec)

    def __neg__(self) -> "PAdic":
        if self.val._sign or not self.unit:
            return self
        rel = self.precision._n - self.val._n
        return PAdic(self.prime, self.val, prime_power(self.prime, rel) - self.unit, self.precision)

    def __sub__(self, other: "PAdic") -> "PAdic":
        return self + (-other)

    def __mul__(self, other: "PAdic") -> "PAdic":
        p = self.prime
        if other.prime != p:
            raise IncompatiblePrimes(f"{p} vs {other.prime}")
        if self.val._sign or other.val._sign:
            return PAdic.zero(p)
        a, b = self.val._n, other.val._n
        if not (self.unit and other.unit):
            # only the valuation lower bounds multiply
            return PAdic.zero_mod(p, a + b)
        rel = min(self.precision._n - a, other.precision._n - b)
        u, w = self.unit, other.unit
        uw = u * w if u.bit_length() < _GMP_MUL_BITS else _wide_product(u, w)
        return PAdic.make(p, a + b, uw, a + b + rel)

    def abs_exponent(self) -> ExponentResult:
        """Exponent e with |x| = q^e, so e = -val; an upper bound when the
        element is only known to vanish modulo ``p^precision``."""
        return ExponentResult(-self.val, self.valuation_exact)

    # -- serialisation -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "valuation": self.val.to_json(),
            "digits": self.digits(),
            "precision": self.precision.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "PAdic":
        """The element of a JSON object; ParseError names a bad key.

        Digits lie in ``[0, p)``, at most ``precision - valuation`` of
        them; the exact zero (valuation ``+inf``) reads no digits.  Other
        elements have a finite valuation and precision, at most
        ``MAX_RELATIVE_PRECISION`` apart.
        """
        p = check_prime(json_parse(obj, "prime", json_int))
        val = json_parse(obj, "valuation", ExtInt.from_json)
        prec = json_parse(obj, "precision", ExtInt.from_json)
        if val == PLUS_INF:
            return PAdic.zero(p)
        if not (val.is_finite and prec.is_finite) or (prec - val).n > MAX_RELATIVE_PRECISION:
            raise ParseError(f"bad key 'precision': relative precision above {MAX_RELATIVE_PRECISION}")
        rel = max((prec - val).n, 0)
        digits = json_parse(obj, "digits", lambda ds: _digits(ds, p, rel))
        unit = 0
        for d in reversed(digits):
            unit = unit * p + d
        if unit == 0:
            return PAdic.zero_mod(p, val.n)
        return PAdic.make(p, val.n, unit, prec.n)

    def __repr__(self) -> str:
        if self.is_exact_zero:
            return f"0 (p={self.prime})"
        if self.is_zero_within_precision:
            return f"O({self.prime}^{self.val})"
        return f"{self.unit}*{self.prime}^{self.val} + O({self.prime}^{self.precision})"


_set_prime, _set_val, _set_unit, _set_precision = (PAdic.__dict__[f].__set__ for f in PAdic._fields)
