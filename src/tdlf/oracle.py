"""Brute-force reference implementations over finite windows.

These are deliberately naive: direct enumeration where the main code paths
use closed forms.  Differential tests pit the two against each other.  The
element sampler runs on splitmix64 so that a seed fully determines its
output on any platform.
"""

from __future__ import annotations

from .errors import ParseError, PrecisionExhausted, WindowInsufficient
from .padic import PAdic, check_precision
from .seminorm import SeminormSpec
from .seqspec import (
    MINUS_INF,
    PLUS_INF,
    AffineTail,
    ExtInt,
    Frozen,
    SeqSpec,
    minplus_term,
)
from .series import SERIES_KINDS, Series
from .submodule import Membership, SubmoduleSpec, membership

__all__ = [
    "SampleConfig",
    "SplitMix64",
    "brute_seminorm",
    "brute_minplus",
    "sample_elements",
]

_MASK = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator: 64-bit state, one mix per output."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform in [0, n) by rejection.

        Draws as many 64-bit words as ``n`` needs, most significant first,
        and rejects on that width; bounds up to 2^64 take one word.
        """
        if n <= 0:
            raise ValueError("need a positive bound")
        words = max(1, ((n - 1).bit_length() + 63) // 64)
        span = 1 << (64 * words)
        limit = span - span % n
        while True:
            x = 0
            for _ in range(words):
                x = (x << 64) | self.next_u64()
            if x < limit:
                return x % n

    def randint(self, a: int, b: int) -> int:
        """Uniform in [a, b]."""
        return a + self.below(b - a + 1)


class SampleConfig(Frozen):
    __slots__ = _fields = ("seed", "count", "window", "precision")

    def __init__(
        self, seed: int, count: int, window: tuple[int, int] = (-10, 10), precision: int = 32
    ):
        if count < 0:
            raise ParseError(f"sample count {count} is negative")
        check_precision(precision)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "precision", precision)


def brute_seminorm(
    spec: SeminormSpec, x: Series, window: tuple[int, int]
) -> ExtInt:
    """max over the window of ``n_i - v(x_i)`` by direct enumeration.

    The window must cover every stored coefficient of ``x``.
    """
    lo, hi = window
    best = MINUS_INF
    for i in range(lo, hi + 1):
        n_i = spec.seq.value_at(i)
        if n_i == MINUS_INF:
            continue
        c = x.coeff(i)
        v = c.val
        if v == PLUS_INF:
            continue
        best = max(best, ExtInt(n_i.n - v.n))
    return best


def _tail_slope_towards(seq: SeqSpec, leftward: bool) -> int | None:
    """Slope of the tail on one side; None encodes an infinite constant."""
    t = seq.left if leftward else seq.right
    if isinstance(t, AffineTail):
        return t.slope
    return 0 if t.value.is_finite else None


def brute_minplus(
    a: SeqSpec, b: SeqSpec, k: int, window: tuple[int, int]
) -> ExtInt:
    """min over i in the window of ``a(i) + b(k-i)``.

    Exterior indices are certified by tail monotonicity; if the slopes make
    the sum decrease without bound the true value is ``-inf``, and if no
    certificate exists the window is reported insufficient.
    """
    lo, hi = window
    best = PLUS_INF
    for i in range(lo, hi + 1):
        best = min(best, minplus_term(a.value_at(i), b.value_at(k - i)))

    for leftward in (True, False):
        if leftward:
            edge, step = lo - 1, -1
        else:
            edge, step = hi + 1, 1
        # make sure the edge sits in pure tail mode for both factors
        if leftward:
            in_tail = edge < a.window_lo and (k - edge) > b.window_hi
        else:
            in_tail = edge > a.window_hi and (k - edge) < b.window_lo
        if not in_tail:
            raise WindowInsufficient(
                f"window {window} does not clear the explicit values for k={k}"
            )
        sa = _tail_slope_towards(a, leftward)
        sb = _tail_slope_towards(b, not leftward)
        va = a.value_at(edge)
        vb = b.value_at(k - edge)
        first = minplus_term(va, vb)
        if va == PLUS_INF or vb == PLUS_INF:
            continue  # an absorbing constant: no exterior minimiser
        if va == MINUS_INF or vb == MINUS_INF:
            return MINUS_INF
        assert sa is not None and sb is not None
        drift = (sa - sb) * step  # change of the sum per exterior step
        if drift < 0:
            return MINUS_INF
        if first < best:
            best = first
    return best


def _random_coeff(rng: SplitMix64, prime: int, val: int, precision: int) -> PAdic:
    lead = rng.randint(1, prime - 1)
    unit = lead
    scale = prime
    for _ in range(7):
        unit += rng.below(prime) * scale
        scale *= prime
    return PAdic.make(prime, val, unit, val + precision)


def sample_elements(
    m: SubmoduleSpec, cfg: SampleConfig, prime: int
) -> list[Series]:
    """Deterministic members of ``m`` saturating its coefficient bounds.

    Boundary monomials ``p^(k_i) t^i`` come first for every window index
    with a finite exponent, then pseudorandom elements fill up to
    ``cfg.count``.  Each must be a certified member, else PrecisionExhausted.
    """
    rng = SplitMix64(cfg.seed)
    lo, hi = cfg.window
    seq = m.seq
    build = SERIES_KINDS[m.field_kind].from_coeffs

    out: list[Series] = []
    for i in range(lo, hi + 1):
        k_i = seq.value_at(i)
        if k_i.is_finite:
            out.append(build(prime, {i: PAdic.pi_power(prime, k_i.n, cfg.precision)}))
        if len(out) >= cfg.count:
            break

    while len(out) < cfg.count:
        coeffs: dict[int, PAdic] = {}
        for i in range(lo, hi + 1):
            if rng.below(2) == 0:
                continue
            k_i = seq.value_at(i)
            if k_i == PLUS_INF:
                continue
            floor = k_i.n if k_i.is_finite else -8 - rng.below(8)
            val = floor + rng.below(4)
            coeffs[i] = _random_coeff(rng, prime, val, cfg.precision)
        out.append(build(prime, coeffs))

    if any(membership(m, el) != Membership.IN for el in out):
        raise PrecisionExhausted("a sample is not certified as a member")
    return out[: cfg.count]
