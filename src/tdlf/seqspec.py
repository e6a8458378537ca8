"""Extended integers and finitely presented integer sequences.

A :class:`SeqSpec` is a total map ``Z -> Z u {+inf, -inf}`` presented by a
finite window of explicit values together with a constant or affine tail on
each side.  Every exponent sequence in the package (seminorm weights,
submodule exponents) is stored in this form, and the class is closed under
the operations needed downstream: pointwise min/max, reflection ``i -> a -
s(-i)``, shifts, and min-plus convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from .errors import NonRepresentableTail, UndefinedInfiniteSum

__all__ = [
    "ExtInt",
    "PLUS_INF",
    "MINUS_INF",
    "ConstTail",
    "AffineTail",
    "Tail",
    "SeqSpec",
    "pointwise_min",
    "pointwise_max",
    "reflect_affine",
    "shift_add",
    "minplus_convolve",
    "sup_diff",
    "forall_ge",
]


class ExtInt:
    """An integer extended with ``+inf`` and ``-inf``.

    Total order with ``-inf < n < +inf`` for every finite ``n``.  Addition
    saturates at infinities; the combination ``+inf + -inf`` raises
    :class:`UndefinedInfiniteSum` rather than producing a value.
    """

    __slots__ = ("_sign", "_n")

    def __init__(self, n: int = 0):
        if not isinstance(n, int):
            raise TypeError(f"ExtInt needs an int, got {type(n).__name__}")
        self._sign = 0
        self._n = n

    @classmethod
    def _infinite(cls, sign: int) -> "ExtInt":
        obj = object.__new__(cls)
        obj._sign = sign
        obj._n = 0
        return obj

    @property
    def is_finite(self) -> bool:
        return self._sign == 0

    @property
    def n(self) -> int:
        if self._sign != 0:
            raise ValueError("infinite ExtInt has no integer value")
        return self._n

    @staticmethod
    def of(x: Union["ExtInt", int]) -> "ExtInt":
        return x if isinstance(x, ExtInt) else ExtInt(x)

    def _key(self) -> tuple:
        # +inf and -inf sort around all finite values
        if self._sign > 0:
            return (1, 0)
        if self._sign < 0:
            return (-1, 0)
        return (0, self._n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = ExtInt(other)
        if not isinstance(other, ExtInt):
            return NotImplemented
        return self._sign == other._sign and self._n == other._n

    def __hash__(self) -> int:
        # finite values equal their int, so they must hash like it
        return hash(self._n) if self._sign == 0 else hash(self._key())

    def __lt__(self, other: Union["ExtInt", int]) -> bool:
        return self._key() < ExtInt.of(other)._key()

    def __le__(self, other: Union["ExtInt", int]) -> bool:
        return self._key() <= ExtInt.of(other)._key()

    def __gt__(self, other: Union["ExtInt", int]) -> bool:
        return self._key() > ExtInt.of(other)._key()

    def __ge__(self, other: Union["ExtInt", int]) -> bool:
        return self._key() >= ExtInt.of(other)._key()

    def __add__(self, other: Union["ExtInt", int]) -> "ExtInt":
        other = ExtInt.of(other)
        if self._sign == 0 and other._sign == 0:
            return ExtInt(self._n + other._n)
        if self._sign == 0:
            return other
        if other._sign == 0 or other._sign == self._sign:
            return self
        raise UndefinedInfiniteSum("(+inf) + (-inf) is undefined")

    def __radd__(self, other: int) -> "ExtInt":
        return self.__add__(other)

    def __neg__(self) -> "ExtInt":
        if self._sign == 0:
            return ExtInt(-self._n)
        return MINUS_INF if self._sign > 0 else PLUS_INF

    def __sub__(self, other: Union["ExtInt", int]) -> "ExtInt":
        return self.__add__(-ExtInt.of(other))

    def __rsub__(self, other: int) -> "ExtInt":
        return ExtInt(other).__sub__(self)

    def __int__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        if self._sign > 0:
            return "+inf"
        if self._sign < 0:
            return "-inf"
        return str(self._n)

    def to_json(self) -> Union[int, str]:
        if self._sign > 0:
            return "+inf"
        if self._sign < 0:
            return "-inf"
        return self._n

    @staticmethod
    def from_json(obj: Union[int, str]) -> "ExtInt":
        if obj == "+inf":
            return PLUS_INF
        if obj == "-inf":
            return MINUS_INF
        if isinstance(obj, int) and not isinstance(obj, bool):
            return ExtInt(obj)
        raise ValueError(f"not an extended integer: {obj!r}")


PLUS_INF = ExtInt._infinite(+1)
MINUS_INF = ExtInt._infinite(-1)


def ext_min(values: Iterable[ExtInt]) -> ExtInt:
    """Minimum of extended integers; +inf on empty input."""
    out = PLUS_INF
    for v in values:
        if v < out:
            out = v
    return out


def ext_max(values: Iterable[ExtInt]) -> ExtInt:
    """Maximum of extended integers; -inf on empty input."""
    out = MINUS_INF
    for v in values:
        if v > out:
            out = v
    return out


def minplus_term(a: ExtInt, b: ExtInt) -> ExtInt:
    """Addition under min-plus convolution semantics.

    A ``+inf`` summand absorbs the pair (the term contributes nothing to
    the infimum), even against ``-inf``; this mirrors ``p^inf * K = {0}``.
    """
    if a._sign > 0 or b._sign > 0:
        return PLUS_INF
    if a._sign < 0 or b._sign < 0:
        return MINUS_INF
    return ExtInt(a._n + b._n)


# --------------------------------------------------------------------------
# tails


@dataclass(frozen=True)
class ConstTail:
    value: ExtInt

    def at(self, i: int) -> ExtInt:
        return self.value

    def to_json(self) -> dict:
        return {"kind": "const", "value": self.value.to_json()}


@dataclass(frozen=True)
class AffineTail:
    """Tail whose value at index ``i`` is ``slope*i + offset`` (always finite)."""

    slope: int
    offset: int

    def at(self, i: int) -> ExtInt:
        return ExtInt(self.slope * i + self.offset)

    def to_json(self) -> dict:
        return {"kind": "affine", "slope": self.slope, "offset": self.offset}


Tail = Union[ConstTail, AffineTail]


def tail_from_json(obj: Mapping) -> Tail:
    kind = obj.get("kind")
    if kind == "const":
        return ConstTail(ExtInt.from_json(obj["value"]))
    if kind == "affine":
        return AffineTail(int(obj["slope"]), int(obj["offset"]))
    raise ValueError(f"unknown tail kind: {kind!r}")


def _normalize_tail(t: Tail) -> Tail:
    if isinstance(t, AffineTail) and t.slope == 0:
        return ConstTail(ExtInt(t.offset))
    return t


def _tails_equal(a: Tail, b: Tail) -> bool:
    return _normalize_tail(a) == _normalize_tail(b)


# --------------------------------------------------------------------------
# the sequence type


@dataclass(frozen=True)
class SeqSpec:
    """Finitely presented total map ``Z -> Z u {+inf, -inf}``.

    ``values[j]`` is the value at index ``window_lo + j``; ``left`` applies
    for indices below the window, ``right`` above it.  The window always
    holds at least one entry.
    """

    window_lo: int
    values: tuple[ExtInt, ...]
    left: Tail
    right: Tail

    def __post_init__(self):
        if not self.values:
            raise ValueError("SeqSpec window must hold at least one value")

    @property
    def window_hi(self) -> int:
        return self.window_lo + len(self.values) - 1

    @staticmethod
    def from_window(
        window: Mapping[int, Union[ExtInt, int]], left: Tail, right: Tail
    ) -> "SeqSpec":
        """Build from an index->value mapping; gaps are not allowed.

        An empty mapping denotes a pure-tail sequence with the boundary at
        zero: the right tail covers ``i >= 0`` and the left covers ``i < 0``.
        """
        if not window:
            return SeqSpec(0, (right.at(0),), left, right)
        lo, hi = min(window), max(window)
        vals = []
        for i in range(lo, hi + 1):
            if i not in window:
                raise ValueError(f"window has a gap at index {i}")
            vals.append(ExtInt.of(window[i]))
        return SeqSpec(lo, tuple(vals), left, right)

    @staticmethod
    def constant(value: Union[ExtInt, int]) -> "SeqSpec":
        v = ExtInt.of(value)
        return SeqSpec(0, (v,), ConstTail(v), ConstTail(v))

    @staticmethod
    def delta(
        index: int = 0,
        value: Union[ExtInt, int] = 0,
        fill: Union[ExtInt, int] = PLUS_INF,
    ) -> "SeqSpec":
        f = ExtInt.of(fill)
        return SeqSpec(index, (ExtInt.of(value),), ConstTail(f), ConstTail(f))

    def value_at(self, i: int) -> ExtInt:
        if i < self.window_lo:
            return self.left.at(i)
        if i > self.window_hi:
            return self.right.at(i)
        return self.values[i - self.window_lo]

    def values_on(self, lo: int, hi: int) -> list[ExtInt]:
        return [self.value_at(i) for i in range(lo, hi + 1)]

    def eq_pointwise(self, other: "SeqSpec", lo: int, hi: int) -> bool:
        return all(self.value_at(i) == other.value_at(i) for i in range(lo, hi + 1))

    def window_items(self) -> Iterator[tuple[int, ExtInt]]:
        for j, v in enumerate(self.values):
            yield self.window_lo + j, v

    # -- canonical form -----------------------------------------------------

    def canonical(self) -> "SeqSpec":
        """Unique minimal presentation of the same total map.

        The window is shrunk to ``[lo*, hi*]`` where ``lo*`` is the first
        index whose value differs from the left-tail extension and ``hi*``
        the last differing from the right-tail extension; slope-zero affine
        tails become constants.  Pure-tail maps keep a single-point window.
        """
        left = _normalize_tail(self.left)
        right = _normalize_tail(self.right)

        def first_diff_left() -> int | None:
            for i, v in self.window_items():
                if left.at(i) != v:
                    return i
            # window matches the left extension; first difference, if any,
            # lies where the right tail departs from the left form
            if _tails_equal(left, right):
                return None
            for i in (self.window_hi + 1, self.window_hi + 2):
                if left.at(i) != right.at(i):
                    return i
            return None  # affine forms agreeing twice agree everywhere

        def last_diff_right() -> int | None:
            for i in range(self.window_hi, self.window_lo - 1, -1):
                if right.at(i) != self.value_at(i):
                    return i
            if _tails_equal(left, right):
                return None
            for i in (self.window_lo - 1, self.window_lo - 2):
                if right.at(i) != left.at(i):
                    return i
            return None

        lo_star = first_diff_left()
        hi_star = last_diff_right()
        if lo_star is None or hi_star is None:
            # the map is a single tail form everywhere
            return SeqSpec(0, (left.at(0),), left, left)
        if lo_star > hi_star:
            point = hi_star + 1
            return SeqSpec(point, (self.value_at(point),), left, right)
        vals = tuple(self.value_at(i) for i in range(lo_star, hi_star + 1))
        return SeqSpec(lo_star, vals, left, right)

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "window": {str(i): v.to_json() for i, v in self.window_items()},
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    @staticmethod
    def from_json(obj: Mapping) -> "SeqSpec":
        window = {int(k): ExtInt.from_json(v) for k, v in obj["window"].items()}
        return SeqSpec.from_window(
            window, tail_from_json(obj["left"]), tail_from_json(obj["right"])
        )


# --------------------------------------------------------------------------
# pointwise min / max


def _crossing_floor(a: Tail, b: Tail) -> int | None:
    """Floor of the crossing abscissa of two finite tail forms, if any."""
    sa, oa = _form(a)
    sb, ob = _form(b)
    if sa is None or sb is None or sa == sb:
        return None
    num, den = ob - oa, sa - sb
    # floor division gives floor(num/den) for either sign
    return num // den


def _form(t: Tail) -> tuple[int | None, int]:
    """(slope, offset) for finite forms; (None, +-1) for infinite constants."""
    t = _normalize_tail(t)
    if isinstance(t, AffineTail):
        return t.slope, t.offset
    if t.value.is_finite:
        return 0, t.value.n
    return None, (1 if t.value == PLUS_INF else -1)


def _dominant_tail(a: Tail, b: Tail, want_min: bool, leftward: bool) -> Tail:
    """The tail form equal to min/max(a, b) far out on the given side."""
    sa, oa = _form(a)
    sb, ob = _form(b)
    if sa is None and sb is None:
        if (oa < ob) == want_min:
            return _normalize_tail(a)
        return _normalize_tail(b)
    if sa is None:
        wins = (oa < 0) == want_min  # -inf wins a min, +inf wins a max
        return _normalize_tail(a) if wins else _normalize_tail(b)
    if sb is None:
        wins = (ob < 0) == want_min
        return _normalize_tail(b) if wins else _normalize_tail(a)
    if sa == sb:
        if (oa < ob) == want_min:
            return _normalize_tail(a)
        return _normalize_tail(b)
    # far to the left the larger slope is smaller; to the right the smaller is
    a_small_far = (sa > sb) if leftward else (sa < sb)
    if a_small_far == want_min:
        return _normalize_tail(a)
    return _normalize_tail(b)


def _pointwise(a: SeqSpec, b: SeqSpec, want_min: bool) -> SeqSpec:
    lo = min(a.window_lo, b.window_lo)
    hi = max(a.window_hi, b.window_hi)
    cl = _crossing_floor(a.left, b.left)
    if cl is not None:
        lo = min(lo, cl)
    cr = _crossing_floor(a.right, b.right)
    if cr is not None:
        hi = max(hi, cr + 1)
    pick = min if want_min else max
    vals = tuple(pick(a.value_at(i), b.value_at(i)) for i in range(lo, hi + 1))
    left = _dominant_tail(a.left, b.left, want_min, leftward=True)
    right = _dominant_tail(a.right, b.right, want_min, leftward=False)
    return SeqSpec(lo, vals, left, right)


def pointwise_min(a: SeqSpec, b: SeqSpec) -> SeqSpec:
    """Index-wise minimum; the output window covers all tail crossings."""
    return _pointwise(a, b, want_min=True)


def pointwise_max(a: SeqSpec, b: SeqSpec) -> SeqSpec:
    """Index-wise maximum; the output window covers all tail crossings."""
    return _pointwise(a, b, want_min=False)


# --------------------------------------------------------------------------
# reflection and shift


def _reflect_value(a: int, v: ExtInt) -> ExtInt:
    # a - (+inf) = -inf and a - (-inf) = +inf by saturation
    if v == PLUS_INF:
        return MINUS_INF
    if v == MINUS_INF:
        return PLUS_INF
    return ExtInt(a - v.n)


def _reflect_tail(a: int, t: Tail) -> Tail:
    t = _normalize_tail(t)
    if isinstance(t, ConstTail):
        return ConstTail(_reflect_value(a, t.value))
    # value at i becomes a - (slope*(-i) + offset) = slope*i + (a - offset)
    return AffineTail(t.slope, a - t.offset)


def reflect_affine(s: SeqSpec, a: int) -> SeqSpec:
    """The sequence ``i -> a - s(-i)``; sides and tails swap accordingly."""
    lo, hi = -s.window_hi, -s.window_lo
    vals = tuple(_reflect_value(a, s.value_at(-i)) for i in range(lo, hi + 1))
    return SeqSpec(lo, vals, _reflect_tail(a, s.right), _reflect_tail(a, s.left))


def shift_add(s: SeqSpec, c: int) -> SeqSpec:
    """Add ``c`` to every value (saturating at infinities)."""

    def bump(v: ExtInt) -> ExtInt:
        return v if not v.is_finite else ExtInt(v.n + c)

    def bump_tail(t: Tail) -> Tail:
        t = _normalize_tail(t)
        if isinstance(t, ConstTail):
            return ConstTail(bump(t.value))
        return AffineTail(t.slope, t.offset + c)

    return SeqSpec(
        s.window_lo,
        tuple(bump(v) for v in s.values),
        bump_tail(s.left),
        bump_tail(s.right),
    )


# --------------------------------------------------------------------------
# min-plus convolution
#
# Both operands decompose into finitely many primitive pieces: explicit
# points from the window and one ray per tail.  Every pairwise min-plus of
# two pieces is again a point, a half-line ray (affine or identically -inf),
# or a global -inf; the convolution is the pointwise minimum of those.

@dataclass(frozen=True)
class _Ray:
    # leftward: domain k <= bound; otherwise k >= bound
    leftward: bool
    bound: int
    slope: int
    offset: int
    minf: bool = False


def _ray_pieces(s: SeqSpec) -> tuple[list[tuple[int, ExtInt]], list[_Ray]]:
    points = [(i, v) for i, v in s.window_items() if v != PLUS_INF]
    rays: list[_Ray] = []
    for leftward, tail, bound in (
        (True, _normalize_tail(s.left), s.window_lo - 1),
        (False, _normalize_tail(s.right), s.window_hi + 1),
    ):
        if isinstance(tail, ConstTail):
            if tail.value == PLUS_INF:
                continue
            if tail.value == MINUS_INF:
                rays.append(_Ray(leftward, bound, 0, 0, minf=True))
            else:
                rays.append(_Ray(leftward, bound, 0, tail.value.n))
        else:
            rays.append(_Ray(leftward, bound, tail.slope, tail.offset))
    return points, rays


def _pair_point_ray(i: int, v: ExtInt, r: _Ray) -> _Ray:
    # shift the ray domain by i and its values by v
    if v == MINUS_INF or r.minf:
        return _Ray(r.leftward, r.bound + i, 0, 0, minf=True)
    return _Ray(r.leftward, r.bound + i, r.slope, r.offset + v.n - r.slope * i)


def _pair_ray_ray(ra: _Ray, rb: _Ray) -> tuple[list[_Ray], bool]:
    """Rays produced by convolving two rays; second item flags global -inf."""
    A, B = ra.bound, rb.bound
    if ra.leftward == rb.leftward:
        # index range for i is a bounded interval; the infimum sits at one of
        # its endpoints, so two rays (one per endpoint formula) cover it
        if ra.minf or rb.minf:
            return [_Ray(ra.leftward, A + B, 0, 0, minf=True)], False
        out = []
        for fixed, moving in ((rb, ra), (ra, rb)):
            val0 = fixed.slope * fixed.bound + fixed.offset
            out.append(
                _Ray(
                    ra.leftward,
                    A + B,
                    moving.slope,
                    moving.offset + val0 - moving.slope * fixed.bound,
                )
            )
        return out, False
    # opposite directions: the index range is a half line
    left, right = (ra, rb) if ra.leftward else (rb, ra)
    if left.minf or right.minf:
        return [], True
    # along i + j = k the summand changes with rate (slope_l - slope_r) as the
    # left ray index decreases without bound
    if left.slope > right.slope:
        return [], True
    S = left.bound + right.bound
    val_l = left.slope * left.bound + left.offset
    val_r = right.slope * right.bound + right.offset
    if left.slope == right.slope:
        c = left.offset + right.offset
        return [
            _Ray(True, 0, left.slope, c),
            _Ray(False, 0, left.slope, c),
        ], False
    return [
        _Ray(True, S, left.slope, left.offset + val_r - left.slope * right.bound),
        _Ray(False, S, right.slope, right.offset + val_l - right.slope * left.bound),
    ], False


def _asymptote_winner(
    rays: list[_Ray], leftward: bool
) -> tuple[Tail, list[int]]:
    """Eventual tail among rays unbounded on one side, plus crossing bounds."""
    live = [r for r in rays if r.leftward == leftward]
    if any(r.minf for r in live):
        return ConstTail(MINUS_INF), [r.bound for r in live]
    if not live:
        return ConstTail(PLUS_INF), []
    # per slope only the smallest offset can ever win
    best: dict[int, _Ray] = {}
    for r in live:
        cur = best.get(r.slope)
        if cur is None or r.offset < cur.offset:
            best[r.slope] = r
    reps = list(best.values())
    if leftward:
        win = max(reps, key=lambda r: (r.slope, -r.offset))
    else:
        win = min(reps, key=lambda r: (r.slope, r.offset))
    crossings: list[int] = []
    for r in reps:
        if r is win or r.slope == win.slope:
            continue
        crossings.append((r.offset - win.offset) // (win.slope - r.slope))
    tail: Tail = (
        ConstTail(ExtInt(win.offset)) if win.slope == 0 else AffineTail(win.slope, win.offset)
    )
    return tail, crossings


def _ray_envelope(rays: list[_Ray], lo: int, hi: int) -> list[ExtInt]:
    """For each ``k`` in ``[lo, hi]``, the least value of the rays covering it.

    Sweeping towards the open end of one direction, rays of that direction
    only join, so per slope the least offset so far is all that counts.
    """
    out = [PLUS_INF] * (hi - lo + 1)
    for leftward in (True, False):
        side = sorted((r for r in rays if r.leftward == leftward), key=lambda r: r.bound)
        if not leftward:
            side.reverse()  # the next ray to join is last
        least: dict[int | None, int] = {}  # slope -> offset; None keys -inf rays
        for k in range(hi, lo - 1, -1) if leftward else range(lo, hi + 1):
            while side and (k <= side[-1].bound if leftward else k >= side[-1].bound):
                r = side.pop()
                key = None if r.minf else r.slope
                least[key] = min(least.get(key, r.offset), r.offset)
            if least:
                v = MINUS_INF if None in least else min(s * k + o for s, o in least.items())
                out[k - lo] = min(out[k - lo], ExtInt.of(v))
    return out


def minplus_convolve(a: SeqSpec, b: SeqSpec) -> SeqSpec:
    """Min-plus convolution ``k -> inf over i+j=k of a(i) + b(j)``.

    Pairs containing a ``+inf`` summand are absorbed (they never lower the
    infimum); a genuinely divergent side yields a ``-inf`` tail.
    """
    pts_a, rays_a = _ray_pieces(a)
    pts_b, rays_b = _ray_pieces(b)

    best_points: dict[int, ExtInt] = {}
    for i, v in pts_a:
        for j, w in pts_b:
            s = minplus_term(v, w)
            if i + j not in best_points or s < best_points[i + j]:
                best_points[i + j] = s

    rays: list[_Ray] = []
    for i, v in pts_a:
        rays.extend(_pair_point_ray(i, v, r) for r in rays_b)
    for j, w in pts_b:
        rays.extend(_pair_point_ray(j, w, r) for r in rays_a)
    for ra in rays_a:
        for rb in rays_b:
            new, diverges = _pair_ray_ray(ra, rb)
            if diverges:
                return SeqSpec.constant(MINUS_INF)
            rays.extend(new)

    marks = [r.bound for r in rays] + list(best_points)
    if not marks:
        return SeqSpec.constant(PLUS_INF)
    left, lcross = _asymptote_winner(rays, leftward=True)
    right, rcross = _asymptote_winner(rays, leftward=False)
    lo = min(marks + lcross) - 1
    hi = max(marks + rcross) + 1
    envelope = enumerate(_ray_envelope(rays, lo - 2, hi + 2), lo - 2)
    vals = [min(best_points.get(k, PLUS_INF), e) for k, e in envelope]
    out = SeqSpec(lo, tuple(vals[2:-2]), left, right)
    for k in (lo - 1, lo - 2, hi + 1, hi + 2):  # tail guard
        if out.value_at(k) != vals[k - lo + 2]:
            raise NonRepresentableTail(
                f"convolution tail mismatch at index {k}"
            )
    return out


# --------------------------------------------------------------------------
# global comparisons of two sequences


def _ray_sup_diff(a: SeqSpec, b: SeqSpec, leftward: bool, start: int) -> ExtInt:
    """sup of a(i) - b(i) over the half line beyond ``start`` (exclusive)."""
    fa = _form(a.left if leftward else a.right)
    fb = _form(b.left if leftward else b.right)
    sa, oa = fa
    sb, ob = fb
    if sa is None and oa < 0:
        return MINUS_INF
    if sb is None and ob > 0:
        return MINUS_INF
    if sa is None:  # a = +inf against finite b
        return PLUS_INF
    if sb is None:  # b = -inf against finite a
        return PLUS_INF
    d = sa - sb
    diverges = d < 0 if leftward else d > 0
    if diverges:
        return PLUS_INF
    i = start - 1 if leftward else start + 1
    return ExtInt((sa - sb) * i + (oa - ob))


def _ext_diff(x: ExtInt, y: ExtInt) -> ExtInt:
    """x - y with the conventions suited to sup computations."""
    if x == MINUS_INF or y == PLUS_INF:
        return MINUS_INF
    if x == PLUS_INF or y == MINUS_INF:
        return PLUS_INF
    return ExtInt(x.n - y.n)


def sup_diff(a: SeqSpec, b: SeqSpec) -> ExtInt:
    """``sup over all i of a(i) - b(i)``, computed symbolically.

    Positions where ``a`` is ``-inf`` or ``b`` is ``+inf`` contribute
    nothing; a finite value of ``a`` over ``b = -inf`` diverges to ``+inf``.
    """
    lo = min(a.window_lo, b.window_lo)
    hi = max(a.window_hi, b.window_hi)
    best = ext_max(_ext_diff(a.value_at(i), b.value_at(i)) for i in range(lo, hi + 1))
    best = max(best, _ray_sup_diff(a, b, leftward=True, start=lo))
    best = max(best, _ray_sup_diff(a, b, leftward=False, start=hi))
    return best


def forall_ge(a: SeqSpec, b: SeqSpec) -> bool:
    """Whether ``a(i) >= b(i)`` holds at every index.

    Unlike :func:`sup_diff` this is a plain order comparison, so equal
    infinities on both sides count as satisfied.
    """
    lo = min(a.window_lo, b.window_lo)
    hi = max(a.window_hi, b.window_hi)
    # the extra boundary points sit in pure tail mode on both sides; beyond
    # them the difference of the affine forms is monotone
    if any(a.value_at(i) < b.value_at(i) for i in range(lo - 1, hi + 2)):
        return False
    for leftward in (True, False):
        sa, _ = _form(a.left if leftward else a.right)
        sb, _ = _form(b.left if leftward else b.right)
        if sa is None or sb is None:
            continue  # infinite constant: region already decided at boundary
        d = sa - sb
        if (d > 0 and leftward) or (d < 0 and not leftward):
            return False  # difference runs off to -inf on this side
    return True
