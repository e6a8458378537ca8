"""Extended integers and finitely presented integer sequences.

A :class:`SeqSpec` is a total map ``Z -> Z u {+inf, -inf}`` presented by a
finite window, stored as affine pieces, together with a constant or affine
tail on each side.  Every exponent sequence in the package (seminorm weights,
submodule exponents) is stored in this form, and the class is closed under
the operations needed downstream: pointwise min/max, reflection ``i -> a -
s(-i)``, shifts, and min-plus convolution.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import lru_cache
from heapq import heappop, heappush
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Union

from .errors import NonRepresentableTail, ParseError, UndefinedInfiniteSum

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
    "convolution_frame",
    "sup_diff",
    "sup_diff_on",
    "forall_ge",
    "MAX_INDEX",
]


class ExtInt:
    """An integer extended with ``+inf`` and ``-inf``.

    Total order with ``-inf < n < +inf`` for every finite ``n``.  Addition
    saturates at infinities; the combination ``+inf + -inf`` raises
    :class:`UndefinedInfiniteSum` rather than producing a value.
    """

    __slots__ = ("_sign", "_n")

    def __init__(self, n: int = 0):
        if type(n) is not int:  # also refuses bool, an int subclass
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

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtInt):
            return self._sign == other._sign and self._n == other._n
        if type(other) is int:
            return self._sign == 0 and self._n == other
        if isinstance(other, int):
            ExtInt(other)  # raises TypeError for an int subclass such as bool
        return NotImplemented

    def __hash__(self) -> int:
        # finite values equal their int, so they must hash like it
        return hash(self._n) if self._sign == 0 else hash((self._sign, 0))

    # (sign, n) orders like the extended integers (infinities have n = 0), an int
    # as (0, n); the order is total, so > and >= are the complements of <= and <
    def __lt__(self, other: Union["ExtInt", int]) -> bool:
        if type(other) is int:
            return self._sign < 0 or (self._sign == 0 and self._n < other)
        o = other if isinstance(other, ExtInt) else ExtInt(other)  # raises TypeError
        return self._sign < o._sign or (self._sign == o._sign and self._n < o._n)

    def __le__(self, other: Union["ExtInt", int]) -> bool:
        if type(other) is int:
            return self._sign < 0 or (self._sign == 0 and self._n <= other)
        o = other if isinstance(other, ExtInt) else ExtInt(other)  # raises TypeError
        return self._sign < o._sign or (self._sign == o._sign and self._n <= o._n)

    def __gt__(self, other: Union["ExtInt", int]) -> bool:
        return not self.__le__(other)

    def __ge__(self, other: Union["ExtInt", int]) -> bool:
        return not self.__lt__(other)

    def __add__(self, other: Union["ExtInt", int]) -> "ExtInt":
        other = ExtInt.of(other)
        if self._sign == 0 and other._sign == 0:
            return ExtInt(self._n + other._n)
        if self._sign == 0:
            return other
        if other._sign == 0 or other._sign == self._sign:
            return self
        raise UndefinedInfiniteSum("(+inf) + (-inf) is undefined")

    __radd__ = __add__

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
        return str(self.to_json())

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


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields``, stores them in
    ``__slots__`` and sets them once in its ``__init__``, past the refused
    ``__setattr__``: with ``object.__setattr__``, or, where construction is
    hot (``PAdic``), with the slot descriptors' ``__set__`` bound once at
    module level.  Like a frozen dataclass, an instance equals another of
    the same class with equal fields, hashes its field tuple, prints as
    ``Name(field=value, ...)`` and refuses assignment.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict]) -> None:
        # copy and pickle restore the slots here, past the refused __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


# --------------------------------------------------------------------------
# tails


class ConstTail(Frozen):
    __slots__ = _fields = ("value",)

    def __init__(self, value: ExtInt):
        object.__setattr__(self, "value", value)

    def at(self, i: int) -> ExtInt:
        return self.value

    def limit(self, leftward: bool) -> ExtInt:
        """The limit of the values towards ``-inf`` (``leftward``) or ``+inf``."""
        return self.value

    def to_json(self) -> dict:
        return {"kind": "const", "value": self.value.to_json()}


class AffineTail(Frozen):
    """Tail whose value at index ``i`` is ``slope*i + offset`` (always finite)."""

    __slots__ = _fields = ("slope", "offset")

    def __init__(self, slope: int, offset: int):
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "offset", offset)

    def at(self, i: int) -> ExtInt:
        return ExtInt(self.slope * i + self.offset)

    def limit(self, leftward: bool) -> ExtInt:
        """The limit of the values towards ``-inf`` (``leftward``) or ``+inf``."""
        if self.slope == 0:
            return ExtInt(self.offset)
        return PLUS_INF if (self.slope > 0) != leftward else MINUS_INF

    def to_json(self) -> dict:
        return {"kind": "affine", "slope": self.slope, "offset": self.offset}


Tail = Union[ConstTail, AffineTail]


def tail_from_json(obj: Mapping) -> Tail:
    kind = obj.get("kind")
    if kind == "const":
        return ConstTail(ExtInt.from_json(obj["value"]))
    if kind == "affine":
        return AffineTail(json_int(obj["slope"]), json_int(obj["offset"]))
    raise ValueError(f"unknown tail kind: {kind!r}")


def _point_form(v: ExtInt) -> tuple[int | None, int]:
    return (None, v._sign) if v._sign else (0, v._n)


def _form(t: Tail) -> tuple[int | None, int]:
    """(slope, offset) for finite forms; (None, +-1) for infinite constants."""
    if isinstance(t, AffineTail):
        return t.slope, t.offset
    return _point_form(t.value)


@lru_cache(maxsize=64)
def _tail(slope: int | None, offset: int) -> Tail:
    """The normal tail of a form: the inverse of ``_form``.  Tails are
    immutable, so one instance per form serves every caller."""
    if slope is None:
        return ConstTail(PLUS_INF if offset > 0 else MINUS_INF)
    if slope == 0:
        return ConstTail(ExtInt(offset))
    return AffineTail(slope, offset)


# --------------------------------------------------------------------------
# affine pieces
#
# A window is stored as pieces ``(x, y, slope, offset)`` sorted by ``x``: a
# piece covers ``[x, y]`` with value ``slope*i + offset``, each starts one
# past the end of the one before, and together they tile ``[window_lo,
# window_hi]``.  An infinite constant has slope None and offset +1 or -1,
# the encoding ``_form`` gives tails.  Pieces are greedy: read left to
# right, each runs as far as its line goes, and a lone finite point has
# slope 0.  Equal windows therefore have equal pieces, and every operation
# costs the number of pieces, not of indices.
#
# Operations read and build *fragments* in the same encoding: contiguous
# runs ``[x, y]`` that need not be maximal.  Pieces are fragments, so a
# reader of the whole window iterates ``pieces`` as they are, ``spans``
# clips them to any other range and adds the tails outside the window, and
# ``_normalize`` merges fragments back into pieces.
#
# Tails are transformed through the same form: an operation maps
# ``_form(tail)`` as it maps a piece's ``(slope, offset)``, and ``_tail``
# undoes ``_form``, so a slope-zero affine tail comes back as a constant.


def _at(slope: int | None, offset: int, i: int) -> ExtInt:
    if slope is None:
        return PLUS_INF if offset > 0 else MINUS_INF
    return ExtInt(slope * i + offset)


def _normalize(frags: Iterable[tuple]) -> tuple[tuple[int, int, int | None, int], ...]:
    """The greedy pieces of contiguous fragments."""
    out: list[list] = []
    loose = False  # the last piece is one finite point whose slope is free
    for x, y, s, o in frags:
        while x <= y:
            if out:
                last = out[-1]
                if loose and s is not None:
                    # the next finite point fixes the line of a lone point
                    slope = s * x + o - last[3]
                    last[2], last[3] = slope, last[3] - slope * last[1]
                    loose = False
                if not loose:
                    if last[2] == s and last[3] == o:
                        last[1] = y
                        break
                    if last[2] is not None and s is not None and last[2] * x + last[3] == s * x + o:
                        last[1] = x  # the line takes one point of the fragment
                        x += 1
                        continue
            if x == y and s is not None:
                out.append([x, x, 0, s * x + o])
                loose = True
            else:
                out.append([x, y, s, o])
                loose = False
            break
    return tuple(tuple(p) for p in out)


_START = itemgetter(0)


class _Values(Sequence):
    """Read-only view of a window as one value per index."""

    __slots__ = ("_seq",)

    def __init__(self, seq: "SeqSpec"):
        self._seq = seq

    def __len__(self) -> int:
        return self._seq.window_hi - self._seq.window_lo + 1

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(self[k] for k in range(*j.indices(len(self))))
        n = len(self)
        if j < 0:
            j += n
        if not 0 <= j < n:
            raise IndexError("window index out of range")
        return self._seq.value_at(self._seq.window_lo + j)


# --------------------------------------------------------------------------
# the sequence type


class SeqSpec(Frozen):
    """Finitely presented total map ``Z -> Z u {+inf, -inf}``.

    The window ``[window_lo, window_hi]`` holds at least one index and is
    stored as greedy ``pieces`` ``(x, y, slope, offset)``, the value
    ``slope*i + offset`` on ``x <= i <= y`` (slope None for ``+inf`` at
    offset 1 and ``-inf`` at -1), in the encoding of ``spans``;
    ``values[j]`` reads the value at index ``window_lo + j``.  ``left``
    applies below the window, ``right`` above it.  Two specs are equal when
    their windows, values and tails are.
    """

    __slots__ = _fields = ("window_lo", "window_hi", "pieces", "left", "right")

    def __init__(self, window_lo: int, values: Sequence, left: Tail, right: Tail):
        """Build from the dense window ``values`` starting at ``window_lo``."""
        vals = [ExtInt.of(v) for v in values]
        if not vals:
            raise ValueError("SeqSpec window must hold at least one value")
        pieces = _normalize(
            (window_lo + j, window_lo + j, *_point_form(v)) for j, v in enumerate(vals)
        )
        self._set(window_lo, window_lo + len(vals) - 1, pieces, left, right)

    def _set(self, lo, hi, pieces, left, right) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "window_lo", lo)
        setattr_(self, "window_hi", hi)
        setattr_(self, "pieces", pieces)
        setattr_(self, "left", left)
        setattr_(self, "right", right)

    @classmethod
    def _make(cls, lo: int, hi: int, pieces: tuple, left: Tail, right: Tail) -> "SeqSpec":
        """From greedy pieces covering ``[lo, hi]``."""
        out = object.__new__(cls)
        out._set(lo, hi, pieces, left, right)
        return out

    @property
    def values(self) -> Sequence:
        return _Values(self)

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
        if hi - lo + 1 != len(window):
            gap = next(i for i in range(lo, hi + 1) if i not in window)
            raise ValueError(f"window has a gap at index {gap}")
        return SeqSpec(lo, [window[i] for i in range(lo, hi + 1)], left, right)

    @staticmethod
    def from_points(
        lo: int,
        hi: int,
        points: Iterable[tuple[int, Union[ExtInt, int]]],
        fill: Union[ExtInt, int],
        left: Tail,
        right: Tail,
    ) -> "SeqSpec":
        """The window ``[lo, hi]`` holding ``points`` ``(index, value)``,
        sorted by index, and ``fill`` at every other index: one value, or a
        sequence read there.  The cost follows the number of points and of
        the pieces of ``fill``, not the window length."""
        if isinstance(fill, SeqSpec):
            def gap(x: int, y: int) -> list[tuple]:
                return fill.spans(x, y)
        else:
            form = _point_form(ExtInt.of(fill))

            def gap(x: int, y: int) -> list[tuple]:
                return [(x, y, *form)]
        frags, nxt = [], lo
        for i, v in points:
            if i > nxt:
                frags += gap(nxt, i - 1)
            frags.append((i, i, *_point_form(ExtInt.of(v))))
            nxt = i + 1
        if nxt <= hi:
            frags += gap(nxt, hi)
        return SeqSpec._make(lo, hi, _normalize(frags), left, right)

    @staticmethod
    def from_terms(lo: int, hi: int, terms: Iterable[tuple], left: Tail, right: Tail) -> "SeqSpec":
        """The window ``[lo, hi]`` holding at each index the least of the
        affine ``terms`` ``(k0, k1, slope, offset)`` that cover it (value
        ``slope*i + offset`` on ``k0 <= i <= k1``), ``+inf`` where none
        does.  The cost follows the number of terms, not the window length."""
        return SeqSpec._make(lo, hi, _normalize(_envelope(terms, lo, hi)), left, right)

    @staticmethod
    def constant(value: Union[ExtInt, int]) -> "SeqSpec":
        return SeqSpec.delta(0, value, value)

    @staticmethod
    def delta(
        index: int = 0,
        value: Union[ExtInt, int] = 0,
        fill: Union[ExtInt, int] = PLUS_INF,
    ) -> "SeqSpec":
        f = ExtInt.of(fill)
        return SeqSpec.from_points(index, index, ((index, value),), f, ConstTail(f), ConstTail(f))

    def value_at(self, i: int) -> ExtInt:
        if i < self.window_lo:
            return self.left.at(i)
        if i > self.window_hi:
            return self.right.at(i)
        # (i + 1,) sorts after every piece that starts at or before i
        _, _, slope, offset = self.pieces[bisect_left(self.pieces, (i + 1,)) - 1]
        return _at(slope, offset, i)

    def spans(self, lo: int, hi: int) -> Sequence[tuple]:
        """``(x, y, slope, offset)`` per run of ``[lo, hi]``, tails
        included: the value is ``slope*i + offset`` on ``x <= i <= y``, and
        slope None marks ``+inf`` (offset 1) or ``-inf`` (offset -1).
        Empty when ``lo > hi``; ``pieces`` itself on the window."""
        wlo, whi, ps = self.window_lo, self.window_hi, self.pieces
        if lo == wlo and hi == whi:
            return ps
        if lo > hi:
            return []
        out = []
        if lo < wlo:
            out.append((lo, min(hi, wlo - 1), *_form(self.left)))
        x, y = max(lo, wlo), min(hi, whi)
        if x == wlo and y == whi:
            out += ps
        elif x <= y:
            i = bisect_right(ps, x, key=_START) - 1
            j = bisect_right(ps, y, i, key=_START) - 1  # the pieces met are i..j
            first, last = ps[i], ps[j]
            if i == j:
                out.append((x, y, first[2], first[3]))
            else:
                out.append((x, first[1], first[2], first[3]))
                out += ps[i + 1 : j]
                out.append((last[0], y, last[2], last[3]))
        if hi > whi:
            out.append((max(lo, whi + 1), hi, *_form(self.right)))
        return out

    def first_at_most(self, bound: int, lo: int, hi: int) -> int | None:
        """The least ``i`` in ``[lo, hi]`` with value at most ``bound``,
        None if there is none: one step per run."""
        for x, y, slope, offset in self.spans(lo, hi):
            if slope is None:
                if offset < 0:
                    return x
            elif slope >= 0:
                if slope * x + offset <= bound:
                    return x
            elif slope * y + offset <= bound:
                # slope*i <= bound - offset from the ceiling of the quotient on
                return max(x, -((bound - offset) // -slope))
        return None

    def eq_pointwise(self, other: "SeqSpec", lo: int, hi: int) -> bool:
        """Whether both take the same value at every index of ``[lo,
        hi]``: on each run where both keep one form, two lines that agree
        at both ends agree throughout."""
        return all(
            _same_at(sa, oa, sb, ob, x) and _same_at(sa, oa, sb, ob, y)
            for x, y, sa, oa, sb, ob in _overlay(self, other, lo, hi)
        )

    def runs(self) -> Iterator[tuple[int, int, ExtInt]]:
        """``(start, end, value at start)`` per piece of the window.

        Each run is affine, so an infinite value fills its whole run.
        """
        for x, y, slope, offset in self.pieces:
            yield x, y, _at(slope, offset, x)

    def window_items(self) -> Iterator[tuple[int, ExtInt]]:
        for x, y, slope, offset in self.pieces:
            for i in range(x, y + 1):
                yield i, _at(slope, offset, i)

    # -- canonical form -----------------------------------------------------

    def canonical(self) -> "SeqSpec":
        """Unique minimal presentation of the same total map.

        The window is shrunk to ``[lo*, hi*]`` where ``lo*`` is the first
        index whose value differs from the left-tail extension and ``hi*``
        the last differing from the right-tail extension; slope-zero affine
        tails become constants.  Pure-tail maps keep a single-point window.
        """
        lform, rform = _form(self.left), _form(self.right)
        left, right = _tail(*lform), _tail(*rform)
        # two indices of each tail: where the other tail leaves this one's form
        spans = self.spans(self.window_lo - 2, self.window_hi + 2)
        lo_star = _departure(spans, lform, 1)
        hi_star = _departure(reversed(spans), rform, -1)
        if lo_star is None or hi_star is None:
            # the map is a single tail form everywhere
            return SeqSpec._make(0, 0, ((0, 0, *_point_form(left.at(0))),), left, left)
        if lo_star > hi_star:
            point = hi_star + 1
            piece = (point, point, *_point_form(self.value_at(point)))
            return SeqSpec._make(point, point, (piece,), left, right)
        pieces = _normalize(self.spans(lo_star, hi_star))
        return SeqSpec._make(lo_star, hi_star, pieces, left, right)

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "window": {str(i): v.to_json() for i, v in self.window_items()},
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    @staticmethod
    def from_json(obj: Mapping) -> "SeqSpec":
        window = json_parse(
            obj, "window", lambda w: {json_index(k): ExtInt.from_json(v) for k, v in w.items()}
        )
        left = json_parse(obj, "left", tail_from_json)
        right = json_parse(obj, "right", tail_from_json)
        try:
            return SeqSpec.from_window(window, left, right)
        except ValueError as exc:
            raise ParseError(f"bad key 'window': {exc}") from None


def json_key(obj, key: str):
    """``obj[key]`` of a JSON object; ParseError names a missing key."""
    if not isinstance(obj, Mapping):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ParseError(f"missing key {key!r}")
    return obj[key]


def json_int(value) -> int:
    """``value`` if it is a JSON integer; ValueError otherwise.

    ``int`` would truncate a float, read a string digit by digit and
    overflow on infinity; a bool is not an integer here either.
    """
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {type(value).__name__}")
    return value


def json_index(key: str) -> int:
    """The index a JSON object key writes as ``str(i)``; ValueError otherwise.

    ``int`` would also read ``"03"``, ``"+3"``, ``" 3"``, ``"1_0"`` and ``"٣"``,
    so two keys could name one index.
    """
    if key.isascii() and key == str(i := int(key)):
        return i
    raise ValueError(f"{key!r} is not an index")


# the largest index magnitude read from input (literals, series JSON, CLI
# flags); the constructors take any index
MAX_INDEX = 10_000


def check_index(i: int, what: str = "index") -> int:
    """``i`` when ``|i| <= MAX_INDEX``; ParseError naming ``what`` otherwise."""
    if -MAX_INDEX <= i <= MAX_INDEX:
        return i
    raise ParseError(f"{what} {i} is not in [-{MAX_INDEX}, {MAX_INDEX}]")


def json_parse(obj, key: str, parse):
    """``parse(obj[key])``; ParseError names the key of a bad value."""
    value = json_key(obj, key)
    try:
        return parse(value)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad key {key!r}: {exc!s}") from None


def _same_at(s: int | None, o: int, t: int | None, p: int, i: int) -> bool:
    """Whether forms ``(s, o)`` and ``(t, p)`` take the same value at ``i``."""
    if s is None or t is None:
        return s == t and o == p
    return s * i + o == t * i + p


def _departure(frags: Iterable[tuple], form: tuple, step: int) -> int | None:
    """The first index, walking ``frags`` in order (rightwards for ``step``
    1, leftwards for -1), whose value leaves ``form``; None if none does."""
    for x, y, s, o in frags:
        if (s, o) != form:
            i = x if step > 0 else y
            # distinct lines agree at one index at most
            if not _same_at(s, o, *form, i):
                return i
            if x < y:
                return i + step
    return None


def _overlay(a: SeqSpec, b: SeqSpec, lo: int, hi: int) -> Iterator[tuple]:
    """``(x, y, sa, oa, sb, ob)``: runs of ``[lo, hi]`` on which both ``a``
    and ``b`` keep one form."""
    fa, fb = a.spans(lo, hi), b.spans(lo, hi)
    i = j = 0
    x = lo
    while x <= hi:
        _, ya, sa, oa = fa[i]
        _, yb, sb, ob = fb[j]
        y = min(ya, yb)
        yield x, y, sa, oa, sb, ob
        i += ya == y
        j += yb == y
        x = y + 1


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


def _pointwise(a: SeqSpec, b: SeqSpec, want_min: bool) -> SeqSpec:
    lo = min(a.window_lo, b.window_lo)
    hi = max(a.window_hi, b.window_hi)
    cl = _crossing_floor(a.left, b.left)
    if cl is not None:
        lo = min(lo, cl)
    cr = _crossing_floor(a.right, b.right)
    if cr is not None:
        hi = max(hi, cr + 1)
    frags = []
    for x, y, sa, oa, sb, ob in _overlay(a, b, lo, hi):
        if sa is None or sb is None or sa == sb:  # forms that do not cross
            if (_sup_on(sa, oa, sb, ob, x, y) <= 0) == want_min:
                frags.append((x, y, sa, oa))
            else:
                frags.append((x, y, sb, ob))
            continue
        if sa < sb:
            sa, oa, sb, ob = sb, ob, sa, oa
        # now a <= b exactly at the indices up to c
        c = (ob - oa) // (sa - sb)
        first, second = ((sa, oa), (sb, ob)) if want_min else ((sb, ob), (sa, oa))
        if x <= c:
            frags.append((x, min(c, y), *first))
        if c < y:
            frags.append((max(x, c + 1), y, *second))
    # past the crossings the tails no longer swap, so one index tells
    left = a.left if (a.left.at(lo - 1) < b.left.at(lo - 1)) == want_min else b.left
    right = a.right if (a.right.at(hi + 1) < b.right.at(hi + 1)) == want_min else b.right
    return SeqSpec._make(lo, hi, _normalize(frags), _tail(*_form(left)), _tail(*_form(right)))


def pointwise_min(a: SeqSpec, b: SeqSpec) -> SeqSpec:
    """Index-wise minimum; the output window covers all tail crossings."""
    return _pointwise(a, b, want_min=True)


def pointwise_max(a: SeqSpec, b: SeqSpec) -> SeqSpec:
    """Index-wise maximum; the output window covers all tail crossings."""
    return _pointwise(a, b, want_min=False)


# --------------------------------------------------------------------------
# reflection and shift


def reflect_affine(s: SeqSpec, a: int) -> SeqSpec:
    """The sequence ``i -> a - s(-i)``; sides and tails swap accordingly."""
    frags = [
        (-y, -x, slope, -offset if slope is None else a - offset)
        for x, y, slope, offset in reversed(s.pieces)
    ]
    left, right = [
        _tail(slope, -offset if slope is None else a - offset)
        for slope, offset in (_form(s.right), _form(s.left))
    ]
    return SeqSpec._make(-s.window_hi, -s.window_lo, _normalize(frags), left, right)


def shift_add(s: SeqSpec, c: int) -> SeqSpec:
    """Add ``c`` to every value (saturating at infinities)."""
    # adding a constant keeps every line, so the pieces stay greedy
    pieces = tuple(
        (x, y, slope, offset if slope is None else offset + c)
        for x, y, slope, offset in s.pieces
    )
    left, right = [
        _tail(slope, offset if slope is None else offset + c)
        for slope, offset in (_form(s.left), _form(s.right))
    ]
    return SeqSpec._make(s.window_lo, s.window_hi, pieces, left, right)


# --------------------------------------------------------------------------
# min-plus convolution
#
# The infimum of a(i) + b(k - i) over a pair of affine fragments is linear
# in i, so it sits at the end of the feasible i that the slopes favour:
# ``run_pair`` gives it exactly as at most two affine terms in k.  The
# fragments of a factor are its window runs (``+inf`` runs left out) and its
# tail rays, fragments ``(x, y, slope, offset)`` with one open end: ``x =
# -inf`` for a leftward ray and ``y = inf`` for a rightward one, ``-inf``
# values as ``(None, -1)``, as in pieces.  ``run_pair`` adds open ends
# (``inf + int`` stays ``inf``) and never multiplies one, so one rule covers
# run + run, run + ray and ray + ray.  A leftward ray against a rightward
# one leaves i unbounded below: the pair is ``-inf`` at every k if either
# ray is ``-inf`` or the leftward slope is the greater, and one line if the
# slopes are equal.  The convolution is the pointwise minimum of the terms
# of every pair of fragments, none clipped: the envelope reads them on the
# output window only.  A pair of single-index runs is one value at one k:
# ``minplus_convolve`` folds these into the least per k (``-inf``
# absorbing), one point term each, so windows of isolated points cost their
# distinct sums in the sweep.  The window is the lower envelope of the
# terms, swept from one term boundary to the next, so its cost follows the
# runs, not the indices.
#
# The window ends and tails come first, from ``_frame``.  The run + ray
# terms come in families, one per ray of the other factor: a family shares
# that ray's direction and slope, and its members differ only in bound and
# offset.  ``_frame`` reads each family as one summary ray with the least
# offset (``_family``), as the eventual tail reads only the least offset per
# slope and the tail guard holds past every bound, where all members apply.
# The least ``v - slope*i`` along a linear run sits at one of its ends, and
# the family's first and last bound stand for its members among the window
# marks, so the frame reads the two ends of each run: only the few ray pairs
# go through ``run_pair``, as a family read through it would pay one call
# per run on every mixed ``mul``.  A divergent or all-``+inf`` convolution
# has a one-index frame, which ``minplus_convolve`` returns before it pairs
# any run; every other frame spans at least three indices.  The inputs are a
# few runs and rays, so Python objects set the cost: runs and rays are plain
# tuples read by index, in plain loops.


def run_pair(a: tuple, b: tuple) -> list[tuple]:
    """The least ``a(i) + b(k - i)`` of two affine fragments ``(x, y,
    slope, offset)``, runs or rays with one open end, as affine terms ``(k0,
    k1, slope, offset)`` in ``k``: linear in ``i``, it sits at the end of
    the feasible ``i`` that the slopes favour.  A ``-inf`` fragment (slope
    None) gives one ``-inf`` term over every ``k`` of the pair, and so does
    a leftward ray against a rightward one of smaller slope; neither
    fragment may be ``+inf``.  The first term of two rays has the sum of
    their bounds as its finite end."""
    x1, y1, s1, o1 = a
    x2, y2, s2, o2 = b
    if s1 is None or s2 is None:
        return [(x1 + x2, y1 + y2, None, -1)]
    # the pair is symmetric in a and b; a leftward ray of equal slope goes
    # second, so that x1 = -inf against y2 = inf only where the sum diverges
    if s1 < s2 or s1 == s2 and x1 == -math.inf:
        x1, y1, s1, o1, x2, y2, s2, o2 = x2, y2, s2, o2, x1, y1, s1, o1
    # s1 >= s2: the least i is max(x1, k - y2), so i = x1, then j = y2
    if x1 == -math.inf == -y2:  # i is unbounded below, and the sum falls with it
        return [(-math.inf, math.inf, None, -1)]
    out = [(x1 + x2, x1 + y2, s2, (s1 - s2) * x1 + o1 + o2)] if x1 != -math.inf else []
    if x1 < y1 and y2 != math.inf:
        out.append((x1 + y2 + 1, y1 + y2, s1, o1 + o2 - (s1 - s2) * y2))
    return out


def _tail_rays(s: SeqSpec) -> list[tuple]:
    """The tails of ``s`` as fragments open at their far end, ``+inf`` left
    out as in ``_window_runs``."""
    tails = ((-math.inf, s.window_lo - 1, *_form(s.left)),
             (s.window_hi + 1, math.inf, *_form(s.right)))
    return [r for r in tails if r[2] is not None or r[3] < 0]


def _window_runs(s: SeqSpec) -> list[tuple]:
    """The pieces of the window, ``+inf`` left out."""
    return [r for r in s.pieces if r[2] is not None or r[3] < 0]


def _asymptote_winner(
    rays: list[tuple], leftward: bool
) -> tuple[Tail, list[int]]:
    """Eventual tail among rays unbounded on one side, plus crossing bounds."""
    best: dict[int | None, int] = {}  # per slope only the smallest offset can ever win
    for x, y, s, o in rays:
        if (x == -math.inf) == leftward and (s not in best or o < best[s]):
            best[s] = o
    if None in best:  # -inf wins, and every bound on this side is a crossing
        bounds = [r[1] if leftward else r[0] for r in rays if (r[0] == -math.inf) == leftward]
        return ConstTail(MINUS_INF), bounds
    if not best:
        return ConstTail(PLUS_INF), []
    ws = max(best) if leftward else min(best)
    wo = best[ws]
    crossings = [(o - wo) // (ws - s) for s, o in best.items() if s != ws]
    return _tail(ws, wo), crossings


def _family(runs: list, r: tuple) -> tuple:
    """The summary of the rays of the window ``runs`` (in index order)
    against ray ``r``: the ray's direction and slope with the least offset
    of its members, read at the end of each run that the slopes favour,
    ``-inf`` if any member is, bounded at the family's first mark."""
    x, y, slope, offset = r
    first = runs[0][0]
    least = math.inf
    for a, b, s, o in runs:
        if slope is None or s is None:
            return x + first, y + first, None, -1
        v = (s - slope) * (a if s >= slope else b) + o
        if v < least:
            least = v
    return x + first, y + first, slope, offset + least


def _frame(runs_a: list, rays_a: list, runs_b: list, rays_b: list) -> tuple[int, int, Tail, Tail]:
    """``(window_lo, window_hi, left, right)`` of the convolution of two
    sequences given by their window runs (see ``_window_runs``) and tail
    rays.

    The window runs from one below the least mark to one above the greatest:
    the marks are the sums of the first and of the last window indices, the
    first and last bound of each ray family, the sum of the bounds of each
    ray pair and the crossings of the eventual tail with the other rays.
    Past the window only rays apply, every member of each family among them,
    so the tails are checked against the terms of the ray pairs and the
    family summaries at two indices on each side; a mismatch raises
    ``NonRepresentableTail``.  As every crossing with the eventual tail is a
    mark, the check holds for every input; it guards that invariant for
    ``minplus_convolve`` and ``mul`` alike.  A convolution that is ``-inf``
    or ``+inf`` everywhere has the one-index frame ``(0, 0, c, c)``.
    """
    reach: list[tuple] = []
    marks: list[int] = []
    if runs_a and runs_b:
        marks += [runs_a[0][0] + runs_b[0][0], runs_a[-1][1] + runs_b[-1][1]]
    for runs, others in ((runs_a, rays_b), (runs_b, rays_a)):
        if runs:
            first, last = runs[0][0], runs[-1][1]
            for r in others:
                reach.append(_family(runs, r))
                bound = r[1] if r[0] == -math.inf else r[0]
                marks += [bound + first, bound + last]
    for ra in rays_a:
        for rb in rays_b:
            terms = run_pair(ra, rb)
            k0, k1 = terms[0][:2]
            if k0 == -math.inf == -k1:  # -inf at every k
                return 0, 0, ConstTail(MINUS_INF), ConstTail(MINUS_INF)
            reach += terms
            marks.append(k1 if k0 == -math.inf else k0)  # the sum of the two bounds
    if not marks:
        return 0, 0, ConstTail(PLUS_INF), ConstTail(PLUS_INF)
    left, lcross = _asymptote_winner(reach, leftward=True)
    right, rcross = _asymptote_winner(reach, leftward=False)
    lo = min(marks + lcross) - 1
    hi = max(marks + rcross) + 1
    for tail, leftward, ks in ((left, True, (lo - 1, lo - 2)), (right, False, (hi + 1, hi + 2))):
        side = [r for r in reach if (r[0] == -math.inf) == leftward]
        ts, to = _form(tail)
        for k in ks:
            # the least ray and the tail at k, +-inf as floats
            want = math.inf
            for r in side:
                if r[2] is None:
                    want = -math.inf
                    break
                if r[2] * k + r[3] < want:
                    want = r[2] * k + r[3]
            if (to * math.inf if ts is None else ts * k + to) != want:
                raise NonRepresentableTail(f"convolution tail mismatch at index {k}")
    return lo, hi, left, right


def convolution_frame(a: SeqSpec, b: SeqSpec) -> tuple[int, int, Tail, Tail]:
    """``(window_lo, window_hi, left, right)`` of ``minplus_convolve(a, b)``,
    and the same ``NonRepresentableTail``, at the cost of the runs and tails
    of ``a`` and ``b`` rather than of their pairs."""
    return _frame(_window_runs(a), _tail_rays(a), _window_runs(b), _tail_rays(b))


def _lines_min(lines: list[tuple], x: int, y: int, out: list) -> None:
    """Append the fragments of the least of ``lines`` (distinct slopes) on
    ``[x, y]``: going right, a line gives way to one of smaller slope."""
    k = x
    while k <= y:
        s, o = lines[0]
        v = s * k + o
        for s2, o2 in lines:
            v2 = s2 * k + o2
            if v2 < v or v2 == v and s2 < s:
                s, o, v = s2, o2, v2
        nxt = y + 1
        for s2, o2 in lines:
            if s2 < s:
                c = (o2 - o) // (s - s2) + 1
                if c < nxt:
                    nxt = c
        out.append((k, nxt - 1, s, o))
        k = nxt


def _envelope(terms: list[tuple], lo: int, hi: int) -> list[tuple]:
    """Fragments of the least of the terms ``(k0, k1, slope, offset)`` on
    ``[lo, hi]``, ``+inf`` where none applies.  Per slope a heap keeps the
    least offset of the terms that cover the current run."""
    terms = sorted([t for t in terms if t[0] <= hi and t[1] >= lo], key=_START)
    heaps: dict[int | None, list] = {}
    ends: list[int] = []
    out: list[tuple] = []
    n, t, x = len(terms), 0, lo
    while x <= hi:
        y = hi
        while t < n:
            k0, k1, s, o = terms[t]
            if k0 > x:
                y = k0 - 1  # k0 <= hi = y, as the terms past hi were dropped
                break
            heappush(heaps.setdefault(s, []), (o, k1))
            heappush(ends, k1)
            t += 1
        while ends and ends[0] < x:
            heappop(ends)
        if ends and ends[0] < y:
            y = ends[0]
        lines = []
        for s, heap in heaps.items():
            while heap and heap[0][1] < x:
                heappop(heap)
            if heap:
                lines.append((s, heap[0][0]))
        if not lines:
            out.append((x, y, None, 1))
        elif heaps.get(None):
            out.append((x, y, None, -1))
        elif len(lines) == 1:
            out.append((x, y, *lines[0]))
        else:
            _lines_min(lines, x, y, out)
        x = y + 1
    return out


def minplus_convolve(a: SeqSpec, b: SeqSpec) -> SeqSpec:
    """Min-plus convolution ``k -> inf over i+j=k of a(i) + b(j)``.

    Pairs containing a ``+inf`` summand are absorbed (they never lower the
    infimum); a genuinely divergent side yields a ``-inf`` tail.
    """
    runs_a, runs_b = _window_runs(a), _window_runs(b)
    rays_a, rays_b = _tail_rays(a), _tail_rays(b)
    lo, hi, left, right = _frame(runs_a, rays_a, runs_b, rays_b)
    if lo == hi:
        return SeqSpec.constant(left.value)
    terms: list[tuple] = []
    least: dict[int, int | float] = {}  # k -> the least point pair, -inf absorbing
    others = runs_b + rays_b
    for run in runs_a + rays_a:
        x1, y1, s1, o1 = run
        for other in others:
            x2, y2, s2, o2 = other
            if x1 == y1 and x2 == y2:
                k = x1 + x2
                v = -math.inf if s1 is None or s2 is None else s1 * x1 + o1 + s2 * x2 + o2
                if v < least.get(k, math.inf):
                    least[k] = v
            else:
                terms += run_pair(run, other)
    for k, v in least.items():
        terms.append((k, k, 0, v) if v != -math.inf else (k, k, None, -1))
    return SeqSpec.from_terms(lo, hi, terms, left, right)


# --------------------------------------------------------------------------
# global comparisons of two sequences


def _sup_on(sa: int | None, oa: int, sb: int | None, ob: int, x, y) -> int | float:
    """sup of ``a(i) - b(i)`` over ``x <= i <= y`` for forms ``(sa, oa)`` of
    ``a`` and ``(sb, ob)`` of ``b``, ``math.inf`` and ``-math.inf`` for the
    infinities; ``x`` may be ``-math.inf`` and ``y`` ``math.inf``."""
    if (sa is None and oa < 0) or (sb is None and ob > 0):
        return -math.inf
    if sa is None or sb is None:
        return math.inf
    # a linear difference peaks at an end of its run
    d = sa - sb
    if (d > 0 and y == math.inf) or (d < 0 and x == -math.inf):
        return math.inf  # decided before any sum: ``oa`` need not fit a float
    return (d * y if d > 0 else d * x if d < 0 else 0) + oa - ob


def _run_sups(a: SeqSpec, b: SeqSpec, lo: int, hi: int, rays: bool) -> Iterator[int | float]:
    """sup of ``a(i) - b(i)`` on each run of ``[lo, hi]`` on which both keep
    one form, then, with ``rays``, on the half lines below ``lo`` and above
    ``hi``, where only the tails apply."""
    for x, y, sa, oa, sb, ob in _overlay(a, b, lo, hi):
        yield _sup_on(sa, oa, sb, ob, x, y)
    if rays:
        yield _sup_on(*_form(a.left), *_form(b.left), -math.inf, lo - 1)
        yield _sup_on(*_form(a.right), *_form(b.right), hi + 1, math.inf)


def _ext(v: int | float) -> ExtInt:
    return PLUS_INF if v == math.inf else MINUS_INF if v == -math.inf else ExtInt(v)


def sup_diff_on(a: SeqSpec, b: SeqSpec, lo: int, hi: int) -> ExtInt:
    """``sup over lo <= i <= hi of a(i) - b(i)``, one step per run on which
    both keep one form; ``-inf`` on an empty range.  Drops and divergence
    follow :func:`sup_diff`."""
    return _ext(max(_run_sups(a, b, lo, hi, rays=False), default=-math.inf))


def sup_diff(a: SeqSpec, b: SeqSpec) -> ExtInt:
    """``sup over all i of a(i) - b(i)``, computed symbolically.

    Positions where ``a`` is ``-inf`` or ``b`` is ``+inf`` contribute
    nothing; a finite value of ``a`` over ``b = -inf`` diverges to ``+inf``.
    """
    lo = min(a.window_lo, b.window_lo)
    hi = max(a.window_hi, b.window_hi)
    return _ext(max(_run_sups(a, b, lo, hi, rays=True)))


def forall_ge(a: SeqSpec, b: SeqSpec) -> bool:
    """Whether ``a(i) >= b(i)`` holds at every index, that is ``sup_diff(b,
    a) <= 0``: equal infinities on both sides count as satisfied.  Stops at
    the first run that fails."""
    lo = min(a.window_lo, b.window_lo)
    hi = max(a.window_hi, b.window_hi)
    return all(s <= 0 for s in _run_sups(b, a, lo, hi, rays=True))
