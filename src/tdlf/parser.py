"""Literal grammar for series and coefficient expressions.

The accepted grammar (documented in full in docs/grammar.md):

    series  := term (('+'|'-') term)* tailmark?
    term    := coeff ('*'? tpow)? ('/' cfactor)*
             | tpow ('/' cfactor)*
    tpow    := 't' ('^' sint)?
    coeff   := cfactor (('*'|'/') cfactor)*
    cfactor := uint | 'p' ('^' sint)?
    tailmark:= 'O' '(' 't' '^' sint ')'
             | 'tail' '(' bounds ')'
    bounds  := 'v' '>=' sint (',' 'left' ':' sint ',' sint)?
             | 'left' ':' sint ',' sint

A division by a plain integer is legal only when the prime does not divide
it; negative powers of p express the rest.  An ``O(t^N)`` mark makes the
series a Laurent series truncated at N; otherwise the literal is an element
of the doubly infinite field (optionally with ``tail`` guarantees).

Coefficients are read as exact triples ``(num, den, e)``, meaning
``num/den * p^e`` with ``p`` not dividing ``den``: ``p^k`` is ``(1, 1, k)``,
so the cost of a literal does not depend on the size of its ``p`` exponents.
"""

from __future__ import annotations

import re
from .errors import ParseError
from .padic import DEFAULT_RELATIVE_PRECISION, PAdic, check_precision, check_prime, fraction_sum
from .seqspec import check_index
from .series import (
    EqualCharSeries,
    LeftValBound,
    MixedSeries,
    RightValBound,
    Series,
    ZeroTail,
)

__all__ = ["parse_series", "render_series", "MAX_NUMERAL_DIGITS"]

# the longest numeral read: CPython's default limit for int() of a string
MAX_NUMERAL_DIGITS = 4300


# One findall per literal gives ``(blanks, numeral, word, punctuation, bad)``
# matches that cover the text, the last one empty, so a position is worked
# out from them, and only for an error.  ``bad`` runs from a character no
# token starts with, or an over-long numeral, to the end: it can only be the
# match before the last.  Only ASCII digits and letters are read: not '²'
# (no int) or '٣' (int reads it as 3).  `\s` is exactly `str.isspace`, and
# every character is one column.
_TOKEN = re.compile(
    rf"(\s*)(?:([0-9]{{1,{MAX_NUMERAL_DIGITS}}})(?![0-9])|([A-Za-z]+)|(>=|[-+*/^(),:])"
    r"|(\S[\s\S]*))?"
)


class _Parser:
    """Recursive descent over the matches of ``_TOKEN``; ``tok`` is the next
    one, read by its texts: ``tok[1]`` a numeral, ``tok[2]`` a word and
    ``tok[3]`` punctuation, all three empty at the end of the input."""

    def __init__(self, text: str, prime: int):
        self.text = text
        self.tokens = tokens = _TOKEN.findall(text)
        self.pos = 0
        self.tok = tokens[0]
        self.prime = prime
        bad = tokens[-2][4] if len(tokens) > 1 else ""
        if bad:
            message = (f"numeral longer than {MAX_NUMERAL_DIGITS} digits" if "0" <= bad[0] <= "9"
                       else f"unexpected character {bad[0]!r}")
            raise self.fail(message, len(tokens) - 2)

    def where(self, pos: int) -> tuple[int, int]:
        """The line and column of token ``pos``."""
        offset = sum(len("".join(tok)) for tok in self.tokens[:pos]) + len(self.tokens[pos][0])
        return self.text.count("\n", 0, offset) + 1, offset - self.text.rfind("\n", 0, offset) - 1

    def fail(self, message: str, pos: int | None = None) -> ParseError:
        return ParseError(message, *self.where(self.pos if pos is None else pos))

    def next(self) -> tuple:
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def expect(self, punct: str) -> None:
        if self.tok[3] != punct:
            raise self.fail(f"expected '{punct}'")
        self.next()

    def index(self) -> int:
        """A signed integer that is an exponent of ``t``."""
        pos = self.pos
        n = self.signed_int()
        try:
            return check_index(n)
        except ParseError as exc:
            raise self.fail(exc.message, pos) from None

    def signed_int(self) -> int:
        sign = self.tok[3]
        if sign in ("-", "+"):
            self.next()
        num = self.tok[1]
        if not num:
            raise self.fail("expected an integer")
        self.next()
        return -int(num) if sign == "-" else int(num)

    # -- factors: (num, den, e) stands for num/den * p^e ----------------------

    def cfactor(self) -> tuple[int, int, int]:
        _, num, word, _, _ = self.tok
        if num:
            self.next()
            return int(num), 1, 0
        if word == "p":
            self.next()
            if self.tok[3] != "^":
                return 1, 1, 1
            self.next()
            return 1, 1, self.signed_int()
        raise self.fail("expected an integer or a power of p")

    def divide(self, num: int, den: int, e: int) -> tuple[int, int, int]:
        pos = self.pos
        n, _, k = self.cfactor()
        if not self.tokens[pos][1]:
            return num, den, e - k
        if n == 0:
            raise self.fail("division by zero", pos)
        if n % self.prime == 0:
            raise self.fail("denominator divisible by p; use a negative power of p", pos)
        return num, den * n, e

    def tpow(self) -> int:
        self.next()  # 't'
        if self.tok[3] == "^":
            self.next()
            return self.index()
        return 1

    # -- terms ---------------------------------------------------------------

    def term(self) -> tuple[tuple[int, int, int], int]:
        """One summand: (coefficient triple, exponent of t)."""
        coeff, texp = (1, 1, 0), 0
        if self.tok[2] == "t":
            texp = self.tpow()
        else:
            coeff = self.cfactor()
            while self.tok[3] in ("*", "/"):
                op = self.next()[3]
                if self.tok[2] == "t":
                    if op == "/":
                        raise self.fail("cannot divide by t; use t^-k")
                    texp = self.tpow()
                    break
                if op == "*":
                    a, b, k = self.cfactor()
                    coeff = (coeff[0] * a, coeff[1] * b, coeff[2] + k)
                else:
                    coeff = self.divide(*coeff)
            else:
                if self.tok[2] == "t":
                    texp = self.tpow()
        while self.tok[3] == "/":
            self.next()
            coeff = self.divide(*coeff)
        return coeff, texp

    # -- tail marks -----------------------------------------------------------

    def tail_mark(self):
        word = self.next()[2]  # 'O' or 'tail'
        self.expect("(")
        if word == "O":
            if self.tok[2] != "t":
                raise self.fail("expected t")
            self.next()
            self.expect("^")
            n = self.index()
            self.expect(")")
            return ("trunc", n)
        floor = left = None
        if self.tok[2] == "v":
            self.next()
            self.expect(">=")
            floor = self.signed_int()
            if self.tok[3] == ",":
                self.next()
                left = self._left_bound()
        elif self.tok[2] == "left":
            left = self._left_bound()
        else:
            raise self.fail("expected 'v >= ...' or 'left: slope, base'")
        self.expect(")")
        return ("tail", floor, left)

    def _left_bound(self) -> tuple[int, int]:
        if self.tok[2] != "left":
            raise self.fail("expected 'left'")
        self.next()
        self.expect(":")
        slope = self.signed_int()
        self.expect(",")
        return slope, self.signed_int()

    # -- top level ---------------------------------------------------------------

    def series(self) -> tuple[dict[int, list], object]:
        """The signed coefficient triples of each exponent of t, and the mark."""
        terms: dict[int, list] = {}
        negate = self.tok[3] == "-"
        if negate:
            self.next()
        mark = None
        while True:
            if self.tok[2] in ("O", "tail"):
                mark = self.tail_mark()
                break
            (num, den, e), texp = self.term()
            terms.setdefault(texp, []).append((-num if negate else num, den, e))
            sign = self.tok[3]
            if sign not in ("+", "-"):
                break
            self.next()
            negate = sign == "-"
        if any(self.tok[1:]):
            raise self.fail("expected end of input")
        return terms, mark


def parse_series(
    text: str,
    prime: int,
    field: str | None = None,
    rel_precision: int = DEFAULT_RELATIVE_PRECISION,
) -> Series:
    """Parse a series literal.

    An ``O(t^N)`` mark (or ``field='equal'``) yields a Laurent series;
    everything else yields an element of the doubly infinite field.
    A ``text`` that is not a ``str``, a ``prime`` or ``rel_precision`` that
    is not an ``int`` (``bool`` included), a composite ``prime``, or one at
    or above ``PRIME_LIMIT``, a relative precision outside
    ``[1, MAX_RELATIVE_PRECISION]``, a ``field`` other than ``None``,
    ``'equal'`` and ``'mixed'``, a numeral longer than ``MAX_NUMERAL_DIGITS``
    and an exponent of ``t`` beyond ``MAX_INDEX`` in magnitude raise
    :class:`ParseError`.
    """
    if not isinstance(text, str):
        raise ParseError(f"a literal is a str, not {type(text).__name__}")
    check_prime(prime)
    check_precision(rel_precision)
    if field not in (None, "equal", "mixed"):
        raise ParseError(f"field {field!r} is not 'equal' or 'mixed'")
    terms, mark = _Parser(text, prime).series()
    coeffs = {i: c for i, ts in terms.items()
              if (c := fraction_sum(ts, prime, rel_precision)) is not None}
    if mark is not None and mark[0] == "trunc":
        if field == "mixed":
            raise ParseError("O(t^N) marks a Laurent series, not a mixed one")
        kept = {i: c for i, c in coeffs.items() if i < mark[1]}
        return EqualCharSeries.from_coeffs(prime, kept, trunc=mark[1])
    if mark is not None:
        if field == "equal":
            raise ParseError("tail(...) marks a mixed series, not a Laurent one")
        _, floor, left = mark
        right = ZeroTail() if floor is None else RightValBound(floor)
        left_tail = ZeroTail() if left is None else LeftValBound(left[0], left[1])
        return MixedSeries.from_coeffs(prime, coeffs, left=left_tail, right=right)
    if field == "equal":
        return EqualCharSeries.from_coeffs(prime, coeffs)
    return MixedSeries.from_coeffs(prime, coeffs)


# ---------------------------------------------------------------------------
# rendering


def _render_coeff(c: PAdic) -> str:
    if not c.valuation_exact:
        raise ValueError("zero-within-precision coefficients have no literal form")
    v = c.val.n
    u = c.unit
    if v == 0:
        return str(u)
    ppart = "p" if v == 1 else f"p^{v}"
    return ppart if u == 1 else f"{u}*{ppart}"


def render_series(x: Series) -> str:
    """A literal that parses back to an equal value.

    Requires exactly known coefficients at the default relative precision;
    tail guarantees render as their marks.
    """
    parts = []
    for i, c in x.coeffs:
        coeff = _render_coeff(c)
        if i == 0:
            parts.append(coeff)
        else:
            tpart = "t" if i == 1 else f"t^{i}"
            parts.append(tpart if coeff == "1" else f"{coeff}*{tpart}")
    body = " + ".join(parts) if parts else "0"
    if isinstance(x, EqualCharSeries):
        if x.trunc.is_finite:
            return f"{body} + O(t^{x.trunc.n})"
        return body
    marks = []
    if isinstance(x.right, RightValBound):
        marks.append(f"v>={x.right.floor}")
    if isinstance(x.left, LeftValBound):
        marks.append(f"left: {x.left.slope}, {x.left.base}")
    if marks:
        return f"{body} + tail({', '.join(marks)})"
    return body
