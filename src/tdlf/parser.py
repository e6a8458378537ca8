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
from typing import NamedTuple

from .errors import ParseError
from .padic import DEFAULT_RELATIVE_PRECISION, PAdic, _vp, check_precision, check_prime, prime_power
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


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


# Blanks other than a newline, then one token (finditer would skip the
# blanks, but matching them is faster).  Only ASCII digits and letters are
# read: not '²' (no int) or '٣' (int reads it as 3).  Every character is one
# column; `\s` is exactly `str.isspace`.
_TOKEN = re.compile(
    rf"[^\S\n]*(?:(?P<num>[0-9]{{1,{MAX_NUMERAL_DIGITS}}}(?![0-9]))|(?P<long>[0-9]+)"
    r"|(?P<ident>[A-Za-z]+)|(?P<geq>>=)|(?P<caret>\^)|(?P<star>\*)|(?P<slash>/)"
    r"|(?P<plus>\+)|(?P<minus>-)|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)"
    r"|(?P<colon>:)|(?P<newline>\n)|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[_Token]:
    out = []
    line, start = 1, 0  # start: the index of the line's first character
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line, m.start(kind) - start)
        elif kind == "long":
            raise ParseError(
                f"numeral longer than {MAX_NUMERAL_DIGITS} digits", line, m.start(kind) - start
            )
        else:
            out.append(_Token(kind, m[kind], line, m.start(kind) - start))
    out.append(_Token("eof", "", line, len(text) - start))
    return out


class _Parser:
    """Recursive descent over the tokens; ``tok`` is the next one."""

    def __init__(self, text: str, prime: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.tok = self.tokens[0]
        self.prime = prime

    def next(self) -> _Token:
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.tok.line, self.tok.column)

    def expect(self, kind: str, what: str) -> _Token:
        if self.tok.kind != kind:
            raise self.fail(f"expected {what}")
        return self.next()

    def index(self) -> int:
        """A signed integer that is an exponent of ``t``."""
        tok = self.tok
        return check_index(self.signed_int(), "index", tok.line, tok.column)

    def signed_int(self) -> int:
        kind = self.tok.kind
        if kind in ("minus", "plus"):
            self.next()
        n = int(self.expect("num", "an integer").text)
        return -n if kind == "minus" else n

    # -- factors: (num, den, e) stands for num/den * p^e ----------------------

    def cfactor(self) -> tuple[int, int, int]:
        tok = self.tok
        if tok.kind == "num":
            self.next()
            return int(tok.text), 1, 0
        if tok.text == "p":
            self.next()
            if self.tok.kind != "caret":
                return 1, 1, 1
            self.next()
            return 1, 1, self.signed_int()
        raise self.fail("expected an integer or a power of p")

    def divide(self, num: int, den: int, e: int) -> tuple[int, int, int]:
        tok = self.tok
        n, _, k = self.cfactor()
        if tok.kind != "num":
            return num, den, e - k
        if n == 0:
            raise ParseError("division by zero", tok.line, tok.column)
        if n % self.prime == 0:
            message = "denominator divisible by p; use a negative power of p"
            raise ParseError(message, tok.line, tok.column)
        return num, den * n, e

    def tpow(self) -> int:
        self.expect("ident", "t")
        if self.tok.kind == "caret":
            self.next()
            return self.index()
        return 1

    # -- terms ---------------------------------------------------------------

    def term(self) -> tuple[tuple[int, int, int], int]:
        """One summand: (coefficient triple, exponent of t)."""
        coeff = (1, 1, 0)
        texp = 0
        if self.tok.text == "t":
            texp = self.tpow()
        else:
            coeff = self.cfactor()
            while self.tok.kind in ("star", "slash"):
                op = self.next()
                if self.tok.text == "t":
                    if op.kind == "slash":
                        raise self.fail("cannot divide by t; use t^-k")
                    texp = self.tpow()
                    break
                if op.kind == "star":
                    a, b, k = self.cfactor()
                    coeff = (coeff[0] * a, coeff[1] * b, coeff[2] + k)
                else:
                    coeff = self.divide(*coeff)
            else:
                if self.tok.text == "t":
                    texp = self.tpow()
        while self.tok.kind == "slash":
            self.next()
            coeff = self.divide(*coeff)
        return coeff, texp

    # -- tail marks -----------------------------------------------------------

    def tail_mark(self):
        tok = self.next()  # 'O' or 'tail'
        self.expect("lparen", "'('")
        if tok.text == "O":
            self.expect("ident", "t")
            self.expect("caret", "'^'")
            n = self.index()
            self.expect("rparen", "')'")
            return ("trunc", n)
        floor = left = None
        if self.tok.text == "v":
            self.next()
            self.expect("geq", "'>='")
            floor = self.signed_int()
            if self.tok.kind == "comma":
                self.next()
                left = self._left_bound()
        elif self.tok.text == "left":
            left = self._left_bound()
        else:
            raise self.fail("expected 'v >= ...' or 'left: slope, base'")
        self.expect("rparen", "')'")
        return ("tail", floor, left)

    def _left_bound(self) -> tuple[int, int]:
        ident = self.expect("ident", "'left'")
        if ident.text != "left":
            raise ParseError("expected 'left'", ident.line, ident.column)
        self.expect("colon", "':'")
        slope = self.signed_int()
        self.expect("comma", "','")
        base = self.signed_int()
        return slope, base

    # -- top level ---------------------------------------------------------------

    def series(self) -> tuple[dict[int, list], object]:
        """The signed coefficient triples of each exponent of t, and the mark."""
        terms: dict[int, list] = {}
        negate = False
        if self.tok.kind == "minus":
            self.next()
            negate = True
        mark = None
        while True:
            if self.tok.text in ("O", "tail"):
                mark = self.tail_mark()
                break
            (num, den, e), texp = self.term()
            terms.setdefault(texp, []).append((-num if negate else num, den, e))
            kind = self.tok.kind
            if kind not in ("plus", "minus"):
                break
            self.next()
            negate = kind == "minus"
        if self.tok.kind != "eof":
            raise self.fail("expected end of input")
        return terms, mark


def _coefficient(terms: list, p: int, rel: int) -> PAdic | None:
    """The sum of ``(num, den, e)`` triples at relative precision ``rel >= 1``;
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


def parse_series(
    text: str,
    prime: int,
    field: str | None = None,
    rel_precision: int = DEFAULT_RELATIVE_PRECISION,
) -> Series:
    """Parse a series literal.

    An ``O(t^N)`` mark (or ``field='equal'``) yields a Laurent series;
    everything else yields an element of the doubly infinite field.
    A composite ``prime``, or one at or above ``PRIME_LIMIT``, a relative
    precision outside ``[1, MAX_RELATIVE_PRECISION]``, a numeral longer
    than ``MAX_NUMERAL_DIGITS`` and an exponent of ``t`` beyond
    ``MAX_INDEX`` in magnitude raise :class:`ParseError`.
    """
    check_prime(prime)
    check_precision(rel_precision)
    terms, mark = _Parser(text, prime).series()
    coeffs = {i: c for i, ts in terms.items()
              if (c := _coefficient(ts, prime, rel_precision)) is not None}
    if mark is not None and mark[0] == "trunc":
        if field == "mixed":
            raise ParseError("O(t^N) marks a Laurent series, not a mixed one")
        kept = {i: c for i, c in coeffs.items() if i < mark[1]}
        order = min(kept, default=0)
        return EqualCharSeries.from_coeffs(prime, kept, order=order, trunc=mark[1])
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
