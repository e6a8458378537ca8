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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .padic import DEFAULT_RELATIVE_PRECISION, PAdic, check_prime
from .series import (
    EqualCharSeries,
    LeftValBound,
    MixedSeries,
    RightValBound,
    Series,
    ZeroTail,
)

__all__ = ["parse_series", "render_series"]


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


_PUNCT = {
    "^": "caret",
    "*": "star",
    "/": "slash",
    "+": "plus",
    "-": "minus",
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
    ":": "colon",
}


def _tokenize(text: str) -> list[_Token]:
    out = []
    line, col = 1, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: not '²' (no int) or '٣' (read as 3)
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            out.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isascii() and ch.isalpha():
            j = i
            while j < len(text) and text[j].isascii() and text[j].isalpha():
                j += 1
            out.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == ">" and i + 1 < len(text) and text[i + 1] == "=":
            out.append(_Token("geq", ">=", line, col))
            col += 2
            i += 2
            continue
        if ch in _PUNCT:
            out.append(_Token(_PUNCT[ch], ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(_Token("eof", "", line, col))
    return out


class _Parser:
    def __init__(self, text: str, prime: int, rel_precision: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prime = prime
        self.rel_precision = rel_precision

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect(self, kind: str, what: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail(f"expected {what}")
        return self.next()

    def signed_int(self) -> int:
        sign = 1
        if self.peek().kind == "minus":
            self.next()
            sign = -1
        elif self.peek().kind == "plus":
            self.next()
        return sign * int(self.expect("num", "an integer").text)

    # -- factors ------------------------------------------------------------

    def cfactor(self) -> Fraction:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Fraction(int(tok.text))
        if tok.kind == "ident" and tok.text == "p":
            self.next()
            k = 1
            if self.peek().kind == "caret":
                self.next()
                k = self.signed_int()
            return Fraction(self.prime) ** k
        raise self.fail("expected an integer or a power of p")

    def divide(self, total: Fraction) -> Fraction:
        tok = self.peek()
        factor = self.cfactor()
        if factor == 0:
            raise ParseError("division by zero", tok.line, tok.column)
        if tok.kind == "num" and int(tok.text) % self.prime == 0:
            raise ParseError(
                "denominator divisible by p; use a negative power of p",
                tok.line,
                tok.column,
            )
        return total / factor

    def tpow(self) -> int:
        self.expect("ident", "t")
        if self.peek().kind == "caret":
            self.next()
            return self.signed_int()
        return 1

    # -- terms ---------------------------------------------------------------

    def term(self) -> tuple[Fraction, int]:
        """One summand: (coefficient, exponent of t)."""
        coeff = Fraction(1)
        texp = None
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "t":
            texp = self.tpow()
        else:
            coeff = self.cfactor()
            while self.peek().kind in ("star", "slash"):
                op = self.next()
                nxt = self.peek()
                if nxt.kind == "ident" and nxt.text == "t":
                    if op.kind == "slash":
                        raise self.fail("cannot divide by t; use t^-k")
                    texp = self.tpow()
                    break
                if op.kind == "star":
                    coeff *= self.cfactor()
                else:
                    coeff = self.divide(coeff)
            else:
                if texp is None and self.peek().kind == "ident" and self.peek().text == "t":
                    texp = self.tpow()
        while self.peek().kind == "slash":
            self.next()
            coeff = self.divide(coeff)
        return coeff, 0 if texp is None else texp

    # -- tail marks -----------------------------------------------------------

    def tail_mark(self):
        tok = self.next()  # 'O' or 'tail'
        self.expect("lparen", "'('")
        if tok.text == "O":
            self.expect("ident", "t")
            self.expect("caret", "'^'")
            n = self.signed_int()
            self.expect("rparen", "')'")
            return ("trunc", n)
        floor = None
        left = None
        first = self.peek()
        if first.kind == "ident" and first.text == "v":
            self.next()
            self.expect("geq", "'>='")
            floor = self.signed_int()
            if self.peek().kind == "comma":
                self.next()
                left = self._left_bound()
        elif first.kind == "ident" and first.text == "left":
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

    def series(self) -> tuple[dict[int, Fraction], object]:
        terms: dict[int, Fraction] = {}
        sign = 1
        if self.peek().kind == "minus":
            self.next()
            sign = -1
        mark = None
        while True:
            tok = self.peek()
            if tok.kind == "ident" and tok.text in ("O", "tail"):
                mark = self.tail_mark()
                break
            coeff, texp = self.term()
            terms[texp] = terms.get(texp, Fraction(0)) + sign * coeff
            nxt = self.peek()
            if nxt.kind == "plus":
                self.next()
                sign = 1
            elif nxt.kind == "minus":
                self.next()
                sign = -1
            else:
                break
        self.expect("eof", "end of input")
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
    A composite ``prime``, or one at or above ``PRIME_LIMIT``, raises
    :class:`ParseError`.
    """
    check_prime(prime)
    parser = _Parser(text, prime, rel_precision)
    terms, mark = parser.series()
    coeffs = {
        i: PAdic.from_fraction(q, prime, rel_precision)
        for i, q in terms.items()
        if q != 0
    }
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
