"""The integer-triple literal parser against the ``Fraction`` reference, its
tokens and positions against the reference tokenizer, its bounded work on
huge ``p`` exponents, and the limits on input: numeral length, JSON index
keys, relative precision and the types of ``parse_series`` arguments."""

import json
import time

import pytest

from tdlf import MixedSeries, PAdic, ParseError, SeqSpec, parse_series
from tdlf import padic as padic_module
from tdlf.cli import main
from tdlf.padic import MAX_RELATIVE_PRECISION
from tdlf.parser import MAX_NUMERAL_DIGITS, _Parser
from tdlf.series import series_from_json
from helpers import _REF_PUNCT, _ref_tokenize, reference_parse_series, rng

PRIMES = (2, 3, 5, 7)
RELS = (1, 2, 5, 32)


def outcome_error(exc):
    return ("ParseError", exc.message, exc.line, exc.column)


def outcome(parse, text, p, rel):
    try:
        return parse(text, p, rel_precision=rel)
    except ParseError as exc:
        return outcome_error(exc)


def assert_agree(text, p, rel):
    new = outcome(parse_series, text, p, rel)
    ref = outcome(reference_parse_series, text, p, rel)
    assert new == ref and type(new) is type(ref), (text, p, rel)


# ---------------------------------------------------------------------------
# literals drawn from the grammar


def _sint(r, lo, hi):
    k = r.randint(lo, hi)
    return f"+{k}" if k >= 0 and r.below(4) == 0 else str(k)


def _cfactor(r, p):
    roll = r.below(6)
    if roll == 0:
        return "p"
    if roll == 1:
        return f"p^{_sint(r, -8, 45)}"
    n = r.randint(0, 3 * p * p)
    return f"{n:0{1 + r.below(2)}d}" if r.below(8) == 0 else str(n)


def _divisor(r, p):
    roll = r.below(20)
    if roll == 0:
        return "0" if r.below(2) else str(p * r.randint(1, 4))
    if roll < 8:
        return f"p^{_sint(r, -6, 30)}" if r.below(2) else "p"
    n = r.randint(1, 50)
    return str(n + 1 if n % p == 0 else n)


def _term(r, p, texps):
    texp = texps[r.below(len(texps))]
    tpart = "t" if texp == 1 and r.below(2) else f"t^{texp}"
    if r.below(5) == 0:
        body = tpart
    else:
        body = _cfactor(r, p)
        for _ in range(r.below(3)):
            body += "*" + _cfactor(r, p) if r.below(2) else "/" + _divisor(r, p)
        if r.below(4):
            body += ("*" if r.below(3) or not body[-1].isdigit() else "") + tpart
    for _ in range(r.below(2)):
        body += "/" + _divisor(r, p)
    return body


_CANCELLING = ("p^5 - p^5 + 1", "1 - 1 + p^40", "p^3 - p^3", "p^-2 + 4*p^-2 - 5*p^-2",
               "1 + 4", "p^2 - p^2 + p^33", "t - t + 2*t", "1/3 - 1/3 + p^31")


def _literal(r, p):
    texps = [r.randint(-4, 4) for _ in range(1 + r.below(3))]  # few: they repeat
    terms = [_term(r, p, texps) for _ in range(1 + r.below(5))]
    if r.below(4) == 0:
        terms.insert(r.below(len(terms) + 1), _CANCELLING[r.below(len(_CANCELLING))])
    if r.below(5) == 0:  # a term and its negation
        terms += [terms[0], terms[0]]
    text = ("-" if r.below(5) == 0 else "") + terms[0]
    for i, term in enumerate(terms[1:], 1):
        text += (" - " if r.below(3) == 0 or i == len(terms) - 1 and len(terms) > 2 else " + ") + term
    roll = r.below(6)
    if roll == 0:
        text += f" + O(t^{r.randint(-3, 6)})"
    elif roll == 1:
        text += f" + tail(v>={_sint(r, -3, 3)})"
    elif roll == 2:
        text += f" + tail(v>={r.randint(0, 3)}, left: {r.randint(1, 3)}, {_sint(r, -2, 2)})"
    elif roll == 3:
        text += f" + tail(left: {r.randint(1, 3)}, {r.randint(0, 4)})"
    return text.replace(" ", " " * r.below(3)) if r.below(4) == 0 else text


def test_grammar_literals_agree_with_the_reference():
    r = rng(8101)
    for _ in range(2400):
        p = PRIMES[r.below(len(PRIMES))]
        assert_agree(_literal(r, p), p, RELS[r.below(len(RELS))])


def test_the_cancelling_sums():
    for text in _CANCELLING:
        for p in PRIMES:
            for rel in RELS:
                assert_agree(text, p, rel)
    assert parse_series("p^5 - p^5 + 1", 5) == parse_series("1", 5)
    assert parse_series("1 - 1 + p^40", 5) == parse_series("p^40", 5)
    assert parse_series("p^3 - p^3", 5) == MixedSeries.zero(5)


# ---------------------------------------------------------------------------
# random strings over the token alphabet

PIECES = (
    "t", "p", "O", "tail", "v", "left", "x", "^", "*", "/", "+", "-", "(", ")", ",", ":",
    ">=", ">", "=", "0", "1", "2", "3", "5", "7", "9", "10", " ", " ", "\n", "\t", "\r",
    "\u00a0", "\u2003", "\u3000", "\u0663", "\u00b2", "\uff13",
)


def test_random_strings_agree_with_the_reference():
    r = rng(8102)
    for _ in range(2400):
        text = "".join(PIECES[r.below(len(PIECES))] for _ in range(r.randint(1, 14)))
        p = PRIMES[r.below(len(PRIMES))]
        assert_agree(text, p, RELS[r.below(len(RELS))])


@pytest.mark.parametrize("text", [
    "", "-", "*", "2 3", "t t", "t/t", "2*t/t", "1/0", "1/10", "1/p^2/3", "p^", "p^x", "t^-",
    "t^+", "1 +", "O(3)", "1 + O(t 3)", "1 + O(x^3)", "1 + O(t^3", "1 + tail(w)",
    "1 + tail(v 1)", "1 + tail(v>=1", "1 + tail(v>=1, 3)", "1 + tail(v>=1, x: 1, 2)",
    "1 + tail(left 1, 2)", "1 + tail(left: 1 2)", "1 + tail(left: 1, 2) + 3", "1 +\n  O(t^)",
    "1 + O(left^3)", "O(tail^0)", "1 + O(T^3)", "1 + O(tt^3)", "1 + O(p^3)",
])
def test_grammar_errors_agree_with_the_reference(text):
    assert_agree(text, 5, 32)


@pytest.mark.parametrize("text", ["1 + O(x^3)", "1 + O(left^3)", "O(tail^0)", "1 + O(T^3)"])
def test_a_truncation_mark_names_t(text, capsys):
    with pytest.raises(ParseError, match="^expected t"):
        parse_series(text, 5)
    assert main(["--prime", "5", "eval", "--series", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: expected t")


_KINDS = {**_REF_PUNCT, ">=": "geq"}


def tokens(text):
    """``(kind, text, line, column)`` of each token of ``_Parser`` up to the
    end of the input, with the kinds of ``helpers._ref_tokenize``."""
    try:
        parser = _Parser(text, 5)
    except ParseError as exc:
        return outcome_error(exc)
    out = []
    for pos, (_, num, word, punct, _) in enumerate(parser.tokens):
        kind = "num" if num else "ident" if word else _KINDS[punct] if punct else "eof"
        out.append((kind, num or word or punct, *parser.where(pos)))
        if kind == "eof":
            return out


def reference_tokens(text):
    """``_ref_tokenize``, which reads numerals of any length, as ``tokens``
    gives them: a numeral over ``MAX_NUMERAL_DIGITS`` digits before the first
    bad character is an error at that numeral."""
    try:
        ref, error = _ref_tokenize(text), None
    except ParseError as exc:
        error, start = exc, 0
        for _ in range(exc.line - 1):
            start = text.index("\n", start) + 1
        ref = _ref_tokenize(text[:start + exc.column])
    for tok in ref:
        if tok.kind == "num" and len(tok.text) > MAX_NUMERAL_DIGITS:
            return ("ParseError", f"numeral longer than {MAX_NUMERAL_DIGITS} digits", tok.line,
                    tok.column)
    return outcome_error(error) if error else [(t.kind, t.text, t.line, t.column) for t in ref]


LONG_PIECES = ("1" * MAX_NUMERAL_DIGITS, "9" * (MAX_NUMERAL_DIGITS + 1))


def test_tokens_agree_with_the_reference_tokenizer():
    r = rng(8103)
    for _ in range(2400):
        text = "".join(LONG_PIECES[r.below(2)] if r.below(60) == 0 else PIECES[r.below(len(PIECES))]
                       for _ in range(r.randint(1, 14)))
        assert tokens(text) == reference_tokens(text), text[:80]
        p = PRIMES[r.below(len(PRIMES))]
        text = _literal(r, p)
        assert tokens(text) == reference_tokens(text), text


@pytest.mark.parametrize("text", [
    "1 \u00b2 " + "1" * 5000, "1" * 5000 + " \u00b2", "x\n" + "1" * MAX_NUMERAL_DIGITS + "\n>",
    "t^" + "1" * MAX_NUMERAL_DIGITS + "0", "", " \n\t", "1\n", "\u0663",
])
def test_tokens_at_the_edges(text):
    assert tokens(text) == reference_tokens(text)


def test_token_positions():
    assert tokens("1\u3000+\tt^\u2003-2\n  p\r*\u00a0t") == [
        ("num", "1", 1, 0), ("plus", "+", 1, 2), ("ident", "t", 1, 4), ("caret", "^", 1, 5),
        ("minus", "-", 1, 7), ("num", "2", 1, 8), ("ident", "p", 2, 2), ("star", "*", 2, 4),
        ("ident", "t", 2, 6), ("eof", "", 2, 7),
    ]
    with pytest.raises(ParseError, match=r"unexpected character '\u0663' \(line 2, column 3\)"):
        parse_series("1 +\n\u2003t*\u0663", 5)


# ---------------------------------------------------------------------------
# bounded work: no power of p beyond the relative precision

HUGE = 100_000_000
BOUNDED = (
    ("p^100000000*t", {1: PAdic.make(5, HUGE, 1, HUGE + 32)}),
    ("1 + p^100000000", {0: PAdic.make(5, 0, 1, 32)}),
    ("p^-100000000*t + p^100000000*t", {1: PAdic.make(5, -HUGE, 1, -HUGE + 32)}),
    ("p^100000000 - p^100000000 + 1", {0: PAdic.make(5, 0, 1, 32)}),
)


@pytest.mark.parametrize("text, coeffs", BOUNDED)
def test_huge_p_exponents_parse_at_once(text, coeffs, monkeypatch):
    exponents = []

    def recording_power(p, k):
        exponents.append(k)
        return p**k

    monkeypatch.setattr(padic_module, "prime_power", recording_power)  # fraction_sum's powers
    start = time.perf_counter()
    x = parse_series(text, 5)
    assert time.perf_counter() - start < 0.05
    assert x == MixedSeries.from_coeffs(5, coeffs)
    assert max(exponents, default=0) <= 32


def test_huge_p_exponent_through_the_cli(capsys):
    assert main(["--prime", "5", "eval", "--series", "p^100000000*t"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coeffs"]["1"] == {"prime": 5, "valuation": HUGE, "digits": [1] + [0] * 31,
                                  "precision": HUGE + 32}


# ---------------------------------------------------------------------------
# over-long numerals

LONG = "1" * 5000


@pytest.mark.parametrize("text, column", [
    (LONG, 0),
    (f"t^{LONG}", 2),
    (f"1 + tail(v>={LONG})", 12),
    (f"2*p^-{LONG}", 5),
])
def test_overlong_numeral_is_a_parse_error(text, column, capsys):
    with pytest.raises(ParseError) as err:
        parse_series(text, 5)
    assert (err.value.message, err.value.line, err.value.column) == (
        f"numeral longer than {MAX_NUMERAL_DIGITS} digits", 1, column)
    assert main(["--prime", "5", "eval", "--series", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: numeral longer than 4300 digits (line 1, column {column})\n"


def test_longest_numeral_is_read():
    x = parse_series("1" * MAX_NUMERAL_DIGITS + "*t", 5, rel_precision=4)
    assert x.coeff(1) == PAdic.make(5, 0, int("1" * MAX_NUMERAL_DIGITS), 4)


# ---------------------------------------------------------------------------
# JSON index keys

COEFF = {"prime": 5, "valuation": 0, "digits": [1], "precision": 4}
BAD_KEYS = ("\u0663", " 3", "3 ", "1_0", "+3", "03", "-0", "", "x", "1.0")


def series_doc(coeffs):
    return {"kind": "mixed", "prime": 5, "lo": -3, "hi": 12, "coeffs": coeffs,
            "left": {"kind": "zero"}, "right": {"kind": "zero"}}


def window_doc(window):
    return {"window": window, "left": {"kind": "const", "value": 0},
            "right": {"kind": "const", "value": 0}}


@pytest.mark.parametrize("key", BAD_KEYS)
def test_bad_index_keys(key):
    with pytest.raises(ParseError, match="bad key 'coeffs'"):
        series_from_json(series_doc({key: COEFF}))
    with pytest.raises(ParseError, match="bad key 'window'"):
        SeqSpec.from_json(window_doc({key: 1}))


def test_two_keys_for_one_index():
    with pytest.raises(ParseError, match="bad key 'coeffs'"):
        series_from_json(series_doc({"3": COEFF, "03": dict(COEFF, digits=[2])}))
    with pytest.raises(ParseError, match="bad key 'window'"):
        SeqSpec.from_json(window_doc({"3": 1, "03": 2}))


def test_good_index_keys():
    x = series_from_json(series_doc({"-3": COEFF, "0": COEFF, "12": COEFF}))
    assert [i for i, _ in x.coeffs] == [-3, 0, 12]
    s = SeqSpec.from_json(window_doc({"-1": 2, "0": 1, "1": 2}))
    assert [int(s.value_at(i).n) for i in (-1, 0, 1)] == [2, 1, 2]


def test_bad_index_key_through_the_cli(capsys):
    doc = json.dumps(series_doc({"03": COEFF}))
    assert main(["--prime", "5", "eval", "--series", doc]) == 2
    assert capsys.readouterr().err.startswith("error: bad key 'coeffs'")
    # a well-formed key past a Laurent series' truncation
    doc = {"kind": "equal", "prime": 5, "order": 0, "trunc": 3, "coeffs": {"5": COEFF}}
    message = "bad key 'coeffs': coefficient index 5 outside [order, trunc)"
    with pytest.raises(ParseError) as exc:
        series_from_json(doc)
    assert str(exc.value) == message
    assert main(["--prime", "5", "eval", "--series", json.dumps(doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# relative precision


def test_from_json_precision_limit():
    def coeff(valuation, precision):
        return {"prime": 5, "valuation": valuation, "digits": [1], "precision": precision}

    at_limit = PAdic.from_json(coeff(-3, MAX_RELATIVE_PRECISION - 3))
    assert at_limit.rel_precision == MAX_RELATIVE_PRECISION
    assert len(at_limit.digits()) == MAX_RELATIVE_PRECISION
    for val, prec in ((0, MAX_RELATIVE_PRECISION + 1), (0, 10**20), (0, "+inf"), ("-inf", 3)):
        with pytest.raises(ParseError, match="bad key 'precision'"):
            PAdic.from_json(coeff(val, prec))


def test_parse_series_precision_limit():
    assert parse_series("1/3", 5, rel_precision=MAX_RELATIVE_PRECISION).coeff(0).rel_precision == 10_000
    for rel in (0, -3, MAX_RELATIVE_PRECISION + 1, 10**20):
        with pytest.raises(ParseError, match="relative precision"):
            parse_series("1/3", 5, rel_precision=rel)


@pytest.mark.parametrize("args, message", [
    (("1", 5.0), "prime 5.0 is not an int"),
    (("1", True), "prime True is not an int"),
    (("1", 5, None, True), "relative precision True is not an int"),
    (("1", 5, None, 2.5), "relative precision 2.5 is not an int"),
    (("1", 5, "bogus"), "field 'bogus' is not 'equal' or 'mixed'"),
    (("1", 5, ""), "field '' is not 'equal' or 'mixed'"),
    ((None, 5), "a literal is a str, not NoneType"),
    ((b"1", 5), "a literal is a str, not bytes"),
])
def test_parse_series_refuses_bad_arguments(args, message):
    with pytest.raises(ParseError) as err:
        parse_series(*args)
    assert (err.value.message, err.value.line, err.value.column) == (message, None, None)


@pytest.mark.parametrize("precision", ["100000000", "10001", "0", "-3"])
def test_cli_precision_limit(precision, capsys, monkeypatch):
    start = time.perf_counter()
    assert main(["--prime", "5", "--precision", precision, "eval", "--series", "1/3"]) == 2
    monkeypatch.setenv("TDLF_PRECISION", precision)
    assert main(["--prime", "5", "eval", "--series", "1/3"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"error: relative precision {precision} is not in [1, 10000]") == 2


def test_cli_json_coefficient_of_huge_precision(capsys):
    doc = json.dumps(series_doc({"0": dict(COEFF, precision=10**20)}))
    start = time.perf_counter()
    assert main(["--prime", "5", "eval", "--series", doc]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("error: bad key 'precision': relative precision above 10000")


def test_digits_stop_at_a_zero_unit():
    assert PAdic.make(5, 2, 7, 12).digits() == [2, 1] + [0] * 8
    assert PAdic.make(2, 0, 2**9 - 1, 9).digits() == [1] * 9
