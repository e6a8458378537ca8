"""The index limit: ``t`` exponents, ``O(t^N)``, the index fields and keys
of series JSON and the CLI's ``--partial-sum`` and ``--k`` lie within
``MAX_INDEX`` in magnitude, or are a ``ParseError`` (exit 2).  The library
constructors take any index."""

import json

import pytest

from tdlf import (
    EqualCharSeries,
    MixedSeries,
    PAdic,
    ParseError,
    parse_series,
    series_from_json,
)
from tdlf.cli import main
from tdlf.seqspec import MAX_INDEX, ExtInt, check_index
from tdlf.series import partial_sum

P = 5
ONE = {"prime": P, "valuation": 0, "digits": [1], "precision": 3}


def run(capsys, argv):
    code = main(["--prime", str(P), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_limit():
    assert MAX_INDEX == 10_000
    assert [check_index(i) for i in (-MAX_INDEX, 0, MAX_INDEX)] == [-MAX_INDEX, 0, MAX_INDEX]
    for i in (-MAX_INDEX - 1, MAX_INDEX + 1, 10**100):
        with pytest.raises(ParseError, match=rf"^index {i} is not in \[-10000, 10000\]$"):
            check_index(i)


@pytest.mark.parametrize("text", [
    "t^10000", "t^-10000", "1 + O(t^10000)", "1 + O(t^-10000)", "3*t^-10000 + tail(v>=0)",
])
def test_literals_at_the_limit_parse(text):
    parse_series(text, P)


@pytest.mark.parametrize("text, message, column", [
    ("t^10001", "index 10001", 2),
    ("1 + t^-10001", "index -10001", 6),
    ("2*t^+100000", "index 100000", 4),
    ("1 + O(t^10001)", "index 10001", 8),
    ("1 +\n O(t^-99999999999999999999)", "index -99999999999999999999", 5),
])
def test_literals_beyond_the_limit_name_the_exponent(text, message, column):
    with pytest.raises(ParseError) as info:
        parse_series(text, P)
    assert info.value.message == f"{message} is not in [-10000, 10000]"
    assert info.value.column == column


def test_p_exponents_and_tail_bounds_are_not_indices():
    x = parse_series("p^100000*t + tail(v>=-100000, left: 100000, 100000)", P)
    assert x.right.floor == -100000 and x.left.slope == 100000


def mixed(**fields):
    doc = {"kind": "mixed", "prime": P, "lo": 0, "hi": 0, "coeffs": {},
           "left": {"kind": "zero"}, "right": {"kind": "zero"}}
    return {**doc, **fields}


def equal(**fields):
    return {**{"kind": "equal", "prime": P, "order": 0, "trunc": "+inf", "coeffs": {}}, **fields}


@pytest.mark.parametrize("doc", [
    mixed(lo=-MAX_INDEX, hi=MAX_INDEX),
    mixed(coeffs={"10000": ONE, "-10000": ONE}),
    equal(order=-MAX_INDEX, trunc=MAX_INDEX),
    equal(coeffs={"-10000": ONE}, order=-MAX_INDEX),
])
def test_json_at_the_limit_reads(doc):
    assert series_from_json(doc).to_json()["kind"] == doc["kind"]


@pytest.mark.parametrize("doc, message", [
    (mixed(lo=-10001), "bad key 'lo': index -10001"),
    (mixed(hi=10**6), "bad key 'hi': index 1000000"),
    (mixed(coeffs={"10001": ONE}), "bad key 'coeffs': index 10001"),
    (equal(order=-10001), "bad key 'order': index -10001"),
    (equal(trunc=10001), "bad key 'trunc': index 10001"),
    (equal(coeffs={"-20000": ONE}, order=-20000), "bad key 'coeffs': index -20000"),
])
def test_json_beyond_the_limit_names_the_key(doc, message):
    with pytest.raises(ParseError, match=rf"^{message} is not in \[-10000, 10000\]$"):
        series_from_json(doc)


def test_constructors_take_any_index():
    c = PAdic.from_int(1, P)
    x = MixedSeries.from_coeffs(P, {-10**6: c, 10**6: c})
    assert (x.lo, x.hi) == (-10**6, 10**6)
    y = EqualCharSeries.from_coeffs(P, {10**6: c}, trunc=10**6 + 1)
    assert y.trunc == ExtInt(10**6 + 1)
    assert partial_sum(x, 10**7).hi == 10**7


def test_a_far_summand_exits_2(capsys):
    argv = ["eval", "--series", "1 + tail(left: 1, 0)", "--plus", "t^-100000"]
    assert run(capsys, argv) == (
        2, "", "error: index -100000 is not in [-10000, 10000] (line 1, column 2)\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["eval", "--series", "1", "--partial-sum", "10001"], "--partial-sum 10001"),
    (["eval", "--series", "1", "--partial-sum", "-1000000"], "--partial-sum -1000000"),
    (["oracle", "minplus", "--a", "O{{t}}", "--b", "O{{t}}", "--k", "10001"], "--k 10001"),
    (["eval", "--series", json.dumps(mixed(hi=10001))], "bad key 'hi': index 10001"),
])
def test_flags_and_json_beyond_the_limit_exit_2(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message} is not in [-10000, 10000]\n")


def test_flags_at_the_limit_are_read(capsys):
    code, out, err = run(capsys, ["eval", "--series", "1 + t", "--partial-sum", "10000"])
    assert (code, err) == (0, "") and json.loads(out)["hi"] == 10000
    # --k passes the index limit; the window of at most 101 indices then
    # cannot clear the explicit values
    argv = ["--window", "0:100", "oracle", "minplus", "--a", "O{{t}}", "--b", "O{{t}}"]
    message = "error: window (0, 100) does not clear the explicit values for k=-10000\n"
    assert run(capsys, [*argv, "--k", "-10000"]) == (2, "", message)
