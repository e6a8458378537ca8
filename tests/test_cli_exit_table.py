"""``cli.main`` leaves through one path for every error: it prints one
``error: …`` line and exits with the code of the error's class, 1 for any
other ``TdlfError``."""

import pytest

from tdlf import cli
from tdlf.errors import (
    IncompatiblePrimes,
    KindMismatch,
    NonAdmissibleSequence,
    NonConvergentValues,
    NonRepresentableTail,
    NotBounded,
    NotCompactoid,
    ParseError,
    PrecisionExhausted,
    UndefinedInfiniteSum,
    UnknownName,
    WindowInsufficient,
    ZeroElement,
)

# the codes README documents for each class
DOCUMENTED = {
    ParseError: 2, KindMismatch: 2, IncompatiblePrimes: 2, ValueError: 2,
    WindowInsufficient: 2, ZeroElement: 2,
    PrecisionExhausted: 3,
    NonAdmissibleSequence: 4, NotCompactoid: 4, NotBounded: 4, NonConvergentValues: 4,
    UnknownName: 5,
    NonRepresentableTail: 1, UndefinedInfiniteSum: 1,
}


def test_the_table_holds_the_documented_codes():
    assert cli._EXIT_CODES == {c: code for c, code in DOCUMENTED.items() if code != 1}


# each class of the table, and classes it leaves to the 1 for any other
CLASSES = dict.fromkeys([*cli._EXIT_CODES, NonRepresentableTail, UndefinedInfiniteSum, ValueError])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_each_error_class_leaves_by_one_line_and_its_code(cls, monkeypatch, capsys):
    def fail(text, args):
        raise cls("the handler failed")

    monkeypatch.setattr(cli, "_load_series", fail)
    code = cli.main(["--prime", "5", "eval", "--series", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        DOCUMENTED[cls], "", "error: the handler failed\n"
    )


@pytest.mark.parametrize("env, argv, err", [
    ("x", ["--prime", "5"], "TDLF_PRECISION must be an integer, got 'x'"),
    (None, ["--prime", str(cli.PRIME_LIMIT)], f"--prime must be below {cli.PRIME_LIMIT}"),
    (None, ["--prime", "4"], "--prime 4 is not prime"),
])
def test_the_early_checks_leave_by_the_same_path(env, argv, err, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("TDLF_PRECISION", raising=False)
    else:
        monkeypatch.setenv("TDLF_PRECISION", env)
    calls = []
    # a code the table does not use shows that the checks read the table
    monkeypatch.setattr(cli, "_EXIT_CODES", {ParseError: 7})
    monkeypatch.setattr(cli, "_load_series", lambda text, args: calls.append(text))
    code = cli.main([*argv, "eval", "--series", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err, calls) == (7, "", f"error: {err}\n", [])

