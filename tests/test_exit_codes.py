"""Requests that need a different input or ``--window`` exit 2, as does a
flag written ``--flag=--``, and the oracle's sample count is refused below
zero by the library too."""

import pytest

from tdlf import ParseError, named
from tdlf.cli import main
from tdlf.oracle import SampleConfig, sample_elements


def run(capsys, argv):
    code = main(["--prime", "5", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_window_that_cannot_certify_exits_2(capsys):
    argv = ["--window", "7:7", "oracle", "minplus", "--a", "O{{t}}", "--b", "O{{t}}", "--k", "0"]
    assert run(capsys, argv) == (
        2, "", "error: window (7, 7) does not clear the explicit values for k=0\n"
    )


@pytest.mark.parametrize("field", [[], ["--field", "equal"], ["--field", "mixed"]])
def test_the_rank_two_valuation_of_zero_exits_2(capsys, field):
    argv = [*field, "valuation", "--rank2", "--series", "0"]
    assert run(capsys, argv) == (2, "", "error: rank-two valuation of zero is undefined\n")


@pytest.mark.parametrize("count", [-1, -12, -(10**9)])
def test_a_negative_sample_count_is_refused(count):
    with pytest.raises(ParseError, match=f"^sample count {count} is negative$"):
        SampleConfig(seed=1, count=count)


@pytest.mark.parametrize("module", ["K[[t]]", "O{{t}}"])
@pytest.mark.parametrize("precision", [0, -1, 10_001])
def test_a_sample_precision_out_of_range_is_refused(module, precision):
    with pytest.raises(ParseError, match="relative precision"):
        sample_elements(named(module), SampleConfig(1, 3, (-2, 2), precision), 5)


def test_a_zero_sample_count_samples_nothing():
    assert sample_elements(named("p{{t}}"), SampleConfig(seed=1, count=0), 5) == []
    assert len(sample_elements(named("p{{t}}"), SampleConfig(seed=1, count=3), 5)) == 3


SERIES = ["eval", "--series", "1"]
SPEC = ('{"window":{},"left":{"kind":"const","value":0},"right":{"kind":"const","value":"-inf"},'
        '"field":"mixed"}')


@pytest.mark.parametrize("argv", [
    ["--window=--", *SERIES],
    ["--seed=--", *SERIES],
    ["--precision=--", *SERIES],
    ["--field=--", *SERIES],
    ["eval", "--series=--"],
    ["eval", "--series", "1", "--plus=--"],
    ["eval", "--series", "1", "--partial-sum=--"],
    ["pair", "--x=--", "--y", "1"],
    ["pair", "--x", "1", "--y", "1", "--target=--"],
    ["norm", "--series", "1", "--seminorm=--"],
    ["--seed", "1", "oracle", "sample", "--module", "p{{t}}", "--count=--"],
    ["oracle", "minplus", "--a", "O{{t}}", "--b", "O{{t}}", "--k=--"],
    ["oracle", "seminorm", "--spec=--", "--series", "1"],
    ["oracle", "seminorm", "--spec", SPEC, "--series=--"],
], ids=lambda argv: " ".join(argv)[:50])
def test_a_flag_value_of_two_dashes_is_a_usage_error(capsys, argv):
    """Python 3.11's argparse reads ``--flag=--`` as ``[]``; no handler sees it."""
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("cap", [" + O(t^20)", ""])
def test_a_failing_target_names_the_first_index_of_either_kind(capsys, cap):
    """A Laurent product and its mixed twin name the same first index below
    the target: coefficient 1, not the later coefficient 10."""
    argv = ["eval", "--series", f"1 + p^-5*t{cap}", "--times", f"1 + p^-5*t^10{cap}",
            "--target", "30"]
    assert run(capsys, argv) == (3, "", "error: coefficient 1 certified only modulo p^27\n")


def test_malformed_json_exits_2_with_its_position(capsys):
    code, out, err = run(capsys, ["eval", "--series", "{bad"])
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: ") and err.endswith(" (line 1, column 1)\n"), err
