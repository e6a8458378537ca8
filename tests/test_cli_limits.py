"""CLI flag limits, error lines without a text position, and the key order
of CLI output."""

import json
from pathlib import Path

import pytest

from tdlf import ParseError
from tdlf import cli
from tdlf.cli import MAX_SAMPLE_COUNT, MAX_WINDOW_WIDTH, main
from helpers import reference_order

ROOT = Path(__file__).resolve().parents[1]
MINPLUS = ["oracle", "minplus", "--a", "O{{t}}", "--b", "O{{t}}", "--k", "0"]


def run(capsys, argv):
    code = main(["--prime", "5", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, message", [
    (["--window", "3", *MINPLUS], "window must look like '-20:20', got '3'"),
    (["--window", "1:2:3", *MINPLUS], "window must look like '-20:20', got '1:2:3'"),
    (["--window", "a:1", *MINPLUS], "window must look like '-20:20', got 'a:1'"),
    (["--window", "3:1", *MINPLUS], "window '3:1' has lo > hi"),
    (["--window=-50:51", *MINPLUS], "window '-50:51' holds more than 101 indices"),
    (["--window", "0:200", "eval", "--series", "1"], "window '0:200' holds more than 101 indices"),
])
def test_a_bad_window_exits_2_with_one_error_line(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("window", ["-50:50", "0:100"])
def test_windows_up_to_the_limit_are_read(capsys, window):
    lo, hi = map(int, window.split(":"))
    assert hi - lo + 1 == MAX_WINDOW_WIDTH == 101
    assert run(capsys, [f"--window={window}", *MINPLUS]) == (0, '{"k":0,"value":0}\n', "")
    code, out, err = run(capsys, ["--window", "7:7", "eval", "--series", "1"])
    assert (code, err) == (0, "")


@pytest.mark.parametrize("count", [-1, MAX_SAMPLE_COUNT + 1, 100_000_000])
def test_a_count_outside_the_limit_exits_2(capsys, count):
    argv = ["oracle", "sample", "--module", "p{{t}}", "--count", str(count)]
    assert run(capsys, argv) == (2, "", f"error: --count {count} is not in [0, 12]\n")


@pytest.mark.parametrize("count", [0, MAX_SAMPLE_COUNT])
def test_counts_up_to_the_limit_are_sampled(capsys, count):
    code, out, err = run(capsys, ["oracle", "sample", "--module", "p{{t}}", "--count", str(count)])
    assert (code, err) == (0, "") and len(json.loads(out)["elements"]) == count


@pytest.mark.parametrize("argv, message", [
    (["--precision", "0", "eval", "--series", "1"], "relative precision 0 is not in [1, 10000]"),
    (["eval", "--series", '{"kind":"bogus"}'], "bad key 'kind': unknown series kind 'bogus'"),
    (["--field", "mixed", "eval", "--series", "1 + O(t^3)"],
     "O(t^N) marks a Laurent series, not a mixed one"),
])
def test_an_error_without_a_position_prints_none(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_parse_error_positions():
    assert str(ParseError("bad")) == "bad"
    assert (ParseError("bad").line, ParseError("bad").column) == (None, None)
    assert str(ParseError("bad", 1, 0)) == "bad (line 1, column 0)"


def test_order_by_map_name_matches_the_order_by_key_content(monkeypatch, capsys):
    """Every output of the cli_requests benchmark workload, seeds 1-3, in
    the order of the old ``_order``."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing
    import workloads

    seen = []
    dump = cli._dump
    monkeypatch.setattr(cli, "_dump", lambda obj: seen.append(obj) or dump(obj))
    for seed in (1, 2, 3):
        for op in workloads.build("cli_requests", seed):
            op.run(tracing.direct)
    capsys.readouterr()
    assert len(seen) >= 100
    assert sum('"coeffs"' in json.dumps(obj) for obj in seen) >= 10
    assert sum('"window"' in json.dumps(obj) for obj in seen) >= 10
    for obj in seen:
        assert json.dumps(cli._order(obj)) == json.dumps(reference_order(obj))
