"""``cli._read_argv`` against a frozen copy of the argparse grammar it
replaced on the path of valid requests.

The reader must either decline (return ``None``, so that ``cli.main`` hands
argv to argparse) or return exactly the namespace the reference parser
gives.  ``--help`` pages and usage errors must come out of ``cli.main``
byte for byte as the reference parser prints them.  Help text differs
between Python versions, so every comparison is made on the running
interpreter and no page is pinned."""

import argparse
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdlf
from test_cli_fuzz import COMMANDS, GLOBAL
from tdlf import cli


def reference_parser() -> argparse.ArgumentParser:
    """The argparse grammar of ``tdlf`` as it stood before ``cli._GRAMMAR``."""
    top = argparse.ArgumentParser(
        prog="tdlf",
        description="Exact calculator for locally convex structure on "
        "two-dimensional local fields.",
    )
    top.add_argument("--prime", type=int, required=True, help="residue characteristic p")
    top.add_argument(
        "--precision",
        type=int,
        default=None,
        help="relative p-adic precision for parsed literals (default 32)",
    )
    top.add_argument(
        "--window",
        default="-20:20",
        help="index window lo:hi for oracle enumeration (default -20:20)",
    )
    top.add_argument("--seed", type=int, default=0, help="sampler seed (default 0)")
    top.add_argument(
        "--field",
        choices=("equal", "mixed"),
        default=None,
        help="force the field kind of bare series literals",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="parse and combine series")
    p.add_argument("--series", required=True)
    p.add_argument("--plus", default=None)
    p.add_argument("--times", default=None)
    p.add_argument("--partial-sum", dest="partial_sum", type=int, default=None)
    p.add_argument("--target", type=int, default=None, help="certified precision for --times")
    p.set_defaults(func=cli._cmd_eval)

    p = sub.add_parser("norm", help="evaluate an admissible seminorm")
    p.add_argument("--series", required=True)
    p.add_argument("--seminorm", required=True, help="seminorm spec as JSON")
    p.set_defaults(func=cli._cmd_norm)

    p = sub.add_parser("classify", help="open lattice / bounded / compactoid flags")
    p.add_argument("--module", required=True, help="named module or JSON")
    p.add_argument("--literature", action="store_true", help="include literature-sourced flags")
    p.set_defaults(func=cli._cmd_classify)

    p = sub.add_parser("polar", help="polar of a submodule")
    p.add_argument("--module", required=True)
    p.set_defaults(func=cli._cmd_polar)

    p = sub.add_parser("pseudo-polar", help="pseudo-polar of a submodule")
    p.add_argument("--module", required=True)
    p.set_defaults(func=cli._cmd_pseudo_polar)

    p = sub.add_parser("pair", help="the t^0 pairing of two series")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--target", type=int, default=None)
    p.set_defaults(func=cli._cmd_pair)

    p = sub.add_parser("product-bound", help="min-plus bound for a module product")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cli._cmd_product_bound)

    p = sub.add_parser("dual-norm", help="dual seminorm of a module")
    p.add_argument("--module", required=True)
    p.set_defaults(func=cli._cmd_dual_norm)

    p = sub.add_parser("valuation", help="discrete or rank-two valuation")
    p.add_argument("--series", required=True)
    p.add_argument("--rank2", action="store_true")
    p.set_defaults(func=cli._cmd_valuation)

    p = sub.add_parser("oracle", help="brute-force reference computations")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("sample", help="deterministic elements of a module")
    q.add_argument("--module", required=True)
    q.add_argument("--count", type=int, default=10)
    q.set_defaults(func=cli._cmd_oracle)
    q = osub.add_parser("minplus", help="enumerated min-plus convolution value")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(func=cli._cmd_oracle)
    q = osub.add_parser("seminorm", help="enumerated seminorm value")
    q.add_argument("--spec", required=True)
    q.add_argument("--series", required=True)
    q.set_defaults(func=cli._cmd_oracle)

    return top


REFERENCE = reference_parser()


def reference(argv):
    """``(vars or None, exit code, stdout, stderr)`` of the reference parser."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ns, code = vars(REFERENCE.parse_args(argv)), None
        except SystemExit as exc:
            ns, code = None, exc.code
    return ns, code, out.getvalue(), err.getvalue()


# -- mutations of valid argv --------------------------------------------------


def split_equals(argv, at, token):
    """Every ``--flag=value`` as two tokens."""
    out = []
    for arg in argv:
        name, eq, value = arg.partition("=")
        out += [name, value] if arg.startswith("--") and eq else [arg]
    return out


def abbreviate(argv, at, token):
    flags = [i for i, arg in enumerate(argv) if arg.startswith("--")]
    if not flags:
        return argv
    i = flags[at % len(flags)]
    name, eq, value = argv[i].partition("=")
    return [*argv[:i], name[: max(3, len(name) - 1 - at % 4)] + eq + value, *argv[i + 1:]]


def separate_value(argv, at, token):
    """One ``--flag=value`` as ``--flag token``."""
    flags = [i for i, arg in enumerate(argv) if arg.startswith("--") and "=" in arg]
    if not flags:
        return argv
    i = flags[at % len(flags)]
    return [*argv[:i], argv[i].partition("=")[0], token, *argv[i + 1:]]


def repeat(argv, at, token):
    i = at % len(argv)
    return [*argv[: i + 1], *argv[i:]]


def global_after_command(argv, at, token):
    """The first token, a global flag, moved to the end."""
    return [*argv[1:], argv[0]]


def insert(argv, at, token):
    i = at % (len(argv) + 1)
    return [*argv[:i], token, *argv[i:]]


def replace(argv, at, token):
    i = at % len(argv)
    return [*argv[:i], token, *argv[i + 1:]]


def delete(argv, at, token):
    i = at % len(argv)
    return [*argv[:i], *argv[i + 1:]]


MUTATIONS = [split_equals, abbreviate, separate_value, repeat, global_after_command, insert, replace, delete]
TOKENS = st.sampled_from([
    "-h", "--help", "--", "-3", "-0", "-12", "-x", "-", "- t", "-t + 1", "-1e3", "-1.5", "-²", "-٣",
    "a b",
    "", "x", "07", " 5", "5_0", "+5", "--seed", "--seed=x", "--seed=-4", "--field", "bogus",
    "--field=bogus", "--field=equal", "--k", "--k=x", "--k=-2", "--count", "--count=3", "12",
    "--prime", "--prime=7", "--series", "--series=-t", "--series=", "--literature",
    "--literature=1", "--rank2", "--window=-3:3", "--window", "--precision", "--pr", "--se",
    "--ser", "--wind", "eval", "oracle", "sample", "minplus", "seminorm", "classify",
    "bogus-command", "--mod", "--target", "--target=", "--partial-sum=-1", "--partial",
])
VALID = st.builds(lambda g, c: [*g, *c], GLOBAL, COMMANDS)
MUTATED = st.builds(
    lambda argv, steps: _apply(argv, steps),
    VALID,
    st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 63), TOKENS),
             min_size=1, max_size=3),
)


def _apply(argv, steps):
    for mutation, at, token in steps:
        argv = mutation(argv, at, token) if argv else [token]
    return argv


@settings(max_examples=300, deadline=None)
@given(VALID)
def test_reader_serves_valid_argv_as_the_reference_does(argv):
    got = cli._read_argv(argv)
    values = [arg.partition("=")[2] for arg in argv if arg.startswith("--") and "=" in arg]
    if "--" in values:  # see test_an_equals_value_of_two_dashes_is_left_to_argparse
        assert got is None
        return
    assert got is not None, argv
    assert vars(got) == reference(argv)[0]
    # the same request with "--flag value" in place of "--flag=value"
    spaced = cli._read_argv(split_equals(argv, 0, ""))
    if all(not v.startswith("-") or (v[1:].isdigit() and v.isascii()) for v in values):
        assert vars(spaced) == vars(got)
    else:
        assert spaced is None


@settings(max_examples=1500, deadline=None)
@given(MUTATED)
def test_reader_declines_or_agrees_with_the_reference(argv):
    got = cli._read_argv(argv)
    if got is not None:
        assert vars(got) == reference(argv)[0], argv


DASHED = ["-3", "-0", "-007", "-", "--", "-x", "-t + 1", "- t", "-1e3", "-1.5", "-3:3", "-²", "-٣"]


@pytest.mark.parametrize("value", DASHED)
@pytest.mark.parametrize("argv", [
    ["--prime", "5", "eval", "--series", "{}"],
    ["--prime", "5", "eval", "--series", "1", "--partial-sum", "{}"],
    ["--prime", "{}", "eval", "--series", "1"],
    ["--prime", "5", "--window", "{}", "oracle", "minplus", "--a", "O{{t}}", "--b", "O{{t}}",
     "--k", "0"],
], ids=lambda argv: " ".join(argv)[:40])
def test_separate_values_that_start_with_a_dash(argv, value):
    """Only ``-<digits>`` is read as a separate value by both parsers."""
    argv = [value if arg == "{}" else arg for arg in argv]
    got = cli._read_argv(argv)
    if value[1:].isascii() and value[1:].isdigit():
        assert vars(got) == reference(argv)[0]
    else:
        assert got is None


def test_an_equals_value_of_two_dashes_is_left_to_argparse():
    """Some argparse versions drop ``--`` from ``--series=--``."""
    assert cli._read_argv(["--prime", "5", "eval", "--series=--"]) is None


# -- --help and usage errors through cli.main ---------------------------------

COMMAND_NAMES = [
    "eval", "norm", "classify", "polar", "pseudo-polar", "pair", "product-bound",
    "dual-norm", "valuation", "oracle",
]
HELP = [
    ["--help"],
    ["-h"],
    ["--prime", "5", "--help"],
    *(["--prime", "5", name, "--help"] for name in COMMAND_NAMES),
    *(["--prime", "5", "oracle", name, "-h"] for name in ("sample", "minplus", "seminorm")),
    ["--prime", "5", "eval", "--series", "1", "--he"],
]
USAGE_ERRORS = [
    [],
    ["--prime", "5"],
    ["--prime"],
    ["--prime", "x", "eval", "--series", "1"],
    ["--prime", "-", "eval", "--series", "1"],
    ["eval", "--series", "1"],
    ["--prime", "5", "eval"],
    ["--prime", "5", "bogus"],
    ["--prime", "5", "oracle"],
    ["--prime", "5", "oracle", "bogus"],
    ["--prime", "5", "--field", "bogus", "eval", "--series", "1"],
    ["--prime", "5", "--seed", "1.5", "eval", "--series", "1"],
    ["--prime", "5", "--window", "-3:3", "eval", "--series", "1"],
    ["--prime", "5", "--pr", "3", "eval", "--series", "1"],
    ["--prime", "5", "eval", "--series", "1", "--prime", "5"],
    ["--prime", "5", "eval", "--series", "-t"],
    ["--prime", "5", "eval", "--series", "1", "--partial-sum", "x"],
    ["--prime", "5", "eval", "--series", "1", "extra"],
    ["--prime", "5", "eval", "--", "--series", "1"],
    ["--prime", "5", "classify", "--module", "O{{t}}", "--literature=yes"],
    ["--prime", "5", "valuation", "--series"],
    ["--prime", "5", "oracle", "minplus", "--a", "O{{t}}", "--b", "O{{t}}"],
    ["--prime", "5", "oracle", "minplus", "--a", "O{{t}}", "--b", "O{{t}}", "--k", "1e3"],
    ["--prime", "5", "oracle", "sample", "--module", "O{{t}}", "--count"],
    ["--prime", "9" * 5000, "eval", "--series", "1"],
]


@pytest.mark.parametrize("argv", HELP + USAGE_ERRORS, ids=lambda argv: " ".join(argv)[:60])
def test_main_prints_what_the_reference_parser_prints(argv):
    assert cli._read_argv(argv) is None
    ns, code, out, err = reference(argv)
    assert ns is None and code in (0, 2)
    got_out, got_err = io.StringIO(), io.StringIO()
    with redirect_stdout(got_out), redirect_stderr(got_err):
        got = cli.main(argv)
    assert (got, got_out.getvalue(), got_err.getvalue()) == (code, out, err)
    assert (out != "") == (code == 0)


def test_abbreviated_flags_still_reach_argparse(capsys):
    assert cli._read_argv(["--pri", "5", "eval", "--ser", "1 + t"]) is None
    assert cli.main(["--pri", "5", "eval", "--ser", "1 + t"]) == 0
    abbreviated = capsys.readouterr()
    assert cli.main(["--prime", "5", "eval", "--series", "1 + t"]) == 0
    assert capsys.readouterr() == abbreviated


def test_built_parser_is_the_reference_grammar():
    built = cli.build_parser()
    assert built.format_help() == REFERENCE.format_help()
    assert built.format_usage() == REFERENCE.format_usage()


# -- start-up -----------------------------------------------------------------


def test_a_valid_request_loads_no_argparse():
    """``python -I`` serves a request without importing ``argparse``,
    ``gettext`` or ``locale``."""
    src = str(Path(tdlf.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from tdlf import cli; "
        "rc = cli.main(['--prime', '5', 'eval', '--series', '1 + t']); "
        "print(rc, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), file=sys.stderr)"
    )
    env = {k: v for k, v in os.environ.items() if k != "TDLF_PRECISION"}
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.stderr == "0 []\n"
    assert proc.stdout.startswith('{"coeffs":')
