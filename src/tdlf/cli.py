"""Command-line calculator for the series-field toolkit.

Every command reads literals or JSON, runs one public operation and prints
a single canonical JSON document (sorted keys, no floating point) so that
identical invocations produce identical bytes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import duality, oracle, seminorm, series, submodule
from .errors import (
    IncompatiblePrimes,
    KindMismatch,
    NonAdmissibleSequence,
    NonConvergentValues,
    NotBounded,
    NotCompactoid,
    ParseError,
    PrecisionExhausted,
    TdlfError,
    UnknownName,
    WindowInsufficient,
    ZeroElement,
)
from .padic import PRIME_LIMIT, _is_prime, check_precision
from .parser import parse_series
from .seminorm import SeminormSpec
from .seqspec import check_index
from .series import series_from_json
from .submodule import SubmoduleSpec, named

if TYPE_CHECKING:
    import argparse

EXIT_PARSE = 2
EXIT_PRECISION = 3
EXIT_ADMISSIBILITY = 4
EXIT_UNKNOWN_NAME = 5

# the exit code of each error class, the first that matches; any other
# TdlfError exits 1.  A bad input or --window, or a request that needs
# different input, is a parse error.
_EXIT_CODES = {
    **dict.fromkeys((ParseError, KindMismatch, IncompatiblePrimes, ValueError,
                     WindowInsufficient, ZeroElement), EXIT_PARSE),
    PrecisionExhausted: EXIT_PRECISION,
    **dict.fromkeys((NonAdmissibleSequence, NotCompactoid, NotBounded, NonConvergentValues),
                    EXIT_ADMISSIBILITY),
    UnknownName: EXIT_UNKNOWN_NAME,
}

# limits of the oracle flags; the library functions take any window and count
MAX_WINDOW_WIDTH = 101
MAX_SAMPLE_COUNT = 12

# the objects keyed by index (docs/json-schemas.md)
_INDEX_MAPS = ("window", "coeffs")


def _order(obj: dict, by_index: bool = False) -> dict:
    """Canonical key order: numeric in index maps, alphabetic everywhere
    else, through nested objects and lists of objects."""
    out = {}
    for k in sorted(obj, key=int) if by_index else sorted(obj):
        v = obj[k]
        if isinstance(v, dict):
            v = _order(v, k in _INDEX_MAPS)
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            # output lists hold only objects ("elements") or only digits
            v = [_order(e) for e in v]
        out[k] = v
    return out


def _dump(obj) -> str:
    return json.dumps(_order(obj), separators=(",", ":"))


def _load_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno - 1) from exc


def _load_series(text: str, args) -> series.Series:
    if text.lstrip().startswith("{"):
        return series_from_json(_load_json(text))
    return parse_series(text, args.prime, field=args.field, rel_precision=args.precision)


def _load_module(text: str) -> SubmoduleSpec:
    if text.lstrip().startswith("{"):
        return SubmoduleSpec.from_json(_load_json(text))
    return named(text)


def _load_seminorm(text: str) -> SeminormSpec:
    spec = SeminormSpec.from_json(_load_json(text))
    seminorm.validate(spec)
    return spec


def _parse_window(text: str) -> tuple[int, int]:
    """``lo:hi`` with ``lo <= hi``, at most ``MAX_WINDOW_WIDTH`` indices."""
    try:
        lo, hi = (int(bound) for bound in text.split(":"))
    except ValueError:
        raise ParseError(f"window must look like '-20:20', got {text!r}") from None
    if lo > hi:
        raise ParseError(f"window {text!r} has lo > hi")
    if hi - lo >= MAX_WINDOW_WIDTH:
        raise ParseError(f"window {text!r} holds more than {MAX_WINDOW_WIDTH} indices")
    return lo, hi


# ---------------------------------------------------------------------------
# command handlers


def _cmd_eval(args) -> dict:
    x = _load_series(args.series, args)
    if args.plus is not None:
        x = series.add(x, _load_series(args.plus, args))
    if args.times is not None:
        x = series.mul(x, _load_series(args.times, args), args.target)
    if args.partial_sum is not None:
        x = series.partial_sum(x, check_index(args.partial_sum, "--partial-sum"))
    return x.to_json()


def _cmd_norm(args) -> dict:
    spec = _load_seminorm(args.seminorm)
    args.field = spec.field_kind
    x = _load_series(args.series, args)
    return seminorm.eval_exponent(spec, x).to_json()


def _cmd_classify(args) -> dict:
    stripped = args.module.lstrip()
    if args.literature and not stripped.startswith("{"):
        return submodule.literature_classification(args.module).to_json()
    return submodule.classify(_load_module(args.module)).to_json()


def _cmd_polar(args) -> dict:
    return duality.polar(_load_module(args.module)).canonical().to_json()


def _cmd_pseudo_polar(args) -> dict:
    return duality.pseudo_polar(_load_module(args.module)).canonical().to_json()


def _cmd_pair(args) -> dict:
    x = _load_series(args.x, args)
    y = _load_series(args.y, args)
    return duality.pairing(x, y, args.target).to_json()


def _cmd_product_bound(args) -> dict:
    a = _load_module(args.a)
    b = _load_module(args.b)
    return submodule.product_bound(a, b).canonical().to_json()


def _cmd_dual_norm(args) -> dict:
    return duality.dual_seminorm(_load_module(args.module)).to_json()


def _cmd_valuation(args) -> dict:
    x = _load_series(args.series, args)
    if args.rank2:
        if isinstance(x, series.MixedSeries):
            v1, v2 = series.rank2_mixed(x)
        else:
            v1, v2 = series.rank2_equal(x)
        return {"v1": v1.to_json(), "v2": v2.to_json()}
    if isinstance(x, series.MixedSeries):
        return series.vF_exponent(x).to_json()
    v1, _ = series.rank2_equal(x)
    return {"value": v1.to_json(), "exact": True}


def _cmd_oracle(args) -> dict:
    if args.oracle_cmd == "sample":
        if not 0 <= args.count <= MAX_SAMPLE_COUNT:
            raise ParseError(f"--count {args.count} is not in [0, {MAX_SAMPLE_COUNT}]")
        m = _load_module(args.module)
        cfg = oracle.SampleConfig(
            seed=args.seed, count=args.count, window=args.window, precision=args.precision
        )
        elems = oracle.sample_elements(m, cfg, args.prime)
        return {"elements": [e.to_json() for e in elems]}
    if args.oracle_cmd == "minplus":
        a = _load_module(args.a)
        b = _load_module(args.b)
        value = oracle.brute_minplus(a.seq, b.seq, check_index(args.k, "--k"), args.window)
        return {"k": args.k, "value": value.to_json()}
    spec = _load_seminorm(args.spec)  # the seminorm subcommand
    args.field = spec.field_kind
    x = _load_series(args.series, args)
    return {"exponent": oracle.brute_seminorm(spec, x, args.window).to_json()}


# ---------------------------------------------------------------------------
# the grammar, one table for both readers of argv: _read_argv serves every
# request it can, and build_parser builds argparse from it for the rest


def _flag(name: str, kind=str, default=None, help=None, required=False) -> tuple:
    """``(name, dest, kind, required, default, help)``: ``kind`` is ``int``,
    ``str``, ``bool`` (store-true) or a tuple of choices, and ``dest`` is the
    name as argparse derives it."""
    return name, name[2:].replace("-", "_"), kind, required, default, help


def _node(func, *flags, dest=None, commands=None) -> tuple:
    """``(flags by name, handler, subcommand dest, {name: (help, node)})``."""
    return {f[0]: f for f in flags}, func, dest, commands


_SERIES = _flag("--series", required=True)
_MODULE = _flag("--module", required=True)
_A, _B = _flag("--a", required=True), _flag("--b", required=True)
_GRAMMAR = _node(
    None,
    _flag("--prime", int, help="residue characteristic p", required=True),
    # main reads TDLF_PRECISION, then 32, on every call
    _flag("--precision", int, help="relative p-adic precision for parsed literals (default 32)"),
    # main reads it with _parse_window
    _flag("--window", str, "-20:20", "index window lo:hi for oracle enumeration (default -20:20)"),
    _flag("--seed", int, 0, "sampler seed (default 0)"),
    _flag("--field", ("equal", "mixed"), help="force the field kind of bare series literals"),
    dest="command",
    commands={
        "eval": ("parse and combine series", _node(
            _cmd_eval, _SERIES, _flag("--plus"), _flag("--times"), _flag("--partial-sum", int),
            _flag("--target", int, help="certified precision for --times"))),
        "norm": ("evaluate an admissible seminorm", _node(
            _cmd_norm, _SERIES, _flag("--seminorm", help="seminorm spec as JSON", required=True))),
        "classify": ("open lattice / bounded / compactoid flags", _node(
            _cmd_classify, _flag("--module", help="named module or JSON", required=True),
            _flag("--literature", bool, False, "include literature-sourced flags"))),
        "polar": ("polar of a submodule", _node(_cmd_polar, _MODULE)),
        "pseudo-polar": ("pseudo-polar of a submodule", _node(_cmd_pseudo_polar, _MODULE)),
        "pair": ("the t^0 pairing of two series", _node(
            _cmd_pair, _flag("--x", required=True), _flag("--y", required=True),
            _flag("--target", int))),
        "product-bound": ("min-plus bound for a module product", _node(_cmd_product_bound, _A, _B)),
        "dual-norm": ("dual seminorm of a module", _node(_cmd_dual_norm, _MODULE)),
        "valuation": ("discrete or rank-two valuation", _node(
            _cmd_valuation, _SERIES, _flag("--rank2", bool, False))),
        "oracle": ("brute-force reference computations", _node(None, dest="oracle_cmd", commands={
            "sample": ("deterministic elements of a module", _node(
                _cmd_oracle, _MODULE, _flag("--count", int, 10))),
            "minplus": ("enumerated min-plus convolution value", _node(
                _cmd_oracle, _A, _B, _flag("--k", int, required=True))),
            "seminorm": ("enumerated seminorm value", _node(
                _cmd_oracle, _flag("--spec", required=True), _SERIES)),
        })),
    },
)


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, read off
    ``_GRAMMAR``; ``None``, for argparse to read, unless argv holds only
    exact flags as ``--flag value`` or ``--flag=value``, global flags before
    the command, separate values that start with ``-`` only as ``-<digits>``
    (so no ``-h``, ``--help`` or ``--``), ints that convert and every
    required flag and command."""
    args, node, i = SimpleNamespace(), _GRAMMAR, 0
    while True:
        flags, func, dest, commands = node
        for _, fdest, _, _, default, _ in flags.values():
            setattr(args, fdest, default)
        while i < len(argv) and argv[i].startswith("--"):
            name, eq, value = argv[i].partition("=")
            if name not in flags:
                return None
            _, fdest, kind, _, _, _ = flags[name]
            i += 1
            if kind is bool:
                if eq:
                    return None
                value = True
            elif not eq:
                if i == len(argv):
                    return None
                value = argv[i]
                i += 1
                if value.startswith("-") and not (value[1:].isdigit() and value.isascii()):
                    return None
            elif value == "--":  # argparse drops it from the values it reads
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            elif isinstance(kind, tuple) and value not in kind:
                return None
            setattr(args, fdest, value)
        if any(f[3] and getattr(args, f[1]) is None for f in flags.values()):
            return None
        if not commands:
            args.func = func
            return args if i == len(argv) else None
        if i == len(argv) or argv[i] not in commands:
            return None
        setattr(args, dest, argv[i])
        node = commands[argv[i]][1]
        i += 1


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, so that a request _read_argv serves never loads it

    def build(parser, node) -> None:
        flags, func, dest, commands = node
        for name, fdest, kind, required, default, help in flags.values():
            how = ({"action": "store_true"} if kind is bool
                   else {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            parser.add_argument(name, dest=fdest, required=required, default=default,
                                help=help, **how)
        if func is not None:
            parser.set_defaults(func=func)
        if commands:
            sub = parser.add_subparsers(dest=dest, required=True)
            for name, (help, child) in commands.items():
                build(sub.add_parser(name, help=help), child)

    top = argparse.ArgumentParser(prog="tdlf", description="Exact calculator for locally convex "
                                  "structure on two-dimensional local fields.")
    build(top, _GRAMMAR)
    return top


# parsing does not change a parser, so one per process serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits after --help (0) and on bad arguments (2)
            return exc.code
        # Python 3.11's argparse drops the "--" of --flag=-- and stores []
        for dest, value in vars(args).items():
            if isinstance(value, list):
                print(f"error: argument --{dest.replace('_', '-')}: expected one argument",
                      file=sys.stderr)
                return EXIT_PARSE
    try:
        if args.precision is None:
            env = os.environ.get("TDLF_PRECISION", "32")
            try:
                args.precision = int(env)
            except ValueError:
                raise ParseError(f"TDLF_PRECISION must be an integer, got {env!r}") from None
        if args.prime >= PRIME_LIMIT:
            raise ParseError(f"--prime must be below {PRIME_LIMIT}")
        if not _is_prime(args.prime):
            raise ParseError(f"--prime {args.prime} is not prime")
        check_precision(args.precision)
        args.window = _parse_window(args.window)
        result = args.func(args)
    except (TdlfError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls)), 1)
    print(_dump(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
