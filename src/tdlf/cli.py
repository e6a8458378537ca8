"""Command-line calculator for the series-field toolkit.

Every command reads literals or JSON, runs one public operation and prints
a single canonical JSON document (sorted keys, no floating point) so that
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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

EXIT_PARSE = 2
EXIT_PRECISION = 3
EXIT_ADMISSIBILITY = 4
EXIT_UNKNOWN_NAME = 5

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
    if args.oracle_cmd == "seminorm":
        spec = _load_seminorm(args.spec)
        args.field = spec.field_kind
        x = _load_series(args.series, args)
        return {"exponent": oracle.brute_seminorm(spec, x, args.window).to_json()}
    raise ParseError(f"unknown oracle subcommand {args.oracle_cmd!r}")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tdlf",
        description="Exact calculator for locally convex structure on "
        "two-dimensional local fields.",
    )
    top.add_argument("--prime", type=int, required=True, help="residue characteristic p")
    top.add_argument(
        "--precision",
        type=int,
        default=None,  # main reads TDLF_PRECISION, then 32, on every call
        help="relative p-adic precision for parsed literals (default 32)",
    )
    top.add_argument(
        "--window",
        default="-20:20",  # main reads it with _parse_window
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
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("norm", help="evaluate an admissible seminorm")
    p.add_argument("--series", required=True)
    p.add_argument("--seminorm", required=True, help="seminorm spec as JSON")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("classify", help="open lattice / bounded / compactoid flags")
    p.add_argument("--module", required=True, help="named module or JSON")
    p.add_argument("--literature", action="store_true", help="include literature-sourced flags")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("polar", help="polar of a submodule")
    p.add_argument("--module", required=True)
    p.set_defaults(func=_cmd_polar)

    p = sub.add_parser("pseudo-polar", help="pseudo-polar of a submodule")
    p.add_argument("--module", required=True)
    p.set_defaults(func=_cmd_pseudo_polar)

    p = sub.add_parser("pair", help="the t^0 pairing of two series")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--target", type=int, default=None)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("product-bound", help="min-plus bound for a module product")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_product_bound)

    p = sub.add_parser("dual-norm", help="dual seminorm of a module")
    p.add_argument("--module", required=True)
    p.set_defaults(func=_cmd_dual_norm)

    p = sub.add_parser("valuation", help="discrete or rank-two valuation")
    p.add_argument("--series", required=True)
    p.add_argument("--rank2", action="store_true")
    p.set_defaults(func=_cmd_valuation)

    p = sub.add_parser("oracle", help="brute-force reference computations")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("sample", help="deterministic elements of a module")
    q.add_argument("--module", required=True)
    q.add_argument("--count", type=int, default=10)
    q.set_defaults(func=_cmd_oracle)
    q = osub.add_parser("minplus", help="enumerated min-plus convolution value")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(func=_cmd_oracle)
    q = osub.add_parser("seminorm", help="enumerated seminorm value")
    q.add_argument("--spec", required=True)
    q.add_argument("--series", required=True)
    q.set_defaults(func=_cmd_oracle)

    return top


# parsing does not change a parser, so one per process serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits after --help (0) and on bad arguments (2)
        return exc.code
    if args.precision is None:
        env = os.environ.get("TDLF_PRECISION", "32")
        try:
            args.precision = int(env)
        except ValueError:
            print(f"error: TDLF_PRECISION must be an integer, got {env!r}", file=sys.stderr)
            return EXIT_PARSE
    if args.prime >= PRIME_LIMIT:
        print(f"error: --prime must be below {PRIME_LIMIT}", file=sys.stderr)
        return EXIT_PARSE
    if not _is_prime(args.prime):
        print(f"error: --prime {args.prime} is not prime", file=sys.stderr)
        return EXIT_PARSE
    try:
        check_precision(args.precision)
        args.window = _parse_window(args.window)
        result = args.func(args)
    # a bad input or --window, or a request that needs different input
    except (ParseError, KindMismatch, IncompatiblePrimes, ValueError, WindowInsufficient,
            ZeroElement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PrecisionExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (NonAdmissibleSequence, NotCompactoid, NotBounded, NonConvergentValues) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except UnknownName as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    except TdlfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_dump(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
