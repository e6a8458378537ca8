"""``cli.main`` under random argv: every command and subcommand, fed grammar
literals, JSON documents with one field replaced and flag values in and out
of range.  Each call must return an exit code the README documents, let no
exception escape and finish within a per-example deadline far above the few
milliseconds an example takes, so that only a hang fails it."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_json_fuzz as json_fuzz
from helpers import rand_coeff, reference_mul, rng
from tdlf import EqualCharSeries, LeftValBound, MixedSeries, PAdic, RightValBound, ZeroTail, cli, mul
from tdlf import padic as padic_module
from tdlf import parser as parser_module
from tdlf import series as series_module
from tdlf.padic import DEFAULT_RELATIVE_PRECISION
from tdlf.seqspec import MAX_INDEX
from tdlf.submodule import named, named_module_names

P = 5

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}


def in_or_out(inside, outside):
    """A value of ``inside``, drawn three times as often as one of ``outside``."""
    return st.sampled_from([*inside, *inside, *inside, *outside])


def req(name, values):
    # "--name=value", so that argparse reads a value such as "-3:3" or
    # "- t" as a value, not as a flag
    return values.map(lambda v: [f"{name}={v}"])


def flag(name, values):
    """``[]`` or ``[name, value]``."""
    return st.just([]) | req(name, values)


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [*name.split(), *(x for p in ps for x in p)])


# -- grammar literals ---------------------------------------------------------

COEFF = st.sampled_from(
    ["0", "1", "2", "7", "25", "1/3", "2/7", "3/5", "p", "p^2", "p^-1", "3*p^2", "p^100000000"]
)
EXP = in_or_out([*range(-6, 7), 60, -60], [10_001, -10_001, 10**6])
TERM = COEFF | st.builds("{}*t^{}".format, COEFF, EXP) | st.builds("t^{}".format, EXP)
MARK = st.sampled_from(
    ["", " + O(t^4)", " + O(t^-2)", " + tail(v>=0)", " + tail(v>=1, left: 2, 0)",
     " + tail(left: 1, -3)", " + tail(left: 0, 1)", " + tail(v>=-100000000)"]
) | st.builds(" + O(t^{})".format, EXP)
GRAMMAR = st.builds(
    lambda terms, mark: " - ".join(terms) + mark, st.lists(TERM, min_size=1, max_size=3), MARK
)
LITERAL = GRAMMAR | GRAMMAR | GRAMMAR | st.text(alphabet="0123456789pt^*/+-O()v>=,left: ",
                                                max_size=16)

# -- JSON documents, one field replaced ---------------------------------------


def one_field_replaced(docs):
    cases = [(doc, path) for doc in docs for path in json_fuzz.paths(doc)]
    return st.builds(
        lambda case, value: json.dumps(json_fuzz.replaced(*case, value)),
        st.sampled_from(cases),
        json_fuzz.EDGES | json_fuzz.JSON,
    )


def documents(docs):
    return st.sampled_from([json.dumps(d) for d in docs]) | one_field_replaced(docs)


MODULE_DOCS = [named(name).to_json() for name in named_module_names()]
SEMINORM_DOCS = [
    {"window": {"0": 0}, "left": {"kind": "const", "value": 0},
     "right": {"kind": "const", "value": "-inf"}, "field": "mixed"},
    {"window": {"-1": 2, "0": 0}, "left": {"kind": "affine", "slope": 0, "offset": 1},
     "right": {"kind": "affine", "slope": -2, "offset": 0}, "field": "mixed"},
    {"window": {"0": 0, "1": -1}, "left": {"kind": "const", "value": 3},
     "right": {"kind": "const", "value": "-inf"}, "field": "equal"},
]

SERIES = LITERAL | documents(json_fuzz.DOCS)
MODULE = st.sampled_from([*named_module_names(), "Z[[t]]", ""]) | documents(MODULE_DOCS)
SEMINORM = documents(SEMINORM_DOCS)

# -- flag values in and out of range ------------------------------------------

INDEX = in_or_out(["0", "1", "-3", "5", "60", "-60"], ["10001", "-10001", "100000000"])
TARGET = st.sampled_from(["0", "5", "40", "-3", "1000000"])
COUNT = in_or_out(["0", "1", "3", "12"], ["13", "-1", "100000000"])
GLOBAL = st.builds(
    lambda *parts: [x for part in parts for x in part],
    req("--prime", in_or_out(["5", "2", "3", "7"], ["4", "1", "-5", str(10**30)])),
    flag("--precision", in_or_out(["1", "2", "32", "200"], ["0", "-3", "10001", "100000000"])),
    flag("--window", in_or_out(["-20:20", "0:0", "7:7", "-50:50"], ["3", "3:1", "-50:51", "a:b"])),
    flag("--seed", st.sampled_from(["0", "1", "99", "-1"])),
    flag("--field", st.sampled_from(["equal", "mixed"])),
)

COMMANDS = st.one_of(
    command("eval", req("--series", SERIES), flag("--plus", SERIES)),
    command("eval", req("--series", SERIES), req("--times", SERIES), flag("--target", TARGET)),
    command("eval", req("--series", SERIES), req("--partial-sum", INDEX)),
    command("norm", req("--series", SERIES), req("--seminorm", SEMINORM)),
    command("classify", req("--module", MODULE)),
    command("classify", req("--module", MODULE), st.just(["--literature"])),
    command("polar", req("--module", MODULE)),
    command("pseudo-polar", req("--module", MODULE)),
    command("pair", req("--x", SERIES), req("--y", SERIES), flag("--target", TARGET)),
    command("product-bound", req("--a", MODULE), req("--b", MODULE)),
    command("dual-norm", req("--module", MODULE)),
    command("valuation", req("--series", SERIES)),
    command("valuation", req("--series", SERIES), st.just(["--rank2"])),
    command("oracle sample", req("--module", MODULE), flag("--count", COUNT)),
    command("oracle minplus", req("--a", MODULE), req("--b", MODULE), req("--k", INDEX)),
    command("oracle seminorm", req("--spec", SEMINORM), req("--series", SERIES)),
)


@settings(max_examples=200, deadline=timedelta(seconds=30))
@given(GLOBAL, COMMANDS)
def test_main_exits_with_a_documented_code(global_flags, cmd):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*global_flags, *cmd])
    assert code in DOCUMENTED_EXIT_CODES, (code, err.getvalue())
    assert (code == 0) == (out.getvalue() != ""), err.getvalue()


@pytest.fixture
def largest_power(monkeypatch):
    """Records the largest exponent ``e`` of a ``prime_power(p, e)`` built."""
    built = [0]

    def recording(p, e):
        built[0] = max(built[0], e)
        return pow(p, e)

    for module in (padic_module, series_module):
        monkeypatch.setattr(module, "prime_power", recording)
    return built


# Found by the test above: a sum, and a product, of coefficients whose
# valuations lie far apart built p^d for the whole distance d, so these
# took seconds (minutes for p^100000000).
@pytest.mark.parametrize("argv", [
    ["--prime", "5", "eval", "--series", "p^10000000*t", "--plus", "t"],
    ["--prime", "5", "eval", "--series", "p^-10000000*t", "--plus", "t"],
    ["--prime", "7", "eval", "--series", "t^-6 - p + tail(v>=-10000000)",
     "--plus", "3*t^6 - p^-1 + tail(v>=-10000000)"],
    ["--prime", "7", "eval", "--series", "p^10000000*t^3 - p^10000000 - t^3",
     "--times", "p^10000000*t^3 - p^10000000 - t^3"],
    ["--prime", "7", "eval", "--series", "p^10000000*t^3 - t^3 + tail(v>=0)",
     "--times", "1 + p^-10000000*t"],
])
def test_far_apart_valuations_build_no_far_power(argv, largest_power):
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert largest_power[0] <= 2 * DEFAULT_RELATIVE_PRECISION
    assert json.loads(out.getvalue())["kind"] == "mixed"


def test_a_sum_builds_no_power_beyond_its_precision(largest_power):
    one, far, coarse = PAdic.one(P), PAdic.pi_power(P, 10**7), PAdic.zero_mod(P, -(10**7))
    assert one + far == one == far + one
    assert one + coarse == coarse
    assert largest_power[0] <= 1


def test_spread_product_at_the_index_limit_pairs_nonzero_units_only(monkeypatch):
    """A sum whose right tail is stored as ``2 * MAX_INDEX`` coefficients
    zero within precision, and whose nonzero units spread wider than any
    relative precision: the product multiplies pair by pair, and only the
    pairs of nonzero units, so the stored zeros cost no quadratic walk."""
    x = series_module.add(
        parser_module.parse_series(f"p^100*t^{MAX_INDEX} + tail(left: 1, 0)", P),
        parser_module.parse_series(f"t^-{MAX_INDEX}", P),
    )
    y = parser_module.parse_series("t", P)
    assert len(x.coeffs) > 2 * MAX_INDEX
    coefficient, pairs = series_module._coefficient, []

    def counting(p, ps, rem):
        ps = list(ps)
        pairs.append(len(ps))
        return coefficient(p, ps, rem)

    with monkeypatch.context() as m:
        m.setattr(series_module, "_coefficient", counting)
        pair_by_pair = mul(x, y)
    assert pairs and sum(pairs) == 2
    with monkeypatch.context() as m:
        m.setattr(series_module, "_val_span", lambda xs: 0)
        assert mul(x, y) == pair_by_pair


@pytest.mark.parametrize("kind", ["equal", "mixed"])
def test_products_of_spread_valuations_pair_by_pair(kind, monkeypatch):
    """When the valuations of the factors spread wider than any relative
    precision, ``mul`` multiplies each coefficient's pairs alone; that
    agrees with the one-``PAdic``-at-a-time reference and with the packed
    product it replaces."""
    for seed in range(30):
        r = rng(seed)
        x, y = (spread_series(r, kind) for _ in "xy")
        pair_by_pair = mul(x, y)
        assert pair_by_pair == reference_mul(x, y), seed
        with monkeypatch.context() as m:
            m.setattr(series_module, "_val_span", lambda xs: 0)
            assert mul(x, y) == pair_by_pair, seed


def spread_series(r, kind):
    coeffs = {i: rand_coeff(r, P, vlo=-40, vhi=40) for i in range(-3, 4) if r.below(2)}
    coeffs[0] = rand_coeff(r, P, vlo=-40, vhi=-35)
    coeffs[1] = rand_coeff(r, P, vlo=35, vhi=40)
    if kind == "equal":
        return EqualCharSeries.from_coeffs(P, coeffs, trunc=r.randint(4, 9))
    left = LeftValBound(r.randint(1, 3), r.randint(-50, 50)) if r.below(2) else ZeroTail()
    right = RightValBound(r.randint(-50, 50)) if r.below(2) else ZeroTail()
    return MixedSeries.from_coeffs(P, coeffs, left=left, right=right)
