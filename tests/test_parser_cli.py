import json
import math

import pytest

from tdlf import (
    EqualCharSeries,
    MixedSeries,
    PAdic,
    ParseError,
    parse_series,
    render_series,
)
from tdlf.cli import main
from tdlf.series import LeftValBound, RightValBound, ZeroTail
from tdlf.series import series_from_json
from helpers import PRIME, rand_equal_series, rng

P = PRIME


class TestParse:
    def test_mixed_literal(self):
        x = parse_series("p^2*t^-1 + t", P)
        assert isinstance(x, MixedSeries)
        assert x.coeff(-1) == PAdic.pi_power(P, 2)
        assert x.coeff(1) == PAdic.pi_power(P, 0)
        assert isinstance(x.left, ZeroTail) and isinstance(x.right, ZeroTail)

    def test_equal_literal_with_truncation(self):
        x = parse_series("1 + t + O(t^6)", P)
        assert isinstance(x, EqualCharSeries)
        assert x.trunc == 6
        assert x.coeff(0) == PAdic.from_int(1, P)

    def test_division_by_p(self):
        x = parse_series("t^-3/p", P)
        assert x.coeff(-3).val == -1

    def test_negative_terms(self):
        x = parse_series("1 - t", P)
        assert x.coeff(1) == -PAdic.from_int(1, P)

    def test_rational_coefficient(self):
        x = parse_series("7/3", P)
        y = x.coeff(0) * PAdic.from_int(3, P)
        assert (y - PAdic.from_int(7, P)).is_zero_within_precision

    def test_denominator_divisible_by_p_rejected(self):
        with pytest.raises(ParseError, match="denominator"):
            parse_series("1/10", P)

    def test_double_caret_positions(self):
        with pytest.raises(ParseError) as err:
            parse_series("t^^2", P)
        assert err.value.column == 2

    def test_tail_marks(self):
        x = parse_series("1 + tail(v>=3)", P)
        assert isinstance(x.right, RightValBound) and x.right.floor == 3
        y = parse_series("1 + tail(v>=0, left: 2, 1)", P)
        assert y.left == LeftValBound(2, 1)
        z = parse_series("1 + tail(left: 1, 0)", P)
        assert z.left == LeftValBound(1, 0) and isinstance(z.right, ZeroTail)

    def test_field_flag_forces_kind(self):
        x = parse_series("1 + t", P, field="equal")
        assert isinstance(x, EqualCharSeries)
        with pytest.raises(ParseError):
            parse_series("1 + O(t^3)", P, field="mixed")

    def test_implicit_star(self):
        x = parse_series("3t^2", P)
        assert x.coeff(2) == PAdic.from_int(3, P)

    def test_merging_repeated_exponents(self):
        x = parse_series("t + t", P)
        assert x.coeff(1) == PAdic.from_int(2, P)


class TestRender:
    @staticmethod
    def literal_mixed(r):
        # literals carry no window extent, so build on the coefficient hull
        from helpers import rand_coeff

        coeffs = {i: rand_coeff(r) for i in range(-4, 5) if r.below(3) == 0}
        left = LeftValBound(r.randint(1, 3), r.randint(-4, 4)) if r.below(2) else ZeroTail()
        right = RightValBound(r.randint(-4, 4)) if r.below(2) else ZeroTail()
        return MixedSeries.from_coeffs(P, coeffs, left=left, right=right)

    def test_round_trip_mixed(self):
        r = rng(91)
        for _ in range(60):
            x = self.literal_mixed(r)
            assert parse_series(render_series(x), P) == x

    def test_round_trip_equal(self):
        r = rng(92)
        for _ in range(60):
            x = rand_equal_series(r)
            assert parse_series(render_series(x), P, field="equal") == x

    def test_zero(self):
        assert parse_series(render_series(MixedSeries.zero(P)), P) == MixedSeries.zero(P)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_norm_example(self, capsys):
        code, out = run_cli(
            capsys,
            "--prime", "5", "norm",
            "--series", "t^-3/p",
            "--seminorm",
            '{"window":{},"left":{"kind":"const","value":0},'
            '"right":{"kind":"const","value":"-inf"},"field":"mixed"}',
        )
        assert code == 0
        assert json.loads(out) == {"exponent": 1, "exact": True}

    def test_pseudo_polar_named(self, capsys):
        code, out = run_cli(capsys, "--prime", "5", "pseudo-polar", "--module", "O{{t}}")
        assert code == 0
        doc = json.loads(out)
        assert doc["window"] == {"0": 1}
        assert doc["left"] == {"kind": "const", "value": 1}

    def test_classify_fixture(self, capsys):
        code, out = run_cli(capsys, "--prime", "5", "classify", "--module", "O{{t}}")
        assert code == 0
        assert json.loads(out) == {
            "open_lattice": False,
            "bounded": True,
            "compactoid": False,
        }

    def test_classify_literature_flags(self, capsys):
        code, out = run_cli(
            capsys, "--prime", "5", "classify", "--module", "K[[t]]", "--literature"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["c_compact"] is True and doc["compactoid"] is False

    def test_eval_product(self, capsys):
        code, out = run_cli(
            capsys, "--prime", "5", "eval", "--series", "1 + t", "--times", "1 - t"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "mixed" and "2" in doc["coeffs"]

    def test_pair(self, capsys):
        code, out = run_cli(capsys, "--prime", "5", "pair", "--x", "t^-1", "--y", "2*t")
        assert code == 0
        assert json.loads(out)["digits"][0] == 2

    def test_dual_norm(self, capsys):
        code, out = run_cli(capsys, "--prime", "5", "dual-norm", "--module", "p{{t}}")
        assert code == 4  # bounded but not compactoid

    def test_valuation_rank2(self, capsys):
        code, out = run_cli(
            capsys, "--prime", "5", "valuation", "--series", "p^2*t^-1 + t", "--rank2"
        )
        assert code == 0
        assert json.loads(out) == {"v1": 0, "v2": 1}

    def test_exit_codes(self, capsys):
        assert run_cli(capsys, "--prime", "5", "eval", "--series", "t^^2")[0] == 2
        assert (
            run_cli(capsys, "--prime", "5", "classify", "--module", "missing")[0] == 5
        )
        assert run_cli(capsys, "--prime", "4", "classify", "--module", "O{{t}}")[0] == 2
        code, _ = run_cli(
            capsys, "--prime", "5", "norm",
            "--series", "1 + O(t^2)",
            "--seminorm",
            '{"window":{"3":0},"left":{"kind":"const","value":"-inf"},'
            '"right":{"kind":"const","value":"-inf"},"field":"equal"}',
        )
        assert code == 3  # truncation below the last weighted index
        code, _ = run_cli(
            capsys, "--prime", "5", "norm",
            "--series", "1",
            "--seminorm",
            '{"window":{"0":0},"left":{"kind":"const","value":0},'
            '"right":{"kind":"const","value":0},"field":"mixed"}',
        )
        assert code == 4  # weights do not tend to -inf

    def test_product_bound(self, capsys):
        code, out = run_cli(
            capsys, "--prime", "5", "product-bound", "--a", "O{{t}}", "--b", "O{{t}}"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["window"] == {"0": 0}

    def test_oracle_commands_deterministic(self, capsys):
        args = (
            "--prime", "5", "--seed", "3", "oracle", "sample",
            "--module", "rank2_mixed", "--count", "6",
        )
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_series_input(self, capsys):
        _, rendered = run_cli(capsys, "--prime", "5", "eval", "--series", "p*t^-1")
        code, out = run_cli(capsys, "--prime", "5", "eval", "--series", rendered.strip())
        assert code == 0
        assert out == rendered

    def test_json_module_input(self, capsys):
        from tdlf import named

        doc = json.dumps(named("O{{t}}").to_json())
        code, out = run_cli(capsys, "--prime", "5", "classify", "--module", doc)
        assert code == 0
        assert json.loads(out)["bounded"] is True

    def test_named_modules_round_trip_as_json(self):
        from tdlf import SubmoduleSpec, named, named_module_names

        for name in named_module_names():
            m = named(name)
            assert SubmoduleSpec.from_json(m.to_json()) == m


TAIL0 = '{"kind":"const","value":0}'


class TestInputErrors:
    def test_argparse_errors_return_instead_of_exiting(self, capsys):
        assert main(["--bogus"]) == 2
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_primality_is_exact_and_fast(self):
        from tdlf.cli import _is_prime

        def trial(n):
            return n > 1 and all(n % f for f in range(2, int(n**0.5) + 1))

        assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
        for prime in (2**31 - 1, 2**61 - 1, 2**89 - 1):
            assert _is_prime(prime)
        # strong pseudoprimes to bases 2..7, 2..23 and 2..37
        for composite in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not _is_prime(composite)

    def test_prime_beyond_the_certified_range(self, capsys):
        assert main(["--prime", str(2**89 - 1), "valuation", "--series", "t"]) == 2
        assert "--prime must be below" in capsys.readouterr().err
        assert main(["--prime", str(2**61 - 1), "valuation", "--series", "t"]) == 0

    def test_module_missing_a_tail(self, capsys):
        module = '{"window":{},"left":' + TAIL0 + "}"
        assert main(["--prime", "5", "classify", "--module", module]) == 2
        assert "missing key 'right'" in capsys.readouterr().err

    def test_series_missing_its_prime(self, capsys):
        assert main(["--prime", "5", "eval", "--series", '{"kind":"mixed"}']) == 2
        assert "missing key 'prime'" in capsys.readouterr().err

    def test_unknown_field_kind(self, capsys):
        module = '{"window":{},"left":' + TAIL0 + ',"right":' + TAIL0 + ',"field":"bogus"}'
        assert main(["--prime", "5", "classify", "--module", module]) == 2
        assert "bad key 'field'" in capsys.readouterr().err

    def test_library_parsers_raise_parse_error(self):
        from tdlf import SeminormSpec, SeqSpec, SubmoduleSpec, series_from_json

        spec = {"window": {}, "left": {"kind": "const", "value": 0}}
        with pytest.raises(ParseError, match="missing key 'right'"):
            SeqSpec.from_json(spec)
        spec["right"] = {"kind": "wavy"}
        with pytest.raises(ParseError, match="bad key 'right'"):
            SeqSpec.from_json(spec)
        spec["right"] = spec["left"]
        with pytest.raises(ParseError, match="bad key 'window'"):
            SeqSpec.from_json(dict(spec, window={"0": 1, "2": 1}))
        for cls in (SeminormSpec, SubmoduleSpec):
            with pytest.raises(ParseError, match="missing key 'field'"):
                cls.from_json(spec)
            with pytest.raises(ParseError, match="bad key 'field'"):
                cls.from_json(dict(spec, field="bogus"))
        with pytest.raises(ParseError, match="missing key 'prime'"):
            series_from_json({"kind": "mixed"})
        with pytest.raises(ParseError, match="bad key 'kind'"):
            series_from_json({"kind": "odd", "prime": 5})
        with pytest.raises(ParseError, match="expected a JSON object"):
            series_from_json([1])


class TestPrecisionEnvironment:
    ARGV = ["--prime", "5", "eval", "--series", "1/3 + t"]

    def test_read_on_every_call(self, monkeypatch, capsys):
        for prec in (7, 40, 7):
            monkeypatch.setenv("TDLF_PRECISION", str(prec))
            assert main(self.ARGV) == 0
            assert json.loads(capsys.readouterr().out)["coeffs"]["0"]["precision"] == prec
        monkeypatch.delenv("TDLF_PRECISION")
        assert main(self.ARGV) == 0
        assert json.loads(capsys.readouterr().out)["coeffs"]["0"]["precision"] == 32

    def test_bad_value_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("TDLF_PRECISION", "abc")
        assert main(self.ARGV) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: TDLF_PRECISION must be an integer, got 'abc'\n"
        # an explicit --precision never reads it
        assert main(["--prime", "5", "--precision", "9", "eval", "--series", "1/3 + t"]) == 0
        assert json.loads(capsys.readouterr().out)["coeffs"]["0"]["precision"] == 9

    def test_bad_value_from_the_shell(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ, TDLF_PRECISION="abc")
        cmd = [sys.executable, "-m", "tdlf.cli", "--prime", "5", "valuation", "--series", "t"]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_help_bytes_do_not_depend_on_the_environment(self, monkeypatch, capsys):
        from tdlf.cli import build_parser

        pages = []
        for env in ("7", "abc", "32"):
            monkeypatch.setenv("TDLF_PRECISION", env)
            for argv in (["--help"], ["--prime", "5", "eval", "--help"]):
                assert main(argv) == 0
                pages.append(capsys.readouterr().out)
        assert pages[0] == pages[2] == pages[4] == build_parser().format_help()
        assert pages[1] == pages[3] == pages[5]

    def test_parser_is_built_once(self):
        from tdlf import cli

        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()


class TestLibraryPrimes:
    def test_parse_series_rejects_composite_primes(self):
        for prime in (6, 4, 1, 0, 3215031751):
            with pytest.raises(ParseError, match="is not a prime"):
                parse_series("t+3", prime)
        with pytest.raises(ParseError, match="is not below"):
            parse_series("t", 2**89 - 1)
        assert parse_series("t+3", 2**61 - 1).prime == 2**61 - 1

    def test_json_series_and_coefficients_reject_composite_primes(self):
        from tdlf import series_from_json

        good = parse_series("1 + 2*t", 5).to_json()
        assert series_from_json(good) == parse_series("1 + 2*t", 5)
        with pytest.raises(ParseError, match="4 is not a prime"):
            series_from_json(dict(good, prime=4))
        coeff = dict(good["coeffs"]["0"], prime=9)
        with pytest.raises(ParseError, match="9 is not a prime"):
            PAdic.from_json(coeff)
        with pytest.raises(ParseError, match="9 is not a prime"):
            series_from_json(dict(good, coeffs={"0": coeff}))

    def test_cli_messages_for_prime_are_unchanged(self, capsys):
        assert main(["--prime", "6", "valuation", "--series", "t"]) == 2
        assert capsys.readouterr().err == "error: --prime 6 is not prime\n"
        series = json.dumps(dict(parse_series("t", 5).to_json(), prime=4))
        assert main(["--prime", "5", "valuation", "--series", series]) == 2
        assert "4 is not a prime" in capsys.readouterr().err


def _bent(field, value):
    """A one-coefficient mixed series with one field replaced by ``value``;
    ``field`` names a top-level key, ``left.slope`` or ``coeff.digits``."""
    coeff = {"prime": 5, "valuation": 0, "digits": [1, 2], "precision": 2}
    doc = {"kind": "mixed", "prime": 5, "lo": 0, "hi": 0, "coeffs": {"0": coeff},
           "left": {"kind": "valbound", "slope": 1, "base": 0}, "right": {"kind": "zero"}}
    if "." in field:
        outer, inner = field.split(".")
        (coeff if outer == "coeff" else doc[outer])[inner] = value
    else:
        doc[field] = value
    return json.dumps(doc)


class TestJsonIntegers:
    """Integer fields of JSON input take JSON integers only, and p-adic
    digits lie in ``[0, p)``, at most ``precision - valuation`` of them."""

    CASES = {
        "prime Infinity": ("prime", math.inf, "bad key 'prime': expected an integer"),
        "slope Infinity": ("left.slope", math.inf, "bad key 'left': expected an integer"),
        "prime 5.9": ("prime", 5.9, "bad key 'prime': expected an integer"),
        "lo 0.5": ("lo", 0.5, "bad key 'lo': expected an integer"),
        "digit 7": ("coeff.digits", [7], "7 is not a base-5 digit"),
        "digit -1": ("coeff.digits", [-1, 1], "-1 is not a base-5 digit"),
        "digits string": ("coeff.digits", "12", "bad key 'digits': expected a list"),
        "too many digits": ("coeff.digits", [1, 2, 3], "3 digits for relative precision 2"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_2_without_traceback(self, case, capsys):
        field, value, message = self.CASES[case]
        assert main(["--prime", "5", "eval", "--series", _bent(field, value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err
        with pytest.raises(ParseError, match=message):
            series_from_json(json.loads(_bent(field, value)))

    def test_valid_fields_still_read(self, capsys):
        for field, value in (("prime", 5), ("left.slope", 2), ("lo", -1), ("coeff.digits", [4, 4])):
            assert main(["--prime", "5", "eval", "--series", _bent(field, value)]) == 0
            assert json.loads(capsys.readouterr().out) == series_from_json(
                json.loads(_bent(field, value))).to_json()

    def test_coefficient_reader_alone(self):
        good = {"prime": 5, "valuation": 1, "digits": [3, 4], "precision": 3}
        assert PAdic.from_json(good) == PAdic.make(5, 1, 23, 3)
        for key, value in (("digits", [5]), ("digits", [True]), ("digits", [1, 2, 3]),
                           ("prime", 5.0), ("prime", "5")):
            with pytest.raises(ParseError, match=f"bad key '{key}'"):
                PAdic.from_json(dict(good, **{key: value}))
        zero = {"prime": 5, "valuation": "+inf", "digits": [], "precision": "+inf"}
        assert PAdic.from_json(zero) == PAdic.zero(5)

    def test_infinity_from_the_shell(self):
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "tdlf.cli", "--prime", "5", "eval",
               "--series", _bent("prime", math.inf)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_dividing_by_t_is_refused():
    with pytest.raises(ParseError, match="cannot divide by t"):
        parse_series("2/t", PRIME)


def test_a_tail_mark_is_refused_for_a_laurent_series():
    with pytest.raises(ParseError, match="tail\\(\\.\\.\\.\\) marks a mixed series"):
        parse_series("1 + tail(v>=0)", PRIME, field="equal")


def test_render_refuses_a_zero_within_precision_coefficient():
    x = MixedSeries.from_coeffs(PRIME, {0: PAdic.zero_mod(PRIME, 2), 1: PAdic.one(PRIME)})
    with pytest.raises(ValueError, match="zero-within-precision"):
        render_series(x)


def test_render_marks_a_truncated_laurent_series():
    x = EqualCharSeries.from_coeffs(PRIME, {0: PAdic.one(PRIME), 2: PAdic.one(PRIME)}, trunc=5)
    assert render_series(x) == "1 + t^2 + O(t^5)"
    assert parse_series(render_series(x), PRIME) == x
