"""Series JSON tails read only the kinds ``zero`` and ``valbound``; any other
kind is a ``ParseError`` naming the key, and the CLI exits 2."""

import json

import pytest

from tdlf import ParseError
from tdlf.cli import main
from tdlf.series import LeftValBound, RightValBound, ZeroTail, series_from_json


def mixed(left, right):
    return {"kind": "mixed", "prime": 5, "lo": 0, "hi": 1,
            "coeffs": {"0": {"prime": 5, "valuation": 0, "digits": [1], "precision": 4}},
            "left": left, "right": right}


ZERO = {"kind": "zero"}
BAD_KINDS = ("bogus", "Zero", "const", "", None, 3, ["zero"])


@pytest.mark.parametrize("kind", BAD_KINDS)
@pytest.mark.parametrize("side", ("left", "right"))
def test_unknown_kind(side, kind, capsys):
    tail = {"kind": kind, "slope": 1, "base": 0, "floor": 3}
    obj = mixed(tail, ZERO) if side == "left" else mixed(ZERO, tail)
    with pytest.raises(ParseError, match=f"bad key '{side}': unknown tail kind"):
        series_from_json(obj)
    assert main(["--prime", "5", "eval", "--series", json.dumps(obj)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad key '{side}': unknown tail kind")
    assert "Traceback" not in captured.err


def test_known_kinds_still_read():
    x = series_from_json(mixed({"kind": "valbound", "slope": 2, "base": 1},
                               {"kind": "valbound", "floor": 3}))
    assert x.left == LeftValBound(2, 1) and x.right == RightValBound(3)
    y = series_from_json(mixed(ZERO, ZERO))
    assert y.left == ZeroTail() and y.right == ZeroTail()
    for s in (x, y):
        assert series_from_json(s.to_json()) == s
