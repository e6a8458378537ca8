"""The library's JSON readers under random input: one field of a valid
series encoding is replaced by a random JSON value, and ``series_from_json``
must return a series or raise a ``TdlfError``, never anything else."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from tdlf import EqualCharSeries, MixedSeries, parse_series, series_from_json
from tdlf.errors import TdlfError

LITERALS = (
    ("1 + 2*t", 5),
    ("p^2*t^-1 + 3*t^2 + tail(v>=1, left: 2, 0)", 5),
    ("1/3 + t + O(t^4)", 5),
    ("t^-2 + 7*t + tail(v>=3)", 2),
    ("2 + t^3 + O(t^5)", 7),
)
DOCS = [parse_series(text, p, rel_precision=6).to_json() for text, p in LITERALS]

# values that an int() reading of a field would bend instead of refuse
EDGES = st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.5, 5.9, -1, 0, 1, 7, 2**70, -(2**70), True, False, None,
     "12", "+inf", "-inf", "", [], [7], [-1], {}]
)
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=8,
)


def paths(obj, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from paths(v, prefix + (i,))


def replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = replaced(obj[path[0]], path[1:], value)
    return out


CASES = [(doc, path) for doc in DOCS for path in paths(doc)]


def test_the_documents_read_back():
    for doc in DOCS:
        assert series_from_json(doc).to_json() == doc


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CASES), EDGES | JSON)
def test_one_field_replaced(case, value):
    doc, path = case
    try:
        x = series_from_json(replaced(doc, path, value))
    except TdlfError:
        return
    assert isinstance(x, (EqualCharSeries, MixedSeries))
