"""The value classes: slotted, immutable, compared and printed like frozen
dataclasses, and ``import tdlf`` loads no ``dataclasses``.

Each of the fifteen classes is built by keyword and by position and
checked for equality, hash, repr, immutability, copy and pickle.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from tdlf import (
    PLUS_INF,
    AffineTail,
    ConstTail,
    EqualCharSeries,
    ExponentResult,
    ExtInt,
    LeftValBound,
    MixedSeries,
    PAdic,
    RightValBound,
    SeminormSpec,
    SeqSpec,
    SubmoduleSpec,
    ValuationResult,
    ZeroTail,
)
from tdlf.oracle import SampleConfig
from tdlf.seqspec import Frozen
from tdlf.submodule import Classification

SRC = Path(__file__).resolve().parents[1] / "src"

C = PAdic.make(5, 1, 7, 10)
SEQ = SeqSpec(0, (1, 2), ConstTail(PLUS_INF), AffineTail(-1, 0))
SEQ_REPR = ("SeqSpec(window_lo=0, window_hi=1, pieces=((0, 1, 1, 1),), left=ConstTail(value=+inf), "
            "right=AffineTail(slope=-1, offset=0))")

# (class, keyword arguments, one argument changed, repr)
CASES = [
    (PAdic, dict(prime=5, val=ExtInt(1), unit=7, precision=ExtInt(10)), dict(unit=8),
     "7*5^1 + O(5^10)"),
    (ExponentResult, dict(exponent=ExtInt(3), exact=True), dict(exact=False),
     "ExponentResult(exponent=3, exact=True)"),
    (ConstTail, dict(value=PLUS_INF), dict(value=ExtInt(0)), "ConstTail(value=+inf)"),
    (AffineTail, dict(slope=-1, offset=0), dict(offset=1), "AffineTail(slope=-1, offset=0)"),
    (SeqSpec, dict(window_lo=0, values=(1, 2), left=ConstTail(PLUS_INF), right=AffineTail(-1, 0)),
     dict(values=(1, 3)), SEQ_REPR),
    (ZeroTail, {}, None, "ZeroTail()"),
    (LeftValBound, dict(slope=1, base=2), dict(base=3), "LeftValBound(slope=1, base=2)"),
    (RightValBound, dict(floor=3), dict(floor=4), "RightValBound(floor=3)"),
    (ValuationResult, dict(value=ExtInt(7), exact=True), dict(value=ExtInt(8)),
     "ValuationResult(value=7, exact=True)"),
    (EqualCharSeries, dict(prime=5, order=0, coeffs=((0, C),), trunc=ExtInt(3)),
     dict(trunc=PLUS_INF),
     "EqualCharSeries(prime=5, stored=((0, 7*5^1 + O(5^10)),), g=SeqSpec(window_lo=0, "
     "window_hi=2, pieces=((0, 2, None, 1),), left=ConstTail(value=+inf), "
     "right=ConstTail(value=-inf)))"),
    (MixedSeries,
     dict(prime=5, lo=0, hi=1, coeffs=((0, C),), left=ZeroTail(), right=RightValBound(2)),
     dict(hi=2),
     "MixedSeries(prime=5, stored=((0, 7*5^1 + O(5^10)),), g=SeqSpec(window_lo=0, "
     "window_hi=1, pieces=((0, 1, None, 1),), left=ConstTail(value=+inf), "
     "right=ConstTail(value=2)))"),
    (SubmoduleSpec, dict(seq=SEQ, field_kind="mixed"), dict(field_kind="equal"),
     f"SubmoduleSpec(seq={SEQ_REPR}, field_kind='mixed')"),
    (Classification, dict(open_lattice=True, bounded=True, compactoid=False), dict(closed=True),
     "Classification(open_lattice=True, bounded=True, compactoid=False, complete=None, "
     "c_compact=None, closed=None)"),
    (SeminormSpec, dict(seq=SEQ, field_kind="mixed"), dict(field_kind="equal"),
     f"SeminormSpec(seq={SEQ_REPR}, field_kind='mixed')"),
    (SampleConfig, dict(seed=1, count=2), dict(window=(0, 0)),
     "SampleConfig(seed=1, count=2, window=(-10, 10), precision=32)"),
]
IDS = [case[0].__name__ for case in CASES]


def fields(x) -> tuple:
    return tuple(getattr(x, f) for f in type(x)._fields)


def test_the_fifteen_classes():
    assert len(CASES) == 15
    assert all(issubclass(cls, Frozen) for cls, *_ in CASES)


@pytest.mark.parametrize("cls, kwargs, change, text", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, kwargs, change, text):
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields(a))
    if change is not None:
        other = cls(**{**kwargs, **change})
        assert a != other and not a == other


@pytest.mark.parametrize("cls, kwargs, change, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, kwargs, change, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, kwargs, change, text", CASES, ids=IDS)
def test_other_types_are_not_implemented(cls, kwargs, change, text):
    a = cls(**kwargs)
    for other in (object(), None, 0, "x"):
        assert a.__eq__(other) is NotImplemented
        assert a != other
    assert a.__eq__(fields(a)) is NotImplemented and a != fields(a)


@pytest.mark.parametrize("cls, kwargs, change, text", CASES, ids=IDS)
def test_assignment_raises(cls, kwargs, change, text):
    a = cls(**kwargs)
    for name in (*type(a)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    for name in type(a)._fields:
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("cls, kwargs, change, text", CASES, ids=IDS)
def test_copy_and_pickle_rebuild_equal_values(cls, kwargs, change, text):
    a = cls(**kwargs)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a and hash(b) == hash(a)


def test_classes_with_equal_fields_differ():
    a, b = SeminormSpec(SEQ, "mixed"), SubmoduleSpec(SEQ, "mixed")
    assert a.__eq__(b) is NotImplemented and a != b


def test_defaults():
    c = Classification(True, False, False)
    assert (c.complete, c.c_compact, c.closed) == (None, None, None)
    cfg = SampleConfig(7, 3)
    assert (cfg.window, cfg.precision) == ((-10, 10), 32)


def test_construction_checks():
    with pytest.raises(ValueError, match="slope >= 1"):
        LeftValBound(0, 2)
    with pytest.raises(ValueError, match=r"outside \[order, trunc\)"):
        EqualCharSeries(5, 0, ((3, C),), ExtInt(3))
    with pytest.raises(ValueError, match="lo <= hi"):
        MixedSeries(5, 1, 0, (), ZeroTail(), ZeroTail())
    with pytest.raises(ValueError, match="outside window"):
        MixedSeries(5, 0, 1, ((2, C),), ZeroTail(), ZeroTail())


def test_a_repeated_index_is_refused():
    """The raw constructors name an index given twice instead of keeping its
    last coefficient; ``from_coeffs`` takes a mapping, which cannot repeat."""
    D = PAdic.from_int(3, 5)
    with pytest.raises(ValueError, match="coefficient index 1 given twice"):
        EqualCharSeries(5, 0, ((1, C), (1, D)), 5)
    with pytest.raises(ValueError, match="coefficient index 1 given twice"):
        MixedSeries(5, 0, 2, ((1, C), (2, D), (1, D)), ZeroTail(), ZeroTail())
    assert EqualCharSeries(5, 0, ((1, C), (2, D)), 5) == EqualCharSeries.from_coeffs(5, {1: C, 2: D}, 0, 5)
    assert MixedSeries(5, 0, 2, ((2, D), (1, C)), ZeroTail(), ZeroTail()) == MixedSeries.from_coeffs(
        5, {1: C, 2: D}, lo=0, hi=2)


def mixed(coeffs):
    return MixedSeries.from_coeffs(5, coeffs)


def equal(coeffs):
    return EqualCharSeries.from_coeffs(5, coeffs)


@pytest.mark.parametrize("build, coeffs, match", [
    # a float index built a window at 1.5 behind a left bound
    (lambda c: MixedSeries.from_coeffs(5, c, left=LeftValBound(1, 0)), {1.5: C}, "got 1.5"),
    (mixed, {"a": C}, "got 'a'"),
    (mixed, {True: C}, "got True"),
    (equal, {1.5: C}, "got 1.5"),
    (mixed, [(0, C)], "mapping, got list"),
    (equal, [(0, C)], "mapping, got list"),
], ids=["mixed-float", "mixed-str", "mixed-bool", "equal-float", "mixed-list", "equal-list"])
def test_from_coeffs_refuses_a_bad_index_key(build, coeffs, match):
    """An index that is not exactly an ``int``, or coefficients that are not
    a mapping, raise a TypeError that names them."""
    with pytest.raises(TypeError, match=match):
        build(coeffs)


@pytest.mark.parametrize("cls", [EqualCharSeries, MixedSeries])
def test_coefficient_map_is_built_once_and_is_not_a_field(cls):
    kwargs = next(kw for c, kw, *_ in CASES if c is cls)
    x, twin = cls(**kwargs), cls(**kwargs)
    assert x._map == {0: C} and x._map is x._map
    assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
    assert pickle.loads(pickle.dumps(x))._map == {0: C}


def test_import_loads_no_dataclasses():
    # pytest itself imports dataclasses, so a fresh interpreter checks
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import tdlf, tdlf.cli; "
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
