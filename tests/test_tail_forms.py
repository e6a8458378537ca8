"""Tails through their ``(slope, offset)`` form: a slope-zero affine tail is
the constant it equals, and a tail's limit on either side matches its values
far out."""

from tdlf import (
    MINUS_INF,
    PLUS_INF,
    AffineTail,
    ConstTail,
    ExtInt,
    NonAdmissibleSequence,
    SeminormSpec,
    SeqSpec,
    SubmoduleSpec,
    classify,
    pointwise_max,
    pointwise_min,
    reflect_affine,
    shift_add,
    validate,
)
from tdlf.seqspec import _form, _tail
from helpers import rand_seqspec, rand_tail, rng


def slope_zero_twin(s: SeqSpec) -> SeqSpec:
    """``s`` with each finite constant tail written as ``AffineTail(0, c)``."""

    def twin(t):
        if isinstance(t, ConstTail) and t.value.is_finite:
            return AffineTail(0, t.value.n)
        return t

    return SeqSpec(s.window_lo, s.values[:], twin(s.left), twin(s.right))


def validation(s: SeqSpec, kind: str) -> str | None:
    try:
        validate(SeminormSpec(s, kind))
    except NonAdmissibleSequence as exc:
        return str(exc)
    return None


def test_slope_zero_affine_tail_acts_as_its_constant():
    twins = 0
    for seed in range(3000):
        r = rng(seed)
        a, b = rand_seqspec(r), rand_seqspec(r)
        c = r.randint(-5, 5)
        ta, tb = slope_zero_twin(a), slope_zero_twin(b)
        twins += (ta != a) + (tb != b)
        assert pointwise_min(ta, tb) == pointwise_min(a, b)
        assert pointwise_max(ta, tb) == pointwise_max(a, b)
        assert reflect_affine(ta, c) == reflect_affine(a, c)
        assert shift_add(ta, c) == shift_add(a, c)
        assert ta.canonical() == a.canonical()
        for kind in ("equal", "mixed"):
            assert classify(SubmoduleSpec(ta, kind)) == classify(SubmoduleSpec(a, kind))
            assert validation(ta, kind) == validation(a, kind)
    assert twins > 1000  # the swap is not vacuous


def test_tail_undoes_form():
    r = rng(31)
    for _ in range(300):
        t = rand_tail(r)  # never slope zero, so already normal
        assert _tail(*_form(t)) == t
    for offset in (-4, 0, 7):
        assert _tail(*_form(AffineTail(0, offset))) == ConstTail(ExtInt(offset))


def test_limit_matches_values_far_out():
    r = rng(32)
    tails = [rand_tail(r) for _ in range(300)] + [AffineTail(0, 5), AffineTail(0, -2)]
    for t in tails:
        for leftward, far in ((True, -10**6), (False, 10**6)):
            v, nearer = t.at(far), t.at(far // 2)
            if v == nearer:  # constant values: the limit is the value
                assert t.limit(leftward) == v
            else:  # strictly monotone towards the side
                assert t.limit(leftward) == (PLUS_INF if v > nearer else MINUS_INF)
